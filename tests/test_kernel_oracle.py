"""Forward error of the projective kernel against an independent oracle.

Every linear-fractional map of the package runs through one matrix kernel.
The oracle is the direct formulas of ``tests/formulas.py``, evaluated by
mpmath at 40 digits on the very same float inputs, so the relative forward
error ``||computed - exact|| / ||exact||`` is measured, not float64 against
float64.
"""

import formulas
import mpmath
import numpy as np
import pytest

from siegelball.autgroup import (
    apply,
    ball_automorphism,
    domain_radius,
    factor_apply,
    random_params,
)
from siegelball.geometry import (
    cayley,
    inverse_cayley,
    sample_ball,
    sample_siegel_boundary,
    sample_sphere,
    siegel_rows,
)

DRAWS = 60
REL_TOL = 1e-14


def _mp(x):
    """Float inputs as exact mpmath numbers (lists for arrays)."""
    if np.ndim(x) == 0:
        return mpmath.mpc(complex(x))
    return [_mp(v) for v in x]


def _relative_error(computed, exact) -> float:
    """``exact`` is a ball point (a list) or a Siegel point (a list z, w)."""
    computed = np.ravel(computed)
    exact = exact[0] + [exact[1]] if isinstance(exact, tuple) else exact
    gap = mpmath.sqrt(sum(abs(_mp(c) - e) ** 2 for c, e in zip(computed, exact)))
    return float(gap / mpmath.sqrt(sum(abs(e) ** 2 for e in exact)))


def _siegel_rows_in_domain(rng, params, d):
    """One Siegel row per member with ||z||, |w| <= domain_radius / 2."""
    scale = 0.5 * domain_radius(params) * rng.uniform(size=DRAWS)
    z = rng.standard_normal((DRAWS, d)) + 1j * rng.standard_normal((DRAWS, d))
    z *= (scale / np.linalg.norm(z, axis=1))[:, None]
    w = scale * np.exp(2j * np.pi * rng.uniform(size=DRAWS))
    return np.column_stack([z, w])


@pytest.mark.parametrize("d", [1, 3, 7])
def test_kernel_forward_error_against_mpmath(d):
    n = d + 1
    stack = random_params(d, seed=70 + d, count=DRAWS)
    rng = np.random.default_rng(80 + d)
    siegel = _siegel_rows_in_domain(rng, stack, d)
    interior = sample_ball(n, rng, DRAWS)
    sphere = sample_sphere(n, rng, DRAWS, min_pole_dist=0.1)
    boundary = sample_siegel_boundary(n, rng, DRAWS)
    lifted = boundary + np.append(np.zeros(d), 0.5j)  # Im w - ||z||^2 = 0.5
    images = apply(stack, siegel)
    factored = factor_apply(stack, siegel)
    worst = dict.fromkeys(["cayley", "inverse_cayley", "apply", "factor_apply",
                           "ball_automorphism"], 0.0)

    def record(name, computed, exact):
        worst[name] = max(worst[name], _relative_error(computed, exact))

    with mpmath.workdps(40):
        for i in range(DRAWS):
            member = stack[i]
            U, a = _mp(member.U), _mp(member.a)
            s, R = mpmath.mpf(member.s), mpmath.mpf(member.R)
            *z, w = _mp(siegel[i])
            record("apply", images[i], formulas.automorphism(U, s, a, R, z, w))
            record("factor_apply", factored[i], formulas.factored(U, s, a, R, z, w))
            for Z in (interior[i], sphere[i]):
                record("cayley", siegel_rows(cayley(Z)), formulas.cayley(_mp(Z)))
                record("ball_automorphism", ball_automorphism(member, Z),
                       formulas.ball_automorphism(U, s, a, R, _mp(Z)))
            for row in (boundary[i], lifted[i]):
                *z, w = _mp(row)
                record("inverse_cayley", inverse_cayley(row), formulas.inverse_cayley(z, w))
    print(f"d={d} worst relative forward error: "
          + ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))
    assert all(v <= REL_TOL for v in worst.values()), worst
