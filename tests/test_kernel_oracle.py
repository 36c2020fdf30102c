"""Forward error of the projective kernel and the group law against an
independent oracle.

Every linear-fractional map of the package runs through one matrix kernel,
and ``compose`` and ``invert`` work on the parameters in closed form.  The
oracle is the direct formulas of ``tests/formulas.py``, evaluated by mpmath
at 40 digits on the very same float inputs, so the relative forward error
``||computed - exact|| / ||exact||`` is measured, not float64 against
float64.
"""

import formulas
import mpmath
import numpy as np
import pytest

from siegelball.autgroup import (
    apply,
    ball_automorphism,
    compose,
    composition_radius,
    domain_radius,
    factor_apply,
    invert,
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


def _siegel_rows_in_domain(rng, params, d, radius=None):
    """One Siegel row per member with ||z||, |w| <= radius / 2 (by default
    the members' domain radius)."""
    radius = domain_radius(params) if radius is None else radius
    count = len(radius)
    scale = 0.5 * radius * rng.uniform(size=count)
    z = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    z *= (scale / np.linalg.norm(z, axis=1))[:, None]
    w = scale * np.exp(2j * np.pi * rng.uniform(size=count))
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


#: The wide parameter range of ``random_params``.
WIDE = {"a_max": 5.0, "r_max": 20.0, "s_min": 0.1, "s_max": 10.0}

#: Members per (d, range) in the group-law oracle; each is checked as a
#: member of the stack and on its own.
GROUP_DRAWS = 30

#: Worst relative error measured over d = 1, 3, 7, both ranges, stacks and
#: single members: 2.0e-15 for compose and 8.9e-15 for invert, both at the
#: wide range and d = 1 (9.8e-16 and 1.7e-15 at the default range).  The
#: bound leaves a margin of 11 over the worst.
GROUP_REL_TOL = 1e-13


def _automorphism(member, z, w):
    """The direct formula for ``member`` at the mpmath point (z, w)."""
    U, a = _mp(member.U), _mp(member.a)
    return formulas.automorphism(U, mpmath.mpf(member.s), a, mpmath.mpf(member.R), z, w)


def _gap(computed, exact) -> float:
    """Relative gap of two mpmath Siegel points (z, w)."""
    u, v = computed[0] + [computed[1]], exact[0] + [exact[1]]
    gap = mpmath.sqrt(sum(abs(x - y) ** 2 for x, y in zip(u, v)))
    return float(gap / mpmath.sqrt(sum(abs(y) ** 2 for y in v)))


@pytest.mark.parametrize("ranges", [{}, WIDE], ids=["default", "wide"])
@pytest.mark.parametrize("d", [1, 3, 7])
def test_group_law_forward_error_against_mpmath(d, ranges):
    """``compose(o, i)`` at a point, by the direct formula at 40 digits,
    is ``o`` after ``i`` there, and ``invert(p)`` after ``p`` returns the
    point: for the members of a stack and for the same members on their own."""
    outer = random_params(d, seed=90 + d, count=GROUP_DRAWS, **ranges)
    inner = random_params(d, seed=95 + d, count=GROUP_DRAWS, **ranges)
    composed, inverse = compose(outer, inner), invert(outer)
    rng = np.random.default_rng(100 + d)
    rows = _siegel_rows_in_domain(rng, outer, d, composition_radius(outer, inner))
    back = _siegel_rows_in_domain(rng, outer, d)
    worst = {"compose": 0.0, "invert": 0.0}
    with mpmath.workdps(40):
        for i in range(GROUP_DRAWS):
            o, p = outer[i], inner[i]
            *z, w = _mp(rows[i])
            chained = _automorphism(o, *_automorphism(p, z, w))
            *x, t = _mp(back[i])
            image = _automorphism(o, x, t)
            for product, inv in ((composed[i], inverse[i]), (compose(o, p), invert(o))):
                worst["compose"] = max(worst["compose"],
                                       _gap(_automorphism(product, z, w), chained))
                worst["invert"] = max(worst["invert"],
                                      _gap(_automorphism(inv, *image), (x, t)))
    print(f"d={d} {'wide' if ranges else 'default'} range, worst relative error: "
          + ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))
    assert all(v <= GROUP_REL_TOL for v in worst.values()), worst
