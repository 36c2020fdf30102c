"""Cauchy-integral jets and parameter recovery.

The hand-computed jets of the three generator families are the ground truth
here: the linear member has first-order data only, the scalar family has
g_ww = -2R and a mixed block -R I, and the translation-like family carries
all the second-order structure (2i||a||^2 terms).  Every automorphism's jet
is held to ``jets.automorphism_jet2``, its closed form; germs with no closed
form (the rectangular and Whitney germs) to central finite differences.
"""

import tracemalloc
import warnings
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from siegelball.autgroup import (
    AutParams,
    HoloMap,
    as_holo_map,
    domain_radius,
    param_distance,
    random_params,
)
from siegelball.geometry import cayley, inverse_cayley
from siegelball.hilbert import UNITARY_TOL, haar_unitary, unitarity_defect
from siegelball.jets import (
    DiffConfig,
    Jet2,
    JetRecoveryError,
    NotOriginFixingError,
    automorphism_jet2,
    cauchy_derivative,
    check_levi,
    check_polarization,
    extract_jet2,
    recover_params,
)
from siegelball.maps import WhitneySpec, shift_map, whitney_map


def finite_difference_jet2(H: HoloMap) -> Jet2:
    """Independent second-order jet oracle using central differences of step
    1e-5, from one evaluation of ``H`` on Siegel rows.  A stack of germs
    shares the stencil as rows (1, S, d + 1), and its jet fields gain a
    leading member axis."""
    d, step = H.dim, 1e-5
    h = step * np.eye(d, d + 1, dtype=complex)  # step e_j, one row per z_j
    v = step * np.eye(1, d + 1, d, dtype=complex)  # step e_w
    # Stencil: the origin, +-h, +-v and the four corners of each z_j/w square.
    rows = np.concatenate([0 * v, h, -h, v, -v, h + v, h - v, -h + v, -h - v])
    lead = (1,) * np.ndim(H.domain_radius)  # the same rows for every member
    images = H.evaluate(rows.reshape(lead + rows.shape))
    F, G = images[..., :-1], images[..., -1]
    cuts = np.cumsum([1, d, d, 1, 1, d, d, d])
    f0, fz_hi, fz_lo, fw_hi, fw_lo, pp, pm, mp, mm = np.split(F, cuts, axis=-2)
    g0, gz_hi, gz_lo, gw_hi, gw_lo = np.split(G, cuts, axis=-1)[:5]
    return Jet2(
        f_z=(fz_hi - fz_lo).swapaxes(-1, -2) / (2 * step),
        f_w=(fw_hi - fw_lo)[..., 0, :] / (2 * step),
        g_z=(gz_hi - gz_lo) / (2 * step),
        g_w=(gw_hi - gw_lo)[..., 0] / (2 * step),
        g_w2=(gw_hi - 2 * g0 + gw_lo)[..., 0] / step**2,
        f_zw=(pp - pm - mp + mm).swapaxes(-1, -2) / (4 * step**2),
        f_w2=(fw_hi - 2 * f0 + fw_lo)[..., 0, :] / step**2,
    )


def test_finite_difference_oracle_on_linear_member():
    """The oracle itself is validated against a map whose jet is known."""
    U = haar_unitary(2, seed=6)
    jet = finite_difference_jet2(as_holo_map(AutParams(U, 1.5, np.zeros(2), 0.0)))
    assert np.max(np.abs(jet.f_z - 1.5 * U)) < 1e-6
    assert abs(jet.g_w - 2.25) < 1e-6
    assert np.max(np.abs(jet.f_w)) < 1e-6


def test_stacked_finite_difference_oracle_matches_single_members():
    """A stack of germs shares one stencil: each member's oracle jet equals
    the oracle run on that member alone."""
    stack = random_params(3, seed=47, count=5)
    stacked = finite_difference_jet2(as_holo_map(stack))
    for i in range(5):
        single = finite_difference_jet2(as_holo_map(stack[i]))
        for field in fields(single):
            value = getattr(single, field.name)
            assert np.shape(getattr(stacked, field.name)) == (5, *np.shape(value))
            assert_allclose(getattr(stacked, field.name)[i], value,
                            rtol=1e-12, atol=1e-12, err_msg=field.name)


def test_diff_config_validation():
    """The radius is the one field; M = 32 nodes is a constant."""
    assert DiffConfig(radius=0.2).nodes == DiffConfig().nodes == 32
    with pytest.raises(ValueError, match="radius"):
        DiffConfig(radius=0.0)
    with pytest.raises(ValueError, match="radius"):
        DiffConfig(radius=float("inf"))
    with pytest.raises(TypeError, match="nodes"):
        DiffConfig(nodes=16)


def test_cauchy_derivative_of_exp():
    # Every derivative of exp at 0 equals 1.  A unit-ish circle keeps the
    # k!/rho^k roundoff amplification small for the higher orders.
    cfg = DiffConfig(radius=0.5)
    for order in range(7):
        value = cauchy_derivative(np.exp, order, cfg)
        assert abs(value - 1.0) < 1e-10, f"order {order}: {value}"


def test_cauchy_derivative_geometric_series():
    """f(t) = 1/(1-t) has f'''(0) = 6; the circle must stay off the pole.
    The alias term is 3! rho^32 (about 1e-16 at rho = 0.3, 1.4e-9 at 0.5)."""
    cfg = DiffConfig(radius=0.3)
    value = cauchy_derivative(lambda t: 1.0 / (1.0 - t), 3, cfg)
    assert abs(value - 6.0) < 1e-10


def test_cauchy_derivative_monomials():
    cfg = DiffConfig()
    assert abs(cauchy_derivative(lambda t: t**2, 2, cfg) - 2.0) < 1e-14
    assert abs(cauchy_derivative(lambda t: t**5, 5, cfg) - 120.0) < 1e-10
    assert abs(cauchy_derivative(lambda t: t**5, 3, cfg)) < 1e-10
    assert abs(cauchy_derivative(lambda t: t**2, 0, cfg)) < 1e-14
    assert abs(cauchy_derivative(lambda t: np.full_like(t, 3.0), 1, cfg)) < 1e-14


def test_cauchy_derivative_array_valued():
    value = cauchy_derivative(lambda t: np.stack([t, t**2], axis=-1), 1)
    assert_allclose(value, [1.0, 0.0], atol=1e-12)


def test_cauchy_derivative_calls_phi_once_on_every_node():
    """phi gets all M circle nodes in one call and answers node axis first;
    samples along another axis are refused."""
    cfg = DiffConfig(radius=0.3)
    calls = []

    def phi(t):
        calls.append(t.copy())
        return np.stack([np.exp(t), t**3], axis=-1)

    assert_allclose(cauchy_derivative(phi, 3, cfg), [1.0, 6.0], atol=1e-10)
    assert len(calls) == 1 and calls[0].shape == (32,)
    assert len(np.unique(calls[0])) == 32
    assert_allclose(np.abs(calls[0]), 0.3, rtol=1e-15)
    with pytest.raises(ValueError, match="32 samples on axis 0"):
        cauchy_derivative(lambda t: np.stack([t, t**2]), 1, cfg)


def test_cauchy_derivative_order_limits():
    with pytest.raises(ValueError, match="order"):
        cauchy_derivative(np.exp, -1)
    with pytest.raises(ValueError, match="exceeds nodes/2"):
        cauchy_derivative(np.exp, 17)


def test_jet_of_identity():
    jet = extract_jet2(as_holo_map(AutParams(np.eye(2), 1.0, np.zeros(2), 0.0)))
    assert_allclose(jet.f_z, np.eye(2), atol=1e-13)
    assert abs(jet.g_w - 1.0) < 1e-13
    for name in ("f_w", "g_z", "g_w2", "f_zw", "f_w2"):
        assert_allclose(getattr(jet, name), 0.0, atol=1e-13)
    recovered = recover_params(jet)
    assert_allclose(recovered.U, np.eye(2), atol=1e-12)
    assert recovered.s == pytest.approx(1.0)
    assert_allclose(recovered.a, 0.0, atol=1e-12)
    assert recovered.R == pytest.approx(0.0, abs=1e-12)


def test_jet_of_linear_member():
    U = haar_unitary(3, seed=2)
    s = 1.3
    jet = extract_jet2(as_holo_map(AutParams(U, s, np.zeros(3), 0.0)))
    assert_allclose(jet.f_z, s * U, atol=1e-12)
    assert abs(jet.g_w - s**2) < 1e-12
    assert_allclose(jet.f_w, 0.0, atol=1e-12)
    assert_allclose(jet.g_z, 0.0, atol=1e-12)
    assert abs(jet.g_w2) < 1e-11
    assert_allclose(jet.f_zw, 0.0, atol=1e-11)
    assert_allclose(jet.f_w2, 0.0, atol=1e-11)


def test_jet_of_scalar_family():
    R = 0.75
    jet = extract_jet2(as_holo_map(AutParams(np.eye(2), 1.0, np.zeros(2), R)))
    assert_allclose(jet.f_z, np.eye(2), atol=1e-12)
    assert abs(jet.g_w - 1.0) < 1e-12
    assert abs(jet.g_w2 - (-2.0 * R)) < 1e-11
    assert_allclose(jet.f_zw, -R * np.eye(2), atol=1e-11)
    assert_allclose(jet.f_w2, 0.0, atol=1e-11)


def test_jet_of_translation_family():
    rng = np.random.default_rng(6)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a *= 0.8 / np.linalg.norm(a)
    jet = extract_jet2(as_holo_map(AutParams(np.eye(2), 1.0, a, 0.0)))
    a2 = np.linalg.norm(a) ** 2
    assert_allclose(jet.f_z, np.eye(2), atol=1e-12)
    assert_allclose(jet.f_w, a, atol=1e-12)
    assert abs(jet.g_w - 1.0) < 1e-12
    assert abs(jet.g_w2 - 2j * a2) < 1e-11
    assert_allclose(jet.f_w2, 2j * a2 * a, atol=1e-11)
    expected_mixed = 1j * a2 * np.eye(2) + 2j * np.outer(a, np.conj(a))
    assert_allclose(jet.f_zw, expected_mixed, atol=1e-11)


def test_jet_matches_finite_differences():
    H = as_holo_map(random_params(3, seed=11))
    exact = extract_jet2(H)
    fd = finite_difference_jet2(H)
    for name in ("f_z", "f_w", "g_z", "g_w", "g_w2", "f_zw", "f_w2"):
        gap = np.max(np.abs(np.atleast_1d(getattr(exact, name))
                            - np.atleast_1d(getattr(fd, name))))
        assert gap < 1e-4, f"{name}: finite-difference gap {gap:.3e}"


@pytest.mark.parametrize("dim", [1, 3, 7])
def test_extracted_jet_matches_closed_form(dim):
    """The jet read off the batched evaluator's circle grids equals the
    closed-form 2-jet of the automorphism."""
    for seed in range(5):
        params = random_params(dim, seed)
        jet = extract_jet2(as_holo_map(params))
        expected = automorphism_jet2(params)
        for name in ("f_z", "f_w", "g_z", "g_w", "g_w2", "f_zw", "f_w2"):
            gap = np.max(np.abs(np.atleast_1d(getattr(jet, name))
                                - np.atleast_1d(getattr(expected, name))))
            assert gap < 1e-10, f"{name}: closed-form gap {gap:.3e}"


#: Twice the worst closed-form gap per jet field over the draws of
#: test_mixed_block_accuracy_over_many_draws (seeds 0-199, d = 1, 3, 7) when
#: f_zw was read off the difference of the psi+ and psi- samples.  g_z
#: vanishes exactly, as G is 0 on the z-axes.
JET_GAP_BOUNDS = {"f_z": 1.8e-15, "f_w": 1.4e-15, "g_z": 0.0, "g_w": 2.7e-15,
                  "g_w2": 1.9e-14, "f_zw": 7.5e-15, "f_w2": 1.1e-14}


@pytest.mark.parametrize("dim", [1, 3, 7])
def test_mixed_block_accuracy_over_many_draws(dim):
    """Every jet field, f_zw included, stays at roundoff level over 200
    default-range draws, where the default radius 0.1 would reach 0.8 of the
    map's domain radius (extract_jet2 shrinks such circles to half of it).
    At half the domain radius every circle, the diagonals included, gets by
    with cfg.nodes points: its alias term shrinks like (1/2)^32."""
    worst = dict.fromkeys(JET_GAP_BOUNDS, 0.0)
    reach = 0.0
    for seed in range(200):
        params = random_params(dim, seed)
        H = as_holo_map(params)
        reach = max(reach, DiffConfig().radius / H.domain_radius)
        jet, expected = extract_jet2(H), automorphism_jet2(params)
        for name in worst:
            gap = np.abs(np.asarray(getattr(jet, name)) - getattr(expected, name))
            worst[name] = max(worst[name], float(gap.max()))
    assert reach > 0.79
    for name, bound in JET_GAP_BOUNDS.items():
        assert worst[name] <= bound, f"{name} closed-form gap {worst[name]:.3e}"


def _edge_pole_germs(r):
    """d = 1 germs on Siegel rows (z, w) with a pole exactly at their domain
    radius r: on the w-axis, on the z-axis and on the + diagonal.  Each comes
    with the field that the pole's circle feeds and its exact value."""

    def germ(f, g):
        def evaluate(rows):
            z, w = rows[..., 0], rows[..., 1]
            return np.stack([f(z, w), g(z, w)], axis=-1)
        return HoloMap(evaluate, 2, 2, domain_radius=r)

    return {
        "w-axis": (germ(lambda z, w: z, lambda z, w: w / (1 - w / r)), "g_w2", 2 / r),
        "z-axis": (germ(lambda z, w: z + z * w / (1 - z / r), lambda z, w: w),
                   "f_zw", 1.0),
        "diagonal": (germ(lambda z, w: z * w / (1 - (z + w) / (2 * r)),
                          lambda z, w: w), "f_zw", 1.0),
    }


@pytest.mark.parametrize("r", [0.05, 0.2])
@pytest.mark.parametrize("line", ["w-axis", "z-axis", "diagonal"])
def test_edge_pole_alias_bound(line, r):
    """A germ whose pole sits exactly at its domain radius, on any of the
    lines the jet reads, loses at most the trapezoidal alias term (1/2)^M =
    2.3e-10 of M = 32 nodes at half that radius (Trefethen and Weideman,
    SIAM Review 2014); 1e-9 is about 4x that."""
    H, name, exact = _edge_pole_germs(r)[line]
    value = np.asarray(getattr(extract_jet2(H), name)).item()
    assert abs(value - exact) <= 1e-9 * abs(exact), f"{name} = {value!r}"


@pytest.mark.parametrize("dim", [1, 3, 7])
def test_extraction_evaluates_once_on_circles(dim):
    """One call of the evaluator on 1 + M + 3dM rows, and the same jet as the
    unwrapped map.  Every row is the origin or rho t v, with t an M-th root
    of unity and v one of the 3d + 1 directions e_w, e_j and e_j +- e_w, each
    pair (t, v) once: the jet reads the germ only on complex lines through
    the origin (the paper's Gateaux hypothesis)."""
    params = random_params(dim, 4)
    H = as_holo_map(params)
    calls = []

    def counting(rows):
        calls.append(rows)
        return H.evaluate(rows)

    cfg = DiffConfig()
    jet = extract_jet2(replace(H, evaluate=counting), cfg)
    M = cfg.nodes
    assert len(calls) == 1
    rows = calls[0]
    assert rows.shape == (1 + M + 3 * dim * M, dim + 1)

    rho = min(cfg.radius, 0.5 * H.domain_radius)
    eye = np.eye(dim + 1)
    directions = np.concatenate([eye[dim:], eye[:dim], eye[:dim] + eye[dim],
                                 eye[:dim] - eye[dim]])
    assert not rows[0].any()
    x = rows[1:] / rho
    # Every direction's first nonzero coordinate is 1, so t is x's.
    t = x[np.arange(len(x)), np.argmax(np.abs(x) > 0.5, axis=1)]
    node = np.round(np.angle(t) * M / (2 * np.pi)).astype(int) % M
    assert_allclose(t, np.exp(2j * np.pi * node / M), rtol=0, atol=1e-15)
    gaps = np.abs(x[:, None, :] / t[:, None, None] - directions).max(axis=-1)
    line = gaps.argmin(axis=1)
    assert gaps.min(axis=1).max() <= 1e-15
    assert len(set(zip(line, node))) == len(x) == (3 * dim + 1) * M

    plain = extract_jet2(H, cfg)
    for name in ("f_z", "f_w", "g_z", "g_w", "g_w2", "f_zw", "f_w2"):
        assert_allclose(getattr(jet, name), getattr(plain, name), rtol=0, atol=0)


def test_stack_extraction_shares_one_grid():
    """A stack's evaluator gets the one grid as rows (1, R, d + 1), which
    broadcast against the members, not B copies of it."""
    H = as_holo_map(random_params(3, 4, count=5))
    shapes = []

    def counting(rows):
        shapes.append(rows.shape)
        return H.evaluate(rows)

    jet = extract_jet2(replace(H, evaluate=counting))
    R = 1 + 32 + 3 * 3 * 32
    assert shapes == [(1, R, 4)]
    assert jet.f_z.shape == (5, 3, 3) and jet.g_w.shape == (5,)


def test_stack_extraction_peak_memory():
    """On a 6-member d = 7 stack the traced peak of extract_jet2 is at most
    twice the kernel's product array, B R (d + 2) complex entries: the grid
    is not copied per member and the images are scaled in place."""
    H = as_holo_map(random_params(7, 5, count=6))
    extract_jet2(H)  # fills the cached grid and quadrature rows
    tracemalloc.start()
    try:
        extract_jet2(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 6 * (1 + 32 + 3 * 7 * 32) * (7 + 2) * 16


@pytest.mark.parametrize(("dim", "count"), [(63, None), (31, 3), (7, 10)])
def test_extraction_calls_hold_whole_circles(dim, count):
    """Past 2^15 image entries (members x rows x (d + 2)) the grid goes in
    several calls: each holds whole circles, rho t v at all M nodes t for
    its directions v, and stays within the budget unless it is one circle;
    the calls take the directions in turn, and the origin comes once, first.
    A stack's calls keep the shared (1, R, d + 1) rows, and the jet still
    recovers the parameters."""
    params = random_params(dim, 6, count=count)
    H = as_holo_map(params)
    calls = []

    def counting(rows):
        calls.append(rows)
        return H.evaluate(rows)

    jet = extract_jet2(replace(H, evaluate=counting))
    M, members = 32, 1 if count is None else count
    assert len(calls) > 1
    if count is not None:
        assert all(rows.shape[:1] == (1,) for rows in calls)
        calls = [rows[0] for rows in calls]
    assert not calls[0][0].any()
    assert all(len(rows) * members * (dim + 2) <= 2**15 or len(rows) == M
               for rows in calls)

    rho = min(0.1, 0.5 * np.min(H.domain_radius))
    eye = np.eye(dim + 1)
    directions = np.concatenate([eye[dim:], eye[:dim], eye[:dim] + eye[dim],
                                 eye[:dim] - eye[dim]])
    index = {tuple(v): i for i, v in enumerate(directions)}
    nodes = np.exp(2j * np.pi * np.arange(M) / M)
    seen = 0
    for rows in [calls[0][1:]] + calls[1:]:
        x = rows / rho
        assert len(x) % M == 0 and not (np.abs(x).max(axis=1) == 0).any()
        # Every direction's first nonzero coordinate is 1, so t is x's.
        t = x[np.arange(len(x)), np.argmax(np.abs(x) > 0.5, axis=1)]
        node = np.round(np.angle(t) * M / (2 * np.pi)).astype(int) % M
        assert_allclose(t, nodes[node], rtol=0, atol=1e-15)
        v = x / t[:, None]
        assert_allclose(v, np.round(v.real), rtol=0, atol=1e-15)
        line = [index[tuple(u)] for u in np.round(v.real)]
        lines = range(seen, seen + len(x) // M)
        assert sorted(zip(line, node)) == [(v, n) for v in lines for n in range(M)]
        seen = lines.stop
    assert seen == 3 * dim + 1
    assert np.all(param_distance(recover_params(jet), params) < 1e-8)


def test_single_germ_extraction_peak_memory():
    """A single d = 63 germ is evaluated in calls of at most 2^15 image
    entries, each reduced before the next: the traced peak of extract_jet2
    stays at most 4 MB (19.1 MB with the whole 6081-row grid in one call)."""
    H = as_holo_map(random_params(63, 5))
    extract_jet2(H)  # fills the cached directions and quadrature rows
    tracemalloc.start()
    try:
        extract_jet2(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_recovery_roundtrip(dim):
    for seed in range(5):
        params = random_params(dim, seed)
        recovered = recover_params(extract_jet2(as_holo_map(params)))
        assert param_distance(recovered, params) < 1e-8


def _jet(d=2, **overrides) -> Jet2:
    base = dict(
        f_z=np.eye(d, dtype=complex),
        f_w=np.zeros(d, dtype=complex),
        g_z=np.zeros(d, dtype=complex),
        g_w=1.0 + 0j,
        g_w2=0.0 + 0j,
        f_zw=np.zeros((d, d), dtype=complex),
        f_w2=np.zeros(d, dtype=complex),
    )
    base.update(overrides)
    return Jet2(**base)


def test_recovery_of_trivial_jet():
    recovered = recover_params(_jet())
    assert recovered.s == 1.0
    assert_allclose(recovered.U, np.eye(2))
    assert_allclose(recovered.a, 0.0)
    assert recovered.R == 0.0


def test_recovery_rejects_nonpositive_g_w():
    with pytest.raises(JetRecoveryError, match="g_w not positive real"):
        recover_params(_jet(g_w=-1.0 + 0j))
    with pytest.raises(JetRecoveryError, match="g_w not positive real"):
        recover_params(_jet(g_w=1.0 + 1e-3j))


def test_recovery_rejects_singular_derivative():
    with pytest.raises(JetRecoveryError, match="derivative not onto"):
        recover_params(_jet(f_z=np.zeros((2, 2), dtype=complex)))


def test_recovery_rejects_nan_derivative():
    """A NaN in f_z is a typed "derivative not onto", on one member and on the
    member of a stack that holds it, ahead of a non-unitary member before it."""
    f_z = np.eye(2, dtype=complex)
    f_z[0, 1] = np.nan
    with pytest.raises(JetRecoveryError, match=r"^derivative not onto: cond\(f_z\) = inf"):
        recover_params(_jet(f_z=f_z))
    jet = extract_jet2(as_holo_map(random_params(3, 23, count=6)))
    f_z = jet.f_z.copy()
    f_z[1] = f_z[1] @ np.diag([1.0, 1.5, 1.0])
    f_z[3, 2, 0] = np.nan
    with pytest.raises(JetRecoveryError, match=r"^member 3: derivative not onto: .* = inf"):
        recover_params(replace(jet, f_z=f_z))


@pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf, complex(np.inf, np.inf),
                                 complex(0.0, np.inf)])
def test_recovery_rejects_non_finite_member_without_warning(bad):
    """A germ, or member 4 of a stack of 6, whose f_z is not finite is a typed
    "derivative not onto", and one whose f_w or g_w2 is not finite a typed "R
    not real"; no RuntimeWarning escapes on the way."""
    failures = {"f_z": "derivative not onto", "f_w": "R not real", "g_w2": "R not real"}
    for count, member in ((None, ""), (6, "member 4: ")):
        jet = extract_jet2(as_holo_map(random_params(3, 24, count=count)))
        for name, failure in failures.items():
            value = np.array(getattr(jet, name), dtype=complex)
            value[... if count is None else 4] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(JetRecoveryError, match=f"^{member}{failure}"):
                    recover_params(replace(jet, **{name: value}))


def test_recovery_rejects_non_unitary_derivative():
    with pytest.raises(JetRecoveryError, match="not unitary"):
        recover_params(_jet(f_z=np.diag([1.0 + 0j, 2.0 + 0j])))


def test_recovery_rejects_complex_r():
    with pytest.raises(JetRecoveryError, match="R not real"):
        recover_params(_jet(g_w2=2j))


def test_recovery_accepts_compensated_imaginary_part():
    # g_w2 = 2i||f_w||^2 is exactly the translation member: R comes out 0.
    a = np.array([0.6, 0.0], dtype=complex)
    jet = _jet(f_w=a, g_w2=2j * np.linalg.norm(a) ** 2)
    recovered = recover_params(jet)
    assert recovered.R == pytest.approx(0.0, abs=1e-12)
    assert_allclose(recovered.a, a, atol=1e-12)


def test_extract_requires_origin_fixing():
    shifted = HoloMap(lambda rows: rows + [0, 0, 0.5], 3, 3, domain_radius=1.0)
    with pytest.raises(NotOriginFixingError, match="not origin-fixing"):
        extract_jet2(shifted)


def test_extract_requires_radius_inside_domain():
    """The circles shrink to half the domain radius when ``cfg.radius`` does
    not fit inside it; a domain radius that is not positive is a typed error."""
    params = random_params(2, seed=3)
    H = as_holo_map(params)
    wide = extract_jet2(H, DiffConfig(radius=H.domain_radius))
    half = extract_jet2(H, DiffConfig(radius=0.5 * H.domain_radius))
    for field, value in zip(astuple(wide), astuple(half)):
        assert np.array_equal(field, value)
    assert param_distance(recover_params(wide), params) < 1e-13
    for radius in (0.0, -1.0, np.nan):
        with pytest.raises(JetRecoveryError, match="domain radius .* is not positive"):
            extract_jet2(replace(H, domain_radius=radius))


def _levi_pairs(rng, d=3, count=50, scale=0.04):
    """Stacked samples (zs, us): ||z|| = scale, ||u|| = 1."""
    zs = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    zs *= scale / np.linalg.norm(zs, axis=1, keepdims=True)
    us = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    return zs, us / np.linalg.norm(us, axis=1, keepdims=True)


def test_check_levi_on_automorphisms():
    rng = np.random.default_rng(4)
    H = as_holo_map(random_params(3, seed=9))
    assert check_levi(H, *_levi_pairs(rng)).max() < 1e-10


def test_check_levi_trivial_members():
    # Identity: both sides are <z, u>.  The linear member scales both
    # sides by s^2, so the residual stays at quadrature level.
    rng = np.random.default_rng(8)
    pairs = _levi_pairs(rng)
    ident = as_holo_map(AutParams(np.eye(3), 1.0, np.zeros(3), 0.0))
    assert check_levi(ident, *pairs).max() < 1e-14
    omega = as_holo_map(AutParams(haar_unitary(3, seed=7), 1.9, np.zeros(3), 0.0))
    assert check_levi(omega, *pairs).max() < 1e-12


def test_check_polarization_on_automorphisms():
    rng = np.random.default_rng(5)
    H = as_holo_map(random_params(3, seed=10))
    zs = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
    chis = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
    zs *= 0.03 / np.linalg.norm(zs, axis=1, keepdims=True)
    chis *= 0.03 / np.linalg.norm(chis, axis=1, keepdims=True)
    taus = 0.03 * (rng.standard_normal(50) + 1j * rng.standard_normal(50))
    assert check_polarization(H, zs, chis, taus).max() < 1e-10


def test_polarization_reduces_to_vanishing_on_the_slice():
    """With the partner data zeroed out the identity says g(z, 0) = 0."""
    H = as_holo_map(random_params(2, seed=12))
    z = np.array([[0.02, 0.01j]])
    residual = check_polarization(H, z, np.zeros((1, 2)), np.zeros(1)).max()
    assert residual < 1e-15


def test_polarization_raises_on_out_of_domain_samples():
    """One sample of two reaching outside the germ's domain raises, counted;
    without it the in-domain sample alone passes."""
    H = as_holo_map(random_params(2, seed=1, a_max=1.0, r_max=2.0))
    big = np.array([5.0, 0.0], dtype=complex)
    small = np.array([0.01, 0.0], dtype=complex)
    outside = "polarization samples outside the map domain$"
    with pytest.raises(ValueError, match="^1 of 2 " + outside):
        check_polarization(
            H, np.array([big, small]), np.array([big, small]), np.array([0.0, 0.01]))
    residuals = check_polarization(H, small[None], small[None], np.array([0.01]))
    assert residuals.shape == (1,)
    assert residuals.max() < 1e-9


def test_polarization_counts_out_of_domain_samples():
    """The count runs over every sample, of one germ or of all members of a
    stack."""
    H = as_holo_map(random_params(2, seed=1))
    zs = np.array([[5.0, 0.0], [0.01, 0.0], [0.0, 7.0], [6.0, 6.0]])
    outside = "polarization samples outside the map domain$"
    with pytest.raises(ValueError, match="^3 of 4 " + outside):
        check_polarization(H, zs, zs, np.full(4, 0.01))
    zs = np.full((3, 4, 2), 0.01, dtype=complex)
    zs[1, 2] = [5.0, 0.0]
    with pytest.raises(ValueError, match="^1 of 12 " + outside):
        check_polarization(as_holo_map(random_params(2, seed=3, count=3)),
                           zs, zs, np.full((3, 4), 0.01))


def test_levi_counts_out_of_domain_samples():
    """Levi evaluates the rows (z, 0): a sample whose ||z|| is outside the
    germ's domain raises, counted over every sample of one germ or of all
    members of a stack; without it the in-domain sample alone passes."""
    H = as_holo_map(random_params(2, seed=1, a_max=1.0, r_max=2.0))
    zs = np.array([[5.0, 0.0], [0.01, 0.0]], dtype=complex)
    outside = "levi samples outside the map domain$"
    with pytest.raises(ValueError, match="^1 of 2 " + outside):
        check_levi(H, zs, zs)
    assert check_levi(H, zs[1:], zs[1:]).max() < 1e-10
    zs = np.full((3, 4, 2), 0.01, dtype=complex)
    zs[1, 2] = [5.0, 0.0]
    with pytest.raises(ValueError, match="^1 of 12 " + outside):
        check_levi(as_holo_map(random_params(2, seed=3, count=3)), zs, zs)


@pytest.mark.parametrize("dim", [1, 3, 7])
def test_empty_stacks_pass_through_the_jet_layer(dim):
    """A stack of no germs gives jets, recovered parameters and Levi
    residuals with an empty member axis, as apply and compose take it."""
    H = as_holo_map(random_params(dim, 1, count=0))
    jet = extract_jet2(H)
    assert jet.f_z.shape == jet.f_zw.shape == (0, dim, dim)
    assert jet.f_w.shape == jet.g_z.shape == (0, dim) and jet.g_w.shape == (0,)
    recovered = recover_params(jet)
    assert recovered.U.shape == (0, dim, dim) and recovered.s.shape == (0,)
    zs = np.zeros((0, 5, dim), dtype=complex)
    assert check_levi(H, zs, zs).shape == (0, 5)


@pytest.mark.parametrize("count", [None, 20])
def test_levi_and_polarization_return_one_residual_per_sample(count):
    """On the same samples both checks return (P,) for a germ and (B, P) for
    a stack."""
    H = as_holo_map(random_params(3, seed=14, count=count))
    lead = () if count is None else (count,)
    rng = np.random.default_rng(15)

    def rows(*shape):
        z = rng.standard_normal(lead + shape) + 1j * rng.standard_normal(lead + shape)
        return 0.02 * z / np.abs(z).max()

    zs, us, chis, taus = rows(9, 3), rows(9, 3), rows(9, 3), rows(9)
    levi = check_levi(H, zs, us)
    polarization = check_polarization(H, zs, chis, taus)
    assert levi.shape == polarization.shape == lead + (9,)
    assert max(levi.max(), polarization.max()) < 1e-10


def _tilted_germ(c):
    """(z, w) -> (z, w + c z_1) on C^3, or a stack with one c per member: it
    fixes the origin with f_z = I and g_w = 1, but for c != 0 it tilts the
    tangent plane {Im w = 0} of the boundary."""
    c = np.asarray(c, dtype=complex)[..., None, None]
    e_w = np.array([0.0, 0.0, 1.0])
    return HoloMap(lambda rows: rows + c * rows[..., :1] * e_w, 3, 3,
                   domain_radius=np.ones(c.shape[:-2]))


@pytest.mark.parametrize("c", [0.1, 0.1j])
def test_recovery_rejects_a_tilted_tangent_plane(c):
    """g_z != 0: the germ does not preserve the boundary, alone or as member 1
    of a stack, although its other recovery terms are the identity's."""
    tilted = r"g_z not zero: \|g_z\| = 1\.000e-01$"
    with pytest.raises(JetRecoveryError, match="^" + tilted):
        recover_params(extract_jet2(_tilted_germ(c)))
    with pytest.raises(JetRecoveryError, match="^member 1: " + tilted):
        recover_params(extract_jet2(_tilted_germ([0.0, c, 0.0])))
    untilted = recover_params(extract_jet2(_tilted_germ([0.0, 0.0, 0.0])))
    identity = AutParams(np.eye(2), 1.0, np.zeros(2), 0.0)
    assert param_distance(untilted, identity).max() < 1e-14


def test_recovery_rejects_small_unitarity_gap():
    """U is held to UNITARY_TOL, the bar of AutParams: a normalized f_z
    5e-11 to 2e-10 off unitary, well inside RECOVERY_TOL, is rejected, alone
    and as member 1 of 3, while its unitary neighbours recover."""
    U = haar_unitary(3, seed=5)
    # U times a positive definite Hermitian factor: its polar factor is U.
    f_z = 1.2 * U @ np.diag([1.0 + 5e-11, 1.0 - 5e-11, 1.0])
    assert 5e-11 < unitarity_defect(f_z / 1.2) < 2e-10
    bad, good = _jet(3, f_z=f_z, g_w=1.44 + 0j), _jet(3, f_z=1.2 * U, g_w=1.44 + 0j)
    not_unitary = "normalized f_z not unitary: defect "
    with pytest.raises(JetRecoveryError, match="^" + not_unitary):
        recover_params(bad)
    members = [astuple(jet) for jet in (good, bad, good)]
    with pytest.raises(JetRecoveryError, match="^member 1: " + not_unitary):
        recover_params(Jet2(*map(np.stack, zip(*members))))
    recovered = recover_params(good)
    assert unitarity_defect(recovered.U) <= UNITARY_TOL
    assert np.linalg.norm(recovered.U - U, 2) < 1e-14
    assert recovered.s == pytest.approx(1.2)


#: The wide parameter range, where the default circle radius does not fit.
WIDE = {"a_max": 5.0, "r_max": 20.0, "s_min": 0.1, "s_max": 10.0}


@pytest.mark.parametrize("dim", [1, 3, 7])
def test_wide_range_recovery_with_the_default_config(dim):
    """With the default DiffConfig, wide-range germs recover singly and as a
    20-member stack: the circles shrink to half the (smallest) domain radius."""
    stack = random_params(dim, 31, count=20, **WIDE)
    assert domain_radius(stack).min() < 2 * DiffConfig().radius
    recovered = recover_params(extract_jet2(as_holo_map(stack)))
    assert param_distance(recovered, stack).max() <= 1e-12
    for i in range(20):
        single = recover_params(extract_jet2(as_holo_map(stack[i])))
        assert param_distance(single, stack[i]) <= 1e-12


@given(st.sampled_from([1, 3, 7]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_wide_range_recovery_property(dim, seed):
    """Any single member and any 8-member stack drawn over the wide range
    recover from their default jets to the bound of the stack test above."""
    params = random_params(dim, seed, **WIDE)
    recovered = recover_params(extract_jet2(as_holo_map(params)))
    assert param_distance(recovered, params) <= 1e-12
    stack = random_params(dim, seed, count=8, **WIDE)
    recovered = recover_params(extract_jet2(as_holo_map(stack)))
    assert param_distance(recovered, stack).max() <= 1e-12


def _close(stacked, single, rel=1e-13):
    """Agreement up to roundoff: a batched product may round differently."""
    scale = max(1.0, float(np.max(np.abs(single))))
    assert np.max(np.abs(np.asarray(stacked) - single)) <= rel * scale


@pytest.mark.parametrize("ranges", [{}, WIDE], ids=["default", "wide"])
@pytest.mark.parametrize("dim", [1, 3, 7])
def test_closed_form_jet_of_a_stack_is_each_members(dim, ranges):
    """automorphism_jet2 of a 20-member stack gives each member the closed
    form of that member alone, with its shapes."""
    stack = random_params(dim, 41, count=20, **ranges)
    jet = automorphism_jet2(stack)
    for i in range(20):
        for field, value in zip(astuple(jet), astuple(automorphism_jet2(stack[i]))):
            assert np.shape(field[i]) == np.shape(value)
            _close(field[i], value)


@pytest.mark.parametrize("ranges", [{}, WIDE], ids=["default", "wide"])
@pytest.mark.parametrize("dim", [1, 3, 7])
def test_stacked_jets_match_single_members(dim, ranges):
    """extract_jet2, recover_params, check_levi and check_polarization on a
    20-member stack agree with member-by-member calls.  The circles shrink to
    half the smallest domain radius: the default 0.1 does not fit the wide
    range."""
    stack = random_params(dim, 21, count=20, **ranges)
    radius = 0.5 * float(domain_radius(stack).min())
    cfg = DiffConfig(radius=radius)
    rng = np.random.default_rng(22)

    def rows(*shape):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return 0.5 * radius * z / np.abs(z).max()

    zs, us, chis = (rows(20, 15, dim) for _ in range(3))
    taus = rows(20, 15)
    H = as_holo_map(stack)
    jet = extract_jet2(H, cfg)
    recovered = recover_params(jet)
    assert param_distance(recovered, stack).max() < 1e-8
    levi, polarization = [], []
    for i in range(20):
        H_i = as_holo_map(stack[i])
        single = extract_jet2(H_i, cfg)
        for field, value in zip(astuple(jet), astuple(single)):
            _close(field[i], value)
        for field, value in zip(astuple(recovered), astuple(recover_params(single))):
            _close(field[i], value)
        levi.append(check_levi(H_i, zs[i], us[i]).max())
        polarization.append(check_polarization(H_i, zs[i], chis[i], taus[i]))
    # Both residuals sit at roundoff; pairing a member with another member's
    # samples or jet would leave one of order |z|^2.
    assert check_levi(H, zs, us).max() == pytest.approx(max(levi), abs=1e-15)
    assert_allclose(check_polarization(H, zs, chis, taus), polarization,
                    rtol=0, atol=1e-15)


def test_stacked_recovery_names_failing_member():
    """Each validity check of recover_params names the first failing member
    of a stack; the message is otherwise the single-member one."""
    jet = extract_jet2(as_holo_map(random_params(3, 23, count=6)))
    g_w = jet.g_w.copy()
    g_w[4] *= -1.0
    with pytest.raises(JetRecoveryError, match=r"^member 4: g_w not positive real"):
        recover_params(replace(jet, g_w=g_w))
    f_z = jet.f_z.copy()
    f_z[2] = 0.0
    f_z[5] = 0.0
    with pytest.raises(JetRecoveryError, match=r"^member 2: derivative not onto"):
        recover_params(replace(jet, f_z=f_z))
    f_z = jet.f_z.copy()
    f_z[1] = f_z[1] @ np.diag([1.0, 1.5, 1.0])
    with pytest.raises(JetRecoveryError, match=r"^member 1: normalized f_z not unitary"):
        recover_params(replace(jet, f_z=f_z))
    g_w2 = jet.g_w2.copy()
    g_w2[3] += 1j
    with pytest.raises(JetRecoveryError, match=r"^member 3: R not real"):
        recover_params(replace(jet, g_w2=g_w2))


def test_stacked_extraction_names_failing_member():
    """The radius and origin checks of extract_jet2 name the failing member."""
    radii = np.array([0.5, 0.0, 0.5])
    offsets = np.zeros((3, 1, 3))
    offsets[2, :, -1] = 0.5  # member 2 moves the origin to w = 0.5
    shifted = HoloMap(lambda rows: rows + offsets, 3, 3, domain_radius=radii)
    with pytest.raises(JetRecoveryError,
                       match=r"^member 1: map domain radius 0.0 is not positive"):
        extract_jet2(shifted)
    with pytest.raises(NotOriginFixingError, match=r"^member 2: not origin-fixing"):
        extract_jet2(replace(shifted, domain_radius=np.ones(3)))


def _siegel_germ(F) -> HoloMap:
    """The germ C o F o C^-1 at the Siegel origin of a ball map F: C^n -> C^N
    with F(e_n) a unit vector e_k, its output permuted so that F(e_n) = e_N."""
    n, N = F.input_dim, F.output_dim
    top = F.evaluate(np.eye(n)[-1])
    k = int(np.argmax(np.abs(top)))
    assert_allclose(top, np.eye(N)[k], rtol=0, atol=0)
    order = [*range(k), *range(k + 1, N), k]
    return HoloMap(lambda rows: cayley(F.evaluate(inverse_cayley(rows))[..., order]),
                   n, N, domain_radius=0.5)


SPHERE_MAPS = {"shift n=2": shift_map(2), "shift n=4": shift_map(4),
               "whitney p=2 n=3": whitney_map(WhitneySpec(2, 3))}
RECTANGULAR = {**{name: _siegel_germ(F) for name, F in SPHERE_MAPS.items()},
               "drop z_1 n=3": HoloMap(lambda rows: rows[..., 1:], 3, 2, 1.0),
               "keep w n=2": HoloMap(lambda rows: rows[..., -1:], 2, 1, 1.0)}


@pytest.mark.parametrize("H", RECTANGULAR.values(), ids=RECTANGULAR.keys())
def test_rectangular_germs_are_not_onto(H):
    """A germ C^n -> C^N with N != n, down to N = 1, has an (N-1) x (n-1) jet,
    which both jet paths agree on, and its recovery fails with the paper's
    hypothesis."""
    n, N = H.input_dim, H.output_dim
    jet = extract_jet2(H)
    assert jet.f_z.shape == jet.f_zw.shape == (N - 1, n - 1)
    assert jet.f_w.shape == jet.f_w2.shape == (N - 1,)
    assert jet.g_z.shape == (n - 1,) and np.ndim(jet.g_w) == np.ndim(jet.g_w2) == 0
    fd = finite_difference_jet2(H)
    for name in ("f_z", "f_w", "g_z", "g_w", "g_w2", "f_zw", "f_w2"):
        gap = np.max(np.abs(getattr(jet, name) - getattr(fd, name)), initial=0.0)
        assert gap < 1e-4, f"{name}: finite-difference gap {gap:.3e}"
    with pytest.raises(JetRecoveryError,
                       match=rf"^derivative not onto: f_z is {N - 1} x {n - 1}$"):
        recover_params(jet)


def test_rectangular_germs_keep_the_boundary_identities():
    """The sphere-preserving maps give germs that preserve the boundary
    hypersurface, so the Levi and polarization identities hold for N > n."""
    rng = np.random.default_rng(13)
    for F in SPHERE_MAPS.values():
        H = _siegel_germ(F)
        d = H.dim
        zs, us = _levi_pairs(rng, d=d, scale=0.03)
        assert check_levi(H, zs, us).max() < 1e-10
        chis = 0.03 * _levi_pairs(rng, d=d)[1]
        taus = 0.03 * np.exp(2j * np.pi * rng.uniform(size=len(zs)))
        assert check_polarization(H, zs, chis, taus).max() < 1e-10


def test_whitney_degree_one_germ_recovers_its_permutation():
    """Whitney p = 1 at n = 3 is the permutation Z -> (z_2, z_3, z_1); with
    e_3 fixed it is Z -> (z_2, z_1, z_3), so its germ is the linear member
    (U, 1, 0, 0) with U the swap of z_1 and z_2."""
    H = _siegel_germ(whitney_map(WhitneySpec(1, 3)))
    expected = AutParams(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0, np.zeros(2), 0.0)
    recovered = recover_params(extract_jet2(H))
    assert param_distance(recovered, expected) < 1e-12
    assert_allclose(finite_difference_jet2(H).f_z, expected.U, atol=1e-8)
