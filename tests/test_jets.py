"""Cauchy-integral jets and parameter recovery.

The hand-computed jets of the three generator families are the ground truth
here: the linear member has first-order data only, the scalar family has
g_ww = -2R and a mixed block -R I, and the translation-like family carries
all the second-order structure (2i||a||^2 terms).
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from siegelball.autgroup import (
    AutParams,
    HoloMap,
    as_holo_map,
    param_distance,
    random_params,
)
from siegelball.hilbert import haar_unitary, is_unitary, norm, unitarity_defect
from siegelball.jets import (
    DiffConfig,
    Jet2,
    JetRecoveryError,
    NotOriginFixingError,
    cauchy_derivative,
    check_levi,
    check_polarization,
    extract_jet2,
    recover_params,
)
from siegelball.verify import finite_difference_jet2


def test_diff_config_validation():
    DiffConfig(radius=0.2, nodes=16)  # fine
    with pytest.raises(ValueError, match="radius"):
        DiffConfig(radius=0.0)
    with pytest.raises(ValueError, match="radius"):
        DiffConfig(radius=float("inf"))
    with pytest.raises(ValueError, match="power of two"):
        DiffConfig(nodes=12)
    with pytest.raises(ValueError, match="power of two"):
        DiffConfig(nodes=4)


def test_cauchy_derivative_of_exp():
    # Every derivative of exp at 0 equals 1.  A unit-ish circle keeps the
    # k!/rho^k roundoff amplification small for the higher orders.
    cfg = DiffConfig(radius=0.5, nodes=64)
    for order in range(7):
        value = cauchy_derivative(np.exp, order, cfg)
        assert abs(value - 1.0) < 1e-10, f"order {order}: {value}"


def test_cauchy_derivative_geometric_series():
    """f(t) = 1/(1-t) has f'''(0) = 6; the circle must stay off the pole."""
    cfg = DiffConfig(radius=0.5, nodes=64)
    value = cauchy_derivative(lambda t: 1.0 / (1.0 - t), 3, cfg)
    assert abs(value - 6.0) < 1e-10


def test_cauchy_derivative_monomials():
    cfg = DiffConfig()
    assert abs(cauchy_derivative(lambda t: t**2, 2, cfg) - 2.0) < 1e-14
    assert abs(cauchy_derivative(lambda t: t**5, 5, cfg) - 120.0) < 1e-10
    assert abs(cauchy_derivative(lambda t: t**5, 3, cfg)) < 1e-10
    assert abs(cauchy_derivative(lambda t: t**2, 0, cfg)) < 1e-14
    assert abs(cauchy_derivative(lambda t: 3.0 + 0j, 1, cfg)) < 1e-14


def test_cauchy_derivative_array_valued():
    value = cauchy_derivative(lambda t: np.array([t, t**2]), 1)
    assert_allclose(value, [1.0, 0.0], atol=1e-12)


def test_cauchy_derivative_order_limits():
    with pytest.raises(ValueError, match="order"):
        cauchy_derivative(np.exp, -1)
    with pytest.raises(ValueError, match="exceeds nodes/2"):
        cauchy_derivative(np.exp, 17, DiffConfig(nodes=32))


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
    a2 = norm(a) ** 2
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


def _closed_form_jet(params) -> Jet2:
    """The 2-jet of H = (sU(z + aw), s^2 w) / D, D = 1 - 2i<z,a> + beta w,
    from the expansion 1/D = 1 + 2i<z,a> - beta w + (second order)."""
    d = params.dim
    sU = params.s * params.U
    beta = params.beta
    return Jet2(
        f_z=sU,
        f_w=sU @ params.a,
        g_z=np.zeros(d, dtype=complex),
        g_w=params.s**2 + 0j,
        g_w2=-2.0 * beta * params.s**2,
        f_zw=sU @ (-beta * np.eye(d) + 2j * np.outer(params.a, np.conj(params.a))),
        f_w2=-2.0 * beta * (sU @ params.a),
    )


@pytest.mark.parametrize("dim", [1, 3, 7])
def test_extracted_jet_matches_closed_form(dim):
    """The jet read off the batched evaluator's circle grids equals the
    closed-form 2-jet of the automorphism."""
    for seed in range(5):
        params = random_params(dim, seed)
        jet = extract_jet2(as_holo_map(params))
        expected = _closed_form_jet(params)
        for name in ("f_z", "f_w", "g_z", "g_w", "g_w2", "f_zw", "f_w2"):
            gap = np.max(np.abs(np.atleast_1d(getattr(jet, name))
                                - np.atleast_1d(getattr(expected, name))))
            assert gap < 1e-10, f"{name}: closed-form gap {gap:.3e}"


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


def test_recovery_rejects_non_unitary_derivative():
    with pytest.raises(JetRecoveryError, match="not unitary"):
        recover_params(_jet(f_z=np.diag([1.0 + 0j, 2.0 + 0j])))


def test_recovery_rejects_complex_r():
    with pytest.raises(JetRecoveryError, match="R not real"):
        recover_params(_jet(g_w2=2j))


def test_recovery_accepts_compensated_imaginary_part():
    # g_w2 = 2i||f_w||^2 is exactly the translation member: R comes out 0.
    a = np.array([0.6, 0.0], dtype=complex)
    jet = _jet(f_w=a, g_w2=2j * norm(a) ** 2)
    recovered = recover_params(jet)
    assert recovered.R == pytest.approx(0.0, abs=1e-12)
    assert_allclose(recovered.a, a, atol=1e-12)


def test_extract_requires_origin_fixing():
    shifted = HoloMap(lambda zs, ws: (zs, ws + 0.5), dim=2, domain_radius=1.0)
    with pytest.raises(NotOriginFixingError, match="not origin-fixing"):
        extract_jet2(shifted)


def test_extract_requires_radius_inside_domain():
    H = as_holo_map(random_params(2, seed=3))
    with pytest.raises(ValueError, match="does not fit inside"):
        extract_jet2(H, DiffConfig(radius=H.domain_radius))


def _levi_pairs(rng, d=3, count=50, scale=0.04):
    """Stacked samples (zs, us): ||z|| = scale, ||u|| = 1."""
    zs = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    zs *= scale / np.linalg.norm(zs, axis=1, keepdims=True)
    us = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    return zs, us / np.linalg.norm(us, axis=1, keepdims=True)


def test_check_levi_on_automorphisms():
    rng = np.random.default_rng(4)
    H = as_holo_map(random_params(3, seed=9))
    assert check_levi(H, *_levi_pairs(rng)) < 1e-10


def test_check_levi_trivial_members():
    # Identity: both sides are <z, u>.  The linear member scales both
    # sides by s^2, so the residual stays at quadrature level.
    rng = np.random.default_rng(8)
    pairs = _levi_pairs(rng)
    ident = as_holo_map(AutParams(np.eye(3), 1.0, np.zeros(3), 0.0))
    assert check_levi(ident, *pairs) < 1e-14
    omega = as_holo_map(AutParams(haar_unitary(3, seed=7), 1.9, np.zeros(3), 0.0))
    assert check_levi(omega, *pairs) < 1e-12


def test_check_polarization_on_automorphisms():
    rng = np.random.default_rng(5)
    H = as_holo_map(random_params(3, seed=10))
    zs = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
    chis = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
    zs *= 0.03 / np.linalg.norm(zs, axis=1, keepdims=True)
    chis *= 0.03 / np.linalg.norm(chis, axis=1, keepdims=True)
    taus = 0.03 * (rng.standard_normal(50) + 1j * rng.standard_normal(50))
    assert check_polarization(H, zs, chis, taus) < 1e-10


def test_polarization_reduces_to_vanishing_on_the_slice():
    """With the partner data zeroed out the identity says g(z, 0) = 0."""
    H = as_holo_map(random_params(2, seed=12))
    z = np.array([[0.02, 0.01j]])
    residual = check_polarization(H, z, np.zeros((1, 2)), np.zeros(1))
    assert residual < 1e-15


def test_polarization_skips_out_of_domain_samples():
    H = as_holo_map(random_params(2, seed=1, a_max=1.0, r_max=2.0))
    big = np.array([5.0, 0.0], dtype=complex)
    small = np.array([0.01, 0.0], dtype=complex)
    with pytest.warns(UserWarning, match="outside map domain"):
        residual = check_polarization(
            H, np.array([big, small]), np.array([big, small]), np.array([0.0, 0.01]))
    assert residual < 1e-9
    with pytest.raises(ValueError, match="all polarization samples"):
        with pytest.warns(UserWarning):
            check_polarization(H, big[None], big[None], np.zeros(1))


def test_polarization_warns_once_with_skipped_count():
    H = as_holo_map(random_params(2, seed=1))
    zs = np.array([[5.0, 0.0], [0.01, 0.0], [0.0, 7.0], [6.0, 6.0]])
    with pytest.warns(UserWarning) as record:
        check_polarization(H, zs, zs, np.full(4, 0.01))
    assert len(record) == 1
    assert "3 of 4 polarization samples outside map domain" in str(record[0].message)


def test_recovery_projects_small_unitarity_gap():
    """A jet accepted at the recovery tolerance but not unitary to
    UNITARY_TOL recovers, with U replaced by its polar factor."""
    U = haar_unitary(3, seed=5)
    # U times a positive definite Hermitian factor: its polar factor is U.
    f_z = 1.2 * U @ np.diag([1.0 + 5e-11, 1.0 - 5e-11, 1.0])
    assert 5e-11 < unitarity_defect(f_z / 1.2) < 2e-10
    recovered = recover_params(_jet(3, f_z=f_z, g_w=1.44 + 0j))
    assert is_unitary(recovered.U)
    assert np.linalg.norm(recovered.U - U, 2) < 1e-14
    assert recovered.s == pytest.approx(1.2)
