"""The linear-fractional automorphism family and its group structure."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from siegelball.autgroup import (
    AutomorphismPoleError,
    AutParams,
    HoloMap,
    apply,
    as_holo_map,
    ball_automorphism,
    compose,
    composition_radius,
    denominator,
    factor_apply,
    h_R_apply,
    identity_params,
    invert,
    matrix,
    omega_apply,
    param_distance,
    phi_a_apply,
    random_params,
)
from siegelball.geometry import (
    SiegelPoint,
    ball_defect,
    cayley,
    sample_siegel_boundary,
    sample_sphere,
    siegel_defect,
)
from siegelball.hilbert import haar_unitary, norm
from siegelball.jets import DiffConfig, extract_jet2, recover_params

#: The wide parameter range, where jet recovery with default settings fails
#: but the matrix group law must still hold.
WIDE = {"a_max": 5.0, "r_max": 20.0, "s_min": 0.1, "s_max": 10.0}


def _origin(d):
    return SiegelPoint(np.zeros(d), 0.0)


def test_denominator_hand_value():
    params = AutParams(np.eye(1), 1.0, [1.0], 0.0)
    p = SiegelPoint([1.0], 0.0)
    assert denominator(params, p) == 1.0 - 2j


def test_denominator_trivial_cases():
    p = SiegelPoint([0.3, -0.2j], 0.1 + 0.4j)
    assert denominator(identity_params(2), p) == 1.0
    assert denominator(random_params(2, seed=0), _origin(2)) == 1.0


def test_beta_property():
    params = AutParams(np.eye(2), 1.0, [1.0, 0.0], 0.5)
    assert params.beta == pytest.approx(0.5 - 1j)


def test_identity_params_act_trivially():
    ident = identity_params(3)
    p = SiegelPoint([0.1, 0.2j, -0.3], 0.4 + 0.5j)
    q = apply(ident, p)
    assert_allclose(q.z, p.z)
    assert q.w == p.w


def test_every_member_fixes_origin():
    for seed in range(20):
        params = random_params(3, seed)
        image = apply(params, _origin(3))
        assert norm(image.z) == 0.0
        assert image.w == 0.0


def test_apply_pure_dilation():
    """(U=I, s=2, a=0, R=0) doubles z and quadruples w."""
    params = AutParams(np.eye(2), 2.0, np.zeros(2), 0.0)
    p = SiegelPoint([0.1, 0.2j], 0.3 + 0.4j)
    q = apply(params, p)
    assert_allclose(q.z, [0.2, 0.4j])
    assert q.w == pytest.approx(1.2 + 1.6j)


def test_h_r_is_scalar_rescaling():
    p = SiegelPoint([2.0], 1j)
    q = h_R_apply(1.0, p)  # d = 1 + i
    assert_allclose(q.z, [2.0 / (1 + 1j)])
    assert q.w == pytest.approx(1j / (1 + 1j))


def test_h_r_trivial_cases():
    p = SiegelPoint([0.4j, -0.1], 0.2 + 0.3j)
    q = h_R_apply(0.0, p)
    assert_allclose(q.z, p.z)
    assert q.w == p.w
    flat = h_R_apply(0.7, SiegelPoint([0.4j, -0.1], 0.0))
    assert_allclose(flat.z, [0.4j, -0.1])
    assert flat.w == 0.0


def test_phi_a_trivial_cases():
    p = SiegelPoint([0.2, 0.1j], 0.3 - 0.2j)
    q = phi_a_apply(np.zeros(2), p)
    assert_allclose(q.z, p.z)
    assert q.w == p.w
    fixed = phi_a_apply([0.5, -0.25j], _origin(2))
    assert norm(fixed.z) == 0.0
    assert fixed.w == 0.0


def test_omega_scales_parabolic_weights():
    U = haar_unitary(2, seed=0)
    p = SiegelPoint([1.0, 1j], 2.0)
    q = omega_apply(U, 3.0, p)
    assert_allclose(q.z, 3.0 * U @ p.z)
    assert q.w == pytest.approx(9.0 * 2.0)


def test_omega_defect_scaling_and_specialization():
    """Im(s^2 w) - ||sUz||^2 = s^2 (Im w - ||z||^2), and apply with
    a = 0, R = 0 is exactly the linear member."""
    U = haar_unitary(3, seed=16)
    s = 1.7
    rng = np.random.default_rng(18)
    for _ in range(20):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = complex(rng.standard_normal(), rng.standard_normal())
        p = SiegelPoint(z, w)
        q = omega_apply(U, s, p)
        assert siegel_defect(q).value == pytest.approx(
            s**2 * siegel_defect(p).value, rel=1e-12
        )
        direct = apply(AutParams(U, s, np.zeros(3), 0.0), p)
        assert_allclose(direct.z, q.z, atol=1e-15 * s * np.linalg.norm(z))
        assert abs(direct.w - q.w) < 1e-15 * abs(q.w)


def test_factorization_matches_closed_form():
    """omega o phi_a o h_R reproduces the one-shot formula pointwise."""
    rng = np.random.default_rng(17)
    for seed in range(10):
        params = random_params(3, seed)
        for _ in range(30):
            z = rng.standard_normal(3) * 0.4 + 1j * rng.standard_normal(3) * 0.4
            w = complex(rng.standard_normal(), rng.standard_normal()) * 0.4
            p = SiegelPoint(z, w)
            if abs(denominator(params, p)) < 0.2:
                continue
            if abs(1.0 + params.R * w) < 0.2:
                continue
            direct = apply(params, p)
            factored = factor_apply(params, p)
            assert_allclose(factored.z, direct.z, atol=1e-13)
            assert abs(factored.w - direct.w) < 1e-13


def test_factor_apply_specializations():
    p = SiegelPoint([0.2j, 0.1], 0.15 + 0.1j)
    q = factor_apply(identity_params(2), p)
    assert_allclose(q.z, p.z)
    assert q.w == p.w
    # With a = 0 the middle stage drops out and the two-stage chain
    # omega o h_R must still match the closed form.
    params = AutParams(haar_unitary(2, seed=24), 1.4, np.zeros(2), 0.6)
    direct = apply(params, p)
    factored = factor_apply(params, p)
    assert_allclose(factored.z, direct.z, atol=1e-14)
    assert abs(factored.w - direct.w) < 1e-14


def test_phi_a_inverse_is_phi_minus_a():
    rng = np.random.default_rng(23)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a *= 0.8 / np.linalg.norm(a)
    for _ in range(50):
        z = rng.standard_normal(2) * 0.3 + 1j * rng.standard_normal(2) * 0.3
        w = complex(rng.standard_normal(), rng.standard_normal()) * 0.3
        p = SiegelPoint(z, w)
        back = phi_a_apply(-a, phi_a_apply(a, p))
        assert_allclose(back.z, p.z, atol=1e-12)
        assert abs(back.w - p.w) < 1e-12


def test_defect_transformation_law():
    """Im w - ||z||^2 is multiplied by exactly s^2 / |D|^2."""
    rng = np.random.default_rng(31)
    for seed in range(10):
        params = random_params(2, seed)
        z = rng.standard_normal(2) * 0.5 + 1j * rng.standard_normal(2) * 0.5
        w = complex(rng.standard_normal(), rng.standard_normal())
        p = SiegelPoint(z, w)
        D = denominator(params, p)
        if abs(D) < 0.2:
            continue
        lhs = siegel_defect(apply(params, p)).value
        rhs = params.s**2 * siegel_defect(p).value / abs(D) ** 2
        assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(rhs)))


def test_h_r_defect_scaling():
    p = SiegelPoint([0.3], 0.7 + 0.2j)
    q = h_R_apply(0.5, p)
    den = abs(1.0 + 0.5 * p.w) ** 2
    assert siegel_defect(q).value == pytest.approx(siegel_defect(p).value / den)


def test_boundary_invariance():
    for seed, row in enumerate(sample_siegel_boundary(4, seed=2, count=100)):
        params = random_params(3, seed)
        p = SiegelPoint(row[:-1], row[-1])
        if abs(denominator(params, p)) < 0.1:
            continue
        image = apply(params, p)
        assert abs(siegel_defect(image).value) < 1e-10 * (1.0 + abs(p.w) ** 2)


def test_apply_pole_raises():
    # a = 0, R = 1 puts the pole on w = -1.
    params = AutParams(np.eye(2), 1.0, np.zeros(2), 1.0)
    with pytest.raises(AutomorphismPoleError, match="pole of automorphism"):
        apply(params, SiegelPoint(np.zeros(2), -1.0))


def test_phi_a_and_h_r_poles_raise():
    with pytest.raises(AutomorphismPoleError):
        phi_a_apply([1.0], SiegelPoint([0.0], -1j))
    with pytest.raises(AutomorphismPoleError):
        h_R_apply(1.0, SiegelPoint([0.0], -1.0))


def test_params_validation():
    with pytest.raises(ValueError, match="not unitary"):
        AutParams(np.diag([1.0, 2.0]), 1.0, np.zeros(2), 0.0)
    with pytest.raises(ValueError, match="square"):
        AutParams(np.ones((2, 3)), 1.0, np.zeros(2), 0.0)
    with pytest.raises(ValueError, match="positive real"):
        AutParams(np.eye(2), -1.0, np.zeros(2), 0.0)
    with pytest.raises(ValueError, match="positive real"):
        AutParams(np.eye(2), 1.0 + 0j, np.zeros(2), 0.0)
    with pytest.raises(ValueError, match="real number"):
        AutParams(np.eye(2), 1.0, np.zeros(2), 1j)
    with pytest.raises(ValueError, match="dimension"):
        AutParams(np.eye(2), 1.0, np.zeros(3), 0.0)


@pytest.mark.parametrize("ranges", [{}, WIDE])
def test_stacked_apply_matches_single_members(ranges):
    """A stack of B members on B rows equals B single-member calls."""
    stack = random_params(3, seed=40, count=50, **ranges)
    assert stack.U.shape == (50, 3, 3) and stack.s.shape == (50,)
    assert stack.a.shape == (50, 3) and stack.R.shape == (50,)
    rows = sample_siegel_boundary(4, seed=41, count=50, rho_max=0.05, t_max=0.05)
    images = apply(stack, rows)
    factored = factor_apply(stack, rows)
    D = denominator(stack, rows)
    for i, row in enumerate(rows):
        member = stack[i]
        p = SiegelPoint(row[:-1], row[-1])
        q = apply(member, p)
        assert_allclose(images[i], np.append(q.z, q.w), rtol=1e-14, atol=1e-15)
        f = factor_apply(member, p)
        assert_allclose(factored[i], np.append(f.z, f.w), rtol=1e-14, atol=1e-15)
        assert D[i] == pytest.approx(denominator(member, p), abs=1e-15)
    assert_allclose(factored, images, atol=1e-12)


def test_stacked_params_validation():
    stack = random_params(2, seed=42, count=4)
    bad_U = stack.U.copy()
    bad_U[2] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="not unitary"):
        AutParams(bad_U, stack.s, stack.a, stack.R)
    for bad in (0.0, -1.0, np.inf, np.nan):
        s = stack.s.copy()
        s[1] = bad
        with pytest.raises(ValueError, match="positive real"):
            AutParams(stack.U, s, stack.a, stack.R)
    with pytest.raises(ValueError, match="positive real"):
        AutParams(stack.U, stack.s[:3], stack.a, stack.R)
    with pytest.raises(ValueError, match="real number"):
        AutParams(stack.U, stack.s, stack.a, stack.R + 0j)
    with pytest.raises(ValueError, match="dimension"):
        AutParams(stack.U, stack.s, stack.a[:, :1], stack.R)
    assert stack[1:3].s.shape == (2,)
    assert param_distance(stack[3], AutParams(stack.U[3], stack.s[3], stack.a[3],
                                              stack.R[3])) == 0.0


def test_random_params_bounds_and_determinism():
    for seed in range(10):
        params = random_params(4, seed, a_max=0.7, r_max=1.5)
        assert norm(params.a) <= 0.7
        assert abs(params.R) <= 1.5
        assert 0.5 <= params.s <= 2.0
    assert param_distance(random_params(4, 9), random_params(4, 9)) == 0.0


def test_param_distance_contract():
    p = random_params(3, 1)
    assert param_distance(p, p) == 0.0
    q = random_params(3, 2)
    assert param_distance(p, q) == pytest.approx(param_distance(q, p))
    with pytest.raises(ValueError, match="dimension mismatch"):
        param_distance(p, random_params(2, 1))


def test_as_holo_map_matches_apply():
    params = random_params(3, seed=5)
    H = as_holo_map(params)
    assert 0.0 < H.domain_radius <= 2.0
    rng = np.random.default_rng(0)
    zs = (rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))) * 0.1
    ws = (rng.standard_normal(20) + 1j * rng.standard_normal(20)) * 0.1
    fz, fw = H.evaluate(zs, ws)
    for i in range(20):
        q = apply(params, SiegelPoint(zs[i], ws[i]))
        assert_allclose(fz[i], q.z, atol=1e-14)
        assert abs(fw[i] - q.w) < 1e-14


def test_compose_two_linear_members():
    U = haar_unitary(2, seed=1)
    V = haar_unitary(2, seed=2)
    zero = np.zeros(2)
    left = AutParams(U, 1.5, zero, 0.0)
    right = AutParams(V, 0.8, zero, 0.0)
    combined = compose(left, right)
    expected = AutParams(U @ V, 1.5 * 0.8, zero, 0.0)
    assert param_distance(combined, expected) < 1e-10


def test_compose_with_identity():
    params = random_params(2, seed=4)
    ident = identity_params(2)
    assert param_distance(compose(params, ident), params) < 1e-9
    assert param_distance(compose(ident, params), params) < 1e-9


def test_compose_pointwise_agreement():
    for seed, ranges in [(6, {}), (16, WIDE), (26, WIDE), (36, WIDE)]:
        outer = random_params(3, seed, **ranges)
        inner = random_params(3, seed + 1, **ranges)
        combined = compose(outer, inner)
        radius = composition_radius(outer, inner)
        rng = np.random.default_rng(seed + 6)
        for _ in range(30):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            z *= 0.25 * radius / np.linalg.norm(z)
            w = complex(rng.standard_normal(), rng.standard_normal())
            w *= 0.25 * radius / abs(w)
            p = SiegelPoint(z, w)
            direct = apply(combined, p)
            chained = apply(outer, apply(inner, p))
            assert_allclose(direct.z, chained.z, atol=1e-10)
            assert abs(direct.w - chained.w) < 1e-10


@pytest.mark.parametrize("d", [1, 3])
def test_compose_matches_jet_of_chained_map(d):
    """Reference: the parameters read off the 2-jet of the pointwise
    composite agree with the matrix product."""
    for seed in range(4):
        outer = random_params(d, seed)
        inner = random_params(d, seed + 10)
        radius = composition_radius(outer, inner)
        f_in = as_holo_map(inner).evaluate
        f_out = as_holo_map(outer).evaluate
        chained = HoloMap(lambda zs, ws: f_out(*f_in(zs, ws)), d, radius)
        jet = extract_jet2(chained, DiffConfig(radius=min(0.1, 0.6 * radius)))
        assert param_distance(recover_params(jet), compose(outer, inner)) < 1e-8


def test_compose_associative():
    a = random_params(2, seed=8)
    b = random_params(2, seed=9)
    c = random_params(2, seed=10)
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert param_distance(left, right) < 1e-8


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        compose(random_params(2, 0), random_params(3, 0))


def test_invert_identity():
    ident = identity_params(3)
    assert param_distance(invert(ident), ident) < 1e-10


def test_invert_linear_member():
    U = haar_unitary(3, seed=3)
    params = AutParams(U, 2.0, np.zeros(3), 0.0)
    expected = AutParams(U.conj().T, 0.5, np.zeros(3), 0.0)
    assert param_distance(invert(params), expected) < 1e-10


def test_invert_matches_closed_form():
    """The matrix inverse agrees with the algebraic inverse
    (U^H, 1/s, -U a / s, -R / s^2)."""
    for d, seed, ranges in itertools.product([1, 3, 7], range(5), [{}, WIDE]):
        params = random_params(d, seed, **ranges)
        expected = AutParams(
            params.U.conj().T,
            1.0 / params.s,
            -(params.U @ params.a) / params.s,
            -params.R / params.s**2,
        )
        assert param_distance(invert(params), expected) < 1e-9


def test_invert_two_sided():
    ident = identity_params(2)
    for seed in range(4):
        params = random_params(2, seed)
        inverse = invert(params)
        assert param_distance(compose(params, inverse), ident) < 1e-8
        assert param_distance(compose(inverse, params), ident) < 1e-8


def test_invert_roundtrip_pointwise():
    rng = np.random.default_rng(15)
    for params in (random_params(3, seed=14), random_params(3, 14, **WIDE)):
        inverse = invert(params)
        radius = as_holo_map(params).domain_radius
        for _ in range(25):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            z *= 0.3 * radius / np.linalg.norm(z)
            w = complex(rng.standard_normal(), rng.standard_normal())
            w *= 0.3 * radius / abs(w)
            p = SiegelPoint(z, w)
            back = apply(inverse, apply(params, p))
            assert_allclose(back.z, p.z, atol=1e-11)
            assert abs(back.w - p.w) < 1e-11


def _hermitian_form(d):
    """J with x^H J x = ||z||^2 - Im(w conj(t)) for x = (z, w, t)."""
    J = np.zeros((d + 2, d + 2), dtype=complex)
    J[:d, :d] = np.eye(d)
    J[d + 1, d] = 0.5j
    J[d, d + 1] = -0.5j
    return J


def test_matrix_preserves_hermitian_form():
    """M^H J M = s^2 J: the whole group preserves the boundary form."""
    for d, seed, ranges in itertools.product([1, 3, 7], range(10), [{}, WIDE]):
        J = _hermitian_form(d)
        params = random_params(d, seed, **ranges)
        M = matrix(params)
        scale = np.linalg.norm(M, 2) ** 2
        assert_allclose(M.conj().T @ J @ M, params.s**2 * J, atol=1e-14 * scale)


def test_matrix_acts_on_homogeneous_coordinates():
    params = random_params(3, seed=27)
    p = SiegelPoint([0.1, -0.2j, 0.05], 0.1 + 0.2j)
    x = matrix(params) @ np.append(p.z, [p.w, 1.0])
    q = apply(params, p)
    assert x[-1] == pytest.approx(denominator(params, p))
    assert_allclose(x[:-1] / x[-1], np.append(q.z, q.w), atol=1e-15)


def test_ball_automorphism_identity_and_distinguished_point():
    ident = identity_params(2)
    for Z in sample_sphere(3, seed=25, count=20, min_pole_dist=0.2):
        assert_allclose(ball_automorphism(ident, Z), Z, atol=1e-13)
    P = np.array([0.0, 0.0, 1.0])
    image = ball_automorphism(random_params(2, seed=26), P)
    assert abs(ball_defect(image).value) < 1e-12


def test_ball_automorphism_preserves_sphere():
    for seed, Z in enumerate(sample_sphere(3, seed=19, count=60, min_pole_dist=0.2)):
        params = random_params(2, seed)
        p = cayley(Z)
        if abs(denominator(params, p)) < 0.1:
            continue
        if abs(1j + apply(params, p).w) < 0.1:
            continue
        image = ball_automorphism(params, Z)
        assert abs(ball_defect(image).value) < 1e-9


def test_ball_automorphism_preserves_interior():
    params = random_params(2, seed=20)
    image = ball_automorphism(params, np.array([0.2, 0.1 + 0.3j, 0.0]))
    assert ball_defect(image).classification == "interior"


def test_composition_radius_positive():
    outer = random_params(3, seed=1)
    inner = random_params(3, seed=2)
    r = composition_radius(outer, inner)
    assert 0.0 < r <= 2.0
