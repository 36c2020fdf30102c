"""The linear-fractional automorphism family and its group structure."""

import itertools
import sys
from dataclasses import replace

import formulas
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
    domain_radius,
    factor_apply,
    factors,
    identity_params,
    invert,
    matrix,
    param_distance,
    random_params,
)
from siegelball.geometry import (
    DEFECT_TOL,
    _cayley_matrices,
    _projective,
    ball_defect,
    sample_ball,
    sample_siegel_boundary,
    sample_sphere,
    siegel_defect,
)
from siegelball import autgroup, hilbert
from siegelball.hilbert import haar_unitary
from siegelball.jets import DiffConfig, extract_jet2, recover_params
from siegelball.verify import RunConfig, run

#: The wide parameter range, where the group law and jet recovery with the
#: default settings must both still hold.
WIDE = {"a_max": 5.0, "r_max": 20.0, "s_min": 0.1, "s_max": 10.0}


def _origin(d):
    return np.zeros(d + 1, dtype=complex)


def _factor(which, U=None, s=1.3, a=None, R=0.0, d=2):
    """Factor ``which`` (0: omega, 1: phi_a, 2: h_R) of the member (U, s, a, R);
    U defaults to a Haar unitary and a to a fixed vector, so that factors
    drops the other parameters."""
    U = haar_unitary(d, seed=50) if U is None else U
    a = np.full(d, 0.3 - 0.1j) if a is None else a
    return factors(AutParams(U, s, a, R))[which]


def _formula_point(p):
    """A Siegel row as (z, w) of Python complex numbers, for tests/formulas.py."""
    return [complex(x) for x in p[:-1]], complex(p[-1])


def _assert_matches(q, z, w, rel=1e-14):
    assert_allclose(q[:-1], z, rtol=rel, atol=rel * np.linalg.norm(z))
    assert abs(q[-1] - w) <= rel * abs(w)


def test_denominator_hand_value():
    params = AutParams(np.eye(1), 1.0, [1.0], 0.0)
    p = np.array([1.0, 0.0])
    assert denominator(params, p) == 1.0 - 2j


def test_denominator_trivial_cases():
    p = np.array([0.3, -0.2j, 0.1 + 0.4j])
    assert denominator(identity_params(2), p) == 1.0
    assert denominator(random_params(2, seed=0), _origin(2)) == 1.0


def test_beta_property():
    params = AutParams(np.eye(2), 1.0, [1.0, 0.0], 0.5)
    assert params.beta == pytest.approx(0.5 - 1j)


def test_identity_params_act_trivially():
    ident = identity_params(3)
    p = np.array([0.1, 0.2j, -0.3, 0.4 + 0.5j])
    q = apply(ident, p)
    assert isinstance(q, np.ndarray) and q.shape == (4,)
    assert_allclose(q[:-1], p[:-1])
    assert q[-1] == p[-1]


def test_every_member_fixes_origin():
    for seed in range(20):
        params = random_params(3, seed)
        image = apply(params, _origin(3))
        assert np.linalg.norm(image[:-1]) == 0.0
        assert image[-1] == 0.0


def test_apply_pure_dilation():
    """(U=I, s=2, a=0, R=0) doubles z and quadruples w."""
    params = AutParams(np.eye(2), 2.0, np.zeros(2), 0.0)
    p = np.array([0.1, 0.2j, 0.3 + 0.4j])
    q = apply(params, p)
    assert_allclose(q[:-1], [0.2, 0.4j])
    assert q[-1] == pytest.approx(1.2 + 1.6j)


def test_h_r_is_scalar_rescaling():
    p = np.array([2.0, 1j])
    q = apply(_factor(2, R=1.0, d=1), p)  # d = 1 + i
    assert_allclose(q[:-1], [2.0 / (1 + 1j)])
    assert q[-1] == pytest.approx(1j / (1 + 1j))
    _assert_matches(q, *formulas.h_R(1.0, *_formula_point(p)))


def test_h_r_trivial_cases():
    p = np.array([0.4j, -0.1, 0.2 + 0.3j])
    q = apply(_factor(2, R=0.0), p)
    assert_allclose(q[:-1], p[:-1])
    assert q[-1] == p[-1]
    flat = apply(_factor(2, R=0.7), np.array([0.4j, -0.1, 0.0]))
    assert_allclose(flat[:-1], [0.4j, -0.1])
    assert flat[-1] == 0.0


def test_phi_a_trivial_cases():
    p = np.array([0.2, 0.1j, 0.3 - 0.2j])
    q = apply(_factor(1, a=np.zeros(2), R=0.9), p)
    assert_allclose(q[:-1], p[:-1])
    assert q[-1] == p[-1]
    member = _factor(1, a=np.array([0.5, -0.25j]), R=0.9)
    fixed = apply(member, _origin(2))
    assert np.linalg.norm(fixed[:-1]) == 0.0
    assert fixed[-1] == 0.0
    _assert_matches(apply(member, p), *formulas.phi_a([0.5, -0.25j], *_formula_point(p)))


def test_omega_scales_parabolic_weights():
    U = haar_unitary(2, seed=0)
    p = np.array([1.0, 1j, 2.0])
    q = apply(_factor(0, U=U, s=3.0, R=1.5), p)
    assert_allclose(q[:-1], 3.0 * U @ p[:-1])
    assert q[-1] == pytest.approx(9.0 * 2.0)
    _assert_matches(q, *formulas.omega(U, 3.0, *_formula_point(p)))


def test_omega_defect_scaling_and_specialization():
    """Im(s^2 w) - ||sUz||^2 = s^2 (Im w - ||z||^2), and the omega factor
    is exactly the linear map (s U z, s^2 w)."""
    U = haar_unitary(3, seed=16)
    s = 1.7
    omega = _factor(0, U=U, s=s, R=-0.4, d=3)
    rng = np.random.default_rng(18)
    for _ in range(20):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = complex(rng.standard_normal(), rng.standard_normal())
        p = np.append(z, w)
        q = apply(omega, p)
        assert siegel_defect(q) == pytest.approx(s**2 * siegel_defect(p), rel=1e-12)
        direct_z, direct_w = formulas.omega(U, s, *_formula_point(p))
        assert_allclose(direct_z, q[:-1], atol=1e-15 * s * np.linalg.norm(z))
        assert abs(direct_w - q[-1]) < 1e-15 * abs(q[-1])


def test_factorization_matches_closed_form():
    """omega o phi_a o h_R reproduces the one-shot formula pointwise."""
    rng = np.random.default_rng(17)
    for seed in range(10):
        params = random_params(3, seed)
        for _ in range(30):
            z = rng.standard_normal(3) * 0.4 + 1j * rng.standard_normal(3) * 0.4
            w = complex(rng.standard_normal(), rng.standard_normal()) * 0.4
            p = np.append(z, w)
            if abs(denominator(params, p)) < 0.2:
                continue
            if abs(1.0 + params.R * w) < 0.2:
                continue
            direct = apply(params, p)
            factored = factor_apply(params, p)
            assert_allclose(factored[:-1], direct[:-1], atol=1e-13)
            assert abs(factored[-1] - direct[-1]) < 1e-13


def test_factor_apply_specializations():
    p = np.array([0.2j, 0.1, 0.15 + 0.1j])
    q = factor_apply(identity_params(2), p)
    assert isinstance(q, np.ndarray) and q.shape == (3,)
    assert_allclose(q[:-1], p[:-1])
    assert q[-1] == p[-1]
    # With a = 0 the middle stage drops out and the two-stage chain
    # omega o h_R must still match the closed form.
    params = AutParams(haar_unitary(2, seed=24), 1.4, np.zeros(2), 0.6)
    direct = apply(params, p)
    factored = factor_apply(params, p)
    assert_allclose(factored[:-1], direct[:-1], atol=1e-14)
    assert abs(factored[-1] - direct[-1]) < 1e-14


def test_phi_a_inverse_is_phi_minus_a():
    rng = np.random.default_rng(23)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a *= 0.8 / np.linalg.norm(a)
    forward, backward = _factor(1, a=a), _factor(1, a=-a)
    for _ in range(50):
        z = rng.standard_normal(2) * 0.3 + 1j * rng.standard_normal(2) * 0.3
        w = complex(rng.standard_normal(), rng.standard_normal()) * 0.3
        p = np.append(z, w)
        image = apply(forward, p)
        _assert_matches(image, *formulas.phi_a(list(a), *_formula_point(p)), rel=1e-13)
        back = apply(backward, image)
        assert_allclose(back[:-1], p[:-1], atol=1e-12)
        assert abs(back[-1] - p[-1]) < 1e-12


def test_defect_transformation_law():
    """Im w - ||z||^2 is multiplied by exactly s^2 / |D|^2."""
    rng = np.random.default_rng(31)
    for seed in range(10):
        params = random_params(2, seed)
        z = rng.standard_normal(2) * 0.5 + 1j * rng.standard_normal(2) * 0.5
        w = complex(rng.standard_normal(), rng.standard_normal())
        p = np.append(z, w)
        D = denominator(params, p)
        if abs(D) < 0.2:
            continue
        lhs = siegel_defect(apply(params, p))
        rhs = params.s**2 * siegel_defect(p) / abs(D) ** 2
        assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(rhs)))


def test_h_r_defect_scaling():
    p = np.array([0.3, 0.7 + 0.2j])
    q = apply(_factor(2, R=0.5, d=1), p)
    den = abs(1.0 + 0.5 * p[-1]) ** 2
    assert siegel_defect(q) == pytest.approx(siegel_defect(p) / den)
    _assert_matches(q, *formulas.h_R(0.5, *_formula_point(p)))


def test_boundary_invariance():
    for seed, p in enumerate(sample_siegel_boundary(4, seed=2, count=100)):
        params = random_params(3, seed)
        if abs(denominator(params, p)) < 0.1:
            continue
        image = apply(params, p)
        assert abs(siegel_defect(image)) < 1e-10 * (1.0 + abs(p[-1]) ** 2)


def test_apply_pole_raises():
    # a = 0, R = 1 puts the pole on w = -1.
    params = AutParams(np.eye(2), 1.0, np.zeros(2), 1.0)
    with pytest.raises(AutomorphismPoleError, match="pole of automorphism"):
        apply(params, np.append(np.zeros(2), -1.0))


def test_phi_a_and_h_r_poles_raise():
    """The factors' poles are where the direct formulas divide by zero."""
    on_phi_pole = np.array([0.0, -1j])
    with pytest.raises(AutomorphismPoleError):
        apply(_factor(1, a=np.array([1.0]), d=1), on_phi_pole)
    with pytest.raises(ZeroDivisionError):
        formulas.phi_a([1.0], *_formula_point(on_phi_pole))
    on_h_pole = np.array([0.0, -1.0])
    with pytest.raises(AutomorphismPoleError):
        apply(_factor(2, R=1.0, d=1), on_h_pole)
    with pytest.raises(ZeroDivisionError):
        formulas.h_R(1.0, *_formula_point(on_h_pole))


def test_params_validation():
    with pytest.raises(ValueError, match="not unitary"):
        AutParams(np.diag([1.0, 2.0]), 1.0, np.zeros(2), 0.0)
    with pytest.raises(ValueError, match="square"):
        AutParams(np.ones((2, 3)), 1.0, np.zeros(2), 0.0)
    for bad in (0.0, -1.0, np.inf, np.nan, True, 1.0 + 0j):
        with pytest.raises(ValueError, match="positive real"):
            AutParams(np.eye(2), bad, np.zeros(2), 0.0)
    for bad in (np.inf, np.nan, 1j):
        with pytest.raises(ValueError, match="real number"):
            AutParams(np.eye(2), 1.0, np.zeros(2), bad)
    with pytest.raises(ValueError, match="dimension"):
        AutParams(np.eye(2), 1.0, np.zeros(3), 0.0)
    with pytest.raises(ValueError, match="a must be finite"):
        AutParams(np.eye(2), 1.0, [0.0, np.inf], 0.0)
    for value in (2, np.int64(2), np.float32(2.0)):
        params = AutParams(np.eye(2), value, np.zeros(2), value)
        assert type(params.s) is float and type(params.R) is float
        assert params.s == params.R == 2.0


def test_params_reject_nan_unitary():
    """A NaN unitarity defect is not within tolerance: a U of NaN is refused
    for one member and as one member of a stack."""
    with pytest.raises(ValueError, match="not unitary"):
        AutParams(np.full((2, 2), np.nan), 1.0, np.zeros(2), 0.0)
    stack = random_params(2, seed=48, count=4)
    U = stack.U.copy()
    U[2] = np.nan
    with pytest.raises(ValueError, match="not unitary"):
        AutParams(U, stack.s, stack.a, stack.R)


@pytest.mark.parametrize("d", [1, 3, 7])
def test_apply_on_member_major_rows_matches_single_members(d):
    """A stack of B members maps member-major rows (B, R, n) member by member,
    as ``apply`` of member i does on rows[i]; R spans more than one product
    block of 2^16 multiply-adds."""
    stack = random_params(d, seed=45, count=4)
    shape = (4, 2**16 // (d + 2) ** 2 + 3, d + 1)
    rng = np.random.default_rng(46)
    rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rows *= 0.3 * domain_radius(stack)[:, None, None] / np.abs(rows).max()
    images = apply(stack, rows)
    assert images.shape == rows.shape
    for i in range(4):
        assert_allclose(images[i], apply(stack[i], rows[i]), rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("d", [1, 3, 7])
def test_denominator_on_member_major_rows_matches_per_row(d):
    """``denominator`` takes the rows ``apply`` takes: on member-major rows
    (B, R, n) member i acts on rows[i], with exactly the values of the
    per-row call on a stack with one member per row (rows that broadcast,
    (1, R, n), are shared by every member)."""
    stack = random_params(d, seed=49, count=4)
    rows = sample_siegel_boundary(d + 1, seed=50, count=4 * 6).reshape(4, 6, d + 1)
    D = denominator(stack, rows)
    per_row = denominator(stack[np.repeat(np.arange(4), 6)], rows.reshape(-1, d + 1))
    assert D.shape == (4, 6) and np.array_equal(D, per_row.reshape(4, 6))
    shared = denominator(stack, rows[:1])
    for i in range(4):
        assert np.array_equal(shared[i], denominator(stack[i], rows[0]))
        assert_allclose(D[i], matrix(stack[i])[-1, :-1] @ rows[i].T + 1, rtol=1e-14)


@pytest.mark.parametrize("ranges", [{}, WIDE])
def test_stacked_apply_matches_single_members(ranges):
    """A stack of B members on B rows equals B single-member calls."""
    stack = random_params(3, seed=40, count=50, **ranges)
    assert stack.U.shape == (50, 3, 3) and stack.s.shape == (50,)
    assert stack.a.shape == (50, 3) and stack.R.shape == (50,)
    # Boundary rows with ||z|| <= 0.05 and |Re w| <= 0.05: the default draw, scaled.
    rows = sample_siegel_boundary(4, seed=41, count=50)
    rows[:, :-1] *= 0.05
    rows[:, -1] = (0.05 * rows[:, -1].real
                   + 1j * np.linalg.norm(rows[:, :-1], axis=1) ** 2)
    images = apply(stack, rows)
    factored = factor_apply(stack, rows)
    D = denominator(stack, rows)
    for i, p in enumerate(rows):
        member = stack[i]
        assert_allclose(images[i], apply(member, p), rtol=1e-14, atol=1e-15)
        assert_allclose(factored[i], factor_apply(member, p), rtol=1e-14, atol=1e-15)
        assert D[i] == pytest.approx(denominator(member, p), abs=1e-15)
    assert_allclose(factored, images, atol=1e-12)


@pytest.mark.parametrize("ranges", [{}, WIDE])
@pytest.mark.parametrize("d", [1, 3, 7])
def test_stacked_group_law_matches_single_members(d, ranges):
    """matrix, compose, invert, param_distance and the radii on stacks of 50
    equal 50 single-member calls; single members keep float s, R, gaps."""
    outer = random_params(d, seed=43, count=50, **ranges)
    inner = random_params(d, seed=44, count=50, **ranges)
    M = matrix(outer)
    assert M.shape == (50, d + 2, d + 2)
    composite, inverse = compose(outer, inner), invert(outer)
    gaps = param_distance(outer, inner)
    radii, inner_radii = composition_radius(outer, inner), domain_radius(inner)
    assert gaps.shape == radii.shape == inner_radii.shape == (50,)
    for i in range(50):
        o, n = outer[i], inner[i]
        assert_allclose(M[i], matrix(o), rtol=1e-15, atol=0.0)
        single = compose(o, n)
        assert type(single.s) is float and type(single.R) is float
        assert param_distance(composite[i], single) < 1e-14 * (1.0 + abs(single.R))
        assert param_distance(inverse[i], invert(o)) < 1e-14 * (1.0 + abs(o.R) / o.s**2)
        gap = param_distance(o, n)
        assert isinstance(gap, float) and gap == gaps[i]
        assert isinstance(composition_radius(o, n), float)
        assert composition_radius(o, n) == pytest.approx(radii[i], rel=1e-14)
        assert inner_radii[i] == pytest.approx(as_holo_map(n).domain_radius, rel=1e-15)
    assert_allclose(param_distance(compose(outer, identity_params(d)), outer), 0.0,
                    atol=1e-13)


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
    a = stack.a.copy()
    a[3, 1] = np.inf
    with pytest.raises(ValueError, match="a must be finite"):
        AutParams(stack.U, stack.s, a, stack.R)
    assert stack[1:3].s.shape == (2,) and len(stack[1:3]) == 2
    with pytest.raises(TypeError):
        len(stack[3])  # one member has no member axis
    assert param_distance(stack[3], AutParams(stack.U[3], stack.s[3], stack.a[3],
                                              stack.R[3])) == 0.0


def test_params_a_message_names_the_failed_check():
    with pytest.raises(ValueError, match="wrong shape") as shape_error:
        AutParams(np.eye(2), 1.0, np.zeros(3), 0.0)
    assert "finite" not in str(shape_error.value)
    with pytest.raises(ValueError, match="a must be finite") as finite_error:
        AutParams(np.eye(2), 1.0, [np.nan, 0.0], 0.0)
    assert "shape" not in str(finite_error.value)


@pytest.mark.parametrize(("kwargs", "name"), [
    ({"a_max": np.inf}, "a_max"),
    ({"a_max": np.nan}, "a_max"),
    ({"a_max": -1.0}, "a_max"),
    ({"r_max": np.nan}, "r_max"),
    ({"r_max": np.inf}, "r_max"),
    ({"r_max": -0.5}, "r_max"),
    ({"s_min": 2.0, "s_max": 1.0}, "s_min"),
    ({"s_min": 0.0}, "s_min"),
    ({"s_min": np.nan}, "s_min"),
    ({"s_max": np.inf}, "s_max"),
])
def test_random_params_rejects_bad_ranges(kwargs, name):
    """Each bad range raises a ValueError that names the argument, before
    anything is drawn, for one member and for a stack."""
    for count in (None, 3):
        with pytest.raises(ValueError, match=name):
            random_params(2, seed=0, count=count, **kwargs)


@pytest.fixture
def gram_checks(monkeypatch):
    """The shapes passed to ``hilbert.unitarity_defect``, one per call, under
    every name the package imported it as."""
    real, calls = hilbert.unitarity_defect, []

    def counting(U):
        calls.append(np.shape(U))
        return real(U)

    for name, module in list(sys.modules.items()):
        if name.startswith("siegelball") and getattr(module, "unitarity_defect",
                                                     None) is real:
            monkeypatch.setattr(module, "unitarity_defect", counting)
    return calls


def test_drawn_stack_is_validated_once(gram_checks):
    """A draw checks its U once; members, sub-stacks and factors of a
    validated stack are not checked again."""
    stack = random_params(3, seed=49, count=250)
    assert gram_checks == [(250, 3, 3)]
    gram_checks.clear()
    member, part = stack[7], stack[stack.R > 0]
    omega, phi_a, h_R = factors(stack)
    factors(member)
    assert gram_checks == []
    assert type(member.s) is float and type(member.R) is float
    assert type(factors(member)[2].s) is float
    assert param_distance(member, AutParams(stack.U[7], stack.s[7], stack.a[7],
                                            stack.R[7])) == 0.0
    assert len(part.s) == np.count_nonzero(stack.R > 0)
    assert omega.U is stack.U and phi_a.a is stack.a and h_R.R is stack.R
    with pytest.raises(IndexError, match="members"):
        stack[None]


def test_outside_fields_are_still_validated(gram_checks):
    """AutParams, replace, compose, invert and a single draw check the U they
    are given, once per call, for stacks and for single members."""
    stack = random_params(2, seed=46, count=4)
    bad = stack.U.copy()
    bad[1] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="not unitary"):
        AutParams(bad, stack.s, stack.a, stack.R)
    for U in (bad, np.full_like(bad, np.nan)):
        with pytest.raises(ValueError, match="not unitary"):
            replace(stack, U=U)
    with pytest.raises(ValueError, match="not unitary"):
        replace(stack[0], U=np.diag([1.0, 2.0]))
    gram_checks.clear()
    compose(stack, stack)
    invert(stack)
    assert len(gram_checks) == 2
    gram_checks.clear()
    compose(stack[0], stack[1])
    invert(stack[2])
    random_params(2, seed=47)
    assert gram_checks == [(2, 2)] * 3


def test_recover_params_checks_its_U_once(gram_checks):
    """recover_params hands the Gram defect it computed to AutParams, whose
    other checks still run."""
    stack = random_params(3, seed=48, count=6)
    jet = extract_jet2(as_holo_map(stack))
    gram_checks.clear()
    recovered = recover_params(jet)
    assert gram_checks == [(6, 3, 3)]
    assert np.all(param_distance(recovered, stack) <= 1e-8)
    gram_checks.clear()
    recover_params(extract_jet2(as_holo_map(stack[2])))
    assert len(gram_checks) == 1
    U, s, a, R = stack.U[2], stack.s[2], stack.a[2], stack.R[2]
    with pytest.raises(ValueError, match="a must be finite"):
        autgroup._unchecked(U, s, np.full(3, np.nan), R).__post_init__(0.0)
    with pytest.raises(ValueError, match="s must be a positive"):
        autgroup._unchecked(U, -s, a, R).__post_init__(0.0)
    with pytest.raises(ValueError, match="not unitary"):
        autgroup._unchecked(U, s, a, R).__post_init__(np.nan)


def test_default_run_gram_check_count(gram_checks):
    """A default dim-8 run makes 54 Gram checks (171 when members and
    factors of drawn stacks were checked again, 88 when recover_params
    checked its U and then AutParams checked it again, 71 when
    ``jets.recovery_unitarity`` reduced each block through
    ``unitarity_defect`` rather than keeping per-member defects); 17 are
    recover_params'."""
    run(RunConfig(dim=8))
    assert len(gram_checks) <= 58


def test_random_params_bounds_and_determinism():
    for seed in range(10):
        params = random_params(4, seed, a_max=0.7, r_max=1.5)
        assert np.linalg.norm(params.a) <= 0.7
        assert abs(params.R) <= 1.5
        assert 0.5 <= params.s <= 2.0
    assert param_distance(random_params(4, 9), random_params(4, 9)) == 0.0


def test_param_distance_contract():
    p = random_params(3, 1)
    assert param_distance(p, p) == 0.0
    assert isinstance(param_distance(p, p), float)
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
    images = H.evaluate(np.concatenate([zs, ws[:, None]], axis=1))
    for i in range(20):
        q = apply(params, np.append(zs[i], ws[i]))
        assert_allclose(images[i, :-1], q[:-1], atol=1e-14)
        assert abs(images[i, -1] - q[-1]) < 1e-14


def test_stacked_holo_map_takes_member_major_rows():
    """A stack's germ evaluates rows (B, R, d + 1) member by member, as
    ``apply`` of each member does on its own rows; its radii are one per member."""
    stack = random_params(3, 31, count=5)
    H = as_holo_map(stack)
    assert H.dim == 3 and H.input_dim == H.output_dim == 4
    assert_allclose(H.domain_radius, domain_radius(stack), rtol=0)
    rng = np.random.default_rng(32)
    rows = 0.3 * (rng.standard_normal((5, 7, 4)) + 1j * rng.standard_normal((5, 7, 4)))
    rows *= domain_radius(stack)[:, None, None] / np.abs(rows).max()
    images = H.evaluate(rows)
    assert images.shape == (5, 7, 4)
    for i in range(5):
        assert_allclose(images[i], apply(stack[i], rows[i]), rtol=1e-14, atol=1e-15)


def test_stacked_holo_map_takes_shared_rows():
    """Rows (1, R, d + 1) broadcast against a stack's members: each member's
    images equal ``apply`` of that member on the same rows."""
    stack = random_params(3, 33, count=5)
    rng = np.random.default_rng(34)
    rows = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
    rows *= 0.3 * domain_radius(stack).min() / np.abs(rows).max()
    images = as_holo_map(stack).evaluate(rows[None])
    assert images.shape == (5, 7, 4)
    for i in range(5):
        assert_allclose(images[i], apply(stack[i], rows), rtol=1e-14, atol=1e-15)


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
            p = np.append(z, w)
            direct = apply(combined, p)
            chained = apply(outer, apply(inner, p))
            assert_allclose(direct[:-1], chained[:-1], atol=1e-10)
            assert abs(direct[-1] - chained[-1]) < 1e-10


@pytest.mark.parametrize("d", [1, 3])
def test_compose_matches_jet_of_chained_map(d):
    """Reference: the parameters read off the 2-jet of the pointwise
    composite agree with ``compose``."""
    for seed in range(4):
        outer = random_params(d, seed)
        inner = random_params(d, seed + 10)
        radius = composition_radius(outer, inner)
        f_in = as_holo_map(inner).evaluate
        f_out = as_holo_map(outer).evaluate
        chained = HoloMap(lambda rows: f_out(f_in(rows)), d + 1, d + 1, radius)
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
    """``invert``, which inverts U, agrees with the inverse written for a
    unitary U, (U^H, 1/s, -U a / s, -R / s^2)."""
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


@pytest.mark.parametrize("ranges", [{}, WIDE], ids=["default", "wide"])
@pytest.mark.parametrize("d", [1, 3, 7])
def test_group_law_is_the_matrix_product_and_inverse(d, ranges):
    """The closed forms are the blocks of ``matrix(o) @ matrix(i)`` and of
    the matrix inverse, for stacks, single members and a stack against one
    member."""
    outer = random_params(d, seed=61, count=50, **ranges)
    inner = random_params(d, seed=62, count=50, **ranges)
    product = matrix(outer) @ matrix(inner)
    singles = np.array([matrix(compose(outer[i], inner[i])) for i in range(50)])
    for M, P in [(matrix(compose(outer, inner)), product), (singles, product),
                 (matrix(compose(outer, inner[7])), matrix(outer) @ matrix(inner[7])),
                 (matrix(compose(outer[7], inner)), matrix(outer[7]) @ matrix(inner))]:
        scale = np.abs(P).max(axis=(-2, -1))
        assert np.all(np.abs(M - P).max(axis=(-2, -1)) <= 1e-14 * scale)
    M = matrix(outer)
    scale = np.linalg.norm(M, 2, axis=(-2, -1)) * np.linalg.norm(np.linalg.inv(M), 2,
                                                                  axis=(-2, -1))
    gap = np.abs(matrix(invert(outer)) @ M - np.eye(d + 2)).max(axis=(-2, -1))
    assert np.all(gap <= 1e-15 * scale)
    single = matrix(invert(outer[3])) @ M[3]
    assert np.abs(single - np.eye(d + 2)).max() <= 1e-15 * scale[3]


def test_group_law_builds_no_projective_matrix(monkeypatch):
    """compose and invert work on (U, s, a, R): they never call ``matrix``,
    and the one inverse they take is of the d x d block U."""
    def refuse(params):
        raise AssertionError("matrix called")

    inverted, inv = [], np.linalg.inv

    def recording(A):
        inverted.append(np.shape(A))
        return inv(A)

    monkeypatch.setattr(autgroup, "matrix", refuse)
    monkeypatch.setattr(np.linalg, "inv", recording)
    stack = random_params(3, seed=63, count=5)
    for p in (stack, stack[0]):
        compose(p, stack)
        compose(stack, p)
        invert(p)
    assert inverted == [(5, 3, 3), (3, 3)]


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
            p = np.append(z, w)
            back = apply(inverse, apply(params, p))
            assert_allclose(back[:-1], p[:-1], atol=1e-11)
            assert abs(back[-1] - p[-1]) < 1e-11


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
    p = np.array([0.1, -0.2j, 0.05, 0.1 + 0.2j])
    x = matrix(params) @ np.append(p, 1.0)
    assert x[-1] == pytest.approx(denominator(params, p))
    assert_allclose(x[:-1] / x[-1], apply(params, p), atol=1e-15)


@pytest.mark.parametrize("ranges", [{}, WIDE])
@pytest.mark.parametrize("d", [1, 3, 7])
def test_matrix_is_the_product_of_the_factor_matrices(d, ranges):
    """M = M_omega M_phi M_h member by member, and the factors are the
    members (U, s, 0, 0), (I, 1, a, 0) and (I, 1, 0, R)."""
    stack = random_params(d, seed=60, count=50, **ranges)
    omega, phi_a, h_R = factors(stack)
    M = matrix(stack)
    product = matrix(omega) @ matrix(phi_a) @ matrix(h_R)
    scale = np.abs(M).max(axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(product - M) <= 1e-15 * scale)
    eye = np.broadcast_to(np.eye(d), stack.U.shape)
    for member, (U, s, a, R) in [
        (omega, (stack.U, stack.s, 0.0, 0.0)),
        (phi_a, (eye, 1.0, stack.a, 0.0)),
        (h_R, (eye, 1.0, 0.0, stack.R)),
    ]:
        assert member.U.shape == stack.U.shape and member.a.shape == stack.a.shape
        assert np.array_equal(member.U, U)
        assert np.array_equal(member.s, np.broadcast_to(s, (50,)))
        assert np.array_equal(member.a, np.broadcast_to(a, stack.a.shape))
        assert np.array_equal(member.R, np.broadcast_to(R, (50,)))
    single = factors(stack[4])
    assert all(type(f.s) is float and type(f.R) is float for f in single)
    assert_allclose(matrix(single[2]), matrix(h_R[4]), rtol=0, atol=0)


def test_ball_automorphism_identity_and_distinguished_point():
    ident = identity_params(2)
    for Z in sample_sphere(3, seed=25, count=20, min_pole_dist=0.2):
        assert_allclose(ball_automorphism(ident, Z), Z, atol=1e-13)
    P = np.array([0.0, 0.0, 1.0])
    image = ball_automorphism(random_params(2, seed=26), P)
    assert abs(ball_defect(image)) < 1e-12


def test_ball_automorphism_preserves_sphere():
    """C^-1 M C has no pole on the sphere: no point is filtered out."""
    for seed, Z in enumerate(sample_sphere(3, seed=19, count=60)):
        image = ball_automorphism(random_params(2, seed), Z)
        assert abs(ball_defect(image)) < 1e-9


@pytest.mark.parametrize("offset", [0.0, 1e-9, 1e-6])
def test_ball_automorphism_at_the_cayley_pole(offset):
    """At -P, and on the sphere within 1e-6 of it, where the Cayley
    transform has its pole, the ball map still lands on the sphere and
    agrees with the limit of the direct formula."""
    direction = np.array([0.6, 0.8j]) * offset
    Z = np.append(direction, -np.sqrt(1.0 - offset**2))
    for seed in range(10):
        params = random_params(2, seed)
        image = ball_automorphism(params, Z)
        assert abs(ball_defect(image)) < 1e-12
        stack = random_params(2, seed, count=3)
        images = ball_automorphism(stack, np.tile(Z, (3, 1)))
        assert np.abs(ball_defect(images)).max() < 1e-12
    # Away from -P by 1e-3 the direct formula is still well conditioned.
    near = np.append([0.6e-3, 0.8e-3j], -np.sqrt(1.0 - 1e-6))
    params = random_params(2, seed=3)
    expected = formulas.ball_automorphism(params.U, params.s, list(params.a), params.R,
                                          [complex(x) for x in near])
    assert_allclose(ball_automorphism(params, near), expected, atol=1e-9)


def test_ball_automorphism_preserves_interior():
    params = random_params(2, seed=20)
    image = ball_automorphism(params, np.array([0.2, 0.1 + 0.3j, 0.0]))
    assert ball_defect(image) < -DEFECT_TOL


@pytest.mark.parametrize("d", [1, 3, 7, 31])
def test_ball_automorphism_is_the_dense_cayley_conjugate(d):
    """``ball_automorphism`` builds C^-1 M C from the Cayley matrices' 2 x 2
    block; its images equal, bit for bit, those of the dense product
    (C^-1 M) C, for one member and for a stack on member-major rows."""
    n = d + 1
    C, C_inv = _cayley_matrices(n)
    Z = sample_ball(n, seed=d, count=20).reshape(4, 5, n)
    for params, points in ((random_params(d, seed=d), Z[0]),
                           (random_params(d, seed=d, count=4), Z)):
        dense = _projective((C_inv @ matrix(params)) @ C, points,
                            error=AutomorphismPoleError, what="pole")
        assert np.array_equal(ball_automorphism(params, points), dense)


def test_composition_radius_positive():
    outer = random_params(3, seed=1)
    inner = random_params(3, seed=2)
    r = composition_radius(outer, inner)
    assert 0.0 < r <= 2.0
    # Inside the radius the inner denominator stays >= 1/2 and the outer one,
    # at the inner image, >= 1/3 (D_{outer o inner} = D_inner D_outer o H_inner).
    rng = np.random.default_rng(45)
    for d, ranges in itertools.product([1, 3, 7], [{}, WIDE]):
        outer = random_params(d, seed=46, count=200, **ranges)
        inner = random_params(d, seed=47, count=200, **ranges)
        r = composition_radius(outer, inner)
        assert np.all((0.0 < r) & (r <= 2.0))
        z = rng.standard_normal((200, d)) + 1j * rng.standard_normal((200, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        w = np.exp(2j * np.pi * rng.uniform(size=200))
        # Half the rows on the polydisc's edge, half inside it.
        scale = r * np.where(np.arange(200) % 2 == 0, 1.0, rng.uniform(size=200))
        rows = np.column_stack([z * scale[:, None], w * scale])
        slack = 1.0 - 1e-12  # rounding at the edge, where the bounds are sharp
        assert np.all(np.abs(denominator(inner, rows)) >= 0.5 * slack)
        image = apply(inner, rows)
        assert np.all(np.abs(denominator(outer, image)) >= slack / 3.0)
