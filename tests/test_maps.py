"""Homogeneous-sum and Whitney coordinate maps and their norm identities."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from siegelball.maps import (
    INFINITY,
    WhitneySpec,
    homog_sum_map,
    homog_sum_norm_squared,
    shift_map,
    whitney_map,
    whitney_norm_identity,
)
from siegelball.geometry import sample_ball, sample_sphere


def _norm2(v) -> float:
    return float(np.vdot(v, v).real)


def _graded_lex(n: int, cap: int) -> list[tuple[int, ...]]:
    """Ordered multi-indices over {0..n-1} of lengths 1..cap, by length first
    and lexicographically within each length."""
    return [alpha for k in range(1, cap + 1)
            for alpha in itertools.product(range(n), repeat=k)]


# ---------------------------------------------------------------------------
# output slots


def test_graded_lex_order_small():
    """Unpermuted slots run z1, z2, z1^2, z1 z2, z2 z1, z2^2: each tensor
    power flattened row-major."""
    a, b = 0.3 + 0.1j, -0.5j
    out = homog_sum_map([1.0, 1.0], 2).evaluate(np.array([a, b]))
    assert out.shape == (6,)
    assert_allclose(out, [a, b, a * a, a * b, b * a, b * b], rtol=0, atol=0)


def test_graded_lex_size_formula():
    H = homog_sum_map([1.0] * 4, 3)
    assert H.output_dim == 3 + 9 + 27 + 81 == len(_graded_lex(3, 4))
    assert H.input_dim == 3


def test_table_validation():
    """The source dimension must be at least 1."""
    with pytest.raises(ValueError, match="dimension"):
        homog_sum_map([1.0], 0)


# ---------------------------------------------------------------------------
# coefficient sequences


def test_lambda_seq_unit_normalizes():
    """Coefficients scaled onto the unit sphere, here (3, 4) / 5, make the map
    send the sphere to the sphere; any real or complex 1-D array-like works."""
    Z = np.array([0.6, 0.8j])
    for coefficients in ([0.6, 0.8], (0.6 + 0j, 0.8), np.array([3, 4]) / 5.0):
        out = homog_sum_map(coefficients, 2).evaluate(Z)
        assert _norm2(out) == pytest.approx(1.0, abs=1e-15)
        assert out[0] == pytest.approx(0.36)


def test_lambda_seq_validation():
    with pytest.raises(ValueError, match="non-empty"):
        homog_sum_map([], 2)
    with pytest.raises(ValueError, match="finite"):
        homog_sum_map([complex("nan")], 2)
    with pytest.raises(ValueError, match="finite"):
        homog_sum_map([1.0, np.inf], 2)
    with pytest.raises(ValueError, match="1-D"):
        homog_sum_map([[1.0, 0.5]], 2)
    with pytest.raises(ValueError, match="1-D"):
        homog_sum_map(1.0, 2)


# ---------------------------------------------------------------------------
# homogeneous-sum maps


def test_homog_sum_degree_one_is_the_inclusion():
    """lambda = (1, 0, ...) zeroes every higher block: an isometric inclusion."""
    H = homog_sum_map([1.0, 0.0, 0.0], 2)
    for Z in sample_ball(2, seed=3, count=50, radius=0.95):
        out = H.evaluate(Z)
        assert_allclose(out[:2], Z, atol=1e-15)
        assert _norm2(out) == pytest.approx(_norm2(Z), abs=1e-14)


def test_homog_sum_pure_degree_two():
    """lambda = (0, 1) keeps only the degree-2 block: ||H(Z)||^2 = ||Z||^4."""
    H = homog_sum_map([0.0, 1.0], 2)
    Z = np.array([0.3 + 0.1j, -0.5j])
    assert _norm2(H.evaluate(Z)) == pytest.approx(_norm2(Z) ** 2, abs=1e-14)


def test_homog_sum_output_layout():
    H = homog_sum_map([2.0, 3.0], 2)
    out = H.evaluate(np.array([1.0, 1j]))
    # graded-lex slots: z1, z2, z1^2, z1 z2, z2 z1, z2^2
    assert_allclose(out, [2.0, 2j, 3.0, 3j, 3j, -3.0], atol=1e-15)


def test_homog_sum_norm_law_random():
    rng = np.random.default_rng(2)
    lam = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    H = homog_sum_map(lam, 3)
    for Z in sample_ball(3, seed=4, count=200, radius=0.95):
        assert _norm2(H.evaluate(Z)) == pytest.approx(
            homog_sum_norm_squared(lam, Z), abs=1e-12
        )


def test_homog_sum_normalized_sphere_to_sphere():
    lam = np.array([1.0, -2.0, 0.5j, 1.0])
    H = homog_sum_map(lam / np.linalg.norm(lam), 4)
    for Z in sample_sphere(4, seed=5, count=100):
        assert _norm2(H.evaluate(Z)) == pytest.approx(1.0, abs=1e-12)


def test_homog_sum_rejects_wrong_dimension():
    H = homog_sum_map([1.0], 2)
    with pytest.raises(ValueError, match="dimension"):
        H.evaluate(np.ones(3))


def test_enumeration_permutation_invariance():
    """The output norm cannot see the order of the multi-index slots: a
    column permutation of the image keeps it."""
    rng = np.random.default_rng(7)
    H = homog_sum_map([0.5, -1j, 0.25], 2)
    order = rng.permutation(H.output_dim)
    for Z in sample_ball(2, seed=8, count=100, radius=0.95):
        image = H.evaluate(Z)
        assert _norm2(image) == pytest.approx(_norm2(image[order]), abs=1e-13)


def test_homog_sum_shuffled_table_matches_per_index_products():
    """Every output slot of the map, also with its columns permuted, is
    lambda_|alpha| times the product of the coordinates of the multi-index it
    enumerates, entry by entry."""
    rng = np.random.default_rng(11)
    lam = [0.5, -1j, 0.25 + 0.5j, 0.7]
    indices = _graded_lex(3, 4)
    Z = sample_ball(3, seed=12, count=25, radius=0.95)
    H = homog_sum_map(lam, 3)
    image = H.evaluate(Z)
    assert image.shape == (25, len(indices))
    assert_allclose(H.evaluate(Z[0]), image[0], rtol=0.0, atol=0.0)
    for order in (np.arange(len(indices)), rng.permutation(len(indices))):
        out = image[:, order]
        for slot, position in enumerate(order):
            alpha = indices[position]
            expected = lam[len(alpha) - 1] * np.prod(Z[:, list(alpha)], axis=1)
            assert_allclose(out[:, slot], expected, rtol=1e-14, atol=1e-16)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_homog_sum_blocks_are_einsum_tensor_powers(n):
    """Independent oracle: block k of the image is lambda_k times Z^(x)k, built
    by ``np.einsum`` and flattened row-major, for every cap K <= 4."""
    rng = np.random.default_rng(40 + n)
    Z = sample_ball(n, rng, 30, radius=0.95)
    for cap in range(1, 5):
        lam = rng.standard_normal(cap) + 1j * rng.standard_normal(cap)
        out = homog_sum_map(lam, n).evaluate(Z)
        start = 0
        for k in range(1, cap + 1):
            operands = [arg for j in range(1, k + 1) for arg in (Z, [0, j])]
            power = np.einsum(*operands, list(range(k + 1))).reshape(len(Z), n**k)
            assert_allclose(out[:, start:start + n**k], lam[k - 1] * power,
                            rtol=1e-14, atol=0)
            start += n**k
        assert start == out.shape[1]


def test_homog_sum_derivative_count():
    # K >= 2 maps into a strictly larger space: nowhere-onto derivative.
    H = homog_sum_map([1.0, 1.0], 3)
    assert H.output_dim == 12 > H.input_dim


@given(
    st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
    st.lists(st.floats(-0.6, 0.6), min_size=2, max_size=2),
)
@settings(max_examples=60, deadline=None)
def test_homog_norm_law_property(coeffs, point):
    Z = np.array([complex(point[0]), complex(point[1])])
    H = homog_sum_map(coeffs, 2)
    assert abs(_norm2(H.evaluate(Z)) - homog_sum_norm_squared(coeffs, Z)) < 1e-12


# ---------------------------------------------------------------------------
# Whitney maps


def test_whitney_degree_one_is_a_permutation():
    H = whitney_map(WhitneySpec(1, 3))
    Z = np.array([0.1 + 0.2j, 0.3, -0.4j])
    out = H.evaluate(Z)
    assert H.output_dim == 3
    assert_allclose(sorted(out, key=abs), sorted(Z, key=abs))
    assert _norm2(out) == pytest.approx(_norm2(Z))


def test_whitney_degree_two_hand_values():
    H = whitney_map(WhitneySpec(2, 2))
    r, delta = 0.5, 0.3
    out = H.evaluate(np.array([r, delta]))
    assert_allclose(out, [delta, r * delta, r**2])
    assert _norm2(out) == pytest.approx(delta**2 + r**2 * delta**2 + r**4)


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_whitney_sphere_preservation(p):
    H = whitney_map(WhitneySpec(p, 3))
    for Z in sample_sphere(3, seed=p, count=100):
        assert _norm2(H.evaluate(Z)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_whitney_norm_identity_finite(p):
    for Z in sample_ball(3, seed=10 + p, count=100, radius=0.9):
        lhs, rhs = whitney_norm_identity(WhitneySpec(p, 3), Z)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_whitney_norm_identity_truncated_infinite():
    spec = WhitneySpec(INFINITY, 3, truncation=40)
    assert spec.power_count == 41
    for Z in sample_ball(3, seed=20, count=100, radius=0.9):
        if abs(Z[0]) > 0.5:
            Z = Z.copy()
            Z[0] *= 0.5 / abs(Z[0])
        lhs, rhs = whitney_norm_identity(spec, Z)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_whitney_norm_identity_trivial_slice():
    """With z_1 = 0 the geometric factor is 1 and both sides are just t^2."""
    for spec in (WhitneySpec(4, 3), WhitneySpec(INFINITY, 3, truncation=7)):
        lhs, rhs = whitney_norm_identity(spec, np.array([0.0, 0.3, 0.0]))
        assert lhs == pytest.approx(0.09, abs=1e-15)
        assert rhs == pytest.approx(0.09, abs=1e-15)


def test_maps_evaluate_stacked_points_row_by_row():
    lam = [0.3 + 0.1j, -0.5, 0.2j]
    maps = [
        homog_sum_map(lam, 3),
        whitney_map(WhitneySpec(3, 3)),
        whitney_map(WhitneySpec(INFINITY, 3, truncation=6)),
        shift_map(3),
    ]
    Z = sample_ball(3, seed=21, count=40, radius=0.9)
    for H in maps:
        out = H.evaluate(Z)
        assert out.shape == (40, H.output_dim)
        for row, Zi in zip(out, Z):
            assert_allclose(row, H.evaluate(Zi), atol=1e-15)
    norms = homog_sum_norm_squared(lam, Z)
    lhs, rhs = whitney_norm_identity(WhitneySpec(3, 3), Z)
    for i, Zi in enumerate(Z):
        assert norms[i] == pytest.approx(homog_sum_norm_squared(lam, Zi), abs=1e-15)
        assert (lhs[i], rhs[i]) == pytest.approx(
            whitney_norm_identity(WhitneySpec(3, 3), Zi), abs=1e-15)


@pytest.mark.parametrize("p", [1, 2, INFINITY])
def test_whitney_map_takes_zero_rows(p):
    """No points give (0, output_dim) images and two empty sides of the norm
    identity, as for the other maps."""
    spec = WhitneySpec(p, 3, truncation=4 if p == INFINITY else None)
    H = whitney_map(spec)
    assert H.evaluate(np.zeros((0, 3))).shape == (0, H.output_dim)
    lhs, rhs = whitney_norm_identity(spec, np.zeros((0, 3)))
    assert lhs.shape == rhs.shape == (0,)


def test_whitney_output_dimension():
    assert whitney_map(WhitneySpec(3, 4)).output_dim == 3 * 3 + 1
    assert whitney_map(WhitneySpec(INFINITY, 4, truncation=5)).output_dim == 6 * 3


def test_whitney_derivative_count():
    # p >= 2 has more coordinates than variables: nowhere-onto derivative.
    for p in (2, 3, 6):
        H = whitney_map(WhitneySpec(p, 3))
        assert H.output_dim > H.input_dim


def test_whitney_norm_identity_domain_error():
    with pytest.raises(ValueError, match="z_1"):
        whitney_norm_identity(WhitneySpec(2, 2), np.array([1.0, 0.0]))


def test_whitney_spec_validation():
    with pytest.raises(ValueError, match="integer >= 1"):
        WhitneySpec(0, 2)
    with pytest.raises(ValueError, match="integer >= 1"):
        WhitneySpec(1.5, 2)
    with pytest.raises(ValueError, match="truncation"):
        WhitneySpec(INFINITY, 2)
    with pytest.raises(ValueError, match="truncation"):
        WhitneySpec(INFINITY, 2, truncation=-1)
    with pytest.raises(ValueError, match="truncation"):
        WhitneySpec(INFINITY, 2, truncation=0)
    with pytest.raises(ValueError, match="source dimension"):
        WhitneySpec(2, 1)


def test_whitney_rejects_wrong_dimension():
    H = whitney_map(WhitneySpec(2, 3))
    with pytest.raises(ValueError, match="dimension"):
        H.evaluate(np.ones(4))


# ---------------------------------------------------------------------------
# shift map


def test_shift_map_is_an_isometry():
    H = shift_map(3)
    Z = np.array([0.5, 1j, -2.0])
    out = H.evaluate(Z)
    assert out.shape == (4,)
    assert out[0] == 0.0
    assert_allclose(out[1:], Z)
    assert _norm2(out) == pytest.approx(_norm2(Z))


def test_shift_map_validation():
    with pytest.raises(ValueError):
        shift_map(0)
    with pytest.raises(ValueError, match="dimension"):
        shift_map(2).evaluate(np.ones(3))
