"""Homogeneous-sum and Whitney coordinate maps and their norm identities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from siegelball.maps import (
    INFINITY,
    LambdaSeq,
    MultiIndexTable,
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


# ---------------------------------------------------------------------------
# multi-index tables


def test_graded_lex_order_small():
    table = MultiIndexTable.graded_lex(2, 2)
    assert table.indices == ((1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2))
    assert table.size == 6
    assert table.is_complete()


def test_graded_lex_size_formula():
    table = MultiIndexTable.graded_lex(3, 4)
    assert table.size == 3 + 9 + 27 + 81
    assert table.is_complete()


def test_table_validation():
    with pytest.raises(ValueError, match="duplicate"):
        MultiIndexTable(n=2, degree_cap=1, indices=((1,), (1,)))
    with pytest.raises(ValueError, match="entries outside"):
        MultiIndexTable(n=2, degree_cap=1, indices=((3,),))
    with pytest.raises(ValueError, match="length outside"):
        MultiIndexTable(n=2, degree_cap=1, indices=((1, 1),))
    with pytest.raises(ValueError, match="length outside"):
        MultiIndexTable(n=2, degree_cap=1, indices=((),))
    with pytest.raises(ValueError):
        MultiIndexTable(n=0, degree_cap=1, indices=())


def test_incomplete_table_detected():
    table = MultiIndexTable(n=2, degree_cap=1, indices=((1,),))
    assert not table.is_complete()


# ---------------------------------------------------------------------------
# coefficient sequences


def test_lambda_seq_unit_normalizes():
    lam = LambdaSeq.unit([3.0, 4.0])
    assert lam.normalized
    assert sum(abs(v) ** 2 for v in lam.values) == pytest.approx(1.0)
    assert lam.values[0] == pytest.approx(0.6)


def test_lambda_seq_validation():
    with pytest.raises(ValueError, match="non-empty"):
        LambdaSeq(())
    with pytest.raises(ValueError, match="finite"):
        LambdaSeq((complex("nan"),))
    with pytest.raises(ValueError, match="not 1"):
        LambdaSeq((2.0,), normalized=True)
    with pytest.raises(ValueError, match="zero sequence"):
        LambdaSeq.unit([0.0, 0.0])


# ---------------------------------------------------------------------------
# homogeneous-sum maps


def test_homog_sum_degree_one_is_the_inclusion():
    """lambda = (1, 0, ...) zeroes every higher block: an isometric inclusion."""
    lam = LambdaSeq((1.0, 0.0, 0.0))
    H = homog_sum_map(lam, MultiIndexTable.graded_lex(2, 3))
    for Z in sample_ball(2, seed=3, count=50, radius=0.95):
        out = H.evaluate(Z)
        assert_allclose(out[:2], Z, atol=1e-15)
        assert _norm2(out) == pytest.approx(_norm2(Z), abs=1e-14)


def test_homog_sum_pure_degree_two():
    """lambda = (0, 1) keeps only the degree-2 block: ||H(Z)||^2 = ||Z||^4."""
    lam = LambdaSeq((0.0, 1.0))
    H = homog_sum_map(lam, MultiIndexTable.graded_lex(2, 2))
    Z = np.array([0.3 + 0.1j, -0.5j])
    assert _norm2(H.evaluate(Z)) == pytest.approx(_norm2(Z) ** 2, abs=1e-14)


def test_homog_sum_output_layout():
    lam = LambdaSeq((2.0, 3.0))
    table = MultiIndexTable.graded_lex(2, 2)
    H = homog_sum_map(lam, table)
    out = H.evaluate(np.array([1.0, 1j]))
    # slots follow the table: z1, z2, z1^2, z1 z2, z2 z1, z2^2
    assert_allclose(out, [2.0, 2j, 3.0, 3j, 3j, -3.0], atol=1e-15)


def test_homog_sum_norm_law_random():
    rng = np.random.default_rng(2)
    lam = LambdaSeq(tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
    H = homog_sum_map(lam, MultiIndexTable.graded_lex(3, 3))
    for Z in sample_ball(3, seed=4, count=200, radius=0.95):
        assert _norm2(H.evaluate(Z)) == pytest.approx(
            homog_sum_norm_squared(lam, Z), abs=1e-12
        )


def test_homog_sum_normalized_sphere_to_sphere():
    lam = LambdaSeq.unit([1.0, -2.0, 0.5j, 1.0])
    H = homog_sum_map(lam, MultiIndexTable.graded_lex(4, 4))
    for Z in sample_sphere(4, seed=5, count=100):
        assert _norm2(H.evaluate(Z)) == pytest.approx(1.0, abs=1e-12)


def test_homog_sum_requires_matching_caps():
    lam = LambdaSeq((1.0, 1.0))
    with pytest.raises(ValueError, match="degree cap"):
        homog_sum_map(lam, MultiIndexTable.graded_lex(2, 3))


def test_homog_sum_requires_complete_table():
    lam = LambdaSeq((1.0,))
    partial = MultiIndexTable(n=2, degree_cap=1, indices=((1,),))
    with pytest.raises(ValueError, match="does not cover"):
        homog_sum_map(lam, partial)


def test_homog_sum_rejects_wrong_dimension():
    lam = LambdaSeq((1.0,))
    H = homog_sum_map(lam, MultiIndexTable.graded_lex(2, 1))
    with pytest.raises(ValueError, match="dimension"):
        H.evaluate(np.ones(3))


def test_enumeration_permutation_invariance():
    """The output norm cannot see the order of the multi-index slots."""
    rng = np.random.default_rng(7)
    lam = LambdaSeq((0.5, -1j, 0.25))
    table = MultiIndexTable.graded_lex(2, 3)
    order = rng.permutation(table.size)
    shuffled = MultiIndexTable(
        n=2, degree_cap=3, indices=tuple(table.indices[i] for i in order)
    )
    H1 = homog_sum_map(lam, table)
    H2 = homog_sum_map(lam, shuffled)
    for Z in sample_ball(2, seed=8, count=100, radius=0.95):
        assert _norm2(H1.evaluate(Z)) == pytest.approx(
            _norm2(H2.evaluate(Z)), abs=1e-13
        )


def test_homog_sum_shuffled_table_matches_per_index_products():
    """Every output slot of a shuffled table is lambda_|alpha| times the
    product of its coordinates, entry by entry."""
    rng = np.random.default_rng(11)
    lam = LambdaSeq((0.5, -1j, 0.25 + 0.5j, 0.7))
    table = MultiIndexTable.graded_lex(3, 4)
    order = rng.permutation(table.size)
    shuffled = MultiIndexTable(
        n=3, degree_cap=4, indices=tuple(table.indices[i] for i in order)
    )
    Z = sample_ball(3, seed=12, count=25, radius=0.95)
    for tab in (table, shuffled):
        out = homog_sum_map(lam, tab).evaluate(Z)
        assert out.shape == (25, tab.size)
        for slot, alpha in enumerate(tab.indices):
            expected = lam.values[len(alpha) - 1] * np.prod(
                Z[:, [j - 1 for j in alpha]], axis=1)
            assert_allclose(out[:, slot], expected, rtol=1e-14, atol=1e-16)
        point = homog_sum_map(lam, tab).evaluate(Z[0])
        assert_allclose(point, out[0], rtol=0.0, atol=0.0)


def test_homog_sum_derivative_count():
    # K >= 2 maps into a strictly larger space: nowhere-onto derivative.
    H = homog_sum_map(LambdaSeq((1.0, 1.0)), MultiIndexTable.graded_lex(3, 2))
    assert H.output_dim == 12 > H.input_dim


@given(
    st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
    st.lists(st.floats(-0.6, 0.6), min_size=2, max_size=2),
)
@settings(max_examples=60, deadline=None)
def test_homog_norm_law_property(coeffs, point):
    lam = LambdaSeq((complex(coeffs[0]), complex(coeffs[1])))
    Z = np.array([complex(point[0]), complex(point[1])])
    H = homog_sum_map(lam, MultiIndexTable.graded_lex(2, 2))
    assert abs(_norm2(H.evaluate(Z)) - homog_sum_norm_squared(lam, Z)) < 1e-12


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
    lam = LambdaSeq((0.3 + 0.1j, -0.5, 0.2j))
    maps = [
        homog_sum_map(lam, MultiIndexTable.graded_lex(3, 3)),
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
