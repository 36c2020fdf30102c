"""Tests for the inner-product conventions and unitary sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from siegelball.hilbert import (
    as_vector,
    haar_unitary,
    inner,
    is_unitary,
    norm,
    sq_norm,
    unitarity_defect,
)

# Strategy for small complex vectors of a fixed dimension.
cvec3 = st.lists(
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    min_size=3,
    max_size=3,
)


def test_inner_first_slot_linear():
    # <i u, v> = i <u, v>: the first slot carries the plain factor.
    assert inner([1j], [1.0]) == 1j
    assert inner([1.0], [1j]) == -1j


def test_inner_hand_value():
    u = np.array([1.0 + 2j, 3.0])
    v = np.array([1j, 1.0])
    # sum u_k conj(v_k) = (1+2j)(-1j) + 3 = 2 - 1j + 3
    assert_allclose(inner(u, v), 5.0 - 1j)


def test_inner_on_basis_vectors():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert inner(e1, e1) == 1.0
    assert inner(e1, e2) == 0.0


def test_norm_hand_value():
    assert norm([3.0, 4j]) == pytest.approx(5.0)
    assert norm(np.zeros(4)) == 0.0


def test_norm_unitary_invariance():
    rng = np.random.default_rng(11)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    U = haar_unitary(3, seed=6)
    assert norm(U @ u) == pytest.approx(norm(u), rel=1e-13)


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        inner([1.0, 2.0], [1.0])


def test_as_vector_rejects_matrices_and_nonfinite():
    with pytest.raises(ValueError, match="one-dimensional"):
        as_vector(np.eye(2))
    with pytest.raises(ValueError, match="finite"):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError, match="finite"):
        as_vector([np.inf, 0.0])


@given(cvec3, cvec3, cvec3, st.complex_numbers(max_magnitude=5, allow_nan=False,
                                               allow_infinity=False))
@settings(max_examples=100, deadline=None)
def test_inner_linearity_first_argument(u, v, t, alpha):
    lhs = inner(alpha * np.asarray(u) + np.asarray(v), t)
    rhs = alpha * inner(u, t) + inner(v, t)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs) + abs(rhs))


@given(cvec3, cvec3)
@settings(max_examples=100, deadline=None)
def test_inner_conjugate_symmetry(u, v):
    assert abs(inner(u, v) - np.conj(inner(v, u))) <= 1e-12 * (1 + abs(inner(u, v)))


@given(cvec3, cvec3)
@settings(max_examples=100, deadline=None)
def test_cauchy_schwarz(u, v):
    assert abs(inner(u, v)) <= norm(u) * norm(v) * (1.0 + 1e-12) + 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_haar_unitary_is_unitary(n):
    U = haar_unitary(n, seed=123)
    assert U.shape == (n, n)
    assert unitarity_defect(U) < 1e-13
    assert is_unitary(U)
    assert abs(abs(np.linalg.det(U)) - 1.0) < 1e-12


def test_haar_unitary_deterministic():
    assert_allclose(haar_unitary(4, seed=7), haar_unitary(4, seed=7))
    assert not np.allclose(haar_unitary(4, seed=7), haar_unitary(4, seed=8))


def test_haar_unitary_accepts_generator():
    rng = np.random.default_rng(5)
    U = haar_unitary(3, rng)
    V = haar_unitary(3, rng)  # consumes the stream, so differs
    assert not np.allclose(U, V)
    assert is_unitary(U) and is_unitary(V)


def test_haar_unitary_dimension_one_is_a_phase():
    U = haar_unitary(1, seed=9)
    assert U.shape == (1, 1)
    assert abs(abs(U[0, 0]) - 1.0) < 1e-14


def test_haar_unitary_entry_moment():
    """E|U_11|^2 = 1/n for Haar measure; Monte Carlo check at n=2 (5% band)."""
    rng = np.random.default_rng(42)
    draws = 10**4
    acc = 0.0
    for _ in range(draws):
        acc += abs(haar_unitary(2, rng)[0, 0]) ** 2
    assert abs(acc / draws - 0.5) < 0.025


def test_haar_unitary_stack():
    """A stack of count draws: each member unitary, Haar in the first
    moment, and a stack of one is the single draw of the same stream."""
    stack = haar_unitary(2, seed=11, count=4000)
    assert stack.shape == (4000, 2, 2)
    assert unitarity_defect(stack) < 1e-13
    assert abs(np.mean(np.abs(stack[:, 0, 0]) ** 2) - 0.5) < 0.025
    assert_allclose(haar_unitary(3, seed=7, count=1)[0], haar_unitary(3, seed=7),
                    atol=1e-15)


def _within_5_se(samples, expected) -> bool:
    """The sample mean is within five standard errors of ``expected`` (with a
    rounding floor, for quantities that are constant under Haar measure)."""
    se = np.std(samples) / np.sqrt(len(samples))
    return abs(np.mean(samples) - expected) <= 5.0 * se + 1e-12


@pytest.mark.parametrize("n", [1, 3, 7])
def test_haar_unitary_stack_moments(n):
    """20 000 stacked draws against moments of Haar measure on U(n):
    E|U_ij|^2 = 1/n along a row and a column, E|tr U|^2 = 1, E|tr U|^4 = 2
    (n >= 2) and E det U = 0.  QR of Ginibre matrices without the phase
    correction fails this test."""
    U = haar_unitary(n, seed=2024, count=20_000)
    for entries in (U[:, 0, :], U[:, :, -1]):
        assert all(_within_5_se(np.abs(e) ** 2, 1.0 / n) for e in entries.T)
    trace2 = np.abs(np.trace(U, axis1=-2, axis2=-1)) ** 2
    assert _within_5_se(trace2, 1.0)
    if n >= 2:
        assert _within_5_se(trace2**2, 2.0)
    assert abs(np.linalg.det(U).mean()) <= 5.0 / np.sqrt(len(U))  # |det U| = 1


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_haar_unitary_stack_is_unitary(n):
    """Every member of a stack is unitary; a stack of one is the single draw
    of the same stream, and a stack of none is empty."""
    stack = haar_unitary(n, seed=n, count=200)
    assert stack.shape == (200, n, n) and stack.flags.c_contiguous
    assert unitarity_defect(stack) <= 1e-13
    assert np.array_equal(haar_unitary(n, seed=5, count=1)[0], haar_unitary(n, seed=5))
    assert haar_unitary(n, seed=5, count=0).shape == (0, n, n)


def test_unitarity_defect_of_a_stack_is_its_worst_member():
    stack = haar_unitary(3, seed=12, count=5)
    stack[3] *= 1.0 + 1e-6
    assert unitarity_defect(stack) == pytest.approx(unitarity_defect(stack[3]))
    assert unitarity_defect(np.zeros((0, 3, 3))) == 0.0


def test_unitarity_defect_matches_explicit_gram_difference():
    """The in-place G - I gives the defect max |U^H U - I| exactly, on one
    matrix, on stacks and on broadcast stacks (checked once)."""
    rng = np.random.default_rng(13)

    def explicit(U):
        eye = np.eye(U.shape[-1])
        return float(np.abs(U.conj().swapaxes(-1, -2) @ U - eye).max(initial=0.0))

    for n in (1, 3, 7):
        U = haar_unitary(n, seed=n, count=6)
        noise = rng.standard_normal(U.shape) + 1j * rng.standard_normal(U.shape)
        noisy = U + 1e-9 * noise
        bad = np.diag(np.linspace(1.0, 2.0, n))
        cases = [U[0], U, noisy, noisy[2], bad, np.broadcast_to(bad, (4, n, n)),
                 np.broadcast_to(noisy[:, None], (6, 3, n, n)), np.eye(n), U.real]
        for case in cases:
            assert unitarity_defect(case) == explicit(np.asarray(case, dtype=complex))
    assert unitarity_defect(np.broadcast_to(np.eye(2), (0, 2, 2))) == 0.0
    with pytest.raises(ValueError, match="square"):
        unitarity_defect(np.ones((4, 2, 3)))


def test_haar_unitary_rejects_bad_dimension():
    with pytest.raises(ValueError):
        haar_unitary(0, seed=1)


def test_unitarity_defect_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        unitarity_defect(np.ones((2, 3)))


def test_sq_norm_matches_sum_of_squared_moduli():
    rng = np.random.default_rng(3)
    Z = rng.standard_normal((5, 4, 3)) + 1j * rng.standard_normal((5, 4, 3))

    def reference(u):
        return np.sum(np.abs(u) ** 2, axis=-1)

    cases = [
        Z[0, 0],              # one point
        Z,                    # stacked
        Z[..., :1],           # non-contiguous last axis
        Z.transpose(2, 1, 0),  # transposed
        Z.real,               # real input
        np.empty((0, 3), dtype=complex),
    ]
    for u in cases:
        value = sq_norm(u)
        assert np.shape(value) == u.shape[:-1]
        assert_allclose(value, reference(u), rtol=1e-15, atol=0.0)
