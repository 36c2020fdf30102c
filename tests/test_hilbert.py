"""Tests for squared norms, the Gram check and unitary sampling."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from siegelball.hilbert import (
    UNITARY_TOL,
    _gram_defects,
    haar_unitary,
    sq_norm,
    unitarity_defect,
)


def test_norm_hand_value():
    """``sq_norm`` by hand: ||(3, 4i)||^2 = 25."""
    assert sq_norm(np.array([3.0, 4j])) == 25.0
    assert sq_norm(np.zeros(4)) == 0.0


def test_norm_unitary_invariance():
    rng = np.random.default_rng(11)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    U = haar_unitary(3, seed=6)
    assert np.linalg.norm(U @ u) == pytest.approx(np.linalg.norm(u), rel=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_haar_unitary_is_unitary(n):
    U = haar_unitary(n, seed=123)
    assert U.shape == (n, n)
    assert unitarity_defect(U) < 1e-13
    assert unitarity_defect(U) <= UNITARY_TOL
    assert abs(abs(np.linalg.det(U)) - 1.0) < 1e-12


def test_haar_unitary_deterministic():
    assert_allclose(haar_unitary(4, seed=7), haar_unitary(4, seed=7))
    assert not np.allclose(haar_unitary(4, seed=7), haar_unitary(4, seed=8))


def test_haar_unitary_accepts_generator():
    rng = np.random.default_rng(5)
    U = haar_unitary(3, rng)
    V = haar_unitary(3, rng)  # consumes the stream, so differs
    assert not np.allclose(U, V)
    assert max(unitarity_defect(U), unitarity_defect(V)) <= UNITARY_TOL


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
    """``_gram_defects`` gives each member's defect from one batched product,
    equal to the member's own; the stack's defect is the worst of them."""
    stack = haar_unitary(3, seed=12, count=5)
    stack[3] *= 1.0 + 1e-6
    assert unitarity_defect(stack) == pytest.approx(unitarity_defect(stack[3]))
    assert unitarity_defect(np.zeros((0, 3, 3))) == 0.0
    rng = np.random.default_rng(14)
    for n in (1, 3, 7):
        noise = rng.standard_normal((4, 6, n, n, 2)).view(complex)[..., 0]
        noisy = haar_unitary(n, seed=n, count=24).reshape(4, 6, n, n) + 1e-9 * noise
        each = _gram_defects(noisy)
        assert each.shape == (4, 6)
        assert np.array_equal(each, [[unitarity_defect(U) for U in row] for row in noisy])
        assert unitarity_defect(noisy) == each.max()
        assert _gram_defects(noisy[1, 2]) == unitarity_defect(noisy[1, 2])
    assert _gram_defects(np.zeros((0, 3, 3), dtype=complex)).shape == (0,)


def test_unitarity_defect_matches_explicit_gram_difference():
    """Subtracting the cached identity gives the defect max |U^H U - I|
    bit for bit, on one matrix, on stacks and on broadcast stacks (checked
    once)."""
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
