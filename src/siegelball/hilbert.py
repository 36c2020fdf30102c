"""Complex vectors, squared norms and unitary matrices.

Convention used throughout the package: the Hermitian inner product
``<u, v>`` is linear in its first argument and conjugate-linear in the
second,

    <u, v> = sum_k u_k * conj(v_k).
"""

from __future__ import annotations

import functools

import numpy as np

#: Per-entry tolerance for "is this matrix unitary" checks.
UNITARY_TOL = 1e-12


class SingularMatrixError(ValueError):
    """A singular or ill-conditioned linear system.  The package no longer
    raises it (``jets.recover_params`` raises ``JetRecoveryError``); it stays
    exported for existing callers that catch it."""


def as_points(u, dim: int | None = None) -> np.ndarray:
    """Coerce ``u`` to finite complex points along the last axis.

    One point has shape (n,), stacked points (..., n); with ``dim`` given the
    last axis must have that length.
    """
    arr = np.asarray(u, dtype=complex)
    if arr.ndim < 1 or (dim is not None and arr.shape[-1] != dim):
        msg = f"expected points of dimension {dim or 'n'}, got shape {arr.shape}"
        raise ValueError(msg)
    if not np.isfinite(arr).all():
        msg = "point coordinates must be finite"
        raise ValueError(msg)
    return arr


def sq_norm(u: np.ndarray):
    """Squared Euclidean norm along the last axis."""
    if u.ndim == 1:
        return np.vdot(u, u).real
    # Real and imaginary parts as one float axis: no complex-sized temporaries.
    v = np.ascontiguousarray(u, dtype=complex).view(float)
    return np.einsum("...i,...i->...", v, v)


def haar_unitary(n: int, seed, count: int | None = None) -> np.ndarray:
    """Haar-distributed ``n x n`` unitary matrix, or a stack (count, n, n).

    Deterministic for a fixed integer seed; also accepts a
    ``numpy.random.Generator``; one matrix is the stack of one.  Stewart's
    sampler (SIAM J. Numer. Anal. 1980):
    ``U = H_0 diag(1, H_1) ... diag(I_(n-1), H_(n-1)) D``, where H_k is the
    Householder reflection taking a fresh complex Gaussian x_k of length
    n - k to ``-phase_k ||x_k|| e_1``, ``phase_k = x_k[0] / |x_k[0]|``, and
    ``D = diag(-phase_k)``.  The reflections are the Householder QR of a
    Ginibre matrix, column by column, so ``-phase_k`` is the phase of R's
    k-th diagonal entry; multiplying it back in makes U exactly Haar rather
    than merely unitary (Mezzadri, Notices AMS 2007).  That takes
    n (n + 1) / 2 complex normals per matrix instead of n^2.
    """
    if n < 1:
        msg = f"dimension must be >= 1, got {n}"
        raise ValueError(msg)
    rng = np.random.default_rng(seed)
    batch = 1 if count is None else count
    starts = [k * n - k * (k - 1) // 2 for k in range(n)]  # x_k has length n - k
    g = rng.standard_normal((n * (n + 1) // 2, batch, 2))
    x = g.view(complex)[..., 0]  # x_0, ..., x_{n-1} one after another, batch last
    norm = np.sqrt(np.add.reduceat(x.real**2 + x.imag**2, starts, axis=0))
    head = x[starts]
    modulus = np.abs(head)
    phase = head / modulus
    # v_k = x_k + phase_k ||x_k|| e_1, scaled in place so that H_k = I - v_k v_k^H.
    x[starts] += phase * norm
    x /= np.repeat(np.sqrt(norm * (norm + modulus)), range(n, 0, -1), axis=0)
    U = np.zeros((n, n, batch), dtype=complex)
    U.reshape(n * n, batch)[::n + 1] = -phase  # D
    for k in range(n - 1, -1, -1):  # backward: H_k mixes rows k:, nonzero in columns k:
        v, block = x[starts[k]:starts[k] + n - k, None], U[k:, k:]
        block -= v * np.einsum("ib,ijb->jb", v[:, 0].conj(), block)
    U = np.ascontiguousarray(U.transpose(2, 0, 1))
    return U if count is not None else U[0]


def unitarity_defect(U) -> float:
    """Largest entry of ``|U^H U - I|`` over a matrix or a stack (..., n, n).

    0 for exactly unitary matrices (and for an empty stack).
    """
    U = np.asarray(U, dtype=complex)
    if U.ndim < 2 or U.shape[-1] != U.shape[-2]:
        msg = f"expected a square matrix, got shape {U.shape}"
        raise ValueError(msg)
    if U.ndim == 2:  # one matrix: no stack axes to reduce
        return float(_gram_defects(U))
    return float(_gram_defects(U).max(initial=0.0))


def _even_blocks(count: int, cap: int):
    """Yield (start, stop) of the fewest even blocks of at most ``max(1, cap)`` of
    ``count`` rows, sizes within one of each other (one empty block for none)."""
    blocks = max(1, -(-count // max(1, cap)))
    for k in range(blocks):
        yield count * k // blocks, count * (k + 1) // blocks


@functools.lru_cache
def _identity(n: int) -> np.ndarray:
    """The complex n x n identity, shared and read-only."""
    eye = np.eye(n, dtype=complex)
    eye.flags.writeable = False
    return eye


def _gram_defects(U: np.ndarray) -> np.ndarray:
    """Largest entry of ``|U^H U - I|`` per matrix of a stack, (..., n, n) ->
    (...), from one batched product; the identity is subtracted exactly
    (its off-diagonal zeros leave those entries unchanged)."""
    gram = U.conj().swapaxes(-1, -2) @ U
    gram -= _identity(U.shape[-1])
    return np.abs(gram).max(axis=(-2, -1), initial=0.0)
