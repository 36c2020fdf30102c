"""Complex vectors, the Hermitian inner product, and unitary matrices.

Convention used throughout the package: ``inner(u, v)`` is linear in its
first argument and conjugate-linear in the second,

    inner(u, v) = sum_k u_k * conj(v_k).
"""

from __future__ import annotations

import numpy as np

#: Per-entry tolerance for "is this matrix unitary" checks.
UNITARY_TOL = 1e-12

#: Largest condition number of a derivative accepted by ``jets.recover_params``.
COND_MAX = 1e8


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


def as_vector(u) -> np.ndarray:
    """Coerce ``u`` to a finite one-dimensional complex array."""
    arr = as_points(u)
    if arr.ndim != 1:
        msg = f"expected a one-dimensional vector, got shape {arr.shape}"
        raise ValueError(msg)
    return arr


def sq_norm(u: np.ndarray):
    """Squared Euclidean norm along the last axis."""
    if u.ndim == 1:
        return np.vdot(u, u).real
    # Real and imaginary parts as one float axis: no complex-sized temporaries.
    v = np.ascontiguousarray(u, dtype=complex).view(float)
    return np.einsum("...i,...i->...", v, v)


def inner(u, v) -> complex:
    """Hermitian inner product, linear in ``u``, conjugate-linear in ``v``."""
    u = as_vector(u)
    v = as_vector(v)
    if u.shape != v.shape:
        msg = f"dimension mismatch: {u.shape[0]} vs {v.shape[0]}"
        raise ValueError(msg)
    # np.vdot conjugates its *first* argument.
    return complex(np.vdot(v, u))


def norm(u) -> float:
    """Euclidean norm ``sqrt(inner(u, u))``."""
    return float(np.linalg.norm(as_vector(u)))


def haar_unitary(n: int, seed, count: int | None = None) -> np.ndarray:
    """Haar-distributed ``n x n`` unitary matrix, or a stack of ``count``.

    Deterministic for a fixed integer seed; also accepts a
    ``numpy.random.Generator``.  Uses the (stacked) QR decomposition of
    complex Ginibre matrices with the phases of R's diagonal absorbed into
    Q, which makes the distribution exactly Haar rather than merely unitary.
    """
    if n < 1:
        msg = f"dimension must be >= 1, got {n}"
        raise ValueError(msg)
    rng = np.random.default_rng(seed)
    shape = (n, n) if count is None else (count, n, n)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(g / np.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def unitarity_defect(U) -> float:
    """Largest entry of ``|U^H U - I|`` over a matrix or a stack (..., n, n).

    0 for exactly unitary matrices (and for an empty stack).  A broadcast
    stack repeats one matrix along its zero-stride axes: it is checked once.
    """
    U = np.asarray(U, dtype=complex)
    if U.ndim < 2 or U.shape[-1] != U.shape[-2]:
        msg = f"expected a square matrix, got shape {U.shape}"
        raise ValueError(msg)
    if U.ndim > 2:
        U = U[tuple(0 if step == 0 and size else slice(None)
                    for step, size in zip(U.strides[:-2], U.shape[:-2]))]
    n = U.shape[-1]
    gram = U.conj().swapaxes(-1, -2) @ U
    gram.reshape(gram.shape[:-2] + (n * n,))[..., ::n + 1] -= 1.0  # G - I, in place
    return float(np.abs(gram).max(initial=0.0))


def is_unitary(U) -> bool:
    """True when every entry of ``U^H U - I`` is at most ``UNITARY_TOL`` in modulus."""
    return unitarity_defect(U) <= UNITARY_TOL
