"""The one map type, :class:`HoloMap`, and ball maps with closed-form norm identities.

Two families of holomorphic maps from the unit ball of C^n into a
higher-dimensional ball, each squashing the whole sphere (or a piece of it)
onto the target sphere while its derivative is nowhere onto:

* the homogeneous-sum map ``Z -> (lambda_k Z^(x)k)_k``, whose slots are the
  coordinates ``lambda_k z_{a_1}...z_{a_k}``, one per ordered multi-index
  (a_1, ..., a_k) in any enumeration, and whose squared norm collapses by the
  multinomial theorem to ``sum_k |lambda_k|^2 ||Z||^(2k)``;
* the generalised Whitney map, with coordinates ``z_1^q z_k`` for q below a
  degree p (finite or infinite) plus ``z_1^p`` when p is finite, whose squared
  norm is a geometric sum in |z_1|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hilbert import as_points, sq_norm

#: Marker for an infinite Whitney degree.
INFINITY = math.inf


@dataclass(frozen=True, eq=False)
class HoloMap:
    """A holomorphic map from C^n into C^N, or a stack of B map germs.

    ``evaluate`` maps rows (..., n) to images (..., N): ball points for the
    coordinate maps below, Siegel rows ``(z, w)`` for germs at the Siegel
    origin.  A stack's evaluator takes rows that broadcast to member-major
    (B, R, n), such as rows (1, R, n) shared by every member, and returns
    member-major images.  Each germ is defined (at least) on the polydisc
    ``max(||z||, |w|) < domain_radius``, one radius per member (infinite for
    the polynomial maps).
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    input_dim: int
    output_dim: int
    domain_radius: float | np.ndarray = math.inf

    @property
    def dim(self) -> int:
        """Dimension of the z-part of the Siegel rows, ``input_dim - 1``."""
        return self.input_dim - 1


def homog_sum_map(coefficients, n: int) -> HoloMap:
    """The map ``Z -> (lambda_1 Z, lambda_2 Z^(x)2, ..., lambda_K Z^(x)K)``.

    ``coefficients`` is the 1-D sequence lambda_1..lambda_K.  Each tensor
    power is flattened row-major, so the output slots run through the ordered
    multi-indices of lengths 1..K in graded lexicographic order.  The squared
    output norm is ``sum_k |lambda_k|^2 ||Z||^(2k)`` for every enumeration of
    those ``n + n^2 + ... + n^K`` slots.
    """
    coef = np.asarray(coefficients, dtype=complex)
    if coef.ndim != 1 or coef.size == 0 or not np.isfinite(coef).all():
        msg = "coefficients must be a non-empty 1-D sequence of finite numbers"
        raise ValueError(msg)
    if n < 1:
        msg = f"dimension must be >= 1, got {n}"
        raise ValueError(msg)
    # The degree-k block is the outer product of Z with the degree-(k-1)
    # block (the long axis stays innermost); ``offsets[k - 1]`` starts block k.
    offsets = np.cumsum([0] + [n**k for k in range(1, coef.size + 1)])
    size = int(offsets[-1])
    coef = np.repeat(coef, np.diff(offsets))

    def evaluate(Z) -> np.ndarray:
        Z = as_points(Z, n)
        lead = Z.shape[:-1]
        out = np.empty(lead + (size,), dtype=complex)
        out[..., :n] = Z
        for k in range(2, len(offsets)):
            prev = out[..., offsets[k - 2]:offsets[k - 1]]
            block = out[..., offsets[k - 1]:offsets[k]].reshape(lead + (n, n ** (k - 1)))
            np.multiply(Z[..., :, None], prev[..., None, :], out=block)
        out *= coef
        return out

    return HoloMap(evaluate, n, size)


def homog_sum_norm_squared(coefficients, Z):
    """Closed-form squared norm ``sum_k |lambda_k|^2 ||Z||^(2k)``, per point."""
    r2 = sq_norm(as_points(Z))
    return sum(abs(c) ** 2 * r2**k for k, c in enumerate(coefficients, start=1))


@dataclass(frozen=True)
class WhitneySpec:
    """Degree p (int >= 1 or INFINITY), source dimension n, truncation cap."""

    p: float
    n: int
    truncation: int | None = None

    def __post_init__(self):
        if self.p != INFINITY:
            if not float(self.p).is_integer() or self.p < 1:
                msg = f"p must be an integer >= 1 or INFINITY, got {self.p!r}"
                raise ValueError(msg)
            object.__setattr__(self, "p", int(self.p))
        elif self.truncation is None or self.truncation < 1:
            msg = "an infinite degree requires a truncation cap >= 1"
            raise ValueError(msg)
        if self.n < 2:
            msg = f"source dimension must be >= 2, got {self.n}"
            raise ValueError(msg)

    @property
    def power_count(self) -> int:
        """Number of z_1-powers occurring in the mixed coordinates."""
        return int(self.truncation) + 1 if self.p == INFINITY else int(self.p)


def whitney_map(spec: WhitneySpec) -> HoloMap:
    """Generalised Whitney map.

    Coordinates ``z_1^q z_k`` for ``k = 2..n`` and ``0 <= q < p`` (finite p)
    or ``0 <= q <= truncation`` (infinite p), followed by the single
    coordinate ``z_1^p`` when p is finite.
    """
    n = spec.n
    powers = np.arange(spec.power_count)
    finite = spec.p != INFINITY
    width = spec.power_count * (n - 1)  # the mixed coordinates
    out_dim = width + (1 if finite else 0)

    def evaluate(Z) -> np.ndarray:
        Z = as_points(Z, n)
        mixed = Z[..., :1, None] ** powers[:, None] * Z[..., None, 1:]
        mixed = mixed.reshape(Z.shape[:-1] + (width,))
        if finite:
            return np.concatenate([mixed, Z[..., :1] ** int(spec.p)], axis=-1)
        return mixed

    return HoloMap(evaluate, n, out_dim)


def whitney_norm_identity(spec: WhitneySpec, Z) -> tuple:
    """Both sides of the closed-form norm identity for the Whitney map.

    Returns ``(lhs, rhs)``, per point of ``Z`` (..., n), where lhs is the
    brute-force squared norm of the map output and rhs the geometric-sum
    expression: for finite p

        (1 - |z1|^(2p)) / (1 - |z1|^2) * (||Z||^2 - |z1|^2) + |z1|^(2p)

    and for infinite p with truncation Q the partial sum

        (1 - |z1|^(2Q+2)) / (1 - |z1|^2) * (||Z||^2 - |z1|^2).

    Requires ``|z1| < 1`` at every point.
    """
    Z = as_points(Z, spec.n)
    t = sq_norm(Z[..., :1])
    if np.max(t, initial=0.0) >= 1.0:
        msg = f"|z_1| must be < 1, got {math.sqrt(np.max(t))}"
        raise ValueError(msg)
    lhs = sq_norm(whitney_map(spec).evaluate(Z))
    r2 = sq_norm(Z)
    if spec.p == INFINITY:
        geom = (1.0 - t ** (spec.truncation + 1)) / (1.0 - t)
        rhs = geom * (r2 - t)
    else:
        p = int(spec.p)
        geom = (1.0 - t**p) / (1.0 - t)
        rhs = geom * (r2 - t) + t**p
    return lhs, rhs


def shift_map(n: int) -> HoloMap:
    """The isometric shift: prepend a zero coordinate, ``Z -> (0, Z)``."""
    if n < 1:
        msg = f"dimension must be >= 1, got {n}"
        raise ValueError(msg)

    def evaluate(Z) -> np.ndarray:
        Z = as_points(Z, n)
        return np.concatenate([np.zeros_like(Z[..., :1]), Z], axis=-1)

    return HoloMap(evaluate, n, n + 1)
