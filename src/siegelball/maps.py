"""The one map type, :class:`HoloMap`, and ball maps with closed-form norm identities.

Two families of holomorphic maps from the unit ball of C^n into a
higher-dimensional ball, each squashing the whole sphere (or a piece of it)
onto the target sphere while its derivative is nowhere onto:

* the homogeneous-sum map, one output coordinate ``lambda_k z_{a_1}...z_{a_k}``
  per ordered multi-index (a_1, ..., a_k), whose squared norm collapses by the
  multinomial theorem to ``sum_k |lambda_k|^2 ||Z||^(2k)``;
* the generalised Whitney map, with coordinates ``z_1^q z_k`` for q below a
  degree p (finite or infinite) plus ``z_1^p`` when p is finite, whose squared
  norm is a geometric sum in |z_1|^2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hilbert import as_points, sq_norm

#: Marker for an infinite Whitney degree.
INFINITY = math.inf

#: Tolerance for the normalisation flag on coefficient sequences.
NORMALIZATION_TOL = 1e-12


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


@dataclass(frozen=True)
class MultiIndexTable:
    """All ordered multi-indices over {1..n} of length 1..degree_cap.

    ``indices`` fixes the enumeration (the bijection onto output coordinate
    slots); the default builder uses graded lexicographic order, but any
    permutation of it describes the same family of maps.
    """

    n: int
    degree_cap: int
    indices: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1 or self.degree_cap < 1:
            msg = "n and degree_cap must both be >= 1"
            raise ValueError(msg)
        seen = set()
        for alpha in self.indices:
            if not alpha or len(alpha) > self.degree_cap:
                msg = f"index {alpha} has length outside 1..{self.degree_cap}"
                raise ValueError(msg)
            if any(j < 1 or j > self.n for j in alpha):
                msg = f"index {alpha} has entries outside 1..{self.n}"
                raise ValueError(msg)
            if alpha in seen:
                msg = f"duplicate index {alpha}"
                raise ValueError(msg)
            seen.add(alpha)

    @classmethod
    def graded_lex(cls, n: int, degree_cap: int) -> "MultiIndexTable":
        """Enumerate by length first, lexicographically within each length."""
        indices = tuple(
            alpha
            for k in range(1, degree_cap + 1)
            for alpha in itertools.product(range(1, n + 1), repeat=k)
        )
        return cls(n=n, degree_cap=degree_cap, indices=indices)

    @property
    def size(self) -> int:
        return len(self.indices)

    def is_complete(self) -> bool:
        """True when every index of length 1..degree_cap appears."""
        expected = sum(self.n**k for k in range(1, self.degree_cap + 1))
        return self.size == expected


@dataclass(frozen=True)
class LambdaSeq:
    """Degree coefficients (lambda_1, ..., lambda_K) of a homogeneous sum."""

    values: tuple[complex, ...]
    normalized: bool = False

    def __post_init__(self):
        values = tuple(complex(v) for v in self.values)
        if not values:
            msg = "coefficient sequence must be non-empty"
            raise ValueError(msg)
        if not all(np.isfinite(v.real) and np.isfinite(v.imag) for v in values):
            msg = "coefficients must be finite"
            raise ValueError(msg)
        object.__setattr__(self, "values", values)
        if self.normalized:
            total = sum(abs(v) ** 2 for v in values)
            if abs(total - 1.0) > NORMALIZATION_TOL:
                msg = f"sum of |lambda_k|^2 is {total!r}, not 1"
                raise ValueError(msg)

    @classmethod
    def unit(cls, values) -> "LambdaSeq":
        """Scale a sequence onto the coefficient sphere and flag it."""
        values = [complex(v) for v in values]
        total = math.sqrt(sum(abs(v) ** 2 for v in values))
        if total == 0.0:
            msg = "cannot normalize the zero sequence"
            raise ValueError(msg)
        return cls(tuple(v / total for v in values), normalized=True)

    @property
    def degree_cap(self) -> int:
        return len(self.values)


def homog_sum_map(lam: LambdaSeq, table: MultiIndexTable) -> HoloMap:
    """Map with coordinates ``lambda_|alpha| * prod_j Z_alpha_j``, one per index.

    Requires the table to cover every multi-index up to its degree cap and
    the coefficient sequence to match that cap.  The squared output norm is
    ``sum_k |lambda_k|^2 ||Z||^(2k)`` independently of the enumeration.
    """
    if lam.degree_cap != table.degree_cap:
        msg = (
            f"coefficient sequence has degree cap {lam.degree_cap}, "
            f"table has {table.degree_cap}"
        )
        raise ValueError(msg)
    if not table.is_complete():
        msg = "table does not cover all multi-indices up to its degree cap"
        raise ValueError(msg)
    n, cap = table.n, table.degree_cap
    # Products are built in graded-lex order, where the degree-k block is the
    # outer product of Z with the degree-(k-1) block (the first index varies
    # slowest, and the long axis stays innermost); ``offsets[k - 1]`` starts
    # block k.
    offsets = np.cumsum([0] + [n**k for k in range(1, cap + 1)])
    coef = np.repeat(lam.values, np.diff(offsets))
    order = np.array([_graded_lex_position(alpha, n, offsets) for alpha in table.indices])
    if np.array_equal(order, np.arange(table.size)):
        order = None

    def evaluate(Z) -> np.ndarray:
        Z = as_points(Z, n)
        lead = Z.shape[:-1]
        out = np.empty(lead + (table.size,), dtype=complex)
        out[..., :n] = Z
        for k in range(2, cap + 1):
            prev = out[..., offsets[k - 2]:offsets[k - 1]]
            block = out[..., offsets[k - 1]:offsets[k]].reshape(lead + (n, n ** (k - 1)))
            np.multiply(Z[..., :, None], prev[..., None, :], out=block)
        out *= coef
        return out if order is None else out[..., order]

    return HoloMap(evaluate, n, table.size)


def _graded_lex_position(alpha, n: int, offsets) -> int:
    """Slot of the multi-index ``alpha`` in the graded-lex enumeration."""
    rank = 0
    for j in alpha:
        rank = rank * n + (j - 1)
    return int(offsets[len(alpha) - 1]) + rank


def homog_sum_norm_squared(lam: LambdaSeq, Z):
    """Closed-form squared norm ``sum_k |lambda_k|^2 ||Z||^(2k)``, per point."""
    r2 = sq_norm(as_points(Z))
    return sum(abs(v) ** 2 * r2**k for k, v in enumerate(lam.values, start=1))


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
    out_dim = spec.power_count * (n - 1) + (1 if finite else 0)

    def evaluate(Z) -> np.ndarray:
        Z = as_points(Z, n)
        z1pow = Z[..., :1] ** powers
        mixed = (z1pow[..., :, None] * Z[..., None, 1:]).reshape(Z.shape[:-1] + (-1,))
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
