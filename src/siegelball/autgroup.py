"""Origin-fixing boundary automorphisms of the Siegel domain.

The family treated here is the linear-fractional group

    H(z, w) = ( s U (z + a w) / D,  s^2 w / D ),
    D(z, w) = 1 - 2 i <z, a> + (R - i ||a||^2) w,

parameterised by a unitary U, a scale s > 0, a vector a in C^(n-1) and a
real R.  Every member fixes the origin, maps the boundary hypersurface
{Im w = ||z||^2} to itself, and factors as

    H = omega_{U,s} o phi_a o h_R

into a linear part, a "translation" part and a one-parameter part:

    omega_{U,s}(z, w) = (s U z, s^2 w)
    phi_a(z, w)       = ((z + w a) / d, w / d),  d = 1 - 2 i <z, a> - i w ||a||^2
    h_R(z, w)         = (z, w) / (1 + R w)

The defect Im w - ||z||^2 transforms under H by the positive factor
s^2 / |D|^2, which is what makes the boundary and the two sides of it
invariant.

In homogeneous coordinates (z, w, 1) every member is linear, given by its
(d+2) x (d+2) projective matrix (:func:`matrix`), so the group law is matrix
multiplication and inversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import hilbert
from .geometry import (
    EPS_DENOM,
    _check_pole,
    _siegel_like,
    cayley,
    inverse_cayley,
    siegel_rows,
)
from .hilbert import as_points, haar_unitary, norm, sq_norm, unitarity_defect

#: Cap on the advertised domain radius of an automorphism seen as a map germ.
DOMAIN_RADIUS_CAP = 2.0


class AutomorphismPoleError(ValueError):
    """Raised when a point sits on the pole of an automorphism (D = 0)."""


def _real_in(x: np.ndarray, shape: tuple, low: float) -> bool:
    """Real (not complex) values in (low, inf), one per member."""
    if x.dtype.kind not in "fiu" or x.shape != shape:
        return False
    ok = (low < x) & (x < np.inf)
    return bool(ok if ok.ndim == 0 else ok.all())  # one member: no reduction


@dataclass(frozen=True, eq=False)
class AutParams:
    """Parameters (U, s, a, R) of an origin-fixing boundary automorphism.

    A stack of B members carries a leading batch axis on every field:
    U (B, d, d), s (B,), a (B, d), R (B,).  A stack acts row by row on
    stacked points (member i on row i); ``params[i]`` is member i.
    """

    U: np.ndarray
    s: float | np.ndarray
    a: np.ndarray
    R: float | np.ndarray

    def __post_init__(self):
        U = np.asarray(self.U, dtype=complex)
        if U.ndim not in (2, 3) or U.shape[-1] != U.shape[-2]:
            msg = f"U must be square (or a stack of squares), got shape {U.shape}"
            raise ValueError(msg)
        defect = unitarity_defect(U)
        if defect > hilbert.UNITARY_TOL:
            msg = f"U is not unitary (defect {defect:.3e})"
            raise ValueError(msg)
        batch = U.shape[:-2]
        s, R = np.asarray(self.s), np.asarray(self.R)
        if not _real_in(s, batch, 0.0):
            msg = f"s must be a positive real number per member, got {self.s!r}"
            raise ValueError(msg)
        if not _real_in(R, batch, -np.inf):
            msg = f"R must be a real number per member, got {self.R!r}"
            raise ValueError(msg)
        a = np.asarray(self.a, dtype=complex)
        if a.shape != U.shape[:-1] or not np.isfinite(a).all():
            msg = f"a must be finite of dimension {U.shape[:-1]}, got shape {a.shape}"
            raise ValueError(msg)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "s", s.astype(float) if batch else float(s))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "R", R.astype(float) if batch else float(R))

    def __getitem__(self, index) -> AutParams:
        """Member ``index`` of a stack, or the sub-stack a slice or mask selects."""
        return AutParams(self.U[index], self.s[index], self.a[index], self.R[index])

    @property
    def dim(self) -> int:
        """Dimension of the z-part the automorphism acts on."""
        return self.U.shape[-1]

    @property
    def beta(self):
        """The w-coefficient ``R - i ||a||^2`` of the denominator."""
        return self.R - 1j * sq_norm(self.a)


@dataclass(frozen=True, eq=False)
class HoloMap:
    """A holomorphic map germ given by a batched evaluator.

    ``evaluate(zs, ws)`` takes stacked points (zs of shape (B, dim), ws of
    shape (B,)) and returns their stacked images ``(F, G)``.  It must be
    defined (at least) on the polydisc ``max(||z||, |w|) < domain_radius``
    around the origin.
    """

    evaluate: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    dim: int
    domain_radius: float


def identity_params(dim: int) -> AutParams:
    """The identity automorphism on C^dim x C."""
    return AutParams(np.eye(dim, dtype=complex), 1.0, np.zeros(dim, dtype=complex), 0.0)


def random_params(
    dim: int,
    seed,
    a_max: float = 1.0,
    r_max: float = 2.0,
    s_min: float = 0.5,
    s_max: float = 2.0,
    count: int | None = None,
) -> AutParams:
    """Draw bounded random parameters: Haar U, ||a|| <= a_max, |R| <= r_max.

    With ``count`` the result is a stack of that many independent members.
    """
    rng = np.random.default_rng(seed)
    batch = () if count is None else (count,)
    U = haar_unitary(dim, rng, count)
    s = rng.uniform(s_min, s_max, count)
    g = rng.standard_normal(batch + (dim,)) + 1j * rng.standard_normal(batch + (dim,))
    radius = a_max * rng.uniform(size=batch + (1,))
    a = g / np.linalg.norm(g, axis=-1, keepdims=True) * radius
    R = rng.uniform(-r_max, r_max, count)
    return AutParams(U, s, a, R)


def param_distance(p: AutParams, q: AutParams) -> float:
    """max of operator-norm distance on U and absolute gaps on s, a, R."""
    if p.dim != q.dim:
        msg = f"dimension mismatch: {p.dim} vs {q.dim}"
        raise ValueError(msg)
    return max(
        float(np.linalg.norm(p.U - q.U, 2)),
        abs(p.s - q.s),
        norm(p.a - q.a),
        abs(p.R - q.R),
    )


def _rowwise(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``M x`` for each row x: one matrix (d, d) for all rows, or one per row."""
    if M.ndim == 2:
        return x @ M.T
    return np.einsum("...ij,...j->...i", M, x)


def _split(p, dim: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The (z, w) parts of a SiegelPoint or of rows; ``dim`` checks the z-part."""
    rows = siegel_rows(p)
    if dim is not None and rows.shape[-1] != dim + 1:
        msg = f"point dimension {rows.shape[-1] - 1} does not match parameters ({dim})"
        raise ValueError(msg)
    return rows[..., :-1], rows[..., -1]


def _inner_a(a: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """``<z, a>`` for each row z, against one ``a`` or one per row."""
    return _rowwise(a.conj()[..., None, :], zs)[..., 0]


def _denominator(params: AutParams, zs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    return 1.0 - 2j * _inner_a(params.a, zs) + params.beta * ws


def denominator(params: AutParams, p):
    """The linear-fractional denominator ``1 - 2i<z,a> + (R - i||a||^2) w``."""
    return _denominator(params, *_split(p, params.dim))


def apply(params: AutParams, p, eps: float = EPS_DENOM):
    """Evaluate the automorphism at a SiegelPoint, or row by row on rows.

    Raises :class:`AutomorphismPoleError` when ``|D| <= eps`` at any point.
    """
    zs, ws = _split(p, params.dim)
    return _siegel_like(p, *_apply_batch(params, zs, ws, eps))


def _apply_batch(
    params: AutParams, zs: np.ndarray, ws: np.ndarray, eps: float = EPS_DENOM
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the automorphism on stacked points (rows of zs, entries of ws)."""
    zs = np.asarray(zs, dtype=complex)
    ws = np.asarray(ws, dtype=complex)
    D = _denominator(params, zs, ws)
    _check_pole(D, eps, AutomorphismPoleError, "pole of automorphism: |D|")
    x = ws[..., None] * params.a
    x += zs
    f = _rowwise(params.U, x)
    f *= (params.s / D)[..., None]  # in place: jet grids have ~10^4 rows
    return f, params.s**2 * ws / D


def omega_apply(U, s, p):
    """The linear automorphism ``(z, w) -> (s U z, s^2 w)``."""
    z, w = _split(p)
    s = np.asarray(s)
    return _siegel_like(p, _rowwise(np.asarray(U, dtype=complex), z) * s[..., None],
                        s**2 * w)


def phi_a_apply(a, p, eps: float = EPS_DENOM):
    """The translation-like automorphism with parameter vector ``a``."""
    a = as_points(a)
    z, w = _split(p)
    d = 1.0 - 2j * _inner_a(a, z) - 1j * w * sq_norm(a)
    _check_pole(d, eps, AutomorphismPoleError, "pole of automorphism: |d|")
    return _siegel_like(p, (z + w[..., None] * a) / d[..., None], w / d)


def h_R_apply(R, p, eps: float = EPS_DENOM):
    """The one-parameter automorphism ``(z, w) -> (z, w) / (1 + R w)``."""
    z, w = _split(p)
    d = 1.0 + R * w
    _check_pole(d, eps, AutomorphismPoleError, "pole of automorphism: |1 + R w|")
    return _siegel_like(p, z / d[..., None], w / d)


def factor_apply(params: AutParams, p):
    """Evaluate via the factorisation omega_{U,s} o phi_a o h_R."""
    return omega_apply(
        params.U, params.s, phi_a_apply(params.a, h_R_apply(params.R, p))
    )


def ball_automorphism(params: AutParams, Z) -> np.ndarray:
    """Conjugate the automorphism by the Cayley transform to act on the ball."""
    return inverse_cayley(apply(params, cayley(Z)))


def _denominator_slope(params: AutParams) -> float:
    """Bound on |D - 1| per unit of max(||z||, |w|)."""
    return 2.0 * norm(params.a) + abs(params.beta)


def _safe_radius(slope: float) -> float:
    """Radius on which |D| >= 0.5 is guaranteed for the given slope."""
    if slope <= 0.0:
        return DOMAIN_RADIUS_CAP
    return min(DOMAIN_RADIUS_CAP, 0.5 / slope)


def as_holo_map(params: AutParams) -> HoloMap:
    """Wrap the automorphism as a map germ with a guaranteed domain radius."""
    radius = _safe_radius(_denominator_slope(params))
    return HoloMap(lambda zs, ws: _apply_batch(params, zs, ws), params.dim, radius)


def composition_radius(outer: AutParams, inner: AutParams) -> float:
    """Radius on which ``outer o inner`` is guaranteed pole-free.

    Chains the two denominator bounds: on ``max(||z||, |w|) <= r`` the inner
    map keeps |D| >= 0.5 provided its slope stays below 0.5/r, and its image
    then fits in a polydisc on which the outer denominator is likewise
    controlled.
    """
    c_in = _denominator_slope(inner)
    growth = 2.0 * max(inner.s * (1.0 + norm(inner.a)), inner.s**2)
    c_out = _denominator_slope(outer) * growth
    return _safe_radius(max(c_in, c_out))


def matrix(params: AutParams) -> np.ndarray:
    """The (d+2) x (d+2) projective matrix of the automorphism.

    In homogeneous coordinates (z, w, 1) the automorphism is the linear map
    with rows ``[s U, s U a, 0]``, ``[0, s^2, 0]`` and
    ``[-2i a^H, R - i ||a||^2, 1]``; its last row is the denominator D.
    """
    d = params.dim
    M = np.zeros((d + 2, d + 2), dtype=complex)
    M[:d, :d] = params.s * params.U
    M[:d, d] = params.s * (params.U @ params.a)
    M[d, d] = params.s**2
    M[d + 1, :d] = -2j * np.conj(params.a)
    M[d + 1, d] = params.beta
    M[d + 1, d + 1] = 1.0
    return M


def _from_matrix(M: np.ndarray) -> AutParams:
    """Read the parameters back off a projective matrix (last column e_{d+2})."""
    d = M.shape[0] - 2
    s = float(np.sqrt(M[d, d].real))
    U = M[:d, :d] / s
    a = U.conj().T @ M[:d, d] / s
    return AutParams(U, s, a, float(M[d + 1, d].real))


def compose(outer: AutParams, inner: AutParams) -> AutParams:
    """Parameters of the composite ``outer o inner``: the matrix product."""
    if outer.dim != inner.dim:
        msg = f"dimension mismatch: {outer.dim} vs {inner.dim}"
        raise ValueError(msg)
    return _from_matrix(matrix(outer) @ matrix(inner))


def invert(params: AutParams) -> AutParams:
    """Parameters of the inverse automorphism: the matrix inverse."""
    return _from_matrix(np.linalg.inv(matrix(params)))
