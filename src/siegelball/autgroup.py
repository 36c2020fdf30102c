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
from numbers import Real
from typing import Callable

import numpy as np

from . import hilbert
from .geometry import EPS_DENOM, SiegelPoint, cayley, inverse_cayley
from .hilbert import as_vector, haar_unitary, inner, norm, unitarity_defect

#: Cap on the advertised domain radius of an automorphism seen as a map germ.
DOMAIN_RADIUS_CAP = 2.0


class AutomorphismPoleError(ValueError):
    """Raised when a point sits on the pole of an automorphism (D = 0)."""


@dataclass(frozen=True, eq=False)
class AutParams:
    """Parameters (U, s, a, R) of an origin-fixing boundary automorphism."""

    U: np.ndarray
    s: float
    a: np.ndarray
    R: float

    def __post_init__(self):
        U = np.asarray(self.U, dtype=complex)
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            msg = f"U must be square, got shape {U.shape}"
            raise ValueError(msg)
        defect = unitarity_defect(U)
        if defect > hilbert.UNITARY_TOL:
            msg = f"U is not unitary (defect {defect:.3e})"
            raise ValueError(msg)
        if not isinstance(self.s, Real) or not np.isfinite(self.s) or self.s <= 0:
            msg = f"s must be a positive real number, got {self.s!r}"
            raise ValueError(msg)
        if not isinstance(self.R, Real) or not np.isfinite(self.R):
            msg = f"R must be a real number, got {self.R!r}"
            raise ValueError(msg)
        a = as_vector(self.a)
        if a.shape[0] != U.shape[0]:
            msg = f"a has dimension {a.shape[0]}, expected {U.shape[0]}"
            raise ValueError(msg)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "R", float(self.R))

    @property
    def dim(self) -> int:
        """Dimension of the z-part the automorphism acts on."""
        return self.U.shape[0]

    @property
    def beta(self) -> complex:
        """The w-coefficient ``R - i ||a||^2`` of the denominator."""
        return self.R - 1j * np.vdot(self.a, self.a).real


@dataclass(frozen=True, eq=False)
class HoloMap:
    """A holomorphic map germ given by a point evaluator.

    ``evaluate`` must be defined (at least) on the polydisc
    ``max(||z||, |w|) < domain_radius`` around the origin.  An optional
    ``evaluate_batch`` accepts stacked inputs (zs of shape (B, dim), ws of
    shape (B,)) and returns the stacked images; it must agree with
    ``evaluate`` and only exists to speed up jet extraction.
    """

    evaluate: Callable[[SiegelPoint], SiegelPoint]
    dim: int
    domain_radius: float
    evaluate_batch: Callable[[np.ndarray, np.ndarray],
                             tuple[np.ndarray, np.ndarray]] | None = None


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
) -> AutParams:
    """Draw bounded random parameters: Haar U, ||a|| <= a_max, |R| <= r_max."""
    rng = np.random.default_rng(seed)
    U = haar_unitary(dim, rng)
    s = float(rng.uniform(s_min, s_max))
    g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    a = g / np.linalg.norm(g) * (a_max * rng.uniform())
    R = float(rng.uniform(-r_max, r_max))
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


def _check_point_dim(params: AutParams, p: SiegelPoint) -> None:
    if p.dim != params.dim:
        msg = f"point dimension {p.dim} does not match parameters ({params.dim})"
        raise ValueError(msg)


def denominator(params: AutParams, p: SiegelPoint) -> complex:
    """The linear-fractional denominator ``1 - 2i<z,a> + (R - i||a||^2) w``."""
    _check_point_dim(params, p)
    return 1.0 - 2j * inner(p.z, params.a) + params.beta * p.w


def apply(params: AutParams, p: SiegelPoint, eps: float = EPS_DENOM) -> SiegelPoint:
    """Evaluate the automorphism at ``p``.

    Raises :class:`AutomorphismPoleError` when ``|D| <= eps``.
    """
    _check_point_dim(params, p)
    f, g = _apply_batch(params, p.z[None, :], np.array([p.w]), eps)
    return SiegelPoint(f[0], g[0])


def _apply_batch(
    params: AutParams, zs: np.ndarray, ws: np.ndarray, eps: float = EPS_DENOM
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the automorphism on stacked points (rows of zs, entries of ws)."""
    zs = np.asarray(zs, dtype=complex)
    ws = np.asarray(ws, dtype=complex)
    D = 1.0 - 2j * (zs @ params.a.conj()) + params.beta * ws
    small = np.abs(D) <= eps
    if small.any():
        msg = f"pole of automorphism: |D| = {np.abs(D)[small].min():.3e}"
        raise AutomorphismPoleError(msg)
    f = params.s * ((zs + ws[:, None] * params.a) @ params.U.T) / D[:, None]
    g = params.s**2 * ws / D
    return f, g


def omega_apply(U, s: float, p: SiegelPoint) -> SiegelPoint:
    """The linear automorphism ``(z, w) -> (s U z, s^2 w)``."""
    U = np.asarray(U, dtype=complex)
    return SiegelPoint(s * (U @ p.z), s**2 * p.w)


def phi_a_apply(a, p: SiegelPoint, eps: float = EPS_DENOM) -> SiegelPoint:
    """The translation-like automorphism with parameter vector ``a``."""
    a = as_vector(a)
    d = 1.0 - 2j * inner(p.z, a) - 1j * p.w * norm(a) ** 2
    if abs(d) <= eps:
        msg = f"pole of automorphism: |d| = {abs(d):.3e}"
        raise AutomorphismPoleError(msg)
    return SiegelPoint((p.z + p.w * a) / d, p.w / d)


def h_R_apply(R: float, p: SiegelPoint, eps: float = EPS_DENOM) -> SiegelPoint:
    """The one-parameter automorphism ``(z, w) -> (z, w) / (1 + R w)``."""
    d = 1.0 + R * p.w
    if abs(d) <= eps:
        msg = f"pole of automorphism: |1 + R w| = {abs(d):.3e}"
        raise AutomorphismPoleError(msg)
    return SiegelPoint(p.z / d, p.w / d)


def factor_apply(params: AutParams, p: SiegelPoint) -> SiegelPoint:
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
    return HoloMap(
        evaluate=lambda p: apply(params, p),
        dim=params.dim,
        domain_radius=radius,
        evaluate_batch=lambda zs, ws: _apply_batch(params, zs, ws),
    )


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
