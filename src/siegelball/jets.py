"""Jets of holomorphic maps via discrete Cauchy integrals.

The k-th derivative at 0 of a function holomorphic on a disc of radius
larger than rho is recovered from M equispaced circle samples,

    f^(k)(0) = (k! / (M rho^k)) * sum_m f(rho e^(2 pi i m / M)) e^(-2 pi i k m / M),

which is spectrally accurate (the first neglected term is the Taylor
coefficient of order k + M).  :func:`extract_jet2` samples a map on 3d + 1
circles of radius rho, all in one evaluation: the w-circle, one circle
t -> t e_j along each z_j-axis, and two diagonal circles t -> (t e_j, +-t)
per direction.  Every point lies on the polydisc max(||z||, |w|) = rho.
The mixed block comes from the diagonals by polarization: with
psi_j^+-(t) = f(t e_j, +-t),

    psi_j^+-''(0) = f_{z_j z_j}(0) +- 2 f_{z_j w}(0) + f_ww(0),

so f_{z_j w}(0) = (psi_j^+''(0) - psi_j^-''(0)) / 4.  On top of the raw
jet, :func:`recover_params` reads off the (U, s, a, R) parameters of an
origin-fixing boundary automorphism from its second-order jet:

    s = sqrt(g_w(0)),  U = f_z(0)/s,  a = f_z(0)^(-1) f_w(0),
    R = (-g_ww(0)/2 + i ||f_w(0)||^2) / g_w(0),

with the imaginary parts of g_w and R vanishing identically for maps that
preserve the boundary hypersurface (checked numerically, not assumed).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .autgroup import AutParams, HoloMap
from .hilbert import (
    COND_MAX,
    UNITARY_TOL,
    SingularMatrixError,
    norm,
    solve,
    unitarity_defect,
)

#: Tolerance for the validity checks in :func:`recover_params`.
RECOVERY_TOL = 1e-8

#: How exactly a map must fix the origin before jet extraction.
ORIGIN_TOL = 1e-12


class NotOriginFixingError(ValueError):
    """Raised when a map does not fix the origin to within tolerance."""


class JetRecoveryError(ValueError):
    """Raised when a jet fails one of the recovery validity identities."""


@dataclass(frozen=True)
class DiffConfig:
    """Circle radius and node count for the discrete Cauchy integrals."""

    radius: float = 0.1
    nodes: int = 32

    def __post_init__(self):
        if not (self.radius > 0 and np.isfinite(self.radius)):
            msg = f"radius must be positive and finite, got {self.radius}"
            raise ValueError(msg)
        n = self.nodes
        if n < 8 or (n & (n - 1)) != 0:
            msg = f"nodes must be a power of two >= 8, got {n}"
            raise ValueError(msg)


@dataclass(frozen=True, eq=False)
class Jet2:
    """Second-order jet data of an origin-fixing map (f, g) at the origin.

    ``f_z`` and ``f_zw`` are (n-1) x (n-1) matrices whose j-th columns
    differentiate in the z_j direction; ``f_w``, ``f_w2`` and ``g_z`` are
    vectors; ``g_w`` and ``g_w2`` are scalars.
    """

    f_z: np.ndarray
    f_w: np.ndarray
    g_z: np.ndarray
    g_w: complex
    g_w2: complex
    f_zw: np.ndarray
    f_w2: np.ndarray


# Node multiple of the diagonal circles in :func:`extract_jet2`.  A germ
# t -> f(t e_j, +-t) can have its pole nearer than the axial ones; at the base
# node count its order-2 coefficient aliased f_zw by up to 3e-12.
_DIAGONAL_OVERSAMPLE = 2


def _nodes(count: int, radius: float) -> np.ndarray:
    return radius * np.exp(2j * np.pi * np.arange(count) / count)


def _coefficients(count: int, orders) -> np.ndarray:
    """Row k turns ``count`` circle samples of radius rho into the Taylor
    coefficient of order orders[k] times rho**orders[k]."""
    return np.exp(-2j * np.pi * np.outer(orders, np.arange(count)) / count) / count


def cauchy_derivative(phi, order: int, cfg: DiffConfig = DiffConfig()):
    """Order-th derivative at 0 of a scalar- or array-valued function.

    ``phi`` is evaluated at the ``cfg.nodes`` circle points of radius
    ``cfg.radius``; any evaluation failure propagates.  Requires
    ``order <= nodes / 2`` so the wanted coefficient is alias-free.
    """
    if order < 0:
        msg = f"derivative order must be >= 0, got {order}"
        raise ValueError(msg)
    if order > cfg.nodes // 2:
        msg = f"order {order} exceeds nodes/2 = {cfg.nodes // 2}"
        raise ValueError(msg)
    samples = np.asarray([phi(t) for t in _nodes(cfg.nodes, cfg.radius)], dtype=complex)
    total = np.tensordot(_coefficients(cfg.nodes, [order])[0], samples, axes=(0, 0))
    return total * (math.factorial(order) / cfg.radius**order)


def extract_jet2(H: HoloMap, cfg: DiffConfig = DiffConfig()) -> Jet2:
    """Second-order jet of an origin-fixing map germ by Cauchy integrals.

    Evaluates ``H`` once, on the origin, the w-circle and the circle along
    each z_j-axis (``cfg.nodes`` points each), and on the diagonal circles
    t -> (t e_j, +-t) (twice as many points each), all of radius
    ``cfg.radius``: 1 + M + 5dM rows for M nodes.  Every point has
    max(||z||, |w|) = radius.  The w-circle gives ``f_w``, ``g_w``, ``f_w2``
    and ``g_w2``, the axial circles ``f_z`` and ``g_z``, and the diagonals
    the mixed block by polarization,
    f_{z_j w} = (psi_j^+''(0) - psi_j^-''(0)) / 4.  Raises
    :class:`NotOriginFixingError` when ``H(0, 0)`` is farther than 1e-12
    from the origin, and ``ValueError`` when the circle radius does not fit
    inside the advertised domain radius of ``H``.
    """
    if cfg.radius >= H.domain_radius:
        msg = (
            f"differentiation radius {cfg.radius} does not fit inside the "
            f"map domain (radius {H.domain_radius})"
        )
        raise ValueError(msg)
    d, M = H.dim, cfg.nodes
    M2 = _DIAGONAL_OVERSAMPLE * M
    axial, diagonal = 1 + M, 1 + M + d * M
    t, t2 = _nodes(M, cfg.radius), _nodes(M2, cfg.radius)
    eye = np.eye(d)
    # Rows: origin | w-circle | z_j-circles | (t e_j, t) | (t e_j, -t), the
    # circles of each block in direction order.
    zs = np.zeros((diagonal + 2 * d * M2, d), dtype=complex)
    ws = np.zeros(len(zs), dtype=complex)
    ws[1:axial] = t
    zs[axial:diagonal] = (eye[:, None, :] * t[None, :, None]).reshape(-1, d)
    zs[diagonal:] = np.tile((eye[:, None, :] * t2[None, :, None]).reshape(-1, d), (2, 1))
    ws[diagonal:] = np.outer([1.0, -1.0], np.tile(t2, d)).ravel()
    F, G = H.evaluate(zs, ws)

    offset = max(norm(F[0]), abs(G[0]))
    if offset > ORIGIN_TOL:
        msg = f"not origin-fixing: |H(0,0)| = {offset:.3e}"
        raise NotOriginFixingError(msg)

    # Taylor coefficients times radius^k.  The axial and diagonal blocks are
    # indexed (direction, component), transposed at the end into columns.
    C = _coefficients(M, [1, 2])
    f1, f2 = C @ F[1:axial]
    g1, g2 = (C @ G[1:axial]).tolist()
    z1 = C[0] @ F[axial:diagonal].reshape(d, M, d)
    g_z1 = G[axial:diagonal].reshape(d, M) @ C[0]
    psi = F[diagonal:].reshape(2, d, M2, d)
    # psi_j^+- '' / 2 = f_{z_j z_j} / 2 +- f_{z_j w} + f_ww / 2.
    mixed = _coefficients(M2, [2])[0] @ (psi[0] - psi[1])

    r = cfg.radius
    return Jet2(f_z=z1.T / r, f_w=f1 / r, g_z=g_z1 / r, g_w=g1 / r,
                g_w2=2.0 * g2 / r**2, f_zw=mixed.T / (2.0 * r**2),
                f_w2=2.0 * f2 / r**2)


def recover_params(jet: Jet2) -> AutParams:
    """Read automorphism parameters off a second-order jet.

    Validity checks, each raising :class:`JetRecoveryError` with the name of
    the failed identity: g_w must be real and positive; f_z must be
    invertible ("derivative not onto"); f_z normalised by sqrt(g_w) must be
    unitary to ``RECOVERY_TOL`` (U is then replaced by its polar factor when
    it is not unitary to ``hilbert.UNITARY_TOL``); and the recovered R must
    be real after adding the imaginary correction i ||f_w||^2 / g_w.
    """
    g_w = complex(jet.g_w)
    if g_w.real <= 0 or abs(g_w.imag) > RECOVERY_TOL:
        msg = f"g_w not positive real: {g_w}"
        raise JetRecoveryError(msg)
    s = math.sqrt(g_w.real)
    f_z = np.asarray(jet.f_z, dtype=complex)
    cond = np.linalg.cond(f_z)
    if not np.isfinite(cond) or cond > COND_MAX:
        msg = f"derivative not onto: cond(f_z) = {cond:.3e}"
        raise JetRecoveryError(msg)
    U = f_z / s
    defect = unitarity_defect(U)
    if defect > RECOVERY_TOL:
        msg = f"normalized f_z not unitary: defect {defect:.3e}"
        raise JetRecoveryError(msg)
    if defect > UNITARY_TOL:
        # Accepted at RECOVERY_TOL but not exactly unitary: use the nearest
        # unitary, the polar factor, so that AutParams accepts it.
        u, _, vh = np.linalg.svd(U)
        U = u @ vh
    try:
        a = solve(f_z, jet.f_w)
    except SingularMatrixError as exc:
        msg = f"derivative not onto: {exc}"
        raise JetRecoveryError(msg) from exc
    R = (-0.5 * complex(jet.g_w2) + 1j * norm(jet.f_w) ** 2) / g_w
    if abs(R.imag) > RECOVERY_TOL:
        msg = f"R not real: Im R = {R.imag:.3e}"
        raise JetRecoveryError(msg)
    return AutParams(U=U, s=s, a=a, R=R.real)


def check_levi(H: HoloMap, zs, us, cfg: DiffConfig = DiffConfig()) -> float:
    """Max residual of the first-order boundary compatibility identity.

    For an origin-fixing map (f, g) preserving the boundary hypersurface,

        conj(g_w(0)) <z, u> = <f(z, 0), f_z(0) u + 2i <u, z> f_w(0)>

    holds for all z near 0 and all u.  ``zs`` and ``us`` are stacked
    samples (B, dim), with ||z|| small enough to stay inside the domain of
    ``H``.
    """
    zs = np.asarray(zs, dtype=complex)
    us = np.asarray(us, dtype=complex)
    jet = extract_jet2(H, cfg)
    images, _ = H.evaluate(zs, np.zeros(len(zs), dtype=complex))
    u_dot_z = np.sum(us * zs.conj(), axis=-1)
    lhs = np.conj(jet.g_w) * np.sum(zs * us.conj(), axis=-1)
    partner = us @ jet.f_z.T + 2j * u_dot_z[:, None] * jet.f_w
    rhs = np.sum(images * partner.conj(), axis=-1)
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


def check_polarization(H: HoloMap, zs, chis, taus) -> float:
    """Max residual of the polarized boundary identity on complex pairs.

    For each stacked sample (z, chi, tau) the partner coordinate is
    ``w = conj(tau) + 2i <z, chi>``, and the identity

        g(z, w) - conj(g(chi, tau)) = 2i <f(z, w), f(chi, tau)>

    is evaluated two-sidedly.  Samples falling outside the domain of ``H``
    are skipped with one warning that counts them; if every sample is
    skipped a ``ValueError`` is raised.  A pole inside the domain breaks
    the map's own contract and propagates.
    """
    zs = np.asarray(zs, dtype=complex)
    chis = np.asarray(chis, dtype=complex)
    taus = np.asarray(taus, dtype=complex)
    ws = np.conj(taus) + 2j * np.sum(zs * chis.conj(), axis=-1)
    reach = np.maximum(np.linalg.norm(zs, axis=-1), np.abs(ws))
    partner_reach = np.maximum(np.linalg.norm(chis, axis=-1), np.abs(taus))
    inside = (reach < H.domain_radius) & (partner_reach < H.domain_radius)
    if not inside.all():
        warnings.warn(
            f"{np.count_nonzero(~inside)} of {len(inside)} polarization samples "
            "outside map domain; skipped",
            stacklevel=2,
        )
    if not inside.any():
        msg = "all polarization samples fell outside the map domain"
        raise ValueError(msg)
    f_left, g_left = H.evaluate(zs[inside], ws[inside])
    f_right, g_right = H.evaluate(chis[inside], taus[inside])
    cross = np.sum(f_left * f_right.conj(), axis=-1)
    return float(np.max(np.abs(g_left - np.conj(g_right) - 2j * cross)))
