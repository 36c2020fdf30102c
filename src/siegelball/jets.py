"""Jets of holomorphic maps via discrete Cauchy integrals.

The k-th derivative at 0 of a function holomorphic on a disc of radius
larger than rho is recovered from M equispaced circle samples,

    f^(k)(0) = (k! / (M rho^k)) * sum_m f(rho e^(2 pi i m / M)) e^(-2 pi i k m / M),

which is spectrally accurate (the first neglected term is the Taylor
coefficient of order k + M).  Mixed z/w derivatives use two nested circle
loops.  On top of the raw jet, :func:`recover_params` reads off the
(U, s, a, R) parameters of an origin-fixing boundary automorphism from its
second-order jet:

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

#: Default tolerance for the validity checks in :func:`recover_params`.
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


def _nodes(cfg: DiffConfig) -> np.ndarray:
    m = np.arange(cfg.nodes)
    return cfg.radius * np.exp(2j * np.pi * m / cfg.nodes)


def _deriv_from_samples(samples: np.ndarray, order: int, cfg: DiffConfig):
    """Order-th derivative at 0 from circle samples (axis 0 = node index)."""
    M = cfg.nodes
    weights = np.exp(-2j * np.pi * order * np.arange(M) / M)
    total = np.tensordot(weights, samples, axes=(0, 0))
    return total * (math.factorial(order) / (M * cfg.radius**order))


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
    samples = np.asarray([phi(t) for t in _nodes(cfg)], dtype=complex)
    return _deriv_from_samples(samples, order, cfg)


def extract_jet2(H: HoloMap, cfg: DiffConfig = DiffConfig()) -> Jet2:
    """Second-order jet of an origin-fixing map germ by Cauchy integrals.

    Differentiates along the w-axis, along each z_j-axis, and (for the mixed
    block) a circle loop in w around a circle loop in z.  Raises
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
    d = H.dim
    nodes = _nodes(cfg)
    f0, g0 = H.evaluate(np.zeros((1, d), dtype=complex), np.zeros(1, dtype=complex))
    offset = max(norm(f0[0]), abs(g0[0]))
    if offset > ORIGIN_TOL:
        msg = f"not origin-fixing: |H(0,0)| = {offset:.3e}"
        raise NotOriginFixingError(msg)

    M = cfg.nodes
    F, G = H.evaluate(np.zeros((M, d), dtype=complex), nodes)
    f_w = _deriv_from_samples(F, 1, cfg)
    f_w2 = _deriv_from_samples(F, 2, cfg)
    g_w = complex(_deriv_from_samples(G, 1, cfg))
    g_w2 = complex(_deriv_from_samples(G, 2, cfg))

    # Circle in each z_j direction at w = 0: axial[j, m] = nodes[m] e_j.
    axial = nodes[None, :, None] * np.eye(d, dtype=complex)[:, None, :]
    Fz, Gz = H.evaluate(axial.reshape(-1, d), np.zeros(d * M, dtype=complex))
    # Node axis first for the quadrature, then (direction, component) -> f_z.
    f_z = _deriv_from_samples(Fz.reshape(d, M, d).transpose(1, 0, 2), 1, cfg).T
    g_z = _deriv_from_samples(Gz.reshape(d, M).T, 1, cfg)

    # Mixed block: a w-circle (index l) around a z_j-circle (index m).
    z_mix = np.broadcast_to(axial[:, None, :, :], (d, M, M, d)).reshape(-1, d)
    w_mix = np.broadcast_to(nodes[None, :, None], (d, M, M)).reshape(-1)
    Fm, _ = H.evaluate(z_mix, w_mix)
    slope = _deriv_from_samples(
        Fm.reshape(d, M, M, d).transpose(2, 0, 1, 3), 1, cfg
    )  # (direction, w-node, component)
    f_zw = _deriv_from_samples(slope.transpose(1, 0, 2), 1, cfg).T

    return Jet2(f_z=f_z, f_w=f_w, g_z=g_z, g_w=g_w, g_w2=g_w2, f_zw=f_zw, f_w2=f_w2)


def recover_params(jet: Jet2, tol: float = RECOVERY_TOL) -> AutParams:
    """Read automorphism parameters off a second-order jet.

    Validity checks, each raising :class:`JetRecoveryError` with the name of
    the failed identity: g_w must be real and positive; f_z must be
    invertible ("derivative not onto"); f_z normalised by sqrt(g_w) must be
    unitary to ``tol`` (U is then replaced by its polar factor when it is
    not unitary to ``hilbert.UNITARY_TOL``); and the recovered R must be
    real after adding the imaginary correction i ||f_w||^2 / g_w.
    """
    g_w = complex(jet.g_w)
    if g_w.real <= 0 or abs(g_w.imag) > tol:
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
    if defect > tol:
        msg = f"normalized f_z not unitary: defect {defect:.3e}"
        raise JetRecoveryError(msg)
    if defect > UNITARY_TOL:
        # Accepted at tol but not exactly unitary: use the nearest unitary,
        # the polar factor, so that AutParams accepts it.
        u, _, vh = np.linalg.svd(U)
        U = u @ vh
    try:
        a = solve(f_z, jet.f_w)
    except SingularMatrixError as exc:
        msg = f"derivative not onto: {exc}"
        raise JetRecoveryError(msg) from exc
    R = (-0.5 * complex(jet.g_w2) + 1j * norm(jet.f_w) ** 2) / g_w
    if abs(R.imag) > tol:
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
