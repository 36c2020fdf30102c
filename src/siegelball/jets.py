"""Jets of holomorphic maps via discrete Cauchy integrals.

The k-th derivative at 0 of a function holomorphic on a disc of radius
larger than rho is recovered from M equispaced circle samples,

    f^(k)(0) = (k! / (M rho^k)) * sum_m f(rho e^(2 pi i m / M)) e^(-2 pi i k m / M),

which is spectrally accurate (the first neglected term is the Taylor
coefficient of order k + M).  :func:`extract_jet2` samples a map on 3d + 1
circles of radius rho, all at the same M nodes, in calls of whole circles
of bounded size: the w-circle, one circle t -> t e_j along each z_j-axis,
and two diagonal circles t -> (t e_j, +-t) per direction.  Every point lies
on the polydisc max(||z||, |w|) = rho, at most half the germ's domain
radius, so on every circle alike the alias term shrinks like
(rho / domain radius)^M <= 2^-M.  The mixed block comes from the diagonals
by polarization: with psi_j^+-(t) = f(t e_j, +-t),

    psi_j^+-''(0) = f_{z_j z_j}(0) +- 2 f_{z_j w}(0) + f_ww(0),

so f_{z_j w}(0) = (psi_j^+''(0) - psi_j^-''(0)) / 4.  On top of the raw
jet, :func:`recover_params` reads off the (U, s, a, R) parameters of an
origin-fixing boundary automorphism from its second-order jet:

    s = sqrt(g_w(0)),  U = f_z(0)/s,  a = f_z(0)^(-1) f_w(0),
    R = (-g_ww(0)/2 + i ||f_w(0)||^2) / g_w(0),

with U unitary, and g_z and the imaginary parts of g_w and R vanishing
identically, for maps that preserve the boundary hypersurface (checked
numerically, not assumed).
One code path serves a germ and a stack of germs (a leading member axis); a
failed check on a stack names the first failing member.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .autgroup import AutParams, _unchecked
from .hilbert import UNITARY_TOL, _even_blocks, _gram_defects, sq_norm, unitarity_defect
from .maps import HoloMap

#: Bound on Im g_w, |g_z| and Im R in :func:`recover_params`; U is held to
#: ``hilbert.UNITARY_TOL``, as every :class:`AutParams` is.
RECOVERY_TOL = 1e-8

#: Largest condition number of a derivative accepted by :func:`recover_params`.
COND_MAX = 1e8

#: How exactly a map must fix the origin before jet extraction.
ORIGIN_TOL = 1e-12


class NotOriginFixingError(ValueError):
    """Raised when a map does not fix the origin to within tolerance."""


class JetRecoveryError(ValueError):
    """Raised when a germ's domain radius is not positive, its images on the
    jet circles are not finite, or its jet fails a recovery validity identity
    (N != n is "derivative not onto")."""


@dataclass(frozen=True)
class DiffConfig:
    """Circle radius for the discrete Cauchy integrals, all at M = ``nodes`` = 32.

    :func:`extract_jet2` shrinks the radius to half the germ's smallest
    domain radius when that is smaller."""

    radius: float = 0.1
    nodes: ClassVar[int] = 32

    def __post_init__(self):
        if not (self.radius > 0 and np.isfinite(self.radius)):
            msg = f"radius must be positive and finite, got {self.radius}"
            raise ValueError(msg)


@dataclass(frozen=True, eq=False)
class Jet2:
    """Second-order jet data of an origin-fixing germ (f, g): C^n -> C^N at
    the origin, f the first N - 1 image coordinates and g the last.

    ``f_z`` and ``f_zw`` are (N-1) x (n-1) matrices whose j-th columns
    differentiate in the z_j direction; ``f_w`` and ``f_w2`` have length
    N - 1 and ``g_z`` length n - 1; ``g_w`` and ``g_w2`` are scalars.  The
    jets of a stack of B germs carry a leading member axis on every field,
    (B,) for the scalars.
    """

    f_z: np.ndarray
    f_w: np.ndarray
    g_z: np.ndarray
    g_w: complex | np.ndarray
    g_w2: complex | np.ndarray
    f_zw: np.ndarray
    f_w2: np.ndarray


def _nodes(count: int, radius: float) -> np.ndarray:
    return radius * np.exp(2j * np.pi * np.arange(count) / count)


def _coefficients(count: int, orders) -> np.ndarray:
    """Row k turns ``count`` circle samples of radius rho into the Taylor
    coefficient of order orders[k] times rho**orders[k]."""
    return np.exp(-2j * np.pi * np.outer(orders, np.arange(count)) / count) / count


def cauchy_derivative(phi, order: int, cfg: DiffConfig = DiffConfig()):
    """Order-th derivative at 0 of a scalar- or array-valued function.

    ``phi`` is called once, on the array t (M,) of the M = 32 circle points
    of radius ``cfg.radius``, and returns its samples with the node axis
    first, (M, ...); any evaluation failure propagates.  Requires
    ``order <= M / 2`` so the wanted coefficient is alias-free.
    """
    if order < 0:
        msg = f"derivative order must be >= 0, got {order}"
        raise ValueError(msg)
    if order > cfg.nodes // 2:
        msg = f"order {order} exceeds nodes/2 = {cfg.nodes // 2}"
        raise ValueError(msg)
    samples = np.asarray(phi(_nodes(cfg.nodes, cfg.radius)), dtype=complex)
    if samples.shape[:1] != (cfg.nodes,):
        msg = f"phi must return {cfg.nodes} samples on axis 0, got {samples.shape}"
        raise ValueError(msg)
    # einsum, not a BLAS product: a wide one would wake a second BLAS thread.
    total = np.einsum("m,m...->...", _coefficients(cfg.nodes, [order])[0], samples)
    return total * (math.factorial(order) / cfg.radius**order)


def _require(ok, error: type, describe) -> None:
    """Raise ``error(describe(i))`` for the first member i where ``ok`` fails:
    ``i = ()`` for one member, and a stack's message starts with its index."""
    if not (ok.all() if ok.ndim else ok):  # a scalar's own .all() costs 1 us
        i = int(ok.argmin()) if ok.ndim else ()
        raise error(describe(i) if i == () else f"member {i}: {describe(i)}")


#: Most image entries, members x rows x (d + 2) projective coordinates, of one
#: evaluation in :func:`extract_jet2` (0.5 MB); ``verify`` sizes its blocks by it.
_EVALUATION_ENTRIES = 2**15


def _member_entries(d: int) -> int:
    """Entries one germ holds in extract_jet2: a one-circle call or its orders 1-2."""
    return (d + 2) * max(DiffConfig.nodes + 1, 2 * (3 * d + 1))


@functools.lru_cache(maxsize=8)
def _circles(d: int, M: int):
    """The circles of :func:`extract_jet2` and its quadrature rows; cached (a
    few (d, M) pairs), as no reader writes them.

    The nodes are 0, for the origin, then the M unit nodes t, as (Re t, Im t)
    rows (M + 1, 2).  The 3d + 1 directions v = e_w | e_j | e_j + e_w |
    e_j - e_w come as the real (2, 2 (3d + 1)(d + 1)) matrix that takes
    (Re t, Im t) to the complex rows t v, viewed as pairs of reals: numpy
    makes a call's rows in one real product at about half the cost of a
    complex outer product.  The grid itself, 1 + M (3d + 1) rows, is never
    cached: :func:`extract_jet2` builds it call by call."""
    eye = np.eye(d + 1)
    directions = np.concatenate([eye[d:], eye[:d], eye[:d] + eye[d], eye[:d] - eye[d]])
    lines = np.zeros((2, 3 * d + 1, d + 1, 2))
    lines[0, ..., 0] = lines[1, ..., 1] = directions
    nodes = np.append(0.0, _nodes(M, 1.0)).view(float).reshape(-1, 2)
    return nodes, lines.reshape(2, -1), _coefficients(M, [1, 2])


def extract_jet2(H: HoloMap, cfg: DiffConfig = DiffConfig()) -> Jet2:
    """Second-order jet of an origin-fixing map germ, or of a stack of germs.

    Evaluates ``H`` on the origin and the module's 3d + 1 circles of radius
    rho = min(``cfg.radius``, half the smallest domain radius of ``H``):
    1 + M + 3dM Siegel rows (z, w) for M = ``cfg.nodes``, as rows
    (1, R, d + 1) that a stack's germs share; a stack's jet fields get a
    leading member axis.  The rows go in calls of whole circles, node-major
    within a call and the origin first, each call at most 2^15 image entries
    (members x rows x (d + 2)) or one circle, and each call's images are
    reduced to Taylor coefficients before the next: one call for a single
    germ up to d = 17.
    The image width N, and with it the jet's shapes, is read off the images;
    an empty stack gives jets with an empty member axis.  Raises
    :class:`JetRecoveryError` when a domain radius of ``H`` is not positive
    (or NaN) or an image on the circles is not finite, and
    :class:`NotOriginFixingError` when ``H(0, 0)`` is farther than 1e-12 from
    the origin.
    """
    radius = np.asarray(H.domain_radius)
    _require(radius > 0, JetRecoveryError,
             lambda i: f"map domain radius {radius[i]} is not positive")
    r = min(cfg.radius, 0.5 * float(radius.min(initial=np.inf)))
    d, M = H.dim, cfg.nodes
    nodes, lines, C = _circles(d, M)
    count, width = 3 * d + 1, 2 * (d + 1)  # circles; reals per row
    lead = (1,) * radius.ndim  # the same rows for every member of a stack
    # Whole circles per call, with room for the origin's row (an empty stack
    # is budgeted as one germ).
    per_call = max(1, (_EVALUATION_ENTRIES // max(1, radius.size) // (d + 2) - 1) // M)
    # Taylor coefficients of orders 1 and 2 times r^k, indexed (direction,
    # order, component); the axial and diagonal blocks are transposed into
    # columns at the end.
    for start in range(0, count, per_call):
        k, first = min(per_call, count - start), int(start == 0)
        # Node-major rows rho t v: t = 0 gives k origin rows, and only the
        # first call keeps one.
        rows = (r * nodes) @ lines[:, start * width:(start + k) * width]
        rows = rows.view(complex).reshape(-1, d + 1)[k - first:]
        images = H.evaluate(rows.reshape(lead + rows.shape))
        if first:
            offset = np.maximum(np.sqrt(sq_norm(images[..., 0, :-1])),
                                np.abs(images[..., 0, -1]))
            _require(offset <= ORIGIN_TOL, NotOriginFixingError,
                     lambda i: f"not origin-fixing: |H(0,0)| = {offset[i]:.3e}")
            T = np.empty(images.shape[:-2] + (count, 2, images.shape[-1]),
                         dtype=complex)
        circles = images[..., first:, :].reshape(T.shape[:-3] + (M, k, T.shape[-1]))
        with np.errstate(invalid="ignore"):  # inf images: NaN coefficients, raised below
            np.matmul(C, circles.swapaxes(-3, -2), out=T[..., start:start + k, :, :])
        del images, circles  # before the next call evaluates
    if np.count_nonzero(np.isfinite(T)) != T.size:  # half the cost of .all()
        _require(np.isfinite(T).all(axis=(-3, -2, -1)), JetRecoveryError,
                 lambda _: "germ not finite on the jet circles")
    # Order 1 on the w-circle and the z_j-axes; order 2 on the w-circle.
    order1, w2 = T[..., :d + 1, 0, :] / r, 2.0 * T[..., 0, 1, :] / r**2
    # psi_j^+- '' / 2 = f_{z_j z_j} / 2 +- f_{z_j w} + f_ww / 2.
    mixed = T[..., d + 1:2 * d + 1, 1, :-1] - T[..., 2 * d + 1:, 1, :-1]
    return Jet2(f_z=order1[..., 1:, :-1].swapaxes(-1, -2), f_w=order1[..., 0, :-1],
                g_z=order1[..., 1:, -1], g_w=order1[..., 0, -1], g_w2=w2[..., -1],
                f_zw=mixed.swapaxes(-1, -2) / (2.0 * r**2), f_w2=w2[..., :-1])


def automorphism_jet2(params: AutParams) -> Jet2:
    """The exact 2-jet of an automorphism (U, s, a, R), or of a stack: from
    1/D = 1 + 2i<z, a> - beta w + O(2), beta = R - i ||a||^2, f_z = sU,
    f_w = sUa, g_z = 0, g_w = s^2, g_ww = -2 beta s^2, f_ww = -2 beta sUa and
    f_zw = sU(-beta I + 2i a a^H) = 2i f_w a^H - beta sU."""
    s, beta = np.asarray(params.s), np.asarray(params.beta)
    sU = s[..., None, None] * params.U
    f_w = (sU @ params.a[..., None])[..., 0]
    f_zw = 2j * f_w[..., :, None] * params.a.conj()[..., None, :]
    f_zw -= beta[..., None, None] * sU
    return Jet2(f_z=sU, f_w=f_w, g_z=np.zeros_like(f_w), g_w=s**2 + 0j,
                g_w2=-2.0 * beta * s**2, f_zw=f_zw, f_w2=-2.0 * beta[..., None] * f_w)


def recovery_terms(jet: Jet2):
    """Per member with Re g_w > 0: s = sqrt(Re g_w), U = f_z / s and the complex
    R = (-g_ww/2 + i ||f_w||^2) / g_w.  For a boundary automorphism's jet U is
    unitary and R real, which :func:`recover_params` checks."""
    g_w = np.asarray(jet.g_w)
    s = np.sqrt(g_w.real)
    with np.errstate(invalid="ignore"):  # inf: NaN U or R, rejected as not onto or real
        U = np.asarray(jet.f_z, dtype=complex) / s[..., None, None]
        R = (-0.5 * np.asarray(jet.g_w2) + 1j * sq_norm(np.asarray(jet.f_w))) / g_w
    return s, U, R


def recover_params(jet: Jet2) -> AutParams:
    """Read automorphism parameters off a second-order jet, or a stack of them.

    Validity checks, each raising :class:`JetRecoveryError` with the name of
    the failed identity (and, on a stack, the first failing member): f_z
    must be square, N = n; f_zw and f_w2, which no formula reads, must be
    finite; g_w must be positive, and Im g_w and g_z vanish to
    ``RECOVERY_TOL`` (a germ that preserves the boundary keeps its tangent
    plane {Im w = 0}); U = f_z / sqrt(g_w) must be unitary to ``UNITARY_TOL``,
    the bar of :class:`AutParams` ("derivative not onto", the paper's
    hypothesis, when f_z is not finite or cond(f_z) > ``COND_MAX``); and R
    must be real to ``RECOVERY_TOL`` (:func:`recovery_terms`).
    """
    k, d = np.shape(jet.f_z)[-2:]
    if k != d:
        msg = f"derivative not onto: f_z is {k} x {d}"
        raise JetRecoveryError(msg)
    for name, axes in (("f_zw", (-2, -1)), ("f_w2", -1)):
        finite = np.isfinite(getattr(jet, name)).all(axis=axes)
        _require(finite, JetRecoveryError, lambda _, name=name: f"{name} not finite")
    g_w = np.asarray(jet.g_w, dtype=complex)
    _require((g_w.real > 0) & (np.abs(g_w.imag) <= RECOVERY_TOL), JetRecoveryError,
             lambda i: f"g_w not positive real: {g_w[i]}")
    tilt = np.abs(jet.g_z).max(axis=-1, initial=0.0)
    _require(tilt <= RECOVERY_TOL, JetRecoveryError,
             lambda i: f"g_z not zero: |g_z| = {tilt[i]:.3e}")
    s, U, R = recovery_terms(jet)
    defect = unitarity_defect(U)  # AutParams reuses it: one Gram check per call
    if not defect <= UNITARY_TOL:  # or NaN: name the failure and the member
        f_z = np.asarray(jet.f_z, dtype=complex)
        finite = np.isfinite(f_z).all(axis=(-2, -1))
        safe = np.where(finite[..., None, None], f_z, np.eye(U.shape[-1]))
        cond = np.where(finite, np.linalg.cond(safe), np.inf)
        _require(cond <= COND_MAX, JetRecoveryError,
                 lambda i: f"derivative not onto: cond(f_z) = {cond[i]:.3e}")
        each = _gram_defects(U)
        _require(each <= UNITARY_TOL, JetRecoveryError,
                 lambda i: f"normalized f_z not unitary: defect {each[i]:.3e}")
    # f_z is s times a matrix unitary to UNITARY_TOL: cond(f_z) is about 1.
    a = np.linalg.solve(jet.f_z, np.asarray(jet.f_w)[..., None])[..., 0]
    _require(np.abs(R.imag) <= RECOVERY_TOL, JetRecoveryError,
             lambda i: f"R not real: Im R = {R.imag[i]:.3e}")
    params = _unchecked(U, s, a, R.real)
    params.__post_init__(defect)  # every check but a second Gram product
    return params


def _require_inside(H: HoloMap, reach, what: str) -> None:
    """Raise ``ValueError`` counting the ``what`` samples whose rows reach,
    (P,) or (B, P), is not inside the domain radius of ``H`` (per member)."""
    inside = reach < np.asarray(H.domain_radius)[..., None]
    if not inside.all():
        msg = (f"{np.count_nonzero(~inside)} of {inside.size} {what} "
               "samples outside the map domain")
        raise ValueError(msg)


def check_levi(H: HoloMap, zs, us) -> np.ndarray:
    """Per-sample residuals of the first-order boundary compatibility identity.

    For an origin-fixing map (f, g) preserving the boundary hypersurface,

        conj(g_w(0)) <z, u> = <f(z, 0), f_z(0) u + 2i <u, z> f_w(0)>

    holds for all z near 0 and all u.  ``zs`` and ``us`` are stacked
    samples (P, dim), or (B, P, dim) for a stack of B germs; f(z, 0) is read
    off the images of the Siegel rows (z, 0), and the jet is
    :func:`extract_jet2`'s default.  Returns ``|lhs - rhs|`` per sample, (P,)
    or (B, P).  Raises ``ValueError`` counting the samples whose ||z|| is not
    inside the domain of ``H``, as :func:`check_polarization` does.
    """
    zs = np.asarray(zs, dtype=complex)
    us = np.asarray(us, dtype=complex)
    _require_inside(H, np.linalg.norm(zs, axis=-1), "levi")
    jet = extract_jet2(H)
    images = H.evaluate(np.concatenate([zs, 0 * zs[..., :1]], axis=-1))[..., :-1]
    u_dot_z = np.sum(us * zs.conj(), axis=-1)
    lhs = np.conj(jet.g_w)[..., None] * np.sum(zs * us.conj(), axis=-1)
    # f_z u in even row blocks of at most 2^16 multiply-adds: one OpenBLAS thread.
    cap = 2**16 // us.shape[-1] ** 2
    partner = np.concatenate([us[..., i:j, :] @ jet.f_z.swapaxes(-1, -2)
                              for i, j in _even_blocks(us.shape[-2], cap)], axis=-2)
    partner += 2j * u_dot_z[..., None] * jet.f_w[..., None, :]
    rhs = np.sum(images * partner.conj(), axis=-1)
    return np.abs(lhs - rhs)


def check_polarization(H: HoloMap, zs, chis, taus) -> np.ndarray:
    """Per-sample residuals of the polarized boundary identity on complex pairs.

    For each stacked sample (z, chi, tau) the partner coordinate is
    ``w = conj(tau) + 2i <z, chi>``, and the identity

        g(z, w) - conj(g(chi, tau)) = 2i <f(z, w), f(chi, tau)>

    is evaluated two-sidedly on the Siegel rows (z, w) and (chi, tau), with
    g the images' last column and f the rest.  Samples are rows (P, dim) and
    (P,), or (B, P, dim) and (B, P) for a stack of B germs.  Returns
    ``|lhs - rhs|`` per sample, (P,) or (B, P), as :func:`check_levi` does.
    Raises ``ValueError`` counting the samples whose rows reach outside the
    domain of ``H``; a pole inside the domain breaks the map's own contract
    and propagates.
    """
    zs = np.asarray(zs, dtype=complex)
    chis = np.asarray(chis, dtype=complex)
    taus = np.asarray(taus, dtype=complex)
    ws = np.conj(taus) + 2j * np.sum(zs * chis.conj(), axis=-1)
    reach = np.maximum.reduce([np.linalg.norm(zs, axis=-1), np.abs(ws),
                               np.linalg.norm(chis, axis=-1), np.abs(taus)])
    _require_inside(H, reach, "polarization")
    left = H.evaluate(np.concatenate([zs, ws[..., None]], axis=-1))
    right = H.evaluate(np.concatenate([chis, taus[..., None]], axis=-1))
    cross = np.sum(left[..., :-1] * right[..., :-1].conj(), axis=-1)
    return np.abs(left[..., -1] - np.conj(right[..., -1]) - 2j * cross)
