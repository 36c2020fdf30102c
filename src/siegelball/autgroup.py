"""Origin-fixing boundary automorphisms of the Siegel domain.

The family treated here is the linear-fractional group

    H(z, w) = ( s U (z + a w) / D,  s^2 w / D ),
    D(z, w) = 1 - 2 i <z, a> + (R - i ||a||^2) w,

parameterised by a unitary U, a scale s > 0, a vector a in C^(n-1) and a
real R.  Every member fixes the origin, maps the boundary hypersurface
{Im w = ||z||^2} to itself, and factors into members of the family,

    H = omega_{U,s} o phi_a o h_R,
    omega_{U,s} = (U, s, 0, 0),  phi_a = (I, 1, a, 0),  h_R = (I, 1, 0, R),

a linear part, a "translation" part and a one-parameter part
(:func:`factors`).  The defect Im w - ||z||^2 transforms under H by the
positive factor s^2 / |D|^2, which is what makes the boundary and the two
sides of it invariant.

In homogeneous coordinates (z, w, 1) every member is linear, given by its
(d+2) x (d+2) projective matrix (:func:`matrix`); every evaluation, C^-1 M C
on the ball included, is the pole-checked kernel ``geometry._projective`` on
it.  The group law, :func:`compose` and :func:`invert`, is the blocks of the
matrix product and inverse in closed form on (U, s, a, R), stacks included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .geometry import _cayley_matrices, _projective, _radial_rows, siegel_rows
from .hilbert import as_points, haar_unitary, sq_norm, unitarity_defect
from .maps import HoloMap

#: Cap on the advertised domain radius of an automorphism seen as a map germ.
DOMAIN_RADIUS_CAP = 2.0


class AutomorphismPoleError(ValueError):
    """Raised when a point sits on the pole of an automorphism (D = 0)."""


def _real_in(x: np.ndarray, shape: tuple, low: float) -> bool:
    """Real (not complex) values in (low, inf), one per member."""
    if x.dtype.kind not in "fiu" or x.shape != shape:
        return False
    if not shape:  # one member: one float comparison, also False for NaN
        return low < float(x) < np.inf
    return bool(((low < x) & (x < np.inf)).all())


@dataclass(frozen=True, eq=False)
class AutParams:
    """Parameters (U, s, a, R) of an origin-fixing boundary automorphism.

    A stack of B members carries a leading batch axis on every field:
    U (B, d, d), s (B,), a (B, d), R (B,).  A stack acts row by row on
    stacked points (member i on row i), or on member-major rows (B, R, .)
    (member i on the rows [i]); ``params[i]`` is member i.
    """

    U: np.ndarray
    s: float | np.ndarray
    a: np.ndarray
    R: float | np.ndarray

    def __post_init__(self, defect: float | None = None):  # U's Gram defect, if known
        U = np.asarray(self.U, dtype=complex)
        if U.ndim not in (2, 3) or U.shape[-1] != U.shape[-2]:
            msg = f"U must be square (or a stack of squares), got shape {U.shape}"
            raise ValueError(msg)
        if defect is None:
            defect = unitarity_defect(U)
        if not defect <= hilbert.UNITARY_TOL:  # also NaN
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
        if a.shape != U.shape[:-1]:
            msg = f"a has the wrong shape: dimension {U.shape[:-1]}, got {a.shape}"
            raise ValueError(msg)
        if np.count_nonzero(np.isfinite(a)) != a.size:  # half the cost of .all()
            msg = "a must be finite"
            raise ValueError(msg)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "s", s.astype(float) if batch else float(s))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "R", R.astype(float) if batch else float(R))

    def __getitem__(self, index) -> AutParams:
        """Member ``index`` of a stack, or the sub-stack a slice or mask selects.

        The fields come from this validated stack, so they are not checked
        again; only the index must select along the member axis.
        """
        U = self.U[index]
        if U.ndim not in (2, 3) or U.shape[-2:] != self.U.shape[-2:]:
            msg = f"index {index!r} does not select members of the stack"
            raise IndexError(msg)
        return _unchecked(U, self.s[index], self.a[index], self.R[index])

    def __len__(self) -> int:  # members of a stack; one member has none
        return len(self.s)

    @property
    def dim(self) -> int:
        """Dimension of the z-part the automorphism acts on."""
        return self.U.shape[-1]

    @property
    def beta(self):
        """The w-coefficient ``R - i ||a||^2`` of the denominator."""
        return self.R - 1j * sq_norm(self.a)


def _unchecked(U, s, a, R) -> AutParams:
    """An AutParams from fields that are valid by construction (taken from a
    validated stack, or the identity), without a second Gram check; one
    member gets Python-float ``s`` and ``R``."""
    params = object.__new__(AutParams)
    if np.ndim(s) == 0:
        s, R = float(s), float(R)
    for name, value in zip(("U", "s", "a", "R"), (U, s, a, R)):
        object.__setattr__(params, name, value)
    return params


def identity_params(dim: int, count: int | None = None) -> AutParams:
    """The identity automorphism on C^dim x C, or a stack of ``count`` copies."""
    batch = () if count is None else (count,)
    U = np.broadcast_to(np.eye(dim, dtype=complex), batch + (dim, dim))
    return _unchecked(U, np.ones(batch), np.zeros(batch + (dim,), dtype=complex),
                      np.zeros(batch))


def random_params(
    dim: int,
    seed,
    a_max: float = 1.0,
    r_max: float = 2.0,
    s_min: float = 0.5,
    s_max: float = 2.0,
    count: int | None = None,
) -> AutParams:
    """Draw bounded random parameters: Haar U, s uniform in [s_min, s_max],
    ||a|| <= a_max and |R| <= r_max.

    With ``count`` the result is a stack of that many independent members.
    Raises ``ValueError`` naming the argument when a_max or r_max is not a
    finite number >= 0, or unless 0 < s_min <= s_max < inf.
    """
    for name, bound in (("a_max", a_max), ("r_max", r_max)):
        if not 0.0 <= bound < np.inf:  # also NaN
            msg = f"{name} must be finite and >= 0, got {bound!r}"
            raise ValueError(msg)
    if not 0.0 < s_min <= s_max < np.inf:
        msg = f"need 0 < s_min <= s_max < inf, got s_min={s_min!r}, s_max={s_max!r}"
        raise ValueError(msg)
    rng = np.random.default_rng(seed)
    U = haar_unitary(dim, rng, count)
    s = rng.uniform(s_min, s_max, count)
    a = _radial_rows(rng, 1 if count is None else count, dim, a_max)
    R = rng.uniform(-r_max, r_max, count)
    return AutParams(U, s, a if count is not None else a[0], R)


def param_distance(p: AutParams, q: AutParams):
    """Per member: max of operator-norm gap on U and absolute gaps on s, a, R."""
    if p.dim != q.dim:
        msg = f"dimension mismatch: {p.dim} vs {q.dim}"
        raise ValueError(msg)
    return np.maximum(
        np.maximum(np.linalg.norm(p.U - q.U, 2, axis=(-2, -1)), np.abs(p.s - q.s)),
        np.maximum(np.linalg.norm(p.a - q.a, axis=-1), np.abs(p.R - q.R)),
    )


def _denominator_row(params: AutParams, out: np.ndarray) -> np.ndarray:
    """Write ``[-2i a^H, R - i ||a||^2]``, the coefficients of (z, w) in D and
    the last row of :func:`matrix` but its final 1, into ``out``."""
    out[..., :-1] = -2j * params.a.conj()
    out[..., -1] = params.beta
    return out


def denominator(params: AutParams, p):
    """The linear-fractional denominator ``1 - 2i<z,a> + (R - i||a||^2) w`` of
    Siegel rows, with the rows of :func:`apply`: a stack acts row by row on
    rows (B, n), member by member on member-major rows (B, R, n)."""
    rows = siegel_rows(p, params.dim)
    row = _denominator_row(params, np.empty(params.a.shape[:-1] + rows.shape[-1:], complex))
    if rows.ndim > row.ndim:  # rows (..., R, n): one coefficient row per member
        row = row[..., None, :]
    return 1.0 + (rows * row).sum(axis=-1)


def apply(params: AutParams, p) -> np.ndarray:
    """Images of Siegel rows, (n,) or (..., n), under the automorphism: a stack
    of B members acts row by row on rows (B, n), member by member on
    member-major rows (B, R, n).  Raises :class:`AutomorphismPoleError` when
    ``|D| <= EPS_DENOM`` at any point."""
    return _apply_batch(matrix(params), siegel_rows(p, params.dim))


def _apply_batch(M: np.ndarray, rows) -> np.ndarray:
    """Images of Siegel rows under the member(s) with projective matrix ``M``."""
    return _projective(M, rows, error=AutomorphismPoleError,
                       what="pole of automorphism: |D|")


def factors(params: AutParams) -> tuple[AutParams, AutParams, AutParams]:
    """The members ``omega = (U, s, 0, 0)``, ``phi_a = (I, 1, a, 0)`` and
    ``h_R = (I, 1, 0, R)`` with ``H = omega o phi_a o h_R`` (stacks for a stack)."""
    ident = identity_params(params.dim, *params.U.shape[:-2])  # one per member
    return (_unchecked(params.U, params.s, ident.a, ident.R),
            _unchecked(ident.U, ident.s, params.a, ident.R),
            _unchecked(ident.U, ident.s, ident.a, params.R))


def factor_apply(params: AutParams, p) -> np.ndarray:
    """Evaluate via the factorisation omega_{U,s} o phi_a o h_R: three ``apply``."""
    omega, phi_a, h_R = factors(params)
    return apply(omega, apply(phi_a, apply(h_R, p)))


def ball_automorphism(params: AutParams, Z) -> np.ndarray:
    """The automorphism conjugated by the Cayley transform: the one matrix
    C^-1 M C on ball points.  Its pole (:class:`AutomorphismPoleError`) lies
    outside the closed ball, so -P, the Cayley pole, is fine."""
    n = params.dim + 1
    C, C_inv = _cayley_matrices(n)
    M = matrix(params)
    # C and C^-1 / 2i are the identity outside their last 2 x 2 block, so
    # (C^-1 M) C changes M's last two rows, then its last two columns.
    M[..., :n - 1, :] *= 2j
    M[..., n - 1:, :] = C_inv[n - 1:, n - 1:] @ M[..., n - 1:, :]
    M[..., n - 1:] = M[..., n - 1:] @ C[n - 1:, n - 1:]
    return _projective(M, as_points(Z, n),
                       error=AutomorphismPoleError, what="pole of ball automorphism")


def domain_radius(params: AutParams):
    """Radius r of the polydisc ``max(||z||, |w|) <= r`` where ``|D - 1| <= 1/2``.

    There ``|D - 1| <= (2 ||a|| + |R - i ||a||^2|) r``, so ``|D|`` lies in
    [1/2, 3/2].  Capped at :data:`DOMAIN_RADIUS_CAP`; one radius per member.
    """
    slope = 2.0 * np.linalg.norm(params.a, axis=-1) + np.abs(params.beta)
    return 0.5 / np.maximum(slope, 0.5 / DOMAIN_RADIUS_CAP)


def as_holo_map(params: AutParams) -> HoloMap:
    """Wrap the automorphism as a germ C^(d+1) -> C^(d+1) on Siegel rows, with
    a guaranteed domain radius; a stack of B members gives a stack of B germs
    (rows as for HoloMap)."""
    M, n = matrix(params), params.dim + 1
    return HoloMap(lambda rows: _apply_batch(M, rows), n, n, domain_radius(params))


def composition_radius(outer: AutParams, inner: AutParams):
    """Radius on which ``outer o inner`` is guaranteed pole-free, per member.

    The denominators multiply, ``D_{o o i}(x) = D_i(x) D_o(H_i(x))`` (the last
    row of the matrix product).  Inside both domain radii ``|D_i| >= 1/2`` and
    ``|D_{o o i}| <= 3/2``, so ``|D_o| >= 1/3`` at the inner image.
    """
    return np.minimum(domain_radius(inner), domain_radius(compose(outer, inner)))


def matrix(params: AutParams) -> np.ndarray:
    """The (d+2) x (d+2) projective matrix of the automorphism (B for B members).

    In homogeneous coordinates (z, w, 1) the automorphism is the linear map
    with rows ``[s U, s U a, 0]``, ``[0, s^2, 0]`` and
    ``[-2i a^H, R - i ||a||^2, 1]``; its last row is the denominator D.
    """
    d = params.dim
    sU = (params.U.T * params.s).T  # the transpose puts the member axis last
    M = np.zeros(sU.shape[:-2] + (d + 2, d + 2), dtype=complex)
    M[..., :d, :d] = sU
    M[..., :d, d:d + 1] = sU @ params.a[..., None]
    M[..., d, d] = params.s**2
    _denominator_row(params, M[..., d + 1, :-1])
    M[..., d + 1, d + 1] = 1.0
    return M


def compose(outer: AutParams, inner: AutParams) -> AutParams:
    """Parameters of ``outer o inner`` (member by member), the blocks of
    ``matrix(outer) @ matrix(inner)``: U = U_o U_i, s = s_o s_i,
    a = a_i + s_i U_i^H a_o (off the denominator row) and
    R = R_i + s_i^2 R_o + 2 s_i Im <U_i a_i, a_o>."""
    if outer.dim != inner.dim:
        msg = f"dimension mismatch: {outer.dim} vs {inner.dim}"
        raise ValueError(msg)
    s_i = inner.s  # a float for one member, (B,) for a stack
    row = (outer.a.conj()[..., None, :] @ inner.U)[..., 0, :]  # a_o^H U_i
    a = inner.a + (row.conj().T * s_i).T  # the transposes put the member axis last
    R = inner.R + s_i * s_i * outer.R + 2.0 * s_i * (row * inner.a).sum(axis=-1).imag
    return AutParams(outer.U @ inner.U, outer.s * inner.s, a, R)


def invert(params: AutParams) -> AutParams:
    """Parameters of the inverse (per member), the blocks of the matrix
    inverse: (U^-1, 1/s, -U^-H a / s, -R / s^2).  U^-1 is computed, not U^H:
    a drawn U is unitary only to about 1e-15, and U^H adds that defect."""
    s, U_inv = params.s, np.linalg.inv(params.U)
    a = (params.a.conj()[..., None, :] @ U_inv)[..., 0, :].conj()  # U^-H a
    return AutParams(U_inv, 1.0 / s, (a.T / -s).T, -params.R / (s * s))  # -a / s per member
