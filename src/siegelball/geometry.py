"""Ball and Siegel-domain coordinates and the Cayley transform between them.

The unit ball sits in C^n with distinguished boundary point P = e_n.  A ball
point Z splits as (zeta, eta) with eta = Z_n the coordinate along P.  The
Siegel upper half-space is {(z, w) in C^(n-1) x C : Im w > ||z||^2}; its
boundary hypersurface is {Im w = ||z||^2}.  The Cayley transform

    z = zeta / (1 + eta),   w = i (1 - eta) / (1 + eta)

carries the ball onto the half-space and the sphere minus {-P} onto the
boundary hypersurface, sending P to the origin.  Its inverse is

    zeta = 2 i z / (i + w),   eta = (i - w) / (i + w).

Both are linear-fractional, one (n+1) x (n+1) matrix each on homogeneous
coordinates (x, 1).  The pole-checked kernel :func:`_projective` evaluates
them and every other linear-fractional map of the package.

Points are plain arrays: ball points (n,) or rows (B, n), Siegel points rows
``(z_1, ..., z_d, w)`` of shape (n,) or (B, n).  Which side of the boundary a
point lies on is the sign of its defect (:func:`siegel_defect`,
:func:`ball_defect`), with :data:`DEFECT_TOL` the boundary band.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .hilbert import _even_blocks, as_points, sq_norm

#: Guard threshold for denominators near a pole.
EPS_DENOM = 1e-12

#: Half-width of the boundary band: a point whose defect is at most this in
#: modulus counts as on the boundary, otherwise its sign decides the side.
DEFECT_TOL = 1e-9


class CayleyPoleError(ValueError):
    """Raised when a point sits on the Cayley pole (eta = -1, resp. w = -i)."""


@dataclass(frozen=True, eq=False)
class SiegelPoint:
    """A validated point (z, w) of C^(n-1) x C in Siegel coordinates.

    Input only: :func:`siegel_rows` accepts it as the row ``(z, w)``, and no
    function returns one; every function answers in Siegel rows.
    """

    z: np.ndarray
    w: complex

    def __post_init__(self):
        z = as_points(self.z)
        if z.ndim != 1:
            msg = f"expected a one-dimensional vector, got shape {z.shape}"
            raise ValueError(msg)
        object.__setattr__(self, "z", z)
        w = complex(self.w)
        if not (np.isfinite(w.real) and np.isfinite(w.imag)):
            msg = "w must be finite"
            raise ValueError(msg)
        object.__setattr__(self, "w", w)

    @property
    def dim(self) -> int:
        """Dimension of the z-part (one less than the ball dimension)."""
        return self.z.shape[0]


def siegel_rows(p, dim: int | None = None) -> np.ndarray:
    """Siegel rows ``(z, w)``: the row (n,) of a SiegelPoint, or checked rows;
    with ``dim`` given, the z-part must have that dimension."""
    rows = np.append(p.z, p.w) if isinstance(p, SiegelPoint) else p
    return as_points(rows, None if dim is None else dim + 1)


def _projective(M: np.ndarray, x: np.ndarray, *, error: type, what: str):
    """The linear-fractional map ``x -> (M x~)[:-1] / (M x~)[-1]``, x~ = (x, 1).

    ``M`` is one (m+1) x (m+1) matrix or a stack.  Rows (..., R, m) with
    ``x.ndim >= M.ndim`` share one matrix, are member-major (B, R, m), or are
    shared by every member, (1, R, m).  One point (m,), a stack on rows (B, m)
    and one point against a stack have one matrix per row: they go as
    member-major rows of one, (..., 1, m).  Every product splits its R rows
    evenly into the fewest blocks of at most max(48, 2^16 // (m+1)^2) rows.
    The images are a view into the one product array.  Raises ``error``,
    named by ``what``, when any ``|(M x~)[-1]| <= EPS_DENOM``.
    """
    x = np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)
    single = x.ndim < M.ndim
    if single:  # member-major rows of one, with M's leading axes
        x = x.reshape((1,) * (M.ndim - x.ndim - 1) + x.shape[:-1] + (1, x.shape[-1]))
    lead = (1,) * (x.ndim - M.ndim) + M.shape[:-2]  # np.broadcast_shapes is slow
    y = np.empty(tuple(m if n == 1 else n for n, m in zip(x.shape[:-2], lead))
                 + x.shape[-2:], complex)
    # 2^16 multiply-adds stay on the calling thread (up to 36 x 36 matrices, the
    # cap is above the floor); the even split keeps blocks off one-row gemv.
    for i, j in _even_blocks(x.shape[-2], max(48, 2**16 // M.shape[-1] ** 2)):
        np.matmul(x[..., i:j, :], M.swapaxes(-1, -2), out=y[..., i:j, :])
    den = y[..., -1:]
    closest = np.abs(den).min(initial=np.inf)
    if closest <= EPS_DENOM:
        msg = f"{what} = {closest:.3e}"
        raise error(msg)
    y *= 1.0 / den  # whole rows: numpy buffers a strided in-place product
    return y[..., 0, :-1] if single else y[..., :-1]


@functools.cache
def _cayley_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(zeta, eta, 1) -> (zeta, i - i eta, 1 + eta) and 2i times its inverse,
    (z, w, 1) -> (2i z, i - w, i + w); read-only, as they are shared."""
    C, C_inv = np.eye(n + 1, dtype=complex), 2j * np.eye(n + 1)
    C[n - 1:, n - 1:] = [[-1j, 1j], [1, 1]]
    C_inv[n - 1:, n - 1:] = [[-1, 1j], [1, 1j]]
    C.flags.writeable = C_inv.flags.writeable = False
    return C, C_inv


def cayley(Z):
    """Cayley transform of ball points into Siegel coordinates.

    One point Z (n,) gives a Siegel row (n,), stacked points (B, n) give
    rows (B, n).  Raises :class:`CayleyPoleError` when
    ``|1 + eta| <= EPS_DENOM`` for any point (the pole at the antipode -P of
    the distinguished boundary point).
    """
    Z = as_points(Z)
    return _projective(_cayley_matrices(Z.shape[-1])[0], Z, error=CayleyPoleError,
                       what="Cayley pole: |1 + eta|")


def inverse_cayley(p) -> np.ndarray:
    """Inverse Cayley transform of a Siegel point, or of rows, onto the ball.

    Raises :class:`CayleyPoleError` when ``|i + w| <= EPS_DENOM`` for any point.
    """
    rows = siegel_rows(p)
    return _projective(_cayley_matrices(rows.shape[-1])[1], rows,
                       error=CayleyPoleError, what="Cayley pole: |i + w|")


def siegel_defect(p):
    """Signed defect ``Im w - ||z||^2`` of Siegel points, positive inside: a
    float for one point, one value per row for rows."""
    rows = siegel_rows(p)
    return rows[..., -1].imag - sq_norm(rows[..., :-1])


def ball_defect(Z):
    """Signed defect ``||Z||^2 - 1`` of ball points, negative inside: a float
    for one point, one value per row for rows."""
    return sq_norm(as_points(Z)) - 1.0


def _unit_rows(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` uniform unit vectors of C^n, as rows: every point sampler's
    one draw, normalised complex Gaussians from one call to the generator."""
    g = rng.standard_normal((count, n, 2))
    norm = np.sqrt(np.einsum("ijc,ijc->i", g, g))
    return g.view(complex)[..., 0] / norm[:, None]


def _radial_rows(rng: np.random.Generator, count: int, n: int,
                 scale: float) -> np.ndarray:
    """Unit rows scaled by ``scale * uniform[0, 1)``: norms at most scale."""
    return _unit_rows(rng, count, n) * (scale * rng.uniform(size=(count, 1)))


def sample_siegel_boundary(n: int, seed, count: int) -> np.ndarray:
    """Deterministic samples on the boundary hypersurface ``Im w = ||z||^2``.

    ``n`` is the ball dimension; the result is ``count`` Siegel rows (z, w)
    of shape (count, n), with ``||z|| <= 1`` and ``w = t + i ||z||^2``,
    ``|t| <= 1``.
    """
    if n < 2:
        msg = f"ball dimension must be >= 2, got {n}"
        raise ValueError(msg)
    rng = np.random.default_rng(seed)
    z = _radial_rows(rng, count, n - 1, 1.0)
    t = rng.uniform(-1.0, 1.0, count)
    return np.concatenate([z, (t + 1j * sq_norm(z))[:, None]], axis=1)


def sample_sphere(
    n: int,
    seed,
    count: int,
    min_pole_dist: float = 0.0,
) -> np.ndarray:
    """Uniform samples on the unit sphere of C^n, as rows (count, n).

    With ``min_pole_dist > 0`` rejected samples are redrawn until every row
    has ``|1 + eta| > min_pole_dist`` (below 2, the largest |1 + eta|), keeping
    them away from the Cayley pole.
    """
    if n < 1:
        msg = f"dimension must be >= 1, got {n}"
        raise ValueError(msg)
    if not min_pole_dist < 2.0:  # also NaN: no row would ever pass
        msg = f"min_pole_dist must be < 2 (|1 + eta| <= 2), got {min_pole_dist}"
        raise ValueError(msg)
    rng = np.random.default_rng(seed)
    points = np.empty((0, n), dtype=complex)
    while len(points) < count:
        Z = _unit_rows(rng, count - len(points), n)
        points = np.concatenate([points, Z[np.abs(1.0 + Z[:, -1]) > min_pole_dist]])
    return points


def sample_ball(n: int, seed, count: int, radius: float = 0.9) -> np.ndarray:
    """Uniform samples in the closed ball of the given radius, as rows (count, n)."""
    if n < 1:
        msg = f"dimension must be >= 1, got {n}"
        raise ValueError(msg)
    if not 0.0 < radius < np.inf:  # also NaN
        msg = f"radius must be positive and finite, got {radius!r}"
        raise ValueError(msg)
    rng = np.random.default_rng(seed)
    r = radius * rng.uniform(size=(count, 1)) ** (1.0 / (2 * n))
    return _unit_rows(rng, count, n) * r
