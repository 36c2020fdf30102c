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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .hilbert import as_points, as_vector, sq_norm

#: Guard threshold for denominators near a pole.
EPS_DENOM = 1e-12

#: Tolerance for classifying a point as on-boundary.
DEFECT_TOL = 1e-9


class CayleyPoleError(ValueError):
    """Raised when a point sits on the Cayley pole (eta = -1, resp. w = -i)."""


@dataclass(frozen=True, eq=False)
class SiegelPoint:
    """A point (z, w) of C^(n-1) x C in Siegel coordinates.

    Stacked points are plain arrays of Siegel rows ``(z_1, ..., z_d, w)`` of
    shape (B, n); every function taking a SiegelPoint also takes rows, and
    answers in the same form.
    """

    z: np.ndarray
    w: complex

    def __post_init__(self):
        object.__setattr__(self, "z", as_vector(self.z))
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


def _siegel_like(p, rows: np.ndarray):
    """Siegel ``rows`` in the form of the input ``p``: a SiegelPoint or rows."""
    if isinstance(p, SiegelPoint):
        return SiegelPoint(rows[:-1], rows[-1])
    return rows


@dataclass(frozen=True)
class DefectReport:
    """Signed distance-like defect of a point plus its classification.

    ``classification`` is one of ``"interior"``, ``"boundary"``,
    ``"exterior"``, decided at tolerance ``tol`` (always :data:`DEFECT_TOL`).
    For stacked points both fields are arrays with one entry per point.
    """

    value: float | np.ndarray
    classification: str | np.ndarray
    tol: float


def _classify(value, inside) -> DefectReport:
    cls = np.where(np.abs(value) <= DEFECT_TOL, "boundary",
                   np.where(inside, "interior", "exterior"))
    if np.ndim(value) == 0:
        return DefectReport(float(value), str(cls), DEFECT_TOL)
    return DefectReport(value, cls, DEFECT_TOL)


def _projective(M: np.ndarray, x: np.ndarray, *, error: type, what: str):
    """The linear-fractional map ``x -> (M x~)[:-1] / (M x~)[-1]``, x~ = (x, 1).

    ``x`` is one point (m,) or rows (..., m); ``M`` is one (m+1) x (m+1)
    matrix for all rows, one per row, or one per member against member-major
    rows (B, R, m), or rows (1, R, m) shared by every member.  The images are
    a view into the one product array.  Raises ``error`` when any
    ``|(M x~)[-1]| <= EPS_DENOM``; ``what`` names it.
    """
    x = np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)
    if x.ndim < M.ndim:  # one matrix per row
        y = (M @ x[..., None])[..., 0]
    else:  # blocks of <= 2^16 multiply-adds: larger ones wake a spinning BLAS thread
        rows, Mt = max(1, 2**16 // M.shape[-1] ** 2), M.swapaxes(-1, -2)
        y = np.empty(np.broadcast_shapes(x.shape, M.shape[:-2] + (1, 1)), complex)
        for i in range(0, x.shape[-2], rows):
            np.matmul(x[..., i:i + rows, :], Mt, out=y[..., i:i + rows, :])
    den = y[..., -1:]
    closest = np.abs(den).min(initial=np.inf)
    if closest <= EPS_DENOM:
        msg = f"{what} = {closest:.3e}"
        raise error(msg)
    y *= 1.0 / den  # whole rows: numpy buffers a strided in-place product
    return y[..., :-1]


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

    One point Z (n,) gives a :class:`SiegelPoint`; stacked points (B, n)
    give Siegel rows (B, n).  Raises :class:`CayleyPoleError` when
    ``|1 + eta| <= EPS_DENOM`` for any point (the pole at the antipode -P of
    the distinguished boundary point).
    """
    Z = as_points(Z)
    rows = _projective(_cayley_matrices(Z.shape[-1])[0], Z, error=CayleyPoleError,
                       what="Cayley pole: |1 + eta|")
    return SiegelPoint(rows[:-1], rows[-1]) if Z.ndim == 1 else rows


def inverse_cayley(p) -> np.ndarray:
    """Inverse Cayley transform of a Siegel point, or of rows, onto the ball.

    Raises :class:`CayleyPoleError` when ``|i + w| <= EPS_DENOM`` for any point.
    """
    rows = siegel_rows(p)
    return _projective(_cayley_matrices(rows.shape[-1])[1], rows,
                       error=CayleyPoleError, what="Cayley pole: |i + w|")


def siegel_defect(p) -> DefectReport:
    """Defect ``Im w - ||z||^2`` of Siegel points (positive = interior)."""
    rows = siegel_rows(p)
    value = rows[..., -1].imag - sq_norm(rows[..., :-1])
    return _classify(value, value > 0)


def ball_defect(Z) -> DefectReport:
    """Defect ``||Z||^2 - 1`` of ball points (negative = interior)."""
    value = sq_norm(as_points(Z)) - 1.0
    return _classify(value, value < 0)


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


def sample_siegel_boundary(
    n: int,
    seed,
    count: int,
    rho_max: float = 1.0,
    t_max: float = 1.0,
) -> np.ndarray:
    """Deterministic samples on the boundary hypersurface ``Im w = ||z||^2``.

    ``n`` is the ball dimension; the result is ``count`` Siegel rows (z, w)
    of shape (count, n), with ``||z|| <= rho_max`` and ``w = t + i ||z||^2``,
    ``|t| <= t_max``.
    """
    if n < 2:
        msg = f"ball dimension must be >= 2, got {n}"
        raise ValueError(msg)
    rng = np.random.default_rng(seed)
    z = _radial_rows(rng, count, n - 1, rho_max)
    t = rng.uniform(-t_max, t_max, count)
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
    rng = np.random.default_rng(seed)
    r = radius * rng.uniform(size=(count, 1)) ** (1.0 / (2 * n))
    return _unit_rows(rng, count, n) * r
