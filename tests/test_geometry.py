"""Cayley transform, defects, and the boundary samplers."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from siegelball import geometry
from siegelball.autgroup import apply, as_holo_map, domain_radius, matrix, random_params
from siegelball.geometry import (
    DEFECT_TOL,
    CayleyPoleError,
    SiegelPoint,
    ball_defect,
    cayley,
    inverse_cayley,
    sample_ball,
    sample_siegel_boundary,
    sample_sphere,
    siegel_defect,
    siegel_rows,
)
from siegelball.jets import DiffConfig, cauchy_derivative, extract_jet2


def test_siegel_point_basics():
    """A SiegelPoint is a validated input: every function reads it as its
    row (z, w) and answers in rows."""
    p = SiegelPoint([1.0, 2j], 3.0 + 1j)
    assert p.dim == 2
    assert p.z.dtype == complex
    assert p.w == 3.0 + 1j
    with pytest.raises(ValueError):
        SiegelPoint([1.0], complex(np.nan))
    row = np.array([1.0, 2j, 3.0 + 1j])
    assert_allclose(siegel_rows(p, 2), row, atol=0)
    assert_allclose(inverse_cayley(p), inverse_cayley(row), atol=0)
    assert siegel_defect(p) == siegel_defect(row) == -4.0


def test_siegel_point_rejects_matrices_and_nonfinite():
    with pytest.raises(ValueError, match="one-dimensional"):
        SiegelPoint(np.eye(2), 1j)
    with pytest.raises(ValueError, match="finite"):
        SiegelPoint([1.0, np.nan], 1j)
    with pytest.raises(ValueError, match="finite"):
        SiegelPoint([np.inf, 0.0], 1j)


def test_cayley_distinguished_point_to_origin():
    """The distinguished sphere point e_n lands on the Siegel origin."""
    P = np.array([0.0, 0.0, 1.0])
    p = cayley(P)
    assert p.shape == (3,)
    assert_allclose(p[:-1], 0.0, atol=0)
    assert p[-1] == 0.0


def test_cayley_ball_center():
    p = cayley(np.zeros(3))
    assert_allclose(p[:-1], 0.0)
    assert p[-1] == 1j


def test_cayley_equatorial_sphere_point():
    """eta = i sits on the sphere and lands on the real boundary point w = 1."""
    p = cayley(np.array([0.0, 1j]))
    assert_allclose(p[:-1], 0.0)
    assert p[-1] == pytest.approx(1.0)
    assert siegel_defect(p) == pytest.approx(0.0, abs=1e-15)


def test_inverse_cayley_hand_values():
    assert_allclose(inverse_cayley([0.0, 0.0, 0.0]), [0, 0, 1.0])
    assert_allclose(inverse_cayley([0.0, 0.0, 1j]), [0, 0, 0.0])


def test_cayley_pole_at_antipode():
    with pytest.raises(CayleyPoleError, match="Cayley pole"):
        cayley(np.array([0.0, 0.0, -1.0]))
    with pytest.raises(CayleyPoleError, match="Cayley pole"):
        inverse_cayley([0.0, 0.0, -1j])


def test_cayley_roundtrip_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        Z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        Z *= rng.uniform(0.0, 1.2) / np.linalg.norm(Z)
        if abs(1.0 + Z[-1]) < 0.05:
            continue
        back = inverse_cayley(cayley(Z))
        assert_allclose(back, Z, atol=1e-13)


def test_inverse_cayley_roundtrip_on_boundary():
    rows = sample_siegel_boundary(4, seed=11, count=100)
    assert_allclose(cayley(inverse_cayley(rows)), rows, atol=1e-12)
    for row in rows[:10]:
        assert_allclose(cayley(inverse_cayley(row)), row, atol=1e-12)


def test_stacked_points_match_single_points():
    """Every geometry function on stacked rows equals the loop over rows."""
    Z = sample_sphere(4, seed=12, count=30, min_pole_dist=0.1)
    Z[::3] *= 0.5  # some interior points
    Z[1::3] *= 1.2  # some exterior points
    rows = cayley(Z)
    assert rows.shape == (30, 4)
    assert_allclose(inverse_cayley(rows), Z, atol=1e-13)
    siegel = siegel_defect(rows)
    ball = ball_defect(Z)
    assert siegel.shape == ball.shape == (30,)
    for i, Zi in enumerate(Z):
        p = cayley(Zi)
        assert p.shape == (4,)
        assert_allclose(rows[i], p, atol=1e-15)
        assert_allclose(inverse_cayley(rows[i]), inverse_cayley(p), atol=1e-15)
        assert siegel[i] == pytest.approx(siegel_defect(p), abs=1e-15)
        assert ball[i] == pytest.approx(ball_defect(Zi), abs=1e-15)
    # all three sides occur: inside (> band), on the band, outside (< -band)
    assert (siegel > DEFECT_TOL).any() and (siegel < -DEFECT_TOL).any()
    assert (np.abs(siegel) <= DEFECT_TOL).any()


def test_stacked_pole_raises():
    Z = np.array([[0.0, 0.5], [0.0, -1.0]])
    with pytest.raises(CayleyPoleError, match="Cayley pole"):
        cayley(Z)
    with pytest.raises(CayleyPoleError, match="Cayley pole"):
        inverse_cayley(np.array([[0.0, 1j], [0.0, -1j]]))


def test_siegel_defect_classification():
    """Im w - ||z||^2: positive inside, within the band on the boundary."""
    interior = siegel_defect([0.0, 1j])
    assert isinstance(interior, np.float64)
    assert interior == pytest.approx(1.0)
    assert interior > DEFECT_TOL

    on_boundary = siegel_defect([0.5, 2.0 + 0.25j])
    assert on_boundary == pytest.approx(0.0, abs=1e-15)
    assert abs(on_boundary) <= DEFECT_TOL

    outside = siegel_defect([1.0, 0.5j])
    assert outside == pytest.approx(-0.5)
    assert outside < -DEFECT_TOL


def test_ball_defect_classification():
    """||Z||^2 - 1: negative inside, within the band on the sphere."""
    assert isinstance(ball_defect(np.zeros(2)), np.float64)
    assert ball_defect(np.zeros(2)) == pytest.approx(-1.0)
    assert abs(ball_defect([1.0, 0.0])) <= DEFECT_TOL
    assert ball_defect([1.1, 0.0]) > DEFECT_TOL


def test_sphere_maps_onto_boundary_hypersurface():
    """Defect is preserved in sign through the transform, zero on the sphere."""
    for Z in sample_sphere(5, seed=2, count=200, min_pole_dist=0.1):
        assert abs(siegel_defect(cayley(Z))) < 1e-13


def test_interior_exterior_correspondence():
    rng = np.random.default_rng(9)
    for _ in range(100):
        Z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        Z *= rng.uniform(0.1, 0.9) / np.linalg.norm(Z)
        assert siegel_defect(cayley(Z)) > DEFECT_TOL
        Zout = Z / np.linalg.norm(Z) * rng.uniform(1.1, 1.5)
        if abs(1.0 + Zout[-1]) < 0.05:
            continue
        assert siegel_defect(cayley(Zout)) < -DEFECT_TOL


def test_sample_siegel_boundary_on_hypersurface():
    points = sample_siegel_boundary(4, seed=5, count=50)
    assert len(points) == 50
    assert points.shape == (50, 4)  # rows (z_1, z_2, z_3, w)
    for row in points:
        # one rounding ulp of slack: norm squares a square root
        assert row[-1].imag == pytest.approx(np.linalg.norm(row[:-1]) ** 2, abs=5e-16)
    with pytest.raises(ValueError):
        sample_siegel_boundary(1, seed=0, count=1)


@pytest.mark.parametrize("count", [0, 1, 257])
def test_sampler_arrays_shapes_and_pole_distance(count):
    sphere = sample_sphere(5, seed=14, count=count, min_pole_dist=0.6)
    assert sphere.shape == (count, 5)
    assert np.all(np.abs(1.0 + sphere[:, -1]) > 0.6)
    assert_allclose(np.linalg.norm(sphere, axis=1), 1.0, atol=1e-14)
    ball = sample_ball(5, seed=15, count=count, radius=0.7)
    assert ball.shape == (count, 5)
    assert np.all(np.linalg.norm(ball, axis=1) <= 0.7 + 1e-15)
    boundary = sample_siegel_boundary(5, seed=16, count=count)
    assert boundary.shape == (count, 5)
    assert np.all(np.linalg.norm(boundary[:, :-1], axis=1) <= 1.0 + 1e-15)
    assert np.all(np.abs(boundary[:, -1].real) <= 1.0)


def test_sample_sphere_unit_norm_and_pole_distance():
    points = sample_sphere(3, seed=4, count=100, min_pole_dist=0.3)
    for Z in points:
        assert np.linalg.norm(Z) == pytest.approx(1.0, abs=1e-14)
        assert abs(1.0 + Z[-1]) > 0.3


@pytest.mark.parametrize("min_pole_dist", [2.0, 3.0, np.inf, np.nan])
def test_sample_sphere_rejects_unreachable_pole_distance(min_pole_dist):
    """|1 + eta| <= 2 on the sphere, so no row could ever pass: the sampler
    raises at once instead of redrawing forever."""
    with pytest.raises(ValueError, match="min_pole_dist"):
        sample_sphere(3, 0, 2, min_pole_dist=min_pole_dist)
    assert len(sample_sphere(3, 0, 2, min_pole_dist=1.9)) == 2


def test_sample_ball_stays_inside_radius():
    for Z in sample_ball(3, seed=6, count=100, radius=0.7):
        assert np.linalg.norm(Z) <= 0.7 + 1e-15


@pytest.mark.parametrize("radius", [0.0, -1.0, np.inf, np.nan])
def test_sample_ball_rejects_a_radius_that_is_not_positive_and_finite(radius):
    """A NaN radius would give NaN rows and a negative one a mirrored ball:
    the sampler raises instead, as sample_sphere does for its pole distance."""
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        sample_ball(3, 0, 2, radius=radius)


def test_samplers_deterministic():
    a = sample_sphere(4, seed=10, count=5)
    b = sample_sphere(4, seed=10, count=5)
    for x, y in zip(a, b):
        assert_allclose(x, y)


def test_cayley_slice_is_holomorphic():
    """d/dt of a one-complex-parameter slice: circle quadrature matches
    central differences, which only agree when the slice is holomorphic."""
    rng = np.random.default_rng(8)
    Z0 = rng.standard_normal(3) * 0.2 + 0j
    V = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    V /= np.linalg.norm(V)

    def phi(t):  # the slice at every node t: Siegel rows (len(t), 3)
        return cayley(Z0 + t[:, None] * V)

    analytic = cauchy_derivative(phi, 1, DiffConfig(radius=0.05))
    step = 1e-5
    fd = np.subtract(*phi(np.array([step, -step]))) / (2 * step)
    assert np.max(np.abs(analytic - fd)) < 1e-6


class _RecordingNumpy:
    """numpy for ``geometry``'s namespace, with ``matmul`` recording the row
    count of every product the projective kernel makes."""

    def __init__(self):
        self.rows = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, x, M, **kwargs):
        self.rows.append(x.shape[-2])
        return np.matmul(x, M, **kwargs)


@pytest.fixture
def products(monkeypatch):
    recorder = _RecordingNumpy()
    monkeypatch.setattr(geometry, "np", recorder)
    return recorder.rows


def test_large_germ_extraction_makes_few_products(products):
    """A single d = 127 germ: each evaluation call of R rows is at most
    ceil(R / 48) kernel products (2^16 multiply-adds alone would cap a block
    at 3 rows, thousands of products per germ)."""
    H = as_holo_map(random_params(127, 3))
    calls = []

    def counting(rows):
        before = len(products)
        images = H.evaluate(rows)
        calls.append((rows.shape[-2], products[before:]))
        return images

    extract_jet2(replace(H, evaluate=counting))
    assert len(calls) > 1
    for R, blocks in calls:
        assert sum(blocks) == R
        assert len(blocks) <= math.ceil(R / 48)


@pytest.mark.parametrize("count", [2, 3, 47, 48, 49, 95, 97, 200])
def test_products_split_evenly_without_one_row_blocks(products, count):
    """At d = 255 (a 257 x 257 matrix) a product of R > 1 rows goes in the
    fewest blocks of at most 48 rows, sizes within one of each other, so no
    block is a single row handed to gemv."""
    Z = sample_ball(256, seed=4, count=count, radius=0.5)
    cayley(Z)
    assert sum(products) == count
    assert len(products) == math.ceil(count / 48)
    assert min(products) >= 2 and max(products) - min(products) <= 1


@pytest.mark.parametrize("dim", [31, 34])
def test_germ_products_below_the_floor_stay_on_one_thread(products, dim):
    """Up to (d + 2) = 36 the 2^16 cap is above the 48-row floor: every
    product of a single germ's extraction stays within 2^16 multiply-adds,
    the size OpenBLAS keeps on the calling thread."""
    extract_jet2(as_holo_map(random_params(dim, 3)))
    assert products and max(products) * (dim + 2) ** 2 <= 2**16


def _images(M, x):
    """``(M x~)[:-1] / (M x~)[-1]`` through the per-row product
    ``(M @ x~[..., None])[..., 0]``, scaled as the kernel scales it."""
    y = (M @ np.append(x, np.ones(x.shape[:-1] + (1,)), axis=-1)[..., None])[..., 0]
    y *= 1.0 / y[..., -1:]
    return y[..., :-1]


@pytest.mark.parametrize("dim", [1, 7, 63, 127])
def test_rows_of_one_matrix_each_match_per_row_products(dim):
    """One point against a stack, a stack on rows and one point on one
    matrix are evaluated as member-major rows of one: the images are
    bit-identical to per-row matrix-vector products, with the layout's
    shape, on both sides of the 64 x 64 size from which gemv is threaded."""
    stack, single = random_params(dim, 5, count=4), random_params(dim, 6)
    rng = np.random.default_rng(dim)
    x = rng.standard_normal((4, dim + 1)) + 1j * rng.standard_normal((4, dim + 1))
    x *= 0.25 * min(np.min(domain_radius(stack)), domain_radius(single)) / np.abs(x).max()
    for params, rows, shape in [(stack, x[0], (4, dim + 1)),
                                (stack, x, (4, dim + 1)),
                                (single, x[0], (dim + 1,))]:
        images = apply(params, rows)
        assert images.shape == shape
        assert np.array_equal(images, _images(matrix(params), rows))
