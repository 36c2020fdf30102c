"""Deterministic verification suites with line-delimited JSON reporting.

Four suites (``geometry``, ``autgroup``, ``jets``, ``examples``) re-run the
package's defining identities on seeded random data.  Every check group in
:data:`GROUPS` returns ``{check name: per-sample residual array}``, one
entry per check in report order and one residual per sample it used, and
:func:`run` alone reduces them: each check yields a :class:`CheckResult`
with the largest residual (0 for no samples), the tolerance it was held
to, the array's size as its sample count and the group's wall time.
``geometry.interior_correspondence`` records 1.0 per misclassified point,
so a failing run reports 1.0, not the number of misses.  :func:`report`
serialises the results as one JSON object per line plus a trailing summary
record.

Determinism: every suite owns a generator derived from the master seed and
the suite name, and checks consume it in a fixed order, so rerunning the
same configuration reproduces every residual bit for bit.
"""

from __future__ import annotations

import json
import math
import numbers
import time
import zlib
from dataclasses import asdict, astuple, dataclass, field, replace

import numpy as np

from . import maps
from .autgroup import (
    AutParams,
    apply,
    as_holo_map,
    ball_automorphism,
    compose,
    composition_radius,
    denominator,
    domain_radius,
    factor_apply,
    factors,
    identity_params,
    invert,
    param_distance,
    random_params,
)
from .geometry import (
    DEFECT_TOL,
    _radial_rows,
    _unit_rows,
    ball_defect,
    cayley,
    inverse_cayley,
    sample_ball,
    sample_siegel_boundary,
    sample_sphere,
    siegel_defect,
)
from .hilbert import _gram_defects, sq_norm
from .jets import (
    DiffConfig,
    automorphism_jet2,
    cauchy_derivative,
    check_levi,
    check_polarization,
    extract_jet2,
    recover_params,
    recovery_terms,
)

SUITE_NAMES = ("geometry", "autgroup", "jets", "examples")

DEFAULT_TOLS = {
    "geometry.cayley_roundtrip": 1e-12,
    "geometry.boundary_correspondence": 1e-12,
    "geometry.interior_correspondence": 0.0,
    "geometry.cayley_slice_derivative": 1e-6,
    "autgroup.origin_fixed": 0.0,
    "autgroup.boundary_invariance": 1e-10,
    "autgroup.factorization": 1e-12,
    "autgroup.h_r_defect_scaling": 1e-12,
    "autgroup.compose_pointwise": 1e-9,
    "autgroup.invert_roundtrip": 1e-9,
    "autgroup.compose_associative": 1e-8,
    "autgroup.invert_two_sided": 1e-8,
    "autgroup.ball_sphere_preserved": 1e-9,
    "jets.cauchy_monomials": 1e-13,
    "jets.closed_form_jet": 1e-12,
    "jets.recovery_params": 1e-8,
    "jets.recovery_im_r": 1e-9,
    "jets.recovery_unitarity": 1e-9,
    "jets.normalized_f_w2": 1e-12,
    "jets.levi_identity": 1e-9,
    "jets.polarization_identity": 1e-9,
    "examples.homog_norm_law": 1e-12,
    "examples.homog_sphere_norm": 1e-12,
    "examples.whitney_norm_law": 1e-12,
    "examples.whitney_sphere": 1e-12,
    "examples.shift_isometry": 1e-13,
    "examples.enumeration_invariance": 1e-13,
}


@dataclass
class RunConfig:
    """Configuration of a verification run."""

    dim: int = 8
    seed: int = 1
    samples: int = 1000
    suites: tuple[str, ...] = SUITE_NAMES
    tol_overrides: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name, what, low in (("dim", "ball dimension", 2), ("seed", "seed", 0),
                                ("samples", "sample count", 1)):
            value = getattr(self, name)
            integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            if not (integer and value >= low):
                msg = f"{what} must be an integer >= {low}, got {value!r}"
                raise ValueError(msg)
        self.suites = tuple(self.suites)
        unknown = [s for s in self.suites if s not in SUITE_NAMES]
        if unknown:
            msg = f"unknown suites {unknown}; valid: {list(SUITE_NAMES)}"
            raise ValueError(msg)
        overrides = {}
        for name, tol in self.tol_overrides.items():
            if name not in DEFAULT_TOLS:
                msg = f"unknown check name {name!r} in tolerance overrides"
                raise ValueError(msg)
            tol = float(tol)
            if not np.isfinite(tol) or tol < 0:
                msg = f"tolerance for {name} must be finite and >= 0, got {tol}"
                raise ValueError(msg)
            overrides[name] = tol
        self.tol_overrides = overrides  # a new dict: the caller's stays as given


@dataclass(frozen=True, slots=True)
class CheckResult:
    """Outcome of a single named check.

    ``ms`` is the wall time of the check group that produced it; a group
    reporting several checks puts its time on the first and 0 on the rest.
    """

    name: str
    status: str
    residual: float
    tol: float
    samples: int
    ms: float


# ---------------------------------------------------------------------------
# small sampling and residual helpers

def _cscalars(rng, count: int, scale) -> np.ndarray:
    """Random complex numbers of modulus at most scale (a number or one per row)."""
    return scale * rng.uniform(size=count) * np.exp(2j * np.pi * rng.uniform(size=count))


def _small_rows(rng, count: int, d: int, scale) -> np.ndarray:
    """Siegel rows with ||z|| and |w| at most scale (one number, or one per row)."""
    scale = np.asarray(scale)
    return np.column_stack([_radial_rows(rng, count, d, scale[..., None]),
                            _cscalars(rng, count, scale)])


def _by_blocks(fn, *arrays, size: int = 100) -> np.ndarray:
    """``fn`` on consecutive blocks of at most ``size`` rows of each array, joined.

    Keeps wide intermediates (one output coordinate per multi-index, or one
    matrix per row) to a block's worth of memory.
    """
    count = max(1, -(-len(arrays[0]) // size))
    blocks = zip(*(np.array_split(array, count) for array in arrays))
    return np.concatenate([fn(*block) for block in blocks])


def _matrix_block(d: int) -> int:
    """Members per block whose (d + 2) x (d + 2) projective matrices hold at
    most 2^15 entries, near 0.5 MB: 3640 / 1310 / 404 at d = 1 / 3 / 7.
    A dim-8 run stays under its 2 MB traced peak."""
    return 2**15 // (d + 2) ** 2


def _siegel_gap(p: np.ndarray, q) -> np.ndarray:
    """Per row ``max(||z_p - z_q||, |w_p - w_q|)`` of Siegel rows (..., n)."""
    diff = p - q
    return np.maximum(np.linalg.norm(diff[..., :-1], axis=-1), np.abs(diff[..., -1]))


def _relative_gap(back: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per row ``||back - x|| / (1 + ||x||)``."""
    return np.linalg.norm(back - x, axis=1) / (1.0 + np.linalg.norm(x, axis=1))


# ---------------------------------------------------------------------------
# geometry suite

def _g_cayley_roundtrip(config: RunConfig, rng):
    n = config.dim
    count = config.samples
    half = count // 2
    ball = np.concatenate([sample_sphere(n, rng, half, min_pole_dist=0.1),
                           sample_ball(n, rng, count - half)])
    rows = np.concatenate([sample_siegel_boundary(n, rng, half),
                           sample_siegel_boundary(n, rng, count - half)])
    rows[half:, -1] += 1j * rng.uniform(0.05, 1.0, count - half)
    return {"geometry.cayley_roundtrip": np.concatenate([
        _relative_gap(inverse_cayley(cayley(ball)), ball),
        _relative_gap(cayley(inverse_cayley(rows)), rows)])}


def _g_boundary_correspondence(config: RunConfig, rng):
    points = sample_sphere(config.dim, rng, config.samples, min_pole_dist=0.1)
    return {"geometry.boundary_correspondence":
            np.abs(siegel_defect(cayley(points)))}


def _g_interior_correspondence(config: RunConfig, rng):
    n = config.dim
    half = config.samples // 2
    interior = sample_ball(n, rng, half, radius=0.95)
    exterior = sample_sphere(n, rng, config.samples - half, min_pole_dist=0.15)
    exterior *= rng.uniform(1.05, 1.5, size=(len(exterior), 1))
    points = np.concatenate([interior, exterior])
    inside = np.repeat([1.0, -1.0], [len(interior), len(exterior)])
    keep = np.abs(1.0 + points[:, -1]) > 0.05
    points, inside = points[keep], inside[keep]
    # Right side of the boundary band: -inside * ball defect and inside *
    # Siegel defect both exceed DEFECT_TOL (NaN counts as wrong).
    right = np.minimum(-inside * ball_defect(points),
                       inside * siegel_defect(cayley(points))) > DEFECT_TOL
    return {"geometry.interior_correspondence": (~right).astype(float)}


def _g_slice_derivative(config: RunConfig, rng):
    n = config.dim
    count = min(config.samples, 50)
    cfg = DiffConfig(radius=0.05)
    step = 1e-5
    Z0 = _radial_rows(rng, count, n, 0.3)
    V = _unit_rows(rng, count, n)

    def phi(t):  # every slice Z0 + t V at every node t: Siegel rows (len(t), count, n)
        return cayley(Z0 + t[:, None, None] * V)

    analytic = cauchy_derivative(phi, 1, cfg)
    fd = np.subtract(*phi(np.array([step, -step]))) / (2 * step)
    return {"geometry.cayley_slice_derivative": np.abs(analytic - fd).max(axis=-1)}


# ---------------------------------------------------------------------------
# autgroup suite

def _a_origin_fixed(config: RunConfig, rng):
    d = config.dim - 1
    count = min(config.samples, 200)
    images = apply(random_params(d, rng, count=count), np.zeros((count, d + 1)))
    return {"autgroup.origin_fixed": _siegel_gap(images, 0.0)}


def _pair_check(config: RunConfig, rng, sample, residual, accept=None):
    """Residuals of pairs of one fresh random automorphism and one point.

    Pairs are drawn in blocks until ``config.samples`` pass
    ``accept(params, points)`` (a mask over the rows; without it every pair
    passes) or ``10 * config.samples`` were tried; ``residual(params, points)``
    runs on each block's accepted pairs, one residual per pair.  A block
    holds :func:`_matrix_block` members: 1 / 1 / 3 blocks of the default
    1000 pairs at n = 2 / 4 / 8.  Returns the accepted pairs' residuals.
    """
    d, want = config.dim - 1, config.samples
    blocks, used, tried = [], 0, 0
    while used < want and tried < 10 * want:
        batch = min(want - used, 10 * want - tried, _matrix_block(d))
        params = random_params(d, rng, count=batch)
        points = sample(batch)
        if accept is not None:
            keep = accept(params, points)
            params, points = params[keep], points[keep]
        blocks.append(residual(params, points))
        used += len(points)
        tried += batch
    return np.concatenate(blocks)


def _a_boundary_invariance(config: RunConfig, rng):
    def residual(params, p):
        scale = 1.0 + np.abs(p[:, -1]) ** 2
        return np.abs(siegel_defect(apply(params, p))) / scale

    return {"autgroup.boundary_invariance": _pair_check(
        config, rng,
        lambda count: sample_siegel_boundary(config.dim, rng, count),
        residual,
        lambda params, p: np.abs(denominator(params, p)) > 0.1,
    )}


def _a_factorization(config: RunConfig, rng):
    def accept(params, p):
        return (np.abs(denominator(params, p)) > 0.1) & (
            np.abs(1.0 + params.R * p[:, -1]) > 0.1)

    return {"autgroup.factorization": _pair_check(
        config, rng,
        lambda count: sample_siegel_boundary(config.dim, rng, count),
        lambda params, p: _siegel_gap(apply(params, p), factor_apply(params, p)),
        accept,
    )}


def _a_h_r_defect(config: RunConfig, rng):
    d = config.dim - 1
    points = _small_rows(rng, config.samples, d, 1.0)
    R = rng.uniform(-2.0, 2.0, config.samples)
    den = 1.0 + R * points[:, -1]
    keep = np.abs(den) > 0.3
    points, R, den = points[keep], R[keep], den[keep]

    def image_defect(rows, r):  # h_R = (I, 1, 0, R), one member per row
        return siegel_defect(apply(replace(identity_params(d, len(r)), R=r), rows))

    lhs = _by_blocks(image_defect, points, R, size=_matrix_block(d))
    rhs = siegel_defect(points) / np.abs(den) ** 2
    return {"autgroup.h_r_defect_scaling": np.abs(lhs - rhs)}


def _a_compose_pointwise(config: RunConfig, rng):
    d = config.dim - 1
    npairs = max(2, min(10, config.samples // 100))
    outer = random_params(d, rng, count=npairs)
    inner = random_params(d, rng, count=npairs)
    scale = np.repeat(0.3 * composition_radius(outer, inner), 25)  # 25 points per pair
    points = _small_rows(rng, len(scale), d, scale).reshape(npairs, 25, d + 1)
    direct = apply(compose(outer, inner), points)  # member-major rows
    chained = apply(outer, apply(inner, points))
    return {"autgroup.compose_pointwise": _siegel_gap(direct, chained)}


def _a_invert_roundtrip(config: RunConfig, rng):
    d = config.dim - 1
    draws = max(2, min(10, config.samples // 100))
    params = random_params(d, rng, count=draws)
    scale = np.repeat(0.3 * domain_radius(params), 25)  # 25 points per draw
    points = _small_rows(rng, len(scale), d, scale).reshape(draws, 25, d + 1)
    back = apply(invert(params), apply(params, points))  # member-major rows
    return {"autgroup.invert_roundtrip": _siegel_gap(back, points)}


def _a_compose_associative(config: RunConfig, rng):
    d = config.dim - 1
    a, b, c = (random_params(d, rng, count=3) for _ in range(3))
    return {"autgroup.compose_associative":
            param_distance(compose(compose(a, b), c), compose(a, compose(b, c)))}


def _a_invert_two_sided(config: RunConfig, rng):
    d = config.dim - 1
    params = random_params(d, rng, count=4)
    inverse = invert(params)
    ident = identity_params(d)
    return {"autgroup.invert_two_sided":
            np.maximum(param_distance(compose(params, inverse), ident),
                       param_distance(compose(inverse, params), ident))}


def _a_ball_sphere(config: RunConfig, rng):
    # C^-1 M C has no pole on the closed ball: every sphere point is used.
    return {"autgroup.ball_sphere_preserved": _pair_check(
        config, rng,
        lambda count: sample_sphere(config.dim, rng, count),
        lambda params, Z: np.abs(ball_defect(ball_automorphism(params, Z))),
    )}


# ---------------------------------------------------------------------------
# jets suite

def _j_cauchy_monomials(config: RunConfig, rng):
    cfg = DiffConfig()
    degrees = np.arange(cfg.nodes // 2 + 1)
    gaps = []
    for order in range(9):
        # Every monomial t^degree of degree >= order at once.
        values = cauchy_derivative(lambda t: t[:, None] ** degrees, order, cfg)[order:]
        scale = float(math.factorial(order))
        expected = np.where(degrees[order:] == order, scale, 0.0)
        gaps.append(np.abs(values - expected) / scale)
    return {"jets.cauchy_monomials": np.concatenate(gaps)}


def _closed_form_gaps(params: AutParams) -> np.ndarray:
    """Per member of a stack, the largest |e - c| / (1 + |c|) over every entry
    of its extracted jet e against the closed form c of automorphism_jet2."""
    pairs = zip(astuple(extract_jet2(as_holo_map(params))),
                astuple(automorphism_jet2(params)))
    return np.max([(np.abs(e - c) / (1.0 + np.abs(c))).reshape(len(c), -1).max(axis=1)
                   for e, c in pairs], axis=0)


def _j_finite_difference(config: RunConfig, rng):
    """Closed-form gaps of the stack omega, phi_a, h_R, H; the name is kept, as
    perfbench names its metric ``verify.jets.finite_difference.s`` after it."""
    base = random_params(config.dim - 1, rng, count=1)
    members = (*factors(base), base)  # omega, phi_a, h_R and their product: one stack
    stack = AutParams(*map(np.concatenate, zip(*map(astuple, members))))
    return {"jets.closed_form_jet": _closed_form_gaps(stack)}


def _j_recovery(config: RunConfig, rng):
    """Recovery of 100 draws, in blocks of members whose jets and projective
    matrices stay small: 50 / 14 / 3 members at d = 7 / 15 / 31."""
    stack = random_params(config.dim - 1, rng, count=min(100, config.samples))
    size = max(1, _matrix_block(stack.dim) // 8)
    blocks = []
    for start in range(0, len(stack.s), size):
        block = stack[start:start + size]
        jet = extract_jet2(as_holo_map(block))
        _, U, R = recovery_terms(jet)
        blocks.append((param_distance(recover_params(jet), block),
                       np.abs(R.imag), _gram_defects(U)))
    names = ("jets.recovery_params", "jets.recovery_im_r", "jets.recovery_unitarity")
    return dict(zip(names, map(np.concatenate, zip(*blocks))))


def _j_normalized_f_w2(config: RunConfig, rng):
    """The jets of 10 draws of h_R against their closed form, as in
    :func:`_j_finite_difference`."""
    R = rng.uniform(-2, 2, 10)
    return {"jets.normalized_f_w2":
            _closed_form_gaps(replace(identity_params(config.dim - 1, len(R)), R=R))}


def _j_levi(config: RunConfig, rng):
    d = config.dim - 1
    autos = max(1, min(10, config.samples // 100))
    per_auto = max(1, config.samples // autos)
    stack = random_params(d, rng, count=autos)
    zs = _radial_rows(rng, autos * per_auto, d, 0.05).reshape(autos, per_auto, d)
    us = _unit_rows(rng, autos * per_auto, d).reshape(autos, per_auto, d)
    return {"jets.levi_identity": check_levi(as_holo_map(stack), zs, us)}


def _j_polarization(config: RunConfig, rng):
    d = config.dim - 1
    autos = max(1, min(10, config.samples // 100))
    per_auto = max(1, config.samples // autos)
    stack = random_params(d, rng, count=autos)
    zs = _radial_rows(rng, autos * per_auto, d, 0.04).reshape(autos, per_auto, d)
    chis = _radial_rows(rng, autos * per_auto, d, 0.04).reshape(autos, per_auto, d)
    taus = _cscalars(rng, autos * per_auto, 0.04).reshape(autos, per_auto)
    return {"jets.polarization_identity":
            check_polarization(as_holo_map(stack), zs, chis, taus)}


# ---------------------------------------------------------------------------
# examples suite

def _random_lambda(rng, cap: int) -> np.ndarray:
    parts = rng.uniform(-1, 1, size=(cap, 2))
    return parts[:, 0] + 1j * parts[:, 1]


def _e_homog_norm_law(config: RunConfig, rng):
    n = min(config.dim, 4)
    lam = _random_lambda(rng, 4)
    H = maps.homog_sum_map(lam, n)
    points = sample_ball(n, rng, config.samples, radius=0.95)
    brute = _by_blocks(lambda Z: sq_norm(H.evaluate(Z)), points)
    return {"examples.homog_norm_law":
            np.abs(brute - maps.homog_sum_norm_squared(lam, points))}


def _e_homog_sphere(config: RunConfig, rng):
    n = min(config.dim, 4)
    lam = _random_lambda(rng, 4)
    H = maps.homog_sum_map(lam / np.linalg.norm(lam), n)
    points = sample_sphere(n, rng, config.samples)
    return {"examples.homog_sphere_norm":
            np.abs(_by_blocks(lambda Z: sq_norm(H.evaluate(Z)), points) - 1.0)}


def _e_whitney_norm_law(config: RunConfig, rng):
    n = min(config.dim, 6)
    specs = [maps.WhitneySpec(p, n) for p in (1, 2, 3, 5)]
    specs.append(maps.WhitneySpec(maps.INFINITY, n, truncation=40))
    per_spec = max(1, config.samples // len(specs))
    gaps = []
    for spec in specs:
        Z = sample_ball(n, rng, per_spec, radius=0.9)
        lhs, rhs = maps.whitney_norm_identity(spec, Z)
        gaps.append(np.abs(lhs - rhs))
    return {"examples.whitney_norm_law": np.concatenate(gaps)}


def _e_whitney_sphere(config: RunConfig, rng):
    n = min(config.dim, 6)
    per_degree = max(1, config.samples // 4)
    gaps = []
    for p in (1, 2, 3, 5):
        H = maps.whitney_map(maps.WhitneySpec(p, n))
        out = H.evaluate(sample_sphere(n, rng, per_degree))
        gaps.append(np.abs(sq_norm(out) - 1.0))
    return {"examples.whitney_sphere": np.concatenate(gaps)}


def _e_shift(config: RunConfig, rng):
    n = config.dim
    count = min(config.samples, 200)
    Z = _radial_rows(rng, count, n, 1.2)
    image = maps.shift_map(n).evaluate(Z)
    return {"examples.shift_isometry":
            np.abs(np.linalg.norm(image, axis=1) - np.linalg.norm(Z, axis=1))}


def _e_enumeration(config: RunConfig, rng):
    n = 3
    lam = _random_lambda(rng, 3)
    H1 = maps.homog_sum_map(lam, n)
    H2 = maps.homog_sum_map(lam, n, order=rng.permutation(H1.output_dim))
    count = min(config.samples, 200)
    Z = sample_ball(n, rng, count, radius=0.95)
    return {"examples.enumeration_invariance":
            np.abs(sq_norm(H1.evaluate(Z)) - sq_norm(H2.evaluate(Z)))}


# ---------------------------------------------------------------------------
# runner

GROUPS = {
    "geometry": [
        _g_cayley_roundtrip,
        _g_boundary_correspondence,
        _g_interior_correspondence,
        _g_slice_derivative,
    ],
    "autgroup": [
        _a_origin_fixed,
        _a_boundary_invariance,
        _a_factorization,
        _a_h_r_defect,
        _a_compose_pointwise,
        _a_invert_roundtrip,
        _a_compose_associative,
        _a_invert_two_sided,
        _a_ball_sphere,
    ],
    "jets": [
        _j_cauchy_monomials,
        _j_finite_difference,
        _j_recovery,
        _j_normalized_f_w2,
        _j_levi,
        _j_polarization,
    ],
    "examples": [
        _e_homog_norm_law,
        _e_homog_sphere,
        _e_whitney_norm_law,
        _e_whitney_sphere,
        _e_shift,
        _e_enumeration,
    ],
}


def suite_rng(config: RunConfig, suite: str) -> np.random.Generator:
    """The per-suite generator: seeded from (master seed, suite name)."""
    return np.random.default_rng([config.seed, zlib.crc32(suite.encode())])


def run(config: RunConfig) -> list[CheckResult]:
    """Execute the configured suites and collect one result per check: the
    largest of its per-sample residuals (0 for none) and their count."""
    results: list[CheckResult] = []
    for suite in config.suites:
        rng = suite_rng(config, suite)
        for group in GROUPS[suite]:
            start = time.perf_counter()
            residuals = group(config, rng)
            ms = (time.perf_counter() - start) * 1000.0
            for name, r in residuals.items():
                residual = float(np.max(r, initial=0.0))
                tol = float(config.tol_overrides.get(name, DEFAULT_TOLS[name]))
                status = "pass" if residual <= tol else "fail"
                results.append(CheckResult(name, status, residual, tol, r.size, ms))
                ms = 0.0  # the group's time goes on its first check only
    return results


def summarize(results: list[CheckResult]) -> dict:
    """Summary record: overall status, check count, failure count, time."""
    failures = sum(1 for r in results if r.status != "pass")
    return {
        "name": "summary",
        "status": "pass" if failures == 0 else "fail",
        "checks": len(results),
        "failures": failures,
        "ms": float(sum(r.ms for r in results)),
    }


def report(results: list[CheckResult]) -> str:
    """Line-delimited JSON: one record per check plus a summary record."""
    lines = [json.dumps(asdict(r)) for r in results]
    lines.append(json.dumps(summarize(results)))
    return "\n".join(lines) + "\n"
