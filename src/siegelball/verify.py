"""Deterministic verification suites with line-delimited JSON reporting.

Four suites (``geometry``, ``autgroup``, ``jets``, ``examples``) re-run the
package's defining identities on seeded random data.  Every check group in
:data:`GROUPS` returns ``{check name: per-sample residual array}``, one entry
per check in report order and one residual per sample it used.  :func:`_check`
is the one sampling loop: it draws in even blocks within the jet layer's
2^15-entry budget, redraws rejected samples until a check has exactly the
count it asks for, and evaluates block by block.  :func:`run` alone reduces
the arrays: each check yields a :class:`CheckResult` with the largest residual
(0 for no samples), the tolerance it was held to, the array's size as its
sample count and the group's wall time.  ``geometry.interior_correspondence``
records 1.0 per misclassified point, so a failing run reports 1.0, not the
number of misses.  :func:`report` serialises the results as one JSON object
per line plus a trailing summary record.

Determinism: every suite owns a generator seeded from the master seed, the
dimension and the suite name, and checks draw from it in a fixed order and
in blocks the configuration sizes, so rerunning the same configuration
reproduces every residual bit for bit.
"""

from __future__ import annotations

import json
import math
import numbers
import time
import zlib
from dataclasses import asdict, astuple, dataclass, field

import numpy as np

from . import jets, maps
from .autgroup import (
    AutParams,
    _unchecked,
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
from .hilbert import UNITARY_TOL, _gram_defects, sq_norm
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
    "jets.recovery_unitarity": UNITARY_TOL,
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


def _draw(sample, n: int, rng, **kwargs):
    """The draw of rows ``sample(n, rng, count=count, **kwargs)`` alone."""
    return lambda count: (sample(n, rng, count=count, **kwargs),)


def _check(name, residual, entries: int, draw, want: int, keep=None) -> dict:
    """``{name: residuals}`` of ``want`` rows, or one array per name of a tuple of
    names.  ``draw(count)`` returns a tuple of arrays or AutParams stacks of count
    rows; it is called in the fewest even blocks of 2^15 // ``entries`` rows (at
    least one), ``entries`` being what a row holds: a (d + 2)^2 matrix, an output
    row or ``jets._member_entries``.  Each block is rebound to the rows the mask
    ``keep(*rows)`` passes before ``residual(*rows)`` runs, and rejected rows are
    redrawn until ``want`` pass or ten times that were drawn."""
    blocks, used, drawn = [], 0, 0
    while used < want and drawn < 10 * want:
        need = min(want - used, 10 * want - drawn)
        count = -(-need // max(1, jets._EVALUATION_ENTRIES // entries))
        for k in range(count):
            rows = draw(need * (k + 1) // count - need * k // count)
            mask = slice(None) if keep is None else keep(*rows)
            rows = [a[mask] for a in rows]
            blocks.append(residual(*rows))
            used += len(rows[0])
        drawn += need
    if isinstance(name, str):
        return {name: np.concatenate(blocks)}
    return {each: np.concatenate(parts) for each, parts in zip(name, zip(*blocks))}


def _h_r(d: int, R) -> AutParams:
    """The stack h_R = (I, 1, 0, R), one member per entry of R, without a Gram check."""
    ident = identity_params(d, len(R))
    return _unchecked(ident.U, ident.s, ident.a, R)


def _siegel_gap(p: np.ndarray, q) -> np.ndarray:
    """Per row ``max(||z_p - z_q||, |w_p - w_q|)`` of Siegel rows (..., n)."""
    diff = p - q
    return np.maximum(np.linalg.norm(diff[..., :-1], axis=-1), np.abs(diff[..., -1]))


# ---------------------------------------------------------------------------
# geometry suite

def _g_cayley_roundtrip(config: RunConfig, rng):
    n = config.dim

    def draw(count):  # a ball point and a Siegel row per item, half on the boundary
        half = count // 2
        ball = np.concatenate([sample_sphere(n, rng, half, min_pole_dist=0.1),
                               sample_ball(n, rng, count - half)])
        rows = sample_siegel_boundary(n, rng, count)
        rows[half:, -1] += 1j * rng.uniform(0.05, 1.0, count - half)
        return ball, rows

    def residual(ball, rows):  # ||back - x|| / (1 + ||x||), ball points first
        x = np.concatenate([ball, rows])
        back = np.concatenate([inverse_cayley(cayley(ball)), cayley(inverse_cayley(rows))])
        return np.linalg.norm(back - x, axis=1) / (1.0 + np.linalg.norm(x, axis=1))

    return _check("geometry.cayley_roundtrip", residual, n + 1, draw, config.samples)


def _g_boundary_correspondence(config: RunConfig, rng):
    return _check("geometry.boundary_correspondence",
                  lambda points: np.abs(siegel_defect(cayley(points))), config.dim + 1,
                  _draw(sample_sphere, config.dim, rng, min_pole_dist=0.1), config.samples)


def _g_interior_correspondence(config: RunConfig, rng):
    n = config.dim

    def draw(count):  # half inside radius 0.95, half outside radius 1.05
        half = count // 2
        exterior = sample_sphere(n, rng, count - half, min_pole_dist=0.15)
        exterior *= rng.uniform(1.05, 1.5, size=(count - half, 1))
        return (np.concatenate([sample_ball(n, rng, half, radius=0.95), exterior]),
                np.repeat([1.0, -1.0], [half, count - half]))

    def residual(points, inside):
        # Right side of the boundary band: -inside * ball defect and inside *
        # Siegel defect both exceed DEFECT_TOL (NaN counts as wrong).
        right = np.minimum(-inside * ball_defect(points),
                           inside * siegel_defect(cayley(points))) > DEFECT_TOL
        return (~right).astype(float)

    return _check("geometry.interior_correspondence", residual, n + 1, draw,
                  config.samples, keep=lambda points, _: np.abs(1.0 + points[:, -1]) > 0.05)


def _g_slice_derivative(config: RunConfig, rng):
    n = config.dim
    cfg = DiffConfig(radius=0.05)

    def residual(Z0, V):  # a slice holds its images at the M nodes
        def phi(t):  # every slice Z0 + t V at every node t: Siegel rows (len(t), count, n)
            return cayley(Z0 + t[:, None, None] * V)

        fd = np.subtract(*phi(np.array([1e-5, -1e-5]))) / 2e-5
        return np.abs(cauchy_derivative(phi, 1, cfg) - fd).max(axis=-1)

    return _check("geometry.cayley_slice_derivative", residual, cfg.nodes * (n + 1),
                  lambda count: (_radial_rows(rng, count, n, 0.3),
                                 _unit_rows(rng, count, n)), min(config.samples, 50))


# ---------------------------------------------------------------------------
# autgroup suite

def _a_origin_fixed(config: RunConfig, rng):
    d = config.dim - 1
    return _check("autgroup.origin_fixed", lambda params: _siegel_gap(
        apply(params, np.zeros((len(params), d + 1))), 0.0),
        (d + 2) ** 2, _draw(random_params, d, rng), min(config.samples, 200))


def _pairs(config: RunConfig, rng, sample):
    """The draw of a fresh random automorphism and a point ``sample(n, rng, count)``."""
    d = config.dim - 1
    return lambda count: (random_params(d, rng, count=count), sample(d + 1, rng, count))


def _a_boundary_invariance(config: RunConfig, rng):
    return _check("autgroup.boundary_invariance", lambda params, p: np.abs(siegel_defect(
        apply(params, p))) / (1.0 + np.abs(p[:, -1]) ** 2), (config.dim + 1) ** 2,
        _pairs(config, rng, sample_siegel_boundary), config.samples,
        keep=lambda params, p: np.abs(denominator(params, p)) > 0.1)


def _a_factorization(config: RunConfig, rng):
    return _check("autgroup.factorization", lambda params, p: _siegel_gap(
        apply(params, p), factor_apply(params, p)), (config.dim + 1) ** 2,
        _pairs(config, rng, sample_siegel_boundary), config.samples,
        keep=lambda params, p: (np.abs(denominator(params, p)) > 0.1)
        & (np.abs(1.0 + params.R * p[:, -1]) > 0.1))


def _a_h_r_defect(config: RunConfig, rng):
    d = config.dim - 1

    def residual(rows, r):  # one member of h_R per row
        lhs = siegel_defect(apply(_h_r(d, r), rows))
        rhs = siegel_defect(rows) / np.abs(1.0 + r * rows[:, -1]) ** 2
        return np.abs(lhs - rhs)

    return _check("autgroup.h_r_defect_scaling", residual, (d + 2) ** 2, lambda count: (
        _small_rows(rng, count, d, 1.0), rng.uniform(-2.0, 2.0, count)), config.samples,
        keep=lambda rows, r: np.abs(1.0 + r * rows[:, -1]) > 0.3)


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
    return _check("autgroup.ball_sphere_preserved", lambda params, Z: np.abs(
        ball_defect(ball_automorphism(params, Z))), (config.dim + 1) ** 2,
        _pairs(config, rng, sample_sphere), config.samples)


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
    """Closed-form gaps of the stack omega, phi_a, h_R, H of a base H; the name is
    kept, as perfbench names its metric ``verify.jets.finite_difference.s`` after it."""
    def residual(base):  # omega, phi_a, h_R and their product H: one stack
        members = zip(*map(astuple, (*factors(base), base)))
        return _closed_form_gaps(AutParams(*map(np.concatenate, members)))

    d = config.dim - 1
    return _check("jets.closed_form_jet", residual, 4 * jets._member_entries(d),
                  _draw(random_params, d, rng), 1)


def _j_recovery(config: RunConfig, rng):
    """Recovery of 100 draws in even blocks: 50 + 50 members at d = 7, 20 x 5 at d = 31."""
    def residuals(block):
        jet = extract_jet2(as_holo_map(block))
        _, U, R = recovery_terms(jet)
        return (param_distance(recover_params(jet), block), np.abs(R.imag),
                _gram_defects(U))

    d = config.dim - 1
    names = ("jets.recovery_params", "jets.recovery_im_r", "jets.recovery_unitarity")
    return _check(names, residuals, jets._member_entries(d), _draw(random_params, d, rng),
                  min(100, config.samples))


def _j_normalized_f_w2(config: RunConfig, rng):
    """The jets of 10 draws of h_R against their closed form, as in closed_form_jet."""
    d = config.dim - 1
    return _check("jets.normalized_f_w2", _closed_form_gaps, jets._member_entries(d),
                  lambda count: (_h_r(d, rng.uniform(-2, 2, count)),), 10)


def _j_levi(config: RunConfig, rng):
    d = config.dim - 1
    autos = max(1, min(10, config.samples // 100))
    per_auto = max(1, config.samples // autos)

    def draw(count):  # a germ and its per_auto samples (z, u)
        return (random_params(d, rng, count=count),
                _radial_rows(rng, count * per_auto, d, 0.05).reshape(count, per_auto, d),
                _unit_rows(rng, count * per_auto, d).reshape(count, per_auto, d))

    return _check("jets.levi_identity", lambda params, *rows: check_levi(
        as_holo_map(params), *rows),  # a germ holds its jet, then its per_auto images
        max(jets._member_entries(d), per_auto * (d + 2)), draw, autos)


def _j_polarization(config: RunConfig, rng):
    d = config.dim - 1
    autos = max(1, min(10, config.samples // 100))
    per_auto = max(1, config.samples // autos)

    def draw(count):  # a germ and its per_auto samples (z, chi, tau)
        rows = count * per_auto
        return (random_params(d, rng, count=count),
                _radial_rows(rng, rows, d, 0.04).reshape(count, per_auto, d),
                _radial_rows(rng, rows, d, 0.04).reshape(count, per_auto, d),
                _cscalars(rng, rows, 0.04).reshape(count, per_auto))

    return _check("jets.polarization_identity", lambda params, *rows: check_polarization(
        as_holo_map(params), *rows),  # a germ holds its images of (z, w) and (chi, tau)
        2 * per_auto * (d + 2), draw, autos)


# ---------------------------------------------------------------------------
# examples suite

def _random_lambda(rng, cap: int) -> np.ndarray:
    parts = rng.uniform(-1, 1, size=(cap, 2))
    return parts[:, 0] + 1j * parts[:, 1]


def _e_homog_norm_law(config: RunConfig, rng):
    n = min(config.dim, 4)
    lam = _random_lambda(rng, 4)
    H = maps.homog_sum_map(lam, n)
    return _check("examples.homog_norm_law", lambda Z: np.abs(
        sq_norm(H.evaluate(Z)) - maps.homog_sum_norm_squared(lam, Z)),
        H.output_dim, _draw(sample_ball, n, rng, radius=0.95), config.samples)


def _e_homog_sphere(config: RunConfig, rng):
    n = min(config.dim, 4)
    lam = _random_lambda(rng, 4)
    H = maps.homog_sum_map(lam / np.linalg.norm(lam), n)
    return _check("examples.homog_sphere_norm",
                  lambda Z: np.abs(sq_norm(H.evaluate(Z)) - 1.0), H.output_dim,
                  _draw(sample_sphere, n, rng), config.samples)


def _e_whitney_norm_law(config: RunConfig, rng):
    n = min(config.dim, 6)
    specs = [maps.WhitneySpec(p, n) for p in (1, 2, 3, 5)]
    specs.append(maps.WhitneySpec(maps.INFINITY, n, truncation=40))
    per_spec = max(1, config.samples // len(specs))
    name = "examples.whitney_norm_law"
    # A point holds power_count * n entries: its image and z_1-power array.
    gaps = [_check(name, lambda Z, spec=spec: np.abs(np.subtract(
        *maps.whitney_norm_identity(spec, Z))), spec.power_count * n,
        _draw(sample_ball, n, rng, radius=0.9), per_spec)[name] for spec in specs]
    return {name: np.concatenate(gaps)}


def _e_whitney_sphere(config: RunConfig, rng):
    n = min(config.dim, 6)
    per_degree = max(1, config.samples // 4)
    gaps = [np.abs(sq_norm(maps.whitney_map(maps.WhitneySpec(p, n)).evaluate(
        sample_sphere(n, rng, per_degree))) - 1.0) for p in (1, 2, 3, 5)]
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
    """The per-suite generator: seeded from (master seed, dimension, suite name)."""
    return np.random.default_rng([config.seed, config.dim, zlib.crc32(suite.encode())])


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
