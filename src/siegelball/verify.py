"""Deterministic verification suites with line-delimited JSON reporting.

Four suites (``geometry``, ``autgroup``, ``jets``, ``examples``) re-run the
package's defining identities on seeded random data.  Each check yields a
:class:`CheckResult` with a max residual, the tolerance it was held to, the
sample count actually used and the wall time; :func:`report` serialises the
results as one JSON object per line plus a trailing summary record.

Determinism: every suite owns a generator derived from the master seed and
the suite name, and checks consume it in a fixed order, so rerunning the
same configuration reproduces every residual bit for bit.
"""

from __future__ import annotations

import json
import math
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import autgroup, geometry, jets, maps
from .autgroup import (
    HoloMap,
    apply,
    as_holo_map,
    ball_automorphism,
    compose,
    composition_radius,
    denominator,
    factor_apply,
    h_R_apply,
    identity_params,
    invert,
    param_distance,
    random_params,
)
from .geometry import (
    SiegelPoint,
    ball_defect,
    cayley,
    inverse_cayley,
    sample_ball,
    sample_siegel_boundary,
    sample_sphere,
    siegel_defect,
)
from .hilbert import norm, unitarity_defect
from .jets import (
    DiffConfig,
    Jet2,
    cauchy_derivative,
    check_levi,
    check_polarization,
    extract_jet2,
    recover_params,
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
    "jets.jet_finite_difference": 1e-4,
    "jets.recovery_params": 1e-8,
    "jets.recovery_im_r": 1e-9,
    "jets.recovery_unitarity": 1e-9,
    "jets.normalized_f_w2": 1e-9,
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
        if self.dim < 2:
            msg = f"ball dimension must be >= 2, got {self.dim}"
            raise ValueError(msg)
        if self.samples < 1:
            msg = f"sample count must be >= 1, got {self.samples}"
            raise ValueError(msg)
        self.suites = tuple(self.suites)
        unknown = [s for s in self.suites if s not in SUITE_NAMES]
        if unknown:
            msg = f"unknown suites {unknown}; valid: {list(SUITE_NAMES)}"
            raise ValueError(msg)
        for name, tol in self.tol_overrides.items():
            if name not in DEFAULT_TOLS:
                msg = f"unknown check name {name!r} in tolerance overrides"
                raise ValueError(msg)
            tol = float(tol)
            if not np.isfinite(tol) or tol < 0:
                msg = f"tolerance for {name} must be finite and >= 0, got {tol}"
                raise ValueError(msg)
            self.tol_overrides[name] = tol


@dataclass(frozen=True)
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
# small sampling helpers

def _cvector(rng, d: int, scale: float) -> np.ndarray:
    """Random vector of C^d with norm at most scale."""
    g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return g / np.linalg.norm(g) * (scale * rng.uniform())


def _cunit(rng, d: int) -> np.ndarray:
    g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return g / np.linalg.norm(g)


def _cscalar(rng, scale: float) -> complex:
    return scale * rng.uniform() * np.exp(2j * np.pi * rng.uniform())


def _point_vec(p: SiegelPoint) -> np.ndarray:
    return np.append(p.z, p.w)


def finite_difference_jet2(H: HoloMap, step: float = 1e-5) -> Jet2:
    """Independent second-order jet oracle using central differences."""
    d = H.dim
    basis = np.eye(d, dtype=complex)
    zero = np.zeros(d)

    def ev(z, w) -> SiegelPoint:
        return H.evaluate(SiegelPoint(z, w))

    at0 = ev(zero, 0.0)
    f_z = np.empty((d, d), dtype=complex)
    g_z = np.empty(d, dtype=complex)
    for j in range(d):
        hi = ev(step * basis[j], 0.0)
        lo = ev(-step * basis[j], 0.0)
        f_z[:, j] = (hi.z - lo.z) / (2 * step)
        g_z[j] = (hi.w - lo.w) / (2 * step)
    hi = ev(zero, step)
    lo = ev(zero, -step)
    f_w = (hi.z - lo.z) / (2 * step)
    g_w = (hi.w - lo.w) / (2 * step)
    f_w2 = (hi.z - 2 * at0.z + lo.z) / step**2
    g_w2 = (hi.w - 2 * at0.w + lo.w) / step**2
    f_zw = np.empty((d, d), dtype=complex)
    for j in range(d):
        pp = ev(step * basis[j], step).z
        pm = ev(step * basis[j], -step).z
        mp = ev(-step * basis[j], step).z
        mm = ev(-step * basis[j], -step).z
        f_zw[:, j] = (pp - pm - mp + mm) / (4 * step**2)
    return Jet2(f_z=f_z, f_w=f_w, g_z=g_z, g_w=complex(g_w),
                g_w2=complex(g_w2), f_zw=f_zw, f_w2=f_w2)


# ---------------------------------------------------------------------------
# geometry suite

def _g_cayley_roundtrip(config: RunConfig, rng):
    n = config.dim
    count = config.samples
    worst = 0.0
    ball_side = sample_sphere(n, rng, count // 2, min_pole_dist=0.1)
    ball_side += sample_ball(n, rng, count - count // 2)
    for Z in ball_side:
        back = inverse_cayley(cayley(Z))
        worst = max(worst, float(np.linalg.norm(back - Z)) / (1.0 + norm(Z)))
    siegel_side = sample_siegel_boundary(n, rng, count // 2)
    for p in sample_siegel_boundary(n, rng, count - count // 2):
        siegel_side.append(SiegelPoint(p.z, p.w + 1j * rng.uniform(0.05, 1.0)))
    for p in siegel_side:
        back = cayley(inverse_cayley(p))
        gap = float(np.linalg.norm(_point_vec(back) - _point_vec(p)))
        worst = max(worst, gap / (1.0 + float(np.linalg.norm(_point_vec(p)))))
    return [("geometry.cayley_roundtrip", worst, 2 * count)]


def _g_boundary_correspondence(config: RunConfig, rng):
    worst = 0.0
    points = sample_sphere(config.dim, rng, config.samples, min_pole_dist=0.1)
    for Z in points:
        worst = max(worst, abs(siegel_defect(cayley(Z)).value))
    return [("geometry.boundary_correspondence", worst, len(points))]


def _g_interior_correspondence(config: RunConfig, rng):
    n = config.dim
    mismatches = 0
    used = 0
    interior = sample_ball(n, rng, config.samples // 2, radius=0.95)
    exterior = [
        Z * rng.uniform(1.05, 1.5)
        for Z in sample_sphere(n, rng, config.samples - config.samples // 2,
                               min_pole_dist=0.15)
    ]
    for Z, expected in [(Z, "interior") for Z in interior] + [
        (Z, "exterior") for Z in exterior
    ]:
        if abs(1.0 + Z[-1]) <= 0.05:
            continue
        used += 1
        if ball_defect(Z).classification != expected:
            mismatches += 1
            continue
        image_cls = siegel_defect(cayley(Z)).classification
        if image_cls != expected:
            mismatches += 1
    return [("geometry.interior_correspondence", float(mismatches), used)]


def _g_slice_derivative(config: RunConfig, rng):
    n = config.dim
    count = min(config.samples, 50)
    cfg = DiffConfig(radius=0.05)
    step = 1e-5
    worst = 0.0
    for _ in range(count):
        Z0 = _cvector(rng, n, 0.3)
        V = _cunit(rng, n)

        def phi(t):
            return _point_vec(cayley(Z0 + t * V))

        analytic = cauchy_derivative(phi, 1, cfg)
        fd = (phi(step) - phi(-step)) / (2 * step)
        worst = max(worst, float(np.max(np.abs(analytic - fd))))
    return [("geometry.cayley_slice_derivative", worst, count)]


# ---------------------------------------------------------------------------
# autgroup suite

def _a_origin_fixed(config: RunConfig, rng):
    d = config.dim - 1
    count = min(config.samples, 200)
    origin = SiegelPoint(np.zeros(d), 0.0)
    worst = 0.0
    for _ in range(count):
        image = apply(random_params(d, rng), origin)
        worst = max(worst, max(norm(image.z), abs(image.w)))
    return [("autgroup.origin_fixed", worst, count)]


def _draw_boundary_pairs(config: RunConfig, rng, accept):
    """Draw (params, boundary point) pairs until config.samples are accepted."""
    d = config.dim - 1
    pairs = []
    attempts = 0
    while len(pairs) < config.samples and attempts < 10 * config.samples:
        attempts += 1
        params = random_params(d, rng)
        p = sample_siegel_boundary(config.dim, rng, 1)[0]
        if accept(params, p):
            pairs.append((params, p))
    return pairs


def _a_boundary_invariance(config: RunConfig, rng):
    def accept(params, p):
        return abs(denominator(params, p)) > 0.1

    worst = 0.0
    pairs = _draw_boundary_pairs(config, rng, accept)
    for params, p in pairs:
        image = apply(params, p)
        scale = 1.0 + abs(p.w) ** 2
        worst = max(worst, abs(siegel_defect(image).value) / scale)
    return [("autgroup.boundary_invariance", worst, len(pairs))]


def _a_factorization(config: RunConfig, rng):
    def accept(params, p):
        return (
            abs(denominator(params, p)) > 0.1
            and abs(1.0 + params.R * p.w) > 0.1
        )

    worst = 0.0
    pairs = _draw_boundary_pairs(config, rng, accept)
    for params, p in pairs:
        direct = apply(params, p)
        factored = factor_apply(params, p)
        worst = max(
            worst,
            max(norm(direct.z - factored.z), abs(direct.w - factored.w)),
        )
    return [("autgroup.factorization", worst, len(pairs))]


def _a_h_r_defect(config: RunConfig, rng):
    d = config.dim - 1
    worst = 0.0
    used = 0
    for _ in range(config.samples):
        z = _cvector(rng, d, 1.0)
        w = _cscalar(rng, 1.0)
        R = rng.uniform(-2.0, 2.0)
        den = 1.0 + R * w
        if abs(den) <= 0.3:
            continue
        used += 1
        p = SiegelPoint(z, w)
        image = h_R_apply(R, p)
        lhs = siegel_defect(image).value
        rhs = siegel_defect(p).value / abs(den) ** 2
        worst = max(worst, abs(lhs - rhs))
    return [("autgroup.h_r_defect_scaling", worst, used)]


def _small_points(rng, d: int, scale: float, count: int):
    return [
        SiegelPoint(_cvector(rng, d, scale), _cscalar(rng, scale))
        for _ in range(count)
    ]


def _a_compose_pointwise(config: RunConfig, rng):
    d = config.dim - 1
    npairs = max(2, min(10, config.samples // 100))
    worst = 0.0
    used = 0
    for _ in range(npairs):
        outer = random_params(d, rng)
        inner = random_params(d, rng)
        combined = compose(outer, inner)
        radius = composition_radius(outer, inner)
        for p in _small_points(rng, d, 0.3 * radius, 25):
            direct = apply(combined, p)
            chained = apply(outer, apply(inner, p))
            worst = max(
                worst,
                max(norm(direct.z - chained.z), abs(direct.w - chained.w)),
            )
            used += 1
    return [("autgroup.compose_pointwise", worst, used)]


def _a_invert_roundtrip(config: RunConfig, rng):
    d = config.dim - 1
    draws = max(2, min(10, config.samples // 100))
    worst = 0.0
    used = 0
    for _ in range(draws):
        params = random_params(d, rng)
        inverse = invert(params)
        radius = as_holo_map(params).domain_radius
        for p in _small_points(rng, d, 0.3 * radius, 25):
            back = apply(inverse, apply(params, p))
            worst = max(worst, max(norm(back.z - p.z), abs(back.w - p.w)))
            used += 1
    return [("autgroup.invert_roundtrip", worst, used)]


def _a_compose_associative(config: RunConfig, rng):
    d = config.dim - 1
    triples = 3
    worst = 0.0
    for _ in range(triples):
        a = random_params(d, rng)
        b = random_params(d, rng)
        c = random_params(d, rng)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        worst = max(worst, param_distance(left, right))
    return [("autgroup.compose_associative", worst, triples)]


def _a_invert_two_sided(config: RunConfig, rng):
    d = config.dim - 1
    draws = 4
    ident = identity_params(d)
    worst = 0.0
    for _ in range(draws):
        params = random_params(d, rng)
        inverse = invert(params)
        worst = max(worst, param_distance(compose(params, inverse), ident))
        worst = max(worst, param_distance(compose(inverse, params), ident))
    return [("autgroup.invert_two_sided", worst, draws)]


def _a_ball_sphere(config: RunConfig, rng):
    d = config.dim - 1
    worst = 0.0
    used = 0
    attempts = 0
    while used < config.samples and attempts < 10 * config.samples:
        attempts += 1
        params = random_params(d, rng)
        Z = sample_sphere(config.dim, rng, 1, min_pole_dist=0.15)[0]
        p = cayley(Z)
        if abs(denominator(params, p)) <= 0.1:
            continue
        image = apply(params, p)
        if abs(1j + image.w) <= 0.1:
            continue
        worst = max(worst, abs(ball_defect(ball_automorphism(params, Z)).value))
        used += 1
    return [("autgroup.ball_sphere_preserved", worst, used)]


# ---------------------------------------------------------------------------
# jets suite

def _j_cauchy_monomials(config: RunConfig, rng):
    cfg = DiffConfig()
    worst = 0.0
    used = 0
    for degree in range(0, cfg.nodes // 2 + 1):
        for order in range(0, min(degree, 8) + 1):
            value = cauchy_derivative(lambda t: t**degree, order, cfg)
            expected = float(math.factorial(order)) if order == degree else 0.0
            scale = max(1.0, float(math.factorial(order)))
            worst = max(worst, abs(value - expected) / scale)
            used += 1
    return [("jets.cauchy_monomials", worst, used)]


def _j_finite_difference(config: RunConfig, rng):
    d = config.dim - 1
    base = random_params(d, rng)
    zero = np.zeros(d, dtype=complex)
    eye = np.eye(d, dtype=complex)
    generators = [
        autgroup.AutParams(base.U, base.s, zero, 0.0),
        autgroup.AutParams(eye, 1.0, base.a, 0.0),
        autgroup.AutParams(eye, 1.0, zero, base.R),
        base,
    ]
    worst = 0.0
    used = 0
    for params in generators:
        H = as_holo_map(params)
        exact = extract_jet2(H)
        fd = finite_difference_jet2(H)
        for name in ("f_z", "f_w", "g_z", "g_w", "g_w2", "f_zw", "f_w2"):
            gap = np.max(np.abs(np.atleast_1d(getattr(exact, name))
                                - np.atleast_1d(getattr(fd, name))))
            worst = max(worst, float(gap))
            used += int(np.atleast_1d(getattr(exact, name)).size)
    return [("jets.jet_finite_difference", worst, used)]


def _j_recovery(config: RunConfig, rng):
    d = config.dim - 1
    draws = min(100, config.samples)
    worst_dist = 0.0
    worst_im_r = 0.0
    worst_unitary = 0.0
    for _ in range(draws):
        params = random_params(d, rng)
        jet = extract_jet2(as_holo_map(params))
        recovered = recover_params(jet)
        worst_dist = max(worst_dist, param_distance(recovered, params))
        r_complex = (-0.5 * jet.g_w2 + 1j * norm(jet.f_w) ** 2) / jet.g_w
        worst_im_r = max(worst_im_r, abs(r_complex.imag))
        worst_unitary = max(
            worst_unitary,
            unitarity_defect(jet.f_z / np.sqrt(jet.g_w.real)),
        )
    return [
        ("jets.recovery_params", worst_dist, draws),
        ("jets.recovery_im_r", worst_im_r, draws),
        ("jets.recovery_unitarity", worst_unitary, draws),
    ]


def _j_normalized_f_w2(config: RunConfig, rng):
    d = config.dim - 1
    draws = 10
    eye = np.eye(d, dtype=complex)
    zero = np.zeros(d, dtype=complex)
    worst = 0.0
    for _ in range(draws):
        params = autgroup.AutParams(eye, 1.0, zero, float(rng.uniform(-2, 2)))
        jet = extract_jet2(as_holo_map(params))
        worst = max(worst, norm(jet.f_w2))
    return [("jets.normalized_f_w2", worst, draws)]


def _j_levi(config: RunConfig, rng):
    d = config.dim - 1
    autos = max(1, min(10, config.samples // 100))
    per_auto = max(1, config.samples // autos)
    worst = 0.0
    for _ in range(autos):
        H = as_holo_map(random_params(d, rng))
        pairs = [
            (_cvector(rng, d, 0.05), _cunit(rng, d)) for _ in range(per_auto)
        ]
        worst = max(worst, check_levi(H, pairs))
    return [("jets.levi_identity", worst, autos * per_auto)]


def _j_polarization(config: RunConfig, rng):
    d = config.dim - 1
    autos = max(1, min(10, config.samples // 100))
    per_auto = max(1, config.samples // autos)
    worst = 0.0
    for _ in range(autos):
        H = as_holo_map(random_params(d, rng))
        triples = [
            (_cvector(rng, d, 0.04), _cvector(rng, d, 0.04), _cscalar(rng, 0.04))
            for _ in range(per_auto)
        ]
        worst = max(worst, check_polarization(H, triples))
    return [("jets.polarization_identity", worst, autos * per_auto)]


# ---------------------------------------------------------------------------
# examples suite

def _random_lambda(rng, cap: int) -> maps.LambdaSeq:
    values = [
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(cap)
    ]
    return maps.LambdaSeq(tuple(values))


def _e_homog_norm_law(config: RunConfig, rng):
    n = min(config.dim, 4)
    cap = 4
    lam = _random_lambda(rng, cap)
    H = maps.homog_sum_map(lam, maps.MultiIndexTable.graded_lex(n, cap))
    worst = 0.0
    points = sample_ball(n, rng, config.samples, radius=0.95)
    for Z in points:
        out = H.evaluate(Z)
        brute = float(np.vdot(out, out).real)
        worst = max(worst, abs(brute - maps.homog_sum_norm_squared(lam, Z)))
    return [("examples.homog_norm_law", worst, len(points))]


def _e_homog_sphere(config: RunConfig, rng):
    n = min(config.dim, 4)
    cap = 4
    lam = maps.LambdaSeq.unit(_random_lambda(rng, cap).values)
    H = maps.homog_sum_map(lam, maps.MultiIndexTable.graded_lex(n, cap))
    worst = 0.0
    points = sample_sphere(n, rng, config.samples)
    for Z in points:
        out = H.evaluate(Z)
        worst = max(worst, abs(float(np.vdot(out, out).real) - 1.0))
    return [("examples.homog_sphere_norm", worst, len(points))]


def _e_whitney_norm_law(config: RunConfig, rng):
    n = min(config.dim, 6)
    specs = [maps.WhitneySpec(p, n) for p in (1, 2, 3, 5)]
    specs.append(maps.WhitneySpec(maps.INFINITY, n, truncation=40))
    per_spec = max(1, config.samples // len(specs))
    worst = 0.0
    used = 0
    for spec in specs:
        for Z in sample_ball(n, rng, per_spec, radius=0.9):
            if spec.p == maps.INFINITY and abs(Z[0]) > 0.5:
                Z = Z.copy()
                Z[0] *= 0.5 / abs(Z[0])
            lhs, rhs = maps.whitney_norm_identity(spec, Z)
            worst = max(worst, abs(lhs - rhs))
            used += 1
    return [("examples.whitney_norm_law", worst, used)]


def _e_whitney_sphere(config: RunConfig, rng):
    n = min(config.dim, 6)
    worst = 0.0
    used = 0
    for p in (1, 2, 3, 5):
        H = maps.whitney_map(maps.WhitneySpec(p, n))
        for Z in sample_sphere(n, rng, max(1, config.samples // 4)):
            out = H.evaluate(Z)
            worst = max(worst, abs(float(np.vdot(out, out).real) - 1.0))
            used += 1
    return [("examples.whitney_sphere", worst, used)]


def _e_shift(config: RunConfig, rng):
    n = config.dim
    H = maps.shift_map(n)
    worst = 0.0
    count = min(config.samples, 200)
    for _ in range(count):
        Z = _cvector(rng, n, 1.2)
        worst = max(worst, abs(norm(H.evaluate(Z)) - norm(Z)))
    return [("examples.shift_isometry", worst, count)]


def _e_enumeration(config: RunConfig, rng):
    n, cap = 3, 3
    lam = _random_lambda(rng, cap)
    table = maps.MultiIndexTable.graded_lex(n, cap)
    order = rng.permutation(table.size)
    shuffled = maps.MultiIndexTable(
        n=n, degree_cap=cap,
        indices=tuple(table.indices[i] for i in order),
    )
    H1 = maps.homog_sum_map(lam, table)
    H2 = maps.homog_sum_map(lam, shuffled)
    worst = 0.0
    count = min(config.samples, 200)
    for Z in sample_ball(n, rng, count, radius=0.95):
        n1 = float(np.vdot(H1.evaluate(Z), H1.evaluate(Z)).real)
        n2 = float(np.vdot(H2.evaluate(Z), H2.evaluate(Z)).real)
        worst = max(worst, abs(n1 - n2))
    return [("examples.enumeration_invariance", worst, count)]


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
    """Execute the configured suites and collect one result per check."""
    results: list[CheckResult] = []
    for suite in config.suites:
        rng = suite_rng(config, suite)
        for group in GROUPS[suite]:
            start = time.perf_counter()
            outcomes = group(config, rng)
            ms = (time.perf_counter() - start) * 1000.0
            for name, residual, used in outcomes:
                tol = config.tol_overrides.get(name, DEFAULT_TOLS[name])
                status = "pass" if residual <= tol else "fail"
                results.append(
                    CheckResult(name, status, float(residual), float(tol),
                                int(used), ms)
                )
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
    lines = [
        json.dumps(
            {
                "name": r.name,
                "status": r.status,
                "residual": r.residual,
                "tol": r.tol,
                "samples": r.samples,
                "ms": r.ms,
            }
        )
        for r in results
    ]
    lines.append(json.dumps(summarize(results)))
    return "\n".join(lines) + "\n"
