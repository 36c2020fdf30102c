"""End-to-end acceptance checks for the package's headline guarantees.

Each test covers one advertised property at desk scale (ball dimension 8,
up to 10^3 samples) and prints a single PASS/FAIL line with the measured
residual, so a verbose test run doubles as a compact report.
"""

import dataclasses

import numpy as np
import pytest

from siegelball import (
    AutomorphismPoleError,
    AutParams,
    CayleyPoleError,
    DiffConfig,
    HoloMap,
    INFINITY,
    JetRecoveryError,
    NotOriginFixingError,
    WhitneySpec,
    apply,
    as_holo_map,
    cayley,
    check_levi,
    check_polarization,
    denominator,
    extract_jet2,
    factor_apply,
    factors,
    homog_sum_map,
    homog_sum_norm_squared,
    inverse_cayley,
    param_distance,
    random_params,
    recover_params,
    sample_ball,
    sample_siegel_boundary,
    sample_sphere,
    siegel_defect,
    unitarity_defect,
    whitney_map,
    whitney_norm_identity,
)
from siegelball.jets import Jet2

BALL_DIM = 8
SAMPLES = 1000


def _verdict(label: str, residual: float, tol: float):
    ok = residual <= tol
    print(f"{'PASS' if ok else 'FAIL'} {label}: residual {residual:.3e} "
          f"(tolerance {tol:.1e})")
    assert ok, f"{label}: residual {residual:.3e} exceeds {tol:.1e}"


def _norm2(v) -> float:
    return float(np.vdot(v, v).real)


def test_acceptance_cayley_roundtrip_identity():
    """Both composition orders of the coordinate change are the identity."""
    rng = np.random.default_rng(101)
    worst = 0.0
    ball_side = np.concatenate([
        sample_sphere(BALL_DIM, rng, SAMPLES // 2, min_pole_dist=0.1),
        sample_ball(BALL_DIM, rng, SAMPLES - SAMPLES // 2),
    ])
    for Z in ball_side:
        back = inverse_cayley(cayley(Z))
        worst = max(worst, float(np.linalg.norm(back - Z)) / (1.0 + np.linalg.norm(Z)))
    siegel_side = list(sample_siegel_boundary(BALL_DIM, rng, SAMPLES // 2))
    for row in sample_siegel_boundary(BALL_DIM, rng, SAMPLES - SAMPLES // 2):
        row[-1] += 1j * rng.uniform(0.05, 1.0)
        siegel_side.append(row)
    for p in siegel_side:
        back = cayley(inverse_cayley(p))
        gap = float(np.linalg.norm(back - p))
        worst = max(worst, gap / (1.0 + float(np.linalg.norm(p))))
    _verdict("cayley roundtrip identity", worst, 1e-12)


def test_acceptance_sphere_to_boundary_hypersurface():
    """The sphere lands exactly on {Im w = ||z||^2}, with e_n at the origin."""
    origin_image = cayley(np.append(np.zeros(BALL_DIM - 1), 1.0))
    assert np.linalg.norm(origin_image[:-1]) == 0.0 and origin_image[-1] == 0.0
    worst = 0.0
    for Z in sample_sphere(BALL_DIM, seed=102, count=SAMPLES, min_pole_dist=0.1):
        worst = max(worst, abs(siegel_defect(cayley(Z))))
    _verdict("sphere-to-boundary correspondence", worst, 1e-12)


def test_acceptance_automorphism_boundary_invariance():
    """Random members keep the boundary hypersurface invariant."""
    rng = np.random.default_rng(103)
    worst = 0.0
    used = 0
    while used < SAMPLES:
        params = random_params(BALL_DIM - 1, rng)
        p = sample_siegel_boundary(BALL_DIM, rng, 1)[0]
        if abs(denominator(params, p)) <= 0.1:
            continue
        image = apply(params, p)
        scaled = abs(siegel_defect(image)) / (1.0 + abs(p[-1]) ** 2)
        worst = max(worst, scaled)
        used += 1
    _verdict("automorphism boundary invariance", worst, 1e-10)


def test_acceptance_factorization():
    """The closed form equals the three-factor composition pointwise."""
    rng = np.random.default_rng(104)
    worst = 0.0
    used = 0
    while used < SAMPLES:
        params = random_params(BALL_DIM - 1, rng)
        p = sample_siegel_boundary(BALL_DIM, rng, 1)[0]
        if abs(denominator(params, p)) <= 0.1:
            continue
        if abs(1.0 + params.R * p[-1]) <= 0.1:
            continue
        direct = apply(params, p)
        factored = factor_apply(params, p)
        gap = direct - factored
        worst = max(worst, np.linalg.norm(gap[:-1]), abs(gap[-1]))
        used += 1
    _verdict("linear/translation/scalar factorization", worst, 1e-12)


def test_acceptance_parameter_recovery():
    """Parameters are read back off the numerically extracted jet."""
    rng = np.random.default_rng(105)
    worst_dist = 0.0
    worst_im_r = 0.0
    worst_unitary = 0.0
    for _ in range(100):
        params = random_params(BALL_DIM - 1, rng)
        jet = extract_jet2(as_holo_map(params))
        recovered = recover_params(jet)
        worst_dist = max(worst_dist, param_distance(recovered, params))
        r_complex = (-0.5 * jet.g_w2 + 1j * np.linalg.norm(jet.f_w) ** 2) / jet.g_w
        worst_im_r = max(worst_im_r, abs(r_complex.imag))
        worst_unitary = max(
            worst_unitary, unitarity_defect(jet.f_z / np.sqrt(jet.g_w.real))
        )
    _verdict("parameter recovery from jets", worst_dist, 1e-8)
    _verdict("recovered R is real", worst_im_r, 1e-9)
    _verdict("normalized derivative is unitary", worst_unitary, 1e-9)


def test_acceptance_polarized_identity():
    """The complexified boundary identity holds off the diagonal."""
    rng = np.random.default_rng(106)
    worst = 0.0
    autos = 10
    per_auto = SAMPLES // autos
    for _ in range(autos):
        H = as_holo_map(random_params(BALL_DIM - 1, rng))
        triples = []
        for _ in range(per_auto):
            z = rng.standard_normal(BALL_DIM - 1) + 1j * rng.standard_normal(BALL_DIM - 1)
            chi = rng.standard_normal(BALL_DIM - 1) + 1j * rng.standard_normal(BALL_DIM - 1)
            z *= 0.04 * rng.uniform() / np.linalg.norm(z)
            chi *= 0.04 * rng.uniform() / np.linalg.norm(chi)
            tau = 0.04 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            triples.append((z, chi, tau))
        zs, chis, taus = (np.array(column) for column in zip(*triples))
        worst = max(worst, check_polarization(H, zs, chis, taus).max())
    _verdict("polarized boundary identity", worst, 1e-9)


def test_acceptance_levi_identity():
    """First-order boundary compatibility along the w = 0 slice."""
    rng = np.random.default_rng(107)
    worst = 0.0
    autos = 10
    per_auto = SAMPLES // autos
    for _ in range(autos):
        H = as_holo_map(random_params(BALL_DIM - 1, rng))
        pairs = []
        for _ in range(per_auto):
            z = rng.standard_normal(BALL_DIM - 1) + 1j * rng.standard_normal(BALL_DIM - 1)
            z *= 0.05 * rng.uniform() / np.linalg.norm(z)
            u = rng.standard_normal(BALL_DIM - 1) + 1j * rng.standard_normal(BALL_DIM - 1)
            pairs.append((z, u / np.linalg.norm(u)))
        zs, us = (np.array(column) for column in zip(*pairs))
        worst = max(worst, check_levi(H, zs, us).max())
    _verdict("first-order boundary identity", worst, 1e-9)


def test_acceptance_homogeneous_sum_norm_law():
    """Brute-force output norms match the closed multinomial collapse."""
    rng = np.random.default_rng(108)
    n, cap = 4, 4
    lam = rng.standard_normal(cap) + 1j * rng.standard_normal(cap)
    H = homog_sum_map(lam, n)
    worst = 0.0
    for Z in sample_ball(n, rng, SAMPLES, radius=0.95):
        worst = max(
            worst, abs(_norm2(H.evaluate(Z)) - homog_sum_norm_squared(lam, Z))
        )
    _verdict("homogeneous-sum norm law", worst, 1e-12)

    H_unit = homog_sum_map(lam / np.linalg.norm(lam), n)
    worst_sphere = 0.0
    for Z in sample_sphere(n, rng, SAMPLES):
        worst_sphere = max(worst_sphere, abs(_norm2(H_unit.evaluate(Z)) - 1.0))
    _verdict("normalized homogeneous sum maps sphere to sphere",
             worst_sphere, 1e-12)


def test_acceptance_whitney_norm_law():
    """Geometric-sum norm identity, including the truncated infinite degree."""
    rng = np.random.default_rng(109)
    n = 6
    specs = [WhitneySpec(p, n) for p in (1, 2, 3, 5)]
    specs.append(WhitneySpec(INFINITY, n, truncation=40))
    worst = 0.0
    per_spec = SAMPLES // len(specs)
    for spec in specs:
        for Z in sample_ball(n, rng, per_spec, radius=0.9):
            if spec.p == INFINITY and abs(Z[0]) > 0.5:
                Z = Z.copy()
                Z[0] *= 0.5 / abs(Z[0])
            lhs, rhs = whitney_norm_identity(spec, Z)
            worst = max(worst, abs(lhs - rhs))
    _verdict("whitney norm law", worst, 1e-12)

    worst_sphere = 0.0
    for p in (1, 2, 3, 5):
        H = whitney_map(WhitneySpec(p, n))
        for Z in sample_sphere(n, rng, SAMPLES // 4):
            worst_sphere = max(worst_sphere, abs(_norm2(H.evaluate(Z)) - 1.0))
    _verdict("whitney sphere preservation", worst_sphere, 1e-12)


def test_acceptance_degenerate_inputs_raise_named_errors():
    """Poles and invalid jets raise typed errors instead of emitting NaNs."""
    d = BALL_DIM - 1
    antipode = np.append(np.zeros(d), -1.0)
    with pytest.raises(CayleyPoleError):
        cayley(antipode)
    with pytest.raises(CayleyPoleError):
        inverse_cayley(np.append(np.zeros(d), -1j))

    pole_params = AutParams(np.eye(d), 1.0, np.zeros(d), 1.0)
    with pytest.raises(AutomorphismPoleError):
        apply(pole_params, np.append(np.zeros(d), -1.0))
    _, phi_a, h_R = factors(AutParams(np.eye(d), 1.0, np.append(1.0, np.zeros(d - 1)), 1.0))
    with pytest.raises(AutomorphismPoleError):
        apply(phi_a, np.append(np.zeros(d), -1j))
    with pytest.raises(AutomorphismPoleError):
        apply(h_R, np.append(np.zeros(d), -1.0))

    shifted = HoloMap(lambda rows: rows + np.eye(1, d + 1, d), d + 1, d + 1, 1.0)
    with pytest.raises(NotOriginFixingError):
        extract_jet2(shifted, DiffConfig(radius=0.1))

    good = Jet2(
        f_z=np.eye(d, dtype=complex), f_w=np.zeros(d, dtype=complex),
        g_z=np.zeros(d, dtype=complex), g_w=1.0 + 0j, g_w2=0j,
        f_zw=np.zeros((d, d), dtype=complex), f_w2=np.zeros(d, dtype=complex),
    )
    with pytest.raises(JetRecoveryError):
        recover_params(dataclasses.replace(good, g_w=-1.0 + 0j))
    with pytest.raises(JetRecoveryError):
        recover_params(
            dataclasses.replace(good, f_z=np.zeros((d, d), dtype=complex))
        )

    # Near (but off) the poles everything stays finite: no NaN propagation.
    near_pole = apply(pole_params, np.append(np.zeros(d), -1.0 + 1e-6))
    assert np.all(np.isfinite(near_pole))
    near_antipode = cayley(np.append(np.zeros(d), -1.0 + 1e-6))
    assert np.all(np.isfinite(near_antipode))
    print("PASS degenerate inputs: typed errors raised, all near-pole values finite")
