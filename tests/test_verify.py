"""The verification runner, its report format, and the CLI wrapper."""

import dataclasses
import importlib.util
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import siegelball
from siegelball import JetRecoveryError, autgroup, cli, geometry, hilbert, jets, maps, verify
from siegelball.autgroup import as_holo_map, random_params
from siegelball.verify import (
    DEFAULT_TOLS,
    SUITE_NAMES,
    CheckResult,
    RunConfig,
    report,
    run,
    suite_rng,
    summarize,
)


def test_default_tolerances_cover_all_suites():
    prefixes = {name.split(".")[0] for name in DEFAULT_TOLS}
    assert prefixes == set(SUITE_NAMES)


def test_default_tolerances_are_pinned_in_report_order():
    """Every check's default tolerance, by value, in report order: the
    registrations on the group functions may move, but no tolerance may
    loosen, vanish or reorder unseen."""
    assert list(DEFAULT_TOLS.items()) == [
        ("geometry.cayley_roundtrip", 1e-12),
        ("geometry.boundary_correspondence", 1e-12),
        ("geometry.interior_correspondence", 0.0),
        ("geometry.cayley_slice_derivative", 1e-6),
        ("autgroup.origin_fixed", 0.0),
        ("autgroup.boundary_invariance", 1e-10),
        ("autgroup.factorization", 1e-12),
        ("autgroup.h_r_defect_scaling", 1e-12),
        ("autgroup.compose_pointwise", 1e-9),
        ("autgroup.invert_roundtrip", 1e-9),
        ("autgroup.compose_associative", 1e-8),
        ("autgroup.invert_two_sided", 1e-8),
        ("autgroup.ball_sphere_preserved", 1e-9),
        ("jets.cauchy_monomials", 1e-13),
        ("jets.closed_form_jet", 1e-12),
        ("jets.recovery_params", 1e-8),
        ("jets.recovery_im_r", 1e-9),
        ("jets.recovery_unitarity", 1e-12),
        ("jets.normalized_f_w2", 1e-12),
        ("jets.levi_identity", 1e-9),
        ("jets.polarization_identity", 1e-9),
        ("examples.homog_norm_law", 1e-12),
        ("examples.homog_sphere_norm", 1e-12),
        ("examples.whitney_norm_law", 1e-12),
        ("examples.whitney_sphere", 1e-12),
        ("examples.shift_isometry", 1e-13),
        ("examples.enumeration_invariance", 1e-13),
    ]


def test_group_registration_declares_each_check_once(monkeypatch):
    """``@_group(suite, **tols)`` appends the group to ``GROUPS[suite]`` and its
    ``suite.check`` tolerances to ``DEFAULT_TOLS`` in order, keeps the function's
    name, and returns ``{name: array}`` from an array or a tuple of arrays; a
    group returning the wrong number of arrays raises."""
    monkeypatch.setattr(verify, "GROUPS", {"jets": []})
    monkeypatch.setattr(verify, "DEFAULT_TOLS", {})

    @verify._group("jets", first=1e-3, second=0.0)
    def _j_pair(config, rng):
        return np.zeros(2), np.ones(3)

    @verify._group("jets", only=1.0)
    def _j_one(config, rng):
        return np.zeros(4)

    @verify._group("jets", a=1.0, b=1.0)
    def _j_short(config, rng):
        return np.zeros(1)

    assert verify.GROUPS == {"jets": [_j_pair, _j_one, _j_short]}
    assert [fn.__name__ for fn in verify.GROUPS["jets"]] == ["_j_pair", "_j_one", "_j_short"]
    assert verify.DEFAULT_TOLS == {"jets.first": 1e-3, "jets.second": 0.0,
                                   "jets.only": 1.0, "jets.a": 1.0, "jets.b": 1.0}
    pair = _j_pair(None, None)
    assert list(pair) == ["jets.first", "jets.second"] and pair["jets.second"].size == 3
    assert list(_j_one(None, None)) == ["jets.only"]
    with pytest.raises(ValueError):
        _j_short(None, None)


def test_run_geometry_suite_passes():
    config = RunConfig(dim=2, seed=3, samples=50, suites=("geometry",))
    results = run(config)
    assert [r.name.split(".")[0] for r in results] == ["geometry"] * len(results)
    assert len(results) == 4
    for r in results:
        assert r.status == "pass", f"{r.name}: residual {r.residual:.3e}"
        assert r.residual <= r.tol
        assert r.samples > 0
        assert r.ms >= 0.0


def test_run_examples_suite_passes():
    results = run(RunConfig(dim=3, seed=1, samples=60, suites=("examples",)))
    assert all(r.status == "pass" for r in results)
    names = {r.name for r in results}
    assert "examples.homog_norm_law" in names
    assert "examples.whitney_sphere" in names


@pytest.mark.parametrize("samples", [1, 2, 3])
def test_tiny_sample_counts_pass_and_count_rows(samples):
    """Empty or one-row batches keep loop semantics: every check passes and
    reports the rows it checked (fixed counts where nothing is filtered)."""
    results = run(RunConfig(dim=2, samples=samples))
    assert len(results) == len(DEFAULT_TOLS)
    for r in results:
        assert r.status == "pass", f"{r.name}: residual {r.residual:.3e}"
        assert 0 <= r.samples
    counts = {r.name: r.samples for r in results}
    expected = {
        "geometry.cayley_roundtrip": 2 * samples,
        "geometry.boundary_correspondence": samples,
        "geometry.cayley_slice_derivative": samples,
        "autgroup.origin_fixed": samples,
        "autgroup.compose_pointwise": 50,
        "autgroup.invert_roundtrip": 50,
        "jets.recovery_params": samples,
        "jets.levi_identity": samples,
        "jets.polarization_identity": samples,
        "examples.homog_norm_law": samples,
        "examples.homog_sphere_norm": samples,
        "examples.whitney_norm_law": 5,
        "examples.whitney_sphere": 4,
        "examples.shift_isometry": samples,
        "examples.enumeration_invariance": samples,
    }
    for name, count in expected.items():
        assert counts[name] == count, name
    for name in ("geometry.interior_correspondence", "autgroup.boundary_invariance",
                 "autgroup.factorization", "autgroup.h_r_defect_scaling",
                 "autgroup.ball_sphere_preserved"):
        assert counts[name] <= samples, name


def test_groups_return_per_sample_residuals_and_run_reduces_them(monkeypatch):
    """Every group returns {check name: real float array}, its checks in
    report order, and ``run`` alone reduces each array: its residual is
    exactly ``max(initial=0)`` and its sample count the array's size, both
    plain scalars."""
    returned = []

    def keeping(group):
        def call(config, rng):
            returned.append(group(config, rng))
            return returned[-1]
        return call

    for suite, groups in verify.GROUPS.items():
        monkeypatch.setitem(verify.GROUPS, suite, [keeping(g) for g in groups])
    results = run(RunConfig(dim=3, seed=4, samples=20))
    assert [name for residuals in returned for name in residuals] == list(DEFAULT_TOLS)
    assert [r.name for r in results] == list(DEFAULT_TOLS)
    arrays = [array for residuals in returned for array in residuals.values()]
    for result, array in zip(results, arrays, strict=True):
        assert isinstance(array, np.ndarray) and array.dtype == np.float64, result.name
        assert result.residual == float(np.max(array, initial=0.0)), result.name
        assert result.samples == array.size, result.name
        assert type(result.residual) is float and type(result.samples) is int


def test_run_is_deterministic():
    config = RunConfig(dim=2, seed=9, samples=40, suites=("geometry", "examples"))
    first = run(config)
    second = run(config)
    assert [r.name for r in first] == [r.name for r in second]
    for a, b in zip(first, second):
        assert a.residual == b.residual, a.name
        assert a.samples == b.samples


def test_different_seeds_differ():
    config_a = RunConfig(dim=2, seed=1, samples=40, suites=("geometry",))
    config_b = RunConfig(dim=2, seed=2, samples=40, suites=("geometry",))
    res_a = [r.residual for r in run(config_a)]
    res_b = [r.residual for r in run(config_b)]
    assert res_a != res_b


def test_tolerance_override_forces_failure():
    config = RunConfig(
        dim=2, seed=1, samples=30, suites=("geometry",),
        tol_overrides={"geometry.cayley_roundtrip": 0.0},
    )
    results = run(config)
    by_name = {r.name: r for r in results}
    assert by_name["geometry.cayley_roundtrip"].status == "fail"
    assert by_name["geometry.cayley_roundtrip"].tol == 0.0
    assert summarize(results)["status"] == "fail"


def test_run_config_validation():
    with pytest.raises(ValueError, match="dimension"):
        RunConfig(dim=1)
    with pytest.raises(ValueError, match="sample count"):
        RunConfig(samples=0)
    with pytest.raises(ValueError, match="unknown suites"):
        RunConfig(suites=("geometry", "nope"))
    with pytest.raises(ValueError, match="unknown check name"):
        RunConfig(tol_overrides={"geometry.bogus": 1.0})
    with pytest.raises(ValueError, match="finite"):
        RunConfig(tol_overrides={"geometry.cayley_roundtrip": -1.0})


def test_a_suite_named_twice_runs_once():
    """``RunConfig`` keeps each suite once, in the order of its first mention,
    so a repeated suite reports each of its checks once."""
    config = RunConfig(dim=2, samples=20, suites=("examples", "geometry", "examples"))
    assert config.suites == ("examples", "geometry")
    names = [r.name for r in run(RunConfig(dim=2, samples=20, suites=("examples",) * 2))]
    assert len(names) == len(set(names)) == len(verify.GROUPS["examples"])


@pytest.mark.parametrize("field, value", [("dim", 3.0), ("samples", 10.5),
                                          ("samples", True), ("seed", 1.5)])
def test_run_config_rejects_counts_that_are_not_integers(field, value):
    """A float or a bool dimension, sample count or seed is a ValueError at
    construction (the CLI's exit 2), not a TypeError inside a run."""
    with pytest.raises(ValueError, match="must be an integer"):
        RunConfig(**{field: value})
    assert RunConfig(dim=np.int64(3), samples=np.int64(10)).dim == 3


def test_run_config_leaves_the_callers_overrides_alone():
    overrides = {"geometry.cayley_roundtrip": "1e-3"}
    config = RunConfig(tol_overrides=overrides)
    assert overrides == {"geometry.cayley_roundtrip": "1e-3"}
    assert config.tol_overrides == {"geometry.cayley_roundtrip": 1e-3}
    assert config.tol_overrides is not overrides


def test_suite_rng_is_stable_and_suite_dependent():
    config = RunConfig(dim=2, seed=5)
    a = suite_rng(config, "geometry").uniform()
    b = suite_rng(config, "geometry").uniform()
    c = suite_rng(config, "jets").uniform()
    assert a == b
    assert a != c
    # Checks that cap the dimension still draw anew at every dimension.
    assert (suite_rng(RunConfig(dim=4, seed=5), "examples").uniform()
            != suite_rng(RunConfig(dim=8, seed=5), "examples").uniform())


def test_report_is_line_delimited_json():
    config = RunConfig(dim=2, seed=7, samples=30, suites=("geometry",))
    results = run(config)
    text = report(results)
    lines = text.strip().split("\n")
    records = [json.loads(line) for line in lines]
    assert len(records) == len(results) + 1
    for record, result in zip(records, results):
        assert list(record) == ["name", "status", "residual", "tol", "samples", "ms"]
        assert record["name"] == result.name
        assert record["status"] == result.status
        # json round-trips doubles exactly
        assert record["residual"] == result.residual
        assert record["tol"] == result.tol
        assert record["ms"] == result.ms
        assert record["samples"] == result.samples
    summary = records[-1]
    assert summary["name"] == "summary"
    assert summary["checks"] == len(results)
    assert summary["failures"] == 0


def test_summary_time_counts_each_group_once(monkeypatch):
    """Each group's time enters the summary once, however many checks it
    reports (``jets.recovery`` reports three)."""
    ticks = itertools.count()
    clock = SimpleNamespace(perf_counter=lambda: float(next(ticks)))
    monkeypatch.setattr(verify, "time", clock)  # every group takes 1 s
    results = run(RunConfig(dim=2, seed=1, samples=20, suites=("jets",)))
    groups = len(verify.GROUPS["jets"])
    assert len(results) > groups
    assert summarize(results)["ms"] == 1000.0 * groups


def test_report_of_no_results_is_summary_only():
    records = [json.loads(line) for line in report([]).strip().split("\n")]
    assert len(records) == 1
    assert records[0]["name"] == "summary"
    assert records[0]["checks"] == 0
    assert records[0]["status"] == "pass"


def test_summarize_counts_failures():
    results = [
        CheckResult("a.b", "pass", 0.0, 1.0, 1, 1.0),
        CheckResult("a.c", "fail", 2.0, 1.0, 1, 1.0),
    ]
    summary = summarize(results)
    assert summary["status"] == "fail"
    assert summary["checks"] == 2
    assert summary["failures"] == 1


@pytest.mark.parametrize("field", ["f_w", "g_w2", "f_zw", "f_w2"])
def test_closed_form_jet_check_sees_a_relative_error_of_1e_10(monkeypatch, field):
    """``jets.closed_form_jet`` fails when one field of every extracted jet
    is off by a relative 1e-10, far inside the old finite-difference bar."""
    extract = verify.extract_jet2

    def scaled(H):
        jet = extract(H)
        return dataclasses.replace(jet, **{field: getattr(jet, field) * (1 + 1e-10)})

    monkeypatch.setattr(verify, "extract_jet2", scaled)
    results = {r.name: r for r in run(RunConfig(dim=3, samples=10, suites=("jets",)))}
    assert results["jets.closed_form_jet"].status == "fail"


@pytest.mark.parametrize("field", ["g_w2", "f_zw"])
def test_normalized_jet_check_sees_a_wrong_jet(monkeypatch, field):
    """``jets.normalized_f_w2`` compares the whole h_R jet with its closed
    form; f_w2 alone vanishes identically there, whatever the extraction."""
    extract = verify.extract_jet2

    def corrupted(H):
        jet = extract(H)
        return dataclasses.replace(jet, **{field: getattr(jet, field) + 1e-6})

    monkeypatch.setattr(verify, "extract_jet2", corrupted)
    results = {r.name: r for r in run(RunConfig(dim=3, samples=10, suites=("jets",)))}
    assert results["jets.normalized_f_w2"].status == "fail"


def test_default_run_peak_memory():
    """The jet layer bounds each evaluation: the traced peak of a dim-8 run
    stays at most 2 MB (1.29 MB before the groups were stacked)."""
    run(RunConfig(dim=8, samples=4))  # caches and lazy imports
    tracemalloc.start()
    try:
        run(RunConfig(dim=8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


def test_jets_suite_peak_memory_at_dim_32():
    """The jet layer evaluates a germ in bounded calls, and verify hands it
    blocks of germs of at most 2^15 entries, by what one germ holds there
    (``jets._member_entries``): the traced peak of a dim-32 jets suite stays
    at most 6 MB (9.9 MB with the whole grid per call)."""
    config = RunConfig(dim=32, samples=100, suites=("jets",))
    run(config)  # caches and lazy imports
    tracemalloc.start()
    try:
        results = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.status == "pass" for r in results)
    assert peak <= 6e6


def test_every_block_fits_the_jet_layer_budget(monkeypatch):
    """Every block that a dim-8 run, a dim-32 run, a dim-32 jets suite at 100
    samples, dim-64 geometry and autgroup suites and a dim-163 examples suite
    hand to extract_jet2 (also the call inside check_levi), apply, or a
    homogeneous-sum, Whitney or shift evaluator holds at most 2^15 complex
    entries: its items times what one item holds, ``jets._member_entries`` per
    germ, (d + 2)^2 per automorphism member and the output width per point.
    So does every product array of the projective kernel, through the
    geometry (Cayley) and the autgroup bindings.  (Handing ``apply`` all 10
    compose or invert members at once is 42 250 entries at dim 64, and 200
    shift points 32 800 at dim 163.)"""
    blocks = []
    extract, act, project = jets.extract_jet2, verify.apply, geometry._projective

    def recorded_extract(H):
        members = np.size(H.domain_radius)
        blocks.append(("extract_jet2", members * jets._member_entries(H.dim)))
        return extract(H)

    def recorded_apply(params, p):
        blocks.append(("apply", np.size(params.s) * (params.dim + 2) ** 2))
        return act(params, p)

    def recorded_map(kind):
        make = getattr(maps, kind)

        def recorded(*args, **kwargs):
            H = make(*args, **kwargs)

            def evaluate(Z):
                blocks.append((kind, len(Z) * H.output_dim))
                return H.evaluate(Z)

            return dataclasses.replace(H, evaluate=evaluate)

        monkeypatch.setattr(maps, kind, recorded)

    def recorded_projective(M, x, **kwargs):
        images = project(M, x, **kwargs)  # a view into the one product array
        blocks.append(("_projective", images.base.size))
        return images

    monkeypatch.setattr(verify, "extract_jet2", recorded_extract)
    monkeypatch.setattr(jets, "extract_jet2", recorded_extract)
    monkeypatch.setattr(verify, "apply", recorded_apply)
    monkeypatch.setattr(geometry, "_projective", recorded_projective)
    monkeypatch.setattr(autgroup, "_projective", recorded_projective)
    recorded_map("homog_sum_map")
    recorded_map("whitney_map")
    recorded_map("shift_map")
    run(RunConfig(dim=8))
    run(RunConfig(dim=32))
    run(RunConfig(dim=32, samples=100, suites=("jets",)))
    run(RunConfig(dim=64, suites=("geometry", "autgroup")))
    run(RunConfig(dim=163, suites=("examples",)))
    assert {kind for kind, _ in blocks} == {"extract_jet2", "apply", "homog_sum_map",
                                            "whitney_map", "shift_map", "_projective"}
    assert [block for block in blocks if block[1] > 2**15] == []


def test_every_sampled_check_goes_through_the_check_engine(monkeypatch):
    """In a default dim-4 run every registered group calls ``verify._check``,
    the one sampling loop, except ``jets.cauchy_monomials``, which draws
    nothing."""
    checked, calling, engine = set(), [], verify._check

    def recorded(*args, **kwargs):
        checked.add(calling[-1])
        return engine(*args, **kwargs)

    def tracked(group):
        def call(config, rng):
            calling.append(group)
            return group(config, rng)
        return call

    monkeypatch.setattr(verify, "_check", recorded)
    groups = [group for fns in verify.GROUPS.values() for group in fns]
    for suite, fns in verify.GROUPS.items():
        monkeypatch.setitem(verify.GROUPS, suite, [tracked(group) for group in fns])
    results = run(RunConfig(dim=4))
    assert all(r.status == "pass" for r in results)
    assert calling == groups
    assert checked == set(groups) - {verify._j_cauchy_monomials}


def test_draws_stay_within_the_budget_at_dim_64():
    """``autgroup.origin_fixed`` draws its 200 automorphisms in blocks of the
    check budget, not as one stack: at dim 64 its traced peak stays at most
    4 MB (38.3 MB with the whole stack drawn at once)."""
    config = RunConfig(dim=64, samples=200)
    verify._a_origin_fixed(RunConfig(dim=64, samples=2), 0)  # caches and lazy imports
    tracemalloc.start()
    try:
        residuals = verify._a_origin_fixed(config, suite_rng(config, "autgroup"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residuals["autgroup.origin_fixed"].size == 200
    assert peak <= 4e6


def test_masked_checks_report_exactly_the_samples_they_ask_for():
    """Rejected samples are redrawn, so at dim 4 and 1000 samples every check
    with an accept mask reports exactly 1000 (h_r_defect_scaling read 985 when
    its rejected rows were dropped)."""
    counts = {r.name: r.samples for r in run(RunConfig(dim=4, samples=1000))}
    for name in ("geometry.interior_correspondence", "autgroup.boundary_invariance",
                 "autgroup.factorization", "autgroup.h_r_defect_scaling"):
        assert counts[name] == 1000, name


def test_check_engine_equals_one_unblocked_call():
    """``verify._check`` calls ``draw`` in the fewest even blocks of
    ``2^15 // entries`` rows, redraws the rows ``keep`` rejects, again in even
    blocks, until ``want`` pass, and joins the residuals in draw order: the same
    arrays as one call on the kept rows of everything drawn, for a residual
    returning a tuple, one returning an array and an AutParams draw.  A
    ``keep`` that rejects every row stops after 10 x ``want`` rows with empty
    arrays."""
    rng = np.random.default_rng(5)
    drawn, sizes = [], []

    def draw(count):
        drawn.append((rng.standard_normal(count), rng.standard_normal((count, 3))))
        return drawn[-1]

    def residual(a, b):
        sizes.append(len(a))
        return a * b[:, 0] - b[:, 2], np.abs(a)

    entries = 2**15 // 100  # 100 rows per block
    got = verify._check(residual, entries, draw, 1000, keep=lambda a, _: a > -0.5)
    kept = [np.count_nonzero(x > -0.5) for x, _ in drawn]
    assert sizes == kept and sum(kept) == 1000
    start, need, rounds = 0, 1000, 0
    while need:  # each round redraws the shortfall in the fewest even blocks
        count = -(-need // 100)
        even = [need * (k + 1) // count - need * k // count for k in range(count)]
        assert [len(x) for x, _ in drawn[start:start + count]] == even
        need -= sum(kept[start:start + count])
        start, rounds = start + count, rounds + 1
    assert start == len(drawn) and rounds > 1 and len(drawn) > 10
    x, y = (np.concatenate(parts) for parts in zip(*drawn))
    assert isinstance(got, tuple)
    for k, expected in enumerate(residual(x[x > -0.5], y[x > -0.5])):
        assert np.array_equal(got[k], expected), k
    assert len(got) == 2

    drawn.clear()
    single = verify._check(lambda a, b: a * b[:, 1], entries, draw, 250)
    assert [len(x) for x, _ in drawn] == [83, 83, 84]
    x, y = (np.concatenate(parts) for parts in zip(*drawn))
    assert isinstance(single, np.ndarray) and np.array_equal(single, x * y[:, 1])

    pool, numbers, offset = random_params(2, 7, count=1000), rng.standard_normal(1000), []

    def members(count):  # the pool's next members, and one number per member
        start = sum(offset)
        offset.append(count)
        return pool[start:start + count], numbers[start:start + count]

    got = verify._check(lambda params, b: params.R + b, 2**15 // 40, members, 250,
                        keep=lambda params, b: params.R > 0)
    used = sum(offset)
    keep = pool.R[:used] > 0
    assert len(offset) > 1 and got.size == 250
    assert np.array_equal(got, pool.R[:used][keep] + numbers[:used][keep])

    drawn.clear()
    sizes.clear()
    empty = verify._check(residual, entries, draw, 7,
                          keep=lambda a, _: np.zeros(len(a), bool))
    assert sum(len(x) for x, _ in drawn) == 70 and set(sizes) == {0}
    assert [a.shape for a in empty] == [(0,), (0,)]


def test_h_r_is_built_without_a_gram_check(monkeypatch):
    """h_R = (I, 1, 0, R) is valid by construction: building it for
    ``autgroup.h_r_defect_scaling`` and ``jets.normalized_f_w2`` runs no
    Gram product, and both checks still pass."""
    gram, shapes = hilbert._gram_defects, []

    def counting(U):
        shapes.append(np.shape(U))
        return gram(U)

    monkeypatch.setattr(hilbert, "_gram_defects", counting)
    config = RunConfig(dim=4, samples=200)
    for suite, group in (("autgroup", verify._a_h_r_defect),
                         ("jets", verify._j_normalized_f_w2)):
        for name, residuals in group(config, suite_rng(config, suite)).items():
            assert 0 < residuals.size and residuals.max() <= DEFAULT_TOLS[name], name
    assert shapes == []


def test_blocks_hold_one_member_past_the_budget():
    """Past d = 179 one (d + 2)^2 projective matrix alone passes 2^15 entries:
    a block then holds one member, so the pair checks and h_R still finish
    (a cap of zero members would draw nothing, forever)."""
    config = RunConfig(dim=181, samples=2)
    rng = suite_rng(config, "autgroup")
    for group in (verify._a_origin_fixed, verify._a_boundary_invariance,
                  verify._a_h_r_defect):
        for name, residuals in group(config, rng).items():
            assert residuals.max(initial=0.0) <= DEFAULT_TOLS[name], name


def test_pair_checks_draw_one_member_per_25_rows(monkeypatch):
    """The three pair checks draw one Haar member per ``PER_MEMBER`` rows of their
    draw stream, redraws included: at most ceil(rows / 25) + 1 members per check,
    and the same count at dims 8 and 64 (a fresh member per row drew 1000-1013)."""
    haar, counts, members = autgroup.haar_unitary, {}, {}

    def counted_haar(n, seed, count=None):
        counts["members"] += 1 if count is None else count
        return haar(n, seed, count)

    def counted_rows(sample):
        def counted(n, rng, count, **kwargs):
            counts["rows"] += count
            return sample(n, rng, count, **kwargs)

        return counted

    monkeypatch.setattr(autgroup, "haar_unitary", counted_haar)
    for name in ("sample_siegel_boundary", "sample_sphere"):
        monkeypatch.setattr(verify, name, counted_rows(getattr(verify, name)))
    for dim in (8, 64):  # the autgroup suite's stream, as run draws it
        config = RunConfig(dim=dim)
        rng = suite_rng(config, "autgroup")
        for group in verify.GROUPS["autgroup"]:
            counts.update(members=0, rows=0)
            (name, residuals), = group(config, rng).items()
            if counts["rows"]:  # a pair check
                assert residuals.size == 1000 and residuals.max() <= DEFAULT_TOLS[name]
                assert counts["members"] <= -(-counts["rows"] // verify.PER_MEMBER) + 1
                members.setdefault(name, []).append(counts["members"])
    assert len(members) == 3
    assert all(at_8 == at_64 for at_8, at_64 in members.values()), members


@pytest.mark.parametrize("mutation", ["apply", "matrix"])
def test_pair_checks_see_a_relative_error_of_1e_10(monkeypatch, mutation):
    """Pooled members keep the pair checks sharp: with ``apply``'s images off by a
    relative 1e-10, or ``matrix``'s entries off by a relative 1e-10 of alternating
    sign (a common factor would not move the map), a default dim-8 autgroup suite
    fails boundary invariance and factorization."""
    if mutation == "apply":
        act = verify.apply
        monkeypatch.setattr(verify, "apply", lambda params, p: act(params, p) * (1 + 1e-10))
    else:
        build = autgroup.matrix

        def perturbed(params):
            M = build(params)
            k = np.arange(M.shape[-1])
            return M * (1 + 1e-10 * (-1.0) ** np.add.outer(k, k))

        monkeypatch.setattr(autgroup, "matrix", perturbed)
    results = run(RunConfig(dim=8, suites=("autgroup",)))
    failed = {r.name for r in results if r.status == "fail"}
    assert {"autgroup.boundary_invariance", "autgroup.factorization"} <= failed


PAIR_MAPS = {"apply": (geometry.sample_siegel_boundary, autgroup.apply),
             "factor_apply": (geometry.sample_siegel_boundary, autgroup.factor_apply),
             "ball_automorphism": (geometry.sample_sphere, autgroup.ball_automorphism)}


@pytest.mark.parametrize("dim", [2, 8, 33])
@pytest.mark.parametrize("kind", PAIR_MAPS)
def test_member_major_pairs_equal_the_per_row_images(kind, dim):
    """``_pairs``' ``by_member`` lays a block's kept rows out member-major and
    reads each image back at its (member, slot): the images equal those of the
    map on a stack with one member per row, ``members[index]``, to 1e-13
    relative.  Blocks start and end inside a member's 25 rows, and a third of
    the rows are dropped, as an accept mask drops them; W is the most kept
    rows of one member."""
    sample, act = PAIR_MAPS[kind]
    config = RunConfig(dim=dim)
    draw, by_member = verify._pairs(config, np.random.default_rng(dim), sample)
    handed = []

    def member_major(members, points):
        handed.append((members, points.shape))
        return act(members, points)

    for count in (60, 7, 100, 1, 40):
        index, points = draw(count)
        keep = np.arange(count) % 3 != 1
        images = by_member(member_major)(index[keep], points[keep])
        members, shape = handed[-1]
        assert shape == (len(members), np.bincount(index[keep]).max(initial=0), dim)
        expected = act(members[index[keep]], points[keep])
        assert images.shape == expected.shape
        assert np.abs(images - expected).max(initial=0.0) <= 1e-13 * (
            1.0 + np.abs(expected).max(initial=0.0))


def test_pair_checks_hand_on_only_kept_rows_and_origin_filler(monkeypatch):
    """The pair checks hand ``apply``, ``factor_apply``, ``ball_automorphism``
    and their masks' ``denominator`` member-major points (K, W, n), a block's
    K members at a time.  Every row that reaches a map is a kept sample or
    exactly the origin: the other rows pass the check's accept mask, member by
    member, and there are exactly the 1000 samples the check reports."""
    handed = {}

    def recorded(name):
        act = getattr(verify, name)

        def record(params, points):
            assert points.ndim == 3 and len(points) == len(params), name
            handed.setdefault(name, []).append((params, points.copy()))
            return act(params, points)

        monkeypatch.setattr(verify, name, record)

    for name in ("apply", "factor_apply", "ball_automorphism", "denominator"):
        recorded(name)
    config = RunConfig(dim=8)
    rng = suite_rng(config, "autgroup")
    for group, kinds in ((verify._a_boundary_invariance, {"apply"}),
                         (verify._a_factorization, {"apply", "factor_apply"}),
                         (verify._a_ball_sphere, {"ball_automorphism"})):
        handed.clear()
        (name, residuals), = group(config, rng).items()
        assert residuals.size == 1000 and residuals.max() <= DEFAULT_TOLS[name]
        assert set(handed) - {"denominator"} == kinds, name
        for kind in kinds:
            samples = 0
            for params, points in handed[kind]:
                real = np.any(points != 0, axis=-1)  # every other row is the origin
                samples += np.count_nonzero(real)
                for k in range(len(params)):
                    rows = points[k][real[k]]
                    if kind == "ball_automorphism":  # no mask: sphere points
                        assert np.abs(geometry.ball_defect(rows)).max(initial=0.0) < 1e-12
                        continue
                    assert np.all(np.abs(autgroup.denominator(params[k], rows)) > 0.1)
                    if name == "autgroup.factorization":
                        assert np.all(np.abs(1.0 + params.R[k] * rows[:, -1]) > 0.1)
            assert samples == 1000, (name, kind)


def test_pair_checks_hand_matrix_pooled_members_not_one_per_row(monkeypatch):
    """In a default dim-8 autgroup suite no pair check hands ``autgroup.matrix``
    a stack with one member per row: a block holds at most 2^15 // 81 = 404
    rows, so each stack holds at most ceil(404 / 25) + 1 = 18 members (a stack
    per row held a block's kept rows, 332 in the first)."""
    build, sizes = autgroup.matrix, []

    def recorded(params):
        sizes.append(len(params))
        return build(params)

    monkeypatch.setattr(autgroup, "matrix", recorded)
    config = RunConfig(dim=8)
    rng = suite_rng(config, "autgroup")
    pairs = (verify._a_boundary_invariance, verify._a_factorization, verify._a_ball_sphere)
    for group in verify.GROUPS["autgroup"]:
        sizes.clear()
        (name, residuals), = group(config, rng).items()
        assert residuals.max() <= DEFAULT_TOLS[name], name
        if group in pairs:
            assert sizes and max(sizes) <= -(-(2**15 // 81) // verify.PER_MEMBER) + 1, name


def test_levi_check_keeps_one_core_busy():
    """``check_levi`` at d = 31 and P = 100 forms f_z u in row blocks of at most
    2^16 multiply-adds, which OpenBLAS keeps on the calling thread (one
    (100, 31) @ (31, 31) product read about 1.85 CPU-seconds per second)."""
    rng = np.random.default_rng(3)
    H = as_holo_map(random_params(31, rng))
    zs = geometry._radial_rows(rng, 100, 31, 0.05)
    us = geometry._unit_rows(rng, 100, 31)
    check_levi = jets.check_levi
    assert check_levi(H, zs, us).max() <= DEFAULT_TOLS["jets.levi_identity"]
    time.sleep(0.5)  # BLAS threads woken before this test go idle
    cpu, wall = time.process_time(), time.perf_counter()
    for _ in range(50):
        check_levi(H, zs, us)
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    assert cpu <= 1.2 * wall, f"{cpu:.3f} CPU-s in {wall:.3f} s"


def test_default_run_keeps_one_core_busy():
    """A dim-8 run is one thread of work, and every BLAS product in it stays
    small enough for OpenBLAS to keep on that thread: a threaded product
    leaves a second thread spinning (about 1.95 CPU-seconds per second)."""
    run(RunConfig(dim=8, samples=4))  # caches and lazy imports
    time.sleep(0.5)  # BLAS threads woken before this test go idle
    cpu, wall = time.process_time(), time.perf_counter()
    run(RunConfig(dim=8))
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    assert cpu <= 1.2 * wall, f"{cpu:.3f} CPU-s in {wall:.3f} s"


def _perfbench(name: str, monkeypatch):
    """The benchmark's module ``perfbench/<name>.py``, loaded by path and
    registered under ``name`` for the test, as the benchmark's own imports
    (``import oracle``) and dataclasses expect."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_oracle_agrees_with_the_group_law(monkeypatch):
    """The benchmark's closed-form oracle accepts compose, invert and jet
    recovery, default and wide range, at the tolerances its workload holds
    them to, on a short seeded stream at d = 1, 3, 7: a miss there would
    fail every benchmark run."""
    oracle = _perfbench("oracle", monkeypatch)
    workloads = _perfbench("workloads", monkeypatch)
    rng = np.random.default_rng(57)
    misses = []
    for d, ranges in itertools.product(workloads.GROUP_DIMS, [{}, workloads.WIDE_RANGE]):
        for _ in range(4):
            p, q = (random_params(d, rng, **ranges) for _ in range(2))
            ops = [("compose", (p, q)), ("invert", (p,)), ("recover", (p,))]
            for kind, args in ops:
                out = workloads.OPERATIONS[kind](siegelball, *args)
                gap = oracle.distance(out, workloads.ORACLES[kind](*args))
                if not gap <= DEFAULT_TOLS[workloads.ORACLE_TOLS[kind]]:
                    misses.append((kind, d, bool(ranges), gap))
    assert misses == []


@pytest.mark.parametrize("name", ["SweepWorkload", "GroupOpsWorkload"])
def test_benchmark_workloads_run_clean(name, monkeypatch):
    """One warm-up and one task of each benchmark workload, at one seed, end
    with no failed operation: a package name or signature the benchmark
    reads that goes away fails here, not in a benchmark run."""
    _perfbench("oracle", monkeypatch)
    workload = getattr(_perfbench("workloads", monkeypatch), name)(siegelball, 1)
    workload.warm_up()
    workload.task()
    assert workload.outcome().failed == 0


def test_benchmark_group_metrics_name_check_groups(monkeypatch):
    """Every ``verify.<suite>.<group>.s`` metric in BENCHMARK.json's per-layer
    list is named after a group of ``verify.GROUPS`` by perfbench's rule: a
    renamed group fails here, not only in a traced benchmark run."""
    spans = _perfbench("spans", monkeypatch)
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    listed = {metric["name"] for metric in json.loads(path.read_text())["per_layer"]
              if metric["name"].startswith("verify.") and metric["name"].endswith(".s")}
    groups = {f"verify.{suite}.{spans.group_name(fn)}.s"
              for suite, fns in verify.GROUPS.items() for fn in fns}
    assert listed
    assert listed <= groups, sorted(listed - groups)


def test_benchmark_counts_package_errors_as_typed(monkeypatch):
    """The benchmark sorts every error class the package exports as typed."""
    _perfbench("oracle", monkeypatch)
    workloads = _perfbench("workloads", monkeypatch)
    errors = [obj for obj in map(siegelball.__dict__.get, siegelball.__all__)
              if isinstance(obj, type) and issubclass(obj, Exception)]
    assert errors
    for error in errors:
        assert workloads.error_kind(siegelball, error("x")) == "typed", error
    assert workloads.error_kind(siegelball, ValueError("x")) == "untyped"


def test_benchmark_tracer_binds_package_names(monkeypatch):
    """perfbench's tracer binds ``extract_jet2``'s parameters by the names
    ``H`` and ``cfg`` (reading ``H.dim`` and ``cfg.nodes``), wraps
    ``autgroup._apply_batch`` by name and the evaluators of the maps that
    ``maps`` hands out by field: a rename crashes the traced run or drops
    the span."""
    spans = _perfbench("spans", monkeypatch)
    assert "_apply_batch" in spans.PRIVATE_WORKERS["autgroup"]
    tracer = spans.Tracer(keep=0)
    with spans.instrument(siegelball, tracer):
        siegelball.jets.extract_jet2(as_holo_map(random_params(2, seed=0)))
        H = siegelball.maps.homog_sum_map([1.0, 0.5], 2)
        H.evaluate(np.ones((3, 2)))
    assert tracer.counters["jets.extract_jet2.grid_points"] > 0
    assert tracer.stat("jets.extract_jet2")[0] == 1
    assert tracer.stat("autgroup.apply_batch")[0] == 1
    assert tracer.stat("maps.homog_sum_map")[0] == 1
    assert tracer.stat("maps.evaluate")[0] == 1


# ---------------------------------------------------------------------------
# CLI


def test_cli_pass_run(capsys):
    code = cli.main(["--dim", "2", "--samples", "40", "--suite", "geometry"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS geometry.cayley_roundtrip" in out
    assert "[n=" not in out  # no sweep suffix with an explicit --dim
    assert out.strip().splitlines()[-1].startswith("PASS: 4 checks, 0 failures")


def test_importing_the_cli_loads_numpy_and_the_standard_library_only():
    """A fresh interpreter running ``import siegelball, siegelball.cli`` loads
    no third-party module except numpy, so start-up stays an import of numpy
    and the package.  Modules the interpreter's own start-up loads (site
    hooks) are not counted."""
    code = ("import sys; before = set(sys.modules); import siegelball, siegelball.cli; "
            "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert set(loaded) - set(sys.stdlib_module_names) == {"siegelball", "numpy"}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cli_default_sweep_passes(capsys, seed):
    """The default sweep (dims 2/4/8, 1000 samples, every suite) passes all
    81 checks at the default tolerances, with every warning an error, at the
    default seed 1 and two more."""
    code = cli.main(["--seed", str(seed)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert sum(line.startswith("PASS ") for line in lines) == 81
    assert not any(line.startswith("FAIL") for line in lines)


def test_cli_failure_exit_code(capsys):
    code = cli.main([
        "--dim", "2", "--samples", "30", "--suite", "geometry",
        "--tol", "geometry.cayley_roundtrip=0",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL geometry.cayley_roundtrip" in out


def test_cli_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--suite", "bogus"])
    assert exc.value.code == 2


def test_cli_malformed_tol_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--tol", "oops"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["--tol", "geometry.cayley_roundtrip=abc"])
    assert exc.value.code == 2


def test_cli_unknown_check_name_returns_2(capsys):
    code = cli.main([
        "--dim", "2", "--samples", "5", "--suite", "examples",
        "--tol", "not.a.check=1",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "configuration error" in captured.err


def test_cli_bad_dimension_returns_2(capsys):
    code = cli.main(["--dim", "1", "--samples", "5", "--suite", "examples"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_unwritable_report_exits_2_before_any_suite_runs(tmp_path, monkeypatch, capsys):
    """A report path that cannot be written, in a missing directory or a
    directory itself, is a configuration error: one line on stderr and exit 2
    before any suite runs (not a traceback and exit 1 after the whole sweep)."""
    ran = []
    monkeypatch.setattr(verify, "run", lambda config: ran.append(config) or [])
    for path in (tmp_path / "missing" / "report.jsonl", tmp_path):
        code = cli.main(["--report", str(path)])
        captured = capsys.readouterr()
        assert code == 2, path
        assert captured.err.startswith("configuration error: "), captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""
    assert ran == []
    assert not (tmp_path / "missing").exists()


def test_cli_check_error_propagates(monkeypatch, capsys):
    """An error raised by a check is a fault of the package, neither a failed
    check (exit 1) nor a configuration error (exit 2), although every typed
    error of the package is a ValueError: its traceback goes to stderr and
    the run exits 3."""
    def failing(config, rng):
        raise JetRecoveryError("map domain radius 0.0 is not positive")

    monkeypatch.setitem(verify.GROUPS, "jets", [failing])
    code = cli.main(["--dim", "2", "--samples", "5", "--suite", "jets"])
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" in err
    assert "JetRecoveryError: map domain radius 0.0 is not positive" in err
    assert "configuration error" not in err


def test_cli_writes_report_file(tmp_path, capsys):
    path = tmp_path / "report.jsonl"
    code = cli.main([
        "--dim", "2", "--samples", "30", "--suite", "geometry",
        "--report", str(path),
    ])
    capsys.readouterr()
    assert code == 0
    records = [json.loads(line) for line in path.read_text().strip().split("\n")]
    assert records[-1]["name"] == "summary"
    assert records[-1]["failures"] == 0
    assert {r["name"] for r in records[:-1]} == {
        "geometry.cayley_roundtrip",
        "geometry.boundary_correspondence",
        "geometry.interior_correspondence",
        "geometry.cayley_slice_derivative",
    }


def test_cli_dimension_sweep_tags_names(tmp_path, capsys):
    path = tmp_path / "sweep.jsonl"
    code = cli.main([
        "--samples", "20", "--suite", "examples", "--report", str(path),
    ])
    capsys.readouterr()
    assert code == 0
    records = [json.loads(line) for line in path.read_text().strip().split("\n")]
    names = [r["name"] for r in records[:-1]]
    for dim in cli.DEFAULT_DIMS:
        assert any(name.endswith(f"[n={dim}]") for name in names)
