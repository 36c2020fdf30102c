#!/usr/bin/env python3
"""siegelball benchmark: one workload, one seed, one measured run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 50 --trace 0

The package is imported from ``src/`` of the checkout.  With ``--trace 0``
tasks run back to back for ``--seconds`` and the end-to-end metrics are
reported; with ``--trace 1`` untraced and traced tasks alternate and the
per-layer metrics are reported.  Every output is checked outside the timed
region.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the same figures for people.  Each run appends a record (versions,
``nproc``, revision, seed, load average, all figures) to
``.perfbench_runs/runs.jsonl``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".perfbench_runs"
#: Fresh interpreters set up per run; setup_s is their median.
SETUP_REPEATS = 5
#: Spans kept in memory (and written out) per traced run; the rest are
#: counted in the totals only.
SPAN_KEEP = 100_000

GEOMETRY_FNS = ("cayley", "inverse_cayley", "siegel_defect", "ball_defect")
AUTGROUP_FNS = ("apply", "factor_apply", "ball_automorphism", "compose", "invert",
                "random_params", "AutParams")
JETS_FNS = ("extract_jet2", "recover_params", "cauchy_derivative", "check_levi",
            "check_polarization")
MAPS_FNS = ("homog_sum_map", "whitney_map", "evaluate", "whitney_norm_identity",
            "homog_sum_norm_squared")
HILBERT_FNS = ("as_vector", "inner", "norm", "unitarity_defect", "solve", "haar_unitary")


def import_package():
    """Import siegelball from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "siegelball" / "__init__.py").is_file():
        raise ImportError(f"no siegelball package under {src}")
    sys.path.insert(0, str(src))
    import siegelball
    import siegelball.cli

    if Path(siegelball.__file__).resolve().parent != (src / "siegelball").resolve():
        raise ImportError(f"siegelball was imported from {siegelball.__file__}")
    return siegelball


def make_workload(name: str, seed: int):
    return workloads.WORKLOADS[name](import_package(), seed)


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter until its inputs are ready."""
    times = []
    for _ in range(SETUP_REPEATS):
        spawned = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only", repr(spawned)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def timed_run(workload, seconds: float):
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(workload.task())
        if time.perf_counter() - start >= seconds:
            outcome = workload.outcome()
            if outcome.attempted >= workload.min_attempts:
                return walls, outcome


def traced_run(sb, workload, seconds: float):
    """Alternate untraced and traced tasks; stop before a pair would overrun."""
    tracer = spans.Tracer(SPAN_KEEP)
    untraced, traced, unspanned = [], [], []
    start = time.perf_counter()
    elapsed = 0.0
    while not traced or elapsed * (len(traced) + 1) / len(traced) <= seconds:
        untraced.append(workload.task())
        roots_before = tracer.root_seconds
        with spans.instrument(sb, tracer):
            traced.append(workload.task(traced=True))
        unspanned.append(traced[-1] - (tracer.root_seconds - roots_before))
        elapsed = time.perf_counter() - start
    return tracer, untraced, traced, unspanned


def layer_metrics(sb, workload, outcome, tracer, untraced, traced, unspanned) -> dict:
    """Per-layer figures, per task (totals over traced tasks / their count)."""
    n = len(traced)
    m = {}

    def calls_and_self(span):
        calls, _, self_s, _ = tracer.stat(span)
        m[f"{span}.calls"] = calls / n
        m[f"{span}.self_s"] = self_s / n

    for suite, fns in sb.verify.GROUPS.items():
        for fn in fns:
            name = f"verify.{suite}.{spans.group_name(fn)}"
            m[f"{name}.s"] = tracer.stat(name)[1] / n
    for fn in GEOMETRY_FNS:
        calls_and_self(f"geometry.{fn}")
    calls_and_self("geometry.samplers")
    m["geometry.samplers.points"] = tracer.counters["geometry.samplers.points"] / n
    for fn in AUTGROUP_FNS:
        calls_and_self(f"autgroup.{fn}")
    for fn in JETS_FNS:
        calls_and_self(f"jets.{fn}")
    m["jets.extract_jet2.grid_points"] = tracer.counters["jets.extract_jet2.grid_points"] / n
    m["jets.recover_params.failed"] = tracer.stat("jets.recover_params")[3] / n
    for fn in MAPS_FNS:
        calls_and_self(f"maps.{fn}")
    for fn in HILBERT_FNS:
        m[f"hilbert.{fn}.calls"] = tracer.stat(f"hilbert.{fn}")[0] / n
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = tracer.layer_self(layer) / n
    m["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    m["trace.unspanned_s"] = statistics.fmean(unspanned)

    # Figures that only one kind of workload has read 0 on the other.
    is_sweep = isinstance(workload, workloads.SweepWorkload)
    m["verify.summary_overcount_frac"] = workload.summary_overcount_frac() if is_sweep else 0.0
    p50 = {} if is_sweep else workload.per_op_p50_ms()
    for kind in workloads.OPERATIONS:
        for d in workloads.GROUP_DIMS:
            m[f"group_ops.{kind}.d{d}.p50_ms"] = p50.get((kind, d), 0.0)
    lat = [] if is_sweep else outcome.latencies
    m["group_ops.op_samples"] = len(lat)
    m["group_ops.op_p99_ms"] = percentile(lat, 99) * 1e3 if lat else 0.0
    passes = len(untraced) + len(traced)
    stream = outcome.details.get("stream_errors", {})
    probe = outcome.details.get("wide_recover_probe", {})
    for key in ("typed", "untyped", "oracle_miss"):
        m[f"group_ops.stream.{key}"] = stream.get(key, 0) / passes
        m[f"group_ops.wide_recover.{key}"] = probe.get(key, 0)
    m["group_ops.wide_recover.attempted"] = probe.get("attempted", 0)
    return m


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=float, default=None, metavar="SPAWNED",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only is not None:
        make_workload(args.workload, args.seed)
        print(time.time() - args.setup_only)
        return 0

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "loadavg_start": loadavg(), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(),
        "git_revision": git_revision(), "source_sha256": source_digest(),
    }
    workload = make_workload(args.workload, args.seed)
    sb = sys.modules["siegelball"]
    record["siegelball"] = sb.__version__
    workload.warm_up()

    if args.trace:
        tracer, untraced, traced, unspanned = traced_run(sb, workload, args.seconds)
        outcome = workload.outcome()
        values = layer_metrics(sb, workload, outcome, tracer, untraced, traced, unspanned)
        wanted = spec["per_layer"]
        record.update(untraced_s=untraced, traced_s=traced, spans_total=tracer.span_count,
                      spans_kept=min(tracer.span_count, SPAN_KEEP))
        RUNS_DIR.mkdir(exist_ok=True)
        tracer.write(RUNS_DIR / f"spans-{args.workload}.npz")
    else:
        setup = measure_setup(args)
        # Peak memory of the measuring process: setup children are separate.
        walls, outcome = timed_run(workload, args.seconds)
        lat = outcome.latencies
        values = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "task_s": statistics.median(walls),
            "goodput_per_s": (outcome.attempted - outcome.failed) / sum(walls),
            "op_p50_ms": percentile(lat, 50) * 1e3,
        }
        wanted = spec["end_to_end"]
        # Tails are printed and recorded but not gated: on group_ops they
        # follow the memory-bound d = 7 inversions, and their quartile spread
        # over ten seeds on a shared 2-core machine (0.32 for p90) exceeded
        # the largest bound a metric may have (0.25).
        tails = {}
        for q in (90, 99):
            cut = percentile(lat, q)
            tails[f"op_p{q}_ms"] = (cut * 1e3, sum(t > cut for t in lat))
        record.update(setup_s=setup, task_s=walls, op_samples=len(lat), op_tails=tails)

    missing = [w["name"] for w in wanted if w["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    metrics = {w["name"]: {"value": float(values[w["name"]]), "unit": w["unit"]} for w in wanted}
    correct = outcome.incorrect == 0
    record.update(correct=correct, attempted=outcome.attempted, failed=outcome.failed,
                  details=outcome.details, metrics=values, loadavg_end=loadavg())
    RUNS_DIR.mkdir(exist_ok=True)
    with open(RUNS_DIR / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record, default=str) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} python={record['python']} "
          f"numpy={record['numpy']} nproc={record['nproc']} rev={record['git_revision'][:12]} "
          f"loadavg={record['loadavg_start']}")
    print(f"# failed_frac = {outcome.failed}/{outcome.attempted}"
          f" = {outcome.failed / outcome.attempted:.4g}")
    for key, value in outcome.details.items():
        print(f"# {key}: {json.dumps(value)}")
    if not args.trace:
        print(f"# op latency over {record['op_samples']} operations: " + "; ".join(
            f"{name} {value:.4g} ms ({beyond} beyond)"
            for name, (value, beyond) in record["op_tails"].items()))
    for name, entry in metrics.items():
        print(f"{name:45s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ImportError, OSError, KeyError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)
