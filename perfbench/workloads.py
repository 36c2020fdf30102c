"""The benchmark's workloads: what one task is, and how its outputs are checked.

Each workload is a closed loop with one caller: a task starts when the
previous one has returned.  Inputs come from the seed alone and are made in
the constructor, before any timing.  ``task`` runs and times one task;
its outputs are checked only after the clock has stopped, and ``outcome``
sums up the checks of every task run so far.

* ``sweep``: the default ``siegelball`` sweep, ``verify.run`` over the CLI's
  default dims with 1000 samples and all suites.
* ``group_ops``: a seeded stream of ``AutParams`` at d = 1, 3, 7; per draw
  ``compose(p, q)``, ``invert(p)`` and ``recover_params(extract_jet2(
  as_holo_map(p)))``, checked against the closed-form group law.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

import oracle

SWEEP_SAMPLES = 1000

GROUP_DIMS = (1, 3, 7)
DRAWS_PER_DIM = 40
#: One draw in WIDE_EVERY comes from the wide parameter range.
WIDE_EVERY = 4
WIDE_RANGE = {"a_max": 5.0, "r_max": 20.0, "s_min": 0.1, "s_max": 10.0}
#: Tolerance each group operation is held to, by ``verify.DEFAULT_TOLS`` name.
ORACLE_TOLS = {
    "compose": "autgroup.compose_associative",
    "invert": "autgroup.invert_two_sided",
    "recover": "jets.recovery_params",
}


@dataclass
class Outcome:
    """Checked result of every task run so far."""

    latencies: list[float]  # seconds per untraced operation (successful ones)
    attempted: int
    failed: int
    incorrect: int  # failures that returned a wrong answer rather than raising
    details: dict


def error_kind(sb, exc: BaseException) -> str:
    """``typed`` for the package's own error classes, else ``untyped``."""
    typed = (sb.JetRecoveryError, sb.NotOriginFixingError, sb.AutomorphismPoleError,
             sb.CayleyPoleError, sb.SingularMatrixError)
    return "typed" if isinstance(exc, typed) else "untyped"


class SweepWorkload:
    """The default sweep: ``verify.run`` over the CLI's default dims.

    One task is the whole sweep.  An operation is one check group call,
    timed from outside; attempts and failures count checks, as the CLI
    summary does.
    """

    min_attempts = 1

    def __init__(self, sb, seed: int):
        self.sb = sb
        self.configs = [sb.verify.RunConfig(dim=dim, seed=seed, samples=SWEEP_SAMPLES)
                        for dim in sb.cli.DEFAULT_DIMS]
        self.warm_config = sb.verify.RunConfig(dim=2, seed=seed, samples=4)
        self._calls: list[tuple[float, int]] = []
        self._tasks: list[tuple[list, list, bool]] = []

    @contextlib.contextmanager
    def group_timer(self):
        """Time every check group call: (seconds, number of results reported)."""
        groups = self.sb.verify.GROUPS
        saved = {suite: list(fns) for suite, fns in groups.items()}
        clock = time.perf_counter

        def timed(fn):
            @functools.wraps(fn)
            def call(config, rng):
                start = clock()
                outcomes = fn(config, rng)
                self._calls.append((clock() - start, len(outcomes)))
                return outcomes
            return call

        for fns in groups.values():
            fns[:] = [timed(fn) for fn in fns]
        try:
            yield
        finally:
            for suite, fns in saved.items():
                groups[suite][:] = fns

    def warm_up(self) -> None:
        self.sb.verify.run(self.warm_config)

    def task(self, traced: bool = False) -> float:
        self._calls = []
        run = self.sb.verify.run
        with self.group_timer():
            start = time.perf_counter()
            results = [r for config in self.configs for r in run(config)]
            wall = time.perf_counter() - start
        self._tasks.append((results, self._calls, traced))
        return wall

    def outcome(self) -> Outcome:
        latencies, attempted, failed = [], 0, 0
        failing = Counter()
        for results, calls, traced in self._tasks:
            if not traced:
                latencies += [seconds for seconds, _ in calls]
            attempted += len(results)
            bad = [r.name for r in results if r.status != "pass"]
            failed += len(bad)
            failing.update(bad)
        return Outcome(latencies, attempted, failed, failed,
                       {"failing_checks": dict(failing),
                        "group_calls_per_task": len(self._tasks[0][1])})

    def summary_overcount_frac(self) -> float:
        """How far the CLI summary's time exceeds the distinct group time.

        A group that reports several results stamps each with the group's
        whole time, and the summary adds them all up.
        """
        results, calls, _ = self._tasks[0]
        summary_ms = self.sb.verify.summarize(results)["ms"]
        distinct_ms, i = 0.0, 0
        for _, count in calls:
            distinct_ms += results[i].ms
            i += count
        return summary_ms / distinct_ms - 1.0


def _compose(sb, p, q):
    return sb.autgroup.compose(p, q)


def _invert(sb, p):
    return sb.autgroup.invert(p)


def _recover(sb, p):
    return sb.jets.recover_params(sb.jets.extract_jet2(sb.autgroup.as_holo_map(p)))


OPERATIONS = {"compose": _compose, "invert": _invert, "recover": _recover}
ORACLES = {"compose": oracle.compose, "invert": oracle.invert, "recover": oracle.exact}


class GroupOpsWorkload:
    """One task is one pass over a pre-generated stream of group operations.

    Draws alternate over d = 1, 3, 7; every fourth draw per d comes from the
    wide parameter range.  ``compose`` and ``invert`` run on every draw and
    the public recovery path on the default-range draws.  Recovery of the
    wide-range draws fails at baseline (a known defect of the default jet
    radius); it runs once per benchmark run as a separate probe, outside the
    timed stream, and is reported by error type.
    """

    min_attempts = 1000

    def __init__(self, sb, seed: int):
        self.sb = sb
        rng = np.random.default_rng([seed, 0x6F7073])
        self.stream: list[tuple[str, int, tuple]] = []
        self.probe: list[tuple[str, int, tuple]] = []
        for i in range(DRAWS_PER_DIM):
            for d in GROUP_DIMS:
                wide = i % WIDE_EVERY == WIDE_EVERY - 1
                kwargs = WIDE_RANGE if wide else {}
                p = sb.autgroup.random_params(d, rng, **kwargs)
                q = sb.autgroup.random_params(d, rng, **kwargs)
                self.stream.append(("compose", d, (p, q)))
                self.stream.append(("invert", d, (p,)))
                (self.probe if wide else self.stream).append(("recover", d, (p,)))
        self._checked: list[tuple[list[float], list[bool], bool]] = []
        self._errors = Counter()
        self._oracle_cache: dict = {}
        self._probe: dict | None = None

    def warm_up(self) -> None:
        self._run(self.stream)

    def _run(self, ops) -> tuple[list, list[float]]:
        sb = self.sb
        clock = time.perf_counter
        outputs, latencies = [], []
        for kind, _, args in ops:
            t0 = clock()
            try:
                out = OPERATIONS[kind](sb, *args)
            except Exception as exc:  # counted as a failure, by type, in _check
                out = exc
            latencies.append(clock() - t0)
            outputs.append(out)
        return outputs, latencies

    def task(self, traced: bool = False) -> float:
        start = time.perf_counter()
        outputs, latencies = self._run(self.stream)
        wall = time.perf_counter() - start
        # Checked once the clock has stopped; only the verdicts are kept, so
        # memory does not grow with the number of passes.
        good = self._check(self.stream, outputs, self._errors)
        self._checked.append((latencies, good, traced))
        return wall

    def _check(self, ops, outputs, errors: Counter) -> list[bool]:
        """Compare each output with the oracle; count errors by type."""
        tols = self.sb.verify.DEFAULT_TOLS
        good = []
        for (kind, _, args), out in zip(ops, outputs):
            if isinstance(out, Exception):
                errors[error_kind(self.sb, out)] += 1
                errors[f"{type(out).__name__}: {str(out).split(' (')[0][:80]}"] += 1
                good.append(False)
            elif oracle.distance(out, self._expected(kind, args)) > tols[ORACLE_TOLS[kind]]:
                errors["oracle_miss"] += 1
                good.append(False)
            else:
                good.append(True)
        return good

    def _expected(self, kind, args):
        key = (kind, *map(id, args))
        if key not in self._oracle_cache:
            self._oracle_cache[key] = ORACLES[kind](*args)
        return self._oracle_cache[key]

    def outcome(self) -> Outcome:
        if self._probe is None:
            # The wide-range recoveries: once per run, outside the timed stream.
            errors = Counter()
            good = self._check(self.probe, self._run(self.probe)[0], errors)
            self._probe = {"attempted": len(self.probe), "failed": good.count(False),
                           **errors}
        latencies = [t for times, good, traced in self._checked if not traced
                     for t, ok in zip(times, good) if ok]
        failed = sum(good.count(False) for _, good, _ in self._checked)
        return Outcome(latencies, len(self.stream) * len(self._checked), failed,
                       self._errors["oracle_miss"] + self._probe.get("oracle_miss", 0),
                       {"stream_errors": dict(self._errors), "wide_recover_probe": self._probe})

    def per_op_p50_ms(self) -> dict:
        """Median latency of each (operation, d) over successful untraced calls."""
        samples: dict[tuple[str, int], list[float]] = {}
        for times, good, traced in self._checked:
            if traced:
                continue
            for (kind, d, _), t, ok in zip(self.stream, times, good):
                if ok:
                    samples.setdefault((kind, d), []).append(t)
        return {key: float(np.median(ts)) * 1e3 for key, ts in samples.items()}


WORKLOADS = {"sweep": SweepWorkload, "group_ops": GroupOpsWorkload}
