"""The benchmark harness: one workload, one seed, one process, closed loop.

A run generates its inputs from the seed (untimed), sets up several times
and keeps the median, runs and checks one warm-up op per instance, makes
the once-per-run exactness check, then runs the timed ops in rounds (one
op per instance per round) until the measuring time is spent.  Every op is
checked outside its timing.  With ``trace`` the first half of the time runs
traced ops and the second half untraced ones, so the tracing overhead is
measured in the same process.

Times are reported in reference seconds (see ``calibrate``): the metric
``op_s`` is the median op time of each instance averaged over the
instances, and ``setup_s`` the median set-up time.  Raw wall times are printed beside them;
per-layer times are wall seconds of the traced run.

The last line printed is the machine-readable result object.  Of the
lines before it, the one that starts with ``quality`` holds, as JSON, the
final objective and accuracy of each instance seed's warm-up op: exact for
a fixed seed and not gated, so that a later run can be compared seed by
seed.  Every other line is a human-readable report.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from cf_forge import metric

from . import calibrate, workloads
from .tracer import Tracer

SETUP_MIN_REPS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 30
MAX_PROBLEMS_SHOWN = 10


class Ledger:
    """Attempted and failed ops, and the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.run_problems: list[str] = []
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            room = MAX_PROBLEMS_SHOWN - len(self.problems)
            self.problems.extend(f"{what}: {p}" for p in problems[:room])

    def run_check(self, what: str, problems: list[str]) -> None:
        self.run_problems.extend(f"{what}: {p}" for p in problems)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.run_problems


def tail(samples: list[float]) -> tuple[int, float] | None:
    """The highest of p99 / p90 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99, 90):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phase:
    """The reference and wall seconds of every op of one phase, per instance.

    ``op_s`` is the median op time of each instance, averaged over the
    instances; with one instance, the median op time."""

    def __init__(self, instances: int) -> None:
        self.ref: list[list[float]] = [[] for _ in range(instances)]
        self.wall: list[list[float]] = [[] for _ in range(instances)]

    def op_s(self, wall: bool = False) -> float:
        return statistics.fmean(statistics.median(v) for v in (self.wall if wall else self.ref))

    @property
    def rounds(self) -> int:
        return len(self.ref[0])

    @property
    def op_walls(self) -> list[float]:
        return [t for v in self.wall for t in v]


class Run:
    def __init__(self, wl: workloads.Workload, seed: int, seconds: float, trace: bool, out):
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out = out
        self.ledger = Ledger()
        self.tracer = Tracer()
        self.layer_totals: dict[str, float] = {}
        self.quality: dict[str, dict[str, float]] = {}
        self.absent: list[str] = []

    def attempt(self, inst, warm_key, traced: bool, keep: bool = False):
        """One op, timed, then checked.  Returns (wall s, reference s,
        outcome, result), the result only if ``keep``, so that no more than
        one op's output is alive while the next op runs."""
        # margin_metric is looked up inside the op, after the wrappers are in
        op = lambda: self.wl.op(inst, metric.margin_metric)
        what = f"op on seed {inst.seed}"
        before = calibrate.loop_s()
        t0 = perf_counter()
        try:
            result = self.tracer.traced_op(op) if traced else op()
            error = None
        except Exception as exc:  # a raising op fails; the run goes on
            error = exc
        wall = perf_counter() - t0
        ref = calibrate.reference_s(wall, before, calibrate.loop_s())
        if error is None:
            try:
                outcome = self.wl.check(inst, result)
            except Exception as exc:  # so does a result the checks cannot read
                error = exc
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            self.ledger.record(what, [f"raised {type(error).__name__}: {error}"])
            return wall, ref, None, None
        problems = list(outcome.problems)
        if warm_key is not None and outcome.key != warm_key:
            problems.append("result is not bit-identical to the warm-up op's")
        self.ledger.record(what, problems)
        return wall, ref, outcome, (result if keep else None)

    def phase(self, instances, warm_keys, budget_s: float, traced: bool) -> Phase:
        """Whole rounds, one op per instance, until budget_s has passed."""
        ph = Phase(len(instances))
        start = perf_counter()
        while not ph.rounds or perf_counter() - start < budget_s:
            for i, (inst, key) in enumerate(zip(instances, warm_keys)):
                wall, ref, outcome, _ = self.attempt(inst, key, traced)
                ph.wall[i].append(wall)
                ph.ref[i].append(ref)
                if traced and outcome is not None:
                    for k, v in outcome.layers.items():
                        self.layer_totals[k] = self.layer_totals.get(k, 0) + v
        return ph

    def setups(self, files):
        """Set up repeatedly; returns the last instances, and per set-up its
        reference seconds, wall seconds and phase breakdown."""
        ref, wall, phases = [], [], []
        start = perf_counter()
        while len(ref) < SETUP_MIN_REPS or (
            perf_counter() - start < SETUP_MIN_S and len(ref) < SETUP_MAX_REPS
        ):
            before = calibrate.loop_s()
            t0 = perf_counter()
            instances, ph = self.wl.setup(files)
            dt = perf_counter() - t0
            ref.append(calibrate.reference_s(dt, before, calibrate.loop_s()))
            wall.append(dt)
            phases.append(ph)
        return instances, ref, wall, phases

    def execute(self, workdir: Path) -> dict:
        wl = self.wl
        files, stats = wl.generate(self.seed, workdir)
        expected = wl.entry["input_stats"]
        if stats != expected:
            self.ledger.run_check("input statistics", [f"generated {stats}, recorded {expected}"])
        instances, setup_ref, setup_wall, phases = self.setups(files)

        self.tracer.assert_restored()
        warm_keys, cold = [], []
        for i, inst in enumerate(instances):
            wall, _, outcome, result = self.attempt(inst, None, traced=False, keep=i == 0)
            cold.append(wall)
            warm_keys.append(outcome.key if outcome else None)
            if outcome is not None and outcome.info:
                self.quality[str(inst.seed)] = outcome.info
            if result is not None:
                try:
                    problems = wl.run_check(inst, result)
                except Exception as exc:  # a check that cannot run is a failed check
                    traceback.print_exception(exc, file=sys.stderr)
                    problems = [f"raised {type(exc).__name__}: {exc}"]
                self.ledger.run_check("once-per-run check", problems)
            del result

        layer = {}
        if self.trace:
            traced = self.phase(instances, warm_keys, self.seconds / 2, traced=True)
            self.tracer.assert_restored()
            untraced = self.phase(instances, warm_keys, self.seconds / 2, traced=False)
            layer = self.layer_metrics(traced, untraced, phases, cold)
        else:
            untraced = self.phase(instances, warm_keys, self.seconds, traced=False)

        e2e = {
            "op_s": (untraced.op_s(), "s"),
            "setup_s": (statistics.median(setup_ref), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        self.report(stats, e2e, untraced, setup_wall, layer)
        chosen = layer if self.trace else e2e
        return {
            "correct": self.ledger.correct,
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
        }

    def layer_metrics(self, traced: Phase, untraced: Phase, phases, cold) -> dict:
        units = {m["name"]: m["unit"] for m in load_benchmark()["per_layer"]}
        n = self.tracer.ops
        values = self.tracer.metrics()
        totals = self.layer_totals
        for k in ("gradients", "probe_evals", "line_search_evals", "iterations", "backtracks"):
            values[f"optimizer.{k}"] = totals.get(f"optimizer.{k}", 0) / n
        values["engine.rules_fired"] = totals.get("engine.rules_fired", 0) / n
        cand = totals.get("ls_candidates", 0)
        values["optimizer.ls_accept_ratio"] = totals.get("ls_accepted", 0) / cand if cand else 0.0
        for k in ("load", "validate", "graph"):
            values[f"model.{k}_s"] = statistics.median(ph[k] for ph in phases)
        values["optimizer.cold_op_s"] = statistics.median(cold)
        values["trace.overhead_ratio"] = traced.op_s() / untraced.op_s()
        self.absent = self.tracer.absent_metrics()
        return {k: (values[k], units[k]) for k in units if k in values}

    def report(self, stats, e2e, untraced: Phase, setup_wall, layer) -> None:
        wl, out, ledger = self.wl, self.out, self.ledger
        out(f"workload {wl.name} seed {self.seed} instances {wl.instances} "
            f"seconds {self.seconds} trace {int(self.trace)}")
        out(f"machine nproc={os.cpu_count()} python={platform.python_version()}")
        out("input " + " ".join(f"{k}={v}" for k, v in stats.items()))
        out("times in reference seconds (wall time scaled by the calibration loop), wall in brackets")
        op_s = e2e["op_s"][0]
        wall = untraced.op_s(wall=True)
        rounds, ops = untraced.rounds, len(untraced.op_walls)
        out(f"  op_s = {op_s:.6g} s/op [{wall:.6g}]  ({wl.instances} instances x {rounds} untraced ops)")
        kind = wl.op_spec["kind"]
        if kind == "eval":
            out(f"  eval_objects_per_s = {stats['objects'] / op_s:.6g} objects/s [{stats['objects'] / wall:.6g}]")
        else:
            out(f"  {kind}_s = {op_s:.6g} s/op [{wall:.6g}]")
        t = tail(untraced.op_walls)
        if t:
            out(f"  op wall p{t[0]} = {t[1]:.6g} s  (n={ops})")
        else:
            out(f"  no tail percentile: {ops} ops, fewer than ten beyond p90")
        out(f"  setup_s = {e2e['setup_s'][0]:.6g} s [{statistics.median(setup_wall):.6g}]"
            f"  (median of {len(setup_wall)} set-ups)")
        out(f"  peak_rss_mb = {e2e['peak_rss_mb'][0]:.6g} MB")
        if self.quality:
            out(f"quality {json.dumps(self.quality)}")
        out(f"  failed_ops_ratio = {ledger.failed}/{ledger.attempted}")
        for p in ledger.run_problems + ledger.problems:
            out(f"  PROBLEM {p}")
        if layer:
            for k, (v, u) in layer.items():
                out(f"  {k} = {v:.6g} {u}")
            for name, parent, calls, secs in self.tracer.span_table():
                out(f"  span {name} <- {parent}: {calls} calls, {secs:.6g} s wall")
            if self.absent:
                out(f"  absent (target no longer in the library): {', '.join(self.absent)}")


def load_benchmark() -> dict:
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    return json.loads(path.read_text(encoding="utf-8"))


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        spec: dict | None = None, out=print) -> dict:
    """Run one workload and return the result object; ``spec`` overrides
    the workload's entry in workloads.json."""
    entry = spec if spec is not None else workloads.load_spec()["workloads"][name]
    wl = workloads.make(name, entry)
    workdir = workdir / f"{name}-s{seed}-p{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return Run(wl, seed, seconds, trace, out).execute(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run's inputs are still there
            pass
