"""Alternating pair runs of one benchmark workload: this checkout against a
git revision.

Usage: ``python3 tools/pairs.py --against REV --workload W [--pairs 10]
[--seconds 20] [--seed 21] [--counters]``

REV's committed files are extracted with ``git archive`` into a temporary
directory, removed at exit.  Each side runs the command that
``BENCHMARK.json`` declares, from its own root, so each imports its own
``src/``; this checkout runs as its working tree holds it.  Pair i runs
both sides with seed + i; REV runs first in even pairs, this checkout in
odd ones.  For each end-to-end metric of ``BENCHMARK.json`` the tool prints
REV's median and quartiles, this checkout's median, the relative change of
the medians beside the metric's bound, a verdict (``WORSE`` when worse by
more than the bound), and the number of pairs in which this checkout was
better (a tie counts for neither side).  With ``--counters`` each side
then makes one ``--trace 1`` run at the first seed, and the tool prints
each per-layer metric counted in calls, passes, firings or rules that
differs between the sides, or ``counters equal``.  A run that fails,
prints no result, or reports ``correct: false`` stops the tool with exit
status 1, naming the side and the seed.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# BENCHMARK.json's per-layer units that count work rather than time it
COUNT_UNITS = ("calls/op", "count/op", "passes/op", "firings/op", "calls/probe", "calls/pass",
               "rules/probe")


class RunFailed(Exception):
    """A benchmark run that produced no usable result."""


def result_metrics(stdout: str, side: str, seed: int) -> dict[str, float]:
    """The metric values of a run's result object, the last line of its
    standard output; RunFailed when there is none or it is not correct."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        raise RunFailed(f"{side} printed no result object at seed {seed}") from None
    if result.get("correct") is not True:
        raise RunFailed(f"{side} reported correct: false at seed {seed} "
                        f"({result.get('failed')} of {result.get('attempted')} ops failed)")
    return metrics


def run_side(root: Path, command: list[str], workload: str, seed: int, seconds: float,
             side: str, trace: int = 0) -> dict[str, float]:
    """One benchmark run from ``root``; its metric values."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, encoding="utf-8")
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no error output"]
        raise RunFailed(f"{side} exited {done.returncode} at seed {seed}: {tail[0]}")
    return result_metrics(done.stdout, side, seed)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[dict[str, float]], change: list[dict[str, float]],
              metrics: list[dict]) -> list[dict]:
    """One row per metric (BENCHMARK.json's ``end_to_end`` entries) from
    paired results: ``parent[i]`` and ``change[i]`` ran with the same seed.
    ``rel`` is the change median over the parent median, minus 1."""
    rows = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        before = [r[name] for r in parent]
        after = [r[name] for r in change]
        q1, median, q3 = quartiles(before)
        now = statistics.median(after)
        rel = now / median - 1.0 if median else 0.0
        worse = rel if lower else -rel
        better = sum((a < b) if lower else (a > b) for a, b in zip(after, before))
        rows.append({"name": name, "unit": m["unit"], "parent_median": median, "parent_q1": q1,
                     "parent_q3": q3, "change_median": now, "rel": rel, "bound": m["bound"],
                     "worse_beyond_bound": worse > m["bound"], "better": better,
                     "pairs": len(after)})
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'metric':<18}{'parent median [q1, q3]':>34}{'change':>12}{'rel':>9}"
             f"{'bound':>8}  verdict  better"]
    for r in rows:
        spread = f"{r['parent_median']:.5g} [{r['parent_q1']:.5g}, {r['parent_q3']:.5g}]"
        verdict = "WORSE" if r["worse_beyond_bound"] else "ok"
        lines.append(f"{r['name'] + ' (' + r['unit'] + ')':<18}{spread:>34}{r['change_median']:>12.5g}"
                     f"{r['rel']:>+9.2%}{r['bound']:>8.0%}  {verdict:<7}  {r['better']}/{r['pairs']}")
    return "\n".join(lines)


def counter_changes(parent: dict[str, float], change: dict[str, float],
                    metrics: list[dict]) -> list[str]:
    """One line per per-layer metric (BENCHMARK.json's ``per_layer``
    entries) whose unit is in COUNT_UNITS and whose value differs between
    the traced results; ``["counters equal"]`` when none does."""
    lines = [f"{m['name']} ({m['unit']}): {parent.get(m['name'])} -> {change.get(m['name'])}"
             for m in metrics
             if m["unit"] in COUNT_UNITS and parent.get(m["name"]) != change.get(m["name"])]
    return lines or ["counters equal"]


def extract(rev: str, into: Path) -> None:
    """Write git revision ``rev`` of this repository under ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Alternating benchmark pairs against a revision.")
    parser.add_argument("--against", metavar="REV", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--counters", action="store_true",
                        help="then compare the work counters of one traced run per side")
    args = parser.parse_args(argv[1:])
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = [], []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        try:
            extract(args.against, Path(tmp))
        except subprocess.CalledProcessError as e:
            sys.exit(f"git: {e.stderr.decode(errors='replace').strip()}")
        sides = [("parent", Path(tmp), parent), ("change", ROOT, change)]
        try:
            for i in range(args.pairs):
                seed = args.seed + i
                for side, root, results in sides if i % 2 == 0 else sides[::-1]:
                    results.append(run_side(root, spec["command"], args.workload, seed,
                                            args.seconds, side))
                print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr, flush=True)
            traced = [run_side(root, spec["command"], args.workload, args.seed, args.seconds, side,
                               trace=1) for side, root, _ in sides if args.counters]
        except RunFailed as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    print(f"{args.workload}: {args.pairs} alternating pairs, --seconds {args.seconds:g}, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}, parent {args.against}")
    print(format_rows(summarize(parent, change, spec["end_to_end"])))
    if traced:
        print(f"traced counters at seed {args.seed}, parent -> change:")
        print("\n".join(counter_changes(*traced, spec["per_layer"])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
