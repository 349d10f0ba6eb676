"""Record a trajectory point: every workload over several seeds, untraced,
plus one traced run per workload, appended to ``perfbench/trajectory.json``.

    python3 perfbench/record.py --label "baseline" --seeds 1-10

Each run is a separate ``perfbench/run.py`` process, one at a time.  For
every end-to-end metric the point keeps the median, the quartiles and the
spread (interquartile distance as a share of the median) over the seeds;
for the traced run it keeps every per-layer metric.  It also keeps the
final objective and accuracy of every instance seed, which are exact for a
fixed seed, and prints each one that differs from the previous point's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result object and the per-instance-seed quality figures."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    quality = {}
    for line in lines[:-1]:
        if line.startswith("quality "):
            quality = json.loads(line[len("quality "):])
    return json.loads(lines[-1]), quality


def quality_changes(previous: dict, point: dict) -> list[str]:
    """Instance seeds whose final objective or accuracy differs between two points."""
    changes = []
    for name, wl in point["workloads"].items():
        old = previous["workloads"].get(name, {}).get("quality", {})
        for s, q in wl["quality"].items():
            if s in old and old[s] != q:
                changes.append(f"{name} instance seed {s}: {old[s]} -> {q}")
    return changes


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    bm = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    point = {
        "label": args.label,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "cpu": cpu_model()},
        "run_seconds": bm["run_seconds"],
        "seeds": seeds(args.seeds),
        "workloads": {},
    }
    for name in (w["name"] for w in bm["workloads"]):
        results, quality = [], {}
        for s in point["seeds"]:
            res, q = run(name, s, bm["run_seconds"], 0)
            results.append(res)
            quality.update(q)
            print(name, s, json.dumps(res["metrics"]), flush=True)
        traced, _ = run(name, point["seeds"][0], bm["run_seconds"], 1)
        point["workloads"][name] = {
            "correct": all(r["correct"] for r in results + [traced]),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                m["name"]: summary([r["metrics"][m["name"]]["value"] for r in results])
                for m in bm["end_to_end"]
            },
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "quality": quality,
        }
        for k, v in point["workloads"][name]["end_to_end"].items():
            print(f"  {name} {k}: median {v['median']:.6g} spread {v['spread']:.4f}", flush=True)
    points = json.loads(TRAJECTORY.read_text(encoding="utf-8")) if TRAJECTORY.exists() else []
    if points:
        for line in quality_changes(points[-1], point):
            print("quality changed:", line, flush=True)
    points.append(point)
    TRAJECTORY.write_text(json.dumps(points, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
