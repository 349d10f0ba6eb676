"""Self-tests of the benchmark: tiny workloads through the real harness."""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cf_forge import optimizer

from perfbench import bench, tracer, workloads
from perfbench.reference import FlatReference, combine

ROOT = Path(__file__).resolve().parent.parent

# per-layer metrics that are counts, so repeat exactly for a fixed seed
COUNT_METRICS = (
    "model.incoming_calls", "model.closure_order_calls", "algebra.combines",
    "algebra.combines_per_probe", "algebra.combines_per_pass", "algebra.expr_evals",
    "engine.full_passes", "engine.perturb_calls", "engine.restore_calls",
    "engine.refires_per_probe", "engine.noop_probe_ratio", "engine.rules_fired",
    "metric.margin_calls", "metric.penalty_calls", "optimizer.gradients",
    "optimizer.probe_evals", "optimizer.line_search_evals", "optimizer.iterations",
    "optimizer.backtracks", "optimizer.ls_accept_ratio",
)


def tiny(kind: str) -> dict:
    """A small entry of the given op kind, shaped like workloads.json's."""
    spec = workloads.load_spec()["workloads"]
    if kind == "train":
        entry = copy.deepcopy(spec["train-desk"])
        entry["generator"]["spec"] = {"features": 4, "classes": 2, "objects": 12,
                                      "irrelevant_features": 1, "noise": 0.2}
        entry["generator"]["instances"] = 2
        entry["op"]["config"] = {"holdout_fraction": 0.25, "max_iters": 3}
        entry["op"]["naive_check_rules"] = 3
        entry["input_stats"] = {"rules": 8, "objects": 12, "largest_fan_in": 4, "longest_closure": 1}
    elif kind == "gradient":
        entry = copy.deepcopy(spec["gradient-tree"])
        entry["generator"]["spec"] = {"n_rules": 15, "shape": "tree"}
        entry["op"]["naive_check_rules"] = 5
        entry["input_stats"] = {"rules": 15, "objects": 1, "largest_fan_in": 2, "longest_closure": 4}
    else:
        entry = copy.deepcopy(spec["eval-batch"])
        entry["generator"]["spec"] = {"features": 4, "classes": 2, "objects": 20,
                                      "irrelevant_features": 1, "noise": 0.2}
        entry["input_stats"] = {"rules": 8, "objects": 20, "largest_fan_in": 4, "longest_closure": 1}
    return entry


def run_tiny(kind, tmp_path, seed=3, trace=True, lines=None):
    out = lines.append if lines is not None else (lambda line: None)
    return bench.run(kind, seed, 0.0, trace, tmp_path, spec=tiny(kind), out=out)


@pytest.mark.parametrize("kind", ["train", "gradient", "eval"])
def test_traced_runs_repeat_counts_and_restore_the_library(kind, tmp_path):
    before = tracer.snapshot()
    first = run_tiny(kind, tmp_path)
    second = run_tiny(kind, tmp_path)
    assert tracer.snapshot() == before
    per_layer = [m["name"] for m in bench.load_benchmark()["per_layer"]]
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
        assert sorted(res["metrics"]) == sorted(per_layer)
    for name in COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    lines = []
    res = run_tiny("train", tmp_path, trace=False, lines=lines)
    names = [m["name"] for m in bench.load_benchmark()["end_to_end"]]
    assert sorted(res["metrics"]) == sorted(names)
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert any(line.strip().startswith("train_s =") for line in lines)
    quality = [json.loads(line[len("quality "):]) for line in lines if line.startswith("quality ")]
    # one entry per instance seed (run seed 3, two instances)
    assert list(quality[0]) == ["6", "7"]
    assert all(sorted(q) == ["accuracy", "final_objective"] for q in quality[0].values())


def test_reference_matches_hand_computed_cfs():
    doc = {
        "propositions": [
            {"id": "a", "kind": "input"}, {"id": "b", "kind": "input"},
            {"id": "c0", "kind": "derived", "output_class": True},
            {"id": "c1", "kind": "derived", "output_class": True},
        ],
        "rules": [
            {"id": "r1", "if": "a", "then": "c0", "weight": 0.5},
            {"id": "r2", "if": "b", "then": "c0", "weight": -0.4},
            {"id": "r3", "if": "a", "then": "c1", "weight": 0.8},
        ],
    }
    ref = FlatReference(doc)
    # c0 pools 0.3 and -0.4: (0.3 - 0.4) / (1 - 0.3); c1 is 0.8 x 0.6
    cfs = ref.class_cfs({"a": 0.6, "b": 1.0})
    assert cfs["c0"] == pytest.approx(-1.0 / 7.0, abs=1e-15)
    assert cfs["c1"] == pytest.approx(0.48, abs=1e-15)
    assert ref.argmax(cfs) == "c1"
    # b at or below the threshold does not fire r2
    assert ref.class_cfs({"a": 0.6, "b": -0.5})["c0"] == pytest.approx(0.3, abs=1e-15)
    assert combine(0.5, 0.5) == 0.75 and combine(-0.5, -0.5) == -0.75
    assert combine(1.0, -1.0) == 0.0 and combine(1.0, 0.3) == 1.0


def test_seed_changes_the_generated_inputs(tmp_path):
    for kind in ("train", "gradient"):
        wl = workloads.make(kind, tiny(kind))
        texts = {}
        for seed, sub in ((1, "a"), (1, "b"), (2, "c")):
            d = tmp_path / kind / sub
            d.mkdir(parents=True)
            files, _ = wl.generate(seed, d)
            texts[sub] = [p.read_text() for _, r, dpath in files for p in (r, dpath)]
        assert texts["a"] == texts["b"]
        assert texts["a"] != texts["c"]


def test_train_check_catches_tampered_results(tmp_path):
    wl = workloads.make("train", tiny("train"))
    files, _ = wl.generate(5, tmp_path)
    inst = wl.setup(files)[0][0]
    trained, trace = wl.op(inst, optimizer.margin_metric)
    assert wl.check(inst, (trained, trace)).problems == []

    bad = copy.deepcopy(trace)
    bad.iterations[-1].objective += 1e-9
    assert any("final objective" in p for p in wl.check(inst, (trained, bad)).problems)
    rising = copy.deepcopy(trace)
    rising.iterations[0].objective = trace.initial["objective"] + 1.0
    assert any("increase" in p for p in wl.check(inst, (trained, rising)).problems)

    out_of_bounds = copy.deepcopy(trained)
    rule = out_of_bounds.rules[0]
    rule.bounds = (-0.1, 0.1)
    rule.weight = 0.5
    problems = wl.check(inst, (out_of_bounds, trace)).problems
    assert any("outside hard bounds" in p for p in problems)


def test_eval_reference_check_catches_a_wrong_cf(tmp_path):
    wl = workloads.make("eval", tiny("eval"))
    files, _ = wl.generate(5, tmp_path)
    inst = wl.setup(files)[0][0]
    result = wl.op(inst, optimizer.margin_metric)
    assert wl.run_check(inst, result) == []
    cls = inst.rb.output_classes[0]
    result[0][3].prop_cf[cls] += 1e-9
    assert any("off the reference" in p for p in wl.run_check(inst, result))


class FlakyGradient(workloads.GradientWorkload):
    """Raises on its second op and perturbs its third result."""

    calls = 0

    def op(self, inst, metric_fn):
        self.calls += 1
        g, budget = super().op(inst, metric_fn)
        if self.calls == 2:
            raise RuntimeError("injected failure")
        if self.calls == 3:
            rid = sorted(g)[0]
            g[rid] += abs(g[rid]) * 1e-9 + 1e-300
        return g, budget


def test_failed_ops_are_counted_against_attempted(tmp_path):
    before = tracer.snapshot()
    lines = []
    wl = FlakyGradient("gradient", tiny("gradient"))
    tmp_path.joinpath("w").mkdir()
    res = bench.Run(wl, 3, 0.0, True, lines.append).execute(tmp_path / "w")
    # warm-up, one traced op (raises), one untraced op (not bit-identical)
    assert (res["attempted"], res["failed"], res["correct"]) == (3, 2, False)
    problems = [line for line in lines if "PROBLEM" in line]
    assert any("injected failure" in p for p in problems)
    assert any("bit-identical" in p for p in problems)
    assert any(line.strip() == "failed_ops_ratio = 2/3" for line in lines)
    assert tracer.snapshot() == before


def test_removed_target_is_absent_not_zero(tmp_path, monkeypatch):
    monkeypatch.delattr(optimizer, "restore_weight")
    lines = []
    res = run_tiny("eval", tmp_path, lines=lines)
    assert res["correct"]
    assert "engine.restore_calls" not in res["metrics"]
    assert "engine.perturb_calls" in res["metrics"]
    assert any("absent" in line and "engine.restore_calls" in line for line in lines)
    assert getattr(optimizer, "restore_weight", None) is None


def test_benchmark_record_agrees_with_workloads_json():
    bm = bench.load_benchmark()
    spec = workloads.load_spec()
    assert [w["name"] for w in bm["workloads"]] == list(spec["workloads"])
    assert [m["name"] for m in bm["per_layer"]] == list(spec["per_layer"])
    e2e = {m["name"] for m in bm["end_to_end"]}
    for name, rec in spec["per_layer"].items():
        for metric_name, workload in rec["moves"]:
            assert metric_name in e2e and workload in spec["workloads"], name
    assert bm["paths"] == ["perfbench"]


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
