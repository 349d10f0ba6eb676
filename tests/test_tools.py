"""``tools/pairs.py``, the alternating benchmark pairs: its summary and its
reading of a run's result, on hand-made results.  No benchmark runs here."""

import json
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PAIRS = runpy.run_path(str(ROOT / "tools" / "pairs.py"))
METRICS = [
    {"name": "op_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "hits", "unit": "count", "better": "higher", "bound": 0.1},
]


def results(op_s, hits):
    return [{"op_s": a, "hits": b} for a, b in zip(op_s, hits)]


def test_summary_of_hand_made_pairs():
    parent = results([1.0, 2.0, 3.0, 4.0, 5.0], [10, 10, 10, 10, 10])
    change = results([0.5, 2.0, 2.5, 4.5, 3.0], [9, 9, 9, 10, 11])
    op_s, hits = PAIRS["summarize"](parent, change, METRICS)
    # inclusive quartiles of 1..5
    assert (op_s["parent_q1"], op_s["parent_median"], op_s["parent_q3"]) == (2.0, 3.0, 4.0)
    assert op_s["change_median"] == 2.5 and op_s["rel"] == pytest.approx(-1 / 6)
    assert op_s["better"] == 3 and op_s["pairs"] == 5  # the tie at 2.0 counts for neither
    assert not op_s["worse_beyond_bound"] and op_s["bound"] == 0.25
    # higher is better: the median fell by 10%, not beyond a 10% bound
    assert hits["change_median"] == 9 and hits["rel"] == pytest.approx(-0.1)
    assert hits["better"] == 1 and not hits["worse_beyond_bound"]
    text = PAIRS["format_rows"]([op_s, hits])
    assert "op_s (s)" in text and "3/5" in text and "WORSE" not in text


def test_a_metric_worse_beyond_its_bound_is_flagged():
    parent = results([1.0, 1.0], [10, 10])
    at_bound, _ = PAIRS["summarize"](parent, results([1.25, 1.25], [10, 10]), METRICS)
    assert at_bound["rel"] == 0.25 and not at_bound["worse_beyond_bound"]
    op_s, hits = PAIRS["summarize"](parent, results([1.3, 1.3], [8, 8]), METRICS)
    assert op_s["worse_beyond_bound"]
    assert hits["worse_beyond_bound"] and hits["better"] == 0
    assert "WORSE" in PAIRS["format_rows"]([op_s, hits])


def test_one_pair_has_its_own_value_as_every_quartile():
    (op_s, _) = PAIRS["summarize"](results([2.0], [1]), results([1.0], [1]), METRICS)
    assert (op_s["parent_q1"], op_s["parent_median"], op_s["parent_q3"]) == (2.0, 2.0, 2.0)


def test_a_result_is_read_from_the_last_line():
    line = json.dumps({"correct": True, "attempted": 3, "failed": 0,
                       "metrics": {"op_s": {"value": 0.5, "unit": "s"}}})
    assert PAIRS["result_metrics"](f"report\n{line}\n", "change", 21) == {"op_s": 0.5}


@pytest.mark.parametrize("stdout, says", [
    ("", "change printed no result object at seed 22"),
    ("not json\n", "change printed no result object at seed 22"),
    (json.dumps({"correct": False, "attempted": 4, "failed": 1, "metrics": {}}),
     "change reported correct: false at seed 22 (1 of 4 ops failed)"),
])
def test_a_run_without_a_correct_result_fails_naming_side_and_seed(stdout, says):
    with pytest.raises(PAIRS["RunFailed"], match="^" + re.escape(says)):
        PAIRS["result_metrics"](stdout, "change", 22)


def test_counters_name_each_count_that_differs():
    per_layer = [
        {"name": "algebra.combines", "unit": "calls/op", "better": "lower"},
        {"name": "engine.full_passes", "unit": "passes/op", "better": "lower"},
        {"name": "engine.rules_fired", "unit": "firings/op", "better": "lower"},
        {"name": "engine.probe_s", "unit": "s/op", "better": "lower"},
        {"name": "engine.noop_probe_ratio", "unit": "ratio", "better": "lower"},
    ]
    parent = {"algebra.combines": 100.0, "engine.full_passes": 8.0, "engine.rules_fired": 50.0,
              "engine.probe_s": 0.5, "engine.noop_probe_ratio": 0.1}
    # times and ratios may differ; counts may not
    same = dict(parent, **{"engine.probe_s": 0.4, "engine.noop_probe_ratio": 0.2})
    assert PAIRS["counter_changes"](parent, same, per_layer) == ["counters equal"]
    moved = dict(same, **{"algebra.combines": 90.0, "engine.rules_fired": 51.0})
    assert PAIRS["counter_changes"](parent, moved, per_layer) == [
        "algebra.combines (calls/op): 100.0 -> 90.0",
        "engine.rules_fired (firings/op): 50.0 -> 51.0",
    ]
    # a counter only one side reports differs
    del moved["engine.full_passes"]
    assert "engine.full_passes (passes/op): 8.0 -> None" in PAIRS["counter_changes"](parent, moved, per_layer)


def test_counters_cover_every_count_unit_the_benchmark_declares():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["unit"] for m in spec["per_layer"]}
    counts = {u for u in units if not u.startswith(("s", "us", "ratio"))}
    assert counts == set(PAIRS["COUNT_UNITS"])
