"""End-to-end CLI runs (in-process), exit codes, reproducibility."""

import json
import os
import shlex
import shutil
import subprocess
import sys
import threading

import pytest

import cf_forge
from cf_forge import EmptyDataset, load_rulebase
from cf_forge.cli import _write_json, build_parser, main
from cf_forge.engine import DEFAULT_POLICY
from cf_forge.metric import PenaltyConfig
from cf_forge.model import MAX_EXPR_DEPTH
from cf_forge.optimizer import OptimizerConfig


def run(*argv):
    return main(list(argv))


def read_json(path):
    return json.loads(path.read_text())


@pytest.fixture
def gen_dir(tmp_path):
    out = tmp_path / "gen"
    rc = run(
        "gen", "--features", "10", "--classes", "5", "--objects", "100",
        "--irrelevant", "3", "--noise", "0.2", "--seed", "42", "--out", str(out),
    )
    assert rc == 0
    return out


class TestGen:
    def test_writes_expected_files(self, gen_dir):
        rb = load_rulebase(gen_dir / "rules.json")
        assert len(rb.rules) == 50
        assert (gen_dir / "expert.json").exists()
        lines = (gen_dir / "train.jsonl").read_text().strip().splitlines()
        assert len(lines) == 100

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        rc = run("gen", "--features", "1", "--classes", "5", "--out", str(tmp_path))
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_shaped(self, tmp_path):
        rc = run("gen", "--shape", "tree", "--rules", "7", "--seed", "1",
                 "--out", str(tmp_path))
        assert rc == 0
        rb = load_rulebase(tmp_path / "rules.json")
        assert len(rb.rules) == 7

    def test_holdout_file(self, tmp_path):
        rc = run("gen", "--features", "6", "--classes", "2", "--objects", "20",
                 "--holdout", "0.25", "--seed", "1", "--out", str(tmp_path))
        assert rc == 0
        assert len((tmp_path / "holdout.jsonl").read_text().strip().splitlines()) == 5
        assert len((tmp_path / "train.jsonl").read_text().strip().splitlines()) == 15


class TestTrain:
    def test_run_and_outputs(self, gen_dir, tmp_path):
        out = tmp_path / "run"
        rc = run(
            "train", "--rules", str(gen_dir / "rules.json"),
            "--data", str(gen_dir / "train.jsonl"),
            "--out", str(out), "--seed", "42", "--max-iters", "25",
        )
        # 3 would signal a failed line search; outputs are written either way
        assert rc in (0, 3)
        trace = read_json(out / "trace.json")
        report = read_json(out / "report.json")
        assert (out / "trained.json").exists()
        objectives = [trace["initial"]["objective"]] + [
            rec["objective"] for rec in trace["iterations"]
        ]
        assert all(a >= b for a, b in zip(objectives, objectives[1:]))
        assert report["final"]["objective"] <= report["initial"]["objective"]

    def test_fixed_seed_is_bit_reproducible(self, gen_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = run(
                "train", "--rules", str(gen_dir / "rules.json"),
                "--data", str(gen_dir / "train.jsonl"),
                "--out", str(out), "--seed", "7", "--max-iters", "10",
            )
            assert rc == 0
            outs.append(out)
        assert (outs[0] / "trace.json").read_bytes() == (outs[1] / "trace.json").read_bytes()
        assert (outs[0] / "trained.json").read_bytes() == (outs[1] / "trained.json").read_bytes()

    def test_train_only_freezes_others(self, gen_dir, tmp_path):
        out = tmp_path / "subset"
        rc = run(
            "train", "--rules", str(gen_dir / "expert.json"),
            "--data", str(gen_dir / "train.jsonl"),
            "--out", str(out), "--seed", "1", "--max-iters", "5",
            "--train-only", "r_f000_c0,r_f001_c1",
        )
        assert rc in (0, 3)
        before = load_rulebase(gen_dir / "expert.json")
        after = load_rulebase(out / "trained.json")
        for r0, r1 in zip(before.rules, after.rules):
            if r0.id not in ("r_f000_c0", "r_f001_c1"):
                assert r1.weight == r0.weight

    @pytest.mark.parametrize("holdout", ["0.2", "0"])
    def test_report_final_block_comes_from_the_trace(self, gen_dir, tmp_path, holdout):
        out = tmp_path / "run"
        rc = run(
            "train", "--rules", str(gen_dir / "rules.json"),
            "--data", str(gen_dir / "train.jsonl"), "--out", str(out),
            "--seed", "3", "--max-iters", "5", "--step-init", "0.01", "--holdout", holdout,
        )
        assert rc == 0
        report, trace = read_json(out / "report.json"), read_json(out / "trace.json")
        final, last = report["final"], trace["iterations"][-1]
        # objective, metric and penalty describe one set of objects
        assert final["objective"] == final["metric"] + final["penalty"]
        assert list(final) == list(report["initial"])
        for key in report["initial"]:
            if key != "accuracy":
                assert final[key] == last[key]
        assert ("holdout_objective" in final) == (holdout != "0")
        # accuracy is measured over the whole --data file
        run("eval", "--rules", str(out / "trained.json"), "--data", str(gen_dir / "train.jsonl"),
            "--out", str(out / "eval.json"))
        whole = read_json(out / "eval.json")
        assert final["accuracy"] == whole["accuracy"]
        if holdout == "0":  # the training split is the whole file
            assert {k: final[k] for k in ("objective", "metric", "penalty")} == {
                k: whole[k] for k in ("objective", "metric", "penalty")}

    def test_report_final_block_without_accepted_iterations(self, tmp_path):
        # every weight of this problem ends on a bound with its gradient
        # pointing outward, so training that result again is stationary at
        # the first gradient and accepts no iteration
        gen = tmp_path / "gen"
        assert run("gen", "--features", "6", "--classes", "3", "--objects", "40",
                   "--seed", "3", "--out", str(gen)) == 0
        args = ("--data", str(gen / "train.jsonl"), "--seed", "3")
        assert run("train", "--rules", str(gen / "rules.json"), "--out", str(tmp_path / "a"), *args) == 0
        again = tmp_path / "b"
        assert run("train", "--rules", str(tmp_path / "a" / "trained.json"), "--out", str(again), *args) == 0
        report = read_json(again / "report.json")
        assert report["status"] == "converged_gradient"
        assert report["iterations"] == 0
        assert report["final"] == report["initial"]

    def test_report_accuracy_scores_no_penalty(self, gen_dir, tmp_path, monkeypatch):
        # the report reads only accuracy over the whole --data file; the
        # trainer calls its own penalty binding, so only the CLI's count here
        import cf_forge.cli as cli

        calls = []
        original = cli.penalty
        monkeypatch.setattr(cli, "penalty", lambda *args: calls.append(args) or original(*args))
        rc = run("train", "--rules", str(gen_dir / "rules.json"),
                 "--data", str(gen_dir / "train.jsonl"), "--out", str(tmp_path / "run"),
                 "--max-iters", "3")
        assert rc == 0
        assert calls == []

    def test_readme_walkthrough_converges(self, gen_dir, tmp_path):
        out = tmp_path / "run"
        rc = run("train", "--rules", str(gen_dir / "rules.json"),
                 "--data", str(gen_dir / "train.jsonl"), "--out", str(out), "--seed", "42")
        assert rc == 0
        report = read_json(out / "report.json")
        assert report["status"].startswith("converged_")
        assert report["final"]["objective"] <= 42.4779

    def test_search_without_descent_exits_3(self, tmp_path, capsys):
        # r2 fires only while r1 makes m positive, so at w1 = 0 the objective
        # is flat for w1 < 0 and rises for w1 > 0: the forward difference
        # reads a slope, yet no step along -g decreases the objective
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({
            "propositions": [
                {"id": "f", "kind": "input"},
                {"id": "m", "kind": "derived"},
                {"id": "c", "kind": "derived", "output_class": True},
                {"id": "d", "kind": "derived", "output_class": True},
            ],
            "rules": [
                {"id": "r1", "if": "f", "then": "m", "weight": 0.0},
                {"id": "r2", "if": "m", "then": "c", "weight": 1.0},
            ],
        }))
        data = tmp_path / "data.jsonl"
        data.write_text('{"id": "o", "facts": {"f": 1.0}, "label": "d"}\n')
        out = tmp_path / "run"
        rc = run("train", "--rules", str(rules), "--data", str(data), "--out", str(out))
        assert rc == 3
        assert "Traceback" not in capsys.readouterr().err
        report = read_json(out / "report.json")
        assert report["status"] == "line_search_failed"
        assert report["iterations"] == 0
        assert report["final"] == report["initial"]
        assert read_json(out / "trace.json")["final_weights"] == {"r1": 0.0, "r2": 1.0}

    def test_missing_rules_file_exits_2(self, tmp_path, capsys):
        rc = run("train", "--rules", str(tmp_path / "nope.json"),
                 "--data", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path))
        assert rc == 2

    def test_naive_forward_then_audit(self, gen_dir, tmp_path):
        out = tmp_path / "naive"
        rc = run(
            "train", "--rules", str(gen_dir / "rules.json"),
            "--data", str(gen_dir / "train.jsonl"),
            "--out", str(out), "--seed", "3", "--max-iters", "3",
            "--no-tms", "--fd", "forward",
        )
        assert rc == 0
        rc = run("audit", "--trace", str(out / "trace.json"),
                 "--out", str(out / "audit.json"))
        assert rc == 0
        audit = read_json(out / "audit.json")
        assert audit["status"] == "pass"
        assert audit["probe_evals"] == audit["expected"]


class TestEval:
    def test_expert_on_noiseless_data(self, tmp_path):
        gen = tmp_path / "clean"
        run("gen", "--features", "10", "--classes", "5", "--objects", "50",
            "--irrelevant", "3", "--noise", "0.0", "--seed", "9", "--out", str(gen))
        out = tmp_path / "eval.json"
        rc = run("eval", "--rules", str(gen / "expert.json"),
                 "--data", str(gen / "train.jsonl"), "--out", str(out))
        assert rc == 0
        assert read_json(out)["accuracy"] == 1.0

    def test_zero_weights_metric_value(self, tmp_path):
        gen = tmp_path / "g"
        run("gen", "--features", "4", "--classes", "2", "--objects", "30",
            "--seed", "2", "--out", str(gen))
        out = tmp_path / "eval.json"
        rc = run("eval", "--rules", str(gen / "rules.json"),
                 "--data", str(gen / "train.jsonl"), "--out", str(out))
        assert rc == 0
        assert read_json(out)["metric"] == 4.0 * 30  # all CFs zero, 2 classes

    def test_missing_dataset_exits_2(self, gen_dir, tmp_path):
        rc = run("eval", "--rules", str(gen_dir / "rules.json"),
                 "--data", str(tmp_path / "missing.jsonl"))
        assert rc == 2

    @pytest.mark.parametrize("content", ["", "\n\n"], ids=["0-byte", "blank-lines"])
    def test_empty_dataset_exits_2(self, gen_dir, tmp_path, capsys, content):
        # no accuracy describes a set with no objects; at 0.0 it read as
        # every object wrong
        data = tmp_path / "empty.jsonl"
        data.write_text(content)
        argv = ["eval", "--rules", str(gen_dir / "rules.json"), "--data", str(data),
                "--out", str(tmp_path / "eval.json")]
        assert "no objects" in assert_one_error(capsys, run(*argv))
        assert not (tmp_path / "eval.json").exists()
        args = build_parser().parse_args(argv)
        with pytest.raises(EmptyDataset):
            args.func(args)

    def test_per_object_terms_fold_to_the_metric(self, gen_dir, tmp_path):
        argv = ["eval", "--rules", str(gen_dir / "expert.json"), "--data", str(gen_dir / "train.jsonl")]
        assert run(*argv, "--out", str(tmp_path / "eval.json")) == 0
        assert run(*argv, "--per-object", "--out", str(tmp_path / "terms.json")) == 0
        doc, terms = read_json(tmp_path / "eval.json"), read_json(tmp_path / "terms.json")
        per_object = terms.pop("per_object")
        assert terms == doc and len(per_object) == 100
        total = 0.0
        for term in per_object:  # a left fold from 0.0, in file order
            total += term
        assert total.hex() == doc["metric"].hex()


class TestDefaults:
    """Each train and eval flag left out parses to the library default of
    the field it feeds, so the CLI and the library cannot drift apart."""

    TRAIN_FEEDS = {"fd": "fd_scheme", "fd_eps": "fd_eps", "step_init": "step_init",
                   "max_iters": "max_iters", "holdout": "holdout_fraction",
                   "multi_start": "multi_start", "tau": "threshold"}

    def parse(self, command):
        return build_parser().parse_args([command, "--rules", "r.json", "--data", "d.jsonl"])

    def test_an_absent_train_flag_parses_to_the_library_default(self):
        args, cfg = self.parse("train"), OptimizerConfig()
        for flag, name in self.TRAIN_FEEDS.items():
            assert getattr(args, flag) == getattr(cfg, name), flag
        assert args.mu == cfg.penalty.coefficient and args.no_tms is not cfg.use_tms

    def test_an_absent_eval_flag_parses_to_the_library_default(self):
        args = self.parse("eval")  # a full pass under the default firing policy
        assert args.mu == PenaltyConfig().coefficient and args.tau == DEFAULT_POLICY.threshold


class TestBenchAndAudit:
    def test_bench_report_shape(self, tmp_path):
        out = tmp_path / "bench.json"
        rc = run("bench", "--shape", "flat", "--ladder", "16,32",
                 "--mode", "both", "--seed", "0", "--out", str(out))
        assert rc == 0
        doc = read_json(out)
        assert doc["modes"]["tms"]["firing_ratios"] == [2.0]
        assert doc["modes"]["naive"]["firing_ratios"] == [4.0]

    def test_audit_fail_exit_code(self, gen_dir, tmp_path):
        out = tmp_path / "naive"
        run("train", "--rules", str(gen_dir / "rules.json"),
            "--data", str(gen_dir / "train.jsonl"),
            "--out", str(out), "--seed", "3", "--max-iters", "2",
            "--no-tms", "--fd", "forward")
        doc = read_json(out / "trace.json")
        doc["budget"]["probe_evals"] += 1
        (out / "trace.json").write_text(json.dumps(doc))
        assert run("audit", "--trace", str(out / "trace.json")) == 1

    def test_audit_checks_the_tms_run(self, gen_dir, tmp_path):
        # the default incremental forward run is audited too
        out = tmp_path / "tms"
        run("train", "--rules", str(gen_dir / "rules.json"),
            "--data", str(gen_dir / "train.jsonl"),
            "--out", str(out), "--seed", "3", "--max-iters", "2")
        assert run("audit", "--trace", str(out / "trace.json"),
                   "--out", str(out / "audit.json")) == 0
        audit = read_json(out / "audit.json")
        assert audit["status"] == "pass"
        assert audit["probe_evals"] == audit["expected"]

    def test_audit_reads_a_trace_that_still_holds_boundary_stall(self, gen_dir, tmp_path):
        # the removed flag is no longer written, and a trace written before
        # its removal still audits: from_dict ignores keys it does not read
        out = tmp_path / "run"
        run("train", "--rules", str(gen_dir / "rules.json"),
            "--data", str(gen_dir / "train.jsonl"),
            "--out", str(out), "--seed", "3", "--max-iters", "2")
        doc = read_json(out / "trace.json")
        assert "boundary_stall" not in doc
        assert "boundary_stall" not in read_json(out / "report.json")
        doc["boundary_stall"] = True
        (out / "trace.json").write_text(json.dumps(doc))
        assert run("audit", "--trace", str(out / "trace.json"),
                   "--out", str(out / "audit.json")) == 0
        assert read_json(out / "audit.json")["status"] == "pass"


def nested_not_rulebase(depth):
    """A valid rule base whose first antecedent is ``depth`` nested NOTs,
    written as text because json.dumps itself recurses once per level."""
    expr = '{"not": ' * depth + '"f000"' + "}" * depth
    return (
        '{"propositions": [{"id": "f000", "kind": "input"},'
        ' {"id": "c0", "kind": "derived", "output_class": true},'
        ' {"id": "c1", "kind": "derived", "output_class": true}],'
        ' "rules": [{"id": "r1", "if": ' + expr + ', "then": "c0", "weight": 0.5},'
        ' {"id": "r2", "if": "f000", "then": "c1", "weight": 0.1}]}'
    )


DATA = '{"id": "o1", "facts": {"f000": 0.5}, "label": "c0"}\n'
HUGE = "1" + "0" * 400  # an integer literal beyond the float range
TOO_LONG = "1" * 5000  # more digits than json decodes


class TestRobustness:
    """Bad numbers, malformed traces and over-deep documents end in one
    error line and exit 2, never a traceback or a non-JSON number."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--fd-eps", "nan"],
            ["train", "--step-init", "inf"],
            ["train", "--mu", "nan"],
            ["eval", "--mu", "nan"],
            ["eval", "--mu", "inf"],
        ],
    )
    def test_non_finite_flag(self, gen_dir, tmp_path, capsys, argv):
        rc = run(*argv, "--rules", str(gen_dir / "rules.json"),
                 "--data", str(gen_dir / "train.jsonl"),
                 *(["--out", str(tmp_path / "run")] if argv[0] == "train" else []))
        assert_one_error(capsys, rc)

    @pytest.mark.parametrize(
        "ids, unknown", [("nope", "nope"), ("r_f000_c0,", ""), (",", ""), ("", "")],
        ids=["unknown", "trailing-comma", "comma", "empty"],
    )
    def test_train_only_unknown_rule(self, gen_dir, tmp_path, capsys, ids, unknown):
        rc = run("train", "--rules", str(gen_dir / "rules.json"),
                 "--data", str(gen_dir / "train.jsonl"), "--train-only", ids,
                 "--out", str(tmp_path / "run"))
        assert assert_one_error(capsys, rc) == f"error: unknown rule {unknown!r}"

    @pytest.mark.parametrize(
        "flags, named", [(["--train-only", "nope"], "'nope'"), (["--holdout", "0.999"], "--holdout")],
        ids=["unknown-rule", "holdout-takes-all"],
    )
    def test_failed_train_leaves_no_out_dir(self, gen_dir, tmp_path, capsys, flags, named):
        # both errors are raised when training starts, after the flags parse
        rc = run("train", "--rules", str(gen_dir / "rules.json"),
                 "--data", str(gen_dir / "train.jsonl"), *flags,
                 "--out", str(tmp_path / "run"))
        assert named in assert_one_error(capsys, rc)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_dataset_that_fails_validation(self, gen_dir, tmp_path, capsys, command):
        data = tmp_path / "bad.jsonl"
        data.write_text(
            '{"id": "o1", "facts": {"f000": 0.5}, "label": "nope"}\n'
            '{"id": "o2", "facts": {"c0": 0.5}, "label": "c0"}\n'
        )
        rc = run(command, "--rules", str(gen_dir / "rules.json"), "--data", str(data),
                 "--out", str(tmp_path / "out"))
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.splitlines() == [
            "error: UnknownLabel: object 'o1' labeled 'nope', not an output class",
            "error: UnknownFact: object 'o2' has fact for non-input 'c0'",
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_overflowing_penalty(self, gen_dir, tmp_path, capsys, command):
        # 1e308 x 1.5^2 overflows: the objective is inf before anything is written
        doc = read_json(gen_dir / "rules.json")
        doc["rules"][0].update(bound_kind="soft", bounds=[0.5, 0.6], weight=-1.0)
        rules = tmp_path / "soft.json"
        rules.write_text(json.dumps(doc))
        rc = run(command, "--rules", str(rules), "--data", str(gen_dir / "train.jsonl"),
                 "--mu", "1e308", "--out", str(tmp_path / "out"))
        line = assert_one_error(capsys, rc)
        assert line == "error: objective is inf, not finite, under penalty coefficient 1e+308"
        assert not (tmp_path / "out").exists()

    def test_max_iters_message_names_only_max_iters(self, gen_dir, tmp_path, capsys):
        rc = run("train", "--rules", str(gen_dir / "rules.json"),
                 "--data", str(gen_dir / "train.jsonl"), "--max-iters", "0",
                 "--out", str(tmp_path / "run"))
        line = assert_one_error(capsys, rc)
        assert "max_iters" in line and "max_backtracks" not in line

    @pytest.mark.parametrize("value", ["5", "1e300"])
    def test_fd_eps_above_one(self, gen_dir, tmp_path, capsys, value):
        # a probe step above 1 would evaluate weights outside [-1, 1]
        rc = run("train", "--rules", str(gen_dir / "rules.json"),
                 "--data", str(gen_dir / "train.jsonl"), "--fd-eps", value,
                 "--out", str(tmp_path / "run"))
        assert "fd_eps" in assert_one_error(capsys, rc)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--features", "1"], ["--shape", "tree", "--rules", "6"],
         ["--features", "4", "--classes", "2", "--objects", "2", "--holdout", "0.9"]],
        ids=["one-feature", "tree-of-6", "holdout-takes-all"],
    )
    def test_invalid_gen_spec_leaves_no_out_dir(self, tmp_path, capsys, flags):
        # each spec is rejected after the flags parse: the first two by the
        # generator, the last because 0.9 of 2 objects rounds to both
        rc = run("gen", *flags, "--out", str(tmp_path / "gen"))
        assert_one_error(capsys, rc)
        assert not (tmp_path / "gen").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--features", "10"), ("--classes", "5"), ("--objects", "100"),
         ("--irrelevant", "0"), ("--noise", "0.0"), ("--holdout", "0.5")],
    )
    def test_gen_shape_rejects_the_flat_generator_flags(self, tmp_path, capsys, flag, value):
        # the shaped generator reads none of them, so even a default value
        # would be ignored without a word
        rc = run("gen", "--shape", "tree", "--rules", "7", flag, value,
                 "--out", str(tmp_path / "gen"))
        assert flag in assert_one_error(capsys, rc)
        assert not (tmp_path / "gen").exists()

    @pytest.mark.parametrize("flags", [[], ["--features", "4", "--classes", "2", "--objects", "6"]],
                             ids=["defaults", "flat-spec"])
    def test_gen_rules_needs_shape(self, tmp_path, capsys, flags):
        # the flat generator's rule count follows from its spec, so --rules
        # would be ignored without a word
        rc = run("gen", "--rules", "5", *flags, "--out", str(tmp_path / "gen"))
        assert "--rules" in assert_one_error(capsys, rc)
        assert not (tmp_path / "gen").exists()

    @pytest.mark.parametrize("value", ["0.01", "1e-300"])
    def test_gen_holdout_that_holds_out_no_object(self, tmp_path, capsys, value):
        # 0.01 of 20 objects rounds to none: the holdout.jsonl it asked for
        # would be empty, a split no command can score
        rc = run("gen", "--features", "6", "--classes", "2", "--objects", "20",
                 "--holdout", value, "--out", str(tmp_path / "gen"))
        assert "--holdout" in assert_one_error(capsys, rc)
        assert not (tmp_path / "gen").exists()

    @pytest.mark.parametrize("value", ["0.01", "1e-300"])
    def test_train_holdout_that_holds_out_no_object(self, tmp_path, capsys, value):
        # the split gen rejects: training would go on with no holdout
        data = tmp_path / "data"
        assert run("gen", "--features", "6", "--classes", "2", "--objects", "20",
                   "--out", str(data)) == 0
        capsys.readouterr()
        rc = run("train", "--rules", str(data / "rules.json"), "--data", str(data / "train.jsonl"),
                 "--holdout", value, "--out", str(tmp_path / "run"))
        assert assert_one_error(capsys, rc) == f"error: --holdout {float(value)!r} holds out none of the 20 objects"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "1.0", "-0.5"])
    def test_gen_holdout_out_of_range(self, tmp_path, capsys, value):
        rc = run("gen", "--features", "4", "--classes", "2", "--objects", "10",
                 "--holdout", value, "--out", str(tmp_path))
        assert_one_error(capsys, rc)
        assert not (tmp_path / "train.jsonl").exists()

    @pytest.mark.parametrize(
        "doc",
        ['{"status": "pass"}', "[1, 2]", "[" * 5000 + "]" * 5000],
        ids=["missing-field", "not-an-object", "too-deep"],
    )
    def test_malformed_trace(self, tmp_path, capsys, doc):
        path = tmp_path / "trace.json"
        path.write_text(doc)
        assert_one_error(capsys, run("audit", "--trace", str(path)))

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("depth", [100, 3000])
    def test_antecedent_too_deep(self, tmp_path, capsys, command, depth):
        (tmp_path / "rules.json").write_text(nested_not_rulebase(depth))
        (tmp_path / "data.jsonl").write_text(DATA)
        rc = run(command, "--rules", str(tmp_path / "rules.json"),
                 "--data", str(tmp_path / "data.jsonl"), "--out", str(tmp_path / "out"))
        assert_one_error(capsys, rc)

    @pytest.mark.parametrize(
        "weight, bounds, fact",
        [
            (HUGE, "[-1, 1]", "0.5"),
            ("0.5", f"[-1, {HUGE}]", "0.5"),
            ("0.5", "[-1, 1]", HUGE),
            (TOO_LONG, "[-1, 1]", "0.5"),
            ("0.5", "[-1, 1]", TOO_LONG),
        ],
        ids=["weight", "bounds", "fact", "long-weight", "long-fact"],
    )
    def test_integer_beyond_a_float(self, tmp_path, capsys, weight, bounds, fact):
        (tmp_path / "rules.json").write_text(
            '{"propositions": [{"id": "f000", "kind": "input"},'
            ' {"id": "c0", "kind": "derived", "output_class": true},'
            ' {"id": "c1", "kind": "derived", "output_class": true}],'
            f' "rules": [{{"id": "r1", "if": "f000", "then": "c0", "weight": {weight},'
            f' "bounds": {bounds}}}]}}'
        )
        (tmp_path / "data.jsonl").write_text(
            f'{{"id": "o1", "facts": {{"f000": {fact}}}, "label": "c0"}}\n'
        )
        rc = run("eval", "--rules", str(tmp_path / "rules.json"),
                 "--data", str(tmp_path / "data.jsonl"))
        assert_one_error(capsys, rc)

    def test_deepest_allowed_antecedent_trains(self, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text(nested_not_rulebase(MAX_EXPR_DEPTH))
        (tmp_path / "data.jsonl").write_text(DATA)
        out = tmp_path / "out"
        rc = run("train", "--rules", str(rules), "--data", str(tmp_path / "data.jsonl"),
                 "--out", str(out), "--max-iters", "2")
        assert rc in (0, 3)
        trained = load_rulebase(out / "trained.json")
        assert trained.rule("r1").antecedent == load_rulebase(rules).rule("r1").antecedent

    def test_running_out_of_memory(self, tmp_path, capsys, monkeypatch):
        def exhausted(spec):
            raise MemoryError

        monkeypatch.setattr(cf_forge.cli, "generate", exhausted)
        out = tmp_path / "big"
        rc = run("gen", "--features", "10", "--classes", "5", "--objects", "100000000",
                 "--out", str(out))
        assert assert_one_error(capsys, rc) == "error: out of memory"
        assert not out.exists()


class TestAtomicWrites:
    def test_failed_write_leaves_the_old_file_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.json"
        _write_json({"status": "old"}, path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            _write_json({"status": "new"}, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]

    def test_write_through_a_link_replaces_its_target(self, tmp_path):
        target = tmp_path / "real.json"
        _write_json({"v": 1}, target)
        link = tmp_path / "trace.json"
        link.symlink_to(target)
        _write_json({"v": 2}, link)
        assert link.is_symlink()
        assert read_json(target) == {"v": 2}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["real.json", "trace.json"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_write_to_a_pipe_goes_through_it(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        _write_json({"v": 3}, fifo)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert json.loads(got[0]) == {"v": 3}
        assert [p.name for p in tmp_path.iterdir()] == ["out.fifo"]
        assert not fifo.is_file()

    def test_replaced_file_keeps_its_permissions(self, tmp_path):
        path = tmp_path / "report.json"
        _write_json({"v": 1}, path)
        path.chmod(0o640)
        _write_json({"v": 2}, path)
        assert read_json(path) == {"v": 2}
        assert path.stat().st_mode & 0o777 == 0o640

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_descriptor_path_writes_into_the_open_file(self, tmp_path):
        # `eval --out /dev/stdout > file` reaches the file through
        # /proc/self/fd/1; renaming over it would detach the shell's stdout
        path = tmp_path / "captured.txt"
        with open(path, "w", encoding="utf-8") as held:
            inode = path.stat().st_ino
            _write_json({"v": 4}, f"/proc/self/fd/{held.fileno()}")
            assert path.stat().st_ino == inode
        assert read_json(path) == {"v": 4}
        assert [p.name for p in tmp_path.iterdir()] == ["captured.txt"]

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd") or shutil.which("sh") is None,
        reason="needs /proc/self/fd and a POSIX shell",
    )
    @pytest.mark.parametrize("redirect", [">", ">>"])
    def test_stdout_out_keeps_what_the_shell_wrote(self, gen_dir, tmp_path, redirect):
        log = tmp_path / "log"
        evaluate = shlex.join([
            sys.executable, "-m", "cf_forge", "eval",
            "--rules", str(gen_dir / "rules.json"), "--data", str(gen_dir / "train.jsonl"),
            "--out", "/dev/stdout",
        ])
        script = f"{{ echo before; {evaluate}; echo after; }} {redirect} {shlex.quote(str(log))}"
        src = os.path.dirname(os.path.dirname(os.path.abspath(cf_forge.__file__)))
        subprocess.run(
            ["sh", "-c", script], env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120
        )
        first, rest = log.read_text().split("\n", 1)
        assert first == "before"
        # the document is whole and the shell's later output follows it
        doc, last = rest.rsplit("}\n", 1)
        assert set(json.loads(doc + "}")) >= {"metric", "accuracy"}
        assert last == "after\n"

    def test_train_outputs_replace_earlier_ones(self, gen_dir, tmp_path):
        out = tmp_path / "run"
        args = ("train", "--rules", str(gen_dir / "rules.json"),
                "--data", str(gen_dir / "train.jsonl"), "--out", str(out),
                "--max-iters", "2", "--seed", "1")
        assert run(*args) == 0
        first = {name: (out / name).read_bytes() for name in ("trained.json", "trace.json")}
        assert run(*args) == 0
        assert sorted(p.name for p in out.iterdir()) == ["report.json", "trace.json", "trained.json"]
        assert {name: (out / name).read_bytes() for name in first} == first


def assert_one_error(capsys, rc):
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err
    return lines[0]


class TestSeedEnv:
    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CF_FORGE_SEED", "123")
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            rc = run("gen", "--features", "4", "--classes", "2", "--objects", "6",
                     "--out", str(out))
            assert rc == 0
        assert (out1 / "train.jsonl").read_bytes() == (out2 / "train.jsonl").read_bytes()
        monkeypatch.setenv("CF_FORGE_SEED", "124")
        out3 = tmp_path / "c"
        run("gen", "--features", "4", "--classes", "2", "--objects", "6",
            "--out", str(out3))
        assert (out1 / "train.jsonl").read_bytes() != (out3 / "train.jsonl").read_bytes()

    @pytest.mark.parametrize("value", ["abc", "1.5", ""])
    def test_env_seed_not_an_integer(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("CF_FORGE_SEED", value)
        rc = run("gen", "--features", "4", "--classes", "2", "--objects", "6",
                 "--out", str(tmp_path))
        assert "CF_FORGE_SEED" in assert_one_error(capsys, rc)
        assert not (tmp_path / "train.jsonl").exists()
