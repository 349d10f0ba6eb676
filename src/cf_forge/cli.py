"""Command-line surface: generate, train, evaluate, bench, audit.

Exit codes: 0 success, 2 invalid flags or input files, 3 optimization
failure (line search exhausted; partial outputs are still written), and 1
for a failed audit.  Every command is bit-reproducible for a fixed seed;
the environment variable CF_FORGE_SEED supplies the default seed, and a
value that is not an integer exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

from .errors import CfForgeError, NonFiniteObjective
from .metric import PenaltyConfig, accuracy, margin_metric, penalty
from .model import (
    decode_json,
    load_dataset,
    load_rulebase,
    open_replacing,
    save_dataset,
    save_rulebase,
    validate_dataset,
)
from .engine import FiringPolicy, evaluate_full
from .optimizer import (
    OptimizerConfig,
    TrainingTrace,
    audit_budget,
    holdout_size,
    run_gradient_bench,
    train_multi,
)
from .synth import SynthSpec, generate, generate_shaped


def _default_seed() -> int:
    raw = os.environ.get("CF_FORGE_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"CF_FORGE_SEED must be an integer, got {raw!r}") from None


def _write_json(doc, path) -> None:
    text = json.dumps(doc, indent=2, allow_nan=False)
    with open_replacing(path) as fh:
        fh.write(text + "\n")


def _emit(doc, out: str | None) -> None:
    if out:
        _write_json(doc, out)
    else:
        print(json.dumps(doc, indent=2, allow_nan=False))


# gen's flags for the flat generator and their defaults; they parse to None
# when absent, so that --shape can reject them instead of ignoring them
_FLAT_GEN_DEFAULTS = {
    "features": 10, "classes": 5, "objects": 100, "irrelevant": 0, "noise": 0.0, "holdout": 0.0,
}


def cmd_gen(args) -> int:
    given = [f"--{name}" for name in _FLAT_GEN_DEFAULTS if getattr(args, name) is not None]
    if args.shape and given:
        raise ValueError(f"{', '.join(given)} cannot be used with --shape")
    if args.rules is not None and not args.shape:  # the flat spec fixes the rule count
        raise ValueError("--rules can only be used with --shape")
    for name, default in _FLAT_GEN_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    if not (0.0 <= args.holdout < 1.0):  # also rejects NaN
        raise ValueError(f"--holdout must be in [0, 1), got {args.holdout!r}")
    # the directory is made only after generation, so an invalid spec leaves none
    out = Path(args.out)
    if args.shape:
        rb, objects = generate_shaped(7 if args.rules is None else args.rules, args.shape, seed=args.seed)
        out.mkdir(parents=True, exist_ok=True)
        save_rulebase(rb, out / "rules.json")
        save_dataset(objects, out / "train.jsonl")
        print(f"wrote {out / 'rules.json'} ({len(rb.rules)} rules) and {out / 'train.jsonl'}")
        return 0
    spec = SynthSpec(
        features=args.features,
        classes=args.classes,
        objects=args.objects,
        irrelevant_features=args.irrelevant,
        noise=args.noise,
        seed=args.seed,
    )
    rb_zero, rb_expert, objects, _ = generate(spec)
    k = holdout_size(args.holdout, len(objects), "--holdout")
    holdout, objects = objects[:k], objects[k:]
    out.mkdir(parents=True, exist_ok=True)
    if args.holdout > 0.0:
        save_dataset(holdout, out / "holdout.jsonl")
    save_rulebase(rb_zero, out / "rules.json")
    save_rulebase(rb_expert, out / "expert.json")
    save_dataset(objects, out / "train.jsonl")
    print(
        f"wrote {out / 'rules.json'} ({len(rb_zero.rules)} rules), "
        f"{out / 'expert.json'}, {out / 'train.jsonl'} ({len(objects)} objects)"
    )
    return 0


def _full_pass(rb, objects, threshold: float) -> tuple[list, dict[str, str]]:
    """Each object's evaluation, and the labels keyed by object id."""
    policy = FiringPolicy(threshold=threshold)
    return [evaluate_full(rb, o, policy) for o in objects], {o.id: o.label for o in objects}


def _load_checked(args) -> tuple | None:
    """The --rules base and --data objects, or None after printing each violation."""
    rb = load_rulebase(args.rules)
    objects = load_dataset(args.data)
    problems = validate_dataset(rb, objects)
    for v in problems:
        print(f"error: {v}", file=sys.stderr)
    return None if problems else (rb, objects)


def cmd_train(args) -> int:
    loaded = _load_checked(args)
    if loaded is None:
        return 2
    rb, dataset = loaded
    cfg = OptimizerConfig(
        fd_eps=args.fd_eps,
        fd_scheme=args.fd,
        step_init=args.step_init,
        max_iters=args.max_iters,
        use_tms=not args.no_tms,
        seed=args.seed,
        multi_start=args.multi_start,
        holdout_fraction=args.holdout,
        threshold=args.tau,
        penalty=PenaltyConfig(coefficient=args.mu),
        train_only=None if args.train_only is None else tuple(args.train_only.split(",")),
    )
    holdout_size(args.holdout, len(dataset), "--holdout")  # the split train_multi rejects, by flag
    started = time.perf_counter()
    trained, trace, _ = train_multi(rb, dataset, cfg, margin_metric)
    wall = time.perf_counter() - started
    # made only now, so a run that fails before training leaves no directory
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_rulebase(trained, out / "trained.json")
    _write_json(trace.to_dict(), out / "trace.json")
    # scores come from the trace (over the training split, and the holdout
    # when there is one); accuracy is over the whole --data file
    last = vars(trace.iterations[-1]) if trace.iterations else trace.initial
    report = {
        "config": trace.config,
        "status": trace.status,
        "initial": dict(trace.initial, accuracy=accuracy(*_full_pass(rb, dataset, args.tau), rb)),
        "final": dict(
            {k: last[k] for k in trace.initial},
            accuracy=accuracy(*_full_pass(trained, dataset, args.tau), trained),
        ),
        "holdout_curve": [
            rec.holdout_objective for rec in trace.iterations
        ] if trace.holdout_size else [],
        "budget": vars(trace.budget),
        "iterations": len(trace.iterations),
        "wall_time_s": wall,
    }
    _write_json(report, out / "report.json")
    print(
        f"status={trace.status} iterations={len(trace.iterations)} "
        f"objective {trace.initial['objective']:.6g} -> {trace.final_objective:.6g}"
    )
    return 3 if trace.status == "line_search_failed" else 0


def cmd_eval(args) -> int:
    loaded = _load_checked(args)
    if loaded is None:
        return 2
    rb, objects = loaded
    states, labels = _full_pass(rb, objects, args.tau)
    m = margin_metric(states, labels, rb.output_classes, per_object=args.per_object)
    p = penalty(rb, PenaltyConfig(coefficient=args.mu))
    objective = m.value + p
    if not math.isfinite(objective):
        raise NonFiniteObjective("objective", objective, args.mu)
    doc = {
        "metric": m.value,
        "penalty": p,
        "objective": objective,
        "accuracy": accuracy(states, labels, rb),
    }
    if args.per_object:
        doc["per_object"] = m.per_object
    _emit(doc, args.out)
    return 0


def cmd_bench(args) -> int:
    ladder = [int(x) for x in args.ladder.split(",")]
    modes = ["tms", "naive"] if args.mode == "both" else [args.mode]
    results = {mode: [run_gradient_bench(args.shape, r, mode, args.seed) for r in ladder]
               for mode in modes}
    doc = {"shape": args.shape, "ladder": ladder, "seed": args.seed, "modes": {}}
    for mode, rows in results.items():
        firings = [row["gradient_firings"] for row in rows]
        ratios = [firings[i + 1] / firings[i] for i in range(len(firings) - 1)]
        doc["modes"][mode] = {"runs": rows, "firing_ratios": ratios}
    _emit(doc, args.out)
    return 0


def cmd_audit(args) -> int:
    trace = TrainingTrace.from_dict(decode_json(Path(args.trace).read_text(encoding="utf-8")))
    verdict = audit_budget(trace)
    b = trace.budget
    _emit(
        {
            "status": verdict,
            "gradients": b.gradients,
            "objects": b.objects,
            "trainable_rules": b.trainable_rules,
            "probe_evals": b.probe_evals,
            "expected": b.gradients * b.objects * b.trainable_rules,
        },
        args.out,
    )
    return 1 if verdict == "fail" else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cf-forge",
        description="Trainable certainty-factor rule bases",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _default_seed()

    p = sub.add_parser("gen", help="generate a synthetic rule base and dataset")
    p.add_argument("--features", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--objects", type=int)
    p.add_argument("--irrelevant", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--holdout", type=float, help="fraction written to holdout.jsonl")
    p.add_argument("--shape", choices=["flat", "chain", "tree"], default=None,
                   help="generate a shaped single-object base instead")
    p.add_argument("--rules", type=int, help="rule count for --shape (default 7)")
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="fit trainable rule weights to a dataset")
    p.add_argument("--rules", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--fd", choices=["forward", "central"], default="forward")
    p.add_argument("--fd-eps", type=float, default=1e-4, help="finite-difference step, in (0, 1]")
    p.add_argument("--step-init", type=float, default=0.5)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--no-tms", action="store_true",
                   help="disable incremental re-evaluation (every probe is a full pass)")
    p.add_argument("--train-only", default=None, help="comma-separated rule ids to optimize")
    p.add_argument("--holdout", type=float, default=0.0)
    p.add_argument("--multi-start", type=int, default=1)
    p.add_argument("--mu", type=float, default=10.0, help="soft-bound penalty coefficient")
    p.add_argument("--tau", type=float, default=0.0, help="rule firing threshold")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a rule base against a dataset")
    p.add_argument("--rules", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--mu", type=float, default=10.0)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--per-object", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="count per-gradient rule firings across a size ladder")
    p.add_argument("--shape", choices=["flat", "chain", "tree"], default="flat")
    p.add_argument("--ladder", default="64,128", help="comma-separated rule counts")
    p.add_argument("--mode", choices=["tms", "naive", "both"], default="both")
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("audit", help="check a trace's probe-count identity")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CfForgeError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
