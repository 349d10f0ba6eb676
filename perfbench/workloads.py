"""The benchmark's workloads: seeded inputs, set-up, the op, and its checks.

Each workload is built from its entry in ``workloads.json``, the one record
of its generator parameters, op configuration and input statistics.
``synth`` only generates inputs and is never timed.  An op calls the same
public library functions that ``cf-forge train`` / ``eval`` call, looking
each one up on its module at call time, so the traced run sees the
wrappers.  ``metric_fn`` is passed in by the harness because the optimizer
binds ``margin_metric`` as a default argument.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from cf_forge import engine, metric, model, optimizer, synth

from .reference import FlatReference

SPEC_PATH = Path(__file__).with_name("workloads.json")
TRAIN_STATUSES = ("converged_objective", "converged_gradient", "max_iters", "line_search_failed")
CF_TOLERANCE = 1e-12


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def bits(values) -> tuple[str, ...]:
    """Floats in a form whose equality is bit equality."""
    return tuple(float(v).hex() for v in values)


@dataclass
class Instance:
    """One loaded input set, as set-up leaves it for the ops."""

    seed: int
    rb: model.RuleBase
    objects: list
    rules_path: Path


@dataclass
class Outcome:
    """What the checks make of one op's result.

    key: the result in bit-exact form; every op on an instance must
    reproduce the key of that instance's warm-up op.  layers: counts the
    op reports about itself (its trace or budget); a count left out is zero.
    info: quality figures that are printed but not gated.
    """

    problems: list[str] = field(default_factory=list)
    key: tuple = ()
    layers: dict[str, float] = field(default_factory=dict)
    info: dict[str, float] = field(default_factory=dict)


def input_stats(rb: model.RuleBase, objects) -> dict[str, int]:
    derived = [p.id for p in rb.propositions.values() if p.kind == model.DERIVED]
    return {
        "rules": len(rb.rules),
        "objects": len(objects),
        "largest_fan_in": max(len(rb.incoming_rules(p)) for p in derived),
        "longest_closure": max(len(rb.downstream_closure(r.id)) for r in rb.rules),
    }


class Workload:
    """Generation and set-up shared by every workload; subclasses define
    the op, its checks and the once-per-run check."""

    def __init__(self, name: str, entry: dict):
        self.name = name
        self.entry = entry
        self.generator = entry["generator"]
        self.op_spec = entry["op"]
        self.instances = int(self.generator["instances"])

    def seeds(self, seed: int) -> list[int]:
        return [seed * self.instances + i for i in range(self.instances)]

    def generate(self, seed: int, workdir: Path) -> tuple[list[tuple[int, Path, Path]], dict]:
        """Write each instance's rule base and dataset; untimed."""
        files = []
        stats = None
        for s in self.seeds(seed):
            rb, objects = self._synthesize(s)
            rules_path = workdir / f"rules-{s}.json"
            data_path = workdir / f"data-{s}.jsonl"
            model.save_rulebase(rb, rules_path)
            model.save_dataset(objects, data_path)
            files.append((s, rules_path, data_path))
            if stats is None:
                stats = input_stats(rb, objects)
        return files, stats

    def _synthesize(self, seed: int):
        gen = self.generator
        if gen["kind"] == "shaped":
            return synth.generate_shaped(gen["spec"]["n_rules"], gen["spec"]["shape"], seed)
        rb_zero, rb_expert, objects, _ = synth.generate(synth.SynthSpec(**gen["spec"], seed=seed))
        return (rb_expert if gen["base"] == "expert" else rb_zero), objects

    def setup(self, files) -> tuple[list[Instance], dict[str, float]]:
        """Load every instance back; returns the instances and the seconds
        spent in loading, validation and the first graph build."""
        phases = {"load": 0.0, "validate": 0.0, "graph": 0.0}
        instances = []
        for s, rules_path, data_path in files:
            t0 = perf_counter()
            rb = model.load_rulebase(rules_path)
            objects = model.load_dataset(data_path)
            t1 = perf_counter()
            problems = model.validate_dataset(rb, objects)
            t2 = perf_counter()
            rb.topological_order()
            t3 = perf_counter()
            if problems:
                raise ValueError(f"{data_path.name}: {problems[0]}")
            phases["load"] += t1 - t0
            phases["validate"] += t2 - t1
            phases["graph"] += t3 - t2
            instances.append(Instance(s, rb, objects, rules_path))
        return instances, phases

    def op(self, inst: Instance, metric_fn):
        raise NotImplementedError

    def check(self, inst: Instance, result) -> Outcome:
        raise NotImplementedError

    def run_check(self, inst: Instance, warm_result) -> list[str]:
        """Once per run, outside the timing."""
        raise NotImplementedError

    def _naive_vs_tms(self, rb, objects, seed: int) -> list[str]:
        """Incremental gradient components must equal naive ones bit for bit
        on a seeded sample of the trainable rules."""
        k = self.op_spec["naive_check_rules"]
        ids = sorted(r.id for r in rb.rules if r.trainable)
        sample = tuple(random.Random(seed).sample(ids, min(k, len(ids))))
        grads = []
        for use_tms in (True, False):
            cfg = optimizer.OptimizerConfig(seed=seed, use_tms=use_tms, train_only=sample)
            g = optimizer.gradient(rb, objects, cfg)
            grads.append(bits(g[rid] for rid in sample))
        if grads[0] != grads[1]:
            diff = [rid for rid, a, b in zip(sample, *grads) if a != b]
            return [f"incremental gradient differs from naive on {len(diff)} of {len(sample)} rules: {diff[:5]}"]
        return []


def _split(objects, cfg: optimizer.OptimizerConfig):
    """The trainer's holdout split, restated: a seeded shuffle of indices,
    the first round(fraction x n) held out, both halves in input order."""
    if cfg.holdout_fraction <= 0.0:
        return list(objects)
    idx = list(range(len(objects)))
    random.Random(cfg.seed).shuffle(idx)
    k = int(round(cfg.holdout_fraction * len(objects)))
    return [objects[i] for i in sorted(idx[k:])]


class TrainWorkload(Workload):
    def config(self, inst: Instance) -> optimizer.OptimizerConfig:
        return optimizer.OptimizerConfig(seed=inst.seed, **self.op_spec["config"])

    def op(self, inst, metric_fn):
        trained, trace, _ = optimizer.train_multi(inst.rb, inst.objects, self.config(inst), metric_fn)
        return trained, trace

    def check(self, inst, result) -> Outcome:
        trained, trace = result
        cfg = self.config(inst)
        out = Outcome()
        if trace.status not in TRAIN_STATUSES:
            out.problems.append(f"unknown trainer status {trace.status!r}")
        policy = engine.FiringPolicy(threshold=cfg.threshold)
        states = {o.id: engine.evaluate_full(trained, o, policy) for o in inst.objects}
        labels = {o.id: o.label for o in inst.objects}
        train_states = [states[o.id] for o in _split(inst.objects, cfg)]
        fresh = metric.margin_metric(train_states, labels, trained.output_classes).value
        fresh += metric.penalty(trained, cfg.penalty)
        if fresh.hex() != float(trace.final_objective).hex():
            out.problems.append(
                f"final objective {trace.final_objective!r} != fresh full pass {fresh!r}"
            )
        objectives = [trace.initial["objective"]] + [rec.objective for rec in trace.iterations]
        if any(b > a for a, b in zip(objectives, objectives[1:])):
            out.problems.append("iteration objectives increase")
        for r in trained.rules:
            lo, hi = r.bounds
            if r.bound_kind == model.HARD and not lo <= r.weight <= hi:
                out.problems.append(f"rule {r.id} weight {r.weight!r} outside hard bounds")
        if trace.final_weights != {r.id: r.weight for r in trained.rules}:
            out.problems.append("trace final_weights disagree with the returned base")
        out.key = tuple(sorted(zip(trace.final_weights, bits(trace.final_weights.values()))))
        accepted = len(trace.iterations)
        candidates = sum(rec.backtracks + 1 for rec in trace.iterations)
        if trace.status == "line_search_failed":
            candidates += trace.config["max_backtracks"] + 1
        b = trace.budget
        out.layers = {
            "optimizer.gradients": b.gradients,
            "optimizer.probe_evals": b.probe_evals,
            "optimizer.line_search_evals": b.line_search_evals,
            "optimizer.iterations": accepted,
            "optimizer.backtracks": sum(rec.backtracks for rec in trace.iterations),
            "ls_accepted": accepted,
            "ls_candidates": candidates,
            "engine.rules_fired": b.firings,
        }
        out.info = {
            "final_objective": trace.final_objective,
            "accuracy": metric.accuracy(list(states.values()), labels, trained),
        }
        return out

    def run_check(self, inst, warm_result) -> list[str]:
        trained, _ = warm_result
        return self._naive_vs_tms(trained, inst.objects, inst.seed)


class GradientWorkload(Workload):
    def op(self, inst, metric_fn):
        budget = optimizer.EvaluationBudget()
        cfg = optimizer.OptimizerConfig(seed=inst.seed, **self.op_spec["config"])
        g = optimizer.gradient(inst.rb, inst.objects, cfg, metric_fn, budget)
        return g, budget

    def check(self, inst, result) -> Outcome:
        g, budget = result
        out = Outcome()
        trainable = sorted(r.id for r in inst.rb.rules if r.trainable)
        if sorted(g) != trainable:
            out.problems.append("gradient keys differ from the trainable rules")
        out.key = tuple(sorted(zip(g, bits(g.values()))))
        out.layers = {
            "optimizer.gradients": budget.gradients,
            "optimizer.probe_evals": budget.probe_evals,
            "optimizer.line_search_evals": budget.line_search_evals,
            "engine.rules_fired": budget.firings,
        }
        return out

    def run_check(self, inst, warm_result) -> list[str]:
        return self._naive_vs_tms(inst.rb, inst.objects, inst.seed)


class EvalWorkload(Workload):
    def op(self, inst, metric_fn):
        # the sequence of cf-forge eval with its defaults (tau = 0, mu = 10)
        policy = engine.FiringPolicy(threshold=0.0)
        states = [engine.evaluate_full(inst.rb, o, policy) for o in inst.objects]
        labels = {o.id: o.label for o in inst.objects}
        m = metric_fn(states, labels, inst.rb.output_classes)
        p = metric.penalty(inst.rb, metric.PenaltyConfig(coefficient=10.0))
        acc = metric.accuracy(states, labels, inst.rb)
        return states, m.value, p, acc

    def check(self, inst, result) -> Outcome:
        states, m, p, acc = result
        classes = inst.rb.output_classes
        out = Outcome()
        cfs = [st.prop_cf[c] for st in states for c in classes]
        out.key = bits(cfs + [m, p, acc])
        out.layers = {"engine.rules_fired": sum(st.counters.rules_fired for st in states)}
        out.info = {"accuracy": acc}
        return out

    def run_check(self, inst, warm_result) -> list[str]:
        """Class CFs within 1e-12 of the independent evaluator and the same
        argmax, on every object."""
        states = warm_result[0]
        ref = FlatReference(json.loads(inst.rules_path.read_text(encoding="utf-8")))
        problems = []
        for obj, st in zip(inst.objects, states):
            expect = ref.class_cfs(obj.facts)
            worst = max(abs(st.prop_cf[c] - cf) for c, cf in expect.items())
            if not worst <= CF_TOLERANCE:
                problems.append(f"object {obj.id}: class CF off the reference by {worst!r}")
            elif engine.classify(st, inst.rb) != ref.argmax(expect):
                problems.append(f"object {obj.id}: argmax disagrees with the reference")
            if len(problems) >= 5:
                break
        return problems


KINDS = {"train": TrainWorkload, "gradient": GradientWorkload, "eval": EvalWorkload}


def make(name: str, entry: dict) -> Workload:
    return KINDS[entry["op"]["kind"]](name, entry)
