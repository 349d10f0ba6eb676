"""Trainer: gradients, line search, constraints, accounting, multi-start."""

import json
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from cf_forge import (
    And,
    CfForgeError,
    EmptyDataset,
    EvaluationBudget,
    NoTrainableRules,
    NonFiniteObjective,
    OptimizerConfig,
    ParseError,
    PenaltyConfig,
    Proposition,
    Ref,
    Rule,
    RuleBase,
    SynthSpec,
    TrainingObject,
    TrainingTrace,
    accuracy,
    audit_budget,
    evaluate_full,
    generate,
    gradient,
    run_gradient_bench,
    train,
    train_multi,
)
from cf_forge.metric import MetricValue, margin_metric
from cf_forge.model import DERIVED, INPUT
from cf_forge.optimizer import BB_STEP_MAX, BB_STEP_MIN, _bb_step, _Session, _split_dataset
from helpers import random_object, random_rulebase


DELETE = object()  # marks a trace field to remove rather than replace


def one_rule_problem(weight=0.0, fact=1.0, **rule_kwargs):
    """Classes {c, d}, single trainable rule f -> c, one object labeled c.

    Closed form: cf_c = w * fact, cf_d = 0, so the metric term is
    (2 - w * fact)^2 and its derivative -2 * fact * (2 - w * fact)."""
    props = [
        Proposition("f", INPUT),
        Proposition("c", DERIVED, output_class=True),
        Proposition("d", DERIVED, output_class=True),
    ]
    rb = RuleBase(props, [Rule(id="r1", antecedent=Ref("f"), consequent="c",
                               weight=weight, **rule_kwargs)])
    data = [TrainingObject(id="o", facts={"f": fact}, label="c")]
    return rb, data


def final_accuracy(rb, data):
    states = [evaluate_full(rb, o) for o in data]
    return accuracy(states, {o.id: o.label for o in data}, rb)


def assert_monotone(trace):
    values = [trace.initial["objective"]] + [rec.objective for rec in trace.iterations]
    assert all(values[i] >= values[i + 1] for i in range(len(values) - 1))


class TestConfig:
    @pytest.mark.parametrize(
        "name",
        ["fd_eps", "step_init", "armijo_c", "shrink", "tol_objective",
         "tol_grad", "holdout_fraction", "threshold"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            OptimizerConfig(**{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [("fd_eps", 0.0), ("fd_eps", -1e-4), ("fd_eps", 1.0 + 1e-12), ("fd_eps", 5.0),
         ("fd_eps", 1e300), ("armijo_c", -1e6), ("armijo_c", -1e-12), ("armijo_c", 1.0),
         ("fd_scheme", "backward"), ("step_init", 0.0), ("step_init", -0.5), ("shrink", 0.0),
         ("shrink", 1.0), ("max_backtracks", -1), ("max_iters", 0), ("holdout_fraction", -0.1),
         ("holdout_fraction", 1.0), ("multi_start", 0), ("tol_objective_window", 0),
         ("train_only", ()), ("train_only", []), ("threshold", 1.5), ("threshold", 1.0),
         ("threshold", -0.1)],
    )
    def test_out_of_range_rejected(self, name, value):
        # fd_eps > 1 probes weights outside [-1, 1]; armijo_c < 0 accepts a
        # rising objective, armijo_c >= 1 asks more than the linear decrease
        with pytest.raises(ValueError, match=name):
            OptimizerConfig(**{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [("max_iters", 1.5), ("multi_start", 2.0), ("max_backtracks", 1.5), ("max_iters", True),
         ("seed", 0.0), ("fd_eps", True), ("use_tms", "no"), ("use_tms", 1), ("penalty", None),
         ("penalty", 10.0), ("train_only", "r0"), ("train_only", 5), ("train_only", (1, 2))],
    )
    def test_mistyped_rejected(self, name, value):
        # unchecked, a float count fails later in range(), a bare str
        # trains its characters as rule ids, and a non-str id fails only at
        # session start
        with pytest.raises(ValueError, match=name):
            OptimizerConfig(**{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [("fd_eps", 1.0), ("armijo_c", 0.0), ("armijo_c", 0.999), ("fd_scheme", "central"),
         ("shrink", 0.999), ("max_backtracks", 0), ("max_iters", 1), ("holdout_fraction", 0.0),
         ("holdout_fraction", 0.999), ("multi_start", 1), ("tol_objective_window", 1),
         ("train_only", None), ("train_only", ("r1",)), ("threshold", 0.0), ("threshold", 0.999)],
    )
    def test_range_edges_accepted(self, name, value):
        assert getattr(OptimizerConfig(**{name: value}), name) == value


class TestGradient:
    def test_matches_analytic_at_zero(self):
        rb, data = one_rule_problem(weight=0.0, fact=1.0)
        g = gradient(rb, data)
        assert g["r1"] == pytest.approx(-4.0, rel=1e-3)

    def test_matches_analytic_at_interior_points(self):
        rng = random.Random(17)
        for _ in range(30):
            w, v = rng.uniform(-0.9, 0.9), rng.uniform(0.1, 1.0)
            rb, data = one_rule_problem(weight=w, fact=v)
            analytic = -2.0 * v * (2.0 - w * v)
            g_fwd = gradient(rb, data, OptimizerConfig(fd_scheme="forward"))
            g_cen = gradient(rb, data, OptimizerConfig(fd_scheme="central"))
            assert g_fwd["r1"] == pytest.approx(analytic, rel=1e-3)
            assert g_cen["r1"] == pytest.approx(analytic, rel=1e-5)

    def test_probe_near_upper_bound_flips_inward(self):
        rb, data = one_rule_problem(weight=1.0, fact=0.5)
        analytic = -2.0 * 0.5 * (2.0 - 1.0 * 0.5)
        for scheme in ("forward", "central"):
            g = gradient(rb, data, OptimizerConfig(fd_scheme=scheme))
            assert g["r1"] == pytest.approx(analytic, rel=1e-3)

    @pytest.mark.parametrize("scheme", ["forward", "central"])
    @pytest.mark.parametrize("w", [1.0, -1.0, 0.3])
    def test_probe_steps_by_fd_eps_toward_the_inside(self, scheme, w):
        # with fact 1.0 the class CF is the weight, so the CFs the metric
        # sees after the base score are the probed weights
        eps = 1e-4
        seen = []

        def recording_metric(evaluations, labels, classes):
            seen.append(evaluations[0].prop_cf["c"])
            return margin_metric(evaluations, labels, classes)

        rb, data = one_rule_problem(weight=w, fact=1.0)
        gradient(rb, data, OptimizerConfig(fd_eps=eps, fd_scheme=scheme), recording_metric)
        if w == 1.0:
            probes = [1.0 - eps]
        elif w == -1.0:
            probes = [-1.0 + eps]
        else:
            probes = [w + eps, w - eps] if scheme == "central" else [w + eps]
        assert seen == [w, *probes]

    def test_all_zero_facts_give_zero_gradient(self):
        rb, _ = one_rule_problem()
        data = [TrainingObject(id="o", facts={"f": 0.0}, label="c")]
        g = gradient(rb, data)
        assert g == {"r1": 0.0}

    def test_tms_equals_naive(self):
        rng = random.Random(23)
        for seed in range(5):
            spec = SynthSpec(features=6, classes=3, objects=12,
                             irrelevant_features=2, noise=0.3, seed=seed)
            rb, _, data, _ = generate(spec)
            for r in rb.rules:
                r.weight = rng.uniform(-0.9, 0.9)
            g_tms = gradient(rb, data, OptimizerConfig(use_tms=True))
            g_naive = gradient(rb, data, OptimizerConfig(use_tms=False))
            assert max(abs(g_tms[k] - g_naive[k]) for k in g_tms) <= 1e-10

    @pytest.mark.parametrize("scheme", ["forward", "central"])
    def test_tms_equals_naive_bitwise_with_violated_soft_bounds(self, scheme):
        rng = random.Random(31)
        spec = SynthSpec(features=6, classes=3, objects=12,
                         irrelevant_features=2, noise=0.3, seed=4)
        rb, _, data, _ = generate(spec)
        for i, r in enumerate(rb.rules):
            r.weight = rng.uniform(-0.9, 0.9)
            if i % 3:  # two rules in three soft: most violated, some satisfied
                r.bound_kind = "soft"
                r.bounds = (-0.2, 0.2) if i % 3 == 1 else (-0.95, 0.95)
        violated = [r for r in rb.rules
                    if r.bound_kind == "soft" and not r.bounds[0] <= r.weight <= r.bounds[1]]
        assert len(violated) >= 5
        grads = [
            gradient(rb, data, OptimizerConfig(fd_scheme=scheme, use_tms=use_tms))
            for use_tms in (True, False)
        ]
        assert {k: v.hex() for k, v in grads[0].items()} == {
            k: v.hex() for k, v in grads[1].items()
        }

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           scheme=st.sampled_from(["forward", "central"]))
    def test_probe_penalty_is_the_displaced_base_penalty(self, seed, scheme):
        # the naive path rescans the displaced base's penalty for every
        # probe, so bit-equal gradients mean bit-equal probe penalties
        rng = random.Random(seed)
        spec = SynthSpec(features=4, classes=2, objects=5, seed=rng.randrange(1000))
        rb, _, data, _ = generate(spec)
        for r in rb.rules:
            r.weight = rng.uniform(-1.0, 1.0)
            r.bound_kind = rng.choice(["hard", "soft"])
            lo = rng.uniform(-1.0, 1.0)
            r.bounds = (lo, rng.uniform(lo, 1.0))
            if r.bound_kind == "hard":
                r.weight = min(max(r.weight, lo), r.bounds[1])
        cfg = PenaltyConfig(coefficient=rng.choice([0.5, 3.0, 1e3]))
        grads = [
            gradient(rb, data, OptimizerConfig(fd_scheme=scheme, use_tms=use_tms, penalty=cfg))
            for use_tms in (True, False)
        ]
        assert {k: v.hex() for k, v in grads[0].items()} == {
            k: v.hex() for k, v in grads[1].items()
        }

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           scheme=st.sampled_from(["forward", "central"]),
           threshold=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5,
                                                       exclude_min=True, exclude_max=True)))
    def test_both_probe_routes_give_the_naive_gradient(self, seed, scheme, threshold):
        # on a layered base over one or more objects, a probe of a rule no
        # other rule reads only reads the states, and every other probe
        # perturbs and restores them; one gradient mixes both routes
        rng = random.Random(seed)
        rb = random_rulebase(rng, max_rules=30)
        data = [random_object(rng, rb, f"o{i}") for i in range(rng.randint(1, 6))]
        grads = [
            {k: v.hex() for k, v in gradient(rb, data, OptimizerConfig(
                fd_scheme=scheme, use_tms=tms, threshold=threshold)).items()}
            for tms in (True, False)
        ]
        assert grads[0] == grads[1]

    @staticmethod
    def partly_silent_problem():
        """A flat base whose every rule fires on some objects and is silent
        on others, so margin_metric's probes re-score a strict subset."""
        rng = random.Random(41)
        rb, _, data, _ = generate(SynthSpec(features=6, classes=3, objects=12,
                                            irrelevant_features=2, noise=0.3, seed=6))
        for r in rb.rules:
            r.weight = rng.uniform(-0.9, 0.9)
        states = [evaluate_full(rb, o) for o in data]
        for slot in range(len(rb.rules)):
            assert 0 < sum(s.contributions[slot] is not None for s in states) < len(data)
        return rb, data, states

    @staticmethod
    def mixed_firing_problem():
        """The partly silent base with f000 made positive and f001 negative
        on every object, and only one rule of each left trainable: r_f000_c0
        fires on every object, r_f001_c0 on none, and every other trainable
        rule on a strict subset."""
        rb, data, _ = TestGradient.partly_silent_problem()
        rng = random.Random(43)
        for o in data:
            o.facts["f000"] = rng.uniform(0.1, 1.0)
            o.facts["f001"] = rng.uniform(-1.0, -0.1)
        for r in rb.rules:
            if r.antecedent.prop in ("f000", "f001") and r.consequent != "c0":
                r.trainable = False
        # a flat rule fires where its fact is above the threshold 0
        fires = {r.id: sum(o.facts[r.antecedent.prop] > 0.0 for o in data)
                 for r in rb.rules if r.trainable}
        assert fires.pop("r_f000_c0") == len(data)
        assert fires.pop("r_f001_c0") == 0
        assert all(0 < n < len(data) for n in fires.values())
        return rb, data

    @staticmethod
    def record_probes(monkeypatch):
        """Record (rule id, number of states it fires in) for every
        read-only probe."""
        import cf_forge.optimizer as optimizer

        probes = []
        original = optimizer.probe_consequent

        def recording(states, rb, rule_id, *args):
            result = original(states, rb, rule_id, *args)
            probes.append((rule_id, len(result[1])))
            return result

        monkeypatch.setattr(optimizer, "probe_consequent", recording)
        return probes

    @pytest.mark.parametrize("scheme", ["forward", "central"])
    def test_rules_firing_on_every_object_or_none_refold_the_terms(self, scheme, monkeypatch):
        # margin_metric's probes read the objects a rule fires on, however
        # many: every object for r_f000_c0 and none for r_f001_c0, and refold
        # the terms, so the only whole-metric call is the score before the
        # gradient, which keeps its terms; a one-object part takes the same
        # route
        import cf_forge.metric as metric

        rb, data = self.mixed_firing_problem()
        calls = []

        def recording(evaluations, labels, classes):
            calls.append(len(evaluations))
            return margin_metric(evaluations, labels, classes)

        monkeypatch.setattr(metric, "margin_metric", recording)
        probes = self.record_probes(monkeypatch)
        per_rule = 2 if scheme == "central" else 1
        for objects in (data, data[:1]):
            grads = [
                {k: v.hex() for k, v in gradient(
                    rb, objects, OptimizerConfig(fd_scheme=scheme, use_tms=tms)).items()}
                for tms in (True, False)
            ]
            assert grads[0] == grads[1]
            del calls[:], probes[:]
            cfg = OptimizerConfig(fd_scheme=scheme)
            assert {k: v.hex() for k, v in gradient(rb, objects, cfg, recording).items()} == grads[0]
            n = len(objects)
            assert calls == [n]  # the score, which keeps the terms
            assert probes.count(("r_f000_c0", n)) == probes.count(("r_f001_c0", 0)) == per_rule
            assert len(probes) == per_rule * sum(r.trainable for r in rb.rules)

    @pytest.mark.parametrize("scheme", ["forward", "central"])
    def test_plug_ins_without_terms_give_the_same_gradient(self, scheme, monkeypatch):
        # margin_metric's probes read only the objects a rule fires on and
        # call no metric; neither of the last two plug-ins is margin_metric,
        # so each of their probes re-scores every object with one
        # whole-metric call and reads no probe
        import cf_forge.metric as metric

        sizes = []

        def recording(evaluations, labels, classes):
            sizes.append(len(evaluations))
            return margin_metric(evaluations, labels, classes)

        def positional(evaluations, labels, classes):
            sizes.append(len(evaluations))
            return margin_metric(evaluations, labels, classes)

        def keywords(evaluations, labels, classes, **kwargs):
            sizes.append(len(evaluations))
            return MetricValue(margin_metric(evaluations, labels, classes).value, per_object=None)

        rb, data, _ = self.partly_silent_problem()
        n, probes_per_gradient = len(data), (2 if scheme == "central" else 1) * len(rb.rules)
        cfg = OptimizerConfig(fd_scheme=scheme)
        expected = {k: v.hex() for k, v in gradient(rb, data, cfg).items()}
        probes = self.record_probes(monkeypatch)
        # a wrapper installed on the metric module, as a profiler installs
        # one, keeps margin_metric's read-only probes
        monkeypatch.setattr(metric, "margin_metric", recording)
        assert {k: v.hex() for k, v in gradient(rb, data, cfg, recording).items()} == expected
        assert sizes == [n] and len(probes) == probes_per_gradient
        assert min(size for _, size in probes) < n
        for metric_fn in (positional, keywords):
            del sizes[:], probes[:]
            assert {k: v.hex() for k, v in gradient(rb, data, cfg, metric_fn).items()} == expected
            assert sizes == [n] * (1 + probes_per_gradient) and probes == []

    @pytest.mark.parametrize("scheme", ["forward", "central"])
    def test_a_mean_plug_in_gets_the_naive_gradient(self, scheme):
        # its terms left-fold to its value, but each depends on the object
        # count, so re-scoring only the objects a probe changed would be wrong
        def mean(evaluations, labels, classes):
            m = margin_metric(evaluations, labels, classes)
            terms = [t / len(evaluations) for t in m.per_object]
            value = 0.0
            for t in terms:
                value += t
            return MetricValue(value, terms)

        rb, data, _ = self.partly_silent_problem()
        grads = [
            {k: v.hex() for k, v in gradient(
                rb, data, OptimizerConfig(fd_scheme=scheme, use_tms=tms), mean).items()}
            for tms in (True, False)
        ]
        assert grads[0] == grads[1]

    @pytest.mark.parametrize("scheme", ["forward", "central"])
    def test_a_plug_in_is_probed_by_full_passes_in_either_mode(self, scheme):
        # only margin_metric's terms are refolded, so use_tms changes
        # nothing for a plug-in: every probe is a full pass
        plug_in = lambda evaluations, labels, classes: margin_metric(evaluations, labels, classes)
        rb, data, states = self.partly_silent_problem()
        runs = []
        for tms in (True, False):
            budget = EvaluationBudget()
            cfg = OptimizerConfig(fd_scheme=scheme, use_tms=tms)
            g = gradient(rb, data, cfg, plug_in, budget)
            runs.append(({k: v.hex() for k, v in g.items()}, budget.probe_evals, budget.firings))
        assert runs[0] == runs[1]
        probes = (2 if scheme == "central" else 1) * len(rb.rules)
        pass_firings = sum(c is not None for s in states for c in s.contributions)
        assert runs[0][2] == (1 + probes) * pass_firings

    def test_probes_perturb_only_the_objects_a_rule_fires_on(self, monkeypatch):
        rb, data, states = self.partly_silent_problem()
        counts = self.traced_probes(monkeypatch, rb, data)
        pairs = sum(c is not None for s in states for c in s.contributions)
        assert counts["states"] == pairs < len(rb.rules) * len(data)
        assert counts["perturb_weight"] == 0  # every closure is its rule: no probe writes a state

    @staticmethod
    def flat_probe_problem():
        """A flat base, each rule's weight drawn, and the closed form of its
        probes' work: the (rule, object) pairs a rule fires in, and the
        combines that refold the firing slots of [slot, hi) from the prefix
        before each such rule's slot."""
        rb, _, objects, _ = generate(SynthSpec(features=6, classes=3, objects=12, seed=5))
        rng = random.Random(5)
        for r in rb.rules:
            r.weight = rng.uniform(-0.9, 0.9)
        refires = rb.firing_plan().refires
        states = [evaluate_full(rb, o) for o in objects]
        pairs = combines = 0
        for r in rb.rules:
            _, _, _, _, slot, _, hi, _ = refires[r.id]
            for contrib in (st.contributions for st in states):
                if contrib[slot] is not None:
                    pairs += 1
                    combines += sum(c is not None for c in contrib[slot:hi])
        assert pairs < len(rb.rules) * len(objects)  # some pairs are silent
        assert combines > pairs
        return rb, objects, pairs, combines

    @staticmethod
    def traced_probes(monkeypatch, rb, objects, metric_fn=margin_metric):
        """One gradient with the probe routines and combine_parallel wrapped
        at the names their callers look up, as perfbench's tracer wraps
        perturb_weight, restore_weight and combine_parallel: the calls of
        each routine, the states read-only probes found the rule firing in,
        and the combines made inside a probe.  A rewrite that binds these
        names at import or inlines combine_parallel would hide calls from a
        tracer."""
        import cf_forge.engine as engine
        import cf_forge.optimizer as optimizer

        names = ("perturb_weight", "restore_weight", "probe_consequent")
        counts = dict.fromkeys(names, 0)
        counts["states"] = counts["combines"] = 0
        probing = [0]

        def wrap_probe(name):
            original = getattr(optimizer, name)

            def wrapper(*args):
                counts[name] += 1
                probing[0] += 1
                try:
                    result = original(*args)
                finally:
                    probing[0] -= 1
                if name == "probe_consequent":
                    counts["states"] += len(result[1])
                return result

            monkeypatch.setattr(optimizer, name, wrapper)

        for name in names:
            wrap_probe(name)
        combine = engine.combine_parallel

        def counting_combine(x, y):
            counts["combines"] += probing[0] > 0
            return combine(x, y)

        monkeypatch.setattr(engine, "combine_parallel", counting_combine)
        gradient(rb, objects, OptimizerConfig(), metric_fn)
        return counts

    @staticmethod
    def hidden_layer_problem():
        """Inputs f0-f3 into hidden h0 and h1, the hidden layer and f0 into
        classes c0-c2, weights and facts drawn: the f -> h rules have
        dependents, the rules into a class do not, and every rule is silent
        on some objects."""
        rng = random.Random(7)
        props = [Proposition(f"f{i}", INPUT) for i in range(4)]
        props += [Proposition(f"h{j}", DERIVED) for j in range(2)]
        props += [Proposition(f"c{k}", DERIVED, output_class=True) for k in range(3)]
        edges = [(f"f{i}", f"h{j}") for i in range(4) for j in range(2)]
        edges += [(src, f"c{k}") for src in ("h0", "h1", "f0") for k in range(3)]
        rules = [Rule(id=f"r_{src}_{dst}", antecedent=Ref(src), consequent=dst,
                      weight=rng.uniform(-0.9, 0.9)) for src, dst in edges]
        rb = RuleBase(props, rules)
        objects = [
            TrainingObject(id=f"o{n}", facts={f"f{i}": rng.uniform(-1.0, 1.0) for i in range(4)},
                           label=f"c{rng.randrange(3)}")
            for n in range(10)
        ]
        states = [evaluate_full(rb, o) for o in objects]
        for slot in range(len(rules)):
            assert 0 < sum(s.contributions[slot] is not None for s in states) < len(objects)
        return rb, objects, states

    def test_a_tracer_sees_every_probe_call_and_combine(self, monkeypatch):
        # a rule with dependents perturbs every object and restores those it
        # re-fired in; a rule whose closure is itself makes one read-only
        # probe; the combines inside probes are those the engine makes when
        # each probe is run on its own from a fresh full pass
        import cf_forge.engine as engine

        rb, objects, states = self.hidden_layer_problem()
        deep = [r for r in rb.rules if len(rb.closure_plan(r.id)) > 1]
        flat = [r for r in rb.rules if len(rb.closure_plan(r.id)) == 1]
        assert deep and flat
        slots = {r.id: i for i, r in enumerate(rb.rules)}
        fired_in = {r.id: sum(s.contributions[slots[r.id]] is not None for s in states)
                    for r in rb.rules}
        combines = [0]
        combine = engine.combine_parallel

        def counting(x, y):
            combines[0] += 1
            return combine(x, y)

        h = OptimizerConfig().fd_eps
        for r in rb.rules:
            for o in objects:
                state = engine.ObjectEvaluation(o.id)
                state.prefix = array("d")
                evaluate_full(rb, o, into=state)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(engine, "combine_parallel", counting)
                    if len(rb.closure_plan(r.id)) == 1:
                        engine.probe_consequent([state], rb, r.id, r.weight + h)
                    elif engine.perturb_weight(state, rb, r.id, r.weight + h):
                        engine.restore_weight(state, rb, r.id, r.weight)
        counts = self.traced_probes(monkeypatch, rb, objects)
        assert counts["perturb_weight"] == len(deep) * len(objects)
        assert counts["restore_weight"] == sum(fired_in[r.id] for r in deep)
        assert counts["restore_weight"] < counts["perturb_weight"]
        assert counts["probe_consequent"] == len(flat)
        assert counts["states"] == sum(fired_in[r.id] for r in flat)
        assert counts["combines"] == combines[0] > 0

    def test_a_tracer_sees_every_read_only_probe_and_combine(self, monkeypatch):
        # margin_metric's probes of a flat base read: one call per probe
        rb, objects, pairs, combines = self.flat_probe_problem()
        counts = self.traced_probes(monkeypatch, rb, objects)
        assert counts["perturb_weight"] == counts["restore_weight"] == 0
        assert counts["probe_consequent"] == len(rb.rules) and counts["states"] == pairs
        assert counts["combines"] == combines

    def test_overflowing_penalty_raises(self):
        # 1e308 x 1.5^2 overflows, so the objective at the weights is inf
        rb, data = one_rule_problem(weight=-1.0, bound_kind="soft", bounds=(0.5, 0.6))
        cfg = OptimizerConfig(penalty=PenaltyConfig(coefficient=1e308))
        with pytest.raises(NonFiniteObjective, match=r"^objective is inf, .* 1e\+308$"):
            gradient(rb, data, cfg)

    @pytest.mark.parametrize("use_tms", [True, False])
    def test_overflowing_component_raises(self, use_tms):
        # the penalty 1e308 x 1.0^2 is finite, but its forward difference,
        # about -2e304 over a step of 1e-4, is not
        rb, data = one_rule_problem(weight=-0.5, bound_kind="soft", bounds=(0.5, 0.6))
        cfg = OptimizerConfig(use_tms=use_tms, penalty=PenaltyConfig(coefficient=1e308))
        with pytest.raises(NonFiniteObjective, match="^gradient component of rule 'r1' is -inf"):
            gradient(rb, data, cfg)

    def test_budget_probe_accounting(self):
        rb, _, data, _ = generate(SynthSpec(features=4, classes=2, objects=6, seed=1))
        budget = EvaluationBudget()
        gradient(rb, data, OptimizerConfig(fd_scheme="forward"), budget=budget)
        assert budget.probe_evals == 8 * 6  # R x O
        budget = EvaluationBudget()
        gradient(rb, data, OptimizerConfig(fd_scheme="central"), budget=budget)
        assert budget.probe_evals == 2 * 8 * 6

    def test_only_trainable_rules_get_components(self):
        rb, data = one_rule_problem()
        rb.rules[0].trainable = False
        with pytest.raises(NoTrainableRules):
            gradient(rb, data)


class TestTrain:
    def test_separable_flat_reaches_perfect_accuracy(self):
        spec = SynthSpec(features=10, classes=5, objects=50,
                         irrelevant_features=3, noise=0.0, seed=42)
        rb_zero, _, data, _ = generate(spec)
        trained, trace = train(rb_zero, data, OptimizerConfig(seed=42))
        assert_monotone(trace)
        assert trace.final_objective < trace.initial["objective"]
        assert final_accuracy(trained, data) == 1.0

    def test_single_rule_converges_to_interior_optimum(self):
        # soft bound [0, 0.5] with mu = 10 balances the pull toward +1:
        # d/dw [(2 - w)^2 + 10 (w - 0.5)^2] = 0 at w = 7/11
        rb, data = one_rule_problem(weight=0.0, fact=1.0,
                                    bounds=(0.0, 0.5), bound_kind="soft")
        cfg = OptimizerConfig(seed=0, penalty=PenaltyConfig(coefficient=10.0))
        trained, trace = train(rb, data, cfg)
        expected = (2.0 * 1.0 + 10.0 * 0.5) / (1.0 + 10.0)
        assert trained.rules[0].weight == pytest.approx(expected, abs=1e-2)

    @pytest.mark.parametrize("use_tms", [True, False])
    def test_overflowing_penalty_raises(self, use_tms):
        rb, data = one_rule_problem(weight=-1.0, bound_kind="soft", bounds=(0.5, 0.6))
        cfg = OptimizerConfig(use_tms=use_tms, penalty=PenaltyConfig(coefficient=1e308))
        with pytest.raises(NonFiniteObjective, match="^objective is inf"):
            train(rb, data, cfg)

    def test_all_rules_frozen(self):
        rb, data = one_rule_problem()
        rb.rules[0].trainable = False
        with pytest.raises(NoTrainableRules):
            train(rb, data)

    def test_empty_dataset(self):
        rb, _ = one_rule_problem()
        with pytest.raises(EmptyDataset):
            train(rb, [])

    @pytest.mark.parametrize("fraction, held", [(0.01, "none"), (0.99, "all")])
    def test_holdout_that_holds_out_none_or_all(self, fraction, held):
        # 0.01 of 20 objects rounds to none, 0.99 to every one
        rb, _, data, _ = generate(SynthSpec(features=5, classes=2, objects=20, seed=4))
        cfg = OptimizerConfig(seed=4, max_iters=2, holdout_fraction=fraction)
        with pytest.raises(EmptyDataset, match=f"^holdout_fraction {fraction} holds out {held} of the 20"):
            train(rb, data, cfg)

    @pytest.mark.parametrize("run", [train, gradient], ids=["train", "gradient"])
    def test_duplicate_object_ids_rejected(self, run):
        # labels are keyed by id: both objects would train as the last label
        props = [
            Proposition("f", INPUT),
            Proposition("c0", DERIVED, output_class=True),
            Proposition("c1", DERIVED, output_class=True),
        ]
        rb = RuleBase(props, [Rule(id=f"r{i}", antecedent=Ref("f"), consequent=f"c{i}") for i in (0, 1)])
        data = [TrainingObject(id="a", facts={"f": 1.0}, label=c) for c in ("c0", "c1")]
        with pytest.raises(CfForgeError, match="object id 'a' appears more than once"):
            run(rb, data)

    @pytest.mark.parametrize("seed", range(6))
    def test_duplicate_object_ids_rejected_across_the_holdout_split(self, seed):
        # the seeded shuffle puts the two objects in one part or in two;
        # either way the dataset is rejected
        rb, _, data, _ = generate(SynthSpec(features=4, classes=2, objects=10, seed=2))
        data[1] = TrainingObject(id=data[0].id, facts=data[1].facts, label=data[1].label)
        cfg = OptimizerConfig(seed=seed, max_iters=1, holdout_fraction=0.3)
        with pytest.raises(CfForgeError, match=f"object id {data[0].id!r} appears more than once"):
            train_multi(rb, data, cfg)

    def test_input_rulebase_untouched(self):
        rb, data = one_rule_problem()
        before = rb.rules[0].weight
        train(rb, data, OptimizerConfig(max_iters=5))
        assert rb.rules[0].weight == before

    def test_antecedent_deeper_than_a_file_may_hold(self):
        # 150 nested ands: the working copy shares the frozen antecedent
        # rather than copying it recursively
        props = [
            Proposition("f", INPUT),
            Proposition("g", INPUT),
            Proposition("c", DERIVED, output_class=True),
            Proposition("d", DERIVED, output_class=True),
        ]
        expr = Ref("f")
        for _ in range(150):
            expr = And((expr, Ref("g")))
        rb = RuleBase(props, [Rule(id="r1", antecedent=expr, consequent="c", weight=0.0)])
        data = [TrainingObject(id="o", facts={"f": 0.8, "g": 0.9}, label="c")]
        cfg = OptimizerConfig(seed=2, max_iters=3, multi_start=2)
        trained, trace = train(rb, data, cfg)
        assert trained.rules[0].weight > 0.0
        assert trace.final_objective < trace.initial["objective"]
        best, _, traces = train_multi(rb, data, cfg)
        assert len(traces) == 2 and best.rules[0].antecedent is expr
        assert rb.rules[0].weight == 0.0

    def test_frozen_rules_bit_identical(self):
        rb, _, data, _ = generate(SynthSpec(features=5, classes=2, objects=10, seed=3))
        rng = random.Random(3)
        for r in rb.rules:
            r.weight = rng.uniform(-0.5, 0.5)
        frozen_ids = [r.id for r in rb.rules[::2]]
        for r in rb.rules:
            if r.id in frozen_ids:
                r.trainable = False
        snapshot = {r.id: r.weight for r in rb.rules}
        trained, _ = train(rb, data, OptimizerConfig(seed=3, max_iters=10))
        for r in trained.rules:
            if r.id in frozen_ids:
                assert r.weight == snapshot[r.id]

    def test_train_only_subset(self):
        rb, _, data, _ = generate(SynthSpec(features=5, classes=2, objects=10, seed=3))
        subset = (rb.rules[0].id, rb.rules[1].id)
        snapshot = {r.id: r.weight for r in rb.rules}
        cfg = OptimizerConfig(seed=3, max_iters=10, train_only=subset)
        trained, trace = train(rb, data, cfg)
        assert trace.budget.trainable_rules == 2
        for r in trained.rules:
            if r.id not in subset:
                assert r.weight == snapshot[r.id]

    def test_hard_bounds_projected_and_stall_flagged(self):
        # the objective pulls w toward +1 but the hard bound caps it at 0.5
        rb, data = one_rule_problem(weight=0.0, fact=1.0,
                                    bounds=(-0.5, 0.5), bound_kind="hard")
        trained, trace = train(rb, data, OptimizerConfig(seed=0))
        assert trained.rules[0].weight == 0.5
        # -g points out of the bound, so the projected gradient is zero
        assert trace.status == "converged_gradient"
        assert_monotone(trace)

    def test_weights_stay_in_unit_interval(self):
        rb, _, data, _ = generate(SynthSpec(features=6, classes=2, objects=20,
                                            noise=0.1, seed=9))
        trained, trace = train(rb, data, OptimizerConfig(seed=9, max_iters=40))
        for r in trained.rules:
            assert -1.0 <= r.weight <= 1.0
        assert_monotone(trace)

    def test_soft_violation_shrinks(self):
        rb, data = one_rule_problem(weight=0.9, fact=1.0,
                                    bounds=(0.0, 0.5), bound_kind="soft")
        initial_violation = 0.9 - 0.5
        trained, trace = train(rb, data, OptimizerConfig(seed=1))
        final_violation = max(0.0, trained.rules[0].weight - 0.5)
        assert final_violation < initial_violation
        assert_monotone(trace)

    @pytest.mark.parametrize("threshold", [0.0, 0.3])
    def test_tms_and_naive_agree_on_final_weights(self, threshold):
        # the incremental gradient equals the naive one bit for bit, so the
        # two runs take the same steps; only their firing counts differ
        rb, _, data, _ = generate(SynthSpec(features=5, classes=2, objects=10,
                                            noise=0.2, seed=6))
        runs = [
            train(rb, data, OptimizerConfig(seed=6, max_iters=25, use_tms=use_tms,
                                            threshold=threshold, holdout_fraction=0.2))
            for use_tms in (True, False)
        ]
        (t1, tr1), (t2, tr2) = runs
        assert [r.weight.hex() for r in t1.rules] == [r.weight.hex() for r in t2.rules]
        assert json.dumps(tr1.to_dict()["iterations"]) == json.dumps(tr2.to_dict()["iterations"])
        assert tr1.status == tr2.status

    def test_fixed_seed_reruns_bit_identical(self):
        rb, _, data, _ = generate(SynthSpec(features=5, classes=2, objects=10,
                                            noise=0.2, seed=7))
        cfg = OptimizerConfig(seed=7, max_iters=15, holdout_fraction=0.2)
        t1, tr1 = train(rb, data, cfg)
        t2, tr2 = train(rb, data, cfg)
        assert tr1.to_dict() == tr2.to_dict()
        assert all(a.weight == b.weight for a, b in zip(t1.rules, t2.rules))

    def test_holdout_split_and_curve(self):
        rb, _, data, _ = generate(SynthSpec(features=5, classes=2, objects=20, seed=4))
        cfg = OptimizerConfig(seed=4, max_iters=8, holdout_fraction=0.25)
        _, trace = train(rb, data, cfg)
        assert trace.holdout_size == 5
        assert trace.budget.objects == 15
        assert "holdout_objective" in trace.initial
        assert all(rec.holdout_objective is not None for rec in trace.iterations)

    def test_grad_convergence_status(self):
        rb, _ = one_rule_problem()
        data = [TrainingObject(id="o", facts={"f": 0.0}, label="c")]
        _, trace = train(rb, data)
        assert trace.status == "converged_gradient"
        assert trace.iterations == []

    def test_boundary_optimum_converges_on_gradient(self):
        # unconstrained pull toward w = 1 hits the definitional bound; there
        # -g points outward, so the projected gradient is zero
        rb, data = one_rule_problem(weight=0.0, fact=1.0)
        trained, trace = train(rb, data, OptimizerConfig(seed=0, max_iters=200))
        assert trace.status == "converged_gradient"
        assert trained.rules[0].weight == 1.0
        assert trace.budget.gradients == len(trace.iterations) + 1
        assert_monotone(trace)

    def test_kink_without_descent_ends_in_line_search_failure(self):
        # |cf_c| has its minimum at w = 0, where the forward difference
        # reads +1; every step along -g raises the metric, so the search
        # exhausts its backtracks and restores the starting weight
        def abs_metric(evaluations, labels, classes):
            return MetricValue(sum(abs(ev.prop_cf["c"]) for ev in evaluations))

        rb, data = one_rule_problem(weight=0.0, fact=1.0)
        cfg = OptimizerConfig(seed=0)
        trained, trace = train(rb, data, cfg, abs_metric)
        assert trace.status == "line_search_failed"
        assert trace.iterations == []
        assert trained.rules[0].weight == 0.0
        # every candidate; the restore resets the weights with no pass
        assert trace.budget.line_search_evals == (cfg.max_backtracks + 1) * len(data)

    def test_second_step_is_the_two_point_step(self):
        rb, _, data, _ = generate(SynthSpec(features=5, classes=2, objects=10,
                                            noise=0.2, seed=7))
        cfg = OptimizerConfig(seed=7, max_iters=2, step_init=0.01)
        _, trace = train(rb, data, cfg)
        # the trajectory is deterministic: a one-iteration run ends at w1
        rb1, _ = train(rb, data, OptimizerConfig(seed=7, max_iters=1, step_init=0.01))
        g0, g1 = gradient(rb, data, cfg), gradient(rb1, data, cfg)
        ids = [r.id for r in rb.rules]
        step = _bb_step([rb1.rule(i).weight for i in ids], [g1[i] for i in ids],
                        [rb.rule(i).weight for i in ids], [g0[i] for i in ids], 0.01)
        for _ in range(trace.iterations[1].backtracks):
            step *= cfg.shrink
        assert trace.iterations[0].step == 0.01
        assert trace.iterations[1].step == step != 0.01

    def test_bb_step(self):
        assert _bb_step([1.0, 2.0], [3.0, 1.0], [0.0, 0.0], [1.0, 0.0], 0.5) == 5.0 / 4.0
        # s.y <= 0: no curvature information, fall back to step_init
        assert _bb_step([1.0], [-1.0], [0.0], [0.0], 0.5) == 0.5
        assert _bb_step([0.0], [1.0], [0.0], [0.0], 0.5) == 0.5
        assert _bb_step([1.0], [1e-9], [0.0], [0.0], 0.5) == BB_STEP_MAX
        assert _bb_step([1e-9], [1.0], [0.0], [0.0], 0.5) == BB_STEP_MIN
        # s.s and s.y are left folds from 0.0: the 1e-16 terms vanish on every
        # Python, where the compensated sum() of 3.12+ would keep them
        assert _bb_step([1.0, 1e-16, 1e-16], [1.0] * 3, [0.0] * 3, [0.0] * 3, 0.5) == 1.0

    def test_interior_optimum_converges(self):
        rb, data = one_rule_problem(weight=0.0, fact=1.0,
                                    bounds=(0.0, 0.5), bound_kind="soft")
        _, trace = train(rb, data, OptimizerConfig(seed=0, max_iters=200))
        assert trace.status in ("converged_objective", "converged_gradient")


def projected_norm(rb, g):
    """Projected-gradient infinity norm, restated: a component at a
    projection bound whose -g points outward counts as zero."""
    norm = 0.0
    for r in rb.rules:
        if r.id not in g:
            continue
        lo, hi = r.bounds if r.bound_kind == "hard" else (-1.0, 1.0)
        if (r.weight == lo and g[r.id] > 0.0) or (r.weight == hi and g[r.id] < 0.0):
            continue
        norm = max(norm, abs(g[r.id]))
    return norm


@st.composite
def bounded_problems(draw):
    """A small seeded generate() problem whose rules get random hard bounds
    (some degenerate) and a feasible starting weight, some on a bound."""
    seed = draw(st.integers(0, 10_000))
    classes = draw(st.integers(2, 3))
    spec = SynthSpec(features=draw(st.integers(classes, 4)), classes=classes,
                     objects=draw(st.integers(3, 10)), noise=0.2, seed=seed)
    rb, _, data, _ = generate(spec)
    rng = random.Random(seed)
    for r in rb.rules:
        if rng.random() < 0.6:
            lo, hi = sorted(rng.choice([rng.uniform(-1.0, 1.0), -1.0, 0.0, 1.0]) for _ in range(2))
            r.bounds = (lo, hi)
        lo, hi = r.bounds
        r.weight = rng.choice([lo, hi, rng.uniform(lo, hi)])
    cfg = OptimizerConfig(
        seed=seed,
        max_iters=draw(st.integers(1, 20)),
        step_init=draw(st.sampled_from([0.01, 0.1, 0.5, 2.0])),
        tol_grad=draw(st.sampled_from([1e-6, 1e-2, 0.5])),
        use_tms=draw(st.booleans()),
        fd_scheme=draw(st.sampled_from(["forward", "central"])),
    )
    return rb, data, cfg


class TestProjectedSearch:
    @settings(max_examples=80, deadline=None)
    @given(bounded_problems())
    def test_search_properties(self, problem):
        rb, data, cfg = problem
        trained, trace = train(rb, data, cfg)
        assert_monotone(trace)
        for r in trained.rules:
            lo, hi = r.bounds
            assert -1.0 <= r.weight <= 1.0
            assert r.bound_kind != "hard" or lo <= r.weight <= hi
        if trace.status == "converged_gradient":
            assert projected_norm(trained, gradient(trained, data, cfg)) <= cfg.tol_grad
        if trace.iterations:
            first = trace.iterations[0]
            step = cfg.step_init
            for _ in range(first.backtracks):
                step *= cfg.shrink
            assert first.iteration == 1 and first.step == step
        _, again = train(rb, data, cfg)
        assert json.dumps(again.to_dict()) == json.dumps(trace.to_dict())


class TestAudit:
    def naive_trace(self, seed=0, max_iters=6):
        rb, _, data, _ = generate(SynthSpec(features=5, classes=2, objects=8, seed=seed))
        cfg = OptimizerConfig(seed=seed, max_iters=max_iters,
                              use_tms=False, fd_scheme="forward")
        _, trace = train(rb, data, cfg)
        return trace

    def test_naive_forward_passes(self):
        trace = self.naive_trace()
        b = trace.budget
        assert audit_budget(trace) == "pass"
        assert b.probe_evals == b.gradients * b.objects * b.trainable_rules

    def test_tms_run_audited(self):
        # incremental forward runs count one probe per (rule, object) too,
        # so the identity is checked, not skipped
        rb, _, data, _ = generate(SynthSpec(features=5, classes=2, objects=8, seed=0))
        _, trace = train(rb, data, OptimizerConfig(max_iters=3, use_tms=True))
        assert audit_budget(trace) == "pass"
        trace.budget.probe_evals -= 1
        assert audit_budget(trace) == "fail"

    def test_central_run_skipped(self):
        rb, _, data, _ = generate(SynthSpec(features=5, classes=2, objects=8, seed=0))
        _, trace = train(rb, data, OptimizerConfig(max_iters=3, use_tms=False,
                                                   fd_scheme="central"))
        assert audit_budget(trace) == "skipped"

    def test_tampered_counts_fail(self):
        trace = self.naive_trace()
        trace.budget.probe_evals += 1
        assert audit_budget(trace) == "fail"

    def test_line_search_evals_tracked_separately(self):
        trace = self.naive_trace()
        assert trace.budget.line_search_evals > 0

    def test_trace_round_trip(self):
        trace = self.naive_trace(max_iters=2)
        again = TrainingTrace.from_dict(trace.to_dict())
        assert again.to_dict() == trace.to_dict()

    @pytest.mark.parametrize(
        "keys, value, where",
        [
            ((), [1, 2], r"\$: trace document must be a JSON object"),
            ((), {"status": "pass"}, r"\$: missing field 'config'"),
            (("budget", "probe_evals"), DELETE, r"budget: missing field 'probe_evals'"),
            (("budget", "objects"), "8", r"budget: field 'objects' has wrong type str"),
            (("iterations", 0), 3, r"iterations\[0\]: must be a JSON object"),
            (("iterations", 1, "step"), None, r"iterations\[1\]: field 'step'"),
        ],
        ids=["list", "missing-config", "missing-budget-field", "mistyped-budget-field",
             "non-object-record", "mistyped-record-field"],
    )
    def test_malformed_trace_names_the_field(self, keys, value, where):
        doc = self.naive_trace(max_iters=2).to_dict()
        if keys:
            *path, last = keys
            target = doc
            for k in path:
                target = target[k]
            if value is DELETE:
                del target[last]
            else:
                target[last] = value
        else:
            doc = value
        with pytest.raises(ParseError, match=where):
            TrainingTrace.from_dict(doc)


class TestMultiStart:
    @pytest.mark.parametrize("multi_start", [1, 3])
    def test_train_is_train_multi_without_traces(self, multi_start):
        # train honours multi_start: it runs every start and keeps the best
        rb, _, data, _ = generate(SynthSpec(features=5, classes=2, objects=10, seed=2))
        cfg = OptimizerConfig(seed=2, max_iters=10, multi_start=multi_start)
        t_single, tr_single = train(rb, data, cfg)
        t_multi, tr_multi, all_traces = train_multi(rb, data, cfg)
        assert tr_multi.to_dict() == tr_single.to_dict()
        assert len(all_traces) == multi_start
        if multi_start == 1:
            assert tr_single.starts is None
        else:
            assert [s["start"] for s in tr_single.starts] == list(range(multi_start))
        assert [r.weight.hex() for r in t_single.rules] == [r.weight.hex() for r in t_multi.rules]

    def test_three_starts_all_improve(self):
        rb, _, data, _ = generate(SynthSpec(features=6, classes=3, objects=18,
                                            noise=0.3, seed=11))
        cfg = OptimizerConfig(seed=11, max_iters=20, multi_start=3)
        _, best_trace, traces = train_multi(rb, data, cfg)
        assert len(traces) == 3
        assert best_trace.starts is not None and len(best_trace.starts) == 3
        for trace in traces:
            assert trace.final_objective <= trace.initial["objective"]
        best_final = min(t.final_objective for t in traces)
        assert best_trace.final_objective == best_final

    def test_start_perturbations_stay_in_bounds(self):
        rb, data = one_rule_problem(weight=0.9, bounds=(-0.2, 0.95), bound_kind="hard")
        cfg = OptimizerConfig(seed=5, max_iters=2, multi_start=4)
        _, _, traces = train_multi(rb, data, cfg)
        for trace in traces:
            for w in trace.final_weights.values():
                assert -0.2 <= w <= 0.95

    def test_multi_start_deterministic(self):
        rb, _, data, _ = generate(SynthSpec(features=5, classes=2, objects=10, seed=13))
        cfg = OptimizerConfig(seed=13, max_iters=8, multi_start=3)
        _, tr1, _ = train_multi(rb, data, cfg)
        _, tr2, _ = train_multi(rb, data, cfg)
        assert tr1.to_dict() == tr2.to_dict()


class TestFiringsTally:
    """budget.firings is the engine's own count, summed once over every
    state a run evaluated.  On a flat generate() base a rule fires on an
    object exactly when the object's fact for its input is > 0, whatever
    the weights, so the tally has a closed form in F(S), the number of
    firing (rule, object) pairs over the objects S."""

    @staticmethod
    def problem():
        rb, _, objects, _ = generate(SynthSpec(features=6, classes=3, objects=40, seed=3))

        def pairs(objs):
            return sum(o.facts[r.antecedent.prop] > 0 for o in objs for r in rb.rules)

        return rb, objects, pairs

    # step 0.01 accepts all six iterations; step 0.5 pins every weight to a
    # bound in one step, so the second gradient is projected-stationary
    @pytest.mark.parametrize("step_init, expected", [(0.01, 5589), (0.5, 1704)])
    def test_tms_forward_with_holdout(self, step_init, expected):
        rb, objects, pairs = self.problem()
        cfg = OptimizerConfig(seed=3, max_iters=6, holdout_fraction=0.2, step_init=step_init)
        _, trace = train(rb, objects, cfg)
        train_objs, holdout_objs = _split_dataset(objects, cfg)
        b, n = trace.budget, len(train_objs)
        assert b.line_search_evals % n == 0
        # a probe fires the rule on each object where it fires; the restore
        # replays the undo log; each full pass fires F(S)
        assert b.firings == (
            pairs(train_objs) * (1 + b.line_search_evals // n + b.gradients)
            + pairs(holdout_objs) * (1 + len(trace.iterations))
        ) == expected

    @pytest.mark.parametrize("step_init, expected", [(0.01, 54855), (0.5, 18126)])
    def test_naive_forward(self, step_init, expected):
        rb, objects, pairs = self.problem()
        cfg = OptimizerConfig(seed=3, max_iters=6, use_tms=False, step_init=step_init)
        _, trace = train(rb, objects, cfg)
        b, n = trace.budget, len(objects)
        # every probe is a full pass over the training objects
        assert b.firings == pairs(objects) * (
            1 + b.line_search_evals // n + b.gradients * len(rb.rules)
        ) == expected

    def test_gradient_adds_to_a_callers_budget(self):
        rb, objects, pairs = self.problem()
        budget = EvaluationBudget(firings=7, gradients=1)
        gradient(rb, objects, OptimizerConfig(), budget=budget)
        assert budget.firings == 7 + 2 * pairs(objects)  # the base pass and the probes
        assert (budget.gradients, budget.objects, budget.trainable_rules) == (2, 40, 18)


class TestPrefixes:
    """Training states keep prefix accumulators only while a gradient may
    still read them."""

    def test_dropped_after_the_last_gradient(self):
        rb, _, objects, _ = generate(SynthSpec(features=6, classes=3, objects=40, seed=3))
        sess = _Session(rb, objects, OptimizerConfig(max_iters=2, step_init=0.01), margin_metric)
        assert all(st.prefix is not None for st in sess.train.states)
        trace = sess.descend()
        assert trace.status == "max_iters" and len(trace.iterations) == 2
        assert all(st.prefix is None for st in sess.train.states)


class TestWalks:
    """Only a descending session that may run more than one iteration asks
    its states for walks (see engine.ObjectEvaluation); every other caller
    leaves them unset."""

    @staticmethod
    def spied(mp, module):
        """The states module.evaluate_full returns while ``mp`` is active."""
        states = []
        original = module.evaluate_full

        def spy(*args, **kwargs):
            states.append(original(*args, **kwargs))
            return states[-1]

        mp.setattr(module, "evaluate_full", spy)
        return states

    @staticmethod
    def problem():
        rb, _, objects, _ = generate(SynthSpec(features=6, classes=3, objects=40, seed=3))
        return rb, objects

    def test_a_pass_that_is_not_asked_builds_none(self):
        rb, objects = self.problem()
        st = evaluate_full(rb, objects[0])
        evaluate_full(rb, objects[0], into=st)
        assert st.walk is None

    @pytest.mark.parametrize("run", ["gradient", "train_one_iteration"])
    def test_a_gradient_or_one_iteration_builds_none(self, run):
        import cf_forge.optimizer as optimizer

        rb, objects = self.problem()
        with pytest.MonkeyPatch.context() as mp:
            states = self.spied(mp, optimizer)
            if run == "gradient":
                gradient(rb, objects)
            else:
                train(rb, objects, OptimizerConfig(max_iters=1, holdout_fraction=0.2))
        assert states and all(st.walk is None for st in states)

    def test_eval_builds_none(self, tmp_path):
        import cf_forge.cli as cli
        from cf_forge import save_dataset, save_rulebase

        rb, objects = self.problem()
        save_rulebase(rb, tmp_path / "rules.json")
        save_dataset(objects, tmp_path / "data.jsonl")
        with pytest.MonkeyPatch.context() as mp:
            states = self.spied(mp, cli)
            assert cli.main(["eval", "--rules", str(tmp_path / "rules.json"),
                             "--data", str(tmp_path / "data.jsonl")]) == 0
        assert len(states) == len(objects) and all(st.walk is None for st in states)

    def test_every_state_of_a_descent_walks(self):
        import cf_forge.optimizer as optimizer

        rb, objects = self.problem()
        cfg = OptimizerConfig(max_iters=3, holdout_fraction=0.2, step_init=0.01, multi_start=2)
        with pytest.MonkeyPatch.context() as mp:
            states = self.spied(mp, optimizer)
            train(rb, objects, cfg)
        by_object = {o.id: o for o in objects}
        # two starts, each with its training and holdout states
        assert len({id(st) for st in states}) == 2 * len(objects)
        for st in states:
            obj, steps = st.walk
            assert obj is by_object[st.object_id] and st.threshold == cfg.threshold and steps

    @pytest.mark.parametrize("run", ["gradient", "train_one_iteration", "train_three_iterations"])
    def test_only_a_descent_probes_through_firing_lists(self, run):
        # a descent's flat probes take each rule's firing list, compiled from
        # the walks, and give what the scan gives; every other run scans
        import cf_forge.optimizer as optimizer

        rb, objects = self.problem()
        lists = []
        original = optimizer.probe_consequent

        def recording(states, rb, rule_id, w, fires=None):
            result = original(states, rb, rule_id, w, fires)
            if fires is not None:
                scanned = original(states, rb, rule_id, w)
                assert (result[1], [cf.hex() for cf in result[2]]) == \
                    (scanned[1], [cf.hex() for cf in scanned[2]])
            lists.append(fires)
            return result

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizer, "probe_consequent", recording)
            if run == "gradient":
                gradient(rb, objects)
            else:
                max_iters = 1 if run == "train_one_iteration" else 3
                train(rb, objects, OptimizerConfig(max_iters=max_iters, step_init=0.01))
        assert len(lists) == len(rb.rules) * (3 if run == "train_three_iterations" else 1)
        if run == "train_three_iterations":
            assert all(fires is not None for fires in lists)
            assert any(0 < len(fires) < len(objects) for fires in lists)
        else:
            assert all(fires is None for fires in lists)

    def test_the_lists_go_with_the_last_gradient(self):
        rb, objects = self.problem()
        sess = _Session(rb, objects, OptimizerConfig(max_iters=2, step_init=0.01), margin_metric)
        held = []  # the rules with a list, as each gradient starts
        take_gradient = sess.gradient

        def recording(*args):
            held.append(len(sess.fires))
            return take_gradient(*args)

        sess.gradient = recording
        assert sess.fires == {}
        trace = sess.descend()
        assert trace.status == "max_iters" and held == [len(rb.rules)] * 2
        assert sess.fires == {}


class TestBench:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="'fast'"):
            run_gradient_bench("flat", 8, "fast")

    def test_flat_counts(self):
        tms = run_gradient_bench("flat", 32, "tms", seed=0)
        naive = run_gradient_bench("flat", 32, "naive", seed=0)
        assert tms["gradient_firings"] == 32  # the perturb; the restore replays its undo log
        assert naive["gradient_firings"] == 32 * 32  # full pass per probe

    def test_chain_closure_costs(self):
        tms = run_gradient_bench("chain", 10, "tms", seed=0)
        # probing rule i re-fires its suffix of the chain once; the restore fires nothing
        assert tms["gradient_firings"] == sum(range(1, 11))

    def test_tree_counts(self):
        tms = run_gradient_bench("tree", 15, "tms", seed=0)
        # heap-shaped closure sizes: sum over depth d of 2^d * (d + 1)
        expected = sum(2**d * (d + 1) for d in range(4))
        assert tms["gradient_firings"] == expected
