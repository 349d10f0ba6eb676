"""Engine: full-pass evaluation, incremental re-evaluation, classification.

The incremental path's oracle throughout is a fresh full evaluation under
the perturbed weight.
"""

import copy
import random
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from cf_forge import engine
from cf_forge import (
    And,
    FiringPolicy,
    InconsistentState,
    NoOutputClasses,
    Proposition,
    Ref,
    Rule,
    RuleBase,
    TrainingObject,
    UnboundProposition,
    UnknownRule,
    classify,
    combine_parallel,
    eval_expr,
    evaluate_full,
    perturb_weight,
    restore_weight,
)
from cf_forge.algebra import referenced_props
from cf_forge.model import DERIVED, INPUT
from helpers import random_object, random_rulebase, reference_eval, reference_firing


def single_rule_base(weight=0.8):
    props = [
        Proposition("f", INPUT),
        Proposition("c", DERIVED, output_class=True),
        Proposition("d", DERIVED, output_class=True),
    ]
    return RuleBase(props, [Rule(id="r1", antecedent=Ref("f"), consequent="c", weight=weight)])


def chain3_base():
    props = [
        Proposition("f", INPUT),
        Proposition("p1", DERIVED),
        Proposition("p2", DERIVED),
        Proposition("c", DERIVED, output_class=True),
    ]
    rules = [
        Rule(id="r1", antecedent=Ref("f"), consequent="p1", weight=0.9),
        Rule(id="r2", antecedent=Ref("p1"), consequent="p2", weight=0.8),
        Rule(id="r3", antecedent=Ref("p2"), consequent="c", weight=0.7),
    ]
    return RuleBase(props, rules)


def evaluate(rb, obj, policy=engine.DEFAULT_POLICY, prefix=False, walk=False):
    """A full pass into a fresh state; with ``prefix`` the state keeps
    prefix accumulators, and with ``walk`` a walk, as a descending
    session's training states do."""
    state = engine.ObjectEvaluation(obj.id)
    if prefix:
        state.prefix = array("d")
    if walk:
        state.walk = ()
    return evaluate_full(rb, obj, policy, into=state)


def full_oracle(rb, obj, rule_id, new_weight, policy=engine.DEFAULT_POLICY):
    """Independent check: full pass with the weight actually swapped in."""
    rule = rb.rule(rule_id)
    old = rule.weight
    rule.weight = new_weight
    try:
        return evaluate_full(rb, obj, policy)
    finally:
        rule.weight = old


class TestEvaluateFull:
    def test_single_product(self):
        rb = single_rule_base(weight=0.8)
        st = evaluate_full(rb, TrainingObject(id="o", facts={"f": 0.5}, label="c"))
        assert st.prop_cf["c"] == 0.8 * 0.5
        assert st.prop_cf["d"] == 0.0
        assert st.counters.rules_fired == 1

    def test_two_contributions_pool(self):
        props = [
            Proposition("f", INPUT),
            Proposition("g", INPUT),
            Proposition("c", DERIVED, output_class=True),
        ]
        rules = [
            Rule(id="r1", antecedent=Ref("f"), consequent="c", weight=0.4),
            Rule(id="r2", antecedent=Ref("g"), consequent="c", weight=0.5),
        ]
        rb = RuleBase(props, rules)
        st = evaluate_full(rb, TrainingObject(id="o", facts={"f": 1.0, "g": 1.0}, label="c"))
        assert st.prop_cf["c"] == combine_parallel(0.4, 0.5)

    def test_missing_fact_defaults_to_zero(self):
        rb = single_rule_base()
        st = evaluate_full(rb, TrainingObject(id="o", facts={}, label="c"))
        assert st.prop_cf["f"] == 0.0
        assert st.prop_cf["c"] == 0.0
        assert st.counters.rules_fired == 0  # antecedent 0 is not above threshold

    def test_negative_antecedent_does_not_fire(self):
        rb = single_rule_base()
        st = evaluate_full(rb, TrainingObject(id="o", facts={"f": -0.5}, label="c"))
        assert st.prop_cf["c"] == 0.0

    def test_threshold_gates_firing(self):
        rb = single_rule_base()
        obj = TrainingObject(id="o", facts={"f": 0.25}, label="c")
        st = evaluate_full(rb, obj, FiringPolicy(threshold=0.3))
        assert st.prop_cf["c"] == 0.0
        st = evaluate_full(rb, obj, FiringPolicy(threshold=0.2))
        assert st.prop_cf["c"] == pytest.approx(0.2)

    def test_zero_weight_equals_deleted_rule(self):
        rng = random.Random(5)
        for _ in range(20):
            rb = random_rulebase(rng, max_rules=30)
            obj = random_object(rng, rb)
            victim = rng.choice(rb.rules)
            old = victim.weight
            victim.weight = 0.0
            with_zero = evaluate_full(rb, obj)
            victim.weight = old
            removed = RuleBase(
                list(rb.propositions.values()),
                [r for r in rb.rules if r.id != victim.id],
            )
            without = evaluate_full(removed, obj)
            assert with_zero.prop_cf == without.prop_cf  # exact

    def test_idempotent(self):
        rng = random.Random(9)
        rb = random_rulebase(rng, max_rules=40)
        obj = random_object(rng, rb)
        first = evaluate_full(rb, obj)
        second = evaluate_full(rb, obj)
        assert first.prop_cf == second.prop_cf
        assert first.contributions == second.contributions

    def test_into_reuse_accumulates_counters(self):
        rb = single_rule_base()
        obj = TrainingObject(id="o", facts={"f": 0.5}, label="c")
        st = evaluate_full(rb, obj)
        evaluate_full(rb, obj, into=st)
        assert st.counters.rules_fired == 2

    def test_into_rejects_wrong_object(self):
        rb = single_rule_base()
        st = evaluate_full(rb, TrainingObject(id="o1", facts={}, label="c"))
        with pytest.raises(InconsistentState):
            evaluate_full(rb, TrainingObject(id="o2", facts={}, label="c"), into=st)


class TestPerturb:
    def test_flat_fires_exactly_one(self):
        rb = single_rule_base(weight=0.8)
        obj = TrainingObject(id="o", facts={"f": 0.5}, label="c")
        st = evaluate_full(rb, obj)
        fired = perturb_weight(st, rb, "r1", 0.3)
        assert fired == 1
        assert st.prop_cf["c"] == 0.3 * 0.5

    def test_chain_matches_full_pass(self):
        rb = chain3_base()
        obj = TrainingObject(id="o", facts={"f": 0.6}, label="c")
        st = evaluate_full(rb, obj)
        fired = perturb_weight(st, rb, "r1", 0.2)
        assert fired <= 3
        oracle = full_oracle(rb, obj, "r1", 0.2)
        for p in st.prop_cf:
            assert st.prop_cf[p] == pytest.approx(oracle.prop_cf[p], abs=1e-12)

    def test_same_weight_is_noop(self):
        rb = chain3_base()
        obj = TrainingObject(id="o", facts={"f": 0.6}, label="c")
        st = evaluate_full(rb, obj)
        before = dict(st.prop_cf)
        fired = perturb_weight(st, rb, "r1", rb.rule("r1").weight)
        assert fired == 1  # p1 comes out bitwise unchanged: r2 and r3 stay
        assert st.prop_cf == before
        assert len(st.undo[3]) == 1

    def test_an_unchanged_consequent_stops_the_closure(self):
        # r0 holds p1 at +1, which absorbs r1's contribution at any weight
        rb = chain3_base()
        props = list(rb.propositions.values()) + [Proposition("g", INPUT)]
        rules = [Rule(id="r0", antecedent=Ref("g"), consequent="p1", weight=1.0)] + rb.rules
        rb = RuleBase(props, rules)
        obj = TrainingObject(id="o", facts={"f": 0.6, "g": 1.0}, label="c")
        for prefix in (False, True):
            st = evaluate(rb, obj, prefix=prefix)
            before = bit_snapshot(st, rb)
            with pytest.MonkeyPatch.context() as mp:
                calls = count_calls(mp, "combine_parallel")
                assert perturb_weight(st, rb, "r1", 0.2) == 1
            assert calls[0] == (1 if prefix else 2)  # the refold of p1 alone
            assert bit_snapshot(st, rb)[0] == before[0]  # every CF, p1 included
            assert bit_snapshot(st, rb) == bit_snapshot(full_oracle(rb, obj, "r1", 0.2), rb)

    def test_perturb_then_restore_is_identity(self):
        rng = random.Random(21)
        for _ in range(30):
            rb = random_rulebase(rng, max_rules=40)
            obj = random_object(rng, rb)
            st = evaluate_full(rb, obj)
            original = dict(st.prop_cf)
            rule = rng.choice(rb.rules)
            perturb_weight(st, rb, rule.id, rng.uniform(-1, 1))
            restore_weight(st, rb, rule.id, rule.weight)
            assert st.prop_cf == original  # bit-identical

    def test_restore_without_perturb_is_noop(self):
        rb = chain3_base()
        obj = TrainingObject(id="o", facts={"f": 0.6}, label="c")
        st = evaluate_full(rb, obj)
        before = dict(st.prop_cf)
        restore_weight(st, rb, "r1", rb.rule("r1").weight)
        assert st.prop_cf == before

    def test_randomized_sequences_match_full_oracle(self):
        rng = random.Random(77)
        for _ in range(25):
            rb = random_rulebase(rng, max_rules=50)
            obj = random_object(rng, rb)
            states = [evaluate(rb, obj, prefix=prefix) for prefix in (False, True)]
            for _ in range(10):
                rule = rng.choice(rb.rules)
                w_new = rng.uniform(-1, 1)
                for state in states:
                    perturb_weight(state, rb, rule.id, w_new)
                rule.weight = w_new  # persist so the sequence compounds
                oracle = evaluate_full(rb, obj)
                for state in states:
                    for p in state.prop_cf:
                        assert state.prop_cf[p] == pytest.approx(oracle.prop_cf[p], abs=1e-12)

    def test_fired_bounded_by_closure_with_equality_when_all_propagate(self):
        from cf_forge import generate_shaped

        rb, objs = generate_shaped(15, "tree", seed=2)
        st = evaluate_full(rb, objs[0])
        for r in rb.rules:
            fired = perturb_weight(st, rb, r.id, min(r.weight + 0.05, 1.0))
            assert fired == len(rb.downstream_closure(r.id))
            restore_weight(st, rb, r.id, r.weight)

    def test_full_pass_clears_the_undo_log(self):
        rb = chain3_base()
        obj = TrainingObject(id="o", facts={"f": 0.6}, label="c")
        st = evaluate_full(rb, obj)
        perturb_weight(st, rb, "r1", 0.2)
        assert st.undo is not None
        rb.rule("r1").weight = 0.2
        evaluate_full(rb, obj, into=st)
        assert st.undo is None
        # no log to replay: the restore re-fires the chain
        assert restore_weight(st, rb, "r1", 0.9) == 3
        rb.rule("r1").weight = 0.9
        assert st.prop_cf == evaluate_full(rb, obj).prop_cf

    def test_restore_replays_only_its_own_rule_and_weight(self):
        rb = chain3_base()
        obj = TrainingObject(id="o", facts={"f": 0.6}, label="c")
        st = evaluate_full(rb, obj)
        perturb_weight(st, rb, "r1", 0.2)
        assert restore_weight(st, rb, "r1", 0.9) == 0  # the log's rule and weight
        perturb_weight(st, rb, "r1", 0.2)
        # another rule's log: r2 re-fires at its own weight, p2 is unchanged
        assert restore_weight(st, rb, "r2", 0.8) == 1
        assert restore_weight(st, rb, "r1", 0.5) == 3  # another weight
        rb.rule("r1").weight = 0.5
        assert st.prop_cf == evaluate_full(rb, obj).prop_cf

    def test_non_firing_rule_perturb_changes_nothing(self):
        rb = single_rule_base()
        obj = TrainingObject(id="o", facts={"f": -0.4}, label="c")
        st = evaluate_full(rb, obj)
        fired = perturb_weight(st, rb, "r1", 0.1)
        assert fired == 0
        assert st.prop_cf["c"] == 0.0

    def test_firing_status_flip_matches_oracle(self):
        # downstream antecedent crosses the threshold because of the perturb
        props = [
            Proposition("f", INPUT),
            Proposition("p", DERIVED),
            Proposition("c", DERIVED, output_class=True),
        ]
        rules = [
            Rule(id="r1", antecedent=Ref("f"), consequent="p", weight=-0.5),
            Rule(id="r2", antecedent=Ref("p"), consequent="c", weight=0.9),
        ]
        rb = RuleBase(props, rules)
        obj = TrainingObject(id="o", facts={"f": 0.8}, label="c")
        st = evaluate_full(rb, obj)
        assert st.prop_cf["c"] == 0.0  # r2 silent: its antecedent is negative
        perturb_weight(st, rb, "r1", 0.5)
        oracle = full_oracle(rb, obj, "r1", 0.5)
        assert st.prop_cf == oracle.prop_cf
        restore_weight(st, rb, "r1", -0.5)
        oracle_back = evaluate_full(rb, obj)
        assert st.prop_cf == oracle_back.prop_cf

    def test_tampered_state_raises(self):
        rb = chain3_base()
        obj = TrainingObject(id="o", facts={"f": 0.6}, label="c")
        with pytest.raises(InconsistentState):  # never evaluated
            perturb_weight(engine.ObjectEvaluation("o"), rb, "r1", 0.2)
        other = evaluate_full(single_rule_base(), obj)  # one rule, not three
        with pytest.raises(InconsistentState):
            perturb_weight(other, rb, "r1", 0.2)
        st = evaluate_full(rb, obj)
        st.contributions[0] = None  # r1 fires, but its contribution is gone
        with pytest.raises(InconsistentState):
            perturb_weight(st, rb, "r1", 0.2)

    @pytest.mark.parametrize("entry", ["perturb_weight", "restore_weight", "probe_consequent"])
    def test_a_state_of_another_base_with_as_many_rules_raises(self, entry):
        # both bases hold one rule r1 into c, one reading f, the other g, as
        # a bare reference or inside a compound antecedent: the slot counts
        # agree, and the state holds no CF for g
        def base(leaf, compound):
            props = [Proposition(p, INPUT) for p in (leaf, "e")]
            props.append(Proposition("c", DERIVED, output_class=True))
            ante = And((Ref(leaf), Ref("e"))) if compound else Ref(leaf)
            return RuleBase(props, [Rule(id="r1", antecedent=ante, consequent="c", weight=0.8)])

        obj = TrainingObject(id="o", facts={"f": 0.6, "e": 0.7}, label="c")
        for compound in (False, True):
            state = evaluate_full(base("f", compound), obj)
            rb = base("g", compound)
            with pytest.raises(InconsistentState, match="not evaluated under this base"):
                if entry == "probe_consequent":
                    engine.probe_consequent([state], rb, "r1", 0.5)
                else:
                    getattr(engine, entry)(state, rb, "r1", 0.5)

    @staticmethod
    def bases_a_and_b():
        # A = {r1: f -> c, r2: g -> c}, B = {r1: f -> c, r2: g -> d}: the
        # same propositions, rule ids and slot count, and r2 fires in both
        def base(cons):
            props = [Proposition("f", INPUT), Proposition("g", INPUT)]
            props += [Proposition(p, DERIVED, output_class=True) for p in ("c", "d")]
            rules = [Rule(id="r1", antecedent=Ref("f"), consequent="c", weight=0.5),
                     Rule(id="r2", antecedent=Ref("g"), consequent=cons, weight=0.5)]
            return RuleBase(props, rules)

        obj = TrainingObject(id="o", facts={"f": 0.6, "g": 0.4}, label="c")
        return base("c"), base("d"), obj

    @pytest.mark.parametrize("entry", ["perturb_weight", "restore_weight", "probe_consequent"])
    def test_a_state_of_a_base_that_reads_the_same_propositions_is_refused(self, entry):
        # restore_weight has no pending log here, so it re-fires as a perturb
        a, b, obj = self.bases_a_and_b()
        state = evaluate_full(a, obj)
        cfs, contributions = dict(state.prop_cf), list(state.contributions)
        with pytest.raises(InconsistentState, match="not evaluated under this base"):
            if entry == "probe_consequent":
                engine.probe_consequent([state], b, "r2", 0.1)
            else:
                getattr(engine, entry)(state, b, "r2", 0.1)
        assert state.prop_cf == cfs and state.contributions == contributions

    def test_a_refused_probe_counts_no_firing(self):
        # each refused state comes after one that passes every check
        a, b, obj = self.bases_a_and_b()
        good, tampered = evaluate_full(b, obj), evaluate_full(b, obj)
        tampered.prop_cf["g"] = -0.4  # r2 is silent, with a contribution stored
        for bad in (evaluate_full(a, obj), tampered):
            with pytest.raises(InconsistentState):
                engine.probe_consequent([good, bad], b, "r2", 0.1)
        assert good.counters.rules_fired == 2  # its full pass's firings alone

    def test_a_deep_copy_of_a_state_is_accepted_under_its_base(self):
        a, _, obj = self.bases_a_and_b()
        state = evaluate_full(a, obj)
        twin = copy.deepcopy(state)
        assert engine.probe_consequent([twin], a, "r2", 0.1) == engine.probe_consequent([state], a, "r2", 0.1)
        assert perturb_weight(twin, a, "r2", 0.1) == perturb_weight(state, a, "r2", 0.1) == 1
        assert twin.prop_cf == state.prop_cf == full_oracle(a, obj, "r2", 0.1).prop_cf

    def test_a_state_is_refused_under_a_copy_of_its_base(self):
        a, _, obj = self.bases_a_and_b()
        state = evaluate_full(a, obj)
        dup = a.copy()
        assert dup == a
        with pytest.raises(InconsistentState):
            perturb_weight(state, dup, "r2", 0.1)
        with pytest.raises(InconsistentState):
            engine.probe_consequent([state], dup, "r2", 0.1)
        evaluate_full(dup, obj, into=state)  # a full pass under the copy binds the state to it
        assert perturb_weight(state, dup, "r2", 0.1) == 1

    def test_probes_find_the_states_a_rule_fires_in(self):
        rb = single_rule_base()
        facts = [0.5, -0.4, 0.0, 0.9]
        states = [
            evaluate_full(rb, TrainingObject(id=f"o{i}", facts={"f": f}, label="c"))
            for i, f in enumerate(facts)
        ]
        assert engine.probe_consequent(states, rb, "r1", 0.5)[1] == [0, 3]
        assert engine.probe_consequent(states[::3], rb, "r1", 0.5)[1] == [0, 1]
        # a perturb re-fires nothing exactly where the rule is silent
        assert [perturb_weight(s, rb, "r1", 0.5) for s in states] == [1, 0, 0, 1]
        for s in states:
            restore_weight(s, rb, "r1", 0.8)
        # silent, yet a contribution is stored: both probes catch it
        states[1].contributions[0] = 0.1
        with pytest.raises(InconsistentState, match="firing status"):
            engine.probe_consequent(states, rb, "r1", 0.5)
        with pytest.raises(InconsistentState, match="firing status"):
            perturb_weight(states[1], rb, "r1", 0.2)
        for probe in (engine.probe_consequent, lambda s, *args: perturb_weight(s[0], *args)):
            with pytest.raises(InconsistentState):  # never evaluated
                probe([engine.ObjectEvaluation("o")], rb, "r1", 0.5)
            with pytest.raises(UnknownRule):
                probe(states, rb, "ghost", 0.5)

    def test_probe_consequent_checks_like_perturb(self):
        rb = single_rule_base()
        facts = [0.5, -0.4, 0.9]
        states = [
            evaluate_full(rb, TrainingObject(id=f"o{i}", facts={"f": f}, label="c"))
            for i, f in enumerate(facts)
        ]
        assert engine.probe_consequent(states, rb, "r1", 0.5) == ("c", [0, 2], [0.25, 0.45])
        other = evaluate_full(chain3_base(), TrainingObject(id="o", facts={"f": 0.6}, label="c"))
        with pytest.raises(InconsistentState):  # three rule slots, not one
            engine.probe_consequent([other], rb, "r1", 0.5)
        with pytest.raises(InconsistentState):  # never evaluated
            engine.probe_consequent([engine.ObjectEvaluation("o")], rb, "r1", 0.5)
        # silent with a contribution: the stored status says it fires, and
        # the probe checks every state the stored status says fires
        states[1].contributions[0] = 0.1
        with pytest.raises(InconsistentState, match="firing status"):
            engine.probe_consequent(states, rb, "r1", 0.5)
        states[1].contributions[0] = None
        # fires with no contribution: the stored status says silent, so the
        # probe skips the state, and the perturb that status asks for catches it
        states[0].contributions[0] = None
        assert engine.probe_consequent(states, rb, "r1", 0.5) == ("c", [2], [0.45])
        with pytest.raises(InconsistentState, match="firing status"):
            perturb_weight(states[0], rb, "r1", 0.5)
        # r1 and r2 have dependents: their probes re-fire a closure
        chain = chain3_base()
        for rule_id in ("r1", "r2"):
            with pytest.raises(ValueError, match="has dependents"):
                engine.probe_consequent([], chain, rule_id, 0.5)
        with pytest.raises(UnknownRule):
            engine.probe_consequent([], rb, "ghost", 0.5)
        assert engine.probe_consequent([], chain, "r3", 0.5) == ("c", [], [])

    # full: re-evaluate one object into its state, which clears its log;
    # perturb: displace a rule on every state and keep the weight;
    # restore: return the last displaced rule to its weight before it
    actions = st.lists(
        st.tuples(
            st.sampled_from(["full", "perturb", "restore"]),
            st.integers(min_value=0),  # object or rule index, modulo the count
            st.floats(min_value=-1.0, max_value=1.0),  # weight
        ),
        min_size=1,
        max_size=12,
    )

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        threshold=st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True),
        ),
        prefix=st.booleans(),
        actions=actions,
    )
    def test_firing_status_matches_the_independent_evaluator(self, seed, threshold, prefix, actions):
        """The base always holds the weights every state reflects, so after
        every step each rule's firing states must be the objects on which
        reference_eval's CFs lift its antecedent above the threshold: the
        states a perturb of its weight re-fires, and for a rule whose
        closure is itself the positions probe_consequent returns.  The
        checks probe copies, so the sequence's undo logs stay its own."""
        rng = random.Random(seed)
        rb = random_rulebase(rng, max_rules=40)
        objs = [random_object(rng, rb, f"o{i}") for i in range(rng.randint(2, 5))]
        policy = FiringPolicy(threshold=threshold)
        states = [evaluate(rb, obj, policy, prefix) for obj in objs]
        last = None  # (rule, weight before its last perturb)
        for action, pick, w in actions:
            if action == "full":
                k = pick % len(objs)
                evaluate_full(rb, objs[k], policy, into=states[k])
            elif action == "perturb":
                rule = rb.rules[pick % len(rb.rules)]
                last = (rule, rule.weight)
                for state in states:
                    perturb_weight(state, rb, rule.id, w)
                rule.weight = w
            elif last is not None:
                rule, old = last
                for state in states:
                    restore_weight(state, rb, rule.id, old)
                rule.weight = old
                last = None
            fires = [reference_firing(rb, obj, threshold) for obj in objs]
            copies = copy.deepcopy(states)
            for r in rb.rules:
                expected = [i for i, f in enumerate(fires) if r.id in f]
                refired = [i for i, c in enumerate(copies) if perturb_weight(c, rb, r.id, w)]
                assert refired == expected
                for i in refired:
                    restore_weight(copies[i], rb, r.id, r.weight)
                if len(rb.closure_plan(r.id)) == 1:
                    assert engine.probe_consequent(copies, rb, r.id, w)[1] == expected

    def test_refold_check(self):
        rb = chain3_base()
        obj = TrainingObject(id="o", facts={"f": 0.6}, label="c")
        st = evaluate_full(rb, obj)
        perturb_weight(st, rb, "r2", 0.3)
        rb.rule("r2").weight = 0.3
        assert bit_snapshot(st, rb) == bit_snapshot(evaluate_full(rb, obj), rb)


def snapshot(state, rb):
    """The state's CFs, and its firing rules' contributions by consequent
    and rule id, read through the firing plan's slots."""
    assert len(state.contributions) == len(rb.rules)
    buckets = {}
    for rid, (_, _, cons, _, slot, _, _, _) in rb.firing_plan().refires.items():
        bucket = buckets.setdefault(cons, {})
        if state.contributions[slot] is not None:
            bucket[rid] = state.contributions[slot]
    return dict(state.prop_cf), buckets


class TestExactness:
    """The incremental path against fresh full passes under the same
    firing threshold, compared with == (never approx) over random layered
    DAGs."""

    steps = st.lists(
        st.tuples(
            st.integers(min_value=0),  # rule index, modulo the rule count
            st.floats(min_value=-1.0, max_value=1.0),  # w
            st.booleans(),  # nudge: probe at weight + w x 1e-14 instead of at w
            st.booleans(),  # keep the probe weight instead of restoring
        ),
        min_size=1,
        max_size=12,
    )

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        threshold=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.99)),
        steps=steps,
    )
    def test_perturb_sequences_are_bit_exact(self, seed, threshold, steps):
        rng = random.Random(seed)
        rb = random_rulebase(rng, max_rules=40)
        obj = random_object(rng, rb)
        policy = FiringPolicy(threshold=threshold)
        # the same steps on a plain state and on one with prefix accumulators
        states = [evaluate(rb, obj, policy, prefix) for prefix in (False, True)]
        for pick, w, nudge, keep in steps:
            rule = rb.rules[pick % len(rb.rules)]
            # nudges move propositions by less than 1e-15, where an
            # inexact propagation stop would leave stale CFs downstream
            w_new = min(max(rule.weight + w * 1e-14, -1.0), 1.0) if nudge else w
            oracle = snapshot(full_oracle(rb, obj, rule.id, w_new, policy), rb)
            for state in states:
                before = snapshot(state, rb)
                perturb_weight(state, rb, rule.id, w_new)
                assert snapshot(state, rb) == oracle
                if not keep:
                    restore_weight(state, rb, rule.id, rule.weight)
                    assert snapshot(state, rb) == before
            if keep:
                rule.weight = w_new
        for state in states:
            assert snapshot(state, rb) == snapshot(evaluate_full(rb, obj, policy), rb)

    def test_perturb_keeps_the_threshold_of_the_full_pass(self):
        # under 0.5 only r1 fires; read under 0.0, r2 and r4 would fire too
        props = [
            Proposition("f", INPUT),
            Proposition("g", INPUT),
            Proposition("p", DERIVED),
            Proposition("c", DERIVED, output_class=True),
        ]
        rules = [
            Rule(id="r1", antecedent=Ref("f"), consequent="p", weight=0.5),
            Rule(id="r2", antecedent=Ref("p"), consequent="c", weight=0.9),
            Rule(id="r4", antecedent=Ref("g"), consequent="c", weight=0.6),
        ]
        rb = RuleBase(props, rules)
        obj = TrainingObject(id="o", facts={"f": 0.8, "g": 0.3}, label="c")
        policy = FiringPolicy(threshold=0.5)
        state = evaluate_full(rb, obj, policy)
        before = bit_snapshot(state, rb)
        perturb_weight(state, rb, "r1", 0.55)
        oracle = full_oracle(rb, obj, "r1", 0.55, policy)
        assert bit_snapshot(state, rb) == bit_snapshot(oracle, rb)
        assert state.prop_cf["c"] == 0.0
        restore_weight(state, rb, "r1", 0.5)
        assert bit_snapshot(state, rb) == before

    # perturb: displace a rule (the same one again if ``same``) and keep it;
    # undo: restore the last displaced rule to its weight before the perturb;
    # retarget: restore the last displaced rule to another weight;
    # unlogged: restore a rule to its current weight, whatever log is pending;
    # full: re-evaluate into the same state, which clears the log
    actions = st.lists(
        st.tuples(
            st.sampled_from(["perturb", "undo", "retarget", "unlogged", "full"]),
            st.integers(min_value=0),  # rule index, modulo the rule count
            st.floats(min_value=-1.0, max_value=1.0),  # weight
            st.booleans(),  # same: perturb the last displaced rule again
        ),
        min_size=1,
        max_size=16,
    )

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), actions=actions)
    # the log saved +0.0 and the restore asks for -0.0: equal as floats, but
    # the contribution's sign differs, so the restore must re-fire
    @example(seed=0, actions=[("perturb", 10464824660011957030024642553, 0.0, False),
                              ("perturb", 0, 0.0, True), ("retarget", 0, -0.0, False)])
    def test_undo_log_sequences_are_bit_exact(self, seed, actions):
        """The base always holds the weights the state reflects, so after
        every step the state must equal a fresh full pass bit for bit.  A
        restore to the weight a pending log saved, bit for bit, must replay
        it."""
        rng = random.Random(seed)
        rb = random_rulebase(rng, max_rules=40)
        obj = random_object(rng, rb)
        state = evaluate_full(rb, obj)
        last = None  # (rule, weight before its last perturb)
        pending = None  # (rule id, weight.hex()) a pending undo log restores
        for action, pick, w, same in actions:
            rule = rb.rules[pick % len(rb.rules)]
            if action == "perturb":
                if same and last is not None:
                    rule = last[0]
                last = (rule, rule.weight)
                pending = (rule.id, rule.weight.hex())
                perturb_weight(state, rb, rule.id, w)
                rule.weight = w
            elif action == "full":
                evaluate_full(rb, obj, into=state)
                pending = None
            else:
                if action == "unlogged":
                    target = rule.weight
                elif last is None:
                    continue
                else:
                    rule = last[0]
                    target = last[1] if action == "undo" else w
                with pytest.MonkeyPatch.context() as mp:
                    calls = count_calls(mp, "combine_parallel")
                    fired = restore_weight(state, rb, rule.id, target)
                if pending == (rule.id, target.hex()):
                    assert fired == 0 and calls[0] == 0
                    pending = None
                elif fired:  # the re-fire left a log of its own
                    pending = (rule.id, rule.weight.hex())
                else:  # another weight gave the saved contribution, or the rule does not fire
                    pending = None
                rule.weight = target
            assert bit_snapshot(state, rb) == bit_snapshot(evaluate_full(rb, obj), rb)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        threshold=st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True),
        ),
        pick=st.integers(min_value=0),
        w=st.floats(min_value=-1.0, max_value=1.0),
        kept=st.booleans(),
    )
    def test_probe_consequent_reads_what_perturb_writes(self, seed, threshold, pick, w, kept):
        """For a rule whose closure is itself, the read-only probe finds
        the states a perturb re-fires (it re-fires nothing in the others),
        returns the consequent CF perturb_weight writes in each, and leaves
        every state as it was but for one firing per state the rule fires
        in.  States keep valid, emptied or no prefix accumulators; with
        ``kept`` each holds a kept perturb's pending log first, which makes
        its prefixes stale."""
        rng = random.Random(seed)
        rb = random_rulebase(rng, max_rules=40)
        policy = FiringPolicy(threshold=threshold)
        states, objs = [], [random_object(rng, rb, f"o{i}") for i in range(rng.randint(2, 5))]
        for obj in objs:
            mode = rng.choice(["valid", "emptied", "none"])
            state = evaluate(rb, obj, policy, prefix=mode != "none")
            if mode == "emptied":
                del state.prefix[:]
            states.append(state)
        if kept:
            other = rng.choice(rb.rules)
            w_kept = rng.uniform(-1.0, 1.0)
            for state in states:
                perturb_weight(state, rb, other.id, w_kept)
            other.weight = w_kept
        # every rule of the deepest level present has a closure of one rule
        flat = [r for r in rb.rules if len(rb.closure_plan(r.id)) == 1]
        assert flat
        rule = flat[pick % len(flat)]

        def raw(state):
            hx = lambda v: None if v is None else v.hex()
            undo = state.undo
            return (
                {k: v.hex() for k, v in state.prop_cf.items()},
                [hx(c) for c in state.contributions],
                None if state.prefix is None else [v.hex() for v in state.prefix],
                None if undo is None else (undo[0], hx(undo[1]), hx(undo[2]),
                                           [(s, hx(c), p, hx(cf)) for s, c, p, cf in undo[3]]),
            )

        before = [raw(state) for state in states]
        fired = [state.counters.rules_fired for state in states]
        cons, positions, cfs = engine.probe_consequent(states, rb, rule.id, w)
        assert cons == rule.consequent and len(cfs) == len(positions)
        assert [raw(state) for state in states] == before
        read = dict(zip(positions, cfs))
        for i, (state, n) in enumerate(zip(states, fired)):
            probed = state.counters.rules_fired - n
            cf = read.get(i, state.prop_cf[cons])  # a silent rule changes nothing
            assert perturb_weight(state, rb, rule.id, w) == probed == (i in read)
            assert state.prop_cf[cons].hex() == cf.hex()

    def test_restore_keeps_the_sign_of_a_zero_contribution(self):
        rb = single_rule_base(weight=0.0)
        obj = TrainingObject(id="o", facts={"f": 0.5}, label="c")
        # a zero weight, where training from the zero base starts: a restore
        # to the zero the log saved replays it, with no combine
        for zero in (0.0, -0.0):
            rb.rule("r1").weight = zero
            state = evaluate(rb, obj, prefix=True)
            before = bit_snapshot(state, rb)
            perturb_weight(state, rb, "r1", 0.4)
            with pytest.MonkeyPatch.context() as mp:
                calls = count_calls(mp, "combine_parallel")
                assert restore_weight(state, rb, "r1", zero) == 0
            assert calls[0] == 0 and state.undo is None
            assert bit_snapshot(state, rb) == before
        # -0.0 == 0.0, so a log that saved 0.0 * a must not stand in for -0.0 * a
        rb.rule("r1").weight = 0.0
        state = evaluate_full(rb, obj)
        perturb_weight(state, rb, "r1", 0.4)
        assert restore_weight(state, rb, "r1", -0.0) == 1
        rb.rule("r1").weight = -0.0
        assert bit_snapshot(state, rb) == bit_snapshot(evaluate_full(rb, obj), rb)
        assert str(snapshot(state, rb)[1]["c"]["r1"]) == "-0.0"

    def probe_and_restore_are_bit_exact(self, rb, obj, rule_id, w_probe):
        state = evaluate_full(rb, obj)
        before = bit_snapshot(state, rb)
        perturb_weight(state, rb, rule_id, w_probe)
        assert bit_snapshot(state, rb) == bit_snapshot(full_oracle(rb, obj, rule_id, w_probe), rb)
        restore_weight(state, rb, rule_id, rb.rule(rule_id).weight)
        assert bit_snapshot(state, rb) == before

    def test_unchecked_rule_into_an_input_overrides_its_fact(self):
        # both paths fold f from 0.0, so the fact 0.5 never enters its CF
        props = [
            Proposition("f", INPUT),
            Proposition("g", INPUT),
            Proposition("c", DERIVED, output_class=True),
        ]
        rules = [
            Rule(id="r1", antecedent=Ref("g"), consequent="f", weight=0.5),
            Rule(id="r2", antecedent=Ref("f"), consequent="c", weight=0.5),
        ]
        rb = RuleBase(props, rules)
        obj = TrainingObject(id="o", facts={"f": 0.5, "g": 1.0}, label="c")
        assert evaluate_full(rb, obj).prop_cf["f"] == 0.5
        self.probe_and_restore_are_bit_exact(rb, obj, "r1", 0.6)
        assert full_oracle(rb, obj, "r1", 0.6).prop_cf["f"] == 0.6

    def test_undeclared_consequent_whose_producers_fall_silent(self):
        # x is bound at 0.0 when no rule fires into it, in both paths
        props = [
            Proposition("f", INPUT),
            Proposition("p", DERIVED),
            Proposition("c", DERIVED, output_class=True),
        ]
        rules = [
            Rule(id="r1", antecedent=Ref("f"), consequent="p", weight=0.5),
            Rule(id="r2", antecedent=Ref("p"), consequent="x", weight=0.5),
            Rule(id="r3", antecedent=Ref("x"), consequent="c", weight=0.5),
        ]
        rb = RuleBase(props, rules)
        obj = TrainingObject(id="o", facts={"f": 0.5}, label="c")
        self.probe_and_restore_are_bit_exact(rb, obj, "r1", -0.5)
        silent = full_oracle(rb, obj, "r1", -0.5)
        assert silent.prop_cf["x"] == 0.0 and silent.prop_cf["c"] == 0.0


def count_calls(mp, name):
    """Count calls of engine.<name> while ``mp`` is active."""
    calls = [0]
    original = getattr(engine, name)

    def counting(*args):
        calls[0] += 1
        return original(*args)

    mp.setattr(engine, name, counting)
    return calls


def hex_maps(cfs, buckets):
    """The two state maps with every float as its hex form, so that
    equality is bit equality (== would equate -0.0 and 0.0)."""
    hexed = lambda d: {k: v.hex() for k, v in d.items()}
    return hexed(cfs), {p: hexed(b) for p, b in buckets.items()}


def bit_snapshot(state, rb):
    return hex_maps(*snapshot(state, rb))


def reference_pass(rb, obj, threshold):
    """The fold the firing plan must reproduce bit for bit: every rule once
    in topological order, its contribution combined into its consequent's
    CF as it fires."""
    env = {
        p.id: obj.facts.get(p.id, 0.0) if p.kind == INPUT else 0.0
        for p in rb.propositions.values()
    }
    buckets = {}
    for rid in rb.topological_order():
        rule = rb.rules_by_id[rid]
        a = eval_expr(rule.antecedent, env)
        bucket = buckets.setdefault(rule.consequent, {})
        if a > threshold:
            bucket[rid] = rule.weight * a
            env[rule.consequent] = combine_parallel(env[rule.consequent], bucket[rid])
    return env, buckets


class TestFiringPlan:
    """The compiled plan against the plain topological fold, over random
    layered DAGs with compound antecedents and random thresholds."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        threshold=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.99)),
    )
    def test_full_pass_equals_the_topological_fold(self, seed, threshold):
        rng = random.Random(seed)
        rb = random_rulebase(rng, max_rules=40)
        obj = random_object(rng, rb)
        state = evaluate_full(rb, obj, FiringPolicy(threshold=threshold))
        expected = reference_pass(rb, obj, threshold)
        assert bit_snapshot(state, rb) == hex_maps(*expected)
        assert state.counters.rules_fired == sum(len(b) for b in expected[1].values())

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        threshold=st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True),
        ),
    )
    def test_full_pass_equals_the_independent_evaluator(self, seed, threshold):
        # reference_eval shares no sort, antecedent or combining code with
        # the plan, so a plan compiler bug cannot hide behind both sides
        rng = random.Random(seed)
        rb = random_rulebase(rng, max_rules=40)
        obj = random_object(rng, rb)
        state = evaluate_full(rb, obj, FiringPolicy(threshold=threshold))
        expected = reference_eval(rb, obj, threshold)
        assert {p: cf.hex() for p, cf in state.prop_cf.items()} == {
            p: cf.hex() for p, cf in expected.items()
        }

    @pytest.mark.parametrize("antecedent", [Ref("ghost"), And((Ref("f"), Ref("ghost")))])
    def test_unknown_reference_raises_unbound(self, antecedent):
        # an unchecked base; a fact for an undeclared proposition binds nothing
        props = [Proposition("f", INPUT), Proposition("c", DERIVED, output_class=True)]
        rb = RuleBase(props, [Rule(id="r1", antecedent=antecedent, consequent="c", weight=0.5)])
        obj = TrainingObject(id="o", facts={"f": 0.5, "ghost": 0.5}, label="c")
        with pytest.raises(UnboundProposition):
            evaluate_full(rb, obj)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_closure_order_is_the_topological_order_filtered(self, seed):
        rb = random_rulebase(random.Random(seed), max_rules=40)
        topo = rb.topological_order()
        for r in rb.rules:
            closure = rb.downstream_closure(r.id)
            order = rb.closure_order(r.id)
            assert order == tuple(rid for rid in topo if rid in closure)
            plan = rb.closure_plan(r.id)
            assert tuple(rule.id for rule, *_ in plan) == order
            steps = rb.firing_plan().steps
            slots = [rule.id for _, entries, _ in steps for _, rule, _ in entries]
            assert [s for _, entries, _ in steps for s, _, _ in entries] == list(range(len(slots)))
            for rule, _, consequent, refs, slot, lo, hi, start in plan:
                assert consequent == rule.consequent
                assert refs == referenced_props(rule.antecedent)
                assert slots[slot] == rule.id
                assert tuple(slots[lo:hi]) == rb.incoming_rules(consequent)
                # a probe refolds the consequent from its lowest closure slot
                assert lo <= start <= slot
                assert start == min(s for rr, *_, s, _, _, _ in plan if rr.consequent == consequent)


class TestCounters:
    """perfbench's traced run counts combines and antecedent evaluations by
    wrapping engine.combine_parallel and engine.eval_expr, so the engine
    must reach both through the module at call time."""

    def test_full_pass_combines_once_per_firing_rule(self):
        rng = random.Random(3)
        for _ in range(20):
            rb = random_rulebase(rng, max_rules=40)
            obj = random_object(rng, rb)
            with pytest.MonkeyPatch.context() as mp:
                calls = count_calls(mp, "combine_parallel")
                state = evaluate_full(rb, obj)
            firing = sum(c is not None for c in state.contributions)
            assert calls[0] == firing == state.counters.rules_fired

    def test_only_compound_antecedents_are_evaluated(self):
        rng = random.Random(4)
        for _ in range(20):
            rb = random_rulebase(rng, max_rules=40)
            obj = random_object(rng, rb)
            compound = sum(type(r.antecedent) is not Ref for r in rb.rules)
            with pytest.MonkeyPatch.context() as mp:
                calls = count_calls(mp, "eval_expr")
                evaluate_full(rb, obj)
            assert calls[0] == compound

    def test_a_replayed_probe_makes_no_combine(self):
        rb = chain3_base()
        obj = TrainingObject(id="o", facts={"f": 0.6}, label="c")
        state = evaluate_full(rb, obj)
        with pytest.MonkeyPatch.context() as mp:
            calls = count_calls(mp, "combine_parallel")
            assert perturb_weight(state, rb, "r1", 0.2) == 3
            assert calls[0] == 3  # one refold of a one-rule fan-in per re-fire
            assert restore_weight(state, rb, "r1", 0.9) == 0
            assert calls[0] == 3

    def test_a_prefixed_refold_starts_at_the_perturbed_slot(self):
        # three rules into c: without prefixes a refold of the last one
        # combines all three contributions, with them only its own
        props = [Proposition(f"f{i}", INPUT) for i in range(3)]
        props.append(Proposition("c", DERIVED, output_class=True))
        rules = [
            Rule(id=f"r{i}", antecedent=Ref(f"f{i}"), consequent="c", weight=0.5)
            for i in range(3)
        ]
        rb = RuleBase(props, rules)
        obj = TrainingObject(id="o", facts={"f0": 0.5, "f1": 0.4, "f2": 0.3}, label="c")
        for prefix, combines in ((False, 3), (True, 1)):
            state = evaluate(rb, obj, prefix=prefix)
            with pytest.MonkeyPatch.context() as mp:
                calls = count_calls(mp, "combine_parallel")
                perturb_weight(state, rb, "r2", 0.2)
            assert calls[0] == combines
            assert bit_snapshot(state, rb) == bit_snapshot(full_oracle(rb, obj, "r2", 0.2), rb)
        # a kept perturb leaves its log's writes in the state, so the next
        # perturb empties the stale prefixes and refolds c from lo
        state = evaluate(rb, obj, prefix=True)
        perturb_weight(state, rb, "r0", 0.9)
        rb.rule("r0").weight = 0.9
        with pytest.MonkeyPatch.context() as mp:
            calls = count_calls(mp, "combine_parallel")
            assert perturb_weight(state, rb, "r2", 0.2) == 1
        assert calls[0] == 3 and len(state.prefix) == 0
        assert bit_snapshot(state, rb) == bit_snapshot(full_oracle(rb, obj, "r2", 0.2), rb)

    def test_a_silent_perturb_leaves_the_pending_log_and_the_prefixes(self):
        # three rules into c, r1 silent: its perturb writes nothing, so r0's
        # kept log stays pending, r0's restore replays it, and the prefixes
        # stay valid
        props = [Proposition(f"f{i}", INPUT) for i in range(3)]
        props.append(Proposition("c", DERIVED, output_class=True))
        rules = [
            Rule(id=f"r{i}", antecedent=Ref(f"f{i}"), consequent="c", weight=0.5)
            for i in range(3)
        ]
        rb = RuleBase(props, rules)
        obj = TrainingObject(id="o", facts={"f0": 0.5, "f1": -0.4, "f2": 0.3}, label="c")
        state = evaluate(rb, obj, prefix=True)
        prefix = list(state.prefix)
        assert perturb_weight(state, rb, "r0", 0.9) == 1
        rb.rule("r0").weight = 0.9
        assert perturb_weight(state, rb, "r1", 0.2) == 0
        assert restore_weight(state, rb, "r0", 0.5) == 0
        rb.rule("r0").weight = 0.5
        assert state.undo is None and list(state.prefix) == prefix
        with pytest.MonkeyPatch.context() as mp:
            calls = count_calls(mp, "combine_parallel")
            _, positions, cfs = engine.probe_consequent([state], rb, "r2", 0.7)
        assert positions == [0] and calls[0] == 1  # read from r2's prefix
        assert cfs[0].hex() == full_oracle(rb, obj, "r2", 0.7).prop_cf["c"].hex()


def exact(state):
    """What a pass or a probe writes to a state, with every float as its
    hex form: CFs, contributions by slot, the undo log and the threshold."""
    def h(x):
        if isinstance(x, float):
            return x.hex()
        if isinstance(x, (list, tuple)):
            return [h(v) for v in x]
        return x

    return h(list(state.prop_cf.items())), h(state.contributions), h(state.undo), h(state.threshold)


def exact_probe(probed):
    """probe_consequent's result, with every CF as its hex form."""
    cons, positions, cfs = probed
    return cons, positions, [cf.hex() for cf in cfs]


class TestWalk:
    """A state that keeps a walk (see engine.ObjectEvaluation) against
    fresh states: every full pass and every probe reads and writes the same
    bits, although a walked pass records no prefix at a dropped slot."""

    def mixed_base(self):
        # c: every rule input-layer, so its step folds; d: r4 reads c, so
        # its step is read, without its silent input-layer rule r3
        props = [Proposition(p, INPUT) for p in ("f", "g", "h")]
        props += [Proposition("c", DERIVED, output_class=True), Proposition("d", DERIVED, output_class=True)]
        rules = [
            Rule(id="r0", antecedent=Ref("f"), consequent="c", weight=0.5),
            Rule(id="r1", antecedent=Ref("g"), consequent="c", weight=0.4),
            Rule(id="r2", antecedent=And((Ref("f"), Ref("h"))), consequent="c", weight=-0.3),
            Rule(id="r3", antecedent=Ref("g"), consequent="d", weight=0.2),
            Rule(id="r4", antecedent=Ref("c"), consequent="d", weight=0.6),
            Rule(id="r5", antecedent=Ref("h"), consequent="d", weight=0.7),
        ]
        return RuleBase(props, rules)

    def test_a_walk_drops_the_silent_input_layer_rules(self):
        rb = self.mixed_base()
        plan = rb.firing_plan()
        assert plan.input_layer == {0, 1, 2, 3, 5}
        obj = TrainingObject(id="o", facts={"f": 0.8, "g": -0.5, "h": 0.6}, label="c")
        state = evaluate(rb, obj, walk=True)
        key, threshold, walked_obj, steps = state.walk
        assert (key, threshold, walked_obj) == (plan.key, 0.0, obj)
        (c, folded, c_is_folded), (d, read, d_is_folded) = steps
        assert (c, c_is_folded, d, d_is_folded) == ("c", True, "d", False)
        # r1 is silent; r0 carries the fact's own float, r2 its And's CF
        assert [(slot, rule.id) for slot, rule, _ in folded] == [(0, "r0"), (2, "r2")]
        assert folded[0][2] is obj.facts["f"] and folded[1][2] == 0.6
        assert [rule.id for _, rule, _ in read] == ["r4", "r5"]
        assert exact(evaluate_full(rb, obj, into=state)) == exact(evaluate(rb, obj))

    def test_a_walked_pass_reads_no_input_layer_antecedent(self):
        rb = self.mixed_base()
        obj = TrainingObject(id="o", facts={"f": 0.8, "g": -0.5, "h": 0.6}, label="c")
        state = evaluate(rb, obj, walk=True)
        with pytest.MonkeyPatch.context() as mp:
            evals = count_calls(mp, "eval_expr")
            evaluate_full(rb, obj, into=state)
        assert evals[0] == 0  # r2's And, folded from the walk

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        threshold=st.one_of(
            st.just(0.0), st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True)
        ),
        prefix=st.booleans(),
        moves=st.lists(
            st.tuples(st.integers(min_value=0), st.floats(min_value=-1.0, max_value=1.0)),
            min_size=1,
            max_size=8,
        ),
        w=st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_a_walked_state_passes_and_probes_as_a_fresh_one(self, seed, threshold, prefix, moves, w):
        rng = random.Random(seed)
        rb = random_rulebase(rng, max_rules=40)  # compound antecedents, mixed steps
        obj = random_object(rng, rb)
        policy = FiringPolicy(threshold=threshold)
        state = evaluate(rb, obj, policy, prefix, walk=True)
        assert state.walk[0] == rb.firing_plan().key
        for pick, weight in moves:
            rb.rules[pick % len(rb.rules)].weight = weight
            before = state.counters.rules_fired
            evaluate_full(rb, obj, policy, into=state)
            fresh = evaluate(rb, obj, policy, prefix)
            assert exact(state) == exact(fresh)
            assert state.counters.rules_fired - before == fresh.counters.rules_fired
        # every probe on the walked state returns and writes what it does on
        # a fresh one, so no probe reads a prefix the walked pass dropped
        fresh = evaluate(rb, obj, policy, prefix)
        for rule in rb.rules:
            counts = [s.counters.rules_fired for s in (state, fresh)]
            if len(rb.closure_plan(rule.id)) == 1:
                probed = [engine.probe_consequent([s], rb, rule.id, w) for s in (state, fresh)]
                assert exact_probe(probed[0]) == exact_probe(probed[1])
            assert perturb_weight(state, rb, rule.id, w) == perturb_weight(fresh, rb, rule.id, w)
            assert exact(state) == exact(fresh)
            restored = [restore_weight(s, rb, rule.id, rule.weight) for s in (state, fresh)]
            assert restored[0] == restored[1]
            assert exact(state) == exact(fresh)
            assert state.counters.rules_fired - counts[0] == fresh.counters.rules_fired - counts[1]

    def test_a_walk_keeps_the_prefixes_probes_read(self):
        rb = self.mixed_base()
        obj = TrainingObject(id="o", facts={"f": 0.8, "g": -0.5, "h": 0.6}, label="c")
        state = evaluate(rb, obj, prefix=True, walk=True)
        evaluate_full(rb, obj, into=state)
        fresh = evaluate(rb, obj, prefix=True)
        walked = [0, 2, 4, 5]  # r1 and r3 are silent input-layer rules
        assert [state.prefix[s] for s in walked] == [fresh.prefix[s] for s in walked]

    @pytest.mark.parametrize("change", ["copy", "threshold", "object"])
    def test_a_walk_is_ignored_under_another_key(self, change):
        rb = self.mixed_base()
        obj = TrainingObject(id="o", facts={"f": 0.8, "g": 0.2, "h": 0.6}, label="c")
        state = evaluate(rb, obj, walk=True)
        policy = engine.DEFAULT_POLICY
        if change == "copy":  # its own Rule objects, whose weights a stale walk would miss
            rb = rb.copy()
            rb.rule("r0").weight = -0.9
        elif change == "threshold":  # g's rules no longer fire
            policy = FiringPolicy(threshold=0.3)
        else:  # the same id, other facts
            obj = TrainingObject(id="o", facts={"f": -0.8, "g": 0.9, "h": 0.1}, label="c")
        evaluate_full(rb, obj, policy, into=state)
        assert exact(state) == exact(evaluate_full(rb, obj, policy))
        assert state.walk[:3] == (rb.firing_plan().key, policy.threshold, obj)  # built anew
        assert exact(evaluate_full(rb, obj, policy, into=state)) == exact(evaluate_full(rb, obj, policy))


class TestClassify:
    def classed_state(self, cfs):
        props = [Proposition(k, DERIVED, output_class=True) for k in cfs]
        rb = RuleBase(props, [])
        st = evaluate_full(rb, TrainingObject(id="o", facts={}, label=next(iter(cfs))))
        st.prop_cf.update(cfs)
        return rb, st

    def test_strict_max(self):
        rb, st = self.classed_state({"A": 0.9, "B": 0.2})
        assert classify(st, rb) == "A"

    def test_tie_breaks_lexicographically(self):
        rb, st = self.classed_state({"B": 0.0, "A": 0.0})
        assert classify(st, rb) == "A"

    def test_max_of_negatives(self):
        rb, st = self.classed_state({"A": -0.5, "B": -0.1})
        assert classify(st, rb) == "B"

    def test_no_output_classes(self):
        props = [Proposition("f", INPUT), Proposition("p", DERIVED)]
        rb = RuleBase(props, [])
        st = evaluate_full(rb, TrainingObject(id="o", facts={}, label="p"))
        with pytest.raises(NoOutputClasses):
            classify(st, rb)


class TestFiringPolicy:
    def test_threshold_range(self):
        with pytest.raises(ValueError):
            FiringPolicy(threshold=1.0)
        with pytest.raises(ValueError):
            FiringPolicy(threshold=-0.1)
        FiringPolicy(threshold=0.99)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, value):
        with pytest.raises(ValueError):
            FiringPolicy(threshold=value)

    def test_incremental_equivalence_under_default_policy(self):
        # the acceptance-scale version runs 200 bases; this is the quick one
        rng = random.Random(1234)
        for _ in range(40):
            rb = random_rulebase(rng, max_rules=60)
            obj = random_object(rng, rb)
            st = evaluate_full(rb, obj)
            for _ in range(10):
                rule = rng.choice(rb.rules)
                w_new = rng.uniform(-1, 1)
                perturb_weight(st, rb, rule.id, w_new)
                oracle = full_oracle(rb, obj, rule.id, w_new)
                assert st.prop_cf == oracle.prop_cf
                restore_weight(st, rb, rule.id, rule.weight)
