"""Synthetic generators: structure, determinism, separability."""

import pytest

from cf_forge import (
    SpecInvalid,
    SynthSpec,
    accuracy,
    evaluate_full,
    generate,
    generate_shaped,
    refine_expert,
    serialize,
    validate,
)


class TestSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(features=1, classes=5, objects=10),
            dict(features=10, classes=1, objects=10),
            dict(features=10, classes=2, objects=0),
            dict(features=10, classes=2, objects=10, irrelevant_features=10),
            dict(features=10, classes=2, objects=10, irrelevant_features=-1),
            dict(features=6, classes=5, objects=10, irrelevant_features=2),
            dict(features=10, classes=2, objects=10, noise=1.5),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(SpecInvalid):
            SynthSpec(**kwargs)


class TestGenerate:
    SPEC = dict(features=10, classes=5, objects=100, irrelevant_features=3,
                noise=0.2, seed=42)

    def test_rule_count_is_features_times_classes(self):
        rb, expert, _, _ = generate(SynthSpec(**self.SPEC))
        assert len(rb.rules) == 50
        assert len(expert.rules) == 50

    def test_zero_base_has_zero_weights(self):
        rb, _, _, _ = generate(SynthSpec(**self.SPEC))
        assert all(r.weight == 0.0 for r in rb.rules)

    def test_irrelevant_features_carry_no_expert_signal(self):
        _, expert, _, _ = generate(SynthSpec(**self.SPEC))
        zero_rules = [r for r in expert.rules if r.weight == 0.0]
        assert len(zero_rules) == 3 * 5  # irrelevant x classes

    def test_expert_weight_levels(self):
        _, expert, _, truth = generate(SynthSpec(**self.SPEC))
        truth_pairs = {(f, c) for c, fs in truth.items() for f in fs}
        relevant = {f for fs in truth.values() for f in fs}
        for r in expert.rules:
            f = r.antecedent.prop
            if (f, r.consequent) in truth_pairs:
                assert r.weight == 0.7
            elif f in relevant:
                assert r.weight == -0.3
            else:
                assert r.weight == 0.0

    def test_ground_truth_partitions_relevant_features(self):
        _, _, _, truth = generate(SynthSpec(**self.SPEC))
        all_feats = [f for fs in truth.values() for f in fs]
        assert len(all_feats) == len(set(all_feats)) == 7
        assert all(len(fs) >= 1 for fs in truth.values())

    def test_generated_bases_validate(self):
        rb, expert, _, _ = generate(SynthSpec(**self.SPEC))
        assert validate(rb) == []
        assert validate(expert) == []

    def test_class_balance(self):
        _, _, objects, _ = generate(SynthSpec(**self.SPEC))
        counts = {}
        for o in objects:
            counts[o.label] = counts.get(o.label, 0) + 1
        assert set(counts.values()) <= {100 // 5, 100 // 5 + 1}

    def test_facts_are_certainty_factors(self):
        _, _, objects, _ = generate(SynthSpec(**self.SPEC))
        for o in objects:
            assert len(o.facts) == 10
            assert all(-1.0 <= v <= 1.0 for v in o.facts.values())

    def test_expert_separates_noiseless_data(self):
        spec = SynthSpec(**{**self.SPEC, "noise": 0.0})
        _, expert, objects, _ = generate(spec)
        states = [evaluate_full(expert, o) for o in objects]
        labels = {o.id: o.label for o in objects}
        assert accuracy(states, labels, expert) == 1.0

    def test_seeded_determinism(self):
        a = generate(SynthSpec(**self.SPEC))
        b = generate(SynthSpec(**self.SPEC))
        assert serialize(a[0]) == serialize(b[0])
        assert serialize(a[1]) == serialize(b[1])
        assert a[2] == b[2]
        assert a[3] == b[3]

    def test_different_seed_differs(self):
        a = generate(SynthSpec(**self.SPEC))
        b = generate(SynthSpec(**{**self.SPEC, "seed": 43}))
        assert a[2] != b[2]


class TestRefineExpert:
    def test_moves_toward_truth(self):
        _, expert, _, truth = generate(SynthSpec(features=8, classes=2, objects=4, seed=1))
        refined = refine_expert(expert, truth, seed=1)
        truth_pairs = {(f, c) for c, fs in truth.items() for f in fs}
        relevant = {f for fs in truth.values() for f in fs}
        moved = 0
        for r0, r1 in zip(expert.rules, refined.rules):
            f = r0.antecedent.prop
            if (f, r0.consequent) in truth_pairs:
                assert r1.weight >= r0.weight
                moved += r1.weight > r0.weight
            elif f in relevant:
                assert r1.weight <= r0.weight
            else:
                assert r1.weight == r0.weight
        assert moved > 0

    def test_deterministic(self):
        _, expert, _, truth = generate(SynthSpec(features=8, classes=2, objects=4, seed=1))
        assert serialize(refine_expert(expert, truth, seed=9)) == serialize(
            refine_expert(expert, truth, seed=9)
        )


class TestGenerateShaped:
    def test_flat_closures_are_singletons(self):
        rb, objects = generate_shaped(64, "flat", seed=0)
        assert len(rb.rules) == 64
        assert len(objects) == 1
        assert all(len(rb.downstream_closure(r.id)) == 1 for r in rb.rules)

    def test_chain_first_rule_sees_whole_chain(self):
        rb, _ = generate_shaped(3, "chain", seed=0)
        first = rb.topological_order()[0]
        assert len(rb.downstream_closure(first)) == 3

    def test_tree_leaf_closure_is_root_path(self):
        rb, _ = generate_shaped(7, "tree", seed=0)
        sizes = sorted(len(rb.downstream_closure(r.id)) for r in rb.rules)
        assert sizes == [1, 2, 2, 3, 3, 3, 3]

    def test_tree_requires_full_levels(self):
        with pytest.raises(SpecInvalid):
            generate_shaped(6, "tree", seed=0)

    def test_unknown_shape(self):
        with pytest.raises(SpecInvalid):
            generate_shaped(4, "ring", seed=0)

    def test_all_rules_fire(self):
        for shape, n in [("flat", 16), ("chain", 16), ("tree", 15)]:
            rb, objects = generate_shaped(n, shape, seed=3)
            assert validate(rb) == []
            st = evaluate_full(rb, objects[0])
            assert st.counters.rules_fired == n

    def test_weights_in_declared_band(self):
        rb, _ = generate_shaped(31, "tree", seed=5)
        assert all(0.2 <= r.weight <= 0.8 for r in rb.rules)
