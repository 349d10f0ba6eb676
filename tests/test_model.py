"""Rule-base model: validation, graph queries, and serialization."""

import json
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from cf_forge import (
    And,
    CfForgeError,
    CyclicDependency,
    ParseError,
    Proposition,
    Ref,
    Rule,
    RuleBase,
    TrainingObject,
    UnknownRule,
    ValidationError,
    evaluate_full,
    load_dataset,
    parse,
    referenced_props,
    save_dataset,
    serialize,
    validate,
    validate_dataset,
)
from cf_forge.model import DERIVED, INPUT, MAX_EXPR_DEPTH, from_dict, to_dict
from helpers import brute_force_closure, random_rulebase, reference_load_dataset


def tiny_base(**rule_kwargs):
    props = [
        Proposition("f", INPUT),
        Proposition("c", DERIVED, output_class=True),
    ]
    rules = [Rule(id="r1", antecedent=Ref("f"), consequent="c", **rule_kwargs)]
    return RuleBase(props, rules)


def chain_base():
    props = [
        Proposition("f", INPUT),
        Proposition("p1", DERIVED),
        Proposition("c", DERIVED, output_class=True),
    ]
    rules = [
        Rule(id="r1", antecedent=Ref("f"), consequent="p1", weight=0.5),
        Rule(id="r2", antecedent=Ref("p1"), consequent="c", weight=0.5),
    ]
    return RuleBase(props, rules)


class TestValidate:
    def test_valid_base(self):
        assert validate(tiny_base()) == []

    def test_leaves_the_firing_plan_unbuilt(self):
        # validate runs on every load; only an engine pass needs the plan
        rb = tiny_base()
        assert validate(rb) == []
        assert rb._plan is None

    def test_fifty_rule_flat_base(self):
        from cf_forge import SynthSpec, generate

        rb, _, _, _ = generate(SynthSpec(features=10, classes=5, objects=1, seed=0))
        assert len(rb.rules) == 50
        assert validate(rb) == []

    def test_self_loop_is_cyclic(self):
        props = [Proposition("c", DERIVED, output_class=True)]
        rules = [Rule(id="r1", antecedent=Ref("c"), consequent="c")]
        codes = [v.code for v in validate(RuleBase(props, rules))]
        assert "CyclicDependency" in codes

    def test_two_rule_cycle_reports_path(self):
        props = [
            Proposition("a", DERIVED, output_class=True),
            Proposition("b", DERIVED),
        ]
        rules = [
            Rule(id="r1", antecedent=Ref("a"), consequent="b"),
            Rule(id="r2", antecedent=Ref("b"), consequent="a"),
        ]
        cyc = [v for v in validate(RuleBase(props, rules)) if v.code == "CyclicDependency"]
        assert len(cyc) == 1
        assert "r1" in cyc[0].detail and "r2" in cyc[0].detail

    def test_weight_out_of_range(self):
        codes = [v.code for v in validate(tiny_base(weight=1.5))]
        assert codes == ["WeightOutOfRange"]

    def test_invalid_bounds(self):
        codes = [v.code for v in validate(tiny_base(bounds=(0.5, -0.5)))]
        assert "InvalidBounds" in codes

    def test_input_as_consequent(self):
        props = [
            Proposition("f", INPUT),
            Proposition("g", INPUT),
            Proposition("c", DERIVED, output_class=True),
        ]
        rules = [Rule(id="r1", antecedent=Ref("f"), consequent="g")]
        codes = [v.code for v in validate(RuleBase(props, rules))]
        assert "InputAsConsequent" in codes

    def test_unknown_references(self):
        props = [Proposition("c", DERIVED, output_class=True)]
        rules = [Rule(id="r1", antecedent=Ref("ghost"), consequent="nowhere")]
        codes = {v.code for v in validate(RuleBase(props, rules))}
        assert {"UnknownConsequent", "UnknownAntecedentRef"} <= codes

    def test_no_output_class(self):
        props = [Proposition("f", INPUT), Proposition("p", DERIVED)]
        rules = [Rule(id="r1", antecedent=Ref("f"), consequent="p")]
        codes = [v.code for v in validate(RuleBase(props, rules))]
        assert "NoOutputClass" in codes

    def test_empty_and(self):
        props = [
            Proposition("f", INPUT),
            Proposition("c", DERIVED, output_class=True),
        ]
        rules = [Rule(id="r1", antecedent=And(()), consequent="c")]
        codes = [v.code for v in validate(RuleBase(props, rules))]
        assert "EmptyExpr" in codes

    def test_malformed_antecedent_reported_not_raised(self):
        # the cycle check cannot walk a non-expression, so it is skipped
        props = [
            Proposition("f", INPUT),
            Proposition("c", DERIVED, output_class=True),
        ]
        rules = [Rule("r1", "f", "c", 0.5)]
        violations = validate(RuleBase(props, rules))
        assert [v.code for v in violations] == ["EmptyExpr"]
        assert "malformed antecedent node 'f'" in violations[0].detail

    def test_output_class_on_input(self):
        props = [
            Proposition("f", INPUT, output_class=True),
            Proposition("c", DERIVED, output_class=True),
        ]
        codes = [v.code for v in validate(RuleBase(props, []))]
        assert "OutputClassNotDerived" in codes


class TestGraph:
    def test_flat_topo_is_id_sorted(self):
        from cf_forge import SynthSpec, generate

        rb, _, _, _ = generate(SynthSpec(features=4, classes=2, objects=1, seed=0))
        assert list(rb.topological_order()) == sorted(r.id for r in rb.rules)

    def test_chain_order_forced(self):
        assert chain_base().topological_order() == ("r1", "r2")

    def test_diamond_sink_last(self):
        props = [
            Proposition("f", INPUT),
            Proposition("p1", DERIVED),
            Proposition("c", DERIVED, output_class=True),
        ]
        rules = [
            Rule(id="rb", antecedent=Ref("f"), consequent="p1"),
            Rule(id="ra", antecedent=Ref("f"), consequent="p1"),
            Rule(id="r_sink", antecedent=Ref("p1"), consequent="c"),
        ]
        order = RuleBase(props, rules).topological_order()
        assert order == ("ra", "rb", "r_sink")

    def test_cycle_raises(self):
        props = [Proposition("c", DERIVED, output_class=True)]
        rules = [Rule(id="r1", antecedent=Ref("c"), consequent="c")]
        with pytest.raises(CyclicDependency):
            RuleBase(props, rules).topological_order()

    def test_closure_flat_is_singleton(self):
        rb = tiny_base()
        assert rb.downstream_closure("r1") == {"r1"}

    def test_closure_chain_is_whole_chain(self):
        rb = chain_base()
        assert rb.downstream_closure("r1") == {"r1", "r2"}

    def test_closure_unknown_rule(self):
        with pytest.raises(UnknownRule, match="unknown rule 'nope'"):
            tiny_base().downstream_closure("nope")

    def test_closure_matches_brute_force_on_random_dags(self):
        rng = random.Random(42)
        for _ in range(100):
            rb = random_rulebase(rng, max_rules=40)
            rid = rng.choice(rb.rules).id
            assert rb.downstream_closure(rid) == brute_force_closure(rb, rid)

    def test_topo_is_edge_respecting_permutation(self):
        rng = random.Random(7)
        for _ in range(50):
            rb = random_rulebase(rng, max_rules=40)
            order = rb.topological_order()
            assert sorted(order) == sorted(r.id for r in rb.rules)
            pos = {rid: i for i, rid in enumerate(order)}
            # edges recomputed from the antecedents, not the cached graph
            for a in rb.rules:
                for b in rb.rules:
                    if a.consequent in referenced_props(b.antecedent):
                        assert pos[a.id] < pos[b.id]


class TestSerialization:
    def test_round_trip_identity(self):
        rng = random.Random(3)
        for _ in range(25):
            rb = random_rulebase(rng, max_rules=30)
            again = parse(serialize(rb))
            assert again == rb
            for r1, r2 in zip(rb.rules, again.rules):
                assert r1.weight == r2.weight  # bit-identical

    def test_duplicate_rule_id(self):
        doc = to_dict(tiny_base())
        doc["rules"].append(dict(doc["rules"][0]))
        with pytest.raises(ParseError):
            from_dict(doc)

    def test_duplicate_proposition_id(self):
        doc = to_dict(tiny_base())
        doc["propositions"].append(dict(doc["propositions"][0]))
        with pytest.raises(ParseError):
            from_dict(doc)

    def test_empty_rule_list_fails_validation(self):
        with pytest.raises(ValidationError):
            parse('{"propositions": [], "rules": []}')

    def test_missing_field_location(self):
        doc = to_dict(tiny_base())
        del doc["rules"][0]["weight"]
        with pytest.raises(ParseError, match=r"rules\[0\]"):
            from_dict(doc)

    def test_bad_json_reports_line(self):
        with pytest.raises(ParseError, match="line"):
            parse("{\n  broken\n}")

    def test_malformed_expr(self):
        doc = to_dict(tiny_base())
        doc["rules"][0]["if"] = {"xor": ["f"]}
        with pytest.raises(ParseError, match=r"rules\[0\]\.if"):
            from_dict(doc)

    def test_antecedent_depth_cap(self):
        doc = to_dict(tiny_base(weight=0.5))
        expr = "f"
        for _ in range(MAX_EXPR_DEPTH):
            expr = {"not": expr}
        doc["rules"][0]["if"] = expr
        rb = from_dict(doc)
        assert parse(serialize(rb)) == rb
        st = evaluate_full(rb, TrainingObject(id="o", facts={"f": 0.5}, label="c"))
        assert st.prop_cf["c"] == 0.25  # an even number of NOTs
        doc["rules"][0]["if"] = {"and": [expr]}
        with pytest.raises(ParseError, match=r"rules\[0\]\.if\.and\[0\](\.not)+: antecedent nested"):
            from_dict(doc)

    def test_integer_beyond_a_float(self):
        for field, value in (("weight", 10**400), ("bounds", [-1, 10**400])):
            doc = to_dict(tiny_base())
            doc["rules"][0][field] = value
            with pytest.raises(ParseError, match=rf"rules\[0\]: field '{field}' is too large"):
                from_dict(doc)

    def test_integer_with_too_many_digits(self):
        text = serialize(tiny_base()).replace('"weight": 0.0', '"weight": ' + "1" * 5000)
        with pytest.raises(ParseError, match="too many digits"):
            parse(text)

    def test_json_too_deep_to_decode(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse('{"propositions": ' + "[" * 5000 + "]" * 5000 + "}")

    def test_defaults_applied(self):
        rb = from_dict(
            {
                "propositions": [
                    {"id": "f", "kind": "input"},
                    {"id": "c", "kind": "derived", "output_class": True},
                ],
                "rules": [{"id": "r1", "if": "f", "then": "c", "weight": 0.25}],
            }
        )
        r = rb.rules[0]
        assert r.bounds == (-1.0, 1.0) and r.bound_kind == "hard" and r.trainable


class TestCopy:
    def test_copy_owns_its_rules_and_shares_the_rest(self):
        rb = chain_base()
        dup = rb.copy()
        assert dup == rb
        for r0, r1 in zip(rb.rules, dup.rules):
            assert r1 is not r0 and r1.antecedent is r0.antecedent
        assert all(dup.propositions[k] is p for k, p in rb.propositions.items())
        dup.rules[0].weight = -rb.rules[0].weight + 0.25
        assert rb.rules[0].weight != dup.rules[0].weight
        assert dup.rule(dup.rules[0].id) is dup.rules[0]


# JSON documents for the parse properties: keys and strings drawn from the
# formats' own vocabulary, so that many documents get deep into parsing,
# and integers beyond the float range
_WORDS = ["propositions", "rules", "id", "kind", "output_class", "if", "then", "weight",
          "bounds", "bound_kind", "trainable", "and", "or", "not", "facts", "label",
          "input", "derived", "hard", "soft", "f", "c"]
_KEYS = st.sampled_from(_WORDS) | st.text(max_size=3)
_SCALARS = (
    st.none() | st.booleans() | st.floats() | st.sampled_from(_WORDS) | st.text(max_size=3)
    | st.integers() | st.integers(min_value=10**300, max_value=10**400)
    | st.sampled_from([-1, 0, 1, 0.5, -0.5])
)
_JSON = st.recursive(
    _SCALARS, lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_KEYS, kids, max_size=4),
    max_leaves=12,
)
_OBJECT = st.dictionaries(_KEYS, _JSON, max_size=7)
_RULE_BASE_LIKE = st.fixed_dictionaries(
    {"propositions": st.lists(_OBJECT, max_size=3), "rules": st.lists(_OBJECT, max_size=3)}
)
_OBJECT_LINE_LIKE = st.fixed_dictionaries(
    {"id": _JSON, "label": _JSON, "facts": st.dictionaries(_KEYS, _JSON, max_size=3)}
)
_HUGE_RULE_BASE = {
    "propositions": [{"id": "f", "kind": "input"},
                     {"id": "c", "kind": "derived", "output_class": True}],
    "rules": [{"id": "r", "if": "f", "then": "c", "weight": 10**400}],
}


class TestParseProperties:
    """Any JSON input either loads or raises CfForgeError."""

    @settings(deadline=None)
    @given(_JSON | _RULE_BASE_LIKE)
    @example(_HUGE_RULE_BASE)
    def test_from_dict_loads_or_raises(self, doc):
        try:
            from_dict(doc)
        except CfForgeError:
            pass

    @settings(deadline=None)
    @given(_OBJECT | _OBJECT_LINE_LIKE)
    @example({"id": "o", "facts": {"f": 10**400}, "label": "c"})
    def test_load_dataset_loads_or_raises(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "property.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        try:
            load_dataset(path)
        except CfForgeError:
            pass


# datasets for the loader oracle: facts of every JSON kind, in and out of
# the CF range, under a few names shared across objects
_FACT_VALUES = (
    st.floats() | st.floats(-1.0, 1.0) | st.integers(-2, 2) | st.integers() | st.text(max_size=3)
    | st.sampled_from([10**400, -10**400, math.nan, math.inf, -math.inf, True, False, None])
)
_FACT_NAMES = st.sampled_from(["f", "g", "c", "zzz"])
_DATA_OBJECTS = st.lists(
    st.fixed_dictionaries({
        "id": st.sampled_from(["a", "b", "c"]),
        # the second kind holds mostly CFs, so a lone NaN among them is common
        "facts": st.dictionaries(_FACT_NAMES, _FACT_VALUES, max_size=4)
        | st.dictionaries(_FACT_NAMES, st.floats(-1.0, 1.0) | st.just(math.nan), max_size=4),
        "label": st.sampled_from(["c", "zzz"]),
    }),
    min_size=1, max_size=4,
)
_NAN_AFTER_A_CF = [{"id": "a", "facts": {"f": 0.5, "g": math.nan}, "label": "c"}]


def _outcome(fn, *args):
    """fn's result, or the type and text of the error it raised."""
    try:
        return fn(*args)
    except CfForgeError as e:
        return type(e), str(e)


def _exact(result):
    """A loaded dataset with each fact's type and repr, which tell -0.0
    from 0.0 and 1 from 1.0; an error outcome as it is."""
    if isinstance(result, list):
        return [(o.id, o.label, [(k, type(v), repr(v)) for k, v in o.facts.items()]) for o in result]
    return result


class TestDatasetOracle:
    """load_dataset shares fact names across the objects of a load; its
    results and errors must be those of a plain per-fact loop that shares
    nothing (helpers.reference_load_dataset)."""

    @settings(deadline=None)
    @given(_DATA_OBJECTS)
    @example(_NAN_AFTER_A_CF)
    def test_load_dataset_matches_the_reference(self, tmp_path_factory, docs):
        path = tmp_path_factory.getbasetemp() / "oracle.jsonl"
        path.write_text("".join(json.dumps(d) + "\n" for d in docs))
        got = _outcome(load_dataset, path)
        assert _exact(got) == _exact(_outcome(reference_load_dataset, path))


class TestDataset:
    def test_round_trip(self, tmp_path):
        objs = [
            TrainingObject(id="a", facts={"f": 0.123456789012345678}, label="c"),
            TrainingObject(id="b", facts={}, label="c"),
        ]
        path = tmp_path / "data.jsonl"
        save_dataset(objs, path)
        again = load_dataset(path)
        assert again == objs
        assert again[0].facts["f"] == objs[0].facts["f"]

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset([TrainingObject(id="a", facts={}, label="c")], path)
        before = path.read_bytes()
        good = TrainingObject(id="b", facts={"f": 0.5}, label="c")
        bad = TrainingObject(id="x", facts={"f": {0.5}}, label="c")  # a set: not JSON
        with pytest.raises(TypeError):
            save_dataset([good, bad], path)  # raises after the first line is written
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"]

    def test_objects_share_fact_names(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("".join(
            f'{{"id": "o{i}", "facts": {{"feature_a": {v}, "feature_b": 0.5}}, "label": "{c}"}}\n'
            for i, (v, c) in enumerate([(0, "class_a"), (1, "class_b"), (-1, "class_a")])
        ))
        objs = load_dataset(path)
        for name in ("feature_a", "feature_b"):
            first, *rest = ([k for k in o.facts if k == name][0] for o in objs)
            assert all(k is first for k in rest)
        # objects with the same label share one label object
        assert [o.label for o in objs] == ["class_a", "class_b", "class_a"]
        assert objs[0].label is objs[2].label
        assert [o.facts["feature_a"] for o in objs] == [0.0, 1.0, -1.0]
        assert all(type(o.facts["feature_a"]) is float for o in objs)

    def test_fact_out_of_range(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "a", "facts": {"f": 1.5}, "label": "c"}\n')
        with pytest.raises(ParseError, match="line 1"):
            load_dataset(path)

    def test_line_too_deep_to_decode(self, tmp_path):
        path = tmp_path / "data.jsonl"
        deep = "[" * 5000 + "]" * 5000
        path.write_text('{"id": "a", "facts": {}, "label": "c"}\n' + deep + "\n")
        with pytest.raises(ParseError, match="line 2: JSON nested too deeply"):
            load_dataset(path)

    def test_duplicate_object_id(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            '{"id": "a", "facts": {}, "label": "c"}\n'
            '{"id": "a", "facts": {}, "label": "c"}\n'
        )
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path)

    def test_validate_dataset(self):
        rb = tiny_base()
        objs = [
            TrainingObject(id="ok", facts={"f": 0.5}, label="c"),
            TrainingObject(id="bad_label", facts={"f": 0.5}, label="zzz"),
            TrainingObject(id="bad_fact", facts={"c": 0.5}, label="c"),
            TrainingObject(id="ok", facts={"f": -0.5}, label="c"),
        ]
        violations = validate_dataset(rb, objs)
        assert [v.code for v in violations] == ["UnknownLabel", "UnknownFact", "DuplicateObjectId"]
        assert "'ok'" in violations[-1].detail
