"""Shared test utilities: seeded random rule bases and independent oracles.

The random generator builds layered DAGs (inputs at level 0, derived
propositions above, the top level marked as output classes) so depth is
bounded by construction and cycles are impossible.  The oracles here stay
deliberately dumb: reachability by scanning antecedents, the combining
formula as its docstring states it, an evaluator that shares no code
with the engine or the rule base's cached graph, and a dataset loader that
checks every fact one at a time.
"""

from __future__ import annotations

import heapq
import random

from cf_forge import (
    And,
    Not,
    Or,
    Proposition,
    Ref,
    Rule,
    RuleBase,
    TrainingObject,
    referenced_props,
)
from cf_forge.algebra import is_cf
from cf_forge.errors import ParseError
from cf_forge.model import DERIVED, INPUT, _take, decode_json


def random_expr(rng: random.Random, candidates: list[str], max_leaves: int = 3):
    n = rng.randint(1, min(max_leaves, len(candidates)))
    leaves = [Ref(p) for p in rng.sample(candidates, n)]
    leaves = [Not(l) if rng.random() < 0.2 else l for l in leaves]
    if len(leaves) == 1:
        return leaves[0]
    node = And(tuple(leaves)) if rng.random() < 0.5 else Or(tuple(leaves))
    if rng.random() < 0.1:
        node = Not(node)
    return node


def random_rulebase(
    rng: random.Random,
    max_rules: int = 100,
    max_depth: int = 6,
) -> RuleBase:
    depth = rng.randint(1, max_depth)
    levels: list[list[str]] = [[f"in{i}" for i in range(rng.randint(2, 5))]]
    for d in range(1, depth + 1):
        levels.append([f"d{d}_{i}" for i in range(rng.randint(1, 4))])
    props = [Proposition(p, INPUT) for p in levels[0]]
    for d in range(1, depth + 1):
        top = d == depth
        props += [Proposition(p, DERIVED, output_class=top) for p in levels[d]]
    n_rules = rng.randint(depth, max_rules)
    rules = []
    for k in range(n_rules):
        lvl = rng.randint(1, depth)
        below = [p for lev in levels[:lvl] for p in lev]
        rules.append(
            Rule(
                id=f"r{k:03d}",
                antecedent=random_expr(rng, below),
                consequent=rng.choice(levels[lvl]),
                weight=rng.uniform(-1.0, 1.0),
            )
        )
    return RuleBase(props, rules)


def random_object(rng: random.Random, rb: RuleBase, oid: str = "obj0") -> TrainingObject:
    facts = {}
    for p in rb.propositions.values():
        if p.kind == INPUT and rng.random() < 0.9:
            facts[p.id] = rng.uniform(-1.0, 1.0)
    label = rng.choice(rb.output_classes)
    return TrainingObject(id=oid, facts=facts, label=label)


def brute_force_closure(rb: RuleBase, rule_id: str) -> frozenset[str]:
    """Reachability on edges recomputed from scratch by scanning every
    antecedent; independent of the rule base's cached graph."""
    seen = {rule_id}
    frontier = [rule_id]
    while frontier:
        current = rb.rules_by_id[frontier.pop()]
        for r in rb.rules:
            if r.id not in seen and current.consequent in referenced_props(r.antecedent):
                seen.add(r.id)
                frontier.append(r.id)
    return frozenset(seen)


def clamp(x: float) -> float:
    """Clamp to [-1, +1]."""
    if x > 1.0:
        return 1.0
    if x < -1.0:
        return -1.0
    return x


def clamped_formula(x, y):
    """combine_parallel as its docstring states it, every case clamped."""
    if x >= 0.0 and y >= 0.0:
        return 1.0 if 1.0 in (x, y) else clamp(x + y - x * y)
    if x < 0.0 and y <= 0.0:
        return -1.0 if -1.0 in (x, y) else clamp(x + y + x * y)
    denom = 1.0 - min(abs(x), abs(y))
    return 0.0 if denom == 0.0 else clamp((x + y) / denom)


def _refs(expr) -> set[str]:
    if isinstance(expr, Ref):
        return {expr.prop}
    if isinstance(expr, Not):
        return _refs(expr.member)
    return set().union(*(_refs(m) for m in expr.members))


def _antecedent_cf(expr, env) -> float:
    if isinstance(expr, Ref):
        return env[expr.prop]
    if isinstance(expr, Not):
        return -_antecedent_cf(expr.member, env)
    values = [_antecedent_cf(m, env) for m in expr.members]
    return min(values) if isinstance(expr, And) else max(values)


def reference_eval(rb: RuleBase, obj: TrainingObject, threshold: float) -> dict[str, float]:
    """Every proposition's CF for one object, worked out from the base's
    rules and propositions alone: its own topological sort (Kahn, ties broken by the smallest rule
    id), its own min / max / negation over antecedents, and each consequent
    refolded from 0.0 with ``clamped_formula`` over its contributions in
    that order."""
    by_id = {r.id: r for r in rb.rules}
    producers: dict[str, list[str]] = {}
    for r in rb.rules:
        producers.setdefault(r.consequent, []).append(r.id)
    readers: dict[str, list[str]] = {rid: [] for rid in by_id}
    waiting = {}
    for r in rb.rules:
        before = {a for p in _refs(r.antecedent) for a in producers.get(p, ())}
        waiting[r.id] = len(before)
        for a in before:
            readers[a].append(r.id)
    ready = [rid for rid, n in waiting.items() if n == 0]
    heapq.heapify(ready)
    env = {
        p.id: obj.facts.get(p.id, 0.0) if p.kind == INPUT else 0.0
        for p in rb.propositions.values()
    }
    contributions: dict[str, list[float]] = {}
    while ready:
        rule = by_id[heapq.heappop(ready)]
        a = _antecedent_cf(rule.antecedent, env)
        if a > threshold:
            terms = contributions.setdefault(rule.consequent, [])
            terms.append(rule.weight * a)
            cf = 0.0
            for c in terms:
                cf = clamped_formula(cf, c)
            env[rule.consequent] = cf
        for nxt in readers[rule.id]:
            waiting[nxt] -= 1
            if waiting[nxt] == 0:
                heapq.heappush(ready, nxt)
    assert not any(waiting.values()), "cyclic rule base"
    return env


def reference_firing(rb: RuleBase, obj: TrainingObject, threshold: float) -> set[str]:
    """The ids of the rules whose antecedent, worked out from
    reference_eval's CFs, exceeds the threshold: the rules that fire."""
    env = reference_eval(rb, obj, threshold)
    return {r.id for r in rb.rules if _antecedent_cf(r.antecedent, env) > threshold}


def reference_load_dataset(path) -> list[TrainingObject]:
    """load_dataset with every fact checked and converted one at a time."""
    objects = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"line {lineno}"
            doc = decode_json(line, where)
            if not isinstance(doc, dict):
                raise ParseError("object must be a JSON object", where)
            oid = _take(doc, "id", where, str)
            label = _take(doc, "label", where, str)
            raw_facts = _take(doc, "facts", where, dict, required=False, default={})
            facts = {}
            for k, v in raw_facts.items():
                if not isinstance(v, (int, float)) or isinstance(v, bool) or not is_cf(v):
                    raise ParseError(f"fact {k!r} is not a certainty factor: {v!r}", where)
                facts[k] = float(v)
            if oid in seen:
                raise ParseError(f"duplicate object id {oid!r}", where)
            seen.add(oid)
            objects.append(TrainingObject(id=oid, facts=facts, label=label))
    return objects

