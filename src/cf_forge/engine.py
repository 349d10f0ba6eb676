"""Forward-chaining evaluation of one object, full-pass and incremental.

Both paths walk the rule base's compiled firing plan (``RuleBase.
firing_plan``).  ``evaluate_full`` takes each produced proposition in plan
order and fires its incoming rules once, in incoming order.  A rule fires
when its antecedent CF exceeds the firing threshold; its contribution,
weight x antecedent CF, is pooled into the consequent's CF.  An antecedent
that is a bare reference is read straight from the CF map; any other goes
through ``eval_expr``.

``perturb_weight`` is the incremental path: changing a single rule's weight
re-fires only that rule and the rules downstream of its consequent, walking
the rule's cached closure plan.  Each affected proposition is refolded from
its stored contribution list in the static topological order of its
incoming rules, which replays exactly the fold sequence a full pass would
execute.  Propagation stops only where a proposition's CF is bitwise
unchanged, so incremental results are bit-identical to a fresh full pass.

Every perturb records the ``prop_cf``, ``rule_ante`` and contribution
entries it overwrites in an undo log on the state; each perturb starts a
fresh log, and ``evaluate_full`` clears it.  ``restore_weight`` writes a
matching log back in reverse, with no combine arithmetic and no firing, so
the return to the pre-probe state is identical by construction.  A restore
the log cannot serve (no pending log, another rule's log, or a weight whose
contribution is not the one the log saved) re-fires the closure like a
perturb.  A probe therefore costs one closure re-fire, not two.

``combine_parallel`` and ``eval_expr`` are looked up as module globals at
every call, so a wrapper installed on this module sees every combine and
every antecedent evaluation.

Evaluations of distinct objects are independent; a single ObjectEvaluation
is single-owner mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign
from typing import Mapping

from .algebra import combine_parallel, eval_expr
from .errors import InconsistentState, NoOutputClasses
from .model import RuleBase, TrainingObject


@dataclass
class FiringPolicy:
    """Engine knobs.

    threshold: a rule fires only when its antecedent CF is strictly above
    this value (default 0.0; raising it introduces discontinuities into the
    objective-over-weights surface for deep bases, so train with care).
    """

    threshold: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.threshold < 1.0):  # also rejects NaN
            raise ValueError(f"firing threshold must be in [0, 1): {self.threshold!r}")


DEFAULT_POLICY = FiringPolicy()

_ABSENT = object()  # undo-log value of an entry that did not exist


@dataclass
class EvalCounters:
    """Monotone work counters: rules_fired accumulates every rule firing
    (full passes and incremental re-fires); full_passes counts only
    evaluate_full calls."""

    rules_fired: int = 0
    full_passes: int = 0


class ObjectEvaluation:
    """Cached inference state for one object.

    prop_cf holds every proposition's combined CF; rule_ante every rule's
    antecedent CF; contributions maps each produced proposition to the
    contributions of its currently-firing rules, keyed by rule id.  The
    refold invariant: each produced proposition's CF equals the fold of its
    stored contributions in the rule base's incoming order.

    undo is the last perturb's undo log, or None: the perturbed rule's id,
    the contribution it overwrote (None when the rule does not fire), and
    the (mapping, key, old value) of every entry the perturb wrote, in
    write order.
    """

    __slots__ = ("object_id", "prop_cf", "rule_ante", "contributions", "counters", "undo")

    def __init__(self, object_id: str):
        self.object_id = object_id
        self.prop_cf: dict[str, float] = {}
        self.rule_ante: dict[str, float] = {}
        self.contributions: dict[str, dict[str, float]] = {}
        self.counters = EvalCounters()
        self.undo: tuple[str, float | None, list] | None = None

    def check_consistent(self, rb: RuleBase) -> None:
        """Verify the refold invariant; raises InconsistentState."""
        for prop_id, bucket in self.contributions.items():
            acc = _refold(rb.incoming_rules(prop_id), bucket)
            if acc != self.prop_cf[prop_id]:
                raise InconsistentState(
                    f"object {self.object_id!r}: proposition {prop_id!r} CF "
                    f"{self.prop_cf[prop_id]!r} != refold {acc!r}"
                )


def evaluate_full(
    rb: RuleBase,
    obj: TrainingObject,
    policy: FiringPolicy = DEFAULT_POLICY,
    into: ObjectEvaluation | None = None,
) -> ObjectEvaluation:
    """Evaluate every rule once, walking the rule base's firing plan.

    Inputs missing from the object's facts default to CF 0; derived
    propositions no rule fires into stay at CF 0.  Pass ``into`` to reuse a
    state object: its CF maps are rebuilt from scratch and its counters
    keep accumulating.
    """
    if into is None:
        state = ObjectEvaluation(obj.id)
    else:
        if into.object_id != obj.id:
            raise InconsistentState(
                f"state for object {into.object_id!r} reused for {obj.id!r}"
            )
        state = into
    plan = rb.firing_plan()
    env = plan.initial.copy()
    facts = obj.facts
    for p in plan.inputs:
        env[p] = facts.get(p, 0.0)
    contribs: dict[str, dict[str, float]] = {}
    ante: dict[str, float] = {}
    threshold = policy.threshold
    fired = 0
    for prop_id, entries in plan.steps:
        bucket: dict[str, float] = {}
        # the fold starts from the proposition's CF: 0.0 when it is derived,
        # the fact when an unchecked base concludes an input; a consequent
        # that is not declared stays unbound unless a rule fires into it
        acc = env.get(prop_id, 0.0)
        for rule, rule_id, leaf in entries:
            a = env[leaf] if type(leaf) is str else eval_expr(leaf, env)
            ante[rule_id] = a
            if a > threshold:
                c = rule.weight * a
                bucket[rule_id] = c
                acc = combine_parallel(acc, c)
        contribs[prop_id] = bucket
        if bucket:
            env[prop_id] = acc
            fired += len(bucket)
    state.prop_cf = env
    state.rule_ante = ante
    state.contributions = contribs
    state.undo = None
    state.counters.rules_fired += fired
    state.counters.full_passes += 1
    return state


def _refold(incoming: tuple[str, ...], bucket: Mapping[str, float]) -> float:
    """Fold a bucket's contributions in the consequent's incoming order."""
    acc = 0.0
    for rid in incoming:
        c = bucket.get(rid)
        if c is not None:
            acc = combine_parallel(acc, c)
    return acc


def perturb_weight(
    state: ObjectEvaluation,
    rb: RuleBase,
    rule_id: str,
    new_weight: float,
    policy: FiringPolicy = DEFAULT_POLICY,
) -> int:
    """Re-evaluate the state as if the rule's weight were ``new_weight``.

    Only the rule itself and the affected part of its downstream closure
    re-fire; the state is updated in place, and every entry overwritten is
    recorded in a fresh undo log (see restore_weight).  Returns the number
    of rules re-fired (at most the size of the downstream closure).  The
    rule base itself is not consulted for the perturbed rule's weight, so
    probing never requires mutating the base.
    """
    plan = rb.closure_plan(rule_id)
    _, _, cons, _, incoming = plan[0]
    a = state.rule_ante.get(rule_id)
    if a is None:
        raise InconsistentState(f"no antecedent recorded for rule {rule_id!r}")
    threshold = policy.threshold
    contributions = state.contributions
    bucket = contributions.get(cons)
    if bucket is None:
        raise InconsistentState(f"no contribution bucket for proposition {cons!r}")
    firing = a > threshold
    if firing != (rule_id in bucket):
        raise InconsistentState(
            f"rule {rule_id!r} firing status disagrees with stored contributions"
        )
    if not firing:
        state.undo = (rule_id, None, [])
        return 0  # weight is irrelevant while the rule does not fire
    fired = 1
    prop_cf = state.prop_cf
    rule_ante = state.rule_ante
    old_cf = prop_cf[cons]
    log = [(bucket, rule_id, bucket[rule_id]), (prop_cf, cons, old_cf)]
    state.undo = (rule_id, bucket[rule_id], log)
    bucket[rule_id] = new_weight * a
    new_cf = _refold(incoming, bucket)
    prop_cf[cons] = new_cf
    if new_cf == old_cf:
        state.counters.rules_fired += fired
        return fired
    changed = {cons}
    for r, leaf, cons2, refs, incoming2 in plan[1:]:
        if changed.isdisjoint(refs):
            continue
        rid = r.id
        a2 = prop_cf[leaf] if type(leaf) is str else eval_expr(leaf, prop_cf)
        log.append((rule_ante, rid, rule_ante[rid]))
        rule_ante[rid] = a2
        fired += 1
        b2 = contributions[cons2]
        log.append((b2, rid, b2.get(rid, _ABSENT)))
        if a2 > threshold:
            b2[rid] = r.weight * a2
        else:
            b2.pop(rid, None)
        old2 = prop_cf[cons2]
        log.append((prop_cf, cons2, old2))
        new2 = _refold(incoming2, b2)
        prop_cf[cons2] = new2
        if new2 != old2:
            changed.add(cons2)
    state.counters.rules_fired += fired
    return fired


def restore_weight(
    state: ObjectEvaluation,
    rb: RuleBase,
    rule_id: str,
    old_weight: float,
    policy: FiringPolicy = DEFAULT_POLICY,
) -> int:
    """Inverse of perturb_weight: return the state to the rule's weight
    ``old_weight``; returns the number of rules re-fired.

    When the pending undo log is this rule's and ``old_weight`` gives the
    contribution the log saved, bit for bit (always, for a rule that does
    not fire), the log is written back in reverse and consumed: no combine
    arithmetic, no firing, and 0 is returned.  The log assumes the base was
    not changed between the perturb and the restore.  Otherwise (no pending
    log, another rule's log, or another contribution) the closure re-fires
    exactly as perturb_weight(old_weight) would.  Either way the state ends
    bit-identical to a fresh full pass at ``old_weight``.
    """
    if state.undo is not None and state.undo[0] == rule_id:
        _, saved, log = state.undo
        if saved is None or _same_bits(old_weight * state.rule_ante[rule_id], saved):
            state.undo = None
            for mapping, key, old in reversed(log):
                if old is _ABSENT:
                    mapping.pop(key, None)
                else:
                    mapping[key] = old
            return 0
    return perturb_weight(state, rb, rule_id, old_weight, policy)


def _same_bits(x: float, y: float) -> bool:
    # == alone would let a -0.0 contribution stand in for +0.0
    return x == y and (x != 0.0 or copysign(1.0, x) == copysign(1.0, y))


def classify(state: ObjectEvaluation, rb: RuleBase) -> str:
    """The output class with the highest CF; ties go to the
    lexicographically smallest class id."""
    classes = rb.output_classes
    if not classes:
        raise NoOutputClasses("rule base declares no output classes")
    best_id = classes[0]
    best_cf = state.prop_cf[best_id]
    for cid in classes[1:]:
        cf = state.prop_cf[cid]
        if cf > best_cf:
            best_id, best_cf = cid, cf
    return best_id
