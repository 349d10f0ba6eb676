"""Forward-chaining evaluation of one object, full-pass and incremental.

Both paths walk the rule base's compiled firing plan (``RuleBase.
firing_plan``).  Every rule has a slot, its position in the plan, and each
produced proposition owns the contiguous slot range of its incoming rules.
``evaluate_full`` takes each produced proposition in plan order and fires
its incoming rules once, in slot order.  A rule fires when its antecedent
CF exceeds the firing threshold; its contribution, weight x antecedent CF,
is pooled into the consequent's CF, folded from 0.0.  An antecedent that is
a bare reference is read straight from the CF map; any other goes through
``eval_expr``.  The state keeps each proposition's CF, each rule's
contribution in a flat list indexed by slot, and the threshold the pass
fired under.

``perturb_weight`` is the incremental path: changing a single rule's weight
re-fires only that rule and the rules downstream of its consequent, walking
the rule's cached closure plan under the threshold the state's full pass
used.  The first entry is the perturbed rule, which contributes the new
weight times its antecedent CF and re-fires before any loop; the rest of
the plan is walked only when that changed its consequent's CF, and each
later entry re-fires when its antecedent reads a proposition whose CF
changed.  A re-fired rule reads its antecedent CF from the CF map as the
full pass does, so a compound antecedent is evaluated again, and its
consequent is refolded over its slot range [lo, hi), which replays exactly
the fold sequence a full pass would execute.  Propagation stops only where
a proposition's CF is bitwise unchanged, so incremental results are
bit-identical to a fresh full pass.

A state may opt in to prefix accumulators (``prefix``, an ``array('d')``):
its full passes then record, before each slot k, the accumulator of slot
k's consequent, the fold from 0.0 of slots [lo, k).  A re-fire then refolds
only [start, hi) from ``prefix[start]``, where start is the lowest slot of
a closure rule with that consequent (see ``RuleBase.closure_plan``): the
slots before it are not in the closure, so the fold skipped would repeat
the same combines on the same values.  The prefixes hold the last full
pass's contributions, so a perturb that starts while a non-empty undo log
is pending (a kept perturb, or a restore that re-fired) empties them, and
re-fires fold from lo, from 0.0, until the next full pass refills them.

Every perturb records what it overwrites in an undo log on the state, one
entry per re-fire: (slot, old contribution, consequent, old CF).  Each
perturb starts a fresh log, and ``evaluate_full`` clears it.
``restore_weight`` writes a matching log back in reverse, with no combine
arithmetic and no firing, so the return to the pre-probe state is identical
by construction.  A restore the log cannot serve (no pending log, another
rule's log, or a weight whose contribution is not the one the log saved)
re-fires the closure like a perturb.  A probe therefore costs one closure
re-fire, not two: on a flat base, one refold of [start, hi) plus O(1)
bookkeeping for the pair.

``probe_consequent`` is the read-only probe, for a rule whose closure plan
is the rule alone: no rule reads its consequent, so a displaced weight
changes that one CF and nothing else.  Given every state, it finds the
ones the rule fires in from the contributions they stored (a silent rule
changes nothing), returns the CF perturb_weight would write into each, and
writes nothing but the firing counter: no contribution, CF, undo log or
prefix.  It fires and combines exactly as the perturb would, and the
replayed restore does neither, so work counters read the same by either
route.

``combine_parallel`` and ``eval_expr`` are looked up as module globals at
every call, so a wrapper installed on this module sees every combine and
every antecedent evaluation.

Evaluations of distinct objects are independent; a single ObjectEvaluation
is single-owner mutable state.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import copysign
from typing import Sequence

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


@dataclass
class EvalCounters:
    """Monotone work counters: rules_fired accumulates every rule firing,
    in full passes and incremental re-fires alike."""

    rules_fired: int = 0


class ObjectEvaluation:
    """Cached inference state for one object.

    prop_cf holds every proposition's combined CF, by id.  contributions is
    a list indexed by rule slot (see FiringPlan): each rule's contribution,
    or None while the rule does not fire.  The fold invariant: each
    produced proposition's CF equals the fold, from 0.0, of the
    contributions in its slot range [lo, hi).  threshold is the firing
    threshold of the last full pass, which perturbs and restores keep.

    undo is the last perturb's undo log, or None: the perturbed rule's id
    and antecedent CF, the contribution it overwrote (None when the rule
    does not fire), and one (slot, old contribution, consequent, old CF)
    entry per re-fire, in re-fire order.

    prefix is None (no prefix accumulators, the default) or an
    ``array('d')``, which each full pass fills with the accumulator before
    every slot; it is empty while stale (see the module docstring).
    """

    __slots__ = ("object_id", "prop_cf", "contributions", "threshold", "counters", "undo", "prefix")

    def __init__(self, object_id: str):
        self.object_id = object_id
        self.prop_cf: dict[str, float] = {}
        self.contributions: list[float | None] = []
        self.threshold = DEFAULT_POLICY.threshold
        self.counters = EvalCounters()
        self.undo: tuple[str, float, float | None, list] | None = None
        self.prefix: array | None = None


def evaluate_full(
    rb: RuleBase,
    obj: TrainingObject,
    policy: FiringPolicy = DEFAULT_POLICY,
    into: ObjectEvaluation | None = None,
) -> ObjectEvaluation:
    """Evaluate every rule once, walking the rule base's firing plan.

    Inputs missing from the object's facts default to CF 0; derived
    propositions no rule fires into stay at CF 0.  Every produced
    proposition folds from 0.0 and is bound, so on an unchecked base a rule
    concluding an input overrides its fact, and an undeclared consequent
    reads as 0 while no rule fires into it.  Pass ``into`` to reuse a state
    object: its CFs, contributions and threshold are replaced, its prefix
    accumulators (if it keeps them) are refilled, and its counters keep
    accumulating.
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
    contribs: list[float | None] = []
    pre = None if state.prefix is None else array("d")
    record = None if pre is None else pre.append
    threshold = policy.threshold
    fired = 0
    for prop_id, entries in plan.steps:
        acc = 0.0
        for rule, leaf in entries:
            if record is not None:  # the accumulator before this slot
                record(acc)
            a = env[leaf] if type(leaf) is str else eval_expr(leaf, env)
            if a > threshold:
                c = rule.weight * a
                contribs.append(c)
                acc = combine_parallel(acc, c)
                fired += 1
            else:
                contribs.append(None)
        env[prop_id] = acc
    state.prop_cf = env
    state.contributions = contribs
    state.prefix = pre
    state.threshold = threshold
    state.undo = None
    state.counters.rules_fired += fired
    return state


def _fold(contrib: list[float | None], lo: int, hi: int, acc: float = 0.0) -> float:
    """Fold the contributions in slots [lo, hi) onto ``acc``, in slot order."""
    for c in contrib[lo:hi]:
        if c is not None:
            acc = combine_parallel(acc, c)
    return acc


def _slots_disagree(state: ObjectEvaluation, n_rules: int) -> InconsistentState:
    return InconsistentState(
        f"state of object {state.object_id!r} holds {len(state.contributions)} rule slots, "
        f"the base has {n_rules} rules"
    )


def perturb_weight(state: ObjectEvaluation, rb: RuleBase, rule_id: str, new_weight: float) -> int:
    """Re-evaluate the state as if the rule's weight were ``new_weight``.

    The rule re-fires with ``new_weight`` under the threshold of the
    state's full pass (unless it does not fire, when nothing changes).
    Only when its consequent's CF changed does a loop walk the rest of the
    rule's closure plan, re-firing each rule whose antecedent reads a
    proposition whose CF changed.  Every re-fire refolds its consequent
    (from its prefix accumulator while the state holds valid ones) and
    writes its contribution and CF.  The state is updated in place, and
    every entry overwritten is recorded in a fresh undo log (see
    restore_weight).  Returns the number of rules re-fired: 0 exactly when
    the rule does not fire, else at most the size of the downstream
    closure.  The rule base itself is not consulted for the perturbed
    rule's weight, so probing never requires mutating the base.
    """
    # the cached plan without a method call; closure_plan builds a missing one
    plan = rb._closure_plans.get(rule_id) or rb.closure_plan(rule_id)
    contrib = state.contributions
    if len(contrib) != len(rb.rules):
        raise _slots_disagree(state, len(rb.rules))
    prop_cf = state.prop_cf
    _, leaf, cons, _, slot, lo, hi, start = plan[0]
    a = prop_cf[leaf] if type(leaf) is str else eval_expr(leaf, prop_cf)
    saved = contrib[slot]
    if (a > state.threshold) != (saved is not None):
        raise InconsistentState(f"rule {rule_id!r} firing status disagrees with stored contributions")
    pre = state.prefix
    undo = state.undo
    if pre and undo is not None and undo[3]:
        del pre[:]  # the pending log's writes are still in the state
    if saved is None:
        state.undo = (rule_id, a, None, [])
        return 0  # weight is irrelevant while the rule does not fire
    old = prop_cf[cons]
    log = [(slot, saved, cons, old)]
    state.undo = (rule_id, a, saved, log)
    contrib[slot] = new_weight * a
    new = _fold(contrib, start, hi, pre[start]) if pre else _fold(contrib, lo, hi)
    prop_cf[cons] = new
    fired = 1
    if len(plan) > 1 and new != old:
        changed = {cons}
        threshold = state.threshold
        for r, leaf, cons, refs, s, lo, hi, start in plan[1:]:
            if changed.isdisjoint(refs):
                continue
            a = prop_cf[leaf] if type(leaf) is str else eval_expr(leaf, prop_cf)
            fired += 1
            old = prop_cf[cons]
            log.append((s, contrib[s], cons, old))
            contrib[s] = r.weight * a if a > threshold else None
            new = _fold(contrib, start, hi, pre[start]) if pre else _fold(contrib, lo, hi)
            prop_cf[cons] = new
            if new != old:
                changed.add(cons)
    state.counters.rules_fired += fired
    return fired


def probe_consequent(
    states: Sequence[ObjectEvaluation], rb: RuleBase, rule_id: str, new_weight: float
) -> tuple[str, list[int], list[float]]:
    """The rule's consequent, the positions of the states it fires in
    (their stored contribution at its slot is not None; a perturb changes
    no other state), and per such state the CF perturb_weight(state, rb,
    rule_id, new_weight) would give the consequent, read without writing:
    the accumulator before the rule's slot (its prefix while the state
    holds valid ones, else the fold of [lo, slot)), combined with
    new_weight x the antecedent CF, then the firing slots of (slot, hi).
    Only for a rule whose closure plan is the rule alone (ValueError
    otherwise), where nothing else can change.  Every state's slot count
    is checked, and each firing state's status, as perturb_weight checks
    them; the counting is perturb_weight's: one firing per firing state."""
    plan = rb.closure_plan(rule_id)
    if len(plan) != 1:
        raise ValueError(f"rule {rule_id!r} has dependents; perturb_weight probes it")
    _, leaf, cons, _, slot, lo, hi, _ = plan[0]
    n_rules = len(rb.rules)
    positions, cfs = [], []
    for i, state in enumerate(states):
        contrib = state.contributions
        if len(contrib) != n_rules:
            raise _slots_disagree(state, n_rules)
        if contrib[slot] is None:
            continue
        prop_cf = state.prop_cf
        a = prop_cf[leaf] if type(leaf) is str else eval_expr(leaf, prop_cf)
        if not a > state.threshold:
            raise InconsistentState(f"rule {rule_id!r} firing status disagrees with stored contributions")
        pre = state.prefix
        undo = state.undo
        if pre and (undo is None or not undo[3]):  # no pending log's writes
            acc = pre[slot]
        else:
            acc = _fold(contrib, lo, slot)
        positions.append(i)
        cfs.append(_fold(contrib, slot + 1, hi, combine_parallel(acc, new_weight * a)))
        state.counters.rules_fired += 1
    return cons, positions, cfs


def restore_weight(state: ObjectEvaluation, rb: RuleBase, rule_id: str, old_weight: float) -> int:
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
    undo = state.undo
    if undo is not None and undo[0] == rule_id:
        _, a, saved, log = undo
        c = old_weight * a
        # == alone would let a -0.0 contribution stand in for +0.0
        if saved is None or (c == saved and (c or copysign(1.0, c) == copysign(1.0, saved))):
            state.undo = None
            contrib = state.contributions
            prop_cf = state.prop_cf
            for s, c, cons, cf in reversed(log):
                contrib[s] = c
                prop_cf[cons] = cf
            return 0
    return perturb_weight(state, rb, rule_id, old_weight)


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
