"""Forward-chaining evaluation of one object: the full pass, and the probes
a trainer makes one weight at a time.  Each mechanism is stated once:

- when a rule fires and how a consequent folds: ``evaluate_full``;
- the plan key a probe checks, the fold invariant, the undo log's entries,
  and the prefix accumulators with their validity rule: ``ObjectEvaluation``;
- the walk over the leading steps and when it holds: ``ObjectEvaluation``;
- the incremental re-fire and why it is bit-exact: ``perturb_weight``;
- the undo log's replay: ``restore_weight``;
- the read-only probe, fed by a scan or a firing list: ``probe_consequent``;
- which a trainer's probe takes: ``optimizer._Session._probe_objective``.

``combine_parallel`` and ``eval_expr`` are looked up as module globals at
every call, so a wrapper installed on this module sees every combine and
every antecedent evaluation.  Evaluations of distinct objects are
independent; one ObjectEvaluation is single-owner mutable state.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import copysign
from typing import Sequence

from .algebra import combine_parallel, eval_expr
from .errors import InconsistentState, NoOutputClasses
from .model import FiringPlan, RuleBase, TrainingObject

_ZEROS = array("d", [0.0])  # times the slot count: a pass's prefix array


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

    plan_key is the key of the firing plan the last full pass walked (see
    model.FiringPlan), or None before any.  perturb_weight and
    probe_consequent refuse the state, with InconsistentState and before
    any write, under a base whose plan has another key: any other base,
    ``rb.copy()`` of its own included.  No trainer probes such a state,
    since each session evaluates its own copy.  A deep copy of the state
    keeps its key, so it is accepted under its base as the original is.

    undo is the pending undo log, or None: it exists only while a
    perturb's writes are in the state.  It holds the perturbed rule's id
    and antecedent CF, the contribution it overwrote, and one (slot, old
    contribution, consequent, old CF) entry per re-fire, in re-fire order.
    A perturb that writes starts a fresh log, one of a silent rule writes
    nothing; a full pass and a replayed restore clear the log.

    prefix is None (the default) or an ``array('d')`` of prefix
    accumulators: a full pass records, before each slot k, the fold from
    0.0 of its consequent's slots [lo, k), so a re-fire refolds only
    [start, hi) from ``prefix[start]`` (start: see RuleBase.closure_plan).
    The prefixes hold the last full pass's contributions, so they are
    valid only while non-empty and no undo log is pending; a perturb that
    writes while one is (a kept perturb, or a restore that re-fired)
    empties them until the next full pass.

    walk is None (the default) or a tuple, which a caller sets to () to ask
    for a walk: (object, folded steps), one per leading step of the plan
    (see model.FiringPlan), (id, [(slot, rule, antecedent CF), ...]) over
    the rules that fire.  A leading rule reads only inputs, so a pass that
    finds no walk of its own compiles one from the object's facts before any
    step; every walking pass folds those entries with no read and no
    threshold test, then reads the read steps.  A walk holds while its
    object is the pass's and the state's plan_key and threshold equal the
    pass's, which is enough: every pass that sets them keeps or compiles the
    walk, and a pass that raises sets none.  Mutating ``obj.facts`` in place
    while a state keeps a walk of ``obj`` is unsupported.  A walking pass
    records no prefix at a silent slot of a folded step, which no probe
    reads: probe_consequent reads ``prefix[slot]`` only where the rule
    fires, and a perturb's start is its own slot, read only where it fires,
    or the slot of a rule that reads a derived proposition.
    """

    __slots__ = ("object_id", "prop_cf", "contributions", "threshold", "counters", "undo", "prefix",
                 "plan_key", "walk")

    def __init__(self, object_id: str):
        self.object_id = object_id
        self.prop_cf: dict[str, float] = {}
        self.contributions: list[float | None] = []
        self.threshold = DEFAULT_POLICY.threshold
        self.counters = EvalCounters()
        self.undo: tuple[str, float, float, list] | None = None
        self.prefix: array | None = None
        self.plan_key: int | None = None
        self.walk: tuple | None = None


def evaluate_full(
    rb: RuleBase,
    obj: TrainingObject,
    policy: FiringPolicy = DEFAULT_POLICY,
    into: ObjectEvaluation | None = None,
) -> ObjectEvaluation:
    """Evaluate every rule once, walking the rule base's firing plan: each
    produced proposition in plan order, its incoming rules in slot order.

    A rule fires when its antecedent CF (a bare reference read from the CF
    map, any other antecedent through eval_expr) exceeds the policy's
    threshold, and its contribution, weight x antecedent CF, is pooled into
    the consequent's CF.  Inputs missing from the object's facts default to
    CF 0; derived propositions no rule fires into stay at CF 0.  Every
    produced proposition folds from 0.0 and is bound, so on an unchecked
    base a rule concluding an input overrides its fact, and an undeclared
    consequent reads as 0 while no rule fires into it.  Pass ``into`` to
    reuse a state object: its CFs, contributions and threshold are
    replaced, its prefix accumulators (if it keeps them) are refilled, its
    walk (if it asked for one) is compiled if it does not hold and folded,
    and its counters keep accumulating.
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
    threshold = policy.threshold
    env = plan.initial.copy()
    facts = obj.facts
    for p in plan.inputs:
        env[p] = facts.get(p, 0.0)
    walk = state.walk
    held = walk and walk[0] is obj and state.plan_key == plan.key and state.threshold == threshold
    if walk is not None and not held:
        walk = (obj, _walk(plan, env, threshold))
    folded, read = (walk[1], plan.steps[plan.read_from:]) if walk else ((), plan.steps)
    n = len(plan.refires)
    contribs: list[float | None] = [None] * n
    pre = None if state.prefix is None else _ZEROS * n
    fired = 0
    for prop_id, entries in folded:
        acc = 0.0
        for slot, rule, a in entries:
            if pre is not None:  # the accumulator before this slot
                pre[slot] = acc
            c = rule.weight * a
            contribs[slot] = c
            acc = combine_parallel(acc, c)
        fired += len(entries)
        env[prop_id] = acc
    for prop_id, entries in read:
        acc = 0.0
        for slot, rule, leaf in entries:
            if pre is not None:
                pre[slot] = acc
            a = env[leaf] if type(leaf) is str else eval_expr(leaf, env)
            if a > threshold:
                c = rule.weight * a
                contribs[slot] = c
                acc = combine_parallel(acc, c)
                fired += 1
        env[prop_id] = acc
    state.walk = walk
    state.prop_cf = env
    state.contributions = contribs
    state.prefix = pre
    state.threshold = threshold
    state.undo = None
    state.plan_key = plan.key
    state.counters.rules_fired += fired
    return state


def _walk(plan: FiringPlan, env: dict[str, float], threshold: float) -> list:
    """The folded steps of a walk (see ObjectEvaluation), compiled from the
    inputs bound in ``env``: each leading rule's antecedent is read once."""
    return [(prop_id, [(slot, rule, a) for slot, rule, leaf in entries
                       if (a := env[leaf] if type(leaf) is str else eval_expr(leaf, env)) > threshold])
            for prop_id, entries in plan.steps[:plan.read_from]]


def _fold(contrib: list[float | None], lo: int, hi: int, acc: float = 0.0) -> float:
    """Fold the contributions in slots [lo, hi) onto ``acc``, in slot order."""
    for c in contrib[lo:hi]:
        if c is not None:
            acc = combine_parallel(acc, c)
    return acc


def perturb_weight(state: ObjectEvaluation, rb: RuleBase, rule_id: str, new_weight: float) -> int:
    """Re-evaluate the state in place as if the rule's weight were
    ``new_weight`` (the base is not read for it, so probing never mutates
    the base); returns the number of rules re-fired, 0 exactly when the
    rule does not fire.

    The rule re-fires first, under the threshold of the state's full pass.
    Only when that changed its consequent's CF is the rest of its closure
    plan walked, re-firing each entry whose antecedent reads a proposition
    whose CF changed.  A re-fire reads its antecedent as the full pass does
    and refolds its consequent over [lo, hi), or from its prefix while
    valid (see ObjectEvaluation): the fold sequence of a full pass.
    Propagation stops only where a CF is bitwise unchanged, so the state
    ends bit-identical to a fresh full pass.  Each entry overwritten goes
    to a fresh undo log, for restore_weight.
    """
    # the cached plan without a method call; closure_plan builds a missing one
    plan = rb._closure_plans.get(rule_id) or rb.closure_plan(rule_id)
    if state.plan_key != rb._plan.key:  # built with the closure plan
        raise InconsistentState(f"state of object {state.object_id!r} was not evaluated under this base")
    contrib = state.contributions
    prop_cf = state.prop_cf
    _, leaf, cons, _, slot, lo, hi, start = plan[0]
    a = prop_cf[leaf] if type(leaf) is str else eval_expr(leaf, prop_cf)
    saved = contrib[slot]
    if (a > state.threshold) != (saved is not None):
        raise InconsistentState(f"rule {rule_id!r} firing status disagrees with stored contributions")
    if saved is None:
        return 0  # weight is irrelevant while the rule does not fire
    pre = state.prefix
    if pre and state.undo is not None:
        del pre[:]  # the pending log's writes are still in the state
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
    states: Sequence[ObjectEvaluation], rb: RuleBase, rule_id: str, new_weight: float,
    fires: Sequence[tuple[int, float]] | None = None,
) -> tuple[str, list[int], list[float]]:
    """The read-only probe, for a rule whose closure plan is the rule alone
    (ValueError otherwise): no rule reads its consequent, so a displaced
    weight changes that one CF and nothing else.

    Returns the consequent, the positions of the states the rule fires in,
    and per such state the CF perturb_weight(state, rb, rule_id,
    new_weight) would give the consequent: the accumulator before the
    rule's slot (its prefix while valid, else the fold of [lo, slot)),
    combined with new_weight x the antecedent CF, then the firing slots of
    (slot, hi).  ``fires`` gives those states as (position, antecedent CF)
    pairs in position order, as a session lists them from its walks;
    without it the probe scans every state and reads the antecedent of
    each whose stored contribution at the rule's slot is not None.  One
    loop takes either source and checks each firing state's plan key (see
    ObjectEvaluation) and status.  So the scan refuses a state of another
    plan anywhere and a contribution stored where the rule is silent, but
    skips as silent a state whose contribution was cleared; a list refuses
    a listed state of another plan or holding None, and never reads a
    silent state, on which the value does not depend.  It fires and
    combines as that perturb would (whose replayed restore does neither),
    so work counters read the same by either route; it writes only the
    firing counters, after every state passed its checks."""
    plan = rb.closure_plan(rule_id)
    if len(plan) != 1:
        raise ValueError(f"rule {rule_id!r} has dependents; perturb_weight probes it")
    _, leaf, cons, _, slot, lo, hi, _ = plan[0]
    key = rb.firing_plan().key
    if fires is None:
        fires = []
        for i, state in enumerate(states):
            if state.plan_key != key:
                raise InconsistentState(f"state of object {state.object_id!r} was not evaluated under this base")
            if state.contributions[slot] is not None:
                prop_cf = state.prop_cf
                fires.append((i, prop_cf[leaf] if type(leaf) is str else eval_expr(leaf, prop_cf)))
    positions, cfs = [], []
    for i, a in fires:
        state = states[i]
        if state.plan_key != key:
            raise InconsistentState(f"state of object {state.object_id!r} was not evaluated under this base")
        contrib = state.contributions
        if contrib[slot] is None or not a > state.threshold:
            raise InconsistentState(f"rule {rule_id!r} firing status disagrees with stored contributions")
        pre = state.prefix
        acc = combine_parallel(pre[slot] if pre and state.undo is None else _fold(contrib, lo, slot),
                               new_weight * a)
        for c in contrib[slot + 1:hi]:
            if c is not None:
                acc = combine_parallel(acc, c)
        positions.append(i)
        cfs.append(acc)
    for i in positions:  # a refused call writes nothing
        states[i].counters.rules_fired += 1
    return cons, positions, cfs


def restore_weight(state: ObjectEvaluation, rb: RuleBase, rule_id: str, old_weight: float) -> int:
    """Inverse of perturb_weight: return the state to the rule's weight
    ``old_weight``; returns the number of rules re-fired.

    When the pending undo log is this rule's and ``old_weight`` gives the
    contribution the log saved, bit for bit, the log is written back in
    reverse and consumed: no combine arithmetic, no firing, and 0 is
    returned, so the state is the pre-probe one by construction.  The log
    assumes the base was not changed between the perturb and the restore.
    Otherwise (no pending log, another rule's log, or another contribution)
    the closure re-fires exactly as perturb_weight(old_weight) would.  A
    replayed log needs no plan-key check: only a perturb that passed one
    writes a log, and any full pass clears it.
    Either way the state ends bit-identical to a fresh full pass at
    ``old_weight``, and a probe pair costs one closure re-fire, not two: on
    a flat base, one refold of [start, hi) plus O(1) bookkeeping.
    """
    undo = state.undo
    if undo is not None and undo[0] == rule_id:
        _, a, saved, log = undo
        c = old_weight * a
        # == alone would let a -0.0 contribution stand in for +0.0
        if c == saved and (c or copysign(1.0, c) == copysign(1.0, saved)):
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
