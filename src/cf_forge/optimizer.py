"""Projected steepest-descent training of rule weights with exact work
accounting.  ``train_multi`` runs ``_Session.descend`` once per start, and
each mechanism is stated once:

- the projection box and convergence on a bound: ``_Session.descend``;
- the one scoring routine of every full pass: ``_Session.score``;
- the difference formulas, and the penalty and terms a gradient reuses
  from its score: ``_Session.gradient``;
- the probe routes, full pass or incremental, and why each gives the
  full-evaluation value bit for bit: ``_Session._probe_objective``;
- the Armijo test along the projection arc: ``_Session.line_search``, and
  its Barzilai-Borwein first trial step: ``_bb_step``;
- the probe-count identity and the firing count: ``EvaluationBudget``,
  checked by ``audit_budget``.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import asdict, dataclass, field, fields
from functools import reduce
from operator import add
from typing import Sequence

from . import metric
from .engine import (
    FiringPolicy,
    ObjectEvaluation,
    evaluate_full,
    perturb_weight,
    probe_consequent,
    restore_weight,
)
from .errors import CfForgeError, EmptyDataset, NoTrainableRules, NonFiniteObjective, ParseError
from .metric import MetricFn, PenaltyConfig, margin_metric, margin_term, penalty
from .model import HARD, SOFT, Rule, RuleBase, TrainingObject, _take

# clip interval of the Barzilai-Borwein first trial step
BB_STEP_MIN = 1e-6
BB_STEP_MAX = 1e3

# types accepted for each annotation of OptimizerConfig and the trace's
# records; a bool only where the annotation says bool
_FIELD_TYPES = {"int": int, "float": (int, float), "float | None": (int, float, type(None)),
                "bool": bool, "PenaltyConfig": PenaltyConfig}


@dataclass
class OptimizerConfig:
    fd_eps: float = 1e-4
    fd_scheme: str = "forward"  # "forward" | "central"
    step_init: float = 0.5
    armijo_c: float = 1e-4
    shrink: float = 0.5
    max_backtracks: int = 30
    max_iters: int = 200
    tol_objective: float = 1e-6  # relative decrease, over tol_objective_window iterations
    tol_objective_window: int = 3
    tol_grad: float = 1e-6  # infinity norm
    use_tms: bool = True  # probes refold margin_metric's terms; other metrics: full passes
    seed: int = 0
    multi_start: int = 1
    holdout_fraction: float = 0.0
    threshold: float = 0.0  # rule firing threshold
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    train_only: tuple[str, ...] | None = None  # None trains every trainable rule

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            types = _FIELD_TYPES.get(f.type)
            if types is not None and (not isinstance(v, types) or (type(v) is bool) != (types is bool)):
                raise ValueError(f"{f.name} must be {f.type}, got {v!r}")
            if f.type == "float" and not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v!r}")
        if not (0.0 < self.fd_eps <= 1.0):  # a larger step probes outside [-1, 1]
            raise ValueError("fd_eps must be in (0, 1]")
        if self.fd_scheme not in ("forward", "central"):
            raise ValueError(f"unknown fd_scheme {self.fd_scheme!r}")
        if self.step_init <= 0.0:
            raise ValueError("step_init must be > 0")
        if not (0.0 <= self.armijo_c < 1.0):
            raise ValueError("armijo_c must be in [0, 1)")
        if not (0.0 < self.shrink < 1.0):
            raise ValueError("shrink must be in (0, 1)")
        if self.max_backtracks < 0:
            raise ValueError("max_backtracks must be >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (0.0 <= self.holdout_fraction < 1.0):
            raise ValueError("holdout_fraction must be in [0, 1)")
        if self.multi_start < 1:
            raise ValueError("multi_start must be >= 1")
        if self.tol_objective_window < 1:
            raise ValueError("tol_objective_window must be >= 1")
        if self.train_only is not None:
            if isinstance(self.train_only, str):  # tuple() would split it into characters
                raise ValueError(f"train_only must list rule ids, got the str {self.train_only!r}")
            self.train_only = tuple(self.train_only)
            if not self.train_only:
                raise ValueError("train_only lists no rule (None trains every rule)")


@dataclass
class EvaluationBudget:
    """Exact work counters for a training run.

    probe_evals counts one per (rule, object) probe, whether the rule fires
    on the object or not (two per pair for non-degenerate central
    differences), in both modes, so a forward-difference run ends with
    ``probe_evals == gradients x objects x trainable_rules`` exactly.
    line_search_evals counts the objects scored for line-search candidates.
    firings sums the engine's rules_fired counters over every state the run
    evaluated (training and holdout), once when the run returns, so a
    restore that replays the undo log adds nothing.
    """

    gradients: int = 0
    objects: int = 0
    trainable_rules: int = 0
    probe_evals: int = 0
    line_search_evals: int = 0
    firings: int = 0


@dataclass
class IterationRecord:
    iteration: int
    objective: float
    metric: float
    penalty: float
    step: float
    grad_inf_norm: float
    backtracks: int
    holdout_objective: float | None = None


@dataclass
class TrainingTrace:
    config: dict
    status: str  # converged_objective | converged_gradient | max_iters | line_search_failed
    initial: dict
    iterations: list[IterationRecord]
    final_weights: dict[str, float]
    budget: EvaluationBudget
    holdout_size: int = 0
    starts: list[dict] | None = None

    @property
    def final_objective(self) -> float:
        if self.iterations:
            return self.iterations[-1].objective
        return self.initial["objective"]

    def to_dict(self) -> dict:
        doc = asdict(self)
        if self.starts is None:
            del doc["starts"]
        return doc

    @classmethod
    def from_dict(cls, doc) -> "TrainingTrace":
        """Rebuild a trace from its JSON document; a missing or mistyped
        field raises ParseError naming it."""
        if not isinstance(doc, dict):
            raise ParseError("trace document must be a JSON object", "$")
        return cls(
            config=_take(doc, "config", "$", dict),
            status=_take(doc, "status", "$", str),
            initial=_take(doc, "initial", "$", dict),
            iterations=[
                _record(IterationRecord, rec, f"iterations[{i}]")
                for i, rec in enumerate(_take(doc, "iterations", "$", list))
            ],
            final_weights=_take(doc, "final_weights", "$", dict),
            budget=_record(EvaluationBudget, _take(doc, "budget", "$", dict), "budget"),
            holdout_size=_take(doc, "holdout_size", "$", int, required=False, default=0),
            starts=_take(doc, "starts", "$", (list, type(None)), required=False),
        )


def _record(cls, doc, where: str):
    """A record dataclass built from a JSON object whose every field is
    present with a type matching the field's annotation."""
    if not isinstance(doc, dict):
        raise ParseError("must be a JSON object", where)
    return cls(**{f.name: _take(doc, f.name, where, _FIELD_TYPES[f.type]) for f in fields(cls)})


def _projection_interval(rule: Rule) -> tuple[float, float]:
    if rule.bound_kind == HARD:
        lo, hi = rule.bounds
        return max(lo, -1.0), min(hi, 1.0)
    return -1.0, 1.0


def _project(rule: Rule, w: float) -> float:
    lo, hi = _projection_interval(rule)
    return min(max(w, lo), hi)


def _bb_step(
    w: list[float], g: list[float], w_prev: list[float], g_prev: list[float], step_init: float
) -> float:
    """Barzilai-Borwein first trial step s.s / s.y (Barzilai & Borwein 1988),
    with s = w - w_prev the last accepted change of the weights and y =
    g - g_prev the change of the gradient over it, clipped to
    [BB_STEP_MIN, BB_STEP_MAX]; ``step_init`` when s.y <= 0."""
    # left folds from 0.0, not sum(): sum() of floats is compensated since
    # CPython 3.12, and a fixed seed must give the same bits on every Python
    ss = sy = 0.0
    for wi, wp, gi, gp in zip(w, w_prev, g, g_prev):
        si = wi - wp
        ss += si * si
        sy += si * (gi - gp)
    if not sy > 0.0:
        return step_init
    return min(max(ss / sy, BB_STEP_MIN), BB_STEP_MAX)


class _Part:
    """Objects scored together, each with one reusable evaluation state."""

    def __init__(self, objects: Sequence[TrainingObject]):
        self.objects = list(objects)
        self.labels = {o.id: o.label for o in self.objects}
        self.states = [ObjectEvaluation(o.id) for o in self.objects]
        self.terms: list[float] | None = None


class _Session:
    """Exclusive-access state of one training run: the working rule base,
    the training part, the holdout part and the budget counters."""

    def __init__(
        self,
        rb: RuleBase,
        objects: Sequence[TrainingObject],
        cfg: OptimizerConfig,
        metric_fn: MetricFn,
        holdout: Sequence[TrainingObject] = (),
        budget: EvaluationBudget | None = None,
    ):
        if not objects:
            raise EmptyDataset("training needs at least one object")
        self.rb = rb
        self.cfg = cfg
        self.metric_fn = metric_fn
        self.policy = FiringPolicy(threshold=cfg.threshold)
        self.classes = rb.output_classes  # sorted: margin_metric's term order
        only = cfg.train_only
        for rid in only or ():
            rb.rule(rid)  # raises UnknownRule
        self.trainable = [r for r in rb.rules if r.trainable and (only is None or r.id in only)]
        if not self.trainable:
            raise NoTrainableRules("no rule is trainable")
        seen: set[str] = set()
        for o in (*objects, *holdout):  # each part keys its labels by id
            if o.id in seen:
                raise CfForgeError(f"object id {o.id!r} appears more than once")
            seen.add(o.id)
        self.train = _Part(objects)
        self.holdout = _Part(holdout)
        # looked up on the module, so a wrapper installed there (as the
        # profiler's is) and passed in still probes incrementally
        self.incremental = cfg.use_tms and metric_fn is metric.margin_metric
        if self.incremental:  # the training states are the ones probes perturb
            for st in self.train.states:
                st.prefix = array("d")
        self.budget = budget if budget is not None else EvaluationBudget()
        self.budget.objects = len(self.train.objects)
        self.budget.trainable_rules = len(self.trainable)

    def score(self, part: _Part) -> tuple[float, float, float]:
        """Full pass over the part's states at the current weights:
        (objective, metric, penalty); NonFiniteObjective when the objective
        is inf or NaN.  Every full pass comes through here, each probe
        that is not ``incremental`` too, so after such a gradient the
        training states hold the last probe, unread, until the next score.
        The part keeps the metric's per-object terms, which the next
        incremental gradient reads."""
        for st, obj in zip(part.states, part.objects):
            evaluate_full(self.rb, obj, self.policy, into=st)
        mv = self.metric_fn(part.states, part.labels, self.classes)
        part.terms = mv.per_object
        m = mv.value
        p = penalty(self.rb, self.cfg.penalty)
        f = m + p
        if not math.isfinite(f):
            raise NonFiniteObjective("objective", f, self.cfg.penalty.coefficient)
        return f, m, p

    def fired(self) -> int:
        """Rules fired so far by every state this session evaluated."""
        parts = (self.train, self.holdout)
        return sum(st.counters.rules_fired for part in parts for st in part.states)

    def _probe_objective(self, rule: Rule, w_probe: float, base_pen: float) -> float:
        """Objective with one weight displaced, everything else fixed;
        ``base_pen`` is the penalty of the undisplaced base.

        A probe that is not ``incremental`` (``use_tms`` off, or any metric
        but margin_metric) is a full pass.  An incremental probe refolds the
        training part's margin_metric terms: only the objects the rule
        fires on can change, and the probe finds them from the states'
        stored contributions, by one of two routes picked by the rule's
        closure alone, never by the object count.  When the rule's closure
        plan is the rule alone (no rule reads its consequent, as on a flat
        base), it only reads: engine.probe_consequent gives the
        consequent's CF on each object the rule fires on, and margin_term
        re-scores those objects with it.  Otherwise perturb_weight runs on
        every state, and each state it re-fired in is re-scored and
        restore_weight replays its undo log.  The terms, those replaced,
        are refolded as margin_metric allows.  Both routes give the same
        value, firings and combines; the engine is exact, and the refolded
        terms and reused penalty are the values a rescan gives, so the
        incremental gradient equals the full-evaluation gradient bit for
        bit at O(closure) firings per changed object."""
        old = rule.weight
        rule.weight = w_probe
        try:
            if not self.incremental:
                value = self.score(self.train)[0]
            else:
                part = self.train
                states, labels, classes = part.states, part.labels, self.classes
                rb, rule_id = self.rb, rule.id
                probed = part.terms.copy()
                if len(rb.closure_plan(rule_id)) == 1:
                    cons, changed, cfs = probe_consequent(states, rb, rule_id, w_probe)
                    for i, cf in zip(changed, cfs):
                        st = states[i]
                        probed[i] = margin_term(st.prop_cf, labels[st.object_id], classes, cons, cf)
                else:
                    # bound per probe, not at import, so a wrapper installed
                    # on this module still sees every call
                    perturb, restore = perturb_weight, restore_weight
                    for i, st in enumerate(states):
                        # 0 re-fires exactly where the rule is silent: nothing changed
                        if perturb(st, rb, rule_id, w_probe):
                            probed[i] = margin_term(st.prop_cf, labels[st.object_id], classes)
                            restore(st, rb, rule_id, old)
                value = reduce(add, probed, 0.0)
                if rule.bound_kind == SOFT:
                    value += penalty(rb, self.cfg.penalty)
                else:  # the rule adds no penalty term at any weight
                    value += base_pen
        finally:
            rule.weight = old
        self.budget.probe_evals += len(self.train.objects)
        return value

    def gradient(self, base_objective: float, base_pen: float) -> list[float]:
        """Finite-difference gradient at the current weights, where score() of
        the training part gave ``base_objective`` and ``base_pen`` (and the
        terms): one component per rule of ``trainable``, in order.  With h =
        ``fd_eps``, a component is the central difference when the scheme is
        central and both w + h and w - h lie in [-1, 1], else the forward
        difference toward the inside of [-1, 1].  An inf or NaN component
        raises NonFiniteObjective."""
        cfg = self.cfg
        h = cfg.fd_eps
        g: list[float] = []
        for rule in self.trainable:
            w = rule.weight
            if cfg.fd_scheme == "central" and w + h <= 1.0 and w - h >= -1.0:
                f_hi = self._probe_objective(rule, w + h, base_pen)
                f_lo = self._probe_objective(rule, w - h, base_pen)
                g.append((f_hi - f_lo) / (2.0 * h))
            else:
                e = h if w + h <= 1.0 else -h
                f = self._probe_objective(rule, w + e, base_pen)
                g.append((f - base_objective) / e)
            if not math.isfinite(g[-1]):
                what = f"gradient component of rule {rule.id!r}"
                raise NonFiniteObjective(what, g[-1], cfg.penalty.coefficient)
        self.budget.gradients += 1
        return g

    def projected_inf_norm(self, g: list[float]) -> float:
        """Infinity norm of the projected gradient: a component is zero
        when its weight sits on a projection bound and -g points outward."""
        norm = 0.0
        for r, v in zip(self.trainable, g):
            lo, hi = _projection_interval(r)
            if not ((r.weight == lo and v > 0.0) or (r.weight == hi and v < 0.0)):
                norm = max(norm, abs(v))
        return norm

    def line_search(
        self, f_base: float, w: list[float], g: list[float], step: float
    ) -> tuple[bool, float, int, float, float, float]:
        """Backtracking search along the projection arc from the weights
        ``w`` of ``trainable``, starting at ``step``: a trial step a is
        accepted when f(P(w - a g)) <= f(w) - armijo_c * g.(w - P(w - a g))
        (Armijo along the projection arc; Bertsekas 1976), one formula for
        free, pinned and partly projected components.  Candidates are
        projected before they are scored, so the recorded objective
        sequence never increases.  A failed search (``max_backtracks``
        exhausted) means the gradient gave no descent direction, e.g. at a
        kink of the objective: the weights ``w`` are restored, not the
        states, since training stops there and never reads them again."""
        cfg = self.cfg
        backtracks = 0
        while True:
            decrease = 0.0  # g . (w - P(w - step g)), >= 0 from a feasible w
            for r, wi, gi in zip(self.trainable, w, g):
                r.weight = _project(r, wi - step * gi)
                decrease += gi * (wi - r.weight)
            self.budget.line_search_evals += len(self.train.objects)
            f_cand, m_cand, p_cand = self.score(self.train)
            # max(): a declared weight outside its hard bound may project
            # against -g, and the search must still not accept an increase
            if f_cand <= f_base - cfg.armijo_c * max(decrease, 0.0):
                return True, step, backtracks, f_cand, m_cand, p_cand
            backtracks += 1
            if backtracks > cfg.max_backtracks:
                for r, wi in zip(self.trainable, w):
                    r.weight = wi
                return False, 0.0, backtracks, f_base, 0.0, 0.0
            step *= cfg.shrink

    def descend(self) -> TrainingTrace:
        """Projected steepest descent from the current weights until a
        stopping rule holds; returns the run's trace, and leaves the weights
        at the last accepted iterate.  Every weight is projected onto its
        interval: the hard bound, else [-1, +1], since weights outside
        [-1, +1] are not valid certainty factors and the objective is
        undefined there.  Convergence (``tol_grad``) is tested on
        projected_inf_norm, so an optimum on a bound is a stationary point,
        not a search failure.  When more than one iteration may run, every
        state asks for a walk (see engine.ObjectEvaluation) before the
        initial score; a one-iteration run's few passes would not repay a
        walk's memory.  The training states' prefixes are dropped once the
        last gradient that reads them is taken."""
        cfg = self.cfg
        if cfg.max_iters > 1:
            for st in (*self.train.states, *self.holdout.states):
                st.walk = ()
        f_cur, m_cur, p_cur = self.score(self.train)
        initial = {"objective": f_cur, "metric": m_cur, "penalty": p_cur}
        if self.holdout.objects:
            initial["holdout_objective"] = self.score(self.holdout)[0]
        records: list[IterationRecord] = []
        status = "max_iters"
        stall = 0
        last = None  # (weights, gradient) where the last accepted step began
        for it in range(1, cfg.max_iters + 1):
            g = self.gradient(f_cur, p_cur)
            if it == cfg.max_iters:  # no gradient reads a prefix after this one
                for st in self.train.states:
                    st.prefix = None
            g_inf = self.projected_inf_norm(g)
            if g_inf <= cfg.tol_grad:
                status = "converged_gradient"
                break
            w = [r.weight for r in self.trainable]
            step = cfg.step_init if last is None else _bb_step(w, g, *last, cfg.step_init)
            ok, step, backtracks, f_new, m_new, p_new = self.line_search(f_cur, w, g, step)
            if not ok:
                status = "line_search_failed"
                break
            last = (w, g)
            rel = (f_cur - f_new) / max(1.0, abs(f_cur))
            f_cur, m_cur, p_cur = f_new, m_new, p_new
            records.append(
                IterationRecord(
                    iteration=it,
                    objective=f_cur,
                    metric=m_cur,
                    penalty=p_cur,
                    step=step,
                    grad_inf_norm=g_inf,
                    backtracks=backtracks,
                    holdout_objective=self.score(self.holdout)[0] if self.holdout.objects else None,
                )
            )
            if rel < cfg.tol_objective:
                stall += 1
                if stall >= cfg.tol_objective_window:
                    status = "converged_objective"
                    break
            else:
                stall = 0
        self.budget.firings += self.fired()
        return TrainingTrace(
            config=asdict(cfg),
            status=status,
            initial=initial,
            iterations=records,
            final_weights={r.id: r.weight for r in self.rb.rules},
            budget=self.budget,
            holdout_size=len(self.holdout.objects),
        )


def gradient(
    rb: RuleBase,
    dataset: Sequence[TrainingObject],
    cfg: OptimizerConfig | None = None,
    metric_fn: MetricFn = margin_metric,
    budget: EvaluationBudget | None = None,
) -> dict[str, float]:
    """Finite-difference gradient of the objective at the rule base's
    current weights, indexed by trainable rule id.  Weights and dataset are
    left untouched; pass a budget to observe the probe accounting."""
    cfg = cfg or OptimizerConfig()
    sess = _Session(rb, dataset, cfg, metric_fn, budget=budget)
    f, _, p = sess.score(sess.train)
    g = sess.gradient(f, p)
    sess.budget.firings += sess.fired()
    return {r.id: v for r, v in zip(sess.trainable, g)}


def holdout_size(fraction: float, n: int, name: str = "holdout_fraction") -> int:
    """round(fraction x n), the objects a holdout holds out of ``n``.  A
    positive fraction that holds out none, or all and leaves none to train
    on, raises EmptyDataset naming ``name`` (the CLI passes its flag)."""
    k = int(round(fraction * n))
    if fraction > 0.0 and k in (0, n):
        what = "none" if k == 0 else "all"
        raise EmptyDataset(f"{name} {fraction!r} holds out {what} of the {n} objects")
    return k


def _split_dataset(
    dataset: Sequence[TrainingObject], cfg: OptimizerConfig
) -> tuple[list[TrainingObject], list[TrainingObject]]:
    k = holdout_size(cfg.holdout_fraction, len(dataset))
    rng = random.Random(cfg.seed)
    idx = list(range(len(dataset)))
    rng.shuffle(idx)
    hold = sorted(idx[:k])
    train_idx = sorted(idx[k:])
    return [dataset[i] for i in train_idx], [dataset[i] for i in hold]


def train(
    rb: RuleBase,
    dataset: Sequence[TrainingObject],
    cfg: OptimizerConfig | None = None,
    metric_fn: MetricFn = margin_metric,
) -> tuple[RuleBase, TrainingTrace]:
    """train_multi() without the per-start traces: a trained copy of the
    rule base (the input is never mutated; weights that are not trained
    come back bit identical) and the best start's trace."""
    return train_multi(rb, dataset, cfg, metric_fn)[:2]


def train_multi(
    rb: RuleBase,
    dataset: Sequence[TrainingObject],
    cfg: OptimizerConfig | None = None,
    metric_fn: MetricFn = margin_metric,
) -> tuple[RuleBase, TrainingTrace, list[TrainingTrace]]:
    """Descend from ``multi_start`` initializations and keep the best.

    The dataset is split once, and each start descends on its own copy of
    the rule base.  Start 0 uses the declared weights; each later start
    adds a seeded uniform perturbation in [-0.3, +0.3] to every trainable
    weight, projected back onto its bounds.  The run with the lowest final
    objective wins and only its copy is kept; ties go to the earliest start.
    """
    cfg = cfg or OptimizerConfig()
    train_objs, holdout_objs = _split_dataset(dataset, cfg)
    rng = random.Random(cfg.seed)
    traces: list[TrainingTrace] = []
    for start in range(cfg.multi_start):
        sess = _Session(rb.copy(), train_objs, cfg, metric_fn, holdout_objs)
        if start > 0:
            for r in sess.trainable:
                r.weight = _project(r, r.weight + rng.uniform(-0.3, 0.3))
        traces.append(sess.descend())
        if start == 0 or traces[-1].final_objective < best.final_objective:
            best_rb, best = sess.rb, traces[-1]
    if cfg.multi_start > 1:
        best.starts = [
            {
                "start": start,
                "initial_objective": trace.initial["objective"],
                "final_objective": trace.final_objective,
                "status": trace.status,
                "iterations": len(trace.iterations),
            }
            for start, trace in enumerate(traces)
        ]
    return best_rb, best, traces


def audit_budget(trace: TrainingTrace) -> str:
    """Check EvaluationBudget's probe-count identity on a forward-difference
    run, incremental or naive.  Returns "pass", "fail", or "skipped"
    (central runs, where a probe at a weight bound falls back to one side)."""
    if trace.config.get("fd_scheme", "forward") != "forward":
        return "skipped"
    b = trace.budget
    expected = b.gradients * b.objects * b.trainable_rules
    return "pass" if b.probe_evals == expected else "fail"


def run_gradient_bench(
    shape: str, n_rules: int, mode: str = "tms", seed: int = 0
) -> dict:
    """One gradient determination on a freshly generated shaped base,
    returning the engine's exact work counters (no wall-clock anywhere)."""
    from .synth import generate_shaped

    if mode not in ("tms", "naive"):
        raise ValueError(f"unknown bench mode {mode!r}")
    rb, objects = generate_shaped(n_rules, shape, seed)
    cfg = OptimizerConfig(use_tms=(mode == "tms"), seed=seed)
    sess = _Session(rb, objects, cfg, margin_metric)
    f, _, p = sess.score(sess.train)
    fired_before = sess.fired()
    sess.gradient(f, p)
    return {
        "shape": shape,
        "rules": n_rules,
        "mode": mode,
        "objects": len(objects),
        "trainable_rules": sess.budget.trainable_rules,
        "gradient_firings": sess.fired() - fired_before,
        "probe_evals": sess.budget.probe_evals,
    }
