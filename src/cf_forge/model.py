"""Rule-base data model: propositions, weighted rules, the dependency graph,
validation, and the on-disk JSON formats.

A rule base is a DAG over propositions: rules produce derived propositions
(their consequents) and read propositions in their antecedents.  Cyclic
bases are rejected outright; the certainty-factor calculus used here has no
fixed-point semantics, and both single-pass forward chaining and
incremental refolding are only sound on acyclic graphs.

The rule-base JSON and dataset JSON Lines formats are in the README's
"File formats"; numbers round-trip bit-exactly (written via the shortest
repr).
"""

from __future__ import annotations

import heapq
import json
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import count
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

from .algebra import And, Expr, Not, Or, Ref, is_cf, referenced_props
from .errors import CyclicDependency, ParseError, UnknownRule, ValidationError

INPUT = "input"
DERIVED = "derived"
KINDS = (INPUT, DERIVED)

HARD = "hard"
SOFT = "soft"
BOUND_KINDS = (HARD, SOFT)

# Deepest antecedent nesting a rule-base file may hold.  The walkers over
# Expr trees (evaluation, validation, serialization) recurse several Python
# frames per level; this keeps them far below the default recursion limit
# of 1000 while exceeding any hand-written antecedent.
MAX_EXPR_DEPTH = 64

_plan_keys = count()  # FiringPlan.key


@dataclass(frozen=True)
class Proposition:
    id: str
    kind: str
    output_class: bool = False


@dataclass
class Rule:
    """One weighted implication.

    The weight scales the antecedent's CF into a contribution to the
    consequent.  Bounds restrict the weights the optimizer may explore:
    hard bounds are enforced by projection after every accepted step, soft
    bounds only through the penalty term of the objective.
    """

    id: str
    antecedent: Expr
    consequent: str
    weight: float = 0.0
    bounds: tuple[float, float] = (-1.0, 1.0)
    bound_kind: str = HARD
    trainable: bool = True


@dataclass(frozen=True)
class FiringPlan:
    """A rule base compiled for the engine, built once per base.

    initial maps every proposition to CF 0, in declaration order; a pass
    copies it and sets ``inputs`` from the object's facts.  ``steps`` lists
    each produced proposition as (id, entries), with the (slot, rule, leaf)
    entries of its incoming rules in incoming order.  The leading steps are
    the propositions that only input-layer rules conclude, whose
    antecedents read only inputs that no rule concludes: whether one fires
    depends on the object's facts and the threshold, never on a weight.
    The read steps, from ``steps[read_from]`` on, are the rest.  Each group
    is ordered by the topological position of its last producer, so every
    proposition is final before any rule reads it.  A rule's slot is its
    position when the steps' entries are laid end to end, so each produced
    proposition owns the contiguous slot range [lo, hi) of its incoming
    rules.  ``refires`` maps each rule id to the entry a probe re-fires it
    from: (rule, leaf, consequent, antecedent refs, slot, lo, hi, start),
    start being the rule's own slot until ``RuleBase.closure_plan`` lowers
    it.  A leaf is the proposition id when the antecedent is a bare Ref to
    a declared proposition, else the antecedent Expr.  Rules are held by
    reference, so weights stay live.  ``key`` is drawn from a process-wide
    counter when the plan is built, so no two plans share one; a full pass
    stamps it on its state, and a probe refuses a state stamped with
    another (see engine.ObjectEvaluation).
    """

    initial: dict[str, float]
    inputs: tuple[str, ...]
    steps: tuple[tuple[str, tuple[tuple[int, Rule, str | Expr], ...]], ...]
    read_from: int
    refires: dict[str, tuple[Rule, str | Expr, str, frozenset[str], int, int, int, int]]
    key: int = field(init=False, default_factory=_plan_keys.__next__)


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by validate()."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


@dataclass
class TrainingObject:
    """One labeled object: input-fact CFs (unknown inputs omitted) plus its
    true output class."""

    id: str
    facts: dict[str, float]
    label: str


class RuleBase:
    """Propositions plus rules, with cached dependency-graph queries and the
    engine's compiled firing plan.

    The structure (propositions, rule antecedents/consequents) is treated
    as frozen once built; only rule *weights* may be mutated, and only
    under exclusive access.  Graph caches therefore never invalidate, and
    the plans, which hold the Rule objects themselves, see every weight.
    """

    def __init__(self, propositions: Iterable[Proposition], rules: Iterable[Rule]):
        self.propositions: dict[str, Proposition] = {}
        for p in propositions:
            if p.id in self.propositions:
                raise ParseError(f"duplicate proposition id {p.id!r}")
            self.propositions[p.id] = p
        self.rules: list[Rule] = list(rules)
        self.rules_by_id: dict[str, Rule] = {}
        for r in self.rules:
            if r.id in self.rules_by_id:
                raise ParseError(f"duplicate rule id {r.id!r}")
            self.rules_by_id[r.id] = r
        self.output_classes: tuple[str, ...] = tuple(
            sorted(p.id for p in self.propositions.values() if p.output_class)
        )
        self._topo: tuple[str, ...] | None = None
        self._pos: dict[str, int] = {}
        self._refs: dict[str, frozenset[str]] = {}
        self._dependents: dict[str, tuple[str, ...]] = {}
        self._incoming: dict[str, tuple[str, ...]] = {}
        self._plan: FiringPlan | None = None
        self._closure_plans: dict[str, tuple] = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, RuleBase):
            return NotImplemented
        return self.propositions == other.propositions and self.rules == other.rules

    def copy(self) -> "RuleBase":
        """A base of its own Rule objects, so that its weights can change
        without touching this one; propositions and the frozen antecedents
        are shared."""
        return RuleBase(self.propositions.values(), [replace(r) for r in self.rules])

    def rule(self, rule_id: str) -> Rule:
        try:
            return self.rules_by_id[rule_id]
        except KeyError:
            raise UnknownRule(f"unknown rule {rule_id!r}") from None

    def incoming_rules(self, prop_id: str) -> tuple[str, ...]:
        """Rules with this consequent, in topological firing order."""
        self._ensure_graph()
        return self._incoming.get(prop_id, ())

    def topological_order(self) -> tuple[str, ...]:
        """Rule ids ordered so every rule follows all producers of the
        propositions its antecedent reads; ties broken by rule id."""
        self._ensure_graph()
        return self._topo

    def downstream_closure(self, rule_id: str) -> frozenset[str]:
        """The rule plus, transitively, every rule depending on a member's
        consequent."""
        self.rule(rule_id)
        self._ensure_graph()
        seen = {rule_id}
        stack = [rule_id]
        while stack:
            for nxt in self._dependents[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    def closure_order(self, rule_id: str) -> tuple[str, ...]:
        """downstream_closure in topological order; the rule comes first."""
        return tuple(sorted(self.downstream_closure(rule_id), key=self._pos.__getitem__))

    def firing_plan(self) -> FiringPlan:
        """The compiled plan every engine pass walks; built on first use."""
        if self._plan is not None:
            return self._plan
        self._ensure_graph()
        props = self.propositions
        incoming = self._incoming
        by_id = self.rules_by_id
        inputs = tuple(p.id for p in props.values() if p.kind == INPUT)
        free = set(inputs).difference(incoming)  # inputs no rule concludes
        leading = {p for p, rids in incoming.items() if all(self._refs[rid] <= free for rid in rids)}
        steps = []
        refires = {}
        lo = 0
        for p in sorted(incoming, key=lambda p: (p not in leading, self._pos[incoming[p][-1]])):
            hi = lo + len(incoming[p])
            entries = []
            for slot, rid in enumerate(incoming[p], lo):
                r = by_id[rid]
                e = r.antecedent
                leaf = e.prop if type(e) is Ref and e.prop in props else e
                entries.append((slot, r, leaf))
                refires[rid] = (r, leaf, p, self._refs[rid], slot, lo, hi, slot)
            steps.append((p, tuple(entries)))
            lo = hi
        self._plan = FiringPlan(
            initial=dict.fromkeys(props, 0.0),
            inputs=inputs,
            steps=tuple(steps),
            read_from=len(leading),
            refires=refires,
        )
        return self._plan

    def closure_plan(self, rule_id: str) -> tuple:
        """The firing plan's re-fire entries of closure_order(rule_id), with
        start lowered to the lowest slot of a closure rule with the entry's
        consequent: a probe refolds the consequent from there, since the
        closure can change no slot below it."""
        cached = self._closure_plans.get(rule_id)
        if cached is None:
            refires = self.firing_plan().refires
            entries = [refires[rid] for rid in self.closure_order(rule_id)]
            start: dict[str, int] = {}
            for _, _, cons, _, slot, _, _, _ in entries:
                start[cons] = min(start.get(cons, slot), slot)
            # entries keep sharing the plan's tuples where start is unchanged
            cached = tuple(e if e[7] == start[e[2]] else e[:7] + (start[e[2]],) for e in entries)
            self._closure_plans[rule_id] = cached
        return cached

    def _ensure_graph(self) -> None:
        """Build every graph cache in one Kahn pass: rule a -> rule b when
        b's antecedent reads a's consequent.  Unknown proposition
        references contribute no edges."""
        if self._topo is not None:
            return
        refs = {r.id: referenced_props(r.antecedent) for r in self.rules}
        producers: dict[str, list[str]] = {}
        for r in self.rules:
            producers.setdefault(r.consequent, []).append(r.id)
        out: dict[str, list[str]] = {r.id: [] for r in self.rules}
        indeg = {r.id: 0 for r in self.rules}
        for b in self.rules:
            for p in sorted(refs[b.id]):
                for a_id in producers.get(p, ()):
                    out[a_id].append(b.id)
                    indeg[b.id] += 1
        ready = [rid for rid, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        topo: list[str] = []
        while ready:
            rid = heapq.heappop(ready)
            topo.append(rid)
            for nxt in out[rid]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    heapq.heappush(ready, nxt)
        if len(topo) != len(self.rules):
            stuck = [rid for rid, d in indeg.items() if d > 0]
            raise CyclicDependency(" -> ".join(_find_cycle(out, stuck)))
        pos = {rid: i for i, rid in enumerate(topo)}
        self._topo = tuple(topo)
        self._pos = pos
        self._refs = refs
        self._dependents = {rid: tuple(lst) for rid, lst in out.items()}
        self._incoming = {
            p: tuple(sorted(ids, key=pos.__getitem__)) for p, ids in producers.items()
        }


def _find_cycle(out: dict[str, list[str]], stuck: list[str]) -> list[str]:
    remaining = set(stuck)
    path: list[str] = []
    seen: dict[str, int] = {}
    node = stuck[0]
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = next(n for n in out[node] if n in remaining)
    return path[seen[node]:] + [node]


def validate(rb: RuleBase) -> list[Violation]:
    """Check every model invariant; returns violations instead of raising.

    An empty list means the base is sound: ids resolve, weights and bounds
    are in range, the graph is acyclic, and at least one output class
    exists.
    """
    violations: list[Violation] = []
    readable = True  # every antecedent is an expression the graph pass can walk
    for p in rb.propositions.values():
        if p.kind not in KINDS:
            violations.append(Violation("InvalidKind", f"proposition {p.id!r} has kind {p.kind!r}"))
        if p.output_class and p.kind != DERIVED:
            violations.append(
                Violation("OutputClassNotDerived", f"output class {p.id!r} must be derived")
            )
    for r in rb.rules:
        cons = rb.propositions.get(r.consequent)
        if cons is None:
            violations.append(
                Violation("UnknownConsequent", f"rule {r.id!r} concludes unknown proposition {r.consequent!r}")
            )
        elif cons.kind == INPUT:
            violations.append(
                Violation("InputAsConsequent", f"rule {r.id!r} concludes input proposition {r.consequent!r}")
            )
        readable &= _check_expr(rb, r, violations)
        if not is_cf(r.weight):
            violations.append(
                Violation("WeightOutOfRange", f"rule {r.id!r} weight {r.weight!r} outside [-1, +1]")
            )
        lo, hi = r.bounds
        if not (is_cf(lo) and is_cf(hi) and lo <= hi):
            violations.append(
                Violation("InvalidBounds", f"rule {r.id!r} bounds {r.bounds!r} not a subinterval of [-1, +1]")
            )
        if r.bound_kind not in BOUND_KINDS:
            violations.append(
                Violation("InvalidBoundKind", f"rule {r.id!r} bound_kind {r.bound_kind!r}")
            )
    if readable:
        try:
            rb.topological_order()
        except CyclicDependency as e:
            violations.append(Violation("CyclicDependency", str(e)))
    if not any(p.output_class for p in rb.propositions.values()):
        violations.append(Violation("NoOutputClass", "no output-class proposition declared"))
    return violations


def _check_expr(rb: RuleBase, r: Rule, violations: list[Violation]) -> bool:
    """Append the antecedent's violations; False if a node is no expression."""
    readable = True

    def walk(e) -> None:
        nonlocal readable
        t = type(e)
        if t is Ref:
            if e.prop not in rb.propositions:
                violations.append(
                    Violation("UnknownAntecedentRef", f"rule {r.id!r} reads unknown proposition {e.prop!r}")
                )
        elif t is Not:
            walk(e.member)
        elif t is And or t is Or:
            if len(e.members) < 1:
                violations.append(Violation("EmptyExpr", f"rule {r.id!r} has an empty AND/OR"))
            for m in e.members:
                walk(m)
        else:
            readable = False
            violations.append(Violation("EmptyExpr", f"rule {r.id!r} has a malformed antecedent node {e!r}"))

    walk(r.antecedent)
    return readable


# ---------------------------------------------------------------------------
# serialization

def expr_to_json(expr: Expr):
    t = type(expr)
    if t is Ref:
        return expr.prop
    if t is And:
        return {"and": [expr_to_json(m) for m in expr.members]}
    if t is Or:
        return {"or": [expr_to_json(m) for m in expr.members]}
    if t is Not:
        return {"not": expr_to_json(expr.member)}
    raise TypeError(f"not an antecedent expression: {expr!r}")


def expr_from_json(doc, where: str, depth: int = 0) -> Expr:
    """Decode an antecedent nested ``depth`` operators below the rule's
    ``if``; nesting beyond MAX_EXPR_DEPTH raises ParseError."""
    if isinstance(doc, str):
        return Ref(doc)
    if depth >= MAX_EXPR_DEPTH:
        raise ParseError(f"antecedent nested deeper than {MAX_EXPR_DEPTH} operators", where)
    if isinstance(doc, dict) and len(doc) == 1:
        op, body = next(iter(doc.items()))
        if op == "not":
            return Not(expr_from_json(body, f"{where}.not", depth + 1))
        if op in ("and", "or"):
            if not isinstance(body, list):
                raise ParseError(f"{op!r} expects a list", where)
            members = tuple(
                expr_from_json(m, f"{where}.{op}[{i}]", depth + 1) for i, m in enumerate(body)
            )
            return And(members) if op == "and" else Or(members)
    raise ParseError(f"malformed antecedent expression {doc!r}", where)


def to_dict(rb: RuleBase) -> dict:
    return {
        "propositions": [
            {"id": p.id, "kind": p.kind, "output_class": p.output_class}
            for p in rb.propositions.values()
        ],
        "rules": [
            {
                "id": r.id,
                "if": expr_to_json(r.antecedent),
                "then": r.consequent,
                "weight": r.weight,
                "bounds": [r.bounds[0], r.bounds[1]],
                "bound_kind": r.bound_kind,
                "trainable": r.trainable,
            }
            for r in rb.rules
        ],
    }


def _take(doc: dict, key: str, where: str, types, required=True, default=None):
    if key not in doc:
        if required:
            raise ParseError(f"missing field {key!r}", where)
        return default
    value = doc[key]
    if types is bool:
        ok = isinstance(value, bool)
    else:
        ok = not isinstance(value, bool) and isinstance(value, types)
    if not ok:
        raise ParseError(f"field {key!r} has wrong type {type(value).__name__}", where)
    return value


def from_dict(doc) -> RuleBase:
    if not isinstance(doc, dict):
        raise ParseError("rule-base document must be a JSON object", "$")
    props = []
    raw_props = _take(doc, "propositions", "$", list)
    for i, pd in enumerate(raw_props):
        where = f"propositions[{i}]"
        if not isinstance(pd, dict):
            raise ParseError("proposition must be an object", where)
        props.append(
            Proposition(
                id=_take(pd, "id", where, str),
                kind=_take(pd, "kind", where, str),
                output_class=_take(pd, "output_class", where, bool, required=False, default=False),
            )
        )
    rules = []
    raw_rules = _take(doc, "rules", "$", list)
    for i, rd in enumerate(raw_rules):
        where = f"rules[{i}]"
        if not isinstance(rd, dict):
            raise ParseError("rule must be an object", where)
        bounds = _take(rd, "bounds", where, list, required=False, default=[-1.0, 1.0])
        if len(bounds) != 2 or not all(isinstance(b, (int, float)) and not isinstance(b, bool) for b in bounds):
            raise ParseError(f"field 'bounds' must be [lo, hi], got {bounds!r}", where)
        weight = _take(rd, "weight", where, (int, float))
        rules.append(
            Rule(
                id=_take(rd, "id", where, str),
                antecedent=expr_from_json(_take(rd, "if", where, (str, dict)), f"{where}.if"),
                consequent=_take(rd, "then", where, str),
                weight=_float(weight, "weight", where),
                bounds=(_float(bounds[0], "bounds", where), _float(bounds[1], "bounds", where)),
                bound_kind=_take(rd, "bound_kind", where, str, required=False, default=HARD),
                trainable=_take(rd, "trainable", where, bool, required=False, default=True),
            )
        )
    rb = RuleBase(props, rules)
    violations = validate(rb)
    if violations:
        raise ValidationError(violations)
    return rb


def _float(value: int | float, field: str, where: str) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ParseError(f"field {field!r} is too large for a float", where) from None


def serialize(rb: RuleBase) -> str:
    """Rule base to its JSON document; parse(serialize(rb)) == rb with
    weights bit-identical."""
    return json.dumps(to_dict(rb), indent=2) + "\n"


def decode_json(text: str, where: str | None = None):
    """json.loads with every decoding failure raised as ParseError, located
    at ``where`` or else at the decoder's line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, where or f"line {e.lineno} col {e.colno}") from None
    except RecursionError:
        raise ParseError("JSON nested too deeply to decode", where or "$") from None
    except ValueError:  # json's cap on the digits of an integer literal
        raise ParseError("integer literal has too many digits to decode", where or "$") from None


def parse(text: str) -> RuleBase:
    """Parse a rule-base document.  Structural problems raise ParseError
    with a field location; invariant violations raise ValidationError."""
    return from_dict(decode_json(text))


@contextmanager
def open_replacing(path) -> Iterator[TextIO]:
    """A UTF-8 text file to write in place of ``path``.

    The writes go to a temp file in the same directory, renamed over
    ``path`` only when the with-block completes, so a write that fails or
    a process that is killed leaves any previous file whole and no temp
    file behind.  Nothing is fsynced, so a power loss may still lose the
    new file.  The directory must be writable; a file that replaces an
    existing one keeps its permission bits.  A symbolic link keeps pointing
    where it did: its target is replaced.  A path that names one of this
    process's open descriptors (/dev/stdout, /dev/stderr, /dev/fd/N or
    /proc/self/fd/N) is written through a duplicate of that descriptor,
    which shares the shell's file offset: reopening /dev/stdout after
    ``> log`` would write from an offset of its own, and the shell's later
    output would overwrite the document.  Any other path that exists but is
    no regular file (a pipe or a device), or that lies under /dev or /proc,
    has nothing to replace and is written directly, in append mode.
    """
    path = Path(path)
    special = _special_path(path)
    fd = _own_descriptor(special) if special else None
    if fd is not None:
        with open(os.dup(fd), "w", encoding="utf-8") as fh:
            yield fh
        return
    if special or (path.exists() and not path.is_file()):
        with open(path, "a", encoding="utf-8") as fh:
            yield fh
        return
    path = path.resolve()
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        try:
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        except FileNotFoundError:
            pass  # a new file: the umask decides, as for any new file
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _special_path(path: Path) -> str | None:
    """The path under /dev or /proc that ``path``, or a chain of symbolic
    links from it, leads to; None when it leads elsewhere."""
    p = os.path.abspath(path)
    for _ in range(40):  # the kernel's own limit on a chain of links
        if p.split(os.sep)[1] in ("dev", "proc"):
            return p
        if not os.path.islink(p):
            return None
        p = os.path.normpath(os.path.join(os.path.dirname(p), os.readlink(p)))
    return None


def _own_descriptor(special: str) -> int | None:
    """The number of this process's descriptor that a /dev or /proc path
    names, or None."""
    head, _, num = special.rpartition("/")
    if head in ("/dev/fd", "/proc/self/fd"):
        return int(num) if num.isascii() and num.isdigit() else None
    return {"/dev/stdout": 1, "/dev/stderr": 2}.get(special)


def save_rulebase(rb: RuleBase, path) -> None:
    with open_replacing(path) as fh:
        fh.write(serialize(rb))


def load_rulebase(path) -> RuleBase:
    return parse(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# datasets

def object_to_dict(obj: TrainingObject) -> dict:
    return {"id": obj.id, "facts": obj.facts, "label": obj.label}


def save_dataset(objects: Sequence[TrainingObject], path) -> None:
    with open_replacing(path) as fh:
        for obj in objects:
            fh.write(json.dumps(object_to_dict(obj)) + "\n")


def load_dataset(path) -> list[TrainingObject]:
    """Read a JSON Lines dataset; ParseError carries the line number.

    Integer facts are stored as floats; the objects of one load share one
    string per distinct fact name or label.  An object with a fact that is
    no certainty factor is reported by its first such fact and its line.
    """
    objects = []
    seen = set()
    names: dict[str, str] = {}  # each fact name and label, once per load
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
                facts[names.setdefault(k, k)] = float(v)
            if oid in seen:
                raise ParseError(f"duplicate object id {oid!r}", where)
            seen.add(oid)
            label = names.setdefault(label, label)
            objects.append(TrainingObject(id=oid, facts=facts, label=label))
    return objects


def validate_dataset(rb: RuleBase, objects: Sequence[TrainingObject]) -> list[Violation]:
    """Check dataset/rule-base agreement: object ids are distinct, labels
    are declared output classes, fact keys are declared input propositions,
    values are CFs."""
    violations = []
    classes = set(rb.output_classes)
    inputs = {p.id for p in rb.propositions.values() if p.kind == INPUT}
    seen = set()
    for obj in objects:
        if obj.id in seen:
            violations.append(Violation("DuplicateObjectId", f"object id {obj.id!r} appears more than once"))
        seen.add(obj.id)
        if obj.label not in classes:
            violations.append(
                Violation("UnknownLabel", f"object {obj.id!r} labeled {obj.label!r}, not an output class")
            )
        for k, v in obj.facts.items():
            if k not in inputs:
                violations.append(
                    Violation("UnknownFact", f"object {obj.id!r} has fact for non-input {k!r}")
                )
            if not is_cf(v):
                violations.append(
                    Violation("FactOutOfRange", f"object {obj.id!r} fact {k!r} = {v!r}")
                )
    return violations
