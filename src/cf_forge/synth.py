"""Seeded generators for benchmark rule bases and training sets:
``generate`` for flat classification problems, ``generate_shaped`` for the
flat, chain and tree bases of complexity measurements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import Ref
from .engine import classify, evaluate_full
from .errors import SpecInvalid
from .model import DERIVED, INPUT, Proposition, Rule, RuleBase, TrainingObject

SHAPES = ("flat", "chain", "tree")


@dataclass
class SynthSpec:
    features: int
    classes: int
    objects: int
    irrelevant_features: int = 0
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.features < 2:
            raise SpecInvalid("need at least 2 features")
        if self.classes < 2:
            raise SpecInvalid("need at least 2 classes")
        if self.objects < 1:
            raise SpecInvalid("need at least 1 object")
        if not (0 <= self.irrelevant_features < self.features):
            raise SpecInvalid("irrelevant_features must be in [0, features)")
        if self.features - self.irrelevant_features < self.classes:
            raise SpecInvalid("need at least one relevant feature per class")
        if not (0.0 <= self.noise <= 1.0):
            raise SpecInvalid("noise must be in [0, 1]")


EXPERT_TRUE = 0.7
EXPERT_CROSS = -0.3


def generate(spec: SynthSpec):
    """Returns (zero-weight base, expert-weight base, objects, ground truth)
    of a flat problem: one rule per (feature, class) pair.

    Ground truth maps each class to its relevant features (a round-robin
    partition of the relevant range).  Object CFs: own relevant features
    U[0.6, 1.0], other relevant features U[-0.2, 0.2], irrelevant features
    U[-1, 1]; a noise-fraction of objects is additionally smeared by
    U[-0.4, 0.4] per feature, clamped.  Expert weights: +0.7 on true
    (feature, class) pairs, -0.3 on relevant-but-wrong-class pairs, 0.0 on
    irrelevant pairs.  Noiseless data is separable by construction, which
    is verified by classifying every object with the expert weights.
    """
    rng = random.Random(spec.seed)
    feats = [f"f{i:03d}" for i in range(spec.features)]
    classes = [f"c{j}" for j in range(spec.classes)]
    relevant_n = spec.features - spec.irrelevant_features
    truth: dict[str, tuple[str, ...]] = {
        classes[j]: tuple(feats[i] for i in range(relevant_n) if i % spec.classes == j)
        for j in range(spec.classes)
    }
    feat_class: dict[str, str | None] = {}
    for i, f in enumerate(feats):
        feat_class[f] = classes[i % spec.classes] if i < relevant_n else None

    props = [Proposition(f, INPUT) for f in feats]
    props += [Proposition(c, DERIVED, output_class=True) for c in classes]
    rules = [
        Rule(id=f"r_{f}_{c}", antecedent=Ref(f), consequent=c)
        for f in feats
        for c in classes
    ]
    rb_zero = RuleBase(props, rules)

    rb_expert = rb_zero.copy()
    for r in rb_expert.rules:
        owner = feat_class[r.antecedent.prop]
        if owner is not None:  # an irrelevant pair keeps weight 0.0
            r.weight = EXPERT_TRUE if owner == r.consequent else EXPERT_CROSS

    objects = []
    width = max(3, len(str(spec.objects - 1)))
    for k in range(spec.objects):
        label = classes[k % spec.classes]
        facts = {}
        for f in feats:
            owner = feat_class[f]
            if owner is None:
                facts[f] = rng.uniform(-1.0, 1.0)
            elif owner == label:
                facts[f] = rng.uniform(0.6, 1.0)
            else:
                facts[f] = rng.uniform(-0.2, 0.2)
        if rng.random() < spec.noise:
            for f in feats:
                facts[f] = min(max(facts[f] + rng.uniform(-0.4, 0.4), -1.0), 1.0)
        objects.append(TrainingObject(id=f"obj{k:0{width}d}", facts=facts, label=label))

    if spec.noise == 0.0:
        for obj in objects:
            st = evaluate_full(rb_expert, obj)
            if classify(st, rb_expert) != obj.label:
                raise RuntimeError(
                    f"generator bug: expert weights misclassify noiseless object {obj.id}"
                )
    return rb_zero, rb_expert, objects, truth


def refine_expert(
    rb_expert: RuleBase, truth: dict[str, tuple[str, ...]], seed: int, amount: float = 0.1
) -> RuleBase:
    """Expert weights nudged toward the ground truth by seeded amounts:
    true pairs move toward +1, relevant-but-wrong pairs toward -1.  Stands
    in for an expert performing a round of iterative refinement."""
    rng = random.Random(seed)
    refined = rb_expert.copy()
    truth_pairs = {(f, c) for c, fs in truth.items() for f in fs}
    relevant = {f for fs in truth.values() for f in fs}
    for r in refined.rules:
        f = r.antecedent.prop
        if (f, r.consequent) in truth_pairs:
            r.weight = min(r.weight + rng.uniform(0.0, amount), 1.0)
        elif f in relevant:
            r.weight = max(r.weight - rng.uniform(0.0, amount), -1.0)
    return refined


def generate_shaped(n_rules: int, shape: str, seed: int = 0):
    """Returns (rule base, one-object dataset) with the requested topology.

    flat: independent rules feeding two output classes, every closure a
    singleton.  chain: one dependency line ending at a class, so the first
    rule's closure is the whole chain.  tree: a balanced binary tree of
    rules (requires n_rules == 2^k - 1); sibling rules pool into one
    proposition read by their parent rule, so a leaf's closure is its
    root path.  Weights U[0.2, 0.8] and facts U[0.3, 0.9], which keeps
    every rule firing and every perturbation propagating.
    """
    if shape not in SHAPES:
        raise SpecInvalid(f"unknown shape {shape!r}")
    if n_rules < 1:
        raise SpecInvalid("need at least 1 rule")
    rng = random.Random(seed)
    width = len(str(n_rules))
    rid = lambda i: f"r{i:0{width}d}"

    props: list[Proposition] = [
        Proposition("c0", DERIVED, output_class=True),
        Proposition("c1", DERIVED, output_class=True),
    ]
    rules: list[Rule] = []
    facts: dict[str, float] = {}

    if shape == "flat":
        for i in range(n_rules):
            f = f"f{i:0{width}d}"
            props.append(Proposition(f, INPUT))
            facts[f] = rng.uniform(0.3, 0.9)
            rules.append(
                Rule(id=rid(i), antecedent=Ref(f), consequent=f"c{i % 2}",
                     weight=rng.uniform(0.2, 0.8))
            )
    elif shape == "chain":
        props.append(Proposition("x0", INPUT))
        facts["x0"] = rng.uniform(0.3, 0.9)
        prev = "x0"
        for i in range(n_rules):
            cons = "c0" if i == n_rules - 1 else f"p{i + 1:0{width}d}"
            if cons != "c0":
                props.append(Proposition(cons, DERIVED))
            rules.append(
                Rule(id=rid(i), antecedent=Ref(prev), consequent=cons,
                     weight=rng.uniform(0.2, 0.8))
            )
            prev = cons
    else:  # tree
        k = (n_rules + 1).bit_length() - 1
        if 2**k - 1 != n_rules:
            raise SpecInvalid(f"tree shape needs 2^k - 1 rules, got {n_rules}")
        # heap numbering: sibling rules 2j and 2j+1 both fire proposition
        # t{j}, which is the antecedent of their parent rule j
        for j in range(1, n_rules // 2 + 1):
            props.append(Proposition(f"t{j:0{width}d}", DERIVED))
        for i in range(1, n_rules + 1):
            cons = "c0" if i == 1 else f"t{i // 2:0{width}d}"
            if 2 * i <= n_rules:
                ante = Ref(f"t{i:0{width}d}")
            else:
                leaf = f"x{i:0{width}d}"
                props.append(Proposition(leaf, INPUT))
                facts[leaf] = rng.uniform(0.3, 0.9)
                ante = Ref(leaf)
            rules.append(
                Rule(id=rid(i), antecedent=ante, consequent=cons,
                     weight=rng.uniform(0.2, 0.8))
            )

    rb = RuleBase(props, rules)
    obj = TrainingObject(id="obj0", facts=facts, label="c0")
    return rb, [obj]
