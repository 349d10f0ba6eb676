"""An independent evaluator for flat rule bases, used to check eval-batch.

It reads the rule-base JSON document and the objects' facts directly and
shares no code with ``cf_forge.algebra`` or ``cf_forge.engine``: a flat base
has one input proposition as each rule's antecedent, so a class CF is the
parallel combination of ``weight x fact`` over the class's firing rules,
folded in the class's incoming order (rule id order, the topological order
of a base without derived antecedents).
"""

from __future__ import annotations

# the firing threshold of cf-forge eval's default policy: a rule fires when
# its antecedent's CF is above it
THRESHOLD = 0.0


def combine(x: float, y: float) -> float:
    """MYCIN parallel combination of two certainty factors."""
    if x >= 0.0 and y >= 0.0:
        if x == 1.0 or y == 1.0:
            return 1.0
        return min(x + y - x * y, 1.0)
    if x <= 0.0 and y <= 0.0:
        if x == -1.0 or y == -1.0:
            return -1.0
        return max(x + y + x * y, -1.0)
    denom = 1.0 - min(abs(x), abs(y))
    if denom == 0.0:
        return 0.0
    return max(min((x + y) / denom, 1.0), -1.0)


class FlatReference:
    """Class CFs of a flat base, from its JSON document."""

    def __init__(self, doc: dict):
        self.classes = sorted(
            p["id"] for p in doc["propositions"] if p.get("output_class", False)
        )
        incoming: dict[str, list[tuple[str, str, float]]] = {c: [] for c in self.classes}
        for r in doc["rules"]:
            if not isinstance(r["if"], str):
                raise ValueError(f"rule {r['id']!r} is not flat")
            if r["then"] in incoming:
                incoming[r["then"]].append((r["id"], r["if"], float(r["weight"])))
        self.incoming = {c: sorted(rules) for c, rules in incoming.items()}

    def class_cfs(self, facts: dict[str, float]) -> dict[str, float]:
        out = {}
        for c, rules in self.incoming.items():
            acc = 0.0
            for _, prop, weight in rules:
                a = facts.get(prop, 0.0)
                if a > THRESHOLD:
                    acc = combine(acc, weight * a)
            out[c] = acc
        return out

    def argmax(self, cfs: dict[str, float]) -> str:
        """Highest CF; ties go to the smallest class id."""
        best = self.classes[0]
        for c in self.classes[1:]:
            if cfs[c] > cfs[best]:
                best = c
        return best
