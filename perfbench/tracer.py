"""Per-layer tracing of cf_forge from outside the library.

Wrappers are installed at the names their callers look up at call time
(``cf_forge.optimizer.evaluate_full``, not ``cf_forge.engine.evaluate_full``
alone, because the optimizer imported the function by name), only for the
duration of one traced op, and removed afterwards.  Engine and metric
entries record a span under the span that called them; ``algebra`` and graph
queries are only counted, because a timer pair costs more than one
``combine_parallel`` call.  Spans are kept as running totals per
(name, parent), so memory stays flat however many calls an op makes.

A target that a later version of the library no longer has is skipped, and
every metric that depends on it is reported absent rather than as zero.
"""

from __future__ import annotations

from time import perf_counter

from cf_forge import engine, metric, model, optimizer

SPAN, COUNT = "span", "count"

# (label, owner, attribute, kind)
TARGETS = (
    ("optimizer.evaluate_full", optimizer, "evaluate_full", SPAN),
    ("engine.evaluate_full", engine, "evaluate_full", SPAN),
    ("optimizer.perturb_weight", optimizer, "perturb_weight", SPAN),
    ("optimizer.restore_weight", optimizer, "restore_weight", SPAN),
    ("optimizer.penalty", optimizer, "penalty", SPAN),
    ("metric.penalty", metric, "penalty", SPAN),
    ("metric.margin_metric", metric, "margin_metric", SPAN),
    ("engine.combine_parallel", engine, "combine_parallel", COUNT),
    ("engine.eval_expr", engine, "eval_expr", COUNT),
    ("RuleBase.incoming_rules", model.RuleBase, "incoming_rules", COUNT),
    ("RuleBase.closure_order", model.RuleBase, "closure_order", COUNT),
)

# span name recorded for each timed target; the two evaluate_full and the
# two penalty bindings are the same layer entry reached from two callers
SPAN_NAME = {
    "optimizer.evaluate_full": "evaluate_full",
    "engine.evaluate_full": "evaluate_full",
    "optimizer.perturb_weight": "perturb_weight",
    "optimizer.restore_weight": "restore_weight",
    "optimizer.penalty": "penalty",
    "metric.penalty": "penalty",
    "metric.margin_metric": "margin_metric",
}

FULL_PASS = ("optimizer.evaluate_full", "engine.evaluate_full")
PENALTY = ("optimizer.penalty", "metric.penalty")
PERTURB = ("optimizer.perturb_weight",)

# the wrapped targets each per-layer metric is computed from
REQUIRES = {
    "model.incoming_calls": ("RuleBase.incoming_rules",),
    "model.closure_order_calls": ("RuleBase.closure_order",),
    "algebra.combines": ("engine.combine_parallel",),
    "algebra.combines_per_probe": ("engine.combine_parallel",) + PERTURB,
    "algebra.combines_per_pass": ("engine.combine_parallel",) + FULL_PASS,
    "algebra.expr_evals": ("engine.eval_expr",),
    "engine.full_passes": FULL_PASS,
    "engine.full_pass_s": FULL_PASS,
    "engine.full_pass_us": FULL_PASS,
    "engine.perturb_calls": PERTURB,
    "engine.restore_calls": ("optimizer.restore_weight",),
    "engine.probe_s": PERTURB,
    "engine.probe_us": PERTURB,
    "engine.refires_per_probe": PERTURB,
    "engine.noop_probe_ratio": PERTURB,
    "metric.margin_calls": ("metric.margin_metric",),
    "metric.margin_s": ("metric.margin_metric",),
    "metric.penalty_calls": PENALTY,
    "metric.penalty_s": PENALTY,
    "optimizer.self_s": FULL_PASS + PERTURB + PENALTY + ("metric.margin_metric",),
}


def snapshot() -> dict[str, object]:
    """The objects currently bound at every target name (None if absent)."""
    return {label: vars(owner).get(attr) for label, owner, attr, _ in TARGETS}


class Tracer:
    """Running totals of spans and counts over the traced ops of one run."""

    def __init__(self) -> None:
        self.spans: dict[tuple[str, str | None], list] = {}  # -> [calls, seconds]
        self.counts = {label: [0] for label, _, _, kind in TARGETS if kind == COUNT}
        self.inner_combines = {name: 0 for name in SPAN_NAME.values()}
        self.perturb_fired = 0
        self.noop_probes = 0
        self.ops = 0
        self.originals = snapshot()
        self.absent = sorted(label for label, obj in self.originals.items() if obj is None)
        self._stack: list[str] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for label, owner, attr, kind in TARGETS:
            original = self.originals[label]
            if original is None:
                continue
            if kind == SPAN:
                wrapper = self._timed(label, original)
            else:
                wrapper = self._counted(self.counts[label], original)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def assert_restored(self) -> None:
        """Raise unless every target name is bound to its original again."""
        moved = [
            label for label, obj in snapshot().items() if obj is not self.originals[label]
        ]
        if moved:
            raise RuntimeError(f"traced wrappers still installed at {', '.join(moved)}")

    def traced_op(self, fn):
        """Run one op with the wrappers installed, under an "op" span."""
        self.install()
        try:
            return self._timed("op", fn)()
        finally:
            self.uninstall()
            self.ops += 1

    # -- wrappers -----------------------------------------------------

    def _counted(self, cell: list, fn):
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, label: str, fn):
        name = SPAN_NAME.get(label, label)
        stack = self._stack
        spans = self.spans
        combines = self.counts["engine.combine_parallel"]
        inner = self.inner_combines
        is_perturb = label in PERTURB

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            stack.append(name)
            c0 = combines[0]
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                rec = spans.get((name, parent))
                if rec is None:
                    spans[(name, parent)] = [1, dt]
                else:
                    rec[0] += 1
                    rec[1] += dt
                if name in inner:
                    inner[name] += combines[0] - c0
            if is_perturb:
                self.perturb_fired += result
                if result == 0:
                    self.noop_probes += 1
            return result

        return wrapper

    # -- metrics ------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(rec[0] for (n, _), rec in self.spans.items() if n == name)

    def seconds(self, name: str) -> float:
        return sum(rec[1] for (n, _), rec in self.spans.items() if n == name)

    def metrics(self) -> dict[str, float]:
        """Per-op averages over the traced ops; a metric whose targets are
        absent is left out.  A ratio over zero calls reads 0.0."""
        n = self.ops
        if n == 0:
            raise ValueError("no traced op ran")
        count = lambda label: self.counts[label][0]
        per = lambda num, den: num / den if den else 0.0
        passes = self.calls("evaluate_full")
        perturbs = self.calls("perturb_weight")
        restores = self.calls("restore_weight")
        probe_s = self.seconds("perturb_weight") + self.seconds("restore_weight")
        child_s = sum(rec[1] for (_, parent), rec in self.spans.items() if parent == "op")
        values = {
            "model.incoming_calls": count("RuleBase.incoming_rules") / n,
            "model.closure_order_calls": count("RuleBase.closure_order") / n,
            "algebra.combines": count("engine.combine_parallel") / n,
            "algebra.combines_per_probe": per(
                self.inner_combines["perturb_weight"] + self.inner_combines["restore_weight"],
                perturbs,
            ),
            "algebra.combines_per_pass": per(self.inner_combines["evaluate_full"], passes),
            "algebra.expr_evals": count("engine.eval_expr") / n,
            "engine.full_passes": passes / n,
            "engine.full_pass_s": self.seconds("evaluate_full") / n,
            "engine.full_pass_us": per(self.seconds("evaluate_full"), passes) * 1e6,
            "engine.perturb_calls": perturbs / n,
            "engine.restore_calls": restores / n,
            "engine.probe_s": probe_s / n,
            "engine.probe_us": per(probe_s, perturbs + restores) * 1e6,
            "engine.refires_per_probe": per(self.perturb_fired, perturbs),
            "engine.noop_probe_ratio": per(self.noop_probes, perturbs),
            "metric.margin_calls": self.calls("margin_metric") / n,
            "metric.margin_s": self.seconds("margin_metric") / n,
            "metric.penalty_calls": self.calls("penalty") / n,
            "metric.penalty_s": self.seconds("penalty") / n,
            "optimizer.self_s": (self.seconds("op") - child_s) / n,
        }
        absent = set(self.absent)
        return {k: v for k, v in values.items() if not absent.intersection(REQUIRES[k])}

    def absent_metrics(self) -> list[str]:
        absent = set(self.absent)
        return sorted(k for k, needs in REQUIRES.items() if absent.intersection(needs))

    def span_table(self) -> list[tuple[str, str | None, int, float]]:
        rows = [(n, p, rec[0], rec[1]) for (n, p), rec in self.spans.items()]
        return sorted(rows, key=lambda row: (row[0], row[1] or ""))
