"""Trainable certainty-factor rule bases.

Forward-chaining inference over weighted rules with certainty factors in
[-1, +1], incremental re-evaluation when a single weight changes, and a
finite-difference steepest-descent trainer that fits the weights to
labeled objects in a box, accounting exactly for the work it performs.
"""

from .algebra import (
    And,
    Expr,
    Not,
    Or,
    Ref,
    combine_parallel,
    eval_expr,
    is_cf,
    referenced_props,
)
from .engine import (
    FiringPolicy,
    ObjectEvaluation,
    classify,
    evaluate_full,
    perturb_weight,
    restore_weight,
)
from .errors import (
    CfForgeError,
    CyclicDependency,
    EmptyDataset,
    InconsistentState,
    NoOutputClasses,
    NoTrainableRules,
    NonFiniteObjective,
    ParseError,
    SpecInvalid,
    UnboundProposition,
    UnknownLabel,
    UnknownRule,
    ValidationError,
)
from .metric import (
    MetricValue,
    PenaltyConfig,
    accuracy,
    margin_metric,
    penalty,
)
from .model import (
    Proposition,
    Rule,
    RuleBase,
    TrainingObject,
    Violation,
    load_dataset,
    load_rulebase,
    parse,
    save_dataset,
    save_rulebase,
    serialize,
    validate,
    validate_dataset,
)
from .optimizer import (
    EvaluationBudget,
    IterationRecord,
    OptimizerConfig,
    TrainingTrace,
    audit_budget,
    gradient,
    run_gradient_bench,
    train,
    train_multi,
)
from .synth import SynthSpec, generate, generate_shaped, refine_expert

__version__ = "0.1.0"
