"""driftlab: a laboratory for drift conditions, jump tails, and hitting-time bounds.

The package simulates stochastic processes over a drift window, checks the
drift and exponential jump-tail conditions exactly in every window state from
the `LawTable` of step laws each process gives for the window (`law_table`;
a single law is a one-row table), or statistically where a process has none,
derives every constant of the escape-probability bound, and verifies the
inequality chains used by the classic applications in exact arithmetic.
"""

__version__ = "0.1.0"

from .core import (
    DriftWindow,
    HittingEstimate,
    estimate_hitting_probability,
    run_trials,
)
from .conditions import (
    ConditionParams,
    ConditionReport,
    TailCheck,
    check_conditions_empirical,
    check_conditions_exact,
    harvest_step_samples,
)
from .jumps import LawTable
from .processes import (
    ConstantWalk,
    CounterexampleChain,
    FitnessProportionalEA,
    GeometricDriftWalk,
    NeedleOneOneEA,
    OneCommaLambdaEA,
    Process,
    make_process,
    pea,
    pea_prime,
    pea_prime_selection,
)
from .theorem import (
    LemmaInput,
    TheoremConstants,
    derive_constants,
    hajek_escape_bound,
    lemma_tail_bound,
    mgf_bound_check,
)
from .inequalities import (
    InequalityResult,
    SweepGrid,
    comma_lambda_bounds,
    diversity_bound,
    matching_jump_bound,
    mutation_tail_chain,
    pea_prime_expected_selections,
    sweep_comma_lambda,
    sweep_diversity,
    sweep_matching,
    sweep_mutation,
)
from .stats import mean_t_interval, wilson_interval

__all__ = [
    "ConditionParams",
    "ConditionReport",
    "ConstantWalk",
    "CounterexampleChain",
    "DriftWindow",
    "FitnessProportionalEA",
    "GeometricDriftWalk",
    "HittingEstimate",
    "InequalityResult",
    "LawTable",
    "LemmaInput",
    "NeedleOneOneEA",
    "OneCommaLambdaEA",
    "Process",
    "SweepGrid",
    "TailCheck",
    "TheoremConstants",
    "check_conditions_empirical",
    "check_conditions_exact",
    "comma_lambda_bounds",
    "derive_constants",
    "diversity_bound",
    "estimate_hitting_probability",
    "hajek_escape_bound",
    "harvest_step_samples",
    "lemma_tail_bound",
    "make_process",
    "matching_jump_bound",
    "mean_t_interval",
    "mgf_bound_check",
    "mutation_tail_chain",
    "pea",
    "pea_prime",
    "pea_prime_expected_selections",
    "pea_prime_selection",
    "run_trials",
    "sweep_comma_lambda",
    "sweep_diversity",
    "sweep_matching",
    "sweep_mutation",
    "wilson_interval",
]
