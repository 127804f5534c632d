"""Nonadaptive group testing: designs, decoders, error probabilities, and floors."""

from .bounds import (
    BoundReport,
    counting_bound,
    epsilon_bound,
    epsilon_bound_delta,
    l_star,
    weight_log_term,
)
from .decode import DecoderId
from .design import (
    ReductionLog,
    TestDesign,
    format_design,
    gen_bernoulli,
    gen_doubly_regular,
    gen_individual,
    load_design,
    new_design,
    parse_design,
    reduce_design,
    save_design,
)
from .disguise import (
    DisguiseReport,
    ItemDisguise,
    co_items,
    disguise_bound,
    exact_disguise_prob,
    mean_log_bound,
)
from .errors import (
    BudgetExceededError,
    DesignFormatError,
    DesignGenerationError,
    InconsistentOutcomeError,
    ScanLimitError,
)
from .model import Prior
from .serialize import to_dict
from .sim import (
    LemmaCheck,
    SimResult,
    VerificationReport,
    exact_average_error,
    monte_carlo_error,
    verify_theorem,
    wilson_interval,
)

__all__ = [
    "BoundReport",
    "BudgetExceededError",
    "DecoderId",
    "DesignFormatError",
    "DesignGenerationError",
    "DisguiseReport",
    "InconsistentOutcomeError",
    "ItemDisguise",
    "LemmaCheck",
    "Prior",
    "ReductionLog",
    "ScanLimitError",
    "SimResult",
    "TestDesign",
    "VerificationReport",
    "co_items",
    "counting_bound",
    "disguise_bound",
    "epsilon_bound",
    "epsilon_bound_delta",
    "exact_average_error",
    "exact_disguise_prob",
    "format_design",
    "gen_bernoulli",
    "gen_doubly_regular",
    "gen_individual",
    "l_star",
    "load_design",
    "mean_log_bound",
    "monte_carlo_error",
    "new_design",
    "parse_design",
    "reduce_design",
    "save_design",
    "to_dict",
    "verify_theorem",
    "weight_log_term",
    "wilson_interval",
]
