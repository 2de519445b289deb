"""Learning discrete Bayesian networks from incomplete categorical data.

The package learns both the graph (order-constrained greedy search over
an estimated marginal-likelihood score) and the conditional probability
tables (bound-and-collapse posterior estimates) without iterating over
imputations: incomplete cases contribute through completion counts and
a completion-probability vector, and the score uses a moment-matched
posterior Dirichlet per family.
"""

from .counts import CountTable, ParentContext, tally
from .data import (
    MISSING,
    DataError,
    Dataset,
    MissingnessSummary,
    Variable,
    load_csv,
    load_schema,
    save_csv,
    save_schema,
    summarize_missingness,
)
from .estimate import (
    BcCellEstimate,
    CompletionDistribution,
    EstimateError,
    PriorSpec,
    bc_estimate,
)
from .oracle import OracleError, exact_expectation, exact_marginal
from .score import (
    FamilyScore,
    FamilyScorer,
    ModelScore,
    ScoreError,
    log_g_bc,
    log_marginal,
)
from .search import (
    Model,
    OrderConstraint,
    SearchError,
    k2_bc,
    marginals,
    model_from_arcs,
    model_from_json,
    model_to_dot,
    model_to_json,
)
from .simulate import (
    RNG_ALGORITHM,
    DeletionPlan,
    GenerativeSpec,
    SimulateError,
    builtin_spec,
    delete_entries,
    delete_ladder,
    load_spec,
    sample,
    spec_from_dict,
    spec_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "MISSING",
    "BcCellEstimate",
    "CompletionDistribution",
    "CountTable",
    "DataError",
    "Dataset",
    "DeletionPlan",
    "EstimateError",
    "FamilyScore",
    "FamilyScorer",
    "GenerativeSpec",
    "MissingnessSummary",
    "Model",
    "ModelScore",
    "OracleError",
    "OrderConstraint",
    "ParentContext",
    "PriorSpec",
    "RNG_ALGORITHM",
    "ScoreError",
    "SearchError",
    "SimulateError",
    "Variable",
    "bc_estimate",
    "builtin_spec",
    "delete_entries",
    "delete_ladder",
    "exact_expectation",
    "exact_marginal",
    "k2_bc",
    "load_csv",
    "load_schema",
    "load_spec",
    "log_g_bc",
    "log_marginal",
    "marginals",
    "model_from_arcs",
    "model_from_json",
    "model_to_dot",
    "model_to_json",
    "sample",
    "save_csv",
    "save_schema",
    "spec_from_dict",
    "spec_to_dict",
    "summarize_missingness",
    "tally",
]
