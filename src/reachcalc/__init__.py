"""reachcalc: how reachable is a computer program?

Inverts the entropy variation of a solution through the real branches of
the Lambert W function to get a reachability semi-measure, prices searches
in Landauer work, and grounds everything in an enumerable prefix-free toy
machine.
"""

__version__ = "0.1.0"

from .entropy import (
    BOLTZMANN_K,
    VARIATION_MAX,
    EntropyVariation,
    FiniteDistribution,
    algorithmic_entropy,
    entropy_to_work,
    entropy_variation,
    shannon_entropy,
    work_to_entropy,
)
from .errors import (
    DegenerateSetWarning,
    DomainError,
    EmptySetError,
    InvalidDistribution,
    InvalidPolicy,
    InvalidProgram,
    ReachcalcError,
    ResourceExceeded,
)
from .lambertw import (
    BRANCH_POINT,
    BranchChoice,
    WEvaluation,
    eval_w,
    w_derivative,
)
from .loss import (
    ConvexityCertificate,
    LossEvaluation,
    convexity_certificate,
    f_exp_negw,
    f_prime,
    matching_loss,
)
from .machine import (
    ComplexityBound,
    Problem,
    Program,
    Scheme,
    SolutionSet,
    enumerate_solutions,
    kolmogorov_upper,
    literal_program,
    reachability_report,
    run,
)
from .reachability import (
    ReachabilityRecord,
    reach_from_energy,
    reach_from_variation,
)
from .search import Budget, SearchPolicy, SearchTrace, demiurge_search

__all__ = [
    "__version__",
    "BOLTZMANN_K",
    "BRANCH_POINT",
    "VARIATION_MAX",
    "BranchChoice",
    "WEvaluation",
    "eval_w",
    "w_derivative",
    "FiniteDistribution",
    "EntropyVariation",
    "shannon_entropy",
    "entropy_variation",
    "algorithmic_entropy",
    "entropy_to_work",
    "work_to_entropy",
    "ReachabilityRecord",
    "reach_from_variation",
    "reach_from_energy",
    "LossEvaluation",
    "ConvexityCertificate",
    "f_exp_negw",
    "f_prime",
    "matching_loss",
    "convexity_certificate",
    "Problem",
    "Program",
    "SolutionSet",
    "ComplexityBound",
    "Scheme",
    "run",
    "literal_program",
    "enumerate_solutions",
    "kolmogorov_upper",
    "reachability_report",
    "SearchPolicy",
    "Budget",
    "SearchTrace",
    "demiurge_search",
    "ReachcalcError",
    "DomainError",
    "InvalidDistribution",
    "InvalidProgram",
    "ResourceExceeded",
    "EmptySetError",
    "InvalidPolicy",
    "DegenerateSetWarning",
]
