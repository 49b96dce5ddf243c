"""Hitting and return time statistics of rare events in finite-alphabet
stationary processes."""

from . import errors
from .exact import (
    TailDistribution,
    brute_force_tail,
    build_automaton,
    hitting_tail,
    return_expectation,
    return_tail,
)
from .limitlaw import (
    ExponentialLaw,
    StepLaw,
    check_integral_relation,
    check_sandwich,
    kac_bound_violation,
    convergence_diagnostics,
)
from .mc import (
    SampleBatch,
    derive_seed,
    empirical_tail,
    ks_distance,
    sample_hitting,
    sample_return,
)
from .process import (
    ProcessModel,
    alpha_bound,
    entropy,
    iid,
    markov,
    uniform_iid,
)
from .rarity import (
    RarityBound,
    cardinality_rate,
    epsilon_bound,
    hamming_kappa_bound,
    solve_D0,
)
from .scaling import (
    ScaleCertificate,
    VerificationReport,
    lambda_trajectory,
    scale_certificate,
    scale_search,
    verify,
    verify_exponential_bound,
)
from .targets import (
    HammingBallPredicate,
    TargetSet,
    cylinder,
    hamming_ball,
    hamming_predicate,
    measure,
    union,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
