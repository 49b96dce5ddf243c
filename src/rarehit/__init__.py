"""Hitting and return time statistics of rare events in finite-alphabet
stationary processes.

The namespace is lazy (PEP 562): ``import rarehit`` imports no submodule.
Each name of ``__all__`` imports its submodule on first access and is then
bound here, so ``rarehit.hitting_tail`` is ``rarehit.exact.hitting_tail``
as before, and a process compiles only the modules it uses.
"""

from importlib import import_module as _import_module

# Submodule -> the names it exports here; every submodule is exported too.
_EXPORTS = {
    "errors": (),
    "exact": ("TailDistribution", "brute_force_tail", "build_automaton", "hitting_tail",
              "return_expectation", "return_tail"),
    "limitlaw": ("ExponentialLaw", "StepLaw", "check_integral_relation", "check_sandwich",
                 "kac_bound_violation", "convergence_diagnostics"),
    "mc": ("SampleBatch", "derive_seed", "empirical_tail", "ks_distance", "sample_hitting",
           "sample_return"),
    "process": ("ProcessModel", "alpha_bound", "entropy", "iid", "markov", "uniform_iid"),
    "rarity": ("RarityBound", "cardinality_rate", "epsilon_bound", "hamming_kappa_bound",
               "solve_D0"),
    "scaling": ("ScaleCertificate", "VerificationReport", "lambda_trajectory",
                "scale_certificate", "scale_search", "verify", "verify_exponential_bound"),
    "targets": ("HammingBallPredicate", "TargetSet", "cylinder", "hamming_ball",
                "hamming_predicate", "measure", "union"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        value = _import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
