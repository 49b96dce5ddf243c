"""The public namespace of ``rarehit``, pinned name by name, and the
submodules that each entry point loads, seen from fresh interpreters."""
import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import rarehit

SRC = Path(rarehit.__file__).resolve().parents[1]

# sorted(rarehit.__all__): 43 functions and classes and 8 submodules.
PUBLIC_NAMES = [
    "ExponentialLaw", "HammingBallPredicate", "ProcessModel", "RarityBound", "SampleBatch",
    "ScaleCertificate", "StepLaw", "TailDistribution", "TargetSet", "VerificationReport",
    "alpha_bound", "brute_force_tail", "build_automaton", "cardinality_rate",
    "check_integral_relation", "check_sandwich", "convergence_diagnostics", "cylinder",
    "derive_seed", "empirical_tail", "entropy", "epsilon_bound", "errors", "exact",
    "hamming_ball", "hamming_kappa_bound", "hamming_predicate", "hitting_tail", "iid",
    "kac_bound_violation", "ks_distance", "lambda_trajectory", "limitlaw", "markov", "mc",
    "measure", "process", "rarity", "return_expectation", "return_tail", "sample_hitting",
    "sample_return", "scale_certificate", "scale_search", "scaling", "solve_D0", "targets",
    "uniform_iid", "union", "verify", "verify_exponential_bound",
]


def test_all_is_pinned():
    assert len(PUBLIC_NAMES) == 51
    assert sorted(rarehit.__all__) == PUBLIC_NAMES


def fresh(code: str) -> str:
    """The last line ``code`` prints in a fresh interpreter importing rarehit from this tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    return done.stdout.splitlines()[-1]


def loaded(code: str) -> set[str]:
    """The rarehit submodules loaded once ``code`` has run in a fresh interpreter."""
    return set(ast.literal_eval(fresh(
        f"import sys\n{code}\n"
        "print(sorted(m for m in sys.modules if m.startswith('rarehit.')))")))


def cli_run(argv: list[str]) -> str:
    return f"from rarehit import cli\nassert cli.main({[*argv, '--out', os.devnull]!r}) == 0"


ENGINES = {"rarehit.limitlaw", "rarehit.mc", "rarehit._pcg64", "rarehit.rarity"}


def test_import_loads_no_submodule():
    assert loaded("import rarehit") == set()


def test_a_tail_function_loads_only_the_exact_layers():
    assert loaded("from rarehit import hitting_tail") & {"rarehit.scaling", *ENGINES} == set()


def test_the_cli_and_a_tail_run_load_no_engine_they_do_not_use():
    assert loaded("import rarehit.cli") & ENGINES == set()
    tail = ["tail", "--model", "iid-uniform-2", "--target", "cyl:1,1", "--K", "5"]
    assert loaded(cli_run(tail)) & ENGINES == set()


def test_a_rarity_run_loads_no_sampler_nor_limit_law():
    kappa = ["rarity", "kappa", "--n", "10", "--D", "0.3", "--q", "4"]
    assert loaded(cli_run(kappa)) & ENGINES == {"rarehit.rarity"}


def test_an_mc_run_loads_no_limit_law_nor_rarity():
    mc = ["mc", "--model", "iid-uniform-2", "--target", "cyl:1,1", "--N", "5", "--seed", "0"]
    assert loaded(cli_run(mc)) & ENGINES == {"rarehit.mc", "rarehit._pcg64"}


def test_dir_lists_the_pinned_names_before_and_after_use():
    public = "print([n for n in dir(rarehit) if not n.startswith('_')])"
    assert ast.literal_eval(fresh(f"import rarehit\n{public}")) == PUBLIC_NAMES
    assert ast.literal_eval(fresh(f"import rarehit\nrarehit.verify\n{public}")) == PUBLIC_NAMES


def test_star_import_binds_every_public_name():
    names = fresh("from rarehit import *\n"
                  "print(sorted(k for k in dict(globals()) if not k.startswith('_')))")
    assert ast.literal_eval(names) == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_name_is_its_submodules_object(name):
    value = getattr(rarehit, name)
    if isinstance(value, types.ModuleType):
        assert value is importlib.import_module(f"rarehit.{name}")
    else:
        assert value.__module__.startswith("rarehit.")
        assert value is getattr(importlib.import_module(value.__module__), name)
    assert vars(rarehit)[name] is value  # bound on first access


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'rarehit' has no attribute 'nope'"):
        rarehit.nope
    assert not hasattr(rarehit, "cli_main")
    with pytest.raises(ImportError):
        from rarehit import nope  # noqa: F401
