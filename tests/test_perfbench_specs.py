"""The benchmark's traced names and model specs resolve against the library.

``perfbench/tracing.py`` wraps rarehit functions by module and name when a
pass runs with ``--trace 1``; a deleted or renamed function would only show
there.  This loads the module by path and resolves every name at once.  The
model specs of ``perfbench/jobs.py`` reach the config headers through
``process.to_dict``, which must give them back unchanged.
"""
import importlib.util
import inspect
import sys
from pathlib import Path

import rarehit
from rarehit import cli, process

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_library_function():
    specs = _load("tracing")._attr_specs()
    assert specs
    for name, (fn, attrs) in specs.items():
        module, attr = name.split(".")
        assert getattr(getattr(rarehit, module), attr) is fn, name
        assert attrs is None or callable(attrs), name


def test_traced_arguments_exist():
    # The span attributes bind these arguments by name.
    for fn in (rarehit.hitting_tail, rarehit.return_tail):
        assert {"target", "K"} <= set(inspect.signature(fn).parameters)
    for fn in (rarehit.sample_hitting, rarehit.sample_return):
        assert "target" in inspect.signature(fn).parameters


def test_benchmark_model_specs_round_trip():
    jobs = _load("jobs")
    for spec in (jobs.IID82, jobs.MK):
        assert process.to_dict(process.from_dict(spec)) == spec
    u4 = process.to_dict(cli.parse_model(jobs.U4))
    assert u4 == {"kind": "iid", "probs": [0.25] * 4}
    assert process.to_dict(process.from_dict(u4)) == u4


def test_sweep_checks_show_in_the_traced_layers(tmp_path):
    # Each sweep row takes its D_hit and bound from verify_exponential_bound,
    # so the traced scaling.check_s counts the sweep's checks.
    tracer = _load("tracing").Tracer()
    with tracer.installed():
        code = cli.main(["sweep", "--model", "iid-uniform-2", "--point", "0,1",
                         "--n-min", "2", "--n-max", "5", "--out", str(tmp_path / "s.csv")])
    assert code == cli.EXIT_OK
    checks = [parent for name, parent, *_ in tracer.spans
              if name == "scaling.verify_exponential_bound"]
    assert len(checks) == 4
    assert all(tracer.spans[p][0] == "limitlaw.convergence_diagnostics" for p in checks)
