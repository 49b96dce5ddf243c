"""The benchmark's traced names resolve against the library.

``perfbench/tracing.py`` wraps rarehit functions by module and name when a
pass runs with ``--trace 1``; a deleted or renamed function would only show
there.  This loads the module by path and resolves every name at once.
"""
import importlib.util
import inspect
from pathlib import Path

import rarehit

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_library_function():
    specs = _tracing()._attr_specs()
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
