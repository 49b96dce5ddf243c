"""Rules every module of the package keeps, checked on its parsed source.

Library code refuses with a typed RarehitError, never with a bare check: no
``assert`` statement (stripped under ``python -O``) and no ``raise`` of
``ValueError`` or ``AssertionError``, which callers cannot tell apart from
bugs.  No module imports scipy when it is itself imported: scipy's
sparse modules take most of a process's start-up, so they are imported
inside the functions that use them.  And no module other than
``__init__.py``, which re-exports, imports a name it never reads: a
leftover import hides what a module really depends on.
"""
import ast
from pathlib import Path

import rarehit

PACKAGE = Path(rarehit.__file__).resolve().parent
UNTYPED = {"ValueError", "AssertionError"}


def _violations(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Assert):
            found.append(f"{path.name}:{node.lineno}: assert statement")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in UNTYPED:
                found.append(f"{path.name}:{node.lineno}: raise {exc.id}")
    return found


def test_library_raises_only_typed_errors():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [v for path in modules for v in _violations(path)] == []


def test_the_rule_sees_what_it_forbids(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("assert x\nraise ValueError('x')\nraise AssertionError\nraise KeyError('ok')\n")
    assert [v.split(": ")[1] for v in _violations(bad)] == [
        "assert statement", "raise ValueError", "raise AssertionError"]


def _scipy_at_import(path: Path) -> list[str]:
    """Imports of scipy that run when the module is imported: any outside a
    function body, in source order."""
    def imports(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                yield from ((child.lineno, a.name) for a in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                yield child.lineno, child.module
            elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from imports(child)
    return [f"{path.name}:{line}: import {name}"
            for line, name in imports(ast.parse(path.read_text(), str(path)))
            if name.split(".")[0] == "scipy"]


def test_no_module_imports_scipy_at_import_time():
    assert [v for path in sorted(PACKAGE.glob("*.py")) for v in _scipy_at_import(path)] == []


def test_the_scipy_rule_sees_what_it_forbids(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import scipy.sparse as sp\nfrom scipy import linalg\n"
                   "try:\n    import scipy\nexcept ImportError:\n    pass\n"
                   "class C:\n    import scipy.optimize\n"
                   "def f():\n    import scipy.sparse.linalg\n"
                   "import scipyx\nfrom .scipy import x\n")
    assert [v.split(": ")[1] for v in _scipy_at_import(bad)] == [
        "import scipy.sparse", "import scipy", "import scipy", "import scipy.optimize"]


def _unused_imports(path: Path) -> list[str]:
    """Names bound by an import (``from __future__`` aside) that the module
    never reads, in source order."""
    tree = ast.parse(path.read_text(), str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = [(node.lineno, alias.asname or alias.name.split(".")[0])
             for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             or isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names]
    return [f"{path.name}:{line}: {name}" for line, name in sorted(bound) if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    assert modules
    assert [v for path in modules for v in _unused_imports(path)] == []


def test_the_unused_import_rule_sees_what_it_forbids(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from __future__ import annotations\nimport os\nimport numpy as np\n"
                   "import os.path\nfrom . import exact\nfrom x import (a, b as c)\n"
                   "print(a, os.sep)\n"
                   "def f():\n    import scipy.sparse as sp\n    return exact\n"
                   "np = 1\n")
    assert [v.split(": ")[1] for v in _unused_imports(bad)] == ["np", "c", "sp"]
