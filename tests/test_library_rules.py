"""Library code refuses with a typed RarehitError, never with a bare check.

Parses every module of the package and fails on any ``assert`` statement
(stripped under ``python -O``) and on any ``raise`` of ``ValueError`` or
``AssertionError``, which callers cannot tell apart from bugs.
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
