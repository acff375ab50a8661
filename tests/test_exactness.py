"""Source-level guard: the package computes exactly, with no floats."""

import ast
from pathlib import Path

import bentice

SOURCES = sorted(Path(bentice.__file__).parent.glob("*.py"))


def inexact_uses(tree: ast.AST) -> list:
    """Imports of fractions and calls of float, as (line, what) pairs."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names
                      if a.name.split(".")[0] == "fractions"]
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found.append((node.lineno, "from fractions import"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float("))
    return found


def test_no_module_imports_fractions_or_calls_float():
    assert SOURCES
    offenders = {path.name: uses for path in SOURCES
                 if (uses := inexact_uses(ast.parse(path.read_text())))}
    assert offenders == {}


def test_no_module_imports_sympy():
    # sympy is a test-only oracle, never a dependency of the package
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(name.split(".")[0] != "sympy" for name in names), path.name
