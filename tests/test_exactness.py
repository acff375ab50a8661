"""Source-level guards: the package computes exactly, with no floats and
no true division, imports every module it uses at the top, where import
cycles show (the process pool alone is imported where a verb fans out),
keeps the enumeration caps in the command line alone, prints
reports through one writer, and holds no definition that nothing in it
names and no import of the tests."""

import ast
from collections import Counter
from pathlib import Path

import bentice

SOURCES = sorted(Path(bentice.__file__).parent.glob("*.py"))
TEST_MODULES = {"tests"} | {path.stem for path in Path(__file__).parent.glob("*.py")}


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


def true_divisions(tree: ast.AST) -> list:
    """Lines of the / and /= operators, which give floats on ints."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]


def test_no_module_divides_with_a_slash():
    # exact quotients are taken as % (to check) then //
    offenders = {path.name: lines for path in SOURCES
                 if (lines := true_divisions(ast.parse(path.read_text())))}
    assert offenders == {}
    # the guard sees both forms
    assert sorted(true_divisions(ast.parse("a = b / c\nd /= 2\ne = f // g"))) == [1, 2]


def absolute_imports(tree: ast.AST) -> set:
    """The top-level names of the modules imported without a leading dot."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_no_module_imports_sympy():
    # sympy is a test-only oracle, never a dependency of the package
    for path in SOURCES:
        assert "sympy" not in absolute_imports(ast.parse(path.read_text())), path.name


def nested_imports(tree: ast.Module) -> list:
    """(line, module) of the imports that are not statements of the module body."""
    top = {id(node) for node in tree.body}
    return [(node.lineno, node.module if isinstance(node, ast.ImportFrom) else node.names[0].name)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]


def test_every_import_is_at_module_level():
    # the one exception: cli imports the process pool only when a verb runs
    # on workers, since it loads multiprocessing, pickle and socket; a
    # standard-library module cannot close an import cycle of the package
    offenders = {path.name: found for path in SOURCES
                 if (found := [(line, module) for line, module in
                               nested_imports(ast.parse(path.read_text()))
                               if (path.name, module) != ("cli.py", "concurrent.futures")])}
    assert offenders == {}
    # the guard sees a nested import of either form
    assert nested_imports(ast.parse(
        "import os\ndef f():\n    from .states import enumerate_states\n    import json\n"
    )) == [(3, "states"), (4, "json")]


def cap_policy(source: str) -> list:
    """Mentions of the cap variables and raises of EnumerationCapError."""
    found = [name for name in ("BENTICE_MAX_N", "BENTICE_MAX_COLS") if name in source]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "EnumerationCapError":
                found.append(f"raise EnumerationCapError at line {node.lineno}")
    return found


def test_only_the_command_line_knows_the_caps():
    offenders = {path.name: found for path in SOURCES
                 if path.name != "cli.py" and (found := cap_policy(path.read_text()))}
    assert offenders == {}
    # the guard sees the policy where it lives
    in_cli = cap_policy((Path(bentice.__file__).parent / "cli.py").read_text())
    assert in_cli[:2] == ["BENTICE_MAX_N", "BENTICE_MAX_COLS"] and len(in_cli) > 2


def indent_calls(tree: ast.AST) -> list:
    """Lines of the calls that pass an indent keyword, as json.dumps(..., indent=2)."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords)]


def test_no_call_passes_indent():
    # with an indent the stdlib encodes in pure Python; reports print
    # through cli._dumps, which writes the same text
    offenders = {path.name: lines for path in SOURCES
                 if (lines := indent_calls(ast.parse(path.read_text())))}
    assert offenders == {}


def names_used(node: ast.AST) -> Counter:
    """How often each name is read, as a variable, an attribute or an import."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.asname or sub.name] += 1
    return found


def unreferenced(trees: dict) -> list:
    """module.name of each function, method and class (dunders excepted)
    that no code of the modules names outside its own definition."""
    used = sum((names_used(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and used[node.name] == names_used(node)[node.name]):
                found.append(f"{module}.{node.name}")
    return sorted(found)


def test_every_definition_is_named_elsewhere_in_the_package():
    # what only the tests call lives in tests/oracles.py
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert unreferenced(trees) == []
    # the guard sees a dead method, and a recursion that nothing else calls
    assert unreferenced({"m": ast.parse(
        "class C:\n    def kept(self): pass\n    def dead(self): pass\n"
        "def f(c): c.kept()\nf(C())\ndef loop(): loop()\n")}) == ["m.dead", "m.loop"]


def test_no_module_imports_the_tests():
    for path in SOURCES:
        assert not absolute_imports(ast.parse(path.read_text())) & TEST_MODULES, path.name
    # the guard sees both forms, and not the package's own relative imports
    assert absolute_imports(ast.parse(
        "import tests.oracles\nfrom oracles import zero\nfrom .states import count_states\n"
    )) == {"tests", "oracles"}
