"""Every exported name is used by the program itself, and per-rule results
have one store.

A name in a ``bergman_lab`` module's ``__all__`` must be read (as a name or
an attribute, found by walking the syntax trees) somewhere in ``src/`` or
``scripts/`` outside its own definition.  A helper that only the tests call
belongs in ``tests/helpers.py``, not in the package.  Results computed on a
quadrature rule are stored through ``QuadratureRule.memoize`` alone, and
arrays are frozen in ``fiber_numerics._freeze`` alone.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = sorted((ROOT / "src" / "bergman_lab").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
TREES = {path: ast.parse(path.read_text()) for path in PROGRAM}


def _exported(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def _reads(tree, skip_definition_of=None) -> set:
    """Names and attributes read in ``tree``, leaving out the body of the
    function or class named ``skip_definition_of``."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and node.name == skip_definition_of:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


EXPORTS = [(path.stem, name) for path, tree in TREES.items() for name in _exported(tree)]
READS = {path: _reads(tree) for path, tree in TREES.items()}


def test_exports_are_found():
    assert len(EXPORTS) > 50 and ("curvature", "fd_hessian") in EXPORTS


@pytest.mark.parametrize("module, name", EXPORTS, ids=[f"{m}.{n}" for m, n in EXPORTS])
def test_exported_name_is_used_by_the_program(module, name):
    home = ROOT / "src" / "bergman_lab" / f"{module}.py"
    users = [path.relative_to(ROOT).as_posix() for path, reads in READS.items()
             if name in (_reads(TREES[path], name) if path == home else reads)]
    assert users, f"{module}.{name} is exported but nothing in src/ or scripts/ reads it"


def _sites(tree, match) -> list:
    """(enclosing function, line) of each node of ``tree`` that ``match`` accepts."""
    out, stack = [], [(tree, None)]
    while stack:
        node, func = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if match(node):
            out.append((func, node.lineno))
        stack.extend((child, func) for child in ast.iter_child_nodes(node))
    return out


def _calls(attr):
    return lambda node: (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                         and node.func.attr == attr)


def _sets_writeable(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Attribute) and t.attr == "writeable" for t in node.targets)


SOURCES = {path.name: tree for path, tree in TREES.items() if path.parent.name == "bergman_lab"}


@pytest.mark.parametrize("match, home", [
    (_calls("memo"), ("fiber_numerics.py", "memoize")),
    (_sets_writeable, ("fiber_numerics.py", "_freeze")),
    (_calls("setflags"), None),
], ids=["memo", "writeable", "setflags"])
def test_one_store_and_one_freeze(match, home):
    sites = [(name, func, line) for name, tree in SOURCES.items() for func, line in _sites(tree, match)]
    assert [(name, func) for name, func, _line in sites] == ([home] if home else []), sites
