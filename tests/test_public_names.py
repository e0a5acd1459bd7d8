"""Every public top-level function and class of the package has a caller in
the program itself (src/ or perfbench/), not only in the tests: code that
only its own test calls belongs in tests/ or nowhere."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "shishkin_hdg"


def _used_names(tree, skip=None) -> set:
    """Names read or attributes taken anywhere in `tree` outside `skip`."""
    inside = set(map(id, ast.walk(skip))) if skip is not None else set()
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if id(node) not in inside
            and isinstance(node, (ast.Name, ast.Attribute))}


def test_every_public_name_has_a_caller_outside_tests():
    # re-exports in __init__ and the benchmark's own tests do not count
    callers = [p for p in [*PACKAGE.glob("*.py"),
                           *(ROOT / "perfbench").glob("*.py")]
               if p.name != "__init__.py" and not p.name.startswith("test_")]
    trees = {p: ast.parse(p.read_text()) for p in callers}
    used = {p: _used_names(t) for p, t in trees.items()}
    unused = []
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        elsewhere = set().union(*(u for q, u in used.items() if q != path))
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_") \
                    and node.name not in elsewhere \
                    and node.name not in _used_names(trees[path], node):
                unused.append(f"{path.name}: {node.name}")
    assert not unused, unused
