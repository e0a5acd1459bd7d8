"""Every public top-level function and class of the package, and every
public method and property of a public class, has a caller in the program
itself (src/ or perfbench/), not only in the tests: code that only its own
test calls belongs in tests/ or nowhere. Every stored field is read there
too. Every span name the benchmark's tracer reads names a function of the
package. Only linalg imports scipy, and only linalg builds or solves the
assembled trace system. Every function that raises states why the check
belongs there."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "shishkin_hdg"
# attributes of these library modules (np.zeros) are not the program's
LIBRARY_MODULES = {"np", "sp", "spla"}


def _callers() -> dict:
    """Parsed trees of the program's files; re-exports in __init__ and the
    benchmark's own tests do not count."""
    paths = [p for p in [*PACKAGE.glob("*.py"),
                         *(ROOT / "perfbench").glob("*.py")]
             if p.name != "__init__.py" and not p.name.startswith("test_")]
    return {p: ast.parse(p.read_text()) for p in paths}


def _outside(tree, skip):
    inside = set(map(id, ast.walk(skip))) if skip is not None else set()
    return (node for node in ast.walk(tree) if id(node) not in inside)


def _used_names(tree, skip=None) -> set:
    """Names read or attributes taken anywhere in `tree` outside `skip`."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in _outside(tree, skip)
            if isinstance(node, (ast.Name, ast.Attribute))}


def _library_attribute(node) -> bool:
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in LIBRARY_MODULES


def _attributes_read(tree, skip=None) -> set:
    """Attribute names taken anywhere in `tree` outside `skip`, except
    those of the library modules."""
    return {node.attr for node in _outside(tree, skip)
            if isinstance(node, ast.Attribute)
            and not _library_attribute(node)}


def test_every_public_name_has_a_caller_outside_tests():
    trees = _callers()
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


def test_every_public_method_has_a_caller_outside_tests():
    # a method or property counts as used when its name is taken as an
    # attribute somewhere outside its own definition
    trees = _callers()
    unused = []
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) \
                        and not node.name.startswith("_") \
                        and not any(node.name in _attributes_read(
                            tree, node if q == path else None)
                            for q, tree in trees.items()):
                    unused.append(f"{path.name}: {cls.name}.{node.name}")
    assert not unused, unused


def _stored_names(cls) -> list:
    """The fields of a dataclass and the self.x an __init__ or
    __post_init__ stores."""
    dataclass = any((d.func if isinstance(d, ast.Call) else d).id
                    == "dataclass" for d in cls.decorator_list)
    names = []
    for node in cls.body:
        if dataclass and isinstance(node, ast.AnnAssign):
            names.append(node.target.id)
        elif isinstance(node, ast.FunctionDef) \
                and node.name in ("__init__", "__post_init__"):
            names += [t.attr for t in ast.walk(node)
                      if isinstance(t, ast.Attribute)
                      and isinstance(t.ctx, ast.Store)
                      and isinstance(t.value, ast.Name)
                      and t.value.id == "self"]
    return names


def test_every_stored_attribute_is_read():
    # a field no code reads is carried, and kept in step, for nothing; a
    # name taken as a string (the tracer replaces the problem's fields by
    # name) counts as read
    loaded = set()
    for tree in _callers().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                loaded.add(node.value)
    unread = []
    for path in PACKAGE.glob("*.py"):
        for cls in ast.parse(path.read_text()).body:
            if isinstance(cls, ast.ClassDef):
                unread += [f"{path.name}: {cls.name}.{name}"
                           for name in _stored_names(cls)
                           if name not in loaded]
    assert not unread, unread


def _imported_names(tree) -> set:
    """The names a module's imports bind, except __future__ features."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def test_every_imported_name_is_used():
    # no linter runs on the package, so an import that a deletion left
    # behind is caught here; __init__ uses its re-exports by listing them
    # in __all__
    unused = []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        unused += [f"{path.name}: {name}"
                   for name in sorted(_imported_names(tree) - used)]
    assert not unused, unused


def _imports_scipy(node) -> bool:
    if isinstance(node, ast.Import):
        modules = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom):
        modules = [node.module or ""]
    else:
        return False
    return any(m.split(".")[0] == "scipy" for m in modules)


def test_only_linalg_imports_scipy():
    # an import of scipy.sparse in assembly once raised the set-up time by
    # 26 ms, so no module but linalg imports scipy, at the top or inside a
    # function; and linalg imports it inside the SuperLU fallback only, as
    # importing scipy.sparse.linalg costs every process about 0.2 s and
    # 32 MB that the box-tree solve never uses
    importers = [path.name for path in PACKAGE.glob("*.py")
                 if any(map(_imports_scipy,
                            ast.walk(ast.parse(path.read_text()))))]
    assert set(importers) == {"linalg.py"}, importers
    top = ast.parse((PACKAGE / "linalg.py").read_text()).body
    assert not any(map(_imports_scipy, top))


def test_only_linalg_builds_the_assembled_trace_system():
    # the SuperLU fallback has one owner: solve_box_tree assembles and
    # solves it itself, so no other module imports SparseMatrix or calls
    # assemble_trace_system
    owners = []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        if {"SparseMatrix", "assemble_trace_system"} & (
                _used_names(tree) | _imported_names(tree)):
            owners.append(path.name)
    assert owners == ["linalg.py"], owners


# span names the benchmark's tracer reads that name nothing in the package
TRACER_EXEMPT = {
    # retired with the per-cell rule; the tracer still reads it, as 0
    "layerquad.cell_rule": "retired; ROADMAP item 4",
    # moved to linalg with the SuperLU fallback it assembles for; the
    # tracer still reads it as assembly.scatter_s, 0 on every gated pass
    "assembly.assemble_trace_system": "moved to linalg; ROADMAP item 8",
    # the tracer wraps the problem's fields under this name itself
    "problems.eval": "a span the tracer creates itself",
}


def test_every_span_name_the_tracer_reads_exists():
    # perfbench/tracer.py reads per-layer timings as calls["module.attr"]
    # and secs["module.attr"]; a renamed function would read 0 silently
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    names = {node.slice.value for node in ast.walk(tree)
             if isinstance(node, ast.Subscript)
             and isinstance(node.value, ast.Name)
             and node.value.id in ("calls", "secs")
             and isinstance(node.slice, ast.Constant)}
    assert "mesh.build_mesh" in names and set(TRACER_EXEMPT) <= names
    missing = []
    for name in sorted(names - set(TRACER_EXEMPT)):
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"shishkin_hdg.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert not missing, missing


# every function or method of the package that raises, and why: each input
# rule has one owner, and a check that repeats an upstream owner's rule
# does not belong here
RAISE_SITES = {
    "assembly.HdgConfig.__post_init__": "owns the degree, tau and rule sizes",
    "assembly.check_stabilization": "owns tau > |beta.n|/2 at the sides",
    "assembly.condense": "names the cell of a singular local system",
    "cli.parse_config_file": "owns the config file's syntax and keys",
    "harness.StudyConfig.__post_init__": "owns the mode and non-empty lists",
    "harness.one_cell": "single-cell commands take one k, eps and N",
    "layerquad.composite_layer_rule": "a scale <= 0 never ends its loop",
    "linalg.SparseMatrix.solve": "rhs size, its one LU and the 1e-12 gate",
    "linalg.__getattr__": "PEP 562: every name but the lazy spla is missing",
    "mesh.ShishkinMesh.N": "a non-square mesh has no single N",
    "mesh.ShishkinMesh.__post_init__": "exported: nodes must increase",
    "mesh.shishkin_nodes": "owns N, the positive mesh inputs, distinct nodes",
    "norms.convergence_rate": "exported: the log of a ratio needs errors > 0",
    "norms.dyadic_rate": "exported: the log of a ratio needs errors > 0",
    "norms.energy_weights": "the energy norm needs tau >= beta.n/2",
    "problems._problem": "owns eps in (0, 1] for every registered problem",
    "problems.get_problem": "names the registered problems",
    "refelem.gauss_rule": "leggauss(n) builds an n x n matrix",
}


def test_every_raise_site_states_why():
    # a re-added internal re-check fails here until it names its reason
    sites = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in members:
                if isinstance(fn, ast.FunctionDef) and any(
                        isinstance(n, ast.Raise) for n in ast.walk(fn)):
                    owner = fn.name if fn is node else f"{node.name}.{fn.name}"
                    sites.add(f"{path.stem}.{owner}")
    assert sites == set(RAISE_SITES), (sorted(sites - set(RAISE_SITES)),
                                       sorted(set(RAISE_SITES) - sites))
