"""Static hygiene of the package sources, checked with the stdlib ``ast``.

No linter ships with the project, so this stands in for the three rules the
sources keep by hand:

* every module-level import is used by its module or re-exported through
  ``__all__``;
* every top-level ``def`` or ``class`` of the package is named somewhere in
  the package, ``scripts/`` or ``perfbench/`` (a call, an attribute, a
  reference), unless :data:`TEST_ONLY` keeps it with a reason.  A definition
  that only tests call is deleted, not kept for them;
* likewise every method of a top-level class, dunders aside, unless
  :data:`UNCALLED_METHODS` keeps it with a reason.
"""

import ast
import pathlib

import pytest

import percolab

SOURCES = sorted(pathlib.Path(percolab.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parents[1]
CALLERS = SOURCES + sorted((ROOT / "scripts").glob("*.py")) \
    + sorted((ROOT / "perfbench").glob("*.py"))

#: Top-level definitions that only tests call, kept on purpose.
TEST_ONLY = {
    "spanning_cluster_sets": "reference oracle for the lazy spanning-cluster scan",
    "component_rows": "reference oracle for one component of a window labelling",
    "edges_within": "reference oracle for the edge set of a region",
    "edge_state": "reference oracle: the validated scalar edge bit (perfbench spans it by name)",
    "convolution_sweep": "the convolution bound over a sweep of separations",
    "obstacle_family": "sibling of the family constructors the scripts use",
    "halfspace_family": "sibling of the family constructors the scripts use",
    "interleaved_family": "sibling of the family constructors the scripts use",
}

#: Methods that nothing outside the tests names, kept on purpose.
UNCALLED_METHODS = {
    "_Parser.error": "argparse hook: ArgumentParser calls it on a bad command line",
    "TinyGraph.component_of": "per-mask reference for TinyGraph.reach and popcount64",
    "TinyGraph.connected": "per-mask reference for TinyGraph.connects",
}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _unused_imports(tree: ast.Module):
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_imports_are_used(path):
    assert _unused_imports(_parse(path)) == []


def _top_level_definitions():
    for path in SOURCES:
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path.name, node.name


def _referenced_names():
    names = set()
    for path in CALLERS:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_definition_has_a_non_test_caller():
    used = _referenced_names()
    uncalled = [f"{module}: {name}" for module, name in _top_level_definitions()
                if name not in used and name not in TEST_ONLY]
    assert uncalled == []


def test_test_only_entries_are_current():
    """An entry that is gone, or that has gained a caller, is stale."""
    defined = {name for _, name in _top_level_definitions()}
    used = _referenced_names()
    stale = sorted(name for name in TEST_ONLY if name not in defined or name in used)
    assert stale == []


def _methods():
    """(module, "Class.method", method) for every non-dunder method of a
    top-level class of the package."""
    for path in SOURCES:
        for node in _parse(path).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        yield path.name, f"{node.name}.{item.name}", item.name


def test_every_method_has_a_non_test_caller():
    used = _referenced_names()
    uncalled = [f"{module}: {qualname}" for module, qualname, name in _methods()
                if name not in used and qualname not in UNCALLED_METHODS]
    assert uncalled == []


def test_uncalled_method_entries_are_current():
    """An entry that is gone, or whose name has gained a caller, is stale."""
    used = _referenced_names()
    names = {qualname: name for _, qualname, name in _methods()}
    stale = sorted(q for q in UNCALLED_METHODS if q not in names or names[q] in used)
    assert stale == []
