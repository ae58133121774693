"""Static hygiene of the package sources, checked with the stdlib ``ast``.

No linter ships with the project, so this stands in for the nine rules the
sources keep by hand:

* every module-level import is used by its module or re-exported through
  ``__all__``;
* every ``__all__`` entry names a top-level definition, assignment or import
  of its own module (a stale entry breaks ``from module import *``);
* every top-level ``def`` or ``class`` of the package is named somewhere in
  the package, ``scripts/`` or ``perfbench/`` (a call, an attribute, a
  reference), unless :data:`TEST_ONLY` keeps it with a reason.  A definition
  that only tests call is deleted, not kept for them;
* likewise every method of a top-level class, dunders aside, unless
  :data:`UNCALLED_METHODS` keeps it with a reason;
* every defaulted parameter of a package function or method is passed, by
  keyword or by position, by some call in the package, ``scripts/`` or
  ``perfbench/``, unless :data:`TEST_ONLY_PARAMETERS` keeps it with a reason
  (definitions in :data:`TEST_ONLY` are exempt).  An option with one value
  in use is a constant;
* every ``lru_cache`` of the package names an integer ``maxsize``, and no
  ``functools.cache`` is used: the package caches whole windows and cluster
  records, so an unbounded cache would grow with every sample;
* ``json.dump``, ``json.dumps`` and ``json.JSONEncoder`` appear only in
  ``cli.write_json``: every artifact goes through one encoder, so one
  function decides the bytes of every JSON file;
* only ``engine`` names the lazy explorer ``explore``, its ``membership``
  helper and the lazy references ``connect_sets``, ``spanning_clusters`` and
  ``explore_cluster``.  Every production path samples on windows;
* only ``windowed`` imports ``scipy``, at module level or inside a function:
  every graph search, and any batching of searches, lives in one module.
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
    "spanning_clusters":
        "reference oracle: the lazy spanning-cluster scan (perfbench spans it by name)",
    "edges_within": "reference oracle for the edge set of a region",
    "edge_state": "reference oracle: the validated scalar edge bit (perfbench spans it by name)",
    "connect_sets":
        "reference oracle for extraction's window queries (perfbench spans it by name)",
}

#: Methods that nothing outside the tests names, kept on purpose.
UNCALLED_METHODS = {
    "_Parser.error": "argparse hook: ArgumentParser calls it on a bad command line",
    "TinyGraph.component_of": "per-mask reference for TinyGraph.reach and popcount64",
    "TinyGraph.connected": "per-mask reference for TinyGraph.connects",
}

#: Defaulted parameters, as ``module.function.parameter`` (or
#: ``module.Class.method.parameter``), that only tests pass, kept on purpose.
TEST_ONLY_PARAMETERS = {
    "clusters.estimate_regularity.resample_region":
        "frozen d = 3 tallies 67/100 and 86/100, and the exact conditional",
    "battery.run_y_battery.geoms": "criterion 5 runs the battery on its own geometries",
    "cli.main.argv": "the tests run the CLI in-process; the console script passes none",
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
    exported = _exported(tree)
    return sorted((line, name) for name, line in bound.items()
                  if name not in used and name not in exported)


def _exported(tree: ast.Module):
    """The module's ``__all__`` entries (none when it has no ``__all__``)."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _bound_names(tree: ast.Module):
    """Every name the module binds at top level: definitions, assignments
    and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_imports_are_used(path):
    assert _unused_imports(_parse(path)) == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_all_entries_are_defined(path):
    tree = _parse(path)
    assert sorted(_exported(tree) - _bound_names(tree)) == []


def _unbounded_caches(tree: ast.Module):
    """Lines that import or use ``functools.cache``, or use an ``lru_cache``
    without an integer ``maxsize`` (a bare decorator, ``maxsize=None``)."""
    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            size = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
            if size and isinstance(size[0], ast.Constant) and type(size[0].value) is int:
                bounded.add(id(node.func))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                lines.append(node.lineno)
        elif getattr(node, "id", getattr(node, "attr", None)) == "lru_cache":
            if id(node) not in bounded:
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_caches_are_bounded(path):
    assert _unbounded_caches(_parse(path)) == []


def test_unbounded_caches_are_caught():
    src = """
import functools
from functools import cache, lru_cache
@lru_cache
def a(): pass
@functools.lru_cache(maxsize=None)
def b(): pass
@functools.cache
def c(): pass
@lru_cache(maxsize=4)
def d(): pass
@lru_cache(8)
def e(): pass
"""
    assert _unbounded_caches(ast.parse(src)) == [3, 4, 6, 8]


#: The names that encode JSON, as ``json.<name>`` or imported from ``json``.
JSON_ENCODERS = {"dump", "dumps", "JSONEncoder"}


def _json_encoders(tree: ast.Module, allowed=None):
    """Lines that name a JSON encoder outside the top-level function named
    ``allowed``."""
    exempt = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == allowed:
            exempt.update(id(n) for n in ast.walk(node))
    lines = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            lines += [node.lineno for alias in node.names if alias.name in JSON_ENCODERS]
        elif (isinstance(node, ast.Attribute) and node.attr in JSON_ENCODERS
              and isinstance(node.value, ast.Name) and node.value.id == "json"):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_write_json_is_the_one_json_encoder(path):
    allowed = "write_json" if path.name == "cli.py" else None
    assert _json_encoders(_parse(path), allowed) == []


def test_other_json_encoders_are_caught():
    src = """
import json
from json import dumps as encode, loads
def write_json(fh, obj):
    json.dump(obj, fh, sort_keys=True)
def report(obj):
    return json.dumps(obj)
class Writer:
    def write_json(self, obj):
        return json.JSONEncoder(indent=2).encode(obj)
config = json.load
"""
    assert _json_encoders(ast.parse(src), "write_json") == [3, 7, 10]
    assert _json_encoders(ast.parse(src)) == [3, 5, 7, 10]


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


def _defaulted_parameters():
    """(key, callee name, parameter, position) for every defaulted parameter
    of a top-level function or method of the package.  ``position`` counts
    the positional parameters after ``self``/``cls`` (``None`` for a
    keyword-only one); a constructor is called by its class name."""
    for path in SOURCES:
        module = path.stem
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                funcs = [(node.name, node.name, node, False)]
            elif isinstance(node, ast.ClassDef):
                funcs = [(f"{node.name}.{item.name}",
                          node.name if item.name == "__init__" else item.name, item,
                          not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                  for d in item.decorator_list))
                         for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
            else:
                continue
            if node.name in TEST_ONLY:
                continue
            for qualname, callee, func, bound in funcs:
                args = func.args
                positional = args.posonlyargs + args.args
                skip = 1 if bound else 0
                first = len(positional) - len(args.defaults)
                for i in range(first, len(positional)):
                    name = positional[i].arg
                    yield f"{module}.{qualname}.{name}", callee, name, i - skip
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield f"{module}.{qualname}.{arg.arg}", callee, arg.arg, None


def _passed_arguments():
    """For each callee name, the keywords passed to it and the most
    positional arguments passed to it by any call outside the tests; a
    ``*args`` or ``**kwargs`` counts as passing everything."""
    keywords, positions = {}, {}
    for path in CALLERS:
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            n = float("inf") if starred else len(node.args)
            positions[name] = max(positions.get(name, 0), n)
            kws = keywords.setdefault(name, set())
            for kw in node.keywords:
                kws.add("**" if kw.arg is None else kw.arg)
    return keywords, positions


def _parameters_passed():
    """(key, passed outside the tests?) for every defaulted parameter."""
    keywords, positions = _passed_arguments()
    for key, callee, name, position in _defaulted_parameters():
        kws = keywords.get(callee, set())
        passed = (name in kws or "**" in kws
                  or (position is not None and positions.get(callee, 0) > position))
        yield key, passed


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    unset = [key for key, passed in _parameters_passed()
             if not passed and key not in TEST_ONLY_PARAMETERS]
    assert unset == []


def test_test_only_parameter_entries_are_current():
    """An entry that is gone, or that has gained a caller, is stale."""
    passed = dict(_parameters_passed())
    stale = sorted(key for key in TEST_ONLY_PARAMETERS if passed.get(key, True))
    assert stale == []


#: The lazy explorer and the lazy references built on it.
LAZY_NAMES = {"explore", "membership", "connect_sets", "spanning_clusters", "explore_cluster"}


def _lazy_names(tree: ast.Module):
    """Lines that name one of :data:`LAZY_NAMES`: as a name, an attribute,
    an import or a definition."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [n for alias in node.names for n in (alias.name, alias.asname)]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        lines += [node.lineno for name in names if name in LAZY_NAMES]
    return sorted(lines)


NOT_ENGINE = [p for p in SOURCES if p.name != "engine.py"]


@pytest.mark.parametrize("path", NOT_ENGINE, ids=[p.name for p in NOT_ENGINE])
def test_only_engine_names_the_lazy_explorer(path):
    assert _lazy_names(_parse(path)) == []


def test_lazy_explorer_names_are_caught():
    src = """
from .engine import explore, membership as member
import percolab.engine
def f(cfg):
    percolab.engine.connect_sets(cfg)
    return spanning_clusters(cfg), explore_cluster(cfg), _window_spanning_clusters(cfg)
def explore(): pass
"""
    assert _lazy_names(ast.parse(src)) == [2, 2, 5, 6, 6, 7]


def _scipy_imports(tree: ast.Module):
    """Lines that import ``scipy`` or one of its submodules, anywhere in the
    module."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        lines += [node.lineno for name in names if name.split(".")[0] == "scipy"]
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_windowed_imports_scipy(path):
    assert bool(_scipy_imports(_parse(path))) == (path.name == "windowed.py")


def test_stray_scipy_imports_are_caught():
    src = """
import numpy as np, scipy
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order
from .windowed import origin_cluster
from . import scipy_free
def f():
    from scipy import optimize
    import scipyish
    return optimize
"""
    assert _scipy_imports(ast.parse(src)) == [2, 3, 4, 8]
