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
  :data:`UNCALLED_METHODS` keeps it with a reason.  A reference reaches the
  method of its receiver's class where the class is known (``self``, an
  annotation, a constructor or an annotated return), else every method or
  property of that name, so a field of one class cannot stand in for a
  method of another (:func:`_method_reach`);
* every defaulted parameter of a package function or method, and every
  defaulted dataclass field (a parameter of the generated constructor,
  unless ``field(init=False)``), is passed, by keyword or by position, by
  some call in the package, ``scripts/`` or ``perfbench/``, a ``cls(...)``
  counting as a call of its class, unless :data:`TEST_ONLY_PARAMETERS`
  keeps it with a reason (definitions in :data:`TEST_ONLY` are exempt).  An
  option with one value in use is a constant;
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

#: Methods that no reference outside the tests is known to reach, kept on
#: purpose.
UNCALLED_METHODS = {
    "_Parser.error": "argparse hook: ArgumentParser calls it on a bad command line",
    "TinyGraph.component_of": "per-mask reference for TinyGraph.reach and popcount64",
    "TinyGraph.connected": "per-mask reference for TinyGraph.connects",
    "OracleGraph.exact":
        "exact value of a battery graph, the reference for the battery's table reads",
    # perfbench's untyped read of a window's n_edges may still reach it
    "YGeometry.n_edges": "criterion 5 bounds every battery geometry at 22 edges",
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


def _methods(modules):
    """``(class, method)`` for every non-dunder method of a top-level class
    of ``modules`` (parsed trees)."""
    for tree in modules:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        yield node.name, item.name


def _members(modules):
    """``{class: {member: kind}}`` for every top-level class of ``modules``:
    ``"method"`` for a plain, static or class method, ``"data"`` for a
    property, a class-level name or an attribute a method sets on ``self``."""
    members = {}
    for tree in modules:
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            own = members.setdefault(cls.name, {})
            for item in cls.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    prop = any(getattr(d, "id", getattr(d, "attr", None))
                               in ("property", "cached_property") for d in item.decorator_list)
                    own[item.name] = "data" if prop else "method"
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    own[item.target.id] = "data"
                elif isinstance(item, ast.Assign):
                    own.update((t.id, "data") for t in item.targets if isinstance(t, ast.Name))
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and getattr(node.value, "id", None) == "self"):
                    own.setdefault(node.attr, "data")
    return members


def _class_of(node, classes, returns):
    """The class of ``classes`` that ``node`` names as an annotation (``C``,
    ``"C"`` or ``Optional[C]``) or as a value (``C``, ``C(...)`` or a call of
    a function that ``returns`` maps to ``C``); ``None`` when unknown."""
    if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "Optional":
        node = node.slice
    if isinstance(node, ast.Call):
        name = getattr(node.func, "id", None)
        return name if name in classes else returns.get(name)
    name = node.value if isinstance(node, ast.Constant) else getattr(node, "id", None)
    return name if name in classes else None


def _local_classes(func, method_of, classes, returns):
    """``{name: class}`` for the names of ``func`` whose class is known: the
    first parameter of a method of ``method_of`` (``self`` or ``cls``),
    parameters annotated with a class, and names that every binding in
    ``func`` (nested scopes aside) binds to one class."""
    params = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
    bound = {}
    if method_of is not None and params and not any(
            getattr(d, "id", None) == "staticmethod" for d in func.decorator_list):
        bound[params[0].arg] = {method_of}
        params = params[1:]
    for a in params:
        bound[a.arg] = {_class_of(a.annotation, classes, returns)}
    nested = {id(n) for d in ast.walk(func) if d is not func and isinstance(
        d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)) for n in ast.walk(d)}
    own = [n for n in ast.walk(func) if id(n) not in nested]
    typed = set()
    for node in own:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, cls = node.targets[0], _class_of(node.value, classes, returns)
        elif isinstance(node, ast.AnnAssign):
            target, cls = node.target, _class_of(node.annotation, classes, returns)
        else:
            continue
        if isinstance(target, ast.Name):
            typed.add(id(target))
            bound.setdefault(target.id, set()).add(cls)
    for node in own:  # a loop or comprehension target, an unpacking, a del
        if (isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)
                and id(node) not in typed):
            bound.setdefault(node.id, set()).add(None)
    return {name: cls for name, (cls, *more) in bound.items() if cls and not more}


def _references(tree, classes, returns):
    """``(name, class, called)`` for every attribute ``x.name`` and every
    bare name read in ``tree``; ``class`` is the class of ``x`` where
    :func:`_local_classes` or :func:`_class_of` knows it, else ``None``."""
    called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    refs = []

    def visit(node, local):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node.name if isinstance(node, ast.ClassDef) else None
                visit(child, {**local, **_local_classes(child, owner, classes, returns)})
                continue
            if isinstance(child, ast.Lambda):
                shadowed = {a.arg for a in child.args.args}
                visit(child, {k: v for k, v in local.items() if k not in shadowed})
                continue
            if isinstance(child, ast.Attribute):
                recv = child.value
                cls = (local.get(recv.id) if isinstance(recv, ast.Name) and recv.id in local
                       else _class_of(recv, classes, returns))
                refs.append((child.attr, cls, id(child) in called))
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                refs.append((child.id, None, id(child) in called))
            visit(child, local)

    visit(tree, {})
    return refs


def _method_reach(modules=None, callers=None):
    """``{"Class.method": (reached, surely)}`` for every non-dunder method of
    the top-level classes of ``modules``, from the references in
    ``callers``; by default the package's methods, referenced outside the
    tests.

    A reference whose receiver's class is known reaches that class only.
    Any other ``x.m`` reaches every class with a member ``m`` of its kind (a
    method when it is called, data when it is read; every class with an
    ``m`` when none has one of that kind), so reading the field ``exact`` of
    one class does not reach the method ``exact`` of another.  A reference
    reaches a class *surely* when it reaches no other."""
    if modules is None:
        modules = [_parse(path) for path in SOURCES]
    if callers is None:
        callers = [_parse(path) for path in CALLERS]
    members = _members(modules)
    returns = {f.name: _class_of(f.returns, members, {}) for tree in modules for f in tree.body
               if isinstance(f, ast.FunctionDef) and f.returns is not None}
    owners = {}
    for cls, own in members.items():
        for name, kind in own.items():
            owners.setdefault(name, {})[cls] = kind
    reach = {method: [False, False] for method in _methods(modules)}
    for tree in callers:
        for name, cls, is_call in _references(tree, members, returns):
            have = owners.get(name, {})
            if cls is not None:
                targets = {cls} & set(have)
            else:
                kind = "method" if is_call else "data"
                targets = {c for c, k in have.items() if k == kind} or set(have)
            for c in targets:
                if (c, name) in reach:
                    reach[c, name] = [True, reach[c, name][1] or targets == {c}]
    return {f"{cls}.{name}": tuple(r) for (cls, name), r in reach.items()}


def test_every_method_has_a_non_test_caller():
    uncalled = sorted(q for q, (reached, _) in _method_reach().items()
                      if not reached and q not in UNCALLED_METHODS)
    assert uncalled == []


def test_uncalled_method_entries_are_current():
    """An entry that is gone, or that some non-test reference surely
    reaches, is stale."""
    reach = _method_reach()
    stale = sorted(q for q in UNCALLED_METHODS if reach.get(q, (True, True))[1])
    assert stale == []


def test_name_collisions_are_caught():
    src = '''
from typing import Optional
class Graph:
    def exact(self): pass
    @property
    def n_edges(self): pass
    def total(self): return self.exact()
class Cell:
    exact: float
class Window:
    @property
    def n_edges(self): pass
    def rows(self): pass
class Report:
    def passed(self): pass
    def stray(self): pass
def build_window() -> Window: pass
def read(cells, w: Window, z: Optional["Window"], anything):
    win = build_window()
    ok = Report().passed()
    return [c.exact for c in cells], w.n_edges, win.n_edges, z.rows, ok
def size(anything):
    return anything.n_edges
'''
    tree = ast.parse(src)
    reach = _method_reach([tree], [tree])
    # the field read reaches no method, and a known receiver only its class
    assert reach == {"Graph.exact": (True, True), "Graph.n_edges": (True, False),
                     "Graph.total": (False, False), "Window.n_edges": (True, True),
                     "Window.rows": (True, True), "Report.passed": (True, True),
                     "Report.stray": (False, False)}
    # without the untyped read in ``size``, only the typed ones are left
    trimmed = ast.parse(src.split("def size")[0])
    assert _method_reach([trimmed], [trimmed])["Graph.n_edges"] == (False, False)
    assert _method_reach([trimmed], [trimmed])["Window.n_edges"] == (True, True)
    # a field read alone leaves the method of that name uncalled
    no_total = ast.parse(src.replace("return self.exact()", "pass"))
    assert _method_reach([no_total], [no_total])["Graph.exact"] == (False, False)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _defaulted_fields(cls: ast.ClassDef):
    """(field, position) for every defaulted field of a dataclass: its
    generated ``__init__`` takes the annotated fields in order, minus those
    declared ``field(init=False)``."""
    position = 0
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            kws = {kw.arg: kw.value for kw in value.keywords}
            init = kws.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            defaulted = "default" in kws or "default_factory" in kws
        else:
            defaulted = value is not None
        if defaulted:
            yield item.target.id, position
        position += 1


def _defaulted_parameters(modules):
    """(key, callee name, parameter, position) for every defaulted parameter
    of a top-level function, method or dataclass constructor of
    ``modules``, (name, tree) pairs.  ``position`` counts the positional
    parameters after ``self``/``cls`` (``None`` for a keyword-only one); a
    constructor, written or generated, is called by its class name."""
    for module, tree in modules:
        for node in tree.body:
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
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for name, position in _defaulted_fields(node):
                    yield f"{module}.{node.name}.{name}", node.name, name, position
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


def _passed_arguments(trees):
    """For each callee name, the keywords passed to it and the most
    positional arguments passed to it by any call in ``trees``; a ``*args``
    or ``**kwargs`` counts as passing everything, and a ``cls(...)`` inside
    a class calls that class."""
    keywords, positions = {}, {}
    for tree in trees:
        # ast.walk is breadth-first, so a nested class claims its own calls
        owner = {id(n): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for n in ast.walk(cls)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            if name == "cls":
                name = owner.get(id(node), name)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            n = float("inf") if starred else len(node.args)
            positions[name] = max(positions.get(name, 0), n)
            kws = keywords.setdefault(name, set())
            for kw in node.keywords:
                kws.add("**" if kw.arg is None else kw.arg)
    return keywords, positions


def _parameters_passed(modules=None, callers=None):
    """(key, passed by ``callers``?) for every defaulted parameter of
    ``modules``; by default the package's, passed outside the tests."""
    if modules is None:
        modules = [(path.stem, _parse(path)) for path in SOURCES]
    if callers is None:
        callers = [_parse(path) for path in CALLERS]
    keywords, positions = _passed_arguments(callers)
    for key, callee, name, position in _defaulted_parameters(modules):
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


def test_stray_fields_are_caught():
    src = """
from dataclasses import dataclass, field
@dataclass(frozen=True)
class Family:
    kind: str
    n_list: tuple = ()
    sub: object = None
    cached: int = field(init=False, default=0)
    extra: list = field(default_factory=list)
    @classmethod
    def make(cls, kind):
        return cls(kind, extra=[])
@dataclass
class Point:
    x: int
    y: int = 0
class Plain:
    z: int = 0
def build():
    return Family("box", (2,)), Point(1, 2)
"""
    tree = ast.parse(src)
    # ``cached`` is no constructor parameter, ``extra`` is set through
    # ``cls(...)``, and ``Plain`` is no dataclass
    assert dict(_parameters_passed([("m", tree)], [tree])) == {
        "m.Family.n_list": True, "m.Family.sub": False, "m.Family.extra": True,
        "m.Point.y": True}


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
