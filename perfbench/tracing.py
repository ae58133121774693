"""Per-layer spans recorded from outside the package.

Each traced function is replaced, wherever a percolab module looks its name
up, by a wrapper that records calls, busy time and self time (busy time minus
the time covered by traced callees).  ``from .windowed import
component_labels`` binds the name in the importing module, so the wrapper is
installed in every module whose attribute is the original object.  Nothing
under ``src/`` changes; ``uninstall`` restores every original.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

# (module, qualified name) of every spanned function.
SPANNED = [
    ("windowed", "component_labels"),
    ("windowed", "sample_open_edges"),
    ("windowed", "build_window"),
    ("windowed", "connection_indicator"),
    ("engine", "edge_state"),
    ("engine", "explore_cluster"),
    ("engine", "connect_sets"),
    ("engine", "spanning_clusters"),
    ("engine", "sample_masks"),
    ("engine", "enumerate_exact"),
    ("engine", "exact_event_table"),
    ("lattice", "region_boundaries"),
    ("experiments", "CylinderEvent.evaluate"),
    ("experiments", "iic_series"),
    ("experiments", "supercritical_report"),
    ("experiments", "extract_kernels"),
    ("clusters", "scan_good_spanning"),
    ("clusters", "good_spanning_check"),
    ("clusters", "estimate_regularity"),
    ("estimators", "locate_pc"),
    ("estimators", "two_point_profile"),
    ("estimators", "one_arm_profile"),
    ("battery", "run_oracle_battery"),
    ("battery", "run_y_battery"),
    ("battery", "run_nofurther_battery"),
    ("battery", "decompose_arm_exact"),
    ("kernels", "contract_check"),
    ("kernels", "ratio_limit"),
    ("config", "Config.from_dict"),
]

# Called once per edge: counted, but no span, to keep the overhead bounded.
COUNTED = [("engine", "raw_edge_state")]


class TraceState:
    """Span statistics and work counters of one phase."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.window_sites: Dict[int, int] = defaultdict(int)       # radius -> sites labelled
        self.p_per_sample: Dict[Tuple[int, int], set] = defaultdict(set)
        self.regularity_by_kind: Dict[Tuple[str, str], int] = defaultdict(int)


def _count_work(st: TraceState, op_kind: str, name: str, args, result) -> None:
    """Work counters read from the arguments and results of a span."""
    c = st.counts
    if name == "windowed.component_labels":
        win = args[0]
        c[name + ".sites"] += win.n_sites
        st.window_sites[win.outer] += win.n_sites
    elif name == "windowed.sample_open_edges":
        win, cfg, sid = args[:3]
        st.p_per_sample[(win.outer, sid)].add(cfg.p)
    elif name == "windowed.build_window":
        c[name + ".edges"] += result.n_edges
    elif name == "engine.explore_cluster":
        c[name + ".vertices"] += len(result.vertices)
        c[name + ".truncated"] += int(result.truncated)
    elif name == "engine.sample_masks":
        c[name + ".masks"] += len(result)
    elif name == "engine.enumerate_exact":
        c[name + ".configs"] += 1 << len(args[0])
    elif name == "clusters.scan_good_spanning":
        c[name + ".candidates"] += len(result)
        c[name + ".good"] += sum(1 for r in result if r.good)
    elif name == "clusters.estimate_regularity":
        for _, est, _, _ in result.per_s:
            key = "resampled" if est.n_samples else "volume_settled"
            c["clusters.regularity." + key] += 1
            st.regularity_by_kind[(op_kind, key)] += 1
    elif name == "experiments.iic_series":
        for pt in result:
            c["experiments.iic.accepted"] += pt.n_accepted
            c["experiments.iic.sampled"] += pt.acceptance.n_samples
    elif name == "experiments.supercritical_report":
        for pts in result.sweeps.values():
            for pt in pts:
                c[name + ".accepted"] += pt.n_accepted
                c[name + ".sampled"] += pt.acceptance.n_samples
    elif name == "estimators.locate_pc":
        c[name + ".evals"] += len(result[1]["curve"])


class Tracer:
    """Installs the spans and accumulates into its current ``state``."""

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, object]] = []
        self._stack: List[float] = []
        self.op_kind = ""
        self.state = TraceState()

    def reset(self) -> TraceState:
        """Start a new phase; return the finished one."""
        done, self.state = self.state, TraceState()
        return done

    # -- wrappers ----------------------------------------------------------
    def _span(self, name: str, fn: Callable) -> Callable:
        tr = self

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            tr._stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = tr._stack.pop()
                if tr._stack:
                    tr._stack[-1] += dt
                st = tr.state
                st.calls[name] += 1
                st.busy[name] += dt
                st.self_time[name] += dt - child
            _count_work(tr.state, tr.op_kind, name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        tr = self

        def wrapper(*args):
            tr.state.calls[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, callers=()) -> None:
        """Patch every percolab module, plus ``callers`` (modules outside the
        package that bound the entry points by name)."""
        import percolab

        modules = [m for n, m in sys.modules.items()
                   if n == "percolab" or n.startswith("percolab.")] + list(callers)
        for make, table in ((self._span, SPANNED), (self._counter, COUNTED)):
            for mod_name, qual in table:
                name = f"{mod_name}.{qual}"
                home = getattr(percolab, mod_name)
                if "." in qual:  # a method or classmethod on a class
                    cls_name, attr = qual.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        self._set(cls, attr, classmethod(make(name, raw.__func__)))
                    else:
                        self._set(cls, attr, make(name, raw))
                    continue
                original = getattr(home, qual)
                wrapped = make(name, original)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            self._set(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


def snapshot(st: TraceState) -> Dict[str, float]:
    """Flat per-layer metrics of one phase."""
    out: Dict[str, float] = {}
    for mod_name, qual in SPANNED:
        name = f"{mod_name}.{qual}"
        out[name + ".calls"] = st.calls.get(name, 0)
        out[name + ".busy_s"] = st.busy.get(name, 0.0)
        out[name + ".self_s"] = st.self_time.get(name, 0.0)
    for mod_name, qual in COUNTED:
        name = f"{mod_name}.{qual}"
        out[name + ".calls"] = st.calls.get(name, 0)
    c = st.counts
    for key in (
        "windowed.component_labels.sites",
        "windowed.build_window.edges",
        "engine.explore_cluster.vertices",
        "engine.explore_cluster.truncated",
        "engine.sample_masks.masks",
        "engine.enumerate_exact.configs",
        "clusters.scan_good_spanning.candidates",
        "clusters.scan_good_spanning.good",
        "clusters.regularity.volume_settled",
        "clusters.regularity.resampled",
        "estimators.locate_pc.evals",
    ):
        out[key] = c.get(key, 0)
    out["clusters.good_ratio"] = _ratio(
        c.get("clusters.scan_good_spanning.good", 0),
        c.get("clusters.scan_good_spanning.candidates", 0))
    out["experiments.iic.acceptance"] = _ratio(
        c.get("experiments.iic.accepted", 0), c.get("experiments.iic.sampled", 0))
    out["experiments.supercritical_report.acceptance"] = _ratio(
        c.get("experiments.supercritical_report.accepted", 0),
        c.get("experiments.supercritical_report.sampled", 0))
    return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def counts_only(snapshot: Dict[str, float]) -> Dict[str, float]:
    """The deterministic part of a snapshot: every metric that is not a time."""
    return {k: v for k, v in snapshot.items() if not k.endswith("_s")}


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".good_ratio", ".acceptance")):
        return "ratio"
    return "count"


