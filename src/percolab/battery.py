"""Fixed verification batteries with independently computable answers.

Four families of small instances, used by the test suite and the
``oracle-battery`` CLI subcommand:

* an *oracle battery* of 30 explicit lattice-edge graphs (<= 12 edges each)
  whose event probabilities are exactly enumerable, against which the hashed
  Monte Carlo sampler is scored in 4-sigma cells over many seed groups;
* a *two-annulus pivotal-pair battery*: hand-built cluster/corridor
  geometries in which, over every free-edge configuration, the boundary
  pairs whose attachment edges are both open and pivotal (decided by
  removing the edge and retesting the event) are proved to number at most
  one;
* a randomized battery of tiny *cluster-exit bound* instances (the
  conditional-connection inequality checked in exact rational arithmetic);
* *arm-decomposition instances*: fully enumerable one-step models of the
  origin-to-target decomposition through an annulus spanning cluster, where
  the kernel factorization, the per-configuration uniqueness of the
  localized transition event, and the lower-bound defect are all exact.

Every exact answer is read off event tables over all ``2^m``
configuration masks, with no per-mask loop: each probability is
:func:`~percolab.engine.enumerate_exact` of a table, the two-annulus pair
counts are sums of per-edge pivotal tables, and a query inside a vertex set
``S`` runs on ``masks & tg.within(S)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from .engine import (
    PercolationConfig,
    TinyGraph,
    enumerate_exact,
    exact_event_table,
    popcount64,
    sample_masks,
)
from .estimators import SubgraphSpec, nofurther_check
from .lattice import Edge, LatticeSpec, Site

__all__ = [
    "OracleGraph",
    "oracle_battery",
    "run_oracle_battery",
    "OracleBatteryReport",
    "YGeometry",
    "y_geometries",
    "enumerate_y_geometry",
    "run_y_battery",
    "YBatteryReport",
    "run_nofurther_battery",
    "NofurtherBatteryReport",
    "ArmDecompositionInstance",
    "arm_decomposition_instances",
    "decompose_arm_exact",
    "ArmDecompositionReport",
]


# ---------------------------------------------------------------------------
# Oracle battery: Monte Carlo vs exact enumeration
# ---------------------------------------------------------------------------

_NN2 = LatticeSpec(d=2, edge_mode="nearest_neighbour")
_NN3 = LatticeSpec(d=3, edge_mode="nearest_neighbour")
_SO2 = LatticeSpec(d=2, edge_mode="spread_out", lam=2)


def _e(a: Site, b: Site) -> Edge:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class OracleGraph:
    """An explicit lattice-edge list plus one enumerable event.

    ``kind`` is ``"connect"`` (some source joined to some target) or
    ``"cluster_ge"`` (the open cluster of ``sources[0]`` has at least
    ``size`` vertices).  All edges are genuine edges of ``spec`` so that the
    production hash keys them exactly as a lattice exploration would.
    """

    name: str
    spec: LatticeSpec
    p: Fraction
    edges: Tuple[Edge, ...]
    kind: str
    sources: Tuple[Site, ...]
    targets: Tuple[Site, ...] = ()
    size: int = 0

    def query(self) -> Callable[[np.ndarray], np.ndarray]:
        """The event over an array of configuration masks."""
        tg = TinyGraph(self.edges)
        if self.kind == "connect":
            src, tgt = self.sources, self.targets
            return lambda masks: tg.connects(masks, src, tgt)
        if self.kind == "cluster_ge":
            root, k = self.sources[0], self.size
            return lambda masks: popcount64(tg.reach(masks, [root])) >= k
        raise ValueError(f"unknown event kind {self.kind!r}")

    def exact(self) -> Fraction:
        table = exact_event_table(len(self.edges), self.query())
        return enumerate_exact(self.edges, self.p, table)


def _path_edges(n: int, axis: int = 0) -> Tuple[Edge, ...]:
    out = []
    for i in range(n):
        a = tuple(i if j == axis else 0 for j in range(2))
        b = tuple(i + 1 if j == axis else 0 for j in range(2))
        out.append(_e(a, b))
    return tuple(out)


def _grid_edges(xs: Sequence[int], ys: Sequence[int]) -> Tuple[Edge, ...]:
    out = []
    for x in xs:
        for y in ys:
            if x + 1 in xs:
                out.append(_e((x, y), (x + 1, y)))
            if y + 1 in ys:
                out.append(_e((x, y), (x, y + 1)))
    return tuple(out)


def _cube_edges() -> Tuple[Edge, ...]:
    out = []
    for v in [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]:
        for j in range(3):
            if v[j] == 0:
                w = tuple(c + (1 if i == j else 0) for i, c in enumerate(v))
                out.append(_e(v, w))
    return tuple(out)


def oracle_battery() -> Tuple[OracleGraph, ...]:
    """The fixed 30-graph battery (every member has <= 12 edges)."""
    F = Fraction
    g: List[OracleGraph] = []

    def add(name, spec, p, edges, kind, sources, targets=(), size=0):
        g.append(OracleGraph(name, spec, F(p), tuple(edges), kind, tuple(sources), tuple(targets), size))

    # Paths: exact probability p^n.
    add("path1-p0.4", _NN2, F(2, 5), _path_edges(1), "connect", [(0, 0)], [(1, 0)])
    add("path2-p0.5", _NN2, F(1, 2), _path_edges(2), "connect", [(0, 0)], [(2, 0)])
    add("path3-p0.7", _NN2, F(7, 10), _path_edges(3), "connect", [(0, 0)], [(3, 0)])
    add("path5-p0.6", _NN2, F(3, 5), _path_edges(5), "connect", [(0, 0)], [(5, 0)])
    add("path4-vert-p0.35", _NN2, F(7, 20), _path_edges(4, axis=1), "connect", [(0, 0)], [(0, 4)])

    # Two parallel 2-step routes 0 -> (1,1): exact 1 - (1 - p^2)^2.
    par = (_e((0, 0), (1, 0)), _e((1, 0), (1, 1)), _e((0, 0), (0, 1)), _e((0, 1), (1, 1)))
    add("parallel2x2-p0.5", _NN2, F(1, 2), par, "connect", [(0, 0)], [(1, 1)])
    add("parallel2x2-p0.3", _NN2, F(3, 10), par, "connect", [(0, 0)], [(1, 1)])

    # Perimeter of B(1): two disjoint length-4 routes between opposite corners.
    perim = (
        _e((-1, -1), (0, -1)), _e((0, -1), (1, -1)), _e((1, -1), (1, 0)), _e((1, 0), (1, 1)),
        _e((-1, -1), (-1, 0)), _e((-1, 0), (-1, 1)), _e((-1, 1), (0, 1)), _e((0, 1), (1, 1)),
    )
    add("ring8-p0.45", _NN2, F(9, 20), perim, "connect", [(-1, -1)], [(1, 1)])
    add("ring8-p0.65", _NN2, F(13, 20), perim, "connect", [(-1, -1)], [(1, 1)])
    add("ring8-sides-p0.5", _NN2, F(1, 2), perim, "connect", [(-1, 0)], [(1, 0)])

    # Full 3x3 grid (12 edges).
    grid = _grid_edges((0, 1, 2), (0, 1, 2))
    add("grid3x3-corners-p0.5", _NN2, F(1, 2), grid, "connect", [(0, 0)], [(2, 2)])
    add("grid3x3-corners-p0.33", _NN2, F(1, 3), grid, "connect", [(0, 0)], [(2, 2)])
    add("grid3x3-sides-p0.6", _NN2, F(3, 5), grid, "connect", [(0, 1)], [(2, 1)])
    add("grid3x3-multi-p0.5", _NN2, F(1, 2), grid, "connect", [(0, 0), (0, 2)], [(2, 0), (2, 2)])
    add("grid3x3-cluster5-p0.5", _NN2, F(1, 2), grid, "cluster_ge", [(1, 1)], size=5)
    add("grid3x3-cluster3-p0.25", _NN2, F(1, 4), grid, "cluster_ge", [(1, 1)], size=3)

    # 2 x 4 ladder (10 edges).
    ladder = _grid_edges((0, 1, 2, 3), (0, 1))
    add("ladder2x4-p0.55", _NN2, F(11, 20), ladder, "connect", [(0, 0)], [(3, 1)])
    add("ladder2x4-p0.45", _NN2, F(9, 20), ladder, "connect", [(0, 0)], [(3, 1)])
    add("ladder2x4-cluster6-p0.7", _NN2, F(7, 10), ladder, "cluster_ge", [(0, 0)], size=6)

    # Theta: three vertex-disjoint routes (lengths 2, 4, 4) joining (0,0)-(2,0).
    theta = (
        _e((0, 0), (1, 0)), _e((1, 0), (2, 0)),
        _e((0, 0), (0, 1)), _e((0, 1), (1, 1)), _e((1, 1), (2, 1)), _e((2, 1), (2, 0)),
        _e((0, 0), (0, -1)), _e((0, -1), (1, -1)), _e((1, -1), (2, -1)), _e((2, -1), (2, 0)),
    )
    add("theta3route-p0.5", _NN2, F(1, 2), theta, "connect", [(0, 0)], [(2, 0)])
    add("theta3route-p0.2", _NN2, F(1, 5), theta, "connect", [(0, 0)], [(2, 0)])
    add("theta-cluster7-p0.6", _NN2, F(3, 5), theta, "cluster_ge", [(0, 0)], size=7)

    # Unit cube in d=3 (12 edges).
    cube = _cube_edges()
    add("cube-diag-p0.3", _NN3, F(3, 10), cube, "connect", [(0, 0, 0)], [(1, 1, 1)])
    add("cube-diag-p0.5", _NN3, F(1, 2), cube, "connect", [(0, 0, 0)], [(1, 1, 1)])
    add("cube-edge-p0.75", _NN3, F(3, 4), cube, "connect", [(0, 0, 0)], [(1, 0, 0)])
    add("cube-cluster5-p0.5", _NN3, F(1, 2), cube, "cluster_ge", [(0, 0, 0)], size=5)

    # d=3 comb: spine along x with teeth along z.
    comb = (
        _e((0, 0, 0), (1, 0, 0)), _e((1, 0, 0), (2, 0, 0)), _e((2, 0, 0), (3, 0, 0)),
        _e((0, 0, 0), (0, 0, 1)), _e((1, 0, 0), (1, 0, 1)),
        _e((2, 0, 0), (2, 0, 1)), _e((3, 0, 0), (3, 0, 1)),
    )
    add("comb3d-p0.55", _NN3, F(11, 20), comb, "connect", [(0, 0, 1)], [(3, 0, 1)])

    # Spread-out range-2 edges in d=2: long bonds coexist with short ones.
    so = (
        _e((0, 0), (2, 0)), _e((0, 0), (1, 1)), _e((1, 1), (2, 0)),
        _e((0, 0), (1, 0)), _e((1, 0), (2, 0)), _e((0, 0), (2, 2)), _e((2, 2), (2, 0)),
    )
    add("spread2-p0.35", _SO2, F(7, 20), so, "connect", [(0, 0)], [(2, 0)])
    add("spread2-p0.5", _SO2, F(1, 2), so, "connect", [(0, 0)], [(2, 0)])
    add("spread2-cluster4-p0.4", _SO2, F(2, 5), so, "cluster_ge", [(0, 0)], size=4)

    assert len(g) == 30, f"battery must hold 30 graphs, got {len(g)}"
    for og in g:
        assert len(og.edges) <= 12, og.name
    return tuple(g)


@dataclass
class OracleCell:
    graph: str
    group: int
    exact: float
    mc: float
    z: float
    ok: bool


@dataclass
class OracleBatteryReport:
    n_samples: int
    n_groups: int
    seed: int
    cells: List[OracleCell]
    pass_fraction: float
    max_abs_z: float

    def rows(self) -> List[Tuple]:
        return [(c.graph, c.group, c.exact, c.mc, c.z, int(c.ok)) for c in self.cells]


def run_oracle_battery(
    n_samples: int = 100_000,
    n_groups: int = 100,
    seed: int = 2024,
    graphs: Optional[Sequence[OracleGraph]] = None,
) -> OracleBatteryReport:
    """Score the hashed sampler against exact enumeration, cell by cell.

    A cell is one (graph, seed-group); its Monte Carlo frequency over
    ``n_samples`` disjoint sample ids is compared with the exact probability
    at 4 standard errors (binomial sigma computed from the exact value).
    """
    if graphs is None:
        graphs = oracle_battery()
    cells: List[OracleCell] = []
    for og in graphs:
        table = exact_event_table(len(og.edges), og.query())
        exact = float(enumerate_exact(og.edges, og.p, table))
        sigma = (exact * (1.0 - exact) / n_samples) ** 0.5
        if sigma == 0.0:
            raise ValueError(f"degenerate battery event in {og.name}")
        cfg = PercolationConfig(og.spec, float(og.p), seed)
        for grp in range(n_groups):
            ids = np.arange(grp * n_samples, (grp + 1) * n_samples, dtype=np.uint64)
            masks = sample_masks(cfg, og.edges, ids).astype(np.int64)
            mc = float(table[masks].mean())
            z = (mc - exact) / sigma
            cells.append(OracleCell(og.name, grp, exact, mc, z, abs(z) <= 4.0))
    n_ok = sum(1 for c in cells if c.ok)
    return OracleBatteryReport(
        n_samples=n_samples,
        n_groups=n_groups,
        seed=seed,
        cells=cells,
        pass_fraction=n_ok / len(cells),
        max_abs_z=max(abs(c.z) for c in cells),
    )


# ---------------------------------------------------------------------------
# Two-annulus pivotal-pair battery
# ---------------------------------------------------------------------------

V = str  # geometry vertices are short string labels


@dataclass(frozen=True)
class YGeometry:
    """A miniature two-cluster corridor instance for exhaustive enumeration.

    ``c_edges``/``d_edges`` are pinned open (they *are* the clusters C and
    D); ``closed_edges`` are pinned closed, playing the role of the
    conditioning that makes C and D maximal; ``free_edges`` enumerate over
    all 2^f states.  ``out_candidates`` lists (x, x*) with x a boundary
    vertex of C and x* its designated attachment neighbour on the corridor
    side; ``in_candidates`` likewise for D.  The connection event is
    {C <-> D within ``mid``}; vertices outside ``mid`` exist to prove the
    restriction is honoured.
    """

    name: str
    c_vertices: Tuple[V, ...]
    c_edges: Tuple[Tuple[V, V], ...]
    d_vertices: Tuple[V, ...]
    d_edges: Tuple[Tuple[V, V], ...]
    closed_edges: Tuple[Tuple[V, V], ...]
    free_edges: Tuple[Tuple[V, V], ...]
    out_candidates: Tuple[Tuple[V, V], ...]
    in_candidates: Tuple[Tuple[V, V], ...]
    mid: FrozenSet[V]

    def __post_init__(self):
        cset, dset = set(self.c_vertices), set(self.d_vertices)
        if cset & dset:
            raise ValueError("C and D share vertices")
        for a, b in self.c_edges:
            if not (a in cset and b in cset):
                raise ValueError(f"C edge {a}-{b} leaves C")
        for a, b in self.d_edges:
            if not (a in dset and b in dset):
                raise ValueError(f"D edge {a}-{b} leaves D")
        all_edges = [frozenset(e) for e in self.c_edges + self.d_edges + self.closed_edges + self.free_edges]
        if len(set(all_edges)) != len(all_edges):
            raise ValueError("edge repeated across pin classes")
        if len(all_edges) > 22:
            raise ValueError("geometry exceeds the 22-edge budget")
        free = set(map(frozenset, self.free_edges))
        for x, star in self.out_candidates:
            if x not in cset or star in cset or star in dset:
                raise ValueError(f"bad outward candidate ({x}, {star})")
            if frozenset((x, star)) not in free:
                raise ValueError(f"attachment edge {x}-{star} must be free")
        for x, star in self.in_candidates:
            if x not in dset or star in cset or star in dset:
                raise ValueError(f"bad inward candidate ({x}, {star})")
            if frozenset((x, star)) not in free:
                raise ValueError(f"attachment edge {x}-{star} must be free")

    @property
    def n_edges(self) -> int:
        return len(self.c_edges) + len(self.d_edges) + len(self.closed_edges) + len(self.free_edges)


def y_geometries() -> Tuple[YGeometry, ...]:
    """The fixed battery (six geometries, each <= 22 edges)."""
    geoms = []

    # 1. Single corridor: the unique route uses both attachment edges, so
    # the full-open configuration is a |Y| = 1 witness.
    geoms.append(YGeometry(
        name="single-corridor",
        c_vertices=("c0", "c1"), c_edges=(("c0", "c1"),),
        d_vertices=("d0", "d1"), d_edges=(("d0", "d1"),),
        closed_edges=(("c0", "z0"),),
        free_edges=(("c1", "m0"), ("m0", "m1"), ("m1", "d0")),
        out_candidates=(("c1", "m0"),),
        in_candidates=(("d0", "m1"),),
        mid=frozenset({"c0", "c1", "m0", "m1", "d0", "d1", "z0"}),
    ))

    # 2. Two vertex-disjoint corridors and four cross pairs: both corridors
    # open kills all pivotality; a single open corridor leaves exactly one
    # qualifying pair.
    geoms.append(YGeometry(
        name="twin-corridors",
        c_vertices=("c0", "c1", "c2"), c_edges=(("c0", "c1"), ("c1", "c2")),
        d_vertices=("d0", "d1", "d2"), d_edges=(("d0", "d1"), ("d1", "d2")),
        closed_edges=(),
        free_edges=(
            ("c0", "a0"), ("a0", "a1"), ("a1", "d0"),
            ("c2", "b0"), ("b0", "b1"), ("b1", "d2"),
        ),
        out_candidates=(("c0", "a0"), ("c2", "b0")),
        in_candidates=(("d0", "a1"), ("d2", "b1")),
        mid=frozenset({"c0", "c1", "c2", "d0", "d1", "d2", "a0", "a1", "b0", "b1"}),
    ))

    # 3. One exit that branches to two entries: with both branches open the
    # entry edges are not pivotal, so Y is empty even though C <-> D.
    geoms.append(YGeometry(
        name="branching-exit",
        c_vertices=("c0", "c1"), c_edges=(("c0", "c1"),),
        d_vertices=("d0", "d1", "d2"), d_edges=(("d0", "d1"), ("d1", "d2")),
        closed_edges=(),
        free_edges=(
            ("c1", "m0"), ("m0", "m1"), ("m1", "d0"), ("m0", "m2"), ("m2", "d2"),
        ),
        out_candidates=(("c1", "m0"),),
        in_candidates=(("d0", "m1"), ("d2", "m2")),
        mid=frozenset({"c0", "c1", "d0", "d1", "d2", "m0", "m1", "m2"}),
    ))

    # 4. Corridor plus a decoy route through a vertex outside ``mid``: the
    # decoy must not create or destroy pivotality in the restricted event.
    geoms.append(YGeometry(
        name="decoy-outside-mid",
        c_vertices=("c0", "c1"), c_edges=(("c0", "c1"),),
        d_vertices=("d0", "d1"), d_edges=(("d0", "d1"),),
        closed_edges=(),
        free_edges=(
            ("c1", "m0"), ("m0", "m1"), ("m1", "d0"),
            ("c1", "z1"), ("z1", "d1"),
        ),
        out_candidates=(("c1", "m0"),),
        in_candidates=(("d0", "m1"),),
        mid=frozenset({"c0", "c1", "m0", "m1", "d0", "d1"}),
    ))

    # 5. Ring cluster with two corridors and a cross-link, giving mixed
    # routing patterns across 2^7 configurations.
    geoms.append(YGeometry(
        name="ring-crosslink",
        c_vertices=("c0", "c1", "c2", "c3"),
        c_edges=(("c0", "c1"), ("c1", "c2"), ("c2", "c3"), ("c0", "c3")),
        d_vertices=("d0", "d1", "d2", "d3"),
        d_edges=(("d0", "d1"), ("d1", "d2"), ("d2", "d3")),
        closed_edges=(("c0", "z0"), ("d1", "z1")),
        free_edges=(
            ("c1", "m0"), ("m0", "m1"), ("m1", "d0"),
            ("c3", "m3"), ("m3", "m4"), ("m4", "d3"),
            ("m1", "m4"),
        ),
        out_candidates=(("c1", "m0"), ("c3", "m3")),
        in_candidates=(("d0", "m1"), ("d3", "m4")),
        mid=frozenset({"c0", "c1", "c2", "c3", "d0", "d1", "d2", "d3",
                       "m0", "m1", "m3", "m4", "z0", "z1"}),
    ))

    # 6. Long corridor with an interior chord: interior redundancy must not
    # disturb the pivotality of the two end (attachment) edges.
    geoms.append(YGeometry(
        name="chorded-corridor",
        c_vertices=("c0", "c1"), c_edges=(("c0", "c1"),),
        d_vertices=("d0", "d1"), d_edges=(("d0", "d1"),),
        closed_edges=(),
        free_edges=(
            ("c1", "m0"), ("m0", "m1"), ("m1", "m2"), ("m0", "m2"), ("m2", "d0"),
        ),
        out_candidates=(("c1", "m0"),),
        in_candidates=(("d0", "m2"),),
        mid=frozenset({"c0", "c1", "m0", "m1", "m2", "d0", "d1"}),
    ))

    return tuple(geoms)


@dataclass
class YGeometryResult:
    name: str
    n_configs: int
    counts: Dict[int, int]          # |Y| -> number of configurations
    max_pairs: int
    witness_mask: Optional[int]     # a configuration with |Y| = 1, if any
    violations: List[int]           # masks with |Y| >= 2 (must stay empty)
    rows: List[Tuple[str, int, int]]


@dataclass
class YBatteryReport:
    results: List[YGeometryResult]

    @property
    def total_violations(self) -> int:
        return sum(len(r.violations) for r in self.results)

    @property
    def max_pairs(self) -> int:
        return max(r.max_pairs for r in self.results)

    def rows(self) -> List[Tuple[str, int, int]]:
        out = []
        for r in self.results:
            out.extend(r.rows)
        return out


def enumerate_y_geometry(geom: YGeometry) -> YGeometryResult:
    """Exhaust all free-edge configurations of one geometry, as event tables.

    The pinned C/D edges are the always-open low bits of each mask, and the
    event is {C <-> D within ``mid``}.  An attachment edge is pivotal where
    the event holds and fails with the edge closed (remove and retest), so a
    pivotal edge is open.  A configuration has (#pivotal outward) x
    (#pivotal inward) qualifying pairs.
    """
    pinned = geom.c_edges + geom.d_edges
    tg = TinyGraph(pinned + geom.free_edges)
    inside, low = tg.within(geom.mid), (1 << len(pinned)) - 1
    c_in = geom.mid.intersection(geom.c_vertices)
    d_in = geom.mid.intersection(geom.d_vertices)
    f = len(geom.free_edges)

    def event(masks: np.ndarray) -> np.ndarray:
        return tg.connects(((masks << len(pinned)) | low) & inside, c_in, d_in)

    holds = exact_event_table(f, event)

    def n_pivotal(candidates) -> np.ndarray:
        n = np.zeros(1 << f, dtype=np.int64)
        for x, star in candidates:
            bit = 1 << (tg.edge_index(x, star) - len(pinned))
            n += holds & exact_event_table(f, lambda masks: ~event(masks & ~bit))
        return n

    k = n_pivotal(geom.out_candidates) * n_pivotal(geom.in_candidates)
    witnesses = np.flatnonzero(k == 1)
    return YGeometryResult(
        name=geom.name,
        n_configs=1 << f,
        counts={int(v): int(n) for v, n in zip(*np.unique(k, return_counts=True))},
        max_pairs=int(k.max()),
        witness_mask=int(witnesses[0]) if len(witnesses) else None,
        violations=np.flatnonzero(k >= 2).tolist(),
        rows=[(geom.name, mask, n) for mask, n in enumerate(k.tolist())],
    )


def run_y_battery(geoms: Optional[Sequence[YGeometry]] = None) -> YBatteryReport:
    if geoms is None:
        geoms = y_geometries()
    return YBatteryReport(results=[enumerate_y_geometry(g) for g in geoms])


# ---------------------------------------------------------------------------
# Randomized cluster-exit bound battery
# ---------------------------------------------------------------------------

_NF_PS = (Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2),
          Fraction(3, 5), Fraction(2, 3), Fraction(3, 4))


def _grid_graph(w: int, h: int) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    return list(_grid_edges(tuple(range(w + 1)), tuple(range(h + 1))))


def random_nofurther_instance(rng: random.Random):
    """Draw one (A0 induced in A1, cluster C, target B, p) instance.

    A1 is a random <= 9-edge subgraph of a small grid; A0 is the subgraph
    induced on a random vertex subset (so the induced-subgraph hypothesis
    holds by construction); C is a random connected subgraph of A0; B is a
    random nonempty vertex set of A1 avoiding C.
    """
    while True:
        w, h = rng.choice([(1, 1), (2, 1), (2, 2), (3, 1)])
        grid = _grid_graph(w, h)
        rng.shuffle(grid)
        a1_edges = tuple(sorted(grid[: rng.randint(4, min(9, len(grid)))]))
        a1_verts = sorted({v for e in a1_edges for v in e})
        v0 = sorted(rng.sample(a1_verts, rng.randint(2, len(a1_verts))))
        v0set = set(v0)
        a0_edges = tuple(e for e in a1_edges if e[0] in v0set and e[1] in v0set)

        # grow C as a random connected subgraph inside A0
        adj: Dict[Tuple[int, int], List] = {v: [] for v in v0}
        for a, b in a0_edges:
            adj[a].append(b)
            adj[b].append(a)
        root = rng.choice(v0)
        c_verts = {root}
        c_edges: List[Tuple] = []
        frontier = [root]
        while frontier:
            x = frontier.pop(rng.randrange(len(frontier)))
            for y in adj[x]:
                if y not in c_verts and rng.random() < 0.6:
                    c_verts.add(y)
                    c_edges.append((x, y) if x < y else (y, x))
                    frontier.append(y)
        b_pool = [v for v in a1_verts if v not in c_verts]
        if not b_pool:
            continue
        b = tuple(sorted(rng.sample(b_pool, rng.randint(1, min(3, len(b_pool))))))
        p = rng.choice(_NF_PS)
        c = SubgraphSpec(vertices=frozenset(c_verts), edges=tuple(sorted(c_edges)))
        return a0_edges, a1_edges, c, b, p, tuple(v0)


@dataclass
class NofurtherBatteryReport:
    n_instances: int
    n_held: int
    seed: int
    worst_margin: Fraction  # min over instances of rhs - lhs (>= 0 iff all held)

    @property
    def all_hold(self) -> bool:
        return self.n_held == self.n_instances


def run_nofurther_battery(n_instances: int = 500, seed: int = 7) -> NofurtherBatteryReport:
    """Check the cluster-exit inequality on randomized tiny instances.

    Both sides are exact rationals; ``holds`` must be true for every
    instance with zero tolerance.
    """
    rng = random.Random(seed)
    held = 0
    worst: Optional[Fraction] = None
    for _ in range(n_instances):
        a0_edges, a1_edges, c, b, p, v0 = random_nofurther_instance(rng)
        lhs, rhs, ok = nofurther_check(a0_edges, a1_edges, c, b, p, a0_vertices=v0)
        if ok:
            held += 1
        margin = rhs - lhs
        if worst is None or margin < worst:
            worst = margin
    return NofurtherBatteryReport(
        n_instances=n_instances, n_held=held, seed=seed, worst_margin=worst
    )


# ---------------------------------------------------------------------------
# Arm-decomposition oracle instances
# ---------------------------------------------------------------------------


#: The decomposition holds ``len(ann)`` reach words per mask for all ``2^m``
#: masks at once; 2^16 masks is one exact-tier table chunk.
MAX_ARM_EDGES = 16


@dataclass(frozen=True)
class ArmDecompositionInstance:
    """A fully enumerable one-step model of the arm decomposition.

    The vertex set splits into an inner separation region ``s1`` holding the
    origin, an annulus ``ann`` whose spanning clusters (components touching
    both ``ann_in`` and ``ann_out``) play the role of transition labels, and
    an exterior holding the target set.  ``s1_shell`` is the escape shell
    for the no-double-crossing clause; ``obstacles`` are removed from every
    connection region; ``cylinder`` is a list of (edge, required-state)
    pairs whose edges live inside ``s1``.
    """

    name: str
    edges: Tuple[Tuple[V, V], ...]
    p: Fraction
    origin: V
    s1: FrozenSet[V]
    s1_shell: FrozenSet[V]
    ann: FrozenSet[V]
    ann_in: FrozenSet[V]
    ann_out: FrozenSet[V]
    targets: FrozenSet[V]
    obstacles: FrozenSet[V] = frozenset()
    cylinder: Tuple[Tuple[Tuple[V, V], bool], ...] = ()

    def __post_init__(self):
        if len(self.edges) > MAX_ARM_EDGES:
            raise ValueError(f"{len(self.edges)} edges exceeds the arm-decomposition cap "
                             f"{MAX_ARM_EDGES}")
        verts = {v for e in self.edges for v in e}
        for name, sub in (("s1", self.s1), ("ann", self.ann), ("targets", self.targets),
                          ("obstacles", self.obstacles)):
            if not sub <= verts:
                raise ValueError(f"{name} contains unknown vertices")
        if self.origin not in self.s1:
            raise ValueError("origin must lie in s1")
        if not (self.s1_shell <= self.s1 and self.ann_in <= self.ann and self.ann_out <= self.ann):
            raise ValueError("shells must lie in their regions")
        for (a, b), _ in self.cylinder:
            if not (a in self.s1 and b in self.s1):
                raise ValueError("cylinder edges must lie inside s1")


def arm_decomposition_instances() -> Tuple[ArmDecompositionInstance, ...]:
    F = Fraction
    out = []

    # Diamond: one outer vertex, one interior annulus cross edge, a direct
    # annulus bond inside s1.
    out.append(ArmDecompositionInstance(
        name="diamond",
        edges=(
            ("o", "a1"), ("o", "a2"), ("a1", "a2"),
            ("a1", "b1"), ("a2", "b2"), ("a1", "b2"),
            ("b1", "c1"), ("b2", "c1"), ("c1", "v"),
        ),
        p=F(1, 2),
        origin="o",
        s1=frozenset({"o", "a1", "a2"}),
        s1_shell=frozenset({"a1", "a2"}),
        ann=frozenset({"a1", "a2", "b1", "b2", "c1"}),
        ann_in=frozenset({"a1", "a2"}),
        ann_out=frozenset({"c1"}),
        targets=frozenset({"v"}),
        cylinder=((("o", "a1"), True),),
    ))

    # Two outer vertices plus an obstacle bypass: the blocked vertex w must
    # be excluded from every connection region.
    out.append(ArmDecompositionInstance(
        name="twin-outer-obstacle",
        edges=(
            ("o", "a1"), ("o", "a2"), ("a1", "a2"),
            ("a1", "b1"), ("a2", "b2"), ("b1", "b2"),
            ("b1", "c1"), ("b2", "c2"),
            ("c1", "v"), ("c2", "v"), ("c1", "w"), ("w", "v"),
        ),
        p=F(1, 2),
        origin="o",
        s1=frozenset({"o", "a1", "a2"}),
        s1_shell=frozenset({"a1", "a2"}),
        ann=frozenset({"a1", "a2", "b1", "b2", "c1", "c2"}),
        ann_in=frozenset({"a1", "a2"}),
        ann_out=frozenset({"c1", "c2"}),
        targets=frozenset({"v"}),
        obstacles=frozenset({"w"}),
        cylinder=((("o", "a1"), True),),
    ))

    # Two vertex-disjoint crossing routes: configurations with two distinct
    # spanning clusters exist, so the uniqueness of the localized transition
    # is exercised rather than vacuous.
    out.append(ArmDecompositionInstance(
        name="split-annulus",
        edges=(
            ("o", "a1"), ("o", "a2"),
            ("a1", "b1"), ("b1", "c1"), ("a2", "b2"), ("b2", "c2"),
            ("c1", "v"), ("c2", "v"),
        ),
        p=F(3, 5),
        origin="o",
        s1=frozenset({"o", "a1", "a2"}),
        s1_shell=frozenset({"a1", "a2"}),
        ann=frozenset({"a1", "a2", "b1", "b2", "c1", "c2"}),
        ann_in=frozenset({"a1", "a2"}),
        ann_out=frozenset({"c1", "c2"}),
        targets=frozenset({"v"}),
        cylinder=((("o", "a1"), True),),
    ))
    return tuple(out)


@dataclass
class ArmDecompositionReport:
    """Exact per-label kernel entries and the reconstruction identity.

    All probabilities are exact rationals.  ``labels`` are the spanning
    cluster vertex sets (sorted tuples).  ``m0``/``m0_cyl`` are the one-step
    entries without/with the cylinder pattern; ``gamma`` is the onward-arm
    probability conditional on the label's occurrence; ``rhs`` sums
    ``m0 * gamma`` over labels and must never exceed ``lhs``; the ``defect``
    is exactly the probability of an arm avoiding every localized
    transition, so ``ratio`` always sits inside ``[1, lhs/(lhs-defect)]``.
    """

    name: str
    labels: List[Tuple[V, ...]]
    h_prob: Dict[Tuple[V, ...], Fraction]
    m0: Dict[Tuple[V, ...], Fraction]
    m0_cyl: Dict[Tuple[V, ...], Fraction]
    gamma: Dict[Tuple[V, ...], Fraction]
    lhs: Fraction
    lhs_cyl: Fraction
    rhs: Fraction
    rhs_cyl: Fraction
    defect: Fraction
    defect_cyl: Fraction
    uniqueness_violations: int
    factorization_exact: bool
    union_equals_sum: bool
    max_labels_per_config: int

    @property
    def ratio(self) -> Optional[Fraction]:
        return None if self.rhs == 0 else self.lhs / self.rhs

    @property
    def containment_ok(self) -> bool:
        return self.rhs <= self.lhs and self.rhs_cyl <= self.lhs_cyl

    def band(self) -> Tuple[Fraction, Optional[Fraction]]:
        """The instance-computed bracket for ``ratio`` (lower, upper)."""
        if self.lhs == self.defect:
            return (Fraction(1), None)
        return (Fraction(1), self.lhs / (self.lhs - self.defect))

    def checks(self) -> Dict[str, bool]:
        """The five named conditions under which the exact decomposition holds."""
        lo, hi = self.band()
        ratio = self.ratio
        return {
            "factorization_exact": self.factorization_exact,
            "uniqueness": self.uniqueness_violations == 0,
            "union_equals_sum": self.union_equals_sum,
            "containment": self.containment_ok,
            "ratio_in_band": ratio is None or (lo <= ratio and (hi is None or ratio <= hi)),
        }


def decompose_arm_exact(inst: ArmDecompositionInstance) -> ArmDecompositionReport:
    """Enumerate the instance and certify the one-step decomposition.

    Every event is a table over all ``2^m`` configuration masks, and every
    probability is :func:`~percolab.engine.enumerate_exact` of such a table.
    The annulus spanning clusters are the sets that each annulus vertex
    reaches through open annulus edges and that touch both shells; a
    cluster's vertex bitset is its label.  For each label C the tables are
    its occurrence, the inward link {origin <-> C inside s1}, the escape
    {origin <-> s1_shell avoiding C} and the onward arm
    {C \\ s1 <-> targets avoiding s1 and obstacles}, and the localized
    transition is G(C) = occurrence and link and not escape and arm.  The
    report asserts, in exact arithmetic: at most one C per configuration
    realises G; the kernel factorization P(G(C)) = m0(C) * gamma(C); and the
    lower-bound identity lhs - sum_C P(G(C)) = P(arm without any G).
    """
    tg = TinyGraph(inst.edges)
    masks = np.arange(1 << tg.n_edges, dtype=np.int64)
    verts = set(tg.vertices)

    def prob(table: np.ndarray) -> Fraction:
        return enumerate_exact(tg.edges, inst.p, table)

    def joins(region: Set[V], sources, targets) -> np.ndarray:
        """{sources <-> targets by open edges inside region}, per mask."""
        return tg.connects(masks & tg.within(region), region.intersection(sources),
                           region.intersection(targets))

    cyl = np.ones(len(masks), dtype=bool)
    for e, want in inst.cylinder:
        cyl &= ((masks >> tg.edge_index(*e)) & 1) == want
    arm_full = joins(verts - inst.obstacles, [inst.origin], inst.targets)

    ann_masks = masks & tg.within(inst.ann)
    reached = np.stack([tg.reach(ann_masks, [v]) for v in inst.ann])
    spans = (((reached & np.uint64(tg.bits(inst.ann_in))) != 0)
             & ((reached & np.uint64(tg.bits(inst.ann_out))) != 0))
    clusters = {tuple(sorted(v for i, v in enumerate(tg.vertices) if bits >> i & 1)): bits
                for bits in np.unique(reached[spans]).tolist()}
    labels = sorted(clusters)

    h_prob: Dict[Tuple[V, ...], Fraction] = {}
    m0: Dict[Tuple[V, ...], Fraction] = {}
    m0_cyl: Dict[Tuple[V, ...], Fraction] = {}
    gamma: Dict[Tuple[V, ...], Fraction] = {}
    fact_ok = True
    n_labels = np.zeros(len(masks), dtype=np.int64)
    n_g = np.zeros(len(masks), dtype=np.int64)
    for lab in labels:
        comp = set(lab)
        occurs = (reached == np.uint64(clusters[lab])).any(axis=0)
        core = (occurs & joins(inst.s1, [inst.origin], comp)
                & ~joins(verts - comp, [inst.origin], inst.s1_shell))
        arm = joins(verts - inst.obstacles - inst.s1, comp, inst.targets)
        h_prob[lab] = prob(occurs)
        m0[lab] = prob(core)
        m0_cyl[lab] = prob(core & cyl)
        gamma[lab] = prob(occurs & arm) / h_prob[lab]
        g = core & arm
        fact_ok = fact_ok and (prob(g) == m0[lab] * gamma[lab]
                               and prob(g & cyl) == m0_cyl[lab] * gamma[lab])
        n_labels += occurs
        n_g += g

    lhs, lhs_cyl = prob(arm_full), prob(arm_full & cyl)
    rhs = sum((m0[lab] * gamma[lab] for lab in labels), Fraction(0))
    rhs_cyl = sum((m0_cyl[lab] * gamma[lab] for lab in labels), Fraction(0))
    return ArmDecompositionReport(
        name=inst.name,
        labels=labels,
        h_prob=h_prob,
        m0=m0,
        m0_cyl=m0_cyl,
        gamma=gamma,
        lhs=lhs,
        lhs_cyl=lhs_cyl,
        rhs=rhs,
        rhs_cyl=rhs_cyl,
        defect=lhs - rhs,
        defect_cyl=lhs_cyl - rhs_cyl,
        uniqueness_violations=int(np.count_nonzero(n_g > 1)),
        factorization_exact=fact_ok,
        union_equals_sum=rhs == prob(n_g > 0) and rhs_cyl == prob((n_g > 0) & cyl),
        max_labels_per_config=int(n_labels.max()),
    )
