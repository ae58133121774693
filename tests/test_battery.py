"""The shipped exact batteries: oracle graphs, two-annulus attachment
enumeration, cluster-exit instances, and the arm-decomposition certificates.

Exact values quoted below were computed from the closed forms where one
exists (series/parallel identities) and otherwise frozen from the
enumeration itself after independent spot-checks.
"""

from dataclasses import replace
from fractions import Fraction

import networkx as nx
import pytest

from percolab.battery import (
    MAX_ARM_EDGES,
    YGeometry,
    arm_decomposition_instances,
    decompose_arm_exact,
    enumerate_y_geometry,
    oracle_battery,
    run_nofurther_battery,
    run_oracle_battery,
    y_geometries,
)
from percolab.engine import TinyGraph, exact_event_table


# ---------------------------------------------------------------------------
# Oracle graph battery


def test_battery_has_thirty_distinct_graphs():
    bat = oracle_battery()
    assert len(bat) == 30
    assert len({g.name for g in bat}) == 30
    assert all(len(g.edges) <= 12 for g in bat)  # keeps enumeration instant
    kinds = {g.kind for g in bat}
    assert kinds == {"connect", "cluster_ge"}


def test_battery_exact_closed_forms():
    vals = {g.name: g.exact() for g in oracle_battery()}
    # chains: p^length
    assert vals["path1-p0.4"] == Fraction(2, 5)
    assert vals["path5-p0.6"] == Fraction(3, 5) ** 5
    # two vertex-disjoint 2-step routes: 1 - (1 - p^2)^2
    assert vals["parallel2x2-p0.5"] == Fraction(7, 16)
    # antipodal points of an 8-ring: two disjoint 4-paths
    assert vals["ring8-sides-p0.5"] == 1 - (1 - Fraction(1, 2) ** 4) ** 2
    assert vals["grid3x3-corners-p0.5"] == Fraction(1135, 4096)
    assert vals["cube-diag-p0.5"] == Fraction(135, 256)
    assert vals["spread2-p0.5"] == Fraction(101, 128)


def test_battery_exact_values_in_unit_interval():
    for g in oracle_battery():
        v = g.exact()
        assert 0 < v < 1, g.name


def test_scorecard_reads_exact_values_off_the_event_table():
    graphs = oracle_battery()
    exact = {g.name: g.exact() for g in graphs}
    rep = run_oracle_battery(n_samples=50, n_groups=1, seed=9, graphs=graphs)
    assert {c.graph: c.exact for c in rep.cells} \
        == {name: float(v) for name, v in exact.items()}


def _scalar_query(g):
    """The event of an oracle graph, one mask at a time."""
    tg = TinyGraph(g.edges)
    if g.kind == "connect":
        return lambda mask: tg.connected(mask, g.sources, g.targets)
    return lambda mask: len(tg.component_of(mask, g.sources[0])) >= g.size


def test_battery_fractions_equal_the_per_mask_python_sum():
    for g in oracle_battery():
        m, q = len(g.edges), _scalar_query(g)
        weights = [g.p ** k * (1 - g.p) ** (m - k) for k in range(m + 1)]
        reference = Fraction(0)
        for mask in range(1 << m):
            if q(mask):
                reference += weights[bin(mask).count("1")]
        table = exact_event_table(m, g.query())
        assert table.tolist() == [int(q(mask)) for mask in range(1 << m)], g.name
        assert g.exact() == reference, g.name


def test_oracle_scorecard_on_subset():
    graphs = oracle_battery()[:6]
    rep = run_oracle_battery(n_samples=4000, n_groups=20, seed=9,
                             graphs=graphs)
    assert len(rep.cells) == 6 * 20
    assert rep.pass_fraction >= 0.95
    assert rep.max_abs_z < 6.0
    for cell in rep.cells[:5]:
        assert cell.ok == (abs(cell.z) <= 4.0)


# ---------------------------------------------------------------------------
# Two-annulus attachment battery


def test_y_geometries_shape_budget():
    geoms = y_geometries()
    assert len(geoms) >= 5
    names = [g.name for g in geoms]
    assert len(set(names)) == len(names)
    for g in geoms:
        assert len(g.closed_edges) + len(g.free_edges) <= 22
        assert not (set(g.c_vertices) & set(g.d_vertices))


FROZEN_Y_COUNTS = {
    "single-corridor": {0: 7, 1: 1},
    "twin-corridors": {0: 50, 1: 14},
    "branching-exit": {0: 26, 1: 6},
    "decoy-outside-mid": {0: 28, 1: 4},
    "ring-crosslink": {0: 102, 1: 26},
    "chorded-corridor": {0: 27, 1: 5},
}


def test_y_enumeration_frozen_counts_and_uniqueness():
    for geom in y_geometries():
        res = enumerate_y_geometry(geom)
        assert res.max_pairs <= 1, geom.name
        assert res.violations == [], geom.name
        assert dict(res.counts) == FROZEN_Y_COUNTS[geom.name], geom.name
        if 1 in res.counts:
            assert res.witness_mask is not None


def _reference_pair_count(geom, mask):
    """The number of qualifying pairs in one configuration, by the per-mask
    rule in networkx: an attachment edge is pivotal when it is an open edge
    of the open graph restricted to ``mid`` and removing it disjoins C from
    D there (none is when C and D are not joined there); every (outward,
    inward) pair of candidates whose attachment edges are both pivotal
    counts."""
    g = nx.Graph()
    g.add_nodes_from(geom.mid)
    free_open = tuple(e for j, e in enumerate(geom.free_edges) if (mask >> j) & 1)
    g.add_edges_from((a, b) for a, b in geom.c_edges + geom.d_edges + free_open
                     if a in geom.mid and b in geom.mid)
    src = [v for v in geom.c_vertices if v in g]
    tgt = {v for v in geom.d_vertices if v in g}

    def joined():
        reach = set()
        for s in src:
            if s not in reach:
                reach |= nx.node_connected_component(g, s)
        return not reach.isdisjoint(tgt)

    def pivotal(edge):
        if not g.has_edge(*edge):
            return False
        g.remove_edge(*edge)
        cut = not joined()
        g.add_edge(*edge)
        return cut

    if not joined():
        return 0
    return sum(map(pivotal, geom.out_candidates)) * sum(map(pivotal, geom.in_candidates))


def test_y_rows_equal_the_per_mask_pivotal_reference():
    for geom in y_geometries():
        res = enumerate_y_geometry(geom)
        reference = [(geom.name, mask, _reference_pair_count(geom, mask))
                     for mask in range(1 << len(geom.free_edges))]
        assert res.rows == reference, geom.name
        witnesses = [mask for _, mask, k in reference if k == 1]
        assert res.witness_mask == (witnesses[0] if witnesses else None), geom.name


def test_y_witness_masks_reproduce_single_pair():
    for geom in y_geometries():
        res = enumerate_y_geometry(geom)
        if res.witness_mask is None:
            continue
        assert res.rows[res.witness_mask][2] == 1, geom.name
        assert _reference_pair_count(geom, res.witness_mask) == 1, geom.name


def test_attachment_pairs_empty_when_mid_disconnected():
    # no free edge open: C and D are not joined within mid
    for geom in y_geometries():
        assert enumerate_y_geometry(geom).rows[0][2] == 0, geom.name
        assert _reference_pair_count(geom, 0) == 0, geom.name


def test_y_long_corridor_spans_several_table_chunks():
    """17 free edges: 2^17 masks, more than one exact-tier table chunk."""
    mids = [f"m{i}" for i in range(16)]
    route = ["c1"] + mids + ["d0"]
    geom = YGeometry(
        name="long-corridor",
        c_vertices=("c0", "c1"), c_edges=(("c0", "c1"),),
        d_vertices=("d0", "d1"), d_edges=(("d0", "d1"),),
        closed_edges=(),
        free_edges=tuple(zip(route, route[1:])),
        out_candidates=(("c1", "m0"),),
        in_candidates=(("d0", "m15"),),
        mid=frozenset(["c0", "c1", "d0", "d1"] + mids),
    )
    assert len(geom.free_edges) == 17 and geom.n_edges == 19
    res = enumerate_y_geometry(geom)
    assert res.counts == {0: 2 ** 17 - 1, 1: 1}
    assert res.witness_mask == 2 ** 17 - 1
    assert res.max_pairs == 1 and res.violations == []


@pytest.mark.parametrize("dropped", [
    {"out_candidates": (), "in_candidates": ()},
    {"in_candidates": ()},
])
def test_y_geometry_without_candidates_has_no_pairs(dropped):
    geom = replace(y_geometries()[1], **dropped)  # twin-corridors, 2^6 masks
    res = enumerate_y_geometry(geom)
    assert res.counts == {0: 64}
    assert res.max_pairs == 0
    assert res.witness_mask is None and res.violations == []


# ---------------------------------------------------------------------------
# Cluster-exit battery


def test_nofurther_battery_all_hold():
    rep = run_nofurther_battery(n_instances=60, seed=7)
    assert rep.n_held == 60
    assert rep.all_hold
    assert rep.worst_margin >= 0
    # at least one instance should be tight (equality is achievable)
    assert rep.worst_margin == 0


def test_nofurther_battery_deterministic():
    a = run_nofurther_battery(n_instances=25, seed=3)
    b = run_nofurther_battery(n_instances=25, seed=3)
    assert a.worst_margin == b.worst_margin
    assert a.n_held == b.n_held


# ---------------------------------------------------------------------------
# Arm-decomposition certificates


#: Recorded from the per-configuration enumeration this decomposition
#: replaced; every field must stay equal.  A label is written as its sorted
#: vertex names, and maps to (h_prob, m0, m0_cyl, gamma).
F = Fraction
FROZEN_DECOMP = {
    "diamond": dict(
        lhs=F(91, 512), rhs=F(5, 32), defect=F(11, 512), max_labels=1,
        lhs_cyl=F(65, 512), rhs_cyl=F(27, 256), defect_cyl=F(11, 512), uniqueness_violations=0,
        labels={
            "a1 a2 b1 b2 c1": (F(9, 32), F(27, 128), F(9, 64), F(1, 2)),
            "a1 a2 b1 c1": (F(1, 64), F(3, 256), F(1, 128), F(1, 2)),
            "a1 a2 b2 c1": (F(1, 16), F(3, 64), F(1, 32), F(1, 2)),
            "a1 b1 b2 c1": (F(5, 64), F(5, 256), F(5, 256), F(1, 2)),
            "a1 b1 c1": (F(1, 32), F(1, 128), F(1, 128), F(1, 2)),
            "a1 b2 c1": (F(1, 64), F(1, 256), F(1, 256), F(1, 2)),
            "a2 b1 b2 c1": (F(1, 64), F(1, 256), F(0), F(1, 2)),
            "a2 b2 c1": (F(1, 32), F(1, 128), F(0), F(1, 2)),
        }),
    "twin-outer-obstacle": dict(
        lhs=F(47, 256), rhs=F(159, 1024), defect=F(29, 1024), max_labels=2,
        lhs_cyl=F(65, 512), rhs_cyl=F(101, 1024), defect_cyl=F(29, 1024), uniqueness_violations=0,
        labels={
            "a1 a2 b1 b2 c1": (F(5, 64), F(15, 256), F(5, 128), F(1, 2)),
            "a1 a2 b1 b2 c1 c2": (F(5, 64), F(15, 256), F(5, 128), F(3, 4)),
            "a1 a2 b1 b2 c2": (F(5, 64), F(15, 256), F(5, 128), F(1, 2)),
            "a1 a2 b1 c1": (F(1, 32), F(3, 128), F(1, 64), F(1, 2)),
            "a1 a2 b2 c2": (F(1, 32), F(3, 128), F(1, 64), F(1, 2)),
            "a1 b1 b2 c1": (F(1, 64), F(1, 256), F(1, 256), F(1, 2)),
            "a1 b1 b2 c1 c2": (F(1, 64), F(1, 256), F(1, 256), F(3, 4)),
            "a1 b1 b2 c2": (F(1, 64), F(1, 256), F(1, 256), F(1, 2)),
            "a1 b1 c1": (F(1, 16), F(1, 64), F(1, 64), F(1, 2)),
            "a2 b1 b2 c1": (F(1, 64), F(1, 256), F(0), F(1, 2)),
            "a2 b1 b2 c1 c2": (F(1, 64), F(1, 256), F(0), F(3, 4)),
            "a2 b1 b2 c2": (F(1, 64), F(1, 256), F(0), F(1, 2)),
            "a2 b2 c2": (F(1, 16), F(1, 64), F(0), F(1, 2)),
        }),
    "split-annulus": dict(
        lhs=F(94689, 390625), rhs=F(324, 3125), defect=F(54189, 390625), max_labels=2,
        lhs_cyl=F(74439, 390625), rhs_cyl=F(162, 3125), defect_cyl=F(54189, 390625),
        uniqueness_violations=0,
        labels={
            "a1 b1 c1": (F(9, 25), F(54, 625), F(54, 625), F(3, 5)),
            "a2 b2 c2": (F(9, 25), F(54, 625), F(0), F(3, 5)),
        }),
}


def test_arm_decomposition_frozen_rationals():
    insts = arm_decomposition_instances()
    assert [i.name for i in insts] == list(FROZEN_DECOMP)
    for inst in insts:
        rep = decompose_arm_exact(inst)
        want = FROZEN_DECOMP[inst.name]
        for field in ("lhs", "rhs", "defect", "lhs_cyl", "rhs_cyl", "defect_cyl",
                      "uniqueness_violations"):
            assert getattr(rep, field) == want[field], (inst.name, field)
        assert rep.lhs - rep.rhs == rep.defect
        assert rep.max_labels_per_config == want["max_labels"]


def test_arm_decomposition_frozen_labels():
    for inst in arm_decomposition_instances():
        rep = decompose_arm_exact(inst)
        want = {tuple(k.split()): v for k, v in FROZEN_DECOMP[inst.name]["labels"].items()}
        assert rep.labels == sorted(want), inst.name
        for lab in rep.labels:
            got = (rep.h_prob[lab], rep.m0[lab], rep.m0_cyl[lab], rep.gamma[lab])
            assert got == want[lab], (inst.name, lab)
        assert set(rep.h_prob) == set(rep.m0) == set(rep.m0_cyl) == set(rep.gamma) == set(want)


def test_arm_decomposition_instances_hold_at_most_one_table_chunk():
    # every event table of the decomposition spans all 2^m masks at once
    diamond = arm_decomposition_instances()[0]
    tail = tuple((f"x{i}", f"x{i + 1}") for i in range(MAX_ARM_EDGES))
    room = MAX_ARM_EDGES - len(diamond.edges)
    assert len(replace(diamond, edges=diamond.edges + tail[:room]).edges) == MAX_ARM_EDGES
    with pytest.raises(ValueError, match=f"{MAX_ARM_EDGES + 1} edges exceeds"):
        replace(diamond, edges=diamond.edges + tail[:room + 1])


def test_arm_decomposition_certificates():
    for inst in arm_decomposition_instances():
        rep = decompose_arm_exact(inst)
        assert rep.factorization_exact, inst.name
        assert rep.union_equals_sum, inst.name
        assert rep.uniqueness_violations == 0, inst.name
        assert rep.containment_ok, inst.name
        lo, hi = rep.band()
        assert lo <= rep.ratio <= hi, inst.name
        assert rep.rhs_cyl <= rep.lhs_cyl  # cylinder variant also contained


def test_arm_decomposition_obstacle_strictly_binds():
    # the outer obstacle must remove probability mass from the arm event
    reps = {i.name: decompose_arm_exact(i)
            for i in arm_decomposition_instances()}
    twin = reps["twin-outer-obstacle"]
    assert twin.lhs < Fraction(209, 1024)  # same geometry without obstacle
