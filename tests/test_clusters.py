"""Cluster regularity, good spanning sets, pivotal edges, attachment pairs.

The centrepiece is an exact oracle for the conditional-resampling
regularity estimate: on a hand-sized region the conditional law given the
frozen cluster is enumerable edge-by-edge, so the Monte Carlo estimate can
be held against an exact rational.
"""

import math
from collections import deque
from fractions import Fraction

import networkx as nx
import pytest

import percolab.clusters
import percolab.engine
from percolab.clusters import (
    GoodSpanningParams,
    RegularityParams,
    SpanningSetRecord,
    badness_threshold,
    estimate_regularity,
    good_spanning_check,
    inward_star,
    outward_star,
    pivotal_edges,
    pivotal_from_graph,
    scan_good_spanning,
    tame_threshold,
    verify_pinned,
    y_set,
)
from percolab.engine import (
    PercolationConfig,
    cluster_components,
    edge_state,
    explore_cluster,
    spanning_clusters,
)
from percolab.estimators import Estimate
from percolab.lattice import (
    LatticeSpec,
    annulus,
    box,
    canonical_edge,
    edges_within,
    neighbours,
    norm_inf,
    region_sites,
)
from percolab.scales import scale_sequence, sub_annulus, toy_params

SPEC2 = LatticeSpec(d=2)


def test_thresholds_frozen():
    assert tame_threshold(3) == pytest.approx(156.4574280897899)
    assert tame_threshold(3, 2.3) == pytest.approx(562.6170043439492)
    assert badness_threshold(3) == pytest.approx(0.7008915196369652)
    assert badness_threshold(3, 2.3) == pytest.approx(0.8244405116674738)


# ---------------------------------------------------------------------------
# Exact oracle for the conditional resampling


def _exact_conditional_tame(cfg, x, cond_region_sites, resample_sites, s,
                            log_base):
    """Enumerate the resampled edges exactly and return P(tame_s | frozen).

    Mirrors the estimator's conditional law with independent code: edges
    touching the frozen cluster keep their realised state, the rest are
    free, and the cluster of ``x`` is grown inside the resample set only.
    """
    spec = cfg.spec
    frozen = explore_cluster(cfg, x, frozenset(cond_region_sites)).vertices
    rs = sorted(resample_sites)
    in_rs = set(rs)
    edges = []
    for v in rs:
        for w in neighbours(spec, v):
            if w in in_rs and v < w:
                edges.append((v, w))
    fixed = {}
    free = []
    for e in edges:
        if e[0] in frozen or e[1] in frozen:
            fixed[e] = bool(edge_state(cfg, canonical_edge(spec, *e)))
        else:
            free.append(e)
    thr = tame_threshold(s, log_base)
    p = Fraction(cfg.p).limit_denominator(10**9)

    total = Fraction(0)
    for mask in range(1 << len(free)):
        state = dict(fixed)
        n_open = 0
        for j, e in enumerate(free):
            b = bool((mask >> j) & 1)
            state[e] = b
            n_open += b
        # breadth-first growth under the mixed assignment
        seen = {x}
        front = deque([x])
        while front:
            v = front.popleft()
            for w in neighbours(spec, v):
                if w in seen or w not in in_rs:
                    continue
                e = (v, w) if v < w else (w, v)
                if state.get(e, False):
                    seen.add(w)
                    front.append(w)
        cnt = sum(1 for v in seen
                  if norm_inf(tuple(a - b for a, b in zip(v, x))) <= s)
        if cnt < thr:
            total += p ** n_open * (1 - p) ** (len(free) - n_open)
    return total


@pytest.mark.parametrize("seed,expected", [(0, Fraction(3, 4)),
                                           (3, Fraction(1, 2))])
def test_regularity_estimate_matches_exact_conditional(seed, expected):
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=seed)
    x = (0, 0)
    cond_sites = {(0, 0), (1, 0)}
    resample = {(0, 0), (1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (2, 0),
                (1, -1)}
    params = RegularityParams(K=2, s_list=(2,), n_inner=400, log_base=2.3)
    rep = estimate_regularity(cfg, x, explore_cluster(cfg, x, frozenset(cond_sites)),
                              params, resample_region=frozenset(resample))
    (s, est, level, verdict), = rep.per_s
    assert s == 2
    exact = _exact_conditional_tame(cfg, x, cond_sites, resample, 2, 2.3)
    assert exact == expected  # frozen: the realised frozen edges determine it
    sigma = max(est.stderr, 1e-12)
    assert abs(est.value - float(exact)) <= 4 * sigma


def test_regularity_deterministic_branches():
    # p = 1 on a wide region: the frozen cluster alone busts the threshold
    cfg = PercolationConfig(spec=SPEC2, p=1.0, seed=2)
    params = RegularityParams(K=2, s_list=(2,), n_inner=100, log_base=2.3)
    rep = estimate_regularity(cfg, (0, 0), explore_cluster(cfg, (0, 0), box((0, 0), 3)),
                              params)
    assert rep.regular is False
    assert rep.per_s[0][1].n_samples == 0  # no resampling was needed
    # a log base near 1 blows the threshold past the ball volume: sure-tame
    lax = RegularityParams(K=2, s_list=(2,), n_inner=100, log_base=1.01)
    rep2 = estimate_regularity(cfg, (0, 0), explore_cluster(cfg, (0, 0), box((0, 0), 3)),
                               lax)
    assert rep2.regular is True
    assert rep2.per_s[0][1].value == 1.0


def test_regularity_refuses_foreign_or_truncated_records():
    cfg = PercolationConfig(spec=SPEC2, p=1.0, seed=2)
    params = RegularityParams(K=2, s_list=(2,), n_inner=100)
    rec = explore_cluster(cfg, (0, 0), box((0, 0), 1))
    with pytest.raises(ValueError):
        estimate_regularity(cfg, (2, 0), rec, params)
    capped = explore_cluster(cfg, (0, 0), box((0, 0), 3), cap=5)
    assert capped.truncated
    with pytest.raises(RuntimeError):
        estimate_regularity(cfg, (0, 0), capped, params)


def test_regularity_resampling_frozen_tallies_d3():
    # In d = 3 the tested scale s = 3 is not settled by volume, so the
    # conditional resampling runs; its tallies are frozen bit for bit.
    spec = LatticeSpec(d=3)
    x = (0, 0, 0)
    params = RegularityParams(K=3, s_list=(3, 4), n_inner=100)
    frozen = {0: (6, 67, None, None), 3: (3, 86, True, True)}
    for sid, (size, tally, verdict, regular) in frozen.items():
        cfg = PercolationConfig(spec=spec, p=0.3, seed=2024, sample_id=sid)
        rep = estimate_regularity(cfg, x, explore_cluster(cfg, x, box(x, 1)), params,
                                  resample_region=box(x, 3))
        assert rep.frozen_size == size
        (s3, est3, _, v3), (s4, est4, _, v4) = rep.per_s
        assert (s3, v3) == (3, verdict)
        assert est3 == Estimate.from_counts(tally, 100, 0, 2024)
        assert (s4, est4.n_samples, v4) == (4, 0, True)  # 9^3 < 4^4 log^7 4
        assert rep.regular is regular


# ---------------------------------------------------------------------------
# Good spanning scan


def test_scan_good_spanning_frozen_counts():
    params = toy_params(1, 2, 1)
    ladder = scale_sequence(params, 2)
    good = GoodSpanningParams(lo=0.1, hi=4.0, regular_fraction=0.5)
    reg = RegularityParams(K=3, s_list=(3, 4), n_inner=120, log_base=2.0)
    n_span = n_good = 0
    reasons = set()
    for sid in range(60):
        cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=11, sample_id=sid)
        recs = scan_good_spanning(cfg, ladder[1], params, good, reg)
        n_span += len(recs)
        n_good += sum(r.good for r in recs)
        for r in recs:
            reasons.update(r.failure_reasons)
            assert r.level == 1
            assert r.cluster.vertices
    assert (n_span, n_good) == (107, 17)
    # the desk-scale annulus hole has radius 1, so the inner exponent
    # window collapses to [1, 1]; oversize inner boundaries dominate
    assert any("inner boundary too large" in msg for msg in reasons)


def test_good_records_are_pinned_spanning_sets():
    params = toy_params(1, 2, 1)
    ladder = scale_sequence(params, 2)
    good = GoodSpanningParams(lo=0.1, hi=4.0, regular_fraction=0.5)
    reg = RegularityParams(K=3, s_list=(3, 4), n_inner=120, log_base=2.0)
    checked = 0
    for sid in range(30):
        cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=11, sample_id=sid)
        for rec in scan_good_spanning(cfg, ladder[1], params, good, reg):
            assert verify_pinned(cfg, rec.cluster)
            checked += 1
    assert checked > 20


# A small ladder with q_max = 2: Ann^2 = annulus(1, 16) holds Ann^1 =
# annulus(2, 8), so certification runs the minimality check on Ann^1.
NESTED = toy_params(2, 1, 2)


def _record_value(rec):
    """A record's fields except its root: any of its vertices explores it."""
    return (rec.region, rec.vertices, rec.open_edges, rec.boundary_in,
            rec.boundary_out, rec.truncated)


def test_records_given_to_regularity_equal_fresh_explorations():
    idx = scale_sequence(NESTED, 1)[1]
    outer, inner = (sub_annulus(SPEC2, idx, q, NESTED) for q in (2, 1))
    assert (outer.inner, outer.outer, inner.inner, inner.outer) == (1, 16, 2, 8)
    checked = 0
    for sid in range(12):
        cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=11, sample_id=sid)
        for rec in spanning_clusters(cfg, outer)[0]:
            for v in rec.boundary_in + rec.boundary_out:
                assert _record_value(explore_cluster(cfg, v, outer)) == _record_value(rec)
            for comp in cluster_components(SPEC2, rec, inner):
                for v in comp.vertices:
                    assert _record_value(explore_cluster(cfg, v, inner)) == _record_value(comp)
                    checked += 1
    assert checked > 100


def test_good_spanning_check_explores_nothing(monkeypatch):
    idx = scale_sequence(NESTED, 1)[1]
    good = GoodSpanningParams(lo=0.1, hi=4.0, regular_fraction=0.5)
    reg = RegularityParams(K=3, s_list=(3, 4), n_inner=100, log_base=2.0)
    outer = sub_annulus(SPEC2, idx, 2, NESTED)
    cases = []
    for sid in range(10):
        cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=11, sample_id=sid)
        cases += [(cfg, rec) for rec in spanning_clusters(cfg, outer)[0]]
    x3 = (0, 0, 0)
    cfg3 = PercolationConfig(spec=LatticeSpec(d=3), p=0.3, seed=2024)
    rec3 = explore_cluster(cfg3, x3, box(x3, 1))

    def forbidden(*args, **kwargs):
        raise AssertionError("explore_cluster called during certification")

    monkeypatch.setattr(percolab.clusters, "explore_cluster", forbidden)
    monkeypatch.setattr(percolab.engine, "explore_cluster", forbidden)
    regions = []
    real = percolab.clusters.estimate_regularity

    def counted(cfg, x, cluster, *args, **kwargs):
        regions.append(cluster.region)
        return real(cfg, x, cluster, *args, **kwargs)

    monkeypatch.setattr(percolab.clusters, "estimate_regularity", counted)
    reasons = set()
    for cfg, rec in cases:
        reasons.update(good_spanning_check(cfg, rec, idx, 2, NESTED, good, reg).failure_reasons)
    # regularity ran on candidates and, in the minimality check, on components
    assert outer in regions and sub_annulus(SPEC2, idx, 1, NESTED) in regions
    assert any(msg.startswith("not minimal") for msg in reasons)
    # and the d = 3 resampling, which is not settled by volume
    rep = real(cfg3, x3, rec3, RegularityParams(K=3, s_list=(3,), n_inner=100),
               resample_region=box(x3, 3))
    assert rep.per_s[0][1].n_samples == 100


# ---------------------------------------------------------------------------
# Pivotal edges


def test_pivotal_from_graph_theta_and_bridge():
    g = nx.Graph()
    # two internally disjoint a->b routes plus a pendant bridge b-t
    g.add_edges_from([("a", "u"), ("u", "b"), ("a", "v"), ("v", "b"),
                      ("b", "t")])
    piv = pivotal_from_graph(g, ["a"], ["t"])
    assert piv == {frozenset(("b", "t"))}
    g.remove_edge("a", "v")
    piv2 = pivotal_from_graph(g, ["a"], ["t"])
    assert piv2 == {frozenset(("a", "u")), frozenset(("u", "b")),
                    frozenset(("b", "t"))}


def test_pivotal_from_graph_disconnected_raises():
    g = nx.Graph()
    g.add_edges_from([("a", "b"), ("t", "u")])
    with pytest.raises(ValueError):
        pivotal_from_graph(g, ["a"], ["t"])


def test_pivotal_edges_on_lattice_corridor():
    # at p = 1 a full box has no pivotal edges for a cross-box connection
    cfg = PercolationConfig(spec=SPEC2, p=1.0, seed=3)
    piv = pivotal_edges(cfg, [(-2, 0)], [(2, 0)], box((0, 0), 2))
    assert piv == set()
    # a width-1 corridor makes every edge pivotal
    corridor = frozenset((k, 0) for k in range(-2, 3))
    piv2 = pivotal_edges(cfg, [(-2, 0)], [(2, 0)], corridor)
    assert len(piv2) == 4


def test_pivotal_agrees_with_removal_retest():
    import random as _random

    rnd = _random.Random(7)
    seen = {"raised": 0, "several": 0, "overlap": 0, "absent": 0}
    for trial in range(900):
        g = nx.Graph()
        n = rnd.randint(4, 9)
        nodes = list(range(n))
        for u in nodes:
            for v in nodes:
                if u < v and rnd.random() < 0.45:
                    g.add_edge(u, v)
        g.add_nodes_from(nodes)
        if trial < 300:
            src, tgt = {0}, {n - 1}
        else:
            # several sources and targets, which may overlap; n and n + 1
            # are absent from the graph
            pool = nodes + [n, n + 1]
            src = set(rnd.sample(pool, rnd.randint(1, 3)))
            tgt = set(rnd.sample(pool, rnd.randint(1, 3)))
            seen["several"] += len(src) > 1 and len(tgt) > 1
            seen["overlap"] += bool(src & tgt & set(nodes))
            seen["absent"] += bool(src - set(nodes))
        # the same graph as a plain dict of open neighbours
        adj = {v: list(g[v]) for v in g}
        if not any(nx.has_path(g, s, t)
                   for s in src if s in g for t in tgt if t in g):
            for graph in (g, adj):
                with pytest.raises(ValueError):
                    pivotal_from_graph(graph, src, tgt)
            seen["raised"] += 1
            continue
        piv = pivotal_from_graph(g, src, tgt)
        assert pivotal_from_graph(adj, src, tgt) == piv
        for e in g.edges():
            h = g.copy()
            h.remove_edge(*e)
            sep = not any(nx.has_path(h, s, t)
                          for s in src if s in h for t in tgt if t in h)
            assert (frozenset(e) in piv) == sep
    assert min(seen.values()) > 30, seen


def test_pivotal_edges_match_whole_region_graph():
    # only the sources' open cluster can hold a pivotal edge: the whole open
    # graph of the region, hashed edge by edge, gives the same set
    graphs = [(reg, list(region_sites(reg)), list(edges_within(SPEC2, reg)))
              for reg in (box((0, 0), 4), annulus((0, 0), 1, 5))]
    strip = frozenset((k, j) for k in range(-3, 4) for j in (0, 1))
    graphs.append((strip, sorted(strip),
                   [e for e in edges_within(SPEC2, box((0, 0), 3))
                    if e[0] in strip and e[1] in strip]))
    src, tgt = [(-2, 0), (2, 1), (9, 9)], [(3, 0), (-4, 4), (5, 5)]
    agreed = 0
    for sid in range(30):
        cfg = PercolationConfig(spec=SPEC2, p=0.6, seed=5, sample_id=sid)
        for reg, sites, edges in graphs:
            g = nx.Graph()
            g.add_nodes_from(sites)
            g.add_edges_from(e for e in edges if edge_state(cfg, e))
            try:
                want = pivotal_from_graph(g, src, tgt)
            except ValueError:
                with pytest.raises(ValueError):
                    pivotal_edges(cfg, src, tgt, reg)
                continue
            assert pivotal_edges(cfg, src, tgt, reg) == want
            agreed += bool(want)
    assert agreed > 10


# ---------------------------------------------------------------------------
# Attachment pairs on the lattice


def _records_for(cfg, ann, level):
    recs, truncated = spanning_clusters(cfg, ann)
    assert not truncated
    out = []
    for cl in recs:
        out.append(SpanningSetRecord(
            cluster=cl, level=level, q=0, good=True, failure_reasons=[],
            regular_in=frozenset(
                v for v in cl.vertices if norm_inf(v) == ann.inner + 1),
            regular_out=frozenset(
                v for v in cl.vertices if norm_inf(v) == ann.outer)))
    return out


def test_attachment_stars():
    assert outward_star(SPEC2, (2, 1), 2) == (3, 1)
    assert outward_star(SPEC2, (1, 1), 2) is None
    assert inward_star(SPEC2, (2, 0), 1) == (1, 0)
    assert inward_star(SPEC2, (2, 2), 1) is None


def test_y_set_lattice_frozen_histogram():
    ann_c = annulus((0, 0), 0, 2)
    ann_d = annulus((0, 0), 8, 16)
    mid = annulus((0, 0), 1, 9)
    hist = {}
    for sid in range(40):
        cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=2024, sample_id=sid)
        for c in _records_for(cfg, ann_c, 1):
            for d in _records_for(cfg, ann_d, 2):
                k = len(y_set(cfg, c, d, mid))
                hist[k] = hist.get(k, 0) + 1
    assert hist == {0: 371, 1: 12}  # never more than one attachment pair


def test_y_set_pairs_are_open_pivotal_attachments():
    ann_c = annulus((0, 0), 0, 2)
    ann_d = annulus((0, 0), 8, 16)
    mid = annulus((0, 0), 1, 9)
    seen = 0
    for sid in range(40):
        cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=2024, sample_id=sid)
        for c in _records_for(cfg, ann_c, 1):
            for d in _records_for(cfg, ann_d, 2):
                for xi, xj in y_set(cfg, c, d, mid):
                    assert xi in c.regular_out and xj in d.regular_in
                    ei = canonical_edge(SPEC2, xi, outward_star(SPEC2, xi, 2))
                    ej = canonical_edge(SPEC2, xj, inward_star(SPEC2, xj, 8))
                    assert edge_state(cfg, ei) and edge_state(cfg, ej)
                    seen += 1
    assert seen == 12


def test_verify_pinned_rejects_foreign_sample():
    ann = annulus((0, 0), 1, 3)
    cfg = PercolationConfig(spec=SPEC2, p=0.55, seed=6, sample_id=0)
    recs, _ = spanning_clusters(cfg, ann)
    if not recs:
        pytest.skip("no spanning cluster in this sample")
    other = cfg.with_sample(991)
    assert verify_pinned(cfg, recs[0])
    assert not verify_pinned(other, recs[0]) or \
        explore_cluster(other, recs[0].root, ann).vertices == recs[0].vertices


def test_cluster_components_match_graph_components():
    outer = annulus((0, 0), 1, 6)
    inner = annulus((0, 0), 1, 4)
    checked = 0
    for sid in range(30):
        cfg = PercolationConfig(spec=SPEC2, p=0.55, seed=5, sample_id=sid)
        recs, _ = spanning_clusters(cfg, outer)
        for rec in recs:
            comps = cluster_components(SPEC2, rec, inner)
            g = nx.Graph()
            g.add_nodes_from(v for v in rec.vertices if norm_inf(v) <= 4)
            g.add_edges_from(e for e in rec.open_edges if e[0] in g and e[1] in g)
            assert sorted(map(frozenset, nx.connected_components(g)), key=min) == \
                [c.vertices for c in comps]
            for c in comps:
                assert c.root == c.min_vertex and c.region == inner
                assert c.open_edges == {e for e in rec.open_edges
                                        if e[0] in c.vertices and e[1] in c.vertices}
                # one constructor: the same field types as an explored record
                assert [type(getattr(c, f)) for f in c.__dataclass_fields__] == \
                    [type(getattr(rec, f)) for f in rec.__dataclass_fields__]
                checked += 1
    assert checked > 20
