"""Edge-state hashing, cluster exploration, and the exact tiny-graph tier.

The hash vectors below were computed once from the reference implementation
and frozen; any change to the mixing constants or the key layout is a
determinism break and must fail here.
"""

from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, strategies as st

from percolab.engine import (
    MAX_EXACT_EDGES,
    PercolationConfig,
    TinyGraph,
    connect_sets,
    edge_key,
    edge_keys_bulk,
    edge_state,
    enumerate_exact,
    exact_event_table,
    explore_cluster,
    mix64,
    open_threshold,
    popcount64,
    raw_edge_state,
    sample_key,
    sample_masks,
    spanning_clusters,
    states_from_keys,
)
from percolab.estimators import SubgraphSpec, nofurther_check
from percolab.lattice import LatticeSpec, annulus, box, canonical_edge, contains, neighbours
from percolab.windowed import build_window

SPEC2 = LatticeSpec(d=2)


# ---------------------------------------------------------------------------
# Hashing


def test_mix64_frozen_vectors():
    assert mix64(0) == 0
    assert mix64(1) == 0x5692161D100B05E5
    assert mix64(2**64 - 1) == 0xB4D055FCF2CBBD7B


def test_key_frozen_vectors():
    assert sample_key(0) == 0xF2EE2134306FF565
    assert edge_key(2024, ((0, 0), (1, 0))) == 0x4918F738DC513113
    assert edge_key(7, ((-3, 5, 2), (-3, 5, 3))) == 0x24C9910D5ED874E4


def test_edge_key_accepts_numpy_integers():
    e = ((0, 0), (1, 0))
    as_np = tuple(tuple(np.int64(c) for c in x) for x in e)
    assert edge_key(np.int64(2024), as_np) == edge_key(2024, e) == 0x4918F738DC513113


_SPECS = [LatticeSpec(d=d) for d in (1, 2, 3)] + [
    LatticeSpec(d=d, edge_mode="spread_out", lam=lam) for d in (1, 2) for lam in (1, 2)]


@given(st.integers(0, 2**64 - 1), st.sampled_from(_SPECS), st.data())
def test_scalar_edge_key_matches_bulk_keys(seed, spec, data):
    # the scalar and vectorised hashes agree on one domain: any int64
    # coordinates, negative ones and spread-out offsets included
    coord = st.integers(-2**62, 2**62)
    a = tuple(data.draw(st.tuples(*[coord] * spec.d)))
    b = tuple(x + o for x, o in zip(a, data.draw(st.sampled_from(spec.offsets()))))
    e = canonical_edge(spec, a, b)
    bulk = edge_keys_bulk(seed, np.array([e[0]]).T, np.array([e[1]]).T)
    assert edge_key(seed, e) == int(bulk[0])


@given(st.integers(0, 2**64 - 1), st.sampled_from(_SPECS), st.integers(1, 2))
def test_scalar_edge_key_matches_window_keys(seed, spec, outer):
    win = build_window(spec, seed, outer=outer)
    for (ra, rb), key in zip(win.edge_rows, win.keys):
        # numpy coordinates straight off the window, no conversion
        e = (tuple(win.sites[ra]), tuple(win.sites[rb]))
        assert edge_key(seed, e) == int(key)


def test_open_threshold_exact():
    assert open_threshold(Fraction(1, 2)) == 1 << 63
    assert open_threshold(Fraction(1, 3)) == 6148914691236517205
    assert open_threshold(0) == 0
    assert open_threshold(1) == 1 << 64


@given(st.integers(0, 2**63), st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
def test_edge_state_orientation_invariant(seed, x):
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=seed)
    for y in neighbours(SPEC2, x):
        assert (edge_state(cfg, canonical_edge(SPEC2, x, y))
                == edge_state(cfg, canonical_edge(SPEC2, y, x)))


def test_edge_state_rejects_reversed_orientation():
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=99)
    with pytest.raises(ValueError):
        edge_state(cfg, ((1, 0), (0, 0)))


def test_raw_edge_state_is_threshold_on_mixed_key():
    cfg = PercolationConfig(spec=SPEC2, p=Fraction(1, 2), seed=99)
    thr = open_threshold(Fraction(1, 2))
    for k in range(50):
        e = ((k, 0), (k, 1))
        h = mix64(edge_key(99, e) ^ sample_key(0))
        assert raw_edge_state(cfg, e) == int(h < thr)


# p = 0 and 1, a dyadic p and a non-dyadic one (as float and as Fraction)
_P_VALUES = [0, 1, 0.375, 0.3, Fraction(1, 3)]
# the ends and the middle of the sample-id domain [0, 2^64)
_EDGE_IDS = [0, 1, 2**63, 2**64 - 1]


def test_config_computes_threshold_and_sample_key_once():
    for p in _P_VALUES:
        cold = PercolationConfig(SPEC2, p, seed=5, sample_id=2**63 + 7)
        warm = PercolationConfig(SPEC2, p, seed=5, sample_id=2**63 + 7)
        assert warm.threshold == open_threshold(p)
        assert warm.sample_key == sample_key(2**63 + 7)
        assert {"threshold", "sample_key"} <= set(vars(warm))
        assert not {"threshold", "sample_key"} & set(vars(cold))
        # the cache is not part of a config's value
        assert cold == warm and hash(cold) == hash(warm) and repr(cold) == repr(warm)
        other = warm.with_sample(3)
        assert not {"threshold", "sample_key"} & set(vars(other))
        assert other.sample_key == sample_key(3) != warm.sample_key
        assert other.threshold == warm.threshold


def _random_edge(spec, data, span=2**40):
    coord = st.integers(-span, span)
    a = tuple(data.draw(st.tuples(*[coord] * spec.d)))
    b = tuple(x + o for x, o in zip(a, data.draw(st.sampled_from(spec.offsets()))))
    return canonical_edge(spec, a, b)


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1),
       st.sampled_from(_SPECS), st.sampled_from(_P_VALUES), st.data())
def test_keyed_edge_state_matches_raw_edge_state(seed, sid, spec, p, data):
    e = _random_edge(spec, data)
    cfg = PercolationConfig(spec, p, seed, sid)
    frozen_formula = int(mix64(edge_key(seed, e) ^ sample_key(sid)) < open_threshold(p))
    assert raw_edge_state(cfg, e) == frozen_formula


@given(st.integers(0, 2**64 - 1), st.sampled_from(_SPECS),
       st.sampled_from(_P_VALUES), st.data())
def test_sample_masks_match_scalar_bits_on_the_id_domain(seed, spec, p, data):
    edges = [_random_edge(spec, data) for _ in range(data.draw(st.integers(1, 6)))]
    cfg = PercolationConfig(spec, p, seed)
    for ids in (_EDGE_IDS, np.array(_EDGE_IDS, dtype=np.uint64)):
        masks = sample_masks(cfg, edges, ids)
        for mask, sid in zip(masks, _EDGE_IDS):
            c = cfg.with_sample(sid)
            assert [(int(mask) >> j) & 1 for j in range(len(edges))] == \
                [raw_edge_state(c, e) for e in edges]


@pytest.mark.parametrize("sid", [-1, 2**64, 2**70])
def test_sample_ids_outside_the_domain_raise_on_both_paths(sid):
    cfg = PercolationConfig(SPEC2, 0.5, seed=1)
    edges = [((0, 0), (1, 0))]
    with pytest.raises(ValueError):
        PercolationConfig(SPEC2, 0.5, seed=1, sample_id=sid)
    with pytest.raises(ValueError):
        cfg.with_sample(sid)
    for ids in ([sid], [0, sid]):
        with pytest.raises(ValueError):
            sample_masks(cfg, edges, ids)
    if sid < 0:
        with pytest.raises(ValueError):
            sample_masks(cfg, edges, np.array([0, sid], dtype=np.int64))


@pytest.mark.parametrize("sid", [-1, 2**64, 2**70, -(2**64)])
def test_scalar_sample_key_refuses_ids_outside_the_domain(sid):
    # sample_key used to reduce the id mod 2^64: -1 read the key of 2^64 - 1,
    # and 2^64 the key of 0, where the bulk keys refused both
    message = r"sample ids must lie in \[0, 2\^64\)"
    keys = np.arange(5, dtype=np.uint64)
    with pytest.raises(ValueError, match=message):
        sample_key(sid)
    with pytest.raises(ValueError, match=message):
        states_from_keys(keys, sid, 1 << 63)
    with pytest.raises(ValueError, match=message):
        states_from_keys(keys, range(sid, sid + 1), 1 << 63)
    with pytest.raises(ValueError, match=message):
        sample_masks(PercolationConfig(SPEC2, 0.5, seed=1), [((0, 0), (1, 0))], [sid])


def test_edge_marginal_frequency():
    # law check: across many distinct edges the open fraction is ~p
    cfg = PercolationConfig(spec=SPEC2, p=0.3, seed=5)
    n = 20_000
    hits = sum(edge_state(cfg, ((k, 0), (k + 1, 0))) for k in range(0, 2 * n, 2))
    se = (0.3 * 0.7 / n) ** 0.5
    assert abs(hits / n - 0.3) < 4 * se


# ---------------------------------------------------------------------------
# Exploration


def test_explore_cluster_full_box_at_p_one():
    cfg = PercolationConfig(spec=SPEC2, p=1.0, seed=1)
    rec = explore_cluster(cfg, (0, 0), box((0, 0), 1))
    assert len(rec.vertices) == 9
    assert len(rec.boundary_in) == 0
    assert len(rec.boundary_out) == 8  # every norm-1 vertex sits on the rim


def test_explore_cluster_isolated_at_p_zero():
    cfg = PercolationConfig(spec=SPEC2, p=0.0, seed=1)
    rec = explore_cluster(cfg, (0, 0), box((0, 0), 3))
    assert rec.vertices == frozenset({(0, 0)})


def test_connect_sets_dense_and_empty():
    region = box((0, 0), 4)
    cfg = PercolationConfig(spec=SPEC2, p=1.0, seed=2)
    assert connect_sets(cfg, [(-4, 0)], {(4, 0)}, region) is True
    cfg0 = PercolationConfig(spec=SPEC2, p=0.0, seed=2)
    assert connect_sets(cfg0, [(-4, 0)], {(4, 0)}, region) is False
    # sources that already meet targets connect regardless of edges
    assert connect_sets(cfg0, [(1, 1)], {(1, 1)}, region) is True


def test_spanning_clusters_degenerate_densities():
    ann = annulus((0, 0), 1, 2)
    recs = spanning_clusters(PercolationConfig(spec=SPEC2, p=1.0, seed=4), ann)
    assert len(recs) == 1
    assert len(recs[0].vertices) == 16  # the full norm-2 shell
    # a thickness-1 shell lets singletons span; thickness 2 does not
    assert spanning_clusters(
        PercolationConfig(spec=SPEC2, p=0.0, seed=4), annulus((0, 0), 1, 3)) == []


# ---------------------------------------------------------------------------
# Exact tiny-graph tier


def test_tiny_graph_components_and_connectivity():
    tg = TinyGraph([("a", "b"), ("b", "c"), ("d", "e")])
    comps = tg.components(0b111)
    assert {frozenset(c) for c in comps} >= {frozenset("abc"), frozenset("de")}
    assert tg.connected(0b011, {"a"}, {"c"})
    assert not tg.connected(0b001, {"a"}, {"c"})
    assert not tg.connected(0b111, {"a"}, {"e"})


def _table(n_edges, q):
    """The event table of a per-mask scalar query."""
    return exact_event_table(n_edges, lambda ms: np.array([q(int(x)) for x in ms]))


def test_enumerate_exact_hand_values():
    p = Fraction(2, 5)
    tg1 = TinyGraph([("a", "b")])
    assert enumerate_exact([("a", "b")], p,
                           _table(1, lambda m: tg1.connected(m, {"a"}, {"b"}))) == p

    series = [("a", "m"), ("m", "b")]
    tg2 = TinyGraph(series)
    assert enumerate_exact(series, p,
                           _table(2, lambda m: tg2.connected(m, {"a"}, {"b"}))) == p * p

    # two vertex-disjoint 2-step routes: 1 - (1 - p^2)^2
    par = [("a", "u"), ("u", "b"), ("a", "v"), ("v", "b")]
    tgp = TinyGraph(par)
    assert enumerate_exact(par, p, _table(4, lambda m: tgp.connected(m, {"a"}, {"b"}))) \
        == 1 - (1 - p * p) ** 2

    # direct edge in parallel with a 2-step route: p + p^2 - p^3
    mix = [("a", "b"), ("a", "w"), ("w", "b")]
    tgm = TinyGraph(mix)
    assert enumerate_exact(mix, p, _table(3, lambda m: tgm.connected(m, {"a"}, {"b"}))) \
        == p + p * p - p ** 3


@given(st.integers(1, 6), st.integers(1, 7))
def test_enumerate_exact_total_mass(n_edges, pden):
    edges = [(i, i + 1) for i in range(n_edges)]
    p = Fraction(1, pden + 1)
    assert enumerate_exact(edges, p, _table(n_edges, lambda m: True)) == 1
    tg = TinyGraph(edges)
    ev = lambda m: tg.connected(m, {0}, {n_edges})
    assert (enumerate_exact(edges, p, _table(n_edges, ev))
            + enumerate_exact(edges, p, _table(n_edges, lambda m: not ev(m)))) == 1


def test_enumerate_exact_rejects_large_instances():
    edges = [(i, i + 1) for i in range(MAX_EXACT_EDGES + 1)]
    # one size check, with one message, guards the whole exact tier
    message = f"{MAX_EXACT_EDGES + 1} edges exceeds exact-enumeration cap {MAX_EXACT_EDGES}"
    c = SubgraphSpec(vertices=frozenset({0}), edges=frozenset())
    for build in (lambda: TinyGraph(edges),
                  lambda: enumerate_exact(edges, Fraction(1, 2), np.ones(1, dtype=np.uint8)),
                  lambda: exact_event_table(len(edges), lambda ms: ms >= 0),
                  lambda: nofurther_check([], edges, c, {len(edges)}, Fraction(1, 2))):
        with pytest.raises(ValueError, match=message):
            build()


@pytest.mark.parametrize("length", [0, 4, 7, 9, 16])
def test_enumerate_exact_rejects_a_table_of_the_wrong_length(length):
    with pytest.raises(ValueError, match="event table"):
        enumerate_exact([(0, 1), (1, 2), (2, 3)], Fraction(1, 2),
                        np.ones(length, dtype=np.uint8))


def test_exact_event_table_matches_query():
    edges = [("a", "b"), ("b", "c"), ("a", "c")]
    tg = TinyGraph(edges)
    q = lambda m: tg.connected(m, {"a"}, {"c"})
    table = _table(len(edges), q)
    assert len(table) == 8
    for mask in range(8):
        assert bool(table[mask]) == q(mask)


@st.composite
def _tiny_instances(draw):
    """A random graph of at most 12 edges on integer vertices, with sources
    and targets that may name vertices outside the graph."""
    n = draw(st.integers(2, 9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    labels = st.integers(0, n + 1)  # n and n + 1 are never vertices
    sources = draw(st.sets(labels, max_size=3))
    targets = draw(st.sets(labels, max_size=3) | st.just(sources))
    return edges, sources, targets


def _decode(tg, bits):
    return {v for i, v in enumerate(tg.vertices) if int(bits) >> i & 1}


@given(_tiny_instances())
def test_vectorised_tables_match_the_per_mask_path(inst):
    edges, sources, targets = inst
    tg = TinyGraph(edges)
    n_masks = 1 << len(edges)
    table = exact_event_table(len(edges), lambda ms: tg.connects(ms, sources, targets))
    assert table.tolist() \
        == [int(tg.connected(mask, sources, targets)) for mask in range(n_masks)]

    reach = tg.reach(np.arange(n_masks), sources)
    sizes = popcount64(reach)
    for mask in range(n_masks):
        comps = [tg.component_of(mask, s) for s in sources if s in tg.vertices]
        expected = set().union(*comps)
        assert _decode(tg, reach[mask]) == expected
        assert sizes[mask] == len(expected)


def test_reach_past_32_vertices_on_a_disconnected_graph():
    # twelve disjoint 2-edge paths: 36 vertices, vertex v has bit v
    edges = [(v, v + 1) for i in range(12) for v in (3 * i, 3 * i + 1)]
    tg = TinyGraph(edges)
    assert tg.vertices == list(range(36))
    masks = np.random.default_rng(5).integers(0, 1 << len(edges), size=400)
    sources, targets = {1, 33, 34}, {2, 35, 40}
    reach = tg.reach(masks, sources)
    hits = tg.connects(masks, sources, targets)
    for k, mask in enumerate(masks.tolist()):
        expected = set().union(*(tg.component_of(mask, s) for s in sources))
        assert _decode(tg, reach[k]) == expected
        assert hits[k] == tg.connected(mask, sources, targets)
    assert popcount64(np.uint64(1 << 35 | 1 << 63)) == 2


@pytest.mark.parametrize("m", [17, 18])
def test_exact_tables_over_several_chunks_match_closed_forms(m):
    p = Fraction(2, 5)
    # listed from the far end, so each sweep of the edges moves one step
    path = TinyGraph([(i, i + 1) for i in reversed(range(m))])
    table = exact_event_table(m, lambda ms: path.connects(ms, [0], [m]))
    assert enumerate_exact(path.edges, p, table) == p ** m
    # the hub's cluster holds >= k + 1 vertices iff >= k spokes are open
    star = TinyGraph([(0, i) for i in range(1, m + 1)])
    k = m // 3
    table = exact_event_table(m, lambda ms: popcount64(star.reach(ms, [0])) >= k + 1)
    assert enumerate_exact(star.edges, p, table) \
        == sum(comb(m, j) * p ** j * (1 - p) ** (m - j) for j in range(k, m + 1))


def test_sample_masks_bits_match_edge_states():
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=12)
    edges = [((0, 0), (1, 0)), ((1, 0), (2, 0)), ((0, 0), (0, 1))]
    sids = np.arange(40)
    masks = sample_masks(cfg, edges, sids)
    assert masks.ndim == 1
    for i, sid in enumerate(sids):
        c = cfg.with_sample(int(sid))
        for k, e in enumerate(edges):
            assert (int(masks[i]) >> k) & 1 == edge_state(c, e)


# ---------------------------------------------------------------------------
# Measurability: the edge log


@given(st.integers(0, 200))
def test_explore_cluster_logs_each_region_edge_once(sid):
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=31, sample_id=sid)
    region = annulus((0, 0), 1, 4)
    log = []
    rec = explore_cluster(cfg, (2, 0), region, edge_log=log)
    counts = Counter(e for e, _ in log)
    assert max(counts.values()) == 1
    assert all(bit == edge_state(cfg, e) for e, bit in log)
    # region edges at the cluster only; every one leaving it is logged closed
    assert all(contains(region, a) and contains(region, b)
               and (a in rec.vertices or b in rec.vertices) for a, b in counts)
    closed = {e for e, bit in log if not bit}
    assert all(canonical_edge(SPEC2, v, w) in closed for v in rec.vertices
               for w in neighbours(SPEC2, v)
               if contains(region, w) and w not in rec.vertices)
    # each open edge reached a new site: a spanning tree of the cluster
    assert sum(bit for _, bit in log) == len(rec.vertices) - 1


def test_spanning_clusters_log_only_annulus_edges():
    ann = annulus((0, 0), 2, 6)
    repeats = 0
    for sid in range(20):
        cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=3, sample_id=sid)
        log = []
        spanning_clusters(cfg, ann, edge_log=log)
        assert all(contains(ann, a) and contains(ann, b) for (a, b), _ in log)
        # each exploration queries an edge at most once; a closed edge
        # between two explored clusters is queried once from each side
        counts = Counter(e for e, _ in log)
        twice = {e for e, n in counts.items() if n == 2}
        assert max(counts.values()) <= 2
        assert not any(bit for e, bit in log if e in twice)
        repeats += len(twice)
    assert repeats > 0


@given(st.integers(0, 200))
def test_connect_sets_logs_only_region_edges(sid):
    cfg = PercolationConfig(spec=SPEC2, p=0.55, seed=8, sample_id=sid)
    region = box((0, 0), 3)
    for targets in ({(3, 3)}, {(9, 9)}):  # reachable, and outside the region
        log = []
        connect_sets(cfg, [(0, 0), (-3, 0)], targets, region, edge_log=log)
        assert all(contains(region, a) and contains(region, b) for (a, b), _ in log)
        assert max(Counter(e for e, _ in log).values()) == 1
