"""The vectorised window sampler against its site-by-site twin.

Both paths must produce bit-identical edge states from the same seed; any
divergence means the two samplers no longer speak the same hash.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from percolab.clusters import _scan_window, _window_spanning_clusters
from percolab.engine import (
    PercolationConfig,
    edge_key,
    edge_keys_bulk,
    edge_state,
    explore_cluster,
    spanning_clusters,
)
from percolab.lattice import SPREAD_OUT, LatticeSpec, annulus, box, edge_count_box
from percolab.windowed import (
    WindowTooLargeError,
    build_window,
    component_labels,
    connection_indicator,
    escape_levels,
    origin_cluster,
    sample_blocks,
    sample_open_edges,
    shell_rows,
)

SPEC2 = LatticeSpec(d=2)
SPEC3 = LatticeSpec(d=3)


def test_window_layout_counts():
    win = build_window(SPEC2, seed=1, outer=3)
    assert win.n_sites == 49
    assert win.member.all()
    assert win.n_edges == edge_count_box(SPEC2, 3)
    for row, site in enumerate(win.sites):
        assert win.row_of(tuple(site)) == row


@pytest.mark.parametrize("site", [(1, 0, 0), (1,)])
def test_row_of_refuses_a_site_of_another_dimension(site):
    # (1, 0, 0) used to be read as (1, 0); (1,) escaped as an IndexError
    win = build_window(SPEC2, seed=1, outer=3)
    with pytest.raises(ValueError, match="coordinates"):
        win.row_of(site)


@pytest.mark.parametrize("sites,message", [
    ([(0, 0), (4, 0)], "outside window box"),
    ([(0, -4)], "outside window box"),
    ([(1, 0, 0)], "coordinates"),
    ([(0, 0), (1,)], None),  # numpy refuses the ragged array
], ids=["outside", "outside-negative", "3d-in-2d", "mixed-dimensions"])
def test_rows_of_refuses_what_row_of_refuses(sites, message):
    win = build_window(SPEC2, seed=1, outer=3)
    with pytest.raises(ValueError, match=message):
        win.rows_of(sites)


@pytest.mark.parametrize("sites", [[(1, 2, 3, 4)], [(1, 2, 3)]], ids=["4d-in-2d", "3d-in-2d"])
def test_box_rows_refuses_sites_of_another_dimension(sites):
    # four coordinates are one bad site, not the two sites (1, 2) and (3, 4)
    win = build_window(SPEC2, seed=1, outer=3)
    with pytest.raises(ValueError, match="sites must have 2 coordinates"):
        win.box_rows(sites)
    assert win.box_rows([(1, 2), (3, 4)]).tolist() == [win.row_of((1, 2))]


def test_rows_of_is_row_of_in_one_step():
    win = build_window(SPEC2, seed=1, outer=3, inner=1)
    sites = [tuple(x) for x in win.sites.tolist()]
    assert win.rows_of(sites).tolist() == [win.row_of(x) for x in sites] \
        == list(range(win.n_sites))
    assert win.rows_of(win.sites[::-1]).tolist() == list(range(win.n_sites))[::-1]
    assert win.rows_of(frozenset()).tolist() == []


def test_annular_window_membership():
    win = build_window(SPEC2, seed=1, outer=4, inner=1)
    norms = win.norms()
    assert (win.member == (norms > 1)).all()
    assert set(norms[shell_rows(win, 3)]) == {3}


def test_open_edges_bit_exact_against_scalar_sampler():
    for spec, outer in [(SPEC2, 4), (SPEC3, 2)]:
        win = build_window(spec, seed=77, outer=outer)
        cfg = PercolationConfig(spec=spec, p=0.45, seed=77)
        for sid in range(6):
            bits = sample_open_edges(win, cfg, sid)
            c = cfg.with_sample(sid)
            for k in range(win.n_edges):
                a = tuple(int(v) for v in win.sites[win.edge_rows[k, 0]])
                b = tuple(int(v) for v in win.sites[win.edge_rows[k, 1]])
                assert bool(bits[k]) == bool(edge_state(c, (a, b)))


@pytest.mark.parametrize("spec,outer,p", [
    (SPEC2, 4, 0.5),
    (SPEC3, 3, 0.2488),
    (LatticeSpec(d=2, edge_mode=SPREAD_OUT, lam=2), 4, 0.07),
], ids=["d2", "d3", "lam2"])
def test_component_labels_match_exploration(spec, outer, p):
    # the origin's label in a full labelling and one search from the origin
    # both give the lazy explorer's vertex set
    win = build_window(spec, seed=5, outer=outer)
    cfg = PercolationConfig(spec=spec, p=p, seed=5)
    o = (0,) * spec.d
    region = box(o, outer)
    origin = win.row_of(o)
    sizes = set()
    for sid in range(25):
        mask = sample_open_edges(win, cfg, sid)
        labels = component_labels(win, mask)
        by_label = {tuple(win.sites[r]) for r in np.flatnonzero(labels == labels[origin])}
        by_search = {tuple(win.sites[r])
                     for r in np.flatnonzero(origin_cluster(win, mask, origin, None))}
        rec = explore_cluster(cfg.with_sample(sid), o, region)
        assert by_label == by_search == set(rec.vertices)
        sizes.add(len(by_search))
    assert len(sizes) > 2  # the samples are not all trivial


def test_window_spanning_clusters_equal_lazy_scan(cold_caches):
    # the cases share a region under two seeds and two lattices, and each
    # sample id visits them in turn, so a window cached under the wrong key
    # shows; five windows overflow the cache, three p per window hit it
    spread = LatticeSpec(d=2, edge_mode=SPREAD_OUT, lam=2)
    ann = annulus((0, 0), 2, 6)
    cases = [
        (SPEC2, 9, ann, 0.5),
        (SPEC2, 10, ann, 0.5),
        (spread, 9, ann, 0.07),
        (SPEC2, 4, annulus((0, 0), 2, 3), 0.5),  # p = 0: every non-corner site spans alone
        (SPEC3, 7, annulus((0, 0, 0), 1, 4), 0.2488),
    ]
    for sid in range(50):
        for spec, seed, region, p_c in cases:
            for p in (0.0, p_c, 1.0):
                cfg = PercolationConfig(spec=spec, p=p, seed=seed, sample_id=sid)
                fast = _window_spanning_clusters(cfg, region)
                slow = spanning_clusters(cfg, region)
                assert list(fast) == slow, (spec, seed, region, p, sid)
                for r in (*fast, *slow):
                    # the label is the canonical sorted vertex tuple
                    assert all(a < b for a, b in zip(r.label, r.label[1:]))
                    assert r.vertices == frozenset(r.label)
                    assert all(type(c) is int for v in r.label for c in v)
    info = _scan_window.cache_info()
    assert info.hits > 0 and info.misses > 0


def test_connection_indicator_consistent_with_labels():
    win = build_window(SPEC2, seed=2, outer=3)
    cfg = PercolationConfig(spec=SPEC2, p=0.6, seed=2)
    origin = win.row_of((0, 0))
    targets = shell_rows(win, 3)
    for sid in range(40):
        labels = component_labels(win, sample_open_edges(win, cfg, sid))
        hit = connection_indicator(labels, origin, targets)
        assert hit == bool((labels[targets] == labels[origin]).any())


# ---------------------------------------------------------------------------
# The window builder against the sorting builder it replaced


def _sorted_window_arrays(spec, seed, outer, inner):
    """Reference: ``(sites, member, edge_rows, keys, norms)`` as the builder
    made them before it built edges in CSR order: per positive offset, the
    valid first rows and their second rows by stride arithmetic, then one
    ``lexsort`` by first row, then second row, and keys hashed from the
    gathered end coordinates."""
    d = spec.d
    side = 2 * outer + 1
    axis = np.arange(-outer, outer + 1, dtype=np.int64)
    sites = np.stack([g.ravel() for g in np.meshgrid(*[axis] * d, indexing="ij")], axis=1)
    norms = np.abs(sites).max(axis=1)
    member = norms > inner
    strides = np.array([side ** (d - 1 - j) for j in range(d)], dtype=np.int64)
    rel = sites + outer
    rows_a, rows_b = [], []
    for off in (v for v in spec.offsets() if v > (0,) * d):
        ok = member.copy()
        for j in range(d):
            if off[j] > 0:
                ok &= rel[:, j] < side - off[j]
            elif off[j] < 0:
                ok &= rel[:, j] >= -off[j]
        idx_a = np.flatnonzero(ok)
        idx_b = (rel[idx_a] + np.asarray(off)) @ strides
        keep = member[idx_b]
        rows_a.append(idx_a[keep])
        rows_b.append(idx_b[keep])
    a_rows, b_rows = np.concatenate(rows_a), np.concatenate(rows_b)
    order = np.lexsort((b_rows, a_rows))
    a_rows, b_rows = a_rows[order], b_rows[order]
    keys = edge_keys_bulk(seed, sites[a_rows].T, sites[b_rows].T)
    return sites, member, np.array([a_rows, b_rows], dtype=np.int32).T, keys, norms


def _builder_cases():
    specs = [LatticeSpec(d=d) for d in (1, 2, 3, 4)] + [
        LatticeSpec(d=2, edge_mode="spread_out", lam=lam) for lam in (1, 2, 3)]
    for spec in specs:
        # every outer 0..17 where the box stays small, so the case list runs
        # in seconds; lam = 3 reaches past the box at outer <= 1
        outers = [r for r in range(18) if (2 * r + 1) ** spec.d <= 6000]
        for outer in outers:
            for inner in sorted({-1, 0, outer // 2, outer - 1}):
                yield spec, outer, inner


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_window_arrays_equal_the_sorting_builder(seed):
    n_cases = 0
    for spec, outer, inner in _builder_cases():
        win = build_window(spec, seed, outer=outer, inner=inner)
        ref = _sorted_window_arrays(spec, seed, outer, inner)
        got = (win.sites, win.member, win.edge_rows, win.keys, win.norms())
        for name, a, b in zip(("sites", "member", "edge_rows", "keys", "norms"), got, ref):
            where = f"{name} of {spec}, outer {outer}, inner {inner}"
            assert a.dtype == b.dtype and np.array_equal(a, b), where
            assert (a.flags.c_contiguous, a.flags.f_contiguous) == \
                (b.flags.c_contiguous, b.flags.f_contiguous), where
        n_cases += 1
    assert n_cases == 377


@pytest.mark.parametrize("spec,centres", [
    (LatticeSpec(d=1), [(5,), (-7,)]),
    (SPEC2, [(3, -2), (-40, 17), (2**33, -5)]),
    (SPEC3, [(1, 2, 3), (-5, 0, 9)]),
    (LatticeSpec(d=2, edge_mode=SPREAD_OUT, lam=2), [(4, 4), (-3, 11)]),
], ids=["d1", "d2", "d3", "lam2"])
def test_centred_window_hashes_absolute_edges(spec, centres):
    seed = 2024
    arrays = ("sites", "member", "edge_rows", "keys")
    for outer, inner in ((3, -1), (3, 1)):
        default = build_window(spec, seed, outer, inner)
        at_origin = build_window(spec, seed, outer, inner, centre=(0,) * spec.d)
        assert at_origin.centre == default.centre == (0,) * spec.d
        for name in arrays:
            assert np.array_equal(getattr(at_origin, name), getattr(default, name)), name
        for centre in centres:
            win = build_window(spec, seed, outer, inner, centre=centre)
            assert win.rows_of(win.sites).tolist() == list(range(win.n_sites))
            for (ra, rb), key in zip(win.edge_rows.tolist(), win.keys.tolist()):
                a, b = tuple(win.sites[ra].tolist()), tuple(win.sites[rb].tolist())
                assert a < b and key == edge_key(seed, (a, b))
            # the origin window's layout, shifted by the centre
            assert np.array_equal(win.sites, default.sites + np.array(centre))
            for name in ("member", "edge_rows"):
                assert np.array_equal(getattr(win, name), getattr(default, name)), name
            assert np.array_equal(win.norms(), default.norms())


# ---------------------------------------------------------------------------
# The CSR-skeleton labeller against the COO labeller it replaced


def _coo_component_labels(win, open_mask, blocked_rows=None):
    """Reference: the COO -> CSR construction the skeleton path replaced."""
    er = win.edge_rows
    sel = open_mask
    if blocked_rows is not None and len(blocked_rows):
        blocked = np.zeros(win.n_sites, dtype=bool)
        blocked[blocked_rows] = True
        sel = sel & ~blocked[er[:, 0]] & ~blocked[er[:, 1]]
    a = er[sel, 0]
    b = er[sel, 1]
    n = win.n_sites
    g = csr_matrix((np.ones(len(a), dtype=np.int8), (a, b)), shape=(n, n))
    return connected_components(g, directed=False)[1]


_LAM1 = LatticeSpec(d=2, edge_mode="spread_out", lam=1)
_LAM2 = LatticeSpec(d=2, edge_mode="spread_out", lam=2)
# (spec, outer, inner): boxes and annuli (inner 0 drops only the centre),
# d = 1, 2, 3, spread-out lam 1 and 2
_LABEL_WINDOWS = [
    (LatticeSpec(d=1), 7, -1),
    (LatticeSpec(d=1), 7, 2),
    (SPEC2, 6, -1),
    (SPEC2, 6, 0),
    (SPEC2, 7, 3),
    (SPEC3, 3, -1),
    (SPEC3, 3, 1),
    (_LAM1, 5, -1),
    (_LAM1, 5, 2),
    (_LAM2, 5, -1),
    (_LAM2, 6, 2),
]
_LABEL_IDS = ["d1-box", "d1-annulus-offset", "d2-box", "d2-hole0-offset",
              "d2-annulus", "d3-box-offset", "d3-annulus", "lam1-box",
              "lam1-annulus-offset", "lam2-box-offset", "lam2-annulus"]


def _assert_same_labels(win, mask, blocked_rows=None):
    got = component_labels(win, mask, blocked_rows)
    ref = _coo_component_labels(win, mask, blocked_rows)
    assert got.dtype == ref.dtype
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("spec,outer,inner", _LABEL_WINDOWS, ids=_LABEL_IDS)
def test_skeleton_labels_equal_coo_labels(spec, outer, inner):
    win = build_window(spec, seed=41, outer=outer, inner=inner)
    a, b = win.edge_rows[:, 0], win.edge_rows[:, 1]
    # the skeleton: canonical CSR order, contiguous int32 columns
    assert (a < b).all() and np.array_equal(np.lexsort((b, a)), np.arange(win.n_edges))
    assert win.edge_rows.dtype == np.int32
    assert a.flags.c_contiguous and b.flags.c_contiguous
    rng = np.random.default_rng(41)
    members = np.flatnonzero(win.member)
    for p in (0.2, 0.5, 0.8):
        cfg = PercolationConfig(spec, p, 41)
        for sid in range(4):
            mask = sample_open_edges(win, cfg, sid)
            _assert_same_labels(win, mask)
            # an obstacle set: isolated sites, as the obstacle family blocks them
            _assert_same_labels(win, mask, rng.choice(members, size=len(members) // 5,
                                                      replace=False))
    for mask in (np.ones(win.n_edges, dtype=bool), np.zeros(win.n_edges, dtype=bool)):
        _assert_same_labels(win, mask)
        _assert_same_labels(win, mask, members[::3])


@given(st.sampled_from(_LABEL_WINDOWS), st.integers(0, 2**64 - 1),
       st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.integers(0, 2**64 - 1),
       st.data())
def test_skeleton_labels_equal_coo_labels_random(window, seed, p, sid, data):
    spec, outer, inner = window
    win = build_window(spec, seed, outer=outer, inner=inner)
    mask = sample_open_edges(win, PercolationConfig(spec, p, seed), sid)
    blocked = data.draw(st.lists(st.integers(0, win.n_sites - 1), max_size=8))
    _assert_same_labels(win, mask, np.asarray(blocked, dtype=np.int64))


# (spec, outer, p_c): d = 2, d = 3 and spread-out lam 2 near criticality
_CLUSTER_WINDOWS = [(SPEC2, 6, 0.5), (SPEC3, 3, 0.2488), (_LAM2, 5, 0.07)]


@given(st.sampled_from(_CLUSTER_WINDOWS), st.sampled_from(["0", "p_c", "1"]),
       st.integers(0, 2**64 - 1), st.data())
def test_origin_cluster_equals_origin_label(window, p, sid, data):
    # one search from the origin against the origin's label in a full
    # labelling, with no, empty and drawn blocked rows: sites on the rim of
    # the cluster (outside it, one window edge from it), inside it (the
    # origin included) and anywhere
    spec, outer, p_c = window
    win = build_window(spec, 41, outer)
    mask = sample_open_edges(win, PercolationConfig(spec, {"0": 0.0, "p_c": p_c, "1": 1.0}[p],
                                                    41), sid)
    o = win.row_of((0,) * spec.d)

    def check(blocked):
        lab = component_labels(win, mask, blocked)
        got = origin_cluster(win, mask, o, blocked)
        assert got.dtype == bool and np.array_equal(got, lab == lab[o])
        return got

    cluster = check(None)
    check(np.zeros(0, dtype=np.int64))
    a, b = win.edge_rows.T.astype(np.int64)
    rim = np.union1d(b[cluster[a] & ~cluster[b]], a[cluster[b] & ~cluster[a]])
    pools = [rim, np.flatnonzero(cluster), np.arange(win.n_sites)]
    blocked = [row for pool in pools if len(pool)
               for row in data.draw(st.lists(st.sampled_from(list(pool)), max_size=4))]
    check(np.asarray(blocked, dtype=np.int64))


def test_oversized_windows_are_refused_before_materialising():
    with pytest.raises(WindowTooLargeError, match="100060009 sites"):
        build_window(SPEC2, seed=0, outer=5001)
    # 2563201 sites of 840 edges each overflow the int32 skeleton
    with pytest.raises(WindowTooLargeError, match="too large"):
        build_window(LatticeSpec(d=2, edge_mode="spread_out", lam=20), seed=0, outer=800)
    assert issubclass(WindowTooLargeError, ValueError)


# ---------------------------------------------------------------------------
# Blocks of samples against one-sample calls

# (spec, outer, inner): d = 1, 2, 3, spread-out, an annulus, a window of
# 1089 sites (15 ids a block) and a window of one site, which has no edge
_BLOCK_WINDOWS = [
    (LatticeSpec(d=1), 9, -1),
    (SPEC2, 5, -1),
    (SPEC2, 16, -1),
    (SPEC2, 6, 2),
    (SPEC3, 3, -1),
    (_LAM2, 5, -1),
    (SPEC2, 0, -1),
]
_BLOCK_IDS = ["d1", "d2", "d2-r16", "d2-annulus", "d3", "lam2", "no-edge"]
# id ranges: the start, both sides of 2^63 (numpy reads that range as
# float64 unless told uint64) and the top of the domain
_ID_RANGES = [range(0, 7), range(2**63 - 3, 2**63 + 3), range(2**64 - 5, 2**64)]


@pytest.mark.parametrize("spec,outer,inner", _BLOCK_WINDOWS, ids=_BLOCK_IDS)
@pytest.mark.parametrize("ids", _ID_RANGES, ids=["low", "2^63", "top"])
def test_block_sampler_rows_equal_one_sample_vectors(spec, outer, inner, ids):
    win = build_window(spec, seed=29, outer=outer, inner=inner)
    for p in (0.0, 0.3, 0.5, 1.0):
        cfg = PercolationConfig(spec, p, 29)
        block = sample_open_edges(win, cfg, ids)
        assert block.shape == (len(ids), win.n_edges) and block.dtype == bool
        for row, sid in zip(block, ids):
            one = sample_open_edges(win, cfg, sid)
            assert one.shape == (win.n_edges,) and np.array_equal(row, one)


@pytest.mark.parametrize("ids", [-1, 2**64, 2**70, range(-1, 2), range(2**64 - 2, 2**64 + 1),
                                 range(2**70, 2**70 + 2)],
                         ids=["-1", "2^64", "2^70", "from-1", "past-top", "2^70-range"])
def test_block_sampler_refuses_what_one_sample_refuses(ids):
    # an id outside [0, 2^64) used to wrap in a one-sample call: -1 read the
    # bits of 2^64 - 1, and 2^64 those of 0
    win = build_window(SPEC2, seed=29, outer=2)
    cfg = PercolationConfig(SPEC2, 0.5, 29)
    bad = [ids] if isinstance(ids, int) else [i for i in ids if not 0 <= i < 2**64]
    for sid in bad:
        with pytest.raises(ValueError, match=r"sample ids must lie in \[0, 2\^64\)"):
            sample_open_edges(win, cfg, sid)
    with pytest.raises(ValueError, match=r"sample ids must lie in \[0, 2\^64\)"):
        sample_open_edges(win, cfg, ids if isinstance(ids, range) else range(ids, ids + 1))
    for edge in (0, 2**64 - 1):  # both ends of the domain are accepted both ways
        assert np.array_equal(sample_open_edges(win, cfg, range(edge, edge + 1))[0],
                              sample_open_edges(win, cfg, edge))


def test_sample_blocks_fill_the_site_budget_in_order():
    win = build_window(SPEC2, seed=1, outer=16)  # 1089 sites: 15 ids a block
    assert [(b.start, b.stop) for b in sample_blocks(win, range(3, 40))] == \
        [(3, 18), (18, 33), (33, 40)]
    assert list(sample_blocks(win, range(5, 5))) == []
    big = build_window(SPEC2, seed=1, outer=64)  # over the budget: one id a block
    assert list(sample_blocks(big, range(2, 5))) == [range(2, 3), range(3, 4), range(4, 5)]
    tiny = build_window(SPEC2, seed=1, outer=0)
    assert list(sample_blocks(tiny, range(2**64 - 3, 2**64))) == [range(2**64 - 3, 2**64)]


@pytest.mark.parametrize("spec,outer,inner", _BLOCK_WINDOWS, ids=_BLOCK_IDS)
def test_block_labels_and_clusters_equal_one_sample_calls(spec, outer, inner):
    # label numbers, not only partitions, must agree; the blocks are the
    # estimators' (at r = 16, 15 + 15 + 3 ids: a short last block), a block
    # of one and a block at the top of the id domain, with and without
    # blocked rows
    win = build_window(spec, seed=31, outer=outer, inner=inner)
    o = win.row_of((0,) * spec.d)
    members = np.flatnonzero(win.member)
    blocked_sets = [None, members[::4]]
    blocks = list(sample_blocks(win, range(100, 133))) + [range(7, 8), range(2**64 - 3, 2**64)]
    for p in (0.25, 0.5, 0.75):
        cfg = PercolationConfig(spec, p, 31)
        for block in blocks:
            masks = sample_open_edges(win, cfg, block)
            for blocked in blocked_sets:
                labels = component_labels(win, masks, blocked)
                clusters = origin_cluster(win, masks, o, blocked)
                assert labels.shape == clusters.shape == (len(block), win.n_sites)
                assert clusters.dtype == bool
                for row, sid in enumerate(block):
                    one = sample_open_edges(win, cfg, sid)
                    want = component_labels(win, one, blocked)
                    assert labels.dtype == want.dtype and np.array_equal(labels[row], want)
                    assert np.array_equal(clusters[row], origin_cluster(win, one, o, blocked))


# ---------------------------------------------------------------------------
# Escape levels: one minimum spanning tree per sample against per-p labelling

_ESCAPE_WINDOWS = [
    (SPEC2, 5),
    (SPEC3, 2),
    (LatticeSpec(d=2, edge_mode="spread_out", lam=1), 4),
    (LatticeSpec(d=2, edge_mode="spread_out", lam=2), 4),
]
_ESCAPE_IDS = ["d2-nn", "d3-nn", "d2-lam1", "d2-lam2"]
# p = 1 and p = 0, the dyadic 0.375, the non-dyadic 1/3 and 0.62, and values
# near each window's threshold, so the grids split the samples
_P_POOL = [1.0, 0.62, 0.5, 0.375, 1 / 3, 0.3, 0.2, 0.1, 0.05, 0.0]
_GRID8 = [1.0, 0.62, 0.375, 1 / 3, 0.25, 0.1, 0.05, 0.0]


def _reference_levels(win, cfgs, sids, origin_row, target_sets):
    """Label the window once per p and count, for each target set, the
    configs that connect."""
    out = []
    for sid in sids:
        labels = [component_labels(win, sample_open_edges(win, cfg, sid)) for cfg in cfgs]
        ks = []
        for rows in target_sets:
            hits = [connection_indicator(lab, origin_row, rows) for lab in labels]
            k = hits.count(True)
            assert hits == [True] * k + [False] * (len(cfgs) - k)  # nested in p
            ks.append(k)
        out.append((sid, tuple(ks)))
    return out


_KINDS = ["shell", "mid-shell", "vertex", "with-origin"]


def _escape_targets(win, kind, site):
    if kind == "shell":
        return shell_rows(win, win.outer)
    if kind == "mid-shell":
        return shell_rows(win, win.outer // 2)
    if kind == "vertex":
        return win.rows_of([site])
    return win.rows_of([(0,) * win.spec.d, site])  # contains the origin


@pytest.mark.parametrize("spec,outer", _ESCAPE_WINDOWS, ids=_ESCAPE_IDS)
@pytest.mark.parametrize("grid", [_GRID8, [0.3]], ids=["grid8", "one-p"])
@pytest.mark.parametrize("kinds", [["shell"], ["vertex"], ["with-origin"], _KINDS],
                         ids=["shell", "vertex", "with-origin", "all-kinds"])
def test_escape_levels_match_per_p_labelling(spec, outer, grid, kinds):
    win = build_window(spec, seed=31, outer=outer)
    cfgs = [PercolationConfig(spec, p, 31) for p in grid]
    origin = win.row_of((0,) * spec.d)
    site = (outer - 1,) + (0,) * (spec.d - 1)
    target_sets = [_escape_targets(win, kind, site) for kind in kinds]
    sids = range(100, 112)
    got = list(escape_levels(win, cfgs, sids, origin, target_sets))
    assert got == _reference_levels(win, cfgs, sids, origin, target_sets)
    for j, kind in enumerate(kinds):
        ks = [k[j] for _, k in got]
        if kind == "with-origin":
            assert all(k == len(cfgs) for k in ks)
        elif len(grid) > 1:
            assert len(set(ks)) > 1  # the grid splits the samples


@given(st.sampled_from(_ESCAPE_WINDOWS), st.integers(0, 2**64 - 1),
       st.lists(st.sampled_from(_P_POOL), min_size=1, max_size=5, unique=True),
       st.lists(st.sampled_from(_KINDS), min_size=1, max_size=3), st.data())
def test_escape_levels_match_per_p_labelling_random(window, seed, grid, kinds, data):
    spec, outer = window
    win = build_window(spec, seed, outer)
    cfgs = [PercolationConfig(spec, p, seed) for p in sorted(grid, reverse=True)]
    origin = win.row_of((0,) * spec.d)
    site = data.draw(st.tuples(*[st.integers(-outer, outer)] * spec.d))
    target_sets = [_escape_targets(win, kind, site) for kind in kinds]
    start = data.draw(st.integers(0, 2**64 - 6))
    sids = range(start, start + 5)
    assert (list(escape_levels(win, cfgs, sids, origin, target_sets))
            == _reference_levels(win, cfgs, sids, origin, target_sets))


def test_nested_shells_share_a_tree_only_for_nearest_neighbour_steps():
    # a nearest-neighbour path meets shell 1 before it leaves B(1), so B(3)
    # reads the same levels at shell 1 as B(1); a spread-out step can jump
    # over shell 1 and come back to it from outside
    sids = range(40)
    for spec, p_list, differ in [
        (SPEC2, (0.7, 0.5, 0.4, 0.3, 0.2), False),
        (LatticeSpec(d=2, edge_mode="spread_out", lam=2), (0.3, 0.2, 0.12, 0.08, 0.05), True),
    ]:
        cfgs = [PercolationConfig(spec, p, 0) for p in p_list]
        small, big = build_window(spec, 0, 1), build_window(spec, 0, 3)
        got = [list(escape_levels(win, cfgs, sids, win.row_of((0, 0)), [shell_rows(win, 1)]))
               for win in (small, big)]
        assert (got[0] != got[1]) == differ


def test_escape_levels_refuse_unordered_or_foreign_configs():
    win = build_window(SPEC2, seed=3, outer=3)
    origin, targets = win.row_of((0, 0)), shell_rows(win, 3)
    rising = [PercolationConfig(SPEC2, p, 3) for p in (0.4, 0.6)]
    with pytest.raises(ValueError, match="non-increasing"):
        list(escape_levels(win, rising, [0], origin, [targets]))
    foreign = [PercolationConfig(SPEC2, 0.5, 4)]
    with pytest.raises(ValueError, match="seed/lattice"):
        list(escape_levels(win, foreign, [0], origin, [targets]))


# ---------------------------------------------------------------------------
# An exact value at window scale: the self-dual crossing (statistical
# against exact).  The rectangle of (2n + 2) x (2n + 1) sites is its own
# planar dual turned by 90 degrees, so its left-right crossing probability
# satisfies P_p + P_{1-p} = 1 at every n, and P_{1/2} = 1/2 exactly
# (Harris 1960; Kesten 1980; Grimmett, Percolation, ch. 11).


def _rectangle_crossings(p, n, sample_ids, seed=2024):
    """How many of ``sample_ids`` cross the rectangle x in [-n, n + 1],
    |y| <= n from left to right, read on ``B(n + 1)`` with the column
    x = -(n + 1) and the rows |y| = n + 1 blocked."""
    win = build_window(SPEC2, seed, n + 1)
    x, y = win.sites.T
    blocked = np.flatnonzero((x == -(n + 1)) | (np.abs(y) == n + 1))
    inside = np.abs(y) <= n
    left, right = np.flatnonzero(inside & (x == -n)), np.flatnonzero(inside & (x == n + 1))
    cfg = PercolationConfig(spec=SPEC2, p=p, seed=seed)
    return sum(connection_indicator(component_labels(win, sample_open_edges(win, cfg, sid),
                                                     blocked), left, right)
               for sid in sample_ids)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_self_dual_rectangle_is_crossed_with_probability_one_half(n):
    k = 2000
    share = _rectangle_crossings(0.5, n, range(k)) / k
    assert abs(share - 0.5) <= 4 * np.sqrt(0.25 / k), share


def test_self_dual_crossings_at_p_and_one_minus_p_sum_to_one():
    # the two terms read disjoint sample ranges, so their errors are independent
    k = 2000
    a = _rectangle_crossings(0.45, 8, range(k)) / k
    b = _rectangle_crossings(0.55, 8, range(k, 2 * k)) / k
    sigma = np.sqrt((a * (1 - a) + b * (1 - b)) / k)
    assert 0 < a < b < 1
    assert abs(a + b - 1) <= 4 * sigma, (a, b)
