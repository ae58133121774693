"""The vectorised window sampler against its site-by-site twin.

Both paths must produce bit-identical edge states from the same seed; any
divergence means the two samplers no longer speak the same hash.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from percolab.engine import PercolationConfig, edge_state, explore_cluster, spanning_clusters
from percolab.lattice import LatticeSpec, annulus, box, edge_count_box
from percolab.windowed import (
    build_window,
    component_labels,
    component_rows,
    connection_indicator,
    escape_levels,
    sample_labels,
    sample_open_edges,
    shell_rows,
    spanning_cluster_sets,
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


def test_component_labels_match_exploration():
    win = build_window(SPEC2, seed=5, outer=4)
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=5)
    region = box((0, 0), 4)
    origin = win.row_of((0, 0))
    for sid in range(25):
        labels = component_labels(win, sample_open_edges(win, cfg, sid))
        rows = component_rows(labels, origin)
        sites = {tuple(win.sites[r]) for r in rows}
        rec = explore_cluster(cfg.with_sample(sid), (0, 0), region)
        assert sites == set(rec.vertices)


def test_spanning_sets_match_engine_enumeration():
    win = build_window(SPEC2, seed=9, outer=6, inner=2)
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=9)
    ann = annulus((0, 0), 2, 6)
    for sid in range(25):
        fast = {frozenset(s) for s in spanning_cluster_sets(win, cfg, sid)}
        recs, truncated = spanning_clusters(cfg.with_sample(sid), ann)
        assert not truncated
        slow = {frozenset(r.vertices) for r in recs}
        assert fast == slow


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


def _reference_levels(win, cfgs, sids, origin_row, target_rows):
    """Label the window once per p and count the configs that connect."""
    out = []
    for sid in sids:
        hits = [connection_indicator(labels, origin_row, target_rows)
                for cfg in cfgs for _, labels in sample_labels(win, cfg, [sid])]
        k = hits.count(True)
        assert hits == [True] * k + [False] * (len(cfgs) - k)  # nested in p
        out.append((sid, k))
    return out


def _escape_targets(win, kind, site):
    if kind == "shell":
        return shell_rows(win, win.outer)
    if kind == "vertex":
        return win.rows_of([site])
    return win.rows_of([(0,) * win.spec.d, site])  # contains the origin


@pytest.mark.parametrize("spec,outer", _ESCAPE_WINDOWS, ids=_ESCAPE_IDS)
@pytest.mark.parametrize("grid", [_GRID8, [0.3]], ids=["grid8", "one-p"])
@pytest.mark.parametrize("kind", ["shell", "vertex", "with-origin"])
def test_escape_levels_match_per_p_labelling(spec, outer, grid, kind):
    win = build_window(spec, seed=31, outer=outer)
    cfgs = [PercolationConfig(spec, p, 31) for p in grid]
    origin = win.row_of((0,) * spec.d)
    targets = _escape_targets(win, kind, (outer - 1,) + (0,) * (spec.d - 1))
    sids = range(100, 112)
    got = list(escape_levels(win, cfgs, sids, origin, targets))
    assert got == _reference_levels(win, cfgs, sids, origin, targets)
    if kind == "with-origin":
        assert all(k == len(cfgs) for _, k in got)
    elif len(grid) > 1:
        assert len({k for _, k in got}) > 1  # the grid splits the samples


@given(st.sampled_from(_ESCAPE_WINDOWS), st.integers(0, 2**64 - 1),
       st.lists(st.sampled_from(_P_POOL), min_size=1, max_size=5, unique=True),
       st.sampled_from(["shell", "vertex", "with-origin"]), st.data())
def test_escape_levels_match_per_p_labelling_random(window, seed, grid, kind, data):
    spec, outer = window
    win = build_window(spec, seed, outer)
    cfgs = [PercolationConfig(spec, p, seed) for p in sorted(grid, reverse=True)]
    origin = win.row_of((0,) * spec.d)
    site = data.draw(st.tuples(*[st.integers(-outer, outer)] * spec.d))
    targets = _escape_targets(win, kind, site)
    start = data.draw(st.integers(0, 2**64 - 6))
    sids = range(start, start + 5)
    assert (list(escape_levels(win, cfgs, sids, origin, targets))
            == _reference_levels(win, cfgs, sids, origin, targets))


def test_escape_levels_refuse_unordered_or_foreign_configs():
    win = build_window(SPEC2, seed=3, outer=3)
    origin, targets = win.row_of((0, 0)), shell_rows(win, 3)
    rising = [PercolationConfig(SPEC2, p, 3) for p in (0.4, 0.6)]
    with pytest.raises(ValueError, match="non-increasing"):
        list(escape_levels(win, rising, [0], origin, targets))
    foreign = [PercolationConfig(SPEC2, 0.5, 4)]
    with pytest.raises(ValueError, match="seed/lattice"):
        list(escape_levels(win, foreign, [0], origin, targets))
