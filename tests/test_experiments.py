"""Conditioning families, cylinder events, rejection sampling, kernel
extraction, and the convergence/sweep diagnostics.

The one-dimensional instances admit full enumeration over the window's
edges, which turns the conditional estimate into an exactly checkable
quantity; the derivations are inlined where they fit on a few lines.
"""

import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from percolab import experiments, windowed
from percolab.cli import label_key
from percolab.engine import PercolationConfig, connect_sets, edge_state
from percolab.estimators import Estimate
from percolab.experiments import (
    Conditioning,
    ConditioningFamily,
    CylinderEvent,
    convergence_diagnostic,
    extract_kernels,
    iic_series,
    matrix_reconstruction,
    supercritical_report,
    supercritical_sweep,
    sure_event,
    two_east_edges_event,
)
from percolab.clusters import GoodSpanningParams, RegularityParams
from percolab.lattice import (
    LatticeSpec,
    WindowTooLargeError,
    annulus,
    canonical_edge,
    norm_inf,
    region_sites,
)
from percolab.scales import scale_sequence, toy_params
from percolab.windowed import (
    build_window,
    component_labels,
    connection_indicator,
    sample_open_edges,
)

SPEC1 = LatticeSpec(d=1)
SPEC2 = LatticeSpec(d=2)


# ---------------------------------------------------------------------------
# Families


def test_family_windows_and_targets():
    fam = ConditioningFamily("box_boundary", (4, 8))
    assert fam.at(SPEC2, 4).outer == 5
    assert min(norm_inf(x) for x in fam.at(SPEC2, 4).targets) == 5
    single = ConditioningFamily("single_vertex", (4,))
    assert single.at(SPEC2, 4).outer == 5 + 2  # padded past the pinned vertex
    obst = ConditioningFamily("vertex_set_with_obstacle", (4,))
    assert obst.at(SPEC2, 4).outer == 6
    assert all(x[0] <= 0 for x in obst.at(SPEC2, 4).obstacles)
    half = ConditioningFamily("halfspace_target", (4,))
    assert half.at(SPEC2, 4).outer > 5


_KINDS = ("box_boundary", "single_vertex", "vertex_set_with_obstacle", "halfspace_target")


def _interleaved(kind_a, kind_b, ns):
    """Alternate two families along ``ns`` (even positions ``kind_a``)."""
    ns = tuple(ns)
    return ConditioningFamily("interleaved", ns, sub=(ConditioningFamily(kind_a, ns),
                                                      ConditioningFamily(kind_b, ns)))


def test_families_validate_against_spec():
    for kind in _KINDS:
        assert ConditioningFamily(kind, (4,)).at(SPEC2, 4).targets


def test_family_targets_avoid_conditioning_box():
    for kind in _KINDS:
        cond = ConditioningFamily(kind, (6,)).at(SPEC2, 6)
        for site in cond.targets:
            assert max(abs(c) for c in site) > 6
        for site in cond.obstacles:
            assert max(abs(c) for c in site) > 6


def test_interleaved_family_delegates_by_position():
    ns = [4, 6, 8]
    fam = _interleaved("box_boundary", "single_vertex", ns)
    assert fam.at(SPEC2, 4).kind == "box_boundary"
    assert fam.at(SPEC2, 6).kind == "single_vertex"
    assert fam.at(SPEC2, 8).kind == "box_boundary"
    with pytest.raises(ValueError):
        fam.at(SPEC2, 5)


_CACHE_SPECS = [SPEC1, SPEC2, LatticeSpec(d=3), LatticeSpec(d=2, edge_mode="spread_out", lam=2)]


@pytest.mark.parametrize("spec", _CACHE_SPECS, ids=["d1", "d2", "d3", "spread-out"])
def test_conditioning_records_are_cached_and_shared(spec, cold_caches):
    families = [ConditioningFamily(kind, (4, 6)) for kind in _KINDS] + [
        _interleaved("vertex_set_with_obstacle", "halfspace_target", (4, 6))]
    for fam in families:
        for n in fam.n_list:
            cond = fam.at(spec, n)
            assert fam.at(spec, n) is cond
            # an equal family is the same cache key
            assert ConditioningFamily(fam.kind, fam.n_list, fam.sub).at(spec, n) is cond
            cold_caches()
            fresh = fam.at(spec, n)
            assert fresh == cond and fresh is not cond
            assert fresh.min_norm == cond.min_norm
    mixed = families[-1]
    assert mixed.at(spec, 4) is mixed.sub[0].at(spec, 4)
    assert mixed.at(spec, 6) is mixed.sub[1].at(spec, 6)


def test_conditioning_cache_keeps_no_exceptions(cold_caches):
    fam = _interleaved("box_boundary", "single_vertex", (4, 6))
    huge = ConditioningFamily("box_boundary", (5000,))  # B(5001) has 100060009 sites
    for _ in range(2):
        with pytest.raises(ValueError, match="5 not in the interleaved n_list"):
            fam.at(SPEC2, 5)
        with pytest.raises(WindowTooLargeError, match="100060009 sites"):
            huge.at(SPEC2, 5000)
    info = ConditioningFamily.at.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 4, 0)
    # a cached scale 4 answers no float 4.0, which is refused uncached
    box = ConditioningFamily("box_boundary", (4,))
    box.at(SPEC2, 4)
    with pytest.raises(TypeError):
        box.at(SPEC2, 4.0)


def test_one_sample_extractions_set_the_conditioning_up_once(cold_caches):
    # the certify-lazy op: one sample per extract_kernels call
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=2024)
    good = GoodSpanningParams(lo=0.1, hi=4.0, regular_fraction=0.5)
    reg = RegularityParams(K=3, s_list=(3, 4), n_inner=120, log_base=2.0)

    def extract(sid):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return extract_kernels(cfg, toy_params(1, 2, 1), 0, 1,
                                   ConditioningFamily("box_boundary", (16,)), 16,
                                   event=two_east_edges_event(SPEC2), good=good, reg=reg,
                                   sample_start=sid)

    warm = [extract(sid) for sid in range(8)]
    info = ConditioningFamily.at.cache_info()
    assert (info.misses, info.hits) == (1, 7)
    assert sum(len(ext.d_labels) for ext in warm) > 0
    for sid, ext in enumerate(warm):
        cold_caches()
        assert extract(sid) == ext


@pytest.mark.parametrize("targets,obstacles", [
    ({(5, 0), (4, 0)}, set()),
    ({(5, 0)}, {(0, -4)}),
], ids=["target-on-box", "obstacle-in-box"])
def test_conditioning_refuses_data_in_the_box(targets, obstacles):
    with pytest.raises(ValueError, match="intrudes into B\\(4\\)"):
        Conditioning("box_boundary", 4, frozenset(targets), frozenset(obstacles),
                     outer=5, exact=True)


def test_unknown_family_kind_rejected():
    with pytest.raises(ValueError):
        ConditioningFamily(kind="mystery", n_list=(4,))


# ---------------------------------------------------------------------------
# Cylinder events


def test_two_east_event_support():
    ev = two_east_edges_event(SPEC2)
    assert ev.L == 1
    cfg = PercolationConfig(spec=SPEC2, p=1.0, seed=0)
    assert ev.evaluate(cfg)
    assert not ev.evaluate(PercolationConfig(spec=SPEC2, p=0.0, seed=0))


def _mixed_event(spec):
    """East edges of the origin open, (1,0..)-(2,0..) closed and an edge off
    the first axis open: required-open and required-closed edges at once."""
    z = (0,) * (spec.d - 1)
    up = (0, 1) + (0,) * (spec.d - 2)
    return CylinderEvent("mixed", 1, ((((0,) + z, (1,) + z), True),
                                      (((2,) + z, (1,) + z), False),
                                      (((0,) + z, up), True)))


_EVENT_SPECS = [SPEC2, LatticeSpec(d=3), LatticeSpec(d=2, edge_mode="spread_out", lam=2)]


@given(st.sampled_from(_EVENT_SPECS), st.integers(0, 2**64 - 1),
       st.integers(0, 2**64 - 1),
       st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
       st.lists(st.booleans(), min_size=3, max_size=3))
def test_event_thresholds_match_per_edge_states(spec, seed, sid, p, wants):
    # the interval rule against the per-edge reference, with the required
    # states redrawn so every mix of open and closed edges occurs
    pattern = tuple((e, w) for (e, _), w in zip(_mixed_event(spec).pattern, wants))
    ev = CylinderEvent("drawn", 1, pattern)
    cfg = PercolationConfig(spec, p, seed, sid)
    want = all(edge_state(cfg, canonical_edge(spec, a, b)) == w for (a, b), w in pattern)
    t_lo, t_hi = ev.thresholds(cfg)
    assert ev.evaluate(cfg) == want == (t_lo < cfg.threshold <= t_hi)
    assert (t_lo == -1) == (True not in wants) and (t_hi == 2**64) == (False not in wants)


def test_event_evaluate_refuses_a_non_edge():
    cfg = PercolationConfig(SPEC2, 0.5, 1, 3)
    for pattern in ((((0, 0), (1, 1)), True), (((0, 0), (0, 0)), False)):
        with pytest.raises(ValueError, match="not an edge"):
            CylinderEvent("bad", 1, (pattern,)).evaluate(cfg)
    assert sure_event().thresholds(cfg) == (-1, 2**64)


def test_cylinder_event_rejects_support_outside_ball():
    with pytest.raises(ValueError):
        CylinderEvent(name="bad", L=0,
                      pattern=((((0, 0), (1, 0)), True),
                               ((((3, 0)), ((4, 0))), True)))


# ---------------------------------------------------------------------------
# Exact conditional in one dimension


def _exact_d1_box_conditional(p, n, seed):
    """Enumerate the 2(n+1) edges of the d = 1 window exactly."""
    win = build_window(SPEC1, seed, outer=n + 1)
    m = win.n_edges
    origin = win.row_of((0,))
    shell = np.flatnonzero(np.abs(win.sites[:, 0]) == n + 1)
    want = {frozenset((win.row_of((0,)), win.row_of((1,)))),
            frozenset((win.row_of((1,)), win.row_of((2,))))}
    ev_edges = [k for k in range(m)
                if frozenset(win.edge_rows[k].tolist()) in want]
    assert len(ev_edges) == 2
    num = den = Fraction(0)
    for mask in range(1 << m):
        bits = np.array([(mask >> k) & 1 for k in range(m)], dtype=bool)
        labels = component_labels(win, bits)
        if not (labels[shell] == labels[origin]).any():
            continue
        w = p ** int(bits.sum()) * (1 - p) ** (m - int(bits.sum()))
        den += w
        if all(bits[k] for k in ev_edges):
            num += w
    return num / den, den


def test_iic_conditional_matches_exact_enumeration():
    # By hand at p = 1/2, n = 4: P(0 <-> {-5,5}) = 2/32 - 1/1024 = 63/1024,
    # P(E and that) = 1/32 + (1/4)(1/32) - 1/1024 = 39/1024, ratio 13/21.
    cfg = PercolationConfig(spec=SPEC1, p=0.5, seed=5)
    cond, acc = _exact_d1_box_conditional(Fraction(1, 2), 4, 5)
    assert cond == Fraction(13, 21)
    assert acc == Fraction(63, 1024)
    pt, = iic_series(cfg, two_east_edges_event(SPEC1),
                     ConditioningFamily("box_boundary", (4,)), n_samples=4000)
    assert abs(pt.conditional.value - float(cond)) <= 4 * pt.conditional.stderr
    assert abs(pt.acceptance.value - float(acc)) <= 4 * pt.acceptance.stderr
    assert pt.n_accepted == round(pt.acceptance.value * 4000)


def test_sure_event_conditional_is_exactly_one():
    cfg = PercolationConfig(spec=SPEC1, p=0.5, seed=5)
    pt, = iic_series(cfg, sure_event(), ConditioningFamily("box_boundary", (4,)), 600)
    assert pt.conditional.value == 1.0
    assert pt.conditional.stderr == 0.0


def test_single_vertex_conditioning_forces_event_in_d1():
    # pinning 0 <-> {n+1} on the half-line closes over every east edge up
    # to n+1, so the two-east cylinder is implied by the conditioning
    cfg = PercolationConfig(spec=SPEC1, p=0.5, seed=9)
    pt, = iic_series(cfg, two_east_edges_event(SPEC1),
                     ConditioningFamily("single_vertex", (6,)), 800)
    assert pt.n_accepted > 0
    assert pt.conditional.value == 1.0


def test_interleaved_series_equals_positionwise_families():
    cfg = PercolationConfig(spec=SPEC1, p=0.5, seed=5)
    ev = two_east_edges_event(SPEC1)
    ns = [4, 6]
    inter = iic_series(cfg, ev, _interleaved("box_boundary", "single_vertex", ns), 400)
    boxes = iic_series(cfg, ev, ConditioningFamily("box_boundary", tuple(ns)), 400)
    singles = iic_series(cfg, ev, ConditioningFamily("single_vertex", tuple(ns)), 400)
    assert inter[0].conditional.value == boxes[0].conditional.value
    assert inter[0].acceptance.value == boxes[0].acceptance.value
    assert inter[1].conditional.value == singles[1].conditional.value


def test_low_confidence_flag():
    cfg = PercolationConfig(spec=SPEC1, p=0.5, seed=5)
    pt, = iic_series(cfg, two_east_edges_event(SPEC1),
                     ConditioningFamily("box_boundary", (4,)), n_samples=200)
    # acceptance ~ 6%: around twelve accepted samples, far below the floor
    assert pt.n_accepted < 100
    assert pt.low_confidence


# IICPoint rows (family, event, n, conditional, stderr, acceptance,
# n_accepted, low_confidence, exact_window) for the two-east-edges event at
# seed 2024, 300 samples: the kinds the benchmark never runs
_OBSTACLE_ROWS = [
    ("vertex_set_with_obstacle", "two-east-edges", 4, 0.2967032967032967,
     0.03386061039646783, 0.6066666666666667, 182, 0, 1),
    ("vertex_set_with_obstacle", "two-east-edges", 8, 0.2808988764044944,
     0.03368681748296007, 0.5933333333333334, 178, 0, 1),
]
_HALFSPACE_ROWS = [
    ("halfspace_target", "two-east-edges", 4, 0.29533678756476683,
     0.032837562962632016, 0.6433333333333333, 193, 0, 0),
    ("halfspace_target", "two-east-edges", 8, 0.281767955801105,
     0.03343789286006805, 0.6033333333333334, 181, 0, 0),
]


@pytest.mark.parametrize("fam,rows", [
    (ConditioningFamily("vertex_set_with_obstacle", (4, 8)), _OBSTACLE_ROWS),
    (ConditioningFamily("halfspace_target", (4, 8)), _HALFSPACE_ROWS),
    (_interleaved("vertex_set_with_obstacle", "halfspace_target", (4, 8)),
     [_OBSTACLE_ROWS[0], _HALFSPACE_ROWS[1]]),
], ids=["obstacle", "halfspace", "interleaved"])
def test_iic_series_frozen_rows(fam, rows):
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=2024)
    pts = iic_series(cfg, two_east_edges_event(SPEC2), fam, 300)
    assert [pt.row() for pt in pts] == rows


# ---------------------------------------------------------------------------
# Nested box-boundary scales share one window


_LAM1 = LatticeSpec(d=2, edge_mode="spread_out", lam=1)
_LAM2 = LatticeSpec(d=2, edge_mode="spread_out", lam=2)


_BOX235 = ConditioningFamily("box_boundary", (2, 3, 5))


@pytest.mark.parametrize("spec,fam,windows", [
    (SPEC2, _BOX235, 1),
    (LatticeSpec(d=3), _BOX235, 1),
    (SPEC2, _interleaved("box_boundary", "single_vertex", (2, 3, 5)), 2),
    (SPEC2, ConditioningFamily("vertex_set_with_obstacle", (2, 3, 5)), 3),
    (_LAM1, _BOX235, 3),
    (_LAM2, _BOX235, 3),
], ids=["box-d2", "box-d3", "interleaved-box-single", "obstacle", "lam1-box", "lam2-box"])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_iic_series_equals_per_scale_points(spec, fam, windows, seed, monkeypatch):
    # the box-boundary scales of a nearest-neighbour lattice share the window
    # of the largest one; every other conditioning keeps its own window, and
    # every point equals the one-scale family's point
    ev = two_east_edges_event(spec)
    cfg = PercolationConfig(spec, 0.5 if spec.edge_mode == "nearest_neighbour" else 0.25,
                            seed)
    per_scale = [iic_series(cfg, ev, ConditioningFamily(fam.at(spec, n).kind, (n,)), 150,
                            seed)[0]
                 for n in fam.n_list]
    built = []
    real_build = experiments.build_window
    monkeypatch.setattr(experiments, "build_window",
                        lambda *a, **k: built.append(a) or real_build(*a, **k))
    read = []
    real_evaluate = CylinderEvent.evaluate
    monkeypatch.setattr(CylinderEvent, "evaluate",
                        lambda self, c: read.append(c.sample_id) or real_evaluate(self, c))
    series = iic_series(cfg, ev, fam, 150, sample_start=seed)
    assert series == per_scale
    assert len(built) == windows
    if windows == 1:  # one read of the event per sample, at most
        assert len(read) == len(set(read)) <= 150


def _labelled_counts(cfg, event, conds, sample_ids):
    """Reference: the counting loop that one search from the origin per
    sample replaced, with a full window labelling per sample."""
    win, target_rows, blocked = experiments._conditioned_window(cfg, conds)
    origin_row = np.asarray([win.row_of((0,) * cfg.spec.d)])
    accepted = [0] * len(conds)
    hits = [0] * len(conds)
    for sid in sample_ids:
        labels = component_labels(win, sample_open_edges(win, cfg, sid), blocked)
        reached = [connection_indicator(labels, origin_row, rows) for rows in target_rows]
        if not any(reached):
            continue
        hit = event.evaluate(cfg.with_sample(sid))
        for i, ok in enumerate(reached):
            accepted[i] += ok
            hits[i] += ok and hit
    return accepted, hits


_COUNT_FAMILIES = [ConditioningFamily(kind, (2, 3, 5)) for kind in _KINDS] + [
    _interleaved("vertex_set_with_obstacle", "halfspace_target", (2, 3, 5))]


@pytest.mark.parametrize("spec,p", [(SPEC2, 0.5), (LatticeSpec(d=3), 0.2488), (_LAM2, 0.07)],
                         ids=["d2", "d3", "lam2"])
@pytest.mark.parametrize("fam", _COUNT_FAMILIES, ids=[*_KINDS, "interleaved"])
def test_conditioned_counts_equal_labelled_counts(spec, p, fam):
    # every scale alone, and the scales as one group sharing the window of
    # the largest, as iic_series groups the box-boundary ones
    cfg = PercolationConfig(spec, p, 2024)
    ev = two_east_edges_event(spec)
    conds = [fam.at(spec, n) for n in fam.n_list]
    seen = set()
    for group in [[c] for c in conds] + [conds]:
        sids = range(300, 380)
        got = experiments._conditioned_counts(cfg, ev, group, sids)
        assert got == _labelled_counts(cfg, ev, group, sids), [c.n for c in group]
        seen.update(zip(*got))
    assert any(0 < a < 80 for a, _ in seen)  # some scale splits the samples
    assert any(h > 0 for _, h in seen)


@pytest.mark.parametrize("fam,windows", [
    (_BOX235, 1),
    (_interleaved("box_boundary", "single_vertex", (2, 3, 5)), 2),
    (ConditioningFamily("vertex_set_with_obstacle", (2, 3)), 2),
], ids=["box", "interleaved-box-single", "obstacle"])
def test_iic_series_labels_once_per_window(fam, windows, monkeypatch):
    # the all-open feasibility check is the only labelling of a conditioned
    # window; each sample is one search from the origin per window
    calls = {"labels": 0, "searches": 0, "windows": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    labelling = counting("labels", windowed.component_labels)
    for mod in (windowed, experiments):
        monkeypatch.setattr(mod, "component_labels", labelling)
    monkeypatch.setattr(experiments, "origin_cluster",
                        counting("searches", windowed.origin_cluster))
    monkeypatch.setattr(experiments, "build_window",
                        counting("windows", windowed.build_window))
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=2024)
    iic_series(cfg, two_east_edges_event(SPEC2), fam, 40)
    assert calls == {"labels": windows, "searches": 40 * windows, "windows": windows}


# ---------------------------------------------------------------------------
# Convergence diagnostics (pure arithmetic on synthetic points)


def _fake_point(n, kind, value, stderr, n_acc=500):
    from percolab.experiments import IICPoint

    est = Estimate(value, stderr, n_acc * 2, 0, 0, (0, n_acc * 2))
    acc = Estimate(0.5, 0.01, n_acc * 2, 0, 0, (0, n_acc * 2))
    return IICPoint(n=n, family_kind=kind, event_name="e", conditional=est,
                    acceptance=acc, n_accepted=n_acc,
                    low_confidence=n_acc < 100, exact_window=True)


def test_convergence_verdict_consistent():
    series = {
        "box_boundary": [_fake_point(8, "box_boundary", 0.30, 0.01),
                         _fake_point(16, "box_boundary", 0.301, 0.01)],
        "single_vertex": [_fake_point(8, "single_vertex", 0.302, 0.01),
                          _fake_point(16, "single_vertex", 0.299, 0.01)],
    }
    rep = convergence_diagnostic(series)
    assert rep.verdict == "consistent"


def test_convergence_verdict_inconclusive_within_slack():
    series = {
        "a": [_fake_point(8, "a", 0.30, 0.001),
              _fake_point(16, "a", 0.313, 0.001)],  # 13 sigma but 0.013 gap
    }
    rep = convergence_diagnostic(series)
    assert rep.verdict == "inconclusive"


def test_convergence_verdict_inconsistent_beyond_slack():
    # a planted density mismatch: families disagree by far more than the
    # statistical scale and the slack together
    series = {
        "a": [_fake_point(8, "a", 0.30, 0.002),
              _fake_point(16, "a", 0.30, 0.002)],
        "b": [_fake_point(8, "b", 0.42, 0.002),
              _fake_point(16, "b", 0.42, 0.002)],
    }
    rep = convergence_diagnostic(series)
    assert rep.verdict == "inconsistent"


def test_convergence_detects_planted_p_mismatch_end_to_end():
    ev = two_east_edges_event(SPEC1)
    fam = ConditioningFamily("box_boundary", (2, 4))
    sa = iic_series(PercolationConfig(spec=SPEC1, p=0.5, seed=3), ev, fam, 4000)
    sb = iic_series(PercolationConfig(spec=SPEC1, p=0.9, seed=3), ev, fam, 4000)
    rep = convergence_diagnostic({"box_boundary": sa, "single_vertex": sb})
    assert rep.verdict == "inconsistent"


# ---------------------------------------------------------------------------
# Kernel extraction invariants


def test_extract_kernels_desk_scale_invariants():
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=2024)
    params = toy_params(1, 2, 1)
    good = GoodSpanningParams(lo=0.1, hi=4.0, regular_fraction=0.5)
    reg = RegularityParams(K=3, s_list=(3, 4), n_inner=120, log_base=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ext = extract_kernels(cfg, params, level=0, n_samples=400,
                              family=ConditioningFamily("box_boundary", (16,)), n=16,
                              event=two_east_edges_event(SPEC2),
                              good=good, reg=reg)
    assert ext.g_violations == 0
    assert ext.f_containment_failures == 0
    assert len(ext.d_labels) == 83  # frozen label census, seed 2024
    assert ext.warnings  # the desk ladder sits below the horizon: flagged
    for est in ext.m_hat.values():
        assert 0.0 <= est.value <= 1.0
    for est in ext.gamma.values():
        assert 0.0 <= est.value <= 1.0
    assert _gamma_hits(ext) == 68  # frozen at seed 2024


def _gamma_hits(ext):
    """Onward-arm successes summed over the labels."""
    return sum(round(est.value * est.n_samples) for est in ext.gamma.values())


def test_extract_kernels_obstacle_family_frozen():
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=2024)
    good = GoodSpanningParams(lo=0.1, hi=4.0, regular_fraction=0.5)
    reg = RegularityParams(K=3, s_list=(3, 4), n_inner=120, log_base=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ext = extract_kernels(cfg, toy_params(1, 2, 1), level=0, n_samples=200,
                              family=ConditioningFamily("vertex_set_with_obstacle", (16,)), n=16,
                              event=two_east_edges_event(SPEC2),
                              good=good, reg=reg)
    assert ext.summary() == {  # frozen at seed 2024
        "level": 0, "n_c_labels": 1, "n_d_labels": 44, "n_samples": 200,
        "g_violations": 0, "f_containment_failures": 0, "n_zero_cells": 44,
        "warnings": ["level j=1 outside 1 <= j < min(Q(n)=0, beta(p)=inf); "
                     "the product error band is not guaranteed"],
    }
    # the onward arm reaches V_16 off the obstacles for 28 of the labels
    assert sum(est.value for est in ext.gamma.values()) == 28


@pytest.mark.parametrize("kind,hits", [("single_vertex", 16), ("halfspace_target", 34)])
def test_extract_kernels_padded_families_frozen(kind, hits):
    # the padded windows of the unbounded-target families, frozen at seed 2024
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=2024)
    good = GoodSpanningParams(lo=0.1, hi=4.0, regular_fraction=0.5)
    reg = RegularityParams(K=3, s_list=(3, 4), n_inner=120, log_base=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ext = extract_kernels(cfg, toy_params(1, 2, 1), level=0, n_samples=200,
                              family=ConditioningFamily(kind, (16,)), n=16,
                              event=two_east_edges_event(SPEC2), good=good, reg=reg)
    assert len(ext.d_labels) == 44
    assert _gamma_hits(ext) == hits


def test_extract_kernels_level_one_labels_frozen():
    # level-2 good sets of up to 499008 sites, keyed by their canonical labels;
    # frozen at seed 2024
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=2024)
    good = GoodSpanningParams(lo=0.1, hi=4.0, regular_fraction=0.5)
    reg = RegularityParams(K=3, s_list=(3, 4), n_inner=100, log_base=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ext = extract_kernels(cfg, toy_params(1, 2, 1), level=1, n_samples=4,
                              family=ConditioningFamily("box_boundary", (16,)), n=16,
                              good=good, reg=reg, sample_start=29)
    assert [label_key(lab) for lab in ext.c_labels] == ["8d86c12b5e37", "30e2421119d1"]
    assert [label_key(lab) for lab in ext.d_labels] == [
        "de57839f0a96", "61180294e083", "b26a7c3b8022"]
    assert [len(lab) for lab in ext.d_labels] == [276681, 499008, 163087]
    assert ext.label_counts == dict.fromkeys(ext.d_labels, 1)
    assert ext.label_q == dict.fromkeys(ext.d_labels, 1)


def _lazy_query(cfg, cond, sep_in, sep_out, region, c_sites, d_sites):
    """An extraction query as the lazy explorer answered it, with C's and
    D's sites: ``arm`` from D to the targets in ``B(cond.outer) \\ B(sep_out)``
    off the obstacles; ``link`` from C to D in ``B(sep_out)`` (level 0,
    ``sep_in`` None) or in ``B(cond.outer) \\ B(sep_in)``; ``leak`` from C
    to the shell of radius ``sep_out`` in ``B(sep_out)`` off D; ``free`` (the
    relaxed connection) from C to D in ``B(cond.outer)`` off the obstacles."""
    outer, obstacles = cond.outer, cond.obstacles
    if region == "arm":
        return connect_sets(cfg, d_sites, cond.targets,
                            lambda x: sep_out < norm_inf(x) <= outer and x not in obstacles)
    if region == "link":
        lo, hi = (-1, sep_out) if sep_in is None else (sep_in, outer)
        return connect_sets(cfg, c_sites, d_sites, lambda x: lo < norm_inf(x) <= hi)
    if region == "leak":
        dv = frozenset(d_sites)
        return connect_sets(cfg, c_sites, lambda x: norm_inf(x) == sep_out,
                            lambda x: norm_inf(x) <= sep_out and x not in dv)
    assert region == "free"
    return connect_sets(cfg, c_sites, d_sites,
                        lambda x: norm_inf(x) <= outer and x not in obstacles)


def _sites(win, rows):
    return [tuple(int(c) for c in x) for x in win.sites[rows]]


_ARM_FAMILIES = [ConditioningFamily(kind, (6, 9, 16)) for kind in _KINDS] + [
    ConditioningFamily("interleaved", (6, 9, 16), sub=(
        ConditioningFamily("halfspace_target", (6, 9, 16)),
        ConditioningFamily("single_vertex", (6, 9, 16)),
    )),
]


def _probes(spec, cond, inner):
    """Vertex sets to ask the queries about: two opposite corners of the
    shell of radius ``inner + 1``, that whole shell, a target, and a mixed
    set (the origin, a site beyond the window, an obstacle)."""
    origin = (0,) * spec.d
    shell = frozenset(region_sites(annulus(origin, inner, inner + 1)))
    beyond = (-(cond.outer + 1),) + origin[1:]
    return [frozenset([min(shell)]), frozenset([max(shell)]), shell,
            frozenset([min(cond.targets)]),
            frozenset([origin, beyond, *sorted(cond.obstacles)[:1]])]


def test_onward_arms_match_lazy_queries(cold_caches):
    # consecutive windows change the lattice (three lattices, two seeds), and
    # a lattice's next window changes n or the separation radii within the
    # cache's reach, so a window cached under the wrong key shows; each
    # window serves four samples (p = 0 and p = 1 read no sample id), so
    # three of them hit it.  The arm is asked from every probe; at level 0
    # (small separation boxes, so the lazy side stays quick) the other
    # queries are asked from a corner and from the mixed probe to both
    # corners and the mixed probe
    lattices = [
        (SPEC2, 2024, 0.5),
        (LatticeSpec(d=3), 77, 0.2488),
        (LatticeSpec(d=2, edge_mode="spread_out", lam=2), 2024, 0.07),
    ]
    ladder = scale_sequence(toy_params(1, 2, 1), 2)
    answers, windows = {}, 0
    for fam in _ARM_FAMILIES:
        for level, n in ((0, 6), (0, 9), (1, 16)):
            sep_in = 2 ** ladder[level].ell if level else None
            sep_out = 2 ** ladder[level + 1].ell
            for spec, seed, p_c in lattices:
                cond = fam.at(spec, n)
                probes = _probes(spec, cond, sep_out)
                windows += 1
                for p, sid in ((0.0, 0), (p_c, 0), (p_c, 1), (1.0, 0)):
                    cfg = PercolationConfig(spec=spec, p=p, seed=seed, sample_id=sid)
                    qw = experiments._query_window(spec, seed, cond, sep_in, sep_out)
                    q = experiments._SampleQueries(qw, cfg)
                    rows = [q.win.box_rows(vs) for vs in probes]
                    for vs, r in zip(probes, rows):
                        assert sorted(_sites(q.win, r)) == sorted(
                            x for x in vs if norm_inf(x) <= q.win.outer)
                    asked = [("arm", (), vs, q.joined("arm", r, q.targets))
                             for vs, r in zip(probes, rows)]
                    c_probes = [(probes[i], rows[i]) for i in (0, 4)]
                    d_probes = [(probes[i], rows[i]) for i in (0, 1, 4)]
                    pairs = itertools.product(c_probes, d_probes) if level == 0 else ()
                    for (cs, cr), (ds, dr) in pairs:
                        asked += [("link", cs, ds, q.joined("link", cr, dr)),
                                  ("leak", cs, ds, q.joined("leak", cr, q.shell, dr)),
                                  ("free", cs, ds, q.joined("free", cr, dr))]
                    for region, cs, ds, got in asked:
                        want = _lazy_query(cfg, cond, sep_in, sep_out, region, cs, ds)
                        assert got == want, (spec, seed, fam.kind, level, p, sid, region)
                        answers.setdefault(region, set()).add(got)
    assert answers == dict.fromkeys(("arm", "link", "leak", "free"), {True, False})
    info = experiments._query_window.cache_info()
    assert (info.misses, info.hits) == (windows, 3 * windows)


class _SpiedQueries(experiments._SampleQueries):
    """Holds every query of a real extraction against :func:`_lazy_query`
    on C's and D's sites inside the window's box (every region lies inside
    it, so a site beyond it takes part in no lazy query either)."""

    asked = []
    sep = None

    def __init__(self, query_window, cfg):
        super().__init__(query_window, cfg)
        self.cfg = cfg

    def joined(self, region, sources, targets, blocked=None):
        got = super().joined(region, sources, targets, blocked)
        c_sites = _sites(self.win, sources)
        d_sites = _sites(self.win, {"arm": sources, "leak": blocked}.get(region, targets))
        cond, sep_in, sep_out = self.sep
        assert got == _lazy_query(self.cfg, cond, sep_in, sep_out, region, c_sites, d_sites), \
            (self.cfg, region)
        self.asked.append((region, got))
        return got


def test_extract_kernels_arm_matches_lazy_query(monkeypatch):
    # every (sample, C-record, D-record) query of real extractions, at both
    # levels, on three lattices and all five family kinds
    toy = toy_params(1, 2, 1)
    ladder = scale_sequence(toy, 2)
    good = GoodSpanningParams(lo=0.1, hi=4.0, regular_fraction=0.5)
    reg = RegularityParams(K=3, s_list=(3, 4), n_inner=100, log_base=2.0)
    spread = LatticeSpec(d=2, edge_mode="spread_out", lam=2)
    # (spec, p, family, level, n, sample ids).  At seed 2024, 24 of the 83
    # d = 2 level-0 links asked in the first 400 samples hold, leak-free in
    # samples 232, 281 and 372; sample 31 holds level-2 good sets and a
    # leak-free level-1 link.  Wider goodness windows certify the same sets
    cases = [(SPEC2, 0.5, fam, 0, 16, range(400)) for fam in _ARM_FAMILIES] + [
        (SPEC2, 0.5, fam, 1, 16, range(31, 32)) for fam in _ARM_FAMILIES] + [
        (LatticeSpec(d=3), 0.2488, _ARM_FAMILIES[1], 0, 6, range(10)),
        (spread, 0.07, _ARM_FAMILIES[2], 0, 6, range(20)),
    ]
    monkeypatch.setattr(experiments, "_SampleQueries", _SpiedQueries)
    monkeypatch.setattr(_SpiedQueries, "asked", [])
    for spec, p, fam, level, n, sids in cases:
        sep_in = 2 ** ladder[level].ell if level else None
        monkeypatch.setattr(_SpiedQueries, "sep",
                            (fam.at(spec, n), sep_in, 2 ** ladder[level + 1].ell))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ext = extract_kernels(PercolationConfig(spec=spec, p=p, seed=2024), toy, level,
                                  len(sids), fam, n, good=good, reg=reg,
                                  sample_start=sids.start)
        assert (ext.g_violations, ext.f_containment_failures) == (0, 0)
    answers = {}
    for region, got in _SpiedQueries.asked:
        answers.setdefault(region, set()).add(got)
    # a false relaxed connection would be a containment failure
    assert answers == {"arm": {True, False}, "link": {True, False},
                       "leak": {True, False}, "free": {True}}


def test_extract_kernels_faithful_gate_refuses():
    # faithful scales put the data norm far below the horizon: hard error
    from percolab.scales import faithful_params, k1_floor

    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=2024)
    params = faithful_params(SPEC2, k1_floor(SPEC2, 1))
    with pytest.raises(ValueError, match="intrudes"):
        extract_kernels(cfg, params, level=0, n_samples=10,
                        family=ConditioningFamily("box_boundary", (16,)), n=16,
                        event=two_east_edges_event(SPEC2))


def test_extract_kernels_toy_gate_warns():
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=2024)
    params = toy_params(1, 2, 1)
    good = GoodSpanningParams(lo=0.1, hi=4.0, regular_fraction=0.5)
    reg = RegularityParams(K=3, s_list=(3, 4), n_inner=120, log_base=2.0)
    with pytest.warns(RuntimeWarning, match="error band"):
        extract_kernels(cfg, params, level=0, n_samples=5,
                        family=ConditioningFamily("box_boundary", (16,)), n=16,
                        event=two_east_edges_event(SPEC2), good=good, reg=reg)


def test_matrix_reconstruction_containment():
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=2024)
    params = toy_params(1, 2, 1)
    good = GoodSpanningParams(lo=0.1, hi=4.0, regular_fraction=0.5)
    reg = RegularityParams(K=3, s_list=(3, 4), n_inner=120, log_base=2.0)
    fam = ConditioningFamily("box_boundary", (16,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = matrix_reconstruction(cfg, j=1, family=fam, n=16, n_samples=400,
                                    params=params, event=two_east_edges_event(SPEC2),
                                    good=good, reg=reg)
    # the direct side reads the disjoint ids [400, 800): frozen at seed 2024
    assert rep.lhs == Estimate.from_counts(77, 400, seed=2024, sample_range=(400, 800))
    assert rep.rhs >= 0
    # the reconstruction only collects part of the conditioning mass
    sigma = np.hypot(rep.lhs.stderr, rep.rhs_stderr)
    assert rep.rhs <= rep.lhs.value + 4 * sigma
    assert rep.extractions[0].g_violations == 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sure = matrix_reconstruction(cfg, j=1, family=fam, n=16, n_samples=40,
                                     params=params, good=good, reg=reg)
    # no event: lhs is the arm probability alone, on ids [40, 80)
    assert sure.lhs == Estimate.from_counts(31, 40, seed=2024, sample_range=(40, 80))


# ---------------------------------------------------------------------------
# Supercritical sweep


def test_supercritical_sweep_validation():
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=1)
    ev = two_east_edges_event(SPEC2)
    with pytest.raises(ValueError):
        supercritical_sweep(cfg, ev, [0.51, 0.55], (8,), n_samples=50)
    with pytest.raises(ValueError):
        supercritical_report(cfg, ev, [0.55, 0.52], (16, 8), n_samples=50)
    # a repeated radius would count each sample twice; no radius, nothing
    for radii in [(8, 8), ()]:
        with pytest.raises(ValueError, match="distinct and at least one"):
            supercritical_sweep(cfg, ev, [0.55, 0.52], radii, n_samples=50)
    # a spread-out step can jump shell 4, so B(8) does not decide it
    lam1 = PercolationConfig(spec=_LAM1, p=0.2, seed=1)
    with pytest.raises(ValueError, match="jump a shell"):
        supercritical_sweep(lam1, two_east_edges_event(_LAM1), [0.3, 0.2], (4, 8), 50)


def test_supercritical_sweep_decreases_toward_density():
    cfg = PercolationConfig(spec=SPEC1, p=0.5, seed=4)
    ev = two_east_edges_event(SPEC1)
    pts = supercritical_sweep(cfg, ev, [0.9, 0.7], (5,), n_samples=1200)[5]
    assert [pt.p for pt in pts] == [0.9, 0.7]
    assert pts[0].conditional.value > pts[1].conditional.value
    assert all(pt.r_proxy == 5 for pt in pts)


# Rows recorded with the per-p labelling loop: (p, r_proxy, conditional,
# stderr, acceptance, n_accepted, low_confidence) for the two-east-edges
# event at seed 2024
_SWEEP12_ROWS = [
    (0.6, 8, 0.3737024221453287, 0.02845800170420772, 0.9633333333333334, 289, 0),
    (0.59, 8, 0.37543859649122807, 0.028683662246047844, 0.95, 285, 0),
    (0.58, 8, 0.3568904593639576, 0.028478474877955625, 0.9433333333333334, 283, 0),
    (0.57, 8, 0.3464285714285714, 0.028436383656363463, 0.9333333333333333, 280, 0),
    (0.56, 8, 0.34057971014492755, 0.028525679454528, 0.92, 276, 0),
    (0.55, 8, 0.3283582089552239, 0.028686356914236693, 0.8933333333333333, 268, 0),
    (0.54, 8, 0.3230769230769231, 0.02900253469374378, 0.8666666666666667, 260, 0),
    (0.53, 8, 0.3201581027667984, 0.029330937948638596, 0.8433333333333334, 253, 0),
    (0.52, 8, 0.32231404958677684, 0.030043199133181372, 0.8066666666666666, 242, 0),
    (0.515, 8, 0.29957805907172996, 0.0297550510263444, 0.79, 237, 0),
    (0.51, 8, 0.30303030303030304, 0.030237368188378962, 0.77, 231, 0),
    (0.505, 8, 0.30131004366812225, 0.030320147743417944, 0.7633333333333333, 229, 0),
]
_SWEEP_CLI_ROWS = [
    (0.55, 16, 0.3155893536121673, 0.028657722699784175, 0.8766666666666667, 263, 0),
    (0.52, 16, 0.3, 0.02958039891549808, 0.8, 240, 0),
    (0.51, 16, 0.28888888888888886, 0.030216411932401686, 0.75, 225, 0),
]


@pytest.mark.parametrize("p_list,r_proxy,sample_start,rows", [
    ([row[0] for row in _SWEEP12_ROWS], 8, 500, _SWEEP12_ROWS),
    ([0.55, 0.52, 0.51], 16, 0, _SWEEP_CLI_ROWS),   # the CLI's default grid
], ids=["grid12-r8", "cli-grid-r16"])
def test_supercritical_sweep_frozen_rows(p_list, r_proxy, sample_start, rows):
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=2024)
    pts = supercritical_sweep(cfg, two_east_edges_event(SPEC2), p_list, (r_proxy,),
                              n_samples=300, sample_start=sample_start)[r_proxy]
    assert [pt.row() for pt in pts] == rows


# supercritical_report at the CLI grid, recorded with one window per radius
_REPORT_CLI_ROWS = {
    16: _SWEEP_CLI_ROWS,
    32: [
        (0.55, 32, 0.31679389312977096, 0.028741777609839817, 0.8733333333333333, 262, 0),
        (0.52, 32, 0.3, 0.02958039891549808, 0.8, 240, 0),
        (0.51, 32, 0.2922374429223744, 0.030731917865504, 0.73, 219, 0),
    ],
}


def test_supercritical_report_frozen_rows():
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=2024)
    rep = supercritical_report(cfg, two_east_edges_event(SPEC2), [0.55, 0.52, 0.51],
                               (16, 32), n_samples=300)
    assert {r: [pt.row() for pt in pts] for r, pts in rep.sweeps.items()} == _REPORT_CLI_ROWS
    assert list(rep.sweeps) == [16, 32]
    assert rep.sensitivity == 0.0033485540334855513


# (spec, largest r_b, p values around its critical point, plus 1 and 0)
_SWEEP_SPECS = [
    (SPEC2, 8, [1.0, 0.6, 0.55, 0.5, 0.45, 0.4, 0.0]),
    (LatticeSpec(d=3), 4, [1.0, 0.35, 0.3, 0.25, 0.2, 0.15, 0.0]),
    (LatticeSpec(d=2, edge_mode="spread_out", lam=2), 6,
     [1.0, 0.12, 0.09, 0.07, 0.05, 0.03, 0.0]),
]


@given(st.sampled_from(_SWEEP_SPECS), st.integers(0, 2**32 - 1), st.data())
def test_supercritical_report_equals_per_radius_sweeps(case, seed, data):
    # one B(r_b) tree for both radii on nearest-neighbour lattices, one
    # window per radius on spread-out ones; the rows are the same either way
    spec, r_max, pool = case
    grid = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5, unique=True))
    r_b = data.draw(st.integers(1, r_max))
    r_a = data.draw(st.sampled_from(sorted({0, r_b - 1, r_b // 2})))
    start = data.draw(st.integers(0, 2**40))
    cfg = PercolationConfig(spec, 0.5, seed)
    ev, p_list = _mixed_event(spec), sorted(grid, reverse=True)
    built = []

    def counting(*args, **kwargs):
        built.append(args[2])
        return build_window(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "build_window", counting)
        rep = supercritical_report(cfg, ev, p_list, (r_a, r_b), 10, sample_start=start)
    shared = spec.edge_mode == "nearest_neighbour"
    assert built == ([r_b] if shared else [r_a, r_b])
    assert list(rep.sweeps) == [r_a, r_b]
    for r in (r_a, r_b):
        alone = supercritical_sweep(cfg, ev, p_list, (r,), 10, sample_start=start)[r]
        assert repr([pt.row() for pt in rep.sweeps[r]]) == repr([pt.row() for pt in alone])


def test_supercritical_sweep_labels_no_window(monkeypatch):
    # one spanning tree per sample answers every p: no per-p labelling
    def refuse(*args, **kwargs):
        raise AssertionError("component_labels called")

    monkeypatch.setattr(windowed, "component_labels", refuse)
    monkeypatch.setattr(experiments, "component_labels", refuse)
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=2024)
    pts = supercritical_sweep(cfg, two_east_edges_event(SPEC2),
                              [0.6, 0.55, 0.5], (8,), n_samples=40)[8]
    assert [pt.n_accepted for pt in pts] == sorted((pt.n_accepted for pt in pts),
                                                   reverse=True)


def test_supercritical_sweep_origin_is_the_shell():
    # r_proxy = 0: the shell is the origin, so every sample escapes at every p
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=2024)
    pts = supercritical_sweep(cfg, sure_event(), [1.0, 0.5, 0.0], (0,),
                              n_samples=20)[0]
    assert [(pt.n_accepted, pt.acceptance.value, pt.conditional.value)
            for pt in pts] == [(20, 1.0, 1.0)] * 3
