"""Cluster regularity, good spanning sets, and lattice attachment pairs.

The centrepiece is an exact oracle for the conditional-resampling
regularity estimate: on a hand-sized region the conditional law given the
frozen cluster is enumerable edge-by-edge, so the Monte Carlo estimate can
be held against an exact rational.
"""

import functools
import math
from collections import Counter, deque
from fractions import Fraction

import networkx as nx
import pytest

import percolab.clusters
import percolab.engine
from percolab.clusters import (
    GoodSpanningParams,
    RegularityParams,
    _window_spanning_clusters,
    badness_threshold,
    estimate_regularity,
    good_spanning_check,
    scan_good_spanning,
    tame_threshold,
)
from percolab.engine import (
    PercolationConfig,
    edge_state,
    explore,
    explore_cluster,
    spanning_clusters,
)
from percolab.estimators import Estimate
from percolab.lattice import (
    LatticeSpec,
    Region,
    annulus,
    boundary_membership,
    box,
    canonical_edge,
    contains,
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


def test_regularity_refuses_foreign_records():
    cfg = PercolationConfig(spec=SPEC2, p=1.0, seed=2)
    params = RegularityParams(K=2, s_list=(2,), n_inner=100)
    rec = explore_cluster(cfg, (0, 0), box((0, 0), 1))
    with pytest.raises(ValueError):
        estimate_regularity(cfg, (2, 0), rec, params)


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
        assert est3 == Estimate.from_counts(tally, 100, 2024)
        assert (s4, est4.n_samples, v4) == (4, 0, True)  # 9^3 < 4^4 log^7 4
        assert rep.regular is regular


def _whole_cluster_regularity(cfg, x, cluster, params, resample_region=None):
    """Lazy reference for :func:`estimate_regularity`, on the frontier
    explorer: every inner sample explores the whole mixed cluster from ``x``,
    edge by edge."""
    frozen = cluster.vertices
    if resample_region is None:
        resample_region = box(x, 2 * max(params.s_list))
    thresholds = {s: tame_threshold(s, params.log_base) for s in params.s_list}
    tame = {s for s in params.s_list if (2 * s + 1) ** cfg.spec.d < thresholds[s]}
    frozen_counts = percolab.clusters._ball_counts(frozen, x, params.s_list)
    bad = {s for s in params.s_list
           if s not in tame and frozen_counts[s] >= thresholds[s]}
    pending = [s for s in params.s_list if s not in tame | bad]
    tallies = {s: 0 for s in pending}
    if pending:
        member = percolab.engine.membership(resample_region)
        for inner in range(params.n_inner):
            inner_cfg = cfg.with_sample(percolab.clusters._inner_sample_id(cfg.sample_id, inner))

            def state(e):
                return edge_state(cfg if e[0] in frozen or e[1] in frozen else inner_cfg, e)

            mixed, _ = percolab.engine.explore(cfg.spec, [x], member, state)
            counts = percolab.clusters._ball_counts(mixed, x, pending)
            for s in pending:
                tallies[s] += int(counts[s] < thresholds[s])
    per_s = []
    for s in params.s_list:
        level = badness_threshold(s, params.log_base)
        if s in bad | tame:
            per_s.append((s, Estimate(float(s in tame), 0.0, 0, 0, cfg.seed, (0, 0)),
                          level, s in tame))
            continue
        est = Estimate.from_counts(tallies[s], params.n_inner, cfg.seed)
        verdict = (True if est.value - 3 * est.stderr > level
                   else False if est.value + 3 * est.stderr < level else None)
        per_s.append((s, est, level, verdict))
    relevant = [v for s, _, _, v in per_s if s >= params.K]
    regular = (False if False in relevant
               else True if all(v is True for v in relevant) else None)
    return percolab.clusters.RegularityReport(x, len(frozen), per_s, regular)


def _core_and_exits(cfg, x, cluster, resample_region):
    """The core and its exits, walked independently of the package: what
    ``x`` reaches inside the frozen sites of the region, and the non-frozen
    sites of the region behind a realized open edge from it."""
    frozen, member = cluster.vertices, percolab.engine.membership(resample_region)
    core = explore_cluster(cfg, x, frozenset(v for v in frozen if member(v))).vertices
    return core, {z for y in core for z in neighbours(cfg.spec, y) if z not in frozen
                  and member(z) and edge_state(cfg, canonical_edge(cfg.spec, y, z))}


SPEC3 = LatticeSpec(d=3)
SPREAD2 = LatticeSpec(d=2, edge_mode="spread_out", lam=2)
D3_REG = RegularityParams(K=3, s_list=(3, 4), n_inner=100)
# log base 3.6 puts s = 3's threshold at 28 of the ball's 49 sites in d = 2,
# and 2.1 puts s = 2's at 10 of the spread-out ball's 25
D2_REG = RegularityParams(K=3, s_list=(3,), n_inner=100, log_base=3.6)
SPREAD_REG = RegularityParams(K=2, s_list=(2,), n_inner=100, log_base=2.1)


def _d3_case(p, sid):
    cfg = PercolationConfig(spec=SPEC3, p=p, seed=77, sample_id=sid)
    x = (0, 0, 0)
    return cfg, x, explore_cluster(cfg, x, box(x, 1)), D3_REG, box(x, 3)


def _d2_case(sid):
    cfg = PercolationConfig(spec=SPEC2, p=0.55, seed=5, sample_id=sid)
    x = (1, 0)
    return cfg, x, explore_cluster(cfg, x, annulus((0, 0), 0, 2)), D2_REG, None


SPEC4 = LatticeSpec(d=4)


def _resampling_cases():
    """(cfg, x, cluster, params, resample_region) cases that resample: d = 3
    near p_c, d = 3 at a vertex off the origin, d = 4 near p_c, d = 2 under
    a log base that leaves s = 3 unsettled by volume, with the default
    region and with a frozenset one, and spread-out d = 2."""
    cases = [_d3_case(p, sid) for p in (0.22, 0.25, 0.3) for sid in (1, 2)]
    x = (3, -2, 5)
    cfg = PercolationConfig(spec=SPEC3, p=0.25, seed=77, sample_id=3)
    cases.append((cfg, x, explore_cluster(cfg, x, box(x, 1)), D3_REG, None))
    x = (0, 0, 0, 0)
    cfg = PercolationConfig(spec=SPEC4, p=0.17, seed=77, sample_id=3)
    cases.append((cfg, x, explore_cluster(cfg, x, box(x, 1)), D3_REG, box(x, 3)))
    for sid in range(3):
        cfg, x, _, params, _ = _d2_case(sid)
        cases.append(_d2_case(sid))
        cases.append((cfg, x, explore_cluster(cfg, x, box(x, 1)), params,
                      frozenset(region_sites(box((0, 0), 4))) - {(2, 2), (-1, 3)}))
        cfg = PercolationConfig(spec=SPREAD2, p=0.05, seed=9, sample_id=sid)
        cases.append((cfg, (0, 0), explore_cluster(cfg, (0, 0), box((0, 0), 1)),
                      SPREAD_REG, box((0, 0), 5)))
    return cases


def test_regularity_core_walk_matches_whole_cluster_resampling():
    kinds = set()
    for cfg, x, cluster, params, region in _resampling_cases():
        rep = estimate_regularity(cfg, x, cluster, params, resample_region=region)
        assert rep == _whole_cluster_regularity(cfg, x, cluster, params, region)
        assert any(est.n_samples for _, est, _, _ in rep.per_s)
        _, exits = _core_and_exits(cfg, x, cluster, region or box(x, 2 * max(params.s_list)))
        kinds.add((cfg.spec, type(region), bool(exits)))
    # d = 3 resampled both sealed cores and cores with exits
    assert {(SPEC3, Region, False), (SPEC3, Region, True), (SPEC3, type(None), True),
            (SPEC4, Region, True), (SPEC2, type(None), True), (SPEC2, frozenset, True),
            (SPREAD2, Region, True)} <= kinds


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
            # the sample pins the record: it spans, and its root explores it
            assert rec.cluster.spans
            assert explore_cluster(cfg, rec.cluster.root, rec.cluster.region).vertices \
                == rec.cluster.vertices
            checked += 1
    assert checked > 20


# A small ladder with q_max = 2: Ann^2 = annulus(1, 16) holds Ann^1 =
# annulus(2, 8), so certification runs the minimality check on Ann^1.
NESTED = toy_params(2, 1, 2)


def _record_value(rec):
    """A record's fields except its root: any of its vertices explores it."""
    return (rec.region, rec.label, rec.boundary_in, rec.boundary_out)


def _minimality_components(cfg, candidate, sub):
    """The components the minimality check reads: the window scan's spanning
    clusters of ``sub`` inside the candidate."""
    return [c for c in _window_spanning_clusters(cfg, sub) if c.vertices <= candidate.vertices]


def _lazy_components(cfg, cluster, region):
    """The lazy reference the minimality check used to explore: the
    components of the cluster's vertex set inside ``region`` under the open
    edges of ``cfg``, as ``(vertices, boundary_in, boundary_out)`` relative
    to ``region``, in order of their minimal vertex."""
    sites = {v for v in cluster.vertices if contains(region, v)}
    out, seen = [], set()
    for root in sorted(sites):
        if root in seen:
            continue
        vertices, _ = explore(cfg.spec, [root], sites.__contains__, lambda e: edge_state(cfg, e))
        seen |= vertices
        sides = {v: boundary_membership(cfg.spec, region, v) for v in vertices}
        out.append((frozenset(vertices), tuple(sorted(v for v in vertices if sides[v][0])),
                    tuple(sorted(v for v in vertices if sides[v][1]))))
    return out


@pytest.mark.parametrize("spec,p", [
    (SPEC2, 0.5),
    (LatticeSpec(d=3), 0.25),
    (LatticeSpec(d=2, edge_mode="spread_out", lam=1), 0.30),
    (LatticeSpec(d=2, edge_mode="spread_out", lam=2), 0.12),
], ids=["d2", "d3", "spread-lam1", "spread-lam2"])
def test_minimality_components_match_lazy_components(spec, p):
    # the window scan of Ann^1 gives exactly the spanning components of each
    # spanning cluster of Ann^2 restricted to Ann^1
    idx = scale_sequence(NESTED, 1)[1]
    outer, inner = (sub_annulus(spec, idx, q, NESTED) for q in (2, 1))
    compared = 0
    for sid in range(10):
        cfg = PercolationConfig(spec=spec, p=p, seed=11, sample_id=sid)
        for cand in spanning_clusters(cfg, outer):
            lazy = [c for c in _lazy_components(cfg, cand, inner) if c[1] and c[2]]
            comps = _minimality_components(cfg, cand, inner)
            assert [(c.vertices, c.boundary_in, c.boundary_out) for c in comps] == lazy
            assert all(c.region == inner for c in comps)
            compared += len(lazy)
    assert compared > 0


def test_scan_good_spanning_frozen_on_nested():
    # every record of NESTED samples 0-9, two of them not minimal
    idx = scale_sequence(NESTED, 1)[1]
    good = GoodSpanningParams(lo=0.1, hi=4.0, regular_fraction=0.5)
    reg = RegularityParams(K=3, s_list=(3, 4), n_inner=100, log_base=2.0)
    got = []
    for sid in range(10):
        cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=11, sample_id=sid)
        got += [(sid, r.q, r.good, r.failure_reasons, len(r.regular_in), len(r.regular_out))
                for r in scan_good_spanning(cfg, idx, NESTED, good, reg)]
    inner_large = "inner boundary too large ({} outside [1, 1])".format
    not_minimal = "not minimal: a component already qualifies in sub-annulus 1"
    assert got == [
        (0, 1, True, [], 3, 3), (0, 1, True, [], 7, 23),
        (0, 2, False, [inner_large(10)], 0, 0),
        (1, 1, True, [], 2, 4), (1, 1, True, [], 4, 4), (1, 1, True, [], 5, 10),
        (1, 1, True, [], 3, 5), (1, 2, False, [inner_large(9)], 0, 0),
        (2, 1, True, [], 4, 11), (2, 2, False, [inner_large(4)], 0, 0),
        (3, 1, True, [], 3, 13), (3, 1, True, [], 4, 6), (3, 1, True, [], 6, 11),
        (3, 2, False, [inner_large(3)], 0, 0),
        (4, 1, True, [], 7, 10), (4, 1, True, [], 3, 3),
        (4, 2, False, [inner_large(6)], 0, 0),
        (5, 1, True, [], 4, 14), (5, 1, True, [], 7, 10), (5, 1, True, [], 3, 2),
        (5, 1, False, ["outer boundary too small (1 outside [1.23, 4.1e+03])"], 0, 0),
        (5, 2, False, [inner_large(5)], 0, 0), (5, 2, False, [inner_large(3)], 0, 0),
        (6, 1, True, [], 4, 22), (6, 1, True, [], 7, 11), (6, 1, True, [], 5, 3),
        (6, 2, False, [inner_large(8)], 0, 0), (6, 2, False, [inner_large(3)], 0, 0),
        (7, 1, True, [], 2, 3), (7, 1, True, [], 2, 2),
        (7, 2, False, [not_minimal], 1, 9),
        (8, 1, True, [], 6, 2), (8, 1, True, [], 5, 9), (8, 1, True, [], 3, 2),
        (8, 2, False, [not_minimal], 1, 11), (8, 2, False, [inner_large(7)], 0, 0),
        (9, 1, True, [], 10, 11), (9, 1, True, [], 3, 7),
        (9, 2, False, [inner_large(5)], 0, 0),
    ]


def test_good_spanning_params_refuse_a_non_boolean_minimality_switch():
    for value in ("no", 0, None):
        with pytest.raises(ValueError, match="check_minimality must be true or false"):
            GoodSpanningParams(check_minimality=value)


@pytest.mark.parametrize("params,kwargs,message", [
    (RegularityParams, {"K": 2.5}, "K must be an integer"),
    (RegularityParams, {"K": True}, "K must be an integer"),
    (RegularityParams, {"s_list": (3.5, 4)}, "every s_list entry must be an integer"),
    (RegularityParams, {"s_list": (3, True)}, "every s_list entry must be an integer"),
    (RegularityParams, {"n_inner": 100.5}, "n_inner must be an integer"),
    (RegularityParams, {"log_base": True}, "log_base must be a real number"),
    (GoodSpanningParams, {"lo": True}, "lo must be a real number"),
    (GoodSpanningParams, {"hi": True}, "hi must be a real number"),
    (GoodSpanningParams, {"regular_fraction": True}, "regular_fraction must be a real number"),
    (GoodSpanningParams, {"lo": "0.1"}, "lo must be a real number"),
], ids=["K-float", "K-bool", "scale-float", "scale-bool", "n-inner-float", "log-base-bool",
        "lo-bool", "hi-bool", "fraction-bool", "lo-string"])
def test_certification_params_refuse_non_numbers(params, kwargs, message):
    # a float n_inner escaped from the first d = 3 resample as a TypeError, and
    # a float K or scale, or a boolean goodness window, certified as if valid
    with pytest.raises(ValueError, match=message):
        params(**kwargs)


def test_scan_labels_each_sub_annulus_once_per_sample(monkeypatch, cold_caches):
    # the minimality check reads Ann^1 off the scan's own labelling of the
    # sample, so each (sample, sub-annulus) window is labelled exactly once
    idx = scale_sequence(NESTED, 1)[1]
    good = GoodSpanningParams(lo=0.1, hi=4.0, regular_fraction=0.5)
    reg = RegularityParams(K=3, s_list=(3, 4), n_inner=100, log_base=2.0)
    calls, sid = Counter(), None
    real = percolab.clusters.component_labels

    def counted(win, *args, **kwargs):
        calls[(sid, win.inner, win.outer)] += 1
        return real(win, *args, **kwargs)

    monkeypatch.setattr(percolab.clusters, "component_labels", counted)
    reasons = set()
    for sid in range(10):
        cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=11, sample_id=sid)
        for rec in scan_good_spanning(cfg, idx, NESTED, good, reg):
            reasons.update(rec.failure_reasons)
    assert any(msg.startswith("not minimal") for msg in reasons)
    assert calls == Counter({(s, lo, hi): 1 for s in range(10) for lo, hi in ((2, 8), (1, 16))})


def test_records_given_to_regularity_equal_fresh_explorations():
    idx = scale_sequence(NESTED, 1)[1]
    outer, inner = (sub_annulus(SPEC2, idx, q, NESTED) for q in (2, 1))
    assert (outer.inner, outer.outer, inner.inner, inner.outer) == (1, 16, 2, 8)
    checked = 0
    for sid in range(12):
        cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=11, sample_id=sid)
        for rec in spanning_clusters(cfg, outer):
            for v in rec.boundary_in + rec.boundary_out:
                assert _record_value(explore_cluster(cfg, v, outer)) == _record_value(rec)
            for comp in _minimality_components(cfg, rec, inner):
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
        cases += [(cfg, rec) for rec in spanning_clusters(cfg, outer)]
    x3 = (0, 0, 0)
    cfg3 = PercolationConfig(spec=LatticeSpec(d=3), p=0.3, seed=2024)
    rec3 = explore_cluster(cfg3, x3, box(x3, 1))

    def forbidden(*args, **kwargs):
        raise AssertionError("lazy exploration during certification")

    regions = []
    real = percolab.clusters.estimate_regularity

    def counted(cfg, x, cluster, *args, **kwargs):
        regions.append(cluster.region)
        return real(cfg, x, cluster, *args, **kwargs)

    reasons = set()
    with monkeypatch.context() as m:
        # the minimality check reads windows, and regularity resamples on
        # them, so the lattice explorer has no caller
        m.setattr(percolab.engine, "explore", forbidden)
        m.setattr(percolab.clusters, "estimate_regularity", counted)
        for cfg, rec in cases:
            reasons.update(
                good_spanning_check(cfg, rec, idx, 2, NESTED, good, reg).failure_reasons)
        # d = 2 volumes settle every estimate above; d = 3 resamples
        rep = real(cfg3, x3, rec3, RegularityParams(K=3, s_list=(3,), n_inner=100),
                   resample_region=box(x3, 3))
    # regularity ran on candidates and, in the minimality check, on components
    assert outer in regions and sub_annulus(SPEC2, idx, 1, NESTED) in regions
    assert any(msg.startswith("not minimal") for msg in reasons)
    assert rep.per_s[0][1].n_samples == 100


# ---------------------------------------------------------------------------
# Attachment pairs on the lattice, against networkx


def _joined(g, sources, targets):
    """Is some source joined to some target in the graph ``g``?"""
    reach = set()
    for s in sources:
        if s not in reach:
            reach |= nx.node_connected_component(g, s)
    return not reach.isdisjoint(targets)


def _pivotal(g, sources, targets, edge):
    """Is ``edge`` an open edge of ``g`` whose removal disjoins sources from
    targets (remove and retest)?"""
    if not g.has_edge(*edge):
        return False
    g.remove_edge(*edge)
    try:
        return not _joined(g, sources, targets)
    finally:
        g.add_edge(*edge)


def _attachment_edges(sites, admits):
    """Each site with its lexicographically smallest neighbour that
    ``admits`` accepts; a site with none has no attachment edge."""
    out = []
    for x in sorted(sites):
        ys = [y for y in neighbours(SPEC2, x) if admits(norm_inf(y))]
        if ys:
            out.append((x, min(ys)))
    return out


@functools.lru_cache(maxsize=None)
def _lattice_attachment_pairs():
    """One networkx pass over the 40 samples: the histogram of attachment-pair
    counts and, for each counted pair, its sample, the two clusters' vertex
    sets and the two attachment edges.

    C spans annulus(0, 2), D spans annulus(8, 16), and the connection event
    is {C <-> D within mid}.  A pair counts when the outward attachment edge
    of the norm-2 site x_i of C and the inward one of the norm-9 site x_j of
    D are both pivotal for it."""
    ann_c = annulus((0, 0), 0, 2)
    ann_d = annulus((0, 0), 8, 16)
    mid = annulus((0, 0), 1, 9)
    mid_sites = list(region_sites(mid))
    mid_edges = list(edges_within(SPEC2, mid))
    hist = {}
    pairs = []
    for sid in range(40):
        cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=2024, sample_id=sid)
        g = nx.Graph()
        g.add_nodes_from(mid_sites)
        g.add_edges_from(e for e in mid_edges if edge_state(cfg, e))
        for c in spanning_clusters(cfg, ann_c):
            src = [v for v in c.vertices if v in g]
            outward = _attachment_edges(
                (v for v in c.vertices if norm_inf(v) == 2), lambda n: n > 2)
            for d in spanning_clusters(cfg, ann_d):
                tgt = {v for v in d.vertices if v in g}
                found = []
                if _joined(g, src, tgt):
                    inward = _attachment_edges(
                        (v for v in d.vertices if norm_inf(v) == 9), lambda n: n <= 8)
                    outs = [e for e in outward if _pivotal(g, src, tgt, e)]
                    ins = [e for e in inward if _pivotal(g, src, tgt, e)] if outs else []
                    found = [(ei, ej) for ei in outs for ej in ins]
                hist[len(found)] = hist.get(len(found), 0) + 1
                pairs += [(cfg, c.vertices, d.vertices, ei, ej) for ei, ej in found]
    return hist, pairs


def test_y_set_lattice_frozen_histogram():
    hist, _ = _lattice_attachment_pairs()
    assert hist == {0: 371, 1: 12}  # never more than one attachment pair


def test_y_set_pairs_are_open_pivotal_attachments():
    _, pairs = _lattice_attachment_pairs()
    for cfg, c_vertices, d_vertices, ei, ej in pairs:
        # x_i is a norm-2 site of C, x_j a norm-9 site of D
        assert ei[0] in c_vertices and norm_inf(ei[0]) == 2
        assert ej[0] in d_vertices and norm_inf(ej[0]) == 9
        assert edge_state(cfg, canonical_edge(SPEC2, *ei))
        assert edge_state(cfg, canonical_edge(SPEC2, *ej))
    assert len(pairs) == 12


def test_minimality_components_match_graph_components():
    outer = annulus((0, 0), 1, 6)
    inner = annulus((0, 0), 1, 4)
    checked = 0
    for sid in range(30):
        cfg = PercolationConfig(spec=SPEC2, p=0.55, seed=5, sample_id=sid)
        for rec in spanning_clusters(cfg, outer):
            comps = _minimality_components(cfg, rec, inner)
            g = nx.Graph()
            g.add_nodes_from(v for v in rec.vertices if norm_inf(v) <= 4)
            g.add_edges_from((v, w) for v in g for w in neighbours(SPEC2, v)
                             if v < w and w in g and edge_state(cfg, (v, w)))
            # the spanning components meet both boundaries of the annulus
            spanning = []
            for c in map(frozenset, nx.connected_components(g)):
                sides = [boundary_membership(SPEC2, inner, v) for v in c]
                if any(b_in for b_in, _ in sides) and any(b_out for _, b_out in sides):
                    spanning.append(c)
            assert sorted(spanning, key=min) == [c.vertices for c in comps]
            for c in comps:
                assert c.region == inner
                # one constructor: the same field types as an explored record
                assert [type(getattr(c, f)) for f in c.__dataclass_fields__] == \
                    [type(getattr(rec, f)) for f in rec.__dataclass_fields__]
                checked += 1
    assert checked > 20
