"""Monte Carlo estimators, transition-point location, exponent fits, and the
exact small-graph inequalities.

The two ``locate_pc`` regression constants are full determinism freezes:
same seed, same sample budget, same bisection path, same float.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from percolab import windowed
from percolab.battery import random_nofurther_instance
from percolab.engine import PercolationConfig, TinyGraph, connect_sets
from percolab.estimators import (
    Estimate,
    SubgraphSpec,
    _arm_scaling_stat,
    _crossing_stat,
    combine_gap_sigma,
    fit_exponent,
    locate_pc,
    nofurther_check,
    one_arm_profile,
    two_point_profile,
)
from percolab.lattice import SPREAD_OUT, LatticeSpec, box, norm_inf
from percolab.windowed import build_window, component_labels, sample_open_edges

SPEC2 = LatticeSpec(d=2)
SPEC3 = LatticeSpec(d=3)
LAM2 = LatticeSpec(d=2, edge_mode=SPREAD_OUT, lam=2)


def test_estimate_from_counts():
    e = Estimate.from_counts(30, 120, seed=7)
    assert e.value == 0.25
    assert math.isclose(e.stderr, math.sqrt(0.25 * 0.75 / 120))
    assert e.n_samples == 120 and e.n_truncated == 0


def test_combine_gap_sigma():
    a = Estimate(0.30, 0.01, 100, 0, 0, (0, 100))
    b = Estimate(0.36, 0.02, 100, 0, 0, (0, 100))
    gap, sigma = combine_gap_sigma(a, b)
    assert math.isclose(gap, 0.06)
    assert math.isclose(sigma, math.hypot(0.01, 0.02))


def test_two_point_profile_saturated():
    cfg = PercolationConfig(spec=SPEC2, p=1.0, seed=1)
    prof = two_point_profile(cfg, [(1, 0), (3, 2)], n_samples=40)
    assert [e.value for _, e in prof] == [1.0, 1.0]


def test_one_arm_profile_decreasing():
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=8)
    prof = one_arm_profile(cfg, radii=(1, 2, 4, 8), n_samples=1500)
    vals = [e.value for _, e in prof]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12  # same samples, nested events: exact ordering
    assert vals[0] > vals[-1]


@pytest.mark.parametrize("radii", [[], [2, 1], [1, 1], [-1, 2]])
def test_one_arm_profile_refuses_bad_radii(radii):
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=8)
    with pytest.raises(ValueError, match="radii"):
        one_arm_profile(cfg, radii, n_samples=5)


# ---------------------------------------------------------------------------
# The origin reductions against the full labelling they replaced


def _labelled_reach(win, cfg, ids):
    origin = win.row_of((0,) * cfg.spec.d)
    norms = win.norms()
    for sid in ids:
        labels = component_labels(win, sample_open_edges(win, cfg, sid))
        yield norms[labels == labels[origin]].max()


def _labelled_two_point(cfg, targets, n_samples, sample_start):
    rmax = max(norm_inf(t) for t in targets)
    win = build_window(cfg.spec, cfg.seed, outer=max(2, 2 * rmax))
    origin = win.row_of((0,) * cfg.spec.d)
    rows = win.rows_of(targets)
    hits = np.zeros(len(targets), dtype=np.int64)
    rng = (sample_start, sample_start + n_samples)
    for sid in range(*rng):
        labels = component_labels(win, sample_open_edges(win, cfg, sid))
        hits += labels[rows] == labels[origin]
    return [(t, Estimate.from_counts(int(h), n_samples, cfg.seed, rng))
            for t, h in zip(targets, hits)]


def _labelled_one_arm(cfg, radii, n_samples, sample_start):
    # with its B(0) shortcut: a window of one site gives the same profile
    rng = (sample_start, sample_start + n_samples)
    if radii[-1] == 0:
        return [(0, Estimate.from_counts(n_samples, n_samples, cfg.seed, rng))]
    win = build_window(cfg.spec, cfg.seed, outer=radii[-1])
    hits = np.zeros(len(radii), dtype=np.int64)
    for reach in _labelled_reach(win, cfg, range(*rng)):
        hits += np.asarray(radii) <= reach
    return [(r, Estimate.from_counts(int(h), n_samples, cfg.seed, rng))
            for r, h in zip(radii, hits)]


def _labelled_arm_scaling(win, cfg, radii, n_samples, sample_start):
    n1, n2 = radii
    ids = range(sample_start, sample_start + n_samples)
    vals = np.array([n2 * n2 * (reach >= n2) - n1 * n1 * (reach >= n1)
                     for reach in _labelled_reach(win, cfg, ids)], dtype=float)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_samples))


@pytest.mark.parametrize("spec,p_c", [(SPEC2, 0.5), (SPEC3, 0.2488), (LAM2, 0.07)],
                         ids=["d2", "d3", "lam2"])
@pytest.mark.parametrize("p", ["0", "p_c", "1"])
def test_origin_reductions_equal_the_full_labelling(spec, p_c, p):
    cfg = PercolationConfig(spec, {"0": 0.0, "p_c": p_c, "1": 1.0}[p], seed=13)
    o = (0,) * spec.d
    n, start = 40, 9
    for targets in ([o], [o, (1,) + o[1:], (2, -1) + o[2:]], [(3,) + o[1:]]):
        assert (two_point_profile(cfg, targets, n, start)
                == _labelled_two_point(cfg, targets, n, start))
    for radii in ([0], [0, 1], [0, 1, 3], [1, 2, 4]):
        assert one_arm_profile(cfg, radii, n, start) == _labelled_one_arm(cfg, radii, n, start)
    for radii in ((0, 2), (1, 3), (2, 4)):
        win = build_window(spec, cfg.seed, outer=radii[-1])
        assert (_arm_scaling_stat(win, cfg, radii, n, start)
                == _labelled_arm_scaling(win, cfg, radii, n, start))


@pytest.mark.parametrize("spec,n,p", [(SPEC2, 4, 0.5), (SPEC3, 2, 0.2488)], ids=["d2", "d3"])
def test_crossing_stat_equals_lazy_crossings_sample_by_sample(spec, n, p):
    # the windowed side-to-side crossing of B(n) against the lazy explorer's
    # connect_sets, one sample at a time and summed over blocks of samples
    cfg = PercolationConfig(spec, p, seed=2024)
    win = build_window(spec, cfg.seed, outer=n)
    sites = [tuple(x) for x in win.sites.tolist()]
    left = [x for x in sites if x[0] == -n]
    right = [x for x in sites if x[0] == n]
    ids = range(100, 160)
    lazy = [connect_sets(cfg.with_sample(sid), left, right, box((0,) * spec.d, n))
            for sid in ids]
    assert 0 < sum(lazy) < len(lazy)  # both outcomes occur
    for sid, crossed in zip(ids, lazy):
        assert _crossing_stat(win, cfg, (n, n), 1, sid)[0] == (0.5 if crossed else -0.5)
    share = sum(lazy) / len(ids)
    assert _crossing_stat(win, cfg, (1, n), len(ids), ids.start)[0] == share - 0.5


def test_small_window_estimators_make_one_scipy_call_per_block(monkeypatch):
    # 120 samples at B(16) (1089 sites) are 8 blocks of at most 15, and 12
    # crossing samples at B(32) (4225 sites) 4 blocks of 3: one search or
    # labelling each, not one per sample
    calls = {"breadth_first_order": 0, "connected_components": 0}
    for name in calls:
        real = getattr(windowed, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(windowed, name, counted)
    cfg = PercolationConfig(SPEC2, 0.5, seed=2024)
    one_arm_profile(cfg, [2, 4, 8, 16], n_samples=120)
    two_point_profile(cfg, [(1, 0), (8, 0)], n_samples=120, sample_start=5)
    assert calls == {"breadth_first_order": 16, "connected_components": 0}
    _crossing_stat(build_window(SPEC2, 2024, 32), cfg, (16, 32), 12, 0)
    assert calls == {"breadth_first_order": 16, "connected_components": 4}


def test_fit_exponent_recovers_planted_power():
    prof = [(r, Estimate(2.5 * r ** -1.25, 1e-9, 10**6, 0, 0, (0, 1)))
            for r in (2, 4, 8, 16, 32)]
    fit = fit_exponent(prof)
    assert abs(fit.exponent - (-1.25)) < 1e-6
    assert abs(fit.amplitude - 2.5) / 2.5 < 1e-6
    assert fit.n_points == 5


def test_locate_pc_crossing_frozen_d2():
    pc, info = locate_pc(SPEC2, criterion="crossing", bracket=(0.4, 0.6),
                         tol=0.005, n_samples=400, seed=2024)
    assert pc == 0.4984375  # frozen bisection endpoint, seed 2024
    assert abs(pc - 0.5) <= 0.01
    assert info["criterion"] == "crossing"
    lo, hi = info["bracket_final"]
    assert hi - lo <= 0.005


def test_locate_pc_crossing_frozen_d3():
    pc, _ = locate_pc(SPEC3, criterion="crossing", bracket=(0.2, 0.3),
                      tol=0.005, radii=(4, 8), n_samples=400, seed=2024)
    assert pc == 0.2515625
    assert 0.24 < pc < 0.26


def test_locate_pc_arm_scaling_biased_low_but_converging():
    # the finite-size statistic crosses below the true point and climbs
    # toward it as the probe radii double
    pc_small, _ = locate_pc(SPEC2, criterion="arm_scaling",
                            bracket=(0.25, 0.55), tol=0.01, radii=(8, 16),
                            n_samples=600, seed=11)
    pc_big, _ = locate_pc(SPEC2, criterion="arm_scaling",
                          bracket=(0.25, 0.55), tol=0.01, radii=(16, 32),
                          n_samples=600, seed=11)
    assert pc_small == 0.4140625
    assert pc_big == 0.4421875
    assert pc_small < pc_big < 0.5


def test_locate_pc_rejects_non_straddling_bracket():
    with pytest.raises(ValueError, match="straddle"):
        locate_pc(SPEC2, criterion="arm_scaling", bracket=(0.4, 0.6),
                  tol=0.01, radii=(4, 8), n_samples=300, seed=11)


def test_locate_pc_arm_scaling_refuses_one_sample():
    # one sample has no sample standard deviation: the stderr would be NaN
    with pytest.raises(ValueError, match="n_samples >= 2"):
        locate_pc(SPEC2, criterion="arm_scaling", radii=(4, 8), n_samples=1)
    _, info = locate_pc(SPEC2, criterion="crossing", radii=(4, 8), n_samples=1, tol=0.1)
    assert all(math.isfinite(se) for _, _, se in info["curve"])


# ---------------------------------------------------------------------------
# Cluster-exit inequality, exact tier


def test_nofurther_hand_instance():
    # C = {a} pinned in an edgeless A0; the only route to b* runs through w.
    # lhs = P(a-w open) P(w-b* open) = p^2, rhs = P(w <-> b*) = p.
    p = Fraction(1, 3)
    lhs, rhs, holds = nofurther_check(
        a0_edges=[],
        a1_edges=[("a", "w"), ("w", "bstar")],
        c=SubgraphSpec(vertices=frozenset({"a"}), edges=frozenset()),
        b_vertices={"bstar"},
        p=p,
        a0_vertices={"a"},
    )
    assert lhs == p * p
    assert rhs == p
    assert holds


def test_nofurther_conditioning_pins_cluster():
    # A0 is the path a-m-z; C = {a, m} with the edge a-m.  Conditioning
    # closes m-z, so the only open route to b is the A1 shortcut from m.
    p = Fraction(1, 2)
    lhs, rhs, holds = nofurther_check(
        a0_edges=[("a", "m"), ("m", "z")],
        a1_edges=[("a", "m"), ("m", "z"), ("m", "w"), ("w", "b"), ("z", "b")],
        c=SubgraphSpec(vertices=frozenset({"a", "m"}),
                       edges=frozenset({frozenset(("a", "m"))})),
        b_vertices={"b"},
        p=p,
    )
    assert lhs == p * p  # m-w and w-b both open
    # boundary is just {w} (z belongs to A0); its route avoids C, so only
    # the w-b edge counts
    assert rhs == p
    assert holds


def test_nofurther_check_past_one_table_chunk():
    # an 18-edge instance: the conditioning and joint tables span four
    # 2^16-mask chunks.  A1 is the 3x4 grid plus the diagonal (0,0)-(1,1);
    # C = {(0,0)}, A0 adds (0,1), so the conditioning closes (0,0)-(0,1).
    # Values recorded with the tables built over one array of all masks.
    grid = ([((r, c), (r, c + 1)) for r in range(3) for c in range(3)]
            + [((r, c), (r + 1, c)) for r in range(2) for c in range(4)])
    a1 = grid + [((0, 0), (1, 1))]
    assert len(a1) == 18
    lhs, rhs, holds = nofurther_check([((0, 0), (0, 1))], a1,
                                      SubgraphSpec(vertices=frozenset({(0, 0)})),
                                      {(2, 3)}, Fraction(2, 5))
    assert lhs == Fraction(80580973232, 762939453125)
    assert rhs == Fraction(9226301272, 30517578125)
    assert holds


def test_nofurther_check_matches_the_per_mask_path(monkeypatch):
    rng = random.Random(11)
    instances = [random_nofurther_instance(rng) for _ in range(150)]

    def run():
        return [nofurther_check(a0, a1, c, b, p, a0_vertices=v0)
                for a0, a1, c, b, p, v0 in instances]

    vectorised = run()
    monkeypatch.setattr(TinyGraph, "connects", lambda self, masks, s, t: np.array(
        [self.connected(int(m), s, t) for m in masks], dtype=bool))
    assert vectorised == run()


def test_nofurther_validation_errors():
    c = SubgraphSpec(vertices=frozenset({"a"}), edges=frozenset())
    with pytest.raises(ValueError, match="disjoint"):
        nofurther_check([], [("a", "b")], c, {"a"}, Fraction(1, 2))
    with pytest.raises(ValueError, match="induced"):
        nofurther_check(
            [("a", "m")], [("a", "m"), ("a", "z"), ("m", "z"), ("z", "b")],
            SubgraphSpec(vertices=frozenset({"a", "m"}),
                         edges=frozenset({frozenset(("a", "m"))})),
            {"b"}, Fraction(1, 2),
            a0_vertices={"a", "m", "z"})
