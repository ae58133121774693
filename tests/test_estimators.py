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

from percolab.battery import random_nofurther_instance
from percolab.engine import PercolationConfig, TinyGraph
from percolab.estimators import (
    Estimate,
    SubgraphSpec,
    combine_gap_sigma,
    fit_exponent,
    locate_pc,
    nofurther_check,
    one_arm_profile,
    two_point_profile,
)
from percolab.lattice import LatticeSpec

SPEC2 = LatticeSpec(d=2)
SPEC3 = LatticeSpec(d=3)


def test_estimate_from_counts():
    e = Estimate.from_counts(30, 120, 0, seed=7)
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
