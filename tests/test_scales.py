"""Scale-ladder arithmetic: recurrences, sub-annuli, and horizons.

Everything here is integer/Fraction arithmetic, so the assertions are
exact.  The d = 7 ladder exercises numbers far beyond 2^63 and must not
lose precision.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from percolab.lattice import LatticeSpec
from percolab.scales import (
    closed_form_k,
    conditioning_horizon,
    faithful_params,
    faithful_report,
    k1_floor,
    ladder_geometry_issues,
    likelihood_ratio_horizon,
    pow2_gt,
    pow2_lt,
    scale_sequence,
    sub_annulus,
    sub_annulus_exponents,
    toy_params,
    validate_scale_params,
)

SPEC2 = LatticeSpec(d=2)
SPEC7 = LatticeSpec(d=7)
TOY = toy_params(1, 2, 1)


def test_toy_ladder_frozen():
    seq = scale_sequence(TOY, 2)
    flat = [(ix.i, ix.k, ix.k_star, ix.ell, ix.ann_outer_exp) for ix in seq]
    assert flat == [(0, 0, 1, 0, 1), (1, 1, 2, 1, 4), (2, 4, 8, 4, 10)]
    assert seq[1].ann_inner_exp == -1
    assert seq[2].ann_inner_exp == 2


def test_k1_floor_dimension_seven():
    # 1 + 0 + 64 * 7^4 + 4 = 153669
    assert k1_floor(SPEC7, 1) == 153669
    assert k1_floor(LatticeSpec(d=2), 0) == 64 * 16 + 4


def test_faithful_recurrence_exact_big_int():
    params = faithful_params(SPEC7, k1_floor(SPEC7, 1))
    seq = scale_sequence(params, 6)
    m = params.m
    assert m == 2 * 7 * 7
    for i in range(1, 6):
        assert seq[i + 1].k == m * m * seq[i].k
        assert seq[i].k_star == m * seq[i].k
        assert (seq[i].k, seq[i].k_star) == closed_form_k(params, i)
    assert seq[2].k == 153669 * 98 * 98
    assert seq[6].k.bit_length() > 63  # genuinely past machine integers


@given(st.integers(1, 10**6), st.integers(2, 200), st.integers(1, 8))
def test_closed_form_formula(k1, m, i):
    params = toy_params(k1, m, 1)
    k, k_star = closed_form_k(params, i)
    assert k == k1 * m ** (2 * (i - 1))
    assert k_star == m * k


def test_sub_annulus_boundaries_nested_and_distinct():
    # Ann_i^q grows with q; every one of the 2(q_max+1) boundary radius
    # exponents must be distinct and strictly inside the full annulus, so
    # no two sub-annulus boundary shells can share a site
    params = faithful_params(SPEC7, k1_floor(SPEC7, 1))
    seq = scale_sequence(params, 3)
    for idx in seq[1:]:
        spans = [sub_annulus_exponents(idx, q, params.q_max)
                 for q in range(params.q_max + 1)]
        for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
            assert lo2 == lo1 - 1 and hi2 == hi1 + 1
        for lo, hi in spans:
            assert idx.ann_inner_exp < lo < hi < idx.ann_outer_exp


def test_faithful_ladder_geometry_clean():
    params = faithful_params(SPEC7, k1_floor(SPEC7, 1))
    assert ladder_geometry_issues(params, SPEC7, i_max=6, strict=True) == []


def test_toy_ladder_geometry_reports_overlap():
    # the desk-scale ladder deliberately violates strict nesting at the
    # lowest levels; lax mode accepts it
    assert ladder_geometry_issues(TOY, SPEC2, i_max=2, strict=True) \
        == ["levels 1,2: annuli overlap (4 !< 2)"]
    assert ladder_geometry_issues(TOY, SPEC2, i_max=2, strict=False) == []


def test_toy_regions_materialise():
    seq = scale_sequence(TOY, 1)
    assert 2**seq[1].ann_outer_exp == 16
    assert 2**seq[1].ell == 2
    sub = sub_annulus(SPEC2, seq[1], 1, TOY)
    assert sub.inner < sub.outer <= 2**seq[1].ann_outer_exp


def test_pow2_comparisons_match_direct():
    for k in range(0, 28):
        for n in (0, 1, 5, 2**10, 2**20 + 3, 2**27):
            assert pow2_lt(k, n) == (2**k < n)
            assert pow2_gt(k, n) == (2**k > n)
    # far beyond materialisation these must still answer
    assert pow2_gt(10**9, 10**18)
    assert not pow2_lt(10**9, 10**18)


def test_validate_scale_params_rejections():
    with pytest.raises(ValueError):
        validate_scale_params(toy_params(0, 2, 1), SPEC2)
    with pytest.raises(ValueError):
        validate_scale_params(toy_params(1, 1, 1), SPEC2)
    with pytest.raises(ValueError, match="below floor"):
        validate_scale_params(
            faithful_params(SPEC7, k1_floor(SPEC7, 1) - 1), SPEC7,
            cylinder_exp=1)
    # the floor itself is admissible
    validate_scale_params(
        faithful_params(SPEC7, k1_floor(SPEC7, 1)), SPEC7, cylinder_exp=1)


def test_conditioning_horizon_frozen():
    # the least norm of the targets and obstacles: (17, 0), (300, 0), and
    # (300, 0) with an obstacle at (10, 0), which counts like a target
    assert conditioning_horizon(TOY, 17) == 0
    assert conditioning_horizon(TOY, 300) == 1
    assert conditioning_horizon(TOY, 10) == 0


def test_likelihood_ratio_horizon_sides():
    assert likelihood_ratio_horizon(TOY, SPEC2, 0.5, 0.5) == float("inf")
    assert likelihood_ratio_horizon(TOY, SPEC2, 0.55, 0.5) == 0
    with pytest.raises(ValueError):
        likelihood_ratio_horizon(TOY, SPEC2, 0.45, 0.5)


def test_faithful_report_table():
    params = faithful_params(SPEC7, k1_floor(SPEC7, 1))
    rep = faithful_report(SPEC7, params, i_max=6)
    rows = rep["levels"]  # levels 1..6; integers serialised as strings
    assert [r["i"] for r in rows] == [1, 2, 3, 4, 5, 6]
    assert all(r["recurrence_matches_closed_form"] for r in rows)
    assert int(rows[1]["k"]) == 153669 * 9604
    assert rep["geometry_issues"] == []
