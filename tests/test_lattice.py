"""Geometry layer: norms, adjacency, regions, boundaries, edge counts."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from percolab.engine import PercolationConfig, explore_cluster
from percolab.experiments import CylinderEvent
from percolab.lattice import (
    LatticeSpec,
    annulus,
    box,
    canonical_edge,
    contains,
    edge_count_box,
    edges_within,
    is_edge,
    neighbours,
    norm_inf,
    region_boundaries,
    region_sites,
    site_count,
)
from percolab.scales import faithful_params, toy_params

SPEC2 = LatticeSpec(d=2)
SPEC3 = LatticeSpec(d=3)
SPREAD2 = LatticeSpec(d=2, edge_mode="spread_out", lam=2)

sites2 = st.tuples(st.integers(-20, 20), st.integers(-20, 20))


def test_norm_hand_values():
    assert norm_inf((3, -5)) == 5
    assert sum(map(abs, (3, -5))) == 8
    assert norm_inf((0, 0)) == 0
    assert norm_inf((-7, 2, 7)) == 7


def test_nearest_neighbour_counts():
    assert len(neighbours(SPEC2, (0, 0))) == 4
    assert len(neighbours(SPEC3, (1, -2, 3))) == 6
    for y in neighbours(SPEC2, (4, 4)):
        assert sum(abs(a - b) for a, b in zip(y, (4, 4))) == 1


def test_spread_out_counts():
    # range-2 box adjacency: (2*2+1)^2 - 1 sites, translation invariant
    assert len(neighbours(SPREAD2, (0, 0))) == 24
    assert len(neighbours(SPREAD2, (3, 3))) == 24
    assert is_edge(SPREAD2, (0, 0), (2, 2))
    assert not is_edge(SPREAD2, (0, 0), (3, 0))
    assert not is_edge(SPEC2, (0, 0), (1, 1))


@given(sites2)
def test_canonical_edge_orientation(x):
    for y in neighbours(SPEC2, x):
        assert canonical_edge(SPEC2, x, y) == canonical_edge(SPEC2, y, x)
        assert is_edge(SPEC2, x, y)


def test_canonical_edge_rejects_non_edges():
    with pytest.raises(ValueError):
        canonical_edge(SPEC2, (0, 0), (1, 1))


@given(st.integers(1, 3), st.integers(-1, 4), st.integers(1, 4), st.data())
def test_contains_matches_generator_norm(d, r, gap, data):
    # the map-based sup-norm against the generator expression it replaced
    coord = st.integers(-12, 12)
    center = data.draw(st.tuples(*[coord] * d))
    ann = annulus(center, r, r + gap)
    for _ in range(20):
        x = data.draw(st.tuples(*[coord] * d))
        n = max(abs(a - c) for a, c in zip(x, center))
        assert contains(ann, x) == (r < n <= r + gap)


def test_box_membership_and_count():
    b = box((0, 0), 2)
    assert contains(b, (2, -2))
    assert not contains(b, (3, 0))
    assert site_count(b, d=2) == 25
    assert len(list(region_sites(b))) == 25


def test_annulus_membership_and_count():
    a = annulus((0, 0), 1, 3)
    assert not contains(a, (1, 0))  # hole is closed: |x| <= 1 excluded
    assert contains(a, (2, 0))
    assert contains(a, (3, 3))
    assert not contains(a, (4, 0))
    assert site_count(a, d=2) == 49 - 9


@given(st.integers(0, 3), st.integers(1, 5))
def test_annulus_count_matches_enumeration(r, gap):
    s = r + gap
    a = annulus((0, 0), r, s)
    assert site_count(a, d=2) == len(list(region_sites(a)))


def test_region_boundaries_annulus():
    # inner: norm-2 sites with a neighbour in the hole (corners excluded
    # because their neighbours all have norm >= 2), outer: all norm-3 sites
    inner, outer = region_boundaries(SPEC2, annulus((0, 0), 1, 3))
    assert len(inner) == 12
    assert len(outer) == 24
    assert all(norm_inf(x) == 2 for x in inner)
    assert all(norm_inf(x) == 3 for x in outer)
    assert (2, 2) not in inner


def _boundaries_by_definition(spec, ann):
    """Sites of the annulus with a neighbour inside ``box(c, r)`` (inner) or
    outside ``box(c, s)`` (outer), read off every neighbour's norm."""
    sites = list(region_sites(ann))
    nbrs = np.asarray(sites)[:, None, :] + np.asarray(spec.offsets())[None, :, :]
    norms = np.abs(nbrs - np.asarray(ann.center)).max(axis=2)
    inner = tuple(y for y, hit in zip(sites, norms.min(axis=1) <= ann.inner) if hit)
    outer = tuple(y for y, hit in zip(sites, norms.max(axis=1) > ann.outer) if hit)
    return inner, outer


BOUNDARY_SPECS = [LatticeSpec(d, edge_mode, lam) for d in (1, 2, 3)
                  for edge_mode, lam in (("nearest_neighbour", 0),
                                         ("spread_out", 1), ("spread_out", 2))]


@pytest.mark.parametrize("spec", BOUNDARY_SPECS,
                         ids=lambda s: f"d{s.d}-lam{s.lam}")
def test_region_boundaries_match_definition(spec):
    # gaps 1..5 include gap <= lam, where the inner and outer bands overlap
    for center in ((0,) * spec.d, (3, -2, 1)[:spec.d]):
        for r in range(-1, 5):
            for gap in range(1, 6):
                ann = annulus(center, r, r + gap)
                assert region_boundaries(spec, ann) == _boundaries_by_definition(spec, ann), (
                    center, r, gap)


@pytest.mark.parametrize("spec", BOUNDARY_SPECS,
                         ids=lambda s: f"d{s.d}-lam{s.lam}")
def test_offsets_built_once_in_the_uncached_order(spec):
    if spec.edge_mode == "nearest_neighbour":
        units = [tuple(sgn * (i == j) for j in range(spec.d))
                 for i in range(spec.d) for sgn in (-1, 1)]
        expected = tuple(sorted(units))
    else:
        rng = range(-spec.lam, spec.lam + 1)
        expected = tuple(v for v in itertools.product(rng, repeat=spec.d) if any(v))
    fresh = LatticeSpec(spec.d, spec.edge_mode, spec.lam)
    assert fresh == spec and hash(fresh) == hash(spec) and repr(fresh) == repr(spec)
    assert fresh.offsets() == expected
    assert fresh.offsets() is fresh.offsets()
    x = (3, -2, 7)[:spec.d]
    assert neighbours(fresh, x) == tuple(tuple(a + b for a, b in zip(x, v)) for v in expected)


def _region_sites_by_filter(ann):
    """Every offset of the full box, the hole filtered out afterwards."""
    rng = range(-ann.outer, ann.outer + 1)
    for off in itertools.product(rng, repeat=len(ann.center)):
        if max(abs(o) for o in off) > ann.inner:
            yield tuple(a + o for a, o in zip(ann.center, off))


def test_region_sites_skip_the_hole_in_filter_order():
    n = 0
    for d in (1, 2, 3):
        for center in ((0,) * d, (3, -2, 1)[:d], (-5, 4, -1)[:d]):
            for r in range(-1, 5):
                for s in range(r + 1, 8):
                    ann = annulus(center, r, s)
                    assert list(region_sites(ann)) == list(_region_sites_by_filter(ann)), (
                        center, r, s)
                    n += 1
    assert n == 297


# p near each lattice's threshold, so the clusters meet part of each boundary
@pytest.mark.parametrize("spec,ann,p", [
    (SPEC2, annulus((0, 0), 2, 6), 0.6),
    (SPREAD2, annulus((1, -1), 1, 5), 0.08),
    (SPEC3, annulus((0, 0, 0), 1, 3), 0.35),
    (LatticeSpec(d=3, edge_mode="spread_out", lam=1), annulus((0, 0, 0), 0, 2), 0.06),
], ids=["d2-nn", "d2-lam2", "d3-nn", "d3-lam1"])
def test_cluster_record_boundaries_are_region_boundaries(spec, ann, p):
    b_in, b_out = region_boundaries(spec, ann)
    for sid in range(6):
        cfg = PercolationConfig(spec, p, seed=11, sample_id=sid)
        rec = explore_cluster(cfg, b_in[sid % len(b_in)], ann)
        assert rec.boundary_in == tuple(v for v in b_in if v in rec.vertices)
        assert rec.boundary_out == tuple(v for v in b_out if v in rec.vertices)


def test_edge_count_box_matches_enumeration():
    for spec, r in [(SPEC2, 2), (SPEC2, 3), (SPEC3, 1), (SPREAD2, 2)]:
        b = box((0,) * spec.d, r)
        assert edge_count_box(spec, r) == len(list(edges_within(spec, b)))


def test_edges_within_are_canonical_and_inside():
    b = box((0, 0), 2)
    seen = set()
    for e in edges_within(SPEC2, b):
        assert e == canonical_edge(SPEC2, *e)
        assert contains(b, e[0]) and contains(b, e[1])
        assert e not in seen
        seen.add(e)


def test_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(d=0)
    with pytest.raises(ValueError):
        LatticeSpec(d=2, edge_mode="nearest_neighbour", lam=2)


EAST = ((0, 0), (1, 0))


@pytest.mark.parametrize("build,message", [
    (lambda: LatticeSpec(d=True), "dimension must be an integer"),
    (lambda: LatticeSpec(d=2.0), "dimension must be an integer"),
    (lambda: LatticeSpec(d=2, edge_mode="spread_out", lam=1.5), "lam must be an integer"),
    (lambda: PercolationConfig(SPEC2, 0.5, 1.5), "seed must be an integer"),
    (lambda: PercolationConfig(SPEC2, 0.5, True), "seed must be an integer"),
    (lambda: PercolationConfig(SPEC2, True, 1), "p must be a real number"),
    (lambda: toy_params(k1=1.5), "k1 must be an integer"),
    (lambda: toy_params(k1=True), "k1 must be an integer"),
    (lambda: toy_params(k1=1, m=2.5), "m must be an integer"),
    (lambda: toy_params(k1=1, q_max=1.0), "q_max must be an integer"),
    (lambda: toy_params(k1=1, ann_margin=2.5), "ann_margin must be an integer"),
    (lambda: toy_params(k1=1, ell_factor=True), "ell_factor must be a real number"),
    (lambda: faithful_params(SPEC2, 1029.5), "k1 must be an integer"),
    (lambda: CylinderEvent("e", 1.5, ((EAST, True),)), "L must be an integer"),
    (lambda: CylinderEvent("e", 1, ((EAST, "no"),)), "pattern state must be true or false"),
    (lambda: CylinderEvent("e", 1, ((EAST, 1),)), "pattern state must be true or false"),
], ids=["d-bool", "d-float", "lam-float", "seed-float", "seed-bool", "p-bool", "k1-float",
        "k1-bool", "m-float", "q-max-float", "margin-float", "ell-factor-bool",
        "faithful-k1-float", "L-float", "state-string", "state-int"])
def test_constructors_refuse_non_numbers(build, message):
    # each used to escape mid-run as a TypeError or AttributeError, or to run
    # as the nearest integer or truth value (d true as d = 1, "no" as open)
    with pytest.raises(ValueError, match=message):
        build()
