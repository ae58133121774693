"""Geometry of Z^d: edge sets, boxes, annuli, and their boundaries.

Conventions used throughout the package:

* Sites are integer coordinate tuples of length ``d``.
* ``B(x; r)`` is the closed l-infinity ball ``x + [-r, r]^d``; ``B(x; -1)``
  is empty, so an annulus with inner radius ``-1`` degenerates to a box and
  ``annulus(x, -1, 0)`` is the singleton ``{x}``.
* Two edge modes: nearest-neighbour (``{x, y}`` with ``|x - y|_1 = 1``) and
  spread-out (``0 < |x - y|_inf <= lam``).
* The inner boundary of the annulus ``A = B(x; s) \\ B(x; r)`` is the set of
  sites of ``A`` with an edge into ``B(x; r)``; the outer boundary is the set
  of sites of ``A`` with an edge out of ``B(x; s)``.  :func:`boundary_membership`
  is the package's only rule for deciding them.

Everything here is deterministic and purely combinatorial; randomness enters
only in :mod:`percolab.engine`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from operator import add, sub
from typing import Iterator, Optional, Tuple

Site = Tuple[int, ...]
Edge = Tuple[Site, Site]

NEAREST_NEIGHBOUR = "nearest_neighbour"
SPREAD_OUT = "spread_out"

#: Hard guard against accidentally materialising an astronomically large
#: region (faithful-mode radii are powers of two with multi-million digit
#: exponents and must stay symbolic).
MATERIALISE_LIMIT = 80_000_000


class WindowTooLargeError(ValueError):
    """A region or window too large to materialise: a refusal to run on a
    bad input, not a broken invariant."""


def check_numbers(kind: type, name: str, *values) -> None:
    """Refuse (``ValueError``) any of ``values`` that is not a ``kind``
    (``Integral`` or ``Real``), or is a ``bool``: ``True`` is an ``int``.
    An exact ``int``, or ``float`` for ``Real``, skips the slower ABC check:
    every sample's config is checked."""
    for value in values:
        if type(value) is int or (type(value) is float and kind is not Integral):
            continue
        if isinstance(value, bool) or not isinstance(value, kind):
            noun = "an integer" if kind is Integral else "a real number"
            raise ValueError(f"{name} must be {noun}, got {value!r}")


@dataclass(frozen=True)
class LatticeSpec:
    """Dimension plus edge-set choice.

    ``lam`` is the spread-out range and must be >= 1 in spread-out mode; it is
    forced to 0 in nearest-neighbour mode so that boundary-gap arithmetic
    (which uses ``2 * lam + 1``) works uniformly.
    """

    d: int
    edge_mode: str = NEAREST_NEIGHBOUR
    lam: int = 0

    def __post_init__(self):
        check_numbers(Integral, "dimension", self.d)
        check_numbers(Integral, "lam", self.lam)
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.edge_mode not in (NEAREST_NEIGHBOUR, SPREAD_OUT):
            raise ValueError(f"unknown edge_mode {self.edge_mode!r}")
        if self.edge_mode == SPREAD_OUT and self.lam < 1:
            raise ValueError("spread-out mode needs lam >= 1")
        if self.edge_mode == NEAREST_NEIGHBOUR and self.lam != 0:
            raise ValueError("nearest-neighbour mode forces lam = 0")

    @property
    def degree(self) -> int:
        """Number of neighbours of any site (translation invariant)."""
        if self.edge_mode == NEAREST_NEIGHBOUR:
            return 2 * self.d
        return (2 * self.lam + 1) ** self.d - 1

    def offsets(self) -> Tuple[Site, ...]:
        """Neighbour offsets in a fixed lexicographic order."""
        return self._offsets

    @cached_property
    def _offsets(self) -> Tuple[Site, ...]:
        # Built on first use and kept in the instance (not a field, so
        # equality, hashing and repr are unchanged).
        if self.edge_mode == NEAREST_NEIGHBOUR:
            offs = []
            for i in range(self.d):
                for sgn in (-1, 1):
                    v = [0] * self.d
                    v[i] = sgn
                    offs.append(tuple(v))
            return tuple(sorted(offs))
        rng = range(-self.lam, self.lam + 1)
        return tuple(
            v for v in itertools.product(rng, repeat=self.d) if any(c != 0 for c in v)
        )


def norm_inf(x: Site) -> int:
    return max(abs(c) for c in x)


def is_edge(spec: LatticeSpec, x: Site, y: Site) -> bool:
    if len(x) != spec.d or len(y) != spec.d:
        return False
    if spec.edge_mode == NEAREST_NEIGHBOUR:
        return sum(abs(a - b) for a, b in zip(x, y)) == 1
    dist = max(abs(a - b) for a, b in zip(x, y))
    return 0 < dist <= spec.lam


def canonical_edge(spec: LatticeSpec, x: Site, y: Site) -> Edge:
    """Order the endpoints lexicographically; reject non-edges."""
    if not is_edge(spec, x, y):
        raise ValueError(f"{x}-{y} is not an edge of the {spec.edge_mode} lattice")
    return (x, y) if x < y else (y, x)


def neighbours(spec: LatticeSpec, x: Site) -> Tuple[Site, ...]:
    """All lattice neighbours of ``x`` in a fixed deterministic order."""
    return tuple(tuple(map(add, x, v)) for v in spec.offsets())


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """The annulus ``B(center; outer) \\ B(center; inner)``.

    A box is the annulus with ``inner == -1``.  Finite site sets of any
    other shape are plain ``frozenset``s, which every explorer accepts.
    """

    center: Site
    inner: int
    outer: int

    def __post_init__(self):
        if self.inner < -1:
            raise ValueError("inner radius must be >= -1")
        if self.outer <= self.inner:
            raise ValueError(
                f"outer radius must exceed inner radius, got {self.inner}, {self.outer}"
            )


def box(center: Site, r: int) -> Region:
    """``B(center; r)`` as a region (annulus with empty inner hole)."""
    if r < 0:
        raise ValueError("box radius must be >= 0")
    return Region(tuple(center), -1, r)


def annulus(center: Site, r: int, s: int) -> Region:
    """``B(center; s) \\ B(center; r)``; ``r = -1`` gives the full box."""
    return Region(tuple(center), r, s)


def contains(region: Region, x: Site) -> bool:
    return region.inner < max(map(abs, map(sub, x, region.center))) <= region.outer


def site_count(region: Region, d: Optional[int] = None) -> int:
    """Exact cardinality in closed form (safe for huge radii)."""
    if d is None:
        d = len(region.center)
    outer = (2 * region.outer + 1) ** d
    inner = 0 if region.inner < 0 else (2 * region.inner + 1) ** d
    return outer - inner


def region_sites(region: Region) -> Iterator[Site]:
    """Iterate the sites of a region in lexicographic order.

    Refuses a region of more than :data:`MATERIALISE_LIMIT` sites: faithful-
    mode annuli are meant to be reasoned about symbolically, never enumerated.
    """
    if site_count(region) > MATERIALISE_LIMIT:
        raise WindowTooLargeError(
            f"region with {site_count(region)} sites exceeds materialisation limit {MATERIALISE_LIMIT}"
        )
    c = region.center
    s = region.outer
    r = region.inner
    rng = range(-s, s + 1)
    # The hole is skipped, not filtered: once the first d-1 offsets lie in
    # [-r, r], the last one runs only over |o| > r.  Same lexicographic order.
    rim = [o for o in rng if abs(o) > r]
    for head in itertools.product(rng, repeat=len(c) - 1):
        for last in (rng if max(map(abs, head), default=-1) > r else rim):
            yield tuple(map(add, c, head + (last,)))


def boundary_membership(spec: LatticeSpec, region: Region, y: Site) -> Tuple[bool, bool]:
    """Is the region site ``y`` on the (inner, outer) boundary of ``region``?

    The one rule for annulus boundaries, by arithmetic on ``y``'s offset from
    the center.
    """
    r, s = region.inner, region.outer
    off = [abs(a - c) for a, c in zip(y, region.center)]
    n = max(off)
    if spec.edge_mode == NEAREST_NEIGHBOUR:
        # A single +-e_i step into B(x;r) exists iff exactly one coordinate
        # attains modulus r+1 and the rest are <= r.
        inner = r >= 0 and n == r + 1 and off.count(r + 1) == 1
        outer = n == s
    else:
        # Clamping y onto B(x;r) realises the l-infinity distance, so a site of
        # the region has an edge into the hole iff its norm is <= r + lam.
        inner = r >= 0 and r < n <= r + spec.lam
        outer = n >= s - spec.lam + 1
    return (inner, outer)


def region_boundaries(spec: LatticeSpec, region: Region) -> Tuple[Tuple[Site, ...], Tuple[Site, ...]]:
    """Inner and outer boundary of an annulus ``B(x;s) \\ B(x;r)``.

    Inner boundary: sites of the region with an edge into ``B(x; r)``.
    Outer boundary: sites of the region with an edge out of ``B(x; s)``.
    """
    c = region.center
    r, s = region.inner, region.outer
    if site_count(region, spec.d) > MATERIALISE_LIMIT:
        raise WindowTooLargeError("refusing to enumerate boundaries of a huge region")
    # No edge is longer than w in sup norm, so boundary sites lie within w of
    # the hole or of the outer shell: only those two bands are walked, in
    # region_sites' lexicographic order, so both lists come out sorted.
    w = max(spec.lam, 1)
    inner = [y for y in region_sites(annulus(c, r, min(r + w, s)))
             if boundary_membership(spec, region, y)[0]]
    outer = [y for y in region_sites(annulus(c, max(s - w, r), s))
             if boundary_membership(spec, region, y)[1]]
    return tuple(inner), tuple(outer)


def edges_within(spec: LatticeSpec, region: Region) -> Iterator[Edge]:
    """Canonical edges with *both* endpoints in the region (sorted order)."""
    sites = list(region_sites(region))
    sset = set(sites)
    for x in sites:
        for y in neighbours(spec, x):
            if y > x and y in sset:
                yield (x, y)


def edge_count_box(spec: LatticeSpec, r: int) -> int:
    """Exact ``|E(B(0; r))|`` via closed form (arbitrary precision).

    Nearest neighbour: ``d * (N - 1) * N^{d-1}`` with ``N = 2r + 1``.
    Spread-out: each offset ``v`` contributes ``prod_j (N - |v_j|)`` ordered
    pairs, summed over nonzero ``|v|_inf <= lam`` and halved.
    """
    n = 2 * r + 1
    d = spec.d
    if spec.edge_mode == NEAREST_NEIGHBOUR:
        return d * (n - 1) * n ** (d - 1)
    total = 0
    rng = range(-spec.lam, spec.lam + 1)
    for v in itertools.product(rng, repeat=d):
        if all(c == 0 for c in v):
            continue
        prod = 1
        for c in v:
            prod *= n - abs(c)
        total += prod
    assert total % 2 == 0
    return total // 2

