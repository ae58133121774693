"""Seed-deterministic Bernoulli bond percolation with lazy edge states.

The state of an edge is a pure function of ``(seed, sample_id, edge, p)``:
nothing is ever stored, so exploring a cluster costs O(cluster size) memory
in any dimension.  The bit is derived from a counter-based 64-bit hash:

1. an *edge key* ``K(seed, e)`` absorbs the seed and the canonical edge
   encoding (endpoint coordinate tuples in lexicographic order), one
   avalanche round per absorbed word;
2. a *sample key* ``S = mix(sample_id ^ 0x5851F42D4C957F2D)``, for sample
   ids ``0 <= sample_id < 2^64``;
3. the edge is open iff ``mix(K ^ S) < floor(p * 2^64)``.

``mix`` is the splitmix64 finalizer.  Because the edge key does not depend
on the sample, bulk samplers can hash a whole window's edges once and then
produce any number of samples with a single avalanche pass per sample.  The
construction is frozen by the test vectors in ``tests/test_engine.py``;
changing it is a format break.  Step 3 is written once for scalars, in
:func:`raw_edge_state`, and once for arrays.  A :class:`PercolationConfig`
computes its threshold ``floor(p * 2^64)`` and its sample key at most once.

The lazy explorer is one breadth-first frontier loop, :func:`explore`:
sources, a membership predicate, an edge-state callable, an optional target
for early exit and an optional ``edge_log`` of every (edge, bit) queried.
A region is a :class:`~percolab.lattice.Region` (an annulus or a box), a
``frozenset`` of sites, or a membership predicate (:data:`RegionLike`).  A
region must be finite, as every caller's is (a predicate is bounded by a
norm): nothing else bounds the closure, so every answer is certain.  The
explorer has no production caller, since every experiment samples on
windows (:mod:`percolab.windowed`); only the lazy references the tests hold
the window code against sit on it: ``connect_sets`` for kernel extraction's
window queries, ``explore_cluster`` (frozen clusters for the regularity
tests) and ``spanning_clusters`` for the window scan and its minimality
check, and, run directly under a two-sample edge-state callable, the
regularity resampling's reference.  Only edges with both endpoints inside
the allowed region are ever queried; the tests read the ``edge_log`` to
prove such measurability claims (e.g. spanning-cluster detection never
touches an edge outside the annulus).
Annulus geometry is not decided here: cluster records take their boundary
sites from :func:`percolab.lattice.boundary_membership`, and
spanning-cluster detection starts from
:func:`percolab.lattice.region_boundaries`.

The oracle twin is the exact tier over explicit graphs of at most 24 edges.
A vectorised query (built on :meth:`TinyGraph.reach`, which sweeps the open
edges of every configuration at once) fills an event table over all ``2^m``
configuration masks in :func:`exact_event_table`, and ``enumerate_exact``
reads that table into an exact rational: the true masks are counted per
number of open edges and weighted in integer arithmetic.  No query takes a
vertex restriction: restricting to a vertex set ``S`` is the edge mask
``masks & tg.within(S)``, which keeps the edges with both ends in ``S``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from numbers import Integral, Real
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .lattice import (
    Edge,
    LatticeSpec,
    Region,
    Site,
    boundary_membership,
    check_numbers,
    contains,
    is_edge,
    neighbours,
    region_boundaries,
)

MASK64 = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15
_SAMPLE_SALT = 0x5851F42D4C957F2D
_COORD_SALT_A = 0xD1B54A32D192ED03
_COORD_SALT_B = 0x8CB92BA72F3D8DD7

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(_M1)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(_M2)
    return z ^ (z >> np.uint64(31))


def edge_key(seed: int, e: Edge) -> int:
    """Sample-independent 64-bit key of a canonical edge."""
    # int() admits numpy integers (e.g. coordinates read off Window.sites),
    # whose ``& MASK64`` would overflow; Python ints pass through unchanged.
    h = mix64((int(seed) & MASK64) ^ _PHI)
    a, b = e
    for c in a:
        h = mix64(h ^ (int(c) & MASK64) ^ _COORD_SALT_A)
    for c in b:
        h = mix64(h ^ (int(c) & MASK64) ^ _COORD_SALT_B)
    return h


def sample_key(sample_id: int) -> int:
    """Step 2; ids outside ``[0, 2^64)`` raise ``ValueError``, as they do in
    :func:`_sample_keys_bulk`."""
    if not 0 <= sample_id <= MASK64:
        raise ValueError("sample ids must lie in [0, 2^64)")
    return mix64(sample_id ^ _SAMPLE_SALT)


def open_threshold(p: Union[float, Fraction]) -> int:
    """``floor(p * 2^64)``, computed exactly; ``p = 1`` maps to ``2^64``."""
    frac = Fraction(p)
    if not 0 <= frac <= 1:
        raise ValueError(f"probability {p} outside [0, 1]")
    return math.floor(frac * (1 << 64))


@dataclass(frozen=True)
class PercolationConfig:
    """One sample of the percolation measure.

    ``threshold`` and ``sample_key`` are computed on first use and kept in
    the instance; they are not fields, so equality, hashing and ``repr`` see
    only ``(spec, p, seed, sample_id)``.
    """

    spec: LatticeSpec
    p: float
    seed: int
    sample_id: int = 0

    def __post_init__(self):
        check_numbers(Integral, "seed", self.seed)
        check_numbers(Real, "p", self.p)
        if not 0 <= self.p <= 1:
            raise ValueError(f"p = {self.p} outside [0, 1]")
        if not 0 <= self.sample_id <= MASK64:
            raise ValueError(f"sample id {self.sample_id} outside [0, 2^64)")

    @cached_property
    def threshold(self) -> int:
        return open_threshold(self.p)

    @cached_property
    def sample_key(self) -> int:
        return sample_key(self.sample_id)

    def with_sample(self, sample_id: int) -> "PercolationConfig":
        return PercolationConfig(self.spec, self.p, self.seed, sample_id)


def edge_state(cfg: PercolationConfig, e: Edge) -> int:
    """Deterministic Bernoulli(p) bit for a canonical edge.

    Validates the edge against the lattice; exploration loops use the
    unvalidated :func:`raw_edge_state` on edges built from ``neighbours``.
    """
    a, b = e
    if not (a < b and is_edge(cfg.spec, a, b)):
        raise ValueError(f"{e} is not a canonical edge for this lattice")
    return raw_edge_state(cfg, e)


def raw_edge_state(cfg: PercolationConfig, e: Edge) -> int:
    """The bit of a canonical edge under ``cfg``, unvalidated: step 3 on its key."""
    return 1 if mix64(edge_key(cfg.seed, e) ^ cfg.sample_key) < cfg.threshold else 0


def edge_keys_bulk(seed: int, a_cols: Sequence[np.ndarray],
                   b_cols: Sequence[np.ndarray]) -> np.ndarray:
    """Vectorised :func:`edge_key` over coordinate columns.

    ``a_cols``/``b_cols`` hold the ``d`` signed integer coordinate columns of
    the canonical (lexicographically smaller) end and of the other end.  All
    ``2d`` columns broadcast together, and so does the result: a window
    passes ``(n, 1)`` first-end columns against ``(n, k)`` second-end ones,
    and hashes each first end once.
    """
    h = np.uint64(mix64((seed & MASK64) ^ _PHI))
    for x in a_cols:
        h = _mix64_np(h ^ np.asarray(x, dtype=np.int64).view(np.uint64)
                      ^ np.uint64(_COORD_SALT_A))
    for x in b_cols:
        h = _mix64_np(h ^ np.asarray(x, dtype=np.int64).view(np.uint64)
                      ^ np.uint64(_COORD_SALT_B))
    return h


def _states_np(keys: np.ndarray, skeys: np.ndarray, threshold: int) -> np.ndarray:
    """Step 3, ``mix(K ^ S) < threshold``, over broadcast edge and sample keys."""
    if threshold >= 1 << 64:
        return np.ones(np.broadcast(keys, skeys).shape, dtype=np.uint8)
    return (_mix64_np(keys ^ skeys) < np.uint64(threshold)).astype(np.uint8)


def states_from_keys(
    keys: np.ndarray, sample_ids: Union[int, range], threshold: int
) -> np.ndarray:
    """Edge bits given precomputed edge keys: for one sample id, an array
    shaped like ``keys``; for a ``range`` of ids, one more leading axis, row
    ``i`` for ``sample_ids[i]``, from one hash pass."""
    if isinstance(sample_ids, range):
        return _states_np(keys, _sample_keys_bulk(sample_ids)[:, None], threshold)
    return _states_np(keys, np.uint64(sample_key(sample_ids)), threshold)


def _sample_keys_bulk(sample_ids) -> np.ndarray:
    """Vectorised :func:`sample_key`; ids outside ``[0, 2^64)`` raise
    ``ValueError``, as they do in :class:`PercolationConfig`."""
    ids = np.asarray(sample_ids)
    if ids.dtype.kind == "i" and ids.size and ids.min() < 0:
        raise ValueError("sample ids must lie in [0, 2^64)")
    try:
        ids = np.asarray(sample_ids, dtype=np.uint64)
    except OverflowError:
        raise ValueError("sample ids must lie in [0, 2^64)") from None
    return _mix64_np(ids ^ np.uint64(_SAMPLE_SALT))


# ---------------------------------------------------------------------------
# Cluster exploration
# ---------------------------------------------------------------------------

RegionLike = Union[Region, FrozenSet[Site], Callable[[Site], bool]]


def membership(region: RegionLike) -> Callable[[Site], bool]:
    """The membership predicate of a region, a site set or a predicate."""
    if isinstance(region, Region):
        return lambda x: contains(region, x)
    if isinstance(region, (frozenset, set)):
        return region.__contains__
    return region


def explore(
    spec: LatticeSpec,
    sources: Iterable[Site],
    member: Callable[[Site], bool],
    state: Callable[[Edge], int],
    target: Optional[Callable[[Site], bool]] = None,
    edge_log: Optional[list] = None,
) -> Tuple[Set[Site], bool]:
    """The frontier loop behind every lattice exploration in the package.

    Grows the open cluster of the ``sources`` that satisfy ``member``, through
    neighbours that satisfy ``member``; ``state(e)`` is the bit of the
    canonical edge ``e`` and is only asked for edges with both endpoints in
    the region, which must be finite.  Returns ``(visited, reached)``:
    ``reached`` is ``True`` as soon as a site satisfying ``target`` is
    reached (a source included), and ``False`` once the closure is complete.

    An edge is queried only towards a site not yet visited, so each is
    queried at most once.  ``edge_log`` receives every queried
    ``(edge, bit)`` in order.  The frontier is FIFO (breadth-first).
    """
    visited: Set[Site] = set()
    frontier: "deque[Site]" = deque()
    for s in sources:
        s = tuple(s)
        if not member(s):
            continue
        if target is not None and target(s):
            return visited, True
        if s not in visited:
            visited.add(s)
            frontier.append(s)
    while frontier:
        y = frontier.popleft()
        for z in neighbours(spec, y):
            if z in visited or not member(z):
                continue
            e = (y, z) if y < z else (z, y)
            bit = state(e)
            if edge_log is not None:
                edge_log.append((e, bit))
            if not bit:
                continue
            if target is not None and target(z):
                return visited, True
            visited.add(z)
            frontier.append(z)
    return visited, False


@dataclass(frozen=True)
class ClusterRecord:
    """The explored open cluster of ``root`` restricted to ``region``.

    ``label`` is the vertex set, stored once as its canonical form: the
    sorted tuple of sites that keys kernel entries and CLI labels.
    ``vertices`` is the same set as a ``frozenset``, built on first use for
    membership tests.  ``boundary_in``/``boundary_out`` are the
    intersections of the vertex set with the boundaries of a
    :class:`~percolab.lattice.Region`, as sorted tuples; both are empty when
    ``region`` is a site set or a predicate.  The vertex set is always the
    whole restricted cluster.  Records, and so labels, are built by
    :func:`explore_cluster`, and by the window scan of
    :mod:`percolab.clusters`, whose records the tests hold field for field
    against :func:`spanning_clusters`.
    """

    root: Site
    region: RegionLike
    label: Tuple[Site, ...]
    boundary_in: Tuple[Site, ...]
    boundary_out: Tuple[Site, ...]

    @cached_property
    def vertices(self) -> FrozenSet[Site]:
        return frozenset(self.label)

    @property
    def min_vertex(self) -> Site:
        return self.label[0]

    @property
    def spans(self) -> bool:
        return bool(self.boundary_in) and bool(self.boundary_out)


def explore_cluster(
    cfg: PercolationConfig,
    x: Site,
    region: RegionLike,
    edge_log: Optional[list] = None,
) -> ClusterRecord:
    """Closure of ``x`` under open edges with both endpoints in ``region``.

    Breadth-first.  Only edges with both endpoints inside the region are
    ever hashed, each at most once.  The lazy reference that freezes
    clusters for the regularity tests and that :func:`spanning_clusters`
    explores with.
    """
    member = membership(region)
    if not member(x):
        raise ValueError(f"root {x} not in region")
    visited, _ = explore(cfg.spec, [x], member, lambda e: raw_edge_state(cfg, e),
                         edge_log=edge_log)
    label = tuple(sorted(visited))
    b_in: List[Site] = []
    b_out: List[Site] = []
    if isinstance(region, Region):  # site sets and predicates have no boundary
        for v in label:
            bi, bo = boundary_membership(cfg.spec, region, v)
            if bi:
                b_in.append(v)
            if bo:
                b_out.append(v)
    return ClusterRecord(
        root=x,
        region=region,
        label=label,
        boundary_in=tuple(b_in),
        boundary_out=tuple(b_out),
    )


def connect_sets(
    cfg: PercolationConfig,
    sources: Iterable[Site],
    targets: Union[Iterable[Site], RegionLike],
    region: RegionLike,
    edge_log: Optional[list] = None,
) -> bool:
    """Is some source joined to some target by an open path in ``region``?

    Sources outside the region are skipped (their other lattice locations
    are irrelevant to a restricted connection); a source that *is* a target
    decides immediately.
    """
    if isinstance(targets, (Region, frozenset, set)) or callable(targets):
        target = membership(targets)
    else:
        target = frozenset(tuple(t) for t in targets).__contains__
    _, reached = explore(cfg.spec, sources, membership(region),
                         lambda e: raw_edge_state(cfg, e), target, edge_log=edge_log)
    return reached


def spanning_clusters(
    cfg: PercolationConfig,
    ann: Region,
    edge_log: Optional[list] = None,
) -> List[ClusterRecord]:
    """All open clusters of an annulus touching both of its boundaries: the
    lazy reference for the window scan of :mod:`percolab.clusters`.

    Explores from every inner-boundary site, deduplicates by membership, and
    returns records sorted by minimal contained vertex.  Only edges with both
    endpoints in the annulus are sampled, which the optional ``edge_log``
    lets tests verify.
    """
    b_in, _ = region_boundaries(cfg.spec, ann)
    seen: Set[Site] = set()
    out: List[ClusterRecord] = []
    for start in b_in:
        if start in seen:
            continue
        rec = explore_cluster(cfg, start, ann, edge_log=edge_log)
        seen.update(rec.label)
        if rec.spans:
            out.append(rec)
    out.sort(key=lambda r: r.min_vertex)
    return out


# ---------------------------------------------------------------------------
# Exact enumeration oracle
# ---------------------------------------------------------------------------

MAX_EXACT_EDGES = 24
_TABLE_CHUNK = 1 << 16  # masks per query call in exact_event_table
_BYTE_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _check_exact_size(n_edges: int) -> None:
    if n_edges > MAX_EXACT_EDGES:
        raise ValueError(f"{n_edges} edges exceeds exact-enumeration cap {MAX_EXACT_EDGES}")


def popcount64(bits: np.ndarray) -> np.ndarray:
    """Number of set bits of every entry of a ``uint64`` array."""
    flat = np.ascontiguousarray(bits, dtype=np.uint64).reshape(-1)
    counts = _BYTE_POPCOUNT[flat.view(np.uint8)].reshape(-1, 8).sum(axis=1)
    return counts.reshape(np.shape(bits))


class TinyGraph:
    """An explicit finite graph whose configurations are integer bitmasks.

    Edge ``j`` of ``self.edges`` is open in configuration ``mask`` iff bit
    ``j`` of ``mask`` is set.  Vertices may be any hashable labels.  No query
    takes a vertex restriction: a query inside a vertex set ``S`` runs on
    ``masks & tg.within(S)``, with its sources and targets cut to ``S``.
    :meth:`reach` and :meth:`connects` answer every mask of an array at once;
    ``components``, ``component_of`` and ``connected`` answer one mask and are
    the per-mask reference.
    """

    def __init__(self, edges: Iterable[Tuple]):
        edges = list(edges)
        _check_exact_size(len(edges))
        canon = []
        seen = set()
        for a, b in edges:
            if a == b:
                raise ValueError("self-loops not allowed")
            canon.append((a, b))
            key = frozenset((a, b))
            if key in seen:
                raise ValueError(f"duplicate edge {a}-{b}")
            seen.add(key)
        self.edges: List[Tuple] = canon
        verts = []
        for a, b in canon:
            for v in (a, b):
                if v not in verts:
                    verts.append(v)
        self.vertices: List = verts
        self._vidx = {v: i for i, v in enumerate(verts)}
        self._eidx = [(self._vidx[a], self._vidx[b]) for a, b in canon]

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_index(self, a, b) -> int:
        for j, (x, y) in enumerate(self.edges):
            if (x, y) == (a, b) or (x, y) == (b, a):
                return j
        raise KeyError(f"no edge {a}-{b}")

    def within(self, vertices: Iterable) -> int:
        """Edge mask of the edges with both ends in ``vertices``: a
        configuration restricted to a vertex set is ``mask & within(S)``."""
        inside = set(vertices)
        return sum(1 << j for j, (a, b) in enumerate(self.edges) if a in inside and b in inside)

    def components(self, mask: int) -> List[Set]:
        """Connected components of the open subgraph of one configuration."""
        n = len(self.vertices)
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for j, (ia, ib) in enumerate(self._eidx):
            if (mask >> j) & 1:
                ra, rb = find(ia), find(ib)
                if ra != rb:
                    parent[ra] = rb
        comps: Dict[int, Set] = {}
        for i in range(n):
            comps.setdefault(find(i), set()).add(self.vertices[i])
        return list(comps.values())

    def component_of(self, mask: int, v) -> Set:
        for comp in self.components(mask):
            if v in comp:
                return comp
        return {v}

    def connected(self, mask: int, sources: Iterable, targets: Iterable) -> bool:
        """Open path from some source to some target in one configuration;
        a source that is also a target connects trivially."""
        src, tgt = set(sources), set(targets)
        if src & tgt:
            return True
        return any(comp & src and comp & tgt for comp in self.components(mask))

    def bits(self, vertices: Iterable) -> int:
        """Bitset of the ``vertices`` that belong to the graph."""
        return sum(1 << self._vidx[v] for v in set(vertices) if v in self._vidx)

    def reach(self, masks: np.ndarray, sources: Iterable) -> np.ndarray:
        """What ``sources`` reach in every configuration of ``masks``, at once.

        Returns one ``uint64`` vertex bitset per mask: bit ``i`` is set iff
        ``self.vertices[i]`` is joined to a source by edges open in the mask.
        Sources outside the graph reach nothing.  The edges are swept until no
        bitset changes; an open edge with one end reached sets both end bits.
        At most 24 edges make at most 48 vertices, so one word holds a bitset.
        """
        masks = np.asarray(masks, dtype=np.int64)
        reached = np.full(masks.shape, self.bits(sources), dtype=np.uint64)
        sweep = [(((masks >> j) & 1).astype(bool), np.uint64((1 << ia) | (1 << ib)))
                 for j, (ia, ib) in enumerate(self._eidx)]
        while True:
            before = reached.copy()
            for is_open, ends in sweep:
                hit = (reached & ends) != 0
                hit &= is_open
                np.bitwise_or(reached, ends, out=reached, where=hit)
            if np.array_equal(reached, before):
                return reached

    def connects(self, masks: np.ndarray, sources: Iterable, targets: Iterable) -> np.ndarray:
        """:meth:`connected` in every configuration of ``masks``, at once."""
        src, tgt = set(sources), set(targets)
        if src & tgt:
            return np.ones(np.shape(masks), dtype=bool)
        return (self.reach(masks, src) & np.uint64(self.bits(tgt))) != 0


def enumerate_exact(
    edges: Sequence[Tuple],
    p: Union[float, Fraction, str],
    table: np.ndarray,
) -> Fraction:
    """Exact probability of an event under i.i.d. Bernoulli(p) edge states.

    ``table`` is the event's indicator over all ``2^m`` configuration masks
    of ``edges`` (see :func:`exact_event_table`).  The sum
    ``sum_masks p^{#open} (1-p)^{#closed} 1{event}`` is accumulated as an
    integer numerator over the common denominator ``den(p)^m``: the true
    masks are counted per popcount and each count is weighted by
    ``a^k c^(m-k)`` in Python integers, so the result is an exact rational
    for rational ``p`` (floats are taken at their exact binary value).
    """
    m = len(edges)
    _check_exact_size(m)
    table = np.asarray(table)
    if table.shape != (1 << m,):
        raise ValueError(f"event table of shape {table.shape} for {m} edges; expected ({1 << m},)")
    pf = Fraction(p)
    if not 0 <= pf <= 1:
        raise ValueError("p outside [0, 1]")
    a, b = pf.numerator, pf.denominator
    c = b - a  # numerator of 1-p over the same denominator
    popcounts = np.zeros(1, dtype=np.uint8)
    for _ in range(m):  # masks [2^j, 2^(j+1)) add bit j to masks [0, 2^j)
        popcounts = np.concatenate([popcounts, popcounts + 1])
    counts = np.bincount(popcounts[table != 0], minlength=m + 1)
    num = sum(int(n) * a**k * c ** (m - k) for k, n in enumerate(counts) if n)
    return Fraction(num, b**m)


def exact_event_table(n_edges: int, query: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Indicator of ``query`` over all ``2^m`` configuration masks.

    ``query`` maps an ``int64`` array of masks to booleans; it is called on
    chunks of at most ``2^16`` masks, so that ``m = 24`` fits in memory.
    """
    _check_exact_size(n_edges)
    total = 1 << n_edges
    out = np.empty(total, dtype=np.uint8)
    for lo in range(0, total, _TABLE_CHUNK):
        masks = np.arange(lo, min(lo + _TABLE_CHUNK, total), dtype=np.int64)
        out[lo:lo + len(masks)] = query(masks)
    return out


def sample_masks(
    cfg: PercolationConfig, edges: Sequence[Edge], sample_ids: np.ndarray
) -> np.ndarray:
    """Configuration bitmasks of an explicit lattice-edge list across samples.

    Edge ``j`` contributes bit ``j``; uses the same hash as every other
    sampler, vectorised over ``sample_ids`` (whose sample keys are hashed
    once for all the edges).
    """
    if len(edges) > 63:
        raise ValueError("mask sampler limited to 63 edges")
    skeys = _sample_keys_bulk(sample_ids)
    masks = np.zeros(len(skeys), dtype=np.uint64)
    thr = cfg.threshold
    for j, e in enumerate(edges):
        bits = _states_np(np.uint64(edge_key(cfg.seed, e)), skeys, thr)
        masks |= bits.astype(np.uint64) << np.uint64(j)
    return masks
