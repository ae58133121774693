"""Cluster-structure analysis: volume tameness, regularity by conditional
resampling, certification of good spanning sets, pivotal edges, and the
attachment-pair set whose cardinality is a.s. at most one.

Conventions fixed here (the source definitions leave them open):
natural logarithms throughout the s^4 log^7 s volume threshold and the
exp(-log^2 s) badness level; conditional resampling freezes every edge with
at least one endpoint in the conditioned cluster; the designated outward /
inward neighbours ("stars") are the lexicographically smallest qualifying
ones.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .engine import (
    ClusterRecord,
    PercolationConfig,
    RegionLike,
    cluster_components,
    edge_key,
    explore,
    explore_cluster,
    keyed_edge_state,
    membership,
    mix64,
    raw_edge_state,
    spanning_clusters,
)
from .estimators import Estimate
from .lattice import (
    Edge,
    Region,
    Site,
    box,
    neighbours,
    norm_inf,
)
from .scales import ScaleIndex, ScaleParams, sub_annulus


# ---------------------------------------------------------------------------
# Volume tameness


def tame_threshold(s: int, log_base: float = math.e) -> float:
    """The volume cutoff s^4 * log(s)^7."""
    if s < 2:
        raise ValueError("tameness threshold needs s >= 2")
    return s**4 * math.log(s, log_base) ** 7


def badness_threshold(s: int, log_base: float = math.e) -> float:
    """The conditional-probability level 1 - exp(-log(s)^2)."""
    if s < 2:
        raise ValueError("badness threshold needs s >= 2")
    return 1.0 - math.exp(-math.log(s, log_base) ** 2)


def _ball_count(sites: Iterable[Site], x: Site, s: int) -> int:
    """Number of ``sites`` within sup-distance ``s`` of ``x``."""
    return sum(1 for v in sites if max(abs(a - b) for a, b in zip(v, x)) <= s)


# ---------------------------------------------------------------------------
# Regularity by conditional resampling


@dataclass(frozen=True)
class RegularityParams:
    """Knobs for the conditional-resampling regularity estimate.

    ``K`` plays the fixed-constant role: a vertex is regular when no tested
    scale s >= K flags it bad.  ``s_list`` are the tested scales.
    """

    K: int = 2
    s_list: Tuple[int, ...] = (2, 3, 4)
    n_inner: int = 400
    log_base: float = math.e

    def __post_init__(self):
        if self.K < 2:
            raise ValueError("K must be >= 2")
        if any(s < 2 for s in self.s_list):
            raise ValueError("all tested scales must be >= 2")
        if self.n_inner < 100:
            raise ValueError("n_inner must be >= 100")
        if self.log_base <= 1:
            raise ValueError("log base must exceed 1")


@dataclass
class RegularityReport:
    x: Site
    frozen_size: int
    per_s: List[Tuple[int, Estimate, float, Optional[bool]]]
    regular: Optional[bool]


# A resampled cluster reaching this many sites aborts the estimate.
_RESAMPLE_CAP = 200_000


def _inner_sample_id(outer_sample: int, inner: int) -> int:
    """A derived sample stream for nested resampling, separated from the
    outer id space by an avalanche pass (63-bit to stay nonnegative)."""
    return mix64(((outer_sample & 0xFFFFFFFF) << 31) ^ inner ^ 0xA5A5_0F0F_3C3C_9696) >> 1


def estimate_regularity(
    cfg: PercolationConfig,
    x: Site,
    cluster: ClusterRecord,
    params: RegularityParams,
    resample_region: Optional[RegionLike] = None,
) -> RegularityReport:
    """Estimate P(volume-tame at scale s | the realized restricted cluster).

    ``cluster`` is the restricted cluster of ``x`` under ``cfg``, explored by
    the caller (e.g. ``explore_cluster(cfg, x, region)``, or a record the
    caller already holds); it must contain ``x`` and must not be truncated.
    Every edge touching it (either endpoint) is frozen at its realized
    state; all other edges are redrawn ``n_inner`` times from independent
    derived sample streams, each edge key hashed once per call.  For each
    tested s, the frequency of the tameness event is compared against
    1 - exp(-log^2 s): the vertex is declared bad at s when the estimate sits
    below the level by more than 3 sigma, not-bad when above by more than
    3 sigma, and undecided in between.

    Regular = no tested s >= K is bad.  A frozen cluster that already meets
    the volume threshold at some s >= K is bad with probability one and
    skips resampling entirely.
    """
    if x not in cluster.vertices:
        raise ValueError(f"{x} is not in the conditioning cluster")
    if cluster.truncated:
        raise RuntimeError("conditioning cluster exploration was truncated")
    frozen = cluster.vertices
    s_max = max(params.s_list)
    if resample_region is None:
        resample_region = box(x, 2 * s_max)

    thresholds = {
        s: tame_threshold(s, params.log_base) for s in params.s_list
    }
    frozen_counts = {s: _ball_count(frozen, x, s) for s in params.s_list}
    deterministic_bad = {
        s for s in params.s_list if frozen_counts[s] >= thresholds[s]
    }
    # The ball has only (2s+1)^d sites; when that is below the threshold the
    # tameness event is sure regardless of the resample.
    deterministic_tame = {
        s
        for s in params.s_list
        if s not in deterministic_bad
        and (2 * s + 1) ** cfg.spec.d < thresholds[s]
    }

    per_s: List[Tuple[int, Estimate, float, Optional[bool]]] = []
    pending = [
        s
        for s in params.s_list
        if s not in deterministic_bad and s not in deterministic_tame
    ]
    tallies = {s: 0 for s in pending}
    if pending:
        member = membership(resample_region)
        keys: Dict[Edge, int] = {}  # edge keys do not depend on the sample
        for inner in range(params.n_inner):
            inner_cfg = cfg.with_sample(_inner_sample_id(cfg.sample_id, inner))

            def state(e: Edge) -> int:
                key = keys.get(e)
                if key is None:
                    key = keys[e] = edge_key(cfg.seed, e)
                frozen_edge = e[0] in frozen or e[1] in frozen
                return keyed_edge_state(cfg if frozen_edge else inner_cfg, key)

            cluster, outcome = explore(cfg.spec, [x], member, state,
                                       cap=_RESAMPLE_CAP - 1)
            if outcome is None:
                raise RuntimeError("mixed exploration exceeded its cap")
            for s in pending:
                tallies[s] += int(_ball_count(cluster, x, s) < thresholds[s])

    for s in params.s_list:
        level = badness_threshold(s, params.log_base)
        if s in deterministic_bad:
            est = Estimate(0.0, 0.0, 0, 0, cfg.seed, (0, 0))
            per_s.append((s, est, level, False))
            continue
        if s in deterministic_tame:
            est = Estimate(1.0, 0.0, 0, 0, cfg.seed, (0, 0))
            per_s.append((s, est, level, True))
            continue
        est = Estimate.from_counts(tallies[s], params.n_inner, 0, cfg.seed)
        if est.value - 3 * est.stderr > level:
            verdict: Optional[bool] = True
        elif est.value + 3 * est.stderr < level:
            verdict = False
        else:
            verdict = None
        per_s.append((s, est, level, verdict))

    relevant = [v for s, _, _, v in per_s if s >= params.K]
    if any(v is False for v in relevant):
        regular: Optional[bool] = False
    elif all(v is True for v in relevant):
        regular = True
    else:
        regular = None
    return RegularityReport(
        x=x, frozen_size=len(frozen), per_s=per_s, regular=regular
    )


# ---------------------------------------------------------------------------
# Good spanning sets


@dataclass(frozen=True)
class GoodSpanningParams:
    """Certification knobs: boundary-size exponent windows (applied to the
    actual annulus radii) and the required regular fraction."""

    lo: float = 7 / 4
    hi: float = 9 / 4
    regular_fraction: float = 0.5
    check_minimality: bool = True

    def __post_init__(self):
        if not 0 < self.lo < self.hi:
            raise ValueError("need 0 < lo < hi")
        if not 0 < self.regular_fraction <= 1:
            raise ValueError("regular fraction must lie in (0, 1]")


@dataclass
class SpanningSetRecord:
    cluster: ClusterRecord
    level: int
    q: int
    good: bool
    failure_reasons: List[str] = field(default_factory=list)
    regular_in: FrozenSet[Site] = frozenset()
    regular_out: FrozenSet[Site] = frozenset()
    boundary_windows: Dict[str, Tuple[float, float]] = field(default_factory=dict)


def _boundary_window(radius: int, params: GoodSpanningParams) -> Tuple[float, float]:
    r = max(radius, 1)
    return (r**params.lo, r**params.hi)


def _items_one_to_three(
    cfg: PercolationConfig,
    cluster: ClusterRecord,
    region: Region,
    params: GoodSpanningParams,
    reg: RegularityParams,
) -> Tuple[List[str], FrozenSet[Site], FrozenSet[Site], Dict[str, Tuple[float, float]]]:
    """Shared evaluation of spanning, boundary windows, and regular fractions
    for a cluster relative to ``region``; returns failure reasons."""
    reasons: List[str] = []
    b_in = cluster.boundary_in
    b_out = cluster.boundary_out
    if not (b_in and b_out):
        reasons.append("does not span (misses a boundary)")
    win_in = _boundary_window(max(region.inner, 0) or 1, params)
    win_out = _boundary_window(region.outer, params)
    windows = {"inner": win_in, "outer": win_out}
    if not win_in[0] <= len(b_in) <= win_in[1]:
        side = "small" if len(b_in) < win_in[0] else "large"
        reasons.append(
            f"inner boundary too {side} ({len(b_in)} outside [{win_in[0]:.3g}, {win_in[1]:.3g}])"
        )
    if not win_out[0] <= len(b_out) <= win_out[1]:
        side = "small" if len(b_out) < win_out[0] else "large"
        reasons.append(
            f"outer boundary too {side} ({len(b_out)} outside [{win_out[0]:.3g}, {win_out[1]:.3g}])"
        )
    reg_in: Set[Site] = set()
    reg_out: Set[Site] = set()
    if not reasons:
        # Regularity is the expensive item; only evaluated when the cheap
        # geometry already passes.
        for side, bnd, acc in (("inner", b_in, reg_in), ("outer", b_out, reg_out)):
            for v in sorted(bnd):
                rep = estimate_regularity(cfg, v, cluster, reg)
                if rep.regular:
                    acc.add(v)
            frac = len(acc) / len(bnd)
            if frac < params.regular_fraction:
                reasons.append(
                    f"{side} boundary regular fraction {frac:.3f} < {params.regular_fraction}"
                )
    return reasons, frozenset(reg_in), frozenset(reg_out), windows


def good_spanning_check(
    cfg: PercolationConfig,
    candidate: ClusterRecord,
    idx: ScaleIndex,
    q: int,
    scale_params: ScaleParams,
    params: GoodSpanningParams,
    reg: RegularityParams,
) -> SpanningSetRecord:
    """Certify a spanning cluster of the level-``idx.i`` sub-annulus ``q``.

    Items checked: (1) the candidate spans its sub-annulus; (2) its inner and
    outer boundary cardinalities fall in the radius-power windows; (3) at
    least the required fraction of each boundary is regular; (4) minimality —
    no connected component of the candidate restricted to a smaller
    sub-annulus passes (1)-(3) there.
    """
    region = sub_annulus(cfg.spec, idx, q, scale_params)
    if not candidate.spans:
        raise ValueError("candidate does not span its sub-annulus")
    reasons, reg_in, reg_out, windows = _items_one_to_three(
        cfg, candidate, region, params, reg
    )
    if params.check_minimality and not reasons:
        for r in range(1, q):
            sub = sub_annulus(cfg.spec, idx, r, scale_params)
            for comp in cluster_components(cfg.spec, candidate, sub):
                comp_reasons, _, _, _ = _items_one_to_three(
                    cfg, comp, sub, params, reg
                )
                if not comp_reasons:
                    reasons.append(
                        f"not minimal: a component already qualifies in sub-annulus {r}"
                    )
                    break
            else:
                continue
            break
    return SpanningSetRecord(
        cluster=candidate,
        level=idx.i,
        q=q,
        good=not reasons,
        failure_reasons=reasons,
        regular_in=reg_in,
        regular_out=reg_out,
        boundary_windows=windows,
    )


def scan_good_spanning(
    cfg: PercolationConfig,
    idx: ScaleIndex,
    scale_params: ScaleParams,
    params: GoodSpanningParams,
    reg: RegularityParams,
    q_list: Optional[Sequence[int]] = None,
) -> List[SpanningSetRecord]:
    """Certify every spanning cluster of every sub-annulus at one level."""
    if q_list is None:
        q_list = range(1, scale_params.q_max + 1)
    out: List[SpanningSetRecord] = []
    for q in q_list:
        region = sub_annulus(cfg.spec, idx, q, scale_params)
        records, incomplete = spanning_clusters(cfg, region)
        if incomplete:
            raise RuntimeError(f"spanning-cluster scan truncated at q={q}")
        for rec in records:
            out.append(
                good_spanning_check(cfg, rec, idx, q, scale_params, params, reg)
            )
    return out


# ---------------------------------------------------------------------------
# Pivotal edges


def pivotal_from_graph(
    adj: Mapping, sources: Iterable, targets: Iterable
) -> Set[frozenset]:
    """Edges of the open graph whose removal disconnects sources from targets.

    ``adj`` maps each vertex to its open neighbours (a dict of lists or an
    ``nx.Graph``); sources and targets it does not hold are ignored.  A
    pivotal edge lies on every source-target path, so the candidates are the
    edges of one shortest path, each kept iff the targets are unreachable
    without it.
    """
    src = [s for s in sources if s in adj]
    tgt = {t for t in targets if t in adj}
    path = _shortest_path(adj, src, tgt)
    if path is None:
        raise ValueError("sources and targets are not connected")
    return {e for e in path if _shortest_path(adj, src, tgt, cut=e) is None}


def _shortest_path(adj: Mapping, src: List, tgt: Set,
                   cut: FrozenSet = frozenset()) -> Optional[List[frozenset]]:
    """Edges of a shortest ``src``-``tgt`` path avoiding the edge ``cut``
    (breadth-first search), or None when there is no such path."""
    parent = {s: s for s in src}
    frontier = deque(src)
    while frontier:
        u = frontier.popleft()
        if u in tgt:
            path = []
            while parent[u] != u:
                path.append(frozenset((parent[u], u)))
                u = parent[u]
            return path
        for v in adj[u]:
            if v not in parent and not (u in cut and v in cut):
                parent[v] = u
                frontier.append(v)
    return None


def pivotal_edges(
    cfg: PercolationConfig,
    sources: Iterable[Site],
    targets: Iterable[Site],
    restriction: RegionLike,
) -> Set[frozenset]:
    """Open pivotal edges for {sources <-> targets} within a lattice region.

    The graph is the sources' open cluster within ``restriction``, explored
    once: no other part of the region can hold a pivotal edge.
    """
    sources = list(sources)
    open_edges: Set[Edge] = set()
    visited, _ = explore(cfg.spec, sources, membership(restriction),
                         lambda e: raw_edge_state(cfg, e),
                         cap=math.inf, open_edges=open_edges)
    adj: Dict[Site, List[Site]] = {v: [] for v in visited}
    for a, b in open_edges:
        adj[a].append(b)
        adj[b].append(a)
    return pivotal_from_graph(adj, sources, targets)


# ---------------------------------------------------------------------------
# The attachment-pair set


def outward_star(spec, x: Site, outer_radius: int) -> Optional[Site]:
    """Lexicographically smallest neighbour of x strictly outside
    B(0; outer_radius)."""
    cands = [y for y in neighbours(spec, x) if norm_inf(y) > outer_radius]
    return min(cands) if cands else None


def inward_star(spec, x: Site, hole_radius: int) -> Optional[Site]:
    """Lexicographically smallest neighbour of x inside B(0; hole_radius)."""
    cands = [y for y in neighbours(spec, x) if norm_inf(y) <= hole_radius]
    return min(cands) if cands else None


def verify_pinned(cfg: PercolationConfig, cluster: ClusterRecord) -> bool:
    """Does the realized configuration make ``cluster`` a spanning cluster of
    its region (all its edges open, all other region edges touching it
    closed, both boundaries met)?"""
    if not cluster.spans:
        return False
    rec = explore_cluster(cfg, cluster.root, cluster.region)
    return rec.vertices == cluster.vertices


def y_set(
    cfg: PercolationConfig,
    c_rec: SpanningSetRecord,
    d_rec: SpanningSetRecord,
    mid: Region,
) -> Set[Tuple[Site, Site]]:
    """Pairs (x_i, x_j) of regular boundary vertices whose designated
    attachment edges are open and pivotal for the mid-region connection.

    x_i ranges over the regular outer boundary of C (outward star past C's
    annulus), x_j over the regular inner boundary of D (inward star into
    D's annulus hole); the connection event is {C <-> D within ``mid``}.
    """
    for role, rec in (("C", c_rec), ("D", d_rec)):
        if not verify_pinned(cfg, rec.cluster):
            raise ValueError(f"{role} is not pinned as a spanning cluster here")
    spec = cfg.spec
    c_region = c_rec.cluster.region
    d_region = d_rec.cluster.region
    if not (isinstance(c_region, Region) and isinstance(d_region, Region)):
        raise ValueError("records must carry annulus regions")

    try:
        piv = pivotal_edges(cfg, c_rec.cluster.vertices, d_rec.cluster.vertices, mid)
    except ValueError:
        return set()

    out: Set[Tuple[Site, Site]] = set()
    for xi in sorted(c_rec.regular_out):
        xs = outward_star(spec, xi, c_region.outer)
        if xs is None:
            continue
        e_i = frozenset((xi, xs))
        if e_i not in piv:
            continue
        for xj in sorted(d_rec.regular_in):
            xjs = inward_star(spec, xj, d_region.inner)
            if xjs is None:
                continue
            e_j = frozenset((xj, xjs))
            if e_j in piv:
                out.add((xi, xj))
    return out
