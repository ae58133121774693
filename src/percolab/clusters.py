"""Cluster-structure analysis: volume tameness, regularity by conditional
resampling, and certification of good spanning sets.

Conventions fixed here (the source definitions leave them open):
natural logarithms throughout the s^4 log^7 s volume threshold and the
exp(-log^2 s) badness level; conditional resampling freezes every edge with
at least one endpoint in the conditioned cluster.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral, Real
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .engine import ClusterRecord, PercolationConfig, mix64, states_from_keys
from .estimators import Estimate
from .lattice import (
    LatticeSpec, Region, Site, check_numbers, norm_inf, region_boundaries, region_sites,
)
from .scales import ScaleIndex, ScaleParams, sub_annulus
from .windowed import Window, build_window, component_labels, origin_cluster, sample_open_edges


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


def _ball_counts(sites: Iterable[Site], x: Site, scales: Iterable[int]) -> Dict[int, int]:
    """Number of ``sites`` within sup-distance ``s`` of ``x``, for each ``s``
    in ``scales``, from one pass over ``sites``."""
    dist = Counter(max(abs(a - b) for a, b in zip(v, x)) for v in sites)
    return {s: sum(n for r, n in dist.items() if r <= s) for s in scales}


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
        check_numbers(Integral, "K", self.K)
        check_numbers(Integral, "every s_list entry", *self.s_list)
        check_numbers(Integral, "n_inner", self.n_inner)
        check_numbers(Real, "log_base", self.log_base)
        if self.K < 2:
            raise ValueError("K must be >= 2")
        if not self.s_list or len(set(self.s_list)) < len(self.s_list):
            raise ValueError("s_list must be a non-empty list of distinct scales")
        if any(s < 2 for s in self.s_list):
            raise ValueError("all tested scales must be >= 2")
        if max(self.s_list) < self.K:
            raise ValueError("s_list needs a scale >= K, or no vertex is tested")
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


def _inner_sample_id(outer_sample: int, inner: int) -> int:
    """A derived sample stream for nested resampling, separated from the
    outer id space by an avalanche pass (63-bit to stay nonnegative)."""
    return mix64(((outer_sample & 0xFFFFFFFF) << 31) ^ inner ^ 0xA5A5_0F0F_3C3C_9696) >> 1


def estimate_regularity(
    cfg: PercolationConfig,
    x: Site,
    cluster: ClusterRecord,
    params: RegularityParams,
    resample_region: Optional[Union[Region, FrozenSet[Site]]] = None,
) -> RegularityReport:
    """Estimate P(volume-tame at scale s | the realized restricted cluster).

    ``cluster`` is the restricted cluster of ``x`` under ``cfg``, a record
    the caller already holds (each spanning cluster that
    :func:`good_spanning_check` certifies); it must contain ``x``.
    Every edge touching it (either endpoint) is frozen at its realized
    state; the other edges of ``B(x; 2 s_max)`` (or of ``resample_region``,
    a test hook that must hold ``x``) are redrawn ``n_inner`` times from
    derived sample streams.

    The resampling runs on one window centred at ``x``, of ``(4 s_max +
    1)^d`` sites whatever the cluster (17^3 at ``s_list = (3, 4)`` in
    d = 3), which :func:`~percolab.windowed.check_window_size` refuses when
    oversized (exit 4 at the command line); a ``resample_region`` is a row
    mask on a window that covers it.  The frozen bits take one hash pass,
    each inner sample one pass over the free edges, and one search from
    ``x`` (:func:`~percolab.windowed.origin_cluster`) gives the row mask
    whose balls are counted.  A *sealed* core, whose search over the frozen
    open edges alone reaches no non-frozen site, is the cluster of every
    inner sample, so no inner sample is hashed.

    For each tested s, the frequency of the tameness event is compared
    against 1 - exp(-log^2 s): the vertex is declared bad at s when the
    estimate sits below the level by more than 3 sigma, not-bad when above
    by more than 3 sigma, and undecided in between.

    Regular = no tested s >= K is bad.  A frozen cluster that already meets
    the volume threshold at some s >= K is bad with probability one and
    skips resampling entirely.
    """
    if x not in cluster.vertices:
        raise ValueError(f"{x} is not in the conditioning cluster")
    frozen = cluster.vertices
    s_max = max(params.s_list)

    thresholds = {
        s: tame_threshold(s, params.log_base) for s in params.s_list
    }
    # The ball has only (2s+1)^d sites; when that is below the threshold the
    # tameness event is sure whatever the cluster holds, so only the other
    # scales count the frozen cluster.
    deterministic_tame = {
        s for s in params.s_list if (2 * s + 1) ** cfg.spec.d < thresholds[s]
    }
    untamed = [s for s in params.s_list if s not in deterministic_tame]
    frozen_counts = _ball_counts(frozen, x, untamed) if untamed else {}
    deterministic_bad = {s for s in untamed if frozen_counts[s] >= thresholds[s]}

    per_s: List[Tuple[int, Estimate, float, Optional[bool]]] = []
    pending = [s for s in untamed if s not in deterministic_bad]
    tallies = {s: 0 for s in pending}
    if pending:
        if resample_region is None:
            win = build_window(cfg.spec, cfg.seed, 2 * s_max, centre=x)
            region = np.ones(win.n_sites, dtype=bool)
        else:
            sites = (frozenset(region_sites(resample_region))
                     if isinstance(resample_region, Region) else resample_region)
            reach = max((norm_inf(tuple(a - b for a, b in zip(v, x))) for v in sites),
                        default=0)
            win = build_window(cfg.spec, cfg.seed, reach, centre=x)
            region = np.zeros(win.n_sites, dtype=bool)
            region[win.box_rows(sites)] = True
        heads, tails = win.edge_rows.T
        inside = region[heads] & region[tails]
        frozen_rows = np.zeros(win.n_sites, dtype=bool)
        frozen_rows[win.box_rows(cluster.label)] = True
        touches = frozen_rows[heads] | frozen_rows[tails]
        fixed, free = np.flatnonzero(inside & touches), np.flatnonzero(inside & ~touches)
        state = np.zeros(win.n_edges, dtype=bool)
        state[fixed] = states_from_keys(win.keys[fixed], cfg.sample_id, cfg.threshold)
        norms = win.norms()
        x_row = win.row_of(x)

        def tally(rows: np.ndarray, times: int) -> None:
            near = norms[rows]
            for s in pending:
                tallies[s] += times * int(np.count_nonzero(near <= s) < thresholds[s])

        core = origin_cluster(win, state, x_row, None)
        if not (core & ~frozen_rows).any():  # sealed: every inner cluster is the core
            tally(core, params.n_inner)
        else:
            free_keys = win.keys[free]
            for inner in range(params.n_inner):  # each overwrites every free edge's bit
                sid = _inner_sample_id(cfg.sample_id, inner)
                state[free] = states_from_keys(free_keys, sid, cfg.threshold)
                tally(origin_cluster(win, state, x_row, None), 1)

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
        check_numbers(Real, "lo", self.lo)
        check_numbers(Real, "hi", self.hi)
        check_numbers(Real, "regular_fraction", self.regular_fraction)
        if not 0 < self.lo < self.hi:
            raise ValueError("need 0 < lo < hi")
        if not 0 < self.regular_fraction <= 1:
            raise ValueError("regular fraction must lie in (0, 1]")
        if not isinstance(self.check_minimality, bool):
            raise ValueError(f"check_minimality must be true or false, "
                             f"got {self.check_minimality!r}")


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
            for v in bnd:
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

    The candidate must be a whole open cluster of ``Ann^q`` under ``cfg``.
    Item (4) then reads the spanning clusters of each ``Ann^r``, ``r < q``,
    off the window scan, whose cache holds the labelling a scan of the
    sample already made: ``Ann^r`` lies inside ``Ann^q``, so an open
    cluster of ``Ann^r`` that meets the candidate lies inside it and is a
    component of the candidate restricted to ``Ann^r``.  A component that
    does not span fails (1) before any regularity estimate, so keeping only
    the spanning ones changes no verdict and no estimate.
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
            if any(comp.vertices <= candidate.vertices
                   and not _items_one_to_three(cfg, comp, sub, params, reg)[0]
                   for comp in _window_spanning_clusters(cfg, sub)):
                reasons.append(f"not minimal: a component already qualifies in sub-annulus {r}")
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


@lru_cache(maxsize=4)
def _scan_window(
    spec: LatticeSpec, seed: int, region: Region
) -> Tuple[Window, Tuple[Site, ...], Tuple[Site, ...], np.ndarray, np.ndarray]:
    """The window of an origin-centred annulus, its inner and outer
    boundaries and their rows.  Kept across calls: callers scan one
    sub-annulus for sample after sample."""
    b_in, b_out = region_boundaries(spec, region)
    win = build_window(spec, seed, region.outer, region.inner)
    return win, b_in, b_out, win.rows_of(b_in), win.rows_of(b_out)


@lru_cache(maxsize=4)
def _window_spanning_clusters(
    cfg: PercolationConfig, region: Region
) -> Tuple[ClusterRecord, ...]:
    """The open clusters of an origin-centred annulus that touch both of its
    boundaries, from one labelling of its window, sorted by minimal vertex.

    Each record equals the one :func:`~percolab.engine.spanning_clusters`
    explores: its root is the cluster's first inner-boundary site in
    :func:`~percolab.lattice.region_boundaries` order.  Its label is read
    off the window with no sort: rows ascend and window rows are
    lexicographic.  The last four results are kept, as their windows are,
    so a scan's minimality check (for ``q_max <= 4``) reads the labelling
    its own sample already made of each smaller sub-annulus; every caller
    shares the returned tuple.
    """
    win, b_in, b_out, rin, rout = _scan_window(cfg.spec, cfg.seed, region)
    labels = component_labels(win, sample_open_edges(win, cfg, cfg.sample_id))
    lab_in, lab_out = labels[rin], labels[rout]
    out = []
    for lab in np.intersect1d(lab_in, lab_out):
        on_in = np.flatnonzero(lab_in == lab)
        rows = np.flatnonzero(labels == lab)
        out.append(ClusterRecord(
            root=b_in[on_in[0]],
            region=region,
            label=tuple(zip(*win.sites[rows].T.tolist())),
            boundary_in=tuple(b_in[i] for i in on_in),
            boundary_out=tuple(b_out[i] for i in np.flatnonzero(lab_out == lab)),
        ))
    return tuple(sorted(out, key=lambda r: r.min_vertex))


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
        for rec in _window_spanning_clusters(cfg, region):
            out.append(
                good_spanning_check(cfg, rec, idx, q, scale_params, params, reg)
            )
    return out
