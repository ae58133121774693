"""Top-level experiment orchestration.

Builds on the sampling engine and window machinery to run the four headline
experiments:

* empirical extraction of the one-step transition kernels (the localized
  origin-to-cluster step and the onward-arm weights) from certified good
  spanning sets, with the per-sample uniqueness of the localized transition
  asserted as it is tabulated;
* matrix-product reconstruction of conditioned arm probabilities from the
  extracted kernels;
* conditional-measure convergence across conditioning families (the
  incipient-infinite-cluster limit at desk scale), by rejection sampling;
* the supercritical sweep (conditioning on a large-radius escape as a proxy
  for the infinite-cluster conditioning) against the critical value.

Each conditioned estimate has one entry point: :func:`iic_series` over the
scales of a :class:`ConditioningFamily` (one scale gives one point), and
:func:`supercritical_sweep` over a p grid and its proxy radii.  One counting
loop, :func:`_conditioned_counts`, searches the origin's cluster in each
sample of the IIC points and of the reconstruction's direct side.

Everything is seed-deterministic: a fixed config and sample range produce
identical numbers on every run.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .clusters import (
    GoodSpanningParams,
    RegularityParams,
    SpanningSetRecord,
    scan_good_spanning,
)
from .engine import PercolationConfig, edge_key, mix64
from .estimators import Estimate, combine_gap_sigma
from .lattice import (
    NEAREST_NEIGHBOUR,
    Edge,
    LatticeSpec,
    Site,
    annulus,
    canonical_edge,
    check_numbers,
    norm_inf,
    region_sites,
)
from .scales import (
    ScaleIndex,
    ScaleParams,
    conditioning_horizon,
    likelihood_ratio_horizon,
    scale_sequence,
)
from .windowed import (
    Window,
    build_window,
    check_window_size,
    component_labels,
    connection_indicator,
    escape_levels,
    origin_cluster,
    sample_open_edges,
    shell_rows,
)

__all__ = [
    "Conditioning",
    "ConditioningFamily",
    "CylinderEvent",
    "two_east_edges_event",
    "sure_event",
    "KernelExtraction",
    "extract_kernels",
    "ReconstructionReport",
    "matrix_reconstruction",
    "IICPoint",
    "iic_series",
    "ConvergenceReport",
    "convergence_diagnostic",
    "SweepPoint",
    "supercritical_sweep",
    "SupercriticalReport",
    "supercritical_report",
]


# ---------------------------------------------------------------------------
# Conditioning families
# ---------------------------------------------------------------------------

_FAMILY_KINDS = (
    "box_boundary",
    "single_vertex",
    "vertex_set_with_obstacle",
    "halfspace_target",
    "interleaved",
)


@dataclass(frozen=True)
class Conditioning:
    """A conditioning family at one scale ``n``.

    ``targets`` is the arm target set ``V_n`` and ``obstacles`` the obstacle
    set ``D_n``, both as sites inside ``B(outer)``, the simulation window;
    ``exact`` says whether the arm event is decided exactly within it.
    ``min_norm`` is the least norm of a target or an obstacle.
    """

    kind: str
    n: int
    targets: FrozenSet[Site]
    obstacles: FrozenSet[Site]
    outer: int
    exact: bool
    min_norm: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.targets:
            raise ValueError("a conditioning needs at least one target site")
        sites = [*self.targets, *self.obstacles]
        norms = np.abs(np.array(sites, dtype=np.int64)).max(axis=1)
        intruders = np.flatnonzero(norms <= self.n)
        if len(intruders):
            raise ValueError(f"conditioning site {sites[intruders[0]]} intrudes into B({self.n})")
        object.__setattr__(self, "min_norm", int(norms.min()))


@dataclass(frozen=True)
class ConditioningFamily:
    """A rule producing, per scale ``n``, the arm target set ``V_n``, the
    obstacle set ``D_n``, and its finite simulation window: :meth:`at`.

    Every kind keeps ``(V_n u D_n) n B(n)`` empty.  ``box_boundary`` and
    ``vertex_set_with_obstacle`` put the targets on a full shell, so the arm
    event is decided exactly inside the window (a path cannot leave without
    first hitting the target shell); ``single_vertex`` and
    ``halfspace_target`` are genuinely unbounded and use a padded window
    whose truncation bias is documented rather than eliminated.

    ``interleaved`` alternates two sub-families along its ``n_list``
    (even positions from the first, odd from the second).
    """

    kind: str
    n_list: Tuple[int, ...]
    sub: Optional[Tuple["ConditioningFamily", "ConditioningFamily"]] = None

    def __post_init__(self):
        if self.kind not in _FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in self.n_list):
            raise ValueError(f"family scales must be integers, got {list(self.n_list)!r}")
        if any(n < 2 for n in self.n_list):
            raise ValueError("family scales must be >= 2")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ValueError(f"family scales must be strictly increasing, "
                             f"got {list(self.n_list)!r}")
        if (self.kind == "interleaved") != (self.sub is not None):
            raise ValueError("an interleaved family needs its two sub-families, "
                             "and only an interleaved family takes them")

    # typed, so an equal ``n`` of another type (2.0 after 2) is built, or
    # refused, as it would be uncached
    @lru_cache(maxsize=16, typed=True)
    def at(self, spec: LatticeSpec, n: int) -> Conditioning:
        """The family at scale ``n``: the only place its ``kind`` is read.

        The record is cached: equal ``(family, spec, n)`` get the same
        immutable :class:`Conditioning`, set up once and shared by every
        caller; the cache is small, since a d = 3 box-boundary record at
        n = 64 holds about 10^5 sites.

        Raises :class:`~percolab.lattice.WindowTooLargeError` before
        materialising any site when ``B(outer)`` could not be materialised.
        """
        if self.kind == "interleaved":
            try:
                pos = self.n_list.index(n)
            except ValueError:
                raise ValueError(f"{n} not in the interleaved n_list") from None
            return self.sub[pos % 2].at(spec, n)
        origin = (0,) * spec.d
        if self.kind == "box_boundary":
            outer, exact = n + 1, True
        elif self.kind == "vertex_set_with_obstacle":
            outer, exact = n + 2, True
        else:  # unbounded-target kinds: pad by half a scale
            outer, exact = n + 1 + (n + 1) // 2, False
        check_window_size(spec, outer)
        obstacles: FrozenSet[Site] = frozenset()
        if self.kind == "box_boundary":
            targets = frozenset(region_sites(annulus(origin, n, n + 1)))
        elif self.kind == "vertex_set_with_obstacle":
            targets = frozenset(region_sites(annulus(origin, n + 1, n + 2)))
            obstacles = frozenset(x for x in region_sites(annulus(origin, n, n + 1))
                                  if x[0] <= 0)
        elif self.kind == "single_vertex":
            targets = frozenset({(n + 1,) + origin[1:]})
        else:  # halfspace_target, truncated to the window
            rng = range(-outer, outer + 1)
            targets = frozenset((n + 1,) + rest
                                for rest in itertools.product(rng, repeat=spec.d - 1))
        return Conditioning(self.kind, n, targets, obstacles, outer, exact)


# ---------------------------------------------------------------------------
# Cylinder events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CylinderEvent:
    """An edge pattern inside ``B(2^L)``: the event that every listed edge
    has its required state.  The empty pattern is the sure event."""

    name: str
    L: int
    pattern: Tuple[Tuple[Edge, bool], ...] = ()

    def __post_init__(self):
        check_numbers(Integral, "L", self.L)
        if self.L < 0:
            raise ValueError("L must be >= 0")
        radius = 2**self.L
        for (a, b), state in self.pattern:
            if not isinstance(state, bool):
                raise ValueError(f"a pattern state must be true or false, got {state!r}")
            if max(norm_inf(a), norm_inf(b)) > radius:
                raise ValueError(f"edge {a}-{b} leaves B(2^{self.L})")

    def thresholds(self, cfg: PercolationConfig) -> Tuple[int, int]:
        """``(t_lo, t_hi)``: the pattern holds in sample ``cfg.sample_id`` at
        exactly the thresholds ``t`` with ``t_lo < t <= t_hi`` (``cfg.p`` is
        not read).  An edge is open iff its ``u = mix64(K_e ^ S) < t``, so
        ``t_lo`` is the largest ``u`` of the required-open edges (-1 if none)
        and ``t_hi`` the smallest ``u`` of the required-closed ones (2^64 if
        none)."""
        t_lo, t_hi = -1, 1 << 64
        for key, want in _pattern_keys(self.pattern, cfg.spec, cfg.seed):
            u = mix64(key ^ cfg.sample_key)
            if want:
                t_lo = max(t_lo, u)
            else:
                t_hi = min(t_hi, u)
        return t_lo, t_hi

    def evaluate(self, cfg: PercolationConfig) -> bool:
        t_lo, t_hi = self.thresholds(cfg)
        return t_lo < cfg.threshold <= t_hi


@lru_cache(maxsize=64)
def _pattern_keys(pattern, spec: LatticeSpec, seed: int) -> Tuple[Tuple[int, bool], ...]:
    """``(edge key, required state)`` of each pattern edge; a pattern edge
    that is not an edge of ``spec`` raises ``ValueError`` (not cached)."""
    return tuple((edge_key(seed, canonical_edge(spec, a, b)), want)
                 for (a, b), want in pattern)


def two_east_edges_event(spec: LatticeSpec) -> CylinderEvent:
    """Both edges east of the origin open; supported in ``B(2)``, L = 1."""
    zeros = (0,) * (spec.d - 1)
    e1 = ((0,) + zeros, (1,) + zeros)
    e2 = ((1,) + zeros, (2,) + zeros)
    return CylinderEvent("two-east-edges", 1, ((e1, True), (e2, True)))


def sure_event() -> CylinderEvent:
    return CylinderEvent("sure", 0, ())


# ---------------------------------------------------------------------------
# Kernel extraction
# ---------------------------------------------------------------------------

Label = Tuple[Site, ...]  # canonical good-set encoding: sorted vertex tuple

_ORIGIN_LABEL: Label = ()


def _gate_level(
    params: ScaleParams,
    spec: LatticeSpec,
    level_needed: int,
    cond: Conditioning,
    p: float,
    p_c_ref: float,
    out_warnings: List[str],
) -> None:
    """Honour the horizon hypotheses: refuse in faithful mode, warn in toy."""
    q_n = conditioning_horizon(params, cond.min_norm)
    # a subcritical p leaves the ratio gate vacuous
    beta = math.inf if p < p_c_ref else likelihood_ratio_horizon(params, spec, p, p_c_ref)
    gate = min(q_n, beta)
    if level_needed < 0 or level_needed + 1 >= gate:
        msg = (
            f"level j={level_needed + 1} outside 1 <= j < min(Q(n)={q_n}, "
            f"beta(p)={beta}); the product error band is not guaranteed"
        )
        if params.mode == "faithful":
            raise ValueError(msg)
        out_warnings.append(msg)
        warnings.warn(msg, RuntimeWarning, stacklevel=3)


@dataclass
class KernelExtraction:
    """Empirical one-step kernels tabulated from certified good sets.

    ``d_labels`` are the level i+1 good spanning sets seen across the
    sample range (sorted-vertex canonical encoding, deduplicated);
    ``c_labels`` likewise at level i, with the single pseudo-label ``()``
    standing for the origin when i = 0.  ``m_hat[(ci, di)]`` estimates the
    localized-transition kernel entry (the event-free variant at i = 0);
    ``m_event`` additionally intersects the cylinder event (i = 0 only);
    ``gamma[di]`` estimates the onward-arm weight conditional on the label's
    occurrence.  ``g_violations`` counts samples realising the localized
    transition for two distinct labels simultaneously — any nonzero count is
    an invariant violation.
    """

    level: int
    c_labels: List[Label]
    d_labels: List[Label]
    label_counts: Dict[Label, int]
    label_q: Dict[Label, int]
    m_hat: Dict[Tuple[int, int], Estimate]
    m_event: Dict[Tuple[int, int], Estimate]
    gamma: Dict[int, Estimate]
    n_samples: int
    seed: int
    sample_range: Tuple[int, int]
    g_violations: int
    f_containment_failures: int
    warnings: List[str] = field(default_factory=list)

    @property
    def zero_count_cells(self) -> List[Tuple[int, int]]:
        return [key for key, est in self.m_hat.items() if est.value == 0.0]

    def summary(self) -> dict:
        return {
            "level": self.level,
            "n_c_labels": len(self.c_labels),
            "n_d_labels": len(self.d_labels),
            "n_samples": self.n_samples,
            "g_violations": self.g_violations,
            "f_containment_failures": self.f_containment_failures,
            "n_zero_cells": len(self.zero_count_cells),
            "warnings": list(self.warnings),
        }


@lru_cache(maxsize=4)
def _query_window(
    spec: LatticeSpec, seed: int, cond: Conditioning, sep_in: Optional[int], sep_out: int
) -> Tuple[Window, Dict[str, Tuple[np.ndarray, np.ndarray]], np.ndarray, np.ndarray]:
    """The window ``B(max(cond.outer, sep_out))`` of an extraction, kept
    across calls, with the target rows, the rows of the shell of radius
    ``sep_out`` and, per query, the row mask of its region and the mask of
    the edges inside it.  With ``free`` = ``B(cond.outer)`` off the
    obstacles: ``arm`` is ``free`` beyond ``B(sep_out)``; ``link`` is
    ``B(sep_out)`` at level 0 (``sep_in`` None), else
    ``B(cond.outer) \\ B(sep_in)``; ``leak`` is ``B(sep_out)``, less a
    D-record's rows per query; ``free`` is the relaxed connection's."""
    win = build_window(spec, seed, max(cond.outer, sep_out))
    norms = win.norms()
    free = norms <= cond.outer
    free[win.box_rows(cond.obstacles)] = False
    box = norms <= sep_out
    link = box if sep_in is None else (norms > sep_in) & (norms <= cond.outer)
    heads, tails = win.edge_rows.T
    regions = {name: (rows, rows[heads] & rows[tails])
               for name, rows in (("arm", free & (norms > sep_out)), ("link", link),
                                  ("leak", box), ("free", free))}
    return win, regions, win.box_rows(cond.targets), np.flatnonzero(norms == sep_out)


class _SampleQueries:
    """The connection questions of one extraction sample: one hash of the
    cached :func:`_query_window`'s edges, then a :func:`component_labels` +
    :func:`connection_indicator` read per query, with the rows outside its
    region isolated.  One labelling per region serves the sample (every
    D-record's arm, every (C, D) pair's link); a leak, whose region also
    loses D's rows, takes its own."""

    def __init__(self, query_window, cfg: PercolationConfig):
        self.win, self.regions, self.targets, self.shell = query_window
        self.open = sample_open_edges(self.win, cfg, cfg.sample_id)
        self._labels: Dict[str, np.ndarray] = {}

    def joined(self, region: str, sources: np.ndarray, targets: np.ndarray,
               blocked: Optional[np.ndarray] = None) -> bool:
        """Does an open path inside ``region`` less the ``blocked`` rows join
        a source row to a target row?  Both ends are cut to the region first:
        a blocked source that is also a target keeps its own label."""
        rows, edges = self.regions[region]
        if blocked is not None:
            labels = component_labels(self.win, self.open & edges, blocked)
            rows = rows.copy()
            rows[blocked] = False
        elif region in self._labels:
            labels = self._labels[region]
        else:
            labels = self._labels[region] = component_labels(self.win, self.open & edges)
        return connection_indicator(labels, sources[rows[sources]], targets[rows[targets]])


def extract_kernels(
    cfg: PercolationConfig,
    params: ScaleParams,
    level: int,
    n_samples: int,
    family: ConditioningFamily,
    n: int,
    event: Optional[CylinderEvent] = None,
    good: Optional[GoodSpanningParams] = None,
    reg: Optional[RegularityParams] = None,
    q_list: Optional[Sequence[int]] = None,
    sample_start: int = 0,
    p_c_ref: float = 0.5,
) -> KernelExtraction:
    """Tabulate the level-``level`` transition kernel from simulation.

    Per sample: certify the good spanning sets of the level and
    level+1 annuli; for each certified pair evaluate the localized
    transition (connection off the inner separation box, no escape to the
    outer separation shell avoiding the target set), and for each level+1
    set its onward arm (from its sites beyond the outer separation box to
    the targets, inside the conditioning window off the obstacles).  Every
    query reads a labelling of one cached window (:class:`_SampleQueries`),
    and a leak is asked only where its link holds.
    Conditional frequencies become kernel entries keyed by canonical labels.

    The per-sample uniqueness of the localized transition and its
    containment in the relaxed transition are asserted sample by sample and
    reported as violation counts (both must be zero).
    """
    spec = cfg.spec
    cond = family.at(spec, n)
    warns: List[str] = []
    _gate_level(params, spec, level, cond, cfg.p, p_c_ref, warns)
    if good is None:
        good = GoodSpanningParams()
    if reg is None:
        reg = RegularityParams()
    ladder = scale_sequence(params, level + 1)
    idx_d: ScaleIndex = ladder[level + 1]
    idx_c: Optional[ScaleIndex] = ladder[level] if level >= 1 else None
    # Escape shell = boundary of the level+1 separation box.  At level 0 the
    # level-0 separation box degenerates to the origin's immediate ball, so
    # the inward link is evaluated inside the level-1 box instead.
    sep_out_radius = 2 ** idx_d.ell
    sep_in = 2 ** idx_c.ell if idx_c is not None else None
    query_window = _query_window(spec, cfg.seed, cond, sep_in, sep_out_radius)
    win = query_window[0]
    origin_rows = win.box_rows([(0,) * spec.d])

    # each distinct label gets an index on first sight, so a label is hashed
    # once per record and every tally is keyed by indices
    index: Dict[Label, int] = {}
    counts: Dict[int, int] = {}
    label_q: Dict[int, int] = {}
    c_counts: Dict[int, int] = {}
    core_hits: Dict[Tuple[int, int], int] = {}
    event_hits: Dict[Tuple[int, int], int] = {}
    gamma_hits: Dict[int, int] = {}
    g_violations = 0
    f_failures = 0

    if level == 0:
        index[_ORIGIN_LABEL] = 0
        c_counts[0] = 0

    for sid in range(sample_start, sample_start + n_samples):
        c = cfg.with_sample(sid)
        d_records = [r for r in scan_good_spanning(c, idx_d, params, good, reg, q_list)
                     if r.good]
        if level == 0:
            c_info: List[Tuple[int, Optional[SpanningSetRecord]]] = [(0, None)]
            c_counts[0] += 1
        else:
            c_info = [(index.setdefault(r.cluster.label, len(index)), r)
                      for r in scan_good_spanning(c, idx_c, params, good, reg, q_list)
                      if r.good]
            for ci, _ in c_info:
                c_counts[ci] = c_counts.get(ci, 0) + 1

        ev_ok = event.evaluate(c) if event is not None else True
        if not d_records:
            continue
        queries = _SampleQueries(query_window, c)

        d_info = []
        for drec in d_records:
            dlab = drec.cluster.label
            di = index.setdefault(dlab, len(index))
            d_rows = win.box_rows(dlab)
            arm = queries.joined("arm", d_rows, queries.targets)
            counts[di] = counts.get(di, 0) + 1
            label_q[di] = drec.q
            if arm:
                gamma_hits[di] = gamma_hits.get(di, 0) + 1
            d_info.append((di, d_rows, arm))

        for ci, crec in c_info:
            c_rows = origin_rows if crec is None else win.box_rows(crec.cluster.label)
            n_g = 0
            g_rows = None
            for di, d_rows, arm in d_info:
                if ci == di:
                    continue
                if (queries.joined("link", c_rows, d_rows)
                        and not queries.joined("leak", c_rows, queries.shell, d_rows)):
                    key = (ci, di)
                    core_hits[key] = core_hits.get(key, 0) + 1
                    if ev_ok:
                        event_hits[key] = event_hits.get(key, 0) + 1
                    if arm:
                        n_g += 1
                        g_rows = d_rows
            if n_g > 1:
                g_violations += 1
            # G => F: the origin must reach the realised label avoiding the
            # obstacle set (the relaxed transition's connection).
            if n_g >= 1 and level == 0 and not queries.joined("free", c_rows, g_rows):
                f_failures += 1

    label_of = list(index)
    c_order = sorted(c_counts, key=label_of.__getitem__)
    d_order = sorted(counts, key=label_of.__getitem__)
    srange = (sample_start, sample_start + n_samples)

    m_hat: Dict[Tuple[int, int], Estimate] = {}
    m_event: Dict[Tuple[int, int], Estimate] = {}
    for cpos, ci in enumerate(c_order):
        denom = n_samples if level == 0 else c_counts[ci]
        for dpos, di in enumerate(d_order):
            if ci == di:
                continue
            hits = core_hits.get((ci, di), 0)
            if denom > 0:
                m_hat[(cpos, dpos)] = Estimate.from_counts(
                    hits, denom, seed=cfg.seed, sample_range=srange
                )
                if level == 0 and event is not None:
                    m_event[(cpos, dpos)] = Estimate.from_counts(
                        event_hits.get((ci, di), 0), denom,
                        seed=cfg.seed, sample_range=srange,
                    )
    gamma = {
        dpos: Estimate.from_counts(
            gamma_hits.get(di, 0), counts[di], seed=cfg.seed, sample_range=srange
        )
        for dpos, di in enumerate(d_order)
    }

    if not counts:
        warns.append(f"no certified good spanning sets at level {level + 1}")

    return KernelExtraction(
        level=level,
        c_labels=[label_of[ci] for ci in c_order],
        d_labels=[label_of[di] for di in d_order],
        label_counts={label_of[di]: k for di, k in counts.items()},
        label_q={label_of[di]: q for di, q in label_q.items()},
        m_hat=m_hat,
        m_event=m_event,
        gamma=gamma,
        n_samples=n_samples,
        seed=cfg.seed,
        sample_range=srange,
        g_violations=g_violations,
        f_containment_failures=f_failures,
        warnings=warns,
    )


def _conditioned_window(
    cfg: PercolationConfig, conds: Sequence[Conditioning]
) -> Tuple[Window, List[np.ndarray], Optional[np.ndarray]]:
    """One window ``B(max outer)`` for conditionings that share it, with
    each one's target rows and the blocked (obstacle) rows, ``None`` when
    there are no obstacles.  Conditionings share a window only when
    :func:`_decided_in_any_box` holds for each, so only a lone one has
    obstacles.

    Refuses (``ValueError``) a conditioning whose targets the origin cannot
    reach off the obstacles even with every edge open; one all-open
    labelling checks them all.
    """
    win = build_window(cfg.spec, cfg.seed, max(c.outer for c in conds))
    target_rows = [win.rows_of(c.targets) for c in conds]
    obstacles = frozenset().union(*(c.obstacles for c in conds))
    blocked = win.rows_of(obstacles) if obstacles else None
    labels = component_labels(win, np.ones(win.n_edges, dtype=bool), blocked_rows=blocked)
    origin_row = np.asarray([win.row_of((0,) * cfg.spec.d)])
    for cond, rows in zip(conds, target_rows):
        if not connection_indicator(labels, origin_row, rows):
            raise ValueError(f"{cond.kind}: no obstacle-avoiding route from 0 to V_{cond.n}")
    return win, target_rows, blocked


def _conditioned_counts(
    cfg: PercolationConfig,
    event: CylinderEvent,
    conds: Sequence[Conditioning],
    sample_ids: Iterable[int],
) -> Tuple[List[int], List[int]]:
    """``(accepted, hits)``: for each conditioning in ``conds``, how many of
    ``sample_ids`` connect the origin to its targets off the obstacles, and
    how many of those also satisfy ``event``.

    The one conditioned counting loop: one :func:`_conditioned_window` and
    one breadth-first search from the origin per sample answer every
    conditioning (a conditioning accepts iff the origin's cluster holds one
    of its target rows), and the event is read at most once per sample
    (only when some conditioning accepts it).
    """
    win, target_rows, blocked = _conditioned_window(cfg, conds)
    origin_row = win.row_of((0,) * cfg.spec.d)
    accepted = [0] * len(conds)
    hits = [0] * len(conds)
    for sid in sample_ids:
        cluster = origin_cluster(win, sample_open_edges(win, cfg, sid), origin_row, blocked)
        reached = [bool(cluster[rows].any()) for rows in target_rows]
        if not any(reached):
            continue
        hit = event.evaluate(cfg.with_sample(sid))
        for i, ok in enumerate(reached):
            accepted[i] += ok
            hits[i] += ok and hit
    return accepted, hits


def _steps_cross_every_shell(spec: LatticeSpec) -> bool:
    """Does every path from inside ``B(r)`` to outside it step onto the
    shell of radius ``r + 1``, for every ``r``?  Nearest-neighbour steps
    change the l-infinity norm by at most one, so they do; a spread-out step
    can jump a shell."""
    return spec.edge_mode == NEAREST_NEIGHBOUR


def _decided_in_any_box(spec: LatticeSpec, cond: Conditioning) -> bool:
    """Is 0 <-> V within ``B(outer)`` the same event as the origin's
    component reaching V in every larger box around the origin?  It is when
    no step jumps a shell, nothing is blocked and V is the whole outer shell
    of the window: a path leaving ``B(outer - 1)`` steps onto V first."""
    o, d = cond.outer, spec.d
    return (_steps_cross_every_shell(spec) and not cond.obstacles
            and len(cond.targets) == (2 * o + 1) ** d - (2 * o - 1) ** d
            and all(norm_inf(x) == o for x in cond.targets))


# ---------------------------------------------------------------------------
# Matrix reconstruction
# ---------------------------------------------------------------------------


@dataclass
class ReconstructionReport:
    j: int
    lhs: Estimate
    rhs: float
    rhs_stderr: float
    extractions: List[KernelExtraction]
    n: int
    family_kind: str
    event_name: str

    @property
    def ratio(self) -> Optional[float]:
        return None if self.rhs == 0.0 else self.lhs.value / self.rhs

    @property
    def ratio_stderr(self) -> Optional[float]:
        if self.rhs == 0.0 or self.lhs.value == 0.0:
            return None
        rel = math.hypot(
            self.lhs.stderr / self.lhs.value, self.rhs_stderr / self.rhs
        )
        return abs(self.ratio) * rel

    def summary(self) -> dict:
        return {
            "j": self.j,
            "n": self.n,
            "family": self.family_kind,
            "event": self.event_name,
            "lhs": self.lhs.value,
            "lhs_stderr": self.lhs.stderr,
            "rhs": self.rhs,
            "rhs_stderr": self.rhs_stderr,
            "ratio": self.ratio,
            "ratio_stderr": self.ratio_stderr,
            "g_violations": sum(e.g_violations for e in self.extractions),
        }


def matrix_reconstruction(
    cfg: PercolationConfig,
    j: int,
    family: ConditioningFamily,
    n: int,
    n_samples: int,
    params: ScaleParams,
    event: Optional[CylinderEvent] = None,
    good: Optional[GoodSpanningParams] = None,
    reg: Optional[RegularityParams] = None,
    p_c_ref: float = 0.5,
) -> ReconstructionReport:
    """Compare the direct conditioned-arm estimate with the kernel product.

    The extractions read sample ids ``[0, n_samples)``.  ``lhs`` estimates
    P(E and 0 connected to the targets off the obstacle set) on the disjoint
    range ``[n_samples, 2 n_samples)``, counted by the loop behind
    :func:`iic_series`; ``rhs`` chains
    the extracted kernels: the level-0 entries (with the event), the
    intermediate kernels up to level j-1, and the level-j onward weights.
    The lower-bound construction makes rhs an estimate of a sub-event of
    lhs, so the reported ratio is expected to be >= 1 up to noise, with the
    gap the (unreported-constant) product error band.
    """
    if j < 1:
        raise ValueError("reconstruction needs j >= 1")
    extractions = [extract_kernels(cfg, params, lev, n_samples, family, n,
                                   event=event if lev == 0 else None,
                                   good=good, reg=reg, p_c_ref=p_c_ref)
                   for lev in range(j)]

    # chain the kernels: start from the level-0 row vector
    ext0 = extractions[0]
    use = ext0.m_event if (event is not None and ext0.m_event) else ext0.m_hat
    vec: Dict[Label, Tuple[float, float]] = {}
    for (ci, di), est in use.items():
        lab = ext0.d_labels[di]
        v, s = vec.get(lab, (0.0, 0.0))
        vec[lab] = (v + est.value, math.hypot(s, est.stderr))
    for ext in extractions[1:]:
        nxt: Dict[Label, Tuple[float, float]] = {}
        cpos = {lab: i for i, lab in enumerate(ext.c_labels)}
        for lab, (v, s) in vec.items():
            ci = cpos.get(lab)
            if ci is None:
                continue
            for (cj, dj), est in ext.m_hat.items():
                if cj != ci:
                    continue
                dlab = ext.d_labels[dj]
                pv, ps = nxt.get(dlab, (0.0, 0.0))
                term = v * est.value
                term_s = abs(term) * math.hypot(
                    s / v if v else 0.0, est.stderr / est.value if est.value else 0.0
                )
                nxt[dlab] = (pv + term, math.hypot(ps, term_s))
        vec = nxt

    last = extractions[-1]
    dpos = {lab: i for i, lab in enumerate(last.d_labels)}
    rhs = 0.0
    rhs_var = 0.0
    for lab, (v, s) in vec.items():
        gi = dpos.get(lab)
        if gi is None:
            continue
        g = last.gamma[gi]
        rhs += v * g.value
        rhs_var += (g.value * s) ** 2 + (v * g.stderr) ** 2
    rhs_stderr = math.sqrt(rhs_var)

    # direct side, on fresh samples
    lhs_range = (n_samples, 2 * n_samples)
    _, (hits,) = _conditioned_counts(cfg, event or sure_event(), [family.at(cfg.spec, n)],
                                     range(*lhs_range))
    lhs = Estimate.from_counts(hits, n_samples, seed=cfg.seed, sample_range=lhs_range)

    return ReconstructionReport(
        j=j, lhs=lhs, rhs=rhs, rhs_stderr=rhs_stderr,
        extractions=extractions, n=n, family_kind=family.kind,
        event_name=event.name if event else "sure",
    )


# ---------------------------------------------------------------------------
# IIC conditional measure by rejection sampling
# ---------------------------------------------------------------------------


@dataclass
class IICPoint:
    n: int
    family_kind: str
    event_name: str
    conditional: Estimate
    acceptance: Estimate
    n_accepted: int
    low_confidence: bool
    exact_window: bool

    def row(self) -> Tuple:
        return (
            self.family_kind, self.event_name, self.n,
            self.conditional.value, self.conditional.stderr,
            self.acceptance.value, self.n_accepted,
            int(self.low_confidence), int(self.exact_window),
        )


def _conditioned_fields(hits: int, accepted: int, seed: int,
                        srange: Tuple[int, int]) -> dict:
    """The ``conditional``, ``acceptance``, ``n_accepted`` and
    ``low_confidence`` (fewer than 100 accepted) fields shared by
    :class:`IICPoint` and :class:`SweepPoint`, from ``hits`` event successes
    among ``accepted`` of the samples in ``srange``."""
    return dict(
        conditional=Estimate.from_counts(hits, accepted, seed=seed, sample_range=srange),
        acceptance=Estimate.from_counts(accepted, srange[1] - srange[0],
                                        seed=seed, sample_range=srange),
        n_accepted=accepted,
        low_confidence=accepted < 100,
    )


def iic_series(
    cfg: PercolationConfig,
    event: CylinderEvent,
    family: ConditioningFamily,
    n_samples: int,
    sample_start: int = 0,
) -> List[IICPoint]:
    """P(E | origin reaches V_n off the obstacle set D_n), by rejection, at
    every scale ``n`` of ``family``, in order.

    Samples achieving the arm are kept; the event frequency among them is
    the conditional estimate.  Acceptance statistics ship with each point
    so starvation is visible; fewer than 100 accepted samples flags a point
    low-confidence.  A one-scale family gives the point of one scale.

    The scales whose conditioning :func:`_decided_in_any_box` (the
    box-boundary ones on a nearest-neighbour lattice, and so the box-boundary
    members of an interleaved family) share one window ``B(max outer)`` and
    one breadth-first search from the origin per sample: 0 <-> the shell of
    radius ``n + 1`` inside ``B(n + 1)`` holds iff the origin's cluster in
    the larger window reaches that shell, since a path leaving ``B(n)``
    steps onto it first.
    Every other scale keeps its own window, where it is decided: obstacles,
    targets short of a whole shell or steps that jump a shell would change
    the event in a larger box.
    """
    groups: List[List[Conditioning]] = []
    shared: List[Conditioning] = []
    for cond in (family.at(cfg.spec, n) for n in family.n_list):
        if not _decided_in_any_box(cfg.spec, cond):
            groups.append([cond])
            continue
        if not shared:
            groups.append(shared)
        shared.append(cond)
    srange = (sample_start, sample_start + n_samples)
    points = {}
    for group in groups:
        accepted, hits = _conditioned_counts(cfg, event, group, range(*srange))
        for cond, a, h in zip(group, accepted, hits):
            points[cond.n] = IICPoint(n=cond.n, family_kind=cond.kind, event_name=event.name,
                                      exact_window=cond.exact,
                                      **_conditioned_fields(h, a, cfg.seed, srange))
    return [points[n] for n in family.n_list]


# ---------------------------------------------------------------------------
# Convergence diagnostics
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceReport:
    successive: List[Tuple[str, int, int, float, float]]  # family, n_a, n_b, gap, sigma
    terminal_gap: Optional[Tuple[str, str, float, float]]
    verdict: str
    slack: float

    def summary(self) -> dict:
        return {
            "verdict": self.verdict,
            "successive": [
                {"family": f, "n_from": a, "n_to": b, "gap": g, "sigma": s}
                for f, a, b, g, s in self.successive
            ],
            "terminal_gap": None if self.terminal_gap is None else {
                "family_a": self.terminal_gap[0],
                "family_b": self.terminal_gap[1],
                "gap": self.terminal_gap[2],
                "sigma": self.terminal_gap[3],
            },
            "slack": self.slack,
        }


#: How far past 3 sigma a gap may reach and still read ``inconclusive``.
CONVERGENCE_SLACK = 0.02


def convergence_diagnostic(series_by_family: Dict[str, List[IICPoint]]) -> ConvergenceReport:
    """Successive-difference and cross-family agreement at 3 sigma.

    Verdict tiers: ``consistent`` when every successive gap and the terminal
    cross-family gap sit within 3 combined sigma; ``inconclusive`` when some
    exceed 3 sigma but all stay within 3 sigma + :data:`CONVERGENCE_SLACK`
    (desk-scale lattice effects); ``inconsistent`` otherwise.
    """
    if any(len(s) < 2 for s in series_by_family.values()):
        raise ValueError("need >= 2 points per family")
    successive = []
    worst_over = 0.0
    all_within_3s = True
    for fam, pts in series_by_family.items():
        for a, b in zip(pts, pts[1:]):
            gap, sigma = combine_gap_sigma(a.conditional, b.conditional)
            successive.append((fam, a.n, b.n, gap, sigma))
            if gap > 3 * sigma:
                all_within_3s = False
                worst_over = max(worst_over, gap - 3 * sigma)

    terminal = None
    fams = sorted(series_by_family)
    if len(fams) >= 2:
        fa, fb = fams[0], fams[1]
        pa, pb = series_by_family[fa][-1], series_by_family[fb][-1]
        gap, sigma = combine_gap_sigma(pa.conditional, pb.conditional)
        terminal = (fa, fb, gap, sigma)
        if gap > 3 * sigma:
            all_within_3s = False
            worst_over = max(worst_over, gap - 3 * sigma)

    if all_within_3s:
        verdict = "consistent"
    elif worst_over <= CONVERGENCE_SLACK:
        verdict = "inconclusive"
    else:
        verdict = "inconsistent"
    return ConvergenceReport(successive, terminal, verdict, CONVERGENCE_SLACK)


# ---------------------------------------------------------------------------
# Supercritical sweep
# ---------------------------------------------------------------------------


@dataclass
class SweepPoint:
    p: float
    r_proxy: int
    conditional: Estimate
    acceptance: Estimate
    n_accepted: int
    low_confidence: bool

    def row(self) -> Tuple:
        return (
            self.p, self.r_proxy,
            self.conditional.value, self.conditional.stderr,
            self.acceptance.value, self.n_accepted, int(self.low_confidence),
        )


def supercritical_sweep(
    cfg_base: PercolationConfig,
    event: CylinderEvent,
    p_list: Sequence[float],
    radii: Sequence[int],
    n_samples: int,
    sample_start: int = 0,
) -> Dict[int, List[SweepPoint]]:
    """P_p(E | origin escapes to the radius-r shell) for every p of
    ``p_list`` and every r of ``radii``, from one window ``B(max(radii))``.

    The escape event proxies the infinite-cluster conditioning; it is
    decided exactly within ``B(r)`` (the shell blocks every outward path).
    ``p_list`` must be strictly decreasing (a sweep down toward the critical
    point).  The open edge sets are nested in p, so one
    :func:`~percolab.windowed.escape_levels` pass per sample gives, for each
    radius, the prefix of ``p_list`` at which the origin reaches that shell
    inside the window.  That is the escape to shell r within ``B(r)`` only
    when no step jumps over shell r (nearest-neighbour steps), so several
    radii are refused otherwise.  The event's threshold interval is read
    once per sample, and the counts become each point's
    :func:`_conditioned_fields`.
    """
    if len(p_list) < 1:
        raise ValueError("empty sweep")
    if any(b >= a for a, b in zip(p_list, p_list[1:])):
        raise ValueError("p_list must be strictly decreasing")
    spec = cfg_base.spec
    if not radii or len(set(radii)) != len(radii):
        raise ValueError(f"radii must be distinct and at least one, got {list(radii)!r}")
    if len(radii) > 1 and not _steps_cross_every_shell(spec):
        raise ValueError("a step can jump a shell: one radius per sweep on this lattice")
    win = build_window(spec, cfg_base.seed, max(radii))
    cfgs = [PercolationConfig(spec, p, cfg_base.seed) for p in p_list]
    ts = [cfg.threshold for cfg in cfgs]
    srange = (sample_start, sample_start + n_samples)
    accepted = {r: [0] * len(cfgs) for r in radii}
    hits = {r: [0] * len(cfgs) for r in radii}
    shells = [shell_rows(win, r) for r in radii]
    for sid, ks in escape_levels(win, cfgs, range(*srange), win.row_of((0,) * spec.d),
                                 shells):
        t_lo, t_hi = event.thresholds(cfgs[0].with_sample(sid))
        for r, k in zip(radii, ks):
            for i in range(k):
                accepted[r][i] += 1
                if t_lo < ts[i] <= t_hi:
                    hits[r][i] += 1
    return {
        r: [SweepPoint(p=p, r_proxy=r,
                       **_conditioned_fields(h, a, cfg_base.seed, srange))
            for p, h, a in zip(p_list, hits[r], accepted[r])]
        for r in radii
    }


@dataclass
class SupercriticalReport:
    sweeps: Dict[int, List[SweepPoint]]  # r_proxy -> per-p points
    critical: Optional[IICPoint]
    sensitivity: float                   # terminal-p shift between the two R
    terminal_gap: Optional[Tuple[float, float]]  # vs critical: gap, sigma

    def summary(self) -> dict:
        return {
            "r_values": sorted(self.sweeps),
            "sensitivity": self.sensitivity,
            "terminal_gap": None if self.terminal_gap is None else {
                "gap": self.terminal_gap[0], "sigma": self.terminal_gap[1],
            },
            "points": {
                str(r): [pt.row() for pt in pts] for r, pts in self.sweeps.items()
            },
        }


def supercritical_report(
    cfg_base: PercolationConfig,
    event: CylinderEvent,
    p_list: Sequence[float],
    r_pair: Tuple[int, int],
    n_samples: int,
    critical: Optional[IICPoint] = None,
    sample_start: int = 0,
) -> SupercriticalReport:
    """Run the sweep at two proxy radii and compare against the critical value.

    The sensitivity entry is the absolute shift of the terminal-p
    conditional between the two radii — the documented price of the
    finite-volume proxy.  When a critical conditional point is supplied, the
    report includes the terminal gap with its combined standard error.
    """
    r_a, r_b = r_pair
    if r_a >= r_b:
        raise ValueError("r_pair must be increasing")
    # a path that cannot jump shell r_a first meets it with every earlier
    # site inside B(r_a - 1), so one B(r_b) tree answers both radii;
    # otherwise each radius keeps its window
    groups = [r_pair] if _steps_cross_every_shell(cfg_base.spec) else [(r,) for r in r_pair]
    sweeps: Dict[int, List[SweepPoint]] = {}
    for radii in groups:
        sweeps.update(supercritical_sweep(cfg_base, event, p_list, radii, n_samples, sample_start))
    term_a = sweeps[r_a][-1].conditional
    term_b = sweeps[r_b][-1].conditional
    sensitivity = abs(term_a.value - term_b.value)
    terminal_gap = None
    if critical is not None:
        gap, sigma = combine_gap_sigma(term_b, critical.conditional)
        terminal_gap = (gap, sigma)
    return SupercriticalReport(
        sweeps=sweeps,
        critical=critical,
        sensitivity=sensitivity,
        terminal_gap=terminal_gap,
    )
