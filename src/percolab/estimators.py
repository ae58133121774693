"""Monte Carlo estimation of connection probabilities, exponent fits, and
threshold location, plus one exact numeric check (the cluster-exit
inequality on tiny graphs).

Estimates carry standard errors and an explicit count of undecided
samples, which is never silently folded into a frequency (every query is
decided on a finite window, so the count is 0).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .engine import (
    PercolationConfig,
    TinyGraph,
    enumerate_exact,
    exact_event_table,
)
from .lattice import Site, norm_inf
from .windowed import (
    Window,
    build_window,
    component_labels,
    origin_cluster,
    sample_blocks,
    sample_open_edges,
)

# ---------------------------------------------------------------------------
# Estimates


@dataclass
class Estimate:
    """An empirical frequency (or mean) with provenance.

    ``n_truncated`` counts samples whose query was left undecided; ``value``
    and ``stderr`` are computed over the determinate samples only, so such
    samples would widen uncertainty instead of biasing the mean.  Every
    query of the package is decided on a finite window, so every estimate it
    makes has ``n_truncated == 0``; the field stays because artifacts write
    it as a column.
    """

    value: float
    stderr: float
    n_samples: int
    n_truncated: int = 0
    seed: int = 0
    sample_range: Tuple[int, int] = (0, 0)

    @classmethod
    def from_counts(
        cls,
        successes: int,
        n_samples: int,
        n_truncated: int = 0,
        seed: int = 0,
        sample_range: Tuple[int, int] = (0, 0),
    ) -> "Estimate":
        n_eff = n_samples - n_truncated
        if n_eff <= 0:
            return cls(float("nan"), float("nan"), n_samples, n_truncated, seed, sample_range)
        ph = successes / n_eff
        se = math.sqrt(ph * (1.0 - ph) / n_eff)
        return cls(ph, se, n_samples, n_truncated, seed, sample_range)


def combine_gap_sigma(a: Estimate, b: Estimate) -> Tuple[float, float]:
    """|a-b| and the standard error of the difference (independent samples)."""
    return abs(a.value - b.value), math.hypot(a.stderr, b.stderr)


# ---------------------------------------------------------------------------
# Connection-probability profiles (windowed implementation)


def _origin_reach(win: Window, cfg: PercolationConfig, sample_ids: range) -> Iterator[int]:
    """Largest norm the origin's open cluster reaches in ``win``, per sample
    id, in order: one search from the origin per block of samples."""
    origin = win.row_of((0,) * cfg.spec.d)
    norms = win.norms()  # >= 0, and 0 at the origin, which every cluster holds
    for block in sample_blocks(win, sample_ids):
        yield from (norms * origin_cluster(win, sample_open_edges(win, cfg, block),
                                           origin, None)).max(axis=1)


def two_point_profile(
    cfg: PercolationConfig,
    targets: Sequence[Site],
    n_samples: int,
    sample_start: int = 0,
) -> List[Tuple[Site, "Estimate"]]:
    """P(0 connects to x within B(R)) for each target, sharing samples.

    One search from the origin per block of samples serves every target.
    ``R`` is twice the farthest target's norm, and at least 2, so the
    estimate is the box-restricted two-point function (the unrestricted one
    is not samplable: critical clusters have heavy tails).
    """
    if len(set(targets)) != len(targets):
        raise ValueError("targets must be distinct")
    rmax = max((norm_inf(t) for t in targets), default=0)
    win = build_window(cfg.spec, cfg.seed, outer=max(2, 2 * rmax))
    origin = win.row_of((0,) * cfg.spec.d)
    rows = win.rows_of(targets)
    hits = np.zeros(len(targets), dtype=np.int64)
    rng = (sample_start, sample_start + n_samples)
    for block in sample_blocks(win, range(*rng)):
        clusters = origin_cluster(win, sample_open_edges(win, cfg, block), origin, None)
        hits += clusters[:, rows].sum(axis=0)
    return [
        (t, Estimate.from_counts(int(h), n_samples, 0, cfg.seed, rng))
        for t, h in zip(targets, hits)
    ]


def one_arm_profile(
    cfg: PercolationConfig,
    radii: Sequence[int],
    n_samples: int,
    sample_start: int = 0,
) -> List[Tuple[int, "Estimate"]]:
    """P(origin's open cluster reaches sup-norm >= n) for each radius.

    One search from the origin per block of samples records the maximal
    norm each sample reaches, so the profile is exactly nonincreasing in n
    (the events are nested by construction, not merely in expectation).
    """
    radii = list(radii)
    if not radii:
        raise ValueError("radii must be non-empty")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    if any(r < 0 for r in radii):
        raise ValueError("radii must be nonnegative")
    win = build_window(cfg.spec, cfg.seed, outer=radii[-1])
    hits = np.zeros(len(radii), dtype=np.int64)
    rad_arr = np.asarray(radii)
    rng = (sample_start, sample_start + n_samples)
    for reach in _origin_reach(win, cfg, range(*rng)):
        hits += rad_arr <= reach
    return [
        (r, Estimate.from_counts(int(h), n_samples, 0, cfg.seed, rng))
        for r, h in zip(radii, hits)
    ]


# ---------------------------------------------------------------------------
# Power-law fits


@dataclass
class PowerFit:
    exponent: float
    exponent_stderr: float
    amplitude: float
    window: Tuple[int, int]
    residual_norm: float
    n_points: int = 0


def fit_exponent(profile: Sequence[Tuple[float, Estimate]]) -> PowerFit:
    """Weighted least squares for value ~ amplitude * scale^exponent.

    Fits (log scale, log value) with inverse-variance weights; from six
    points up, the fit window drops the two smallest and the largest scale
    (lattice effects at the bottom, truncation at the top).  Zero-valued
    points are excluded with a warning.  If any retained point reports zero
    stderr the fit falls back to uniform weights (exact synthetic data).
    """
    n = len(profile)
    lo, hi = (2, n - 1) if n >= 6 else (0, n)
    pts = []
    for scale, est in profile[lo:hi]:
        if est.value <= 0:
            warnings.warn(f"excluding zero-valued point at scale {scale} from fit")
            continue
        pts.append((scale, est.value, est.stderr))
    if len(pts) < 3:
        raise ValueError("need at least 3 positive points in the fit window")
    t = np.log([s for s, _, _ in pts])
    y = np.log([v for _, v, _ in pts])
    sig = np.array([se / v for _, v, se in pts])
    if np.any(sig == 0):
        w = np.ones(len(pts))
    else:
        w = 1.0 / sig**2
    X = np.stack([np.ones(len(pts)), t], axis=1)
    XtW = X.T * w
    cov = np.linalg.inv(XtW @ X)
    coef = cov @ (XtW @ y)
    resid = y - X @ coef
    return PowerFit(
        exponent=float(coef[1]),
        exponent_stderr=float(math.sqrt(cov[1, 1])),
        amplitude=float(math.exp(coef[0])),
        window=(lo, hi),
        residual_norm=float(math.sqrt(np.sum(w * resid**2))),
        n_points=len(pts),
    )


# ---------------------------------------------------------------------------
# Threshold location


def _arm_scaling_stat(
    win: Window, cfg: PercolationConfig, radii: Tuple[int, int], n_samples: int,
    sample_start: int,
) -> Tuple[float, float]:
    """n2^2*pi(n2) - n1^2*pi(n1) from shared samples (one window, one pass)."""
    n1, n2 = radii
    vals = np.empty(n_samples)
    ids = range(sample_start, sample_start + n_samples)
    for i, reach in enumerate(_origin_reach(win, cfg, ids)):
        vals[i] = n2 * n2 * (reach >= n2) - n1 * n1 * (reach >= n1)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_samples))


def _crossing_stat(
    win: Window, cfg: PercolationConfig, radii: Tuple[int, int], n_samples: int,
    sample_start: int,
) -> Tuple[float, float]:
    """P(side-to-side open crossing of B(n)) - 1/2 for n = radii[-1]."""
    n = radii[-1]
    left = np.flatnonzero(win.sites[:, 0] == -n)
    right = np.flatnonzero(win.sites[:, 0] == n)
    hits = 0
    for block in sample_blocks(win, range(sample_start, sample_start + n_samples)):
        for labels in component_labels(win, sample_open_edges(win, cfg, block)):
            hits += int(np.isin(labels[left], labels[right]).any())
    ph = hits / n_samples
    return ph - 0.5, math.sqrt(max(ph * (1 - ph), 1.0 / n_samples) / n_samples)


PC_CRITERIA = {"arm_scaling": _arm_scaling_stat, "crossing": _crossing_stat}


class BracketError(ValueError):
    """The bisection bracket does not straddle the transition: a bad input,
    not a broken invariant."""


def locate_pc(
    spec,
    criterion: str = "arm_scaling",
    bracket: Tuple[float, float] = (0.3, 0.7),
    tol: float = 0.005,
    radii: Optional[Tuple[int, int]] = None,
    n_samples: int = 3000,
    seed: int = 0,
) -> Tuple[float, dict]:
    """Bisection estimate of the percolation threshold.

    Criteria (each a signed statistic crossing zero near the transition):

    * ``arm_scaling`` (default): difference of n^2 * (one-arm probability)
      between two dyadic radii.  Mirrors the scaled arm quantity whose limit
      is the open question in high dimension; for small d the statistic
      crosses zero slightly below the true threshold at desk radii — a known,
      radius-dependent bias documented in the diagnostics.
    * ``crossing``: side-to-side crossing probability of B(n) minus 1/2.
      Sharp-threshold behaviour makes this nearly unbiased for d = 2.

    Returns (threshold estimate, diagnostics with the criterion curve).
    """
    if criterion not in PC_CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    stat = PC_CRITERIA[criterion]
    if radii is None:
        radii = (16, 32)
    lo, hi = bracket
    if not 0 <= lo < hi <= 1:
        raise ValueError("bracket must satisfy 0 <= lo < hi <= 1")
    # both criteria label B(radii[-1]); one window serves every evaluation
    win = build_window(spec, seed, outer=radii[-1])
    curve: List[Tuple[float, float, float]] = []
    cursor = 0

    def f(p: float) -> float:
        nonlocal cursor
        v, se = stat(win, PercolationConfig(spec=spec, p=p, seed=seed), radii,
                     n_samples, cursor)
        cursor += n_samples
        curve.append((p, v, se))
        return v

    f_lo, f_hi = f(lo), f(hi)
    # Deep subcritical points can report exactly 0 (no cluster ever reaches
    # the inner radius), which still certifies the "below" side.
    if f_lo > 0 or f_hi <= 0:
        raise BracketError(
            f"bracket {bracket} does not straddle the transition under "
            f"criterion {criterion!r} (stat {f_lo:.4g} .. {f_hi:.4g})"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    estimate = 0.5 * (lo + hi)
    diagnostics = {
        "criterion": criterion,
        "radii": radii,
        "bracket_final": (lo, hi),
        "curve": sorted(curve),
        "n_samples_per_eval": n_samples,
        "seed": seed,
    }
    return estimate, diagnostics


# ---------------------------------------------------------------------------
# The cluster-exit inequality on tiny graphs (exact arithmetic)


@dataclass
class SubgraphSpec:
    """A connected subgraph given by its vertex set and edge list."""

    vertices: frozenset
    edges: Tuple[Tuple[object, object], ...] = ()

    def __post_init__(self):
        for u, v in self.edges:
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge ({u}, {v}) leaves the vertex set")
        # connectivity of the subgraph itself
        if len(self.vertices) > 1:
            adj: Dict[object, set] = {v: set() for v in self.vertices}
            for u, v in self.edges:
                adj[u].add(v)
                adj[v].add(u)
            seen = set()
            stack = [next(iter(self.vertices))]
            while stack:
                w = stack.pop()
                if w in seen:
                    continue
                seen.add(w)
                stack.extend(adj[w] - seen)
            if seen != self.vertices:
                raise ValueError("subgraph is not connected")


def _vertices_of(edges: Iterable[Tuple[object, object]]) -> set:
    out = set()
    for u, v in edges:
        out.add(u)
        out.add(v)
    return out


def nofurther_check(
    a0_edges: Sequence[Tuple[object, object]],
    a1_edges: Sequence[Tuple[object, object]],
    c: SubgraphSpec,
    b_vertices: Iterable,
    p,
    a0_vertices: Optional[Iterable] = None,
) -> Tuple[Fraction, Fraction, bool]:
    """Exact check of the cluster-exit inequality on a small instance.

    Let A0 be a subgraph of A1 and C a connected subgraph of A0.  Writing
    dC for the vertices of A1 outside A0 that are A1-adjacent to C,

        P(C <-> B inside A1 | C is an open cluster of A0)
            <= sum over w in dC of P(w <-> B inside A1 minus C).

    "C is an open cluster of A0" pins every edge of C open and every other
    A0-edge touching C closed.  Both sides are returned as exact rationals
    via full enumeration; the instance must have at most
    :data:`~percolab.engine.MAX_EXACT_EDGES` edges in A1.

    The inequality's proof needs A0 to be induced in A1 over its vertex set
    (no A1-shortcut between two A0 vertices that bypasses A0's edges) and B
    disjoint from C; both are validated here.
    """
    a0_edges = [tuple(e) for e in a0_edges]
    a1_edges = [tuple(e) for e in a1_edges]
    b_set = frozenset(b_vertices)
    v_a0 = set(a0_vertices) if a0_vertices is not None else _vertices_of(a0_edges)
    v_a0 |= c.vertices
    v_a1 = _vertices_of(a1_edges) | v_a0 | b_set

    e_a0 = set(map(frozenset, a0_edges))
    e_a1 = set(map(frozenset, a1_edges))
    if not e_a0 <= e_a1:
        raise ValueError("A0's edges must be a subset of A1's")
    if not v_a0 <= v_a1:
        raise ValueError("A0's vertices must be a subset of A1's")
    if not set(map(frozenset, c.edges)) <= e_a0:
        raise ValueError("C's edges must lie in A0")
    if not c.vertices <= v_a0:
        raise ValueError("C's vertices must lie in A0")
    if not b_set <= v_a1:
        raise ValueError("B must be a subset of A1's vertices")
    if b_set & c.vertices:
        raise ValueError("B must be disjoint from C")
    for e in e_a1:
        u, v = tuple(e)
        if u in v_a0 and v in v_a0 and e not in e_a0:
            raise ValueError("A0 must be induced in A1 over its vertex set")

    boundary = sorted(
        (
            v
            for v in v_a1 - v_a0
            if any(frozenset((v, w)) in e_a1 for w in c.vertices)
        ),
        key=repr,
    )

    tg = TinyGraph(a1_edges)
    c_edge_bits = 0
    closure_bits = 0
    c_set = set(map(frozenset, c.edges))
    for i, e in enumerate(a1_edges):
        fe = frozenset(e)
        if fe in c_set:
            c_edge_bits |= 1 << i
        elif fe in e_a0 and (e[0] in c.vertices or e[1] in c.vertices):
            closure_bits |= 1 << i

    def pinned(masks: np.ndarray) -> np.ndarray:
        return ((masks & c_edge_bits) == c_edge_bits) & ((masks & closure_bits) == 0)

    m = len(a1_edges)
    p_cond = enumerate_exact(a1_edges, p, exact_event_table(m, pinned))
    if p_cond == 0:
        raise ValueError("conditioning event has probability zero")
    joint = exact_event_table(m, lambda ms: pinned(ms) & tg.connects(ms, c.vertices, b_set))
    lhs = enumerate_exact(a1_edges, p, joint) / p_cond

    rest_edges = [
        e for e in a1_edges if e[0] not in c.vertices and e[1] not in c.vertices
    ]
    tg_rest = TinyGraph(rest_edges)
    rhs = Fraction(0)
    for w in boundary:
        if w in b_set:
            rhs += 1
            continue
        table = exact_event_table(len(rest_edges),
                                  lambda ms, w=w: tg_rest.connects(ms, {w}, b_set))
        rhs += enumerate_exact(rest_edges, p, table)
    return lhs, rhs, lhs <= rhs
