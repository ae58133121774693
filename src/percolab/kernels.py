"""Positive kernels, relative oscillation, and the contraction machinery.

A kernel is a strictly positive matrix indexed by opaque labels.  Applying a
kernel to a positive function contracts the spread of ratios by the factor
(kappa - 1)/(kappa + 1), where kappa^2 bounds all cross ratios; iterating
products therefore pins down the limiting ratio of two rows to within a
geometrically shrinking bracket.

Two arithmetic paths coexist: a log-domain float path (products of many
kernels underflow linear floats) and an exact-rational path that activates
automatically when every entry is an int or Fraction — the bracket
monotonicity statements are algebraic identities and the exact path asserts
them with zero tolerance.  The float path sums in the log domain with the
module's own ``_logsumexp``, so its floats do not depend on the installed
scipy release.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

EPS_REL = 1e-12


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a), axis)) for finite real ``a``, bit for bit the steps of
    scipy 1.17's ``logsumexp``: the maxima are taken out of the sum and
    counted, so a row of ties loses no precision."""
    a_max = a.max(axis, keepdims=True)
    top = a == a_max
    m = top.sum(axis, keepdims=True, dtype=a.dtype)
    s = np.exp(np.where(top, -np.inf, a) - a_max).sum(axis, keepdims=True)
    s = np.where(s == 0, s, s / m)
    return np.squeeze((np.log1p(s) + np.log(m)) + a_max, axis)


def _as_exact(values) -> Optional[List[Fraction]]:
    out = []
    for v in values:
        if isinstance(v, Rational):
            out.append(Fraction(v))
        else:
            return None
    return out


@dataclass(frozen=True)
class Kernel:
    """Strictly positive kernel T(i, j) over finite label sets.

    ``log_mat`` always holds log T; ``exact`` carries the entries as
    Fractions when the kernel was built from rationals (row-major tuple of
    tuples), enabling zero-tolerance arithmetic downstream.
    """

    rows: Tuple
    cols: Tuple
    log_mat: np.ndarray
    exact: Optional[Tuple[Tuple[Fraction, ...], ...]] = None

    @classmethod
    def from_entries(cls, rows: Sequence, cols: Sequence, entries) -> "Kernel":
        rows = tuple(rows)
        cols = tuple(cols)
        flat: List = []
        table: List[List] = []
        for i in range(len(rows)):
            line = []
            for j in range(len(cols)):
                v = entries[i][j]
                line.append(v)
                flat.append(v)
            table.append(line)
        if any(float(v) <= 0 for v in flat):
            raise ValueError("kernel entries must be strictly positive")
        ex = _as_exact(flat)
        exact = None
        if ex is not None:
            it = iter(ex)
            exact = tuple(tuple(next(it) for _ in cols) for _ in rows)
        log_mat = np.log(np.array([[float(v) for v in line] for line in table]))
        return cls(rows=rows, cols=cols, log_mat=log_mat, exact=exact)

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.rows), len(self.cols))

    def entries(self) -> np.ndarray:
        return np.exp(self.log_mat)


def oscillation(f: Sequence, g: Sequence):
    """Spread of the ratio f/g over the common index set.

    max(f/g) - min(f/g); zero iff f is a constant multiple of g.  Exact
    Fraction arithmetic when both inputs are rational.
    """
    if len(f) != len(g) or len(f) == 0:
        raise ValueError("f and g must be nonempty and equally long")
    ef, eg = _as_exact(f), _as_exact(g)
    if ef is not None and eg is not None:
        if any(v <= 0 for v in ef) or any(v <= 0 for v in eg):
            raise ValueError("oscillation requires strictly positive values")
        ratios = [a / b for a, b in zip(ef, eg)]
        return max(ratios) - min(ratios)
    fa = np.asarray(f, dtype=float)
    ga = np.asarray(g, dtype=float)
    if np.any(fa <= 0) or np.any(ga <= 0):
        raise ValueError("oscillation requires strictly positive values")
    r = fa / ga
    return float(r.max() - r.min())


def cross_ratio_kappa(T: Kernel) -> float:
    """The comparability constant: kappa^2 bounds every cross ratio
    T(i,j)T(i',j') / (T(i,j')T(i',j)).  Constant and rank-one kernels give
    kappa = 1."""
    L = T.log_mat
    # log cross ratio for all quadruples, vectorised
    D = (
        L[:, None, :, None]
        + L[None, :, None, :]
        - L[:, None, None, :]
        - L[None, :, :, None]
    )
    return float(math.exp(np.abs(D).max() / 2.0))


def apply_kernel(T: Kernel, f: Sequence):
    """(Tf)(i) = sum_j T(i,j) f(j); exact when everything is rational."""
    if len(f) != len(T.cols):
        raise ValueError("dimension mismatch")
    ef = _as_exact(f)
    if ef is not None and T.exact is not None:
        return [sum(r * v for r, v in zip(line, ef)) for line in T.exact]
    fa = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(fa) & (fa > 0)):
        raise ValueError("apply_kernel requires strictly positive finite values")
    return list(np.exp(_logsumexp(T.log_mat + np.log(fa)[None, :], axis=1)))


def contract_check(T: Kernel, f: Sequence, g: Sequence) -> Tuple[float, float, bool]:
    """Verify osc(Tf, Tg) <= ((kappa-1)/(kappa+1)) * osc(f, g).

    Returns (lhs, rhs, holds) with a 1e-12 relative numeric allowance.
    """
    if len(f) != len(T.cols) or len(g) != len(T.cols):
        raise ValueError("dimension mismatch")
    lhs = float(oscillation(apply_kernel(T, f), apply_kernel(T, g)))
    kappa = cross_ratio_kappa(T)
    rhs = (kappa - 1.0) / (kappa + 1.0) * float(oscillation(f, g))
    holds = lhs <= rhs + EPS_REL * max(1.0, abs(rhs))
    return lhs, rhs, holds


@dataclass
class RatioLimitReport:
    """Bracketed limiting row ratios of a growing kernel product."""

    alpha: Dict[Tuple, float]
    bracket_width: Dict[Tuple, float]
    widths_by_step: List[float]  # max over row pairs, per product length
    decay_rate: Optional[float]
    kappa_bound: float
    exact_path: bool
    per_pair_min: Dict[Tuple, List] = field(default_factory=dict)
    per_pair_max: Dict[Tuple, List] = field(default_factory=dict)


def _fit_geometric_rate(widths: Sequence[float]) -> Optional[float]:
    """Least-squares slope of log(width) per step, as a rate in (0, 1)."""
    pts = [(k, float(w)) for k, w in enumerate(widths) if w > 0]
    if len(pts) < 3:
        return None
    ks = np.array([k for k, _ in pts], dtype=float)
    ys = np.log([w for _, w in pts])
    slope = np.polyfit(ks, ys, 1)[0]
    return float(math.exp(slope))


def ratio_limit(Ts: Sequence[Kernel], kappa_bound: float) -> RatioLimitReport:
    """Track row ratios of T_1 T_2 ... T_k as k grows.

    For each ordered row pair (C, C') of the first kernel, the min and max
    over columns of P_k(C, .) / P_k(C', .) bracket the limiting ratio; the
    min is nondecreasing and the max nonincreasing in k (weighted-average
    algebra — asserted exactly on the rational path, to 1e-12 relative on
    the float path).  The report carries the final midpoints, bracket
    widths, and a fitted geometric decay rate of the width.
    """
    if not Ts:
        raise ValueError("empty kernel sequence")
    for t_index, T in enumerate(Ts):
        k = cross_ratio_kappa(T)
        if k > kappa_bound * (1 + EPS_REL):
            raise ValueError(
                f"kernel {t_index} has kappa {k:.6g} > bound {kappa_bound}"
            )
    for A, B in zip(Ts, Ts[1:]):
        if A.cols != B.rows:
            raise ValueError("adjacent kernel index sets do not match")

    exact_path = all(T.exact is not None for T in Ts)
    labels = Ts[0].rows
    pairs = [(a, b) for a in labels for b in labels if a != b]
    if not pairs:
        raise ValueError("need at least two row labels")

    # Row vectors of the running product, one per label.
    if exact_path:
        vecs: Dict[object, List] = {
            lab: list(Ts[0].exact[i]) for i, lab in enumerate(labels)
        }
    else:
        vecs = {lab: list(Ts[0].log_mat[i]) for i, lab in enumerate(labels)}

    def ratio_bracket(a, b):
        if exact_path:
            ratios = [x / y for x, y in zip(vecs[a], vecs[b])]
            return min(ratios), max(ratios)
        diff = np.asarray(vecs[a]) - np.asarray(vecs[b])
        return float(np.exp(diff.min())), float(np.exp(diff.max()))

    mins: Dict[Tuple, List] = {pr: [] for pr in pairs}
    maxs: Dict[Tuple, List] = {pr: [] for pr in pairs}

    def record():
        for pr in pairs:
            lo, hi = ratio_bracket(*pr)
            if mins[pr]:
                prev_lo, prev_hi = mins[pr][-1], maxs[pr][-1]
                if exact_path:
                    if lo < prev_lo or hi > prev_hi:
                        raise AssertionError(
                            "bracket monotonicity violated on the exact path"
                        )
                else:
                    tol = EPS_REL * max(1.0, abs(prev_hi))
                    if lo < prev_lo - tol or hi > prev_hi + tol:
                        raise AssertionError(
                            "bracket monotonicity violated beyond float tolerance"
                        )
                    lo, hi = max(lo, prev_lo), min(hi, prev_hi)
            mins[pr].append(lo)
            maxs[pr].append(hi)

    record()
    for T in Ts[1:]:
        if exact_path:
            for lab in labels:
                v = vecs[lab]
                vecs[lab] = [
                    sum(v[m] * T.exact[m][j] for m in range(len(v)))
                    for j in range(len(T.cols))
                ]
        else:
            for lab in labels:
                v = np.asarray(vecs[lab])
                vecs[lab] = list(_logsumexp(v[:, None] + T.log_mat, axis=0))
        record()

    widths_by_step = [
        max(float(maxs[pr][k] - mins[pr][k]) for pr in pairs)
        for k in range(len(mins[pairs[0]]))
    ]
    alpha = {
        pr: float((mins[pr][-1] + maxs[pr][-1]) / 2) for pr in pairs
    }
    bracket_width = {
        pr: float(maxs[pr][-1] - mins[pr][-1]) for pr in pairs
    }
    return RatioLimitReport(
        alpha=alpha,
        bracket_width=bracket_width,
        widths_by_step=widths_by_step,
        decay_rate=_fit_geometric_rate(widths_by_step),
        kappa_bound=kappa_bound,
        exact_path=exact_path,
        per_pair_min={pr: list(v) for pr, v in mins.items()},
        per_pair_max={pr: list(v) for pr, v in maxs.items()},
    )


def random_kernel(
    rng: np.random.Generator,
    n_rows: int,
    n_cols: int,
    low: float = 0.1,
    high: float = 10.0,
) -> Kernel:
    """Log-uniform random kernel with entries in ``[low, high]``."""
    mat = np.exp(rng.uniform(math.log(low), math.log(high), size=(n_rows, n_cols)))
    return Kernel.from_entries(range(n_rows), range(n_cols), mat)
