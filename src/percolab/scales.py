"""Scale hierarchies: the doubly-geometric exponent ladder and its annuli.

A scale ladder is built from a starting exponent ``k_1`` and a multiplier
``m`` via ``k_i^* = m k_i`` and ``k_{i+1} = m k_i^*`` (with the convention
``k_0 = 0``, ``k_0^* = 1``).  Level ``i >= 1`` carries the annulus

    ``Ann_i = B(2^{k_i^* + ann_margin}) \\ B(2^{k_i - ann_margin})``

with sub-annuli ``Ann_i^q = B(2^{k_i^* + q}) \\ B(2^{k_i - q})`` for
``0 <= q <= q_max``, and the separation box ``S_i = B(2^{ell_i})`` with
``ell_i = ell_factor * k_i``.  Level 0 is degenerate: ``Ann_0 = B(2)``.

Two modes:

* ``faithful`` -- the multiplier is ``2 d^2``, ``q_max = 32 d^4``,
  ``ann_margin = q_max + 1`` and ``ell_factor = d``; ``k_1`` must clear the
  floor ``L + lam + 64 d^4 + 4`` for cylinder events supported on ``B(2^L)``.
  Radii like ``2^{k_i}`` are astronomically large, so they are carried
  *symbolically* as exponents; nothing faithful is ever simulated, only
  checked by exact integer arithmetic.
* ``toy`` -- any multiplier ``m >= 2`` and small ``k_1``, giving desk-scale
  radii that the sampling engine can actually explore.  The invariant kept
  from the faithful ladder is that boundary shells of distinct sub-annuli of
  a level stay disjoint with an l-infinity gap of more than ``2 lam``.

Exponent comparisons (``2^k < n`` etc.) are done exactly on integers; a
``2^k`` is only ever materialised when ``k`` is small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral, Real
from typing import List, Optional, Tuple, Union

from .lattice import (
    NEAREST_NEIGHBOUR,
    LatticeSpec,
    Region,
    WindowTooLargeError,
    annulus,
    box,
    check_numbers,
    edge_count_box,
)

#: Largest radius exponent that region materialisation will accept.
MATERIALISE_EXP_LIMIT = 30


@dataclass(frozen=True)
class ScaleParams:
    mode: str  # "toy" | "faithful"
    k1: int
    m: int
    q_max: int
    ann_margin: int
    ell_factor: Union[int, Fraction]

    def __post_init__(self):
        if self.mode not in ("toy", "faithful"):
            raise ValueError(f"unknown scale mode {self.mode!r}")
        check_numbers(Integral, "k1", self.k1)
        check_numbers(Integral, "m", self.m)
        check_numbers(Integral, "q_max", self.q_max)
        check_numbers(Integral, "ann_margin", self.ann_margin)
        check_numbers(Real, "ell_factor", self.ell_factor)

    def ell(self, k: int) -> int:
        """``ell_factor * k`` as an exact integer (rational factors must land
        on integers for the exponent to make sense)."""
        v = Fraction(self.ell_factor) * k
        if v.denominator != 1:
            raise ValueError(f"ell_factor * k = {v} is not an integer")
        return int(v)


@dataclass(frozen=True)
class ScaleIndex:
    """One rung of the ladder; radii are stored as base-2 exponents.

    ``ann_inner_exp`` is ``None`` at the degenerate level 0, where the
    "annulus" is the solid box ``B(2)``.  A negative ``ann_inner_exp`` means
    the full annulus's hole degenerates to the origin alone (toy ladders with
    margins larger than ``k_1``).
    """

    i: int
    k: int
    k_star: int
    ann_inner_exp: Optional[int]
    ann_outer_exp: int
    ell: int


def faithful_params(spec: LatticeSpec, k1: int) -> ScaleParams:
    d = spec.d
    return ScaleParams(
        mode="faithful",
        k1=k1,
        m=2 * d * d,
        q_max=32 * d**4,
        ann_margin=32 * d**4 + 1,
        ell_factor=d,
    )


def toy_params(
    k1: int,
    m: int = 2,
    q_max: int = 1,
    ann_margin: Optional[int] = None,
    ell_factor: Union[int, Fraction] = 1,
) -> ScaleParams:
    if ann_margin is None:
        ann_margin = q_max + 1
    return ScaleParams(
        mode="toy", k1=k1, m=m, q_max=q_max, ann_margin=ann_margin, ell_factor=ell_factor
    )


def k1_floor(spec: LatticeSpec, cylinder_exp: int) -> int:
    """Smallest admissible faithful ``k_1`` for cylinder events supported on
    ``B(2^L)``: ``L + lam + 64 d^4 + 4``."""
    return cylinder_exp + spec.lam + 64 * spec.d**4 + 4


def validate_scale_params(
    params: ScaleParams, spec: LatticeSpec, cylinder_exp: Optional[int] = None
) -> None:
    """Raise ``ValueError`` on any violated mode invariant."""
    d = spec.d
    if params.k1 < 1:
        raise ValueError("k1 must be >= 1")
    if params.mode == "faithful":
        if params.m != 2 * d * d:
            raise ValueError(f"faithful multiplier must be 2d^2 = {2 * d * d}")
        if params.q_max != 32 * d**4:
            raise ValueError(f"faithful q_max must be 32 d^4 = {32 * d ** 4}")
        if params.ann_margin != params.q_max + 1:
            raise ValueError("faithful ann_margin must be q_max + 1")
        if Fraction(params.ell_factor) != d:
            raise ValueError(f"faithful ell_factor must be d = {d}")
        if cylinder_exp is not None and params.k1 < k1_floor(spec, cylinder_exp):
            raise ValueError(
                f"faithful k1 = {params.k1} below floor {k1_floor(spec, cylinder_exp)}"
            )
        return
    # --- toy mode ---
    if params.m < 2:
        raise ValueError("toy multiplier must be >= 2")
    if params.q_max < 1:
        raise ValueError("toy q_max must be >= 1")
    if params.ann_margin < params.q_max + 1:
        raise ValueError("toy ann_margin must be >= q_max + 1")
    if not 1 <= Fraction(params.ell_factor) < params.m:
        raise ValueError("toy ell_factor must satisfy 1 <= ell_factor < m")
    if params.k1 < params.q_max:
        raise ValueError("toy k1 must be >= q_max so all sub-annuli have radius >= 1")
    params.ell(params.k1)  # integrality check
    issues = ladder_geometry_issues(params, spec, i_max=3, strict=False)
    if issues:
        raise ValueError("; ".join(issues))


def scale_sequence(params: ScaleParams, i_max: int) -> List[ScaleIndex]:
    """Levels ``0..i_max`` of the ladder (level 0 degenerate)."""
    if i_max < 0:
        raise ValueError("i_max must be >= 0")
    out = [ScaleIndex(i=0, k=0, k_star=1, ann_inner_exp=None, ann_outer_exp=1, ell=0)]
    k = params.k1
    for i in range(1, i_max + 1):
        k_star = params.m * k
        out.append(
            ScaleIndex(
                i=i,
                k=k,
                k_star=k_star,
                ann_inner_exp=k - params.ann_margin,
                ann_outer_exp=k_star + params.ann_margin,
                ell=params.ell(k),
            )
        )
        k = params.m * k_star
    return out


def closed_form_k(params: ScaleParams, i: int) -> Tuple[int, int]:
    """``(k_i, k_i^*)`` in closed form: ``k_i = m^{2(i-1)} k_1``."""
    if i < 1:
        raise ValueError("closed form defined for i >= 1")
    k = params.m ** (2 * (i - 1)) * params.k1
    return k, params.m * k


def sub_annulus_exponents(idx: ScaleIndex, q: int, q_max: int) -> Tuple[int, int]:
    """Radius exponents ``(k_i - q, k_i^* + q)`` of ``Ann_i^q`` (symbolic).

    Level 0 returns ``(None, 1)``: a solid box of radius 2.
    """
    if idx.i == 0:
        if q != 0:
            raise ValueError("level 0 admits only q = 0")
        return (None, 1)
    if not 0 <= q <= q_max:
        raise ValueError(f"q = {q} outside [0, {q_max}]")
    return (idx.k - q, idx.k_star + q)


def sub_annulus(spec: LatticeSpec, idx: ScaleIndex, q: int, params: ScaleParams) -> Region:
    """``Ann_i^q = B(2^{k_i^* + q}) \\ B(2^{k_i - q})`` as a concrete Region.

    Sites of norm exactly ``2^{k_i - q}`` are *excluded* (they lie in the
    subtracted box).  Refuses astronomically large radii; use
    :func:`sub_annulus_exponents` for symbolic work.
    """
    lo, hi = sub_annulus_exponents(idx, q, params.q_max)
    if hi > MATERIALISE_EXP_LIMIT:
        raise WindowTooLargeError(
            f"radius exponent {hi} exceeds materialisation limit; use "
            "sub_annulus_exponents for symbolic work"
        )
    if idx.i == 0:
        return box((0,) * spec.d, 2)
    return annulus((0,) * spec.d, 2**lo, 2**hi)


# ---------------------------------------------------------------------------
# Exact power-of-two comparisons
# ---------------------------------------------------------------------------


def pow2_lt(k: int, n: int) -> bool:
    """Exact ``2^k < n`` without materialising ``2^k`` for huge ``k``."""
    if n <= 0:
        return False
    if k < 0:
        return n >= 1
    bl = n.bit_length()  # 2^(bl-1) <= n < 2^bl
    if k <= bl - 2:
        return True
    if k >= bl:
        return False
    return n > (1 << k)


def pow2_gt(k: int, n: int) -> bool:
    """Exact ``2^k > n`` (true for any ``n < 1`` and ``k < 0``)."""
    if n < 1:
        return True
    bl = n.bit_length()
    if k < 0:
        return False
    if k >= bl:
        return True
    if k <= bl - 2:
        return False
    return (1 << k) > n


# ---------------------------------------------------------------------------
# Symbolic geometry audit
# ---------------------------------------------------------------------------


def ladder_geometry_issues(
    params: ScaleParams, spec: LatticeSpec, i_max: int = 3, strict: bool = True
) -> List[str]:
    """Audit the ladder geometry symbolically; returns human-readable issues.

    Base checks (enforced for both modes):

    * inner radii of every ``Ann_i^q`` stay >= 1;
    * boundary shells of consecutive sub-annuli of a level are disjoint with
      an l-infinity gap of more than ``2 lam`` (shells occupy norm bands of
      width ``max(lam, 1)``);
    * ``Ann_i^{q_max}`` sits strictly inside ``Ann_i``.

    Strict checks (faithful-ladder structure, reported but not enforced on
    toys): separation boxes thread every sub-annulus with ``q >= 1`` and
    consecutive levels are disjoint with ``S_i`` inside the next hole.
    """
    issues: List[str] = []
    lam = spec.lam
    seq = scale_sequence(params, i_max)
    for idx in seq[1:]:
        if idx.k - params.q_max < 0:
            issues.append(f"level {idx.i}: inner radius exponent below 0")
            continue
        for q in range(params.q_max):
            # Inner boundary shells occupy norms [2^e, 2^e + lam - 1] (a single
            # shell for nearest neighbour) at e = k - q and e = k - q - 1.
            # Band gap is 2^(k-q-1) - lam + 1 - (lam - 1) - 1; demanding a gap
            # > 2*lam reduces to 2^(k-q-1) > 4*lam - 1, and for lam = 0 plain
            # disjointness needs 2^(k-q-1) >= 1.
            e = idx.k - q - 1
            ok = pow2_gt(e, 4 * lam - 1) if lam > 0 else e >= 0
            if not ok:
                issues.append(
                    f"level {idx.i}, q={q}: inner boundary shells of Ann^{q} and "
                    f"Ann^{q + 1} not separated by more than 2*lam"
                )
            # Outer shells at radii 2^(k*+q) and 2^(k*+q+1).
            e = idx.k_star + q
            ok = pow2_gt(e, 4 * lam - 1) if lam > 0 else True
            if not ok:
                issues.append(
                    f"level {idx.i}, q={q}: outer boundary shells of Ann^{q} and "
                    f"Ann^{q + 1} not separated by more than 2*lam"
                )
        if not (
            idx.ann_inner_exp < idx.k - params.q_max
            and idx.k_star + params.q_max < idx.ann_outer_exp
        ):
            issues.append(f"level {idx.i}: Ann^q_max not strictly inside Ann")
        if strict and not (idx.k - 1 < idx.ell < idx.k_star + 1):
            issues.append(
                f"level {idx.i}: separation box exponent {idx.ell} outside "
                f"({idx.k - 1}, {idx.k_star + 1})"
            )
    if strict:
        for a, b in zip(seq[1:], seq[2:]):
            if not a.ann_outer_exp < b.ann_inner_exp:
                issues.append(
                    f"levels {a.i},{b.i}: annuli overlap "
                    f"({a.ann_outer_exp} !< {b.ann_inner_exp})"
                )
            if not a.ell < b.k - params.q_max:
                issues.append(
                    f"levels {a.i},{b.i}: S_{a.i} not strictly inside Ann_{b.i}'s hole"
                )
    return issues


# ---------------------------------------------------------------------------
# Likelihood-ratio horizon in p, conditioning horizon in n
# ---------------------------------------------------------------------------


def likelihood_ratio_horizon(
    params: ScaleParams,
    spec: LatticeSpec,
    p: float,
    p_c: float,
) -> Union[int, float]:
    """Largest level whose cylinder likelihood ratios stay within ``[1/2, 2]``.

    For product Bernoulli measures the extremal ratios of P_p to P_{p_c} on
    the sigma-field of the edges of ``B(2^{k_{i+1}^*})`` are attained at the
    all-open and all-closed cylinders, so the level-``i`` condition reads

        ``(p/p_c)^{m_i} <= 2``  and  ``((1-p_c)/(1-p))^{m_i} <= 2``

    with ``m_i = |E(B(2^{k_{i+1}^*}))|`` counted in closed form.  Returns
    ``math.inf`` at ``p == p_c``; levels are counted from 1, and 0 means
    level 1 already fails.  Raises for ``p < p_c``.
    """
    if not 0 < p_c < 1:
        raise ValueError("p_c must lie in (0, 1)")
    if p < p_c:
        raise ValueError("horizon defined on the supercritical side only (p >= p_c)")
    if p == p_c:
        return math.inf
    if p >= 1:
        return 0
    rate = max(math.log(p / p_c), math.log((1 - p_c) / (1 - p)))
    log2_mmax = math.log2(math.log(2.0) / rate)
    i = 1
    k = params.k1
    while True:
        # The level-i condition involves B(2^{k_{i+1}^*}).
        k_next = params.m * params.m * k
        k_next_star = params.m * k_next
        if k_next_star <= 40:
            m_i = edge_count_box(spec, 2**k_next_star)
            ok = m_i * rate <= math.log(2.0)
        else:
            ok = _log2_edge_count_pow2(spec, k_next_star) <= log2_mmax
        if not ok:
            return i - 1
        i += 1
        k = k_next
        if i > 10**6:
            raise RuntimeError("horizon loop failed to terminate")


def _log2_edge_count_pow2(spec: LatticeSpec, k: int) -> float:
    """``log2 |E(B(0; 2^k))|`` via the closed form, safe for huge ``k``."""
    # N = 2^(k+1) + 1, so log2(N) = k + 1 + O(2^-k).
    log2_n = k + 1 + (math.log2(1.0 + 2.0 ** (-k - 1)) if k < 50 else 0.0)
    d = spec.d
    if spec.edge_mode == NEAREST_NEIGHBOUR:
        return math.log2(d) + d * log2_n  # (N - 1) ~ N to float precision here
    deg = (2 * spec.lam + 1) ** d - 1
    return math.log2(deg / 2) + d * log2_n


class HorizonError(ValueError):
    """The conditioning data intrude into the first scale's ball: a refusal
    to run this ladder on this data, not a broken invariant."""


def conditioning_horizon(params: ScaleParams, min_norm: int) -> int:
    """Largest ``i`` with ``(V u D) cap B(2^{k_{i+1}^*})`` empty.

    ``V`` is the arm target set and ``D`` the obstacle set of a conditioning
    instance, and ``min_norm`` the least l-infinity norm of their sites.
    Exact integer comparisons throughout; raises if even level 0 fails (the
    data intrudes into ``B(2^{k_1^*})``).
    """
    k = params.k1
    k_star = params.m * k
    if not pow2_lt(k_star, min_norm):
        raise HorizonError(
            f"target/obstacle data at norm {min_norm} intrudes into B(2^{k_star})"
        )
    i = 0
    while True:
        k_next = params.m * k_star
        k_next_star = params.m * k_next
        if pow2_lt(k_next_star, min_norm):
            i += 1
            k, k_star = k_next, k_next_star
        else:
            return i


def faithful_report(spec: LatticeSpec, params: ScaleParams, i_max: int = 6) -> dict:
    """Exact ladder table for the faithful mode, JSON-serialisable.

    Integers are emitted as decimal strings (they exceed 2^53 rapidly and
    must survive JSON round-trips losslessly).
    """
    seq = scale_sequence(params, i_max)
    rows = []
    for idx in seq[1:]:
        ck, cks = closed_form_k(params, idx.i)
        rows.append(
            {
                "i": idx.i,
                "k": str(idx.k),
                "k_star": str(idx.k_star),
                "k_closed_form": str(ck),
                "k_star_closed_form": str(cks),
                "recurrence_matches_closed_form": idx.k == ck and idx.k_star == cks,
                "ann_inner_exp": str(idx.ann_inner_exp),
                "ann_outer_exp": str(idx.ann_outer_exp),
                "ell": str(idx.ell),
            }
        )
    return {
        "mode": params.mode,
        "d": spec.d,
        "edge_mode": spec.edge_mode,
        "lam": spec.lam,
        "k1": str(params.k1),
        "m": params.m,
        "q_max": str(params.q_max),
        "ann_margin": str(params.ann_margin),
        "ell_factor": str(params.ell_factor),
        "levels": rows,
        "geometry_issues": ladder_geometry_issues(
            params, spec, i_max=min(i_max, 4), strict=params.mode == "faithful"
        ),
    }
