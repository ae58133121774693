"""The four benchmark workloads, built from a workload seed.

Every op is one call to a public percolab entry point over a fixed chunk of
sample ids (or, for entries without ``sample_start``, a derived seed).  A pass
runs every op of a workload once; that pass is the workload's fixed budget.
Each op carries a canonical summary of its result (integer counts, Fractions
as strings, floats as ``repr``) whose digest is compared across passes and,
at the default seed, with ``reference.json``, and a check of the invariants
the result must satisfy at any seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import percolab  # noqa: F401  (imports every submodule the tracer patches)
from percolab import battery as bat
from percolab.clusters import scan_good_spanning
from percolab.config import Config
from percolab.engine import raw_edge_state
from percolab.estimators import locate_pc, one_arm_profile, two_point_profile
from percolab.experiments import extract_kernels, iic_series, supercritical_report
from percolab.kernels import Kernel, contract_check, cross_ratio_kappa, random_kernel, ratio_limit
from percolab.lattice import canonical_edge, contains, neighbours, region_boundaries
from percolab.scales import scale_sequence, sub_annulus
from percolab.windowed import build_window, component_labels, sample_open_edges

DEFAULT_SEED = 2024   # reproduces the CLI defaults; reference.json is recorded here
HELD_OUT_SEED = 8191  # never used while tuning: confirm gain claims on it

WORKLOADS = ("iic-large", "sweep-small", "certify-lazy", "exact-oracle")

# sweep-small: a dense, strictly decreasing supercritical grid
P_GRID = [0.60, 0.59, 0.58, 0.57, 0.56, 0.55, 0.54, 0.53, 0.52, 0.515, 0.51, 0.505]

# certify-lazy, d = 2: a stratified sample of the first D2_SCREEN sample ids
D2_OPS = 240
D2_SCREEN = 1200
D2_REACH_SHARE = 0.2      # of screened ids, about 0.17-0.22 reach the boundary windows

# certify-lazy, d = 3: sealed candidates (no open edge leaves the annulus), so
# each resample explores only the frozen cluster and an op costs about
# (1 + outer boundary size) * cluster size vertex visits per inner sample
D3_OPS = 2
D3_SCREEN = 1500          # sample ids screened at least
D3_SCREEN_LIMIT = 20_000
D3_COST_MAX = 160         # per candidate
D3_COST_TOTAL = 220       # the chosen candidates' summed cost, as near as possible


def derive(seed: int, label: str) -> int:
    """A 32-bit input seed derived from the workload seed."""
    return int.from_bytes(hashlib.sha256(f"{seed}/{label}".encode()).digest()[:4], "big")


# ---------------------------------------------------------------------------
# Canonical digests


def canon(x: Any) -> Any:
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(summary: Any) -> str:
    blob = json.dumps(canon(summary), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _hits(est) -> int:
    """Integer success count behind a frequency estimate."""
    n = est.n_samples - est.n_truncated
    return 0 if n == 0 or math.isnan(est.value) else round(est.value * n)


# ---------------------------------------------------------------------------
# Ops and workloads


@dataclass
class Op:
    name: str
    kind: str
    call: Callable[[], Any]
    units: Callable[[Any], int]
    summary: Callable[[Any], Any]
    check: Callable[[Any], List[str]]


@dataclass
class Workload:
    name: str
    unit: str
    ops: List[Op]
    anchors: Callable[[], List[Tuple[str, bool, str]]] = lambda: []
    pass_check: Callable[[Dict[str, Any]], List[str]] = lambda results: []
    properties: Callable[[Any], List[Tuple[str, Any, bool]]] = lambda tr: []


def configure(name: str, seed: int) -> Dict[str, Any]:
    """The workload's configs, families, events and ladders (the timed part
    of set-up that lives in percolab)."""
    if name == "iic-large":
        cfg = Config.from_dict({"sample": {"seed": seed}, "iic": {"n_list": [16, 32, 64]}})
        return {"pc": cfg.percolation(), "event": cfg.event(), "families": cfg.iic_families()}
    if name == "sweep-small":
        cfg = Config.from_dict({
            "sample": {"seed": seed},
            "supercritical": {"p_list": P_GRID, "r_pair": [16, 32]},
            "estimation": {"pc_radii": [16, 32]},
        })
        return {"cfg": cfg, "pc": cfg.percolation(), "event": cfg.event(), "spec": cfg.spec()}
    if name == "certify-lazy":
        cfg2 = Config.from_dict({"sample": {"seed": seed}})
        cfg3 = Config.from_dict({
            "lattice": {"d": 3},
            "sample": {"p": 0.25, "seed": derive(seed, "d3")},
            "regularity": {"n_inner": 100},
        })
        return {
            "cfg2": cfg2, "pc2": cfg2.percolation(), "params2": cfg2.scale_params(),
            "family2": cfg2.extraction_family(), "event2": cfg2.event(),
            "good2": cfg2.goodness(), "reg2": cfg2.regularity(),
            "pc3": cfg3.percolation(), "params3": cfg3.scale_params(),
            "idx3": scale_sequence(cfg3.scale_params(), 1)[1],
            "good3": cfg3.goodness(), "reg3": cfg3.regularity(), "spec3": cfg3.spec(),
        }
    if name == "exact-oracle":
        cfg = Config.from_dict({"battery": {"seed": seed}})
        return {"battery": cfg.section("battery"), "hopf": cfg.section("hopf")}
    raise ValueError(f"unknown workload {name!r}")


def build(name: str, seed: int, c: Dict[str, Any]) -> Workload:
    return {
        "iic-large": _iic_large,
        "sweep-small": _sweep_small,
        "certify-lazy": _certify_lazy,
        "exact-oracle": _exact_oracle,
    }[name](seed, c)


# ---------------------------------------------------------------------------
# iic-large


def _iic_summary(points) -> Any:
    return [(pt.family_kind, pt.n, pt.n_accepted, _hits(pt.conditional),
             pt.acceptance.n_samples, pt.conditional.value, pt.conditional.stderr)
            for pt in points]


def _iic_check(points, fam, chunk, start) -> List[str]:
    bad = []
    if [pt.n for pt in points] != list(fam.n_list):
        bad.append("wrong scales")
    for pt in points:
        if pt.acceptance.n_samples != chunk or pt.acceptance.sample_range != (start, start + chunk):
            bad.append(f"n={pt.n}: wrong sample range")
        if not 0 <= _hits(pt.conditional) <= pt.n_accepted <= chunk:
            bad.append(f"n={pt.n}: counts out of order")
        if pt.exact_window != (fam.kind == "box_boundary"):
            bad.append(f"n={pt.n}: exact-window flag")
    return bad


def _iic_large(seed: int, c: Dict[str, Any]) -> Workload:
    # chunks sized so both families take about the same time per op
    chunks = {"box_boundary": 12, "single_vertex": 7}
    ops = []
    for fam in c["families"]:
        chunk = chunks[fam.kind]
        for k in range(4):
            start = k * chunk
            ops.append(Op(
                name=f"iic/{fam.kind}/{start}", kind=fam.kind,
                call=lambda fam=fam, chunk=chunk, start=start:
                    iic_series(c["pc"], c["event"], fam, chunk, sample_start=start),
                units=lambda pts: sum(pt.acceptance.n_samples for pt in pts),
                summary=_iic_summary,
                check=lambda pts, fam=fam, chunk=chunk, start=start:
                    _iic_check(pts, fam, chunk, start),
            ))

    def properties(tr) -> List[Tuple[str, Any, bool]]:
        total = sum(tr.window_sites.values())
        large = sum(v for r, v in tr.window_sites.items() if r >= 65)
        share = large / total if total else 0.0
        return [("share of labelled sites in windows of radius >= 65", share, share > 0)]

    return Workload("iic-large", "window-sample labelled", ops, properties=properties)


# ---------------------------------------------------------------------------
# sweep-small


def _sweep_summary(rep) -> Any:
    return {
        "sensitivity": rep.sensitivity,
        "points": [(r, pt.p, pt.n_accepted, _hits(pt.conditional), pt.conditional.value)
                   for r in sorted(rep.sweeps) for pt in rep.sweeps[r]],
    }


def _sweep_check(rep, chunk) -> List[str]:
    bad = []
    r_a, r_b = sorted(rep.sweeps)
    for r, pts in rep.sweeps.items():
        if [pt.p for pt in pts] != P_GRID:
            bad.append(f"r={r}: wrong p grid")
        acc = [pt.n_accepted for pt in pts]
        # monotone coupling: escaping at a smaller p implies escaping at a larger one
        if any(b > a for a, b in zip(acc, acc[1:])) or acc[0] > chunk:
            bad.append(f"r={r}: acceptance not monotone in p")
    for pa, pb in zip(rep.sweeps[r_a], rep.sweeps[r_b]):
        if pb.n_accepted > pa.n_accepted:
            bad.append(f"p={pa.p}: escape to {r_b} without escape to {r_a}")
    return bad


def _locate_check(res, tol) -> List[str]:
    pc, info = res
    lo, hi = info["bracket_final"]
    bad = []
    if not (hi - lo <= tol and lo <= pc <= hi and 0.4 <= lo):
        bad.append(f"bisection ended outside its bracket: {pc} in {lo}..{hi}")
    if len(info["curve"]) != 8:
        bad.append(f"{len(info['curve'])} evaluations, expected 8")
    return bad


def _profile_check(prof, n, nested: bool) -> List[str]:
    hits = [_hits(e) for _, e in prof]
    bad = [] if all(0 <= h <= n for h in hits) else ["hit counts out of range"]
    if nested and any(b > a for a, b in zip(hits, hits[1:])):
        bad.append("one-arm profile not nonincreasing")
    return bad


def _sweep_small(seed: int, c: Dict[str, Any]) -> Workload:
    pc, event, spec = c["pc"], c["event"], c["spec"]
    est = c["cfg"].section("estimation")
    tol, bracket = est["pc_tol"], tuple(est["pc_bracket"])
    radii = tuple(est["pc_radii"])
    ops = []
    chunk = 5
    for k in range(6):
        start = k * chunk
        ops.append(Op(
            name=f"supercritical/{start}", kind="supercritical",
            call=lambda start=start: supercritical_report(
                pc, event, P_GRID, (16, 32), chunk, sample_start=start),
            units=lambda rep: sum(pt.acceptance.n_samples
                                  for pts in rep.sweeps.values() for pt in pts),
            summary=_sweep_summary, check=lambda rep: _sweep_check(rep, chunk),
        ))
    n_pc = 12
    for k in range(3):
        s = derive(seed, f"locate/{k}")
        ops.append(Op(
            name=f"locate_pc/{k}", kind="locate_pc",
            call=lambda s=s: locate_pc(spec, est["pc_criterion"], bracket, tol,
                                       radii, n_pc, s),
            units=lambda res: len(res[1]["curve"]) * n_pc,
            summary=lambda res: (res[0], res[1]["bracket_final"],
                                 [(p, v) for p, v, _ in res[1]["curve"]]),
            check=lambda res: _locate_check(res, tol),
        ))
    n_prof = 120
    targets = [tuple(t) for t in est["targets"]]
    for k in range(2):
        start = k * n_prof
        ops.append(Op(
            name=f"two_point/{start}", kind="two_point",
            call=lambda start=start: two_point_profile(pc, targets, n_prof, sample_start=start),
            units=lambda prof: n_prof,
            summary=lambda prof: [(list(t), _hits(e)) for t, e in prof],
            check=lambda prof: _profile_check(prof, n_prof, nested=False),
        ))
        ops.append(Op(
            name=f"one_arm/{start}", kind="one_arm",
            call=lambda start=start: one_arm_profile(pc, est["radii"], n_prof, sample_start=start),
            units=lambda prof: n_prof,
            summary=lambda prof: [(r, _hits(e)) for r, e in prof],
            check=lambda prof: _profile_check(prof, n_prof, nested=True),
        ))

    def anchors() -> List[Tuple[str, bool, str]]:
        # README: `percolab find-pc --n-samples 400` gives 0.4984375
        p_c, _ = locate_pc(spec, est["pc_criterion"], bracket, tol, radii, 400, seed)
        return [("find-pc --n-samples 400 == 0.4984375", p_c == 0.4984375, repr(p_c))]

    def properties(tr) -> List[Tuple[str, Any, bool]]:
        largest = max(tr.window_sites, default=0)
        p_per_id = max((len(ps) for ps in tr.p_per_sample.values()), default=0)
        return [("largest window radius labelled (<= 33)", largest, 0 < largest <= 33),
                ("p values per sample id", p_per_id, p_per_id >= len(P_GRID))]

    return Workload("sweep-small", "(sample id, p, window) labelling", ops,
                    anchors=anchors, properties=properties)


# ---------------------------------------------------------------------------
# certify-lazy


def _extract_summary(ext) -> Any:
    return {
        "d_labels": [digest([list(v) for v in lab]) for lab in ext.d_labels],
        "counts": [ext.label_counts[lab] for lab in ext.d_labels],
        "m_hat": sorted((k, _hits(e)) for k, e in ext.m_hat.items()),
        "m_event": sorted((k, _hits(e)) for k, e in ext.m_event.items()),
        "gamma": sorted((k, _hits(e), e.n_samples) for k, e in ext.gamma.items()),
        "violations": (ext.g_violations, ext.f_containment_failures),
    }


def _scan_summary(records) -> Any:
    return [(r.q, digest(sorted(list(v) for v in r.cluster.vertices)), r.good,
             r.failure_reasons, len(r.regular_in), len(r.regular_out))
            for r in records]


def _reached_regularity(rec) -> bool:
    """The candidate passed the spanning and boundary-size items, so its
    boundary vertices went through ``estimate_regularity``."""
    return all("regular fraction" in m or "not minimal" in m for m in rec.failure_reasons)


class _BoundaryScreen:
    """The spanning and boundary-size items of one sub-annulus, read off the
    windowed labeller: per sample id, each cluster's inner and outer boundary
    counts and whether both fall in the goodness windows."""

    def __init__(self, pc, region, good) -> None:
        spec = pc.spec
        hole = max(region.inner, 0) or 1
        self.windows = (hole ** good.lo, hole ** good.hi,
                        region.outer ** good.lo, region.outer ** good.hi)
        b_in, b_out = region_boundaries(spec, region)
        self.win = build_window(spec, pc.seed, outer=region.outer, inner=region.inner)
        self.rin, self.rout = self.win.rows_of(b_in), self.win.rows_of(b_out)
        self.pc = pc

    def __call__(self, sid: int):
        win = self.win
        lab = component_labels(win, sample_open_edges(win, self.pc, sid))
        n_in = np.bincount(lab[self.rin], minlength=win.n_sites)
        n_out = np.bincount(lab[self.rout], minlength=win.n_sites)
        in_lo, in_hi, out_lo, out_hi = self.windows
        ok = (n_in >= in_lo) & (n_in <= in_hi) & (n_out >= out_lo) & (n_out <= out_hi)
        return lab, n_in, n_out, ok


def _select_d2(c: Dict[str, Any]) -> List[int]:
    """A stratified sample of the first ``D2_SCREEN`` sample ids.

    A d=2 sample is cheap unless a cluster passes the boundary windows, and
    then its cost grows with boundary size times cluster size, so the cost of
    a few hundred ids swings with how many expensive ones they happen to hold
    and how large those are.  The screened ids are split into those two
    strata, ``D2_REACH_SHARE`` of the ``D2_OPS`` ids come from the expensive
    one (the share the screen finds on average), and each stratum is ranked
    by the cost proxy (then by the size of the spanning clusters) and sampled
    at evenly spaced ranks, so every workload seed gets the same mix."""
    pc, params = c["pc2"], c["params2"]
    idx = scale_sequence(params, 1)[1]  # the level extract_kernels certifies at level 0
    screens = [_BoundaryScreen(pc, sub_annulus(pc.spec, idx, q, params), c["good2"])
               for q in range(1, params.q_max + 1)]
    keys = []
    for sid in range(D2_SCREEN):
        cost = spanning = 0
        for screen in screens:
            lab, n_in, n_out, ok = screen(sid)
            size = np.bincount(lab[screen.win.member], minlength=screen.win.n_sites)
            cost += int(((n_in + n_out) * size)[ok].sum())
            spanning += int(size[(n_in > 0) & (n_out > 0)].sum())
        keys.append((cost, spanning, sid))
    keys.sort()
    expensive = [k for k in keys if k[0] > 0]
    cheap = keys[:len(keys) - len(expensive)]
    n_exp = round(D2_REACH_SHARE * D2_OPS)
    ids = []
    for stratum, n in ((expensive, n_exp), (cheap, D2_OPS - n_exp)):
        ids += [stratum[(2 * i + 1) * len(stratum) // (2 * n)][2] for i in range(n)]
    return sorted(ids)


def _select_d3(c: Dict[str, Any]) -> List[int]:
    """Sample ids whose only candidate passing the boundary windows is sealed;
    of the first ``D3_SCREEN`` ids, the ``D3_OPS`` whose summed cost is
    nearest ``D3_COST_TOTAL``."""
    pc3, spec = c["pc3"], c["spec3"]
    region = sub_annulus(spec, c["idx3"], 1, c["params3"])
    screen = _BoundaryScreen(pc3, region, c["good3"])
    pool: List[Tuple[int, int]] = []  # (sample id, cost)
    for sid in range(D3_SCREEN_LIMIT):
        if sid >= D3_SCREEN and len(pool) >= D3_OPS:
            break
        lab, n_in, n_out, ok = screen(sid)
        passing = np.flatnonzero(ok)
        if len(passing) != 1:
            continue
        rows = np.flatnonzero((lab == passing[0]) & screen.win.member)
        cost = int(n_in[passing[0]] + n_out[passing[0]]) * len(rows)
        if cost > D3_COST_MAX:
            continue
        cfg = pc3.with_sample(sid)
        verts = [tuple(int(x) for x in screen.win.sites[r]) for r in rows]
        if not any(not contains(region, z) and raw_edge_state(cfg, canonical_edge(spec, v, z))
                   for v in verts for z in neighbours(spec, v)):
            pool.append((sid, cost))
    if len(pool) < D3_OPS:
        raise RuntimeError(f"only {len(pool)} d=3 candidates in {D3_SCREEN_LIMIT} samples")
    best = min(itertools.combinations(pool, D3_OPS),
               key=lambda combo: abs(sum(cost for _, cost in combo) - D3_COST_TOTAL))
    return [sid for sid, _ in best]


def _certify_lazy(seed: int, c: Dict[str, Any]) -> Workload:
    ops = []
    # one sample per d=2 op, so the latency percentiles see single certifications
    for sid in _select_d2(c):
        ops.append(Op(
            name=f"extract/{sid}", kind="extract-d2",
            call=lambda sid=sid: extract_kernels(
                c["pc2"], c["params2"], 0, 1, c["family2"], 16, event=c["event2"],
                good=c["good2"], reg=c["reg2"], sample_start=sid, p_c_ref=0.5),
            units=lambda ext: ext.n_samples,
            summary=_extract_summary,
            check=lambda ext: (["localized transition violations"]
                               if ext.g_violations or ext.f_containment_failures else []),
        ))
    for sid in _select_d3(c):
        cfg = c["pc3"].with_sample(sid)
        ops.append(Op(
            name=f"scan-d3/{sid}", kind="scan-d3",
            call=lambda cfg=cfg: scan_good_spanning(
                cfg, c["idx3"], c["params3"], c["good3"], c["reg3"]),
            units=lambda recs: 1,
            summary=_scan_summary,
            check=lambda recs: ([] if any(map(_reached_regularity, recs))
                                else ["no candidate reached regularity"]),
        ))

    def properties(tr) -> List[Tuple[str, Any, bool]]:
        by = tr.regularity_by_kind
        settled = by[("extract-d2", "volume_settled")]
        total = settled + by[("extract-d2", "resampled")]
        share = settled / total if total else 0.0
        resampled = by[("scan-d3", "resampled")]
        return [
            ("d=2 regularity scales settled by volume alone", share, total > 0),
            ("d=3 regularity scales resampled", resampled, resampled > 0),
        ]

    return Workload("certify-lazy", "outer sample certified", ops, properties=properties)


# ---------------------------------------------------------------------------
# exact-oracle


def _oracle_summary(rep) -> Any:
    return [(cell.graph, cell.group, cell.mc, cell.ok) for cell in rep.cells]


def _decompose_summary(rep) -> Any:
    return {"name": rep.name, "labels": len(rep.labels), "lhs": rep.lhs, "rhs": rep.rhs,
            "defect": rep.defect, "lhs_cyl": rep.lhs_cyl, "rhs_cyl": rep.rhs_cyl,
            "ratio": rep.ratio, "max_labels": rep.max_labels_per_config}


def _decompose_check(rep) -> List[str]:
    lo, hi = rep.band()
    checks = {
        "factorization_exact": rep.factorization_exact,
        "uniqueness": rep.uniqueness_violations == 0,
        "union_equals_sum": rep.union_equals_sum,
        "containment": rep.containment_ok,
        "ratio_in_band": rep.ratio is None or (lo <= rep.ratio and (hi is None or rep.ratio <= hi)),
    }
    return [f"{rep.name}: {k}" for k, ok in checks.items() if not ok]


def _ratio_check(rep) -> List[str]:
    # criterion 2, including its pinned terminal width
    mono = all(all(a <= b for a, b in zip(m, m[1:])) for m in rep.per_pair_min.values()) and \
        all(all(a >= b for a, b in zip(m, m[1:])) for m in rep.per_pair_max.values())
    ok = (rep.decay_rate is not None and abs(rep.decay_rate - 1 / 3) < 0.1 / 3 and mono
          and rep.widths_by_step[-1] == 1.9427742998475446e-14
          and all(v == 1.0 for v in rep.alpha.values()) and rep.exact_path)
    return [] if ok else ["ratio-limit brackets do not match criterion 2"]


def _contract_inputs(seed: int, k: int, hopf: Dict[str, Any], n: int):
    rng = np.random.default_rng(derive(seed, f"contract/{k}"))
    lo, hi = math.log(hopf["entry_low"]), math.log(hopf["entry_high"])
    out = []
    for _ in range(n):
        nr = int(rng.integers(hopf["size_min"], hopf["size_max"] + 1))
        nc = int(rng.integers(hopf["size_min"], hopf["size_max"] + 1))
        T = random_kernel(rng, nr, nc, hopf["entry_low"], hopf["entry_high"])
        out.append((T, np.exp(rng.uniform(lo, hi, nc)), np.exp(rng.uniform(lo, hi, nc))))
    return out


def _balanced_chunks(graphs, k: int) -> List[list]:
    """Split the battery into ``k`` chunks of near-equal enumeration work
    (``m * 2^m`` for ``m`` edges), largest graphs first, battery order kept."""
    loads = [0] * k
    members: List[List[int]] = [[] for _ in range(k)]
    for i in sorted(range(len(graphs)), key=lambda i: -len(graphs[i].edges)):
        j = loads.index(min(loads))
        loads[j] += len(graphs[i].edges) << len(graphs[i].edges)
        members[j].append(i)
    return [[graphs[i] for i in sorted(m)] for m in members]


def _exact_oracle(seed: int, c: Dict[str, Any]) -> Workload:
    bt, hopf = c["battery"], c["hopf"]
    graphs = bat.oracle_battery()
    n_samples, n_groups = 10_000, 4
    ops = []
    for j, chunk in enumerate(_balanced_chunks(graphs, 5)):
        s = derive(seed, f"oracle/{j}")
        ops.append(Op(
            name=f"oracle/{j}", kind="oracle",
            call=lambda chunk=chunk, s=s: bat.run_oracle_battery(n_samples, n_groups, s, chunk),
            units=lambda rep: rep.n_samples * len(rep.cells),
            summary=_oracle_summary,
            check=lambda rep, chunk=chunk: (
                [] if len(rep.cells) == len(chunk) * n_groups
                and all(0.0 < cell.exact < 1.0 and math.isfinite(cell.z) for cell in rep.cells)
                else ["malformed oracle cells"]),
        ))
    ops.append(Op(
        name="y", kind="y", call=bat.run_y_battery, units=lambda rep: 0,
        summary=lambda rep: rep.rows(),
        check=lambda rep: ([] if rep.total_violations == 0 and rep.max_pairs <= 1
                           else ["two-annulus battery violated"]),
    ))
    n_nf = 100
    for k in range(4):
        s = derive(seed, f"nofurther/{k}")
        ops.append(Op(
            name=f"nofurther/{k}", kind="nofurther",
            call=lambda s=s: bat.run_nofurther_battery(n_nf, s), units=lambda rep: 0,
            summary=lambda rep: (rep.n_instances, rep.n_held, rep.worst_margin),
            check=lambda rep: [] if rep.all_hold else ["cluster-exit bound failed"],
        ))
    for inst in bat.arm_decomposition_instances():
        ops.append(Op(
            name=f"decompose/{inst.name}", kind="decompose",
            call=lambda inst=inst: bat.decompose_arm_exact(inst), units=lambda rep: 0,
            summary=_decompose_summary, check=_decompose_check,
        ))
    for k in range(4):
        inputs = _contract_inputs(seed, k, hopf, 200)
        ops.append(Op(
            name=f"contract/{k}", kind="contract",
            call=lambda inputs=inputs: [contract_check(T, f, g) for T, f, g in inputs],
            units=lambda res: 0,
            summary=lambda res: res,
            check=lambda res: [] if all(ok for _, _, ok in res) else ["contraction bound failed"],
        ))
    base = Kernel.from_entries(("a", "b"), ("a", "b"), [[2, 1], [1, 2]])
    kappa = cross_ratio_kappa(base)
    ops.append(Op(
        name="ratio_limit", kind="ratio_limit",
        call=lambda: ratio_limit([base] * hopf["seq_len"], kappa), units=lambda rep: 0,
        summary=lambda rep: (rep.widths_by_step, rep.decay_rate, sorted(rep.alpha.values())),
        check=_ratio_check,
    ))

    def pass_check(results: Dict[str, Any]) -> List[str]:
        # the oracle-battery acceptance rule, over every cell of the pass
        cells = [cell for name, rep in results.items() if name.startswith("oracle/")
                 for cell in rep.cells]
        frac = sum(cell.ok for cell in cells) / len(cells)
        return [] if frac >= 0.99 else [f"oracle pass fraction {frac:.4f} < 0.99"]

    def anchors() -> List[Tuple[str, bool, str]]:
        # the CLI's small battery pins pass_fraction == 1.0 at the default seed
        rep = bat.run_oracle_battery(2000, 20, bt["seed"])
        return [("oracle battery (2000 x 20) pass_fraction == 1.0",
                 rep.pass_fraction == 1.0, repr(rep.pass_fraction))]

    def properties(tr) -> List[Tuple[str, Any, bool]]:
        masks = tr.counts.get("engine.sample_masks.masks", 0)
        configs = tr.counts.get("engine.enumerate_exact.configs", 0)
        return [("masks sampled", masks, masks > 0),
                ("configurations enumerated exactly", configs, configs > 0)]

    return Workload("exact-oracle", "configuration mask scored against its exact table",
                    ops, anchors=anchors, pass_check=pass_check, properties=properties)
