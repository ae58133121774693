"""Command-line interface.

Subcommands cover the full laboratory: profile estimation, threshold
location, good-cluster certification, kernel extraction, arm
reconstruction (Monte Carlo and exact oracle tiers), the Hopf-contraction
demo, the conditional-measure convergence experiment, the supercritical
sweep, and the verification batteries.

Outputs are deterministic byte for byte: fixed column orders, ``repr``
floats, sorted JSON keys, no timestamps.  Every JSON artifact is written by
:func:`write_json`, the package's one encoder, in one pass that streams to
the file; each label of an extraction is keyed (:func:`label_key`) once,
and every file reads that key.  Exit codes: 0 success, 2 an
invariant the package promises was violated, 3 results exist but are
low-confidence (starved acceptance or undefined ratios), 4 configuration
error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import warnings
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import battery as bat
from .clusters import scan_good_spanning
from .config import Config, ConfigError, load_config
from .estimators import BracketError, Estimate, locate_pc, one_arm_profile, two_point_profile
from .experiments import (
    iic_series,
    convergence_diagnostic,
    extract_kernels,
    matrix_reconstruction,
    supercritical_report,
)
from .kernels import (
    Kernel,
    contract_check,
    cross_ratio_kappa,
    oscillation,
    random_kernel,
    ratio_limit,
)
from .lattice import WindowTooLargeError
from .scales import HorizonError, faithful_report, scale_sequence

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_LOW_CONFIDENCE = 3
EXIT_CONFIG = 4


# ---------------------------------------------------------------------------
# Deterministic output helpers
# ---------------------------------------------------------------------------


def _fmt_cell(v: Any) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    return str(v)


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_cell(c) for c in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_default(x: Any) -> Any:
    """``json``'s hook for the values it cannot encode itself (a tuple is
    already an array and an ``np.float64`` a float); any other type is a
    ``TypeError``."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Estimate):
        return {
            "value": x.value,
            "stderr": x.stderr,
            "n_samples": x.n_samples,
            "n_truncated": x.n_truncated,
            "seed": x.seed,
            "sample_range": x.sample_range,
        }
    if isinstance(x, (frozenset, set)):
        return sorted(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.integer):
        return int(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def write_json(path: str, obj: Any) -> None:
    """The package's one JSON encoder: sorted keys, two-space indent, one
    pass that streams to the file."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")


def label_key(label: Tuple) -> str:
    """Stable short identifier for a canonical good-set label."""
    if label == ():
        return "origin"
    return hashlib.sha1(repr(label).encode("ascii")).hexdigest()[:12]


class _Sink:
    """Collects output files for one run; honours --format and --out-dir.
    The directory is made on the first write, so a run refused before it
    writes anything leaves none."""

    def __init__(self, out_dir: str, fmt: str):
        self.out_dir = out_dir
        self.fmt = fmt

    def _path(self, name: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        return os.path.join(self.out_dir, name)

    def csv(self, name: str, header, rows) -> None:
        if self.fmt == "csv":
            write_csv(self._path(name), header, rows)

    def json(self, name: str, obj) -> None:
        write_json(self._path(name), obj)


_PROFILE_HEADER = ("observable", "scale", "value", "stderr", "n", "n_truncated", "seed")


def _profile_rows(observable: str, pairs, seed: int):
    rows = []
    for scale, est in pairs:
        rows.append(
            (observable, scale, est.value, est.stderr, est.n_samples,
             est.n_truncated, seed)
        )
    return rows


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns an exit code)
# ---------------------------------------------------------------------------


def cmd_estimate_two_point(cfg: Config, args, sink: _Sink) -> int:
    est = cfg.section("estimation")
    n = args.n_samples or est["n_samples"]
    pc = cfg.percolation(args.seed)
    targets = cfg.targets()
    profile = two_point_profile(pc, targets, n)
    pairs = [(max(abs(c) for c in site), e) for site, e in profile]
    rows = _profile_rows("two_point", pairs, pc.seed)
    sink.csv("two_point.csv", _PROFILE_HEADER, rows)
    sink.json("two_point.json", {
        "config": cfg.echo(),
        "rows": [dict(zip(_PROFILE_HEADER, r)) for r in rows],
        "targets": [list(t) for t in targets],
    })
    return EXIT_OK


def cmd_estimate_one_arm(cfg: Config, args, sink: _Sink) -> int:
    est = cfg.section("estimation")
    n = args.n_samples or est["n_samples"]
    pc = cfg.percolation(args.seed)
    profile = one_arm_profile(pc, est["radii"], n)
    rows = _profile_rows("one_arm", profile, pc.seed)
    sink.csv("one_arm.csv", _PROFILE_HEADER, rows)
    sink.json("one_arm.json", {
        "config": cfg.echo(),
        "rows": [dict(zip(_PROFILE_HEADER, r)) for r in rows],
    })
    return EXIT_OK


def cmd_find_pc(cfg: Config, args, sink: _Sink) -> int:
    est = cfg.section("estimation")
    n = args.n_samples or est["n_samples"]
    seed = args.seed if args.seed is not None else cfg.section("sample")["seed"]
    radii = est["pc_radii"]
    if est["pc_criterion"] == "arm_scaling" and n < 2:
        raise ConfigError("the arm_scaling criterion needs --n-samples >= 2 "
                          "(its standard error is a sample standard deviation)")
    p_c, report = locate_pc(
        cfg.spec(),
        criterion=est["pc_criterion"],
        bracket=tuple(est["pc_bracket"]),
        tol=est["pc_tol"],
        radii=tuple(radii) if radii else None,
        n_samples=n,
        seed=seed,
    )
    rows = [("p_c", 0, p_c, est["pc_tol"], n, 0, seed)]
    sink.csv("pc.csv", _PROFILE_HEADER, rows)
    sink.json("pc.json", {"config": cfg.echo(), "p_c": p_c, "report": report})
    return EXIT_OK


def cmd_scan_good_clusters(cfg: Config, args, sink: _Sink) -> int:
    ex = cfg.section("extraction")
    n_samples = args.n_samples or min(ex["n_samples"], 50)
    pc = cfg.percolation(args.seed)
    params = cfg.scale_params()
    idx = scale_sequence(params, 1)[1]
    good, reg = cfg.goodness(), cfg.regularity()
    q_list = ex["q_list"]
    records = []
    for sid in range(n_samples):
        for rec in scan_good_spanning(pc.with_sample(sid), idx, params, good, reg, q_list):
            records.append((sid, rec))
    rows = []
    blobs = []
    for sid, rec in records:
        key, size = label_key(rec.cluster.label), len(rec.cluster.label)
        rows.append(
            (sid, rec.level, rec.q, key, size, rec.good, "|".join(rec.failure_reasons))
        )
        blobs.append({
            "sample": sid,
            "level": rec.level,
            "q": rec.q,
            "label": key,
            "good": rec.good,
            "failure_reasons": list(rec.failure_reasons),
            "n_vertices": size,
            "n_boundary_in": len(rec.cluster.boundary_in),
            "n_boundary_out": len(rec.cluster.boundary_out),
            "n_regular_in": len(rec.regular_in),
            "n_regular_out": len(rec.regular_out),
            "boundary_windows": rec.boundary_windows,
        })
    sink.csv(
        "good_clusters.csv",
        ("sample", "level", "q", "label", "n_vertices", "good", "failure_reasons"),
        rows,
    )
    n_good = sum(1 for _, rec in records if rec.good)
    sink.json("good_clusters.json", {
        "config": cfg.echo(),
        "n_samples": n_samples,
        "n_candidates": len(records),
        "n_good": n_good,
        "records": blobs,
    })
    return EXIT_OK


def _kernel_files(ext, sink: _Sink) -> List[str]:
    """Write ``kernels.csv`` and ``gamma.csv`` of one extraction, keying each
    label once; return the D-label keys, in ``ext.d_labels`` order."""
    c_keys = [label_key(lab) for lab in ext.c_labels]
    d_keys = [label_key(lab) for lab in ext.d_labels]
    krows = []
    for (ci, di), est in sorted(ext.m_hat.items()):
        krows.append((
            c_keys[ci], d_keys[di],
            est.value, est.stderr,
            ext.m_event[(ci, di)].value if (ci, di) in ext.m_event else "",
            est.n_samples,
        ))
    sink.csv(
        "kernels.csv",
        ("c_label", "d_label", "m_hat", "stderr", "m_event", "n"),
        krows,
    )
    grows = []
    for di, lab in enumerate(ext.d_labels):
        g = ext.gamma[di]
        grows.append((
            d_keys[di], ext.label_q[lab], len(lab),
            g.value, g.stderr, ext.label_counts[lab],
        ))
    sink.csv(
        "gamma.csv",
        ("d_label", "q", "n_vertices", "gamma", "stderr", "count"),
        grows,
    )
    return d_keys


def cmd_extract_kernels(cfg: Config, args, sink: _Sink) -> int:
    ex = cfg.section("extraction")
    n_samples = args.n_samples or ex["n_samples"]
    pc = cfg.percolation(args.seed)
    params = cfg.scale_params()
    family = cfg.extraction_family()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ext = extract_kernels(
            pc, params, ex["level"], n_samples, family, ex["n"],
            event=cfg.event(), good=cfg.goodness(), reg=cfg.regularity(),
            q_list=ex["q_list"], p_c_ref=ex["p_c_ref"],
        )
    d_keys = _kernel_files(ext, sink)
    sink.json("extraction.json", {
        "config": cfg.echo(),
        "summary": ext.summary(),
        "labels": {
            key: {
                "q": ext.label_q[lab],
                "count": ext.label_counts[lab],
                "n_vertices": len(lab),
                "vertices": lab,
            }
            for key, lab in zip(d_keys, ext.d_labels)
        },
        "gamma": {key: ext.gamma[di] for di, key in enumerate(d_keys)},
    })
    if ext.g_violations or ext.f_containment_failures:
        return EXIT_VIOLATION
    if not ext.d_labels:
        return EXIT_LOW_CONFIDENCE
    return EXIT_OK


def cmd_reconstruct_arm(cfg: Config, args, sink: _Sink) -> int:
    if args.oracle:
        reports = []
        all_ok = True
        for inst in bat.arm_decomposition_instances():
            rep = bat.decompose_arm_exact(inst)
            checks = rep.checks()
            all_ok = all_ok and all(checks.values())
            reports.append({
                "name": rep.name,
                "n_labels": len(rep.labels),
                "lhs": rep.lhs, "rhs": rep.rhs, "defect": rep.defect,
                "lhs_event": rep.lhs_cyl, "rhs_event": rep.rhs_cyl,
                "ratio": rep.ratio, "band": list(rep.band()),
                "max_labels_per_config": rep.max_labels_per_config,
                "checks": checks,
            })
        sink.csv(
            "reconstruction_oracle.csv",
            ("instance", "lhs", "rhs", "defect", "ratio", "ok"),
            [(r["name"], r["lhs"], r["rhs"], r["defect"], r["ratio"],
              all(r["checks"].values())) for r in reports],
        )
        sink.json("reconstruction_oracle.json",
                  {"config": cfg.echo(), "instances": reports, "all_ok": all_ok})
        return EXIT_OK if all_ok else EXIT_VIOLATION

    ex = cfg.section("extraction")
    n_samples = args.n_samples or ex["n_samples"]
    pc = cfg.percolation(args.seed)
    family = cfg.extraction_family()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rep = matrix_reconstruction(
            pc, args.j, family, ex["n"], n_samples, cfg.scale_params(),
            event=cfg.event(), good=cfg.goodness(), reg=cfg.regularity(),
            p_c_ref=ex["p_c_ref"],
        )
    s = rep.summary()
    sink.csv(
        "reconstruction.csv",
        ("j", "n", "family", "event", "lhs", "lhs_stderr", "rhs", "rhs_stderr", "ratio"),
        [(s["j"], s["n"], s["family"], s["event"], s["lhs"], s["lhs_stderr"],
          s["rhs"], s["rhs_stderr"], "" if s["ratio"] is None else s["ratio"])],
    )
    _kernel_files(rep.extractions[0], sink)
    sink.json("reconstruction.json", {"config": cfg.echo(), "summary": s})
    if s["g_violations"]:
        return EXIT_VIOLATION
    if s["ratio"] is None:
        return EXIT_LOW_CONFIDENCE
    return EXIT_OK


def cmd_hopf_demo(cfg: Config, args, sink: _Sink) -> int:
    hp = cfg.section("hopf")
    base = Kernel.from_entries(("a", "b"), ("a", "b"), [[2, 1], [1, 2]])
    kappa = cross_ratio_kappa(base)
    rep = ratio_limit([base] * hp["seq_len"], kappa)
    width_rows = [("bracket_width", k + 1, w, 0.0, hp["seq_len"], 0, 0)
                  for k, w in enumerate(rep.widths_by_step)]

    rng = np.random.default_rng(hp["rng_seed"])
    failures = 0
    worst = 0.0
    spot_rows = []
    for i in range(hp["n_kernels"]):
        nr = int(rng.integers(hp["size_min"], hp["size_max"] + 1))
        nc = int(rng.integers(hp["size_min"], hp["size_max"] + 1))
        T = random_kernel(rng, nr, nc, hp["entry_low"], hp["entry_high"])
        lo, hi = np.log(hp["entry_low"]), np.log(hp["entry_high"])
        f = np.exp(rng.uniform(lo, hi, nc))
        g = np.exp(rng.uniform(lo, hi, nc))
        osc_out, allowed, ok = contract_check(T, f, g)
        if not ok:
            failures += 1
        if allowed > 0:
            worst = max(worst, osc_out / allowed)
        spot_rows.append((i, nr, nc, cross_ratio_kappa(T),
                          oscillation(f, g), osc_out, allowed, ok))
    sink.csv("hopf_bracket.csv", _PROFILE_HEADER, width_rows)
    sink.csv(
        "hopf_contraction.csv",
        ("index", "n_rows", "n_cols", "kappa", "osc_in", "osc_out", "bound", "ok"),
        spot_rows,
    )
    sink.json("hopf.json", {
        "config": cfg.echo(),
        "kappa": kappa,
        "decay_rate": rep.decay_rate,
        "widths_by_step": rep.widths_by_step,
        "exact_path": rep.exact_path,
        "alpha": {"|".join(map(str, k)): v for k, v in rep.alpha.items()},
        "contraction": {
            "n_kernels": hp["n_kernels"],
            "failures": failures,
            "worst_fraction_of_bound": worst,
        },
    })
    return EXIT_OK if failures == 0 else EXIT_VIOLATION


def cmd_iic_converge(cfg: Config, args, sink: _Sink) -> int:
    ii = cfg.section("iic")
    n_samples = args.n_samples or ii["n_samples"]
    pc = cfg.percolation(args.seed)
    event = cfg.event()
    series = {}
    rows = []
    for fam in cfg.iic_families():
        pts = iic_series(pc, event, fam, n_samples)
        series[fam.kind] = pts
        rows.extend(pt.row() for pt in pts)
    header = ("family", "event", "n", "conditional", "stderr",
              "acceptance", "n_accepted", "low_confidence", "exact_window")
    sink.csv("iic.csv", header, rows)
    out: Dict[str, Any] = {
        "config": cfg.echo(),
        "points": [dict(zip(header, r)) for r in rows],
    }
    low = any(pt.low_confidence for pts in series.values() for pt in pts)
    if len(series) >= 2 and all(len(pts) >= 2 for pts in series.values()):
        diag = convergence_diagnostic(series)
        out["diagnostic"] = diag.summary()
    sink.json("iic.json", out)
    return EXIT_LOW_CONFIDENCE if low else EXIT_OK


def cmd_supercritical_sweep(cfg: Config, args, sink: _Sink) -> int:
    sc = cfg.section("supercritical")
    ii = cfg.section("iic")
    n_samples = args.n_samples or sc["n_samples"]
    pc = cfg.percolation(args.seed)
    event = cfg.event()
    terminal_n = ii["n_list"][-1]
    crit = iic_series(pc, event, cfg.family("box_boundary", [terminal_n]),
                      args.n_samples or ii["n_samples"])[0]
    rep = supercritical_report(
        pc, event, sc["p_list"], tuple(sc["r_pair"]), n_samples, critical=crit,
    )
    rows = []
    for r in sorted(rep.sweeps):
        rows.extend(pt.row() for pt in rep.sweeps[r])
    header = ("p", "r_proxy", "conditional", "stderr",
              "acceptance", "n_accepted", "low_confidence")
    sink.csv("supercritical.csv", header, rows)
    sink.json("supercritical.json", {
        "config": cfg.echo(),
        "points": [dict(zip(header, r)) for r in rows],
        "sensitivity": rep.sensitivity,
        "terminal_gap": None if rep.terminal_gap is None else {
            "gap": rep.terminal_gap[0], "sigma": rep.terminal_gap[1],
        },
        "critical": {
            "n": crit.n,
            "conditional": crit.conditional,
            "n_accepted": crit.n_accepted,
        },
    })
    starved = crit.low_confidence or any(
        pt.low_confidence for pts in rep.sweeps.values() for pt in pts
    )
    return EXIT_LOW_CONFIDENCE if starved else EXIT_OK


def cmd_oracle_battery(cfg: Config, args, sink: _Sink) -> int:
    bt = cfg.section("battery")
    n_samples = args.n_samples or bt["n_samples"]
    n_groups = args.n_groups or bt["n_groups"]
    orep = bat.run_oracle_battery(n_samples, n_groups, bt["seed"])
    sink.csv(
        "battery_cells.csv",
        ("graph", "group", "exact", "mc", "z", "ok"),
        orep.rows(),
    )
    yrep = bat.run_y_battery()
    sink.csv("y_battery.csv", ("geometry", "config_index", "n_pairs"), yrep.rows())
    nrep = bat.run_nofurther_battery(bt["nofurther_instances"], bt["nofurther_seed"])
    decomp = []
    for inst in bat.arm_decomposition_instances():
        r = bat.decompose_arm_exact(inst)
        decomp.append({"name": r.name, "ok": all(r.checks().values())})
    ok = (
        orep.pass_fraction >= 0.99
        and yrep.total_violations == 0 and yrep.max_pairs <= 1
        and nrep.all_hold
        and all(d["ok"] for d in decomp)
    )
    sink.json("battery.json", {
        "config": cfg.echo(),
        "oracle": {
            "n_samples": orep.n_samples,
            "n_groups": orep.n_groups,
            "pass_fraction": orep.pass_fraction,
            "max_abs_z": orep.max_abs_z,
        },
        "two_annulus": {
            "max_pairs": yrep.max_pairs,
            "total_violations": yrep.total_violations,
            "geometries": [r.name for r in yrep.results],
        },
        "cluster_exit": {
            "n_instances": nrep.n_instances,
            "n_held": nrep.n_held,
            "worst_margin": nrep.worst_margin,
        },
        "arm_decomposition": decomp,
        "all_ok": ok,
    })
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_scale_table(cfg: Config, args, sink: _Sink) -> int:
    # not a spec-named subcommand; convenience view over the ladder used by
    # tests and the faithful-mode acceptance check
    params = cfg.scale_params()
    rep = faithful_report(cfg.spec(), params, i_max=args.i_max)
    sink.json("scales.json", {"config": cfg.echo(), "report": rep})
    rows = [(e["i"], e["k"], e["k_star"], e["ell"]) for e in rep["levels"]]
    sink.csv("scales.csv", ("i", "k", "k_star", "ell"), rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors to the config exit code
        raise ConfigError(message)


def _int_at_least(lo: int):
    """An argparse type: an integer >= ``lo`` (a smaller one is a usage error)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lo}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> _Parser:
    p = _Parser(prog="percolab", description=__doc__)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=None, help="override sample.seed")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="csv writes both CSV and the JSON mirror; json only the mirror")
    sub = p.add_subparsers(dest="command", parser_class=_Parser)

    def add(name, fn, scales=False, **extra):
        # ``scales``: the subcommand reads the scale ladder, so its config
        # section is checked at load time
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn, scales=scales)
        sp.add_argument("--n-samples", type=_int_at_least(1), default=None)
        for flag, kw in extra.items():
            sp.add_argument(flag, **kw)
        return sp

    add("estimate-two-point", cmd_estimate_two_point)
    add("estimate-one-arm", cmd_estimate_one_arm)
    add("find-pc", cmd_find_pc)
    add("scan-good-clusters", cmd_scan_good_clusters, scales=True)
    add("extract-kernels", cmd_extract_kernels, scales=True)
    add("reconstruct-arm", cmd_reconstruct_arm, scales=True,
        **{"--oracle": {"action": "store_true"},
           "--j": {"type": _int_at_least(1), "default": 1}})
    add("hopf-demo", cmd_hopf_demo)
    add("iic-converge", cmd_iic_converge)
    add("supercritical-sweep", cmd_supercritical_sweep)
    add("oracle-battery", cmd_oracle_battery,
        **{"--n-groups": {"type": _int_at_least(1), "default": None}})
    add("scale-table", cmd_scale_table, scales=True,
        **{"--i-max": {"type": _int_at_least(0), "default": 6}})
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError("a subcommand is required (see --help)")
        # the oracle tier reads neither the ladder nor the lattice
        reads_ladder = args.scales and not getattr(args, "oracle", False)
        cfg = load_config(args.config, reads_ladder)
        sink = _Sink(args.out_dir, args.format)
        return args.fn(cfg, args, sink)
    except (ConfigError, BracketError, HorizonError, WindowTooLargeError) as exc:
        print(f"percolab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"percolab: invariant violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
