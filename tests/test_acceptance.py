"""Acceptance battery: the eleven headline guarantees, one line each.

Every test prints a single ``[PASS]``/``[FAIL]`` line (forced past pytest's
capture so the battery reads as a checklist) and then asserts.  All sample
budgets and seeds are fixed, so the numbers — not just the verdicts — are
reproducible run to run.  Wall-clock ceilings are generous; the battery is
dominated by the 100k-sample estimator cross-check and the conditional-
measure series, a few minutes total.
"""

import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from percolab import battery as bat
from percolab import cli
from percolab.clusters import GoodSpanningParams, RegularityParams
from percolab.engine import PercolationConfig
from percolab.experiments import (
    ConditioningFamily,
    convergence_diagnostic,
    extract_kernels,
    iic_series,
    supercritical_report,
    two_east_edges_event,
)
from percolab.kernels import (
    Kernel,
    contract_check,
    cross_ratio_kappa,
    random_kernel,
    ratio_limit,
)
from percolab.lattice import LatticeSpec
from percolab.scales import (
    closed_form_k,
    faithful_params,
    k1_floor,
    ladder_geometry_issues,
    scale_sequence,
    toy_params,
)

SPEC2 = LatticeSpec(d=2)


def _report(capsys, num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1-2: Hopf machinery


def test_criterion_1_kernel_contraction(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(10_000):
        nr = int(rng.integers(2, 9))
        nc = int(rng.integers(2, 9))
        T = random_kernel(rng, nr, nc, 0.1, 10.0)
        lo, hi = np.log(0.1), np.log(10.0)
        f = np.exp(rng.uniform(lo, hi, nc))
        g = np.exp(rng.uniform(lo, hi, nc))
        _, _, ok = contract_check(T, f, g)
        failures += 0 if ok else 1
    dt = time.monotonic() - t0
    ok = failures == 0 and dt < 10.0
    _report(capsys, 1, "positive kernels contract log-oscillation at the "
            "cross-ratio rate", ok,
            f"{failures}/10000 failures, {dt:.1f}s")


def test_criterion_2_ratio_limit_bracket(capsys):
    t0 = time.monotonic()
    base = Kernel.from_entries(("a", "b"), ("a", "b"), [[2, 1], [1, 2]])
    kappa = cross_ratio_kappa(base)
    rep = ratio_limit([base] * 30, kappa)
    dt = time.monotonic() - t0
    rate_ok = rep.decay_rate is not None and abs(rep.decay_rate - 1 / 3) < 0.1 / 3
    mono_ok = all(
        all(a <= b for a, b in zip(mins, mins[1:]))
        for mins in rep.per_pair_min.values()
    ) and all(
        all(a >= b for a, b in zip(maxs, maxs[1:]))
        for maxs in rep.per_pair_max.values()
    )
    width_ok = rep.widths_by_step[-1] == 1.9427742998475446e-14
    alpha_ok = all(v == 1.0 for v in rep.alpha.values())
    ok = (rate_ok and mono_ok and width_ok and alpha_ok
          and rep.exact_path and dt < 1.0)
    _report(capsys, 2, "row-ratio brackets of kernel products collapse "
            "geometrically", ok,
            f"rate {rep.decay_rate:.4f} vs 1/3, terminal width "
            f"{rep.widths_by_step[-1]:.2e}, {dt:.2f}s")


# ---------------------------------------------------------------------------
# 3-5: exhaustive and statistical batteries


def test_criterion_3_estimator_oracle_battery(capsys):
    t0 = time.monotonic()
    rep = bat.run_oracle_battery(n_samples=100_000, n_groups=100, seed=2024)
    dt = time.monotonic() - t0
    ok = rep.pass_fraction >= 0.99 and dt < 300.0
    _report(capsys, 3, "Monte Carlo estimates match exact enumeration on 30 "
            "graphs at 4 sigma", ok,
            f"pass fraction {rep.pass_fraction:.4f}, max |z| "
            f"{rep.max_abs_z:.2f}, {dt:.0f}s")


def test_criterion_4_cluster_exit_inequality(capsys):
    t0 = time.monotonic()
    rep = bat.run_nofurther_battery(500, seed=7)
    dt = time.monotonic() - t0
    ok = rep.all_hold and rep.n_held == 500 and rep.worst_margin >= 0 and dt < 120.0
    _report(capsys, 4, "conditional exit bound holds exactly on 500 random "
            "instances", ok,
            f"{rep.n_held}/500 held, worst margin {rep.worst_margin}, {dt:.1f}s")


def test_criterion_5_two_annulus_uniqueness(capsys):
    t0 = time.monotonic()
    geoms = bat.y_geometries()
    assert len(geoms) == 6
    assert all(g.n_edges <= 22 for g in geoms)
    rep = bat.run_y_battery(geoms)
    dt = time.monotonic() - t0
    exhaustive = all(sum(r.counts.values()) == r.n_configs for r in rep.results)
    ok = (exhaustive and rep.max_pairs <= 1 and rep.total_violations == 0
          and dt < 600.0)
    n_total = sum(r.n_configs for r in rep.results)
    _report(capsys, 5, "at most one inter-annulus attachment pair in every "
            "configuration", ok,
            f"{n_total} configurations exhausted, max pairs {rep.max_pairs}, "
            f"{dt:.1f}s")


# ---------------------------------------------------------------------------
# 6-7: disjointness and exact reconstruction


def _desk_extraction():
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=2024)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return extract_kernels(
            cfg, toy_params(1, 2, 1), level=0, n_samples=400,
            family=ConditioningFamily("box_boundary", (16,)), n=16,
            event=two_east_edges_event(SPEC2),
            good=GoodSpanningParams(lo=0.1, hi=4.0, regular_fraction=0.5),
            reg=RegularityParams(K=3, s_list=(3, 4), n_inner=120, log_base=2.0),
        )


def test_criterion_6_pinned_set_disjointness(capsys):
    ext = _desk_extraction()
    uniq = sum(
        bat.decompose_arm_exact(inst).uniqueness_violations
        for inst in bat.arm_decomposition_instances()
    )
    ok = ext.g_violations == 0 and uniq == 0
    _report(capsys, 6, "pinned spanning sets are unique per configuration "
            "(sampled and enumerated)", ok,
            f"sampled violations {ext.g_violations} over "
            f"{len(ext.d_labels)} labels, enumerated violations {uniq}")


def test_criterion_7_exact_arm_reconstruction(capsys):
    checks = []
    details = []
    for inst in bat.arm_decomposition_instances():
        rep = bat.decompose_arm_exact(inst)
        lo, hi = rep.band()
        checks.append(
            rep.factorization_exact
            and rep.union_equals_sum
            and rep.containment_ok
            and rep.uniqueness_violations == 0
            and isinstance(rep.lhs, Fraction)
            and isinstance(rep.ratio, Fraction)
            and rep.lhs - rep.rhs == rep.defect
            and lo <= rep.ratio
            and hi is not None and rep.ratio == hi  # band is tight exactly
        )
        details.append(f"{rep.name} ratio {rep.ratio}")
    ok = all(checks) and len(checks) == 3
    _report(capsys, 7, "kernel-sum reconstruction of the arm probability is "
            "exact on the oracle instances", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 8-9: conditional-measure experiments (shared series)


@pytest.fixture(scope="module")
def iic_run():
    t0 = time.monotonic()
    cfg = PercolationConfig(spec=SPEC2, p=0.5, seed=2024)
    event = two_east_edges_event(SPEC2)
    n_list = (16, 32, 64)
    series = {kind: iic_series(cfg, event, ConditioningFamily(kind, n_list), n_samples)
              for kind, n_samples in (("box_boundary", 4000), ("single_vertex", 8000))}
    return SimpleNamespace(
        cfg=cfg,
        event=event,
        series=series,
        diag=convergence_diagnostic(series),
        elapsed=time.monotonic() - t0,
    )


def test_criterion_8_conditional_measure_convergence(capsys, iic_run):
    pts = [pt for pts in iic_run.series.values() for pt in pts]
    accepted_ok = all(pt.n_accepted >= 500 and not pt.low_confidence for pt in pts)
    succ_ok = all(g <= 3 * s + 0.02 for _, _, _, g, s in iic_run.diag.successive)
    _, _, tgap, tsig = iic_run.diag.terminal_gap
    term_ok = tgap <= 3 * tsig + 0.02
    ok = (accepted_ok and succ_ok and term_ok
          and iic_run.diag.verdict != "inconsistent"
          and iic_run.elapsed < 1800.0)
    _report(capsys, 8, "conditional law of a local event agrees across "
            "conditioning families as the arm grows", ok,
            f"verdict {iic_run.diag.verdict}, terminal gap {tgap:.4f} vs "
            f"{3 * tsig + 0.02:.4f}, min accepted "
            f"{min(pt.n_accepted for pt in pts)}, {iic_run.elapsed:.0f}s")


def test_criterion_9_supercritical_continuity(capsys, iic_run):
    t0 = time.monotonic()
    rep = supercritical_report(
        iic_run.cfg, iic_run.event, [0.55, 0.52, 0.51], (16, 32), 2500,
        critical=iic_run.series["box_boundary"][-1],
    )
    dt = time.monotonic() - t0
    gap, sigma = rep.terminal_gap
    starved = any(pt.low_confidence for pts in rep.sweeps.values() for pt in pts)
    ok = (rep.sensitivity < 0.02 and gap <= 3 * sigma + 0.02
          and not starved and dt < 600.0)
    _report(capsys, 9, "supercritical conditional values descend onto the "
            "critical one", ok,
            f"proxy sensitivity {rep.sensitivity:.4f}, gap to critical "
            f"{gap:.4f} vs {3 * sigma + 0.02:.4f}, {dt:.0f}s")


# ---------------------------------------------------------------------------
# 10-11: reproducibility and the high-dimensional ladder


def test_criterion_10_deterministic_cli(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"iic": {"n_list": [2, 4], "n_samples": 1000}}')
    outputs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = cli.main(["--config", str(cfg), "--out-dir", str(out),
                         "iic-converge"])
        assert code == 0
        code = cli.main(["--out-dir", str(out), "estimate-two-point",
                         "--n-samples", "200"])
        assert code == 0
        outputs.append({
            name: (out / name).read_bytes()
            for name in ("iic.csv", "iic.json", "two_point.csv",
                         "two_point.json")
        })
    ok = outputs[0] == outputs[1]
    _report(capsys, 10, "CLI reruns are byte-identical", ok,
            f"{len(outputs[0])} files compared")


def test_criterion_11_dimension_seven_ladder(capsys):
    t0 = time.monotonic()
    spec7 = LatticeSpec(d=7)
    floor = k1_floor(spec7, 1)
    params = faithful_params(spec7, floor)
    seq = scale_sequence(params, 6)
    recur = all(
        seq[i + 1].k == params.m**2 * seq[i].k
        and seq[i].k_star == params.m * seq[i].k
        and (seq[i].k, seq[i].k_star) == closed_form_k(params, i)
        for i in range(1, 6)
    )
    issues = ladder_geometry_issues(params, spec7, i_max=6, strict=True)
    dt = time.monotonic() - t0
    ok = (
        floor == 153669
        and params.m == 2 * 7 * 7
        and recur
        and seq[2].k == 153669 * 98**2
        and seq[6].k.bit_length() == 84
        and issues == []
        and dt < 1.0
    )
    _report(capsys, 11, "dimension-7 scale ladder is exact past machine "
            "integers with disjoint annuli", ok,
            f"k1 {floor}, k_6 has {seq[6].k.bit_length()} bits, "
            f"{len(issues)} geometry issues, {dt:.2f}s")
