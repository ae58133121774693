#!/usr/bin/env python3
"""Conditional-measure convergence: does P(E | arm to scale n) settle?

Runs the rejection-sampled conditional law of a fixed local event under two
conditioning families (box-shell arm, single far vertex) over a doubling
sequence of scales, prints every point with its acceptance statistics, and
ends with the cross-family diagnostic verdict.  The full budgets reproduce
the headline acceptance numbers in about a minute; --quick cuts scales and
samples for a ten-second look.
"""

import argparse
import time

from percolab.engine import PercolationConfig
from percolab.experiments import (
    ConditioningFamily,
    convergence_diagnostic,
    iic_series,
    supercritical_report,
    two_east_edges_event,
)
from percolab.lattice import LatticeSpec


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--skip-supercritical", action="store_true")
    args = ap.parse_args()

    cfg = PercolationConfig(LatticeSpec(d=2), 0.5, args.seed)
    event = two_east_edges_event(cfg.spec)
    n_list = [8, 16] if args.quick else [16, 32, 64]
    budgets = {"box_boundary": 1000 if args.quick else 4000,
               "single_vertex": 2000 if args.quick else 8000}

    t0 = time.time()
    series = {}
    print(f"event {event.name}, seed {args.seed}, scales {n_list}")
    for fam, n_samples in (
        ("box_boundary", budgets["box_boundary"]),
        ("single_vertex", budgets["single_vertex"]),
    ):
        pts = iic_series(cfg, event, ConditioningFamily(fam, tuple(n_list)), n_samples)
        series[fam] = pts
        for pt in pts:
            flag = "  LOW-CONFIDENCE" if pt.low_confidence else ""
            print(f"{fam:>14s} n={pt.n:<3d} P(E|arm)={pt.conditional.value:.4f}"
                  f" +- {pt.conditional.stderr:.4f}"
                  f"  accepted {pt.n_accepted}/{n_samples}{flag}")

    diag = convergence_diagnostic(series)
    _, _, gap, sigma = diag.terminal_gap
    print(f"verdict: {diag.verdict}  (terminal cross-family gap {gap:.4f},"
          f" 3 sigma {3 * sigma:.4f}, slack {diag.slack})")

    if not args.skip_supercritical:
        rep = supercritical_report(
            cfg, event, [0.55, 0.52, 0.51], (16, 32),
            600 if args.quick else 2500,
            critical=series["box_boundary"][-1],
        )
        for r in sorted(rep.sweeps):
            for pt in rep.sweeps[r]:
                print(f"supercritical p={pt.p:<5} r={r:<3d}"
                      f" P(E|escape)={pt.conditional.value:.4f}"
                      f" +- {pt.conditional.stderr:.4f}")
        gap, sigma = rep.terminal_gap
        print(f"proxy sensitivity {rep.sensitivity:.4f};"
              f" gap to critical {gap:.4f} (3 sigma {3 * sigma:.4f})")
    print(f"total {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()
