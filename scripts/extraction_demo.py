#!/usr/bin/env python3
"""Kernel extraction at desk scale, next to the exact reconstruction tier.

Part one samples critical configurations, certifies annulus-spanning
clusters, and tabulates the empirical transition kernel and onward-arm
vector over the observed labels (with the disjointness counters that must
stay at zero).  Part two reruns the same decomposition on three
hand-sized graphs where every probability is an exact rational, so the
reconstruction identity can be checked with no tolerance at all.
"""

import argparse
import warnings
from collections import Counter

from percolab import battery as bat
from percolab.clusters import GoodSpanningParams, RegularityParams
from percolab.engine import PercolationConfig
from percolab.experiments import ConditioningFamily, extract_kernels, two_east_edges_event
from percolab.lattice import LatticeSpec
from percolab.scales import toy_params


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--n-samples", type=int, default=400)
    args = ap.parse_args()

    spec = LatticeSpec(d=2)
    cfg = PercolationConfig(spec, 0.5, args.seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ext = extract_kernels(
            cfg, toy_params(1, 2, 1), level=0, n_samples=args.n_samples,
            family=ConditioningFamily("box_boundary", (16,)), n=16,
            event=two_east_edges_event(spec),
            good=GoodSpanningParams(lo=0.1, hi=4.0, regular_fraction=0.5),
            reg=RegularityParams(K=3, s_list=(3, 4), n_inner=120, log_base=2.0),
        )
    for w in caught:
        print(f"note: {w.message}")
    print(f"{len(ext.d_labels)} spanning-set labels over {args.n_samples}"
          f" samples; disjointness violations {ext.g_violations},"
          f" containment failures {ext.f_containment_failures}")
    sizes = Counter(len(lab) for lab in ext.d_labels)
    print("label sizes:", dict(sorted(sizes.items())))
    top = sorted(ext.label_counts.items(), key=lambda kv: -kv[1])[:5]
    for lab, count in top:
        di = ext.d_labels.index(lab)
        g = ext.gamma[di]
        print(f"  label |C|={len(lab):<3d} seen {count:>3d}x"
              f"  onward-arm {g.value:.3f} +- {g.stderr:.3f}")

    print("\nexact tier (all rationals, zero tolerance):")
    for inst in bat.arm_decomposition_instances():
        rep = bat.decompose_arm_exact(inst)
        lo, hi = rep.band()
        print(f"  {rep.name}: lhs {rep.lhs} = rhs {rep.rhs} + defect"
              f" {rep.defect}; ratio {rep.ratio} inside [{lo}, {hi}];"
              f" labels {len(rep.labels)}")


if __name__ == "__main__":
    main()
