"""Run the ablation grid on the synthetic sub-cluster suite.

For each view missing ratio, runs the full solver and the standard ablations
over seeded repetitions and prints a mean-accuracy table plus the equal-weight
propagation baseline, optionally appending every record to a JSONL file.
"""

import argparse

import numpy as np

from agfti.harness import run_experiment, score, synth_scp
from agfti.harness.experiment import (
    STANDARD_VARIANTS,
    baseline_label_propagation,
    draw_repetition,
)
from agfti.solver import SolverConfig


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--vmrs", type=float, nargs="+", default=[0.0, 0.3, 0.5, 0.7])
    p.add_argument("--lar", type=float, default=0.05)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--n-per-class", type=int, default=134)
    p.add_argument("--views", type=int, default=2)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--anchors", type=int, default=64)
    p.add_argument("--neighbors", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jsonl", default=None, help="append per-rep records here")
    args = p.parse_args()
    if args.reps < 1:
        p.error(f"--reps must be at least 1, got {args.reps}")
    return args


def baseline_accuracy(container, vmr, lar, reps, m, k, base_seed):
    """Equal-weight propagation on the masks run_experiment draws per rep."""
    accs = []
    for r in range(reps):
        seed, per_view, labeled = draw_repetition(container, vmr, lar, base_seed, r)
        pred = baseline_label_propagation(
            container.views, container.labels, labeled,
            per_view, m=m, k=k, seed=seed, n_classes=container.c,
        )
        accs.append(score(container, pred, labeled)["acc"])
    return float(np.mean(accs)), float(np.std(accs))


def main():
    args = parse_args()
    container = synth_scp(
        args.seed, n_per_class=args.n_per_class, V=args.views, c=args.classes,
        name="synth-scp",
    )
    config = SolverConfig(n_anchors=args.anchors, k_neighbors=args.neighbors)
    names = list(STANDARD_VARIANTS)

    header = f"{'vmr':>5}  {'baseline':>14}  " + "  ".join(f"{n:>14}" for n in names)
    print(header)
    print("-" * len(header))
    for vmr in args.vmrs:
        results = run_experiment(
            container, vmr, args.lar, args.reps,
            solver_config=config, variants=STANDARD_VARIANTS,
            base_seed=args.seed, jsonl_path=args.jsonl,
        )
        b_mean, b_std = baseline_accuracy(
            container, vmr, args.lar, args.reps,
            args.anchors, args.neighbors, args.seed,
        )
        cells = []
        for name in names:
            agg = results["variants"][name]["aggregate"]["acc"]
            # None when every repetition of the variant failed
            cells.append("n/a" if agg["mean"] is None
                         else f"{agg['mean']:.4f}+-{agg['std']:.4f}")
        print(f"{vmr:>5.2f}  {b_mean:.4f}+-{b_std:.4f}  "
              + "  ".join(f"{c:>14}" for c in cells))

    if args.jsonl:
        print(f"\nper-repetition records appended to {args.jsonl}")


if __name__ == "__main__":
    main()
