"""Reproduce the UCI-Digit benchmark protocol on a user-supplied container.

Feature extraction is out of scope here, so the container (binary or CSV
directory; see agfti.harness.data for both layouts) must be prepared by the
user. The protocol is 10 seeded repetitions at 50% missing views and 5%
labels, 256 anchors, 7 neighbours, fusion weight V^2. The reference result
for this benchmark at these settings is 95.23 +- 2.99 accuracy; the script
reports the delta but draws no pass/fail conclusion.
"""

import argparse
import json

from agfti.harness import load_container, run_experiment
from agfti.solver import SolverConfig

REFERENCE_MEAN = 95.23
REFERENCE_STD = 2.99


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("container", help="dataset container file or CSV directory")
    p.add_argument("--vmr", type=float, default=0.5)
    p.add_argument("--lar", type=float, default=0.05)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--anchors", type=int, default=256)
    p.add_argument("--neighbors", type=int, default=7)
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--jsonl", default=None)
    return p.parse_args()


def main():
    args = parse_args()
    container = load_container(args.container)
    print(f"loaded {container.name or args.container}: "
          f"n={container.n} V={container.V} c={container.c}")

    config = SolverConfig(n_anchors=args.anchors, k_neighbors=args.neighbors)
    results = run_experiment(
        container, args.vmr, args.lar, args.reps,
        solver_config=config, base_seed=args.base_seed, jsonl_path=args.jsonl,
    )
    block = results["variants"]["full"]
    agg = block["aggregate"]
    print(json.dumps(agg, indent=2, sort_keys=True))
    # None when every repetition failed
    if agg["acc"]["mean"] is None:
        print(f"\naccuracy: n/a over {args.reps} repetitions "
              f"({block['failed_reps']} failed)")
        return
    mean = 100.0 * agg["acc"]["mean"]
    std = 100.0 * agg["acc"]["std"]
    print(f"\naccuracy: {mean:.2f} +- {std:.2f} over {args.reps} repetitions "
          f"({block['failed_reps']} failed)")
    if (args.vmr, args.lar, args.anchors) == (0.5, 0.05, 256):
        print(f"reference: {REFERENCE_MEAN:.2f} +- {REFERENCE_STD:.2f}  "
              f"delta: {mean - REFERENCE_MEAN:+.2f}")
    else:
        print("non-standard settings; reference comparison skipped")


if __name__ == "__main__":
    main()
