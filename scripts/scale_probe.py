"""Time one solve, or one repetition grid, on synth_scp at a chosen size.

    python scripts/scale_probe.py --n-per-class 2667 --views 6 --anchors 256 \\
        [--classes 3] [--iters 3] [--vmr 0.5] [--lar 0.05] [--seed 0] \\
        [--reps N [--variants full,wo_tv,wo_alpha,wo_ti]] [--tree DIR]

The container is synth_scp(seed, n_per_class, V=views, c=classes), so
n = n_per_class * classes. Without --reps the script draws the masks
draw_repetition(container, vmr, lar, seed, 0) and makes one admm_solve with
the SolverConfig defaults except n_anchors=anchors, max_outer_iters=iters and
seed; the solve builds its anchor graphs itself, so the wall time includes
them. With --reps N it runs run_experiment(container, vmr, lar, N, config,
variants, base_seed=seed) instead, the variants named from STANDARD_VARIANTS
or the baseline.

It prints one JSON line: wall_s, the wall seconds of the solve or the grid;
setup_s, the seconds spent in anchor_graphs (anchors and bipartite graphs),
whether admm_solve or the harness calls it; step_seconds, the seconds of
each step in agfti.solver.STEPS summed over every iteration of every solve;
n_iter, one entry per solve; acc, the solve's accuracy on the rows its mask
leaves unlabeled (harness.experiment.score),
or with --reps each variant's mean; and peak_rss_mb, the process's peak
resident memory (getrusage, as perfbench reports it), which covers the
container and the imports as well as the solves.

--tree DIR imports agfti from DIR/src (default: this checkout), so one
command measures two checkouts. BLAS runs on one thread, pinned before numpy
loads, as in the benchmark.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from output_digest import load_tree  # noqa: E402  (pins BLAS before numpy loads)

ROOT = Path(__file__).resolve().parents[1]


def summing(admm_solve, steps, n_iter):
    """admm_solve, adding each solve's step seconds to steps and its n_iter to
    n_iter; it keeps no reference to the result."""

    def solve(*args, **kwargs):
        result = admm_solve(*args, **kwargs)
        for record in result.diagnostics:
            for name, seconds in record["step_seconds"].items():
                steps[name] += seconds
        n_iter.append(result.n_iter)
        return result

    return solve


def timing(anchor_graphs, seconds):
    """anchor_graphs, appending the seconds of each call to seconds."""

    def build(*args, **kwargs):
        start = time.perf_counter()
        graphs = anchor_graphs(*args, **kwargs)
        seconds.append(time.perf_counter() - start)
        return graphs

    return build


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-per-class", type=int, required=True)
    parser.add_argument("--views", type=int, required=True)
    parser.add_argument("--anchors", type=int, required=True)
    parser.add_argument("--classes", type=int, default=3)
    parser.add_argument("--iters", type=int, default=3,
                        help="max_outer_iters of every solve")
    parser.add_argument("--vmr", type=float, default=0.5)
    parser.add_argument("--lar", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument("--variants", default="full")
    parser.add_argument("--tree", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    agfti, _ = load_tree(args.tree)
    experiment = agfti.harness.experiment
    known = {**experiment.STANDARD_VARIANTS, experiment.BASELINE: {}}
    unknown = sorted(set(args.variants.split(",")) - set(known))
    if unknown:
        parser.error(f"unknown variants {unknown}; known: {sorted(known)}")
    variants = {name: known[name] for name in args.variants.split(",")}
    container = agfti.harness.synth_scp(args.seed, n_per_class=args.n_per_class,
                                        V=args.views, c=args.classes)
    config = agfti.solver.SolverConfig(n_anchors=args.anchors,
                                       max_outer_iters=args.iters, seed=args.seed)
    steps = dict.fromkeys(agfti.solver.STEPS, 0.0)
    n_iter = []
    setup = []
    solve = summing(agfti.solver.admm_solve, steps, n_iter)
    # admm_solve builds its own graphs; the harness builds one stack per
    # repetition and hands it to every column
    anchor_graphs = agfti.solver.anchor_graphs
    agfti.solver.anchor_graphs = experiment.anchor_graphs = timing(anchor_graphs, setup)
    try:
        if args.reps is None:
            _, per_view, labeled = experiment.draw_repetition(
                container, args.vmr, args.lar, args.seed, 0
            )
            start = time.perf_counter()
            result = solve(container.views, container.labels, labeled,
                           per_view, config, n_classes=container.c)
            wall = time.perf_counter() - start
            pred = agfti.solver.predict(result.F)
            acc = experiment.score(container, pred, labeled)["acc"]
        else:
            experiment.admm_solve = solve
            start = time.perf_counter()
            out = experiment.run_experiment(container, args.vmr, args.lar,
                                            args.reps, config, variants,
                                            base_seed=args.seed)
            wall = time.perf_counter() - start
            acc = {name: block["aggregate"]["acc"]["mean"]
                   for name, block in out["variants"].items()}
    finally:
        experiment.admm_solve = agfti.solver.admm_solve
        agfti.solver.anchor_graphs = experiment.anchor_graphs = anchor_graphs

    print(json.dumps({
        "wall_s": wall, "setup_s": sum(setup), "step_seconds": steps,
        "n_iter": n_iter, "acc": acc,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))


if __name__ == "__main__":
    main()
