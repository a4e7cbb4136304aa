"""Traced memory peak of every solver step, in float64 (V, n, m) graph stacks.

    python scripts/step_peaks.py --tree DIR --workload frozen-v6 --seed 1 \\
        [--problem 0] [--small] [--max-outer-iters N]

DIR is the root of a source checkout. The script imports ``agfti`` from
DIR/src and builds the workload's problem with DIR/perfbench/workloads.py, as
the benchmark draws it for that run seed (--problem picks the j-th problem,
--small the workload's small variant). --max-outer-iters replaces the
workload's cap on outer iterations, so that a one-iteration workload such as
fuse-m256 can be measured where its later iterations peak; by default the
workload's own cap holds. It makes the problem's timed call
under tracemalloc and prints, for each step in ``agfti.solver.STEPS``, the
largest traced memory seen while the step ran, over every iteration of every
solve, in units of V * n * m * 8 bytes: the bytes of the solve's graph stack
held in float64, whatever dtype the solver stores it in, so figures measured
before and after a change of storage dtype compare (the solver's float32
graphs and multiplier are one such unit together). numpy reports its array
buffers to tracemalloc, so a step's figure counts everything live during it:
the graphs and multiplier the solve holds as well as the step's temporaries.
A step the solve never ran prints 0. An unknown --workload and a negative
--seed or --problem are refused with a usage error.

BLAS runs on one thread, as in the benchmark.
"""

import argparse
import dataclasses
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from output_digest import load_tree  # noqa: E402  (pins BLAS before numpy loads)


@contextmanager
def step_peaks(solver, peaks):
    """Record in peaks each step's largest traced memory, in float64 stacks."""

    def traced(name, step):
        def run(s, config):
            tracemalloc.reset_peak()
            fields = step(s, config)
            peak = tracemalloc.get_traced_memory()[1] / (s.Z.size * 8)
            peaks[name] = max(peaks[name], peak)
            return fields

        return run

    table = solver._STEP_TABLE
    solver._STEP_TABLE = tuple(
        (name, traced(name, step), skip) for name, step, skip in table
    )
    try:
        yield
    finally:
        solver._STEP_TABLE = table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--problem", type=int, default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--max-outer-iters", type=int, default=None)
    args = parser.parse_args(argv)
    # the benchmark draws its problems from non-negative seeds only
    for option, value in (("--seed", args.seed), ("--problem", args.problem)):
        if value < 0:
            parser.error(f"{option} must be at least 0, got {value}")

    agfti, workloads = load_tree(args.tree)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown --workload {args.workload!r}; known: "
                     f"{', '.join(workloads.WORKLOADS)}")
    w = workloads.get(args.workload, small=args.small)
    problem = workloads.Problem(
        w, workloads.problem_seed(args.seed, args.problem), agfti
    )
    if args.max_outer_iters is not None:
        problem.config = dataclasses.replace(
            problem.config, max_outer_iters=args.max_outer_iters
        )
    peaks = dict.fromkeys(agfti.solver.STEPS, 0.0)
    tracemalloc.start()
    try:
        with step_peaks(agfti.solver, peaks):
            problem.call()
    finally:
        tracemalloc.stop()
    for name, peak in peaks.items():
        print(f"{name} {peak:.2f}")


if __name__ == "__main__":
    main()
