"""Run one agfti benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fuse-m256 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.

``--trace 0`` times whole public calls with spans only at the solve and
setup boundaries and prints the end-to-end metrics. ``--trace 1`` alternates
untraced passes with passes that carry a span at every layer boundary,
prints the per-layer metrics and the tracing overhead, checks that traced
and untraced solves give bitwise the same F, and writes the spans to
``.perfbench_out/``. Both modes check every solve's outputs.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the full report
(environment, every metric with unit and direction, sample counts, the
equal-weight baseline accuracy, the layer-to-metric map).
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# BLAS runs single-threaded: on a small shared box one thread gives the
# steadiest timings, and the solver's results do not depend on it
BLAS_THREADS = 1
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads(n):
    """Set the BLAS thread pin; only possible before numpy is loaded."""
    if "numpy" in sys.modules:
        raise SystemExit("refusing to run: numpy was loaded before the BLAS thread pin")
    for var in PIN_VARS:
        os.environ[var] = str(n)


def blas_info(np):
    """OpenBLAS build string and its live thread count, if it can be asked."""
    import ctypes

    info = {"numpy_blas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("version")}
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", ""), ("openblas", "64_")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                info["openblas"] = get_config().decode()
                info["blas_threads_live"] = int(get_threads())
                return info
    return info


def environment(np):
    """The thread pin as the BLAS library sees it; refuses to run without one."""
    pin = {var: os.environ.get(var) for var in PIN_VARS}
    if any(v != str(BLAS_THREADS) for v in pin.values()):
        raise SystemExit(f"refusing to run without a BLAS thread pin: {pin}")
    info = blas_info(np)
    live = info.get("blas_threads_live")
    if live is not None and live != BLAS_THREADS:
        raise SystemExit(f"refusing to run: BLAS runs {live} threads, pin is {BLAS_THREADS}")
    return {
        "blas_thread_pin": BLAS_THREADS,
        "pin_env": pin,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        **info,
        "python": platform.python_version(),
    }


def import_agfti():
    """The package from this checkout's src/, or None when it is absent."""
    src = ROOT / "src"
    if not (src / "agfti" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import agfti
    import agfti.agf
    import agfti.harness
    import agfti.harness.experiment
    import agfti.solver

    if Path(agfti.__file__).resolve().parent != (src / "agfti").resolve():
        return None
    return agfti


def run_call(problem, tracer, modules, sites):
    """One timed public call; returns its wall seconds, setup seconds and score."""
    with tracer.patched(modules, sites):
        error = None
        out = None
        t0 = time.perf_counter()
        try:
            out = problem.call()
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            # LinAlgError is a ValueError; a call that raises counts as failed
            error = exc
        wall = time.perf_counter() - t0
    setup = tracer.total("graphs.bkhk_anchors") + tracer.total("graphs.build_bipartite")
    score = problem.score(out, tracer.results, error)
    # keep no SolveResult past its checks, so peak RSS is one call's
    tracer.results.clear()
    return {"wall": wall, "setup": setup, **score}


def run_round(problems, modules, site_sets):
    """One call per problem under each site set; returns (calls, tracers) per set.

    A problem's calls run back to back, alternating which goes first, so the
    traced and untraced timings share the machine's state and the overhead
    they give is not a drift between two long passes.
    """
    out = [([], []) for _ in site_sets]
    for j, p in enumerate(problems):
        order = list(zip(site_sets, out))
        for sites, (calls, tracers) in order if j % 2 == 0 else order[::-1]:
            tracer = tracing.Tracer()
            calls.append(run_call(p, tracer, modules, sites))
            tracers.append(tracer)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small", action="store_true", help="tiny inputs, for the benchmark's own test"
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    pin_blas_threads(BLAS_THREADS)
    import numpy as np

    import spec
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.get(args.workload, small=args.small)
    env = environment(np)

    agfti = import_agfti()
    if agfti is None:
        print(f"agfti sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    modules = {
        "solver": agfti.solver,
        "agf": agfti.agf,
        "experiment": agfti.harness.experiment,
    }

    t_prep = time.perf_counter()
    problems = [
        workloads.Problem(workload, workloads.problem_seed(args.seed, j), agfti)
        for j in range(workload.input_sets)
    ]
    baseline = [p.baseline_acc() for p in problems]
    env.update(
        seed=args.seed,
        iteration_cap=problems[0].config.max_outer_iters,
        input_sets=workload.input_sets,
        reps=workload.reps,
        seconds=args.seconds,
        small=args.small,
    )
    untraced_sites = tracing.SOLVE_SITES + tracing.SETUP_SITES
    # one untimed call on tiny inputs loads numpy's lazy parts first
    warm = workloads.Problem(workloads.get(args.workload, small=True), args.seed, agfti)
    run_call(warm, tracing.Tracer(), modules, untraced_sites)
    prep_s = time.perf_counter() - t_prep

    site_sets = [untraced_sites] + ([tracing.LAYER_SITES] if args.trace else [])
    plain, traced = [], []
    start = time.perf_counter()
    round_s = []
    # whole rounds (every problem once untraced, and once traced with
    # --trace 1) while the next round is expected to end within --seconds
    while not round_s or time.perf_counter() - start + statistics.mean(round_s) <= args.seconds:
        t_round = time.perf_counter()
        passes = run_round(problems, modules, site_sets)
        plain.append(passes[0])
        traced.extend(passes[1:])
        round_s.append(time.perf_counter() - t_round)
    measured_s = time.perf_counter() - start

    plain_calls = [c for calls, _ in plain for c in calls]
    all_calls = plain_calls + [c for calls, _ in traced for c in calls]
    attempted = sum(c["attempted"] for c in all_calls)
    failed = sum(c["failed"] for c in all_calls)
    problems_seen = sorted({msg for c in all_calls for msg in c["problems"]})

    # per input set: every call must give the same F and accuracy
    mismatches = []
    for j in range(len(problems)):
        prints = {calls[j]["fingerprint"] for calls, _ in plain + traced}
        if len(prints) != 1:
            mismatches.append(f"input set {j}: F differs between calls")

    walls = spec.summarize([c["wall"] for c in plain_calls])
    setups = spec.summarize([c["setup"] for c in plain_calls])
    accs = [c["acc"] for c in plain[0][0]]
    e2e = {
        "wall_s": walls["median"],
        "setup_s": setups["median"],
        "acc": float(np.mean(accs)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "converged_frac": sum(c["converged"] for c in all_calls) / attempted,
        "failed_frac": failed / attempted,
    }
    report = {
        "workload": workload.name,
        "why": workload.why,
        "environment": env,
        "prepare_s": prep_s,
        "measured_s": measured_s,
        "passes": len(plain),
        "end_to_end": {
            name: {"value": e2e[name], "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in spec.END_TO_END
        },
        "wall_s_per_call": walls,
        "setup_s_per_call": setups,
        "acc_per_set": accs,
        "baseline_acc": float(np.mean(baseline)),
        "baseline_acc_per_set": baseline,
        "outer_iters_per_set": [plain[0][0][j]["outer_iters"] for j in range(len(problems))],
        "output_problems": problems_seen,
        "determinism_problems": mismatches,
    }

    metrics = {name: e2e[name] for name, *_ in spec.END_TO_END_GATED}
    units = {name: unit for name, unit, *_ in spec.END_TO_END}
    if args.trace:
        per_pass = [
            spec.pass_layer_metrics(calls, tr, tracing.FUSION_SPANS) for calls, tr in traced
        ]
        for name in spec.EXACT:
            if len({p[name] for p in per_pass}) != 1:
                mismatches.append(f"{name} differs between traced passes")
        layer = {
            name: float(np.median([p[name] for p in per_pass]))
            for name in per_pass[0]
        }
        base = float(np.median([sum(c["wall"] for c in calls) for calls, _ in plain]))
        traced_wall = float(np.median([sum(c["wall"] for c in calls) for calls, _ in traced]))
        layer["trace.base_wall_s"] = base
        layer["trace.overhead_ratio"] = (traced_wall - base) / base
        report["per_layer"] = {
            name: {"value": layer[name], "unit": unit, "better": better, "moves": moves}
            for name, unit, better, moves in spec.LAYERS
        }
        report["tracing_overhead"] = {
            "traced_pass_s": traced_wall,
            "untraced_pass_s": base,
            "ratio": layer["trace.overhead_ratio"],
        }
        metrics = {name: layer[name] for name, *_ in spec.LAYERS}
        units = {name: unit for name, unit, *_ in spec.LAYERS}
        OUT_DIR.mkdir(exist_ok=True)
        dump = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        with open(dump, "w") as fh:
            json.dump([[t.dump() for t in tr] for _, tr in traced], fh)
        report["trace_file"] = str(dump.relative_to(ROOT))

    correct = failed == 0 and not mismatches and not problems_seen
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
