"""Hash every solver output of the benchmark workloads, to compare trees bit for bit.

    python scripts/output_digest.py --tree DIR --seeds 0,7 --problems 2 [--small] \\
        [--save FILE.npz] [--against FILE.npz]

DIR is the root of a source checkout. The script imports ``agfti`` from
DIR/src and builds each workload's problems with DIR/perfbench/workloads.py,
which it only reads: per seed, the first --problems problems of that seed, as
the benchmark draws them (--small takes the workloads' small variants). It
makes each problem's timed call and records every ``admm_solve`` inside it,
so an ``ablate-402`` problem contributes every variant and repetition. It then
scores the problem's equal-weight baseline, as the benchmark report does, and
records the predictions of every ``baseline_label_propagation`` call.

It prints one line per workload: its name, the SHA-256 over all of its solves
and baselines in order, and the number of each. Each solve contributes F,
alpha, P, the anchor labels Q, the final graphs Zs (which with P fix the
final alignments, update_alignment(Zs, P)), every iteration's whole
diagnostics record except its wall-clock fields (seconds, step_seconds),
n_iter and converged; each baseline its predictions; a call that raised
contributes its error. Two trees whose lines match gave the same outputs bit
for bit.

Where two trees' digests differ, --save and --against say by how much.
--save FILE.npz stores every solve's F, alpha, n_iter and converged. Run
with --against FILE.npz, saved from another tree with the same seeds and
problems, the script prints a second line per workload: the largest
entrywise |dF| and |d alpha| over its solves, the predictions (argmax of
each row of F) that flipped, and the solves whose n_iter or converged
differ.

BLAS runs on one thread, pinned before numpy loads, as in the benchmark.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# diagnostics fields that read the clock, so differ between any two runs
CLOCK_FIELDS = ("seconds", "step_seconds")
# the pin only takes when it is set before numpy loads
if "numpy" not in sys.modules:
    os.environ.update(dict.fromkeys(PIN_VARS, "1"))

import numpy as np  # noqa: E402


def parse_seeds(text):
    """'0,7' to [0, 7]."""
    return [int(s) for s in text.split(",") if s.strip()]


def load_tree(tree):
    """(agfti, workloads) of the checkout at tree."""
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    import agfti
    import agfti.harness
    import agfti.harness.experiment
    import agfti.solver

    if Path(agfti.__file__).resolve().parent != src / "agfti":
        raise SystemExit(f"agfti was not imported from {src}")
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", tree / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return agfti, workloads


@contextmanager
def recording(agfti, results):
    """Append every admm_solve and baseline outcome, result or error, to results.

    Each function is wrapped where its callers look it up: admm_solve in the
    solver and the experiment harness, baseline_label_propagation in
    agfti.harness, where the benchmark's baseline score finds it.
    """
    sites = [
        (agfti.solver, "admm_solve"),
        (agfti.harness.experiment, "admm_solve"),
        (agfti.harness, "baseline_label_propagation"),
    ]
    originals = [getattr(site, name) for site, name in sites]

    def record(fn):
        def call(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                results.append(f"{type(exc).__name__}: {exc}")
                raise
            results.append(out)
            return out

        return call

    try:
        for (site, name), fn in zip(sites, originals):
            setattr(site, name, record(fn))
        yield
    finally:
        for (site, name), fn in zip(sites, originals):
            setattr(site, name, fn)


def is_baseline(r):
    """Baselines record their predictions; solves a SolveResult."""
    return isinstance(r, np.ndarray)


def digest(results):
    """SHA-256 over the listed fields of every solve and baseline, in order."""
    h = hashlib.sha256()
    for r in results:
        if isinstance(r, str):
            h.update(r.encode())
            continue
        if is_baseline(r):
            h.update(b"baseline")
            h.update(np.ascontiguousarray(r, dtype=np.int64).tobytes())
            continue
        for arr in (r.F, r.alpha, r.P, r.Q, r.Zs):
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        for d in r.diagnostics:
            # json writes each float as its shortest exact repr, so every
            # bit of every value reaches the hash
            record = {k: v for k, v in d.items() if k not in CLOCK_FIELDS}
            h.update(json.dumps(record, sort_keys=True).encode())
        h.update(f"{int(r.n_iter)} {bool(r.converged)}".encode())
    return h.hexdigest()


def solve_arrays(name, results):
    """F, alpha, n_iter and converged of each of the workload's solves, keyed name/i/field."""
    solves = [r for r in results if not (isinstance(r, str) or is_baseline(r))]
    arrays = {f"{name}/solves": np.array(len(solves))}
    for i, r in enumerate(solves):
        arrays[f"{name}/{i}/F"] = np.asarray(r.F, dtype=np.float64)
        arrays[f"{name}/{i}/alpha"] = np.asarray(r.alpha, dtype=np.float64)
        arrays[f"{name}/{i}/n_iter"] = np.array(int(r.n_iter))
        arrays[f"{name}/{i}/converged"] = np.array(bool(r.converged))
    return arrays


def compare(name, saved, current):
    """How the workload's solves in current (solve_arrays) moved from saved.

    Solves are paired in order; a solve only one side has is counted as
    unpaired, and a pair whose F or alpha changed shape counts as infinitely
    far apart.
    """
    n_saved, n_now = int(saved[f"{name}/solves"]), int(current[f"{name}/solves"])
    out = {"solves": min(n_saved, n_now), "unpaired": abs(n_saved - n_now),
           "max_dF": 0.0, "max_dalpha": 0.0, "flipped": 0,
           "n_iter_differ": 0, "converged_differ": 0}
    for i in range(out["solves"]):
        key = f"{name}/{i}/"
        for field, stat in (("F", "max_dF"), ("alpha", "max_dalpha")):
            a, b = saved[key + field], current[key + field]
            d = float(np.abs(a - b).max()) if a.shape == b.shape else np.inf
            out[stat] = max(out[stat], d)
        F0, F1 = saved[key + "F"], current[key + "F"]
        if F0.shape == F1.shape:
            out["flipped"] += int(np.sum(F0.argmax(axis=1) != F1.argmax(axis=1)))
        out["n_iter_differ"] += int(saved[key + "n_iter"] != current[key + "n_iter"])
        out["converged_differ"] += int(
            saved[key + "converged"] != current[key + "converged"]
        )
    return out


def workload_results(agfti, workloads, name, seeds, problems, small):
    """Every solve and baseline of the workload's problems for these seeds, in order."""
    w = workloads.get(name, small=small)
    results = []
    for seed in seeds:
        for j in range(problems):
            problem = workloads.Problem(w, workloads.problem_seed(seed, j), agfti)
            with recording(agfti, results):
                for step in (problem.call, problem.baseline_acc):
                    try:
                        step()
                    except (ValueError, ArithmeticError, RuntimeError):
                        pass  # recorded with the call that raised it
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=[0, 7])
    parser.add_argument("--problems", type=int, default=2)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--save", type=Path, metavar="FILE.npz")
    parser.add_argument("--against", type=Path, metavar="FILE.npz")
    args = parser.parse_args(argv)

    agfti, workloads = load_tree(args.tree)
    saved = dict(np.load(args.against)) if args.against else None
    arrays = {}
    for name in workloads.WORKLOADS:
        results = workload_results(
            agfti, workloads, name, args.seeds, args.problems, args.small
        )
        baselines = sum(map(is_baseline, results))
        print(
            f"{name} {digest(results)} solves={len(results) - baselines} "
            f"baselines={baselines}",
            flush=True,
        )
        current = solve_arrays(name, results)
        arrays.update(current)
        if saved is not None and f"{name}/solves" not in saved:
            print(f"{name} against: not in {args.against}", flush=True)
        elif saved is not None:
            moved = compare(name, saved, current)
            print(f"{name} against " + " ".join(
                f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in moved.items()
            ), flush=True)
    if args.save:
        np.savez(args.save, **arrays)


if __name__ == "__main__":
    main()
