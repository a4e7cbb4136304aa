"""Benchmark a change against its parent in alternating pairs; write BENCH_<label>.json.

    python scripts/bench_pairs.py --parent DIR --change DIR --workload frozen-v6 \\
        --seeds 1-10 --seconds 30 --label shrink-skip

DIR is the root of a source checkout (a git clone of the parent commit, and the
tree holding the change). For each seed the script runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each tree, the parent first on odd seeds and the change first on even
ones, so drift in the machine's load falls on both sides. It reads the
end-to-end metrics from each run's last output line and their direction and
regression bound from the change tree's BENCHMARK.json. From the report line
before it, each side of a pair also records the share of solves that
converged and the outer iterations of one pass, so a change to the solve
shows its convergence next to its time; neither is gated or summarised.
The environment also names the allocator both sides ran under (the C library,
every MALLOC_* variable and numpy's NUMPY_MADVISE_HUGEPAGE, which each run
inherits), since heap layout alone moves peak_rss_mb by about a megabyte and
numpy's huge-page advice makes it bimodal.

BENCH_<label>.json is written into the change tree. It holds one section per
workload: every pair, and per metric each side's quartiles, the pairs the
change won, the relative change of the medians, the parent's relative spread,
whether the change regressed beyond the bound, and whether a gain meets the
rule of at least nine tenths of the pairs won and a median difference larger
than the parent's interquartile range. Running the script again with the same
label adds or replaces that workload's section and keeps the others.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ENV_KEYS = ("blas_thread_pin", "nproc", "numpy", "openblas", "python")


def parse_seeds(text):
    """'1-10' or '3' to a list of seeds."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def parse_run(stdout):
    """(record, environment) from the output of one perfbench/run.py run.

    The record holds the gated metrics and the correct, failed and attempted
    counts of the last line, and from the report line before it the share
    of solves that converged and the outer iterations of one pass over the
    input sets; those two are recorded, not gated or summarised.
    """
    lines = stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    record = {name: m["value"] for name, m in result["metrics"].items()}
    record.update(
        correct=result["correct"], failed=result["failed"], attempted=result["attempted"],
        converged_frac=report["end_to_end"]["converged_frac"]["value"],
        outer_iters=sum(report["outer_iters_per_set"]),
    )
    env = {k: report["environment"].get(k) for k in ENV_KEYS}
    return record, env


def allocator():
    """The C library, the MALLOC_* variables and numpy's huge-page setting
    that every benchmark run inherits.

    numpy reads NUMPY_MADVISE_HUGEPAGE at import to decide whether to advise
    huge pages for its large arrays, which moves peak_rss_mb; None when unset.
    """
    return {
        "libc": " ".join(platform.libc_ver()).strip() or None,
        "malloc_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith("MALLOC_")},
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
    }


def run_side(tree, workload, seed, seconds):
    """One benchmark run in a tree: (record, environment), as parse_run reads them."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {tree}:\n{proc.stderr}")
    return parse_run(proc.stdout)


def summarize(pairs, metrics):
    """Per-metric comparison of the change against the parent over the pairs.

    metrics maps each end-to-end metric name to (better, bound), with better
    "lower" or "higher" and bound the relative worsening allowed.
    """
    out = {}
    for name, (better, bound) in metrics.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        pq = _quartiles(parent)
        cq = _quartiles(change)
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        rel = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
        iqr = pq[2] - pq[0]
        out[name] = {
            "better": better,
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "change_better_pairs": wins,
            "pairs": len(pairs),
            "median_change_rel": rel,
            "parent_iqr_rel": iqr / pq[1] if pq[1] else 0.0,
            "bound": bound,
            "regression_beyond_bound": sign * rel > bound,
            "gain_rule_met": wins >= 0.9 * len(pairs) and sign * (pq[1] - cq[1]) > iqr,
        }
    return out


def _quartiles(values):
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _commit(tree):
    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=tree, capture_output=True, text=True
        ).stdout.strip()

    # untracked files do not count: an earlier run may have left BENCH files
    return {
        "commit": git("rev-parse", "HEAD") or None,
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    commits = {side: _commit(tree) for side, tree in trees.items()}

    pairs = []
    env = None
    for seed in args.seeds:
        first = "parent" if seed % 2 else "change"
        pair = {"seed": seed, "first": first}
        for side in (first, "change" if first == "parent" else "parent"):
            pair[side], env = run_side(trees[side], args.workload, seed, args.seconds)
            print(f"seed {seed} {side}: {json.dumps(pair[side])}", file=sys.stderr)
        pairs.append(pair)

    path = args.change / f"BENCH_{args.label}.json"
    bench = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    bench.update(
        label=args.label,
        parent=commits["parent"],
        change=commits["change"],
        command="python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        protocol=(
            "alternating pairs, the same seed on both sides of a pair, the parent "
            "first on odd seeds; each side from its own source tree"
        ),
        environment={**env, "allocator": allocator()},
    )
    bench["workloads"][args.workload] = {
        "seeds": args.seeds,
        "seconds": args.seconds,
        "pairs": pairs,
        "summary": summarize(pairs, metrics),
    }
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
