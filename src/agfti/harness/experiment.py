"""Seeded repetition harness: mask, solve, score, aggregate.

Each repetition r derives its own 63-bit seed from the base seed through a
dedicated generator substream, then uses it for both the masks and the
solver's anchor selection. Ablation variants are declared as SolverConfig
flag overrides, so they compose freely; the reserved variant BASELINE scores
baseline_label_propagation on the same masks.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from ..graphs import warn_zero_degree, zero_degree_anchors
from ..rng import STREAM_EXPERIMENT, make_generator
from ..solver import (
    SolverConfig,
    _checked_graphs,
    admm_solve,
    anchor_graphs,
    one_hot_labels,
    predict,
    prepare_inputs,
    update_labels,
)
from .masks import MaskSpec, generate_masks, missing_per_view
from .metrics import METRIC_KEYS, metrics

STANDARD_VARIANTS = {
    "full": {},
    "wo_tv": {"freeze_alignment": True},
    "wo_alpha": {"freeze_weights": True},
    "wo_ti": {"skip_imputation": True},
}
# the variant name that scores the equal-weight propagation baseline
BASELINE = "baseline"


def rep_seed(base_seed, r):
    """63-bit repetition seed drawn from the experiment substream."""
    rng = make_generator(base_seed, STREAM_EXPERIMENT, index=r)
    return int(rng.integers(0, 2**63))


def draw_repetition(container, vmr, lar, base_seed, r):
    """(seed, per_view, labeled) of repetition r.

    seed is the repetition seed; per_view (missing indices per view) and
    labeled are the masks drawn from it, so every column scored on
    repetition r sees the same masks.
    """
    seed = rep_seed(base_seed, r)
    missing, labeled = generate_masks(container, MaskSpec(vmr=vmr, lar=lar, seed=seed))
    return seed, missing_per_view(missing, container.V), labeled


def baseline_label_propagation(
    views, y, labeled_idx, missing, m=SolverConfig.n_anchors,
    k=SolverConfig.k_neighbors, seed=0, n_classes=None, graphs=None,
):
    """Label propagation on the unweighted mean of the per-view graphs.

    Per-view bipartite rows are averaged with equal weight over V disjoint
    anchor blocks, keeping rows stochastic; a sample's row in a view it is
    missing from stays at the uninformative uniform 1/m, the same convention
    the solver starts from before imputation. No imputation, no view
    weighting, no alignment: the control all harness comparisons run against.
    Labels are fitted with the solver's default b_labeled; a ZeroDegreeWarning
    reports zero-degree anchors of the mean graph. The input is checked as
    admm_solve checks it, with the same ValueError messages.
    graphs, when given, is the stack anchor_graphs(views, missing, m, k,
    seed) returns; it is read, never copied or written, and another shape
    raises ValueError.
    """
    views, y, labeled_idx, missing, c = prepare_inputs(
        views, y, labeled_idx, missing, n_classes
    )
    V = len(views)
    n = views[0].shape[0]

    if graphs is None:
        stack = anchor_graphs(views, missing, m, k, seed)
    else:
        stack = _checked_graphs(graphs, V, n, m)
    # one new array: dividing the (n, V, m) view into it keeps the caller's
    # stack unwritten, which an in-place division of the reshape would not
    # at V = 1, where the reshape is a view of that stack
    P_cat = np.divide(stack.transpose(1, 0, 2), V,
                      out=np.empty((n, V, m), dtype=stack.dtype))
    P_cat = P_cat.reshape(n, V * m)

    Y = one_hot_labels(y, labeled_idx, c)
    F, _ = update_labels(P_cat, Y, SolverConfig.b_labeled)
    warn_zero_degree([zero_degree_anchors(P_cat)], stacklevel=2)
    return predict(F)


def _repetition_graphs(container, per_view, labeled, m, k, seed):
    """The anchor graphs the columns of a repetition share.

    The inputs are checked first, as admm_solve and the baseline check them
    before they build, so a column raises the error that building its own
    stack would have raised.
    """
    views, _, _, missing, _ = prepare_inputs(
        container.views, container.labels, labeled, per_view, container.c
    )
    return anchor_graphs(views, missing, m, k, seed)


def _column(container, labeled, per_view, name, config, graphs):
    """(predictions, solve flags) of one variant on a repetition's masks.

    graphs is the repetition's stack. The SolveResult dies when this
    returns, so the next column's solve does not start with its graphs and
    fused graph alive.
    """
    if name == BASELINE:
        pred = baseline_label_propagation(
            container.views, container.labels, labeled, per_view,
            m=config.n_anchors, k=config.k_neighbors, seed=config.seed,
            n_classes=container.c, graphs=graphs,
        )
        return pred, {}
    result = admm_solve(container.views, container.labels, labeled, per_view,
                        config, n_classes=container.c, graphs=graphs)
    flags = {"converged": result.converged, "n_iter": result.n_iter,
             "degenerate": result.degenerate}
    return predict(result.F), flags


def score(container, pred, labeled):
    """metrics of the full-length pred on the rows the mask leaves unlabeled.

    Only rows with a known label (at least 0) are scored; a container's
    unknown labels (-1) never are.
    """
    scored = np.setdiff1d(np.flatnonzero(container.labels >= 0), labeled)
    return metrics(pred[scored], container.labels[scored], container.c)


def _aggregate(records):
    ok = [r for r in records if r["error"] is None]
    agg = {}
    for key in METRIC_KEYS:
        values = np.array([r["metrics"][key] for r in ok], dtype=np.float64)
        agg[key] = {
            "mean": float(values.mean()) if values.size else None,
            "std": float(values.std()) if values.size else None,
        }
    return agg


def run_experiment(
    container,
    vmr,
    lar,
    n_reps,
    solver_config=None,
    variants=None,
    base_seed=0,
    jsonl_path=None,
):
    """K seeded repetitions of mask -> solve -> score, per variant.

    Returns a results record with one block per variant: the per-repetition
    records and mean/std aggregates for every metric. Solver errors inside a
    repetition are captured on its record and counted in failed_reps instead
    of aborting the run; with none successful, each mean and std is None.
    Each repetition is scored by score, on the rows its mask leaves unlabeled.
    A solve's record carries its converged, n_iter and degenerate flags.

    The variant named BASELINE runs baseline_label_propagation instead of a
    solve, on the same masks, with its flags ignored: of solver_config only
    n_anchors and k_neighbors reach it, with the repetition seed, and it
    fits labels with the default b_labeled. Its records keep the same shape,
    with converged, n_iter and degenerate None.

    With jsonl_path, every record and one aggregate line per variant are
    appended to that file, so several calls (one per VMR, say) can share it.

    The anchor graphs of a repetition are built once for each
    (n_anchors, k_neighbors) its columns use, which is once unless a variant
    overrides those fields, and every such column reads that stack. Only a
    built stack is kept: when the build raises, each of those columns
    repeats the input check and the build, and records its error.
    """
    solver_config = solver_config or SolverConfig()
    variants = dict(variants) if variants is not None else {"full": {}}

    blocks = {name: {"records": [], "failed_reps": 0} for name in variants}
    for r in range(n_reps):
        seed_r, per_view, labeled = draw_repetition(container, vmr, lar, base_seed, r)
        # (n_anchors, k_neighbors) -> that stack, once it was built; only
        # this dict holds the stacks, so the previous repetition's die here,
        # before this repetition builds its own
        stacks = {}
        for name, flags in variants.items():
            record = {
                "type": "rep",
                "variant": name,
                "rep": r,
                "seed": seed_r,
                "vmr": vmr,
                "lar": lar,
                "error": None,
                "metrics": None,
                "converged": None,
                "n_iter": None,
                "degenerate": None,
            }
            # the baseline ignores its flags
            config = replace(solver_config, seed=seed_r,
                             **({} if name == BASELINE else flags))
            key = (config.n_anchors, config.k_neighbors)
            try:
                if key not in stacks:
                    stacks[key] = _repetition_graphs(container, per_view,
                                                     labeled, *key, seed_r)
                pred, flags = _column(container, labeled, per_view, name,
                                      config, stacks[key])
                record.update(flags)
                record["metrics"] = score(container, pred, labeled)
            except ValueError as exc:  # np.linalg.LinAlgError included
                record["error"] = f"{type(exc).__name__}: {exc}"
                blocks[name]["failed_reps"] += 1
            blocks[name]["records"].append(record)

    for name, block in blocks.items():
        block["aggregate"] = _aggregate(block["records"])

    header = {"dataset": container.name, "vmr": vmr, "lar": lar, "n_reps": n_reps}
    out = {**header, "base_seed": base_seed, "variants": blocks}
    if jsonl_path is not None:
        with open(Path(jsonl_path), "a") as fh:
            for name, block in blocks.items():
                for record in block["records"]:
                    fh.write(json.dumps(record) + "\n")
                line = {"type": "aggregate", "variant": name, **header,
                        "failed_reps": block["failed_reps"],
                        "aggregate": block["aggregate"]}
                fh.write(json.dumps(line) + "\n")
    return out
