"""Every metric the benchmark reports: name, unit, direction, and for layer
metrics the end-to-end metric each should move and on which workload.

BENCHMARK.json lists the gated subset of these (name, unit, better, bound);
test_perfbench checks that the two agree.
"""

import math
import statistics

# name, unit, better, bound (None: reported but not gated; see CHANGES.md)
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("acc", "ratio", "higher", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.1),
    # can be 0 (capped solves never converge, no solve fails), so they are
    # printed with the report and through "failed", not gated by a bound
    ("converged_frac", "ratio", "higher", None),
    ("failed_frac", "ratio", "lower", None),
)

END_TO_END_GATED = tuple(m for m in END_TO_END if m[3] is not None)

FUSE, FROZEN, ABLATE = "fuse-m256", "frozen-v6", "ablate-402"
_FUSION = f"wall_s on {FUSE}; no change predicted on {FROZEN}"
_SETUP = f"setup_s on all workloads, largest share on {FUSE} (anchors at m=256)"
_TENSOR = f"wall_s on {FROZEN}; small on {FUSE}"
_SOLVER = f"wall_s on {FROZEN} (imputation, alignment); failed_frac everywhere"
_ITERS = f"converged_frac and wall_s on {ABLATE}; failed_frac everywhere"
_PROX = f"wall_s on {FUSE} (wide rows) and {ABLATE} (many narrow calls)"
_HARNESS = f"wall_s on {ABLATE} only"

# name, unit, better, should move. Seconds are self seconds and every value
# is per pass (one call on each of the run's input sets), the median over
# the traced passes of a run.
LAYERS = (
    ("agf.agf_minmax.s", "s", "lower", _FUSION),
    ("agf.agf_minmax.calls", "count", "lower", _FUSION),
    ("agf.fusion_share", "ratio", "lower", _FUSION),
    ("agf.steps", "count", "lower", _FUSION),
    ("agf.candidates", "count", "lower", _FUSION),
    ("agf.accept_ratio", "ratio", "higher", _FUSION),
    ("agf.compute_H.s", "s", "lower", _FUSION),
    ("agf.inner_value.s", "s", "lower", _FUSION),
    ("agf.grad_h.s", "s", "lower", _FUSION),
    ("agf.solve_inner_P.s", "s", "lower", _FUSION),
    ("graphs.weighted_fusion_input.s", "s", "lower", _FUSION),
    ("graphs.weighted_fusion_input.calls", "count", "lower", _FUSION),
    ("graphs.bkhk_anchors.s", "s", "lower", _SETUP),
    ("graphs.build_bipartite.s", "s", "lower", _SETUP),
    ("simplex.prox_rows.s", "s", "lower", _PROX),
    ("simplex.prox_rows.calls", "count", "lower", _PROX),
    ("simplex.rows", "count", "lower", _PROX),
    ("simplex.rows_per_s", "1/s", "higher", _PROX),
    ("tensor3.phi.s", "s", "lower", _TENSOR),
    ("tensor3.tubal_shrink.s", "s", "lower", _TENSOR),
    ("tensor3.tubal_shrink.share", "ratio", "lower", _TENSOR),
    ("tensor3.svd_slices", "count", "lower", _TENSOR),
    ("solver.outer_iters", "count", "lower", _ITERS),
    ("solver.iter_s", "s", "lower", _ITERS),
    ("solver.update_missing_rows.s", "s", "lower", _SOLVER),
    ("solver.update_labels.s", "s", "lower", _SOLVER),
    ("solver.update_G.s", "s", "lower", _TENSOR),
    ("solver.update_alignment.s", "s", "lower", _SOLVER),
    ("solver.update_multiplier.s", "s", "lower", _SOLVER),
    ("solver.imputed_rows", "count", "lower", _SOLVER),
    ("solver.update_labels.failures", "count", "lower", _SOLVER),
    ("solver.untraced_s", "s", "lower", _SOLVER),
    ("harness.generate_masks.s", "s", "lower", _HARNESS),
    ("harness.metrics.s", "s", "lower", _HARNESS),
    ("trace.overhead_ratio", "ratio", "lower", "none: cost of the spans themselves"),
    ("trace.base_wall_s", "s", "lower", "none: untraced pass wall, the overhead's base"),
)

# counts that must repeat exactly between runs with one seed
EXACT = (
    "agf.steps",
    "agf.candidates",
    "agf.agf_minmax.calls",
    "graphs.weighted_fusion_input.calls",
    "simplex.prox_rows.calls",
    "simplex.rows",
    "tensor3.svd_slices",
    "solver.outer_iters",
    "solver.imputed_rows",
    "solver.update_labels.failures",
)

_SELF_SECONDS = (
    "agf.agf_minmax",
    "agf.compute_H",
    "agf.inner_value",
    "agf.grad_h",
    "agf.solve_inner_P",
    "graphs.weighted_fusion_input",
    "graphs.bkhk_anchors",
    "graphs.build_bipartite",
    "simplex.prox_rows",
    "tensor3.phi",
    "tensor3.tubal_shrink",
    "solver.update_missing_rows",
    "solver.update_labels",
    "solver.update_G",
    "solver.update_alignment",
    "solver.update_multiplier",
    "harness.generate_masks",
    "harness.metrics",
)


def pass_layer_metrics(calls, tracers, fusion_spans):
    """Layer metrics of one traced pass, from its calls' scores and tracers."""
    out = {f"{name}.s": 0.0 for name in _SELF_SECONDS}
    counts = dict.fromkeys(
        ("agf.steps", "agf.candidates", "agf.accepted", "agf.agf_minmax.calls",
         "graphs.weighted_fusion_input.calls", "simplex.prox_rows.calls",
         "simplex.rows", "tensor3.svd_slices", "solver.imputed_rows",
         "solver.update_labels.failures", "solver.outer_iters"),
        0,
    )
    solve_s = fusion_s = untraced_s = 0.0
    iter_seconds = []
    for t in tracers:
        self_s = t.self_times()
        for name in _SELF_SECONDS:
            out[f"{name}.s"] += self_s.get(name, 0.0)
        untraced_s += self_s.get("solver.admm_solve", 0.0)
        solve_s += t.total("solver.admm_solve")
        fusion_s += t.outermost(fusion_spans)
        counts["agf.steps"] += t.calls("agf.grad_h")
        counts["agf.candidates"] += t.line_search_candidates()
        counts["agf.agf_minmax.calls"] += t.calls("agf.agf_minmax")
        counts["graphs.weighted_fusion_input.calls"] += t.calls(
            "graphs.weighted_fusion_input"
        )
        counts["simplex.prox_rows.calls"] += t.calls("simplex.prox_rows")
        counts["solver.update_labels.failures"] += t.failures("solver.update_labels")
        for key in ("agf.accepted", "simplex.rows", "tensor3.svd_slices",
                    "solver.imputed_rows"):
            counts[key] += t.counts[key]
    for call in calls:
        counts["solver.outer_iters"] += call["outer_iters"]
        iter_seconds.extend(call["iter_seconds"])
    accepted = counts.pop("agf.accepted")
    out.update(counts)
    out["agf.accept_ratio"] = (
        accepted / counts["agf.candidates"] if counts["agf.candidates"] else 0.0
    )
    out["agf.fusion_share"] = fusion_s / solve_s if solve_s else 0.0
    out["tensor3.tubal_shrink.share"] = (
        out["tensor3.tubal_shrink.s"] / solve_s if solve_s else 0.0
    )
    prox_s = out["simplex.prox_rows.s"]
    out["simplex.rows_per_s"] = counts["simplex.rows"] / prox_s if prox_s else 0.0
    out["solver.iter_s"] = statistics.median(iter_seconds) if iter_seconds else 0.0
    out["solver.untraced_s"] = untraced_s
    return out


def summarize(values):
    """Median, and the highest whole percentile with ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "samples": n, "tail_pct": None, "tail": None}
    if n >= 11:
        pct = math.floor(100 * (n - 10) / n)
        # nearest-rank percentile: at least ten samples lie above it
        rank = max(1, math.ceil(pct / 100 * n))
        out["tail_pct"], out["tail"] = pct, values[rank - 1]
    return out
