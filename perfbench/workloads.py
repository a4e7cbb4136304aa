"""The benchmark's workloads: seeded inputs, the timed call, output checks.

A workload run draws ``input_sets`` independent problems from its seed and
makes one public call per problem (``agfti.solver.admm_solve`` or
``agfti.harness.run_experiment``). Solve cost and accuracy depend on the data
(how many line-search candidates the weights need, when the loop converges),
so each run averages over several problems instead of timing one.
"""

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

LAR = 0.05
K_NEIGHBORS = 7
# checks on the solver's outputs: rows of P and alpha sum to one within this
SUM_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict
    vmr: float
    solver: dict
    input_sets: int
    # repetitions per run_experiment call; 0 means one admm_solve per problem
    reps: int = 0
    small: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fuse-m256",
            why=(
                "paper's 256 anchors, V=2, n=1000, one outer iteration with a fixed "
                "budget of four weight steps: the line search and its simplex projections dominate"
            ),
            synth={"V": 2, "c": 3, "class_sizes": (334, 333, 333)},
            vmr=0.5,
            # inner_tol=0 makes every problem take exactly max_inner_iters
            # weight steps; left to the tolerance, problems take 1 to 5 and
            # the run-to-run spread of wall time is three times wider
            solver={
                "n_anchors": 256,
                "max_outer_iters": 1,
                "max_inner_iters": 4,
                "inner_tol": 0.0,
            },
            input_sets=12,
            small={
                "synth": {"V": 2, "c": 3, "n_per_class": 60},
                "solver": {
                    "n_anchors": 32,
                    "max_outer_iters": 2,
                    "max_inner_iters": 4,
                    "inner_tol": 0.0,
                },
            },
        ),
        Workload(
            name="frozen-v6",
            why=(
                "six views, 64 anchors, frozen weights (the wo_alpha ablation): one "
                "projection per iteration, so tubal shrinkage, imputation and "
                "alignment set wall time"
            ),
            synth={"V": 6, "c": 10, "n_per_class": 200},
            vmr=0.7,
            solver={"n_anchors": 64, "max_outer_iters": 30, "freeze_weights": True},
            input_sets=5,
            small={
                "synth": {"V": 6, "c": 10, "n_per_class": 12},
                "solver": {"n_anchors": 16, "max_outer_iters": 5, "freeze_weights": True},
                "input_sets": 1,
            },
        ),
        Workload(
            name="ablate-402",
            why=(
                "paper's repetition protocol: run_experiment solves four ablation variants "
                "to convergence, so the harness, the stopping rule and per-solve setup count"
            ),
            synth={"V": 2, "c": 3, "n_per_class": 134},
            vmr=0.5,
            solver={"n_anchors": 64},
            input_sets=3,
            reps=2,
            small={
                "synth": {"V": 2, "c": 3, "n_per_class": 30},
                "solver": {"n_anchors": 16},
                "input_sets": 1,
                "reps": 1,
            },
        ),
    )
}


def get(name, small=False):
    w = WORKLOADS[name]
    return replace(w, **w.small) if small else w


def problem_seed(seed, j):
    """Seed of the j-th problem of a run, a pure function of the run seed."""
    return int(np.random.SeedSequence([seed, j]).generate_state(1)[0])


def fingerprint(results):
    """Digest of every solve's F, to compare runs bit for bit."""
    h = hashlib.sha256()
    for r in results:
        h.update(np.ascontiguousarray(r.F).tobytes())
    return h.hexdigest()


def check_solution(result, n, c):
    """Problems with one SolveResult; an empty list means it passed."""
    problems = []
    F, P, alpha = result.F, result.P, result.alpha
    if F.shape != (n, c) or not np.all(np.isfinite(F)):
        problems.append("F is not a finite (n, c) array")
    else:
        pred = np.argmax(F, axis=1)
        if pred.min() < 0 or pred.max() >= c:
            problems.append("prediction outside [0, c)")
    if P.shape[0] != n or np.any(P < 0) or not np.allclose(
        P.sum(axis=1), 1.0, rtol=0.0, atol=SUM_TOL
    ):
        problems.append("rows of P are not on the simplex")
    if np.any(alpha < 0) or abs(float(alpha.sum()) - 1.0) > SUM_TOL:
        problems.append("alpha is not on the simplex")
    return problems


class Problem:
    """One seeded input set and the public call the workload times."""

    def __init__(self, workload, seed, agfti):
        self.w = workload
        self.seed = seed
        self.agfti = agfti
        harness = agfti.harness
        self.container = c = harness.synth_scp(seed, **workload.synth)
        self.y = c.labels.astype(np.int64)
        self.config = agfti.solver.SolverConfig(
            k_neighbors=K_NEIGHBORS, seed=seed, **workload.solver
        )
        if workload.reps:
            rep_seeds = [harness.rep_seed(seed, r) for r in range(workload.reps)]
        else:
            rep_seeds = [seed]
        # (missing rows per view, labeled rows) of each solve; run_experiment
        # draws the same masks itself
        self.masks = []
        for s in rep_seeds:
            missing, labeled = harness.generate_masks(
                c, harness.MaskSpec(vmr=workload.vmr, lar=LAR, seed=s)
            )
            self.masks.append((harness.missing_per_view(missing, c.V), labeled))
        self.rep_seeds = rep_seeds

    def call(self):
        """The timed public call; SolveResults come back through the tracer."""
        c = self.container
        if self.w.reps:
            return self.agfti.harness.run_experiment(
                c,
                self.w.vmr,
                LAR,
                self.w.reps,
                solver_config=self.config,
                variants=self.agfti.harness.STANDARD_VARIANTS,
                base_seed=self.seed,
            )
        per_view, labeled = self.masks[0]
        return self.agfti.solver.admm_solve(
            c.views, self.y, labeled, per_view, self.config, n_classes=c.c
        )

    def score(self, out, results, error):
        """Accuracy, convergence and failure counts of one call."""
        c = self.container
        checks = [check_solution(r, c.n, c.c) for r in results]
        if error is not None:
            # nothing of the call survives; every solve it would make failed
            attempted = len(self.agfti.harness.STANDARD_VARIANTS) * self.w.reps or 1
            raised, accs = attempted, []
        elif self.w.reps:
            records = [
                rec for block in out["variants"].values() for rec in block["records"]
            ]
            accs = [rec["metrics"]["acc"] for rec in records if rec["error"] is None]
            attempted = len(records)
            raised = sum(rec["error"] is not None for rec in records)
        else:
            attempted, raised = 1, 0
            labeled = self.masks[0][1]
            unlabeled = np.setdiff1d(np.arange(c.n), labeled)
            pred = np.argmax(out.F, axis=1)[unlabeled]
            accs = [float(np.mean(pred == c.labels[unlabeled]))]
        return {
            "attempted": attempted,
            "failed": min(attempted, raised + sum(bool(found) for found in checks)),
            "problems": [p for found in checks for p in found],
            # 0 when no solve finished; the failures already mark the run
            "acc": float(np.mean(accs)) if accs else 0.0,
            "converged": sum(bool(r.converged) for r in results),
            "outer_iters": sum(int(r.n_iter) for r in results),
            "iter_seconds": [d["seconds"] for r in results for d in r.diagnostics],
            "fingerprint": fingerprint(results),
        }

    def baseline_acc(self):
        """Equal-weight label propagation on the same masks (not timed)."""
        c = self.container
        accs = []
        for (per_view, labeled), s in zip(self.masks, self.rep_seeds):
            pred = self.agfti.harness.baseline_label_propagation(
                c.views,
                self.y,
                labeled,
                per_view,
                m=self.config.n_anchors,
                k=K_NEIGHBORS,
                seed=s,
                n_classes=c.c,
            )
            unlabeled = np.setdiff1d(np.arange(c.n), labeled)
            accs.append(float(np.mean(pred[unlabeled] == c.labels[unlabeled])))
        return float(np.mean(accs))
