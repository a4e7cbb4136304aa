"""Spans around agfti's layer boundaries, recorded from outside the package.

``admm_solve`` and ``agf_minmax`` look up their callees as module globals at
call time, so replacing ``agfti.solver.update_G`` or ``agfti.agf.prox_rows``
with a wrapper puts a span at that boundary without touching the package.
Every wrapper is removed again when the ``Tracer.patched`` block exits.

A span is (name, start, end, parent, failed); spans stay in memory until the
benchmark writes them out. A span's self time is its duration minus the
durations of its children, which nest and never overlap because the solver
is single-threaded.
"""

import time
from collections import Counter
from contextlib import contextmanager

# (module key, attribute, span name); one function can be looked up in
# several modules, and each lookup site gets the same span name.
# Untraced runs patch only the solve and setup boundaries: the solve span
# keeps each SolveResult for the output checks, the setup spans give setup_s.
SOLVE_SITES = (
    ("solver", "admm_solve", "solver.admm_solve"),
    ("experiment", "admm_solve", "solver.admm_solve"),
)

SETUP_SITES = (
    ("solver", "bkhk_anchors", "graphs.bkhk_anchors"),
    ("solver", "build_bipartite", "graphs.build_bipartite"),
)

LAYER_SITES = SOLVE_SITES + SETUP_SITES + (
    ("solver", "agf_minmax", "agf.agf_minmax"),
    ("solver", "compute_H", "agf.compute_H"),
    ("solver", "inner_value", "agf.inner_value"),
    ("solver", "solve_inner_P", "agf.solve_inner_P"),
    ("solver", "weighted_fusion_input", "graphs.weighted_fusion_input"),
    ("solver", "prox_rows", "simplex.prox_rows"),
    ("solver", "phi", "tensor3.phi"),
    ("solver", "tubal_shrink", "tensor3.tubal_shrink"),
    ("solver", "update_missing_rows", "solver.update_missing_rows"),
    ("solver", "update_labels", "solver.update_labels"),
    ("solver", "update_G", "solver.update_G"),
    ("solver", "update_alignment", "solver.update_alignment"),
    ("solver", "update_multiplier", "solver.update_multiplier"),
    ("agf", "compute_H", "agf.compute_H"),
    ("agf", "inner_value", "agf.inner_value"),
    ("agf", "solve_inner_P", "agf.solve_inner_P"),
    ("agf", "grad_h", "agf.grad_h"),
    ("agf", "weighted_fusion_input", "graphs.weighted_fusion_input"),
    ("agf", "prox_rows", "simplex.prox_rows"),
    ("experiment", "generate_masks", "harness.generate_masks"),
    ("experiment", "metrics", "harness.metrics"),
)

# spans whose inclusive time is the fusion step: agf_minmax on the weighted
# path, the direct calls admm_solve makes on the frozen-weight path, and the
# initial fused graph
FUSION_SPANS = frozenset(
    {
        "agf.agf_minmax",
        "agf.compute_H",
        "agf.inner_value",
        "agf.solve_inner_P",
        "agf.grad_h",
        "graphs.weighted_fusion_input",
    }
)


def _count_rows(tracer, args, kwargs, out):
    target = args[0] if args else kwargs["target"]
    tracer.counts["simplex.rows"] += int(target.shape[0])


def _count_svd_slices(tracer, args, kwargs, out):
    f = args[0] if args else kwargs["f"]
    tracer.counts["tensor3.svd_slices"] += int(f.data.shape[0]) // 2 + 1


def _count_imputed(tracer, args, kwargs, out):
    missing = args[1] if len(args) > 1 else kwargs["missing"]
    tracer.counts["solver.imputed_rows"] += int(sum(len(idx) for idx in missing))


def _count_accepted(tracer, args, kwargs, out):
    tracer.counts["agf.accepted"] += sum(1 for step in out.steps if step > 0)


def _keep_result(tracer, args, kwargs, out):
    tracer.results.append(out)


HOOKS = {
    "solver.admm_solve": _keep_result,
    "simplex.prox_rows": _count_rows,
    "tensor3.tubal_shrink": _count_svd_slices,
    "solver.update_missing_rows": _count_imputed,
    "agf.agf_minmax": _count_accepted,
}


class Tracer:
    """In-memory span recorder with counters kept at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.results = []
        self._stack = []

    def wrap(self, name, fn):
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, False]
            self.spans.append(span)
            self._stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return traced

    @contextmanager
    def patched(self, modules, sites):
        """Swap each (module, attribute) site for a traced wrapper."""
        saved = []
        try:
            for mod_key, attr, name in sites:
                mod = modules[mod_key]
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(name, original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def total(self, name):
        """Inclusive seconds of every span with this name."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def self_times(self):
        """Self seconds per span name: duration minus the children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[sid]
        return out

    def failures(self, name):
        return sum(1 for s in self.spans if s[0] == name and s[4])

    def outermost(self, names):
        """Inclusive seconds of spans in names that have no ancestor in names."""
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                total += end - start
        return total

    def line_search_candidates(self):
        """solve_inner_P calls agf_minmax makes after a gradient, per step.

        Inside one agf_minmax iteration the order is compute_H, the inner
        solve at the current weights, grad_h, then one inner solve per
        backtracking candidate; the next compute_H starts a new iteration.
        """
        after_grad = {}
        n = 0
        for name, _, _, parent, _ in self.spans:
            if parent < 0 or self.spans[parent][0] != "agf.agf_minmax":
                continue
            if name == "agf.compute_H":
                after_grad[parent] = False
            elif name == "agf.grad_h":
                after_grad[parent] = True
            elif name == "agf.solve_inner_P" and after_grad.get(parent):
                n += 1
        return n

    def dump(self):
        return {
            "fields": ["name", "start", "end", "parent", "failed"],
            "spans": [list(s) for s in self.spans],
        }
