"""Command line front end."""

import json
import os
from contextlib import contextmanager

import click

from .harness import (
    BASELINE,
    STANDARD_VARIANTS,
    MaskSpec,
    generate_masks,
    load_container,
    load_mask,
    missing_per_view,
    run_experiment,
    save_dataset,
    save_dataset_csv,
    save_mask,
    score,
    synth_scp,
)
from .solver import SolverConfig, admm_solve, predict, prepare_inputs


class _OutputPath(click.Path):
    """A file to write; refused at parse time unless its directory exists.

    Every output parameter takes this type, so a run never does all its work
    only to fail when it writes.
    """

    def convert(self, value, param, ctx):
        path = super().convert(value, param, ctx)
        parent = os.path.dirname(path) or os.curdir
        if not os.path.isdir(parent):
            self.fail(f"directory {parent} does not exist", param, ctx)
        return path


_OUTPUT_PATH = _OutputPath(dir_okay=False)


def _stack(*decorators):
    """One decorator applying the given ones in order, top to bottom."""
    def apply(fn):
        for dec in reversed(decorators):
            fn = dec(fn)
        return fn
    return apply


_solver_options = _stack(
    click.option("--lambda", "lam", type=float, default=SolverConfig.lam,
                 help="fusion weight; defaults to V^2"),
    click.option("--beta-lambda", "beta", type=float, default=SolverConfig.beta,
                 show_default=True, help="fused-graph ridge weight"),
    click.option("--rho", type=float, default=SolverConfig.rho, show_default=True,
                 help="tensor nuclear norm weight"),
    click.option("--anchors", "n_anchors", type=int, default=SolverConfig.n_anchors,
                 show_default=True, help="anchors per view (power of two)"),
    click.option("--neighbors", "k_neighbors", type=int,
                 default=SolverConfig.k_neighbors, show_default=True,
                 help="anchor neighbours per sample"),
    click.option("--b-labeled", type=float, default=SolverConfig.b_labeled,
                 show_default=True, help="fitting weight on labeled samples"),
    click.option("--tol", type=float, default=SolverConfig.tol, show_default=True,
                 help="outer stopping tolerance"),
    click.option("--max-iters", "max_outer_iters", type=click.IntRange(min=1),
                 default=SolverConfig.max_outer_iters, show_default=True,
                 help="outer iteration cap"),
    click.option("--seed", type=int, default=SolverConfig.seed, show_default=True),
)

# the ranges MaskSpec accepts
_ratio_options = _stack(
    click.option("--vmr", type=click.FloatRange(0, 1, max_open=True),
                 required=True, help="view missing ratio"),
    click.option("--lar", type=click.FloatRange(0, 1, min_open=True),
                 required=True, help="label annotation ratio"),
)

# the repetition protocol shared by eval and ablate
_experiment_options = _stack(
    click.argument("container_path", type=click.Path(exists=True)),
    _ratio_options,
    click.option("--reps", type=click.IntRange(min=1), default=10,
                 show_default=True),
    click.option("--base-seed", type=int, default=0, show_default=True),
    click.option("--jsonl", type=_OUTPUT_PATH, default=None,
                 help="append per-repetition and aggregate records here"),
    click.option("--out", type=_OUTPUT_PATH, default=None),
    _solver_options,
)


@contextmanager
def _refused(param_hint):
    """Report a ValueError raised inside as a bad value of param_hint (exit 2)."""
    try:
        yield
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint=param_hint) from None


def _emit(text, out):
    """Print text, or write it with a final newline to out and say so."""
    if out is None:
        click.echo(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        click.echo(f"wrote {out}")


def _experiment(variants, flat, container_path, vmr, lar, reps, base_seed,
                jsonl, out, **kwargs):
    """Run the repetition protocol per variant and print its report.

    Each variant's block is {failed_reps, aggregate}; flat puts the single
    variant's block beside the header instead of under "variants". Exits 1
    naming each variant whose every repetition failed.
    """
    # run_experiment raises ValueError only when drawing masks
    with _refused("CONTAINER_PATH"):
        container = load_container(container_path)
        results = run_experiment(
            container, vmr, lar, reps,
            solver_config=SolverConfig(**kwargs),
            variants=variants, base_seed=base_seed, jsonl_path=jsonl,
        )
    blocks = {
        name: {"failed_reps": block["failed_reps"],
               "aggregate": block["aggregate"]}
        for name, block in results["variants"].items()
    }
    report = {"dataset": container.name, "vmr": vmr, "lar": lar, "reps": reps}
    if flat:
        (block,) = blocks.values()
        report.update(block)
    else:
        report["variants"] = blocks
    _emit(json.dumps(report, indent=2, sort_keys=True), out)
    empty = [name for name, block in blocks.items()
             if block["failed_reps"] == reps]
    if empty:
        raise click.ClickException(
            f"no successful repetition for variant(s): {', '.join(empty)}")


@click.group()
def main():
    """Anchor-graph fusion with tensorial imputation."""


@main.command()
@click.argument("out", type=_OUTPUT_PATH)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--n-per-class", type=click.IntRange(1), default=100, show_default=True)
@click.option("--views", "V", type=click.IntRange(1), default=2, show_default=True)
@click.option("--classes", "c", type=click.IntRange(1), default=3, show_default=True)
@click.option("--vacuum", type=click.FloatRange(0, 1), default=0.55,
              show_default=True, help="fraction of each segment thinned to bridges")
@click.option("--noise", type=click.FloatRange(0, float("inf"), max_open=True),
              default=0.2, show_default=True)
@click.option("--bridge", type=click.FloatRange(0, 1), default=0.04, show_default=True)
@click.option("--csv", "as_csv", is_flag=True,
              help="write a CSV directory instead of the binary container")
def synth(out, seed, n_per_class, V, c, vacuum, noise, bridge, as_csv):
    """Generate a synthetic sub-cluster-problem container."""
    container = synth_scp(
        seed, n_per_class=n_per_class, V=V, c=c,
        vacuum_width=vacuum, noise=noise, bridge_frac=bridge,
    )
    if as_csv:
        save_dataset_csv(container, out)
    else:
        save_dataset(container, out)
    click.echo(f"wrote {out}: n={container.n} V={container.V} c={container.c}")


@main.command()
@click.argument("container_path", type=click.Path(exists=True))
@click.argument("out", type=_OUTPUT_PATH)
@_ratio_options
@click.option("--seed", type=click.IntRange(0), default=0, show_default=True)
def mask(container_path, out, vmr, lar, seed):
    """Draw missing-view and label masks for a container."""
    spec = MaskSpec(vmr=vmr, lar=lar, seed=seed)
    with _refused("CONTAINER_PATH"):
        container = load_container(container_path)
        missing, labeled = generate_masks(container, spec)
    save_mask(out, spec, missing, labeled)
    n_incomplete = sum(1 for views in missing if views)
    click.echo(
        f"wrote {out}: {n_incomplete}/{container.n} samples incomplete, "
        f"{len(labeled)} labeled"
    )


@main.command()
@click.argument("container_path", type=click.Path(exists=True))
@click.argument("mask_path", type=click.Path(exists=True))
@click.option("--out", type=_OUTPUT_PATH, default=None,
              help="write the report here instead of stdout")
@click.option("--predictions", "pred_path", type=_OUTPUT_PATH,
              default=None, help="also dump per-sample predictions as JSON")
@click.option("--diagnostics", "diag_path", type=_OUTPUT_PATH,
              default=None, help="also dump one JSON line per ADMM iteration")
@_solver_options
def train(container_path, mask_path, out, pred_path, diag_path, **kwargs):
    """Solve once on a container + mask and report metrics."""
    # a mask that does not fit the container exits 2 on MASK_PATH; a setting
    # the solver refuses exits 1, and so does a non-finite feature on a held
    # row, which the mask check leaves to the solve
    with _refused("CONTAINER_PATH"):
        container = load_container(container_path)
    with _refused("MASK_PATH"):
        _, missing, labeled = load_mask(mask_path)
        if len(missing) != container.n:
            raise ValueError(f"mask covers {len(missing)} samples, the "
                             f"container has {container.n}")
        per_view = missing_per_view(missing, container.V)
        prepare_inputs(container.views, container.labels, labeled, per_view,
                       container.c, check_finite=False)
    try:
        result = admm_solve(
            container.views, container.labels, labeled, per_view,
            SolverConfig(**kwargs), n_classes=container.c,
        )
    except ValueError as exc:
        raise click.ClickException(str(exc)) from None
    pred = predict(result.F)
    report = {
        "dataset": container.name,
        "n": container.n,
        "labeled": int(labeled.size),
        "metrics": score(container, pred, labeled),
        "converged": result.converged,
        "n_iter": result.n_iter,
        "degenerate": result.degenerate,
        "lambda": result.lam,
        "alpha": [float(a) for a in result.alpha],
    }
    _emit(json.dumps(report, indent=2, sort_keys=True), out)
    if pred_path is not None:
        with open(pred_path, "w") as fh:
            json.dump({"predictions": [int(p) for p in pred]}, fh)
        click.echo(f"wrote {pred_path}")
    if diag_path is not None:
        _emit("\n".join(json.dumps(row, sort_keys=True)
                        for row in result.diagnostics), diag_path)


@main.command("eval")
@_experiment_options
def eval_cmd(**kwargs):
    """Run K seeded repetitions of mask -> solve -> score."""
    _experiment({"full": {}}, flat=True, **kwargs)


@main.command()
@_experiment_options
@click.option("--variants", default="full,wo_tv,wo_alpha,wo_ti",
              show_default=True, help=f"comma-separated names, or {BASELINE}")
def ablate(variants, **kwargs):
    """Compare ablation variants under the repetition harness."""
    known = {**STANDARD_VARIANTS, BASELINE: {}}
    chosen = {}
    for name in (v.strip() for v in variants.split(",")):
        if not name:
            continue
        if name not in known:
            raise click.BadParameter(f"unknown variant {name!r}; known: "
                                     f"{', '.join(sorted(known))}")
        chosen[name] = known[name]
    if not chosen:
        raise click.BadParameter(f"{variants!r} names no variant",
                                 param_hint="'--variants'")
    _experiment(chosen, flat=False, **kwargs)


if __name__ == "__main__":
    main()
