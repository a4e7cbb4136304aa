"""End-to-end smoke tests for the command line interface."""

import dataclasses
import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from agfti.cli import _solver_options, main
from agfti.harness import (
    DatasetContainer,
    load_container,
    load_mask,
    metrics,
    missing_per_view,
    save_dataset,
    save_dataset_csv,
)
from agfti.solver import SolverConfig, admm_solve


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny container + mask shared by all CLI tests in this module."""
    root = tmp_path_factory.mktemp("cli")
    runner = CliRunner()
    data = str(root / "toy.npz")
    maskfile = str(root / "toy_mask.json")

    result = runner.invoke(main, [
        "synth", data, "--seed", "3", "--n-per-class", "40",
        "--views", "2", "--classes", "3",
    ])
    assert result.exit_code == 0, result.output
    assert os.path.exists(data)

    result = runner.invoke(main, [
        "mask", data, maskfile, "--vmr", "0.3", "--lar", "0.1", "--seed", "5",
    ])
    assert result.exit_code == 0, result.output
    assert os.path.exists(maskfile)

    return {"root": root, "data": data, "mask": maskfile}


def test_synth_reports_shape(workspace):
    runner = CliRunner()
    out = str(workspace["root"] / "again.npz")
    result = runner.invoke(main, ["synth", out, "--seed", "3"])
    assert result.exit_code == 0, result.output
    assert "n=300" in result.output
    assert "V=2" in result.output


def test_synth_csv_roundtrip(workspace):
    runner = CliRunner()
    csvdir = str(workspace["root"] / "toy_csv")
    result = runner.invoke(main, [
        "synth", csvdir, "--seed", "3", "--n-per-class", "40", "--csv",
    ])
    assert result.exit_code == 0, result.output
    assert os.path.isdir(csvdir)

    maskfile = str(workspace["root"] / "csv_mask.json")
    result = runner.invoke(main, [
        "mask", csvdir, maskfile, "--vmr", "0.2", "--lar", "0.1",
    ])
    assert result.exit_code == 0, result.output


def test_train_refuses_a_non_finite_feature_on_a_held_row(tmp_path):
    # it used to fail deep in the solve, in prox_rows on non-finite entries
    runner = CliRunner()
    csvdir, maskfile = tmp_path / "csv", tmp_path / "mask.json"
    for args in (["synth", csvdir, "--n-per-class", "20", "--csv"],
                 ["mask", csvdir, maskfile, "--vmr", "0.3", "--lar", "0.1"]):
        result = runner.invoke(main, [str(a) for a in args])
        assert result.exit_code == 0, result.output
    _, missing, _ = load_mask(maskfile)
    held = next(i for i, views in enumerate(missing) if 0 not in views)
    lines = (csvdir / "view0.csv").read_text().splitlines()
    lines[held] = ",".join(["nan", *lines[held].split(",")[1:]])
    (csvdir / "view0.csv").write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["train", str(csvdir), str(maskfile),
                                  "--anchors", "8"])
    assert result.exit_code == 1
    assert (f"Error: view 0 has a non-finite feature on sample {held}, "
            "which it holds") in result.output


def test_mask_file_contents(workspace):
    with open(workspace["mask"]) as fh:
        payload = json.load(fh)
    assert payload["vmr"] == 0.3
    assert payload["lar"] == 0.1
    assert len(payload["missing"]) == 120
    assert len(payload["labeled"]) >= 3


def test_train_reports_metrics(workspace):
    runner = CliRunner()
    report_path = str(workspace["root"] / "train.json")
    pred_path = str(workspace["root"] / "pred.json")
    result = runner.invoke(main, [
        "train", workspace["data"], workspace["mask"],
        "--anchors", "8", "--max-iters", "15",
        "--out", report_path, "--predictions", pred_path,
    ])
    assert result.exit_code == 0, result.output

    with open(report_path) as fh:
        report = json.load(fh)
    assert report["n"] == 120
    assert 0.0 <= report["metrics"]["acc"] <= 1.0
    assert len(report["alpha"]) == 2
    assert abs(sum(report["alpha"]) - 1.0) < 1e-9

    with open(pred_path) as fh:
        preds = json.load(fh)["predictions"]
    assert len(preds) == 120
    assert set(preds) <= {0, 1, 2}
    # the flag says whether the unlabeled samples all got one class
    with open(workspace["mask"]) as fh:
        labeled = set(json.load(fh)["labeled"])
    unlabeled = {p for i, p in enumerate(preds) if i not in labeled}
    assert report["degenerate"] is (len(unlabeled) == 1)


def test_train_scores_only_known_labels(workspace):
    toy = load_container(workspace["data"])
    labels = toy.labels.copy()
    labels[::4] = -1  # unknown
    root = workspace["root"]
    data, maskfile = str(root / "unknown.npz"), str(root / "unknown_mask.json")
    save_dataset(DatasetContainer(toy.views, labels, toy.c, toy.name), data)
    report_path, pred_path = str(root / "unknown.json"), str(root / "unknown_pred.json")
    runner = CliRunner()
    for args in (
        ["mask", data, maskfile, "--vmr", "0.3", "--lar", "0.1"],
        ["train", data, maskfile, "--anchors", "8", "--max-iters", "15",
         "--out", report_path, "--predictions", pred_path],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output

    with open(report_path) as fh:
        report = json.load(fh)
    with open(pred_path) as fh:
        pred = np.array(json.load(fh)["predictions"])
    _, _, labeled = load_mask(maskfile)
    scored = np.setdiff1d(np.flatnonzero(labels >= 0), labeled)
    assert report["metrics"] == metrics(pred[scored], labels[scored], toy.c)


def test_train_stdout_is_json(workspace):
    runner = CliRunner()
    result = runner.invoke(main, [
        "train", workspace["data"], workspace["mask"],
        "--anchors", "8", "--max-iters", "5",
    ])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert "metrics" in report


def test_train_diagnostics_emit_one_record_per_iteration(workspace):
    diag_path = str(workspace["root"] / "diag.jsonl")
    result = CliRunner().invoke(main, [
        "train", workspace["data"], workspace["mask"],
        "--anchors", "8", "--max-iters", "10", "--diagnostics", diag_path,
    ])
    assert result.exit_code == 0, result.output
    wrote = f"wrote {diag_path}\n"
    assert result.output.endswith(wrote)
    report = json.loads(result.output[:-len(wrote)])
    with open(diag_path) as fh:
        rows = [json.loads(line) for line in fh]
    assert report["n_iter"] == len(rows)
    assert rows[0]["iteration"] == 1
    for row in rows:
        assert row["primal_residual_fro"] >= row["primal_residual_inf"] >= 0.0
        assert sum(row["step_seconds"].values()) <= row["seconds"]
        search = row["line_search"]
        assert set(search) == {"steps", "thetas", "evaluated", "bound_rejected"}
        assert search["steps"] >= 1
        # one theta per accepted step, each from its own valued candidate
        assert len(search["thetas"]) <= search["steps"]
        assert all(0.0 < t <= 1.0 for t in search["thetas"])
        assert len(search["thetas"]) <= search["evaluated"]
        assert search["bound_rejected"] >= 0
    # the weights move at least once on this instance
    assert sum(len(row["line_search"]["thetas"]) for row in rows) > 0


def _clockless(row):
    return {k: v for k, v in row.items() if k not in ("seconds", "step_seconds")}


def test_train_diagnostics_are_the_solve_records(workspace):
    data, maskfile = workspace["data"], workspace["mask"]
    diag_path = str(workspace["root"] / "diag_records.jsonl")
    args = ["train", data, maskfile, "--anchors", "8", "--max-iters", "10"]
    runner = CliRunner()
    plain = runner.invoke(main, args)
    dumped = runner.invoke(main, [*args, "--diagnostics", diag_path])
    assert plain.exit_code == dumped.exit_code == 0, dumped.output
    # the option adds its file and one line naming it, and changes no report
    assert dumped.output == plain.output + f"wrote {diag_path}\n"

    container = load_container(data)
    _, missing, labeled = load_mask(maskfile)
    result = admm_solve(
        container.views, container.labels, labeled,
        missing_per_view(missing, container.V),
        SolverConfig(n_anchors=8, max_outer_iters=10), n_classes=container.c,
    )
    with open(diag_path) as fh:
        rows = [json.loads(line) for line in fh]
    assert [_clockless(row) for row in rows] == [
        _clockless(row) for row in result.diagnostics
    ]


@pytest.mark.parametrize("value", ["0", "-3"])
def test_train_refuses_a_solve_without_iterations(workspace, value):
    result = CliRunner().invoke(main, [
        "train", workspace["data"], workspace["mask"], "--anchors", "8",
        "--max-iters", value,
    ])
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--max-iters'" in result.output


def test_eval_aggregates(workspace):
    runner = CliRunner()
    jsonl_path = str(workspace["root"] / "eval.jsonl")
    result = runner.invoke(main, [
        "eval", workspace["data"], "--vmr", "0.3", "--lar", "0.1",
        "--reps", "2", "--anchors", "8", "--max-iters", "10",
        "--jsonl", jsonl_path,
    ])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["reps"] == 2
    assert "acc" in report["aggregate"]

    with open(jsonl_path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    assert sum(1 for r in records if r.get("type") == "aggregate") == 1


def test_ablate_runs_selected_variants(workspace):
    runner = CliRunner()
    result = runner.invoke(main, [
        "ablate", workspace["data"], "--vmr", "0.3", "--lar", "0.1",
        "--reps", "1", "--anchors", "8", "--max-iters", "10",
        "--variants", "full,wo_ti",
    ])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert set(report["variants"]) == {"full", "wo_ti"}


def test_ablate_scores_the_baseline_variant(workspace):
    jsonl_path = workspace["root"] / "baseline.jsonl"
    result = CliRunner().invoke(main, [
        "ablate", workspace["data"], "--vmr", "0.3", "--lar", "0.1",
        "--reps", "2", "--anchors", "8", "--max-iters", "10",
        "--variants", "full,baseline", "--jsonl", str(jsonl_path),
    ])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert set(report["variants"]) == {"full", "baseline"}
    baseline = report["variants"]["baseline"]
    assert baseline["failed_reps"] == 0
    assert 0.0 <= baseline["aggregate"]["acc"]["mean"] <= 1.0
    lines = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
    reps = [line for line in lines
            if line["type"] == "rep" and line["variant"] == "baseline"]
    assert [line["rep"] for line in reps] == [0, 1]
    for line in reps:
        assert line["converged"] is line["n_iter"] is line["degenerate"] is None
    # each repetition's baseline and solve share its seed, so its masks
    full = [line for line in lines if line["type"] == "rep" and line["variant"] == "full"]
    assert [line["seed"] for line in full] == [line["seed"] for line in reps]
    aggregated = [line["variant"] for line in lines if line["type"] == "aggregate"]
    assert aggregated == ["full", "baseline"]


def test_eval_is_ablate_of_full(workspace):
    runner = CliRunner()
    common = [workspace["data"], "--vmr", "0.3", "--lar", "0.1", "--reps", "2",
              "--anchors", "8", "--max-iters", "10"]
    paths = {cmd: workspace["root"] / f"same-{cmd}.jsonl"
             for cmd in ("eval", "ablate")}
    evaluated = runner.invoke(main, [
        "eval", *common, "--jsonl", str(paths["eval"]),
    ])
    ablated = runner.invoke(main, [
        "ablate", *common, "--variants", "full", "--jsonl", str(paths["ablate"]),
    ])
    assert evaluated.exit_code == ablated.exit_code == 0, ablated.output
    ablation = json.loads(ablated.output)
    full = ablation.pop("variants")["full"]
    assert json.loads(evaluated.output) == {**ablation, **full}
    assert paths["eval"].read_text() == paths["ablate"].read_text()


def test_ablate_rejects_unknown_variant(workspace):
    runner = CliRunner()
    result = runner.invoke(main, [
        "ablate", workspace["data"], "--vmr", "0.3", "--lar", "0.1",
        "--variants", "full,nope",
    ])
    assert result.exit_code != 0
    assert "unknown variant" in result.output
    assert "known: baseline, full, wo_alpha, wo_ti, wo_tv" in result.output


def test_ablate_rejects_a_variant_list_naming_none(workspace):
    result = CliRunner().invoke(main, [
        "ablate", workspace["data"], "--vmr", "0.3", "--lar", "0.1",
        "--variants", ",",
    ])
    assert result.exit_code == 2, result.output
    assert "',' names no variant" in result.output


@pytest.mark.parametrize("command", ["eval", "ablate"])
def test_zero_repetitions_rejected(workspace, command):
    result = CliRunner().invoke(main, [
        command, workspace["data"], "--vmr", "0.3", "--lar", "0.1",
        "--reps", "0",
    ])
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--reps'" in result.output


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which strict JSON lacks."""
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("command, extra, failing", [
    ("eval", [], ["full"]),
    ("ablate", ["--variants", "full,wo_alpha"], ["full", "wo_alpha"]),
])
def test_variant_without_successful_rep_exits_nonzero(
    workspace, command, extra, failing
):
    jsonl_path = workspace["root"] / f"failed-{command}.jsonl"
    # a zero label weight fails every repetition's label solve
    result = CliRunner().invoke(main, [
        command, workspace["data"], "--vmr", "0.3", "--lar", "0.1",
        "--reps", "1", "--anchors", "8", "--b-labeled", "0",
        "--jsonl", str(jsonl_path), *extra,
    ])
    assert result.exit_code == 1, result.output
    message = "no successful repetition for variant(s): " + ", ".join(failing)
    assert message in result.stderr
    # the report is still printed, with null aggregates
    report = strict_json(result.stdout)
    blocks = report["variants"] if command == "ablate" else {"full": report}
    for name in failing:
        assert blocks[name]["failed_reps"] == 1
        for agg in blocks[name]["aggregate"].values():
            assert agg == {"mean": None, "std": None}
    lines = [strict_json(line) for line in jsonl_path.read_text().splitlines()]
    aggregated = [line["variant"] for line in lines if line["type"] == "aggregate"]
    assert aggregated == failing


def test_solver_option_defaults_match_solver_config():
    params = _solver_options(lambda **kwargs: None).__click_params__
    fields = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
    shared = {p.name: p.default for p in params if p.name in fields}
    assert set(shared) == {
        "lam", "beta", "rho", "n_anchors", "k_neighbors", "b_labeled",
        "tol", "max_outer_iters", "seed",
    }
    for name, default in shared.items():
        assert default == fields[name], name


def test_train_rejects_mask_drawn_for_another_container(workspace):
    runner = CliRunner()
    small = str(workspace["root"] / "small.npz")
    small_mask = str(workspace["root"] / "small_mask.json")
    for args in (
        ["synth", small, "--seed", "3", "--n-per-class", "30"],
        ["mask", small, small_mask, "--vmr", "0.3", "--lar", "0.1"],
    ):
        assert runner.invoke(main, args).exit_code == 0
    result = runner.invoke(main, [
        "train", workspace["data"], small_mask, "--anchors", "8",
    ])
    assert result.exit_code == 2, result.output
    assert "mask covers 90 samples, the container has 120" in result.output


# each edit of the workspace mask (or of its container's labels) and the
# message it is refused with; {first} is the first labeled sample
_MASK_FAULTS = {
    "absent view": "sample 4 is missing from view 2",
    "labeled index 500": "labeled index 500 is outside 0..119",
    "missing from both views": "sample 4 is missing from every view",
    "unknown label": "labeled sample {first} has label -1, outside 0..2",
    "labeled list doubled": "labeled index {lowest} is listed more than once",
}


@pytest.mark.parametrize("case", list(_MASK_FAULTS))
@pytest.mark.parametrize("command", ["train"])
def test_mask_not_fitting_the_container_is_refused(workspace, command, case):
    root = workspace["root"]
    data = workspace["data"]
    with open(workspace["mask"]) as fh:
        payload = json.load(fh)
    first = payload["labeled"][0]
    if case == "absent view":
        payload["missing"][4] = [2]
    elif case == "labeled index 500":
        payload["labeled"].append(500)
    elif case == "missing from both views":
        payload["missing"][4] = [0, 1]
    elif case == "labeled list doubled":
        payload["labeled"] *= 2
    else:
        toy = load_container(data)
        labels = toy.labels.copy()
        labels[first] = -1
        data = str(root / "unknown_first_label.npz")
        save_dataset(DatasetContainer(toy.views, labels, toy.c, toy.name), data)
    bad_mask = str(root / "bad_fit_mask.json")
    with open(bad_mask, "w") as fh:
        json.dump(payload, fh)
    result = CliRunner().invoke(main, [command, data, bad_mask, "--anchors", "8"])
    assert result.exit_code == 2, result.output
    expected = _MASK_FAULTS[case].format(first=first, lowest=min(payload["labeled"]))
    assert f"Invalid value for MASK_PATH: {expected}" in result.output


def test_train_reports_a_rejected_solver_setting(workspace):
    result = CliRunner().invoke(main, [
        "train", workspace["data"], workspace["mask"], "--anchors", "8",
        "--b-labeled", "0",
    ])
    assert result.exit_code == 1
    assert "Error: b_labeled must be positive, got 0.0" in result.output
    # click's own exit, not an escaped ValueError
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("option, value, message", [
    pytest.param(option, value, message, id=f"{option}-{name}")
    for option, value, message, name in [
        ("--rho", "-1", "rho must be nonnegative, got -1.0", "rho"),
        ("--lambda", "-1", "lam must be nonnegative, got -1.0", "lam"),
        ("--lambda", "inf", "lam must be finite, got inf", "inf"),
        ("--beta-lambda", "nan", "beta must be finite and positive, got nan",
         "nan"),
        ("--beta-lambda", "inf", "beta must be finite and positive, got inf",
         "inf"),
        ("--b-labeled", "inf", "b_labeled must be finite, got inf", "inf"),
        ("--tol", "nan", "tol must be nonnegative, got nan", "nan"),
        ("--tol", "-1", "tol must be nonnegative, got -1.0", "negative"),
    ]
])
def test_train_refuses_a_negative_penalty(workspace, option, value, message):
    # a negative rho used to fail at the first shrinkage, naming its
    # threshold; a negative lambda used to exit 0 with a solve that rewards
    # disagreement between the views; an infinite lambda or b_labeled or a
    # NaN beta failed in prox_rows on non-finite entries, and an infinite
    # beta exited 0 with diagnostics records whose h was NaN; a NaN or
    # negative tol ran every iteration and reported converged: false
    result = CliRunner().invoke(main, [
        "train", workspace["data"], workspace["mask"], "--anchors", "8",
        option, value,
    ])
    assert result.exit_code == 1
    assert f"Error: {message}" in result.output


@pytest.mark.parametrize("command, args, hint", [
    ("synth", ["{out}"], "'OUT'"),
    ("mask", ["{data}", "{out}", "--vmr", "0.3", "--lar", "0.1"], "'OUT'"),
    ("train", ["{data}", "{mask}", "--out", "{out}"], "'--out'"),
    ("train", ["{data}", "{mask}", "--predictions", "{out}"], "'--predictions'"),
    ("train", ["{data}", "{mask}", "--diagnostics", "{out}"], "'--diagnostics'"),
    ("eval", ["{data}", "--vmr", "0.3", "--lar", "0.1", "--jsonl", "{out}"],
     "'--jsonl'"),
    ("eval", ["{data}", "--vmr", "0.3", "--lar", "0.1", "--out", "{out}"],
     "'--out'"),
], ids=["synth", "mask", "train-out", "train-predictions", "train-diagnostics",
        "eval-jsonl", "eval-out"])
def test_output_in_a_missing_directory_is_refused_before_any_work(
    workspace, command, args, hint
):
    # each used to run to the end and then fail with a FileNotFoundError
    root = workspace["root"]
    out = root / "nodir" / "out.json"
    args = [a.format(out=out, data=workspace["data"], mask=workspace["mask"])
            for a in args]
    result = CliRunner().invoke(main, [command, *args])
    assert result.exit_code == 2, result.output
    assert (f"Invalid value for {hint}: directory {out.parent} does not exist"
            in result.output)
    assert not out.parent.exists()


@pytest.mark.parametrize("command, kind, message", [
    ("eval", "binary", "truncated header"),
    ("mask", "binary", "truncated header"),
    ("eval", "csv", "unexpected view file"),
    # used to escape as a FileNotFoundError traceback
    ("mask", "unlabeled_csv", "no labels.csv under"),
])
def test_malformed_container_is_a_bad_parameter(workspace, command, kind, message):
    root = workspace["root"]
    if kind == "binary":
        bad = root / "bad.mvds"
        bad.write_bytes(b"MVDS")
    else:
        bad = root / kind
        toy = load_container(workspace["data"])
        save_dataset_csv(DatasetContainer([toy.views[0]] * 3, toy.labels, toy.c), bad)
        (bad / ("view1.csv" if kind == "csv" else "labels.csv")).unlink()
    args = [command, str(bad)]
    if command == "mask":
        args.append(str(root / "unused_mask.json"))
    result = CliRunner().invoke(main, [*args, "--vmr", "0.3", "--lar", "0.1"])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for CONTAINER_PATH: {message}" in result.output


_MASK_HEAD = '{"seed": 0, "vmr": 0.1, "lar": 0.1, '


@pytest.mark.parametrize("text, message", [
    ('{"seed": 0}', "mask file has no 'vmr' field"),
    ("not json", "mask file is not JSON"),
    *(pytest.param(_MASK_HEAD + f'"missing": {missing}, "labeled": {labeled}}}',
                   f"malformed mask file: {field} lists {shown}, not an integer",
                   id=f"{field}-{shown}")
      for missing, labeled, field, shown in [
          ('[["x"]]', "[0]", "missing", "'x'"),
          ("[[0.5]]", "[0]", "missing", "0.5"),
          ("[[true]]", "[0]", "missing", "True"),
          ("[[]]", "[0.5]", "labeled", "0.5"),
          ("[[]]", '["3"]', "labeled", "'3'"),
          ("[[]]", "[[1]]", "labeled", "[1]"),
          ("[[]]", "[false]", "labeled", "False"),
      ]),
])
def test_malformed_mask_is_a_bad_parameter(workspace, text, message):
    bad = workspace["root"] / "bad_mask.json"
    bad.write_text(text)
    result = CliRunner().invoke(main, ["train", workspace["data"], str(bad)])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for MASK_PATH: {message}" in result.output


@pytest.mark.parametrize("command, option, value", [
    ("mask", "--vmr", "1.5"),
    ("eval", "--vmr", "1.5"),
    ("ablate", "--vmr", "1.5"),
    ("eval", "--vmr", "-0.1"),
    ("mask", "--lar", "0"),
    ("eval", "--lar", "1.5"),
    ("mask", "--seed", "-1"),
])
def test_mask_setting_outside_its_range_is_refused(
    workspace, command, option, value
):
    args = [command, workspace["data"]]
    if command == "mask":
        args.append(str(workspace["root"] / "unused_mask.json"))
    ratios = {"--vmr": "0.3", "--lar": "0.1", option: value}
    for name, ratio in ratios.items():
        args += [name, ratio]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}'" in result.output


@pytest.mark.parametrize("option", ["--n-per-class", "--views", "--classes"])
def test_synth_refuses_a_count_below_one(workspace, option):
    out = str(workspace["root"] / "empty.npz")
    result = CliRunner().invoke(main, ["synth", out, option, "0"])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}'" in result.output


@pytest.mark.parametrize("option, value", [
    ("--vacuum", "3"), ("--vacuum", "-0.5"), ("--bridge", "1.5"), ("--noise", "-1"),
    # an infinite noise would write a container of infinite features
    ("--noise", "inf"),
])
def test_synth_refuses_a_setting_outside_its_range(workspace, option, value):
    out = workspace["root"] / "refused.mvds"
    result = CliRunner().invoke(main, ["synth", str(out), option, value])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}'" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["mask", "eval"])
def test_missing_views_of_a_one_view_container_are_refused(workspace, command):
    runner = CliRunner()
    one = str(workspace["root"] / "one_view.npz")
    result = runner.invoke(main, [
        "synth", one, "--views", "1", "--n-per-class", "10",
    ])
    assert result.exit_code == 0, result.output
    args = [command, one]
    if command == "mask":
        args.append(str(workspace["root"] / "unused_mask.json"))
    result = runner.invoke(main, [*args, "--vmr", "0.5", "--lar", "0.1"])
    assert result.exit_code == 2, result.output
    assert ("Invalid value for CONTAINER_PATH: cannot generate view masks "
            "with a single view") in result.output
