import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from agfti.harness import (
    ContainerFormatError,
    DatasetContainer,
    MaskSpec,
    baseline_label_propagation,
    confusion_matrix,
    generate_masks,
    load_container,
    load_dataset,
    load_dataset_csv,
    load_mask,
    metrics,
    missing_per_view,
    rep_seed,
    run_experiment,
    save_dataset,
    save_dataset_csv,
    save_mask,
    synth_scp,
)
from agfti.graphs import ZeroDegreeWarning
from agfti.harness import experiment
from agfti.harness.metrics import METRIC_KEYS
from agfti.solver import SolverConfig, admm_solve, anchor_graphs, predict


def random_container(rng, n=12, dims=(3, 5), c=3, name="toy"):
    views = [rng.standard_normal((n, d)) for d in dims]
    labels = rng.integers(0, c, size=n).astype(np.int32)
    labels[:c] = np.arange(c)  # guarantee coverage
    return DatasetContainer(views=views, labels=labels, c=c, name=name)


class TestContainerIO:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        cont = random_container(rng)
        path = tmp_path / "toy.mvds"
        save_dataset(cont, path)
        back = load_dataset(path)
        assert back.c == cont.c
        assert np.array_equal(back.labels, cont.labels)
        assert len(back.views) == len(cont.views)
        for a, b in zip(back.views, cont.views):
            assert a.dtype == np.float64
            assert np.array_equal(a, b)

    def test_truncated_file_names_lengths(self, tmp_path):
        rng = np.random.default_rng(1)
        cont = random_container(rng)
        path = tmp_path / "toy.mvds"
        save_dataset(cont, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 17])
        with pytest.raises(ContainerFormatError) as err:
            load_dataset(path)
        msg = str(err.value)
        assert str(len(raw)) in msg
        assert str(len(raw) - 17) in msg

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mvds"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ContainerFormatError, match="offset 0"):
            load_dataset(path)

    def test_bad_version(self, tmp_path):
        rng = np.random.default_rng(2)
        cont = random_container(rng)
        path = tmp_path / "toy.mvds"
        save_dataset(cont, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ContainerFormatError, match="version"):
            load_dataset(path)

    def test_label_out_of_range_in_file(self, tmp_path):
        rng = np.random.default_rng(3)
        cont = random_container(rng)
        path = tmp_path / "toy.mvds"
        save_dataset(cont, path)
        raw = bytearray(path.read_bytes())
        labels_off = 20 + 4 * len(cont.views)
        raw[labels_off : labels_off + 4] = (250).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ContainerFormatError, match="label"):
            load_dataset(path)

    def test_constructor_validates(self):
        views = [np.zeros((4, 2))]
        with pytest.raises(ValueError):
            DatasetContainer(views=views, labels=np.array([0, 1, 2, 5]), c=3)
        with pytest.raises(ValueError):
            DatasetContainer(
                views=[np.zeros((4, 2)), np.zeros((5, 2))],
                labels=np.zeros(4, dtype=np.int32),
                c=1,
            )

    def test_csv_matches_binary(self, tmp_path):
        rng = np.random.default_rng(4)
        cont = random_container(rng, dims=(3, 4, 2))
        bin_path = tmp_path / "toy.mvds"
        csv_dir = tmp_path / "csv"
        save_dataset(cont, bin_path)
        save_dataset_csv(cont, csv_dir)
        from_bin = load_dataset(bin_path)
        from_csv = load_dataset_csv(csv_dir)
        assert from_csv.c == from_bin.c
        assert np.array_equal(from_bin.labels, from_csv.labels)
        for a, b in zip(from_bin.views, from_csv.views):
            assert np.array_equal(a, b)

    def test_csv_keeps_the_class_count_of_an_unlabeled_class(self, tmp_path):
        rng = np.random.default_rng(6)
        views = [rng.standard_normal((6, 2))]
        labels = np.array([0, 1, 0, 1, -1, -1], dtype=np.int32)
        with pytest.warns(UserWarning, match=r"classes \[2\]"):
            cont = DatasetContainer(views=views, labels=labels, c=3)
            save_dataset_csv(cont, tmp_path / "csv")
            back = load_dataset_csv(tmp_path / "csv")
        assert back.c == 3
        assert back.name == "csv"
        assert np.array_equal(back.labels, labels)
        # the class count is a comment line, which np.loadtxt skips
        text = (tmp_path / "csv" / "labels.csv").read_text()
        assert text.splitlines()[0] == "# c=3"
        assert np.array_equal(
            np.loadtxt(tmp_path / "csv" / "labels.csv", dtype=np.int64), labels
        )

    def test_csv_without_a_class_count_line_infers_it(self, tmp_path):
        rng = np.random.default_rng(7)
        cont = random_container(rng, dims=(2,), c=4)
        save_dataset_csv(cont, tmp_path)
        np.savetxt(tmp_path / "labels.csv", cont.labels, fmt="%d")
        back = load_dataset_csv(tmp_path)
        assert back.c == int(cont.labels.max()) + 1 == 4
        assert np.array_equal(back.labels, cont.labels)

    @pytest.mark.parametrize("gone, stray", [
        ("view1.csv", "view2.csv"),
        (None, "view_x.csv"),
    ])
    def test_csv_view_files_must_be_numbered_from_zero(
        self, tmp_path, gone, stray
    ):
        rng = np.random.default_rng(8)
        cont = random_container(rng, dims=(2, 3, 2) if gone else (2, 3))
        save_dataset_csv(cont, tmp_path)
        if gone:
            (tmp_path / gone).unlink()
        else:
            (tmp_path / stray).write_text("1,2\n")
        message = f"unexpected view file .*{stray}"
        with pytest.raises(ContainerFormatError, match=message):
            load_dataset_csv(tmp_path)

    def test_load_container_reads_file_and_directory(self, tmp_path):
        rng = np.random.default_rng(5)
        cont = random_container(rng, dims=(2, 3))
        bin_path = tmp_path / "toy.mvds"
        csv_dir = tmp_path / "csv"
        save_dataset(cont, bin_path)
        save_dataset_csv(cont, csv_dir)
        from_bin = load_container(bin_path)
        from_csv = load_container(str(csv_dir))
        assert np.array_equal(from_bin.labels, cont.labels)
        assert np.array_equal(from_csv.labels, cont.labels)
        assert len(from_bin.views) == len(from_csv.views) == cont.V
        for a, b, ref in zip(from_bin.views, from_csv.views, cont.views):
            assert np.array_equal(a, ref)
            assert np.array_equal(b, ref)


class TestMasks:
    def _container(self, rng, n=100, V=3, c=4):
        return random_container(rng, n=n, dims=(2,) * V, c=c)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MaskSpec(vmr=1.0, lar=0.1, seed=0)
        with pytest.raises(ValueError):
            MaskSpec(vmr=-0.1, lar=0.1, seed=0)
        with pytest.raises(ValueError):
            MaskSpec(vmr=0.5, lar=0.0, seed=0)
        with pytest.raises(ValueError):
            MaskSpec(vmr=0.5, lar=1.5, seed=0)

    def test_vmr_zero_no_missing(self):
        rng = np.random.default_rng(5)
        cont = self._container(rng)
        missing, labeled = generate_masks(cont, MaskSpec(0.0, 0.1, seed=1))
        assert all(len(views) == 0 for views in missing)
        assert labeled.size > 0

    def test_exact_counts_over_seeds(self):
        rng = np.random.default_rng(6)
        cont = self._container(rng, n=100, V=3)
        for seed in range(100):
            missing, _ = generate_masks(cont, MaskSpec(0.3, 0.1, seed=seed))
            incomplete = [views for views in missing if views]
            assert len(incomplete) == 30
            for views in incomplete:
                assert 1 <= len(views) <= 2
                assert len(set(views)) == len(views)

    def test_labeled_counts_per_class(self):
        rng = np.random.default_rng(7)
        cont = self._container(rng, n=80, c=4)
        _, labeled = generate_masks(cont, MaskSpec(0.2, 0.07, seed=3))
        for j in range(4):
            class_idx = np.where(cont.labels == j)[0]
            expect = int(np.ceil(0.07 * class_idx.size))
            got = np.intersect1d(labeled, class_idx).size
            assert got == expect
        assert np.array_equal(labeled, np.unique(labeled))

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        cont = self._container(rng)
        m1, l1 = generate_masks(cont, MaskSpec(0.4, 0.1, seed=9))
        m2, l2 = generate_masks(cont, MaskSpec(0.4, 0.1, seed=9))
        assert m1 == m2
        assert np.array_equal(l1, l2)
        m3, _ = generate_masks(cont, MaskSpec(0.4, 0.1, seed=10))
        assert m1 != m3

    def test_single_view_with_vmr_errors(self):
        rng = np.random.default_rng(9)
        cont = random_container(rng, n=20, dims=(3,), c=2)
        with pytest.raises(ValueError):
            generate_masks(cont, MaskSpec(0.5, 0.2, seed=0))

    def test_unlabelable_class_errors(self):
        views = [np.random.default_rng(10).standard_normal((6, 2))]
        labels = np.array([0, 0, 0, 2, 2, 2], dtype=np.int32)
        with pytest.warns(UserWarning):
            cont = DatasetContainer(views=views, labels=labels, c=3)
        with pytest.raises(ValueError, match="class 1"):
            generate_masks(cont, MaskSpec(0.0, 0.5, seed=0))

    def test_mask_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        cont = self._container(rng)
        spec = MaskSpec(0.3, 0.1, seed=12)
        missing, labeled = generate_masks(cont, spec)
        path = tmp_path / "mask.json"
        save_mask(path, spec, missing, labeled)
        spec2, missing2, labeled2 = load_mask(path)
        assert spec2 == spec
        assert missing2 == missing
        assert np.array_equal(labeled2, labeled)

    @pytest.mark.parametrize("text, message", [
        ("{\"seed\": 0}", "mask file has no 'vmr' field"),
        ("not json", "mask file is not JSON"),
        ("[0, 1]", "malformed mask file"),
        ('{"seed": 0, "vmr": 0.1, "lar": 0.1, "missing": 5, "labeled": []}',
         "malformed mask file"),
        # a view or index that is not a JSON integer: not cast, not compared
        *(pytest.param(f'{{"seed": 0, "vmr": 0.1, "lar": 0.1, "missing": {missing}, '
                       f'"labeled": {labeled}}}', f"malformed mask file: {field} lists",
                       id=f"{field}-{kind}")
          for missing, labeled, field, kind in [
              ('[["x"]]', "[0]", "missing", "string"),
              ("[[0.5]]", "[0]", "missing", "fraction"),
              ("[[true]]", "[0]", "missing", "boolean"),
              ("[[1, [0]]]", "[0]", "missing", "list"),
              ("[[]]", "[0.5]", "labeled", "fraction"),
              ("[[]]", '["3"]', "labeled", "string"),
              ("[[]]", "[[1]]", "labeled", "list"),
              ("[[]]", "[true]", "labeled", "boolean"),
          ]),
    ])
    def test_malformed_mask_file_is_a_value_error(self, tmp_path, text, message):
        path = tmp_path / "mask.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_mask(path)

    def test_missing_per_view(self):
        missing = [[0, 2], [], [1], [0]]
        per_view = missing_per_view(missing, V=3)
        assert np.array_equal(per_view[0], [0, 3])
        assert np.array_equal(per_view[1], [2])
        assert np.array_equal(per_view[2], [0])

    @pytest.mark.parametrize("view", [-1, 3])
    def test_missing_per_view_rejects_a_view_outside_range(self, view):
        missing = [[0], [], [1, view]]
        message = (f"sample 2 is missing from view {view}, the container "
                   "has views 0..2")
        with pytest.raises(ValueError, match=message):
            missing_per_view(missing, V=3)


class TestMetrics:
    def test_perfect(self):
        truth = np.array([0, 1, 2, 1, 0])
        out = metrics(truth, truth, 3)
        assert tuple(out) == METRIC_KEYS
        for key in ("acc", "prec_macro", "rec_macro", "f1_macro"):
            assert out[key] == pytest.approx(1.0)

    def test_binary_all_wrong(self):
        truth = np.array([0, 0, 1, 1])
        pred = 1 - truth
        out = metrics(pred, truth, 2)
        assert out["acc"] == 0.0
        assert out["prec_macro"] == 0.0
        assert out["f1_macro"] == 0.0

    def test_hand_worked_confusion_matrix(self):
        truth = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2])
        pred = np.array([0, 0, 1, 1, 1, 0, 2, 2, 2])
        out = metrics(pred, truth, 3)
        assert out["acc"] == pytest.approx(7 / 9, abs=1e-15)
        assert out["prec_macro"] == pytest.approx(7 / 9, abs=1e-15)
        assert out["rec_macro"] == pytest.approx(29 / 36, abs=1e-15)
        assert out["f1_macro"] == pytest.approx(244 / 315, abs=1e-15)

    def test_absent_class_contributes_zero_with_warning(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.array([0, 0, 1, 1])
        with pytest.warns(UserWarning):
            out = metrics(pred, truth, 3)
        assert out["prec_macro"] == pytest.approx(2 / 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            metrics(np.zeros(3, dtype=int), np.zeros(4, dtype=int), 2)

    @pytest.mark.parametrize("pred, truth, message", [
        ([0, 1, 2], [0, -1, 2], "truth label -1 is outside 0..2"),
        ([0, 3, 2], [0, 1, 2], "prediction label 3 is outside 0..2"),
    ], ids=["truth", "prediction"])
    def test_label_outside_the_classes_is_refused(self, pred, truth, message):
        with pytest.raises(ValueError, match=message):
            confusion_matrix(np.array(pred), np.array(truth), 3)


class TestSynthScp:
    def test_shape_contract(self):
        cont = synth_scp(seed=0, n_per_class=100, V=2, c=2)
        assert cont.n == 200
        assert cont.V == 2
        assert cont.c == 2
        counts = np.bincount(cont.labels, minlength=2)
        assert np.array_equal(counts, [100, 100])

    def test_named_by_its_seed(self):
        assert synth_scp(3, n_per_class=5).name == "synth_scp_seed3"

    def test_deterministic(self):
        a = synth_scp(seed=7, n_per_class=40, V=2, c=3)
        b = synth_scp(seed=7, n_per_class=40, V=2, c=3)
        for Xa, Xb in zip(a.views, b.views):
            assert np.array_equal(Xa, Xb)
        c_ = synth_scp(seed=8, n_per_class=40, V=2, c=3)
        assert not np.array_equal(a.views[0], c_.views[0])

    def test_class_sizes_override(self):
        cont = synth_scp(seed=0, n_per_class=0, V=2, c=3, class_sizes=(134, 133, 133))
        assert cont.n == 400
        assert np.array_equal(np.bincount(cont.labels), [134, 133, 133])

    def test_vacuum_thins_the_manifold_middle(self):
        dense = synth_scp(seed=3, n_per_class=200, V=1, c=1, vacuum_width=0.0)
        gapped = synth_scp(seed=3, n_per_class=200, V=1, c=1, vacuum_width=0.6)

        def middle_occupancy(cont):
            X = cont.views[0]
            center = X.mean(axis=0)
            d = X - center
            u, _, _ = np.linalg.svd(d.T @ d)
            proj = d @ u[:, 0]
            half = (proj.max() - proj.min()) / 2
            return float(np.mean(np.abs(proj) < 0.25 * half))

        assert middle_occupancy(dense) > 0.2
        assert middle_occupancy(gapped) < 0.12
        assert middle_occupancy(gapped) > 0.0  # bridges survive

    @pytest.mark.parametrize("name, value", [
        ("vacuum_width", 1.5), ("vacuum_width", -0.1), ("vacuum_width", np.nan),
        ("bridge_frac", 1.01), ("bridge_frac", -0.5),
        ("noise", -1.0), ("noise", np.nan), ("noise", np.inf),
        ("c", 0), ("c", -1),
    ])
    def test_rejects_a_setting_outside_its_range(self, name, value):
        # a vacuum_width of 1.5 would draw solid samples outside [0, 1]
        with pytest.raises(ValueError, match=f"^{name} must"):
            synth_scp(seed=0, n_per_class=5, **{name: value})


class TestExperiment:
    def _tiny(self):
        cont = synth_scp(seed=0, n_per_class=30, V=2, c=3)
        config = SolverConfig(n_anchors=8, k_neighbors=3, max_outer_iters=15)
        return cont, config

    def test_repeatable_single_rep(self):
        cont, config = self._tiny()
        r1 = run_experiment(cont, vmr=0.3, lar=0.1, n_reps=1, solver_config=config)
        r2 = run_experiment(cont, vmr=0.3, lar=0.1, n_reps=1, solver_config=config)
        m1 = r1["variants"]["full"]["records"][0]
        m2 = r2["variants"]["full"]["records"][0]
        assert m1["metrics"] == m2["metrics"]

    def test_schema_and_jsonl(self, tmp_path):
        cont, config = self._tiny()
        path = tmp_path / "results.jsonl"
        out = run_experiment(
            cont,
            vmr=0.3,
            lar=0.1,
            n_reps=2,
            solver_config=config,
            variants={"full": {}, "wo_ti": {"skip_imputation": True}},
            jsonl_path=path,
        )
        assert set(out["variants"]) == {"full", "wo_ti"}
        for block in out["variants"].values():
            assert len(block["records"]) == 2
            agg = block["aggregate"]
            for key in METRIC_KEYS:
                assert set(agg[key]) == {"mean", "std"}
            assert block["failed_reps"] == 0
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == (2 + 1) * 2
        kinds = {line["type"] for line in lines}
        assert kinds == {"rep", "aggregate"}
        # each line is a record or an aggregate of the returned blocks
        for line in lines:
            scores = line["metrics"] if line["type"] == "rep" else line["aggregate"]
            assert tuple(scores) == METRIC_KEYS
        assert out["dataset"] == "synth_scp_seed0"

    def test_jsonl_appends_across_calls(self, tmp_path):
        cont, config = self._tiny()
        path = tmp_path / "grid.jsonl"
        for vmr in (0.0, 0.3):
            run_experiment(
                cont, vmr=vmr, lar=0.1, n_reps=1, solver_config=config,
                jsonl_path=path,
            )
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [(line["type"], line["vmr"]) for line in lines] == [
            ("rep", 0.0),
            ("aggregate", 0.0),
            ("rep", 0.3),
            ("aggregate", 0.3),
        ]

    def test_failed_shrinkage_svd_is_recorded_per_rep(self, monkeypatch):
        cont = synth_scp(seed=0, n_per_class=20, V=2, c=3)
        config = SolverConfig(n_anchors=8, k_neighbors=3, rho=1e-4)
        eigh = np.linalg.eigh

        def eigh_failing_on_complex(a, *args, **kwargs):
            # only tubal shrinkage factorises complex (spectrum) slices, by
            # the eigendecomposition of their Gram matrices
            if np.iscomplexobj(a):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh_failing_on_complex)
        out = run_experiment(cont, vmr=0.3, lar=0.1, n_reps=1, solver_config=config)
        block = out["variants"]["full"]
        assert block["failed_reps"] == 1
        assert "frequency slice" in block["records"][0]["error"]
        assert block["aggregate"]["acc"] == {"mean": None, "std": None}

    def test_each_repetition_solves_on_its_drawn_masks(self, monkeypatch):
        cont, config = self._tiny()
        solved = []

        def record_masks(views, y, labeled_idx, missing, config, n_classes, graphs):
            solved.append((config.seed, missing, labeled_idx, graphs))
            raise ValueError("not solved")

        monkeypatch.setattr(experiment, "admm_solve", record_masks)
        run_experiment(cont, vmr=0.3, lar=0.1, n_reps=2, solver_config=config,
                       base_seed=4)
        assert len(solved) == 2
        for r, (seed, per_view, labeled, graphs) in enumerate(solved):
            drawn = experiment.draw_repetition(cont, 0.3, 0.1, 4, r)
            assert seed == drawn[0] == rep_seed(4, r)
            for got, want in zip(per_view, drawn[1], strict=True):
                assert np.array_equal(got, want)
            assert np.array_equal(labeled, drawn[2])
            assert np.array_equal(graphs, anchor_graphs(
                cont.views, drawn[1], config.n_anchors, config.k_neighbors, seed))

    def test_columns_on_shared_graphs_match_independent_calls(self, monkeypatch):
        cont, config = self._tiny()
        kept = []

        def keeping(*args, **kwargs):
            kept.append(admm_solve(*args, **kwargs))
            return kept[-1]

        monkeypatch.setattr(experiment, "admm_solve", keeping)
        variants = {**experiment.STANDARD_VARIANTS, experiment.BASELINE: {}}
        out = run_experiment(cont, vmr=0.3, lar=0.1, n_reps=2, solver_config=config,
                             variants=variants, base_seed=3)
        shared = iter(kept)
        for r in range(2):
            seed, per_view, labeled = experiment.draw_repetition(cont, 0.3, 0.1, 3, r)
            for name, flags in variants.items():
                if name == experiment.BASELINE:
                    pred = baseline_label_propagation(
                        cont.views, cont.labels, labeled, per_view,
                        m=config.n_anchors, k=config.k_neighbors, seed=seed,
                        n_classes=cont.c,
                    )
                    flags = dict.fromkeys(("converged", "n_iter", "degenerate"))
                else:
                    result = admm_solve(cont.views, cont.labels, labeled, per_view,
                                        replace(config, seed=seed, **flags),
                                        n_classes=cont.c)
                    assert np.array_equal(next(shared).F, result.F), (name, r)
                    pred = predict(result.F)
                    flags = {"converged": result.converged, "n_iter": result.n_iter,
                             "degenerate": result.degenerate}
                record = out["variants"][name]["records"][r]
                assert record["error"] is None
                assert record["metrics"] == experiment.score(cont, pred, labeled)
                assert {key: record[key] for key in flags} == flags, (name, r)
        assert next(shared, None) is None

    def test_graphs_are_built_once_per_anchor_setting(self, monkeypatch):
        cont, config = self._tiny()
        built = []

        def counting(views, missing, m, k, seed):
            built.append((m, k, seed))
            return anchor_graphs(views, missing, m, k, seed)

        monkeypatch.setattr(experiment, "anchor_graphs", counting)
        variants = {**experiment.STANDARD_VARIANTS, experiment.BASELINE: {},
                    "m4": {"n_anchors": 4}}
        out = run_experiment(cont, vmr=0.3, lar=0.1, n_reps=2, solver_config=config,
                             variants=variants)
        seeds = [rep_seed(0, r) for r in range(2)]
        assert built == [(m, 3, s) for s in seeds for m in (8, 4)]
        # the column with its own anchor count solves on its own stack
        seed, per_view, labeled = experiment.draw_repetition(cont, 0.3, 0.1, 0, 1)
        result = admm_solve(cont.views, cont.labels, labeled, per_view,
                            replace(config, seed=seed, n_anchors=4), n_classes=cont.c)
        record = out["variants"]["m4"]["records"][1]
        assert record["metrics"] == experiment.score(cont, predict(result.F), labeled)
        assert record["n_iter"] == result.n_iter

    def test_a_failed_shared_build_is_every_columns_error(self):
        # 64 anchors exceed the samples left in view 0 at VMR 0.7
        cont, config = self._tiny()
        config = replace(config, n_anchors=64)
        variants = {**experiment.STANDARD_VARIANTS, experiment.BASELINE: {}}
        out = run_experiment(cont, vmr=0.7, lar=0.1, n_reps=2, solver_config=config,
                             variants=variants)
        for r in range(2):
            seed, per_view, labeled = experiment.draw_repetition(cont, 0.7, 0.1, 0, r)
            with pytest.raises(ValueError) as solver_error:
                admm_solve(cont.views, cont.labels, labeled, per_view,
                           replace(config, seed=seed), n_classes=cont.c)
            with pytest.raises(ValueError) as baseline_error:
                baseline_label_propagation(cont.views, cont.labels, labeled, per_view,
                                           m=64, k=config.k_neighbors, seed=seed,
                                           n_classes=cont.c)
            expected = f"ValueError: {solver_error.value}"
            assert expected == f"ValueError: {baseline_error.value}"
            assert expected.startswith("ValueError: anchor count 64 exceeds sample "
                                       f"count {cont.n - per_view[0].size}")
            for name in variants:
                assert out["variants"][name]["records"][r]["error"] == expected, name
        for block in out["variants"].values():
            assert block["failed_reps"] == 2

    def test_unknown_labels_are_not_scored(self):
        base = synth_scp(seed=0, n_per_class=40, V=2, c=3)
        labels = base.labels.copy()
        labels[::4] = -1  # unknown
        cont = DatasetContainer(base.views, labels, base.c, base.name)
        config = SolverConfig(n_anchors=8, k_neighbors=3, max_outer_iters=15)
        out = run_experiment(cont, vmr=0.3, lar=0.1, n_reps=1, solver_config=config)
        record = out["variants"]["full"]["records"][0]

        seed = rep_seed(0, 0)
        missing, labeled = generate_masks(cont, MaskSpec(0.3, 0.1, seed))
        result = admm_solve(
            cont.views, cont.labels.astype(np.int64), labeled,
            missing_per_view(missing, cont.V), replace(config, seed=seed),
            n_classes=cont.c,
        )
        scored = np.setdiff1d(np.flatnonzero(cont.labels >= 0), labeled)
        assert scored.size < cont.n - labeled.size
        expected = metrics(predict(result.F)[scored], cont.labels[scored], cont.c)
        assert record["metrics"] == expected

    def test_variant_flags_compose(self):
        cont, config = self._tiny()
        out = run_experiment(
            cont,
            vmr=0.3,
            lar=0.1,
            n_reps=1,
            solver_config=config,
            variants={
                "mixed": {"skip_imputation": True, "freeze_weights": True}
            },
        )
        rec = out["variants"]["mixed"]["records"][0]
        assert rec["error"] is None

    def test_baseline_variant_scores_propagation_on_the_drawn_masks(self):
        cont, config = self._tiny()
        out = run_experiment(
            cont, vmr=0.3, lar=0.1, n_reps=2, solver_config=config,
            variants={"full": {}, experiment.BASELINE: {}}, base_seed=4,
        )
        block = out["variants"]["baseline"]
        assert block["failed_reps"] == 0
        for r, record in enumerate(block["records"]):
            seed, per_view, labeled = experiment.draw_repetition(cont, 0.3, 0.1, 4, r)
            pred = baseline_label_propagation(
                cont.views, cont.labels, labeled, per_view,
                m=config.n_anchors, k=config.k_neighbors, seed=seed,
                n_classes=cont.c,
            )
            assert record["metrics"] == experiment.score(cont, pred, labeled)
            assert record["seed"] == seed
            assert record["converged"] is record["n_iter"] is None
            assert record["degenerate"] is None
        # the solves beside it carry their flags
        for record in out["variants"]["full"]["records"]:
            assert record["n_iter"] >= 1
            assert record["degenerate"] in (True, False)

    def test_baseline_variant_records_its_error(self, monkeypatch):
        cont, config = self._tiny()

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("anchor Schur complement is singular")

        monkeypatch.setattr(experiment, "baseline_label_propagation", singular)
        out = run_experiment(cont, vmr=0.3, lar=0.1, n_reps=1, solver_config=config,
                             variants={"baseline": {}})
        block = out["variants"]["baseline"]
        assert block["failed_reps"] == 1
        assert block["records"][0]["error"] == (
            "LinAlgError: anchor Schur complement is singular")

    def test_baseline_label_propagation_validates_as_the_solver(self):
        rng = np.random.default_rng(15)
        cont = random_container(rng, n=30)
        labeled = np.arange(6)
        none = [np.array([], dtype=int)] * 2
        with pytest.raises(ValueError, match="labeled index -1 is outside 0..29"):
            baseline_label_propagation(
                cont.views, cont.labels, np.append(labeled, -1), none, m=4, k=2
            )
        with pytest.raises(ValueError, match="labeled_idx must be a 1-d array "
                                             "of integer indices"):
            baseline_label_propagation(
                cont.views, cont.labels, labeled + 0.5, none, m=4, k=2
            )
        absent = [np.array([7]), np.array([7])]
        with pytest.raises(ValueError, match="sample 7 is missing from every view"):
            baseline_label_propagation(
                cont.views, cont.labels, labeled, absent, m=4, k=2
            )

    def test_baseline_label_propagation_reads_given_graphs(self):
        cont, config = self._tiny()
        seed, per_view, labeled = experiment.draw_repetition(cont, 0.3, 0.1, 0, 0)
        graphs = anchor_graphs(cont.views, per_view, 8, 3, seed)
        before = graphs.copy()
        kwargs = {"m": 8, "k": 3, "seed": seed, "n_classes": cont.c}
        pred = baseline_label_propagation(cont.views, cont.labels, labeled, per_view,
                                          graphs=graphs, **kwargs)
        assert np.array_equal(graphs, before)
        assert np.array_equal(pred, baseline_label_propagation(
            cont.views, cont.labels, labeled, per_view, **kwargs))
        with pytest.raises(ValueError, match=r"graphs has shape \(2, 90, 4\)"):
            baseline_label_propagation(cont.views, cont.labels, labeled, per_view,
                                       graphs=graphs[:, :, :4], **kwargs)

    def test_baseline_reports_zero_degree_anchors_in_one_warning(self):
        cont, _ = self._tiny()
        seed, per_view, labeled = experiment.draw_repetition(cont, 0.3, 0.1, 0, 0)
        graphs = anchor_graphs(cont.views, per_view, 8, 3, seed)
        # anchor 0 of every view loses its edges: two zero-degree anchors of
        # the mean graph
        graphs[:, :, 0] = 0.0
        graphs /= graphs.sum(axis=2, keepdims=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            baseline_label_propagation(cont.views, cont.labels, labeled, per_view,
                                       m=8, k=3, seed=seed, graphs=graphs)
        assert [w.category for w in caught] == [ZeroDegreeWarning]
        assert caught[0].message.anchors == 2
        assert str(caught[0].message).startswith("1 fused graph(s) had")
        assert caught[0].filename == __file__

    def test_baseline_label_propagation_on_easy_data(self):
        rng = np.random.default_rng(14)
        centers = np.array([[8.0, 0.0], [-8.0, 0.0], [0.0, 8.0]])
        X = np.vstack(
            [centers[j] + rng.standard_normal((20, 2)) for j in range(3)]
        )
        y = np.repeat(np.arange(3), 20)
        views = [X, X @ np.array([[0.0, -1.0], [1.0, 0.0]])]
        labeled_idx = np.concatenate(
            [np.where(y == j)[0][:2] for j in range(3)]
        )
        missing = [np.array([], dtype=int), np.array([], dtype=int)]
        pred = baseline_label_propagation(
            views, y, labeled_idx, missing, m=8, k=3, seed=0
        )
        unlabeled = np.setdiff1d(np.arange(60), labeled_idx)
        assert np.mean(pred[unlabeled] == y[unlabeled]) >= 0.9
