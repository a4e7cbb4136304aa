import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def pairs_of(parent, change, name="wall_s"):
    return [
        {"seed": s, "parent": {name: p}, "change": {name: c}}
        for s, (p, c) in enumerate(zip(parent, change), start=1)
    ]


class TestSummarize:
    def test_clear_gain_on_a_lower_is_better_metric(self):
        parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]
        change = [p - 4.0 for p in parent]
        out = bench_pairs.summarize(pairs_of(parent, change), {"wall_s": ("lower", 0.25)})
        s = out["wall_s"]
        # inclusive quartiles of 10.0 .. 14.5 in steps of 0.5
        assert s["parent_q1_median_q3"] == pytest.approx([11.125, 12.25, 13.375])
        assert s["change_q1_median_q3"] == pytest.approx([7.125, 8.25, 9.375])
        assert s["change_better_pairs"] == 10
        assert s["pairs"] == 10
        assert s["median_change_rel"] == pytest.approx(-4.0 / 12.25)
        assert s["parent_iqr_rel"] == pytest.approx(2.25 / 12.25)
        assert s["regression_beyond_bound"] is False
        assert s["gain_rule_met"] is True

    def test_gain_smaller_than_parent_spread_is_not_met(self):
        parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]
        change = [p - 1.0 for p in parent]
        s = bench_pairs.summarize(pairs_of(parent, change), {"wall_s": ("lower", 0.25)})["wall_s"]
        assert s["change_better_pairs"] == 10
        assert s["gain_rule_met"] is False

    def test_eight_wins_of_ten_is_not_met(self):
        parent = [10.0] * 10
        change = [5.0] * 8 + [11.0, 12.0]
        s = bench_pairs.summarize(pairs_of(parent, change), {"wall_s": ("lower", 0.25)})["wall_s"]
        assert s["change_better_pairs"] == 8
        assert s["gain_rule_met"] is False

    def test_higher_is_better_metric_and_its_bound(self):
        parent = [0.9, 0.9, 0.9, 0.9, 0.9]
        change = [0.7, 0.7, 0.7, 0.9, 0.9]
        s = bench_pairs.summarize(pairs_of(parent, change, "acc"), {"acc": ("higher", 0.15)})["acc"]
        assert s["change_better_pairs"] == 0
        assert s["median_change_rel"] == pytest.approx(-0.2 / 0.9)
        assert s["regression_beyond_bound"] is True
        assert s["gain_rule_met"] is False

    def test_ties_count_for_neither_side(self):
        s = bench_pairs.summarize(pairs_of([1.0, 1.0], [1.0, 1.0]), {"wall_s": ("lower", 0.25)})
        assert s["wall_s"]["change_better_pairs"] == 0
        assert s["wall_s"]["regression_beyond_bound"] is False


def test_parse_seeds():
    assert bench_pairs.parse_seeds("1-10") == list(range(1, 11))
    assert bench_pairs.parse_seeds("3") == [3]


def test_parse_run_reads_both_lines():
    report = {
        "environment": {"nproc": 2, "numpy": "2.0", "seed": 3},
        "end_to_end": {
            "wall_s": {"value": 1.5},
            "converged_frac": {"value": 0.75},
        },
        "outer_iters_per_set": [206, 205, 209],
    }
    last = {
        "correct": True,
        "attempted": 24,
        "failed": 0,
        "metrics": {"wall_s": {"value": 1.5, "unit": "s"},
                    "acc": {"value": 0.9, "unit": "ratio"}},
    }
    stdout = "\n".join(["progress", json.dumps({"report": report}), json.dumps(last)])
    record, env = bench_pairs.parse_run(stdout + "\n")
    assert record == {
        "wall_s": 1.5, "acc": 0.9, "correct": True, "failed": 0, "attempted": 24,
        "converged_frac": 0.75, "outer_iters": 620,
    }
    # every environment key, None where the report lacks it
    assert env == {"blas_thread_pin": None, "nproc": 2, "numpy": "2.0",
                   "openblas": None, "python": None}



def test_allocator_names_the_c_library_and_every_malloc_variable(monkeypatch):
    monkeypatch.setattr(bench_pairs.platform, "libc_ver", lambda: ("glibc", "2.36"))
    for key in [k for k in bench_pairs.os.environ if k.startswith("MALLOC_")]:
        monkeypatch.delenv(key)
    monkeypatch.setenv("MALLOC_ARENA_MAX", "2")
    monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", "131072")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.setenv("NUMPY_MADVISE_HUGEPAGE", "0")
    assert bench_pairs.allocator() == {
        "libc": "glibc 2.36",
        "malloc_env": {"MALLOC_ARENA_MAX": "2", "MALLOC_TRIM_THRESHOLD_": "131072"},
        "numpy_madvise_hugepage": "0",
    }
    # a C library that platform cannot name, and numpy's setting left unset
    monkeypatch.setattr(bench_pairs.platform, "libc_ver", lambda: ("", ""))
    monkeypatch.delenv("NUMPY_MADVISE_HUGEPAGE")
    assert bench_pairs.allocator()["libc"] is None
    assert bench_pairs.allocator()["numpy_madvise_hugepage"] is None


def test_bench_file_records_the_allocator(monkeypatch, tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}
    ))
    env = {"nproc": 2, "numpy": "2.0"}
    monkeypatch.setattr(
        bench_pairs, "run_side", lambda tree, w, seed, s: ({"wall_s": 1.0}, env)
    )
    monkeypatch.setattr(bench_pairs, "allocator", lambda: {"libc": "glibc 2.36"})
    bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                      "--workload", "frozen-v6", "--seeds", "1-2", "--seconds", "1",
                      "--label", "t"])
    bench = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert bench["environment"] == {**env, "allocator": {"libc": "glibc 2.36"}}
    assert len(bench["workloads"]["frozen-v6"]["pairs"]) == 2
