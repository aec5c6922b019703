"""Smoke test of the benchmark itself, at tiny sizes.

Kept out of tests/ so the tier-1 suite gets no slower. Run it with

    python3 -m pytest -q benchmarks/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from coevobn import evolution, scoring  # noqa: E402

TINY = {
    "paper-n10": replace(workloads.WORKLOADS["paper-n10"], rows=80,
                         generations=4, population=6, k2_orderings=2),
    "wide-n30": replace(workloads.WORKLOADS["wide-n30"], rows=120, ga_runs=2,
                        generations=2, population=6, k2_orderings=1),
    "compare-n4": replace(workloads.WORKLOADS["compare-n4"], rows=60,
                          generations=3, population=6),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _outputs_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path)


def _values(result):
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == tracing.LAYER_METRICS


@pytest.fixture
def one_probe(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_PROBES", 1)


@pytest.mark.parametrize("name", list(TINY))
def test_end_to_end_metrics_are_positive_and_checked(name, one_probe):
    result = bench.run(TINY[name], seed=3, seconds=0.01, trace=False)["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + bench.MIN_REPS
    assert list(result["metrics"]) == list(bench.END_TO_END)
    assert all(value > 0 for value in _values(result).values())


def test_traced_counts_agree_on_the_learn_path():
    result = bench.run(TINY["paper-n10"], 3, 0.01, True)["result"]
    assert result["correct"]
    assert result["attempted"] == 2 * bench.MIN_TRACE_PAIRS
    assert list(result["metrics"]) == list(tracing.LAYER_METRICS)
    m = _values(result)
    assert m["encoding.decode_calls"] == m["scoring.score_calls"] \
        == m["evolution.evaluations"] > 0
    assert m["scoring.count_stats_calls"] == m["scoring.cache_misses"] \
        == m["scoring.cache_entries"] > 0
    assert m["baselines.k2_local_scores"] > 0
    assert m["harness.runs"] == 0 and m["cli.self_s"] == 0


def test_traced_compare_goes_through_harness_and_cli():
    spec = TINY["compare-n4"]
    result = bench.run(spec, 3, 0.01, True)["result"]
    assert result["correct"]
    m = _values(result)
    assert m["harness.runs"] == spec.runs
    assert m["evolution.evaluations"] == m["encoding.decode_calls"] \
        == workloads.compare_evaluations(spec)
    assert m["harness.self_s"] > 0 and m["cli.self_s"] > 0
    assert m["harness.cpu_per_wall"] > 0


def test_hooks_are_removed_after_a_traced_run():
    def hooked():
        return [getattr(module, attr) for module, attr, _ in tracing.HOOKS] \
            + [scoring.LocalScoreCache.__init__]

    before = hooked()
    bench.run(TINY["paper-n10"], 3, 0.01, True)
    assert hooked() == before


def test_a_wrong_score_is_counted_as_a_failure(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_PROBES", 0)
    real = evolution.score_parent_sets
    monkeypatch.setattr(evolution, "score_parent_sets",
                        lambda *args: real(*args) + 1.0)
    result = bench.run(TINY["paper-n10"], 3, 0.01, False)["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == bench.MIN_REPS


def test_a_stale_compare_evaluation_count_fails_the_traced_run(monkeypatch):
    spec = TINY["compare-n4"]
    monkeypatch.setattr(workloads, "compare_evaluations",
                        lambda spec: spec.runs * spec.population * spec.generations)
    result = bench.run(spec, 3, 0.01, True)["result"]
    assert not result["correct"]
    assert result["failed"] == bench.MIN_TRACE_PAIRS


def test_same_seed_gives_same_inputs():
    a, b, c = (workloads.generate(TINY["paper-n10"], seed) for seed in (5, 5, 6))
    assert np.array_equal(a.data.rows, b.data.rows)
    assert (a.ga_cfgs, a.k2_cfgs) == (b.ga_cfgs, b.k2_cfgs)
    assert not np.array_equal(a.data.rows, c.data.rows)


def test_command_prints_the_result_last(monkeypatch, capsys, one_probe):
    monkeypatch.setitem(workloads.WORKLOADS, "compare-n4", TINY["compare-n4"])
    code = bench.main(["--workload", "compare-n4", "--seed", "2",
                       "--seconds", "0.01", "--trace", "0"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(line.startswith("#") for line in lines[:-1])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "paper-n10",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
