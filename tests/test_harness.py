"""Welch test, seeding scheme, structure scoring, and the comparison runner."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import t as student_t
from scipy.stats import ttest_ind

import coevobn
from coevobn import (
    ExperimentConfig,
    GaConfig,
    K2Config,
    SchemaError,
    ValidationError,
    ancestral_sample,
    derive_seed,
    load_structure,
    random_network,
    run_comparison,
    save_dataset,
    save_network,
    save_structure,
    score_structure,
    welch_one_tailed_t,
)
from coevobn import harness
from coevobn.bayesnet import Dag, Variable
from coevobn.encoding import decode
from helpers import dataset


class TestWelch:
    def test_identical_samples_give_half(self):
        a = [1.0, 2.0, 3.0, 4.0]
        assert welch_one_tailed_t(a, list(a)) == pytest.approx(0.5)

    def test_clear_separation_is_significant(self):
        rng = np.random.default_rng(0)
        a = 10.0 + rng.normal(0, 0.01, size=6)
        b = 0.0 + rng.normal(0, 0.01, size=6)
        assert welch_one_tailed_t(a, b) < 0.001

    def test_swapping_samples_complements_p(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.3, 1.0, size=12)
        b = rng.normal(0.0, 2.0, size=9)
        p = welch_one_tailed_t(a, b)
        assert welch_one_tailed_t(b, a) == pytest.approx(1.0 - p, rel=1e-9)

    def test_matches_scipy_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            a = rng.normal(0, 1, size=int(rng.integers(2, 15)))
            b = rng.normal(0.5, 2, size=int(rng.integers(2, 15)))
            ours = welch_one_tailed_t(a, b)
            ref = ttest_ind(a, b, equal_var=False, alternative="greater").pvalue
            assert ours == pytest.approx(ref, rel=1e-10)

    def test_degenerate_samples_rejected(self):
        with pytest.raises(ValidationError):
            welch_one_tailed_t([1.0], [1.0, 2.0])
        with pytest.raises(ValidationError):
            welch_one_tailed_t([3.0, 3.0], [4.0, 4.0])

    def test_p_stays_inside_open_interval(self):
        a = [1e6, 1e6 + 1, 1e6 - 1]
        b = [0.0, 1.0, -1.0]
        p = welch_one_tailed_t(a, b)
        assert 0.0 < p < 1.0
        assert 0.0 < welch_one_tailed_t(b, a) < 1.0

    @staticmethod
    def _reference(a, b) -> float:
        """The same statistic, with the p-value from scipy.stats' t."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        va, vb = a.var(ddof=1), b.var(ddof=1)
        se2 = va / a.size + vb / b.size
        t_stat = (a.mean() - b.mean()) / math.sqrt(se2)
        df = se2 ** 2 / ((va / a.size) ** 2 / (a.size - 1)
                         + (vb / b.size) ** 2 / (b.size - 1))
        p = float(student_t.sf(t_stat, df))
        return float(min(max(p, 5e-324), 1.0 - 1e-16))

    def test_equals_scipy_stats_t_sf_exactly(self):
        rng = np.random.default_rng(3)
        cases = [([1e6, 1e6 + 1, 1e6 - 1], [0.0, 1.0, -1.0])]
        cases.append(cases[0][::-1])
        for _ in range(200):
            a = rng.normal(0, 1, size=int(rng.integers(2, 30)))
            b = rng.normal(rng.normal(0, 2), rng.uniform(0.1, 3),
                           size=int(rng.integers(2, 30)))
            cases.append((a, b))
        for a, b in cases:
            assert welch_one_tailed_t(a, b) == self._reference(a, b)


class TestImports:
    def test_library_and_cli_do_not_load_scipy(self):
        # only welch_one_tailed_t imports scipy, when it is called
        src = str(Path(coevobn.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = ("import sys, coevobn, coevobn.cli; "
                "loaded = sorted(m for m in sys.modules if m.startswith('scipy')); "
                "assert not loaded, loaded")
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(42, 1000, 3, 1) == derive_seed(42, 1000, 3, 1)

    def test_varies_with_each_key(self):
        base = derive_seed(42, 1000, 3, 1)
        assert derive_seed(43, 1000, 3, 1) != base
        assert derive_seed(42, 3000, 3, 1) != base
        assert derive_seed(42, 1000, 4, 1) != base
        assert derive_seed(42, 1000, 3, 2) != base


class TestScoreStructure:
    def test_hand_value_on_two_rows(self, tmp_path):
        variables = [Variable("X1", 2)]
        save_structure(variables, Dag(1, [()]), tmp_path / "net.json")
        save_dataset(dataset([2], [[0], [1]]), tmp_path / "data.csv")
        got = score_structure(tmp_path / "net.json", tmp_path / "data.csv")
        assert got == pytest.approx(math.log(1 / 6), abs=1e-12)

    def test_pure_function(self, tmp_path):
        net = random_network(3, 2, 0.5, seed=1)
        save_network(net, tmp_path / "net.json")
        save_dataset(ancestral_sample(net, 50, seed=2), tmp_path / "data.csv")
        first = score_structure(tmp_path / "net.json", tmp_path / "data.csv")
        second = score_structure(tmp_path / "net.json", tmp_path / "data.csv")
        assert first == second

    def test_schema_mismatch_rejected(self, tmp_path):
        save_structure([Variable("X1", 2)], Dag(1, [()]), tmp_path / "net.json")
        save_dataset(dataset([2, 2], [[0, 1]]), tmp_path / "data.csv")
        with pytest.raises(SchemaError):
            score_structure(tmp_path / "net.json", tmp_path / "data.csv")


def tiny_config(out_dir, runs=3, **overrides):
    base = dict(
        generator={"nodes": 4, "max_arity": 2, "edge_density": 0.4, "seed": 11},
        sample_sizes=[120],
        runs=runs,
        master_seed=42,
        ga=GaConfig(generations=4, population_size=8),
        k2=K2Config(),
        out_dir=str(out_dir),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# report.json of tiny_config, pinned so that a change to how the report is
# built cannot change a byte of it
GOLDEN_REPORT = """\
{
  "master_seed": 42,
  "runs": 3,
  "results": [
    {
      "sample_size": 120,
      "ccga": {
        "mean": -273.232694,
        "std": 13.339641,
        "min": -288.187967,
        "max": -262.561175
      },
      "k2": {
        "mean": -275.440055,
        "std": 14.942141,
        "min": -292.027857,
        "max": -263.035048
      },
      "original": {
        "mean": -274.352515,
        "std": 12.247576,
        "min": -288.424221,
        "max": -266.094603
      },
      "mean_difference": 2.207361,
      "p_value_ccga_greater": 0.429017
    }
  ]
}
"""


class TestExperimentConfig:
    def test_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(ValidationError):
            ExperimentConfig(out_dir=str(tmp_path)).validate()
        with pytest.raises(ValidationError):
            ExperimentConfig(network_file="x.json", generator={"nodes": 3},
                             out_dir=str(tmp_path)).validate()

    def test_from_dict_round_trip(self):
        cfg = ExperimentConfig.from_dict({
            "generator": {"nodes": 5, "edge_density": 0.3},
            "sample_sizes": [200],
            "runs": 2,
            "master_seed": 9,
            "ga": {"generations": 3, "population_size": 6},
            "k2": {"max_parents": 4},
        })
        assert cfg.ga.generations == 3
        assert cfg.k2.max_parents == 4

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            ExperimentConfig.from_dict({"generator": {"nodes": 3}, "typo": 1})

    def test_unknown_generator_field_rejected(self, tmp_path):
        cfg = ExperimentConfig(generator={"nodes": 3, "desnity": 0.9},
                               out_dir=str(tmp_path))
        with pytest.raises(ValidationError, match="desnity"):
            cfg.validate()

    def test_generator_requires_nodes(self, tmp_path):
        cfg = ExperimentConfig(generator={"edge_density": 0.4},
                               out_dir=str(tmp_path))
        with pytest.raises(ValidationError, match="nodes"):
            cfg.validate()

    @pytest.mark.parametrize("name,overrides", [
        ("ga.seed", {"ga": GaConfig(generations=4, population_size=8, seed=5)}),
        ("k2.seed", {"k2": K2Config(seed=5)}),
    ])
    def test_nonzero_run_seed_rejected(self, tmp_path, name, overrides):
        # every run's seeds derive from master_seed, so a seed set here
        # would be silently replaced
        cfg = tiny_config(tmp_path, runs=2, **overrides)
        with pytest.raises(ValidationError, match=name):
            run_comparison(cfg)


class TestRunComparison:
    def test_outputs_and_self_consistency(self, tmp_path):
        report = run_comparison(tiny_config(tmp_path))
        for name in ("runs.csv", "report.json", "trace_mean.csv",
                     "timings.csv", "best_ccga_120.json", "best_k2_120.json"):
            assert (tmp_path / name).exists()

        with open(tmp_path / "timings.csv") as f:
            timings = list(csv.DictReader(f))
        assert len(timings) == 3 * 3
        assert any(float(row["seconds"]) > 0 for row in timings)

        # report statistics must be recomputable from runs.csv
        by_algorithm = {}
        with open(tmp_path / "runs.csv") as f:
            assert f.readline() == "algorithm,run,dataset,best_score\n"
            f.seek(0)
            for row in csv.DictReader(f):
                by_algorithm.setdefault(row["algorithm"], []).append(
                    float(row["best_score"]))
        doc = json.loads((tmp_path / "report.json").read_text())
        entry = doc["results"][0]
        for algo in ("ccga", "k2", "original"):
            scores = np.asarray(by_algorithm[algo])
            assert entry[algo]["mean"] == pytest.approx(scores.mean(), abs=1e-6)
            assert entry[algo]["std"] == pytest.approx(scores.std(ddof=1), abs=1e-6)
            assert entry[algo]["min"] == pytest.approx(scores.min(), abs=1e-6)
            assert entry[algo]["max"] == pytest.approx(scores.max(), abs=1e-6)
            assert entry[algo]["min"] <= entry[algo]["mean"] <= entry[algo]["max"]
            assert entry[algo]["std"] >= 0
        assert 0.0 < entry["p_value_ccga_greater"] < 1.0
        assert report == doc

    def test_paired_runs_share_datasets(self, tmp_path):
        run_comparison(tiny_config(tmp_path))
        with open(tmp_path / "runs.csv") as f:
            rows = list(csv.DictReader(f))
        per_run = {}
        for row in rows:
            per_run.setdefault(row["run"], set()).add(row["dataset"])
        assert all(len(ids) == 1 for ids in per_run.values())

    def test_report_matches_golden_bytes(self, tmp_path):
        report = run_comparison(tiny_config(tmp_path))
        text = (tmp_path / "report.json").read_text()
        assert text == GOLDEN_REPORT
        assert report == json.loads(text)

    def test_byte_identical_rerun(self, tmp_path):
        run_comparison(tiny_config(tmp_path / "a"))
        run_comparison(tiny_config(tmp_path / "b"))
        for name in ("runs.csv", "report.json", "trace_mean.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_single_run_degenerates_gracefully(self, tmp_path):
        run_comparison(tiny_config(tmp_path, runs=1))
        entry = json.loads((tmp_path / "report.json").read_text())["results"][0]
        assert entry["p_value_ccga_greater"] is None
        assert entry["ccga"]["std"] is None
        assert entry["ccga"]["min"] == entry["ccga"]["mean"] == entry["ccga"]["max"]

    def test_mean_trace_is_nondecreasing(self, tmp_path):
        run_comparison(tiny_config(tmp_path))
        with open(tmp_path / "trace_mean.csv") as f:
            values = [float(row["mean_best_score"]) for row in csv.DictReader(f)]
        assert len(values) == 5  # generation 0 plus 4 generations
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_interrupted_experiment_keeps_completed_rows(self, tmp_path,
                                                          monkeypatch):
        real_k2_learn = harness.k2_learn
        calls = []

        def k2_learn_failing_on_run_1(data, cfg):
            calls.append(cfg)
            if len(calls) == 2:
                raise RuntimeError("interrupted")
            return real_k2_learn(data, cfg)

        monkeypatch.setattr(harness, "k2_learn", k2_learn_failing_on_run_1)
        with pytest.raises(RuntimeError, match="interrupted"):
            run_comparison(tiny_config(tmp_path))
        keys = ["ccga,0,s120-r0", "k2,0,s120-r0", "original,0,s120-r0",
                "ccga,1,s120-r1"]
        for name, column in (("runs.csv", "best_score"), ("timings.csv", "seconds")):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == f"algorithm,run,dataset,{column}"
            assert [line.rsplit(",", 1)[0] for line in lines[1:]] == keys

    def test_best_structures_are_the_top_scoring_runs(self, tmp_path,
                                                      monkeypatch):
        real_evolve = harness.evolve
        ccga_runs = []

        def spy_evolve(data, cfg):
            state, trace = real_evolve(data, cfg)
            best = state.best_so_far
            ccga_runs.append((best.log_score, decode((best.perm, best.bits))))
            return state, trace

        # a distinct DAG per run; run 1 and run 2 tie for the top score
        k2_runs = [(score, Dag(4, [(), (), (), range(k)]))
                   for k, score in enumerate([-500.0, -100.0, -100.0])]
        calls = []

        def scripted_k2_learn(data, cfg):
            score, dag = k2_runs[len(calls)]
            calls.append(cfg)
            return dag, score

        monkeypatch.setattr(harness, "evolve", spy_evolve)
        monkeypatch.setattr(harness, "k2_learn", scripted_k2_learn)
        run_comparison(tiny_config(tmp_path))

        assert len(ccga_runs) == 3
        top = max(score for score, _ in ccga_runs)
        first_top = next(dag for score, dag in ccga_runs if score == top)
        assert load_structure(tmp_path / "best_ccga_120.json")[1] == first_top
        assert load_structure(tmp_path / "best_k2_120.json")[1] == k2_runs[1][1]

    def test_best_structure_files_load(self, tmp_path):
        run_comparison(tiny_config(tmp_path))
        variables, dag = load_structure(tmp_path / "best_ccga_120.json")
        assert len(variables) == 4
        assert dag.n == 4

    def test_network_file_source(self, tmp_path):
        net = random_network(3, 2, 0.5, seed=8)
        save_network(net, tmp_path / "truth.json")
        cfg = tiny_config(tmp_path / "out", runs=2,
                          generator=None, network_file=str(tmp_path / "truth.json"))
        report = run_comparison(cfg)
        assert len(report["results"]) == 1

    def test_multiple_sample_sizes_make_suffixed_traces(self, tmp_path):
        cfg = tiny_config(tmp_path, runs=1, sample_sizes=[60, 90])
        report = run_comparison(cfg)
        assert (tmp_path / "trace_mean_60.csv").exists()
        assert (tmp_path / "trace_mean_90.csv").exists()
        assert [e["sample_size"] for e in report["results"]] == [60, 90]
