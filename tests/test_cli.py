"""End-to-end command-line behavior and exit codes."""

import json

import pytest

from coevobn.cli import cli_main


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCountDags:
    def test_six_nodes(self, capsys):
        code, out, _ = run(capsys, "count-dags", "6")
        assert code == 0
        assert out.strip() == "3781503"

    def test_one_node(self, capsys):
        code, out, _ = run(capsys, "count-dags", "1")
        assert code == 0 and out.strip() == "1"


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "count-dags", "3", "--bogus")
        assert code == 2

    def test_no_arguments(self, capsys):
        assert cli_main([]) == 2

    def test_zero_rows_rejected(self, capsys, tmp_path):
        code, _, _ = run(capsys, "random-net", "--nodes", "3",
                         "--out-file", str(tmp_path / "net.json"))
        assert code == 0
        code, _, err = run(capsys, "sample", "--net", str(tmp_path / "net.json"),
                           "--rows", "0")
        assert code == 2
        assert "count" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "score", "--net", "/nonexistent.json",
                           "--data", "/nonexistent.csv")
        assert code == 2


class TestPipeline:
    def test_generate_sample_score_learn(self, capsys, tmp_path):
        net = tmp_path / "net.json"
        data = tmp_path / "data.csv"
        code, _, _ = run(capsys, "random-net", "--nodes", "4", "--density",
                         "0.5", "--seed", "3", "--out-file", str(net))
        assert code == 0

        code, _, _ = run(capsys, "sample", "--net", str(net), "--rows", "150",
                         "--seed", "1", "--out-file", str(data))
        assert code == 0

        code, out, _ = run(capsys, "score", "--net", str(net), "--data", str(data))
        assert code == 0
        assert float(out.strip()) < 0

        code, out, _ = run(capsys, "learn-k2", "--data", str(data), "--seed",
                           "2", "--out", str(tmp_path / "k2"), "--fit-cpts")
        assert code == 0
        assert out.startswith("best_score=")
        assert (tmp_path / "k2" / "k2_structure.json").exists()
        from coevobn import load_network
        fitted = load_network(tmp_path / "k2" / "k2_network.json")
        assert fitted.n == 4

        ga_cfg = tmp_path / "ga.json"
        ga_cfg.write_text(json.dumps({"generations": 3, "population_size": 6}))
        code, out, _ = run(capsys, "learn-ccga", "--data", str(data),
                           "--config", str(ga_cfg), "--seed", "2",
                           "--out", str(tmp_path / "ccga"))
        assert code == 0
        assert out.startswith("best_score=")
        assert (tmp_path / "ccga" / "ccga_structure.json").exists()
        assert (tmp_path / "ccga" / "ccga_trace.csv").exists()

    def test_enumerate_counts_and_scores(self, capsys, tmp_path):
        code, out, _ = run(capsys, "enumerate", "--nodes", "3")
        assert code == 0 and out.strip() == "25"

        net = tmp_path / "net.json"
        data = tmp_path / "data.csv"
        run(capsys, "random-net", "--nodes", "3", "--density", "0.5",
            "--seed", "5", "--out-file", str(net))
        run(capsys, "sample", "--net", str(net), "--rows", "40", "--seed", "2",
            "--out-file", str(data))
        scores = tmp_path / "scores.csv"
        code, _, _ = run(capsys, "enumerate", "--nodes", "3", "--data",
                         str(data), "--out-file", str(scores))
        assert code == 0
        lines = scores.read_text().strip().split("\n")
        assert lines[0] == "dag,score"
        assert len(lines) == 26

    def test_enumerate_node_mismatch(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("A:2,B:2\n0,1\n")
        code, _, _ = run(capsys, "enumerate", "--nodes", "3", "--data", str(data))
        assert code == 2


class TestLearnCcgaConfig:
    @pytest.mark.parametrize("doc, field", [
        ({"popsize": 6}, "popsize"),
        ({"generations": 2, "parallel_eval": True}, "parallel_eval"),
    ])
    def test_unknown_key_is_usage_error(self, capsys, tmp_path, doc, field):
        data = tmp_path / "data.csv"
        data.write_text("A:2,B:2\n0,1\n1,1\n")
        cfg = tmp_path / "ga.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run(capsys, "learn-ccga", "--data", str(data),
                           "--config", str(cfg))
        assert code == 2
        assert field in err

    def test_no_cache_flag_is_gone(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("A:2,B:2\n0,1\n1,1\n")
        code, _, _ = run(capsys, "learn-ccga", "--data", str(data), "--no-cache")
        assert code == 2


class TestCompare:
    def write_config(self, tmp_path, out_dir, **overrides):
        cfg = {
            "generator": {"nodes": 4, "max_arity": 2, "edge_density": 0.4,
                          "seed": 11},
            "sample_sizes": [100],
            "runs": 2,
            "master_seed": 7,
            "ga": {"generations": 3, "population_size": 6},
            "k2": {"max_parents": 3},
            "out_dir": str(out_dir),
        }
        cfg.update(overrides)
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_compare_runs_and_reports(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, tmp_path / "out")
        code, out, _ = run(capsys, "compare", "--config", str(cfg))
        assert code == 0
        assert "ccga_mean=" in out
        assert (tmp_path / "out" / "report.json").exists()

    def test_compare_identical_outputs_same_seed(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, tmp_path / "ignored")
        code, _, _ = run(capsys, "compare", "--config", str(cfg), "--out",
                         str(tmp_path / "a"))
        assert code == 0
        code, _, _ = run(capsys, "compare", "--config", str(cfg), "--out",
                         str(tmp_path / "b"))
        assert code == 0
        for name in ("runs.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_compare_without_config_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compare")
        assert code == 2
        assert "config" in err

    @pytest.mark.parametrize("overrides, field", [
        ({"ga": {"generations": 3, "popsize": 6}}, "popsize"),
        ({"ga": {"parallel_eval": True}}, "parallel_eval"),
        ({"k2": {"max_parent": 3}}, "max_parent"),
    ])
    def test_unknown_key_is_usage_error(self, capsys, tmp_path, overrides,
                                        field):
        cfg = self.write_config(tmp_path, tmp_path / "out", **overrides)
        code, _, err = run(capsys, "compare", "--config", str(cfg))
        assert code == 2
        assert field in err

    @pytest.mark.parametrize("overrides, field", [
        ({"runs": "2"}, "runs"),
        ({"runs": True}, "runs"),
        ({"sample_sizes": 1000}, "sample_sizes"),
        ({"sample_sizes": [100.5]}, "sample size"),
        ({"master_seed": 1.5}, "master_seed"),
        ({"ga": {"generations": "3"}}, "generations"),
        ({"ga": {"p_c": "0.6"}}, "p_c"),
        ({"k2": {"max_parents": None}}, "max_parents"),
        ({"generator": {"nodes": "4"}}, "nodes"),
        ({"generator": {"nodes": 4, "edge_density": "0.4"}}, "edge_density"),
    ])
    def test_wrong_typed_value_is_usage_error(self, capsys, tmp_path, overrides,
                                              field):
        cfg = self.write_config(tmp_path, tmp_path / "out", **overrides)
        code, _, err = run(capsys, "compare", "--config", str(cfg))
        assert code == 2
        assert field in err
        assert not (tmp_path / "out" / "runs.csv").exists()
