"""End-to-end command-line behavior and exit codes."""

import contextlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
import time
import traceback
from decimal import Decimal
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

import coevobn
from coevobn import (
    Dag,
    Dataset,
    Variable,
    ancestral_sample,
    bde_log_score,
    cli,
    load_structure,
    prequential_log_score,
    random_network,
    save_dataset,
    save_structure,
    scoring,
)
from coevobn.baselines import COUNT_LIMIT, ENUMERATION_LIMIT, count_dags
from coevobn.bayesnet import NODE_BYTES, SAMPLE_BLOCK
from coevobn.cli import cli_main
from helpers import (
    MALFORMED_NETWORK_VALUES,
    chain3,
    distinct_parent_rows,
    malformed_network_doc,
    reference_local_score,
    reference_network_text,
)


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cap_address_space(limit=2 << 30):
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def capped_env():
    """Environment of a child coevobn process that runs this checkout."""
    return dict(os.environ, OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=str(Path(coevobn.__file__).parents[1]))


class TestCountDags:
    def test_six_nodes(self, capsys):
        code, out, _ = run(capsys, "count-dags", "6")
        assert code == 0
        assert out.strip() == "3781503"

    def test_one_node(self, capsys):
        code, out, _ = run(capsys, "count-dags", "1")
        assert code == 0 and out.strip() == "1"

    def test_prints_counts_beyond_the_int_string_limit(self, capsys):
        code, out, _ = run(capsys, "count-dags", "170")
        assert code == 0
        assert out.strip() == str(Decimal(count_dags(170)))
        assert len(out.strip()) > 4300

    def test_above_limit_is_usage_error(self, capsys):
        code, _, err = run(capsys, "count-dags", str(COUNT_LIMIT + 1))
        assert code == 2
        assert str(COUNT_LIMIT) in err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["count-dags", "3", "--bogus"],
        ["count-dags", "3", "--seed", "1"],
        ["score", "--net", "{net}", "--data", "{data}", "--config", "{cfg}"],
        ["learn-k2", "--data", "{data}", "--config", "{cfg}"],
        ["--seed", "5", "count-dags", "3"],
        # a prefix of a flag is not taken for it (--out-file, --max-parents,
        # --seed)
        ["enumerate", "--data", "{data}", "--out", "{out}"],
        ["learn-k2", "--data", "{data}", "--max", "1", "--see", "3"],
    ], ids=["bogus", "count-dags-seed", "score-config", "learn-k2-config",
            "seed-before-command", "enumerate-out", "learn-k2-max-see"])
    def test_unknown_flag(self, capsys, tmp_path, argv):
        paths = {name: tmp_path / name for name in ("net", "data", "cfg", "out")}
        run(capsys, "random-net", "--nodes", "3", "--out-file", str(paths["net"]))
        run(capsys, "sample", "--net", str(paths["net"]), "--rows", "20",
            "--out-file", str(paths["data"]))
        paths["cfg"].write_text("{}")
        before = sorted(tmp_path.iterdir())
        code, out, _ = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 2
        assert out == ""
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("argv", [
        ["learn-k2", "--data", "d.csv", "--fit-cpts"],
        ["learn-ccga", "--data", "d.csv", "--fit-cpts"],
    ], ids=["learn-k2", "learn-ccga"])
    def test_flag_without_its_partner(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "needs" in err

    @pytest.mark.parametrize("command", ["random-net", "sample", "learn-ccga",
                                         "learn-k2", "compare"])
    def test_negative_seed(self, capsys, tmp_path, command):
        net, data = tmp_path / "net.json", tmp_path / "data.csv"
        run(capsys, "random-net", "--nodes", "3", "--out-file", str(net))
        run(capsys, "sample", "--net", str(net), "--rows", "20",
            "--out-file", str(data))
        experiment = tmp_path / "experiment.json"
        experiment.write_text(json.dumps({
            "generator": {"nodes": 3, "seed": -1}, "runs": 1,
            "ga": {"generations": 1, "population_size": 2},
            "out_dir": str(tmp_path / "out")}))
        argv = {
            "random-net": ["--nodes", "3", "--seed", "-1"],
            "sample": ["--net", str(net), "--rows", "5", "--seed", "-1"],
            "learn-ccga": ["--data", str(data), "--seed", "-1"],
            "learn-k2": ["--data", str(data), "--seed", "-1"],
            "compare": ["--config", str(experiment)],
        }[command]
        code, _, err = run(capsys, command, *argv)
        assert code == 2
        assert "seed" in err

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

    @pytest.mark.parametrize("command", ["learn-k2", "enumerate"])
    def test_directory_as_data(self, capsys, tmp_path, command):
        code, _, err = run(capsys, command, "--data", str(tmp_path))
        assert code == 2
        assert "cannot read file" in err

    @pytest.mark.parametrize("argv, target", [
        (["random-net", "--nodes", "3", "--out-file", "{dir}"], "dir"),
        (["sample", "--net", "{net}", "--rows", "5", "--out-file", "{dir}"], "dir"),
        (["enumerate", "--data", "{data}", "--out-file", "{dir}"], "dir"),
        (["learn-k2", "--data", "{data}", "--out", "{file}"], "file"),
        (["learn-ccga", "--data", "{data}", "--config", "{cfg}", "--out", "{file}"],
         "file"),
        (["compare", "--config", "{cmp}", "--out", "{file}"], "file"),
    ], ids=["random-net", "sample", "enumerate", "learn-k2", "learn-ccga", "compare"])
    def test_unusable_output_path_is_usage_error(self, capsys, tmp_path, argv,
                                                 target):
        paths = {name: tmp_path / name for name in
                 ("net", "data", "cfg", "cmp", "dir", "file")}
        run(capsys, "random-net", "--nodes", "3", "--out-file", str(paths["net"]))
        run(capsys, "sample", "--net", str(paths["net"]), "--rows", "20",
            "--out-file", str(paths["data"]))
        paths["cfg"].write_text('{"generations": 1, "population_size": 4}')
        paths["cmp"].write_text(json.dumps({
            "generator": {"nodes": 3}, "sample_sizes": [20], "runs": 1,
            "ga": {"generations": 1, "population_size": 4}}))
        paths["dir"].mkdir()
        paths["file"].write_text("kept\n")
        code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(paths[target]) in err
        assert list(paths["dir"].iterdir()) == []
        assert paths["file"].read_text() == "kept\n"

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    @pytest.mark.parametrize("command", ["learn-ccga", "learn-k2"])
    def test_unusable_out_is_refused_before_the_run(self, capsys, tmp_path,
                                                    command, out):
        run(capsys, "random-net", "--nodes", "3", "--out-file", str(tmp_path / "net"))
        run(capsys, "sample", "--net", str(tmp_path / "net"), "--rows", "20",
            "--out-file", str(tmp_path / "data"))
        (tmp_path / "file").write_text("kept\n")
        code, stdout, err = run(capsys, command, "--data", str(tmp_path / "data"),
                                "--out", str(tmp_path / out))
        assert code == 2
        assert "best_score=" not in stdout
        assert err.startswith(f"error: --out {tmp_path / out}: ")
        assert err.rstrip().endswith("is not a directory")
        assert (tmp_path / "file").read_text() == "kept\n"
        # the path is checked before the data are read
        code, _, err = run(capsys, command, "--data", str(tmp_path / "missing"),
                           "--out", str(tmp_path / out))
        assert code == 2 and "is not a directory" in err

    @pytest.mark.parametrize("out", ["missing/x", "file/x", "dir"])
    @pytest.mark.parametrize("command, work", [
        ("random-net", "random_network"), ("sample", "ancestral_sample"),
        ("enumerate", "score_all_dags")])
    def test_unusable_out_file_is_refused_before_any_work(
            self, capsys, tmp_path, monkeypatch, command, work, out):
        net, data = tmp_path / "net", tmp_path / "data"
        run(capsys, "random-net", "--nodes", "3", "--out-file", str(net))
        run(capsys, "sample", "--net", str(net), "--rows", "20", "--out-file", str(data))
        (tmp_path / "file").write_text("kept\n")
        (tmp_path / "dir").mkdir()

        def never(*args, **kwargs):
            raise AssertionError(f"{work} ran")

        monkeypatch.setattr(cli, work, never)
        argv = {"random-net": ["--nodes", "3"],
                "sample": ["--net", str(net), "--rows", "20"],
                "enumerate": ["--data", str(data)]}[command]
        code, stdout, err = run(capsys, command, *argv, "--out-file", str(tmp_path / out))
        assert code == 2
        assert err.startswith(f"error: --out-file {tmp_path / out}")
        assert "Traceback" not in err and stdout == ""
        assert (tmp_path / "file").read_text() == "kept\n"
        assert list((tmp_path / "dir").iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_other_os_error_exits_1_without_a_traceback(self, capsys):
        code, _, err = run(capsys, "random-net", "--nodes", "3",
                           "--out-file", "/dev/full")
        assert code == 1
        assert err.startswith("error: ") and "No space left" in err


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
        net = tmp_path / "net.json"
        data = tmp_path / "data.csv"
        run(capsys, "random-net", "--nodes", "3", "--density", "0.5",
            "--seed", "5", "--out-file", str(net))
        run(capsys, "sample", "--net", str(net), "--rows", "40", "--seed", "2",
            "--out-file", str(data))
        scores = tmp_path / "scores.csv"
        code, out, _ = run(capsys, "enumerate", "--data", str(data),
                           "--out-file", str(scores))
        assert code == 0
        assert out == f"wrote {scores} (25 structures)\n"
        lines = scores.read_text().strip().split("\n")
        assert lines[0] == "dag,score"
        assert len(lines) == 26
        code, out, _ = run(capsys, "enumerate", "--data", str(data))
        assert code == 0
        assert out == scores.read_text()

    @pytest.mark.parametrize("cell", ["99999999999999999999", "-99999999999999999999"])
    def test_data_cell_beyond_int64_is_usage_error(self, capsys, tmp_path, cell):
        data = tmp_path / "data.csv"
        data.write_text(f"a:2,b:2\n0,1\n{cell},0\n")
        code, _, err = run(capsys, "learn-k2", "--data", str(data))
        assert code == 2
        assert f"column 'a' contains value {cell}, outside" in err

    def test_enumerate_requires_data(self, capsys):
        code, _, err = run(capsys, "enumerate")
        assert code == 2
        assert "--data" in err

    def test_without_out_file_the_text_goes_to_stdout(self, capsys, tmp_path):
        net = tmp_path / "net.json"
        data = tmp_path / "data.csv"
        run(capsys, "random-net", "--nodes", "3", "--seed", "1",
            "--out-file", str(net))
        run(capsys, "sample", "--net", str(net), "--rows", "4", "--seed", "2",
            "--out-file", str(data))
        code, out, _ = run(capsys, "random-net", "--nodes", "3", "--seed", "1")
        assert code == 0
        assert out == net.read_text()
        assert json.loads(out)["variables"][0] == {"name": "X1", "arity": 2}
        code, out, _ = run(capsys, "sample", "--net", str(net), "--rows", "4",
                           "--seed", "2")
        assert code == 0
        assert out == data.read_bytes().decode()
        assert out.split("\r\n")[0] == "X1:2,X2:2,X3:2" and out.count("\r\n") == 5

    def test_stdout_equals_the_file_past_a_row_block(self, capsys, tmp_path):
        net = tmp_path / "net.json"
        data = tmp_path / "data.csv"
        args = ["random-net", "--nodes", "5", "--max-arity", "4", "--density",
                "0.5", "--seed", "2"]
        run(capsys, *args, "--out-file", str(net))
        code, out, _ = run(capsys, *args)
        assert code == 0
        expected = random_network(5, 4, 0.5, 2)
        assert out == net.read_bytes().decode() == reference_network_text(
            expected.variables, expected.dag, expected.cpts)
        args = ["sample", "--net", str(net), "--rows", str(SAMPLE_BLOCK + 1),
                "--seed", "3"]
        run(capsys, *args, "--out-file", str(data))
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert out == data.read_bytes().decode()
        assert out.count("\r\n") == SAMPLE_BLOCK + 2

    def test_learn_k2_reads_the_data_from_a_pipe(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        save_dataset(ancestral_sample(random_network(5, 3, 0.4, 2), 300, 3), data)
        code, out, _ = run(capsys, "learn-k2", "--data", str(data), "--seed", "4")
        assert code == 0 and out.startswith("best_score=")
        proc = subprocess.run(
            [sys.executable, "-m", "coevobn.cli", "learn-k2", "--data", "/dev/stdin",
             "--seed", "4"], input=data.read_bytes(), env=capped_env(),
            capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode() == out

    def test_appending_stdout_keeps_the_file(self, tmp_path):
        net = tmp_path / "net.json"
        cli_main(["random-net", "--nodes", "3", "--seed", "1",
                  "--out-file", str(net)])
        for argv in (["random-net", "--nodes", "3"],
                     ["sample", "--net", str(net), "--rows", "2"]):
            log = tmp_path / "log"
            log.write_text("first line\n")
            with open(log, "a") as f:
                proc = subprocess.run([sys.executable, "-m", "coevobn.cli", *argv],
                                      env=capped_env(), stdout=f, timeout=120)
            assert proc.returncode == 0
            lines = log.read_text().splitlines()
            assert lines[0] == "first line" and len(lines) > 2


class TestDenseStructures:
    def test_score_of_the_complete_dag_on_30_binary_nodes(self, tmp_path):
        # The last family alone has 2**30 cells; a dense tally of it would
        # take 8 GiB, so the command runs in a child capped at 2 GiB.
        data = distinct_parent_rows(29, 200)
        dag = Dag(30, [range(i) for i in range(30)])
        save_dataset(data, tmp_path / "data.csv")
        save_structure(data.variables, dag, tmp_path / "net.json")

        proc = subprocess.run(
            [sys.executable, "-m", "coevobn.cli", "score",
             "--net", str(tmp_path / "net.json"),
             "--data", str(tmp_path / "data.csv")],
            env=capped_env(), preexec_fn=cap_address_space, capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        expected = sum(reference_local_score(data, i, ps)
                       for i, ps in enumerate(dag.parents))
        assert float(proc.stdout) == pytest.approx(expected, abs=1e-6)

    def test_fit_cpts_above_the_dense_limit_is_usage_error(
            self, capsys, tmp_path, monkeypatch):
        # a limit of 3 cells puts every binary family with a parent above it
        save_dataset(ancestral_sample(chain3(), 500, seed=1),
                     tmp_path / "data.csv")
        monkeypatch.setattr(scoring, "DENSE_CELLS", 3)
        code, _, err = run(capsys, "learn-k2", "--data", str(tmp_path / "data.csv"),
                           "--out", str(tmp_path / "k2"), "--fit-cpts")
        assert code == 2
        assert "cells" in err and "DENSE_CELLS = 3" in err
        assert not (tmp_path / "k2" / "k2_structure.json").exists()
        assert not (tmp_path / "k2").exists()

    def test_random_net_above_the_dense_limit_is_usage_error(self, tmp_path):
        # a complete 30-node DAG needs CPTs of up to 2**30 cells
        proc = subprocess.run(
            [sys.executable, "-m", "coevobn.cli", "random-net", "--nodes", "30",
             "--density", "1.0", "--out-file", str(tmp_path / "net.json")],
            env=capped_env(), preexec_fn=cap_address_space, capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "cells, above DENSE_CELLS" in proc.stderr
        assert not (tmp_path / "net.json").exists()

    def test_random_net_of_200000_nodes_is_refused_while_drawing(self, tmp_path):
        # the default density gives about 4e9 edges; the first node whose
        # CPT passes DENSE_CELLS is refused after a few rows of coin flips
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "coevobn.cli", "random-net", "--nodes", "200000",
             "--out-file", str(tmp_path / "net.json")],
            env=capped_env(), preexec_fn=cap_address_space, capture_output=True,
            text=True, timeout=120)
        assert time.monotonic() - start < 60
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"cells, above DENSE_CELLS = {scoring.DENSE_CELLS}" in proc.stderr
        assert not (tmp_path / "net.json").exists()

    def test_random_net_of_more_nodes_than_the_cap_holds_is_refused_at_once(
            self, tmp_path):
        # 20,000,000 nodes hold at least 4 GB of Python objects before any
        # edge: past the 2 GiB address space, so refused before building them
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "coevobn.cli", "random-net", "--nodes", "20000000",
             "--out-file", str(tmp_path / "net.json")],
            env=capped_env(), preexec_fn=cap_address_space, capture_output=True,
            text=True, timeout=120)
        assert time.monotonic() - start < 2
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert (f"network of 20000000 nodes: its nodes alone ask for "
                f"{20000000 * NODE_BYTES} bytes") in proc.stderr
        assert not (tmp_path / "net.json").exists()

    @pytest.mark.parametrize("command", ["learn-k2", "learn-ccga"])
    def test_arity_above_the_dense_limit_is_usage_error(self, tmp_path, command):
        # counting X1's values alone would ask for a 7.28 TiB table
        data = tmp_path / "data.csv"
        data.write_text("X1:1000000000000,X2:2\n0,1\n1,0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "coevobn.cli", command, "--data", str(data),
             "--out", str(tmp_path / "out")],
            env=capped_env(), preexec_fn=cap_address_space, capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "'X1' has arity 1000000000000" in proc.stderr
        assert f"DENSE_CELLS = {scoring.DENSE_CELLS}" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_sample_of_too_many_rows_is_usage_error(self, capsys, tmp_path):
        # 10**11 rows of 5 int64 values ask for 4 TB
        net = tmp_path / "net.json"
        run(capsys, "random-net", "--nodes", "5", "--out-file", str(net))
        proc = subprocess.run(
            [sys.executable, "-m", "coevobn.cli", "sample", "--net", str(net),
             "--rows", "100000000000", "--out-file", str(tmp_path / "data.csv")],
            env=capped_env(), preexec_fn=cap_address_space, capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "100000000000 rows" in proc.stderr
        assert "4000000000000 bytes" in proc.stderr
        assert not (tmp_path / "data.csv").exists()


class TestHugeArity:
    """A child of arity 4,000,000 with ten binary parents on 3,000 rows. A
    table over its about 970 observed parent configurations would take
    about 29 GiB; the commands run in a child capped at 2 GiB."""

    @staticmethod
    def write_data(tmp_path):
        rng = np.random.default_rng(40)
        rows = np.column_stack([rng.integers(0, 4_000_000, size=3000),
                                rng.integers(0, 2, size=(3000, 10))])
        data = Dataset([Variable("C", 4_000_000)]
                       + [Variable(f"P{i}", 2) for i in range(1, 11)], rows)
        save_dataset(data, tmp_path / "data.csv")
        return data

    @staticmethod
    def capped(*argv):
        return subprocess.run(
            [sys.executable, "-m", "coevobn.cli", *map(str, argv)],
            env=capped_env(), preexec_fn=cap_address_space, capture_output=True,
            text=True, timeout=120)

    def test_score_matches_the_prequential_oracle(self, tmp_path):
        data = self.write_data(tmp_path)
        dag = Dag(11, [range(1, 11)] + [()] * 10)
        save_structure(data.variables, dag, tmp_path / "net.json")
        proc = self.capped("score", "--net", tmp_path / "net.json",
                           "--data", tmp_path / "data.csv")
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) == \
            pytest.approx(prequential_log_score(data, dag), rel=1e-9)

    def test_learn_k2_prints_the_score_of_the_structure_it_wrote(self, tmp_path):
        data = self.write_data(tmp_path)
        proc = self.capped("learn-k2", "--data", tmp_path / "data.csv",
                           "--max-parents", 3, "--out", tmp_path / "k2")
        assert proc.returncode == 0, proc.stderr
        best = proc.stdout.splitlines()[0].removeprefix("best_score=")
        _, dag = load_structure(tmp_path / "k2" / "k2_structure.json")
        assert best == f"{bde_log_score(data, dag):.6f}"

    def test_random_net_whose_cpts_do_not_fit_is_usage_error(self, tmp_path):
        # 100 parentless nodes of up to DENSE_CELLS values: their CPTs alone
        # ask for about 1.6 GB, so drawing them runs out of the 2 GiB
        rng = np.random.default_rng(1)
        rng.permutation(100)  # random_network draws the ordering first
        cpt_bytes = 8 * int(rng.integers(2, scoring.DENSE_CELLS + 1, size=100).sum())
        proc = self.capped("random-net", "--nodes", 100, "--max-arity",
                           scoring.DENSE_CELLS, "--density", 0, "--seed", 1,
                           "--out-file", tmp_path / "net.json")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert (f"network of 100 nodes: its CPTs ask for {cpt_bytes} bytes"
                in proc.stderr)
        assert not (tmp_path / "net.json").exists()


class TestMalformedNetworkFile:
    @pytest.mark.parametrize("path, value, field", MALFORMED_NETWORK_VALUES)
    def test_sample_exits_2_naming_the_field(self, capsys, tmp_path, path,
                                             value, field):
        doc = malformed_network_doc(path, value)
        net = tmp_path / "net.json"
        net.write_text(json.dumps(doc))
        code, _, err = run(capsys, "sample", "--net", str(net), "--rows", "5")
        assert code == 2
        assert field in err


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

    def test_oversized_population_is_usage_error(self, tmp_path):
        # 2e9 orderings of 200 nodes; the child runs out of its 512 MiB
        # while the first species is set up
        data = tmp_path / "data.csv"
        rows = np.random.default_rng(0).integers(0, 2, size=(5, 200))
        save_dataset(Dataset([Variable(f"V{i}", 2) for i in range(200)], rows), data)
        cfg = tmp_path / "ga.json"
        cfg.write_text(json.dumps({"population_size": 2_000_000_000}))
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "coevobn.cli", "learn-ccga", "--data", str(data),
             "--config", str(cfg), "--out", str(tmp_path / "out")],
            env=capped_env(), preexec_fn=partial(cap_address_space, 512 << 20),
            capture_output=True, text=True, timeout=120)
        assert time.monotonic() - start < 60
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "population_size = 2000000000 over 200 nodes and 19900 edge bits" \
            in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_no_cache_flag_is_gone(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("A:2,B:2\n0,1\n1,1\n")
        code, _, _ = run(capsys, "learn-ccga", "--data", str(data), "--no-cache")
        assert code == 2

    def test_seed_flag_overrides_config_seed(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("A:2,B:2,C:2\n0,1,1\n1,1,0\n1,0,0\n0,0,1\n")
        outputs = []
        for doc, flags in [({"seed": 4}, []), ({"seed": 0}, ["--seed", "4"])]:
            cfg = tmp_path / "ga.json"
            cfg.write_text(json.dumps({"generations": 2, "population_size": 4,
                                       **doc}))
            out = tmp_path / f"out{len(outputs)}"
            code, _, _ = run(capsys, "learn-ccga", "--data", str(data),
                             "--config", str(cfg), "--out", str(out), *flags)
            assert code == 0
            outputs.append([(out / name).read_bytes() for name in
                            ("ccga_structure.json", "ccga_trace.csv")])
        assert outputs[0] == outputs[1]


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

    @pytest.mark.parametrize("sizes", [[10, 10], [100, 30, 100]])
    def test_repeated_sample_size_is_usage_error(self, capsys, tmp_path, sizes):
        """Run seeds derive from (master seed, size, run), so a repeated size
        would repeat its runs, duplicate their rows and overwrite their
        files; it is refused before anything is written."""
        out = tmp_path / "out"
        cfg = self.write_config(tmp_path, out, sample_sizes=sizes)
        code, stdout, err = run(capsys, "compare", "--config", str(cfg))
        assert code == 2
        assert f"sample_sizes repeats the size {sizes[0]}" in err
        assert stdout == ""
        assert not out.exists()

    def test_compare_without_config_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compare")
        assert code == 2
        assert "config" in err

    @pytest.mark.parametrize("overrides, field", [
        ({"ga": {"generations": 3, "popsize": 6}}, "popsize"),
        ({"ga": {"parallel_eval": True}}, "parallel_eval"),
        ({"k2": {"max_parent": 3}}, "max_parent"),
        ({"deterministic_output": False}, "deterministic_output"),
    ])
    def test_unknown_key_is_usage_error(self, capsys, tmp_path, overrides,
                                        field):
        cfg = self.write_config(tmp_path, tmp_path / "out", **overrides)
        code, _, err = run(capsys, "compare", "--config", str(cfg))
        assert code == 2
        assert field in err

    @pytest.mark.parametrize("block, settings", [
        ("ga", {"generations": 3, "population_size": 6}), ("k2", {"max_parents": 3}),
    ], ids=["ga", "k2"])
    def test_run_seed_other_than_zero_is_usage_error(self, capsys, tmp_path, block,
                                                     settings):
        # every run's GA and K2 seeds derive from master_seed, so a seed
        # set in the block would be silently replaced
        out = tmp_path / "out"
        cfg = self.write_config(tmp_path, out, **{block: {**settings, "seed": 2}})
        code, stdout, err = run(capsys, "compare", "--config", str(cfg))
        assert code == 2
        assert f"{block}.seed must be 0" in err
        assert stdout == "" and not (out / "runs.csv").exists()
        cfg = self.write_config(tmp_path, out, **{block: {**settings, "seed": 0}})
        code, stdout, _ = run(capsys, "compare", "--config", str(cfg))
        assert code == 0 and "ccga_mean=" in stdout

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
        ({"k2": {"ordering": 5}}, "ordering"),
        ({"k2": {"ordering": None}}, "ordering"),
        ({"k2": {"ordering": "randomly"}}, "ordering"),
        ({"k2": {"ordering": [0.5, 1.7, 2, 3]}}, "ordering"),
        ({"k2": {"ordering": [True, False, 2, 3]}}, "ordering"),
        ({"k2": {"ordering": [0, 0, 1, 2]}}, "ordering"),
        ({"k2": {"ordering": [0, 1, 2]}}, "ordering"),
    ])
    def test_wrong_typed_value_is_usage_error(self, capsys, tmp_path, overrides,
                                              field):
        cfg = self.write_config(tmp_path, tmp_path / "out", **overrides)
        code, _, err = run(capsys, "compare", "--config", str(cfg))
        assert code == 2
        assert field in err
        assert not (tmp_path / "out" / "runs.csv").exists()


# Malformed tokens the fuzz cases draw from: header arities, data cells,
# JSON arities, parent indices and CPT cells.
BAD_ARITY_TEXT = ["0", "1", "-1", "2.5", "", "x", "1e3", "0x2", " 3",
                  str(scoring.DENSE_CELLS + 1), "9" * 30, "9" * 5000]
BAD_CELL_TEXT = ["-1", "2", "1.5", "", "a", "1e2", "9" * 30, "9" * 5000, "\x00"]
BAD_JSON_ARITY = [0, 1, -2, 2.5, "2", True, None, 10 ** 30, scoring.DENSE_CELLS + 1]
BAD_PARENT = [-1, 10 ** 30, 0.5, "0", None, True]
BAD_PROBABILITY = [-0.1, 1.5, float("nan"), float("inf"), 10 ** 400, "0.5",
                   None, True, [0.5]]


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _fuzz_csv(rng, arities, rows):
    """The bytes of a dataset file over `arities` with one malformation, or
    none in about one case in four."""
    header = [f"X{i}:{a}" for i, a in enumerate(arities)]
    body = [[str(v) for v in row] for row in rows.tolist()]
    if rng.random() < 3 / 4:
        kind = int(rng.integers(10))
        col = int(rng.integers(len(header)))
        if kind == 0:
            header[col] = header[col].replace(":", "")
        elif kind == 1:
            header[col] = ":" + header[col].partition(":")[2]
        elif kind == 2:
            header[col] = f"X{col}:{_pick(rng, BAD_ARITY_TEXT)}"
        elif kind == 3:
            header[col] = header[0]
        elif kind == 4:
            header.append("")
        elif body and kind == 5:
            _pick(rng, body)[col] = _pick(rng, BAD_CELL_TEXT)
        elif body and kind == 6:
            row = _pick(rng, body)
            row.pop() if rng.random() < 0.5 else row.append("0")
        elif kind == 7:
            body = []
        elif kind == 8:
            return b"\xff\xfe" + ",".join(header).encode()
        else:
            return b"" if rng.random() < 0.5 else b"X0:2,\x00\n0,\x00\n"
    lines = [",".join(header)] + [",".join(row) for row in body]
    return ("\n".join(lines) + "\n").encode()


def _fuzz_network(rng, net):
    """The bytes of a network file for `net` with one malformation, or none
    in about one case in four."""
    doc = {"variables": [{"name": v.name, "arity": v.arity} for v in net.variables],
           "parents": [list(ps) for ps in net.dag.parents],
           "cpts": [t.tolist() for t in net.cpts]}
    n = len(doc["variables"])
    if rng.random() < 3 / 4:
        kind = int(rng.integers(11))
        i = int(rng.integers(n))
        if kind == 0:
            doc["variables"][i]["arity"] = _pick(rng, BAD_JSON_ARITY)
        elif kind == 1:
            doc["variables"][i].pop("name" if rng.random() < 0.5 else "arity")
        elif kind == 2:
            doc["parents"][i].append(i)  # a self-loop
        elif kind == 3 and n > 1:
            doc["parents"][i].append((i + 1) % n)
            doc["parents"][(i + 1) % n].append(i)  # a two-cycle
        elif kind == 4:
            doc["parents"][i].append(_pick(rng, BAD_PARENT))
        elif kind == 5:
            doc["parents"].pop()
        elif kind == 6:
            doc["cpts"][i][0][0] = _pick(rng, BAD_PROBABILITY)
        elif kind == 7:
            doc["cpts"][i].append(doc["cpts"][i][0])  # one row too many
        elif kind == 8:
            doc["cpts"] = None
        elif kind == 9:
            return json.dumps(_pick(rng, [[doc], {"variables": []}])).encode()
        else:
            text = json.dumps(doc).encode()
            return _pick(rng, [text[:len(text) // 2], b"[" * 100_000,
                               b'{"variables": 1' + b"0" * 5000 + b"}", b"\xff"])
    return json.dumps(doc).encode()


def fuzz_cli(seed, cases, workdir):
    """Feed `cases` seeded malformed dataset headers, cells, arities and
    network files to `score`, `learn-k2` and `sample` through cli_main in
    this process. Print one JSON object: the exit codes seen and every case
    that exited other than 0 or 2, or printed a traceback."""
    rng = np.random.default_rng(seed)
    work = Path(workdir)
    exits, failures = {}, []
    for case in range(cases):
        n = int(rng.integers(1, 6))
        net = random_network(n, 3, 0.5, int(rng.integers(1000)))
        rows = ancestral_sample(net, int(rng.integers(1, 30)), case).rows
        net_file, data_file = work / f"net{case}.json", work / f"data{case}.csv"
        net_file.write_bytes(_fuzz_network(rng, net))
        data_file.write_bytes(_fuzz_csv(rng, net.arities, rows))
        argv = [str(arg) for arg in [
            ["score", "--net", net_file, "--data", data_file],
            ["learn-k2", "--data", data_file, "--max-parents",
             _pick(rng, ["0", "2", "-1"])],
            ["sample", "--net", net_file, "--rows",
             _pick(rng, ["1", "3", "0", "-1", str(10 ** 20)])],
        ][case % 3]]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv)
        except Exception:
            code = None
            err.write(traceback.format_exc())
        exits[str(code)] = exits.get(str(code), 0) + 1
        if code not in (0, 2) or "Traceback" in err.getvalue():
            failures.append({"argv": argv, "code": code,
                             "stderr": err.getvalue()[-2000:]})
    print(json.dumps({"exits": exits, "failures": failures}))


class _Overrun(BaseException):
    """A fuzz case ran past its time limit; no handler in cli_main catches it."""


def _overrun(signum, frame):
    raise _Overrun


def _size_requests(rng, cases, work):
    """`cases` seeded size requests to `random-net`, `learn-ccga` and
    `compare`: node counts, arities and population sizes that are small, at
    the bound the request is checked against, and past it."""
    node_bound = sys.maxsize // NODE_BYTES  # random_network's first estimate
    pop_bound = sys.maxsize // (8 * 5 + 10)  # two species over 5 nodes, 10 bits
    nodes = [1, 2, 3, node_bound, node_bound + 1, 10 ** 12, 10 ** 20]
    arities = [2, 3, 5, scoring.DENSE_CELLS, scoring.DENSE_CELLS + 1, 10 ** 20]
    populations = [2, 4, 10, pop_bound - pop_bound % 2,
                   pop_bound + 2 - pop_bound % 2, 2 ** 62, 10 ** 30]
    for case in range(cases):
        config = work / f"config{case}.json"
        if case % 3 == 0:
            yield ["random-net", "--nodes", _pick(rng, nodes), "--max-arity",
                   _pick(rng, arities), "--seed", int(rng.integers(1000)),
                   "--out-file", work / f"net{case}.json"]
        elif case % 3 == 1:
            config.write_text(json.dumps(
                {"generations": 2, "population_size": _pick(rng, populations)}))
            yield ["learn-ccga", "--data", work / "data.csv", "--config", config]
        else:
            config.write_text(json.dumps({
                "generator": {"nodes": int(rng.integers(2, 4)),
                              "max_arity": _pick(rng, arities),
                              "seed": int(rng.integers(1000))},
                "sample_sizes": [20], "runs": 2,
                "ga": {"generations": 2, "population_size": 4}}))
            yield ["compare", "--config", config, "--out", work / f"cmp{case}"]


def _count_requests(rng, cases, work):
    """`cases` seeded node counts for `enumerate` and `count-dags`: around
    ENUMERATION_LIMIT and COUNT_LIMIT, and 0, -1 and 10**20. `enumerate`
    gets them as a dataset's columns, clamped to 0..COUNT_LIMIT + 1."""
    counts = [0, -1, 1, ENUMERATION_LIMIT - 1, ENUMERATION_LIMIT,
              ENUMERATION_LIMIT + 1, COUNT_LIMIT - 1, COUNT_LIMIT, COUNT_LIMIT + 1,
              10 ** 20]
    for case in range(cases):
        n = _pick(rng, counts)
        if case % 2 == 0:
            columns = min(max(n, 0), COUNT_LIMIT + 1)
            data = work / f"count{case}.csv"
            data.write_text("\n".join(
                [",".join(f"X{i}:2" for i in range(columns))]
                + [",".join(map(str, row))
                   for row in rng.integers(0, 2, size=(30, columns)).tolist()]) + "\n")
            yield ["enumerate", "--data", data]
        else:
            yield ["count-dags", n]


def fuzz_sizes(seed, cases, count_cases, workdir, seconds=20):
    """Feed `cases` seeded size requests (_size_requests) and then
    `count_cases` node counts from their own generator (_count_requests)
    through cli_main in this process. Print one JSON object: the exit codes
    seen and every case that exited other than 0 or 2, printed a traceback
    or ran past `seconds`."""
    work = Path(workdir)
    data = ancestral_sample(random_network(5, 3, 0.4, 1), 30, 1)
    save_dataset(data, work / "data.csv")
    requests = chain(_size_requests(np.random.default_rng(seed), cases, work),
                     _count_requests(np.random.default_rng(seed + 1), count_cases, work))
    exits, failures = {}, []
    signal.signal(signal.SIGALRM, _overrun)
    for argv in requests:
        argv = [str(arg) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        start = time.monotonic()
        try:
            signal.alarm(seconds)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv)
        except _Overrun:
            code = "overrun"
        except Exception:
            code = None
            err.write(traceback.format_exc())
        finally:
            signal.alarm(0)
        exits[str(code)] = exits.get(str(code), 0) + 1
        if code not in (0, 2) or "Traceback" in err.getvalue():
            failures.append({"argv": argv, "code": code,
                             "seconds": round(time.monotonic() - start, 1),
                             "stderr": err.getvalue()[-2000:]})
    print(json.dumps({"exits": exits, "failures": failures}))


class TestFuzz:
    def test_malformed_inputs_exit_0_or_2_without_a_traceback(self, tmp_path):
        cases = 300
        code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
                f"from test_cli import fuzz_cli; fuzz_cli(7, {cases}, {str(tmp_path)!r})")
        proc = subprocess.run([sys.executable, "-c", code], env=capped_env(),
                              preexec_fn=cap_address_space, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["failures"] == []
        assert sum(result["exits"].values()) == cases
        assert result["exits"]["0"] > 0 and result["exits"]["2"] > 0

    def test_oversized_requests_exit_0_or_2_promptly(self, tmp_path):
        cases, count_cases = 45, 12
        code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
                f"from test_cli import fuzz_sizes; "
                f"fuzz_sizes(11, {cases}, {count_cases}, {str(tmp_path)!r})")
        proc = subprocess.run([sys.executable, "-c", code], env=capped_env(),
                              preexec_fn=cap_address_space, capture_output=True,
                              text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["failures"] == []
        assert sum(result["exits"].values()) == cases + count_cases
        assert result["exits"]["0"] > 0 and result["exits"]["2"] > 0
