"""Workloads of the coevobn benchmark: inputs from a seed, one timed body,
and the checks that the body's outputs are right.

Every workload fixes its ground-truth network (a constant generator seed),
so that two seeds differ only in the sampled data and in the GA/K2/master
seeds. With the network drawn from the seed, the score scale and the number
of distinct parent sets (cache misses) moved by 10 to 20 % between seeds on
the 30-node instance, more than the bounds the benchmark promises.

The library is reached through module attributes looked up at call time
(``evolution.evolve``, ``baselines.k2_learn``, ``cli.cli_main``), so the
traced run can wrap them from outside.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from coevobn import baselines, bayesnet, cli, encoding, evolution, scoring

# Relative agreement demanded of two computations of one score: the
# acceptance suite's closed-form vs sequential-oracle tolerance.
SCORE_RTOL = 1e-9


@dataclass(frozen=True)
class LearnWorkload:
    """Evolve from `ga_runs` seeds, then run K2 from a fixed set of seeded
    orderings, all on one dataset."""

    name: str
    nodes: int
    max_arity: int
    edge_density: float
    network_seed: int
    rows: int
    ga_runs: int
    generations: int
    population: int
    k2_orderings: int
    max_parents: int
    prequential_check: bool


@dataclass(frozen=True)
class CompareWorkload:
    """One in-process ``coevobn compare`` call on a generated network."""

    name: str
    nodes: int
    max_arity: int
    edge_density: float
    network_seed: int
    rows: int
    runs: int
    generations: int
    population: int
    max_parents: int


WORKLOADS = {
    # The paper's headline instance (acceptance criterion 6): 99.7 % of
    # local-score lookups hit the cache, so time goes to decoding, the hit
    # path and the operators rather than to counting.
    "paper-n10": LearnWorkload(
        name="paper-n10", nodes=10, max_arity=3, edge_density=14 / 45,
        network_seed=6, rows=1000, ga_runs=1, generations=250, population=100,
        k2_orderings=150, max_parents=10, prequential_check=True),
    # Many distinct parent sets over many rows: cache misses and count_stats
    # dominate both evolve and K2. Several short runs rather than one long
    # one: the number of misses of a single 30-generation run moved by 12 %
    # (coefficient of variation) between seeds, that of three 6-generation
    # runs by 3 %.
    "wide-n30": LearnWorkload(
        name="wide-n30", nodes=30, max_arity=3, edge_density=0.15,
        network_seed=30, rows=5000, ga_runs=3, generations=6, population=100,
        k2_orderings=4, max_parents=10, prequential_check=False),
    # The only path through cli and harness: per-run set-up, sampling,
    # file output and the Welch test, on a graph small enough that the
    # operators and per-generation bookkeeping dominate.
    "compare-n4": CompareWorkload(
        name="compare-n4", nodes=4, max_arity=2, edge_density=0.5,
        network_seed=6, rows=2000, runs=2, generations=250, population=100,
        max_parents=10),
}


def _sub_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


@dataclass
class LearnInputs:
    data: bayesnet.Dataset
    ga_cfgs: list
    k2_cfgs: list


@dataclass
class CompareInputs:
    config: dict
    master_seed: int


def generate(spec, seed: int):
    """Inputs of one workload; the same seed always gives the same inputs."""
    data_seed, ga_seed, k2_seed = _sub_seeds(seed, 3)
    if isinstance(spec, CompareWorkload):
        config = {
            "generator": {"nodes": spec.nodes, "max_arity": spec.max_arity,
                          "edge_density": spec.edge_density,
                          "seed": spec.network_seed},
            "sample_sizes": [spec.rows],
            "runs": spec.runs,
            "ga": {"generations": spec.generations,
                   "population_size": spec.population},
            "k2": {"max_parents": spec.max_parents},
        }
        return CompareInputs(config, data_seed)
    net = bayesnet.random_network(spec.nodes, spec.max_arity,
                                  spec.edge_density, spec.network_seed)
    data = bayesnet.ancestral_sample(net, spec.rows, data_seed)
    ga_cfgs = [evolution.GaConfig(generations=spec.generations,
                                  population_size=spec.population,
                                  seed=ga_seed + i)
               for i in range(spec.ga_runs)]
    k2_cfgs = [baselines.K2Config(max_parents=spec.max_parents, seed=k2_seed + i)
               for i in range(spec.k2_orderings)]
    return LearnInputs(data, ga_cfgs, k2_cfgs)


@dataclass
class Rep:
    """One timed execution of a workload body and what it produced."""

    wall_s: float
    evolve_s: float
    k2_s: float
    evaluations: int
    ccga_score: float
    k2_score: float
    outputs: object   # what the checks compare between repetitions


def run_once(spec, inputs, workdir: Path, index: int) -> Rep:
    if isinstance(spec, CompareWorkload):
        return _run_compare(spec, inputs, workdir / f"rep{index}")
    return _run_learn(inputs)


def _run_learn(inputs: LearnInputs) -> Rep:
    t0 = time.perf_counter()
    runs = [evolution.evolve(inputs.data, cfg) for cfg in inputs.ga_cfgs]
    t1 = time.perf_counter()
    k2 = [baselines.k2_learn(inputs.data, cfg) for cfg in inputs.k2_cfgs]
    t2 = time.perf_counter()
    bests = [state.best_so_far for state, _ in runs]
    evaluations = sum(r.evaluations for _, trace in runs for r in trace.records)
    return Rep(t2 - t0, t1 - t0, t2 - t1, evaluations,
               max(best.log_score for best in bests),
               max(score for _, score in k2), (bests, k2))


def _run_compare(spec: CompareWorkload, inputs: CompareInputs, out: Path) -> Rep:
    config_path = out.parent / "experiment.json"
    if not config_path.exists():
        config_path.write_text(json.dumps(inputs.config))
    argv = ["compare", "--config", str(config_path),
            "--seed", str(inputs.master_seed), "--out", str(out)]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        t0 = time.perf_counter()
        code = cli.cli_main(argv)
        wall = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"coevobn {' '.join(argv)} exited {code}")
    seconds = {"ccga": 0.0, "k2": 0.0}
    with open(out / "timings.csv", newline="") as f:
        for row in csv.DictReader(f):
            if row["algorithm"] in seconds:
                seconds[row["algorithm"]] += float(row["seconds"])
    runs_csv = (out / "runs.csv").read_text()
    report_text = (out / "report.json").read_text()
    shutil.rmtree(out)
    report = json.loads(report_text)["results"][0]
    evaluations = compare_evaluations(spec)
    return Rep(wall, seconds["ccga"], seconds["k2"], evaluations,
               report["ccga"]["mean"], report["k2"]["mean"],
               (runs_csv, report_text))


def compare_evaluations(spec: CompareWorkload) -> int:
    """Evaluations of one compare call. Its traces are not part of its
    output, so this follows evolve's collaborator scheme: every member of
    both species is evaluated once at generation 0 and twice (best and
    random collaborator) in every later generation. The traced run checks
    it against the count summed from the traces."""
    return spec.runs * spec.population * (2 + 4 * spec.generations)


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= SCORE_RTOL * max(1.0, abs(b))


def check(spec, inputs, rep: Rep, first: Rep | None,
          layers: dict | None) -> list[str]:
    """Problems found in one repetition's outputs (empty when all hold).

    `first` is the run's first good repetition; every later one must
    reproduce its outputs exactly, since all use the same seed. `layers`
    are the per-layer metrics of a traced repetition (None if untraced).
    """
    if isinstance(spec, CompareWorkload):
        problems = _check_compare(spec, rep)
        traced = (layers or {}).get("evolution.evaluations")
        if traced and traced != rep.evaluations:
            problems.append(f"compare evaluated {traced} pairs, but evals_per_s "
                            f"counts {rep.evaluations}")
        if first is not None and rep.outputs != first.outputs:
            problems.append("runs.csv/report.json differ from the first repetition")
        return problems
    problems = _check_learn(spec, inputs, rep, thorough=first is None)
    if first is not None and _scores(rep) != _scores(first):
        problems.append("scores differ from the first repetition")
    return problems


def _scores(rep: Rep):
    bests, k2 = rep.outputs
    return [best.log_score for best in bests], [score for _, score in k2]


def _check_learn(spec: LearnWorkload, inputs: LearnInputs, rep: Rep,
                 thorough: bool) -> list[str]:
    problems = []
    bests, k2 = rep.outputs
    for best in bests:
        dag = encoding.decode(encoding.combine(best.perm, best.bits))
        rescored = scoring.bde_log_score(inputs.data, dag)
        if not _close(best.log_score, rescored):
            problems.append(f"CCGA best {best.log_score!r} != bde_log_score "
                            f"of its DAG {rescored!r}")
        if thorough and spec.prequential_check:
            sequential = scoring.prequential_log_score(inputs.data, dag)
            if not _close(sequential, rescored):
                problems.append(f"prequential_log_score {sequential!r} != "
                                f"bde_log_score {rescored!r}")
    for k2_dag, k2_score in k2:
        rescored = scoring.bde_log_score(inputs.data, k2_dag)
        if not _close(k2_score, rescored):
            problems.append(f"K2 score {k2_score!r} != bde_log_score of its "
                            f"DAG {rescored!r}")
    return problems


def _check_compare(spec: CompareWorkload, rep: Rep) -> list[str]:
    runs_csv, _ = rep.outputs
    rows = runs_csv.splitlines()[1:]
    expected = 3 * spec.runs
    if len(rows) != expected:
        return [f"runs.csv has {len(rows)} rows, expected {expected}"]
    return []
