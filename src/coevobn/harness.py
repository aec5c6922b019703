"""Experiment orchestration: paired learner comparisons over seeded runs.

Each run draws its own dataset from the ground-truth network; the
coevolutionary learner and K2 consume the identical dataset within a run.
Per-run seeds are derived by mixing (master seed, sample size, run index,
stream tag) into a SeedSequence, so adding runs or sizes never perturbs
the randomness of existing ones.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .baselines import K2Config, k2_learn
from .bayesnet import (
    BayesianNetwork,
    Dag,
    ancestral_sample,
    load_dataset,
    load_network,
    load_structure,
    random_network,
    save_structure,
)
from .encoding import decode
from .errors import (
    SchemaError,
    ValidationError,
    check_keys,
    check_number,
    config_from_dict,
)
from .evolution import GaConfig, evolve
from .scoring import bde_log_score

_STREAM_DATASET = 0
_STREAM_CCGA = 1
_STREAM_K2 = 2

# random_network's arguments, "nodes" standing for n; it checks their values
_GENERATOR_FIELDS = ("nodes", "max_arity", "edge_density", "seed")


def derive_seed(master: int, *keys: int) -> int:
    """Stable per-run seed from the master seed and integer mixing keys."""
    words = np.random.SeedSequence([int(master), *[int(k) for k in keys]])
    return int(words.generate_state(1, np.uint64)[0])


def welch_one_tailed_t(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """One-tailed p-value for H1: mean(a) > mean(b), unequal variances.

    Uses the unequal-variance t statistic with Welch-Satterthwaite degrees
    of freedom; equal samples give exactly 0.5. This is the library's only
    use of scipy, imported here so that no other command pays for loading it.
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValidationError(
            f"both samples need >= 2 observations, got {a.size} and {b.size}"
        )
    va, vb = a.var(ddof=1), b.var(ddof=1)
    if va + vb == 0.0:
        raise ValidationError("both samples have zero variance; t is undefined")
    from scipy.special import stdtr

    se2 = va / a.size + vb / b.size
    t_stat = (a.mean() - b.mean()) / math.sqrt(se2)
    df = se2 ** 2 / ((va / a.size) ** 2 / (a.size - 1)
                     + (vb / b.size) ** 2 / (b.size - 1))
    p = float(stdtr(df, -t_stat))  # upper tail of Student's t
    return float(min(max(p, 5e-324), 1.0 - 1e-16))  # keep p inside (0, 1)


def score_structure(structure_path, dataset_path) -> float:
    """Score a stored structure (full network or structure-only file)
    against a stored dataset."""
    variables, dag = load_structure(structure_path)
    data = load_dataset(dataset_path)
    if [(v.name, v.arity) for v in variables] != \
            [(v.name, v.arity) for v in data.variables]:
        raise SchemaError(
            f"{structure_path} and {dataset_path} disagree on the variable "
            f"schema (names/arities must match)"
        )
    return bde_log_score(data, dag)


@dataclass
class ExperimentConfig:
    """Comparison experiment settings; mirrors the JSON config format."""

    network_file: str | None = None
    generator: dict | None = None        # nodes / max_arity / edge_density / seed
    sample_sizes: list[int] = field(default_factory=lambda: [1000])
    runs: int = 20
    master_seed: int = 0
    ga: GaConfig = field(default_factory=GaConfig)
    k2: K2Config = field(default_factory=K2Config)
    out_dir: str = "results"

    def validate(self) -> None:
        if (self.network_file is None) == (self.generator is None):
            raise ValidationError(
                "exactly one of network_file and generator must be given"
            )
        if self.generator is not None:
            check_keys(self.generator, _GENERATOR_FIELDS, "generator")
            if "nodes" not in self.generator:
                raise ValidationError("generator must give 'nodes'")
        check_number("runs", self.runs, integer=True, low=1)
        check_number("master_seed", self.master_seed, integer=True, low=0)
        if not isinstance(self.sample_sizes, list) or not self.sample_sizes:
            raise ValidationError(
                f"sample_sizes must be a non-empty list, got {self.sample_sizes!r}")
        for k, size in enumerate(self.sample_sizes):
            check_number("sample size", size, integer=True, low=1)
            if size in self.sample_sizes[:k]:
                # run seeds derive from (master_seed, size, run): a repeat
                # would rerun the same runs and overwrite their files
                raise ValidationError(f"sample_sizes repeats the size {size}")
        self.ga.validate()
        self.k2.validate()
        for name, seed in (("ga.seed", self.ga.seed), ("k2.seed", self.k2.seed)):
            if seed != 0:
                raise ValidationError(
                    f"{name} must be 0: per-run seeds derive from master_seed, "
                    f"got {seed!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        cfg = config_from_dict(cls, doc, "experiment config")
        cfg.ga = config_from_dict(GaConfig, doc.get("ga", {}), "ga config")
        cfg.k2 = config_from_dict(K2Config, doc.get("k2", {}), "k2 config")
        return cfg


def _summary(scores: list[float]) -> dict:
    """Mean, sample std (None for a single run), min and max, to 6 decimals."""
    arr = np.asarray(scores, dtype=float)
    std = round(float(arr.std(ddof=1)), 6) if arr.size > 1 else None
    return {"mean": round(float(arr.mean()), 6), "std": std,
            "min": round(float(arr.min()), 6), "max": round(float(arr.max()), 6)}


def _ground_truth(cfg: ExperimentConfig) -> BayesianNetwork:
    if cfg.network_file is not None:
        return load_network(cfg.network_file)
    gen = dict(cfg.generator)
    return random_network(gen.pop("nodes"), **gen)


def run_comparison(cfg: ExperimentConfig) -> dict:
    """Run the paired comparison and write runs.csv, report.json,
    mean-convergence traces, and best learned structures to cfg.out_dir.
    Returns the report that report.json holds.

    Incomplete experiments leave the rows completed so far flushed in
    runs.csv. Per-run wall times go to timings.csv only, so that reruns
    with the same seed give byte-identical runs.csv and report.json.
    """
    cfg.validate()
    ground = _ground_truth(cfg)
    if cfg.k2.ordering != "random" and len(cfg.k2.ordering) != ground.n:
        raise ValidationError(f"k2 ordering has {len(cfg.k2.ordering)} entries but "
                              f"the ground-truth network has {ground.n} nodes")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    results: list[dict] = []
    single_size = len(cfg.sample_sizes) == 1

    with open(out / "runs.csv", "w", newline="") as runs_f, \
            open(out / "timings.csv", "w", newline="") as timings_f:
        runs_f.write("algorithm,run,dataset,best_score\n")
        timings_f.write("algorithm,run,dataset,seconds\n")

        for size in cfg.sample_sizes:
            # Statistics over the 6-decimal values written to runs.csv, so a
            # reader of that file reproduces the report exactly.
            scores: dict[str, list[float]] = {"ccga": [], "k2": [], "original": []}
            best: dict[str, tuple[float, Dag]] = {}
            traces = []

            def record(algorithm: str, run: int, score: float, seconds: float,
                       dag: Dag) -> None:
                """Write and flush one run's rows; keep the best (score, dag),
                the earlier run winning ties."""
                key = f"{algorithm},{run},s{size}-r{run}"
                runs_f.write(f"{key},{score:.6f}\n")
                runs_f.flush()
                timings_f.write(f"{key},{seconds:.6f}\n")
                timings_f.flush()
                scores[algorithm].append(round(score, 6))
                if algorithm not in best or score > best[algorithm][0]:
                    best[algorithm] = (score, dag)

            for run in range(cfg.runs):
                data = ancestral_sample(
                    ground, size, derive_seed(cfg.master_seed, size, run,
                                              _STREAM_DATASET))

                ga_cfg = replace(cfg.ga, seed=derive_seed(
                    cfg.master_seed, size, run, _STREAM_CCGA))
                t0 = time.perf_counter()
                state, trace = evolve(data, ga_cfg)
                seconds = time.perf_counter() - t0
                sol = state.best_so_far
                record("ccga", run, sol.log_score, seconds,
                       decode((sol.perm, sol.bits)))
                traces.append(trace)

                k2_cfg = replace(cfg.k2, seed=derive_seed(
                    cfg.master_seed, size, run, _STREAM_K2))
                t0 = time.perf_counter()
                k2_dag, k2_score = k2_learn(data, k2_cfg)
                record("k2", run, k2_score, time.perf_counter() - t0, k2_dag)

                t0 = time.perf_counter()
                orig_score = bde_log_score(data, ground.dag)
                record("original", run, orig_score, time.perf_counter() - t0,
                       ground.dag)

            try:
                p_value = welch_one_tailed_t(scores["ccga"], scores["k2"])
            except ValidationError:  # fewer than two runs, or zero variance
                p_value = None
            results.append({
                "sample_size": size,
                **{algorithm: _summary(s) for algorithm, s in scores.items()},
                # from the unrounded means
                "mean_difference": round(float(np.mean(scores["ccga"]))
                                         - float(np.mean(scores["k2"])), 6),
                "p_value_ccga_greater": None if p_value is None
                else round(p_value, 6),
            })

            trace_name = "trace_mean.csv" if single_size else f"trace_mean_{size}.csv"
            _write_mean_trace(out / trace_name, traces)
            for algorithm in ("ccga", "k2"):
                save_structure(ground.variables, best[algorithm][1],
                               out / f"best_{algorithm}_{size}.json")

    report = {"master_seed": cfg.master_seed, "runs": cfg.runs,
              "results": results}
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


def _write_mean_trace(path, traces) -> None:
    best = np.array([[r.best_score for r in trace.records] for trace in traces])
    with open(path, "w", newline="") as f:
        f.write("generation,mean_best_score\n")
        for g, column in enumerate(best.T):
            f.write(f"{g},{column.mean():.6f}\n")

