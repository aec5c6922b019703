"""Acceptance suite: one test per criterion, each ending in a printed
PASS line with the measured numbers (run pytest -s to see them inline).

Criteria and pinned tolerances:
  1  exact DAG counts (6 -> 3,781,503; 10 -> 4.2e18 at 2 s.f.); brute-force
     enumeration matches the recursion for n <= 4; < 1 s
  2  closed-form score vs sequential oracle on 100 random instances,
     relative gap < 1e-9; < 10 s
  3  hand-derived spot scores ln(1/6) and ln(1/2) within 1e-12
  4  10,000 random decodes at n in 3..12 all acyclic; encode/decode
     identity on all 543 four-node DAGs; < 30 s
  5  four-node chain, 500 rows, default engine parameters, 20 seeds:
     >= 90% of runs reach the enumerated optimum within 1e-9; < 5 min
  6  ten-node synthetic network (14 edges), 1000 rows, 20 paired runs at
     default parameters vs K2 (random orderings, max 10 parents):
     mean difference >= -0.1% of |K2 mean|, Welch p logged; < 20 min
  7  per-run best traces non-decreasing; identical config and seed give
     byte-identical runs.csv and report.json
  8  operator properties: tournament extremes, crossover position
     membership, expected flip count 1 +- 0.05 at 1/E, swap closure,
     elitist replacement guarantees
"""

import math
import time

import numpy as np
import pytest

from coevobn import (
    ExperimentConfig,
    GaConfig,
    K2Config,
    ancestral_sample,
    bde_log_score,
    bit_flip_mutation,
    count_dags,
    cycle_crossover,
    decode,
    elitist_replace,
    encode_dag,
    enumerate_dags,
    evolve,
    exhaustive_best,
    local_log_score,
    prequential_log_score,
    run_comparison,
    swap_mutation,
    tournament_select,
    triangular_size,
    two_point_crossover,
)
from helpers import chain4, dataset, random_instance


def test_criterion_1_dag_count_oracle():
    t0 = time.perf_counter()
    assert count_dags(6) == 3_781_503
    assert f"{count_dags(10):.1e}" == "4.2e+18"
    enumerated = {n: sum(1 for _ in enumerate_dags(n)) for n in (1, 2, 3, 4)}
    for n, total in enumerated.items():
        assert total == count_dags(n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\ncriterion 1: PASS count_dags(6)=3781503, count_dags(10)~4.2e18, "
          f"enumeration matches for n<=4 ({elapsed:.2f}s)")


def test_criterion_2_score_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        data, dag = random_instance(rng, max_nodes=4, max_rows=50)
        closed = bde_log_score(data, dag)
        sequential = prequential_log_score(data, dag)
        worst = max(worst, abs(closed - sequential) / abs(closed))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 10.0
    print(f"\ncriterion 2: PASS 100 instances, worst relative gap "
          f"{worst:.2e} ({elapsed:.2f}s)")


def test_criterion_3_closed_form_spot_values():
    two_rows = dataset([2], [[0], [1]])
    one_row = dataset([2], [[0]])
    got_two = local_log_score(two_rows, 0, ())
    got_one = local_log_score(one_row, 0, ())
    assert got_two == pytest.approx(math.log(1 / 6), abs=1e-12)
    assert got_one == pytest.approx(math.log(1 / 2), abs=1e-12)
    print(f"\ncriterion 3: PASS ln(1/6)={got_two:.12f}, ln(1/2)={got_one:.12f}")


def test_criterion_4_representation_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    decodes = 0
    for n in range(3, 13):
        for _ in range(1000):
            perm = tuple(rng.permutation(n).tolist())
            bits = rng.random(triangular_size(n)) < 0.5
            dag = decode((perm, bits))
            dag.topological_order()  # raises if cyclic
            decodes += 1
    assert decodes == 10_000

    four_node = 0
    for dag in enumerate_dags(4):
        assert decode(encode_dag(dag)) == dag
        four_node += 1
    assert four_node == 543
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\ncriterion 4: PASS {decodes} random decodes acyclic, "
          f"encode/decode identity on {four_node} DAGs ({elapsed:.1f}s)")


def test_criterion_5_global_optimum_recovery():
    t0 = time.perf_counter()
    net = chain4(seed=99)
    data = ancestral_sample(net, 500, seed=5)
    _, optimum = exhaustive_best(data)
    hits = 0
    for seed in range(20):
        state, _ = evolve(data, GaConfig(seed=seed))
        if abs(state.best_so_far.log_score - optimum) <= 1e-9:
            hits += 1
    elapsed = time.perf_counter() - t0
    assert hits >= 18
    assert elapsed < 300.0
    print(f"\ncriterion 5: PASS {hits}/20 runs reached the enumerated optimum "
          f"{optimum:.6f} ({elapsed:.0f}s)")


def test_criterion_6_headline_comparison(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        generator={"nodes": 10, "max_arity": 3, "edge_density": 14 / 45,
                   "seed": 6},  # 14 edges realized
        sample_sizes=[1000],
        runs=20,
        master_seed=20260809,
        ga=GaConfig(),
        k2=K2Config(max_parents=10),
        out_dir=str(tmp_path / "headline"),
    )
    entry = run_comparison(cfg)["results"][0]
    elapsed = time.perf_counter() - t0
    ccga_mean, k2_mean = entry["ccga"]["mean"], entry["k2"]["mean"]
    mean_diff = ccga_mean - k2_mean
    margin = -0.001 * abs(k2_mean)
    print(f"\ncriterion 6: ccga_mean={ccga_mean:.4f} "
          f"k2_mean={k2_mean:.4f} diff={mean_diff:.4f} "
          f"welch_p={entry['p_value_ccga_greater']:.6g} ({elapsed:.0f}s)")
    assert mean_diff >= margin
    assert elapsed < 1200.0
    print("criterion 6: PASS (non-inferiority satisfied, p-value logged above)")


def test_criterion_7_monotonicity_and_determinism(tmp_path):
    net_cfg = {"nodes": 5, "max_arity": 2, "edge_density": 0.4, "seed": 3}

    def experiment(out_dir):
        return ExperimentConfig(
            generator=net_cfg, sample_sizes=[200], runs=2, master_seed=17,
            ga=GaConfig(generations=6, population_size=10),
            k2=K2Config(), out_dir=str(out_dir))

    # per-run traces are non-decreasing
    from coevobn import random_network
    data = ancestral_sample(random_network(**{
        "n": net_cfg["nodes"], "max_arity": net_cfg["max_arity"],
        "edge_density": net_cfg["edge_density"], "seed": net_cfg["seed"]}),
        200, seed=8)
    for seed in range(5):
        _, trace = evolve(data, GaConfig(generations=12, population_size=10,
                                         seed=seed))
        best = [r.best_score for r in trace.records]
        assert all(b >= a for a, b in zip(best, best[1:]))

    run_comparison(experiment(tmp_path / "a"))
    run_comparison(experiment(tmp_path / "b"))
    for name in ("runs.csv", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    print("\ncriterion 7: PASS traces monotone, reruns byte-identical")


def test_criterion_8_operator_properties():
    rng = np.random.default_rng(88)

    # tournament: best appears exactly twice, worst never
    members, fitness = ["a", "b", "c", "d"], np.array([5.0, 3.0, 8.0, 1.0])
    for seed in range(10):
        pool = tournament_select(members, fitness, np.random.default_rng(seed))
        assert pool.count("c") == 2 and pool.count("d") == 0

    # crossover position membership and closure
    for _ in range(500):
        n = int(rng.integers(2, 10))
        a = tuple(rng.permutation(n).tolist())
        b = tuple(rng.permutation(n).tolist())
        c1, c2 = cycle_crossover(a, b)
        for child in (c1, c2):
            assert sorted(child) == list(range(n))
            assert all(child[p] in (a[p], b[p]) for p in range(n))
        E = triangular_size(n)
        ga = (rng.random(E) < 0.5).tobytes()
        gb = (rng.random(E) < 0.5).tobytes()
        d1, d2 = two_point_crossover(ga, gb, rng)
        for child in (d1, d2):
            assert all(child[k] in (ga[k], gb[k]) for k in range(E))

    # expected flips at p_mb = 1/E over 10,000 trials
    n = 6
    E = triangular_size(n)
    zero = bytes(E)
    flips = np.array([sum(bit_flip_mutation(zero, 1.0 / E, rng))
                      for _ in range(10_000)])
    assert abs(flips.mean() - 1.0) < 0.05

    # swap-mutation closure
    for _ in range(500):
        n = int(rng.integers(2, 10))
        out = swap_mutation(tuple(rng.permutation(n).tolist()), 0.8, rng)
        assert sorted(out) == list(range(n))

    # elitist replacement: size preserved, previous best kept
    prev = ["e1", "e2", "e3", "e4"]
    offspring = ["o1", "o2", "o3", "o4"]
    members, fitness = elitist_replace(prev, np.array([-4.0, -2.0, -9.0, -5.0]),
                                       offspring, [-6.0, -1.0, -8.0, -3.0])
    assert len(members) == len(fitness) == 4
    assert members[0] == "e2" and "o3" not in members

    print(f"\ncriterion 8: PASS operator properties hold "
          f"(mean flips {flips.mean():.3f})")
