"""K2 greedy search, exhaustive enumeration, and the exact DAG counter."""

import sys

import numpy as np
import pytest

from coevobn import baselines, scoring
from coevobn.baselines import COUNT_LIMIT
from coevobn import (
    Dag,
    EmptyDataError,
    K2Config,
    ValidationError,
    ancestral_sample,
    bde_log_score,
    count_dags,
    enumerate_dags,
    exhaustive_best,
    k2_learn,
    local_log_score,
    prequential_log_score,
    random_network,
    score_all_dags,
)
from helpers import dataset, random_instance, reference_k2

KNOWN_COUNTS = {1: 1, 2: 3, 3: 25, 4: 543, 5: 29281, 6: 3781503}


class TestCountDags:
    @pytest.mark.parametrize("n,expected", sorted(KNOWN_COUNTS.items()))
    def test_known_values(self, n, expected):
        assert count_dags(n) == expected

    def test_ten_nodes_to_two_significant_figures(self):
        assert f"{count_dags(10):.1e}" == "4.2e+18"

    def test_requires_positive_n(self):
        with pytest.raises(ValidationError):
            count_dags(0)

    def test_refuses_more_than_the_limit(self):
        with pytest.raises(ValidationError, match=str(COUNT_LIMIT)):
            count_dags(COUNT_LIMIT + 1)


class TestEnumerateDags:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_count_matches_recursion(self, n):
        dags = list(enumerate_dags(n))
        assert len(dags) == count_dags(n)
        assert len(set(dags)) == len(dags)  # exactly once each

    def test_two_node_structures_explicit(self):
        got = set(d.parents for d in enumerate_dags(2))
        assert got == {((), ()), ((), (0,)), ((1,), ())}

    def test_refuses_large_n(self):
        with pytest.raises(ValidationError, match="super-exponential"):
            next(enumerate_dags(6))

    @pytest.mark.parametrize("probe, message", [
        (lambda: enumerate_dags(6), "super-exponential"),
        (lambda: enumerate_dags(2.0), "node count must be an integer"),
        (lambda: score_all_dags(dataset([2] * 6, [[0] * 6])), "super-exponential"),
    ], ids=["enumerate-6", "enumerate-float", "score-all-6"])
    def test_node_count_is_checked_at_the_call(self, probe, message):
        with pytest.raises(ValidationError, match=message):
            probe()  # not iterated


class TestScoreAllDags:
    @pytest.mark.parametrize("n", [3, 4])
    def test_memoized_scores_equal_fresh_scores(self, n):
        rng = np.random.default_rng(n)
        arities = [2, 3, 2, 3][:n]
        data = dataset(arities, np.stack(
            [rng.integers(0, a, size=60) for a in arities], axis=1))
        scored = list(score_all_dags(data))
        assert [dag for dag, _ in scored] == list(enumerate_dags(n))
        for dag, score in scored:
            assert score == bde_log_score(data, dag)


def deterministic_copy_data(rows_per_value=100):
    """Two binary columns with X2 identical to X1, balanced."""
    rows = [[0, 0]] * rows_per_value + [[1, 1]] * rows_per_value
    return dataset([2, 2], rows)


class TestK2:
    def test_learns_edge_along_ordering(self):
        data = deterministic_copy_data()
        dag, _ = k2_learn(data, K2Config(ordering=[0, 1]))
        assert dag.parents == ((), (0,))
        # independent check: the sequential oracle also prefers the edge
        assert prequential_log_score(data, dag) > \
            prequential_log_score(data, Dag(2, [(), ()]))

    def test_reversed_ordering_reverses_edge(self):
        data = deterministic_copy_data()
        dag, _ = k2_learn(data, K2Config(ordering=[1, 0]))
        assert dag.parents == ((1,), ())

    def test_zero_max_parents_gives_empty_graph(self):
        data = deterministic_copy_data()
        dag, _ = k2_learn(data, K2Config(ordering=[0, 1], max_parents=0))
        assert dag.edge_count == 0

    def test_edges_respect_ordering_and_parent_cap(self):
        rng = np.random.default_rng(6)
        data, _ = random_instance(rng, max_nodes=4, max_rows=200)
        order = list(np.random.default_rng(1).permutation(data.n_cols))
        cap = 2
        dag, _ = k2_learn(data, K2Config(ordering=order, max_parents=cap))
        position = {node: p for p, node in enumerate(order)}
        for parent, child in dag.edges():
            assert position[parent] < position[child]
        assert all(len(ps) <= cap for ps in dag.parents)

    @staticmethod
    def or_data():
        rng = np.random.default_rng(8)
        rows = rng.integers(0, 2, size=(300, 4))
        rows[:, 3] = rows[:, 0] | rows[:, 1]  # detectable one parent at a time
        return dataset([2] * 4, rows)

    def test_accepted_steps_strictly_improve(self):
        data = self.or_data()
        dag, _ = k2_learn(data, K2Config(ordering=[0, 1, 2, 3]))
        assert dag.edge_count  # at least one addition happened
        for node, parents in enumerate(dag.parents):
            if parents:
                assert local_log_score(data, node, parents) > \
                    local_log_score(data, node, ())

    @pytest.mark.parametrize("cap", [1, 10])
    def test_no_single_addition_improves_a_final_parent_set(self, cap):
        # K2's stopping rule: below max_parents, a node stops only once no
        # predecessor added to its parents strictly raises its local score
        data = self.or_data()
        order = [0, 1, 2, 3]
        dag, _ = k2_learn(data, K2Config(ordering=order, max_parents=cap))
        for pos, node in enumerate(order):
            parents = dag.parents[node]
            if len(parents) == cap:
                continue
            final = local_log_score(data, node, parents)
            for cand in order[:pos]:
                if cand not in parents:
                    grown = tuple(sorted(parents + (cand,)))
                    assert local_log_score(data, node, grown) <= final

    def test_score_matches_sum_of_local_scores(self):
        data = deterministic_copy_data()
        dag, score = k2_learn(data, K2Config(ordering=[0, 1]))
        expected = sum(local_log_score(data, node, dag.parents[node])
                       for node in range(2))
        assert score == pytest.approx(expected, rel=1e-12)

    def test_score_equals_rescoring_the_dag_exactly(self):
        net = random_network(8, 3, 0.4, seed=4)
        data = ancestral_sample(net, 400, seed=5)
        for seed in range(10):
            dag, score = k2_learn(data, K2Config(seed=seed, max_parents=3))
            assert score == bde_log_score(data, dag)

    def test_random_ordering_is_seeded(self):
        data = deterministic_copy_data()
        a = k2_learn(data, K2Config(seed=3))
        b = k2_learn(data, K2Config(seed=3))
        assert a == b

    def test_invalid_ordering_rejected(self):
        data = deterministic_copy_data()
        with pytest.raises(ValidationError):
            k2_learn(data, K2Config(ordering=[0, 0]))
        with pytest.raises(ValidationError):
            k2_learn(data, K2Config(ordering=[0, 1, 2]))

    def test_empty_dataset_rejected(self):
        empty = dataset([2, 2], np.zeros((0, 2), dtype=int))
        with pytest.raises(EmptyDataError):
            k2_learn(empty, K2Config())


def random_dataset(rng, max_nodes=12, max_rows=300, rows=None):
    """Random rows over 2..max_nodes columns of arity 2-5. Each cell of
    column j copies a random earlier column with probability 0.6, so that
    K2 finds parents; one column in four is an exact copy, so that
    candidates tie and K2's tie-break is exercised. `rows` fixes the row
    count, else it is drawn from 20..max_rows."""
    n = int(rng.integers(2, max_nodes + 1))
    arities = [int(a) for a in rng.integers(2, 6, size=n)]
    m = int(rng.integers(20, max_rows + 1)) if rows is None else rows
    rows = np.stack([rng.integers(0, a, size=m) for a in arities], axis=1)
    for j in range(1, n):
        src = int(rng.integers(0, j))
        if rng.random() < 0.25:
            arities[j] = arities[src]
            rows[:, j] = rows[:, src]
        else:
            copy = rng.random(m) < 0.6
            rows[copy, j] = rows[copy, src] % arities[j]
    return dataset(arities, rows)


def parity_dataset(rng, rows):
    """`rows` rows of eight binary columns; from the third on, each is the
    parity of up to three earlier columns with one bit in five flipped, so
    that K2 stacks several bit-counted parents in every slot order."""
    values = rng.integers(0, 2, size=(rows, 8))
    for j in range(2, 8):
        parents = rng.choice(j, size=min(j, 3), replace=False)
        values[:, j] = values[:, parents].sum(axis=1) % 2 ^ (rng.random(rows) < 0.2)
    return dataset([2] * 8, values)


def wide_arity_dataset(rng, rows):
    """`rows` rows of two columns of arity 2,049 among six of arity 2-5: a
    family of both has 2,049^2 cells, above DENSE_CELLS = 2^22, so K2 meets
    every route."""
    arities = [2049, 2049] + [int(a) for a in rng.integers(2, 6, size=4)]
    values = np.stack([rng.integers(0, a, size=rows) for a in arities], axis=1)
    values[:, 1] = values[:, 0]
    values[:, 3] = values[:, 2] % arities[3]
    return dataset(arities, values)


class TestK2IndexExtension:
    """k2_learn counts each candidate family from the chosen family's bit
    table, by extending the chosen parents' cell index, or with
    local_log_score; the per-candidate loop of tests/helpers.py is its
    oracle, and every DAG and score must match it bit for bit."""

    @pytest.mark.parametrize("dense_cells", [scoring.DENSE_CELLS, 40],
                             ids=["dense", "sparse-fallback"])
    def test_matches_the_per_candidate_oracle(self, monkeypatch, dense_cells):
        patched = dense_cells < scoring.DENSE_CELLS
        monkeypatch.setattr(scoring, "DENSE_CELLS", dense_cells)
        inserted = set()        # where candidates went relative to the chosen set
        sparse = []
        routes = set()          # how k2_learn scored a candidate family
        real_local = baselines.local_log_score
        real_table = scoring.table_log_score

        def spy_local(data, node, parents):
            sparse.append(len(parents))
            if parents:
                routes.add("local_log_score")
            return real_local(data, node, parents)

        def spy_table(counts, n_rows):
            # local_log_score's dense branch calls table_log_score too; of
            # extension_scores' calls, a stack of tables is the bit batch
            if sys._getframe(1).f_code is scoring.extension_scores.__code__:
                routes.add("bit batch" if counts.ndim == 3 else "index extension")
            return real_table(counts, n_rows)

        monkeypatch.setattr(baselines, "local_log_score", spy_local)
        monkeypatch.setattr(scoring, "local_log_score", spy_local)
        monkeypatch.setattr(scoring, "table_log_score", spy_table)

        def check(data, order):
            for cap in range(4):
                dag, score = k2_learn(data, K2Config(ordering=order, max_parents=cap))
                tried = []
                ref_dag, ref_score = reference_k2(data, order, cap, tried)
                assert dag == ref_dag
                assert score == ref_score
                for chosen, cand in tried:
                    k = sum(p < cand for p in chosen)
                    inserted.add("below" if k == 0 and chosen else
                                 "above" if k == len(chosen) else "between")

        rng = np.random.default_rng(21)
        for _ in range(25):
            data = random_dataset(rng)
            order = [int(v) for v in rng.permutation(data.n_cols)]
            check(data, order)
        assert inserted == {"below", "between", "above"}
        # parentless starts only, unless a family crossed DENSE_CELLS
        assert (max(sparse) > 0) == patched

        # both sides of the bit rule cells * ceil(m / 64) <= m, and families
        # above 2^22 cells
        for m in (63, 64, 65, 129, 1000):
            for make in [random_dataset] * 3 + [parity_dataset] * 6 + [wide_arity_dataset]:
                data = make(rng, rows=m)
                check(data, [int(v) for v in rng.permutation(data.n_cols)])
        assert routes == {"bit batch", "index extension", "local_log_score"}


class TestK2Golden:
    """DAGs and repr(score) of seeded K2 runs, pinned before K2 was
    rewritten as one ordered pass over the candidates: the rewrite and any
    later one must keep them bit for bit."""

    HEADLINE = [
        (((2, 5, 9), (0, 5, 6, 8), (6,), (6,), (), (2, 4), (), (), (6, 7), (5, 6)),
         "-7941.285722465849"),
        (((), (0, 8), (4,), (6,), (), (2, 4), (0, 1, 2, 5, 8), (8,), (), (0, 2, 5)),
         "-7985.628491508354"),
        (((), (0, 5, 6, 8), (), (6,), (2, 5), (0, 2, 9), (2,), (), (6, 7), (6,)),
         "-7906.327399991252"),
        (((), (0, 6), (6,), (6,), (2,), (0, 2, 4, 9), (9,), (), (6, 7), ()),
         "-8035.998686380963"),
        (((1,), (), (), (6,), (2,), (0, 2, 4, 9), (1, 2, 8), (), (1, 7), ()),
         "-8056.413159402531"),
    ]
    WIDE = [
        (((10, 23), (4, 12, 16, 22, 26), (), (4, 10, 18), (10, 26), (13, 21, 23),
          (), (4, 10), (), (4,), (2,), (), (0, 10, 23), (6, 21, 23),
          (3, 4, 10, 18), (5, 13, 21, 23), (4, 11, 26), (4, 25, 29), (6, 11),
          (11,), (6, 8, 16, 25, 29), (), (10, 11, 21), (11,), (10, 23, 25),
          (10, 23), (), (6, 11, 13, 17, 20, 23), (), ()),
         "-102205.13808739341"),
        (((10, 12, 23), (21,), (1, 16, 24), (), (7, 10, 11, 12, 16), (15, 23),
          (11, 15, 18, 24), (16,), (1, 16, 20, 25, 29), (4,), (1, 23, 24, 25),
          (1, 3, 15), (1, 25), (15, 21, 23), (3, 4, 10, 11), (), (), (3, 24),
          (3, 11, 14), (11,), (1, 16, 25), (), (1, 10, 12, 21), (11, 24, 25),
          (15, 21, 25), (1, 21), (1, 7, 15, 16, 29), (11, 13, 17, 20, 23), (),
          ()),
         "-102611.77529430068"),
    ]

    @staticmethod
    def check(data, expected):
        for seed, (parents, score) in enumerate(expected):
            dag, got = k2_learn(data, K2Config(seed=seed, max_parents=10))
            assert dag.parents == parents
            assert repr(got) == score

    def test_headline_instance(self):
        net = random_network(10, 3, 14 / 45, seed=6)
        self.check(ancestral_sample(net, 1000, seed=6), self.HEADLINE)

    def test_thirty_nodes_on_5000_rows(self):
        net = random_network(30, 3, 0.15, seed=30)
        self.check(ancestral_sample(net, 5000, seed=30), self.WIDE)


class TestExhaustiveBest:
    def test_single_variable(self):
        data = dataset([2], [[0], [1], [1]])
        dag, score = exhaustive_best(data)
        assert dag.parents == ((),)
        assert score == bde_log_score(data, dag)

    def test_three_nodes_scores_all_25(self):
        # the first of the 25 structures to reach the top score wins
        rng = np.random.default_rng(2)
        data = dataset([2] * 3, rng.integers(0, 2, size=(30, 3)))
        scored = list(score_all_dags(data))
        assert len(scored) == 25
        top = max(score for _, score in scored)
        assert exhaustive_best(data) == next(
            (dag, score) for dag, score in scored if score == top)

    def test_optimum_dominates_specific_structures(self):
        rng = np.random.default_rng(4)
        data = dataset([2] * 3, rng.integers(0, 2, size=(50, 3)))
        best, score = exhaustive_best(data)
        for dag in (Dag(3, [(), (), ()]), Dag(3, [(), (0,), (0, 1)]),
                    Dag(3, [(), (0,), (1,)])):
            assert score >= bde_log_score(data, dag)
        assert score == bde_log_score(data, best)

    def test_five_nodes(self):
        rng = np.random.default_rng(5)
        data = dataset([2, 3, 2, 3, 2], rng.integers(0, 2, size=(40, 5)))
        best, score = exhaustive_best(data)
        assert score == bde_log_score(data, best)
        assert score >= bde_log_score(data, Dag(5, [()] * 5))

    def test_refuses_more_than_five_nodes(self):
        data = dataset([2] * 6, np.zeros((3, 6), dtype=int))
        with pytest.raises(ValidationError, match="limit is 5"):
            exhaustive_best(data)
