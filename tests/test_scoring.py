"""BDe scoring: counts, closed form, cache behavior, and the sequential oracle."""

import math
import re
import sys

import numpy as np
import pytest
from scipy.special import gammaln

from coevobn import scoring
from coevobn import (
    Dag,
    Dataset,
    EmptyDataError,
    LocalScoreCache,
    SchemaError,
    ValidationError,
    ancestral_sample,
    bde_log_score,
    count_stats,
    exhaustive_best,
    fit_network,
    load_dataset,
    local_log_score,
    prequential_log_score,
    save_dataset,
)
from coevobn.bayesnet import parent_config_index
from coevobn.encoding import masks_dag
from coevobn.scoring import extension_scores, score_parent_sets, table_log_score
from helpers import (
    chain3,
    dag_masks,
    dataset,
    distinct_parent_rows,
    joint_probability,
    parent_mask,
    random_instance,
    reference_local_score,
)

LN_HALF = math.log(0.5)
LN_SIXTH = math.log(1.0 / 6.0)


class TestCountStats:
    def test_parentless_tally(self):
        data = dataset([2], [[0], [1], [1]])
        counts = count_stats(data, 0, ())
        assert counts.tolist() == [[1, 2]]
        assert counts.sum(axis=1).tolist() == [3]

    def test_single_parent_tally(self):
        # column 0 is the parent, column 1 the child
        data = dataset([2, 2], [[0, 1], [1, 0]])
        counts = count_stats(data, 1, (0,))
        assert counts.tolist() == [[0, 1], [1, 0]]

    def test_row_totals_sum_to_dataset_size(self):
        rng = np.random.default_rng(0)
        data, dag = random_instance(rng, max_nodes=4, max_rows=1000)
        for node in range(data.n_cols):
            counts = count_stats(data, node, dag.parents[node])
            assert counts.sum(axis=1).sum() == data.n_rows

    def test_node_cannot_parent_itself(self):
        data = dataset([2, 2], [[0, 0]])
        with pytest.raises(ValidationError):
            count_stats(data, 0, (0,))

    def test_empty_dataset_rejected(self):
        data = dataset([2], np.zeros((0, 1), dtype=int))
        with pytest.raises(EmptyDataError):
            count_stats(data, 0, ())

    @pytest.mark.parametrize("node, parents, message", [
        (1, (3, -1), "parent index -1 outside 0..2"),
        (1, (5, 0), "parent index 5 outside 0..2"),
        (1, (2, 1, 0), "node 1 cannot be its own parent"),
        (3, (0,), "node index 3 outside 0..2"),
    ], ids=["negative", "too-large", "self-loop-inside", "node"])
    def test_bad_family_is_named(self, node, parents, message):
        data = dataset([2, 2, 2], [[0, 1, 0]])
        for score in (count_stats, local_log_score):
            with pytest.raises(ValidationError, match=re.escape(message)):
                score(data, node, parents)


def reference_counts(data, node, parents):
    """The dense (q, r) tally built row by row with parent_config_index."""
    arities = data.arities
    counts = np.zeros((math.prod(arities[p] for p in parents), arities[node]),
                      dtype=np.int64)
    for row in data.rows.tolist():
        counts[parent_config_index(row, parents, arities), row[node]] += 1
    return counts


def random_family(rng, max_nodes, max_parents, max_rows):
    """Random data (arities 2-5; about one draw in ten has a single row)
    and one random (node, unsorted parents) family on it."""
    n = int(rng.integers(2, max_nodes + 1))
    arities = [int(a) for a in rng.integers(2, 6, size=n)]
    m = 1 if rng.random() < 0.1 else int(rng.integers(1, max_rows + 1))
    data = dataset(arities, rng.integers(0, arities, size=(m, n)))
    node = int(rng.integers(n))
    others = [v for v in range(n) if v != node]
    k = int(rng.integers(0, min(max_parents, n - 1) + 1))
    parents = tuple(int(v) for v in rng.choice(others, k, replace=False))
    return data, node, parents


def word_boundary_families(rng, tmp_path):
    """(data, node, parents) at row counts around multiples of 64 bits and
    at 5,000 rows, over seven columns of arities 2-5, with each dataset
    built by Dataset(...), Dataset._adopt and load_dataset; the families
    have 0-4 parents, so their tables fall on both sides of count_stats'
    cells * words <= rows cut."""
    for m in (1, 63, 64, 65, 127, 128, 129, 5000):
        arities = [int(a) for a in rng.integers(2, 6, size=7)]
        rows = rng.integers(0, arities, size=(m, 7))
        built = dataset(arities, rows)
        save_dataset(built, tmp_path / f"rows{m}.csv")
        for data in (built,
                     Dataset._adopt(built.variables,
                                    np.array(rows, dtype=np.int64, order="F")),
                     load_dataset(tmp_path / f"rows{m}.csv")):
            for k in (0, 1, 1, 2, 2, 3, 4):
                node, *parents = (int(v) for v in rng.permutation(7)[:k + 1])
                yield data, node, tuple(parents)


class TestCountStatsDifferential:
    def test_matches_the_per_row_reference(self, tmp_path):
        rng = np.random.default_rng(5)
        families = [random_family(rng, 30, 6, 300) for _ in range(300)]
        families += word_boundary_families(rng, tmp_path)
        bit_side = set()
        for data, node, parents in families:
            counts = count_stats(data, node, parents)
            expected = reference_counts(data, node, sorted(parents))
            assert counts.dtype == np.int64 and counts.shape == expected.shape
            assert np.array_equal(counts, expected)
            assert local_log_score(data, node, parents) == \
                table_log_score(expected, data.n_rows)
            bit_side.add(counts.size * -(-data.n_rows // 64) <= data.n_rows)
        assert bit_side == {True, False}

    def test_rows_are_stored_column_major_and_read_only(self):
        for data in (dataset([2, 3, 4], [[0, 1, 2], [1, 2, 3]]),
                     ancestral_sample(chain3(), 50, seed=1)):
            rows = data.rows
            assert rows.dtype == np.int64 and rows.flags.f_contiguous
            assert not rows.flags.writeable


class TestBatchedBde:
    """K2 scores a stack of tables with one table_log_score call; each
    score must equal table_log_score of its table alone, bit for bit. The
    lengths cross numpy's pairwise-summation blocks (8 accumulators,
    128-element leaves)."""

    @pytest.mark.parametrize("length", [*range(1, 10), 15, 16, 17, 127, 128,
                                        129, 1000])
    def test_stacked_rows_sum_like_one_table(self, length):
        rng = np.random.default_rng(length)
        # (q, r) tables whose configurations, and whose cells, number `length`
        shapes = [(length, 2), (length, 3)] + ([(1, length)] if length > 1 else [])
        for k in (1, 2, 7, 30):
            for q, r in shapes:
                tables = rng.integers(0, 40, size=(k, q, r))
                tables[rng.random(tables.shape) < 0.3] = 0   # empty cells
                n_rows = int(tables.sum(axis=(1, 2)).max())
                scores = table_log_score(tables, n_rows)
                assert scores.shape == (k,)
                expected = [float(table_log_score(t, n_rows)) for t in tables]
                assert scores.tolist() == expected


class TestExtensionScores:
    """extension_scores(data, node, ps, cands)[i] is local_log_score of
    ps plus cands[i], bit for bit, whichever route its cells pick. With
    DENSE_CELLS at 40, the rows on both sides of fits_bits' cut send
    families down all three."""

    def test_equals_local_log_score_on_every_route(self, monkeypatch):
        monkeypatch.setattr(scoring, "DENSE_CELLS", 40)
        routes = set()
        real_local, real_table = scoring.local_log_score, scoring.table_log_score

        def spy_local(*args):
            if sys._getframe(1).f_code is extension_scores.__code__:
                routes.add("local_log_score")
            return real_local(*args)

        def spy_table(counts, n_rows):
            # a stack of tables is the bit batch; one table the index extension
            if sys._getframe(1).f_code is extension_scores.__code__:
                routes.add("bit batch" if counts.ndim == 3 else "index extension")
            return real_table(counts, n_rows)

        monkeypatch.setattr(scoring, "local_log_score", spy_local)
        monkeypatch.setattr(scoring, "table_log_score", spy_table)
        inserted = set()
        rng = np.random.default_rng(25)
        for m in (63, 64, 65, 1000):
            for _ in range(3):
                arities = [int(a) for a in rng.integers(2, 6, size=7)]
                data = dataset(arities, rng.integers(0, arities, size=(m, 7)))
                for k in (0, 1, 2, 2, 3):
                    node, *ps = (int(v) for v in rng.permutation(7)[:k + 1])
                    cands = [int(v) for v in rng.permutation(7)
                             if v != node and v not in ps]
                    got = extension_scores(data, node, ps, cands)
                    assert got == [local_log_score(data, node, (*ps, c)) for c in cands]
                    for c in cands:
                        below = sum(p < c for p in ps)
                        inserted.add("below" if below == 0 and ps else
                                     "above" if below == len(ps) else "between")
        assert inserted == {"below", "between", "above"}
        assert routes == {"bit batch", "index extension", "local_log_score"}

    def test_no_candidates_give_no_scores(self):
        data = dataset([2, 3, 2], [[0, 1, 0], [1, 2, 1]])
        assert extension_scores(data, 0, (2,), []) == []

    @pytest.mark.parametrize("node, parents", [
        (1, (3, -1)), (1, (5, 0)), (1, (2, 1, 0)), (3, (0,))])
    def test_invalid_family_raises_as_local_log_score(self, node, parents):
        data = dataset([2, 2, 2], [[0, 1, 0]])
        with pytest.raises(ValidationError) as expected:
            local_log_score(data, node, parents)
        with pytest.raises(ValidationError, match=re.escape(str(expected.value))):
            extension_scores(data, node, parents, [])


def row_wise_observed_score(data, node, parents):
    """The observed-pair score with the parent configurations numbered by
    np.unique over the rows of their values (lexicographic, first parent
    most significant): the reference for local_log_score's 1-D key."""
    r = data.arities[node]
    j = np.unique(data.rows[:, list(parents)], axis=0,
                  return_inverse=True)[1].reshape(-1)
    pairs = np.unique(j * r + data.rows[:, node], return_counts=True)[1]
    return scoring._bde(np.bincount(j), pairs, r, data.n_rows)


class TestObservedConfigurationFallback:
    @pytest.mark.parametrize("n_parents", [29, 66])
    def test_distinct_configurations_score_minus_ln_r_per_row(self, n_parents):
        # each row is alone in its parent configuration, so it adds
        # ln(1/2) = ln G(2) - ln G(3) + ln G(2) - ln G(1) to the family
        m = 200
        data = distinct_parent_rows(n_parents, m)
        parents = range(1, n_parents + 1)
        cells = 2 ** (n_parents + 1)
        assert cells > scoring.DENSE_CELLS
        with pytest.raises(ValidationError, match=f"{cells} cells"):
            count_stats(data, 0, parents)
        assert local_log_score(data, 0, parents) == \
            pytest.approx(-m * math.log(2), abs=1e-9)
        assert local_log_score(data, 0, parents) == \
            row_wise_observed_score(data, 0, parents)

    def test_observed_pairs_score_like_the_reference(self, monkeypatch):
        monkeypatch.setattr(scoring, "DENSE_CELLS", 0)
        rng = np.random.default_rng(6)
        for _ in range(100):
            data, node, parents = random_family(rng, 8, 5, 60)
            ps = sorted(parents)
            cells = math.prod(data.arities[p] for p in ps) * data.arities[node]
            with pytest.raises(ValidationError, match=f"node {node} .*{cells} cells"):
                count_stats(data, node, parents)
            assert local_log_score(data, node, parents) == \
                pytest.approx(reference_local_score(data, node, ps), abs=1e-9)
            assert local_log_score(data, node, parents) == \
                row_wise_observed_score(data, node, ps)

    @pytest.mark.parametrize("values", [1 << 14, 3], ids=["spread", "repeated"])
    def test_key_is_re_ranked_before_it_overflows(self, values):
        # six parents of arity 2^14 span 2^84 configurations: the key is
        # re-ranked before the fifth parent
        rng = np.random.default_rng(8)
        rows = rng.integers(0, values, size=(3000, 7))
        rows[:, 0] %= 5
        rows[:, 1] = (1 << 14) - 1 - rows[:, 1]  # the first parent's high values
        data = dataset([5] + [1 << 14] * 6, rows)
        parents = range(1, 7)
        assert local_log_score(data, 0, parents) == \
            row_wise_observed_score(data, 0, parents)

    def test_prequential_oracle_checks_a_family_above_the_limit(self):
        data = distinct_parent_rows(29, 200)
        dag = Dag(30, [range(1, 30)] + [()] * 29)
        assert prequential_log_score(data, dag) == \
            pytest.approx(bde_log_score(data, dag), abs=1e-9)

    def test_fit_network_refuses_a_table_above_the_limit(self):
        data = distinct_parent_rows(29, 200)
        dag = Dag(30, [range(1, 30)] + [()] * 29)
        with pytest.raises(ValidationError, match=r"node 0 .*1073741824 cells"):
            fit_network(data, dag)


class TestLocalLogScore:
    def test_one_observation_is_log_half(self):
        data = dataset([2], [[0]])
        assert local_log_score(data, 0, ()) == pytest.approx(LN_HALF, abs=1e-12)

    def test_two_distinct_observations_are_log_sixth(self):
        data = dataset([2], [[0], [1]])
        assert local_log_score(data, 0, ()) == pytest.approx(LN_SIXTH, abs=1e-12)

    def test_cache_returns_identical_value_without_recount(self):
        data = dataset([2, 2], [[0, 1], [1, 0], [1, 1]])
        cache = LocalScoreCache(data)
        first = score_parent_sets((0b0, 0b1), cache)  # node 1's parent is node 0
        assert (cache.hits + cache.misses, cache.misses, cache.hits) == (2, 2, 0)
        second = score_parent_sets((0b0, 0b1), cache)
        assert (cache.hits + cache.misses, cache.misses, cache.hits) == (4, 2, 2)
        assert first == second  # bit-identical

    def test_direct_read_counts_a_miss_and_no_negative_hits(self):
        data = dataset([2, 2], [[0, 1], [1, 0], [1, 1]])
        cache = LocalScoreCache(data)
        cache[0, 0b0]
        assert (cache.misses, cache.hits + cache.misses, cache.hits) == (1, 1, 0)
        score_parent_sets((0b0, 0b1), cache)
        assert (cache.misses, cache.hits + cache.misses, cache.hits) == (2, 3, 1)

    def test_cached_value_matches_fresh_recomputation(self):
        rng = np.random.default_rng(5)
        data, dag = random_instance(rng)
        cache = LocalScoreCache(data)
        for node, mask in enumerate(dag_masks(dag)):
            assert cache[node, mask] == \
                local_log_score(data, node, dag.parents[node])
        assert cache.misses == len(cache) == data.n_cols

    def test_mask_above_int64_reads_its_parent_tuple(self):
        rng = np.random.default_rng(70)
        arities = rng.integers(2, 4, size=70)
        data = dataset(arities, rng.integers(0, arities, size=(100, 70)))
        cache = LocalScoreCache(data)
        parents = (3, 64, 69)
        mask = parent_mask(parents)
        assert mask > 1 << 64
        assert cache[5, mask] == local_log_score(data, 5, parents)
        assert cache[5, mask] == local_log_score(data, 5, parents)  # now a hit
        assert (cache.misses, len(cache)) == (1, 1)


def gammaln_local_score(data, node, parents):
    """BDe local score with unit pseudo-counts in the Gamma-function form,
    over the dense reference tally."""
    counts = reference_counts(data, node, sorted(parents))
    r = data.arities[node]
    return float(np.sum(gammaln(r) - gammaln(r + counts.sum(axis=1)))
                 + np.sum(gammaln(1 + counts) - gammaln(1)))


class TestLogFactorialTable:
    @pytest.mark.parametrize("dense_cells", [scoring.DENSE_CELLS, 0],
                             ids=["dense", "sparse"])
    def test_matches_the_gammaln_form(self, monkeypatch, dense_cells):
        monkeypatch.setattr(scoring, "DENSE_CELLS", dense_cells)
        rng = np.random.default_rng(12)
        for _ in range(200):
            data, node, parents = random_family(rng, 8, 4, 300)
            assert local_log_score(data, node, parents) == \
                pytest.approx(gammaln_local_score(data, node, parents), rel=1e-12)

    @pytest.mark.parametrize("m", [1, 50, 5000])
    def test_counts_up_to_the_row_count(self, m):
        # every row in one cell, so the table is read at n_rows + r - 1
        data = dataset([3, 2], np.zeros((m, 2), dtype=int))
        for node, parents in [(0, ()), (0, (1,)), (1, (0,))]:
            assert local_log_score(data, node, parents) == \
                pytest.approx(gammaln_local_score(data, node, parents), rel=1e-12)

    def test_unobserved_row_adds_exactly_zero(self, monkeypatch):
        # parent value 1 never occurs: the dense table has an all-zero row
        # that the score from the observed pairs leaves out
        data = dataset([3, 2], [[0, 1], [2, 0], [0, 0], [2, 1], [2, 1], [0, 1]])
        assert count_stats(data, 1, (0,)).shape == (3, 2)
        dense = local_log_score(data, 1, (0,))
        monkeypatch.setattr(scoring, "DENSE_CELLS", 0)
        with pytest.raises(ValidationError, match="6 cells"):
            count_stats(data, 1, (0,))
        assert local_log_score(data, 1, (0,)) == dense
        assert scoring._log_factorials(2)[:2].tolist() == [0.0, 0.0]

    def test_table_grows_and_keeps_its_values(self, monkeypatch):
        monkeypatch.setattr(scoring, "_LOG_FACTORIALS", np.zeros(2))
        rng = np.random.default_rng(3)
        small = dataset([3, 2], rng.integers(0, 2, size=(50, 2)))
        large = dataset([3, 2], rng.integers(0, 2, size=(5000, 2)))
        first = local_log_score(small, 0, (1,))
        after_small = len(scoring._LOG_FACTORIALS)
        assert after_small >= 50 + 3
        local_log_score(large, 0, (1,))
        assert len(scoring._LOG_FACTORIALS) >= 5000 + 3 > after_small
        assert local_log_score(small, 0, (1,)) == first
        table = scoring._LOG_FACTORIALS
        assert table[:20].tolist() == [math.lgamma(j + 1) for j in range(20)]


class TestBdeLogScore:
    def test_two_independent_nodes_decompose(self):
        data = dataset([2, 2], [[0, 0], [1, 1]])
        score = bde_log_score(data, Dag(2, [(), ()]))
        assert score == pytest.approx(2 * LN_SIXTH, abs=1e-12)

    def test_single_row_is_sum_of_log_inverse_arities(self):
        data = dataset([2, 3], [[0, 2]])
        expected = math.log(1 / 2) + math.log(1 / 3)
        for dag in (Dag(2, [(), ()]), Dag(2, [(), (0,)]), Dag(2, [(1,), ()])):
            assert bde_log_score(data, dag) == pytest.approx(expected, abs=1e-12)

    def test_edge_addition_changes_exactly_one_local_term(self):
        rng = np.random.default_rng(11)
        data = dataset([2, 2, 2], rng.integers(0, 2, size=(80, 3)))
        before = Dag(3, [(), (0,), ()])
        after = Dag(3, [(), (0,), (1,)])  # adds 1 -> 2
        delta_total = bde_log_score(data, after) - bde_log_score(data, before)
        delta_local = (local_log_score(data, 2, (1,))
                       - local_log_score(data, 2, ()))
        assert delta_total == pytest.approx(delta_local, rel=1e-12)
        for node in (0, 1):
            assert local_log_score(data, node, before.parents[node]) == \
                local_log_score(data, node, after.parents[node])

    def test_dimension_mismatch(self):
        data = dataset([2, 2], [[0, 0]])
        with pytest.raises(SchemaError):
            bde_log_score(data, Dag(3, [(), (), ()]))

    def test_row_order_never_matters(self):
        rng = np.random.default_rng(3)
        data, dag = random_instance(rng, max_rows=60)
        shuffled = dataset([v.arity for v in data.variables],
                           data.rows[rng.permutation(data.n_rows)])
        assert bde_log_score(data, dag) == bde_log_score(shuffled, dag)

    def test_nonpositive_for_unit_prior(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            data, dag = random_instance(rng)
            assert bde_log_score(data, dag) <= 0.0

    def test_cache_transparent_for_whole_graphs(self):
        rng = np.random.default_rng(23)
        data, dag = random_instance(rng)
        assert score_parent_sets(dag_masks(dag), LocalScoreCache(data)) == \
            bde_log_score(data, dag)


def random_families(rng, n, count):
    """`count` families of parent masks over n nodes; a node's parents are
    any subset of the other nodes (acyclicity is not needed)."""
    families = []
    for _ in range(count):
        families.append(tuple(
            parent_mask(p for p in np.flatnonzero(rng.random(n) < 0.3) if p != node)
            for node in range(n)))
    return families


class TestScoreParentSetsCache:
    def setup_method(self):
        rng = np.random.default_rng(31)
        arities = [2, 3, 2, 3, 2]
        self.data = dataset(arities, rng.integers(0, arities, size=(60, 5)))
        self.families = random_families(rng, 5, 40)

    def score_twice(self, families, monkeypatch):
        """Score every family twice through one cache; return the totals,
        the cache, and the count_stats calls made."""
        calls = []
        real = scoring.count_stats
        monkeypatch.setattr(scoring, "count_stats",
                            lambda *args: calls.append(args) or real(*args))
        cache = LocalScoreCache(self.data)
        totals = [score_parent_sets(fam, cache)
                  for _ in range(2) for fam in families]
        return totals, cache, len(calls)

    def test_cached_totals_equal_uncached_and_counts_are_exact(self, monkeypatch):
        totals, cache, count_calls = self.score_twice(self.families, monkeypatch)
        uncached = [bde_log_score(self.data, masks_dag(fam)) for fam in self.families]
        assert totals == uncached + uncached  # bit-identical, both passes
        keys = {(node, m) for fam in self.families for node, m in enumerate(fam)}
        assert cache.misses == len(cache) == count_calls == len(keys)
        assert cache.hits + cache.misses == 2 * len(self.families) * 5

    def test_any_parent_sequence_scores_and_counts_like_sorted_tuples(
            self, monkeypatch):
        # numpy-integer masks hash and compare like Python-int masks
        baseline = self.score_twice(self.families, monkeypatch)
        changed = [tuple(np.int64(m) for m in fam) for fam in self.families]
        totals, cache, count_calls = self.score_twice(changed, monkeypatch)
        assert totals == baseline[0]
        assert (cache.hits, cache.misses, len(cache), count_calls) == \
            (baseline[1].hits, baseline[1].misses, len(baseline[1]), baseline[2])


class TestPrequentialOracle:
    def test_first_prediction_is_uniform(self):
        data = dataset([2], [[0]])
        assert prequential_log_score(data, Dag(1, [()])) == \
            pytest.approx(LN_HALF, abs=1e-12)

    def test_matches_closed_form_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            data, dag = random_instance(rng)
            closed = bde_log_score(data, dag)
            sequential = prequential_log_score(data, dag)
            assert abs(closed - sequential) / abs(closed) < 1e-9

    def test_row_order_exchangeable(self):
        rng = np.random.default_rng(13)
        data, dag = random_instance(rng, max_rows=40)
        shuffled = dataset([v.arity for v in data.variables],
                           data.rows[rng.permutation(data.n_rows)])
        assert prequential_log_score(data, dag) == \
            pytest.approx(prequential_log_score(shuffled, dag), rel=1e-12)

    def test_empty_dataset_rejected(self):
        data = dataset([2], np.zeros((0, 1), dtype=int))
        with pytest.raises(EmptyDataError):
            prequential_log_score(data, Dag(1, [()]))


class TestConsistencyAtDeskScale:
    def test_true_chain_beats_empty_and_complete_graphs(self):
        net = chain3(0.9)
        data = ancestral_sample(net, 5000, seed=31)
        truth = bde_log_score(data, net.dag)
        empty = bde_log_score(data, Dag(3, [(), (), ()]))
        complete = bde_log_score(data, Dag(3, [(), (0,), (0, 1)]))
        assert truth >= empty
        assert truth >= complete
        # and no structure among all 25 beats it by more than an
        # orientation tie
        _, optimum = exhaustive_best(data)
        assert truth <= optimum


class TestFitNetwork:
    def test_posterior_mean_hand_value(self):
        data = dataset([2], [[0], [1], [1]])
        net = fit_network(data, Dag(1, [()]))
        assert net.cpts[0][0].tolist() == pytest.approx([2 / 5, 3 / 5])

    def test_unseen_parent_configuration_stays_uniform(self):
        data = dataset([2, 2], [[0, 1], [0, 1]])  # parent value 1 never seen
        net = fit_network(data, Dag(2, [(), (0,)]))
        assert net.cpts[1][1].tolist() == pytest.approx([0.5, 0.5])

    def test_fitted_network_is_usable(self):
        rng = np.random.default_rng(9)
        data, dag = random_instance(rng, max_rows=40)
        net = fit_network(data, dag)
        assignment = [0] * data.n_cols
        assert 0.0 < joint_probability(net, assignment) <= 1.0

    def test_dimension_mismatch(self):
        data = dataset([2], [[0]])
        with pytest.raises(SchemaError):
            fit_network(data, Dag(2, [(), ()]))


def test_unit_hyperparameter_is_not_score_equivalent():
    # X -> Y and Y -> X encode the same independencies, yet with every
    # hyperparameter at 1 their scores differ on this two-row dataset:
    # exp(score) works out to 1/18 versus 1/24.
    data = dataset([2, 2], [[0, 0], [0, 1]])
    forward = bde_log_score(data, Dag(2, [(), (0,)]))
    backward = bde_log_score(data, Dag(2, [(1,), ()]))
    assert forward == pytest.approx(math.log(1 / 18), abs=1e-12)
    assert backward == pytest.approx(math.log(1 / 24), abs=1e-12)
    assert abs(forward - backward) > 0.1
