"""Genetic operators, credit assignment, and the full coevolution loop."""

import numpy as np
import pytest

from coevobn import (
    EngineError,
    GaConfig,
    ValidationError,
    ancestral_sample,
    bit_flip_mutation,
    cycle_crossover,
    elitist_replace,
    evaluate,
    evolve,
    exhaustive_best,
    init_binary_pop,
    init_permutation_pop,
    random_network,
    swap_mutation,
    tournament_select,
    trace_csv,
    triangular_size,
    two_point_crossover,
)
from coevobn import evolution
from coevobn.evolution import two_distinct
from coevobn.scoring import (
    LocalScoreCache,
    bde_log_score,
    prequential_log_score,
    score_parent_sets,
)
from coevobn.encoding import decode, decode_parents
from helpers import chain3, chain4, dataset, reference_cycle_crossover


def bools(digits):
    """An edge-bit vector written as a string of 0s and 1s."""
    return bytes(d == "1" for d in digits)


def random_order(rng, n):
    return tuple(rng.permutation(n).tolist())


class CutsRng:
    """Stands in for a Generator whose two_distinct draw gives the cut
    points `cuts` (boundaries 1..L): index cuts[0] - 1 from integers(0,
    L - 1), then cuts[1] - 1 from integers(0, L), then 1 (keep the order)."""

    def __init__(self, cuts):
        self.draws = [cuts[0] - 1, cuts[1] - 1, 1]

    def integers(self, low, high):
        value = self.draws.pop(0)
        assert low <= value < high
        return value


class TestConfig:
    def test_odd_population_rejected(self):
        with pytest.raises(ValidationError, match="even"):
            GaConfig(population_size=5).validate()

    def test_probability_bounds(self):
        with pytest.raises(ValidationError):
            GaConfig(p_c=1.5).validate()
        with pytest.raises(ValidationError):
            GaConfig(p_mb=-0.1).validate()

    # validate is the only check of these rules: the operators trust it
    @pytest.mark.parametrize("field, value", [
        ("p_mb", 1.5), ("p_mb", float("nan")),
        ("p_mp", 1.5), ("p_mp", -0.1), ("p_mp", float("nan")),
    ])
    def test_mutation_probability_outside_unit_interval(self, field, value):
        with pytest.raises(ValidationError, match=field):
            GaConfig(**{field: value}).validate()

    @pytest.mark.parametrize("size", [0, 1, 3, 101])
    def test_population_must_be_even_and_at_least_two(self, size):
        with pytest.raises(ValidationError, match="population_size"):
            GaConfig(population_size=size).validate()

    @pytest.mark.parametrize("field, value", [("p_mb", 1.0), ("p_mb", 0.0),
                                              ("p_mp", 1.0), ("p_mp", 0.0)])
    def test_mutation_probability_bounds_are_inclusive(self, field, value):
        GaConfig(**{field: value}).validate()

    def test_defaults_are_valid(self):
        GaConfig().validate()


class TestInitialization:
    def test_single_node_permutations(self):
        pop = init_permutation_pop(1, 6, np.random.default_rng(0))
        assert all(m == (0,) for m in pop)

    def test_permutation_invariant_holds(self):
        pop = init_permutation_pop(7, 30, np.random.default_rng(1))
        for m in pop:
            assert sorted(m) == list(range(7))

    def test_same_seed_same_population(self):
        a = init_permutation_pop(6, 10, np.random.default_rng(42))
        b = init_permutation_pop(6, 10, np.random.default_rng(42))
        assert a == b

    def test_binary_two_nodes_forced(self):
        pop = init_binary_pop(2, 8, np.random.default_rng(2))
        assert all(m == bools("1") for m in pop)

    def test_binary_members_are_trees(self):
        n = 4
        pop = init_binary_pop(n, 25, np.random.default_rng(3))
        perm = tuple(range(n))
        for m in pop:
            assert sum(m) == n - 1
            dag = decode((perm, m))
            in_degrees = [len(ps) for ps in dag.parents]
            assert in_degrees[perm[0]] == 0
            assert all(d == 1 for node, d in enumerate(in_degrees)
                       if node != perm[0])


class TestTournament:
    def test_best_twice_worst_never(self):
        members = ["a", "b", "c", "d"]
        pool = tournament_select(members, np.array([5.0, 3, 8, 1]),
                                 np.random.default_rng(0))
        assert len(pool) == 4
        assert pool.count("c") == 2
        assert pool.count("d") == 0

    def test_equal_fitness_counts(self):
        members = list("abcdef")
        for seed in range(10):
            pool = tournament_select(members, np.full(6, 2.0),
                                     np.random.default_rng(seed))
            counts = [pool.count(m) for m in members]
            assert sum(counts) == 6
            assert all(c in (0, 1, 2) for c in counts)


class TestTwoPointCrossover:
    def test_identical_parents_identical_children(self):
        g = bools("101100")
        c1, c2 = two_point_crossover(g, g, np.random.default_rng(0))
        assert c1 == g and c2 == g

    def test_worked_segment_swap(self):
        a = bools("000000")
        b = bools("111111")
        rng = CutsRng((4, 2))
        c1, c2 = two_point_crossover(a, b, rng)
        assert c1 == bools("001100")
        assert c2 == bools("110011")
        assert rng.draws == []

    def test_children_take_each_position_from_a_parent(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            E = triangular_size(n)
            a = (rng.random(E) < 0.5).tobytes()
            b = (rng.random(E) < 0.5).tobytes()
            c1, c2 = two_point_crossover(a, b, rng)
            for k in range(E):
                assert c1[k] in (a[k], b[k])
                assert c2[k] in (a[k], b[k])

    def test_minimum_length_two_still_crosses(self):
        a = bools("0")  # length-1 genome: degenerate copy
        b = bools("1")
        c1, c2 = two_point_crossover(a, b, np.random.default_rng(1))
        assert c1 is a and c2 is b


class TestTwoDistinct:
    @pytest.mark.parametrize("L", [2, 3, 10, 45, 4950])
    def test_same_draws_and_stream_as_choice(self, L):
        ours = np.random.default_rng(L)
        numpys = np.random.default_rng(L)
        for _ in range(500):
            got = two_distinct(L, ours)
            assert got == tuple(numpys.choice(L, 2, replace=False).tolist())
            assert all(type(v) is int for v in got)
            assert ours.random() == numpys.random()


class TestCycleCrossover:
    def test_identical_parents(self):
        g = (3, 1, 0, 2)
        c1, c2 = cycle_crossover(g, g)
        assert c1 == g and c2 == g

    def test_worked_nine_element_trace(self):
        # Classic 9-element instance, relabeled to 0-based values. The three
        # position cycles are {1,9,4,8}, {2,3,7,5}, {6} (1-based); child 1
        # takes the odd cycles from a, the even cycle from b.
        a = (0, 1, 2, 3, 4, 5, 6, 7, 8)
        b = (8, 2, 6, 7, 1, 5, 4, 0, 3)
        c1, c2 = cycle_crossover(a, b)
        assert c1 == (0, 2, 6, 3, 1, 5, 4, 7, 8)
        assert c2 == (8, 1, 2, 7, 4, 5, 6, 0, 3)

    def test_role_swap_swaps_children(self):
        rng = np.random.default_rng(9)
        a = random_order(rng, 7)
        b = random_order(rng, 7)
        c1, c2 = cycle_crossover(a, b)
        d1, d2 = cycle_crossover(b, a)
        assert (c1, c2) == (d2, d1)

    def test_children_valid_and_positionally_parental(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            a = random_order(rng, n)
            b = random_order(rng, n)
            c1, c2 = cycle_crossover(a, b)
            for child in (c1, c2):
                assert sorted(child) == list(range(n))
                for p in range(n):
                    assert child[p] in (a[p], b[p])

    def test_matches_the_two_loop_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            n = int(rng.integers(1, 40))
            a, b = random_order(rng, n), random_order(rng, n)
            assert cycle_crossover(a, b) == reference_cycle_crossover(a, b)


class TestMutation:
    def test_bit_flip_zero_probability_is_identity(self):
        g = bools("101100")
        assert bit_flip_mutation(g, 0.0, np.random.default_rng(0)) is g

    def test_bit_flip_certain_probability_complements(self):
        g = bools("101100")
        flipped = bit_flip_mutation(g, 1.0, np.random.default_rng(0))
        assert flipped == bools("010011")

    def test_expected_one_flip_at_default_rate(self):
        n = 6
        E = triangular_size(n)
        g = bytes(E)
        rng = np.random.default_rng(123)
        flips = [sum(bit_flip_mutation(g, 1.0 / E, rng))
                 for _ in range(10_000)]
        assert abs(np.mean(flips) - 1.0) < 0.05

    def test_swap_zero_probability_is_identity(self):
        g = (2, 0, 1)
        assert swap_mutation(g, 0.0, np.random.default_rng(0)) == g

    def test_swap_forced_on_two_elements(self):
        g = (0, 1)
        assert swap_mutation(g, 1.0, np.random.default_rng(0)) == (1, 0)

    def test_swap_single_element_is_identity(self):
        g = (0,)
        assert swap_mutation(g, 1.0, np.random.default_rng(0)) == g

    def test_operators_are_closed(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            perm = random_order(rng, n)
            out = swap_mutation(perm, 0.7, rng)
            assert sorted(out) == list(range(n))
            bits = (rng.random(triangular_size(n)) < 0.5).tobytes()
            mutated = bit_flip_mutation(bits, 0.3, rng)
            assert len(mutated) == triangular_size(n)


class TestElitistReplacement:
    def test_worked_example(self):
        members, fitness = elitist_replace(["e1", "e2", "e3"], np.array([-4.0, -3, -7]),
                                           ["o1", "o2", "o3"], [-5, -9, -2])
        assert sorted(fitness.tolist()) == [-5, -3, -2]
        assert members[0] == "e2"  # previous best carried over
        assert "o2" not in members  # worst child dropped

    def test_elite_survives_uniformly_bad_offspring(self):
        members, fitness = elitist_replace(["best", "other"], np.array([-1.0, -2]),
                                           ["bad1", "bad2"], [-10, -11])
        assert members.count("best") == 1
        assert len(members) == len(fitness) == 2

    def test_worst_tie_drops_lowest_index(self):
        members, _ = elitist_replace(["a", "b"], np.array([-1.0, -2]),
                                     ["o1", "o2"], [-5, -5])
        assert members == ["a", "o2"]

    def test_size_mismatch_rejected(self):
        with pytest.raises(EngineError):
            elitist_replace(["a", "b"], np.array([-1.0, -2]), ["o1"], [-5])


class TestEvaluate:
    def setup_method(self):
        self.data = ancestral_sample(chain3(0.9), 200, seed=1)

    def score_pair(self, perm, bits):
        return bde_log_score(self.data, decode((perm, bits)))

    def engine_score(self):
        """What evolve scores a pair with: the cached local scores."""
        cache = LocalScoreCache(self.data)
        return lambda perm, bits: score_parent_sets(decode_parents(perm, bits), cache)

    def test_singleton_pool_collapses_to_one_score(self):
        perm = (0, 1, 2)
        bits = bools("101")
        got = evaluate([perm], [bits], np.array([-1.0]), self.engine_score(),
                       np.random.default_rng(0))
        assert got.tolist() == [pytest.approx(self.score_pair(perm, bits))]

    def test_at_least_best_collaborator_score(self):
        rng = np.random.default_rng(4)
        members = [rng.random(3) < 0.5 for _ in range(6)]
        perms = [(2, 0, 1), (1, 2, 0)]
        fitness = np.array([self.score_pair(perms[0], b) for b in members])
        got = evaluate(perms, members, fitness, self.engine_score(),
                       np.random.default_rng(5))
        assert got.shape == (2,)
        best = members[int(np.argmax(fitness))]
        for perm, score in zip(perms, got):
            assert score >= self.score_pair(perm, best)

    def test_generation_zero_reproducible(self):
        perms = [(0, 1, 2), (2, 1, 0)]
        members = [bools("100"), bools("011")]
        # no fitness: random partner only
        a = evaluate(perms, members, None, self.engine_score(),
                     np.random.default_rng(8))
        b = evaluate(perms, members, None, self.engine_score(),
                     np.random.default_rng(8))
        assert a.tolist() == b.tolist()


class TestEvolve:
    def small_config(self, **overrides):
        base = dict(generations=8, population_size=10, seed=3)
        base.update(overrides)
        return GaConfig(**base)

    def setup_method(self):
        self.data = ancestral_sample(chain3(0.9), 300, seed=2)

    def test_zero_generations_keeps_initial_best(self):
        state, trace = evolve(self.data, self.small_config(generations=0))
        assert len(trace.records) == 1
        assert trace.records[0].generation == 0
        assert state.best_so_far.log_score == trace.records[0].best_score

    def test_best_trace_is_nondecreasing(self):
        _, trace = evolve(self.data, self.small_config(generations=15))
        best = [r.best_score for r in trace.records]
        assert all(b >= a for a, b in zip(best, best[1:]))

    def test_evaluation_budget_accounting(self):
        size = 10
        _, trace = evolve(self.data, self.small_config(population_size=size))
        records = trace.records
        assert records[0].evaluations == 2 * size
        assert all(r.evaluations == 4 * size for r in records[1:])

    def test_deterministic_given_seed(self):
        _, t1 = evolve(self.data, self.small_config())
        _, t2 = evolve(self.data, self.small_config())
        assert [(r.best_score, r.mean_score, r.evaluations) for r in t1.records] == \
            [(r.best_score, r.mean_score, r.evaluations) for r in t2.records]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            evolve(self.data, self.small_config(population_size=7))

    def test_empty_dataset_rejected(self):
        from coevobn import EmptyDataError
        empty = dataset([2, 2], np.zeros((0, 2), dtype=int))
        with pytest.raises(EmptyDataError):
            evolve(empty, self.small_config())

    def test_reaches_global_optimum_on_small_instance(self):
        data = ancestral_sample(chain4(), 400, seed=9)
        _, optimum = exhaustive_best(data)
        state, _ = evolve(data, GaConfig(generations=60, population_size=30,
                                         seed=1))
        assert abs(state.best_so_far.log_score - optimum) <= 1e-9

    def test_best_solution_decodes_to_its_score(self):
        state, _ = evolve(self.data, self.small_config())
        best = state.best_so_far
        rescored = bde_log_score(
            self.data, decode((best.perm, best.bits)))
        assert rescored == pytest.approx(best.log_score, rel=1e-12)

    def test_members_and_children_are_bytes(self, monkeypatch):
        """Every edge vector the binary operators take or make is bytes, and
        making children leaves the parents as they were."""
        calls = []

        def recording(fn):
            def wrapper(*parents, **kwargs):
                copies = [bytearray(g) for g in parents]
                children = fn(*parents, **kwargs)
                calls.append((parents, copies, children))
                return children
            return wrapper

        for name in ("two_point_crossover", "bit_flip_mutation"):
            monkeypatch.setattr(evolution, name, recording(getattr(evolution, name)))
        evolve(self.data, self.small_config(generations=3, p_c=1.0, p_mb=0.5))
        assert len(calls) > 0
        for parents, copies, children in calls:
            children = children if isinstance(children, tuple) else (children,)
            assert all(type(g) is bytes for g in (*parents, *children))
            assert [bytearray(g) for g in parents] == copies

    def test_best_solution_is_a_value(self):
        a, _ = evolve(self.data, self.small_config())
        b, _ = evolve(self.data, self.small_config())
        assert a.best_so_far == b.best_so_far
        assert type(a.best_so_far.bits) is bytes
        assert len({(a.best_so_far.perm, a.best_so_far.bits),
                    (b.best_so_far.perm, b.best_so_far.bits)}) == 1

    def test_parent_masks_above_int64_score_exactly(self):
        """At 70 nodes a parent mask can exceed 2**64; the engine's cached
        score of its best must still equal both uncached scorers."""
        data = ancestral_sample(random_network(70, 3, 0.05, seed=8), 200, seed=9)
        state, _ = evolve(data, GaConfig(generations=2, population_size=4, seed=3))
        best = state.best_so_far
        dag = decode((best.perm, best.bits))
        assert any(p >= 64 for ps in dag.parents for p in ps)
        assert abs(best.log_score - bde_log_score(data, dag)) <= 1e-9
        assert abs(best.log_score - prequential_log_score(data, dag)) <= 1e-9

    def test_trace_csv_format(self):
        _, trace = evolve(self.data, self.small_config(generations=2))
        lines = trace_csv(trace.records).strip().split("\n")
        assert lines[0] == "generation,best_score,mean_score,evaluations"
        assert len(lines) == 4
        assert lines[1].startswith("0,")

    def test_operators_and_scorer_are_read_from_the_module(self, monkeypatch):
        """A run calls its operators and scorer through the module's
        attributes, so a wrapper installed there sees every call."""
        calls = dict.fromkeys(
            ["tournament_select", "cycle_crossover", "two_point_crossover",
             "swap_mutation", "bit_flip_mutation", "elitist_replace",
             "decode_parents", "score_parent_sets"], 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(evolution, name,
                                counting(name, getattr(evolution, name)))
        _, trace = evolve(self.data, self.small_config(generations=3, p_c=1.0))
        assert all(count > 0 for count in calls.values()), calls
        assert calls["decode_parents"] == calls["score_parent_sets"] \
            == sum(r.evaluations for r in trace.records)


# Pinned before the evaluation path was unified; a change here means the same
# seed no longer gives the same run.
GOLDEN_N3 = """\
generation,best_score,mean_score,evaluations
0,-254.282140,-273.877087,16
1,-254.274217,-273.602057,32
2,-254.274217,-258.588439,32
3,-254.274217,-277.103179,32
4,-254.274217,-261.465110,32
5,-254.274217,-289.135548,32
6,-254.274217,-268.638382,32
7,-254.274217,-264.843807,32
8,-254.274217,-273.792893,32
9,-254.274217,-272.690429,32
10,-254.274217,-262.106934,32
11,-254.274217,-274.877911,32
12,-254.274217,-275.428632,32
"""

GOLDEN_N6 = """\
generation,best_score,mean_score,evaluations
0,-1430.245799,-1478.194047,20
1,-1406.456047,-1448.932569,40
2,-1387.797587,-1428.616968,40
3,-1387.797587,-1415.346029,40
4,-1387.127019,-1410.024498,40
5,-1387.127019,-1400.058715,40
6,-1367.882238,-1396.798991,40
7,-1367.882238,-1382.012423,40
8,-1367.882238,-1385.975200,40
9,-1367.882238,-1389.476972,40
10,-1367.882238,-1387.257564,40
11,-1367.882238,-1382.871172,40
12,-1367.882238,-1383.911144,40
13,-1367.882238,-1378.398506,40
14,-1367.882238,-1386.485884,40
15,-1367.882238,-1379.200239,40
16,-1367.882238,-1388.285618,40
17,-1367.882238,-1380.024230,40
18,-1367.882238,-1384.541943,40
19,-1367.882238,-1384.439831,40
20,-1359.949137,-1387.769654,40
"""

# Pinned before decoding moved to parent-node masks.
GOLDEN_N10 = """\
generation,best_score,mean_score,evaluations
0,-8167.982983,-8479.854772,200
1,-8167.982983,-8361.760829,400
2,-8162.438257,-8350.005762,400
3,-8147.637183,-8337.597061,400
4,-8115.915548,-8326.919281,400
5,-8115.915548,-8309.679997,400
6,-8089.370894,-8276.173635,400
7,-8087.971304,-8302.969106,400
8,-8080.122911,-8277.771339,400
9,-8057.347444,-8270.697859,400
10,-8057.347444,-8254.427371,400
11,-8057.347444,-8242.516096,400
12,-8057.347444,-8220.853906,400
13,-8041.647315,-8205.186745,400
14,-8041.647315,-8193.705766,400
15,-8039.729167,-8171.159914,400
16,-8036.908818,-8159.838073,400
17,-8036.908818,-8168.078913,400
18,-8027.774443,-8155.554814,400
19,-8018.794589,-8155.663585,400
20,-8012.824757,-8143.523270,400
21,-8009.783697,-8149.747277,400
22,-7968.692328,-8132.872593,400
23,-7968.692328,-8127.257344,400
24,-7968.692328,-8110.546923,400
25,-7968.692328,-8104.006664,400
"""


class TestGoldenTrajectory:
    def test_three_node_chain(self):
        data = ancestral_sample(chain3(0.9), 200, seed=4)
        state, trace = evolve(data, GaConfig(generations=12, population_size=8,
                                             seed=5))
        assert trace_csv(trace.records) == GOLDEN_N3
        best = state.best_so_far
        assert (best.perm, best.bits) == ((0, 1, 2), bools("101"))

    def test_six_node_random_network(self):
        data = ancestral_sample(random_network(6, 3, 0.4, seed=2), 300, seed=3)
        state, trace = evolve(data, GaConfig(generations=20, population_size=10,
                                             seed=7))
        assert trace_csv(trace.records) == GOLDEN_N6
        best = state.best_so_far
        assert (best.perm, best.bits) == \
            ((3, 5, 2, 4, 1, 0), bools("111001000000111"))

    def test_ten_node_headline_network(self):
        """The headline network and data with a short run, so the decode and
        operator fast paths are pinned at the paper's shape."""
        data = ancestral_sample(random_network(10, 3, 14 / 45, seed=6), 1000, seed=6)
        state, trace = evolve(data, GaConfig(generations=25, seed=1))
        assert trace_csv(trace.records) == GOLDEN_N10
        best = state.best_so_far
        assert (best.perm, best.bits) == \
            ((2, 5, 6, 9, 0, 3, 8, 1, 7, 4),
             bools("111000001111001011011101101000001001000110000"))
