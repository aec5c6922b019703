"""Network representation, ancestral sampling, synthesis, and file round-trips."""

import csv
import dataclasses
import io
import time
import tracemalloc
from itertools import product

import networkx as nx
import numpy as np
import pytest

from coevobn import bayesnet
from coevobn import (
    BayesianNetwork,
    Dag,
    Dataset,
    ParseError,
    SchemaError,
    ValidationError,
    Variable,
    ancestral_sample,
    load_dataset,
    load_network,
    load_structure,
    random_network,
    save_dataset,
    save_network,
    save_structure,
)
from coevobn.bayesnet import SAMPLE_BLOCK, write_dataset
from helpers import (
    binary_vars,
    chain_pair,
    dataset,
    independent_pair,
    joint_probability,
    reference_network_text,
    single_binary,
)


def exhaustive_joint(net):
    """Total mass and per-variable marginals by brute-force summation."""
    marginals = [np.zeros(r) for r in net.arities]
    total = 0.0
    for assignment in product(*(range(r) for r in net.arities)):
        p = joint_probability(net, assignment)
        total += p
        for i, v in enumerate(assignment):
            marginals[i][v] += p
    return total, marginals


class TestDag:
    def test_topological_order_of_chain(self):
        dag = Dag(3, [(), (0,), (1,)])
        assert dag.topological_order() == [0, 1, 2]

    def test_parents_are_sorted_and_deduplicated(self):
        dag = Dag(3, [[2, 1, 2], [], []])
        assert dag.parents == ((1, 2), (), ())

    def test_cycle_rejected(self):
        with pytest.raises(ValidationError, match="cycle"):
            Dag(3, [(2,), (0,), (1,)])

    def test_self_parent_rejected(self):
        with pytest.raises(ValidationError, match="itself"):
            Dag(2, [(0,), ()])

    def test_out_of_range_parent_rejected(self):
        with pytest.raises(ValidationError):
            Dag(2, [(5,), ()])

    def test_edges_and_count(self):
        dag = Dag(3, [(), (0,), (0, 1)])
        assert sorted(dag.edges()) == [(0, 1), (0, 2), (1, 2)]
        assert dag.edge_count == 3

    def test_order_and_cycle_verdict_match_networkx(self):
        # random directed graphs: the order is the lowest index first among
        # ready nodes, and a graph is refused exactly when it has a cycle
        rng = np.random.default_rng(28)
        verdicts = {True: 0, False: 0}
        for _ in range(600):
            n = int(rng.integers(1, 25))
            density = 0.3 * rng.random() ** 2
            parents = [[p for p in range(n) if p != c and rng.random() < density]
                       for c in range(n)]
            graph = nx.DiGraph()
            graph.add_nodes_from(range(n))
            graph.add_edges_from((p, c) for c, ps in enumerate(parents) for p in ps)
            acyclic = nx.is_directed_acyclic_graph(graph)
            verdicts[acyclic] += 1
            if acyclic:
                assert Dag(n, parents).topological_order() == \
                    list(nx.lexicographical_topological_sort(graph))
            else:
                with pytest.raises(ValidationError, match="graph contains a cycle"):
                    Dag(n, parents)
        assert verdicts[True] >= 200 and verdicts[False] >= 200

    def test_50000_parentless_nodes_build_promptly(self):
        # a sort that re-sorts the ready list after every pop takes over 15 s
        start = time.perf_counter()
        dag = Dag(50_000, [()] * 50_000)
        assert time.perf_counter() - start < 2.0
        assert dag.topological_order() == list(range(50_000))


class TestDagValue:
    """A Dag is a frozen value: its fields cannot be reassigned, and equal
    graphs compare and hash alike, so a Dag is safe in a set or a dict."""

    def test_fields_cannot_be_reassigned(self):
        dag = Dag(2, [(), (0,)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            dag.parents = ((), ())
        with pytest.raises(dataclasses.FrozenInstanceError):
            dag.n = 3
        assert dag == Dag(2, [(), (0,)])

    def test_repr_equality_and_hash(self):
        a = Dag(3, [[2, 1], [], []])
        b = Dag(3, ((1, 2), (), ()))
        assert repr(a) == repr(b) == "Dag(n=3, parents=((1, 2), (), ()))"
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Dag(3, [(), (), ()]) and a != Dag(4, [(1, 2), (), (), ()])
        assert a != 5 and not a == 5


class TestVariables:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError, match="unique"):
            Dataset([Variable("A", 2), Variable("A", 2)], [[0, 0]])

    def test_unit_arity_rejected(self):
        with pytest.raises(ValidationError, match="arity"):
            Dataset([Variable("A", 1)], [[0]])


class TestJointProbability:
    def test_single_binary_node(self):
        net = single_binary(0.7)
        assert joint_probability(net, [1]) == pytest.approx(0.7)
        assert joint_probability(net, [0]) == pytest.approx(0.3)

    def test_two_independent_uniform_nodes(self):
        net = independent_pair(0.5)
        for assignment in product(range(2), repeat=2):
            assert joint_probability(net, assignment) == pytest.approx(0.25)

    def test_two_node_chain(self):
        net = chain_pair(0.3, (0.2, 0.9))
        assert joint_probability(net, [1, 1]) == pytest.approx(0.3 * 0.9)

    def test_dimension_mismatch(self):
        net = single_binary(0.5)
        with pytest.raises(SchemaError):
            joint_probability(net, [0, 1])

    def test_value_outside_arity(self):
        net = single_binary(0.5)
        with pytest.raises(SchemaError):
            joint_probability(net, [2])

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2), (4, 3)])
    def test_sums_to_one_over_assignment_space(self, n, seed):
        net = random_network(n, max_arity=3, edge_density=0.6, seed=seed)
        total, _ = exhaustive_joint(net)
        assert abs(total - 1.0) < 1e-9


class TestAncestralSample:
    def test_degenerate_network_gives_all_zeros(self):
        net = chain_pair(0.0, (0.0, 0.0))  # all mass on value 0
        data = ancestral_sample(net, 5, seed=3)
        assert data.rows.shape == (5, 2)
        assert not data.rows.any()

    def test_same_seed_same_dataset(self):
        net = random_network(5, 2, 0.4, seed=8)
        a = ancestral_sample(net, 50, seed=21)
        b = ancestral_sample(net, 50, seed=21)
        assert np.array_equal(a.rows, b.rows)

    def test_count_must_be_positive(self):
        with pytest.raises(ValidationError):
            ancestral_sample(single_binary(0.5), 0, seed=0)

    def test_fair_coin_frequency(self):
        data = ancestral_sample(single_binary(0.5), 10_000, seed=4)
        freq = data.rows[:, 0].mean()
        assert abs(freq - 0.5) < 0.02

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_marginals_match_exhaustive_summation(self, seed):
        net = random_network(3, max_arity=3, edge_density=0.6, seed=seed)
        data = ancestral_sample(net, 50_000, seed=seed + 100)
        _, exact = exhaustive_joint(net)
        for i, var in enumerate(net.variables):
            empirical = np.bincount(data.rows[:, i], minlength=var.arity) / data.n_rows
            assert np.max(np.abs(empirical - exact[i])) < 0.02

    def test_blocks_draw_the_same_sample_as_one_block(self, monkeypatch):
        net = random_network(6, 4, 0.5, seed=2)
        whole = ancestral_sample(net, 1000, seed=7)
        monkeypatch.setattr(bayesnet, "SAMPLE_BLOCK", 64)
        blocked = ancestral_sample(net, 1000, seed=7)
        assert np.array_equal(whole.rows, blocked.rows)
        assert blocked.rows.flags.f_contiguous and not blocked.rows.flags.writeable

    def test_peak_memory_stays_near_the_table(self):
        # the dataset takes the sampled table over instead of copying it,
        # and each node is drawn in blocks; a C-order table copied into
        # column-major order peaked at 2.2 times the table
        net = random_network(10, 3, 0.3, seed=1)
        tracemalloc.start()
        try:
            data = ancestral_sample(net, 300_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.4 * data.rows.nbytes


class TestRandomNetwork:
    def test_single_node(self):
        net = random_network(1, seed=0)
        assert net.n == 1 and net.dag.edge_count == 0

    def test_zero_density_gives_empty_graph(self):
        net = random_network(6, 2, 0.0, seed=1)
        assert net.dag.edge_count == 0

    def test_full_density_gives_complete_dag(self):
        net = random_network(4, 2, 1.0, seed=2)
        assert net.dag.edge_count == 6

    def test_deterministic_given_seed(self):
        a = random_network(5, 3, 0.5, seed=7)
        b = random_network(5, 3, 0.5, seed=7)
        assert a.dag == b.dag
        assert [v.arity for v in a.variables] == [v.arity for v in b.variables]
        for ta, tb in zip(a.cpts, b.cpts):
            assert np.array_equal(ta, tb)

    def test_arities_within_bounds(self):
        net = random_network(10, 3, 0.3, seed=5)
        assert all(2 <= v.arity <= 3 for v in net.variables)

    def test_bad_density_rejected(self):
        with pytest.raises(ValidationError):
            random_network(3, 2, 1.5, seed=0)

    @pytest.mark.parametrize("args, name", [
        ((2.5,), "nodes"),
        (("4",), "nodes"),
        ((0,), "nodes"),
        ((4, 2.5), "max_arity"),
        ((4, 1), "max_arity"),
        ((4, 2, True), "edge_density"),
        ((4, 2, "0.4"), "edge_density"),
        ((4, 2, 0.4, 1.5), "seed"),
    ])
    def test_bad_argument_rejected(self, args, name):
        with pytest.raises(ValidationError, match=name):
            random_network(*args)

    def test_cpt_above_the_dense_limit_rejected_before_drawing(self, monkeypatch):
        # a complete binary DAG on 3 nodes: its last node has 2 * 2 * 2 cells
        full = random_network(3, 2, 1.0, seed=0)
        monkeypatch.setattr(bayesnet, "DENSE_CELLS", 8)
        at_limit = random_network(3, 2, 1.0, seed=0)
        assert all(np.array_equal(a, b) for a, b in zip(full.cpts, at_limit.cpts))
        monkeypatch.setattr(bayesnet, "DENSE_CELLS", 7)
        with pytest.raises(ValidationError, match="8 cells, above DENSE_CELLS = 7"):
            random_network(3, 2, 1.0, seed=0)


class TestNetworkIO:
    def test_round_trip(self, tmp_path):
        net = random_network(4, 3, 0.5, seed=6)
        path = tmp_path / "net.json"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.dag == net.dag
        assert [(v.name, v.arity) for v in loaded.variables] == \
            [(v.name, v.arity) for v in net.variables]
        for ta, tb in zip(loaded.cpts, net.cpts):
            assert np.max(np.abs(ta - tb)) < 1e-12

    def test_files_equal_the_one_shot_text(self, tmp_path):
        for seed in range(8):
            net = random_network(6, 2 + seed, 0.5, seed=seed)
            save_network(net, tmp_path / "net.json")
            save_structure(net.variables, net.dag, tmp_path / "structure.json")
            assert (tmp_path / "net.json").read_bytes().decode() == \
                reference_network_text(net.variables, net.dag, net.cpts)
            assert (tmp_path / "structure.json").read_bytes().decode() == \
                reference_network_text(net.variables, net.dag)

    def test_cpts_are_written_one_at_a_time(self, tmp_path):
        # four CPTs of 2**13 cells; as Python floats each takes 256 KiB
        rng = np.random.default_rng(3)
        net = BayesianNetwork([Variable(f"X{i + 1}", 1 << 13) for i in range(4)],
                              Dag(4, [()] * 4),
                              [rng.dirichlet(np.ones(1 << 13), size=1)
                               for _ in range(4)])
        tracemalloc.start()
        try:
            table = net.cpts[0].tolist()
            table_bytes = tracemalloc.get_traced_memory()[0]
            del table
            tracemalloc.reset_peak()
            save_network(net, tmp_path / "net.json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * table_bytes

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"variables": [}')
        with pytest.raises(ParseError, match="line"):
            load_network(path)

    def test_missing_field_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"variables": [{"name": "A", "arity": 2}]}')
        with pytest.raises(ParseError, match="parents"):
            load_network(path)

    def test_unnormalized_row_rejected(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(
            '{"variables": [{"name": "A", "arity": 2}],'
            ' "parents": [[]], "cpts": [[[0.5, 0.4]]]}'
        )
        with pytest.raises(ValidationError, match="sum"):
            load_network(path)

    def test_structure_only_file(self, tmp_path):
        net = random_network(3, 2, 0.5, seed=9)
        path = tmp_path / "structure.json"
        save_structure(net.variables, net.dag, path)
        with pytest.raises(ParseError, match="structure-only"):
            load_network(path)
        variables, dag = load_structure(path)
        assert dag == net.dag
        assert [v.name for v in variables] == [v.name for v in net.variables]

    def test_cpt_shape_mismatch_names_invariant(self):
        with pytest.raises(ValidationError, match="shape"):
            BayesianNetwork(binary_vars(2), Dag(2, [(), (0,)]),
                            [np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]])])


class TestDatasetIO:
    def test_round_trip_exact(self, tmp_path):
        net = random_network(3, 3, 0.5, seed=4)
        data = ancestral_sample(net, 40, seed=2)
        path = tmp_path / "data.csv"
        save_dataset(data, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.rows, data.rows)
        assert [(v.name, v.arity) for v in loaded.variables] == \
            [(v.name, v.arity) for v in data.variables]

    @pytest.mark.parametrize("m", [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK,
                                   SAMPLE_BLOCK + 1])
    def test_text_equals_one_writerows(self, m):
        rows = np.random.default_rng(m).integers(0, [2, 3, 5], size=(m, 3))
        data = dataset([2, 3, 5], rows)
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["X1:2", "X2:3", "X3:5"])
        writer.writerows(rows.tolist())
        text = io.StringIO()
        write_dataset(data, text)
        assert text.getvalue() == expected.getvalue()

    def test_rows_are_written_one_block_at_a_time(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bayesnet, "SAMPLE_BLOCK", 1 << 13)
        data = dataset([2] * 4, np.zeros((4 << 13, 4), dtype=np.int64))
        tracemalloc.start()
        try:
            block = data.rows[:1 << 13].tolist()
            block_bytes = tracemalloc.get_traced_memory()[0]
            del block
            tracemalloc.reset_peak()
            save_dataset(data, tmp_path / "data.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * block_bytes

    @pytest.mark.parametrize("m", [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK,
                                   SAMPLE_BLOCK + 1])
    def test_read_back_past_blank_lines_is_the_rows_written(self, tmp_path, m):
        rows = np.random.default_rng(m).integers(0, [2, 3, 5], size=(m, 3))
        lines = [",".join(map(str, row)) for row in rows.tolist()]
        for at in sorted({0, m // 2, m - 1, m}, reverse=True):
            lines.insert(at, "")  # first, half-way, before the last row and last
        path = tmp_path / "data.csv"
        path.write_text("\n".join(["X1:2,X2:3,X3:5", *lines, ""]))
        loaded = load_dataset(path)
        assert loaded.rows.flags.f_contiguous
        assert np.array_equal(loaded.rows, rows)

    @pytest.mark.parametrize("cell, error, message", [
        ("x", ParseError, "line {line}: non-integer cell"),
        (None, ParseError, "line {line}: expected 2 fields, got 1"),
        ("99999999999999999999", ValidationError,
         "column 'b' contains value 99999999999999999999"),
    ], ids=["non-integer", "short-row", "beyond-int64"])
    def test_bad_cell_past_the_first_block_is_named(self, tmp_path, cell, error,
                                                    message):
        lines = ["a:2,b:2"] + ["0,1"] * (SAMPLE_BLOCK + 5)
        line = SAMPLE_BLOCK + 3  # 1-based, in the second block of rows
        lines[line - 1] = "0" if cell is None else f"0,{cell}"
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(error, match=message.format(line=line)):
            load_dataset(path)

    def test_rows_are_read_into_one_table_a_block_at_a_time(self, tmp_path,
                                                            monkeypatch):
        monkeypatch.setattr(bayesnet, "SAMPLE_BLOCK", 1 << 13)
        # values past 256 are int objects of their own, in a list or a tuple
        rows = np.random.default_rng(3).integers(0, 1000, size=(8 << 13, 4))
        path = tmp_path / "data.csv"
        save_dataset(dataset([1000] * 4, rows), path)
        tracemalloc.start()
        try:
            block = rows[:1 << 13].tolist()
            block_bytes = tracemalloc.get_traced_memory()[0]
            del block
            tracemalloc.reset_peak()
            loaded = load_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.rows, rows)
        # a list per row would take four blocks' lists beyond this bound
        assert peak < rows.nbytes + path.stat().st_size + 2 * block_bytes

    def test_cell_out_of_range_is_validation_error(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("A:2,B:2\n0,1\n0,2\n")
        with pytest.raises(ValidationError, match="outside"):
            load_dataset(path)

    def test_bad_header_is_parse_error(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("A,B:2\n0,1\n")
        with pytest.raises(ParseError, match="line 1"):
            load_dataset(path)

    def test_non_integer_cell_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("A:2\n0\nx\n")
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(path)

    def test_short_row_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("A:2,B:2\n0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path)

    def test_header_only_file_is_valid_schema(self, tmp_path):
        from coevobn import Dag, EmptyDataError, bde_log_score

        path = tmp_path / "data.csv"
        path.write_text("A:2,B:3\n")
        data = load_dataset(path)
        assert data.n_rows == 0
        assert data.arities == (2, 3)
        # usable only as a schema: scorers refuse it
        with pytest.raises(EmptyDataError):
            bde_log_score(data, Dag(2, [(), ()]))

    def test_arities_are_one_stored_tuple(self):
        data = dataset([2, 3, 4], [[1, 2, 3]])
        assert data.arities == (2, 3, 4)
        assert data.arities is data.arities

    def test_construction_copies_the_callers_array(self):
        rows = np.asfortranarray(np.array([[0, 1], [1, 0]], dtype=np.int64))
        data = dataset([2, 2], rows)
        rows[0, 0] = 1
        assert data.rows[0, 0] == 0

    def test_adopted_table_is_still_range_checked(self):
        rows = np.asfortranarray(np.array([[0, 3]], dtype=np.int64))
        with pytest.raises(ValidationError, match="outside"):
            Dataset._adopt([Variable("A", 2), Variable("B", 2)], rows)

    def test_direct_construction_bounds_check(self):
        with pytest.raises(ValidationError, match="outside"):
            dataset([2, 2], [[0, 3]])

    @pytest.mark.parametrize("value", [10**20, -10**20])
    def test_cell_beyond_int64_names_column_and_value(self, value):
        with pytest.raises(ValidationError,
                           match=f"column 'X2' contains value {value}, outside"):
            dataset([2, 2], [[0, 1], [1, value]])
