"""Genome types, the interleaved chromosome, and decode/encode round trips."""

import hashlib

import networkx as nx
import numpy as np
import pytest

from coevobn import (
    BinaryGenome,
    EncodingError,
    PermutationGenome,
    ValidationError,
    combine,
    count_dags,
    decode,
    dump_solution,
    encode_dag,
    enumerate_dags,
    split_interleaved,
    triangular_index,
    triangular_size,
)
from coevobn.encoding import decode_parents


def random_pair(rng, n):
    perm = PermutationGenome(rng.permutation(n))
    bits = BinaryGenome(n, rng.random(triangular_size(n)) < 0.5)
    return perm, bits


class TestTriangularIndex:
    def test_first_cell(self):
        assert triangular_index(1, 2, 4) == 0

    def test_second_row_start(self):
        assert triangular_index(2, 3, 4) == 3

    def test_last_cell(self):
        assert triangular_index(3, 4, 4) == 5

    @pytest.mark.parametrize("n", range(2, 9))
    def test_bijection_onto_flat_range(self, n):
        image = [triangular_index(i, j, n)
                 for i in range(1, n) for j in range(i + 1, n + 1)]
        assert sorted(image) == list(range(triangular_size(n)))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            triangular_index(2, 2, 4)
        with pytest.raises(ValueError):
            triangular_index(3, 2, 4)
        with pytest.raises(ValueError):
            triangular_index(0, 1, 4)


class TestGenomes:
    def test_permutation_validated(self):
        with pytest.raises(ValidationError):
            PermutationGenome([0, 0, 1])
        with pytest.raises(ValidationError):
            PermutationGenome([1, 2, 3])

    def test_bit_length_validated(self):
        with pytest.raises(EncodingError):
            BinaryGenome(4, [1, 0, 1])

    def test_equality_and_hash_on_packed_bits(self):
        a = BinaryGenome(4, [1, 0, 1, 0, 0, 1])
        b = BinaryGenome(4, np.array([True, False, True, False, False, True]))
        assert a == b and hash(a) == hash(b)
        assert a != BinaryGenome(4, [1, 0, 1, 0, 0, 0])

    def test_bits_are_frozen(self):
        g = BinaryGenome(3, [1, 0, 1])
        with pytest.raises(ValueError):
            g.bits[0] = False


class TestCombine:
    def test_three_node_interleave(self):
        # nodes: A=0, B=1, C=2; ordering (B, A, C) with bits 1,0,1
        perm = PermutationGenome([1, 0, 2])
        bits = BinaryGenome(3, [1, 0, 1])
        sol = combine(perm, bits)
        assert sol.interleaved == (1, 1, 0, 0, 1, 2)  # B 1 0 A 1 C

    def test_two_node_zero_bit(self):
        sol = combine(PermutationGenome([0, 1]), BinaryGenome(2, [0]))
        assert sol.interleaved == (0, 0, 1)
        assert decode(sol).edge_count == 0

    def test_single_node(self):
        sol = combine(PermutationGenome([0]), BinaryGenome(1, []))
        assert sol.interleaved == (0,)

    def test_length_mismatch(self):
        with pytest.raises(EncodingError):
            combine(PermutationGenome([0, 1, 2]), BinaryGenome(2, [1]))

    def test_interleaved_length(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 5, 9):
            sol = combine(*random_pair(rng, n))
            assert len(sol.interleaved) == n + triangular_size(n)

    def test_projection_recovers_both_genomes(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 4, 7):
            perm, bits = random_pair(rng, n)
            sol = combine(perm, bits)
            back_perm, back_bits = split_interleaved(sol.interleaved, n)
            assert back_perm == perm
            assert back_bits == bits


class TestDecode:
    def test_worked_example(self):
        # ordering (B, A, C): bits c12=1, c13=0, c23=1 give B->A and A->C
        sol = combine(PermutationGenome([1, 0, 2]), BinaryGenome(3, [1, 0, 1]))
        dag = decode(sol)
        assert dag.parents == ((1,), (), (0,))

    def test_all_ones_is_complete_dag(self):
        rng = np.random.default_rng(4)
        for n in (2, 4, 6):
            perm = PermutationGenome(rng.permutation(n))
            bits = BinaryGenome(n, np.ones(triangular_size(n), dtype=bool))
            assert decode(combine(perm, bits)).edge_count == triangular_size(n)

    def test_all_zeros_is_empty_graph(self):
        perm = PermutationGenome([2, 0, 1, 3])
        bits = BinaryGenome(4, np.zeros(6, dtype=bool))
        assert decode(combine(perm, bits)).edge_count == 0

    @pytest.mark.parametrize("n", range(3, 9))
    def test_random_decodes_are_always_acyclic(self, n):
        rng = np.random.default_rng(n)
        for _ in range(200):
            dag = decode(combine(*random_pair(rng, n)))
            dag.topological_order()  # raises on a cycle
            g = nx.DiGraph(list(dag.edges()))
            g.add_nodes_from(range(n))
            assert nx.is_directed_acyclic_graph(g)


def reference_decode(order, bits):
    """Walk every (i, j) cell of the triangle, then sort each parent list."""
    n = len(order)
    parents = [[] for _ in range(n)]
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            if bits[triangular_index(i, j, n)]:
                parents[order[j - 1]].append(order[i - 1])
    return tuple(tuple(sorted(ps)) for ps in parents)


class TestDecodeParents:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_the_cell_by_cell_reference(self, n):
        rng = np.random.default_rng(n)
        for _ in range(25):
            order = tuple(int(v) for v in rng.permutation(n))
            bits = rng.random(triangular_size(n)) < rng.random()
            expected = reference_decode(order, bits)
            as_array = decode_parents(order, bits)
            as_list = decode_parents(order, [int(b) for b in bits])
            assert as_array == as_list == expected
            assert all(type(ps) is tuple for ps in as_array)

    @pytest.mark.parametrize("bits", [[1, 0], [1, 0, 1, 1, 1]])
    def test_wrong_bit_count_names_the_expected_count(self, bits):
        with pytest.raises(EncodingError, match="expected 3 edge bits"):
            decode_parents((0, 1, 2), bits)

    def test_enumeration_order_is_unchanged(self):
        parents = [dag.parents for dag in enumerate_dags(4)]
        digest = hashlib.sha256(repr(parents).encode()).hexdigest()
        assert digest == \
            "9ffefeac6dc7d7db2b0fb29233849a272a56007912d3f2f375e73d22c4799c71"


class TestEncodeDag:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_dag_has_a_preimage(self, n):
        seen = 0
        for dag in enumerate_dags(n):
            assert decode(encode_dag(dag)) == dag
            seen += 1
        assert seen == count_dags(n)


class TestDumpFormat:
    def test_golden_two_line_form(self):
        sol = combine(PermutationGenome([1, 0, 2]), BinaryGenome(3, [1, 0, 1]))
        assert dump_solution(sol, ["A", "B", "C"]) == "B A C\n101"

    def test_default_names(self):
        sol = combine(PermutationGenome([0, 1]), BinaryGenome(2, [1]))
        assert dump_solution(sol) == "X1 X2\n1"

    def test_single_node_has_empty_bit_line(self):
        sol = combine(PermutationGenome([0]), BinaryGenome(1, []))
        assert dump_solution(sol, ["A"]) == "A\n"
