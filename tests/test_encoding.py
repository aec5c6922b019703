"""Orderings and edge-bit vectors as plain values, and decode/encode round trips."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import coevobn
import networkx as nx
import numpy as np
import pytest

from coevobn import (
    EncodingError,
    bit_flip_mutation,
    combine,
    count_dags,
    decode,
    encode_dag,
    enumerate_dags,
    init_binary_pop,
    triangular_index,
    triangular_size,
    two_point_crossover,
)
from coevobn.encoding import decode_parents, mask_nodes
from helpers import parent_mask


def random_pair(rng, n):
    perm = tuple(rng.permutation(n).tolist())
    bits = rng.random(triangular_size(n)) < 0.5
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
    """An ordering is a tuple and an edge vector bytes; decode is where a
    pair leaving the engine is checked."""

    def test_permutation_validated(self):
        with pytest.raises(EncodingError, match="not a permutation"):
            decode(((0, 0, 1), [1, 0, 1]))
        with pytest.raises(EncodingError, match="not a permutation"):
            decode(((1, 2, 3), [1, 0, 1]))

    def test_bit_length_validated(self):
        with pytest.raises(EncodingError, match="expected 6 edge bits"):
            decode(((0, 1, 2, 3), [1, 0, 1]))
        with pytest.raises(EncodingError, match="one-dimensional"):
            decode(((0, 1, 2, 3), np.zeros((6, 1), dtype=bool)))

    def test_bits_are_frozen(self):
        """Elitism and copy-through share members between generations, so
        every bit vector the engine makes is immutable bytes, and making
        children never writes to a parent."""
        rng = np.random.default_rng(5)
        n = 6
        members = init_binary_pop(n, 8, rng)
        assert all(type(m) is bytes for m in members)
        a, b = members[0], members[1]
        before = bytearray(a), bytearray(b)
        children = list(two_point_crossover(a, b, rng))
        flipped = bit_flip_mutation(a, 1.0, rng)
        assert flipped != a  # at least one bit flipped
        children.append(flipped)
        children.append(encode_dag(decode(((2, 0, 1, 3, 5, 4), a)))[1])
        for child in children:
            assert child is not a and child is not b
            assert type(child) is bytes
            with pytest.raises(TypeError):
                child[0] = not child[0]
        assert a == before[0] and b == before[1]


class TestEdgeVectorForms:
    """decode takes an edge vector as bytes, a list or a 1-D bool array."""

    def test_one_pair_in_three_forms_decodes_to_one_dag(self):
        rng = np.random.default_rng(30)
        for n in (2, 4, 7, 12):
            perm, bits = random_pair(rng, n)
            dag = decode((perm, bits.tobytes()))
            assert dag == decode((perm, bits.tolist())) == decode((perm, bits))
            assert dag.parents == reference_decode(perm, bits)

    def test_bytes_are_read_as_one_bit_each(self):
        # np.asarray(b"\x01\x00", dtype=bool) is a single 0-d True
        assert decode(((1, 0, 2), b"\x01\x00\x01")).parents == ((1,), (), (0,))
        with pytest.raises(EncodingError, match="expected 3 edge bits"):
            decode(((0, 1, 2), b"\x01\x00"))


class TestCombine:
    """combine only pairs its arguments; decode checks the pair."""

    def test_two_node_zero_bit(self):
        perm, bits = (0, 1), np.zeros(1, dtype=bool)
        pair = combine(perm, bits)
        assert pair[0] is perm and pair[1] is bits
        assert decode(pair).edge_count == 0

    def test_single_node(self):
        dag = decode(combine((0,), []))
        assert dag.n == 1 and dag.parents == ((),)

    def test_length_mismatch(self):
        with pytest.raises(EncodingError):
            decode(combine((0, 1, 2), [1]))


class TestDecode:
    def test_worked_example(self):
        # ordering (B, A, C): bits c12=1, c13=0, c23=1 give B->A and A->C
        dag = decode(((1, 0, 2), [1, 0, 1]))
        assert dag.parents == ((1,), (), (0,))

    def test_all_ones_is_complete_dag(self):
        rng = np.random.default_rng(4)
        for n in (2, 4, 6):
            perm = tuple(rng.permutation(n).tolist())
            bits = np.ones(triangular_size(n), dtype=bool)
            assert decode((perm, bits)).edge_count == triangular_size(n)

    def test_all_zeros_is_empty_graph(self):
        assert decode(((2, 0, 1, 3), np.zeros(6, dtype=bool))).edge_count == 0

    @pytest.mark.parametrize("n", range(3, 9))
    def test_random_decodes_are_always_acyclic(self, n):
        rng = np.random.default_rng(n)
        for _ in range(200):
            dag = decode(random_pair(rng, n))
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


def reference_masks(order, bits):
    """The parent mask of each of reference_decode's parent sets."""
    return tuple(map(parent_mask, reference_decode(order, bits)))


class TestMaskNodes:
    def test_empty_mask_has_no_parents(self):
        assert mask_nodes(0) == ()

    def test_bits_above_int64_come_back_ascending(self):
        assert mask_nodes((1 << 99) | (1 << 64) | 0b101) == (0, 2, 64, 99)

    def test_numpy_integer_masks(self):
        assert mask_nodes(np.int64(0b1010)) == (1, 3)
        assert all(type(v) is int for v in mask_nodes(np.int64(0b1010)))

    def test_negative_mask_is_named(self):
        # run in a child under a timeout: a loop that never ends fails the
        # test instead of hanging the suite
        script = """
import numpy as np
from coevobn import Dataset, LocalScoreCache, Variable
from coevobn.encoding import mask_nodes, masks_dag
cache = LocalScoreCache(Dataset([Variable("A", 2), Variable("B", 2)], [[0, 1]]))
for call in (lambda: mask_nodes(-1), lambda: mask_nodes(np.int64(-5)),
             lambda: cache[0, -1], lambda: masks_dag((0, -2))):
    try:
        call()
    except Exception as exc:
        print(type(exc).__name__, exc)
print(len(cache), cache.misses)
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=60, env=dict(os.environ,
                                 PYTHONPATH=str(Path(coevobn.__file__).parents[1])))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "EncodingError a parent mask must be >= 0, got -1",
            "EncodingError a parent mask must be >= 0, got -5",
            "EncodingError a parent mask must be >= 0, got -1",
            "EncodingError a parent mask must be >= 0, got -2",
            "0 0",
        ]


class TestDecodeParents:
    # masks of more than 62 or 64 node bits must stay exact
    @pytest.mark.parametrize("n", [*range(1, 14), 31, 64, 65, 100])
    def test_matches_the_cell_by_cell_reference(self, n):
        rng = np.random.default_rng(n)
        for _ in range(25):
            order = tuple(int(v) for v in rng.permutation(n))
            bits = rng.random(triangular_size(n)) < rng.random()
            as_array = decode_parents(order, bits)
            as_list = decode_parents(order, [int(b) for b in bits])
            assert as_array == as_list == reference_masks(order, bits)
            assert type(as_array) is tuple and all(type(m) is int for m in as_array)
            assert decode((order, bits)).parents == reference_decode(order, bits)

    @pytest.mark.parametrize("n", [65, 100])
    def test_numpy_integer_orderings_decode_exactly(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            order = rng.permutation(n)  # int64 node ids above 63
            bits = rng.random(triangular_size(n)) < 0.3
            expected = reference_masks(order.tolist(), bits)
            assert decode((order, bits)).parents == reference_decode(order.tolist(), bits)
            assert decode_parents(order, bits) == expected
            assert decode_parents(tuple(order), bits) == expected
            assert all(type(m) is int for m in decode_parents(order, bits))

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
            perm, bits = encode_dag(dag)
            assert type(perm) is tuple and type(bits) is bytes
            assert decode((perm, bits)) == dag
            seen += 1
        assert seen == count_dags(n)

