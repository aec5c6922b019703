"""Two-species DAG encoding: a node ordering plus upper-triangular edge bits.

An ordering is a tuple of the n node indices; an edge vector is `bytes`, a
0/1 byte for each of its n(n-1)/2 bits. The paper joins the two into one
interleaved chromosome (node at position 1, its n-1 out-bits, node at
position 2, ..., node n); the engine keeps them as two species.

A bit at triangular position (i, j), 1-based with i < j, says that the node
at ordering position i is a parent of the node at position j. Because edges
only ever point from earlier to later positions, every decoded graph is
acyclic by construction; no repair or cycle detection is needed.
"""

from __future__ import annotations

from functools import cache
from itertools import compress
from typing import Sequence

import numpy as np

from .bayesnet import Dag
from .errors import EncodingError


def triangular_size(n: int) -> int:
    """Number of cells in the strict upper triangle of an n x n matrix."""
    return n * (n - 1) // 2


def triangular_index(i: int, j: int, n: int) -> int:
    """Flat row-major index of cell (i, j), 1-based positions with i < j."""
    if not 1 <= i < j <= n:
        raise ValueError(
            f"triangular positions require 1 <= i < j <= n, got i={i}, j={j}, n={n}"
        )
    return (i - 1) * n - i * (i - 1) // 2 + (j - i - 1)


def combine(perm: Sequence[int], bits) -> tuple:
    """The (ordering, bits) pair that decode takes, unchecked."""
    return perm, bits


@cache
def _layout(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The (s, t) ordering positions of the n(n-1)/2 edge bits, in bit order,
    and the one-bit mask 1 << v of every node v."""
    positions = tuple((s, t) for s in range(n - 1) for t in range(s + 1, n))
    return positions, tuple(1 << v for v in range(n))


def mask_nodes(mask: int) -> tuple[int, ...]:
    """The node ids of the set bits of `mask`, ascending: the sorted parent
    tuple of a parent mask. Any integer type works; a negative mask has
    infinitely many set bits and raises EncodingError."""
    mask = int(mask)
    if mask < 0:
        raise EncodingError(f"a parent mask must be >= 0, got {mask}")
    nodes = []
    while mask:
        low = mask & -mask
        nodes.append(low.bit_length() - 1)
        mask ^= low
    return tuple(nodes)


def decode_parents(order: Sequence[int], bits: Sequence) -> tuple[int, ...]:
    """Parent masks implied by (ordering, bits), one int per node: bit p of
    node v's mask is set when p is a parent of v.

    `bits` is any sequence of n(n-1)/2 truthy/falsy values; only the set
    ones are visited, each ORing its parent's node bit into its child's
    mask. The node bits are Python ints looked up by node id, so the masks
    are exact for any n and any integer type of ordering. mask_nodes turns
    a mask into its sorted parent tuple.
    """
    n = len(order)
    positions, node_bit = _layout(n)
    if len(bits) != len(positions):
        raise EncodingError(f"expected {len(positions)} edge bits for n={n}, "
                            f"got {len(bits)}")
    masks = [0] * n
    for s, t in compress(positions, bits):
        masks[order[t]] |= node_bit[order[s]]
    return tuple(masks)


def masks_dag(masks: Sequence[int]) -> Dag:
    """The DAG whose node v has the parents in masks[v], unchecked: the
    masks must come from decode_parents, which makes them acyclic."""
    return Dag._unchecked(len(masks), tuple(map(mask_nodes, masks)))


def decode(solution) -> Dag:
    """Decode an (ordering, bits) pair into its DAG (acyclic by construction).

    This is where a pair leaving the engine is checked: an ordering that is
    not a permutation of 0..n-1, bits that are not one 1-D sequence (bytes,
    a list, an array), or a bit count other than n(n-1)/2, raises EncodingError.
    """
    order, bits = solution
    order = tuple(int(v) for v in order)
    if sorted(order) != list(range(len(order))):
        raise EncodingError(f"not a permutation of 0..{len(order) - 1}: {order}")
    # np.asarray would read bytes as one 0-d string
    bits = np.frombuffer(bits, bool) if isinstance(bits, bytes) else np.asarray(bits, bool)
    if bits.ndim != 1:
        raise EncodingError(f"edge bits must be one-dimensional, got shape {bits.shape}")
    return masks_dag(decode_parents(order, bits.tobytes()))


def encode_dag(dag: Dag) -> tuple[tuple[int, ...], bytes]:
    """Encode a DAG as an (ordering, bits) pair: a topological order and
    the edge bits it implies, as bytes.

    decode(encode_dag(g)) reproduces g exactly; this is the constructive
    witness that the representation covers every DAG.
    """
    n = dag.n
    order = tuple(dag.topological_order())
    position = {node: p for p, node in enumerate(order)}  # 0-based positions
    bits = bytearray(triangular_size(n))
    for parent, child in dag.edges():
        bits[triangular_index(position[parent] + 1, position[child] + 1, n)] = 1
    return order, bytes(bits)
