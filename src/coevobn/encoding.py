"""Two-species DAG encoding: a node ordering plus upper-triangular edge bits.

A bit at triangular position (i, j), 1-based with i < j, says that the node
at ordering position i is a parent of the node at position j. Because edges
only ever point from earlier to later positions, every decoded graph is
acyclic by construction; no repair or cycle detection is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import compress
from typing import Sequence

import numpy as np

from .bayesnet import Dag
from .errors import EncodingError, ValidationError


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


class PermutationGenome:
    """An ordering of the n node indices; ancestors precede descendants."""

    __slots__ = ("order",)

    def __init__(self, order: Sequence[int]):
        order = tuple(int(v) for v in order)
        if sorted(order) != list(range(len(order))):
            raise ValidationError(
                f"not a permutation of 0..{len(order) - 1}: {order}"
            )
        self.order = order

    @classmethod
    def _unchecked(cls, order: tuple[int, ...]) -> "PermutationGenome":
        """Skip validation; caller guarantees a tuple permutation of range(n)."""
        genome = object.__new__(cls)
        genome.order = order
        return genome

    @property
    def n(self) -> int:
        return len(self.order)

    def __len__(self) -> int:
        return len(self.order)

    def __eq__(self, other) -> bool:
        return isinstance(other, PermutationGenome) and self.order == other.order

    def __hash__(self) -> int:
        return hash(self.order)

    def __repr__(self) -> str:
        return f"PermutationGenome({list(self.order)})"


class BinaryGenome:
    """n(n-1)/2 edge bits laid out row-major over the strict upper triangle.

    The bits are a read-only bool array; equality and hashing use n and
    the bits.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits):
        arr = np.array(bits, dtype=bool)
        if arr.ndim != 1 or arr.size != triangular_size(n):
            raise EncodingError(
                f"expected {triangular_size(n)} bits for n={n}, got {arr.size}"
            )
        arr.setflags(write=False)
        self.n = n
        self.bits = arr

    @classmethod
    def _unchecked(cls, n: int, bits: np.ndarray) -> "BinaryGenome":
        """Skip validation; caller guarantees a fresh 1-d bool array of
        n(n-1)/2 bits, which becomes read-only."""
        bits.setflags(write=False)
        genome = object.__new__(cls)
        genome.n = n
        genome.bits = bits
        return genome

    def __len__(self) -> int:
        return self.bits.size

    def __eq__(self, other) -> bool:
        return isinstance(other, BinaryGenome) and self.n == other.n \
            and np.array_equal(self.bits, other.bits)

    def __hash__(self) -> int:
        return hash((self.n, self.bits.tobytes()))

    def to01(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    def __repr__(self) -> str:
        return f"BinaryGenome(n={self.n}, bits={self.to01()!r})"


@dataclass(frozen=True)
class CompleteSolution:
    """A (perm, bits) pair plus the interleaved chromosome built from them."""

    perm: PermutationGenome
    bits: BinaryGenome
    interleaved: tuple[int, ...]


def combine(perm: PermutationGenome, bits: BinaryGenome) -> CompleteSolution:
    """Interleave the ordering with its out-edge bits into one chromosome:
    node at position 1, its n-1 bits, node at position 2, its n-2 bits,
    ..., node n. Total length n + n(n-1)/2."""
    n = len(perm)
    if bits.n != n:
        raise EncodingError(
            f"ordering has {n} positions but bit vector is sized for n={bits.n}"
        )
    chrom: list[int] = []
    idx = 0
    for i in range(n - 1):
        chrom.append(perm.order[i])
        take = n - 1 - i
        chrom.extend(int(b) for b in bits.bits[idx:idx + take])
        idx += take
    chrom.append(perm.order[n - 1])
    return CompleteSolution(perm, bits, tuple(chrom))


def split_interleaved(interleaved: Sequence[int], n: int) -> tuple[PermutationGenome, BinaryGenome]:
    """Project an interleaved chromosome back into its two genomes."""
    expected = n + triangular_size(n)
    if len(interleaved) != expected:
        raise EncodingError(
            f"interleaved chromosome has length {len(interleaved)}; expected {expected}"
        )
    order: list[int] = []
    bits: list[int] = []
    pos = 0
    for i in range(n - 1):
        order.append(int(interleaved[pos]))
        pos += 1
        take = n - 1 - i
        bits.extend(int(b) for b in interleaved[pos:pos + take])
        pos += take
    order.append(int(interleaved[pos]))
    return PermutationGenome(order), BinaryGenome(n, bits)


@cache
def _edge_positions(n: int) -> tuple[tuple[int, int], ...]:
    """The (s, t) ordering positions of the n(n-1)/2 edge bits, in bit order."""
    return tuple((s, t) for s in range(n - 1) for t in range(s + 1, n))


def decode_parents(order: Sequence[int], bits: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Parent sets implied by (ordering, bits); sorted tuples, one per node.

    `bits` is any sequence of n(n-1)/2 truthy/falsy values; only the set
    ones are visited.
    """
    n = len(order)
    blist = bits.tolist() if isinstance(bits, np.ndarray) else list(bits)
    positions = _edge_positions(n)
    if len(blist) != len(positions):
        raise EncodingError(
            f"expected {len(positions)} edge bits for n={n}, got {len(blist)}"
        )
    parents: list[list[int]] = [[] for _ in range(n)]
    for s, t in compress(positions, blist):
        parents[order[t]].append(order[s])
    for ps in parents:
        if len(ps) > 1:
            ps.sort()
    return tuple(map(tuple, parents))


def decode(sol: CompleteSolution) -> Dag:
    """Decode a complete solution into its DAG (acyclic by construction)."""
    return Dag._unchecked(len(sol.perm), decode_parents(sol.perm.order, sol.bits.bits))


def encode_dag(dag: Dag) -> CompleteSolution:
    """Encode a DAG by topologically sorting it and setting the edge bits.

    decode(encode_dag(g)) reproduces g exactly; this is the constructive
    witness that the representation covers every DAG.
    """
    n = dag.n
    order = dag.topological_order()
    position = {node: p for p, node in enumerate(order)}  # 0-based positions
    bits = np.zeros(triangular_size(n), dtype=bool)
    for child in range(n):
        for parent in dag.parents[child]:
            s, t = position[parent], position[child]
            bits[triangular_index(s + 1, t + 1, n)] = True
    return combine(PermutationGenome(order), BinaryGenome(n, bits))


def dump_solution(sol: CompleteSolution, names: Sequence[str] | None = None) -> str:
    """Stable two-line debug form: ordered node names, then the bits."""
    if names is None:
        names = [f"X{i + 1}" for i in range(len(sol.perm))]
    return " ".join(names[v] for v in sol.perm.order) + "\n" + sol.bits.to01()
