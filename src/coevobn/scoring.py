"""Bayesian (BDe) log-score of a structure given a fully observable dataset.

The metric is the one the paper shares with its K2 baseline (Cooper &
Herskovits 1992): BDe with every Dirichlet pseudo-count equal to
PSEUDO_COUNT = 1. The total score decomposes into one local term per
(node, parent set); those terms are memoized in a LocalScoreCache, keyed
on (node, parent mask).
prequential_log_score computes the same quantity by the chain rule of the
marginal likelihood, multiplying posterior-predictive probabilities row by
row; it serves as an independent oracle for the closed form.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from itertools import accumulate
from operator import mul
from typing import Sequence

import numpy as np

from .bayesnet import (
    DENSE_CELLS,
    BayesianNetwork,
    Dag,
    Dataset,
    mixed_radix_index,
    parent_config_index,
)
from .encoding import mask_nodes
from .errors import EmptyDataError, SchemaError, ValidationError


# Dirichlet pseudo-count of every (parent configuration, child value) cell;
# a row of a node with arity r carries r * PSEUDO_COUNT in total.
# local_log_score uses the factorial form of BDe, which holds for a
# pseudo-count of 1 only.
PSEUDO_COUNT = 1.0

# _LOG_FACTORIALS[j] = log(j!), j = 0, 1, ...; grown on demand
_LOG_FACTORIALS = np.zeros(2)


class LocalScoreCache(dict):
    """Memo of (node, parent mask) -> local log-score on one dataset, where
    bit p of the mask is set when p is a parent of node (as decode_parents
    gives them; masks are Python ints, exact at any node count). Not
    synchronized: share one cache within one thread only.

    `cache[node, mask]` computes a missing term with local_log_score of the
    mask's sorted parent tuple and counts it in `misses`: each miss is one
    new entry, and one count_stats call when the family's table fits in
    DENSE_CELLS cells (see local_log_score). score_parent_sets counts every term
    it reads that was already stored in `hits`. A dict read that finds its
    key runs no Python code, so the hit path stays C-only and never builds
    a parent tuple.
    """

    def __init__(self, data: Dataset):
        super().__init__()
        self.data = data
        self.hits = 0
        self.misses = 0

    def __missing__(self, key: tuple[int, int]) -> float:
        node, mask = key
        value = self[key] = local_log_score(self.data, node, mask_nodes(mask))
        self.misses += 1
        return value


def _family(data: Dataset, node: int,
            parent_set: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The sorted parents of a valid family on a non-empty dataset, and the
    cells q * r of its count table."""
    arities = data.arities
    n = len(arities)
    if not 0 <= node < n:
        raise ValidationError(f"node index {node} outside 0..{n - 1}")
    parent_set = tuple(sorted(map(int, parent_set)))
    if parent_set and (parent_set[0] < 0 or parent_set[-1] >= n
                       or node in parent_set):
        p = parent_set[0] if parent_set[0] < 0 else parent_set[-1]
        if not 0 <= p < n:
            raise ValidationError(f"parent index {p} outside 0..{n - 1}")
        raise ValidationError(f"node {node} cannot be its own parent")
    if not len(data.rows):
        raise EmptyDataError(
            "dataset has no rows; scores over an empty dataset do not rank structures"
        )
    cells = arities[node]
    for p in parent_set:
        cells *= arities[p]
    return parent_set, cells


def _bit_table(data: Dataset, node: int, parent_set: Sequence[int]) -> np.ndarray:
    """The (cells, ceil(m / 64)) row bitsets of every cell of a sorted
    family that Dataset.fits_bits admits, in count_stats order: the child's
    bit table ANDed with each parent's, one broadcast per parent."""
    table = data.bits(node)
    for p in parent_set:  # p's value becomes the slowest axis so far
        table = (data.bits(p)[:, None] & table).reshape(-1, table.shape[1])
    return table


def count_stats(data: Dataset, node: int, parent_set: Sequence[int]) -> np.ndarray:
    """The dense (q, r) int64 array of counts of every (parent configuration,
    child value) cell, in mixed_radix_index order: child fastest, then the
    parents in ascending order. A table above DENSE_CELLS cells is refused.

    A table that Dataset.fits_bits admits popcounts each cell's row bitset
    (_bit_table). A larger table tallies the rows' mixed radix index with
    one bincount. Both give the same table."""
    parent_set, cells = _family(data, node, parent_set)
    if cells > DENSE_CELLS:
        raise ValidationError(f"node {node} ({data.variables[node].name}) needs a "
                              f"table of {cells} cells, above DENSE_CELLS = {DENSE_CELLS}")
    r = data.arities[node]
    if data.fits_bits(cells):
        return np.add.reduce(np.bitwise_count(_bit_table(data, node, parent_set)),
                             axis=1, dtype=np.int64).reshape(-1, r)
    flat = mixed_radix_index(data.rows, (node, *parent_set), data.arities)
    return np.bincount(flat, minlength=cells).reshape(-1, r)


def extension_scores(data: Dataset, node: int, parent_set: Sequence[int],
                     candidates: Sequence[int]) -> list[float]:
    """local_log_score(data, node, parent_set + (c,)) of each candidate c,
    bit for bit. Candidates must be distinct nodes outside the family,
    which is validated as local_log_score validates it.

    A candidate family that Dataset.fits_bits admits is counted with the
    others of its arity and insertion slot: one stacked AND of their bit
    tables with the family's (_bit_table), a popcount, and a transpose that
    moves each candidate's axis to its sorted place. A larger one within
    DENSE_CELLS cells extends the family's mixed_radix_index to
    a_c index + x_c, one bincount each; one above goes to local_log_score.
    Every table equals count_stats' and is summed in the same order."""
    parent_set, cells = _family(data, node, parent_set)
    rows, arities, m = data.rows, data.arities, data.n_rows
    r = arities[node]
    strides = list(accumulate((arities[p] for p in parent_set), mul, initial=r))
    scores = [0.0] * len(candidates)
    by_arity: dict[int, list[int]] = {}  # a_c -> i
    for i, cand in enumerate(candidates):
        by_arity.setdefault(arities[cand], []).append(i)
    table = index = None
    for a, idx in by_arity.items():
        if cells * a > DENSE_CELLS:
            for i in idx:
                scores[i] = local_log_score(data, node, (*parent_set, candidates[i]))
        elif data.fits_bits(cells * a):
            if table is None:
                table = _bit_table(data, node, parent_set)
            slots: dict[int, list[int]] = {}  # insertion slot -> i
            for i in idx:
                slots.setdefault(bisect_left(parent_set, candidates[i]), []).append(i)
            for slot, group in slots.items():
                k = len(group)
                both = np.concatenate([data.bits(candidates[i]) for i in group]).reshape(
                    k, a, 1, -1) & table
                counts = np.add.reduce(np.bitwise_count(both), axis=-1, dtype=np.int64)
                counts = counts.reshape(k, a, -1, strides[slot]).transpose(0, 2, 1, 3)
                for i, score in zip(group, table_log_score(
                        counts.reshape(k, -1, r), m).tolist()):
                    scores[i] = score
        else:
            if index is None:
                index = mixed_radix_index(rows, (node, *parent_set), arities)
            scaled = index * a
            for i in idx:
                cand = candidates[i]
                scores[i] = float(table_log_score(
                    np.bincount(scaled + rows[:, cand], minlength=cells * a)
                    .reshape(-1, strides[bisect_left(parent_set, cand)], a)
                    .swapaxes(1, 2).reshape(-1, r), m))
    return scores


def _log_factorials(size: int) -> np.ndarray:
    """A table of log(j!) for j = 0 .. at least size - 1. Entries 0 and 1
    are exactly 0.0, so an empty cell or row adds exactly 0 to a score."""
    global _LOG_FACTORIALS
    have = len(_LOG_FACTORIALS)
    if have < size:
        grown = max(size, 2 * have)
        more = np.fromiter((math.lgamma(j + 1) for j in range(have, grown)),
                           float, grown - have)
        _LOG_FACTORIALS = np.concatenate([_LOG_FACTORIALS, more])
    return _LOG_FACTORIALS


def _bde(n_j: np.ndarray, n_jk: np.ndarray, r: int, n_rows: int) -> np.ndarray:
    """BDe local score in Cooper & Herskovits' form from the rows N_j of
    each parent configuration j and N_jk of each cell, both along the last
    axis: the sum over j of log((r-1)!) - log((N_j + r - 1)!), plus the sum
    of log(N_jk!). An empty configuration or cell adds exactly 0, so either
    may be left out. A stack of families gives one score each; every row is
    summed as the same 1-D array alone would be."""
    lf = _log_factorials(n_rows + r)
    # np.add.reduce is what ndarray.sum calls, without its Python wrapper
    return (np.add.reduce(lf[r - 1] - lf.take(n_j + (r - 1)), axis=-1)
            + np.add.reduce(lf.take(n_jk), axis=-1))


def table_log_score(counts: np.ndarray, n_rows: int) -> np.ndarray:
    """BDe local score of a (parent configuration, child value) table of
    counts over n_rows rows, or of each table of a (k, q, r) stack, bit for
    bit as that table alone; a numpy scalar or a (k,) array."""
    return _bde(np.add.reduce(counts, axis=-1),
                counts.reshape(*counts.shape[:-2], -1), counts.shape[-1], n_rows)


def local_log_score(data: Dataset, node: int, parent_set: Sequence[int]) -> float:
    """Log marginal likelihood contribution of one node given its parents:
    from count_stats' table within DENSE_CELLS cells, else from the observed
    (configuration, value) pairs, so memory grows with the rows at any arity.
    The observed configurations are numbered in the lexicographic order of
    their parent values, first parent most significant, from a 1-D mixed
    radix key that is re-ranked before it could pass 2^62."""
    parent_set, cells = _family(data, node, parent_set)
    if cells <= DENSE_CELLS:
        return float(table_log_score(count_stats(data, node, parent_set), data.n_rows))
    rows, arities = data.rows, data.arities
    key, span = np.zeros(data.n_rows, dtype=np.int64), 1  # 0 <= key < span
    for p in parent_set:
        if span * arities[p] > 1 << 62:
            span, key = _rank(key)
        key = key * arities[p] + rows[:, p]
        span *= arities[p]
    j = _rank(key)[1]
    r = arities[node]
    pairs = np.unique(j * r + rows[:, node], return_counts=True)[1]
    return float(_bde(np.bincount(j), pairs, r, data.n_rows))


def _rank(key: np.ndarray) -> tuple[int, np.ndarray]:
    """The number of distinct keys and each key's rank among them."""
    distinct, rank = np.unique(key, return_inverse=True)
    return len(distinct), rank.reshape(-1)


def score_parent_sets(masks: Sequence[int], cache: LocalScoreCache) -> float:
    """Sum of the cached local scores of one parent mask per node, as
    decode_parents gives them (hot path)."""
    misses = cache.misses
    total = 0.0
    for key in enumerate(masks):  # += in node order; sum() would compensate
        total += cache[key]
    cache.hits += len(masks) - (cache.misses - misses)
    return total


def _check_schema(data: Dataset, dag: Dag) -> None:
    if dag.n != data.n_cols:
        raise SchemaError(f"structure has {dag.n} nodes but dataset has "
                          f"{data.n_cols} columns")


def bde_log_score(data: Dataset, dag: Dag) -> float:
    """Log marginal likelihood of the data under the structure."""
    _check_schema(data, dag)
    total = 0.0
    for node, parents in enumerate(dag.parents):
        total += local_log_score(data, node, parents)
    return total


def prequential_log_score(data: Dataset, dag: Dag) -> float:
    """Sequential-predictive evaluation of the same marginal likelihood.

    Processes rows in order, scoring each row by the current
    posterior-mean predictive of every node and then updating the counts.
    Mathematically identical to bde_log_score, but shares no code path
    with the closed form.
    """
    _check_schema(data, dag)
    if data.n_rows == 0:
        raise EmptyDataError(
            "dataset has no rows; scores over an empty dataset do not rank structures"
        )
    arities = data.arities
    a = PSEUDO_COUNT
    # per node: rows seen per parent configuration j, and per cell j * r + k
    # of a configuration and child value; both grow with the rows, at any arity
    totals = [Counter() for _ in range(dag.n)]
    cells = [Counter() for _ in range(dag.n)]
    total = 0.0
    for row in data.rows:
        for i in range(dag.n):
            j = parent_config_index(row, dag.parents[i], arities)
            key = j * arities[i] + int(row[i])
            total += math.log((a + cells[i][key]) / (arities[i] * a + totals[i][j]))
            totals[i][j] += 1
            cells[i][key] += 1
    return total


def fit_network(data: Dataset, dag: Dag) -> BayesianNetwork:
    """Fill a structure with posterior-mean CPTs from the data counts:
    (a + N_ijk) / (r_i a + N_ij) per cell, a = PSEUDO_COUNT."""
    _check_schema(data, dag)
    a = PSEUDO_COUNT
    cpts = []
    for i in range(dag.n):
        r = data.arities[i]
        counts = count_stats(data, i, dag.parents[i])
        cpts.append((a + counts) / (r * a + counts.sum(axis=1)[:, None]))
    return BayesianNetwork(data.variables, dag, cpts)
