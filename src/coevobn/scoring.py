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
from typing import Sequence

import numpy as np

from .bayesnet import (
    DENSE_CELLS,
    BayesianNetwork,
    Dag,
    Dataset,
    parent_config_count,
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
    count_stats call and one new entry. score_parent_sets counts every term
    it reads that was already stored in `hits`; `lookups` is their sum. A
    dict read that finds its key runs no Python code, so the hit path stays
    C-only and never builds a parent tuple.
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

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


def count_stats(data: Dataset, node: int, parent_set: Sequence[int]) -> np.ndarray:
    """Tally every row into its (parent configuration, child value) cell:
    the dense (q, r) array of counts when q * r <= DENSE_CELLS, else one
    row per parent configuration that occurs in the data, in lexicographic
    order. The all-zero rows it leaves out add exactly 0 to BDe."""
    n = data.n_cols
    if not 0 <= node < n:
        raise ValidationError(f"node index {node} outside 0..{n - 1}")
    parent_set = tuple(sorted(int(p) for p in parent_set))
    for p in parent_set:
        if not 0 <= p < n:
            raise ValidationError(f"parent index {p} outside 0..{n - 1}")
        if p == node:
            raise ValidationError(f"node {node} cannot be its own parent")
    if data.n_rows == 0:
        raise EmptyDataError(
            "dataset has no rows; scores over an empty dataset do not rank structures"
        )
    rows = data.rows
    arities = data.arities
    r = arities[node]
    if parent_config_count(parent_set, arities) * r > DENSE_CELLS:
        seen, j = np.unique(rows[:, list(parent_set)], axis=0, return_inverse=True)
        flat = j.reshape(-1) * r + rows[:, node]
        return np.bincount(flat, minlength=len(seen) * r).reshape(-1, r)
    flat = rows[:, node]  # becomes j * r + x, one contiguous column per parent
    size = r
    for p in parent_set:
        flat = flat + rows[:, p] * size
        size *= arities[p]
    return np.bincount(flat, minlength=size).reshape(size // r, r)


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


def table_log_score(counts: np.ndarray, n_rows: int) -> float:
    """BDe local score of one (parent configuration, child value) table of
    counts over n_rows rows, in Cooper & Herskovits' form: the sum over
    parent configurations j of log((r-1)!) - log((N_j + r - 1)!) + sum
    over values k of log(N_jk!)."""
    r = counts.shape[1]
    lf = _log_factorials(n_rows + r)
    return float((lf[r - 1] - lf.take(counts.sum(axis=1) + (r - 1))).sum()
                 + lf.take(counts).sum())


def local_log_score(data: Dataset, node: int, parent_set: Sequence[int]) -> float:
    """Log marginal likelihood contribution of one node given its parents."""
    return table_log_score(count_stats(data, node, parent_set), data.n_rows)


def score_parent_sets(masks: Sequence[int], cache: LocalScoreCache) -> float:
    """Sum of the cached local scores of one parent mask per node, as
    decode_parents gives them (hot path)."""
    misses = cache.misses
    total = 0.0
    for key in enumerate(masks):  # += in node order; sum() would compensate
        total += cache[key]
    cache.hits += len(masks) - (cache.misses - misses)
    return total


def bde_log_score(data: Dataset, dag: Dag) -> float:
    """Log marginal likelihood of the data under the structure."""
    if dag.n != data.n_cols:
        raise SchemaError(
            f"structure has {dag.n} nodes but dataset has {data.n_cols} columns"
        )
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
    if dag.n != data.n_cols:
        raise SchemaError(
            f"structure has {dag.n} nodes but dataset has {data.n_cols} columns"
        )
    if data.n_rows == 0:
        raise EmptyDataError(
            "dataset has no rows; scores over an empty dataset do not rank structures"
        )
    arities = data.arities
    a = PSEUDO_COUNT
    # per node: observed parent configuration index -> child value counts,
    # so memory grows with the rows, not with the number of configurations
    counts: list[dict[int, list[int]]] = [{} for _ in range(dag.n)]
    total = 0.0
    for row in data.rows:
        for i in range(dag.n):
            j = parent_config_index(row, dag.parents[i], arities)
            k = int(row[i])
            c = counts[i].setdefault(j, [0] * arities[i])
            predictive = (a + c[k]) / (arities[i] * a + sum(c))
            total += math.log(predictive)
            c[k] += 1
    return total


def fit_network(data: Dataset, dag: Dag) -> BayesianNetwork:
    """Fill a structure with posterior-mean CPTs from the data counts:
    (a + N_ijk) / (r_i a + N_ij) per cell, a = PSEUDO_COUNT."""
    if dag.n != data.n_cols:
        raise SchemaError(
            f"structure has {dag.n} nodes but dataset has {data.n_cols} columns"
        )
    a = PSEUDO_COUNT
    cpts = []
    for i in range(dag.n):
        r = data.arities[i]
        cells = parent_config_count(dag.parents[i], data.arities) * r
        if cells > DENSE_CELLS:
            raise ValidationError(f"node {i} ({data.variables[i].name}) needs a CPT "
                                  f"of {cells} cells, above DENSE_CELLS = {DENSE_CELLS}")
        counts = count_stats(data, i, dag.parents[i])
        cpts.append((a + counts) / (r * a + counts.sum(axis=1)[:, None]))
    return BayesianNetwork(data.variables, dag, cpts)
