"""Baselines and brute-force oracles: K2 greedy search, exhaustive DAG
enumeration for small node counts, and the exact labeled-DAG counter."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import comb
from typing import Iterator

import numpy as np

from .bayesnet import Dag, Dataset
from .encoding import decode_parents, masks_dag, triangular_size
from .errors import ValidationError, check_number, is_number
from .scoring import (
    LocalScoreCache,
    _refuse_empty,
    extension_scores,
    local_log_score,
    score_parent_sets,
)

ENUMERATION_LIMIT = 5
COUNT_LIMIT = 500           # count_dags(500) has 38,602 digits


@dataclass
class K2Config:
    """Greedy search settings. ordering is "random" (drawn uniformly from
    the seed) or a list of integers that permutes 0..n-1."""

    ordering: object = "random"
    max_parents: int = 10
    seed: int = 0

    def validate(self) -> None:
        check_number("max_parents", self.max_parents, integer=True, low=0)
        check_number("seed", self.seed, integer=True, low=0)
        order = self.ordering
        if isinstance(order, str) and order == "random":
            return
        if not (isinstance(order, list)
                and all(is_number(v, integer=True) for v in order)
                and sorted(order) == list(range(len(order)))):
            raise ValidationError(f"ordering must be 'random' or a list of integers "
                                  f"that permutes 0..n-1, got {order!r}")


def k2_learn(data: Dataset, cfg: K2Config) -> tuple[Dag, float]:
    """Greedy structure search along a node ordering.

    Every node starts parentless; the single predecessor whose addition
    raises the node's local score the most is added, until no addition
    strictly improves it or max_parents is reached. Ties between candidate
    parents go to the one earliest in the ordering. Each step scores its
    candidates with scoring.extension_scores.
    """
    cfg.validate()
    _refuse_empty(data)
    n = data.n_cols
    if cfg.ordering == "random":
        order = [int(v) for v in np.random.default_rng(cfg.seed).permutation(n)]
    elif len(cfg.ordering) == n:
        order = [int(v) for v in cfg.ordering]
    else:
        raise ValidationError(
            f"ordering has {len(cfg.ordering)} entries but dataset has {n} columns"
        )
    parent_sets: list[tuple[int, ...]] = [()] * n
    local_scores = [0.0] * n
    for pos, node in enumerate(order):
        chosen: tuple[int, ...] = ()   # kept sorted
        current = local_log_score(data, node, ())
        while len(chosen) < cfg.max_parents:
            cands = [c for c in order[:pos] if c not in chosen]
            scores = extension_scores(data, node, chosen, cands)
            # max keeps the first of equal scores: ties go to the earliest
            best = max(range(len(cands)), key=scores.__getitem__, default=None)
            if best is None or not scores[best] > current:
                break
            chosen = tuple(sorted((*chosen, cands[best])))
            current = scores[best]
        parent_sets[node] = chosen
        local_scores[node] = current
    # added one by one in node order, as bde_log_score does, so the total
    # is bit-identical to rescoring the DAG
    total = 0.0
    for value in local_scores:
        total += value
    return Dag(n, parent_sets), total


_DAG_COUNTS: list[int] = [1]   # _DAG_COUNTS[m] = count_dags(m), m = 0, 1, ...


def count_dags(n: int) -> int:
    """Exact number of labeled DAGs on n nodes, by inclusion-exclusion
    over the nodes with no incoming edges (exact integer arithmetic)."""
    check_number("node count", n, integer=True, low=1, high=COUNT_LIMIT)
    while len(_DAG_COUNTS) <= n:
        m = len(_DAG_COUNTS)
        total = 0
        for k in range(1, m + 1):
            term = (comb(m, k) * _DAG_COUNTS[m - k]) << (k * (m - k))
            total += term if k % 2 == 1 else -term
        _DAG_COUNTS.append(total)
    return _DAG_COUNTS[n]


def _enumerate_masks(n: int) -> Iterator[tuple[int, ...]]:
    """The parent masks of every labeled DAG on n nodes, once each, in
    enumeration order (see enumerate_dags). The node count is checked at
    the call; the masks are made as they are iterated."""
    check_number("node count", n, integer=True, low=1)
    if n > ENUMERATION_LIMIT:
        raise ValidationError(
            f"refusing to enumerate DAGs on {n} nodes: the count is "
            f"super-exponential ({count_dags(ENUMERATION_LIMIT + 1)} already at "
            f"{ENUMERATION_LIMIT + 1}); limit is {ENUMERATION_LIMIT}"
        )
    E = triangular_size(n)
    masks = [bytes((mask >> b) & 1 for b in range(E)) for mask in range(1 << E)]

    def unique_keys():
        seen: set[tuple[int, ...]] = set()
        for order in permutations(range(n)):
            for bits in masks:
                key = decode_parents(order, bits)
                if key not in seen:
                    seen.add(key)
                    yield key
    return unique_keys()


def enumerate_dags(n: int) -> Iterator[Dag]:
    """Yield every labeled DAG on n nodes exactly once.

    Decodes every (ordering, edge mask) pair with decode_parents, bit b of
    the mask being edge bit b and masks ascending within each ordering, so
    every graph is acyclic by construction. Deduplicates by parent masks;
    the cross-check that the yielded count equals count_dags(n) doubles as
    a completeness test of the encoding.
    """
    return map(masks_dag, _enumerate_masks(n))


def score_all_dags(data: Dataset) -> Iterator[tuple[Dag, float]]:
    """Score every structure on the dataset's variables (small n only),
    memoizing local scores across structures; the node count is checked
    at the call."""
    keys, cache = _enumerate_masks(data.n_cols), LocalScoreCache(data)
    return ((masks_dag(key), score_parent_sets(key, cache)) for key in keys)


def exhaustive_best(data: Dataset) -> tuple[Dag, float]:
    """Global optimum (dag, log score) by scoring every structure (up to
    ENUMERATION_LIMIT variables); the first structure enumerated wins ties."""
    return max(score_all_dags(data), key=lambda pair: pair[1])
