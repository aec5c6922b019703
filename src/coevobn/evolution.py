"""Cooperative coevolution of node orderings and edge bitstrings.

Two species evolve side by side, each a list of members with an aligned
fitness array: permutations of the nodes (tuples of ints) and binary
connectivity vectors (bytes, a 0/1 byte per edge bit). A member's fitness is
the best score it forms with collaborators from the other species: the
other's fittest member and one uniformly random member. At generation 0 no
fitness exists yet, so only a random collaborator is used.

Each generation runs selection, crossover, mutation, evaluation and
elitist replacement for the permutation species and then, with the other
operators, for the binary species.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .bayesnet import Dataset
from .encoding import decode_parents, triangular_index, triangular_size
from .errors import (
    EmptyDataError,
    EngineError,
    ValidationError,
    check_number,
    refuse_out_of_memory,
)
from .scoring import LocalScoreCache, score_parent_sets


@dataclass
class GaConfig:
    """Engine parameters. p_mb=None means one expected bit flip per genome
    (1/E with E = n(n-1)/2, resolved once the node count is known).
    validate is the only check of the fields; the operators trust it."""

    generations: int = 250
    population_size: int = 100
    p_c: float = 0.6
    p_mb: float | None = None
    p_mp: float = 0.5
    seed: int = 0

    def validate(self) -> None:
        check_number("generations", self.generations, integer=True, low=0)
        check_number("population_size", self.population_size, integer=True)
        check_number("seed", self.seed, integer=True, low=0)
        if self.population_size < 2 or self.population_size % 2 != 0:
            raise ValidationError(
                f"population_size must be even and >= 2 (tournament pairing), "
                f"got {self.population_size}"
            )
        check_number("p_c", self.p_c, low=0, high=1)
        check_number("p_mp", self.p_mp, low=0, high=1)
        if self.p_mb is not None:  # None: one expected flip, resolved in evolve
            check_number("p_mb", self.p_mb, low=0, high=1)


@dataclass(frozen=True)
class TraceRecord:
    generation: int
    best_score: float
    mean_score: float
    evaluations: int


@dataclass
class ConvergenceTrace:
    """Per-generation statistics of a single run."""

    records: list[TraceRecord]


def trace_csv(records) -> str:
    """The trace CSV of a run's records: one line per generation."""
    lines = ["generation,best_score,mean_score,evaluations"]
    for r in records:
        lines.append(
            f"{r.generation},{r.best_score:.6f},{r.mean_score:.6f},{r.evaluations}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BestSolution:
    perm: tuple[int, ...]
    bits: bytes
    log_score: float


@dataclass
class EvolutionState:
    """What a run returns besides its trace: the best pair it scored."""

    best_so_far: BestSolution


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def init_permutation_pop(n: int, size: int, rng: np.random.Generator) -> list:
    """Uniformly random orderings, no further constraints."""
    members = [None] * size  # a size that cannot be held fails before any draw
    for k in range(size):
        members[k] = tuple(rng.permutation(n).tolist())
    return members


def init_binary_pop(n: int, size: int, rng: np.random.Generator) -> list:
    """Sparse start: every position j > 1 gets exactly one parent position,
    uniform among 1..j-1, so each decoded graph is a tree rooted at the
    first position."""
    E = triangular_size(n)
    members = []
    for _ in range(size):
        bits = bytearray(E)
        for j in range(2, n + 1):
            i = int(rng.integers(1, j))
            bits[triangular_index(i, j, n)] = 1
        members.append(bytes(bits))
    return members


# ---------------------------------------------------------------------------
# Genetic operators
# ---------------------------------------------------------------------------

def tournament_select(members: list, fitness, rng: np.random.Generator) -> list:
    """Two independent random pairings; the fitter member of each pair
    advances (ties by coin flip). Every member competes exactly once per
    pairing, so each participates in exactly two tournaments and the pool
    size equals the population size, which must be even (see
    GaConfig.validate)."""
    size = len(members)
    fit = np.asarray(fitness).tolist()  # plain floats compare faster
    pool = []
    for _ in range(2):
        order = rng.permutation(size).tolist()
        for t in range(0, size, 2):
            i, j = order[t], order[t + 1]
            fi, fj = fit[i], fit[j]
            if fi > fj:
                winner = i
            elif fj > fi:
                winner = j
            else:
                winner = i if rng.random() < 0.5 else j
            pool.append(members[winner])
    return pool


def two_distinct(L: int, rng: np.random.Generator) -> tuple[int, int]:
    """Two distinct indices in 0..L-1 (L >= 2), the same draw for draw as
    rng.choice(L, 2, replace=False) and leaving the same stream behind:
    numpy's Floyd draw followed by its two-element shuffle, without that
    call's per-draw array set-up."""
    i = int(rng.integers(0, L - 1))
    j = int(rng.integers(0, L))
    if j == i:
        j = L - 1
    if rng.integers(0, 2) == 0:
        i, j = j, i
    return i, j


def two_point_crossover(a: bytes, b: bytes, rng: np.random.Generator
                        ) -> tuple[bytes, bytes]:
    """Exchange the middle of the three segments delimited by two distinct
    cut points (drawn uniformly without replacement from the boundaries
    1..L) of two vectors of one length L. Vectors of length < 2 are
    returned unchanged."""
    L = len(a)
    if L < 2:
        return a, b
    c1, c2 = sorted(c + 1 for c in two_distinct(L, rng))  # boundaries 1..L
    return a[:c1] + b[c1:c2] + a[c2:], b[:c1] + a[c1:c2] + b[c2:]


def cycle_crossover(a: tuple[int, ...], b: tuple[int, ...]
                    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exchange whole position-cycles between the parents.

    Both parents permute range(n), as every ordering the engine makes
    does. Cycles are discovered from the first unused position onward; the
    first child takes odd-numbered cycles from `a` and even-numbered ones
    from `b`, the second child the complement. Every child position keeps
    a value present at that position in one of the parents. Deterministic:
    it draws no random numbers.
    """
    pos_in_a = {v: p for p, v in enumerate(a)}
    used = [False] * len(a)
    child1, child2 = list(a), list(b)
    swap = False  # the children swap values on every even-numbered cycle
    for start in range(len(a)):
        if used[start]:
            continue
        p = start
        while not used[p]:  # one walk round the cycle back to start
            used[p] = True
            if swap:
                child1[p], child2[p] = b[p], a[p]
            p = pos_in_a[b[p]]
        swap = not swap
    return tuple(child1), tuple(child2)


def bit_flip_mutation(g: bytes, p_mb: float, rng: np.random.Generator) -> bytes:
    """Flip each bit independently with probability p_mb in [0, 1] (see
    GaConfig.validate); an unflipped child is `g` itself."""
    flips = rng.random(len(g)) < p_mb
    if not np.count_nonzero(flips):  # cheaper than flips.any()
        return g
    return (np.frombuffer(g, dtype=bool) ^ flips).tobytes()


def swap_mutation(g: tuple[int, ...], p_mp: float,
                  rng: np.random.Generator) -> tuple[int, ...]:
    """With probability p_mp in [0, 1] (see GaConfig.validate), swap the
    values at two distinct positions."""
    if len(g) < 2:
        return g
    if rng.random() >= p_mp:
        return g
    i, j = two_distinct(len(g), rng)
    order = list(g)
    order[i], order[j] = order[j], order[i]
    return tuple(order)


def elitist_replace(members: list, fitness, offspring: list, offspring_fitness
                    ) -> tuple[list, np.ndarray]:
    """Next generation: the fittest previous member (ties: lowest index)
    plus all offspring except the single worst-fitness child (ties for
    worst: lowest index). Returns the new (members, fitness)."""
    offspring_fitness = np.asarray(offspring_fitness, dtype=float)
    if len(offspring) != len(members) or offspring_fitness.size != len(members):
        raise EngineError(
            f"offspring count {len(offspring)} does not match "
            f"population size {len(members)}"
        )
    worst = int(np.argmin(offspring_fitness))
    elite = int(np.argmax(fitness))
    return ([members[elite]] + [m for k, m in enumerate(offspring) if k != worst],
            np.concatenate([[fitness[elite]], np.delete(offspring_fitness, worst)]))


# ---------------------------------------------------------------------------
# Fitness evaluation
# ---------------------------------------------------------------------------

def evaluate(members: list, partners: list, partner_fitness, score,
             rng: np.random.Generator) -> np.ndarray:
    """Credit each member with the score of its best assembled solution.

    `score(member, partner)` is the log score of one assembled pair.
    Collaborators: the fittest partner once `partner_fitness` exists
    (generation 0 passes None), then one uniformly random partner. All
    random partners come from a single rng draw made before any scoring.
    """
    rand_idx = rng.integers(0, len(partners), size=len(members)).tolist()
    elite = None if partner_fitness is None else int(np.argmax(partner_fitness))
    fitness = np.empty(len(members))
    for t, member in enumerate(members):
        own = -np.inf if elite is None else score(member, partners[elite])
        fitness[t] = max(own, score(member, partners[rand_idx[t]]))
    return fitness


def _generation(members: list, fitness: np.ndarray, partners: list,
                partner_fitness: np.ndarray, crossover, mutate, score, p_c: float,
                rng: np.random.Generator) -> tuple[list, np.ndarray]:
    """One select, vary, evaluate and replace cycle of one species against
    the other species' current members."""
    pool = tournament_select(members, fitness, rng)
    offspring = []
    for t in range(0, len(pool), 2):
        p1, p2 = pool[t], pool[t + 1]
        c1, c2 = crossover(p1, p2) if rng.random() < p_c else (p1, p2)
        offspring.extend((mutate(c1), mutate(c2)))
    offspring_fitness = evaluate(offspring, partners, partner_fitness, score, rng)
    return elitist_replace(members, fitness, offspring, offspring_fitness)


def evolve(data: Dataset, cfg: GaConfig
           ) -> tuple[EvolutionState, ConvergenceTrace]:
    """Run the full coevolution loop; return its best pair and its trace.

    Deterministic given (data, cfg.seed): evaluation is sequential and
    draws from the same rng as the operators. Operators and scorer are read
    from this module's attributes at call time, so they can be wrapped.
    Two species whose genes alone, population_size * (8n + E) bytes, cannot
    be held are refused before or during set-up (refuse_out_of_memory)."""
    cfg.validate()
    if data.n_rows == 0:
        raise EmptyDataError("cannot evolve structures on a dataset with no rows")
    n, E = data.n_cols, triangular_size(data.n_cols)
    cache = LocalScoreCache(data)
    p_mb = cfg.p_mb if cfg.p_mb is not None else (1.0 / E if E else 0.0)
    rng = np.random.default_rng(cfg.seed)
    best = None         # the strictly best pair scored so far, in scoring order
    evaluations = 0     # pairs scored since the last trace record

    def score_pair(perm, bits) -> float:
        nonlocal best, evaluations
        evaluations += 1
        score = score_parent_sets(decode_parents(perm, bits), cache)
        if best is None or score > best.log_score:
            best = BestSolution(perm, bits, score)
        return score

    def score_bits(bits, perm) -> float:
        return score_pair(perm, bits)

    swap = partial(swap_mutation, p_mp=cfg.p_mp, rng=rng)
    two_point = partial(two_point_crossover, rng=rng)
    flip = partial(bit_flip_mutation, p_mb=p_mb, rng=rng)
    trace = ConvergenceTrace([])
    with refuse_out_of_memory(  # a pointer per node and a byte per bit
            f"setting up two species of population_size = {cfg.population_size} "
            f"over {n} nodes and {E} edge bits: their genes alone ask for",
            cfg.population_size * (8 * n + E)):
        perm_pop = init_permutation_pop(n, cfg.population_size, rng)
        bit_pop = init_binary_pop(n, cfg.population_size, rng)
    # Both species are scored before either has fitness, so generation 0
    # pairs every member with a random partner only.
    perm_fit = evaluate(perm_pop, bit_pop, None, score_pair, rng)
    bit_fit = evaluate(bit_pop, perm_pop, None, score_bits, rng)
    for gen in range(cfg.generations + 1):
        if gen > 0:
            perm_pop, perm_fit = _generation(perm_pop, perm_fit, bit_pop, bit_fit,
                                             cycle_crossover, swap, score_pair,
                                             cfg.p_c, rng)
            bit_pop, bit_fit = _generation(bit_pop, bit_fit, perm_pop, perm_fit,
                                           two_point, flip, score_bits, cfg.p_c, rng)
        mean = float(np.concatenate([perm_fit, bit_fit]).mean())
        trace.records.append(TraceRecord(gen, best.log_score, mean, evaluations))
        evaluations = 0

    return EvolutionState(best), trace
