"""Cooperative coevolution of node orderings and edge bitstrings.

Two subpopulations evolve side by side: permutations of the nodes (tuples
of ints) and binary connectivity vectors (read-only bool arrays). A
member's fitness is the score of the best complete solution it forms with
collaborators from the other subpopulation (the recorded best plus one
uniformly random member; the higher assembled score is credited). At
generation 0 no best exists yet, so only a random collaborator is used.

Each generation runs selection, crossover, mutation, evaluation, and
elitist replacement for the permutation species and then for the binary
species. Evaluation is sequential, so runs are deterministic given the
seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bayesnet import Dataset
from .encoding import decode_parents, triangular_index, triangular_size
from .errors import EmptyDataError, EngineError, ValidationError, check_number
from .scoring import LocalScoreCache, score_parent_sets

PERMUTATION = "permutation"
BINARY = "binary"


@dataclass
class GaConfig:
    """Engine parameters. p_mb=None means one expected bit flip per genome
    (1/E with E = n(n-1)/2, resolved once the node count is known)."""

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


@dataclass
class Subpopulation:
    """One species' members and their fitness values (aligned by index)."""

    species: str
    members: list
    fitness: np.ndarray | None = None

    @property
    def best_index(self) -> int:
        if self.fitness is None:
            raise EngineError("subpopulation has no recorded fitness yet")
        return int(np.argmax(self.fitness))  # ties: lowest index

    @property
    def best(self):
        return self.members[self.best_index]

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class TraceRecord:
    generation: int
    best_score: float
    mean_score: float
    evaluations: int


class ConvergenceTrace:
    """Per-generation statistics of a single run."""

    def __init__(self):
        self.records: list[TraceRecord] = []

    def append(self, record: TraceRecord) -> None:
        if self.records and record.generation <= self.records[-1].generation:
            raise EngineError("trace generations must be strictly increasing")
        self.records.append(record)

    @property
    def best_scores(self) -> list[float]:
        return [r.best_score for r in self.records]

    def to_csv(self) -> str:
        lines = ["generation,best_score,mean_score,evaluations"]
        for r in self.records:
            lines.append(
                f"{r.generation},{r.best_score:.6f},{r.mean_score:.6f},{r.evaluations}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            f.write(self.to_csv())

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


@dataclass(frozen=True, eq=False)
class BestSolution:
    perm: tuple[int, ...]
    bits: np.ndarray
    log_score: float


@dataclass
class EvolutionState:
    """What a run returns besides its trace: the best pair it scored."""

    best_so_far: BestSolution


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def init_permutation_pop(n: int, size: int, rng: np.random.Generator) -> Subpopulation:
    """Uniformly random orderings, no further constraints."""
    members = [tuple(rng.permutation(n).tolist()) for _ in range(size)]
    return Subpopulation(PERMUTATION, members)


def init_binary_pop(n: int, size: int, rng: np.random.Generator) -> Subpopulation:
    """Sparse start: every position j > 1 gets exactly one parent position,
    uniform among 1..j-1, so each decoded graph is a tree rooted at the
    first position."""
    E = triangular_size(n)
    members = []
    for _ in range(size):
        bits = np.zeros(E, dtype=bool)
        for j in range(2, n + 1):
            i = int(rng.integers(1, j))
            bits[triangular_index(i, j, n)] = True
        bits.setflags(write=False)
        members.append(bits)
    return Subpopulation(BINARY, members)


# ---------------------------------------------------------------------------
# Genetic operators
# ---------------------------------------------------------------------------

def tournament_select(pop: Subpopulation, rng: np.random.Generator) -> list:
    """Two independent random pairings; the fitter member of each pair
    advances (ties by coin flip). Every member competes exactly once per
    pairing, so each participates in exactly two tournaments and the pool
    size equals the population size."""
    size = len(pop)
    if size % 2 != 0:
        raise EngineError(f"tournament pairing needs an even population, got {size}")
    if pop.fitness is None:
        raise EngineError("tournament selection requires evaluated fitness")
    pool = []
    for _ in range(2):
        order = rng.permutation(size)
        for t in range(0, size, 2):
            i, j = int(order[t]), int(order[t + 1])
            fi, fj = pop.fitness[i], pop.fitness[j]
            if fi > fj:
                winner = i
            elif fj > fi:
                winner = j
            else:
                winner = i if rng.random() < 0.5 else j
            pool.append(pop.members[winner])
    return pool


def two_point_crossover(a: np.ndarray, b: np.ndarray, rng: np.random.Generator
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Exchange the middle of the three segments delimited by two distinct
    cut points (drawn uniformly without replacement from the boundaries
    1..L). Vectors of length < 2 are returned unchanged; children are
    fresh read-only arrays."""
    L = a.size
    if b.size != L:
        raise EngineError(f"cannot cross bit vectors of lengths {L} and {b.size}")
    if L < 2:
        return a, b
    c1, c2 = sorted(int(c) for c in rng.choice(np.arange(1, L + 1), size=2,
                                               replace=False))
    child1 = a.copy()
    child1[c1:c2] = b[c1:c2]
    child2 = b.copy()
    child2[c1:c2] = a[c1:c2]
    child1.setflags(write=False)
    child2.setflags(write=False)
    return child1, child2


def cycle_crossover(a: tuple[int, ...], b: tuple[int, ...]
                    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exchange whole position-cycles between the parents.

    Cycles are discovered from the first unused position onward; the first
    child takes odd-numbered cycles from `a` and even-numbered ones from
    `b`, the second child the complement. Every child position keeps a
    value present at that position in one of the parents. Deterministic:
    it draws no random numbers.
    """
    if len(a) != len(b):  # orderings are permutations of range(n) by construction
        raise EngineError("cycle crossover requires permutations of the same length")
    n = len(a)
    pos_in_a = {v: p for p, v in enumerate(a)}
    used = [False] * n
    child1 = [0] * n
    child2 = [0] * n
    take_from_a = True
    for start in range(n):
        if used[start]:
            continue
        cycle = []
        p = start
        while True:
            cycle.append(p)
            used[p] = True
            p = pos_in_a[b[p]]
            if p == start:
                break
        for p in cycle:
            child1[p] = a[p] if take_from_a else b[p]
            child2[p] = b[p] if take_from_a else a[p]
        take_from_a = not take_from_a
    return tuple(child1), tuple(child2)


def bit_flip_mutation(g: np.ndarray, p_mb: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Flip each bit independently with probability p_mb; a flipped child
    is a fresh read-only array, an unflipped one is `g` itself."""
    if not 0.0 <= p_mb <= 1.0:
        raise ValidationError(f"p_mb must lie in [0, 1], got {p_mb}")
    if g.size == 0:
        return g
    flips = rng.random(g.size) < p_mb
    if not flips.any():
        return g
    child = np.logical_xor(g, flips)
    child.setflags(write=False)
    return child


def swap_mutation(g: tuple[int, ...], p_mp: float,
                  rng: np.random.Generator) -> tuple[int, ...]:
    """With probability p_mp, swap the values at two distinct positions."""
    if not 0.0 <= p_mp <= 1.0:
        raise ValidationError(f"p_mp must lie in [0, 1], got {p_mp}")
    if len(g) < 2:
        return g
    if rng.random() >= p_mp:
        return g
    i, j = (int(x) for x in rng.choice(len(g), size=2, replace=False))
    order = list(g)
    order[i], order[j] = order[j], order[i]
    return tuple(order)


def elitist_replace(prev: Subpopulation, offspring_members: list,
                    offspring_fitness) -> Subpopulation:
    """Next generation: previous best member plus all offspring except the
    single worst-fitness child (ties for worst: lowest index)."""
    offspring_fitness = np.asarray(offspring_fitness, dtype=float)
    if len(offspring_members) != len(prev) or offspring_fitness.size != len(prev):
        raise EngineError(
            f"offspring count {len(offspring_members)} does not match "
            f"population size {len(prev)}"
        )
    worst = int(np.argmin(offspring_fitness))
    elite_fit = prev.fitness[prev.best_index]
    members = [prev.best] + [m for k, m in enumerate(offspring_members) if k != worst]
    fitness = np.concatenate([[elite_fit], np.delete(offspring_fitness, worst)])
    return Subpopulation(prev.species, members, fitness)


# ---------------------------------------------------------------------------
# Fitness evaluation
# ---------------------------------------------------------------------------

class _BestTracker:
    """Running argmax over every complete solution scored in a run, plus the
    number of solutions scored since the last trace record."""

    def __init__(self):
        self.best: BestSolution | None = None
        self._evaluations = 0

    def update(self, perm: tuple[int, ...], bits: np.ndarray, score: float) -> None:
        self._evaluations += 1
        if self.best is None or score > self.best.log_score:
            self.best = BestSolution(perm, bits, score)

    def record(self, generation: int, mean_score: float) -> TraceRecord:
        """Close a generation: its trace record, then restart the count."""
        record = TraceRecord(generation, self.best.log_score, mean_score,
                             self._evaluations)
        self._evaluations = 0
        return record


def evaluate(members: list, own_species: str, other_pop: Subpopulation,
             cache: LocalScoreCache, rng: np.random.Generator,
             tracker: _BestTracker | None = None) -> np.ndarray:
    """Credit each member with the score of its best assembled solution.

    Collaborators: the other subpopulation's recorded best once fitness
    exists (generation 0 has none), then one uniformly random member. All
    random partners come from a single rng draw made before any scoring.
    Every assembled pair is offered to `tracker` in scoring order.
    """
    rand_idx = rng.integers(0, len(other_pop), size=len(members)).tolist()
    best_partner = None if other_pop.fitness is None else other_pop.best
    own_is_perm = own_species == PERMUTATION

    def assemble(member, partner) -> float:
        perm, bits = (member, partner) if own_is_perm else (partner, member)
        score = score_parent_sets(decode_parents(perm, bits), cache)
        if tracker is not None:
            tracker.update(perm, bits, score)
        return score

    fitness = np.empty(len(members))
    for t, member in enumerate(members):
        best = -np.inf if best_partner is None else assemble(member, best_partner)
        fitness[t] = max(best, assemble(member, other_pop.members[rand_idx[t]]))
    return fitness


def _mean_fitness(perm_pop: Subpopulation, bin_pop: Subpopulation) -> float:
    return float(np.concatenate([perm_pop.fitness, bin_pop.fitness]).mean())


def _species_generation(pop, other_pop, cache, rng, cfg, p_mb,
                        tracker) -> Subpopulation:
    size = len(pop)
    pool = tournament_select(pop, rng)
    offspring = []
    for t in range(0, size, 2):
        p1, p2 = pool[t], pool[t + 1]
        if rng.random() < cfg.p_c:
            if pop.species == PERMUTATION:
                c1, c2 = cycle_crossover(p1, p2)
            else:
                c1, c2 = two_point_crossover(p1, p2, rng)
        else:
            c1, c2 = p1, p2  # shared, not copied: members are never written
        if pop.species == PERMUTATION:
            c1 = swap_mutation(c1, cfg.p_mp, rng)
            c2 = swap_mutation(c2, cfg.p_mp, rng)
        else:
            c1 = bit_flip_mutation(c1, p_mb, rng)
            c2 = bit_flip_mutation(c2, p_mb, rng)
        offspring.extend((c1, c2))
    fitness = evaluate(offspring, pop.species, other_pop, cache, rng, tracker)
    return elitist_replace(pop, offspring, fitness)


def evolve(data: Dataset, cfg: GaConfig
           ) -> tuple[EvolutionState, ConvergenceTrace]:
    """Run the full coevolution loop; return its best pair and its trace.

    Deterministic given (data, cfg.seed): evaluation is sequential and
    draws from the same rng as the operators.
    """
    cfg.validate()
    if data.n_rows == 0:
        raise EmptyDataError("cannot evolve structures on a dataset with no rows")
    cache = LocalScoreCache(data)
    n = data.n_cols
    E = triangular_size(n)
    p_mb = cfg.p_mb if cfg.p_mb is not None else (1.0 / E if E else 0.0)
    rng = np.random.default_rng(cfg.seed)
    size = cfg.population_size

    perm_pop = init_permutation_pop(n, size, rng)
    bin_pop = init_binary_pop(n, size, rng)
    tracker = _BestTracker()
    trace = ConvergenceTrace()

    # Both species are scored before either records fitness, so generation
    # 0 pairs every member with a random partner only.
    perm_fitness = evaluate(perm_pop.members, PERMUTATION, bin_pop, cache, rng,
                            tracker)
    bin_fitness = evaluate(bin_pop.members, BINARY, perm_pop, cache, rng, tracker)
    perm_pop.fitness, bin_pop.fitness = perm_fitness, bin_fitness
    trace.append(tracker.record(0, _mean_fitness(perm_pop, bin_pop)))
    for gen in range(1, cfg.generations + 1):
        perm_pop = _species_generation(perm_pop, bin_pop, cache, rng, cfg, p_mb,
                                       tracker)
        bin_pop = _species_generation(bin_pop, perm_pop, cache, rng, cfg, p_mb,
                                      tracker)
        trace.append(tracker.record(gen, _mean_fitness(perm_pop, bin_pop)))

    return EvolutionState(tracker.best), trace
