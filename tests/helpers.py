"""Shared builders for small hand-checked networks and datasets."""

import json
import math

import numpy as np

from coevobn import (
    BayesianNetwork,
    Dag,
    Dataset,
    SchemaError,
    Variable,
    local_log_score,
)
from coevobn.bayesnet import parent_config_index


def binary_vars(n):
    return [Variable(f"X{i + 1}", 2) for i in range(n)]


def single_binary(p_one):
    """One binary node with P(X=1) = p_one."""
    return BayesianNetwork(binary_vars(1), Dag(1, [()]),
                           [np.array([[1.0 - p_one, p_one]])])


def independent_pair(p_one):
    """Two binary nodes, empty graph, both with P(X=1) = p_one."""
    cpt = np.array([[1.0 - p_one, p_one]])
    return BayesianNetwork(binary_vars(2), Dag(2, [(), ()]), [cpt, cpt])


def chain_pair(p_a, p_b_given):
    """A -> B binary; p_b_given[a] = P(B=1 | A=a)."""
    cpt_a = np.array([[1.0 - p_a, p_a]])
    cpt_b = np.array([[1.0 - p_b_given[0], p_b_given[0]],
                      [1.0 - p_b_given[1], p_b_given[1]]])
    return BayesianNetwork(binary_vars(2), Dag(2, [(), (0,)]), [cpt_a, cpt_b])


def chain3(strength=0.9):
    """X1 -> X2 -> X3 binary chain; each link copies its parent with
    probability `strength`."""
    root = np.array([[0.5, 0.5]])
    link = np.array([[strength, 1.0 - strength],
                     [1.0 - strength, strength]])
    return BayesianNetwork(binary_vars(3), Dag(3, [(), (0,), (1,)]),
                           [root, link, link])


def chain4(seed=99):
    """X1 -> X2 -> X3 -> X4 binary chain with flat-Dirichlet CPT rows."""
    rng = np.random.default_rng(seed)
    cpts = [rng.dirichlet(np.ones(2), size=1)]
    cpts += [rng.dirichlet(np.ones(2), size=2) for _ in range(3)]
    return BayesianNetwork(binary_vars(4), Dag(4, [(), (0,), (1,), (2,)]), cpts)


def joint_probability(net, assignment):
    """Probability of one full assignment: the product of its per-node CPT
    entries. The oracle that sampled frequencies are checked against."""
    if len(assignment) != net.n:
        raise SchemaError(
            f"assignment has {len(assignment)} values; network has {net.n} variables"
        )
    arities = net.arities
    for i, v in enumerate(assignment):
        if not 0 <= int(v) < arities[i]:
            raise SchemaError(
                f"value {v} for variable {net.variables[i].name!r} is outside "
                f"0..{arities[i] - 1}"
            )
    prob = 1.0
    for i in range(net.n):
        j = parent_config_index(assignment, net.dag.parents[i], arities)
        prob *= float(net.cpts[i][j, int(assignment[i])])
    return prob


def reference_network_text(variables, dag, cpts=None):
    """A network file's text from one json.dumps call over a document whose
    CPTs are all converted to lists first: the text the streaming writer
    must reproduce byte for byte."""
    doc = {
        "variables": [{"name": v.name, "arity": v.arity} for v in variables],
        "parents": [list(ps) for ps in dag.parents],
        "cpts": None if cpts is None else [t.tolist() for t in cpts],
    }
    return json.dumps(doc, indent=2) + "\n"


def dataset(arities, rows):
    variables = [Variable(f"X{i + 1}", a) for i, a in enumerate(arities)]
    return Dataset(variables, rows)


def parent_mask(parents):
    """The cache key of a parent set: bit p set for each parent p."""
    return sum(1 << int(p) for p in parents)


def dag_masks(dag):
    """One parent mask per node of `dag`, as decode_parents gives them."""
    return tuple(map(parent_mask, dag.parents))


def random_instance(rng, max_nodes=4, max_rows=50):
    """Random dataset (arities 2-3) plus an unrelated random DAG on its nodes."""
    n = int(rng.integers(1, max_nodes + 1))
    arities = [int(a) for a in rng.integers(2, 4, size=n)]
    m = int(rng.integers(1, max_rows + 1))
    rows = np.stack([rng.integers(0, a, size=m) for a in arities], axis=1)
    order = rng.permutation(n)
    parents = [[] for _ in range(n)]
    for s in range(n - 1):
        for t in range(s + 1, n):
            if rng.random() < 0.5:
                parents[int(order[t])].append(int(order[s]))
    return dataset(arities, rows), Dag(n, parents)


def distinct_parent_rows(n_parents, m, seed=0):
    """Binary data over n_parents + 1 columns in which no two rows share the
    values of columns 1..n_parents: columns 1..8 carry the binary digits of
    the row number (m <= 256), every other cell is a random bit."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2, size=(m, n_parents + 1))
    rows[:, 1:9] = (np.arange(m)[:, None] >> np.arange(8)) & 1
    return dataset([2] * (n_parents + 1), rows)


def reference_local_score(data, node, parents):
    """BDe local score with unit pseudo-counts from a dictionary tally of
    the observed parent configurations and math.lgamma: it never builds a
    table, so it checks families of any size."""
    r = data.arities[node]
    tally = {}
    for row in data.rows.tolist():
        tally.setdefault(tuple(row[p] for p in parents), [0] * r)[row[node]] += 1
    return sum(math.lgamma(r) - math.lgamma(r + sum(cell))
               + sum(math.lgamma(1 + c) for c in cell)
               for cell in tally.values())


def reference_k2(data, order, max_parents, tried=None):
    """K2 as a per-candidate loop: every candidate family is recounted by
    local_log_score. The oracle for k2_learn's index extension; returns the
    same (Dag, total score). When `tried` is a list, every (chosen parents,
    candidate) pair scored is appended to it."""
    n = data.n_cols
    parent_sets = [()] * n
    local_scores = [0.0] * n
    for pos, node in enumerate(order):
        chosen = []
        current = local_log_score(data, node, ())
        while len(chosen) < max_parents:
            best_score = current
            best_cand = None
            for cand in order[:pos]:
                if cand in chosen:
                    continue
                if tried is not None:
                    tried.append((tuple(chosen), cand))
                s = local_log_score(data, node, tuple(sorted(chosen + [cand])))
                if s > best_score:
                    best_score = s
                    best_cand = cand
            if best_cand is None:
                break
            chosen.append(best_cand)
            current = best_score
        parent_sets[node] = tuple(sorted(chosen))
        local_scores[node] = current
    total = 0.0
    for value in local_scores:
        total += value
    return Dag(n, parent_sets), total


def reference_cycle_crossover(a, b):
    """Cycle crossover as a list of each cycle's positions, filled in a
    second loop: the oracle for evolution.cycle_crossover's one walk."""
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
