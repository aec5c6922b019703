"""Discrete Bayesian networks: representation, synthesis, sampling, file I/O.

Networks and datasets are immutable after construction and safe to share
across threads. CPT rows are addressed by a mixed-radix encoding of the
parent values (ascending parent index, lowest index least significant);
the scoring module relies on the exact same convention.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    ParseError,
    SchemaError,
    ValidationError,
    check_number,
    is_number,
    refuse_out_of_memory,
)

ROW_SUM_TOL = 1e-9   # every CPT row must sum to 1 within this

# Largest dense table of q * r cells: the largest CPT random_network draws,
# and the largest count table scoring.count_stats tallies densely.
DENSE_CELLS = 1 << 22
SAMPLE_BLOCK = 1 << 16   # rows sampled, written or parsed at a time
# Lower bound on the bytes random_network holds per node before its first
# edge (ordering, arity, Variable and name, cell count, parent list):
# tracemalloc measures 220 to 273 bytes a node on CPython 3.11.
NODE_BYTES = 200


@dataclass(frozen=True)
class Variable:
    """A named discrete variable taking values 0 .. arity-1."""

    name: str
    arity: int


def check_variables(variables: Sequence[Variable]) -> None:
    """Raise ValidationError, naming variables[k], unless every name is a
    non-empty str unique in the network and every arity an integer in
    2..DENSE_CELLS, so that one variable's counts fit a table."""
    seen = set()
    for k, var in enumerate(variables):
        if not (isinstance(var.name, str) and var.name):
            raise ValidationError(f"variables[{k}].name must be a non-empty string, "
                                  f"got {var.name!r}")
        if var.name in seen:
            raise ValidationError(f"variables[{k}].name: duplicate variable name "
                                  f"{var.name!r}; names within a network must be unique")
        seen.add(var.name)
        if not is_number(var.arity, integer=True):
            raise ValidationError(f"variables[{k}].arity must be an integer, "
                                  f"got {var.arity!r}")
        if not 2 <= var.arity <= DENSE_CELLS:
            raise ValidationError(f"variable {var.name!r} has arity {var.arity!r}; "
                                  f"arity must lie in 2..DENSE_CELLS = {DENSE_CELLS}")


def check_parents(node: int, parents: tuple[int, ...], n: int) -> None:
    """Raise ValidationError unless the sorted tuple `parents` lies in
    0..n-1 and leaves out `node`; only its first and last entries are
    compared with the bounds."""
    if parents and (parents[0] < 0 or parents[-1] >= n or node in parents):
        p = parents[0] if parents[0] < 0 else parents[-1]
        if not 0 <= p < n:
            raise ValidationError(f"node {node} has parent index {p} outside 0..{n - 1}")
        raise ValidationError(f"node {node} cannot be its own parent: it lists itself")


@dataclass(frozen=True, slots=True)
class Dag:
    """Directed acyclic graph over nodes 0..n-1, stored as one sorted parent
    tuple per node, made from any iterables of integer parent indices.
    Construction validates acyclicity by topological sort."""

    n: int
    parents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.n
        check_number("node count", n, integer=True, low=0)
        norm = []
        for k, ps in enumerate(self.parents):
            try:
                ids = tuple(ps)
                if not all(is_number(p, integer=True) for p in ids):
                    raise TypeError  # int() would truncate a float parent
            except TypeError:  # no iterable, or a parent that is no integer
                raise ValidationError(f"parents[{k}] must be a list of node indices, "
                                      f"got {ps!r}") from None
            norm.append(tuple(sorted(set(map(int, ids)))))
        if len(norm) != n:
            raise ValidationError(f"parents: expected one parent set per node ({n}), "
                                  f"got {len(norm)}")
        for i, ps in enumerate(norm):
            check_parents(i, ps, n)
        object.__setattr__(self, "parents", tuple(norm))
        self.topological_order()  # raises on cycles

    @classmethod
    def _unchecked(cls, n: int, parents: tuple[tuple[int, ...], ...]) -> "Dag":
        """Skip validation; caller guarantees sorted, acyclic parent tuples."""
        dag = object.__new__(cls)
        object.__setattr__(dag, "n", n)
        object.__setattr__(dag, "parents", parents)
        return dag

    def topological_order(self) -> list[int]:
        """Return nodes in ancestor-first order (lowest index first among
        ready nodes); raise ValidationError if the graph has a cycle."""
        waiting = [len(ps) for ps in self.parents]  # parents not yet placed
        children: list[list[int]] = [[] for _ in range(self.n)]
        for i, ps in enumerate(self.parents):
            for p in ps:
                children[p].append(i)
        ready = [i for i in range(self.n) if not waiting[i]]  # sorted, so a heap
        order: list[int] = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for c in children[node]:
                waiting[c] -= 1
                if not waiting[c]:
                    heapq.heappush(ready, c)
        if len(order) != self.n:
            raise ValidationError("graph contains a cycle; a DAG is required")
        return order

    def edges(self) -> Iterator[tuple[int, int]]:
        for child, ps in enumerate(self.parents):
            for p in ps:
                yield (p, child)

    @property
    def edge_count(self) -> int:
        return sum(len(ps) for ps in self.parents)


def parent_config_index(values: Sequence[int], parents: Sequence[int],
                        arities: Sequence[int]) -> int:
    """Mixed-radix row index of one full assignment's parent values."""
    idx = 0
    stride = 1
    for p in parents:  # ascending parent index = least significant first
        idx += int(values[p]) * stride
        stride *= int(arities[p])
    return idx


def mixed_radix_index(rows: np.ndarray, columns: Sequence[int],
                      arities: Sequence[int]) -> np.ndarray | int:
    """The mixed-radix index sum over i of S_i x_(c_i) of every row of a
    (m, n) value matrix over the given columns, the first fastest: S_i is
    the product of the arities of the columns before c_i. The index is 0
    when there are no columns."""
    flat, stride = 0, 1
    for k, c in enumerate(columns):
        flat = rows[:, c] if k == 0 else flat + rows[:, c] * stride
        stride *= int(arities[c])
    return flat


class BayesianNetwork:
    """A DAG plus one conditional probability table per node.

    cpts[i] has shape (q_i, r_i): one row per joint parent assignment
    (mixed-radix order) and one column per value of node i. Rows are
    checked, not rescaled: each must sum to 1 within ROW_SUM_TOL.
    """

    __slots__ = ("variables", "dag", "cpts")

    def __init__(self, variables: Sequence[Variable], dag: Dag,
                 cpts: Sequence[np.ndarray]):
        variables = list(variables)
        check_variables(variables)
        if dag.n != len(variables):
            raise SchemaError(
                f"graph has {dag.n} nodes but {len(variables)} variables given"
            )
        if len(cpts) != len(variables):
            raise SchemaError(f"cpts: expected one CPT per variable ({len(variables)}), "
                              f"got {len(cpts)}")
        arities = [int(v.arity) for v in variables]  # Python ints never wrap
        tables: list[np.ndarray] = []
        for i, var in enumerate(variables):
            table = cpts[i]
            try:
                # np.array would turn a bool or numeric-string cell into a float
                if not (isinstance(table, np.ndarray) and table.dtype.kind in "iuf"
                        or all(all(map(is_number, row)) for row in table)):
                    raise TypeError
                t = np.array(table, dtype=float)
            except OverflowError:  # an integer beyond every float
                raise ValidationError(f"CPT for {var.name!r} contains "
                                      f"probabilities outside [0, 1]") from None
            except (ValueError, TypeError):  # ragged rows, a cell that is no number
                raise ValidationError(f"cpts[{i}]: CPT for {var.name!r} must be a "
                                      f"table of numbers") from None
            q = math.prod(arities[p] for p in dag.parents[i])
            if t.shape != (q, var.arity):
                raise ValidationError(
                    f"CPT for {var.name!r} has shape {t.shape}; expected "
                    f"({q}, {var.arity}) = (parent configurations, arity)"
                )
            if not np.all((t >= 0.0) & (t <= 1.0)):  # NaN fails too
                raise ValidationError(
                    f"CPT for {var.name!r} contains probabilities outside [0, 1]"
                )
            sums = t.sum(axis=1)
            if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
                j = int(np.argmax(np.abs(sums - 1.0)))
                raise ValidationError(
                    f"CPT row {j} for {var.name!r} sums to {sums[j]!r}; "
                    f"rows must sum to 1 within {ROW_SUM_TOL}"
                )
            t.setflags(write=False)
            tables.append(t)
        self.variables = variables
        self.dag = dag
        self.cpts = tables

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def arities(self) -> list[int]:
        return [v.arity for v in self.variables]


class Dataset:
    """Fully observable integer-coded samples over a fixed variable schema.
    `rows` is read-only int64, column-major so that every column is
    contiguous; `arities` is the tuple of the variables' arities."""

    __slots__ = ("variables", "rows", "arities", "_bits")

    def __init__(self, variables: Sequence[Variable], rows):
        try:
            arr = np.array(rows, dtype=np.int64, order="F")
        except OverflowError:  # a cell beyond int64 is outside every arity
            arr = np.array(rows, dtype=object, order="F")  # _init names it
        self._init(variables, arr)

    @classmethod
    def _adopt(cls, variables: Sequence[Variable], arr: np.ndarray) -> Dataset:
        """A dataset that takes over `arr`, a column-major int64 table no
        one else writes to, without copying it; the checks still run."""
        data = cls.__new__(cls)
        data._init(variables, arr)
        return data

    def _init(self, variables: Sequence[Variable], arr: np.ndarray) -> None:
        variables = list(variables)
        check_variables(variables)
        if arr.size == 0:
            arr = arr.reshape(0, len(variables))
        if arr.ndim != 2 or arr.shape[1] != len(variables):
            raise SchemaError(
                f"data matrix has shape {arr.shape}; expected (rows, {len(variables)})"
            )
        for i, var in enumerate(variables):
            col = arr[:, i]
            if col.size and (col.min() < 0 or col.max() >= var.arity):
                bad = col[(col < 0) | (col >= var.arity)][0]
                raise ValidationError(
                    f"column {var.name!r} contains value {bad}, outside the "
                    f"allowed codes 0..{var.arity - 1}"
                )
        arr.setflags(write=False)
        self.variables = variables
        self.rows = arr
        self.arities = tuple(v.arity for v in variables)
        self._bits = [None] * len(variables)

    def bits(self, column: int) -> np.ndarray:
        """The read-only (arity, ceil(m / 64)) uint64 bit table of a column,
        built on first use: bit i of row v is set when row i holds value v,
        and the padding bits past the last row are zero. scoring.count_stats
        and scoring.extension_scores ask only for the columns of tables
        that fits_bits admits."""
        table = self._bits[column]
        if table is None:
            values = self.rows[:, column]
            table = np.zeros((self.arities[column], -(-len(values) // 64) * 8),
                             dtype=np.uint8)
            for v, row in enumerate(table):
                packed = np.packbits(values == v, bitorder="little")
                row[:len(packed)] = packed
            table = table.view("<u8")
            table.setflags(write=False)
            self._bits[column] = table
        return table

    def fits_bits(self, cells: int) -> bool:
        """Whether a count table of `cells` cells is counted from the bit
        tables: its cells times the ceil(m / 64) words of a row bitset fit
        in the m rows, so it is no larger than one int64 column."""
        return cells * -(-self.n_rows // 64) <= self.n_rows

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_cols(self) -> int:
        return self.rows.shape[1]


def ancestral_sample(net: BayesianNetwork, count: int, seed: int) -> Dataset:
    """Draw `count` complete rows by sampling each node after its parents.

    Nodes are visited in the deterministic topological order of the DAG, so
    the result is reproducible given the seed. Each node's column is drawn
    SAMPLE_BLOCK rows at a time into one column-major table that the
    dataset takes over, so the peak stays near the table's own size; the
    blocks draw the same uniform stream as one call would.
    """
    check_number("sample count", count, integer=True, low=1)
    check_number("seed", seed, integer=True, low=0)
    rng = np.random.default_rng(seed)
    arities = net.arities
    with refuse_out_of_memory(f"sampling {count} rows of {net.n} values: their "
                              f"int64 table alone asks for", count * net.n * 8):
        values = np.zeros((count, net.n), dtype=np.int64, order="F")
        for i in net.dag.topological_order():
            cdf = np.cumsum(net.cpts[i], axis=1)
            cdf[:, -1] = 1.0  # guard against ROW_SUM_TOL normalization slack
            for start in range(0, count, SAMPLE_BLOCK):
                block = values[start:start + SAMPLE_BLOCK]
                # 0 for a parentless node: every row reads CPT row 0
                rows = mixed_radix_index(block, net.dag.parents[i], arities)
                u = rng.random(block.shape[0])
                block[:, i] = (u[:, None] >= cdf[rows]).sum(axis=1)
        return Dataset._adopt(net.variables, values)


def random_network(n: int, max_arity: int = 2, edge_density: float = 0.2,
                   seed: int = 0) -> BayesianNetwork:
    """Generate a random network: random topological order, independent
    edge coin-flips at `edge_density`, per-node arity uniform in
    2..max_arity, and flat-Dirichlet CPT rows. The flips out of each
    position are one rng call, the same stream as one call per pair; a node
    is refused as soon as a parent takes its CPT above DENSE_CELLS cells,
    and a network whose CPTs run out of memory is refused as a whole."""
    check_number("nodes", n, integer=True, low=1)
    check_number("max_arity", max_arity, integer=True, low=2, high=DENSE_CELLS)
    check_number("edge_density", edge_density, low=0, high=1)
    check_number("seed", seed, integer=True, low=0)
    rng = np.random.default_rng(seed)
    with refuse_out_of_memory(f"drawing a network of {n} nodes: its nodes alone "
                              f"ask for", n * NODE_BYTES):
        order = rng.permutation(n).tolist()
        arities = rng.integers(2, max_arity + 1, size=n).tolist()
        variables = [Variable(f"X{i + 1}", a) for i, a in enumerate(arities)]
        cells = list(arities)  # q * r of each node given the parents drawn so far
        parents: list[list[int]] = [[] for _ in range(n)]
    for s in range(n - 1):
        parent = order[s]
        for t in np.flatnonzero(rng.random(n - 1 - s) < edge_density).tolist():
            child = order[s + 1 + t]
            parents[child].append(parent)
            cells[child] *= arities[parent]
            if cells[child] > DENSE_CELLS:
                raise ValidationError(
                    f"node {child} ({variables[child].name}) needs a CPT of "
                    f"{cells[child]} cells, above DENSE_CELLS = {DENSE_CELLS}")
    with refuse_out_of_memory(f"drawing a network of {n} nodes: its CPTs ask for",
                              8 * sum(cells)):
        cpts = [rng.dirichlet(np.ones(r), size=cells[i] // r)
                for i, r in enumerate(arities)]
        return BayesianNetwork(variables, Dag(n, parents), cpts)


# ---------------------------------------------------------------------------
# File formats. Network: JSON with variables/parents/cpts; a structure-only
# file carries "cpts": null. Dataset: CSV with a "name:arity" header row.
# ---------------------------------------------------------------------------

def read_json(path) -> dict:
    """Read a JSON object from a file; ParseError if it cannot be read, is
    not valid JSON, or is not an object at top level."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, deep nesting
        raise ParseError(f"{path}: cannot decode JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    return doc


def _parse_structure(doc: dict, path) -> tuple[list[Variable], Dag]:
    """The variables and graph of a network file. Only the file's shape is
    checked here; check_variables and Dag check every value."""
    raw = doc.get("variables")
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"{path}: field 'variables' must be a non-empty list")
    for k, entry in enumerate(raw):
        if not isinstance(entry, dict) or "name" not in entry or "arity" not in entry:
            raise ParseError(
                f"{path}: variables[{k}] must be an object with 'name' and 'arity'"
            )
    if not isinstance(doc.get("parents"), list):
        raise ParseError(f"{path}: field 'parents' must be a list")
    variables = [Variable(entry["name"], entry["arity"]) for entry in raw]
    check_variables(variables)
    return variables, Dag(len(variables), doc["parents"])


def write_network(variables: Sequence[Variable], dag: Dag, f, cpts=None) -> None:
    """Write a network file's text to the open text file `f`, turning one
    CPT at a time, or a numpy arity, into Python numbers; "cpts" is null in
    a structure file."""
    json.dump({"variables": [{"name": v.name, "arity": v.arity} for v in variables],
               "parents": [list(ps) for ps in dag.parents],
               "cpts": None if cpts is None else list(cpts)},
              f, indent=2, default=lambda value: value.tolist())
    f.write("\n")


def save_network(net: BayesianNetwork, path) -> None:
    with open(path, "w") as f:
        write_network(net.variables, net.dag, f, net.cpts)


def load_network(path) -> BayesianNetwork:
    doc = read_json(path)
    variables, dag = _parse_structure(doc, path)
    cpts = doc.get("cpts")
    if cpts is None:
        raise ParseError(
            f"{path}: field 'cpts' is null or missing; this is a structure-only "
            f"file (use load_structure)"
        )
    if not isinstance(cpts, list):
        raise ParseError(f"{path}: field 'cpts' must be a list")
    return BayesianNetwork(variables, dag, cpts)


def save_structure(variables: Sequence[Variable], dag: Dag, path) -> None:
    """Write a network file without parameters ("cpts": null)."""
    with open(path, "w") as f:
        write_network(variables, dag, f)


def load_structure(path) -> tuple[list[Variable], Dag]:
    """Read variables and graph from a network file, ignoring any CPTs."""
    return _parse_structure(read_json(path), path)


def write_dataset(data: Dataset, f) -> None:
    """Write a dataset file's text to the open text file `f`: a name:arity
    header, then one line per row, SAMPLE_BLOCK rows at a time."""
    writer = csv.writer(f)
    writer.writerow([f"{v.name}:{v.arity}" for v in data.variables])
    for start in range(0, data.n_rows, SAMPLE_BLOCK):
        writer.writerows(data.rows[start:start + SAMPLE_BLOCK].tolist())


def save_dataset(data: Dataset, path) -> None:
    with open(path, "w", newline="") as f:
        write_dataset(data, f)


def load_dataset(path) -> Dataset:
    """Read a dataset file's bytes once (a pipe works) and parse them twice:
    count the non-empty records, then check SAMPLE_BLOCK of them at a time
    as a Dataset into the column-major table the dataset takes over."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc
    try:
        reader = csv.reader(io.TextIOWrapper(io.BytesIO(raw), newline=""))
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file; expected a header row")
        variables = []
        for k, field in enumerate(header):
            name, sep, arity = field.rpartition(":")  # a name may hold ":"
            if not sep:
                raise ParseError(f"{path} line 1 field {k + 1}: expected "
                                 f"'name:arity', got {field!r}")
            try:
                variables.append(Variable(name, int(arity)))
            except ValueError:
                raise ParseError(f"{path} line 1 field {k + 1}: arity {arity!r} "
                                 f"is not an integer") from None
        m, n = sum(map(bool, reader)), len(variables)
        reader = csv.reader(io.TextIOWrapper(io.BytesIO(raw), newline=""))
        next(reader)
        with refuse_out_of_memory(f"reading {m} rows of {n} values: their int64 "
                                  f"table alone asks for", m * n * 8):
            table = np.zeros((m, n), dtype=np.int64, order="F")
            block, start = [], 0
            for lineno, record in enumerate(reader, start=2):
                if not record:
                    continue
                if len(record) != n:
                    raise ParseError(f"{path} line {lineno}: expected {n} fields, "
                                     f"got {len(record)}")
                try:
                    block.append(tuple(map(int, record)))
                except ValueError:
                    raise ParseError(f"{path} line {lineno}: non-integer cell in "
                                     f"{record!r}") from None
                if len(block) == SAMPLE_BLOCK or start + len(block) == m:
                    table[start:start + len(block)] = Dataset(variables, block).rows
                    block, start = [], start + len(block)
    except (UnicodeDecodeError, csv.Error) as exc:  # csv.Error: NUL before 3.11
        raise ParseError(f"{path}: not a UTF-8 CSV file: {exc}") from None
    return Dataset._adopt(variables, table)
