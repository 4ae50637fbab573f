"""Sparse symmetric matrix compression via rs colourings of the adjacency graph.

An rs colouring guarantees direct recovery: every vertex has at most one
neighbour in each lower colour class, so each off-diagonal entry can be read
from the row of its higher-coloured endpoint in the compressed product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .colouring import Colouring, is_rs
from .graph import Graph


class PatternError(ValueError):
    """Asymmetric or otherwise malformed sparsity input."""


@dataclass(frozen=True)
class SparsityPattern:
    """Symmetric off-diagonal structure; the diagonal is always treated as present."""

    n: int
    offdiag: frozenset[tuple[int, int]]  # pairs (i, j) with i < j

    @staticmethod
    def from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> SparsityPattern:
        out = set()
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise PatternError(f"index pair ({i},{j}) outside [0,{n})")
            if i == j:
                raise PatternError("diagonal pairs are implicit, do not list them")
            out.add((min(i, j), max(i, j)))
        return SparsityPattern(n, frozenset(out))

    @staticmethod
    def from_dense(matrix: np.ndarray) -> SparsityPattern:
        a = np.asarray(matrix)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise PatternError(f"need a square matrix, got shape {a.shape}")
        if not np.array_equal(a != 0, (a != 0).T):
            raise PatternError("asymmetric sparsity structure")
        rows, cols = np.nonzero(a)
        pairs = [(int(i), int(j)) for i, j in zip(rows, cols) if i < j]
        return SparsityPattern.from_pairs(a.shape[0], pairs)

    def contains(self, i: int, j: int) -> bool:
        return i == j or (min(i, j), max(i, j)) in self.offdiag


def pattern_to_graph(p: SparsityPattern) -> Graph:
    """Adjacency graph: one vertex per row/column, one edge per off-diagonal pair."""
    return Graph.from_edge_list(p.n, sorted(p.offdiag))


@dataclass(frozen=True)
class SeedGrouping:
    """Colour classes of an rs colouring, used as seed-matrix column groups."""

    colouring: Colouring
    groups: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_colouring(g: Graph, c: Colouring) -> SeedGrouping:
        if not is_rs(g, c):
            raise ValueError("grouping colouring must pass the rs verifier")
        return SeedGrouping(c, tuple(tuple(cl) for cl in c.colour_classes()))

    @property
    def k(self) -> int:
        return self.colouring.k


def greedy_rs_colouring(g: Graph, order: str = "natural") -> Colouring:
    """Sequential rs colouring heuristic.

    Vertex v gets the smallest colour c such that
      (i)   no neighbour of v already has c,
      (ii)  for every colour i < c, v has at most one coloured neighbour with i,
      (iii) no coloured neighbour u with colour > c already has another
            neighbour coloured c, and
      (iv)  no uncoloured neighbour of v already has a different neighbour
            coloured c.
    (i)-(iii) keep the partial colouring extendable to a valid rs colouring;
    (iv) makes the choice total (without it, two vertices coloured 0 across an
    uncoloured middle vertex would leave that vertex with no legal colour).
    """
    if order == "natural":
        sequence = list(range(g.n))
    elif order == "largest_degree_first":
        sequence = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    else:
        raise ValueError(f"unknown order {order!r}")
    colours = [-1] * g.n
    # cnt[v] maps colour -> number of neighbours of v with that colour
    cnt: list[dict[int, int]] = [dict() for _ in range(g.n)]

    def feasible(v: int, col: int) -> bool:
        mine = cnt[v]
        if mine.get(col):
            return False
        for i, times in mine.items():
            if i < col and times > 1:
                return False
        for u in g.neighbours(v):
            cu = colours[u]
            if cu > col and cnt[u].get(col):
                return False
            if cu == -1 and cnt[u].get(col):
                return False
        return True

    for v in sequence:
        col = 0
        while not feasible(v, col):
            col += 1
        colours[v] = col
        for u in g.neighbours(v):
            cnt[u][col] = cnt[u].get(col, 0) + 1
    result = Colouring.of(colours)
    if not is_rs(g, result):
        raise RuntimeError("greedy grouping produced a colouring that is not rs")
    return result


def greedy_distance_two_colouring(g: Graph, order: str = "natural") -> Colouring:
    """Greedy distance-two colouring over the same orders; an upper-bound
    companion for the rs greedy."""
    if order == "natural":
        sequence = list(range(g.n))
    elif order == "largest_degree_first":
        sequence = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    else:
        raise ValueError(f"unknown order {order!r}")
    colours = [-1] * g.n
    for v in sequence:
        banned = set()
        for u in g.neighbours(v):
            if colours[u] >= 0:
                banned.add(colours[u])
            for w in g.neighbours(u):
                if w != v and colours[w] >= 0:
                    banned.add(colours[w])
        col = 0
        while col in banned:
            col += 1
        colours[v] = col
    return Colouring.of(colours)


def compress(
    h: np.ndarray, s: SeedGrouping, pattern: SparsityPattern | None = None
) -> np.ndarray:
    """Compressed product B = H . S, where S has one indicator column per group.

    When a pattern is given, entries outside it are rejected.
    """
    a = np.asarray(h, dtype=float)
    n = len(s.colouring)
    if a.shape != (n, n):
        raise PatternError(f"matrix shape {a.shape} does not match grouping on {n} columns")
    if not np.array_equal(a, a.T):
        raise PatternError("matrix is not symmetric")
    if pattern is not None:
        check_pattern_conformance(a, pattern)
    seed = np.zeros((n, s.k))
    for v, col in enumerate(s.colouring.colours):
        seed[v, col] = 1.0
    return a @ seed


def check_pattern_conformance(h: np.ndarray, p: SparsityPattern) -> None:
    a = np.asarray(h)
    for i, j in zip(*np.nonzero(a)):
        if i < j and not p.contains(int(i), int(j)):
            raise PatternError(f"nonzero entry ({i},{j}) outside the sparsity pattern")


def recover(b: np.ndarray, p: SparsityPattern, s: SeedGrouping) -> np.ndarray:
    """Rebuild the full symmetric matrix from the compressed product.

    H[v][v] = B[v][colour(v)]; for each pattern pair (u, v) with
    colour(u) < colour(v), H[u][v] = B[v][colour(u)] (unique by the rs
    property), mirrored to H[v][u].
    """
    colouring = s.colouring
    if len(colouring) != p.n:
        raise PatternError("grouping and pattern dimensions differ")
    graph = pattern_to_graph(p)
    if not is_rs(graph, colouring):
        raise ValueError("grouping is not an rs colouring of the pattern graph")
    b = np.asarray(b, dtype=float)
    if b.shape != (p.n, s.k):
        raise PatternError(f"compressed shape {b.shape}, expected {(p.n, s.k)}")
    out = np.zeros((p.n, p.n))
    for v in range(p.n):
        out[v, v] = b[v, colouring[v]]
    for i, j in sorted(p.offdiag):
        hi, lo = (i, j) if colouring[i] > colouring[j] else (j, i)
        value = b[hi, colouring[lo]]
        out[i, j] = value
        out[j, i] = value
    return out


# -- Matrix Market / CSV input-output ----------------------------------------------


def parse_matrix_market(lines: Iterable[str], source: str = "<mtx>") -> np.ndarray:
    """Coordinate Matrix Market reader (real or pattern, symmetric or general);
    general data must still be structurally symmetric.

    Each cell may be listed once; in symmetric data (i, j) and (j, i) name the
    same cell.  A repeated cell or a field that is not a number raises
    PatternError with ``source:line``; repeats are found after the last line,
    so a malformed line anywhere in the file is reported first.
    """
    it = iter(enumerate(lines, start=1))
    try:
        lineno, header = next(it)
    except StopIteration:
        raise PatternError(f"{source}: empty file") from None
    fields = header.strip().lower().split()
    if len(fields) != 5 or fields[0] != "%%matrixmarket" or fields[1] != "matrix":
        raise PatternError(f"{source}:1: not a MatrixMarket header")
    layout, kind, symmetry = fields[2], fields[3], fields[4]
    if layout != "coordinate" or kind not in ("real", "integer", "pattern"):
        raise PatternError(f"{source}:1: need coordinate real/integer/pattern")
    if symmetry not in ("symmetric", "general"):
        raise PatternError(f"{source}:1: need symmetric or general symmetry")
    n: int | None = None
    expected = 0
    rows: list[int] = []
    cols: list[int] = []
    values: list[float] = []
    entry_lines: list[int] = []
    for lineno, raw in it:
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 3:
                raise PatternError(f"{source}:{lineno}: expected 'rows cols nnz'")
            try:
                n, n_cols, expected = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise PatternError(f"{source}:{lineno}: non-numeric size line") from None
            if n != n_cols:
                raise PatternError(f"{source}:{lineno}: matrix must be square")
            if n < 0:
                raise PatternError(f"{source}:{lineno}: negative size")
            continue
        want = 2 if kind == "pattern" else 3
        if len(parts) != want:
            raise PatternError(f"{source}:{lineno}: expected {want} fields")
        try:
            i, j = int(parts[0]) - 1, int(parts[1]) - 1
            value = 1.0 if kind == "pattern" else float(parts[2])
        except ValueError:
            raise PatternError(f"{source}:{lineno}: non-numeric entry") from None
        if not (0 <= i < n and 0 <= j < n):
            raise PatternError(f"{source}:{lineno}: index out of range")
        rows.append(i)
        cols.append(j)
        values.append(value)
        entry_lines.append(lineno)
    if n is None:
        raise PatternError(f"{source}: missing size line")
    general = symmetry == "general"
    r, c = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
    cells = r * n + c if general else np.maximum(r, c) * n + np.minimum(r, c)
    ordered = np.sort(cells)
    if (ordered[1:] == ordered[:-1]).any():
        seen: set[int] = set()
        for k, cell in enumerate(cells.tolist()):
            if cell in seen:
                raise PatternError(
                    f"{source}:{entry_lines[k]}: duplicate entry ({rows[k] + 1},{cols[k] + 1})")
            seen.add(cell)
    if len(values) != expected:
        raise PatternError(f"{source}: declared {expected} entries, found {len(values)}")
    matrix = np.zeros((n, n))
    matrix[r, c] = values
    if not general:
        matrix[c, r] = values
    if general and not np.array_equal(matrix != 0, (matrix != 0).T):
        raise PatternError(f"{source}: general matrix is not structurally symmetric")
    return matrix


def read_matrix_market(path: str) -> np.ndarray:
    with open(path) as fh:
        return parse_matrix_market(fh, source=path)


def write_dense_csv(matrix: np.ndarray, path_or_file: str | IO[str]) -> None:
    a = np.asarray(matrix, dtype=float)
    text = "\n".join(",".join(repr(float(x)) for x in row) for row in a) + "\n"
    if isinstance(path_or_file, str):
        with open(path_or_file, "w") as fh:
            fh.write(text)
    else:
        path_or_file.write(text)


def read_dense_csv(path: str) -> np.ndarray:
    with open(path) as fh:
        rows = [[float(tok) for tok in line.split(",")] for line in fh if line.strip()]
    return np.array(rows)
