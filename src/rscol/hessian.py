"""Sparse symmetric matrix compression via rs colourings of the adjacency graph.

An rs colouring guarantees direct recovery: every vertex has at most one
neighbour in each lower colour class, so each off-diagonal entry can be read
from the row of its higher-coloured endpoint in the compressed product.
The pattern is held as index arrays, so compress and recover handle every
entry in numpy operations rather than in a Python loop.  Matrices are written
as dense CSV, one row per line and each cell the ``repr`` of its float64; only
the nonzero cells are formatted, so the writer's Python work grows with the
nonzero count, not with n².
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .colouring import Colouring, is_rs
from .graph import Graph, read_text, write_text


class PatternError(ValueError):
    """Asymmetric or otherwise malformed matrix or sparsity input."""


@dataclass(frozen=True, eq=False)
class SparsityPattern:
    """Symmetric off-diagonal pairs (rows[t], cols[t]), rows[t] < cols[t], distinct
    and in row-major order; the diagonal is always treated as present."""

    n: int
    rows: np.ndarray
    cols: np.ndarray

    @staticmethod
    def from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> SparsityPattern:
        out = set()
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise PatternError(f"index pair ({i},{j}) outside [0,{n})")
            if i == j:
                raise PatternError("diagonal pairs are implicit, do not list them")
            out.add((min(i, j), max(i, j)))
        ij = np.array(sorted(out), dtype=np.intp).reshape(-1, 2)
        return SparsityPattern(n, ij[:, 0], ij[:, 1])

    @staticmethod
    def from_dense(matrix: np.ndarray) -> SparsityPattern:
        a = np.asarray(matrix)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise PatternError(f"need a square matrix, got shape {a.shape}")
        nonzero = a != 0
        if not np.array_equal(nonzero, nonzero.T):
            raise PatternError("asymmetric sparsity structure")
        rows, cols = np.nonzero(nonzero)
        upper = rows < cols
        return SparsityPattern(a.shape[0], rows[upper], cols[upper])


def pattern_to_graph(p: SparsityPattern) -> Graph:
    """Adjacency graph: one vertex per row/column, one edge per off-diagonal pair."""
    return Graph.from_edge_list(p.n, np.column_stack((p.rows, p.cols)))


@dataclass(frozen=True)
class SeedGrouping:
    """An rs colouring whose colour classes are the seed-matrix column groups."""

    colouring: Colouring

    @staticmethod
    def from_colouring(g: Graph, c: Colouring) -> SeedGrouping:
        if not is_rs(g, c):
            raise ValueError("grouping colouring must pass the rs verifier")
        return SeedGrouping(c)

    @property
    def k(self) -> int:
        return self.colouring.k


def _vertex_order(g: Graph, order: str) -> list[int]:
    if order == "natural":
        return list(range(g.n))
    if order == "largest_degree_first":
        return sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    raise ValueError(f"unknown order {order!r}")


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
    off, tgt = g.offsets, g.targets
    colours = [-1] * g.n
    # cnt[v] maps colour -> number of neighbours of v with that colour
    cnt: list[dict[int, int]] = [dict() for _ in range(g.n)]

    def feasible(v: int, nbrs: list[int], col: int) -> bool:
        mine = cnt[v]
        if mine.get(col):
            return False
        for i, times in mine.items():
            if i < col and times > 1:
                return False
        for u in nbrs:
            cu = colours[u]
            if cu > col and cnt[u].get(col):
                return False
            if cu == -1 and cnt[u].get(col):
                return False
        return True

    for v in _vertex_order(g, order):
        nbrs = tgt[off[v]:off[v + 1]]
        col = 0
        while not feasible(v, nbrs, col):
            col += 1
        colours[v] = col
        for u in nbrs:
            cnt[u][col] = cnt[u].get(col, 0) + 1
    result = Colouring.of(colours)
    if not is_rs(g, result):
        raise RuntimeError("greedy grouping produced a colouring that is not rs")
    return result


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
        if pattern.n != n:
            raise PatternError("grouping and pattern dimensions differ")
        # a is symmetric, so the first stray entry in row-major order lies above the diagonal
        outside = a != 0
        outside[pattern.rows, pattern.cols] = outside[pattern.cols, pattern.rows] = False
        np.fill_diagonal(outside, False)
        if outside.any():
            i, j = divmod(int(outside.argmax()), n)
            raise PatternError(f"nonzero entry ({i},{j}) outside the sparsity pattern")
    return a @ np.eye(s.k)[np.array(s.colouring.colours, dtype=np.intp)]


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
    c = np.array(colouring.colours, dtype=np.intp)
    out = np.zeros((p.n, p.n))
    np.fill_diagonal(out, b[np.arange(p.n), c])
    hi = np.where(c[p.rows] > c[p.cols], p.rows, p.cols)
    values = b[hi, c[p.rows + p.cols - hi]]  # the other endpoint has the lower colour
    out[p.rows, p.cols] = out[p.cols, p.rows] = values
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
    order = np.argsort(cells, kind="stable")  # a repeat sorts after the cell's first entry
    repeats = order[1:][cells[order[1:]] == cells[order[:-1]]]
    if repeats.size:
        k = int(repeats.min())
        raise PatternError(f"{source}:{entry_lines[k]}: duplicate entry ({r[k] + 1},{c[k] + 1})")
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
    text = read_text(path, PatternError)
    return parse_matrix_market(text.split("\n") if text else [], source=path)


def write_dense_csv(matrix: np.ndarray, path_or_file: str | IO[str]) -> None:
    """One line per row, each cell the ``repr`` of its float64 value.

    The text starts as the all-zero matrix, where every cell takes four
    characters (``0.0,`` or ``0.0`` and the newline).  Only the cells whose
    bits are not all zero are formatted, so ``-0.0`` keeps its sign; each is
    spliced in at four times its flat index.
    """
    a = np.ascontiguousarray(matrix, dtype=float)
    if a.ndim != 2:
        raise PatternError(f"need a 2-D matrix, got shape {a.shape}")
    # a matrix with no rows is written as one empty line
    zeros = (",".join(["0.0"] * a.shape[1]) + "\n") * a.shape[0] or "\n"
    flat = a.ravel()
    nonzero = np.flatnonzero(flat.view(np.int64))
    starts = 4 * nonzero
    pieces = [None] * (2 * len(nonzero) + 1)
    pieces[::2] = [zeros[lo:hi] for lo, hi in zip([0, *(starts + 3).tolist()],
                                                  [*starts.tolist(), len(zeros)])]
    pieces[1::2] = map(repr, flat[nonzero].tolist())
    # free each stage before the next, so that at most two copies of the text are alive
    del zeros
    text = "".join(pieces)
    del pieces
    write_text(text, path_or_file)


def read_dense_csv(path: str) -> np.ndarray:
    """A field that is not a number (``_`` included, which ``float`` would
    skip), a row whose length differs from the first row's, or bytes that are
    not UTF-8 raise PatternError with ``path:line``.  A file with no nonblank
    line reads as a 0 x 0 matrix."""
    rows: list[list[float]] = []
    for lineno, line in enumerate(read_text(path, PatternError).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError:
            row = None
        if row is None or "_" in line:  # float() reads 1_0 as 10
            raise PatternError(f"{path}:{lineno}: non-numeric field")
        if rows and len(row) != len(rows[0]):
            raise PatternError(f"{path}:{lineno}: expected {len(rows[0])} fields")
        rows.append(row)
    return np.array(rows) if rows else np.zeros((0, 0))
