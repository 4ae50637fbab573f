"""Sparse symmetric matrix compression via rs colourings of the adjacency graph.

An rs colouring guarantees direct recovery: every vertex has at most one
neighbour in each lower colour class, so each off-diagonal entry can be read
from the row of its higher-coloured endpoint in the compressed product.

A matrix is held in COO form (``CooMatrix``: its stored cells as index and
value arrays) from the MatrixMarket reader to the writers, and a pattern as
the index arrays of its off-diagonal pairs.  Compress adds each stored cell
into the compressed product in one ``np.bincount``, and recover gathers each
recovered cell from it, so both take time and memory in the number of stored
cells, not in n²; the dense forms of ``compress`` and ``recover`` convert at
their boundary and call the same code.  A recovered matrix is written as
MatrixMarket (coordinate real symmetric, its lower triangle) or as dense CSV,
one row per line and each cell the ``repr`` of its float64; both writers
format only the cells whose bits are not all zero, and the CSV writer each
distinct bit pattern once.

Both readers take the whole text of a file, read it in bulk and send a file
that fails a bulk check to a line scanner that names the first bad line: the
MatrixMarket reader checks its entry lines by regex and parses them with one
``np.fromstring``, and the CSV reader counts each line's commas and converts
every field with ``float`` in one ``np.fromiter`` pass.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import repeat
from typing import IO, Iterable

import numpy as np

from .colouring import Colouring, is_rs
from .graph import INT_FIELD, Graph, match_lines, read_float, read_int, read_text, write_text

MAX_SIDE = math.isqrt(2**63 - 1)
"""The largest matrix side n for which every cell (i, j) has an int64 key i * n + j."""

ROW_BYTES = 110
"""A floor on the memory that ``hess-compress`` and ``hess-recover`` hold per
matrix row, whatever the number of stored cells: the adjacency lists, the
colour list and masks of the grouping, and the rows of the compressed
product.  With one stored cell, the peak RSS grew by 118 bytes per row for
``hess-compress`` and 217 for ``hess-recover`` between sides of 10**6 and
3 * 10**6 (141 to 367 MB and 234 to 648 MB)."""


def _physical_memory() -> int | None:
    """The bytes of memory of this machine, or None where the OS does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


class PatternError(ValueError):
    """Asymmetric or otherwise malformed matrix or sparsity input."""


@dataclass(frozen=True, eq=False)
class CooMatrix:
    """An n x n float64 matrix as its stored cells: values[t] at (rows[t], cols[t]).

    The cells are distinct and in row-major order; a cell not stored is zero.
    A stored cell may hold zero, as an explicit zero of a MatrixMarket file does.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @staticmethod
    def from_dense(matrix: np.ndarray) -> CooMatrix:
        """The cells of a square array whose value is not zero."""
        a = np.asarray(matrix, dtype=float)
        rows, cols = np.nonzero(a)
        return CooMatrix(a.shape[0], rows, cols, a[rows, cols])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.cols.nbytes + self.values.nbytes

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.values
        return out


def _is_symmetric(rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> bool:
    """Whether cells given distinct and in row-major order hold equal values in
    mirror cells, a cell not given counting as zero."""
    nonzero = values != 0
    rows, cols, values = rows[nonzero], cols[nonzero], values[nonzero]
    mirror = np.lexsort((rows, cols))  # the cells in the row-major order of their mirrors
    return (np.array_equal(rows, cols[mirror]) and np.array_equal(cols, rows[mirror])
            and np.array_equal(values, values[mirror]))


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
    def from_coo(m: CooMatrix) -> SparsityPattern:
        """The pairs of the off-diagonal cells whose value is not zero, so an
        explicit zero (``-0.0`` included) is not in the pattern."""
        nonzero = m.values != 0
        if not _is_symmetric(m.rows, m.cols, nonzero):
            raise PatternError("asymmetric sparsity structure")
        upper = (m.rows < m.cols) & nonzero
        return SparsityPattern(m.n, m.rows[upper], m.cols[upper])

    @staticmethod
    def from_dense(matrix: np.ndarray) -> SparsityPattern:
        a = np.asarray(matrix)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise PatternError(f"need a square matrix, got shape {a.shape}")
        return SparsityPattern.from_coo(CooMatrix.from_dense(a))


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
    if order == "largest_degree_first":  # a stable sort keeps equal degrees in vertex order
        return np.argsort(-g.degrees(), kind="stable").tolist()
    raise ValueError(f"unknown order {order!r}")


def greedy_rs_colouring(g: Graph, order: str = "natural") -> Colouring:
    """Sequential rs colouring heuristic.

    seen[u] is a bitmask whose bit c is set when a neighbour of u has colour
    c.  Vertex v takes the lowest colour whose bit is clear in the union, over
    its neighbours u, of (a) the bit of colour(u) when u is coloured and (b)
    the bits of seen[u] below colour(u), or all of seen[u] when u is
    uncoloured.  (a) keeps the colouring proper; (b) on a coloured u keeps u's
    lower neighbours in distinct classes.  (b) on an uncoloured u keeps every
    uncoloured vertex with at most one coloured neighbour per colour, so the
    choice is total (two 0s across an uncoloured middle vertex would strand
    it), and v itself, uncoloured until now, already has at most one
    neighbour per lower class.  Each neighbour blocks at most Δ colours, so a
    colour is at most Δ² and a mask has at most Δ² + 1 bits.
    """
    off, tgt = g.offsets.tolist(), g.targets.tolist()
    colours = [-1] * g.n
    seen = [0] * g.n
    for v in _vertex_order(g, order):
        nbrs = tgt[off[v]:off[v + 1]]
        blocked = 0
        for u in nbrs:
            cu = colours[u]
            blocked |= seen[u] if cu < 0 else (seen[u] | 1 << cu) & ((2 << cu) - 1)
        col = (~blocked & (blocked + 1)).bit_length() - 1
        colours[v] = col
        for u in nbrs:
            seen[u] |= 1 << col
    result = Colouring.of(colours)
    if not is_rs(g, result):
        raise RuntimeError("greedy grouping produced a colouring that is not rs")
    return result


def compress(h: np.ndarray | CooMatrix, s: SeedGrouping, pattern: SparsityPattern) -> np.ndarray:
    """Compressed product B = H . S, where S has one indicator column per group.

    H is a CooMatrix or a dense array, which is converted to one.  Each stored
    cell (i, j) adds its value to B[i][colour(j)], in row-major order.
    Entries outside the pattern are rejected, and so is a product with a cell
    that is not finite (a sum that overflows), naming the first such cell.
    """
    m = h if isinstance(h, CooMatrix) else np.asarray(h, dtype=float)
    n = len(s.colouring)
    if m.shape != (n, n):
        raise PatternError(f"matrix shape {m.shape} does not match grouping on {n} columns")
    if isinstance(m, np.ndarray):
        m = CooMatrix.from_dense(m)
    if not _is_symmetric(m.rows, m.cols, m.values):
        raise PatternError("matrix is not symmetric")
    if pattern.n != n:
        raise PatternError("grouping and pattern dimensions differ")
    # the matrix is symmetric, so the first stray entry in row-major order lies above the diagonal
    upper = (m.rows < m.cols) & (m.values != 0)
    cells = m.rows[upper] * n + m.cols[upper]
    # the pattern's keys are sorted, and the sentinel n * n lies past every cell's key
    allowed = np.append(pattern.rows * n + pattern.cols, n * n)
    stray = np.flatnonzero(allowed[np.searchsorted(allowed, cells)] != cells)
    if stray.size:
        i, j = divmod(int(cells[stray[0]]), n)
        raise PatternError(f"nonzero entry ({i},{j}) outside the sparsity pattern")
    colours = np.array(s.colouring.colours, dtype=np.intp)
    b = np.bincount(m.rows * s.k + colours[m.cols], weights=m.values, minlength=n * s.k)
    # a cell that sums finite values can overflow, and the CSV reader of
    # ``hess-recover`` refuses a non-finite value in any cell
    non_finite = np.flatnonzero(~np.isfinite(b))
    if non_finite.size:
        i, group = divmod(int(non_finite[0]), s.k)
        raise PatternError(f"compressed cell ({i},{group}) is not finite")
    return b.reshape(n, s.k)


def recover_entries(b: np.ndarray, p: SparsityPattern, s: SeedGrouping) -> CooMatrix:
    """Rebuild the full symmetric matrix from the compressed product, as the
    CooMatrix of every diagonal cell and both cells of every pattern pair.

    H[v][v] = B[v][colour(v)]; for each pattern pair (u, v) with
    colour(u) < colour(v), H[u][v] = B[v][colour(u)] (unique by the rs
    property), mirrored to H[v][u].
    """
    colouring = s.colouring
    if len(colouring) != p.n:
        raise PatternError("grouping and pattern dimensions differ")
    if not is_rs(pattern_to_graph(p), colouring):
        raise ValueError("grouping is not an rs colouring of the pattern graph")
    b = np.asarray(b, dtype=float)
    if b.shape != (p.n, s.k):
        raise PatternError(f"compressed shape {b.shape}, expected {(p.n, s.k)}")
    c = np.array(colouring.colours, dtype=np.intp)
    hi = np.where(c[p.rows] > c[p.cols], p.rows, p.cols)
    values = b[hi, c[p.rows + p.cols - hi]]  # the other endpoint has the lower colour
    diagonal = np.arange(p.n)
    rows = np.concatenate((diagonal, p.rows, p.cols))
    cols = np.concatenate((diagonal, p.cols, p.rows))
    order = np.argsort(rows * p.n + cols)
    values = np.concatenate((b[diagonal, c], values, values))
    return CooMatrix(p.n, rows[order], cols[order], values[order])


def recover(b: np.ndarray, p: SparsityPattern, s: SeedGrouping) -> np.ndarray:
    """``recover_entries`` as a dense array."""
    return recover_entries(b, p, s).toarray()


# -- Matrix Market / CSV input-output ----------------------------------------------


def parse_matrix_market(text: str, source: str = "<mtx>") -> CooMatrix:
    """Coordinate Matrix Market reader (real, integer or pattern, symmetric or general);
    general data must still be structurally symmetric.

    `text` is the whole file.  The result stores every listed cell, and in
    symmetric data the mirror of every off-diagonal one.  Each cell may be
    listed once; in symmetric data (i, j) and (j, i) name the same cell.
    Sizes and indices are read by ``graph.read_int``, values by ``read_float``
    (``integer`` ones after ``read_int``).  A repeated cell, a field that these
    refuse (``_`` included) or a value that is not finite raises PatternError
    with ``source:line``; repeats and non-finite values are found after the
    last line, so a malformed line anywhere in the file is reported first.
    A side n above MAX_SIDE raises OverflowError, and a side whose rows at
    ROW_BYTES each would not fit in this machine's memory raises MemoryError,
    before any array of n entries is made.

    A whole file whose entry lines all match the kind's ``ENTRY_LINE`` is read
    by ``_entry_arrays``: the graph reader's line check, then one
    ``np.fromstring``.  Every other file goes to the line scanner, which
    checks each line in file order and names the first bad one.
    """
    entries = _entry_arrays(text, source) if text else None
    if entries is not None:
        return _assemble(*entries, source)
    return _scan_matrix(text.split("\n") if text else [], source)


def _header(line: str, source: str) -> tuple[str, bool]:
    """(kind, whether the symmetry is general) of a header line."""
    fields = line.strip().lower().split()
    if len(fields) != 5 or fields[0] != "%%matrixmarket" or fields[1] != "matrix":
        raise PatternError(f"{source}:1: not a MatrixMarket header")
    layout, kind, symmetry = fields[2], fields[3], fields[4]
    if layout != "coordinate" or kind not in ("real", "integer", "pattern"):
        raise PatternError(f"{source}:1: need coordinate real/integer/pattern")
    if symmetry not in ("symmetric", "general"):
        raise PatternError(f"{source}:1: need symmetric or general symmetry")
    return kind, symmetry == "general"


ENTRY_LINE = {
    "pattern": f"{INT_FIELD} {INT_FIELD}",
    "integer": f"{INT_FIELD} {INT_FIELD} [+-]?[0-9]{{1,640}}",
    "real": f"{INT_FIELD} {INT_FIELD} "
            r"[+-]?(?:(?:[0-9]+\.[0-9]*|[0-9]+|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|(?i:nan|inf(?:inity)?))",
}
"""The regex of an entry line of each kind as the whole-file path reads it:
two ``graph.INT_FIELD`` indices, then an ``integer`` value of at most
640 digits (the least limit ``sys.set_int_max_str_digits`` takes, so
``int()`` reads every such run) or a ``real`` decimal literal, ``nan`` or
``inf``, separated by single spaces.  ``np.fromstring`` reads each such field
as ``float()`` does, bit for bit."""


def _entry_arrays(text: str, source: str) -> tuple | None:
    """The arguments of ``_assemble`` for a file made of a header, comment and
    blank lines, a valid size line, then only entry lines, each matching the
    kind's ``ENTRY_LINE`` and with both indices in range; None for any other
    file.

    ``graph.match_lines`` checks all entry lines with that regex, and one
    ``np.fromstring`` reads all their fields.  A blank line among the entries
    sends the file to the line scanner, which numbers the entries by line.
    """
    end = text.find("\n")
    if end == -1:
        end = len(text)
    kind, general = _header(text[:end], source)
    lineno = 1
    parts: list[str] = []
    while not parts or parts[0].startswith("%"):  # comment and blank lines up to the size line
        if end == len(text):
            return None
        start, end = end + 1, text.find("\n", end + 1)
        if end == -1:
            end = len(text)
        parts = text[start:end].split()
        lineno += 1
    try:
        n, n_cols, expected = map(read_int, parts)
    except ValueError:  # also a size line without three fields
        return None
    if n != n_cols or not 0 <= n <= MAX_SIDE:
        return None
    body = text[end + 1:]
    if body and body[-1] != "\n":
        body += "\n"  # a last line without a line break
    m = body.count("\n")
    lines = match_lines(body, ENTRY_LINE[kind])
    if lines is None or lines.count("\n") != m:  # blank lines dropped would renumber the entries
        return None
    fields = np.fromstring(lines, sep=" ").reshape(m, 2 if kind == "pattern" else 3)
    # n <= MAX_SIDE < 2**53: an index in range is exact in float64, one past 2**53 out of range
    rows = fields[:, 0].astype(np.int64) - 1
    cols = fields[:, 1].astype(np.int64) - 1
    if ((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)).any():
        return None
    values = np.ones(m) if kind == "pattern" else fields[:, 2]
    return n, general, expected, rows, cols, values, np.arange(lineno + 1, lineno + 1 + m)


def _scan_matrix(lines: Iterable[str], source: str) -> CooMatrix:
    """Check the lines of a MatrixMarket file one at a time, in file order,
    and raise at the first bad one; ``_assemble`` checks the whole otherwise."""
    it = iter(enumerate(lines, start=1))
    try:
        lineno, header = next(it)
    except StopIteration:
        raise PatternError(f"{source}: empty file") from None
    kind, general = _header(header, source)
    n, expected = -1, 0
    rows: list[int] = []
    cols: list[int] = []
    values: list[float] = []
    entry_lines: list[int] = []
    for lineno, raw in it:
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if n == -1:
            if len(parts) != 3:
                raise PatternError(f"{source}:{lineno}: expected 'rows cols nnz'")
            try:
                n, n_cols, expected = map(read_int, parts)
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
            i, j = read_int(parts[0]) - 1, read_int(parts[1]) - 1
            if kind == "integer":
                read_int(parts[2])  # the integer grammar: no point, exponent, nan or inf
            value = 1.0 if kind == "pattern" else read_float(parts[2])
        except ValueError:
            raise PatternError(f"{source}:{lineno}: non-numeric entry") from None
        if not (0 <= i < n and 0 <= j < n):
            raise PatternError(f"{source}:{lineno}: index out of range")
        rows.append(i)
        cols.append(j)
        values.append(value)
        entry_lines.append(lineno)
    if n == -1:
        raise PatternError(f"{source}: missing size line")
    return _assemble(n, general, expected, rows, cols, values, entry_lines, source)


def _assemble(n: int, general: bool, expected: int, rows, cols, values, entry_lines,
              source: str) -> CooMatrix:
    """The CooMatrix of well-formed entries (0-based indices in range), after
    the checks that need every entry: finite values, no repeated cell, the
    declared count and, in general data, a symmetric structure."""
    vals = np.asarray(values, dtype=float)
    non_finite = np.flatnonzero(~np.isfinite(vals))
    if non_finite.size:
        raise PatternError(f"{source}:{entry_lines[non_finite[0]]}: non-finite value")
    if n > MAX_SIDE:
        raise OverflowError(f"{source}: matrix side {n} exceeds {MAX_SIDE}")
    memory = _physical_memory()
    if memory is not None and n * ROW_BYTES > memory:
        raise MemoryError(f"{source}: matrix side {n} needs more than {memory} bytes")
    r, c = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    cells = r * n + c if general else np.maximum(r, c) * n + np.minimum(r, c)
    order = np.argsort(cells, kind="stable")  # a repeat sorts after the cell's first entry
    repeats = order[1:][cells[order[1:]] == cells[order[:-1]]]
    if repeats.size:
        k = int(repeats.min())
        raise PatternError(f"{source}:{entry_lines[k]}: duplicate entry ({r[k] + 1},{c[k] + 1})")
    if len(vals) != expected:
        raise PatternError(f"{source}: declared {expected} entries, found {len(vals)}")
    if not general:  # an off-diagonal entry also stands for its mirror cell
        off = r != c
        r, c, vals = (np.concatenate((r, c[off])), np.concatenate((c, r[off])),
                      np.concatenate((vals, vals[off])))
        order = np.argsort(r * n + c)
    r, c, vals = r[order], c[order], vals[order]
    if general and not _is_symmetric(r, c, vals != 0):
        raise PatternError(f"{source}: general matrix is not structurally symmetric")
    return CooMatrix(n, r, c, vals)


def read_matrix_market(path: str) -> CooMatrix:
    return parse_matrix_market(read_text(path, PatternError), source=path)


def write_matrix_market(m: CooMatrix, path_or_file: str | IO[str]) -> None:
    """Coordinate real symmetric MatrixMarket: the lower-triangle cells whose
    bits are not all zero (so ``-0.0`` is kept), in row-major order, each value
    the ``repr`` of its float64, which ``float`` reads back bit for bit.  A
    matrix whose mirror cells differ in their bits (``-0.0`` against ``0.0``
    or no cell included), which would not read back as written, or that holds
    a value that is not finite, which the reader would reject, raises
    PatternError.  The entry lines are formatted by one ``%`` on a repeated
    template."""
    if not _is_symmetric(m.rows, m.cols, m.values.view(np.int64)):
        raise PatternError("matrix is not symmetric")
    keep = (m.rows >= m.cols) & (m.values.view(np.int64) != 0)
    values = m.values[keep]
    if not np.isfinite(values).all():
        raise PatternError("a value that is not finite cannot be written as MatrixMarket")
    fields: list = [None] * (3 * len(values))
    fields[0::3] = (m.rows[keep] + 1).tolist()
    fields[1::3] = (m.cols[keep] + 1).tolist()
    fields[2::3] = values.tolist()
    head = f"%%MatrixMarket matrix coordinate real symmetric\n{m.n} {m.n} {len(values)}\n"
    write_text(head + ("%d %d %r\n" * len(values)) % tuple(fields), path_or_file)


def write_dense_csv(matrix: np.ndarray | CooMatrix, path_or_file: str | IO[str]) -> None:
    """One line per row, each cell the ``repr`` of its float64 value.

    The text starts as the all-zero matrix, where every cell takes four
    characters (``0.0,`` or ``0.0`` and the newline).  Only the cells whose
    bits are not all zero are formatted, so ``-0.0`` keeps its sign; each is
    spliced in at four times its flat index.  Each distinct bit pattern is
    formatted once (a symmetric matrix holds most values twice).  A CooMatrix
    gives these cells from its stored ones, so no dense array is made.
    """
    if isinstance(matrix, CooMatrix):
        shape = matrix.shape
        stored = np.flatnonzero(matrix.values.view(np.int64))
        flat = matrix.rows[stored] * matrix.n + matrix.cols[stored]
        values = matrix.values[stored]
    else:
        a = np.ascontiguousarray(matrix, dtype=float)
        if a.ndim != 2:
            raise PatternError(f"need a 2-D matrix, got shape {a.shape}")
        shape = a.shape
        flat = np.flatnonzero(a.ravel().view(np.int64))
        values = a.ravel()[flat]
    bits, which = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    # a matrix with no rows is written as one empty line
    zeros = (",".join(["0.0"] * shape[1]) + "\n") * shape[0] or "\n"
    starts = 4 * flat
    pieces = [None] * (2 * len(flat) + 1)
    pieces[::2] = [zeros[lo:hi] for lo, hi in zip([0, *(starts + 3).tolist()],
                                                  [*starts.tolist(), len(zeros)])]
    pieces[1::2] = texts[which].tolist()
    # free each stage before the next, so that at most two copies of the text are alive
    del zeros
    text = "".join(pieces)
    del pieces
    write_text(text, path_or_file)


def parse_dense_csv(text: str, source: str = "<csv>") -> np.ndarray:
    """The matrix of `text`, the whole of a dense CSV file, one row per line.

    A field that ``graph.read_float`` refuses (``_`` included, which
    ``float()`` skips), a value that is not finite (``nan``, ``inf``,
    ``1e400``) or a row whose length differs from the first row's raises
    PatternError with ``source:line``.  Blank lines are skipped, and a file
    with no nonblank line reads as a 0 x 0 matrix.

    The file is read by ``_csv_array``, which reads every field with
    ``float`` in one pass and checks the row lengths and values in bulk.  A
    file that fails one of its checks goes to the line scanner, which checks
    each line in file order and names the first bad one.
    """
    matrix = _csv_array(text)
    return matrix if matrix is not None else _scan_csv(text.split("\n"), source)


def _csv_array(text: str) -> np.ndarray | None:
    """The matrix of a file with no ``_`` whose every line holds as many
    fields as the first, each read by ``float`` to a finite value; None for
    any other file, a blank line included (its field is empty).

    The one ``_`` test of the body is ``read_float``'s rule in bulk: a
    ``read_float`` per cell would add a Python call per cell on the compressed
    products of ``hessian-grid``.  One ``np.fromiter`` over ``map(float, ...)``
    converts the fields of the lines joined by commas, so the values are the
    scanner's bit for bit.  (A regex of the decimal grammar and one
    ``np.fromstring`` took longer: on those products the regex alone cost a
    third of the read, and numpy parses a float no faster than ``float``.)
    """
    body = text[:-1] if text.endswith("\n") else text
    if not body or "_" in body:
        return None
    lines = body.split("\n")
    fields = lines[0].count(",") + 1
    if set(map(str.count, lines, repeat(","))) != {fields - 1}:
        return None
    cells = body.replace("\n", ",").split(",")
    try:
        values = np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    except ValueError:
        return None
    return values.reshape(-1, fields) if np.isfinite(values).all() else None


def _scan_csv(lines: Iterable[str], source: str) -> np.ndarray:
    """Check the lines of a dense CSV file one at a time, in file order, and
    raise at the first bad one."""
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = list(map(read_float, line.split(",")))
        except ValueError:
            raise PatternError(f"{source}:{lineno}: non-numeric field") from None
        if not all(map(math.isfinite, row)):
            raise PatternError(f"{source}:{lineno}: non-finite value")
        if rows and len(row) != len(rows[0]):
            raise PatternError(f"{source}:{lineno}: expected {len(rows[0])} fields")
        rows.append(row)
    return np.array(rows) if rows else np.zeros((0, 0))


def read_dense_csv(path: str) -> np.ndarray:
    """``parse_dense_csv`` of a file; bytes that are not UTF-8 also raise
    PatternError with ``path:line``."""
    return parse_dense_csv(read_text(path, PatternError), source=path)
