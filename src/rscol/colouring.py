"""Colouring values and verifiers: proper, restricted-star, star, ordered, distance-two.

Witness reporting is first-found under sorted vertex/colour order so test
failures are deterministic.  The proper, rs, star and distance-two verifiers
are numpy passes over the graph's CSR (``graph._csr_arrays``): a monochromatic
edge is one compare over the arcs, and the key x·n + c(y) of an arc x -> y
repeats in one stable sort exactly when x has two neighbours coloured c(y).
rs forbids a repeat among the arcs into a lower colour, star an edge whose two
arcs both repeat, distance-two any repeat.  Ordered, a path rule, is a scan.
The properties of Observation 2 (``check_properties_P``) follow from rs, so
they are checked as its consequence by the rs pass alone; no path is
enumerated outside the tests.

Colouring files (``read_colouring_file``, ``read_partial_colouring_file``)
have one line ``<vertex_1based> <colour_0based>`` per coloured vertex, in any
order; a line whose first token is exactly ``c`` is a comment and blank lines
are skipped.  The readers take the whole text of a file.  A file whose lines
are all ``COLOUR_LINE`` is read by one ``np.fromstring`` after
``graph.match_lines`` checks it, and its vertex range, repeats, coverage and
colour budget are checked in numpy.  Any other file, or one that fails a
check, goes to the line scanner, which names the first bad line, or the
vertices a full colouring leaves out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

from .graph import (INT_FIELD, Graph, VertexId, _csr_arrays, match_lines, read_int, read_text,
                    write_text)


class ColouringError(ValueError):
    """Colouring domain mismatch or malformed colouring input."""


@dataclass(frozen=True)
class Colouring:
    """Total map vertex -> colour, colours drawn from {0..k-1}."""

    colours: tuple[int, ...]
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ColouringError("colour budget must be nonnegative")
        if self.colours and not (0 <= min(self.colours) and max(self.colours) < self.k):
            v, c = next((v, c) for v, c in enumerate(self.colours) if not 0 <= c < self.k)
            raise ColouringError(f"vertex {v} has colour {c} outside 0..{self.k - 1}")

    @staticmethod
    def of(colours, k: int | None = None) -> Colouring:
        colours = tuple(colours)
        if k is None:
            k = max(colours, default=-1) + 1
        return Colouring(colours, k)

    def __getitem__(self, v: VertexId) -> int:
        return self.colours[v]

    def __len__(self) -> int:
        return len(self.colours)

    def colour_classes(self) -> dict[int, list[int]]:
        """The vertices of each colour in use, keyed by colour in increasing order."""
        classes: dict[int, list[int]] = {}
        for v, c in enumerate(self.colours):
            classes.setdefault(c, []).append(v)
        return dict(sorted(classes.items()))


@dataclass(frozen=True)
class PartialColouring:
    """Map vertex -> colour or None, with colour budget k."""

    colours: tuple[int | None, ...]
    k: int

    def __post_init__(self):
        for v, c in enumerate(self.colours):
            if c is not None and not (0 <= c < self.k):
                raise ColouringError(f"vertex {v} has colour {c} outside 0..{self.k - 1}")

    @staticmethod
    def of(n: int, assigned: dict[int, int], k: int) -> PartialColouring:
        return PartialColouring(tuple(assigned.get(v) for v in range(n)), k)

    def __getitem__(self, v: VertexId) -> int | None:
        return self.colours[v]

    def is_extended_by(self, c: Colouring) -> bool:
        return len(c) == len(self.colours) and all(
            mine is None or mine == c[v] for v, mine in enumerate(self.colours)
        )


def _check_domain(g: Graph, c: Colouring) -> None:
    if len(c) != g.n:
        raise ColouringError(f"colouring covers {len(c)} vertices, graph has {g.n}")


# -- verifiers ---------------------------------------------------------------


def _colour_array(g: Graph, c: Colouring) -> np.ndarray:
    """The colours of `c` as an integer array whose entries are below n, so that
    ``v * n + colour`` keys stay distinct: the colours themselves when they
    are, else each colour's rank among the distinct colours, which keeps every
    comparison between them."""
    try:
        colours = np.array(c.colours, dtype=np.int64)
    except OverflowError:  # a colour beyond int64
        colours = None
    if colours is None or (colours.size and colours.max() >= g.n):
        colours = np.unique(np.array(c.colours, dtype=object), return_inverse=True)[1]
    return colours


def _mono_edge(src: np.ndarray, tgt: np.ndarray, colours: np.ndarray) -> tuple[int, int] | None:
    """The first arc u -> v with u < v and equal colours in CSR order, which is
    the order of ``Graph.edges``, or None."""
    mono = np.flatnonzero((src < tgt) & (colours[src] == colours[tgt]))
    return (int(src[mono[0]]), int(tgt[mono[0]])) if mono.size else None


def find_proper_violation(g: Graph, c: Colouring) -> tuple[int, int] | None:
    """First monochromatic edge, or None."""
    _check_domain(g, c)
    _, src, tgt = _csr_arrays(g)
    return _mono_edge(src, tgt, _colour_array(g, c))


def is_proper(g: Graph, c: Colouring) -> bool:
    return find_proper_violation(g, c) is None


def _key_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stable sort order of `keys`, the keys in that order, and for each
    sorted position after the first whether its key repeats the one before."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    return order, sorted_keys, sorted_keys[1:] == sorted_keys[:-1]


def find_rs_violation(g: Graph, c: Colouring) -> tuple[int, ...] | None:
    """First violating path x,y,z with c(y) > c(x) = c(z), else a monochromatic
    edge (u, v) when the colouring is merely improper, else None.

    A middle y has two lower neighbours of one colour exactly when its key
    y·n + c(x) repeats among the arcs y -> x into a lower colour.  The path
    named is the one a scan of the rows in CSR order meets first: z is the
    least arc in CSR order whose key repeats, and x the first arc of that key.
    A stable sort keeps each key's arcs in CSR order.
    """
    _check_domain(g, c)
    _, src, tgt = _csr_arrays(g)
    colours = _colour_array(g, c)
    arcs = np.flatnonzero(colours[tgt] < colours[src])
    keys = src[arcs] * g.n + colours[tgt[arcs]]
    order, sorted_keys, same = _key_runs(keys)
    repeats = order[1:][same]
    if repeats.size:
        z = repeats.min()
        x = order[np.searchsorted(sorted_keys, keys[z])]
        return (int(tgt[arcs[x]]), int(src[arcs[z]]), int(tgt[arcs[z]]))
    return _mono_edge(src, tgt, colours)


def is_rs(g: Graph, c: Colouring) -> bool:
    """Proper and, for every vertex, at most one neighbour in each lower colour class."""
    return find_rs_violation(g, c) is None


def _repeated_arcs(g: Graph, c: Colouring) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The rows and targets of the arcs x -> y of a proper colouring `c`, and
    whether their keys x·n + c(y) repeat; None when `c` is not proper."""
    _check_domain(g, c)
    _, src, tgt = _csr_arrays(g)
    colours = _colour_array(g, c)
    if _mono_edge(src, tgt, colours) is not None:
        return None
    order, _, same = _key_runs(src * g.n + colours[tgt])
    repeated = np.zeros(src.size, dtype=bool)
    repeated[order[1:][same]] = repeated[order[:-1][same]] = True
    return src, tgt, repeated


def is_star(g: Graph, c: Colouring) -> bool:
    """Proper with no bicoloured P4: every pair of colour classes induces a star forest.

    A proper colouring has a bicoloured P4 exactly when some edge xy has two
    neighbours of x coloured c(y) and two neighbours of y coloured c(x): take
    a != y among the first two and d != x among the second two; a != d because
    c(a) = c(y) != c(x) = c(d), so a-x-y-d is the path.  A bicoloured cycle
    contains a bicoloured P4, so one pass over the arcs decides it, reading the
    whole graph even when an early edge fails; y -> x has the CSR key y·n + x.
    """
    arcs = _repeated_arcs(g, c)
    if arcs is None:
        return False
    src, tgt, repeated = arcs
    reverse = np.searchsorted(src * g.n + tgt, tgt * g.n + src)
    return not (repeated & repeated[reverse]).any()


def is_ordered(g: Graph, c: Colouring) -> bool:
    """Proper and every path between same-coloured vertices contains a higher colour.

    Checked via the threshold characterization: for each colour i, every
    component of the subgraph induced by {v : c(v) <= i} holds at most one
    vertex of colour i.
    """
    _check_domain(g, c)
    if not is_proper(g, c):
        return False
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    added = [False] * g.n
    for members in c.colour_classes().values():
        for v in members:
            added[v] = True
        for v in members:
            for w in g.neighbours(v):
                if added[w]:
                    ru, rw = find(v), find(w)
                    if ru != rw:
                        parent[ru] = rw
        roots_seen: set[int] = set()
        for v in members:
            r = find(v)
            if r in roots_seen:
                return False
            roots_seen.add(r)
    return True


def is_distance_two(g: Graph, c: Colouring) -> bool:
    """Any two vertices at distance <= 2 receive different colours: proper, and
    no vertex has two neighbours of one colour.  The pass reads the whole
    graph even when an early vertex already fails."""
    arcs = _repeated_arcs(g, c)
    return arcs is not None and not arcs[2].any()


# -- Observation 2, checked as a consequence of rs --------------------------


@dataclass
class PropertyCheck:
    passed: bool
    witness: tuple[int, ...] | None = None


@dataclass
class PropertyReport:
    """Pass/fail per property of accepted 3-rs colourings, with witnesses."""

    p1: PropertyCheck = field(default_factory=lambda: PropertyCheck(True))
    p2: PropertyCheck = field(default_factory=lambda: PropertyCheck(True))
    p3: PropertyCheck = field(default_factory=lambda: PropertyCheck(True))
    p4: PropertyCheck = field(default_factory=lambda: PropertyCheck(True))
    p6: PropertyCheck = field(default_factory=lambda: PropertyCheck(True))

    def all_pass(self) -> bool:
        return all(c.passed for c in (self.p1, self.p2, self.p3, self.p4, self.p6))


def check_properties_P(g: Graph, c: Colouring) -> PropertyReport:
    """The structural properties of every 3-rs colouring (Observation 2), each
    of which follows from rs:

    P1: 3-plus vertices carry a binary colour (0 or 1): coloured 2, a vertex
        has at least three lower neighbours, two of them in one class;
    P2: adjacent 3-plus vertices carry opposite binary colours: by P1 and
        properness;
    P3: no 3-vertex path with both endpoints coloured 0: its middle is
        higher, which rs forbids;
    P4: no 4-vertex path with endpoints coloured 0 and 1, and
    P6: no 6-vertex path with both endpoints coloured 0: rs holds on every
        path subgraph, and the path lemma (``tree3rs.path_3rs_feasible``)
        rules out these ends on paths of 4 and 6 vertices.

    So the check is its preconditions, k = 3 and one ``is_rs`` pass, and the
    report of an accepted colouring passes every property.
    """
    if c.k != 3:
        raise ColouringError("property check requires a 3-colour budget")
    if not is_rs(g, c):
        raise ColouringError("property check requires an accepted 3-rs colouring")
    return PropertyReport()


# -- file format --------------------------------------------------------------
# One line per coloured vertex: "<vertex_1based> <colour_0based>", in any order.
# A line whose first token is exactly "c" is a comment, as in graph files.


COLOUR_LINE = f"{INT_FIELD} {INT_FIELD}"


def _colour_pairs(text: str, n: int, k: int | None) -> tuple[np.ndarray, np.ndarray] | None:
    """The 0-based vertices and their colours of a file whose lines all match
    COLOUR_LINE once normalised, each vertex in 1..n listed once, each colour
    below the budget k of a partial colouring and, without k, every vertex
    listed; None for any other file."""
    lines = match_lines(text, COLOUR_LINE)
    if lines is None:
        return None
    pairs = np.fromstring(lines, dtype=np.int64, sep=" ") if lines else np.zeros(0, np.int64)
    vertices, colours = pairs[0::2] - 1, pairs[1::2]
    if ((vertices < 0) | (vertices >= n)).any() or (k is not None and (colours >= k).any()):
        return None
    listed = np.zeros(n, dtype=bool)
    listed[vertices] = True
    if np.count_nonzero(listed) != len(vertices) or (k is None and len(vertices) != n):
        return None  # a vertex listed twice, or one left out of a full colouring
    return vertices, colours


def _scan_colouring(lines: Iterable[str], n: int, source: str,
                    k: int | None = None) -> Colouring | PartialColouring:
    """The full colouring of the lines of a colouring file, or the partial
    colouring with budget k, where a colour outside the budget raises.  The
    lines are checked one at a time, in file order, up to the first bad one;
    a full colouring that leaves vertices out raises after the last line."""
    assigned: dict[int, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        if len(parts) != 2:
            raise ColouringError(f"{source}:{lineno}: expected '<vertex> <colour>'")
        try:
            v, col = read_int(parts[0]), read_int(parts[1])
        except ValueError:
            raise ColouringError(f"{source}:{lineno}: non-integer field") from None
        if not (1 <= v <= n):
            raise ColouringError(f"{source}:{lineno}: vertex {v} outside 1..{n}")
        if col < 0:
            raise ColouringError(f"{source}:{lineno}: negative colour")
        if k is not None and col >= k:
            raise ColouringError(f"{source}:{lineno}: colour {col} outside 0..{k - 1}")
        if v - 1 in assigned:
            raise ColouringError(f"{source}:{lineno}: vertex {v} coloured twice")
        assigned[v - 1] = col
    if k is not None:
        return PartialColouring.of(n, assigned, k)
    missing = [v + 1 for v in range(n) if v not in assigned]
    if missing:
        raise ColouringError(f"{source}: vertices without colour: {missing[:5]}")
    return Colouring.of([assigned[v] for v in range(n)])


def parse_colouring(text: str, n: int, source: str = "<colouring>") -> Colouring:
    """The colouring of `text`, the whole of a colouring file."""
    pairs = _colour_pairs(text, n, None)
    if pairs is None:
        return _scan_colouring(text.split("\n"), n, source)
    colours = np.empty(n, dtype=np.int64)
    colours[pairs[0]] = pairs[1]
    return Colouring.of(colours.tolist())


def read_colouring_file(path: str, n: int) -> Colouring:
    return parse_colouring(read_text(path, ColouringError), n, source=path)


def parse_partial_colouring(text: str, n: int, k: int,
                            source: str = "<colouring>") -> PartialColouring:
    """Same format as a colouring file, but vertices may be left out."""
    pairs = _colour_pairs(text, n, k)
    if pairs is None:
        return _scan_colouring(text.split("\n"), n, source, k)
    colours = np.full(n, None, dtype=object)
    colours[pairs[0]] = pairs[1].tolist()
    return PartialColouring(tuple(colours.tolist()), k)


def read_partial_colouring_file(path: str, n: int, k: int) -> PartialColouring:
    return parse_partial_colouring(read_text(path, ColouringError), n, k, source=path)


def format_colouring(c: Colouring) -> str:
    """One line per vertex, formatted by one ``%`` on a repeated template."""
    fields: list = [None] * (2 * len(c))
    fields[0::2] = range(1, len(c) + 1)
    fields[1::2] = c.colours
    return ("%d %d\n" * len(c)) % tuple(fields)


def write_colouring_file(c: Colouring, path_or_file: str | IO[str]) -> None:
    write_text(format_colouring(c), path_or_file)
