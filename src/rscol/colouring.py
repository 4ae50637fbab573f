"""Colouring values and verifiers: proper, restricted-star, star, ordered, distance-two.

Witness reporting is first-found under sorted vertex/colour order so test
failures are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterator

from .graph import Graph, VertexId, read_text, write_text


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
        for v, c in enumerate(self.colours):
            if not (0 <= c < self.k):
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

    def colour_classes(self) -> list[list[int]]:
        classes: list[list[int]] = [[] for _ in range(self.k)]
        for v, c in enumerate(self.colours):
            classes[c].append(v)
        return classes


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


def find_proper_violation(g: Graph, c: Colouring) -> tuple[int, int] | None:
    """First monochromatic edge, or None."""
    _check_domain(g, c)
    for u, v in g.edges():
        if c[u] == c[v]:
            return (u, v)
    return None


def is_proper(g: Graph, c: Colouring) -> bool:
    return find_proper_violation(g, c) is None


def find_rs_violation(g: Graph, c: Colouring) -> tuple[int, ...] | None:
    """First violating path x,y,z with c(y) > c(x) = c(z), else a monochromatic
    edge (u, v) when the colouring is merely improper, else None."""
    _check_domain(g, c)
    colours = c.colours
    off, tgt = g.offsets, g.targets
    # scan middles: y with two equal-coloured lower neighbours
    for y in range(g.n):
        cy = colours[y]
        seen: dict[int, int] = {}
        for x in tgt[off[y]:off[y + 1]]:
            cx = colours[x]
            if cx < cy:
                if cx in seen:
                    return (seen[cx], y, x)
                seen[cx] = x
    return find_proper_violation(g, c)


def is_rs(g: Graph, c: Colouring) -> bool:
    """Proper and, for every vertex, at most one neighbour in each lower colour class."""
    return find_rs_violation(g, c) is None


def is_star(g: Graph, c: Colouring) -> bool:
    """Proper with no bicoloured P4: every pair of colour classes induces a star forest.

    A proper colouring has a bicoloured P4 exactly when some edge xy has two
    neighbours of x coloured c(y) and two neighbours of y coloured c(x): take
    a != y among the first two and d != x among the second two; a != d because
    c(a) = c(y) != c(x) = c(d), so a-x-y-d is the path.  A bicoloured cycle
    contains a bicoloured P4, so one pass over the edges decides it.
    """
    _check_domain(g, c)
    colours = c.colours
    off, tgt = g.offsets, g.targets
    repeated: list[set[int]] = []  # colours on two or more neighbours of each vertex
    for v in range(g.n):
        seen: set[int] = set()
        twice: set[int] = set()
        for u in tgt[off[v]:off[v + 1]]:
            cu = colours[u]
            if cu in seen:
                twice.add(cu)
            seen.add(cu)
        if colours[v] in seen:
            return False  # monochromatic edge
        repeated.append(twice)
    return not any(
        colours[y] in repeated[x] and colours[x] in repeated[y] for x, y in g.edges()
    )


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

    classes = c.colour_classes()
    added = [False] * g.n
    for i in range(c.k):
        for v in classes[i]:
            added[v] = True
        for v in classes[i]:
            for w in g.neighbours(v):
                if added[w]:
                    ru, rw = find(v), find(w)
                    if ru != rw:
                        parent[ru] = rw
        roots_seen: set[int] = set()
        for v in classes[i]:
            r = find(v)
            if r in roots_seen:
                return False
            roots_seen.add(r)
    return True


def is_distance_two(g: Graph, c: Colouring) -> bool:
    """Any two vertices at distance <= 2 receive different colours."""
    _check_domain(g, c)
    if not is_proper(g, c):
        return False
    for v in range(g.n):
        seen: set[int] = set()
        for w in g.neighbours(v):
            if c[w] in seen:
                return False
            seen.add(c[w])
    return True


# -- Observation-2 property checker ------------------------------------------


def iter_paths(g: Graph, length: int) -> Iterator[tuple[int, ...]]:
    """All simple paths on `length` vertices, each undirected path once
    (smaller endpoint first)."""
    if length < 1:
        return
    if length == 1:
        for v in range(g.n):
            yield (v,)
        return

    path = [0] * length
    on_path = [False] * g.n

    def extend(depth: int) -> Iterator[tuple[int, ...]]:
        if depth == length:
            if path[0] < path[-1]:
                yield tuple(path)
            return
        for w in g.neighbours(path[depth - 1]):
            if not on_path[w]:
                path[depth] = w
                on_path[w] = True
                yield from extend(depth + 1)
                on_path[w] = False

    for v in range(g.n):
        path[0] = v
        on_path[v] = True
        yield from extend(1)
        on_path[v] = False


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
    """Check the structural properties every 3-rs colouring must satisfy:

    P1: 3-plus vertices carry a binary colour (0 or 1);
    P2: adjacent 3-plus vertices carry opposite binary colours;
    P3: no 3-vertex path with both endpoints coloured 0;
    P4: no 4-vertex path with endpoints coloured 0 and 1;
    P6: no 6-vertex path with both endpoints coloured 0.

    Precondition: c is an accepted 3-rs colouring (k = 3).
    """
    if c.k != 3:
        raise ColouringError("property check requires a 3-colour budget")
    if not is_rs(g, c):
        raise ColouringError("property check requires an accepted 3-rs colouring")
    report = PropertyReport()
    three_plus = [v for v in range(g.n) if g.degree(v) >= 3]
    for v in three_plus:
        if c[v] == 2 and report.p1.passed:
            report.p1 = PropertyCheck(False, (v,))
    for u in three_plus:
        for v in g.neighbours(u):
            if u < v and g.degree(v) >= 3 and c[v] != 1 - c[u]:
                if report.p2.passed:
                    report.p2 = PropertyCheck(False, (u, v))
    for p in iter_paths(g, 3):
        if c[p[0]] == 0 and c[p[-1]] == 0:
            report.p3 = PropertyCheck(False, p)
            break
    for p in iter_paths(g, 4):
        if {c[p[0]], c[p[-1]]} == {0, 1}:
            report.p4 = PropertyCheck(False, p)
            break
    for p in iter_paths(g, 6):
        if c[p[0]] == 0 and c[p[-1]] == 0:
            report.p6 = PropertyCheck(False, p)
            break
    return report


# -- file format --------------------------------------------------------------
# One line per vertex: "<vertex_1based> <colour_0based>", sorted by vertex.
# A line whose first token is exactly "c" is a comment, as in graph files.


def _scan_colouring(lines, n: int, source: str) -> dict[int, int]:
    """The 0-based vertex -> colour map of a full or partial colouring file."""
    assigned: dict[int, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        if len(parts) != 2:
            raise ColouringError(f"{source}:{lineno}: expected '<vertex> <colour>'")
        try:
            v, col = int(parts[0]), int(parts[1])
        except ValueError:
            raise ColouringError(f"{source}:{lineno}: non-integer field") from None
        if not (1 <= v <= n):
            raise ColouringError(f"{source}:{lineno}: vertex {v} outside 1..{n}")
        if col < 0:
            raise ColouringError(f"{source}:{lineno}: negative colour")
        if v - 1 in assigned:
            raise ColouringError(f"{source}:{lineno}: vertex {v} coloured twice")
        assigned[v - 1] = col
    return assigned


def parse_colouring(lines, n: int, source: str = "<colouring>") -> Colouring:
    assigned = _scan_colouring(lines, n, source)
    missing = [v + 1 for v in range(n) if v not in assigned]
    if missing:
        raise ColouringError(f"{source}: vertices without colour: {missing[:5]}")
    return Colouring.of([assigned[v] for v in range(n)])


def read_colouring_file(path: str, n: int) -> Colouring:
    return parse_colouring(read_text(path, ColouringError).split("\n"), n, source=path)


def parse_partial_colouring(lines, n: int, k: int, source: str = "<colouring>") -> PartialColouring:
    """Same format as a colouring file, but vertices may be left out."""
    return PartialColouring.of(n, _scan_colouring(lines, n, source), k)


def read_partial_colouring_file(path: str, n: int, k: int) -> PartialColouring:
    return parse_partial_colouring(read_text(path, ColouringError).split("\n"), n, k, source=path)


def format_colouring(c: Colouring) -> str:
    return "".join(f"{v + 1} {col}\n" for v, col in enumerate(c.colours))


def write_colouring_file(c: Colouring, path_or_file: str | IO[str]) -> None:
    write_text(format_colouring(c), path_or_file)
