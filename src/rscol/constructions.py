"""Executable forms of the constructive results: the SAT-to-graph gadgets with
their colouring schemes, pendant padding, the edge blow-up with colouring lift
and extraction, the split-graph formula, the 2-rs test, and the co-bipartite
star-to-ordered conversion."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import IO, Iterable, Mapping, Sequence

from .colouring import Colouring, is_proper, is_rs, is_star
from .graph import (
    Graph,
    GraphError,
    VertexId,
    read_text,
    subdivide_all_edges,
    write_text,
)


class CnfError(ValueError):
    """Malformed positive 3-CNF input."""


@dataclass(frozen=True)
class PositiveCnf:
    """Positive 3-CNF: clauses are 3-element sets of variables 1..num_vars."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise CnfError("formula needs at least one variable")
        for cl in self.clauses:
            if len(set(cl)) != 3:
                raise CnfError(f"clause {cl} does not have 3 distinct variables")
            for x in cl:
                if not (1 <= x <= self.num_vars):
                    raise CnfError(f"variable {x} outside 1..{self.num_vars}")

    @staticmethod
    def of(num_vars: int, clauses: Iterable[Sequence[int]]) -> PositiveCnf:
        return PositiveCnf(num_vars, tuple(tuple(sorted(cl)) for cl in clauses))

    def occurrences(self) -> dict[int, int]:
        occ = {x: 0 for x in range(1, self.num_vars + 1)}
        for cl in self.clauses:
            for x in cl:
                occ[x] += 1
        return occ

    def is_cubic(self) -> bool:
        """Each variable in exactly three clauses (so the formula graph is cubic)."""
        return all(c == 3 for c in self.occurrences().values())

    def exactly_one_true(self, assignment: Mapping[int, bool]) -> bool:
        return all(sum(bool(assignment[x]) for x in cl) == 1 for cl in self.clauses)


def enumerate_one_in_three_assignments(f: PositiveCnf) -> list[dict[int, bool]]:
    """All exactly-one-true assignments, by exhaustive scan over 2^num_vars."""
    out = []
    for bits in range(1 << f.num_vars):
        a = {x: bool(bits >> (x - 1) & 1) for x in range(1, f.num_vars + 1)}
        if f.exactly_one_true(a):
            out.append(a)
    return out


# -- small facts ---------------------------------------------------------------


def decide_2_rs(g: Graph) -> bool:
    """2-rs colourable iff every component is a star K_{1,p}, that is, iff
    every edge has an endpoint of degree 1.

    In a star every edge joins the centre to a leaf.  Conversely, take a
    component with a vertex of degree >= 2: all its neighbours have degree 1,
    so the component is that vertex and its leaves.  A component with only
    degree-1 vertices is K2, and an isolated vertex is K_{1,0}.
    """
    return all(g.degree(u) == 1 or g.degree(v) == 1 for u, v in g.edges())


def g_plus(g: Graph) -> Graph:
    """Pendant-pad every original vertex to degree max_degree(g) + 1."""
    if g.n == 0:
        raise GraphError("g_plus needs a nonempty graph")
    target = g.max_degree() + 1
    edges = list(g.edges())
    next_id = g.n
    for v in range(g.n):
        for _ in range(target - g.degree(v)):
            edges.append((v, next_id))
            next_id += 1
    return Graph.from_edge_list(next_id, edges)


def upper_bound_colouring(g: Graph, independent_set: Iterable[int]) -> Colouring:
    """Singleton colours on V minus I in index order, one shared top colour on I.

    Witnesses chi_rs(g) <= n - |I| + 1 for any independent set I.
    """
    members = sorted(set(independent_set))
    member_set = set(members)
    for v in members:
        if not (0 <= v < g.n):
            raise GraphError(f"vertex {v} out of range")
        if any(w in member_set for w in g.neighbours(v)):
            raise GraphError("given set is not independent")
    top = g.n - len(members)
    colours = [0] * g.n
    nxt = 0
    for v in range(g.n):
        if v in member_set:
            colours[v] = top
        else:
            colours[v] = nxt
            nxt += 1
    return Colouring.of(colours, k=top + 1 if g.n else 0)


# -- split graphs ---------------------------------------------------------------


@dataclass(frozen=True)
class SplitPartition:
    clique: tuple[int, ...]
    independent: tuple[int, ...]


def validate_split_partition(g: Graph, p: SplitPartition) -> None:
    cl, ind = set(p.clique), set(p.independent)
    if cl & ind or len(cl) + len(ind) != g.n or (cl | ind) != set(range(g.n)):
        raise GraphError("clique and independent sides must partition the vertices")
    for u in p.clique:
        for v in p.clique:
            if u < v and not g.has_edge(u, v):
                raise GraphError(f"clique side misses edge ({u},{v})")
    for u in p.independent:
        for w in g.neighbours(u):
            if w in ind:
                raise GraphError(f"independent side contains edge ({u},{w})")


def split_alpha(g: Graph, p: SplitPartition) -> int:
    """Independence number of a split graph: either I itself, or one clique
    vertex plus its non-neighbours in I."""
    best = len(p.independent)
    ind = set(p.independent)
    for v in p.clique:
        best = max(best, 1 + len(ind - set(g.neighbours(v))))
    return best


def split_rs_chromatic(g: Graph, p: SplitPartition) -> int:
    """chi_rs of a split graph: n - alpha + 1."""
    validate_split_partition(g, p)
    if g.n == 0:
        return 0
    return g.n - split_alpha(g, p) + 1


# -- SAT reduction gadgets --------------------------------------------------------


@dataclass
class GadgetGraph:
    """Reduction output plus the name maps gadget tests and dumps rely on.

    x[i] is the variable vertex, y[(i, j)] subdivides the variable-clause
    incidence, c[(j, k)] the k-th clause-triangle corner (k in 1..3), b[(j, k)]
    sits on the c_{jk} .. c_{j,k+1} side.  The girth variant adds a[(j, k, t)]
    (t in 1..s) and one pendant per a-vertex.
    """

    graph: Graph
    variant: str = "basic"
    x: dict[int, VertexId] = field(default_factory=dict)
    y: dict[tuple[int, int], VertexId] = field(default_factory=dict)
    c: dict[tuple[int, int], VertexId] = field(default_factory=dict)
    b: dict[tuple[int, int], VertexId] = field(default_factory=dict)
    a: dict[tuple[int, int, int], VertexId] = field(default_factory=dict)
    pendants: dict[tuple[int, int, int], VertexId] = field(default_factory=dict)
    side_interiors: dict[tuple[int, int], list[VertexId]] = field(default_factory=dict)
    clause_slots: dict[int, tuple[int, int, int]] = field(default_factory=dict)

    def names(self) -> dict[str, VertexId]:
        out = {f"x{i}": v for i, v in self.x.items()}
        out.update({f"y_{i}_{j}": v for (i, j), v in self.y.items()})
        out.update({f"c_{j}_{k}": v for (j, k), v in self.c.items()})
        out.update({f"b_{j}_{k}": v for (j, k), v in self.b.items()})
        out.update({f"a_{j}_{k}_{t}": v for (j, k, t), v in self.a.items()})
        out.update({f"ap_{j}_{k}_{t}": v for (j, k, t), v in self.pendants.items()})
        return out


def _intermediate_graph(f: PositiveCnf) -> tuple[Graph, GadgetGraph]:
    """Variables plus one triangle per clause, incidences wired to the slots.

    Slot k of clause j holds the k-th smallest variable of the clause.
    """
    gg = GadgetGraph(graph=None)  # graph filled in by the caller
    nv = f.num_vars
    for i in range(1, nv + 1):
        gg.x[i] = i - 1
    edges: list[tuple[int, int]] = []
    nxt = nv
    for j, clause in enumerate(f.clauses, start=1):
        slots = tuple(sorted(clause))
        gg.clause_slots[j] = slots
        corners = []
        for k in range(1, 4):
            gg.c[(j, k)] = nxt
            corners.append(nxt)
            nxt += 1
        edges += [(corners[0], corners[1]), (corners[1], corners[2]), (corners[0], corners[2])]
        for k, var in enumerate(slots, start=1):
            edges.append((gg.x[var], gg.c[(j, k)]))
    return Graph.from_edge_list(nxt, edges), gg


def sat_to_graph(f: PositiveCnf, variant: str = "basic", s: int = 2) -> GadgetGraph:
    """Build the reduction graph for a positive 3-CNF.

    variant="basic": every clause becomes a triangle, incidences become edges,
    then every edge is subdivided once (10m vertices / 12m edges on cubic
    formulas).  variant="girth": each triangle side becomes a path of length
    3s + 2 with a pendant on every third interior vertex, pushing the girth to
    at least 2(3s + 2); s must be even so the result stays bipartite.
    """
    if variant not in ("basic", "girth"):
        raise ValueError(f"unknown variant {variant!r}")
    inter, gg = _intermediate_graph(f)
    if variant == "basic":
        graph, sub = subdivide_all_edges(inter)
        for j, slots in gg.clause_slots.items():
            for k, var in enumerate(slots, start=1):
                u, v = gg.x[var], gg.c[(j, k)]
                gg.y[(var, j)] = sub[(min(u, v), max(u, v))]
            for k in range(1, 4):
                u, v = gg.c[(j, k)], gg.c[(j, k % 3 + 1)]
                gg.b[(j, k)] = sub[(min(u, v), max(u, v))]
        gg.graph = graph
        return gg

    if s < 2 or s % 2:
        raise ValueError("girth variant needs even s >= 2")
    gg.variant = "girth"
    edges: list[tuple[int, int]] = []
    nxt = inter.n  # x and c vertices keep their intermediate ids
    for j, slots in gg.clause_slots.items():
        for k, var in enumerate(slots, start=1):
            gg.y[(var, j)] = nxt
            edges += [(gg.x[var], nxt), (nxt, gg.c[(j, k)])]
            nxt += 1
        for k in range(1, 4):
            start, end = gg.c[(j, k)], gg.c[(j, k % 3 + 1)]
            prev = start
            interior: list[int] = []
            for t in range(1, s + 1):
                for _ in range(2):  # two unnamed vertices before each a
                    edges.append((prev, nxt))
                    interior.append(nxt)
                    prev = nxt
                    nxt += 1
                gg.a[(j, k, t)] = nxt
                edges.append((prev, nxt))
                interior.append(nxt)
                prev = nxt
                nxt += 1
                gg.pendants[(j, k, t)] = nxt
                edges.append((gg.a[(j, k, t)], nxt))
                nxt += 1
            gg.b[(j, k)] = nxt
            edges += [(prev, nxt), (nxt, end)]
            interior.append(nxt)
            nxt += 1
            gg.side_interiors[(j, k)] = interior
    gg.graph = Graph.from_edge_list(nxt, edges)
    return gg


# colour patterns for a triangle side, by offset from the 0-coloured corner:
# offset 0 runs 0 -> 1, offset 1 runs 1 -> 1, offset 2 runs 1 -> 0
_SIDE_TRIPLE = {0: (2, 1, 0), 1: (0, 2, 1), 2: (2, 0, 1)}
_SIDE_B = {0: 2, 1: 0, 2: 2}


def assignment_to_3rs_colouring(
    f: PositiveCnf, gg: GadgetGraph, assignment: Mapping[int, bool]
) -> Colouring:
    """Turn an exactly-one-true assignment into a 3-rs colouring of the gadget.

    True variables get colour 1, false get 0, incidence vertices get 2, each
    corner gets the colour opposite to its variable, and the gadget interior
    follows the published scheme rotated so the 0-coloured corner leads.
    """
    if not f.exactly_one_true(assignment):
        raise ValueError("assignment is not exactly-one-true on every clause")
    colours = [0] * gg.graph.n
    for i, v in gg.x.items():
        colours[v] = 1 if assignment[i] else 0
    for v in gg.y.values():
        colours[v] = 2
    for j, slots in gg.clause_slots.items():
        corner_cols = []
        for k, var in enumerate(slots, start=1):
            col = 1 - colours[gg.x[var]]
            colours[gg.c[(j, k)]] = col
            corner_cols.append(col)
        r = corner_cols.index(0)  # slot index (0-based) of the 0-coloured corner
        for off in range(3):
            k = (r + off) % 3 + 1
            if gg.variant == "girth":
                interior = gg.side_interiors[(j, k)]
                triple = _SIDE_TRIPLE[off]
                for pos, v in enumerate(interior[:-1]):
                    colours[v] = triple[pos % 3]
                colours[interior[-1]] = _SIDE_B[off]  # the b vertex
            else:
                colours[gg.b[(j, k)]] = _SIDE_B[off]
    for v in gg.pendants.values():
        colours[v] = 2
    return Colouring.of(colours, k=3)


def colouring_to_assignment(
    f: PositiveCnf, gg: GadgetGraph, c: Colouring
) -> dict[int, bool]:
    """Read a truth assignment off a 3-rs colouring: x_i true iff coloured 1.

    Exactly-one-true per clause is guaranteed for cubic formulas only.
    """
    if not is_rs(gg.graph, c):
        raise ValueError("colouring is not an accepted 3-rs colouring of the gadget")
    if not f.is_cubic():
        warnings.warn(
            "formula is not cubic: exactly-one-true extraction is not guaranteed",
            stacklevel=2,
        )
    return {i: c[v] == 1 for i, v in gg.x.items()}


# -- edge blow-up ------------------------------------------------------------------


@dataclass
class BlowupGraph:
    graph: Graph
    edge_vertices: dict[tuple[int, int], tuple[VertexId, ...]]
    original_n: int


def edge_blowup(g: Graph) -> BlowupGraph:
    """Replace each edge uv by a K_{2, max_degree+1} with parts {u, v} and
    fresh vertices; the result is bipartite with n + (max_degree+1) * m vertices."""
    if g.m == 0:
        raise GraphError("edge blow-up needs at least one edge")
    width = g.max_degree() + 1
    edges: list[tuple[int, int]] = []
    names: dict[tuple[int, int], tuple[int, ...]] = {}
    nxt = g.n
    for u, v in g.edges():
        fresh = tuple(range(nxt, nxt + width))
        nxt += width
        names[(u, v)] = fresh
        for e in fresh:
            edges += [(u, e), (v, e)]
    return BlowupGraph(Graph.from_edge_list(nxt, edges), names, g.n)


def colouring_lift(g: Graph, bu: BlowupGraph, pc: Colouring) -> Colouring:
    """Lift a proper k-colouring of g to a (k+1)-rs colouring of the blow-up by
    painting every fresh vertex with the new colour k."""
    if len(pc) != g.n:
        raise ValueError("colouring does not cover the original graph")
    if not is_proper(g, pc):
        raise ValueError("lift needs a proper colouring of the original graph")
    k = pc.k
    colours = list(pc.colours) + [k] * (bu.graph.n - g.n)
    lifted = Colouring.of(colours, k=k + 1)
    return lifted


def rs_to_proper_extraction(g: Graph, bu: BlowupGraph, c: Colouring) -> Colouring:
    """Extract a proper k-colouring of g from a (k+1)-rs colouring of the blow-up.

    For k above the greedy threshold (max_degree + 1) a greedy colouring
    suffices; otherwise the restriction to the original vertices is proper.
    """
    if not is_rs(bu.graph, c):
        raise ValueError("input is not an accepted rs colouring of the blow-up")
    k = c.k - 1
    if k >= g.max_degree() + 1:
        colours = [-1] * g.n
        for v in range(g.n):
            used = {colours[w] for w in g.neighbours(v) if colours[w] >= 0}
            colours[v] = next(col for col in range(k) if col not in used)
        return Colouring.of(colours, k=k)
    restriction = Colouring.of([c[v] for v in range(g.n)], k=k)
    if not is_proper(g, restriction):
        raise AssertionError("restriction of an rs colouring must be proper here")
    return restriction


# -- co-bipartite graphs ---------------------------------------------------------


@dataclass(frozen=True)
class CoBipartitePartition:
    a: tuple[int, ...]
    b: tuple[int, ...]


def validate_cobipartite_partition(g: Graph, p: CoBipartitePartition) -> None:
    sa, sb = set(p.a), set(p.b)
    if sa & sb or (sa | sb) != set(range(g.n)) or len(sa) + len(sb) != g.n:
        raise GraphError("sides must partition the vertices")
    for side in (p.a, p.b):
        for u in side:
            for v in side:
                if u < v and not g.has_edge(u, v):
                    raise GraphError(f"side is not a clique: missing ({u},{v})")


def star_to_ordered_cobipartite(
    g: Graph, p: CoBipartitePartition, sc: Colouring
) -> Colouring:
    """Relabel a star colouring of a co-bipartite graph into an ordered
    colouring with the same colour count: size-2 classes take the low colours."""
    validate_cobipartite_partition(g, p)
    if not is_star(g, sc):
        raise ValueError("input is not an accepted star colouring")
    classes = sc.colour_classes()
    if any(len(cl) > 2 for cl in classes.values()):
        raise GraphError("colour class of size > 2: partition sides cannot be cliques")
    pairs = [i for i, cl in classes.items() if len(cl) == 2]
    singles = [i for i, cl in classes.items() if len(cl) == 1]
    relabel: dict[int, int] = {}
    for new, old in enumerate(pairs + singles):
        relabel[old] = new
    colours = [relabel[sc[v]] for v in range(g.n)]
    return Colouring.of(colours, k=len(pairs) + len(singles))


# -- DIMACS-style positive CNF files ------------------------------------------------
# "p cnf <nvars> <nclauses>" then one clause per line "a b c 0", positive only.
# A line whose first token is exactly "c" is a comment, as in graph files.


def parse_cnf(lines: Iterable[str], source: str = "<cnf>") -> PositiveCnf:
    num_vars = -1
    declared = 0
    clauses: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            if num_vars != -1:
                raise CnfError(f"{source}:{lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "cnf":
                raise CnfError(f"{source}:{lineno}: expected 'p cnf <vars> <clauses>'")
            try:
                num_vars, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise CnfError(f"{source}:{lineno}: non-integer counts") from None
            if num_vars < 0 or declared < 0:
                problem = "negative variable count" if num_vars < 0 else "negative clause count"
                raise CnfError(f"{source}:{lineno}: {problem}")
            if num_vars == 0:
                raise CnfError(f"{source}:{lineno}: formula needs at least one variable")
            continue
        if num_vars == -1:
            raise CnfError(f"{source}:{lineno}: clause before problem line")
        try:
            lits = [int(tok) for tok in parts]
        except ValueError:
            raise CnfError(f"{source}:{lineno}: non-integer literal") from None
        if not lits or lits[-1] != 0:
            raise CnfError(f"{source}:{lineno}: clause must end with 0")
        lits = lits[:-1]
        for lit in lits:
            if lit < 0:
                raise CnfError(f"{source}:{lineno}: negated literal {lit} not allowed")
            if lit == 0 or lit > num_vars:
                raise CnfError(f"{source}:{lineno}: variable {lit} outside 1..{num_vars}")
        if len(set(lits)) != 3:
            raise CnfError(f"{source}:{lineno}: clause needs exactly 3 distinct variables")
        clauses.append(tuple(sorted(lits)))
    if num_vars == -1:
        raise CnfError(f"{source}: missing problem line")
    if len(clauses) != declared:
        raise CnfError(f"{source}: declared {declared} clauses, found {len(clauses)}")
    return PositiveCnf.of(num_vars, clauses)


def read_cnf_file(path: str) -> PositiveCnf:
    return parse_cnf(read_text(path, CnfError).split("\n"), source=path)


def format_cnf(f: PositiveCnf) -> str:
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    lines += [f"{a} {b} {c} 0" for a, b, c in f.clauses]
    return "\n".join(lines) + "\n"


def write_names_file(gg: GadgetGraph, path_or_file: str | IO[str]) -> None:
    """Sidecar name map, one "name vertex_1based" line per named vertex."""
    lines = [f"{name} {v + 1}" for name, v in sorted(gg.names().items())]
    write_text("\n".join(lines) + "\n", path_or_file)
