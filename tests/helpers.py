"""Shared instances, generators, and independent oracles for the test suite.

Oracles here deliberately re-derive results by brute force or by a different
formulation than the library code they check.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np
from hypothesis import strategies as st

from rscol.chordal3rs import ChordalTestResult, NotChordalError
from rscol.colouring import Colouring, _check_domain, is_ordered, is_proper, is_rs
from rscol.graph import (
    Edge,
    Graph,
    GraphError,
    connected_components,
    is_chordal,
    is_tree,
    list_triangles,
    write_text,
)
from rscol.hessian import PatternError, SeedGrouping, _vertex_order
from rscol.solver import (
    DEFAULT_BUDGET,
    SolveBudget,
    SolveResult,
    SolveStatus,
    _BudgetHit,
    _Search,
)
from rscol.tree3rs import test_3rs_tree

# -- named instances ---------------------------------------------------------

# vertex order x, y, z, v, w
DART_EDGES = [(0, 1), (1, 2), (1, 3), (1, 4), (3, 2), (4, 2)]
DART_X, DART_Y, DART_Z, DART_V, DART_W = range(5)


def dart() -> Graph:
    return Graph.from_edge_list(5, DART_EDGES)


def dart_colouring() -> Colouring:
    # x, z -> 1; y -> 0; v, w -> 2
    return Colouring.of([1, 0, 1, 2, 2], k=3)


# worked-example tree, labels A..N = 0..13, root N = 13
WORKED_TREE_EDGES = [
    (0, 2), (1, 2), (2, 4), (3, 4), (4, 6), (5, 6), (6, 7),
    (7, 8), (8, 13), (9, 13), (13, 12), (10, 12), (12, 11),
]
WORKED_TREE_ROOT = 13


def worked_tree() -> Graph:
    return Graph.from_edge_list(14, WORKED_TREE_EDGES)


def worked_tree_caterpillar() -> Graph:
    # same tree in its caterpillar drawing: spine v1..v7 = 0..6, leaves 7..13
    edges = [(i, i + 1) for i in range(6)]
    edges += [(7, 0), (6, 13), (0, 8), (1, 9), (2, 10), (5, 11), (6, 12)]
    return Graph.from_edge_list(14, edges)


def unsat_cubic_formula():
    """The four-clause formula whose gadget has 40 vertices; it has no
    exactly-one-true assignment."""
    from rscol.constructions import PositiveCnf

    return PositiveCnf.of(4, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])


# -- independent rs oracle ----------------------------------------------------


def rs_violations_by_paths(g: Graph, c: Colouring) -> bool:
    """Direct scan over all 3-vertex paths; independent of the per-class
    counting formulation in the library."""
    for u, v in g.edges():
        if c[u] == c[v]:
            return False
    for y in range(g.n):
        for x in g.neighbours(y):
            for z in g.neighbours(y):
                if x < z and c[x] == c[z] and c[y] > c[x]:
                    return False
    return True


# -- star oracles ---------------------------------------------------------------
# The checks that rscol.colouring.is_star and the star search used before the
# per-edge rule replaced them.


def class_pair_is_star(g: Graph, c: Colouring) -> bool:
    """Proper with no bicoloured P4: every pair of colour classes induces a star
    forest, checked by walking each component of each two-class subgraph."""
    _check_domain(g, c)
    if not is_proper(g, c):
        return False
    classes = c.colour_classes()
    for i in range(c.k):
        for j in range(i + 1, c.k):
            members = classes[i] + classes[j]
            if len(members) < 4:
                continue
            in_union = set(members)
            seen: set[int] = set()
            for s in members:
                if s in seen:
                    continue
                # walk the component of G[V_i u V_j] containing s
                comp = [s]
                seen.add(s)
                stack = [s]
                edge_count = 0
                big = 0  # vertices of degree >= 2 inside the component
                while stack:
                    u = stack.pop()
                    deg_in = 0
                    for w in g.neighbours(u):
                        if w in in_union:
                            deg_in += 1
                            edge_count += 1
                            if w not in seen:
                                seen.add(w)
                                comp.append(w)
                                stack.append(w)
                    if deg_in >= 2:
                        big += 1
                edge_count //= 2
                if edge_count > len(comp) - 1 or big > 1:
                    return False
    return True


def creates_bicoloured_p4(adj: list[list[int]], colour: list[int], v: int, col: int) -> bool:
    """Would colouring the uncoloured v with col close a bicoloured P4 through v?
    Walks every 4-vertex path through v over coloured vertices (-1 = uncoloured)."""
    # all 4-vertex paths through v using only coloured vertices
    for a in adj[v]:
        ca = colour[a]
        if ca == -1:
            continue
        for b in adj[a]:
            cb = colour[b]
            if b == v or cb == -1:
                continue
            for d in adj[b]:
                cd = colour[d]
                if d == a or d == v or cd == -1:
                    continue
                # path v,a,b,d
                if cb == col and ca == cd and ca != col:
                    return True
            # path d,v,a,b with v internal: handled when d was placed or below
        for b in adj[v]:
            cb = colour[b]
            if b == a or cb == -1:
                continue
            if ca != cb:
                continue
            # path a,v,b + one more step from b
            for d in adj[b]:
                cd = colour[d]
                if d == v or d == a or cd == -1:
                    continue
                if cd == col and ca != col:
                    return True
    return False


def brute_force_min_colours(g: Graph, accept) -> int:
    """Smallest k such that some total k-colouring passes `accept`, by
    enumerating all assignments (tiny graphs only)."""
    for k in range(1, g.n + 1):
        for assignment in itertools.product(range(k), repeat=g.n):
            if accept(g, Colouring.of(assignment, k=k)):
                return k
    return max(g.n, 1)


def brute_force_exists(g: Graph, k: int, accept, pre=None) -> bool:
    for assignment in itertools.product(range(k), repeat=g.n):
        if pre is not None and any(
            p is not None and p != a for p, a in zip(pre, assignment)
        ):
            continue
        if accept(g, Colouring.of(assignment, k=k)):
            return True
    return False


def backtrack_decide_k_ordered(
    g: Graph, k: int, budget: SolveBudget = DEFAULT_BUDGET
) -> SolveResult:
    """The per-rank BFS backtracker that rscol.solver.decide_k_ordered used
    before the treedepth DP, kept as its differential oracle.  Same contract:
    is there a k-ordered colouring (vertex ranking with k ranks)?"""
    if k < 1:
        return SolveResult(SolveStatus.NO if g.n else SolveStatus.YES)
    s = _Search(g, k, budget)
    colour, adj = s.colour, s.adj

    def feasible(v: int, col: int) -> bool:
        if s.cnt[v][col]:
            return False
        # Assigning col to v may close a low path between two vertices of some
        # colour q >= col; such a violation never heals, so prune it now.
        colour[v] = col
        try:
            for q in range(col, k):
                # component of v within assigned vertices of colour <= q
                stack, seen = [v], {v}
                hits = 1 if col == q else 0
                while stack:
                    u = stack.pop()
                    for w in adj[u]:
                        cw = colour[w]
                        if w not in seen and 0 <= cw <= q:
                            seen.add(w)
                            if cw == q:
                                hits += 1
                                if hits > 1:
                                    return False
                            stack.append(w)
        finally:
            colour[v] = -1
        return True

    try:

        def search(depth: int) -> bool:
            if depth == g.n:
                return True
            v = s.next_vertex()
            for col in range(k):
                if feasible(v, col):
                    s.place(v, col)
                    if search(depth + 1):
                        return True
                    s.unplace(v, col)
            return False

        found = search(0)
    except _BudgetHit:
        return SolveResult(SolveStatus.BUDGET_EXCEEDED, nodes=s.nodes)
    if found:
        witness = Colouring(tuple(colour), k)
        if not is_ordered(g, witness):  # not an assert: helpers.py is not rewritten under -O
            raise RuntimeError("ordered backtracker produced a colouring that is not ordered")
        return SolveResult(SolveStatus.YES, witness=witness, nodes=s.nodes)
    return SolveResult(SolveStatus.NO, nodes=s.nodes)


def brute_max_independent_set_size(g: Graph) -> int:
    best = 0
    for r in range(g.n, 0, -1):
        for subset in itertools.combinations(range(g.n), r):
            members = set(subset)
            if all(w not in members for v in subset for w in g.neighbours(v)):
                return r
    return best


def brute_girth(g: Graph):
    """Shortest cycle by DFS over all simple cycles (tiny graphs only)."""
    import math

    best = math.inf

    def walk(start, current, visited):
        nonlocal best
        for w in g.neighbours(current):
            if w == start and len(visited) >= 3:
                best = min(best, len(visited))
            elif w > start and w not in visited:
                walk(start, w, visited | {w})

    for s in range(g.n):
        walk(s, s, {s})
    return best


def brute_is_chordal(g: Graph) -> bool:
    """No induced cycle of length > 3, by enumerating vertex subsets."""
    for size in range(4, g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            inside = set(subset)
            degs = []
            for v in subset:
                d = sum(1 for w in g.neighbours(v) if w in inside)
                degs.append(d)
            if all(d == 2 for d in degs) and _is_connected_subset(g, inside):
                return False
    return True


def _is_connected_subset(g: Graph, subset) -> bool:
    start = next(iter(subset))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in g.neighbours(u):
            if w in subset and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == subset


# -- tree generation ------------------------------------------------------------


def tree_from_prufer(seq, n: int) -> list[tuple[int, int]]:
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def all_labelled_trees(n: int):
    """Every labelled tree on n vertices, via all Pruefer sequences."""
    if n <= 2:
        yield Graph.from_edge_list(n, tree_from_prufer((), n))
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield Graph.from_edge_list(n, tree_from_prufer(seq, n))


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform random labelled tree (random Pruefer sequence)."""
    if n <= 2:
        return Graph.from_edge_list(n, tree_from_prufer((), n))
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return Graph.from_edge_list(n, tree_from_prufer(seq, n))


def ahu_canonical_form(g: Graph) -> str:
    """Isomorphism-canonical encoding of a tree, rooted at its centre(s)."""
    n = g.n
    if n == 1:
        return "()"
    adj = g.adjacency()
    deg = [len(a) for a in adj]
    alive = [True] * n
    layer = [v for v in range(n) if deg[v] <= 1]
    removed = 0
    while removed + len(layer) < n:
        removed += len(layer)
        nxt = []
        for v in layer:
            alive[v] = False
            for w in adj[v]:
                if alive[w]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt

    def encode(root: int) -> str:
        parent = [-1] * n
        seen = bytearray(n)
        seen[root] = 1
        order = [root]
        for u in order:
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = 1
                    parent[w] = u
                    order.append(w)
        enc = [""] * n
        for u in reversed(order):
            kids = sorted(enc[w] for w in adj[u] if parent[w] == u)
            enc[u] = "(" + "".join(kids) + ")"
        return enc[root]

    return min(encode(c) for c in layer)


# -- random graph families ----------------------------------------------------------


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edge_list(n, edges)


def random_connected_chordal(n: int, rng: random.Random) -> Graph:
    """Iterated simplicial-vertex addition: each new vertex attaches to a
    clique inside an existing vertex's closed neighbourhood."""
    adj: dict[int, set[int]] = {0: set()}
    for v in range(1, n):
        u = rng.randrange(v)
        clique = {u}
        candidates = list(adj[u])
        rng.shuffle(candidates)
        for w in candidates:
            if rng.random() < 0.5 and all(w in adj[x] for x in clique):
                clique.add(w)
        adj[v] = set()
        for x in clique:
            adj[v].add(x)
            adj[x].add(v)
    return Graph.from_edge_list(n, [(u, w) for u in adj for w in adj[u] if u < w])


@st.composite
def chordal_graphs(draw, max_n: int = 40, max_components: int = 1) -> Graph:
    """Chordal graphs on 1..max_n vertices with up to `max_components`
    components, vertices shuffled so the components interleave.

    Each component grows by simplicial-vertex addition: a new vertex joins a
    clique inside an earlier vertex's closed neighbourhood.  Cliques of one
    and two vertices (a tree edge, an ear) are drawn most often, so that many
    instances carry type-II triangles only.
    """
    n = draw(st.integers(1, max_n))
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=max_components - 1)) if n > 1 else set()
    adj: list[set[int]] = [set() for _ in range(n)]
    bounds = [0, *sorted(cuts), n]
    for lo, hi in zip(bounds, bounds[1:]):
        for v in range(lo + 1, hi):
            u = draw(st.integers(lo, v - 1))
            size = draw(st.sampled_from([2, 1, 2, 1, 3, 4]))
            clique = {u}
            for w in sorted(adj[u]):
                if len(clique) < size and draw(st.booleans()) and clique <= adj[w]:
                    clique.add(w)
            for x in clique:
                adj[v].add(x)
                adj[x].add(v)
    perm = draw(st.permutations(range(n)))
    return Graph.from_edge_list(n, [(perm[u], perm[w]) for u in range(n) for w in adj[u] if u < w])


def random_cobipartite(n: int, rng: random.Random):
    """Two cliques with random cross edges; returns (graph, side_a, side_b)."""
    na = rng.randint(1, n - 1)
    side_a, side_b = tuple(range(na)), tuple(range(na, n))
    edges = [(u, v) for u in range(na) for v in range(u + 1, na)]
    edges += [(u, v) for u in range(na, n) for v in range(u + 1, n)]
    for u in side_a:
        for v in side_b:
            if rng.random() < 0.4:
                edges.append((u, v))
    return Graph.from_edge_list(n, edges), side_a, side_b


def c13_cobipartite_graphs() -> list[Graph]:
    """The 100 co-bipartite graphs of acceptance criterion c13, same seed and order."""
    rng = random.Random(1313)
    return [random_cobipartite(rng.randint(2, 10), rng)[0] for _ in range(100)]


def random_split(n: int, rng: random.Random):
    """Random split graph; returns (graph, clique_side, independent_side)."""
    nc = rng.randint(0, n)
    clique = tuple(range(nc))
    independent = tuple(range(nc, n))
    edges = [(u, v) for u in clique for v in clique if u < v]
    for u in clique:
        for v in independent:
            if rng.random() < 0.45:
                edges.append((u, v))
    return Graph.from_edge_list(n, edges), clique, independent


def random_planted_cnf(rng: random.Random, num_vars: int, num_clauses: int):
    """Positive 3-CNF with a planted exactly-one-true assignment and every
    variable in at most three clauses (keeps the gadget subcubic)."""
    from rscol.constructions import PositiveCnf

    while True:
        assignment = {x: rng.random() < 0.35 for x in range(1, num_vars + 1)}
        true_vars = [x for x, b in assignment.items() if b]
        false_vars = [x for x, b in assignment.items() if not b]
        if not true_vars or len(false_vars) < 2:
            continue
        occurrences = {x: 0 for x in assignment}
        clauses: set[tuple[int, ...]] = set()
        for _ in range(400):
            if len(clauses) == num_clauses:
                break
            t = rng.choice(true_vars)
            pair = rng.sample(false_vars, 2)
            clause = tuple(sorted([t] + pair))
            if clause in clauses or any(occurrences[x] >= 3 for x in clause):
                continue
            clauses.add(clause)
            for x in clause:
                occurrences[x] += 1
        if len(clauses) == num_clauses:
            return PositiveCnf.of(num_vars, sorted(clauses)), assignment


def peelable_2_degenerate(g: Graph) -> bool:
    """Repeatedly remove vertices of degree <= 2; succeeds iff 2-degenerate."""
    adj = [set(g.neighbours(v)) for v in range(g.n)]
    alive = [True] * g.n
    stack = [v for v in range(g.n) if len(adj[v]) <= 2]
    removed = 0
    while stack:
        v = stack.pop()
        if not alive[v]:
            continue
        alive[v] = False
        removed += 1
        for w in adj[v]:
            adj[w].discard(v)
            if alive[w] and len(adj[w]) <= 2:
                stack.append(w)
    return removed == g.n


# -- graph ingest oracles -------------------------------------------------------------
# The line parser and set-based builder as they were before bulk ingest.  The
# parser still merges duplicate edges and skips every line starting with "c".


def set_built_graph(n: int, edges) -> Graph:
    """Build a graph on vertices 0..n-1 from (possibly duplicated) edges."""
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) has an endpoint outside [0,{n})")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        adj[u].add(v)
        adj[v].add(u)
    offsets = [0]
    for s in adj:
        offsets.append(offsets[-1] + len(s))
    return Graph(n, offsets, [w for s in adj for w in sorted(s)])


class ListGraph:
    """The graph type as it was before CSR: one sorted adjacency list per vertex."""

    def __init__(self, n: int, edges):
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj = [sorted(s) for s in adj]

    @property
    def m(self) -> int:
        return sum(map(len, self.adj)) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbours(self, v: int) -> list[int]:
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self):
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ListGraph) and (self.n, self.adj) == (other.n, other.adj)


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, list[int]]:
    """Induced subgraph on `vertices`, relabelled densely.

    Returns (subgraph, old_ids) where old_ids[new] = original vertex id.
    """
    old_ids = sorted(vertices)
    index = {v: i for i, v in enumerate(old_ids)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges()
        if u in index and v in index
    ]
    return Graph.from_edge_list(len(old_ids), edges), old_ids


def line_parsed_graph(lines, source: str = "<graph>") -> Graph:
    n = -1
    edges: list[Edge] = []
    declared_m = 0
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            if n != -1:
                raise GraphError(f"{source}:{lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphError(f"{source}:{lineno}: expected 'p edge <n> <m>'")
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphError(f"{source}:{lineno}: non-integer counts") from None
        elif parts[0] == "e":
            if n == -1:
                raise GraphError(f"{source}:{lineno}: edge before problem line")
            if len(parts) != 3:
                raise GraphError(f"{source}:{lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphError(f"{source}:{lineno}: non-integer endpoint") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphError(f"{source}:{lineno}: endpoint outside 1..{n}")
            if u == v:
                raise GraphError(f"{source}:{lineno}: self-loop at {u}")
            edges.append((u - 1, v - 1))
        else:
            raise GraphError(f"{source}:{lineno}: unknown line type {parts[0]!r}")
    if n == -1:
        raise GraphError(f"{source}: missing problem line")
    if len(edges) != declared_m:
        raise GraphError(f"{source}: declared {declared_m} edges, found {len(edges)}")
    return set_built_graph(n, edges)


def greedy_distance_two_colouring(g: Graph, order: str = "natural") -> Colouring:
    """Greedy distance-two colouring over the orders of
    rscol.hessian.greedy_rs_colouring; an upper-bound companion for the rs greedy."""
    colours = [-1] * g.n
    for v in _vertex_order(g, order):
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


# -- Hessian pattern oracle -----------------------------------------------------------
# The sparsity pattern as a frozenset of pairs, with the per-entry conformance
# check and recovery loops, as they were before the pattern became index arrays.


@dataclass(frozen=True)
class FrozensetPattern:
    """Symmetric off-diagonal structure; the diagonal is always treated as present."""

    n: int
    offdiag: frozenset[tuple[int, int]]  # pairs (i, j) with i < j

    @staticmethod
    def from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> FrozensetPattern:
        out = set()
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise PatternError(f"index pair ({i},{j}) outside [0,{n})")
            if i == j:
                raise PatternError("diagonal pairs are implicit, do not list them")
            out.add((min(i, j), max(i, j)))
        return FrozensetPattern(n, frozenset(out))

    @staticmethod
    def from_dense(matrix: np.ndarray) -> FrozensetPattern:
        a = np.asarray(matrix)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise PatternError(f"need a square matrix, got shape {a.shape}")
        if not np.array_equal(a != 0, (a != 0).T):
            raise PatternError("asymmetric sparsity structure")
        rows, cols = np.nonzero(a)
        pairs = [(int(i), int(j)) for i, j in zip(rows, cols) if i < j]
        return FrozensetPattern.from_pairs(a.shape[0], pairs)

    def contains(self, i: int, j: int) -> bool:
        return i == j or (min(i, j), max(i, j)) in self.offdiag


def frozenset_pattern_to_graph(p: FrozensetPattern) -> Graph:
    """Adjacency graph: one vertex per row/column, one edge per off-diagonal pair."""
    return Graph.from_edge_list(p.n, sorted(p.offdiag))


def frozenset_compress(
    h: np.ndarray, s: SeedGrouping, pattern: FrozensetPattern | None = None
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
        frozenset_check_pattern_conformance(a, pattern)
    seed = np.zeros((n, s.k))
    for v, col in enumerate(s.colouring.colours):
        seed[v, col] = 1.0
    return a @ seed


def frozenset_check_pattern_conformance(h: np.ndarray, p: FrozensetPattern) -> None:
    a = np.asarray(h)
    for i, j in zip(*np.nonzero(a)):
        if i < j and not p.contains(int(i), int(j)):
            raise PatternError(f"nonzero entry ({i},{j}) outside the sparsity pattern")


def frozenset_recover(b: np.ndarray, p: FrozensetPattern, s: SeedGrouping) -> np.ndarray:
    """Rebuild the full symmetric matrix from the compressed product.

    H[v][v] = B[v][colour(v)]; for each pattern pair (u, v) with
    colour(u) < colour(v), H[u][v] = B[v][colour(u)] (unique by the rs
    property), mirrored to H[v][u].
    """
    colouring = s.colouring
    if len(colouring) != p.n:
        raise PatternError("grouping and pattern dimensions differ")
    graph = frozenset_pattern_to_graph(p)
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


# -- dense CSV writer oracle ---------------------------------------------------------
# The writer as it was before it formatted only the nonzero cells: repr of
# every cell in a Python loop.


def repr_dense_csv(matrix: np.ndarray, path_or_file: str | IO[str]) -> None:
    a = np.asarray(matrix, dtype=float)
    write_text("\n".join(",".join(repr(float(x)) for x in row) for row in a) + "\n", path_or_file)


# -- stepwise triangle elimination oracle ---------------------------------------------
# The paper's elimination loop as it was before the one-pass reduction: one
# triangle at a time, rebuilding the graph and rescanning every triangle after
# each step, with one induced_subgraph call per component.


@dataclass(frozen=True)
class TriangleKind:
    """type I: all three corners are 3-plus; type II carries a degree-2 corner."""

    is_type1: bool
    low_degree_vertex: int | None = None


def classify_triangle(g: Graph, t: tuple[int, int, int]) -> TriangleKind:
    u, v, w = t
    if not (g.has_edge(u, v) and g.has_edge(v, w) and g.has_edge(u, w)):
        raise ValueError(f"{t} is not a triangle")
    low = [x for x in sorted(t) if g.degree(x) == 2]
    if low:
        return TriangleKind(False, low[0])
    return TriangleKind(True)


def eliminate_type2_triangle(g: Graph, t: tuple[int, int, int], w: int) -> Graph:
    """Remove the degree-2 corner w of triangle t and attach two pendants at
    each of the other two corners.

    Dense ids force a renumbering: surviving vertices keep their relative
    order (indices above w shift down by one) and the four pendants are
    appended at the end, two at u then two at v (u < v).
    """
    if w not in t:
        raise ValueError(f"vertex {w} is not a corner of {t}")
    if g.degree(w) != 2:
        raise ValueError(f"vertex {w} has degree {g.degree(w)}, need 2")
    u, v = sorted(x for x in t if x != w)
    if sorted(g.neighbours(w)) != [u, v]:
        raise ValueError(f"neighbours of {w} are not the other corners of {t}")

    def relabel(x: int) -> int:
        return x if x < w else x - 1

    edges = [(relabel(a), relabel(b)) for a, b in g.edges() if w not in (a, b)]
    n = g.n - 1
    edges += [(relabel(u), n), (relabel(u), n + 1), (relabel(v), n + 2), (relabel(v), n + 3)]
    return Graph.from_edge_list(n + 4, edges)


@dataclass
class StepwiseTrace:
    """Record of one component's triangle-elimination run."""

    final_tree: Graph | None  # None when a type-I triangle stopped the run
    type1_triangle: tuple[int, int, int] | None = None
    eliminations: int = 0
    triangle_counts: list[int] = field(default_factory=list)
    intermediates: list[Graph] = field(default_factory=list)


def stepwise_eliminate_triangles(g: Graph, keep_intermediates: bool = False) -> StepwiseTrace:
    """Run the elimination loop on a connected graph until it is triangle-free
    or a type-I triangle appears.  Triangles are rescanned after every step
    because eliminations change degrees."""
    trace = StepwiseTrace(None)
    current = g
    while True:
        triangles = list_triangles(current)
        trace.triangle_counts.append(len(triangles))
        if not triangles:
            trace.final_tree = current
            return trace
        type2: tuple[tuple[int, int, int], int] | None = None
        for t in triangles:
            kind = classify_triangle(current, t)
            if kind.is_type1:
                trace.type1_triangle = t
                return trace
            if type2 is None:
                type2 = (t, kind.low_degree_vertex)  # lexicographically smallest
        t, w = type2
        current = eliminate_type2_triangle(current, t, w)
        trace.eliminations += 1
        if keep_intermediates:
            trace.intermediates.append(current)


def stepwise_test_3rs_chordal(g: Graph, collect_trees: bool = False) -> ChordalTestResult:
    """Decide 3-rs colourability of a chordal graph; decision is the AND over
    connected components.  Non-chordal input raises NotChordalError."""
    if not is_chordal(g):
        raise NotChordalError("input graph is not chordal")
    result = ChordalTestResult(True)
    for comp in connected_components(g):
        sub, _ = induced_subgraph(g, comp)
        if is_tree(sub):
            tree = sub
        else:
            trace = stepwise_eliminate_triangles(sub)
            if trace.type1_triangle is not None:
                result.colourable = False
                if result.reason is None:
                    result.reason = (
                        f"type-I triangle {trace.type1_triangle} in component at {comp[0]}"
                    )
                result.component_results.append(None)
                continue
            tree = trace.final_tree
        if collect_trees:
            result.final_trees.append(tree)
        tree_result = test_3rs_tree(tree)
        result.component_results.append(tree_result)
        if not tree_result.colourable:
            result.colourable = False
            if result.reason is None:
                result.reason = f"component at {comp[0]}: {tree_result.reason_text()}"
    return result
