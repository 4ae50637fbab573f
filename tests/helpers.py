"""Shared instances, generators, and independent oracles for the test suite.

Oracles here deliberately re-derive results by brute force or by a different
formulation than the library code they check.
"""

from __future__ import annotations

import bisect
import collections
import heapq
import itertools
import random
import time
from array import array
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

import numpy as np
from hypothesis import strategies as st

from rscol.chordal3rs import ChordalTestResult, NotChordalError
from rscol.colouring import (
    Colouring,
    ColouringError,
    PartialColouring,
    PropertyCheck,
    PropertyReport,
    _check_domain,
    is_ordered,
    is_proper,
    is_rs,
    is_star,
)
from rscol.graph import (
    Edge,
    Graph,
    GraphError,
    RootedTree,
    connected_components,
    is_tree,
    list_triangles,
    write_text,
)
from rscol.hessian import PatternError, SeedGrouping, _vertex_order
from rscol.solver import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    SolveBudget,
    SolveResult,
    SolveStatus,
    _as_partial,
    _BudgetHit,
    _Search,
)
from rscol.tree3rs import (
    BranchClass,
    SubtreeClass,
    TreeTestResult,
    branch_class_lookup,
    subtree_class_from_state,
    test_3rs_tree,
)

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


# -- verifier scan oracles ------------------------------------------------------
# find_proper_violation and find_rs_violation as they were before the numpy
# passes: a scan of the edges, and of each row's lower neighbours with a dict
# of the colours seen in the row.


def scan_find_proper_violation(g: Graph, c: Colouring) -> tuple[int, int] | None:
    _check_domain(g, c)
    for u, v in g.edges():
        if c[u] == c[v]:
            return (u, v)
    return None


def scan_find_rs_violation(g: Graph, c: Colouring) -> tuple[int, ...] | None:
    _check_domain(g, c)
    colours = c.colours
    off, tgt = g.offsets.tolist(), g.targets.tolist()
    for y in range(g.n):
        cy = colours[y]
        seen: dict[int, int] = {}
        for x in tgt[off[y]:off[y + 1]]:
            cx = colours[x]
            if cx < cy:
                if cx in seen:
                    return (seen[cx], y, x)
                seen[cx] = x
    return scan_find_proper_violation(g, c)


# is_star and is_distance_two as they were before the numpy passes: a scan of
# each row with sets of the colours seen once and twice, stopping at the first
# failure.


def scan_is_star(g: Graph, c: Colouring) -> bool:
    _check_domain(g, c)
    colours = c.colours
    off, tgt = g.offsets.tolist(), g.targets.tolist()
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


def scan_is_distance_two(g: Graph, c: Colouring) -> bool:
    _check_domain(g, c)
    if scan_find_proper_violation(g, c) is not None:
        return False
    for v in range(g.n):
        seen: set[int] = set()
        for w in g.neighbours(v):
            if c[w] in seen:
                return False
            seen.add(c[w])
    return True


# -- path enumeration and the Observation-2 scan ----------------------------------
# check_properties_P as it was before it became a consequence of rs: the
# preconditions, then the P1/P2 loops and a scan of every simple 3-, 4- and
# 6-vertex path.


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


def scan_check_properties_P(g: Graph, c: Colouring) -> PropertyReport:
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


# -- star oracles ---------------------------------------------------------------
# The checks that rscol.colouring.is_star and the star search used before the
# per-edge rule replaced them.


def class_pair_is_star(g: Graph, c: Colouring) -> bool:
    """Proper with no bicoloured P4: every pair of colour classes induces a star
    forest, checked by walking each component of each two-class subgraph."""
    _check_domain(g, c)
    if not is_proper(g, c):
        return False
    classes = list(c.colour_classes().values())
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
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


# -- per-node vertex choice oracle ----------------------------------------------
# The rs and star engine as it was before each depth picked its vertex once:
# every node rescans all vertices for the one to colour next.


class PerNodeSearch(_Search):
    """`_Search` that also keeps each vertex's count of coloured neighbours up
    to date on every place and unplace, and picks the next vertex per node."""

    def __init__(self, g: Graph, k: int, budget: SolveBudget):
        super().__init__(g, k, budget)
        self.satur = [0] * g.n  # number of coloured neighbours

    def place(self, v: int, col: int) -> None:
        self.colour[v] = col
        for u in self.adj[v]:
            self.cnt[u][col] += 1
            self.satur[u] += 1
        if self.over_budget():
            raise _BudgetHit

    def unplace(self, v: int, col: int) -> None:
        self.colour[v] = -1
        for u in self.adj[v]:
            self.cnt[u][col] -= 1
            self.satur[u] -= 1

    def next_vertex(self) -> int:
        """Most coloured neighbours first, then highest degree, then lowest index."""
        best, key = -1, (-1, -1, 0)
        for v in range(len(self.colour)):
            if self.colour[v] == -1:
                cand = (self.satur[v], len(self.adj[v]), -v)
                if cand > key:
                    best, key = v, cand
        return best


def per_node_run(
    g: Graph,
    k: int,
    kind: str,
    pre: PartialColouring | None,
    budget: SolveBudget,
    on_witness,
) -> SolveResult:
    """Drop-in for rscol.solver._run that calls next_vertex at every node."""
    s = PerNodeSearch(g, k, budget)
    feasible = s.rs_feasible if kind == "rs" else s.star_feasible
    unordered = kind == "star"
    try:
        fixed = _as_partial(g, k, pre)
        for v, c in fixed:
            if not feasible(v, c):
                return SolveResult(SolveStatus.NO, nodes=s.nodes)
            s.place(v, c)
        remaining = s.colour.count(-1)

        def search(depth: int, used: int) -> bool:
            if depth == remaining:
                return on_witness(Colouring(tuple(s.colour), k))
            v = s.next_vertex()
            for col in range(min(k, used + 1) if unordered else k):
                if feasible(v, col):
                    s.place(v, col)
                    if search(depth + 1, max(used, col + 1)):
                        return True
                    s.unplace(v, col)
            return False

        found = search(0, max((c + 1 for _, c in fixed), default=0))
    except _BudgetHit:
        return SolveResult(SolveStatus.BUDGET_EXCEEDED, nodes=s.nodes)
    if found:
        witness = Colouring(tuple(s.colour), k)
        if not (is_rs if kind == "rs" else is_star)(g, witness):
            raise RuntimeError(f"{kind} search produced a colouring that is not {kind}")
        if pre is not None and not pre.is_extended_by(witness):
            raise RuntimeError(f"{kind} search produced a colouring that drops the precolouring")
        return SolveResult(SolveStatus.YES, witness=witness, nodes=s.nodes)
    return SolveResult(SolveStatus.NO, nodes=s.nodes)


def backtrack_decide_k_ordered(
    g: Graph, k: int, budget: SolveBudget = DEFAULT_BUDGET
) -> SolveResult:
    """The per-rank BFS backtracker that rscol.solver.decide_k_ordered used
    before the treedepth DP, kept as its differential oracle.  Same contract:
    is there a k-ordered colouring (vertex ranking with k ranks)?"""
    if k < 1:
        return SolveResult(SolveStatus.NO if g.n else SolveStatus.YES)
    s = PerNodeSearch(g, k, budget)
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


def set_max_independent_set(g: Graph, budget: SolveBudget = DEFAULT_BUDGET) -> list[int]:
    """The branch and bound ``solver.max_independent_set`` ran over Python sets
    before it moved to bitmasks: same branch rule, search tree and node count,
    at a cost quadratic in the candidates per node."""
    adj = [set(g.neighbours(v)) for v in range(g.n)]
    best: list[int] = []
    nodes = 0
    deadline = time.monotonic() + budget.time_limit

    def grow(chosen: list[int], candidates: list[int]) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > budget.max_nodes or (nodes % 4096 == 0 and time.monotonic() > deadline):
            raise _BudgetHit
        if len(chosen) + len(candidates) <= len(best):
            return
        if not candidates:
            best = list(chosen)
            return
        v = max(candidates, key=lambda u: sum(1 for w in candidates if w in adj[u]))
        rest = [u for u in candidates if u != v]
        grow(chosen + [v], [u for u in rest if u not in adj[v]])
        grow(chosen, rest)

    try:
        grow([], list(range(g.n)))
    except _BudgetHit:
        raise BudgetExceededError(f"MIS search exceeded budget after {nodes} nodes") from None
    return sorted(best)


def component_decide_2_rs(g: Graph) -> bool:
    """2-rs colourability checked per component: a tree with at most one
    vertex of degree >= 2 (the form ``decide_2_rs`` had before its edge rule)."""
    for comp in connected_components(g):
        comp_set = set(comp)
        edge_count = sum(1 for v in comp for w in g.neighbours(v) if w in comp_set) // 2
        if edge_count != len(comp) - 1:
            return False  # has a cycle
        if sum(1 for v in comp if g.degree(v) >= 2) > 1:
            return False  # a tree that is not a star
    return True


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
    return Graph(n, array("q", offsets), array("q", [w for s in adj for w in sorted(s)]))


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


def separator_free_int(token: str) -> int:
    """``int(token)``, refusing the ``_`` digit separators that ``int()`` reads
    (``1_0`` is 10), as every line reader does."""
    if "_" in token:
        raise ValueError(token)
    return int(token)


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
                n, declared_m = separator_free_int(parts[2]), separator_free_int(parts[3])
            except ValueError:
                raise GraphError(f"{source}:{lineno}: non-integer counts") from None
        elif parts[0] == "e":
            if n == -1:
                raise GraphError(f"{source}:{lineno}: edge before problem line")
            if len(parts) != 3:
                raise GraphError(f"{source}:{lineno}: expected 'e <u> <v>'")
            try:
                u, v = separator_free_int(parts[1]), separator_free_int(parts[2])
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


def enum_walk_test_3rs_tree(t: Graph | RootedTree) -> TreeTestResult:
    """``test_3rs_tree`` as it was before its walk ran on int-coded classes:
    the same DFS and chain walk, with the vertex's forced colour and C/E counts
    kept as three ints and each branch classified by ``branch_class_lookup``
    and ``subtree_class_from_state`` on the Enum values."""
    g, root = (t.graph, t.root) if isinstance(t, RootedTree) else (t, None)
    if g.n < 1 or g.m != g.n - 1:
        raise GraphError("input graph is not a tree")
    off = g.offsets
    if root is None:
        root = next((v for v in range(g.n) if off[v + 1] - off[v] >= 3), None)
    if root is None or not (0 <= root < g.n and off[root + 1] - off[root] >= 3):
        if g.max_degree() >= 3:
            raise GraphError("rooted input must use a 3-plus root")
        if not is_tree(g):
            raise GraphError("input graph is not a tree")
        return TreeTestResult(True, visited=0)  # a path

    n = g.n
    tgt = g.targets
    colour = [-1] * n  # colour forced at a vertex by a branch below it: -1 none, else 0/1
    ccount = [0] * n  # class C branches below each vertex
    ecount = [0] * n  # class E branches below each vertex
    visited = 1  # the root

    # frame: [vertex, parent of vertex, up-distance, next position in targets]
    frames: list[list[int]] = [[root, -1, 0, off[root]]]
    pending: BranchClass | None = None  # branch class flowing to frames[-1]

    def fail(kind: str, v: int) -> TreeTestResult:
        return TreeTestResult(False, kind, v, visited)

    while frames:
        frame = frames[-1]
        v = frame[0]
        if pending is not None:
            bc = pending
            pending = None
            if bc is BranchClass.E:
                ecount[v] += 1
            elif bc is not BranchClass.F:  # B forces colour 0 at v, C and D force 1
                if bc is BranchClass.C:
                    ccount[v] += 1
                col = 0 if bc is BranchClass.B else 1
                if colour[v] == -1:
                    colour[v] = col
                elif colour[v] != col:
                    return fail("colour_conflict", v)
        idx = frame[3]
        end = off[v + 1]
        pv = frame[1]
        while idx < end and tgt[idx] == pv:
            idx += 1
        if idx < end:
            w = tgt[idx]
            frame[3] = idx + 1
            # walk the degree-2 chain below v until a leaf or 3-plus vertex
            p = v
            d = 1
            visited += 1
            lo = off[w]
            while off[w + 1] - lo == 2:
                a = tgt[lo]
                p, w = w, (tgt[lo + 1] if a == p else a)
                d += 1
                visited += 1
                lo = off[w]
            if visited > n:
                raise GraphError("input graph is not a tree")
            if off[w + 1] - lo == 1:  # leaf: class VII subtree, classify its branch now
                pending = branch_class_lookup(SubtreeClass.VII, d)
            else:
                frames.append([w, p, d, lo])
        else:
            frame[3] = idx
            cls = subtree_class_from_state(colour[v], ccount[v], ecount[v])
            if cls is SubtreeClass.I:
                return fail("class_i_subtree", v)
            frames.pop()
            if not frames:
                if visited != n:
                    raise GraphError("input graph is not a tree")
                return TreeTestResult(True, visited=visited)
            bc = branch_class_lookup(cls, frame[2])
            if bc is BranchClass.A:
                return fail("class_a_branch", v)
            pending = bc
    raise AssertionError("unreachable")


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


def retry_greedy_rs_colouring(g: Graph, order: str = "natural") -> Colouring:
    """rscol.hessian.greedy_rs_colouring as it was before the one-pass rule:
    colours 0, 1, ... are retried against four rules over per-vertex counts.

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


# -- dense Hessian path oracle --------------------------------------------------------
# The MatrixMarket reader, compress and recover as they were before the matrix
# became a CooMatrix: the reader fills a dense n x n array line by line, compress
# multiplies by the dense seed matrix and recover fills a dense n x n array.


def dense_parse_matrix_market(lines: Iterable[str], source: str = "<mtx>") -> np.ndarray:
    """Coordinate Matrix Market reader (real, integer or pattern, symmetric or general);
    general data must still be structurally symmetric.

    Each cell may be listed once; in symmetric data (i, j) and (j, i) name the
    same cell.  ``integer`` values follow ``int()`` rules.  A repeated cell, a
    field that is not a number (``_`` included) or a value that is not finite
    raises PatternError with ``source:line``; repeats and non-finite values are
    found after the last line, so a malformed line anywhere in the file is
    reported first.
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

    def integer(tok: str) -> float:
        int(tok)  # the integer grammar: no point, exponent, nan or inf
        return float(tok)

    number = integer if kind == "integer" else float
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
            value = 1.0 if kind == "pattern" else number(parts[2])
        except ValueError:
            value = None
        if value is None or "_" in line:  # int() and float() read 1_0 as 10
            raise PatternError(f"{source}:{lineno}: non-numeric entry")
        if not (0 <= i < n and 0 <= j < n):
            raise PatternError(f"{source}:{lineno}: index out of range")
        rows.append(i)
        cols.append(j)
        values.append(value)
        entry_lines.append(lineno)
    if n is None:
        raise PatternError(f"{source}: missing size line")
    vals = np.array(values, dtype=float)
    non_finite = np.flatnonzero(~np.isfinite(vals))
    if non_finite.size:
        raise PatternError(f"{source}:{entry_lines[non_finite[0]]}: non-finite value")
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
    matrix[r, c] = vals
    if not general:
        matrix[c, r] = vals
    if general and not np.array_equal(matrix != 0, (matrix != 0).T):
        raise PatternError(f"{source}: general matrix is not structurally symmetric")
    return matrix


def dense_compress(h: np.ndarray, s: SeedGrouping, pattern) -> np.ndarray:
    """Compressed product B = H . S by the dense product with the seed matrix;
    entries outside the pattern (any object with n, rows and cols) are rejected."""
    a = np.asarray(h, dtype=float)
    n = len(s.colouring)
    if a.shape != (n, n):
        raise PatternError(f"matrix shape {a.shape} does not match grouping on {n} columns")
    if not np.array_equal(a, a.T):
        raise PatternError("matrix is not symmetric")
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


def dense_recover(b: np.ndarray, p, s: SeedGrouping) -> np.ndarray:
    """Rebuild the full symmetric matrix from the compressed product into a dense array."""
    colouring = s.colouring
    if len(colouring) != p.n:
        raise PatternError("grouping and pattern dimensions differ")
    graph = Graph.from_edge_list(p.n, np.column_stack((p.rows, p.cols)))
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


# -- dense CSV writer oracle ---------------------------------------------------------
# The writer as it was before it formatted only the nonzero cells: repr of
# every cell in a Python loop.


def repr_dense_csv(matrix: np.ndarray, path_or_file: str | IO[str]) -> None:
    a = np.asarray(matrix, dtype=float)
    write_text("\n".join(",".join(repr(float(x)) for x in row) for row in a) + "\n", path_or_file)


def line_formatted_matrix_market(rows, cols, values, n: int) -> str:
    """The MatrixMarket text ``write_matrix_market`` gave for the lower-triangle
    entries it keeps, one ``str.format`` call per entry line."""
    entries = map("{} {} {!r}\n".format, (np.asarray(rows) + 1).tolist(),
                  (np.asarray(cols) + 1).tolist(), np.asarray(values, dtype=float).tolist())
    return f"%%MatrixMarket matrix coordinate real symmetric\n{n} {n} {len(values)}\n" + "".join(entries)


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
    # origin[v]: the input vertex that vertex v of the current graph stands
    # for; a pendant stands for the corner it was attached to
    origin: list[int] = field(default_factory=list)


def stepwise_eliminate_triangles(g: Graph, keep_intermediates: bool = False) -> StepwiseTrace:
    """Run the elimination loop on a connected graph until it is triangle-free
    or a type-I triangle appears.  Triangles are rescanned after every step
    because eliminations change degrees."""
    trace = StepwiseTrace(None, origin=list(range(g.n)))
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
        u, v = (trace.origin[x] for x in t if x != w)
        trace.origin = [x for i, x in enumerate(trace.origin) if i != w] + [u, u, v, v]
        trace.eliminations += 1
        if keep_intermediates:
            trace.intermediates.append(current)


def stepwise_test_3rs_chordal(g: Graph, collect_trees: bool = False) -> ChordalTestResult:
    """Decide 3-rs colourability of a chordal graph; decision is the AND over
    connected components.  Non-chordal input raises NotChordalError.  NO
    reasons name input vertices from 1, a pendant by its corner."""
    if not python_is_chordal(g):
        raise NotChordalError("input graph is not chordal")
    result = ChordalTestResult(True)
    for comp in python_connected_components(g):
        sub, _ = induced_subgraph(g, comp)
        origin = list(range(sub.n))
        if is_tree(sub):
            tree = sub
        else:
            trace = stepwise_eliminate_triangles(sub)
            if trace.type1_triangle is not None:
                result.colourable = False
                if result.reason is None:
                    a, b, c = (comp[x] + 1 for x in trace.type1_triangle)
                    result.reason = (
                        f"type-I triangle ({a}, {b}, {c}) in component at {comp[0] + 1}"
                    )
                result.component_results.append(None)
                continue
            tree, origin = trace.final_tree, trace.origin
        if collect_trees:
            result.final_trees.append(tree)
        tree_result = test_3rs_tree(tree)
        result.component_results.append(tree_result)
        if not tree_result.colourable:
            result.colourable = False
            if result.reason is None:
                words = tree_result.reason_text().rsplit(" ", 1)[0]
                vertex = comp[origin[tree_result.reason_vertex]] + 1
                result.reason = f"component at {comp[0] + 1}: {words} {vertex}"
    return result


# -- Python graph passes, as they were before the numpy ones ---------------------------


def bfs_bipartition(g: Graph) -> tuple[list[int], list[int]] | None:
    """``bipartition`` as a breadth-first two-colouring from each unseen vertex
    in turn, which starts on side 0."""
    side = [-1] * g.n
    for s in range(g.n):
        if side[s] != -1:
            continue
        side[s] = 0
        queue = collections.deque([s])
        while queue:
            u = queue.popleft()
            for w in g.neighbours(u):
                if side[w] == -1:
                    side[w] = 1 - side[u]
                    queue.append(w)
                elif side[w] == side[u]:
                    return None
    return (
        [v for v in range(g.n) if side[v] == 0],
        [v for v in range(g.n) if side[v] == 1],
    )


def csr_walk_edges(g: Graph) -> list[Edge]:
    """``Graph.edges`` as a walk of the CSR rows, keeping each higher target."""
    off, tgt = g.offsets.tolist(), g.targets.tolist()
    return [(u, v) for u in range(g.n) for v in tgt[off[u]:off[u + 1]] if u < v]


def list_attach_pendants(g: Graph, v: int, count: int) -> Graph:
    """``attach_pendants`` as a list of the edges and the new pairs."""
    if not (0 <= v < g.n):
        raise GraphError(f"vertex {v} out of range")
    if count < 0:
        raise GraphError("pendant count must be nonnegative")
    edges = csr_walk_edges(g)
    edges.extend((v, g.n + i) for i in range(count))
    return Graph.from_edge_list(g.n + count, edges)


def list_subdivide_all_edges(g: Graph) -> tuple[Graph, dict[Edge, int]]:
    """``subdivide_all_edges`` as a list of the new edges, one fresh vertex per
    edge in order."""
    new_edges: list[Edge] = []
    names: dict[Edge, int] = {}
    next_id = g.n
    for u, v in csr_walk_edges(g):
        names[(u, v)] = next_id
        new_edges.append((u, next_id))
        new_edges.append((next_id, v))
        next_id += 1
    return Graph.from_edge_list(next_id, new_edges), names


def list_edge_blowup(g: Graph) -> tuple[Graph, dict[Edge, tuple[int, ...]]]:
    """``constructions.edge_blowup`` as a list of the new edges: the graph and
    the fresh vertices of each edge."""
    if g.m == 0:
        raise GraphError("edge blow-up needs at least one edge")
    width = g.max_degree() + 1
    edges: list[Edge] = []
    names: dict[Edge, tuple[int, ...]] = {}
    nxt = g.n
    for u, v in csr_walk_edges(g):
        fresh = tuple(range(nxt, nxt + width))
        nxt += width
        names[(u, v)] = fresh
        for e in fresh:
            edges += [(u, e), (v, e)]
    return Graph.from_edge_list(nxt, edges), names


def list_g_plus(g: Graph) -> Graph:
    """``constructions.g_plus`` as a list of the edges and one pair per
    pendant, numbered vertex by vertex."""
    if g.n == 0:
        raise GraphError("g_plus needs a nonempty graph")
    target = g.max_degree() + 1
    edges = csr_walk_edges(g)
    next_id = g.n
    for v in range(g.n):
        for _ in range(target - g.degree(v)):
            edges.append((v, next_id))
            next_id += 1
    return Graph.from_edge_list(next_id, edges)


def python_connected_components(g: Graph) -> list[list[int]]:
    """``connected_components`` as a breadth-first search from each unseen
    vertex in turn."""
    off, tgt = g.offsets.tolist(), g.targets.tolist()
    seen = bytearray(g.n)
    comps: list[list[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = 1
        comp = [s]
        for u in comp:  # comp grows while we iterate: sequential BFS
            for w in tgt[off[u]:off[u + 1]]:
                if not seen[w]:
                    seen[w] = 1
                    comp.append(w)
        comp.sort()
        comps.append(comp)
    return comps


def python_is_connected(g: Graph) -> bool:
    """``is_connected`` as one breadth-first search."""
    return len(python_connected_components(g)) <= 1


def python_is_chordal(g: Graph) -> bool:
    """``is_chordal`` with its perfect elimination ordering check as a Python
    loop: the maximum cardinality search, then for each vertex a bisection
    of its first later neighbour's run for every other later neighbour."""
    n = g.n
    if n == 0:
        return True
    off, tgt = g.offsets.tolist(), g.targets.tolist()
    weight = [0] * n
    numbered = bytearray(n)
    order = [0] * n
    buckets = [list(range(n - 1, -1, -1))]
    top = 0
    for pos in range(n - 1, -1, -1):
        while True:
            bucket = buckets[top]
            if not bucket:
                top -= 1
                continue
            v = bucket.pop()
            if not numbered[v]:
                break
        numbered[v] = 1
        order[pos] = v
        for w in tgt[off[v]:off[v + 1]]:
            if not numbered[w]:
                k = weight[w] = weight[w] + 1
                if k == len(buckets):
                    buckets.append([])
                buckets[k].append(w)
                if k > top:
                    top = k
    position = [0] * n
    for i, v in enumerate(order):
        position[v] = i
    for i, v in enumerate(order):
        later = [w for w in tgt[off[v]:off[v + 1]] if position[w] > i]
        if not later:
            continue
        u = min(later, key=lambda w: position[w])
        lo, hi = off[u], off[u + 1]
        for w in later:
            if w != u:
                j = bisect.bisect_left(tgt, w, lo, hi)
                if j == hi or tgt[j] != w:
                    return False
    return True


def python_list_triangles(g: Graph) -> list[tuple[int, int, int]]:
    """``list_triangles`` as a Python loop: for each u, its higher neighbours
    are marked with u, and a triangle is a higher neighbour v of u with a
    marked higher neighbour w of v."""
    off, tgt = g.offsets.tolist(), g.targets.tolist()
    mark = [-1] * g.n
    out: list[tuple[int, int, int]] = []
    for u in range(g.n):
        hi = off[u + 1]
        higher = tgt[bisect.bisect_right(tgt, u, off[u], hi):hi]
        if len(higher) < 2:
            continue
        for v in higher:
            mark[v] = u
        for v in higher:
            vhi = off[v + 1]
            for w in tgt[bisect.bisect_right(tgt, v, off[v], vhi):vhi]:
                if mark[w] == u:
                    out.append((u, v, w))
    return out


def line_formatted_graph(g: Graph, comment: str | None = None) -> str:
    """``format_graph`` as it was: one f-string per line of ``Graph.edges``."""
    out = []
    if comment:
        for line in comment.splitlines():
            out.append(f"c {line}")
    out.append(f"p edge {g.n} {g.m}")
    for u, v in g.edges():
        out.append(f"e {u + 1} {v + 1}")
    return "\n".join(out) + "\n"


def line_formatted_colouring(c: Colouring) -> str:
    """``format_colouring`` as it was: one f-string per vertex."""
    return "".join(f"{v + 1} {col}\n" for v, col in enumerate(c.colours))
