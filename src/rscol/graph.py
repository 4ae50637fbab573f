"""Undirected simple graphs and the structural queries the colouring algorithms need.

Vertices are dense 0-based integers.  Graphs are immutable after construction;
every operation that "modifies" a graph returns a new one.

Graph files (``parse_graph``) have one record per line: ``p edge <n> <m>``
once, then ``e <u> <v>`` per edge with 1-based endpoints.  A line whose first
token is exactly ``c`` is a comment; blank lines are skipped.  Endpoints are
read as ``int()`` reads them.  A negative count, an endpoint outside 1..n, a
self-loop, an edge listed twice (in either orientation), any other malformed
line and a wrong edge count are errors that name ``source:line``; the first
bad line in file order is reported.

Ingest has two paths that give the same graph, sorted lists of Python ints:

* files with fewer than ``BULK_MIN_EDGES`` edge lines are checked line by
  line and built from a list of pairs, one set per vertex;
* larger files convert all endpoints in one numpy call, check them with array
  masks and build the adjacency as a CSR (``Graph.from_edge_list`` on an
  ``(m, 2)`` array).  If any check fails, the line-by-line check runs instead
  to find the first bad line.

The cutoff is by edge count because the numpy path costs tens of microseconds
more per file, which matters on many small files and not on one large one.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

VertexId = int

Edge = tuple[int, int]


BULK_MIN_EDGES = 1024
"""Graph files with at least this many edge lines take the numpy ingest path."""


class GraphError(ValueError):
    """Invalid graph input (bad endpoint, self-loop, malformed file, ...)."""


class Graph:
    """Simple undirected graph with sorted adjacency lists.

    Invariants: no self-loops, no parallel edges, adjacency symmetric,
    each adjacency list sorted ascending.
    """

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, adj: list[list[int]]):
        # internal constructor, assumes adj already validated/sorted
        self.n = n
        self._adj = adj

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_edge_list(n: int, edges: Iterable[Edge] | np.ndarray) -> Graph:
        """Build a graph on vertices 0..n-1 from (possibly duplicated) edges.

        `edges` is an iterable of pairs, or an (m, 2) integer array, which is
        built in bulk as a CSR.  Either way duplicates merge, the first bad
        edge in input order is reported, and the adjacency lists hold ints.
        """
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        if isinstance(edges, np.ndarray):
            return Graph(n, _csr_adjacency(n, edges))
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) has an endpoint outside [0,{n})")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        return Graph(n, [sorted(s) for s in adj])

    # -- basic queries -----------------------------------------------------

    @property
    def m(self) -> int:
        return sum(map(len, self._adj)) // 2

    def degree(self, v: VertexId) -> int:
        return len(self._adj[v])

    def neighbours(self, v: VertexId) -> Sequence[VertexId]:
        return self._adj[v]

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        a = self._adj[u]
        if len(self._adj[v]) < len(a):
            a, v = self._adj[v], u
        return v in a

    def edges(self) -> Iterator[Edge]:
        """All edges (u, v) with u < v, lexicographically."""
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def adjacency(self) -> list[list[int]]:
        """Mutable copy of the adjacency lists."""
        return [list(a) for a in self._adj]

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, tuple(tuple(a) for a in self._adj)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _csr_adjacency(n: int, edges: np.ndarray) -> list[list[int]]:
    """Sorted adjacency lists of an (m, 2) integer edge array, duplicates merged.

    Each edge is encoded in both directions as u*n + v; after sorting and
    dropping repeats, the keys of vertex u are one contiguous run.
    """
    if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind not in "iu":
        raise GraphError(f"edge array must be (m, 2) integers, got {edges.shape} {edges.dtype}")
    u = edges[:, 0].astype(np.int64)
    v = edges[:, 1].astype(np.int64)
    bad = (u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v)
    if bad.any():
        i = int(bad.argmax())
        a, b = int(u[i]), int(v[i])
        if not (0 <= a < n and 0 <= b < n):
            raise GraphError(f"edge ({a},{b}) has an endpoint outside [0,{n})")
        raise GraphError(f"self-loop at vertex {a}")
    keys = np.concatenate((u * n + v, v * n + u))
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    offsets = np.searchsorted(keys, np.arange(n + 1) * n).tolist()
    flat = (keys % n).tolist()
    return [flat[lo:hi] for lo, hi in zip(offsets, offsets[1:])]


def from_edge_list(n: int, edges: Iterable[Edge] | np.ndarray) -> Graph:
    return Graph.from_edge_list(n, edges)


# -- connectivity ----------------------------------------------------------


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted, ordered by minimum."""
    seen = [False] * g.n
    comps: list[list[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.neighbours(u):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comp.sort()
        comps.append(comp)
    return comps


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> tuple[Graph, list[int]]:
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


def component_subgraphs(g: Graph) -> list[tuple[Graph, list[int]]]:
    """``induced_subgraph(g, comp)`` for every connected component, in one pass.

    A component holds all neighbours of its vertices, and the dense
    relabelling is monotone within it, so each relabelled adjacency list is
    already sorted.
    """
    comps = connected_components(g)
    index = [0] * g.n
    for comp in comps:
        for i, v in enumerate(comp):
            index[v] = i
    return [
        (Graph(len(comp), [[index[w] for w in g.neighbours(v)] for v in comp]), comp)
        for comp in comps
    ]


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = bytearray(g.n)
    seen[0] = 1
    order = [0]
    for u in order:  # order grows while we iterate: sequential BFS
        for w in g.neighbours(u):
            if not seen[w]:
                seen[w] = 1
                order.append(w)
    return len(order) == g.n


def is_tree(g: Graph) -> bool:
    """Connected and m = n - 1."""
    return g.n >= 1 and g.m == g.n - 1 and is_connected(g)


# -- cycles, triangles, bipartiteness -------------------------------------


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle, or math.inf if the graph is acyclic.

    BFS from every vertex; every non-tree edge closes a walk of length
    dist[u] + dist[v] + 1 >= girth, and for a root on a shortest cycle some
    edge achieves it exactly.
    """
    best = math.inf
    dist = [0] * g.n
    for root in range(g.n):
        for i in range(g.n):
            dist[i] = -1
        dist[root] = 0
        parent = {root: -1}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            du = dist[u]
            if 2 * du >= best:  # no shorter cycle can be found from this root
                break
            for w in g.neighbours(u):
                if dist[w] == -1:
                    dist[w] = du + 1
                    parent[w] = u
                    queue.append(w)
                elif parent.get(u) != w and parent.get(w) != u:
                    cand = du + dist[w] + 1
                    if cand < best:
                        best = cand
    return best


def list_triangles(g: Graph) -> list[tuple[int, int, int]]:
    """Every 3-clique exactly once as (u, v, w) with u < v < w, sorted."""
    out: list[tuple[int, int, int]] = []
    neighbour_sets = [set(g.neighbours(v)) for v in range(g.n)]
    for u, v in g.edges():
        for w in g.neighbours(u):
            if w > v and w in neighbour_sets[v]:
                out.append((u, v, w))
    out.sort()
    return out


def bipartition(g: Graph) -> tuple[list[int], list[int]] | None:
    """Two-sided partition witness from BFS two-colouring, or None."""
    side = [-1] * g.n
    for s in range(g.n):
        if side[s] != -1:
            continue
        side[s] = 0
        queue = deque([s])
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


def is_bipartite(g: Graph) -> bool:
    return bipartition(g) is not None


def is_chordal(g: Graph) -> bool:
    """Maximum cardinality search + simplicial check for a perfect elimination
    ordering, in O(n + m) (Tarjan & Yannakakis, SIAM J. Comput. 1984)."""
    n = g.n
    if n == 0:
        return True
    # MCS: number vertices n-1..0, always picking an unnumbered vertex with
    # the most numbered neighbours.  buckets[k] is a stack of vertices pushed
    # when their weight became k.  Weights only grow and the highest nonempty
    # bucket is served first, so a vertex is numbered from its current entry
    # and its older, lower entries are skipped when popped later.
    weight = [0] * n
    numbered = bytearray(n)
    order = [0] * n  # order[i] = vertex in position i of the elimination ordering
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
        for w in g.neighbours(v):
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
    neighbour_sets = [set(g.neighbours(v)) for v in range(n)]
    for i, v in enumerate(order):
        later = [w for w in g.neighbours(v) if position[w] > i]
        if not later:
            continue
        u = min(later, key=lambda w: position[w])
        for w in later:
            if w != u and w not in neighbour_sets[u]:
                return False
    return True


# -- rooted trees ----------------------------------------------------------


@dataclass(frozen=True)
class RootedTree:
    """A tree with parent/children structure from BFS at `root`.

    parent and children are plain lists for speed at the million-vertex
    scale; treat them as read-only.
    """

    graph: Graph
    root: VertexId
    parent: list[int]  # parent[root] = -1
    children: list[list[int]]


def root_tree(g: Graph, root: VertexId) -> RootedTree:
    """Root a tree at an arbitrary vertex via BFS (single pass, validates)."""
    if g.n < 1 or g.m != g.n - 1:
        raise GraphError("input graph is not a tree")
    parent = [-1] * g.n
    seen = bytearray(g.n)
    seen[root] = 1
    order = [root]
    for u in order:
        for w in g.neighbours(u):
            if not seen[w]:
                seen[w] = 1
                parent[w] = u
                order.append(w)
    if len(order) != g.n:
        raise GraphError("input graph is not a tree")
    children: list[list[int]] = [[] for _ in range(g.n)]
    for v in order[1:]:
        children[parent[v]].append(v)
    return RootedTree(g, root, parent, children)


def root_at_3plus(g: Graph, root: VertexId | None = None) -> RootedTree:
    """Root a tree at a 3-plus vertex (lowest-indexed by default).

    Raises GraphError if the tree has no vertex of degree >= 3 (a path);
    callers must special-case paths.
    """
    if root is None:
        root = next((v for v in range(g.n) if g.degree(v) >= 3), -1)
        if root == -1:
            if not is_tree(g):
                raise GraphError("input graph is not a tree")
            raise GraphError("no 3-plus vertex: tree is a path")
    elif g.degree(root) < 3:
        raise GraphError(f"requested root {root} is not a 3-plus vertex")
    return root_tree(g, root)  # validates tree-ness itself


# -- graph surgery ---------------------------------------------------------


def attach_pendants(g: Graph, v: VertexId, count: int) -> Graph:
    """Add `count` fresh degree-1 vertices adjacent to v; original indices preserved."""
    if not (0 <= v < g.n):
        raise GraphError(f"vertex {v} out of range")
    if count < 0:
        raise GraphError("pendant count must be nonnegative")
    edges = list(g.edges())
    edges.extend((v, g.n + i) for i in range(count))
    return Graph.from_edge_list(g.n + count, edges)


def subdivide_all_edges(g: Graph) -> tuple[Graph, dict[Edge, VertexId]]:
    """Replace every edge uv by u-w-v with a fresh w.

    Returns the new graph and the map (u, v) -> w with u < v, so gadget
    builders can name the subdivision vertices.
    """
    new_edges: list[Edge] = []
    names: dict[Edge, VertexId] = {}
    next_id = g.n
    for u, v in g.edges():
        names[(u, v)] = next_id
        new_edges.append((u, next_id))
        new_edges.append((next_id, v))
        next_id += 1
    return Graph.from_edge_list(next_id, new_edges), names


# -- standard families -----------------------------------------------------


def path_graph(n: int) -> Graph:
    return Graph.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return Graph.from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    """K_{1,p}: centre 0 and `leaves` pendant vertices."""
    return Graph.from_edge_list(leaves + 1, [(0, i + 1) for i in range(leaves)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph.from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def hypercube_graph(d: int) -> Graph:
    n = 1 << d
    edges = [(v, v ^ (1 << i)) for v in range(n) for i in range(d) if v < v ^ (1 << i)]
    return Graph.from_edge_list(n, edges)


# -- file format -----------------------------------------------------------
# "c <comment>" / "p edge <n> <m>" / "e <u> <v>" with 1-based endpoints.


def parse_graph(lines: Iterable[str], source: str = "<graph>") -> Graph:
    n, declared_m, ends, edge_lines, error = _scan_graph(lines, source)
    g = _bulk_graph(n, ends) if len(edge_lines) >= BULK_MIN_EDGES else None
    if g is None:
        # also finds the first bad edge line of a large file the bulk path refused
        edges = _edge_pairs(n, ends, edge_lines, source)
    if error is not None:
        raise error
    if n == -1:
        raise GraphError(f"{source}: missing problem line")
    if len(edge_lines) != declared_m:
        raise GraphError(f"{source}: declared {declared_m} edges, found {len(edge_lines)}")
    return g if g is not None else Graph.from_edge_list(n, edges)


def _scan_graph(lines: Iterable[str], source: str):
    """Split the lines of a graph file, leaving the endpoint strings unread.

    Returns (n, declared_m, ends, edge_lines, error): `ends` holds the two
    endpoint strings of each edge line, `edge_lines` its line number, and
    `error` the first malformed line, where the scan stopped (or None).
    """
    n, declared_m = -1, 0
    ends: list[str] = []
    edge_lines: list[int] = []
    add_end, add_line = ends.append, edge_lines.append
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        kind = parts[0]
        if kind == "e" and len(parts) == 3 and n != -1:
            add_end(parts[1])
            add_end(parts[2])
            add_line(lineno)
            continue
        if kind == "e":
            problem = "edge before problem line" if n == -1 else "expected 'e <u> <v>'"
        elif kind != "p":
            problem = f"unknown line type {kind!r}"
        elif n != -1:
            problem = "duplicate problem line"
        elif len(parts) != 4 or parts[1] != "edge":
            problem = "expected 'p edge <n> <m>'"
        else:
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                problem = "non-integer counts"
            else:
                if n >= 0 and declared_m >= 0:
                    continue
                problem = "negative vertex count" if n < 0 else "negative edge count"
        return n, declared_m, ends, edge_lines, GraphError(f"{source}:{lineno}: {problem}")
    return n, declared_m, ends, edge_lines, None


def _edge_pairs(n: int, ends: list[str], edge_lines: list[int], source: str) -> list[Edge]:
    """Check edge lines one at a time; return their 0-based endpoint pairs."""
    pairs: list[Edge] = []
    seen: set[Edge] = set()
    tokens = iter(ends)
    for lineno, a, b in zip(edge_lines, tokens, tokens):
        try:
            u, v = int(a), int(b)
        except ValueError:
            raise GraphError(f"{source}:{lineno}: non-integer endpoint") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphError(f"{source}:{lineno}: endpoint outside 1..{n}")
        if u == v:
            raise GraphError(f"{source}:{lineno}: self-loop at {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphError(f"{source}:{lineno}: duplicate edge {key[0]} {key[1]}")
        seen.add(key)
        pairs.append((u - 1, v - 1))
    return pairs


def _bulk_graph(n: int, ends: list[str]) -> Graph | None:
    """The graph of the edge lines, converted and checked as arrays and built
    as a CSR; None if any endpoint is bad or any edge repeats."""
    try:
        pairs = np.array(ends, dtype=np.int64).reshape(-1, 2)  # parses as int() does
    except (ValueError, OverflowError):
        return None
    if ((pairs < 1) | (pairs > n)).any() or (pairs[:, 0] == pairs[:, 1]).any():
        return None
    g = Graph.from_edge_list(n, pairs - 1)
    return g if g.m == len(pairs) else None  # fewer edges than lines: a duplicate


def read_graph_file(path: str) -> Graph:
    with open(path) as fh:
        return parse_graph(fh, source=path)


def format_graph(g: Graph, comment: str | None = None) -> str:
    out = []
    if comment:
        for line in comment.splitlines():
            out.append(f"c {line}")
    out.append(f"p edge {g.n} {g.m}")
    for u, v in g.edges():
        out.append(f"e {u + 1} {v + 1}")
    return "\n".join(out) + "\n"


def write_graph_file(g: Graph, path_or_file: str | IO[str], comment: str | None = None) -> None:
    write_text(format_graph(g, comment), path_or_file)


def write_text(text: str, path_or_file: str | IO[str]) -> None:
    """Write `text` to a path, or to an open text file left open."""
    if isinstance(path_or_file, str):
        with open(path_or_file, "w") as fh:
            fh.write(text)
    else:
        path_or_file.write(text)


def to_dot(g: Graph, name: str = "G") -> str:
    """DOT export for visual inspection; one line per edge, no layout attributes."""
    lines = [f"graph {name} {{"]
    lines.extend(f"  {v};" for v in range(g.n) if g.degree(v) == 0)
    lines.extend(f"  {u} -- {v};" for u, v in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
