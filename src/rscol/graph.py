"""Undirected simple graphs and the structural queries the colouring algorithms need.

Vertices are dense 0-based integers.  A graph is held as a CSR: ``offsets``
(n + 1 ints) and one flat ``targets`` array (2m ints), where the neighbours of
v are ``targets[offsets[v]:offsets[v + 1]]`` in ascending order.  Both are
packed ``array("q")`` int64 arrays, so no per-vertex list objects exist and
whole-graph passes read them with ``np.frombuffer`` without a copy
(``_csr_arrays``).  Reading an element boxes a new int: the tree walk indexes
the arrays directly, whose locality pays for that at scale, while Python loops
over every row first copy them by ``tolist()``, one C pass after which each
read returns a stored int.  ``neighbours(v)`` returns a fresh list.  Graphs
are immutable after construction; every operation that "modifies" a graph
returns a new one.  Connectivity and bipartiteness come from one labelling,
``_component_labels``, of the graph or of its bipartite double cover
(``bipartition``); ``girth`` is the one breadth-first search.

Graph files (``read_graph_file``, ``parse_graph``) have one record per line:
``p edge <n> <m>`` once, then ``e <u> <v>`` per edge with 1-based endpoints.
Lines break at ``\\n``, ``\\r\\n`` and ``\\r``, as in a file read in text
mode; inside a line any whitespace separates tokens.  A line whose first
token is exactly ``c`` is a comment; blank lines are skipped.  Numbers are
read as ``int()`` reads them, but a ``_`` is refused (``read_int``).  Bytes
that are not UTF-8, a negative count, an endpoint outside 1..n, a self-loop,
an edge listed twice (in either orientation), any other malformed line and a
wrong edge count are errors that name ``source:line``; the first bad line in
file order is reported.

``parse_graph`` reads the whole text of a file.  After the comment and blank
lines and the problem line, ``match_lines`` checks the edge lines with one
regex (``EDGE_LINE``: ``e``, two ASCII digit runs of at most 18 digits, single
spaces); a file with other whitespace inside its lines, or blank lines among
them, is checked again with each line's tokens joined by single spaces.  The
MatrixMarket and colouring readers check their lines with the same function,
each with its own regex.  All endpoints are then read in one ``np.fromstring``
call and the CSR is built by ``Graph.from_edge_list``, which checks them.
Every other file (one with comment lines among its edge lines, an endpoint
spelled otherwise, or a bad line) goes to the line scanner, which checks each
line in file order and raises at the first bad one.
"""

from __future__ import annotations

import math
import re
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import chain, pairwise
from typing import IO, Iterable, Iterator

import numpy as np

VertexId = int

Edge = tuple[int, int]


class GraphError(ValueError):
    """Invalid graph input (bad endpoint, self-loop, malformed file, ...)."""


class Graph:
    """Simple undirected graph in CSR form.

    Invariants: no self-loops, no parallel edges, adjacency symmetric, each
    run ``targets[offsets[v]:offsets[v + 1]]`` sorted ascending.  ``offsets``
    and ``targets`` are ``array("q")``.
    """

    __slots__ = ("n", "offsets", "targets")

    def __init__(self, n: int, offsets: array, targets: array):
        # internal constructor, assumes the CSR already validated/sorted
        self.n = n
        self.offsets = offsets
        self.targets = targets

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_edge_list(n: int, edges: Iterable[Edge] | np.ndarray) -> Graph:
        """Build a graph on vertices 0..n-1 from (possibly duplicated) edges.

        `edges` is an (m, 2) integer array, or an iterable of pairs that numpy
        converts without a cast, so an endpoint that is not an integer within
        int64 (``1.5``, ``2**70``) raises GraphError instead of being
        truncated.  Each edge becomes the keys u*n + v and v*n + u; sorted and
        without repeats, the keys of vertex u form one contiguous run.  One
        ``divmod`` by n splits the keys into rows and targets, and the row
        starts are the running sum of the row sizes (``bincount``).
        Duplicates merge, and the first bad edge in input order is reported.
        """
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
            edges = np.array(edges) if edges else np.empty((0, 2), dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind not in "iu":
            raise GraphError(f"edge array must be (m, 2) integers, got {edges.shape} {edges.dtype}")
        lo, hi = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])
        bad = (lo < 0) | (hi >= n) | (lo == hi)
        if np.count_nonzero(bad):
            i = int(bad.argmax())
            a, b = int(edges[i, 0]), int(edges[i, 1])
            if not (0 <= a < n and 0 <= b < n):
                raise GraphError(f"edge ({a},{b}) has an endpoint outside [0,{n})")
            raise GraphError(f"self-loop at vertex {a}")
        lo, hi = lo.astype(np.int64, copy=False), hi.astype(np.int64, copy=False)
        keys = np.concatenate((lo * n + hi, hi * n + lo))
        keys.sort()
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        rows, targets = np.divmod(keys[first], n)
        offsets = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        return Graph(n, _packed(offsets), _packed(targets))

    # -- basic queries -----------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.targets) // 2

    def degree(self, v: VertexId) -> int:
        return self.offsets[v + 1] - self.offsets[v]

    def neighbours(self, v: VertexId) -> list[VertexId]:
        """The sorted neighbours of v, as a new list."""
        return self.targets[self.offsets[v]:self.offsets[v + 1]].tolist()

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        hi = self.offsets[u + 1]
        i = bisect_left(self.targets, v, self.offsets[u], hi)
        return i < hi and self.targets[i] == v

    def edges(self) -> Iterator[Edge]:
        """All edges (u, v) with u < v, lexicographically: ``edge_arrays`` as
        lists, so a caller that stops early still pays for every edge."""
        u, v = self.edge_arrays()
        return zip(u.tolist(), v.tolist())

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The endpoints u < v of all edges, in lexicographic order, as two
        int64 arrays: the CSR entries that point to a higher vertex."""
        _, src, tgt = _csr_arrays(self)
        upper = src < tgt
        return src[upper], tgt[upper]

    def adjacency(self) -> list[list[int]]:
        """Mutable copy of the adjacency lists."""
        tgt = self.targets.tolist()
        return [tgt[lo:hi] for lo, hi in pairwise(self.offsets.tolist())]

    def degrees(self) -> np.ndarray:
        """The degree of every vertex, as an int64 array."""
        return np.diff(np.frombuffer(self.offsets, dtype=np.int64))

    def max_degree(self) -> int:
        return int(self.degrees().max()) if self.n else 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.offsets == other.offsets
            and self.targets == other.targets
        )

    def __hash__(self) -> int:
        return hash((self.n, self.offsets.tobytes(), self.targets.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _packed(values: np.ndarray) -> array:
    """An ``array("q")`` holding `values`, copied once from numpy's buffer."""
    out = array("q")
    out.frombytes(memoryview(np.ascontiguousarray(values, dtype=np.int64)).cast("B"))
    return out


def _csr_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR of `g` as int64 arrays: ``offsets``, the row (source vertex) of
    each entry, and ``targets``.  The first and last are views, not copies;
    ``src * n + tgt`` are the sorted keys of the entries."""
    off = np.frombuffer(g.offsets, dtype=np.int64)
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(off))
    return off, src, np.frombuffer(g.targets, dtype=np.int64)


def _has_keys(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Which of `wanted` occur in the sorted array `keys`, which may be empty
    only when `wanted` is."""
    return keys[np.minimum(np.searchsorted(keys, wanted), keys.size - 1)] == wanted


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions ``starts[i] .. starts[i] + counts[i] - 1`` for every i,
    end to end."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - (ends - counts), counts)


# -- connectivity ----------------------------------------------------------


def _component_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The least vertex of each vertex's component in the graph on 0..n-1
    whose edges are the pairs (u[i], v[i]), as an int64 array.

    Hooking and pointer jumping (Shiloach & Vishkin, J. Algorithms 1982):
    ``f`` starts as the identity and every label is a root, ``f[r] == r``.
    Each round hooks the larger root of every edge whose ends carry different
    labels onto the smaller one (one ``np.minimum.at``), then jumps
    ``f = f[f]`` until every label is a root again.  Labels only fall and stay
    inside the component, so once every edge's ends agree, each vertex carries
    its component's least vertex.  An edge whose ends agree never parts again
    and leaves the working set.
    """
    f = np.arange(n, dtype=np.int64)
    while True:
        a, b = f[u], f[v]
        live = a != b
        if not live.any():
            return f
        u, v, a, b = u[live], v[live], a[live], b[live]
        np.minimum.at(f, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = f[f]
            if np.array_equal(jumped, f):
                break
            f = jumped


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted, ordered by minimum.

    One stable argsort of ``_component_labels`` groups the vertices by their
    component's least vertex, ascending within each group."""
    if g.n == 0:
        return []
    labels = _component_labels(g.n, *g.edge_arrays())
    order = np.argsort(labels, kind="stable")
    bounds = np.flatnonzero(np.diff(labels[order])) + 1
    vertices = order.tolist()
    return [vertices[lo:hi] for lo, hi in pairwise([0, *bounds.tolist(), g.n])]


def component_subgraphs(g: Graph) -> list[tuple[Graph, list[int]]]:
    """The subgraph induced by each connected component, relabelled densely,
    with its sorted vertex list (``old_ids[new]`` = original vertex id).

    A connected graph is returned as it is.  Otherwise the components' vertex
    lists, laid end to end, order all vertices, and a vertex's new id is its
    place in its own list.  The CSR rows in that order, with their targets
    renamed, hold every component's CSR one after another: a component holds
    all neighbours of its vertices and the renaming is monotone within it, so
    each renamed row is still sorted.
    """
    comps = connected_components(g)
    if len(comps) <= 1:
        return [(g, comp) for comp in comps]
    off, _, tgt = _csr_arrays(g)
    order = np.fromiter(chain.from_iterable(comps), dtype=np.int64, count=g.n)
    sizes = np.array([len(comp) for comp in comps], dtype=np.int64)
    firsts = np.cumsum(sizes) - sizes
    new_id = np.empty(g.n, dtype=np.int64)
    new_id[order] = np.arange(g.n, dtype=np.int64) - np.repeat(firsts, sizes)
    degrees = np.diff(off)[order]
    offsets = np.concatenate(([0], np.cumsum(degrees)))
    targets = new_id[tgt[_ranges(off[order], degrees)]]
    out = []
    for comp, lo, hi in zip(comps, firsts.tolist(), (firsts + sizes).tolist()):
        rows = offsets[lo:hi + 1]
        sub = Graph(hi - lo, _packed(rows - rows[0]), _packed(targets[rows[0]:rows[-1]]))
        out.append((sub, comp))
    return out


def is_connected(g: Graph) -> bool:
    """Whether every vertex's component has least vertex 0."""
    return not _component_labels(g.n, *g.edge_arrays()).any()


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
    """Every 3-clique exactly once as (u, v, w) with u < v < w, sorted.

    Each edge (u, v) with u < v, where u has two or more higher neighbours,
    is paired with every higher neighbour w of v; (u, v, w) is a triangle
    when u·n + w is one of the CSR's sorted keys.  Edges and runs are
    sorted, so the triangles come out in lexicographic order.
    """
    n = g.n
    off, src, tgt = _csr_arrays(g)
    upper = src < tgt
    u, v = src[upper], tgt[upper]
    higher = np.bincount(u, minlength=n)  # higher neighbours of each vertex
    start = off[1:] - higher  # where each vertex's run of higher neighbours starts
    pick = higher[u] >= 2
    u, v = u[pick], v[pick]
    counts = higher[v]
    # candidate i of edge j sits at start[v_j] + i
    u, v, w = np.repeat(u, counts), np.repeat(v, counts), tgt[_ranges(start[v], counts)]
    hit = _has_keys(src * n + tgt, u * n + w)
    return list(zip(u[hit].tolist(), v[hit].tolist(), w[hit].tolist()))


def bipartition(g: Graph) -> tuple[list[int], list[int]] | None:
    """The sides of a two-colouring as ascending lists, or None.

    In the double cover each edge uv becomes (u, v + n) and (u + n, v), so v
    and its copy v + n share a component exactly when v is on an odd closed
    walk.  Side 1 is every v labelled above its copy, which puts the least
    vertex r of each component on side 0, as a breadth-first two-colouring
    from r does: r's cover component holds r's side and the copies of the
    other side, so it is labelled r, below the other one."""
    n = g.n
    u, v = g.edge_arrays()
    labels = _component_labels(2 * n, np.concatenate((u, u + n)), np.concatenate((v + n, v)))
    here, copy = labels[:n], labels[n:]
    if (here == copy).any():
        return None
    return np.flatnonzero(here < copy).tolist(), np.flatnonzero(here > copy).tolist()


def is_bipartite(g: Graph) -> bool:
    return bipartition(g) is not None


def is_chordal(g: Graph) -> bool:
    """Maximum cardinality search in O(n + m), then a check that it gave a
    perfect elimination ordering (Tarjan & Yannakakis, SIAM J. Comput. 1984)
    in one numpy pass, ``_is_peo``."""
    n = g.n
    if n == 0:
        return True
    # MCS: number vertices n-1..0, always picking an unnumbered vertex with
    # the most numbered neighbours.  buckets[k] is a stack of vertices pushed
    # when their weight became k.  Weights only grow and the highest nonempty
    # bucket is served first, so a vertex is numbered from its current entry
    # and its older, lower entries are skipped when popped later.
    off, tgt = g.offsets.tolist(), g.targets.tolist()
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
        for w in tgt[off[v]:off[v + 1]]:
            if not numbered[w]:
                k = weight[w] = weight[w] + 1
                if k == len(buckets):
                    buckets.append([])
                buckets[k].append(w)
                if k > top:
                    top = k
    return _is_peo(g, order)


def _is_peo(g: Graph, order: list[int]) -> bool:
    """Whether `order` is a perfect elimination ordering of `g`: for every
    vertex v and its first later neighbour p, every other later neighbour w
    of v is adjacent to p.

    The CSR entries (v, w) with w later than v are found by position, and p
    is their least position per row.  An edge (p, w) is the key p·n + w, and
    the CSR's keys v·n + w are sorted, so one ``searchsorted`` finds them all.
    """
    n = g.n
    off, src, tgt = _csr_arrays(g)
    order = np.asarray(order, dtype=np.int64)
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n, dtype=np.int64)
    later = np.where(position[tgt] > position[src], position[tgt], n)  # n: not later
    # least later position per row; the sentinel keeps a trailing empty row in range
    first = np.minimum.reduceat(np.append(later, n), off[:-1])
    rest = (later < n) & (later > first[src])
    return bool(_has_keys(src * n + tgt, order[first[src[rest]]] * n + tgt[rest]).all())


# -- rooted trees ----------------------------------------------------------


@dataclass(frozen=True)
class RootedTree:
    """A tree and one of its 3-plus vertices as the root."""

    graph: Graph
    root: VertexId


def root_at_3plus(g: Graph, root: VertexId | None = None) -> RootedTree:
    """Root a tree at a 3-plus vertex (lowest-indexed by default).

    Raises GraphError, in this order, if the given root is not a 3-plus
    vertex, if g is not a tree, or if the tree has no vertex of degree >= 3 (a
    path); callers must special-case paths.
    """
    if root is None:
        root = next((v for v in range(g.n) if g.degree(v) >= 3), None)
    elif not (0 <= root < g.n and g.degree(root) >= 3):
        raise GraphError(f"requested root {root} is not a 3-plus vertex")
    if not is_tree(g):
        raise GraphError("input graph is not a tree")
    if root is None:
        raise GraphError("no 3-plus vertex: tree is a path")
    return RootedTree(g, root)


# -- graph surgery ---------------------------------------------------------


def attach_pendants(g: Graph, v: VertexId, count: int) -> Graph:
    """Add `count` fresh degree-1 vertices adjacent to v; original indices preserved."""
    if not (0 <= v < g.n):
        raise GraphError(f"vertex {v} out of range")
    if count < 0:
        raise GraphError("pendant count must be nonnegative")
    return _with_pendants(g, np.full(count, v, dtype=np.int64))


def _with_pendants(g: Graph, owners: np.ndarray) -> Graph:
    """`g` with a fresh vertex g.n + i adjacent to ``owners[i]`` for each i."""
    u, v = g.edge_arrays()
    pendants = np.arange(g.n, g.n + len(owners), dtype=np.int64)
    ends = np.column_stack((np.concatenate((u, owners)), np.concatenate((v, pendants))))
    return Graph.from_edge_list(g.n + len(owners), ends)


def subdivide_all_edges(g: Graph) -> tuple[Graph, dict[Edge, VertexId]]:
    """Replace every edge uv by u-w-v with a fresh w.

    Returns the new graph and the map (u, v) -> w with u < v, so gadget
    builders can name the subdivision vertices.
    """
    u, v = g.edge_arrays()
    w = np.arange(g.n, g.n + g.m)  # the i-th edge in lexicographic order gets g.n + i
    ends = np.column_stack((np.concatenate((u, w)), np.concatenate((w, v))))
    return Graph.from_edge_list(g.n + g.m, ends), dict(zip(g.edges(), w.tolist()))


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


def hypercube_graph(d: int) -> Graph:
    n = 1 << d
    edges = [(v, v ^ (1 << i)) for v in range(n) for i in range(d) if v < v ^ (1 << i)]
    return Graph.from_edge_list(n, edges)


# -- file format -----------------------------------------------------------
# "c <comment>" / "p edge <n> <m>" / "e <u> <v>" with 1-based endpoints.


INT_FIELD = "[0-9]{1,18}"
"""The digit field of every whole-file regex: one to 18 ASCII digits, which
fit an int64, so numpy reads them as ``read_int`` does.  The line scanners
and the CLI vertex lists read each number token by ``read_int``/``read_float``."""

EDGE_LINE = f"e {INT_FIELD} {INT_FIELD}"

MATCH_CHUNK = 1 << 16
"""Characters of lines matched by one ``fullmatch`` call in ``match_lines``.
The regex engine keeps a backtracking record per repetition, so one call over
a whole million-line file would hold about 190 MB; chunks of whole lines keep
that under a megabyte and are faster too."""


def parse_graph(text: str, source: str = "<graph>") -> Graph:
    r"""The graph of `text`, the whole of a graph file.

    Lines break at ``\n`` only here; ``read_graph_file`` reads ``\r\n`` and
    ``\r`` as ``\n`` first, as text mode does.
    """
    head = _problem_line(text)
    if head is not None:
        n, m, start = head
        g = _edge_graph(n, m, text[start:])
        if g is not None:
            return g
    return _scan_graph(text.split("\n"), source)


def read_int(token: str) -> int:
    """``int(token)``, but a ``_``, which ``int()`` skips, is a ValueError too."""
    if "_" in token:
        raise ValueError(f"invalid literal for int(): {token!r}")
    return int(token)


def read_float(token: str) -> float:
    """``float(token)``, but a ``_``, which ``float()`` skips, is a ValueError too."""
    if "_" in token:
        raise ValueError(f"could not convert string to float: {token!r}")
    return float(token)


def _problem_line(text: str) -> tuple[int, int, int] | None:
    """(n, m, offset of the next line) of a file that opens with comment and
    blank lines, then a valid problem line; None for any other file."""
    pos = 0
    while True:  # comment and blank lines up to the problem line
        end = text.find("\n", pos)
        if end == -1:
            end = len(text)
        parts = text[pos:end].split()
        if parts and parts[0] != "c":
            break
        if end == len(text):
            return None
        pos = end + 1
    if len(parts) != 4 or parts[0] != "p" or parts[1] != "edge":
        return None
    try:
        n, m = read_int(parts[2]), read_int(parts[3])
    except ValueError:
        return None
    return (n, m, end + 1) if n >= 0 else None


def match_lines(body: str, line: str) -> str | None:
    """`body` as lines that each match the regex `line` and end with ``\\n``,
    with each run of whitespace inside a line read as one space and blank
    lines dropped; None if a line does not match.  The graph, MatrixMarket
    and colouring readers check the lines they read in bulk with it."""
    if body and body[-1] != "\n":
        body += "\n"  # a last line without a line break
    match = re.compile(f"(?:{line}\n)*").fullmatch  # compiled once, then cached by re
    if _match_chunks(match, body):
        return body
    body = "".join(" ".join(parts) + "\n" for raw in body.split("\n") if (parts := raw.split()))
    return body if _match_chunks(match, body) else None


def _match_chunks(match, body: str) -> bool:
    """Whether `match` takes `body` whole, called on MATCH_CHUNK characters of
    whole lines at a time."""
    pos = 0
    while pos < len(body):
        end = body.find("\n", pos + MATCH_CHUNK)
        end = len(body) if end == -1 else end + 1
        if not match(body, pos, end):
            return False
        pos = end
    return True


def _scan_graph(lines: Iterable[str], source: str) -> Graph:
    """Check the lines of a graph file one at a time, in file order, and
    raise at the first bad one; the graph of their edges otherwise."""
    n, declared_m = -1, 0
    pairs: list[Edge] = []
    seen: set[Edge] = set()
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        kind = parts[0]
        if kind == "e" and len(parts) == 3 and n != -1:
            try:
                u, v = read_int(parts[1]), read_int(parts[2])
            except ValueError:
                raise GraphError(f"{source}:{lineno}: non-integer endpoint") from None
            key = (u, v) if u < v else (v, u)
            if not (1 <= u <= n and 1 <= v <= n):
                problem = f"endpoint outside 1..{n}"
            elif u == v:
                problem = f"self-loop at {u}"
            elif key in seen:
                problem = f"duplicate edge {key[0]} {key[1]}"
            else:
                seen.add(key)
                pairs.append((u - 1, v - 1))
                continue
        elif kind == "e":
            problem = "edge before problem line" if n == -1 else "expected 'e <u> <v>'"
        elif kind != "p":
            problem = f"unknown line type {kind!r}"
        elif n != -1:
            problem = "duplicate problem line"
        elif len(parts) != 4 or parts[1] != "edge":
            problem = "expected 'p edge <n> <m>'"
        else:
            try:
                n, declared_m = read_int(parts[2]), read_int(parts[3])
            except ValueError:
                problem = "non-integer counts"
            else:
                if n >= 0 and declared_m >= 0:
                    continue
                problem = "negative vertex count" if n < 0 else "negative edge count"
        raise GraphError(f"{source}:{lineno}: {problem}")
    if n == -1:
        raise GraphError(f"{source}: missing problem line")
    if len(pairs) != declared_m:
        raise GraphError(f"{source}: declared {declared_m} edges, found {len(pairs)}")
    return Graph.from_edge_list(n, pairs)


def _edge_graph(n: int, m: int, body: str) -> Graph | None:
    """The graph of the edge lines in `body`, the text after the problem line;
    None unless they are m lines of EDGE_LINE (once normalised) with endpoints
    in 1..n, no self-loop and no repeated edge.  One ``np.fromstring`` call
    reads every endpoint."""
    body = match_lines(body, EDGE_LINE)
    if body is None or body.count("\n") != m:
        return None
    pairs = np.fromstring(body.replace("e", " "), dtype=np.int64, sep=" ") - 1
    try:
        g = Graph.from_edge_list(n, pairs.reshape(m, 2))
    except (ValueError, OverflowError):  # GraphError included
        return None
    return g if g.m == m else None  # fewer edges than lines: a duplicate


def read_graph_file(path: str) -> Graph:
    return parse_graph(read_text(path, GraphError), source=path)


def format_graph(g: Graph, comment: str | None = None) -> str:
    """The graph file of `g`; the edge lines are formatted by one ``%`` on a
    repeated template."""
    head = [f"c {line}\n" for line in comment.splitlines()] if comment else []
    head.append(f"p edge {g.n} {g.m}\n")
    u, v = g.edge_arrays()
    ends = np.column_stack((u + 1, v + 1)).ravel().tolist()
    return "".join(head) + ("e %d %d\n" * g.m) % tuple(ends)


def write_graph_file(g: Graph, path_or_file: str | IO[str], comment: str | None = None) -> None:
    write_text(format_graph(g, comment), path_or_file)


def write_text(text: str, path_or_file: str | IO[str]) -> None:
    """Write `text` to a path, or to an open text file left open."""
    if isinstance(path_or_file, str):
        with open(path_or_file, "w") as fh:
            fh.write(text)
    else:
        path_or_file.write(text)


def read_text(path: str, error: type[ValueError]) -> str:
    r"""The text of a UTF-8 file with ``\r\n`` and ``\r`` read as ``\n``, as
    text mode reads them; bytes that are not UTF-8 raise `error` with
    ``path:line``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise error(f"{path}:{line}: not UTF-8 text") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def to_dot(g: Graph, name: str = "G") -> str:
    """DOT export for visual inspection; one line per edge, no layout attributes."""
    lines = [f"graph {name} {{"]
    lines.extend(f"  {v};" for v in range(g.n) if g.degree(v) == 0)
    lines.extend(f"  {u} -- {v};" for u, v in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
