"""3-rs-colourability tester for chordal graphs.

A triangle whose three corners are all 3-plus vertices (type I) certifies
non-colourability.  A triangle with a degree-2 corner (type II) can be
eliminated: drop the corner and attach two pendants at each remaining corner,
preserving 3-rs colourability both ways.  Once triangle-free, a connected
chordal graph is a tree and the tree tester finishes the job.

The paper eliminates one triangle at a time.  No elimination changes another
triangle's type: it only raises the degrees of the two kept corners (each
loses one neighbour and gains two pendants), and a degree-2 vertex lies in
exactly one triangle.  So the triangles are listed once, and either the graph
has a type-I triangle or every triangle loses its smallest degree-2 corner in
a single pass, after which the reduced graph is built by a few numpy calls.

The elimination also certifies chordality.  A dropped corner has degree 2 and
adjacent neighbours, so it is simplicial, and none of its neighbours is
dropped; removing simplicial vertices and adding pendants keeps chordality
both ways.  The reduced graph is connected and triangle-free, and such a graph
is chordal exactly when it is a tree.  So a component with no type-I triangle
is chordal exactly when it reduces to a tree, and ``is_chordal`` runs only on
a component with a type-I triangle, where it tells NO from not chordal.

The tester splits the components first; a tree component (m = n - 1) goes to
the tree tester as it is, and a connected graph is its own only component, not
a rebuilt copy.  Every component is reduced, and chordality settled, before
any tree tester runs, so a refused input reaches no tester.  NO reasons name
vertices of the input, numbered from 1 as in graph files: a pendant of the
reduced tree is named by the corner it hangs from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .graph import Graph, component_subgraphs, is_chordal, list_triangles
from .tree3rs import TreeTestResult, test_3rs_tree


class NotChordalError(ValueError):
    """Input rejected: the graph is not chordal (distinct from a NO decision)."""


@dataclass
class EliminationTrace:
    """Record of one component's triangle elimination."""

    final_tree: Graph | None  # None when a type-I triangle stopped the run
    type1_triangle: tuple[int, int, int] | None = None
    eliminations: int = 0
    triangle_counts: list[int] = field(default_factory=list)  # triangles listed per scan
    # origin[v]: the input vertex that vertex v of final_tree stands for, its
    # corner for a pendant; None while final_tree is the input itself
    origin: np.ndarray | None = None


def eliminate_triangles(g: Graph) -> EliminationTrace:
    """Eliminate every triangle of a connected graph in one pass, or stop at
    the first type-I triangle in sorted order.

    The result is the graph the stepwise loop reaches, vertex for vertex: the
    loop always eliminates the smallest remaining triangle, and renumbering
    keeps the survivors' order, so survivors keep their original order and
    the four pendants of each triangle follow in sorted-triangle order, two
    at the lower kept corner, then two at the higher.
    """
    triangles = list_triangles(g)
    trace = EliminationTrace(None, triangle_counts=[len(triangles)])
    if not triangles:
        trace.final_tree = g
        return trace
    corners = np.array(triangles, dtype=np.int64)
    low = np.diff(np.frombuffer(g.offsets, dtype=np.int64))[corners] == 2
    type2 = low.any(axis=1)
    if not type2.all():
        trace.type1_triangle = triangles[int(type2.argmin())]
        return trace
    drop = np.zeros_like(low)
    drop[np.arange(len(triangles)), low.argmax(axis=1)] = True  # smallest degree-2 corner
    kept = corners[~drop]  # the two other corners of each triangle, in order
    keep = np.ones(g.n, dtype=bool)
    keep[corners[drop]] = False
    new_id = np.cumsum(keep) - 1
    u, v = g.edge_arrays()
    inner = keep[u] & keep[v]
    survivors = g.n - len(triangles)
    owners = np.repeat(new_id[kept], 2)  # two pendants at each kept corner
    pendants = np.arange(survivors, survivors + owners.size, dtype=np.int64)
    edges = np.stack((np.concatenate((new_id[u[inner]], owners)),
                      np.concatenate((new_id[v[inner]], pendants))), axis=1)
    trace.final_tree = Graph.from_edge_list(survivors + owners.size, edges)
    trace.origin = np.concatenate((np.flatnonzero(keep), np.repeat(kept, 2)))
    trace.eliminations = len(triangles)
    return trace


@dataclass
class ChordalTestResult:
    colourable: bool
    reason: str | None = None
    component_results: list[TreeTestResult | None] = field(default_factory=list)
    final_trees: list[Graph] = field(default_factory=list)


def test_3rs_chordal(g: Graph) -> ChordalTestResult:
    """Decide 3-rs colourability of a chordal graph; decision is the AND over
    connected components.  Non-chordal input raises NotChordalError.
    ``final_trees`` holds each reduced tree the tree tester ran on."""
    components = component_subgraphs(g)
    traces = []
    for sub, _ in components:
        # a connected component with m = n - 1 is a tree: the edge count settles it
        trace = EliminationTrace(sub) if sub.m == sub.n - 1 else eliminate_triangles(sub)
        tree = trace.final_tree
        if tree is None:  # a type-I triangle: NO if the component is chordal
            chordal = is_chordal(sub)
        else:  # connected and triangle-free: chordal exactly when a tree
            chordal = tree.m == tree.n - 1
        if not chordal:
            raise NotChordalError("input graph is not chordal")
        traces.append(trace)
    result = ChordalTestResult(True)
    for (_, comp), trace in zip(components, traces):
        if trace.type1_triangle is not None:
            result.colourable = False
            if result.reason is None:
                corners = tuple(comp[x] + 1 for x in trace.type1_triangle)
                result.reason = f"type-I triangle {corners} in component at {comp[0] + 1}"
            result.component_results.append(None)
            continue
        tree, origin = trace.final_tree, trace.origin
        result.final_trees.append(tree)
        tree_result = test_3rs_tree(tree)
        result.component_results.append(tree_result)
        if not tree_result.colourable:
            result.colourable = False
            if result.reason is None:
                v = tree_result.reason_vertex
                named = replace(tree_result, reason_vertex=comp[v if origin is None else origin[v]])
                result.reason = f"component at {comp[0] + 1}: {named.reason_text(base=1)}"
    return result
