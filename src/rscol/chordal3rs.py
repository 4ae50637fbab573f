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
a single pass.  The cost is one triangle listing plus an O(n + m) rebuild,
after the O(n + m) chordality test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    dropped = []
    for t in triangles:
        w = next((x for x in t if g.degree(x) == 2), None)
        if w is None:
            trace.type1_triangle = t
            return trace
        dropped.append(w)
    if not triangles:
        trace.final_tree = g
        return trace
    gone = set(dropped)
    new_id = [-1] * g.n
    survivors = [v for v in range(g.n) if v not in gone]
    for i, v in enumerate(survivors):
        new_id[v] = i
    edges = [(new_id[u], new_id[v]) for u, v in g.edges() if u not in gone and v not in gone]
    fresh = len(survivors)
    for t, w in zip(triangles, dropped):
        u, v = (new_id[x] for x in t if x != w)
        edges += [(u, fresh), (u, fresh + 1), (v, fresh + 2), (v, fresh + 3)]
        fresh += 4
    trace.final_tree = Graph.from_edge_list(fresh, edges)
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
    if not is_chordal(g):
        raise NotChordalError("input graph is not chordal")
    result = ChordalTestResult(True)
    for sub, comp in component_subgraphs(g):
        if sub.m == sub.n - 1:  # a connected component: the edge count settles it
            tree = sub
        else:
            trace = eliminate_triangles(sub)
            if trace.type1_triangle is not None:
                result.colourable = False
                if result.reason is None:
                    result.reason = (
                        f"type-I triangle {trace.type1_triangle} in component at {comp[0]}"
                    )
                result.component_results.append(None)
                continue
            tree = trace.final_tree
            # elimination keeps a component connected; only a cycle of length
            # four or more (a non-chordal input) survives it
            if tree.m != tree.n - 1:
                raise RuntimeError(f"component at {comp[0]} did not reduce to a tree")
        result.final_trees.append(tree)
        tree_result = test_3rs_tree(tree)
        result.component_results.append(tree_result)
        if not tree_result.colourable:
            result.colourable = False
            if result.reason is None:
                result.reason = f"component at {comp[0]}: {tree_result.reason_text()}"
    return result
