import io
import math
import random
import re

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
from rscol.graph import (
    Graph,
    GraphError,
    attach_pendants,
    complete_graph,
    component_subgraphs,
    connected_components,
    cycle_graph,
    format_graph,
    girth,
    is_bipartite,
    is_chordal,
    is_connected,
    is_tree,
    list_triangles,
    parse_graph,
    path_graph,
    root_at_3plus,
    star_graph,
    subdivide_all_edges,
    to_dot,
)


class TestFromEdgeList:
    def test_dart(self):
        g = helpers.dart()
        assert g.n == 5 and g.m == 6
        assert g.degree(helpers.DART_Y) == 4

    def test_single_vertex(self):
        g = Graph.from_edge_list(1, [])
        assert g.n == 1 and g.m == 0 and g.degree(0) == 0

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edge_list(3, [(0, 1), (1, 0), (1, 2)])
        assert g.m == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph.from_edge_list(3, [(0, 3)])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph.from_edge_list(3, [(1, 1)])

    def test_adjacency_sorted_and_symmetric(self, rng):
        for _ in range(25):
            g = helpers.random_graph(rng.randint(1, 12), 0.4, rng)
            for v in range(g.n):
                nbrs = list(g.neighbours(v))
                assert nbrs == sorted(nbrs)
                assert all(v in g.neighbours(w) for w in nbrs)

    def test_handshake(self, rng):
        for _ in range(25):
            g = helpers.random_graph(rng.randint(1, 12), 0.4, rng)
            assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


EDGE_LISTS = st.integers(0, 14).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
                 .filter(lambda e: e[0] != e[1]), max_size=50) if n > 1 else st.just([]),
    )
)


class TestCsrAgainstListOfLists:
    """The CSR type against the per-vertex lists it replaced (helpers.ListGraph)."""

    @settings(max_examples=150, deadline=None)
    @given(EDGE_LISTS, st.randoms(use_true_random=False), st.booleans())
    def test_same_queries(self, n_edges, rnd, as_array):
        n, edges = n_edges
        oracle = helpers.ListGraph(n, edges)
        g = Graph.from_edge_list(n, np.array(edges, dtype=np.int64).reshape(-1, 2)
                                 if as_array else edges)
        assert g.n == oracle.n and g.m == oracle.m
        assert list(g.edges()) == oracle.edges()
        assert g.adjacency() == oracle.adj
        assert g.max_degree() == max(map(len, oracle.adj), default=0)
        for v in range(n):
            assert g.neighbours(v) == oracle.neighbours(v)
            assert g.degree(v) == oracle.degree(v)
            for w in range(n):
                assert g.has_edge(v, w) == oracle.has_edge(v, w)
        assert all(type(w) is int for w in g.targets) and all(type(i) is int for i in g.offsets)
        # another order and orientation of the same edges gives an equal graph
        shuffled = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in edges]
        rnd.shuffle(shuffled)
        other = Graph.from_edge_list(n, shuffled + shuffled[: len(shuffled) // 2])
        assert other == g and hash(other) == hash(g)
        assert helpers.set_built_graph(n, edges) == g

    @settings(max_examples=150, deadline=None)
    @given(EDGE_LISTS, EDGE_LISTS)
    def test_equal_exactly_when_adjacency_equal(self, a, b):
        ga, gb = Graph.from_edge_list(*a), Graph.from_edge_list(*b)
        oa, ob = helpers.ListGraph(*a), helpers.ListGraph(*b)
        assert (ga == gb) == (oa == ob)
        if ga == gb:
            assert hash(ga) == hash(gb)

    @settings(max_examples=150, deadline=None)
    @given(EDGE_LISTS)
    def test_equal_and_hash_across_construction_paths(self, n_edges):
        # Python pairs, an (m, 2) array, the set-built CSR and a component
        # split all give the same packed arrays, so equal graphs hash alike
        n, edges = n_edges
        pairs = Graph.from_edge_list(n, edges)
        packed = Graph.from_edge_list(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
        built = helpers.set_built_graph(n, edges)
        assert pairs == packed == built
        assert hash(pairs) == hash(packed) == hash(built)
        for sub, comp in component_subgraphs(pairs):
            induced, _ = helpers.induced_subgraph(pairs, comp)
            assert sub == induced and hash(sub) == hash(induced)
        assert pairs.offsets.typecode == packed.offsets.typecode == "q"
        assert pairs.targets.typecode == packed.targets.typecode == "q"

    @settings(max_examples=150, deadline=None)
    @given(EDGE_LISTS, st.sampled_from([None, "", "one line", "two\nlines"]))
    def test_edge_arrays_and_format_against_generators(self, n_edges, comment):
        n, edges = n_edges
        g = Graph.from_edge_list(n, edges)
        u, v = g.edge_arrays()
        oracle = helpers.ListGraph(n, edges).edges()
        assert list(zip(u.tolist(), v.tolist())) == list(g.edges()) == oracle
        assert all(type(x) is int for e in g.edges() for x in e)
        assert format_graph(g, comment) == helpers.line_formatted_graph(g, comment)

    def test_neighbours_is_a_copy(self):
        g = path_graph(3)
        g.neighbours(1).append(7)
        assert g.neighbours(1) == [0, 2] and g == path_graph(3)


class TestDegreeAndTrees:
    def test_dart_degrees(self):
        g = helpers.dart()
        assert [g.degree(v) for v in range(5)] == [1, 4, 3, 2, 2]

    def test_path_internal_degree(self):
        assert path_graph(4).degree(1) == 2

    def test_is_tree(self):
        assert is_tree(path_graph(7))
        assert not is_tree(helpers.dart())
        assert not is_tree(Graph.from_edge_list(4, [(0, 1), (2, 3)]))

    def test_components(self):
        g = Graph.from_edge_list(5, [(0, 1), (3, 4)])
        assert connected_components(g) == [[0, 1], [2], [3, 4]]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 30), st.floats(0, 0.3), st.integers(0, 2**32 - 1))
    def test_component_subgraphs_match_induced_subgraphs(self, n, p, seed):
        g = helpers.random_graph(n, p, random.Random(seed))
        split = component_subgraphs(g)
        assert split == [helpers.induced_subgraph(g, comp) for comp in connected_components(g)]
        assert all(type(w) is int for sub, _ in split for a in sub.adjacency() for w in a)


LABELLINGS = ("sorted", "reversed", "zigzag", "random")


def relabelled(n: int, edges, labelling: str, rnd: random.Random) -> Graph:
    """The graph of `edges` with vertex i renamed by `labelling`: kept, reversed,
    zigzag (0, n - 1, 1, n - 2, ...) or a random permutation."""
    if labelling == "sorted":
        name = list(range(n))
    elif labelling == "reversed":
        name = list(range(n - 1, -1, -1))
    elif labelling == "zigzag":
        name = [i // 2 if i % 2 == 0 else n - 1 - i // 2 for i in range(n)]
    else:
        name = rnd.sample(range(n), n)
    return Graph.from_edge_list(n, [(name[u], name[v]) for u, v in edges])


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    return edges + [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]


@st.composite
def component_mixes(draw, max_parts: int = 8) -> Graph:
    """Disjoint unions of paths, grids, cliques, random graphs and isolated
    vertices, labelled by one of LABELLINGS, so that the components interleave
    or not; n = 0 and n = 1 included."""
    edges: list[tuple[int, int]] = []
    n = 0
    for _ in range(draw(st.integers(0, max_parts))):
        kind = draw(st.sampled_from(["isolated", "path", "grid", "clique", "random"]))
        if kind == "isolated":
            size, part = 1, []
        elif kind == "path":
            size = draw(st.integers(2, 30))
            part = [(i, i + 1) for i in range(size - 1)]
        elif kind == "grid":
            rows, cols = draw(st.integers(1, 6)), draw(st.integers(2, 6))
            size, part = rows * cols, grid_edges(rows, cols)
        elif kind == "clique":
            size = draw(st.integers(2, 6))
            part = list(complete_graph(size).edges())
        else:
            size = draw(st.integers(2, 15))
            g = helpers.random_graph(size, draw(st.floats(0, 0.5)), random.Random(draw(st.integers())))
            part = list(g.edges())
        edges += [(u + n, v + n) for u, v in part]
        n += size
    return relabelled(n, edges, draw(st.sampled_from(LABELLINGS)), random.Random(draw(st.integers())))


def nx_components(g: Graph) -> list[list[int]]:
    return sorted(sorted(c) for c in nx.connected_components(as_networkx(g)))


def assert_components_as_oracles(g: Graph) -> None:
    comps = connected_components(g)
    assert comps == helpers.python_connected_components(g) == nx_components(g)
    assert all(type(v) is int for comp in comps for v in comp)
    expected = g.n <= 1 or nx.is_connected(as_networkx(g))
    assert is_connected(g) == helpers.python_is_connected(g) == expected
    assert is_tree(g) == (g.n >= 1 and nx.is_tree(as_networkx(g)))
    # each edge, renamed to its place in its component's vertex list, goes to
    # that component's edge list
    place = {v: (c, i) for c, comp in enumerate(comps) for i, v in enumerate(comp)}
    parts: list[list[tuple[int, int]]] = [[] for _ in comps]
    for u, v in as_networkx(g).edges():
        (c, a), (_, b) = place[u], place[v]
        parts[c].append((a, b))
    split = component_subgraphs(g)
    assert [old for _, old in split] == comps
    assert [sub for sub, _ in split] == [
        Graph.from_edge_list(len(comp), part) for comp, part in zip(comps, parts)
    ]


COMPONENTS = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestComponentsAgainstBfs:
    """Component labels by hooking and pointer jumping, against the Python
    BFS they replaced and against networkx."""

    def test_empty_and_single_vertex(self):
        for n in (0, 1):
            assert_components_as_oracles(Graph.from_edge_list(n, []))
        assert connected_components(Graph.from_edge_list(0, [])) == []
        assert component_subgraphs(Graph.from_edge_list(0, [])) == []

    def test_isolated_vertices(self):
        g = Graph.from_edge_list(7, [(2, 5)])
        assert connected_components(g) == [[0], [1], [2, 5], [3], [4], [6]]
        assert_components_as_oracles(g)
        assert_components_as_oracles(Graph.from_edge_list(50, []))

    @COMPONENTS
    @given(component_mixes())
    def test_mixed_components(self, g):
        assert_components_as_oracles(g)

    @COMPONENTS
    @given(st.sampled_from(["path", "grid"]), st.integers(1, 400), st.sampled_from(LABELLINGS),
           st.integers(0, 2**32 - 1))
    def test_paths_and_grids(self, kind, size, labelling, seed):
        if kind == "path":
            n, edges = size, [(i, i + 1) for i in range(size - 1)]
        else:
            cols = max(1, int(size**0.5))
            n, edges = (size // cols) * cols, grid_edges(size // cols, cols)
        assert_components_as_oracles(relabelled(n, edges, labelling, random.Random(seed)))

    @pytest.mark.parametrize("labelling", LABELLINGS)
    def test_long_path(self, labelling):
        # deep chains of hooks: a random-labelled path needs many rounds
        n = 20_000
        g = relabelled(n, [(i, i + 1) for i in range(n - 1)], labelling, random.Random(n))
        assert connected_components(g) == [list(range(n))]
        assert is_connected(g) and is_tree(g)
        cut = Graph.from_edge_list(n, list(g.edges())[1:])  # drop one edge
        assert connected_components(cut) == helpers.python_connected_components(cut)
        assert not is_connected(cut)

    def test_2000_components(self):
        # 2000 paths, stars and triangles interleaved by a random labelling,
        # plus 500 isolated vertices
        rnd = random.Random(2000)
        edges, n = [], 0
        for i in range(2000):
            size = 2 + i % 5
            part = [(0, j) for j in range(1, size)] if i % 3 else [(j, j + 1) for j in range(size - 1)]
            if i % 7 == 0:
                part.append((1, 2) if size > 2 and i % 3 else (0, size - 1))
            edges += [(u + n, v + n) for u, v in part]
            n += size
        g = relabelled(n + 500, edges, "random", rnd)
        assert len(connected_components(g)) == 2500
        assert_components_as_oracles(g)


class TestGirth:
    def test_dart(self):
        assert girth(helpers.dart()) == 3

    def test_tree_is_acyclic(self):
        assert girth(path_graph(9)) == math.inf

    def test_even_and_odd_cycles(self):
        assert girth(cycle_graph(6)) == 6
        assert girth(cycle_graph(7)) == 7

    def test_against_brute_force(self, rng):
        for _ in range(60):
            g = helpers.random_graph(rng.randint(3, 9), 0.35, rng)
            assert girth(g) == helpers.brute_girth(g)


class TestTriangles:
    def test_dart(self):
        y, z, v, w = helpers.DART_Y, helpers.DART_Z, helpers.DART_V, helpers.DART_W
        expected = sorted([tuple(sorted((y, v, z))), tuple(sorted((y, w, z)))])
        assert list_triangles(helpers.dart()) == expected

    def test_tree_has_none(self):
        assert list_triangles(path_graph(6)) == []

    def test_k4_brute_force(self):
        # oracle: scan all vertex triples
        g = complete_graph(4)
        brute = [
            (a, b, c)
            for a in range(4)
            for b in range(a + 1, 4)
            for c in range(b + 1, 4)
            if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
        ]
        assert list_triangles(g) == brute
        assert len(brute) == 4


class TestTrianglesAgainstPythonLoop:
    @settings(max_examples=200, deadline=None)
    @given(EDGE_LISTS)
    def test_random_graphs(self, n_edges):
        g = Graph.from_edge_list(*n_edges)
        assert list_triangles(g) == helpers.python_list_triangles(g)

    @settings(max_examples=100, deadline=None)
    @given(helpers.chordal_graphs(max_components=4))
    def test_chordal_graphs(self, g):
        assert list_triangles(g) == helpers.python_list_triangles(g)

    def test_dense_and_empty(self):
        for g in (complete_graph(9), star_graph(6), Graph.from_edge_list(4, []),
                  Graph.from_edge_list(0, [])):
            assert list_triangles(g) == helpers.python_list_triangles(g)
        assert len(list_triangles(complete_graph(9))) == 84


class TestBipartite:
    def test_triangle(self):
        assert not is_bipartite(cycle_graph(3))

    def test_empty(self):
        assert is_bipartite(Graph.from_edge_list(0, []))
        assert is_bipartite(Graph.from_edge_list(4, []))

    def test_partition_witness(self, rng):
        from rscol.graph import bipartition

        for _ in range(20):
            g = helpers.random_graph(rng.randint(1, 10), 0.3, rng)
            witness = bipartition(g)
            if witness is None:
                assert not is_bipartite(g)
                continue
            left, right = witness
            assert sorted(left + right) == list(range(g.n))
            for side in (set(left), set(right)):
                assert all(w not in side for v in side for w in g.neighbours(v))

    def test_reduction_output_is_bipartite(self):
        from rscol.constructions import sat_to_graph

        gg = sat_to_graph(helpers.unsat_cubic_formula())
        assert is_bipartite(gg.graph)


@st.composite
def forests(draw, max_n: int = 40) -> Graph:
    """Random forests on 1..max_n vertices, vertices shuffled: each vertex
    after the first joins an earlier one or starts a new tree."""
    n = draw(st.integers(1, max_n))
    parents = [draw(st.integers(-1, v - 1)) for v in range(1, n)]
    perm = draw(st.permutations(range(n)))
    edges = [(perm[v], perm[p]) for v, p in enumerate(parents, start=1) if p >= 0]
    return Graph.from_edge_list(n, edges)


def as_networkx(g: Graph) -> nx.Graph:
    out = nx.empty_graph(g.n)
    out.add_edges_from(g.edges())
    return out


CHORDAL = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestChordal:
    def test_dart_and_c4(self):
        assert is_chordal(helpers.dart())
        assert not is_chordal(cycle_graph(4))

    def test_trees(self, rng):
        for n in (1, 2, 5, 9):
            assert is_chordal(helpers.random_tree(n, rng))

    def test_against_brute_force(self, rng):
        for _ in range(80):
            g = helpers.random_graph(rng.randint(1, 8), 0.4, rng)
            assert is_chordal(g) == helpers.brute_is_chordal(g), list(g.edges())

    @CHORDAL
    @given(helpers.chordal_graphs(max_components=3), st.integers(0, 2**32 - 1))
    def test_against_networkx_near_misses(self, g, pick):
        # the chordal graph itself, then with one extra edge, which often
        # closes an induced cycle of length four or more
        missing = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
        assert is_chordal(g)
        if missing:
            g = Graph.from_edge_list(g.n, [*g.edges(), missing[pick % len(missing)]])
        assert is_chordal(g) == nx.is_chordal(as_networkx(g)) == helpers.python_is_chordal(g)
        if g.n <= 9:
            assert is_chordal(g) == helpers.brute_is_chordal(g)

    @CHORDAL
    @given(st.integers(0, 30), st.floats(0, 1), st.integers(0, 2**32 - 1))
    def test_against_networkx_random(self, n, p, seed):
        g = helpers.random_graph(n, p, random.Random(seed))
        assert is_chordal(g) == nx.is_chordal(as_networkx(g)) == helpers.python_is_chordal(g)

    @CHORDAL
    @given(forests(), st.integers(0, 2**32 - 1))
    def test_forests_and_one_more_edge(self, g, pick):
        # a forest is chordal; one more edge closes a cycle, chordal only
        # when it is a triangle
        assert is_chordal(g) and helpers.python_is_chordal(g)
        missing = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
        if missing:
            g = Graph.from_edge_list(g.n, [*g.edges(), missing[pick % len(missing)]])
        assert is_chordal(g) == nx.is_chordal(as_networkx(g)) == helpers.python_is_chordal(g)

    def test_numpy_peo_check_reads_every_row(self):
        # isolated vertices first and last, so that empty rows sit at both
        # ends of the CSR; the 4-cycle in between is the only flaw
        g = Graph.from_edge_list(7, [(1, 2), (2, 3), (3, 4), (4, 1)])
        assert not is_chordal(g) and not helpers.python_is_chordal(g)
        g = Graph.from_edge_list(7, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
        assert is_chordal(g) and helpers.python_is_chordal(g)
        assert is_chordal(Graph.from_edge_list(3, []))


class TestRooting:
    def test_worked_tree_rooted_at_top(self):
        tree = root_at_3plus(helpers.worked_tree(), root=helpers.WORKED_TREE_ROOT)
        assert tree.root == helpers.WORKED_TREE_ROOT
        assert tree.graph == helpers.worked_tree()

    def test_star_centre(self):
        tree = root_at_3plus(star_graph(3))
        assert tree.root == 0

    def test_path_has_no_root(self):
        with pytest.raises(GraphError, match="no 3-plus vertex"):
            root_at_3plus(path_graph(5))

    def test_default_root_is_lowest_3plus(self):
        tree = root_at_3plus(helpers.worked_tree())
        assert tree.root == 2  # vertex C

    def test_non_tree_rejected(self):
        with pytest.raises(GraphError):
            root_at_3plus(helpers.dart())

    @pytest.mark.parametrize("g, root, message", [
        (helpers.dart(), 0, "requested root 0 is not a 3-plus vertex"),  # before tree-ness
        (star_graph(3), 4, "requested root 4 is not a 3-plus vertex"),
        (star_graph(3), -4, "requested root -4 is not a 3-plus vertex"),
        (cycle_graph(4), None, "input graph is not a tree"),  # before the path case
        (Graph.from_edge_list(5, [(0, 1), (0, 2), (0, 3)]), None, "input graph is not a tree"),
        (path_graph(3), None, "no 3-plus vertex: tree is a path"),
    ])
    def test_errors_in_order(self, g, root, message):
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            root_at_3plus(g, root)


class TestSurgery:
    def test_attach_pendants_star(self):
        g = attach_pendants(Graph.from_edge_list(1, []), 0, 3)
        assert g.n == 4 and g.degree(0) == 3

    def test_attach_pendants_c4(self):
        g = attach_pendants(cycle_graph(4), 0, 1)
        assert g.degree(0) == 3
        assert girth(g) == 4  # girth preserved
        assert [g.degree(v) for v in range(1, 4)] == [2, 2, 2]

    def test_subdivide_k3_gives_c6(self):
        g, names = subdivide_all_edges(cycle_graph(3))
        assert g.n == 6 and g.m == 6
        assert girth(g) == 6
        assert len(names) == 3

    def test_subdivide_single_edge_gives_p3(self):
        g, names = subdivide_all_edges(Graph.from_edge_list(2, [(0, 1)]))
        assert is_tree(g) and g.n == 3
        assert g.degree(names[(0, 1)]) == 2

    def test_subdivide_counts_and_bipartite(self, rng):
        for _ in range(20):
            base = helpers.random_graph(rng.randint(1, 9), 0.4, rng)
            g, _ = subdivide_all_edges(base)
            assert g.n == base.n + base.m
            assert g.m == 2 * base.m
            assert is_bipartite(g)


class TestFileFormat:
    def test_roundtrip(self, rng):
        g = helpers.random_graph(9, 0.4, rng)
        text = format_graph(g, comment="round trip")
        again = parse_graph(io.StringIO(text))
        assert again == g

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(GraphError, match=":2"):
            parse_graph(io.StringIO("p edge 3 1\ne 1 9\n"))
        with pytest.raises(GraphError, match=":1"):
            parse_graph(io.StringIO("e 1 2\n"))
        with pytest.raises(GraphError, match="declared"):
            parse_graph(io.StringIO("p edge 3 2\ne 1 2\n"))

    def test_dot_export(self):
        text = to_dot(helpers.dart())
        assert text.count(" -- ") == 6
