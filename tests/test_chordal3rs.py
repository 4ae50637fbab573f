import random
import time
from unittest import mock

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
from helpers import classify_triangle, eliminate_type2_triangle
from rscol import chordal3rs
from rscol.chordal3rs import NotChordalError, eliminate_triangles
from rscol.chordal3rs import test_3rs_chordal as run_chordal_test
from rscol.graph import (
    Graph,
    complete_graph,
    component_subgraphs,
    cycle_graph,
    is_chordal,
    is_tree,
    list_triangles,
)
from rscol.solver import SolveStatus, decide_k_rs
from rscol.tree3rs import test_3rs_tree as run_tree_test


class TestClassifyTriangle:
    def test_dart_triangle_is_type2(self):
        g = helpers.dart()
        kind = classify_triangle(g, (1, 2, 3))  # (y, z, v)
        assert not kind.is_type1
        assert kind.low_degree_vertex == helpers.DART_V

    def test_k4_is_type1(self):
        kind = classify_triangle(complete_graph(4), (0, 1, 2))
        assert kind.is_type1

    def test_pendant_apex_triangle(self):
        # one triangle hanging off a path: the apex has degree two
        g = Graph.from_edge_list(5, [(0, 1), (1, 2), (1, 4), (2, 4), (2, 3)])
        kind = classify_triangle(g, (1, 2, 4))
        assert not kind.is_type1 and kind.low_degree_vertex == 4

    def test_rejects_non_triangle(self):
        with pytest.raises(ValueError):
            classify_triangle(helpers.dart(), (0, 1, 2))


class TestEliminateType2:
    def test_single_triangle_with_host(self):
        # triangle (u, v, w) with extra structure at u and v; removing w adds
        # two pendants at each surviving corner
        g = Graph.from_edge_list(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
        out = eliminate_type2_triangle(g, (0, 1, 2), 2)
        assert out.n == g.n - 1 + 4
        assert is_tree(out)
        # u and v (now 0 and 1) each gained two pendants
        assert out.degree(0) == 4 and out.degree(1) == 4

    def test_two_triangle_chain_reduces_to_tree(self):
        # x - u1 - v1 - u2 - v2 with apexes w1, w2: two eliminations leave a
        # tree carrying eight pendants
        g = Graph.from_edge_list(
            7,
            [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (4, 5), (4, 6), (5, 6)],
        )
        trace = helpers.stepwise_eliminate_triangles(g)
        assert trace.type1_triangle is None
        assert trace.eliminations == 2
        tree = trace.final_tree
        assert is_tree(tree)
        assert tree.n == 7 - 2 + 8
        assert sum(1 for v in range(tree.n) if tree.degree(v) == 1) >= 8

    def test_dart_first_step_keeps_second_triangle(self):
        g = helpers.dart()
        out = eliminate_type2_triangle(g, (1, 2, 3), 3)
        assert len(list_triangles(out)) == 1

    def test_validates_inputs(self):
        g = helpers.dart()
        with pytest.raises(ValueError):
            eliminate_type2_triangle(g, (1, 2, 3), 1)  # y has degree 4
        with pytest.raises(ValueError):
            eliminate_type2_triangle(g, (1, 2, 3), 0)  # not a corner


class TestEliminationLoop:
    def test_triangle_count_strictly_decreases(self, rng):
        for _ in range(30):
            g = helpers.random_connected_chordal(rng.randint(3, 9), rng)
            trace = helpers.stepwise_eliminate_triangles(g)
            counts = trace.triangle_counts
            assert all(a > b for a, b in zip(counts, counts[1:]))

    def test_intermediates_stay_chordal(self, rng):
        for _ in range(15):
            g = helpers.random_connected_chordal(rng.randint(3, 8), rng)
            trace = helpers.stepwise_eliminate_triangles(g, keep_intermediates=True)
            for step in trace.intermediates:
                assert is_chordal(step)

    def test_size_bound(self, rng):
        for _ in range(30):
            g = helpers.random_connected_chordal(rng.randint(3, 9), rng)
            t0 = len(list_triangles(g))
            trace = helpers.stepwise_eliminate_triangles(g)
            if trace.final_tree is None:
                continue
            assert trace.eliminations <= t0
            assert trace.final_tree.n <= g.n + 3 * trace.eliminations


class TestChordalTester:
    def test_dart_colourable(self):
        assert run_chordal_test(helpers.dart()).colourable

    def test_k4_not_colourable(self):
        result = run_chordal_test(complete_graph(4))
        assert not result.colourable
        assert "type-I" in result.reason

    def test_trees_delegate(self, rng):
        for _ in range(25):
            g = helpers.random_tree(rng.randint(2, 12), rng)
            assert run_chordal_test(g).colourable == run_tree_test(g).colourable

    def test_rejects_non_chordal(self):
        with pytest.raises(NotChordalError):
            run_chordal_test(cycle_graph(4))

    def test_disconnected_conjunction(self):
        # K4 in one component forces NO even when the other is fine
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5)]
        g = Graph.from_edge_list(6, edges)
        assert not run_chordal_test(g).colourable
        # both components fine -> YES
        g2 = Graph.from_edge_list(8, list(helpers.dart().edges()) + [(5, 6), (6, 7)])
        assert run_chordal_test(g2).colourable

    def test_oracle_equivalence(self, rng):
        for _ in range(200):
            g = helpers.random_connected_chordal(rng.randint(2, 10), rng)
            fast = run_chordal_test(g).colourable
            oracle = decide_k_rs(g, 3).status is SolveStatus.YES
            assert fast == oracle, list(g.edges())

    def test_collected_trees_are_trees(self, rng):
        for _ in range(10):
            g = helpers.random_connected_chordal(rng.randint(3, 8), rng)
            result = run_chordal_test(g)
            for tree in result.final_trees:
                assert is_tree(tree)


DIFFERENTIAL = settings(max_examples=150, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])


def tree_outcomes(result):
    return [r and (r.colourable, r.reason, r.reason_vertex, r.visited)
            for r in result.component_results]


class TestOnePassAgainstStepwise:
    @DIFFERENTIAL
    @given(helpers.chordal_graphs())
    def test_eliminate_triangles(self, g):
        fast = eliminate_triangles(g)
        slow = helpers.stepwise_eliminate_triangles(g)
        assert fast.type1_triangle == slow.type1_triangle
        assert fast.final_tree == slow.final_tree
        assert fast.eliminations == slow.eliminations
        assert fast.triangle_counts == slow.triangle_counts[:1]
        if fast.final_tree is not None:
            origin = range(g.n) if fast.origin is None else fast.origin.tolist()
            assert list(origin) == slow.origin

    @DIFFERENTIAL
    @given(helpers.chordal_graphs(max_components=5))
    def test_chordal_tester(self, g):
        fast = run_chordal_test(g)
        slow = helpers.stepwise_test_3rs_chordal(g, collect_trees=True)
        assert fast.colourable == slow.colourable
        assert fast.reason == slow.reason
        assert fast.final_trees == slow.final_trees
        assert tree_outcomes(fast) == tree_outcomes(slow)

    def test_pendant_numbering(self):
        # ears 3 and 4 on the path 5-0-1-2-6: survivors 0, 1, 2, 5, 6 become
        # 0..4, then come the pendants of (0, 1, 3) and of (1, 2, 4)
        g = Graph.from_edge_list(
            7, [(0, 1), (1, 2), (0, 3), (1, 3), (1, 4), (2, 4), (0, 5), (2, 6)]
        )
        trace = eliminate_triangles(g)
        assert trace.eliminations == 2 and trace.triangle_counts == [2]
        pendants = [(0, 5), (0, 6), (1, 7), (1, 8), (1, 9), (1, 10), (2, 11), (2, 12)]
        assert trace.final_tree == Graph.from_edge_list(
            13, [(0, 1), (1, 2), (0, 3), (2, 4)] + pendants
        )

    def test_type1_triangle_stops_before_any_elimination(self):
        # an ear (0, 1, 5) sorts before the type-I triangle (1, 2, 3)
        g = Graph.from_edge_list(
            7, [(0, 1), (0, 5), (1, 5), (1, 2), (1, 3), (2, 3), (2, 4), (3, 6)]
        )
        trace = eliminate_triangles(g)
        assert trace.type1_triangle == (1, 2, 3)
        assert trace.final_tree is None and trace.eliminations == 0

    def test_non_chordal_component_raises_without_assert(self, monkeypatch):
        # a 4-cycle with an ear on one edge: elimination removes the ear and
        # leaves the cycle, which the tester must refuse even under python -O,
        # and with no type-I triangle the reduced graph alone settles it
        def refuse(_):
            raise AssertionError("the chordality test ran without a type-I triangle")

        monkeypatch.setattr(chordal3rs, "is_chordal", refuse)
        g = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)])
        with pytest.raises(NotChordalError):
            run_chordal_test(g)


class TestComponentsFirst:
    @DIFFERENTIAL
    @given(helpers.chordal_graphs(max_components=5), st.integers(0, 2**32 - 1))
    def test_forest_skips_the_chordality_test(self, g, seed):
        # the tree edges of each component (a BFS forest of g): m = n - c
        rnd = random.Random(seed)
        edges = [e for sub, comp in component_subgraphs(g) for e in
                 (tuple(comp[x] for x in pair) for pair in bfs_tree_edges(sub, rnd))]
        forest = Graph.from_edge_list(g.n, edges)
        expected = helpers.stepwise_test_3rs_chordal(forest, collect_trees=True)

        def refuse(_):
            raise AssertionError("the chordality test ran on a forest")

        with mock.patch.object(chordal3rs, "is_chordal", refuse):
            result = run_chordal_test(forest)
        assert (result.colourable, result.reason) == (expected.colourable, expected.reason)
        assert result.final_trees == expected.final_trees

    def test_connected_graph_is_not_rebuilt(self):
        g = helpers.worked_tree()
        assert component_subgraphs(g) == [(g, list(range(g.n)))]
        assert component_subgraphs(g)[0][0] is g
        assert run_chordal_test(g).final_trees[0] is g

    def test_non_chordal_component_raises_before_any_test(self, monkeypatch):
        # a K4 component (NO) first, then a 4-cycle: the input is refused,
        # not answered NO, and no component reaches a tester
        def refuse(*_):
            raise AssertionError("a component was tested")

        monkeypatch.setattr(chordal3rs, "test_3rs_tree", refuse)
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5), (5, 6), (6, 7), (7, 4)]
        with pytest.raises(NotChordalError):
            run_chordal_test(Graph.from_edge_list(8, edges))


def bfs_tree_edges(g: Graph, rnd: random.Random) -> list[tuple[int, int]]:
    """The edges of a BFS tree of the connected graph g, from a random root."""
    root = rnd.randrange(g.n)
    seen, order, edges = {root}, [root], []
    for u in order:
        for w in g.neighbours(u):
            if w not in seen:
                seen.add(w)
                order.append(w)
                edges.append((u, w))
    return edges


def ears_on_cycle(draw, length: int) -> tuple[int, list[tuple[int, int]]]:
    """A chordless cycle of `length` vertices, with an ear on some of its
    edges and, now and then, one chord; (n, edges)."""
    edges = [(i, (i + 1) % length) for i in range(length)]
    n = length
    for i in range(length):
        if draw(st.booleans()):
            edges += [(i, n), ((i + 1) % length, n)]
            n += 1
    if draw(st.integers(0, 3)) == 0:
        a = draw(st.integers(0, length - 1))
        edges.append((a, (a + draw(st.integers(2, length - 2))) % length))
    return n, edges


@st.composite
def chordality_mixes(draw) -> Graph:
    """Chordal parts, type-I gadgets (K4, a triangle with a pendant at each
    corner) and chordless 4- to 8-cycles carrying ears, sometimes joined by a
    bridge into one component, vertices shuffled."""
    edges: list[tuple[int, int]] = []
    n = 0
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["chordal", "k4", "pendant triangle", "cycle"]))
        if kind == "chordal":
            part = draw(helpers.chordal_graphs(max_n=10))
            size, part_edges = part.n, list(part.edges())
        elif kind == "k4":
            size, part_edges = 4, list(complete_graph(4).edges())
        elif kind == "pendant triangle":
            size, part_edges = 6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)]
        else:
            size, part_edges = ears_on_cycle(draw, draw(st.integers(4, 8)))
        if n and draw(st.booleans()):  # a bridge to the parts before
            edges.append((draw(st.integers(0, n - 1)), n + draw(st.integers(0, size - 1))))
        edges += [(u + n, v + n) for u, v in part_edges]
        n += size
    perm = draw(st.permutations(range(n)))
    return Graph.from_edge_list(n, [(perm[u], perm[v]) for u, v in edges])


def as_networkx(g: Graph) -> nx.Graph:
    out = nx.empty_graph(g.n)
    out.add_edges_from(g.edges())
    return out


def assert_refused_exactly_when_not_chordal(g: Graph) -> None:
    try:
        result = run_chordal_test(g)
    except NotChordalError:
        assert not nx.is_chordal(as_networkx(g))
        return
    assert nx.is_chordal(as_networkx(g))
    expected = helpers.stepwise_test_3rs_chordal(g, collect_trees=True)
    assert (result.colourable, result.reason) == (expected.colourable, expected.reason)
    assert result.final_trees == expected.final_trees


class TestEliminationCertifiesChordality:
    """A component without a type-I triangle is chordal exactly when its
    triangle elimination leaves a tree; ``is_chordal`` runs only on the
    components with one."""

    @DIFFERENTIAL
    @given(chordality_mixes())
    def test_refused_exactly_when_networkx_says_not_chordal(self, g):
        assert_refused_exactly_when_not_chordal(g)

    @DIFFERENTIAL
    @given(st.integers(0, 12), st.floats(0, 1), st.integers(0, 2**32 - 1))
    def test_random_graphs(self, n, p, seed):
        assert_refused_exactly_when_not_chordal(helpers.random_graph(n, p, random.Random(seed)))

    @DIFFERENTIAL
    @given(chordality_mixes())
    def test_chordality_test_only_with_a_type1_triangle(self, g):
        with mock.patch.object(chordal3rs, "is_chordal", side_effect=is_chordal) as spy:
            try:
                run_chordal_test(g)
            except NotChordalError:
                pass
            calls = [sub for (sub,), _ in spy.call_args_list]
        type1 = [sub for sub, _ in component_subgraphs(g)
                 if sub.m != sub.n - 1 and eliminate_triangles(sub).type1_triangle is not None]
        assert calls == type1[:len(calls)]
        assert len(calls) == len(type1) or not nx.is_chordal(as_networkx(g))

    def test_cycle_with_ears_after_a_type1_component(self):
        # K4 first (NO if the input were chordal), then a 5-cycle whose every
        # edge carries an ear: refused, and only K4 meets the chordality test
        cycle = [(i, (i + 1) % 5) for i in range(5)] + [(i, 5 + i) for i in range(5)]
        cycle += [((i + 1) % 5, 5 + i) for i in range(5)]
        edges = list(complete_graph(4).edges()) + [(u + 4, v + 4) for u, v in cycle]
        g = Graph.from_edge_list(14, edges)
        with mock.patch.object(chordal3rs, "is_chordal", side_effect=is_chordal) as spy:
            with pytest.raises(NotChordalError):
                run_chordal_test(g)
        assert [sub for (sub,), _ in spy.call_args_list] == [complete_graph(4)]


class TestReasonsInInputIds:
    """NO reasons name input vertices from 1, as graph files do."""

    def test_tree_reason_through_the_renumbering(self):
        # the worked tree shifted up by one, with an ear 0 on its edge (7, 8),
        # now (8, 9): eliminating the ear moves every vertex back down, and
        # the tree tester's vertex 8 of the reduced tree is input vertex 9
        worked = helpers.worked_tree()
        g = Graph.from_edge_list(15, [(u + 1, v + 1) for u, v in worked.edges()] + [(0, 8), (0, 9)])
        result = run_chordal_test(g)
        assert result.component_results[0].reason_vertex == 8
        assert result.reason == "component at 1: class A branch at vertex 10"
        assert result.reason == helpers.stepwise_test_3rs_chordal(g).reason

    def test_type1_triangle_and_component(self):
        # a path 0-1 and then K4 on 2..5 with a pendant 6 at vertex 5
        edges = [(0, 1), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5), (5, 6)]
        result = run_chordal_test(Graph.from_edge_list(7, edges))
        assert result.reason == "type-I triangle (3, 4, 5) in component at 3"

    def test_tree_component_reason(self):
        # the worked tree as the second component, after an isolated vertex
        worked = helpers.worked_tree()
        g = Graph.from_edge_list(15, [(u + 1, v + 1) for u, v in worked.edges()])
        assert run_chordal_test(g).reason == "component at 2: class A branch at vertex 6"


class TestManyComponents:
    def test_2000_components_in_one_pass(self):
        # vertex i of component c becomes i * count + c (then ids are made
        # dense), so the components interleave and each one relabels to its
        # part; component c has minimum vertex c
        count = 2000
        k4_pendant = Graph.from_edge_list(
            5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]
        )
        parts = [helpers.dart()] * count
        parts[1500] = k4_pendant
        parts[1700] = helpers.worked_tree()
        edges = [(i * count + c, j * count + c)
                 for c, part in enumerate(parts) for i, j in part.edges()]
        ids = sorted({v for e in edges for v in e})
        index = {v: i for i, v in enumerate(ids)}
        g = Graph.from_edge_list(len(ids), [(index[u], index[v]) for u, v in edges])

        start = time.perf_counter()
        result = run_chordal_test(g)
        elapsed = time.perf_counter() - start

        expected = [helpers.stepwise_test_3rs_chordal(part, collect_trees=True) for part in parts]
        assert not result.colourable
        # vertex i of part 1500 is input vertex i * 2000 + 1500: every part has
        # vertices 0..4, so no smaller id is missing and the dense id is the same
        assert expected[1500].reason == "type-I triangle (1, 2, 3) in component at 1"
        assert result.reason == "type-I triangle (1501, 3501, 5501) in component at 1501"
        assert result.final_trees == [t for e in expected for t in e.final_trees]
        assert tree_outcomes(result) == [o for e in expected for o in tree_outcomes(e)]
        assert elapsed < 1.0
