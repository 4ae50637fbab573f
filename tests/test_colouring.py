import io
import itertools
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from rscol.colouring import (
    Colouring,
    ColouringError,
    PartialColouring,
    check_properties_P,
    find_rs_violation,
    format_colouring,
    is_distance_two,
    is_ordered,
    is_proper,
    is_rs,
    is_star,
    iter_paths,
    parse_colouring,
    parse_partial_colouring,
)
from rscol.constructions import CoBipartitePartition, star_to_ordered_cobipartite
from rscol.graph import Graph, cycle_graph, path_graph, star_graph
from rscol.solver import SolveStatus, decide_k_rs, enumerate_k_rs


class TestProper:
    def test_dart_accepts(self):
        assert is_proper(helpers.dart(), helpers.dart_colouring())

    def test_monochromatic_edge(self):
        g = Graph.from_edge_list(2, [(0, 1)])
        assert not is_proper(g, Colouring.of([0, 0], k=1))

    def test_empty(self):
        assert is_proper(Graph.from_edge_list(0, []), Colouring.of([], k=0))

    def test_domain_mismatch(self):
        with pytest.raises(ColouringError):
            is_proper(path_graph(3), Colouring.of([0, 1], k=2))


class TestRs:
    def test_dart_accepts(self):
        assert is_rs(helpers.dart(), helpers.dart_colouring())

    def test_p3_010_rejected_with_whole_path(self):
        g = path_graph(3)
        witness = find_rs_violation(g, Colouring.of([0, 1, 0], k=2))
        assert witness == (0, 1, 2)

    def test_p4_0120_accepted(self):
        assert is_rs(path_graph(4), Colouring.of([0, 1, 2, 0], k=3))

    def test_improper_reports_edge(self):
        g = Graph.from_edge_list(2, [(0, 1)])
        assert find_rs_violation(g, Colouring.of([1, 1], k=2)) == (0, 1)

    def test_matches_path_scan_formulation(self, rng):
        for _ in range(300):
            n = rng.randint(1, 9)
            g = helpers.random_graph(n, 0.4, rng)
            k = rng.randint(1, 4)
            c = Colouring.of([rng.randrange(k) for _ in range(n)], k=k)
            assert is_rs(g, c) == helpers.rs_violations_by_paths(g, c)


class TestStar:
    def test_c4_alternating_rejected(self):
        assert not is_star(cycle_graph(4), Colouring.of([0, 1, 0, 1], k=2))

    def test_matches_class_pair_oracle(self, rng):
        # random colourings, improper ones included, and random proper ones
        outcomes = set()
        for _ in range(1500):
            n = rng.randint(1, 9)
            g = helpers.random_graph(n, rng.choice([0.2, 0.4, 0.6]), rng)
            k = rng.randint(1, 5)
            colours = [rng.randrange(k) for _ in range(n)]
            if rng.random() < 0.7:
                for v in rng.sample(range(n), n):
                    taken = {colours[u] for u in g.neighbours(v)}
                    free = [c for c in range(n) if c not in taken]
                    colours[v] = rng.choice(free[:k + 1])
            c = Colouring.of(colours)
            expected = helpers.class_pair_is_star(g, c)
            assert is_star(g, c) == expected
            outcomes.add((is_proper(g, c), expected))
        assert outcomes == {(False, False), (True, False), (True, True)}

    def test_every_rs_colouring_is_star(self, rng):
        found = 0
        while found < 40:
            g = helpers.random_graph(rng.randint(2, 7), 0.4, rng)
            for c in itertools.islice(enumerate_k_rs(g, 3), 3):
                assert is_star(g, c)
                found += 1

    def test_published_3_star_colouring_of_reduction_graph(self):
        # the reduction graph of the four-clause formula with the 3-star
        # colouring built from a 4-colouring of the variable-overlap graph
        from rscol.constructions import sat_to_graph

        f = helpers.unsat_cubic_formula()
        gg = sat_to_graph(f)
        phi = [0] * gg.graph.n
        x_cols = {1: 0, 2: 0, 3: 1, 4: 1}  # binary-compressed 4-colouring
        for i, v in gg.x.items():
            phi[v] = x_cols[i]
        for v in gg.y.values():
            phi[v] = 2
        for j, slots in gg.clause_slots.items():
            cols = [1 - x_cols[var] for var in slots]
            for k in range(1, 4):
                phi[gg.c[(j, k)]] = cols[k - 1]
            if cols.count(0) == 1:  # one corner coloured 0: b after it 2, opposite 0
                r = cols.index(0)
                b_vals = {0: 2, 1: 0, 2: 2}
            else:  # one corner coloured 1: b opposite it 1, others 2
                r = cols.index(1)
                b_vals = {0: 2, 1: 1, 2: 2}
            for off in range(3):
                phi[gg.b[(j, (r + off) % 3 + 1)]] = b_vals[off]
        colouring = Colouring.of(phi, k=3)
        assert is_star(gg.graph, colouring)
        assert not is_rs(gg.graph, colouring)  # chi_rs of this graph exceeds 3


class TestOrdered:
    def test_p3_middle_higher(self):
        assert is_ordered(path_graph(3), Colouring.of([0, 1, 0], k=2))

    def test_p3_endpoints_higher(self):
        assert not is_ordered(path_graph(3), Colouring.of([1, 0, 1], k=2))

    def test_matches_explicit_path_check(self, rng):
        def by_paths(g, c):
            if not is_proper(g, c):
                return False
            for length in range(2, g.n + 1):
                for p in iter_paths(g, length):
                    if c[p[0]] == c[p[-1]] and all(c[v] <= c[p[0]] for v in p[1:-1]):
                        return False
            return True

        for _ in range(120):
            n = rng.randint(1, 7)
            g = helpers.random_graph(n, 0.45, rng)
            k = rng.randint(1, n + 1)
            c = Colouring.of([rng.randrange(k) for _ in range(n)], k=k)
            assert is_ordered(g, c) == by_paths(g, c), (list(g.edges()), c.colours)


class TestColourValueScale:
    def test_ordered_and_cobip_walk_only_the_colours_in_use(self):
        # one list per colour value up to 400,000 took 26 MB and seconds under tracemalloc
        g = path_graph(2)
        c = Colouring.of([0, 400_000])
        tracemalloc.start()
        try:
            ok = is_ordered(g, c)
            ordered = star_to_ordered_cobipartite(g, CoBipartitePartition((0,), (1,)), c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok and ordered == Colouring((0, 1), 2)
        assert peak < 2**20

    def test_colour_classes_in_increasing_colour(self):
        assert Colouring.of([5, 0, 5, 2]).colour_classes() == {0: [1], 2: [3], 5: [0, 2]}
        assert list(Colouring.of([5, 0, 5, 2]).colour_classes()) == [0, 2, 5]


class TestDistanceTwo:
    def test_star_all_distinct(self):
        assert is_distance_two(star_graph(3), Colouring.of([0, 1, 2, 3], k=4))

    def test_star_shared_leaves(self):
        assert not is_distance_two(star_graph(3), Colouring.of([0, 1, 2, 1], k=3))


class TestContainmentChain:
    def test_distance_two_implies_rs_implies_star_implies_proper(self, rng):
        for _ in range(400):
            n = rng.randint(1, 10)
            g = helpers.random_graph(n, 0.35, rng)
            k = rng.randint(1, n + 1)
            c = Colouring.of([rng.randrange(k) for _ in range(n)], k=k)
            if is_distance_two(g, c):
                assert is_rs(g, c)
            if is_rs(g, c):
                assert is_star(g, c)
            if is_star(g, c):
                assert is_proper(g, c)


class TestPropertiesP:
    def test_dart_all_pass(self):
        report = check_properties_P(helpers.dart(), helpers.dart_colouring())
        assert report.all_pass()

    def test_all_pass_on_solver_witnesses(self, rng):
        seen = 0
        while seen < 30:
            g = helpers.random_graph(rng.randint(2, 8), 0.3, rng)
            result = decide_k_rs(g, 3)
            if result.status is SolveStatus.YES:
                assert check_properties_P(g, result.witness).all_pass()
                seen += 1

    def test_precondition_enforced(self):
        with pytest.raises(ColouringError):
            check_properties_P(path_graph(3), Colouring.of([0, 1, 0], k=3))

    def test_colour_propagation(self, rng):
        # every accepted 3-rs colouring: path u,v,w,x coloured 0,1 forces 2,0
        seen = 0
        while seen < 25:
            g = helpers.random_graph(rng.randint(4, 8), 0.35, rng)
            result = decide_k_rs(g, 3)
            if result.status is not SolveStatus.YES:
                continue
            seen += 1
            c = result.witness
            for p in iter_paths(g, 4):
                for u, v, w, x in (p, p[::-1]):
                    if c[u] == 0 and c[v] == 1:
                        assert c[w] == 2 and c[x] == 0


class TestCombiningSubcolourings:
    def _components_after_edge_cut(self, g, u1, u2):
        side = {u1}
        stack = [u1]
        while stack:
            a = stack.pop()
            for b in g.neighbours(a):
                if (a, b) in ((u1, u2), (u2, u1)):
                    continue
                if b not in side:
                    side.add(b)
                    stack.append(b)
        return side

    def test_joining_at_edge(self, rng):
        for _ in range(40):
            n = rng.randint(4, 9)
            t = helpers.random_tree(n, rng)
            u1, u2 = next(iter(t.edges()))
            side1 = self._components_after_edge_cut(t, u1, u2)
            keep1 = sorted(side1 | {u2})
            keep2 = sorted((set(range(n)) - side1) | {u1})
            g1, ids1 = helpers.induced_subgraph(t, keep1)
            g2, ids2 = helpers.induced_subgraph(t, keep2)
            r1 = decide_k_rs(g1, 3)
            if r1.status is not SolveStatus.YES:
                continue
            f1 = r1.witness
            # ask for a colouring of side 2 agreeing on the shared edge
            shared = {
                ids2.index(u1): f1[ids1.index(u1)],
                ids2.index(u2): f1[ids1.index(u2)],
            }
            r2 = decide_k_rs(g2, 3, pre=PartialColouring.of(g2.n, shared, 3))
            if r2.status is not SolveStatus.YES:
                continue
            f2 = r2.witness
            combined = [0] * n
            for new, old in enumerate(ids1):
                combined[old] = f1[new]
            for new, old in enumerate(ids2):
                combined[old] = f2[new]
            assert is_rs(t, Colouring.of(combined, k=3))

    def test_joining_at_vertex(self, rng):
        for _ in range(40):
            n = rng.randint(4, 9)
            t = helpers.random_tree(n, rng)
            v = max(range(n), key=t.degree)
            if t.degree(v) < 2:
                continue
            first = self._components_after_edge_cut(t, list(t.neighbours(v))[0], v) - {v}
            keep1 = sorted(first | {v})
            keep2 = sorted((set(range(n)) - first))
            g1, ids1 = helpers.induced_subgraph(t, keep1)
            g2, ids2 = helpers.induced_subgraph(t, keep2)
            r1 = decide_k_rs(g1, 3, pre=PartialColouring.of(g1.n, {ids1.index(v): 0}, 3))
            r2 = decide_k_rs(g2, 3, pre=PartialColouring.of(g2.n, {ids2.index(v): 0}, 3))
            if r1.status is not SolveStatus.YES or r2.status is not SolveStatus.YES:
                continue
            combined = [0] * n
            for new, old in enumerate(ids1):
                combined[old] = r1.witness[new]
            for new, old in enumerate(ids2):
                combined[old] = r2.witness[new]
            assert is_rs(t, Colouring.of(combined, k=3))


class TestFileFormat:
    def test_roundtrip(self):
        c = helpers.dart_colouring()
        again = parse_colouring(io.StringIO(format_colouring(c)), 5)
        assert again.colours == c.colours

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 40), max_size=30))
    @example([])
    @example([0])
    @example([3])
    def test_parse_inverts_format(self, colours):
        # parse_colouring takes k from the largest colour, as Colouring.of does
        c = Colouring.of(colours)
        assert parse_colouring(io.StringIO(format_colouring(c)), len(c)) == c

    def test_errors(self):
        with pytest.raises(ColouringError, match=":1"):
            parse_colouring(io.StringIO("1 0 9\n"), 2)
        with pytest.raises(ColouringError, match="without colour"):
            parse_colouring(io.StringIO("1 0\n"), 2)
        with pytest.raises(ColouringError, match="twice"):
            parse_colouring(io.StringIO("1 0\n1 1\n2 0\n"), 2)

    def test_negative_colour_names_its_line(self):
        with pytest.raises(ColouringError, match=r"^f:2: negative colour$"):
            parse_colouring(io.StringIO("1 0\n2 -1\n"), 2, "f")
        with pytest.raises(ColouringError, match=r"^f:2: negative colour$"):
            parse_partial_colouring(io.StringIO("1 0\n2 -1\n"), 2, 3, "f")
        with pytest.raises(ColouringError, match=r"^pre.col:2: colour 5 outside 0..2$"):
            parse_partial_colouring(io.StringIO("1 0\n2 5\n"), 2, 3, "pre.col")
