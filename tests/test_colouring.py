import itertools
import random
import re
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from rscol import colouring
from rscol.colouring import (
    Colouring,
    ColouringError,
    PartialColouring,
    PropertyReport,
    check_properties_P,
    find_proper_violation,
    find_rs_violation,
    format_colouring,
    is_distance_two,
    is_ordered,
    is_proper,
    is_rs,
    is_star,
    parse_colouring,
    parse_partial_colouring,
)
from rscol.constructions import (
    CoBipartitePartition,
    assignment_to_3rs_colouring,
    sat_to_graph,
    star_to_ordered_cobipartite,
)
from rscol.graph import Graph, cycle_graph, path_graph, star_graph, subdivide_all_edges
from rscol.hessian import greedy_rs_colouring
from rscol.solver import SolveBudget, SolveStatus, decide_k_rs, enumerate_k_rs


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


# -- the numpy verifiers against the scans they replaced ----------------------------


@st.composite
def coloured_graphs(draw):
    """A graph on 0 to 300 vertices, isolated vertices included, and a colouring
    of it: one colour with k = 1, a few colours, a few colours with gaps and
    values up to 3n + 9 (so past n), colours beyond int64, or a greedy rs
    colouring with one vertex recoloured; k may exceed the largest colour."""
    n = draw(st.one_of(st.integers(0, 12), st.integers(2, 300)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    degree = draw(st.sampled_from([0.0, 1.0, 3.0, 8.0]))
    g = helpers.random_graph(n, min(1.0, degree / max(n - 1, 1)), rng)
    kind = draw(st.sampled_from(["one", "few", "gaps", "huge", "rs"]))
    if kind == "one":
        colours = [0] * n
    elif kind == "rs":
        colours = list(greedy_rs_colouring(g).colours)
        if n and rng.random() < 0.7:
            colours[rng.randrange(n)] = rng.randrange(max(colours) + 2)
    else:
        palette = {
            "few": lambda: list(range(rng.randint(1, 6))),
            "gaps": lambda: rng.sample(range(3 * n + 10), rng.randint(1, 8)),
            "huge": lambda: [rng.randrange(2**70) for _ in range(rng.randint(1, 5))],
        }[kind]()
        colours = [rng.choice(palette) for _ in range(n)]
    k = max(colours, default=0) + 1 + draw(st.sampled_from([0, 0, 1, 7]))
    return g, Colouring.of(colours, k)


class TestVerifiersAgainstScans:
    @settings(max_examples=300, deadline=None)
    @given(coloured_graphs())
    @example((Graph.from_edge_list(0, []), Colouring.of([], k=0)))
    @example((Graph.from_edge_list(4, []), Colouring.of([0, 0, 0, 0], k=1)))
    @example((Graph.from_edge_list(4, [(1, 2)]), Colouring.of([3, 0, 0, 9], k=10)))
    @example((star_graph(3), Colouring.of([2**64, 0, 2**70, 0])))
    # colours past n: the keys 0·4 + 5 and 1·4 + 1 of two rows must not meet
    @example((Graph.from_edge_list(4, [(0, 2), (1, 3)]), Colouring.of([10, 10, 5, 1])))
    def test_same_witness_as_the_scans(self, graph_and_colouring):
        g, c = graph_and_colouring
        witness = find_rs_violation(g, c)
        assert witness == helpers.scan_find_rs_violation(g, c)
        assert find_proper_violation(g, c) == helpers.scan_find_proper_violation(g, c)
        assert is_rs(g, c) == (witness is None)
        assert is_proper(g, c) == (find_proper_violation(g, c) is None)
        assert witness is None or all(type(v) is int for v in witness)

    def test_first_repeat_in_row_order_with_its_first_arc(self):
        # rows 2 and 3 both repeat; row 2's middle comes first, and its colour 0 pair
        # (0, 1) is met before its colour 1 pair (4, 5) and names its first arc, 0
        g = Graph.from_edge_list(7, [(2, 0), (2, 1), (2, 4), (2, 5), (2, 6), (3, 0), (3, 1)])
        c = Colouring.of([0, 0, 3, 2, 1, 1, 0])
        assert find_rs_violation(g, c) == (0, 2, 1) == helpers.scan_find_rs_violation(g, c)
        # in one row, colour 1 repeats at the third arc before colour 0 does at the fourth
        g = star_graph(4)
        c = Colouring.of([2, 0, 1, 1, 0])
        assert find_rs_violation(g, c) == (2, 0, 3) == helpers.scan_find_rs_violation(g, c)

    def test_domain_mismatch(self):
        with pytest.raises(ColouringError):
            find_rs_violation(path_graph(3), Colouring.of([0, 1], k=2))


class TestStarAndDistanceTwoAgainstScans:
    @settings(max_examples=300, deadline=None)
    @given(coloured_graphs())
    @example((cycle_graph(4), Colouring.of([0, 1, 0, 1])))
    @example((star_graph(3), Colouring.of([0, 1, 1, 2])))
    @example((Graph.from_edge_list(0, []), Colouring.of([], k=0)))
    def test_same_answer_as_the_scans(self, graph_and_colouring):
        g, c = graph_and_colouring
        assert is_star(g, c) == helpers.scan_is_star(g, c) == helpers.class_pair_is_star(g, c)
        assert is_distance_two(g, c) == helpers.scan_is_distance_two(g, c)

    @pytest.mark.parametrize("g, colours, star, distance_two", [
        (cycle_graph(4), [0, 1, 0, 1], False, False),
        (cycle_graph(4), [0, 1, 0, 2], True, False),
        (star_graph(3), [0, 1, 1, 2], True, False),  # two leaves share colour 1
        (star_graph(3), [0, 1, 2, 3], True, True),
        (path_graph(2), [0, 0], False, False),
        (Graph.from_edge_list(0, []), [], True, True),
    ], ids=["c4-alternating", "c4-three-colours", "star-shared-leaves", "star-distinct",
            "monochromatic-edge", "empty"])
    def test_examples(self, g, colours, star, distance_two):
        c = Colouring.of(colours)
        assert (is_star(g, c), is_distance_two(g, c)) == (star, distance_two)
        assert (helpers.scan_is_star(g, c), helpers.scan_is_distance_two(g, c)) == (star, distance_two)


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
                for p in helpers.iter_paths(g, length):
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
            for p in helpers.iter_paths(g, 4):
                for u, v, w, x in (p, p[::-1]):
                    if c[u] == 0 and c[v] == 1:
                        assert c[w] == 2 and c[x] == 0


def _property_outcome(check, g, c):
    """The report of `check` on (g, c), or the message of the ColouringError it raises."""
    try:
        return check(g, c)
    except ColouringError as exc:
        return str(exc)


@st.composite
def property_instances(draw):
    """A graph and a colouring for the Observation-2 checkers: a random graph on
    6 to 12 vertices, a subdivided random tree, or a 1-in-3 SAT gadget, each
    with a 3-rs colouring (a solver witness under a random one-vertex
    precolouring, or the gadget's colouring of a planted assignment), which is
    then kept, given one random recolouring (often not rs), or given a budget k
    other than 3."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "subdivided-tree", "sat"]))
    if kind == "sat":
        f, assignment = helpers.random_planted_cnf(rng, rng.randint(4, 7), rng.randint(1, 3))
        gg = sat_to_graph(f, variant=draw(st.sampled_from(["basic", "girth"])))
        g, c = gg.graph, assignment_to_3rs_colouring(f, gg, assignment)
    else:
        if kind == "random":
            n = rng.randint(6, 12)
            g = helpers.random_graph(n, rng.choice([0.2, 0.35, 0.5]), rng)
        else:
            g = subdivide_all_edges(helpers.random_tree(rng.randint(2, 14), rng))[0]
        v = rng.randrange(g.n)
        pre = PartialColouring.of(g.n, {v: rng.randrange(3)}, 3)
        result = decide_k_rs(g, 3, pre=pre, budget=SolveBudget(max_nodes=200_000))
        if result.status is SolveStatus.YES:
            c = result.witness
        else:
            c = Colouring.of([rng.randrange(3) for _ in range(g.n)], 3)
    change = draw(st.sampled_from(["keep", "recolour", "budget"]))
    if change == "recolour" and g.n:
        colours = list(c.colours)
        colours[rng.randrange(g.n)] = rng.randrange(3)
        c = Colouring.of(colours, 3)
    elif change == "budget":
        c = Colouring.of(c.colours, draw(st.sampled_from([max(c.colours) + 1, 4, 7])))
    return g, c


class TestPropertiesAgainstScan:
    """check_properties_P, which checks rs, against the scan of every 3-, 4- and
    6-vertex path it replaced (helpers.scan_check_properties_P)."""

    def test_every_graph_up_to_five_vertices(self):
        # 1,100 labelled graphs and their 17,408 3-rs colourings, about 2 s
        for n in range(6):
            pairs = list(itertools.combinations(range(n), 2))
            for chosen in itertools.product([False, True], repeat=len(pairs)):
                g = Graph.from_edge_list(n, list(itertools.compress(pairs, chosen)))
                for c in enumerate_k_rs(g, 3):
                    report = check_properties_P(g, c)
                    assert report == helpers.scan_check_properties_P(g, c), (n, chosen, c)
                    assert report.all_pass()

    @settings(max_examples=300, deadline=None)
    @given(property_instances())
    def test_matches_scan(self, instance):
        g, c = instance
        got = _property_outcome(check_properties_P, g, c)
        assert got == _property_outcome(helpers.scan_check_properties_P, g, c)
        assert isinstance(got, str) or got.all_pass()

    @pytest.mark.parametrize("g, colours, k, message", [
        (path_graph(3), [0, 1, 0], 3, "property check requires an accepted 3-rs colouring"),
        (path_graph(3), [0, 0, 1], 3, "property check requires an accepted 3-rs colouring"),
        (path_graph(3), [1, 0, 1], 2, "property check requires a 3-colour budget"),
        (path_graph(3), [1, 0, 1], 4, "property check requires a 3-colour budget"),
        (path_graph(3), [0, 1, 0], 2, "property check requires a 3-colour budget"),
    ], ids=["rs-path", "improper", "k2", "k4", "k2-not-rs"])
    def test_preconditions_raise_as_the_scan_does(self, g, colours, k, message):
        c = Colouring.of(colours, k)
        for check in (check_properties_P, helpers.scan_check_properties_P):
            with pytest.raises(ColouringError) as exc:
                check(g, c)
            assert str(exc.value) == message

    def test_large_star_in_one_pass(self):
        # the path scan took 5.9 s on 2,000 leaves: its 4-vertex paths grow as the square
        g = star_graph(10_000)
        c = Colouring.of([0] + [1] * 10_000, 3)
        start = time.perf_counter()
        report = check_properties_P(g, c)
        assert time.perf_counter() - start < 1.0
        assert report == PropertyReport()


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
        again = parse_colouring(format_colouring(c), 5)
        assert again.colours == c.colours

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 40), max_size=30))
    @example([])
    @example([0])
    @example([3])
    def test_parse_inverts_format(self, colours):
        # parse_colouring takes k from the largest colour, as Colouring.of does
        c = Colouring.of(colours)
        assert parse_colouring(format_colouring(c), len(c)) == c

    @pytest.mark.parametrize("text", ["1 0\n2 1_0\n", "1 0\n0_2 1\n"])
    def test_digit_separator_rejected_at_its_line(self, text):
        # int() reads 1_0 as 10
        with pytest.raises(ColouringError, match=r"^f:2: non-integer field$"):
            parse_colouring(text, 2, "f")
        with pytest.raises(ColouringError, match=r"^f:2: non-integer field$"):
            parse_partial_colouring(text, 2, 11, "f")

    def test_errors(self):
        with pytest.raises(ColouringError, match=":1"):
            parse_colouring("1 0 9\n", 2)
        with pytest.raises(ColouringError, match="without colour"):
            parse_colouring("1 0\n", 2)
        with pytest.raises(ColouringError, match="twice"):
            parse_colouring("1 0\n1 1\n2 0\n", 2)

    def test_negative_colour_names_its_line(self):
        with pytest.raises(ColouringError, match=r"^f:2: negative colour$"):
            parse_colouring("1 0\n2 -1\n", 2, "f")
        with pytest.raises(ColouringError, match=r"^f:2: negative colour$"):
            parse_partial_colouring("1 0\n2 -1\n", 2, 3, "f")
        with pytest.raises(ColouringError, match=r"^pre.col:2: colour 5 outside 0..2$"):
            parse_partial_colouring("1 0\n2 5\n", 2, 3, "pre.col")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 40), max_size=30))
    def test_format_as_one_f_string_per_line(self, colours):
        c = Colouring.of(colours)
        assert format_colouring(c) == helpers.line_formatted_colouring(c)

    def test_format_huge_colour(self):
        c = Colouring.of([2**70, 0])
        assert format_colouring(c) == helpers.line_formatted_colouring(c) == f"1 {2**70}\n2 0\n"


def not_scanned():
    """The line scanner replaced by a failure, so a parse must take the whole-file path."""
    return mock.patch.object(colouring, "_scan_colouring",
                             side_effect=AssertionError("the line scanner ran"))


LINE_SPELLINGS = st.sampled_from(["{} {}", "{} {}", "0{} {}", "{}\t{}", " {}  {} ", "{} 00{}"])


class TestWholeFileReader:
    """A whole file takes the numpy path, and the line scanner reads the same
    colouring from its lines."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 40), max_size=40), st.randoms(use_true_random=False),
           LINE_SPELLINGS, st.sampled_from(["", "\n", "\n\n"]))
    def test_full_colouring_in_any_order(self, colours, rnd, spelling, end):
        lines = [spelling.format(v + 1, col) for v, col in enumerate(colours)]
        rnd.shuffle(lines)
        text = "\n".join(lines) + end
        with not_scanned():
            whole = parse_colouring(text, len(colours))
        scanned = colouring._scan_colouring(text.split("\n"), len(colours), "<colouring>")
        assert whole == Colouring.of(colours) == scanned
        assert all(type(col) is int for col in whole.colours)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 30), st.integers(1, 6), st.data())
    def test_partial_colouring_in_any_order(self, n, k, data):
        assigned = data.draw(st.dictionaries(st.integers(0, max(n - 1, 0)), st.integers(0, k - 1),
                                             max_size=n))
        lines = [f"{v + 1} {col}" for v, col in assigned.items()]
        text = "\n".join(lines) + "\n"
        with not_scanned():
            whole = parse_partial_colouring(text, n, k)
        assert whole == PartialColouring.of(n, assigned, k)
        assert whole == colouring._scan_colouring(text.split("\n"), n, "<colouring>", k)

    @pytest.mark.parametrize("text, error", [
        ("1 0\n2 1\nc note\n", None),
        ("1 0\n2 1 0\n", "f:2: expected '<vertex> <colour>'"),
        ("2 1\n3 0\n", "f:2: vertex 3 outside 1..2"),
        ("2 1\n2 0\n", "f:2: vertex 2 coloured twice"),
        ("2 1\n", "f: vertices without colour: [1]"),
        ("1 0\n2 1_0\n", "f:2: non-integer field"),
        ("1 0\n2 99999999999999999999\n", None),
        ("1 0\n+2 1\n", None),
    ])
    def test_other_files_go_to_the_scanner(self, text, error):
        if error is None:
            assert parse_colouring(text, 2, "f") == colouring._scan_colouring(text.split("\n"), 2, "f")
        else:
            with pytest.raises(ColouringError, match=f"^{re.escape(error)}$"):
                parse_colouring(text, 2, "f")

    def test_partial_budget_goes_to_the_scanner(self):
        with pytest.raises(ColouringError, match=r"^f:3: colour 3 outside 0..2$"):
            parse_partial_colouring("1 0\n2 2\n3 3\n", 4, 3, "f")
