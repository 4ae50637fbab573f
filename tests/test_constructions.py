import io
import itertools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from rscol.colouring import Colouring, is_ordered, is_proper, is_rs
from rscol.constructions import (
    CnfError,
    CoBipartitePartition,
    PositiveCnf,
    SplitPartition,
    assignment_to_3rs_colouring,
    colouring_lift,
    colouring_to_assignment,
    decide_2_rs,
    edge_blowup,
    enumerate_one_in_three_assignments,
    format_cnf,
    g_plus,
    parse_cnf,
    rs_to_proper_extraction,
    sat_to_graph,
    split_alpha,
    split_rs_chromatic,
    star_to_ordered_cobipartite,
    upper_bound_colouring,
)
from rscol.graph import (
    Graph,
    GraphError,
    complete_graph,
    cycle_graph,
    girth,
    is_bipartite,
    path_graph,
    star_graph,
)
from rscol.solver import (
    SolveStatus,
    decide_k_rs,
    decide_k_star,
    enumerate_k_rs,
    max_independent_set,
    rs_chromatic_number,
    star_chromatic_number,
)


class TestDecide2Rs:
    def test_star_union(self):
        g = Graph.from_edge_list(5, [(0, 1), (0, 2), (0, 3)])  # K_{1,3} + K1
        assert decide_2_rs(g)

    def test_p4(self):
        assert not decide_2_rs(path_graph(4))

    def test_dart(self):
        assert not decide_2_rs(helpers.dart())

    def test_matches_solver(self, rng):
        for _ in range(60):
            g = helpers.random_graph(rng.randint(1, 7), 0.3, rng)
            assert decide_2_rs(g) == (decide_k_rs(g, 2).status is SolveStatus.YES)

    def test_matches_component_oracle(self, rng):
        # beyond the exact solver's reach: n up to 30, sparse enough to hold stars
        for _ in range(400):
            n = rng.randint(0, 30)
            g = helpers.random_graph(n, rng.choice((0.02, 0.05, 0.1, 0.3)), rng)
            assert decide_2_rs(g) == helpers.component_decide_2_rs(g), list(g.edges())

    def test_star_forests_match_component_oracle(self, rng):
        # unions of stars (all YES), then one extra edge (mostly NO)
        for _ in range(200):
            edges, n = [], 0
            for _ in range(rng.randint(1, 6)):
                leaves = rng.randint(0, 5)
                edges += [(n, n + i + 1) for i in range(leaves)]
                n += leaves + 1
            g = Graph.from_edge_list(n, edges)
            assert decide_2_rs(g) and helpers.component_decide_2_rs(g)
            u, v = rng.sample(range(n), 2) if n >= 2 else (0, 0)
            if u != v:
                h = Graph.from_edge_list(n, edges + [(u, v)])
                assert decide_2_rs(h) == helpers.component_decide_2_rs(h), list(h.edges())


class TestGPlus:
    def test_c4(self):
        plus = g_plus(cycle_graph(4))
        degrees = sorted(plus.degree(v) for v in range(plus.n))
        assert set(degrees) == {1, 3}
        assert all(plus.degree(v) == 3 for v in range(4))

    def test_k1(self):
        plus = g_plus(Graph.from_edge_list(1, []))
        assert plus.n == 2 and plus.degree(0) == 1

    def test_shifts_rs_colourability(self, rng):
        checked = 0
        while checked < 40:
            g = helpers.random_graph(rng.randint(3, 8), 0.35, rng)
            k = g.max_degree()
            if k not in (2, 3):
                continue
            checked += 1
            lhs = decide_k_rs(g, k).status
            rhs = decide_k_rs(g_plus(g), k + 1).status
            assert lhs == rhs


class TestUpperBoundColouring:
    def test_c5(self):
        g = cycle_graph(5)
        c = upper_bound_colouring(g, [0, 2])
        assert c.k == 4
        assert is_rs(g, c)

    def test_k1(self):
        c = upper_bound_colouring(Graph.from_edge_list(1, []), [0])
        assert c.colours == (0,)

    def test_bound_with_maximum_set(self, rng):
        for _ in range(25):
            g = helpers.random_graph(rng.randint(1, 8), 0.4, rng)
            members = max_independent_set(g)
            c = upper_bound_colouring(g, members)
            assert is_rs(g, c)
            assert c.k == g.n - len(members) + 1
            assert rs_chromatic_number(g) <= c.k

    def test_rejects_dependent_set(self):
        with pytest.raises(GraphError):
            upper_bound_colouring(path_graph(3), [0, 1])


class TestSplitGraphs:
    def test_triangle_with_pendants(self):
        g = Graph.from_edge_list(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
        p = SplitPartition((0, 1, 2), (3, 4, 5))
        assert split_rs_chromatic(g, p) == 4
        assert rs_chromatic_number(g) == 4

    def test_clique_only(self):
        g = complete_graph(5)
        assert split_rs_chromatic(g, SplitPartition(tuple(range(5)), ())) == 5

    def test_star(self):
        g = star_graph(4)
        assert split_rs_chromatic(g, SplitPartition((0,), (1, 2, 3, 4))) == 2

    def test_alpha_formula(self, rng):
        for _ in range(60):
            g, clique, independent = helpers.random_split(rng.randint(1, 9), rng)
            p = SplitPartition(clique, independent)
            assert split_alpha(g, p) == helpers.brute_max_independent_set_size(g)

    def test_partition_validated(self):
        with pytest.raises(GraphError):
            split_rs_chromatic(path_graph(3), SplitPartition((0, 2), (1,)))


class TestSatGadgets:
    def test_four_clause_instance_counts(self):
        gg = sat_to_graph(helpers.unsat_cubic_formula())
        assert gg.graph.n == 40 and gg.graph.m == 48
        assert girth(gg.graph) == 6
        assert gg.graph.max_degree() == 3
        assert is_bipartite(gg.graph)
        assert helpers.peelable_2_degenerate(gg.graph)

    def test_single_clause_counts_by_construction(self):
        # intermediate graph: 3 variables + 3 corners, 6 edges; subdividing
        # adds one vertex per edge and doubles the edges
        gg = sat_to_graph(PositiveCnf.of(3, [(1, 2, 3)]))
        assert gg.graph.n == 6 + 6
        assert gg.graph.m == 12
        assert len(gg.y) == 3 and len(gg.b) == 3

    def test_girth_variant_structure(self):
        gg = sat_to_graph(helpers.unsat_cubic_formula(), variant="girth", s=2)
        assert girth(gg.graph) >= 16
        assert is_bipartite(gg.graph)
        assert gg.graph.max_degree() == 3
        assert helpers.peelable_2_degenerate(gg.graph)

    def test_girth_variant_larger_s(self):
        gg = sat_to_graph(PositiveCnf.of(3, [(1, 2, 3)]), variant="girth", s=4)
        assert girth(gg.graph) >= 2 * (3 * 4 + 2)

    def test_girth_variant_needs_even_s(self):
        with pytest.raises(ValueError):
            sat_to_graph(PositiveCnf.of(3, [(1, 2, 3)]), variant="girth", s=3)

    def test_forward_scheme_basic_gadget_values(self):
        # single clause with x1 true: corner after the 0-coloured one reads the
        # published interior values
        f = PositiveCnf.of(3, [(1, 2, 3)])
        gg = sat_to_graph(f)
        c = assignment_to_3rs_colouring(f, gg, {1: True, 2: False, 3: False})
        assert is_rs(gg.graph, c)
        assert c[gg.c[(1, 1)]] == 0
        assert c[gg.b[(1, 1)]] == 2
        assert c[gg.c[(1, 2)]] == 1
        assert c[gg.b[(1, 2)]] == 0
        assert c[gg.c[(1, 3)]] == 1
        assert c[gg.b[(1, 3)]] == 2
        assert all(c[v] == 2 for v in gg.y.values())

    def test_forward_scheme_rotation(self):
        # 0-coloured corner in each possible slot
        f = PositiveCnf.of(3, [(1, 2, 3)])
        gg = sat_to_graph(f)
        for true_var in (1, 2, 3):
            assignment = {x: x == true_var for x in (1, 2, 3)}
            c = assignment_to_3rs_colouring(f, gg, assignment)
            assert is_rs(gg.graph, c)

    def test_forward_scheme_girth_column(self):
        f = PositiveCnf.of(3, [(1, 2, 3)])
        gg = sat_to_graph(f, variant="girth", s=2)
        c = assignment_to_3rs_colouring(f, gg, {1: True, 2: False, 3: False})
        assert is_rs(gg.graph, c)
        # side leaving the 0-coloured corner: interior pattern 2,1,0 repeating
        interior = gg.side_interiors[(1, 1)]
        assert [c[v] for v in interior] == [2, 1, 0, 2, 1, 0, 2]
        assert all(c[v] == 2 for v in gg.pendants.values())

    def test_forward_scheme_on_random_planted(self, rng):
        for _ in range(10):
            f, assignment = helpers.random_planted_cnf(rng, rng.randint(6, 9), rng.randint(3, 5))
            for variant in ("basic", "girth"):
                gg = sat_to_graph(f, variant=variant, s=2)
                c = assignment_to_3rs_colouring(f, gg, assignment)
                assert is_rs(gg.graph, c)

    def test_forward_requires_exactly_one_true(self):
        f = PositiveCnf.of(3, [(1, 2, 3)])
        gg = sat_to_graph(f)
        with pytest.raises(ValueError):
            assignment_to_3rs_colouring(f, gg, {1: True, 2: True, 3: False})

    def test_assignment_roundtrip(self, rng):
        f, assignment = helpers.random_planted_cnf(rng, 8, 5)
        gg = sat_to_graph(f)
        c = assignment_to_3rs_colouring(f, gg, assignment)
        if f.is_cubic():
            back = colouring_to_assignment(f, gg, c)
        else:
            with pytest.warns(UserWarning):
                back = colouring_to_assignment(f, gg, c)
        assert back == assignment

    def test_reverse_on_cubic_instance(self):
        # every 3-rs colouring of a small cubic-padded gadget decodes to an
        # exactly-one-true assignment
        f = PositiveCnf.of(3, [(1, 2, 3)])
        gg = sat_to_graph(f)
        from rscol.graph import attach_pendants

        padded = gg.graph
        for i in (1, 2, 3):
            padded = attach_pendants(padded, gg.x[i], 2)
        count = 0
        for w in enumerate_k_rs(padded, 3):
            count += 1
            restricted = Colouring.of([w[v] for v in range(gg.graph.n)], k=3)
            assignment = {i: restricted[gg.x[i]] == 1 for i in (1, 2, 3)}
            assert f.exactly_one_true(assignment)
        assert count > 0

    def test_unsat_instance_has_uncolourable_gadget(self):
        f = helpers.unsat_cubic_formula()
        assert enumerate_one_in_three_assignments(f) == []
        gg = sat_to_graph(f)
        assert decide_k_rs(gg.graph, 3).status is SolveStatus.NO


@st.composite
def positive_cnfs(draw) -> PositiveCnf:
    num_vars = draw(st.integers(1, 9))
    if num_vars < 3:
        return PositiveCnf.of(num_vars, [])
    clause = st.lists(st.integers(1, num_vars), min_size=3, max_size=3, unique=True)
    return PositiveCnf.of(num_vars, draw(st.lists(clause, max_size=12)))


class TestCnfFormat:
    def test_roundtrip(self):
        f = helpers.unsat_cubic_formula()
        again = parse_cnf(io.StringIO(format_cnf(f)))
        assert again == f

    @settings(max_examples=200, deadline=None)
    @given(positive_cnfs())
    @example(PositiveCnf.of(1, []))
    @example(PositiveCnf.of(9, []))
    def test_parse_inverts_format(self, f):
        assert parse_cnf(io.StringIO(format_cnf(f))) == f

    def test_rejects_negative_literal_with_line(self):
        with pytest.raises(CnfError, match=":2"):
            parse_cnf(io.StringIO("p cnf 3 1\n1 -2 3 0\n"))

    def test_rejects_short_clause(self):
        with pytest.raises(CnfError, match="3 distinct"):
            parse_cnf(io.StringIO("p cnf 3 1\n1 2 0\n"))

    def test_rejects_missing_terminator(self):
        with pytest.raises(CnfError, match="end with 0"):
            parse_cnf(io.StringIO("p cnf 3 1\n1 2 3\n"))

    @pytest.mark.parametrize("text, message", [
        ("p cnf 3 1\n1 2 3 0\np cnf 6 1\n", "f:3: duplicate problem line"),
        ("p cnf 3 0\np cnf 3 0\n", "f:2: duplicate problem line"),
        ("p cnf -1 1\n1 2 3 0\n", "f:1: negative variable count"),
        ("p cnf -3 0\n", "f:1: negative variable count"),
        ("c note\np cnf 3 -1\n", "f:2: negative clause count"),
        ("p cnf 0 0\n", "f:1: formula needs at least one variable"),
        ("p cnf 0 1\n1 2 3 0\n", "f:1: formula needs at least one variable"),
        ("p cnf 0 -1\n", "f:1: negative clause count"),
    ])
    def test_rejects_bad_problem_line_at_its_line(self, text, message):
        with pytest.raises(CnfError, match=f"^{re.escape(message)}$"):
            parse_cnf(io.StringIO(text), "f")


class TestEdgeBlowup:
    def test_k3_counts(self):
        bu = edge_blowup(complete_graph(3))
        assert bu.graph.n == 3 + 3 * 3
        assert is_bipartite(bu.graph)

    def test_single_edge(self):
        bu = edge_blowup(Graph.from_edge_list(2, [(0, 1)]))
        assert bu.graph.n == 4  # K_{2,2}

    def test_two_degenerate_ordering_originals_first(self, rng):
        g = helpers.random_graph(6, 0.5, rng)
        if g.m == 0:
            g = Graph.from_edge_list(6, [(0, 1)])
        bu = edge_blowup(g)
        # position = identity ordering (originals first): every vertex has at
        # most two earlier neighbours
        for v in range(bu.graph.n):
            earlier = sum(1 for w in bu.graph.neighbours(v) if w < v)
            assert earlier <= 2

    def test_lift_is_rs(self, rng):
        for _ in range(15):
            g = helpers.random_graph(rng.randint(2, 7), 0.5, rng)
            if g.m == 0:
                continue
            bu = edge_blowup(g)
            chi = helpers.brute_force_min_colours(g, is_proper)
            pc = _optimal_proper(g, chi)
            lifted = colouring_lift(g, bu, pc)
            assert lifted.k == chi + 1
            assert is_rs(bu.graph, lifted)

    def test_extraction_restriction_branch(self):
        # K3: 4-rs colourings of the blow-up always restrict to proper
        g = complete_graph(3)
        bu = edge_blowup(g)
        lifted = colouring_lift(g, bu, Colouring.of([0, 1, 2], k=3))
        extracted = rs_to_proper_extraction(g, bu, lifted)
        assert is_proper(g, extracted) and extracted.k == 3

    def test_extraction_greedy_branch(self):
        # k >= max_degree + 1 takes the greedy route
        g = path_graph(3)  # max degree 2
        bu = edge_blowup(g)
        pc = Colouring.of([0, 1, 2], k=3)
        lifted = colouring_lift(g, bu, pc)
        extracted = rs_to_proper_extraction(g, bu, lifted)
        assert is_proper(g, extracted) and extracted.k == 3

    def test_rejects_edgeless(self):
        with pytest.raises(GraphError):
            edge_blowup(Graph.from_edge_list(3, []))


def _optimal_proper(g, chi):
    for assignment in itertools.product(range(chi), repeat=g.n):
        c = Colouring.of(assignment, k=chi)
        if is_proper(g, c):
            return c
    raise AssertionError("chi was not achievable")


class TestCoBipartite:
    def test_k2(self):
        g = complete_graph(2)
        p = CoBipartitePartition((0,), (1,))
        out = star_to_ordered_cobipartite(g, p, Colouring.of([0, 1], k=2))
        assert is_ordered(g, out) and out.k == 2

    def test_conversion_preserves_colour_count(self, rng):
        for _ in range(20):
            g, side_a, side_b = helpers.random_cobipartite(rng.randint(2, 8), rng)
            p = CoBipartitePartition(side_a, side_b)
            k = star_chromatic_number(g)
            sc = decide_k_star(g, k).witness
            out = star_to_ordered_cobipartite(g, p, sc)
            assert is_ordered(g, out)
            assert out.k == k

    def test_rejects_non_star_input(self):
        # C4 with sides {0,1} and {2,3} is a valid co-bipartite partition, but
        # the alternating 2-colouring is not a star colouring
        g = cycle_graph(4)
        p = CoBipartitePartition((0, 1), (2, 3))
        with pytest.raises(ValueError, match="star"):
            star_to_ordered_cobipartite(g, p, Colouring.of([0, 1, 0, 1], k=2))

    def test_rejects_bad_partition(self):
        g = path_graph(4)
        p = CoBipartitePartition((0, 2), (1, 3))
        with pytest.raises(GraphError):
            star_to_ordered_cobipartite(g, p, Colouring.of([0, 1, 2, 3], k=4))
