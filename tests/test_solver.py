import random
import re
import time

import pytest

import helpers
from rscol import solver
from rscol.colouring import Colouring, PartialColouring, is_ordered, is_rs, is_star
from rscol.constructions import sat_to_graph
from rscol.graph import (
    Graph,
    attach_pendants,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    path_graph,
    star_graph,
)
from rscol.hessian import greedy_rs_colouring
from rscol.solver import (
    BudgetExceededError,
    SolveBudget,
    SolveStatus,
    _Search,
    decide_k_ordered,
    decide_k_rs,
    decide_k_star,
    enumerate_k_rs,
    max_independent_set,
    ordered_chromatic_number,
    rs_chromatic_number,
    star_chromatic_number,
)


class TestDecideKRs:
    def test_dart_3(self):
        result = decide_k_rs(helpers.dart(), 3)
        assert result.status is SolveStatus.YES
        assert is_rs(helpers.dart(), result.witness)

    def test_class_i_precolouring_has_no_extension(self):
        # centre coloured 1 with two leaves coloured 0 is a bicoloured P3
        g = star_graph(3)
        pre = PartialColouring.of(4, {0: 1, 1: 0, 2: 0, 3: 2}, 3)
        assert decide_k_rs(g, 3, pre=pre).status is SolveStatus.NO

    def test_p4_is_not_2_rs(self):
        assert decide_k_rs(path_graph(4), 2).status is SolveStatus.NO

    def test_monotone_in_k(self, rng):
        for _ in range(40):
            g = helpers.random_graph(rng.randint(1, 7), 0.4, rng)
            k = rng.randint(1, 4)
            if decide_k_rs(g, k).status is SolveStatus.YES:
                assert decide_k_rs(g, k + 1).status is SolveStatus.YES

    def test_matches_brute_force(self, rng):
        for _ in range(60):
            n = rng.randint(1, 6)
            g = helpers.random_graph(n, 0.45, rng)
            k = rng.randint(1, 4)
            expected = helpers.brute_force_exists(g, k, is_rs)
            assert (decide_k_rs(g, k).status is SolveStatus.YES) == expected

    def test_witnesses_satisfy_degree_restriction(self, rng):
        # a vertex coloured k-1 must have degree below k
        seen = 0
        while seen < 30:
            g = helpers.random_graph(rng.randint(2, 8), 0.35, rng)
            k = rng.randint(2, 4)
            result = decide_k_rs(g, k)
            if result.status is not SolveStatus.YES:
                continue
            seen += 1
            for v in range(g.n):
                if result.witness[v] == k - 1:
                    assert g.degree(v) < k

    def test_clique_degree_restriction(self, rng):
        # k-clique whose members all have degree >= k forces NO at k
        for k in (2, 3, 4):
            g = complete_graph(k)
            for v in range(k):
                g = attach_pendants(g, v, k - (k - 1))
            assert all(g.degree(v) >= k for v in range(k))
            assert decide_k_rs(g, k).status is SolveStatus.NO

    def test_precolouring_validated(self):
        with pytest.raises(ValueError):
            decide_k_rs(path_graph(3), 3, pre=PartialColouring.of(2, {0: 0}, 3))

    def test_budget_exceeded_is_distinct(self):
        g = hypercube_graph(4)
        result = decide_k_rs(g, 4, budget=SolveBudget(max_nodes=3, time_limit=60))
        assert result.status is SolveStatus.BUDGET_EXCEEDED

    @pytest.mark.parametrize("limits", [
        {"max_nodes": 0}, {"time_limit": 0}, {"time_limit": -1}, {"time_limit": float("nan")},
    ])
    def test_budget_refuses_non_positive_limits(self, limits):
        # NaN compares False against 0 both ways; accepted, it would never stop a search
        with pytest.raises(ValueError, match="budget limits must be positive"):
            SolveBudget(**limits)

    def test_enumeration_matches_brute_force(self, rng):
        import itertools

        for _ in range(25):
            n = rng.randint(1, 5)
            g = helpers.random_graph(n, 0.5, rng)
            k = rng.randint(1, 3)
            mine = {c.colours for c in enumerate_k_rs(g, k)}
            brute = {
                assignment
                for assignment in itertools.product(range(k), repeat=n)
                if is_rs(g, Colouring.of(assignment, k=k))
            }
            assert mine == brute


class TestChromaticNumbers:
    def test_hypercubes(self):
        assert rs_chromatic_number(hypercube_graph(2)) == 3
        assert rs_chromatic_number(hypercube_graph(3)) == 4

    def test_k1(self):
        assert rs_chromatic_number(Graph.from_edge_list(1, [])) == 1

    def test_split_instance(self):
        # triangle with one pendant per corner: n=6, alpha=3
        g = Graph.from_edge_list(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
        assert rs_chromatic_number(g) == 4

    def test_c4_star_and_ordered(self):
        assert star_chromatic_number(cycle_graph(4)) == 3
        assert ordered_chromatic_number(cycle_graph(4)) == 3

    def test_cliques(self):
        for n in (1, 2, 4):
            g = complete_graph(n)
            assert star_chromatic_number(g) == n
            assert ordered_chromatic_number(g) == n
            assert rs_chromatic_number(g) == n

    def test_greedy_clique_is_a_clique_no_larger_than_omega(self, rng):
        import networkx as nx

        for _ in range(300):
            g = helpers.random_graph(rng.randint(0, 14), rng.random(), rng)
            nxg = nx.Graph(list(g.edges()))
            nxg.add_nodes_from(range(g.n))
            omega = max((len(c) for c in nx.find_cliques(nxg)), default=0)
            assert min(g.n, 1) <= solver._greedy_clique_size(g) <= omega
        assert solver._greedy_clique_size(complete_graph(6)) == 6
        assert solver._greedy_clique_size(attach_pendants(complete_graph(4), 0, 3)) == 4

    def test_clique_floor_changes_no_answer(self, rng, monkeypatch):
        graphs = [helpers.random_graph(rng.randint(0, 7), rng.random(), rng) for _ in range(40)]
        graphs += [hypercube_graph(3), cycle_graph(5), complete_graph(4), Graph.from_edge_list(0, [])]
        with_floor = [(rs_chromatic_number(g), star_chromatic_number(g)) for g in graphs]
        monkeypatch.setattr(solver, "_greedy_clique_size", lambda g: 0)
        assert with_floor == [(rs_chromatic_number(g), star_chromatic_number(g)) for g in graphs]

    def test_no_decision_below_the_clique_floor(self, monkeypatch):
        tried = []
        decide = solver.decide_k_rs
        monkeypatch.setattr(solver, "decide_k_rs",
                            lambda g, k, budget: tried.append(k) or decide(g, k, budget=budget))
        # a triangle with one pendant per corner: omega 3, chi_rs 4
        g = Graph.from_edge_list(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
        assert rs_chromatic_number(g) == 4 and tried == [3, 4]

    def test_star_matches_brute_force(self, rng):
        for _ in range(20):
            g = helpers.random_graph(rng.randint(1, 5), 0.5, rng)
            assert star_chromatic_number(g) == helpers.brute_force_min_colours(g, is_star)

    def test_ordered_matches_recursive_ranking(self, rng):
        # independent oracle: rank(G) = min over v of 1 + max rank of G - v parts
        from functools import lru_cache

        def oracle(g):
            adj = {v: frozenset(g.neighbours(v)) for v in range(g.n)}

            @lru_cache(maxsize=None)
            def rank(vertices: frozenset) -> int:
                if not vertices:
                    return 0
                comps = []
                todo = set(vertices)
                while todo:
                    start = todo.pop()
                    comp = {start}
                    stack = [start]
                    while stack:
                        u = stack.pop()
                        for w in adj[u] & vertices:
                            if w not in comp:
                                comp.add(w)
                                stack.append(w)
                    todo -= comp
                    comps.append(frozenset(comp))
                if len(comps) > 1:
                    return max(rank(c) for c in comps)
                return 1 + min(rank(comps[0] - {v}) for v in comps[0])

            return rank(frozenset(range(g.n)))

        for _ in range(25):
            g = helpers.random_graph(rng.randint(1, 8), 0.4, rng)
            assert ordered_chromatic_number(g) == oracle(g)

    def test_budget_error(self):
        with pytest.raises(BudgetExceededError):
            rs_chromatic_number(
                hypercube_graph(3), budget=SolveBudget(max_nodes=2, time_limit=60)
            )


class TestStarSymmetryBreaking:
    def test_same_decisions_with_and_without(self, rng):
        # star search offers each vertex the colours in use plus one new colour;
        # the brute force over all k^n assignments breaks no symmetry
        outcomes = set()
        for _ in range(150):
            g = helpers.random_graph(rng.randint(1, 7), 0.5, rng)
            k = rng.randint(1, 4)
            result = decide_k_star(g, k)
            expected = helpers.brute_force_exists(g, k, helpers.class_pair_is_star)
            assert (result.status is SolveStatus.YES) == expected
            if expected:
                assert helpers.class_pair_is_star(g, result.witness)
            outcomes.add(expected)
        assert outcomes == {False, True}


class TestStarFeasible:
    def test_matches_path_walk_oracle(self, rng):
        # random proper partial colourings placed through _Search, so that the
        # counts star_feasible reads are the search's own
        outcomes = set()
        for _ in range(2000):
            n = rng.randint(1, 9)
            g = helpers.random_graph(n, rng.choice([0.3, 0.5, 0.7]), rng)
            k = rng.randint(1, 5)
            s = _Search(g, k, SolveBudget())
            for v in rng.sample(range(n), rng.randint(n // 2, n)):
                free = [c for c in range(k) if not s.cnt[v][c]]
                if free:
                    s.place(v, rng.choice(free))
            for v in range(n):
                if s.colour[v] != -1:
                    continue
                for col in range(k):
                    expected = not s.cnt[v][col] and not helpers.creates_bicoloured_p4(
                        s.adj, s.colour, v, col
                    )
                    assert s.star_feasible(v, col) == expected
                    outcomes.add((bool(s.cnt[v][col]), expected))
        assert outcomes == {(True, False), (False, False), (False, True)}


class TestVertexOrderPerDepth:
    """rs and star search pick each depth's vertex once; the engine that picked
    it at every node is the oracle, substituted for solver._run."""

    @staticmethod
    def both(monkeypatch, call):
        def outcome():
            try:
                return call()
            except BudgetExceededError as exc:
                return type(exc), str(exc)

        mine = outcome()
        with monkeypatch.context() as m:
            m.setattr(solver, "_run", helpers.per_node_run)
            return mine, outcome()

    @staticmethod
    def random_pre(n, k, rng):
        if k < 1 or rng.random() > 0.3:
            return None
        return PartialColouring.of(n, {v: rng.randrange(k) for v in rng.sample(range(n), n // 3)}, k)

    @pytest.mark.parametrize("max_nodes", [7, 10_000_000])
    def test_decisions_match_per_node_oracle(self, rng, monkeypatch, max_nodes):
        budget = SolveBudget(max_nodes=max_nodes)
        outcomes = set()
        for _ in range(150):
            n = rng.randint(0, 10)
            g = helpers.random_graph(n, rng.choice([0.2, 0.4, 0.6]), rng)
            for k in range(n + 2):
                pre = self.random_pre(n, k, rng)
                for call in (lambda: decide_k_rs(g, k, pre=pre, budget=budget),
                             lambda: decide_k_star(g, k, budget=budget)):
                    mine, oracle = self.both(monkeypatch, call)
                    assert (mine.status, mine.nodes, mine.witness) == (
                        oracle.status, oracle.nodes, oracle.witness)
                    outcomes.add(mine.status)
        assert len(outcomes) == (3 if max_nodes == 7 else 2)

    @pytest.mark.parametrize("max_nodes", [40, 10_000_000])
    def test_enumeration_matches_per_node_oracle(self, rng, monkeypatch, max_nodes):
        budget = SolveBudget(max_nodes=max_nodes)
        for _ in range(60):
            n = rng.randint(0, 7)
            g = helpers.random_graph(n, rng.choice([0.3, 0.5]), rng)
            k = rng.randint(0, 3)
            pre = self.random_pre(n, k, rng)
            mine, oracle = self.both(monkeypatch, lambda: list(enumerate_k_rs(g, k, pre, budget)))
            assert mine == oracle

    # Verdict and node count of 3-rs search on the reduction gadgets.  They pin the
    # search tree: a change of vertex order or pruning must update them on purpose.
    def test_girth_gadget_node_counts(self):
        rng = random.Random(1010)  # the formula sequence of test_acceptance c10
        counts = []
        for _ in range(7):
            f, _ = helpers.random_planted_cnf(rng, rng.randint(6, 10), rng.randint(3, 6))
            result = decide_k_rs(sat_to_graph(f, variant="girth", s=2).graph, 3)
            counts.append((result.status, result.nodes))
        yes = SolveStatus.YES
        assert counts == [(yes, 537), (yes, 569), (yes, 6962), (yes, 294779),
                          (yes, 1314), (yes, 1066), (yes, 45367)]

    def test_unsat_gadget_node_count(self):
        g = sat_to_graph(helpers.unsat_cubic_formula()).graph
        assert g.n == 40
        result = decide_k_rs(g, 3)
        assert (result.status, result.nodes) == (SolveStatus.NO, 221)


class TestOrderedDecision:
    def test_witnesses_verify(self, rng):
        for _ in range(30):
            g = helpers.random_graph(rng.randint(1, 7), 0.4, rng)
            k = rng.randint(1, 5)
            result = decide_k_ordered(g, k)
            if result.status is SolveStatus.YES:
                assert is_ordered(g, result.witness)

    def test_matches_backtracker_oracle(self, rng):
        graphs = [
            helpers.random_graph(rng.randint(1, 8), p, rng)
            for p in (0.2, 0.4, 0.6, 0.8)
            for _ in range(15)
        ]
        graphs += helpers.c13_cobipartite_graphs()
        for g in graphs:
            top = decide_k_ordered(g, g.n + 1).witness
            for k in range(1, g.n + 2):
                result = decide_k_ordered(g, k)
                assert result.status is helpers.backtrack_decide_k_ordered(g, k).status
                if result.status is SolveStatus.YES:
                    assert is_ordered(g, result.witness)
                    assert max(result.witness.colours) < k
                    assert result.witness.colours == top.colours

    def test_budget_exceeded_is_distinct(self):
        tiny = SolveBudget(max_nodes=3, time_limit=60)
        assert decide_k_ordered(cycle_graph(8), 8, budget=tiny).status is SolveStatus.BUDGET_EXCEEDED
        with pytest.raises(BudgetExceededError):
            ordered_chromatic_number(cycle_graph(8), budget=tiny)


@pytest.mark.parametrize(
    "module, verifier, solve",
    [
        ("solver", "is_rs", lambda: decide_k_rs(helpers.dart(), 3)),
        ("solver", "is_star", lambda: decide_k_star(helpers.dart(), 3)),
        ("solver", "is_ordered", lambda: decide_k_ordered(helpers.dart(), 3)),
        ("hessian", "is_rs", lambda: greedy_rs_colouring(helpers.dart())),
    ],
)
def test_invalid_witness_raises_without_assert(monkeypatch, module, verifier, solve):
    # these checks must hold under python -O, which strips assert statements
    monkeypatch.setattr(f"rscol.{module}.{verifier}", lambda g, c: False)
    with pytest.raises(RuntimeError):
        solve()


class TestMaxIndependentSet:
    def test_c5(self):
        assert len(max_independent_set(cycle_graph(5))) == 2

    def test_star_leaves(self):
        assert max_independent_set(star_graph(4)) == [1, 2, 3, 4]

    def test_dart(self):
        # brute force gives 3: {x, v, w} (v and w are non-adjacent)
        members = max_independent_set(helpers.dart())
        assert len(members) == helpers.brute_max_independent_set_size(helpers.dart()) == 3

    def test_matches_brute_force(self, rng):
        for _ in range(40):
            g = helpers.random_graph(rng.randint(1, 9), 0.4, rng)
            members = max_independent_set(g)
            member_set = set(members)
            assert all(w not in member_set for v in members for w in g.neighbours(v))
            assert len(members) == helpers.brute_max_independent_set_size(g)

    @pytest.mark.parametrize("max_nodes", [None, 3, 10, 40, 150])
    def test_matches_set_oracle(self, rng, max_nodes):
        # the same search tree: equal sets, and equal node counts when the budget runs out
        budget = SolveBudget() if max_nodes is None else SolveBudget(max_nodes=max_nodes)
        for _ in range(150):
            g = helpers.random_graph(rng.randint(0, 16), rng.choice((0.1, 0.3, 0.6)), rng)
            try:
                expected = helpers.set_max_independent_set(g, budget=budget)
            except BudgetExceededError as exc:
                with pytest.raises(BudgetExceededError, match=f"^{re.escape(str(exc))}$"):
                    max_independent_set(g, budget=budget)
            else:
                assert max_independent_set(g, budget=budget) == expected

    def test_node_cost_linear_in_candidates(self):
        # 1500 isolated vertices: the set oracle takes tens of seconds to reach
        # 400 nodes, as each node scanned the candidates once per candidate
        g = Graph.from_edge_list(1500, [])
        t0 = time.monotonic()
        with pytest.raises(BudgetExceededError, match="after 401 nodes"):
            max_independent_set(g, budget=SolveBudget(max_nodes=400))
        assert time.monotonic() - t0 < 5
