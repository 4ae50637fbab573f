import math
import random
import re
import time
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
from conftest import requires_full
from rscol import tree3rs
from rscol.colouring import PartialColouring
from rscol.graph import (
    Graph,
    GraphError,
    RootedTree,
    path_graph,
    root_at_3plus,
    star_graph,
)
from rscol.solver import SolveStatus, decide_k_rs
from rscol.tree3rs import (
    BranchClass,
    SubtreeClass,
    TreeTestResult,
    branch_class_lookup,
    path_3rs_feasible,
    subtree_class_from_state,
)
from rscol.tree3rs import test_3rs_tree as run_tree_test

INFEASIBLE_PATH_CASES = {(2, 0, 0), (2, 1, 1), (3, 0, 0), (4, 0, 1), (4, 1, 0), (6, 0, 0)}


class TestPathFeasibility:
    def test_named_cases(self):
        assert not path_3rs_feasible(4, 0, 1)
        assert not path_3rs_feasible(6, 0, 0)
        assert path_3rs_feasible(7, 0, 0)
        assert path_3rs_feasible(5, 0, 0)

    def test_exactly_four_infeasible_patterns(self):
        bad = {
            (n, i, j)
            for n in range(2, 13)
            for i in (0, 1)
            for j in (0, 1)
            if not path_3rs_feasible(n, i, j)
        }
        assert bad == INFEASIBLE_PATH_CASES

    def test_matches_precoloured_solver(self):
        for n in range(2, 10):
            for i in (0, 1):
                for j in (0, 1):
                    g = path_graph(n)
                    pre = PartialColouring.of(n, {0: i, n - 1: j}, 3)
                    oracle = decide_k_rs(g, 3, pre=pre).status is SolveStatus.YES
                    assert path_3rs_feasible(n, i, j) == oracle

    def test_rejects_short_paths(self):
        with pytest.raises(ValueError):
            path_3rs_feasible(1, 0, 0)


# -- independent oracle for the branch lookup table --------------------------------
#
# A branch's equivalence class is its feasibility behaviour across contexts.
# The ten contexts below separate the six class representatives; a colour
# clash at the shared attachment vertex means no extension exists.

_BRANCH_REPRS = {
    "A": (3, [(0, 1), (1, 2)], {1: 1, 2: 0}),
    "B": (2, [(0, 1)], {0: 0}),
    "C": (2, [(0, 1)], {0: 1, 1: 0}),
    "D": (2, [(0, 1)], {0: 1}),
    "E": (3, [(0, 1), (1, 2)], {2: 1}),
    "F": (2, [(0, 1)], {}),
}

_SUBTREE_REPRS = {
    "II": (1, [], {0: 0}),
    "III": (3, [(0, 1), (0, 2)], {0: 1, 2: 0}),
    "IV": (1, [], {0: 1}),
    "V": (4, [(0, 1), (0, 2), (2, 3)], {3: 1}),
    "VI": (3, [(0, 1), (0, 2)], {}),
    "VII": (1, [], {}),
}

_CONTEXTS = [
    (3, [(0, 1), (0, 2)], {}, 0),
    (3, [(0, 1), (0, 2)], {0: 0}, 0),
    (3, [(0, 1), (0, 2)], {0: 1}, 0),
    (4, [(0, 1), (0, 2), (2, 3)], {3: 1}, 0),
    (3, [(0, 1), (0, 2)], {0: 1, 1: 0}, 0),
    (5, [(0, 1), (0, 2), (2, 3), (2, 4)], {}, 0),
    (5, [(0, 1), (1, 2), (0, 3), (3, 4)], {2: 1, 4: 1}, 0),
    (3, [(0, 1), (0, 2)], {0: 0, 1: 2}, 0),
    (4, [(0, 1), (0, 2), (2, 3)], {3: 0}, 0),
    (5, [(0, 1), (1, 2), (1, 3), (0, 4)], {}, 0),
]


def _branch_from_subtree(cls: str, d: int):
    n0, edges0, cols0 = _SUBTREE_REPRS[cls]
    edges = [(i, i + 1) for i in range(d)]
    edges += [(d + a, d + b) for a, b in edges0]
    return d + n0, edges, {d + v: c for v, c in cols0.items()}


def _feasible_with(ctx, branch) -> bool:
    cn, cedges, ccols, r = ctx
    bn, bedges, bcols = branch

    def remap(v):
        return r if v == 0 else cn + v - 1

    edges = list(cedges) + [(remap(a), remap(b)) for a, b in bedges]
    cols = dict(ccols)
    for v, c in bcols.items():
        vv = remap(v)
        if vv in cols and cols[vv] != c:
            return False
        cols[vv] = c
    g = Graph.from_edge_list(cn + bn - 1, edges)
    pre = PartialColouring.of(g.n, cols, 3)
    return decide_k_rs(g, 3, pre=pre).status is SolveStatus.YES


def _signature(branch):
    return tuple(_feasible_with(ctx, branch) for ctx in _CONTEXTS)


@pytest.fixture(scope="module")
def class_signatures():
    sigs = {cls: _signature(br) for cls, br in _BRANCH_REPRS.items()}
    assert len(set(sigs.values())) == 6, "context family must separate the classes"
    return {sig: cls for cls, sig in sigs.items()}


class TestBranchLookup:
    def test_named_entries(self):
        assert branch_class_lookup(SubtreeClass.II, 1) is BranchClass.C
        assert branch_class_lookup(SubtreeClass.III, 5) is BranchClass.B
        assert branch_class_lookup(SubtreeClass.VII, 1) is BranchClass.F
        assert branch_class_lookup(SubtreeClass.I, 4) is BranchClass.A

    def test_saturation_beyond_ten(self):
        for cls in (SubtreeClass.II, SubtreeClass.III, SubtreeClass.VII):
            assert branch_class_lookup(cls, 10) is BranchClass.F
            assert branch_class_lookup(cls, 37) is BranchClass.F

    def test_leaf_branches_are_class_f(self):
        # test_3rs_tree lets a chain that ends at a leaf change no state
        assert all(branch_class_lookup(SubtreeClass.VII, d) is BranchClass.F for d in range(1, 40))

    def test_rejects_zero_up_distance(self):
        with pytest.raises(ValueError):
            branch_class_lookup(SubtreeClass.II, 0)

    @pytest.mark.parametrize(
        "subtree,distance,expected",
        [
            ("III", 3, "C"),
            ("VI", 2, "F"),
            ("II", 12, "F"),
            ("II", 4, "E"),
            ("IV", 3, "D"),
            ("V", 1, "C"),
            ("III", 9, "E"),
            ("III", 1, "A"),
        ],
    )
    def test_entries_against_context_oracle(self, class_signatures, subtree, distance, expected):
        sig = _signature(_branch_from_subtree(subtree, distance))
        assert class_signatures[sig] == expected
        table = branch_class_lookup(SubtreeClass(subtree), distance)
        assert table.value == expected

    @requires_full
    def test_whole_table_against_context_oracle(self, class_signatures):
        for cls in ("II", "III", "IV", "V", "VI", "VII"):
            for d in range(1, 13):
                sig = _signature(_branch_from_subtree(cls, d))
                assert class_signatures[sig] == branch_class_lookup(SubtreeClass(cls), d).value, (cls, d)


class TestSubtreeClassification:
    def test_colour_one_cases(self):
        assert subtree_class_from_state(1, 1, 0) is SubtreeClass.III
        assert subtree_class_from_state(1, 0, 0) is SubtreeClass.IV
        assert subtree_class_from_state(1, 1, 1) is SubtreeClass.I  # reject

    def test_colour_zero(self):
        assert subtree_class_from_state(0, 0, 0) is SubtreeClass.II

    def test_uncoloured_cases(self):
        assert subtree_class_from_state(-1, 0, 0) is SubtreeClass.VI
        assert subtree_class_from_state(-1, 0, 1) is SubtreeClass.V
        assert subtree_class_from_state(-1, 0, 2) is SubtreeClass.II


def cycle_edges(first: int, size: int) -> list[tuple[int, int]]:
    """The edges of a cycle on first .. first + size - 1."""
    return [(first + i, first + (i + 1) % size) for i in range(size)]


def spider_edges(legs: list[int]) -> list[tuple[int, int]]:
    """The edges of a centre 0 with a path of each length in `legs` hanging
    from it, on the vertices 1, 2, ... leg by leg."""
    edges, n = [], 1
    for length in legs:
        edges += pairwise([0, *range(n, n + length)])
        n += length
    return edges


BAD_INPUTS = [
    # m != n - 1 is checked before the root
    (RootedTree(helpers.dart(), helpers.DART_Y), "input graph is not a tree"),
    (RootedTree(helpers.dart(), helpers.DART_X), "input graph is not a tree"),
    # m = n - 1 but disconnected: the walk finds it
    (RootedTree(Graph.from_edge_list(5, [(0, 1), (0, 2), (0, 3), (1, 2)]), 0),
     "input graph is not a tree"),
    (RootedTree(star_graph(3), 1), "rooted input must use a 3-plus root"),
    (RootedTree(star_graph(3), -4), "rooted input must use a 3-plus root"),
    (RootedTree(Graph.from_edge_list(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)]), 0),
     "input graph is not a tree"),  # m = n - 1 and no 3-plus vertex, but not a path
    (Graph.from_edge_list(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)]),
     "input graph is not a tree"),
    # a tree with a 3-plus vertex and, apart from it, a cycle of degree-2 vertices.
    # Up to SMALL_TREE vertices the vertex walk runs to the end; past it, the star
    # is within n // 8 vertices, so the walk still finishes it and counts too few
    # vertices, while with legs of 400 it gives up and the skeleton counts
    (Graph.from_edge_list(40, [(0, 1), (0, 2), (0, 3), *cycle_edges(4, 36)]),
     "input graph is not a tree"),
    (Graph.from_edge_list(1104, [(0, 1), (0, 2), (0, 3), *cycle_edges(4, 1100)]),
     "input graph is not a tree"),
    (Graph.from_edge_list(1204, [*spider_edges([400, 400, 400]), *cycle_edges(1201, 3)]),
     "input graph is not a tree"),
    # a cycle through one 3-plus vertex, whose chain leaves it and comes back, and
    # an isolated vertex; the last has far more than n // 8 vertices on the cycle
    (Graph.from_edge_list(6, [*cycle_edges(0, 4), (0, 4)]), "input graph is not a tree"),
    (RootedTree(Graph.from_edge_list(6, [*cycle_edges(0, 4), (0, 4)]), 0),
     "input graph is not a tree"),
    (Graph.from_edge_list(1102, [*cycle_edges(0, 1100), (0, 1100)]), "input graph is not a tree"),
]


class TestTreeTester:
    def test_worked_example_rooted_at_far_junction(self):
        tree = root_at_3plus(helpers.worked_tree(), root=helpers.WORKED_TREE_ROOT)
        result = run_tree_test(tree)
        assert not result.colourable
        assert result.reason == "class_i_subtree"
        assert result.reason_vertex == helpers.WORKED_TREE_ROOT

    def test_worked_example_any_rooting(self):
        assert not run_tree_test(helpers.worked_tree()).colourable

    def test_caterpillar_drawing_of_same_tree(self):
        assert not run_tree_test(helpers.worked_tree_caterpillar()).colourable
        assert helpers.ahu_canonical_form(helpers.worked_tree_caterpillar()) == helpers.ahu_canonical_form(
            helpers.worked_tree()
        )

    def test_star(self):
        result = run_tree_test(star_graph(3))
        assert result.colourable
        assert decide_k_rs(star_graph(3), 3).status is SolveStatus.YES

    def test_colour_conflict_at_root(self):
        # at root 0, vertex 1 (class IV: a class II subtree at up-distance 2
        # below it) makes a class B branch and vertex 2 (class V: one class VI
        # star below it) a class C branch
        g = Graph.from_edge_list(17, [
            (0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (5, 6), (6, 7), (7, 8), (7, 9), (6, 10),
            (10, 11), (10, 12), (2, 13), (2, 14), (14, 15), (14, 16)])
        result = run_tree_test(g)
        assert (result.reason, result.reason_vertex) == ("colour_conflict", 0)
        assert result == helpers.enum_walk_test_3rs_tree(g)
        assert decide_k_rs(g, 3).status is SolveStatus.NO

    def test_long_path(self):
        assert run_tree_test(path_graph(1000)).colourable

    def test_tiny_trees(self):
        for n in (1, 2):
            assert run_tree_test(path_graph(n)).colourable

    def test_rejects_non_trees(self):
        with pytest.raises(GraphError):
            run_tree_test(helpers.dart())
        with pytest.raises(GraphError):
            run_tree_test(Graph.from_edge_list(4, [(0, 1), (2, 3)]))

    @pytest.mark.parametrize("t, message", BAD_INPUTS)
    def test_rejects_bad_input(self, t, message):
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            run_tree_test(t)

    def test_rooted_path_at_any_vertex(self):
        for root in range(5):
            result = run_tree_test(RootedTree(path_graph(5), root))
            assert result.colourable and result.visited == 0

    def test_rooted_input_matches_graph_input(self, rng):
        seen = 0
        while seen < 30:
            g = helpers.random_tree(rng.randint(4, 25), rng)
            plus = [v for v in range(g.n) if g.degree(v) >= 3]
            if not plus:
                continue
            seen += 1
            rooted = run_tree_test(root_at_3plus(g))
            assert rooted == run_tree_test(g)
            assert run_tree_test(RootedTree(g, rng.choice(plus))).colourable == rooted.colourable

    def test_exhaustive_small(self):
        for n in range(1, 8):
            for g in helpers.all_labelled_trees(n):
                fast = run_tree_test(g).colourable
                oracle = decide_k_rs(g, 3).status is SolveStatus.YES
                assert fast == oracle, list(g.edges())

    def test_visit_count_is_n_on_colourable_runs(self, rng):
        seen = 0
        while seen < 40:
            g = helpers.random_tree(rng.randint(4, 30), rng)
            if g.max_degree() < 3:
                continue
            result = run_tree_test(g)
            if result.colourable:
                assert result.visited == g.n
                seen += 1
            else:
                assert result.visited <= g.n

    def test_negative_runs_carry_reason_and_oracle_agrees(self, rng):
        seen = 0
        while seen < 25:
            g = helpers.random_tree(rng.randint(6, 14), rng)
            result = run_tree_test(g)
            if result.colourable:
                continue
            seen += 1
            assert result.reason in ("class_a_branch", "class_i_subtree", "colour_conflict")
            assert result.reason_vertex is not None
            assert decide_k_rs(g, 3).status is SolveStatus.NO

    def test_caterpillar_saturation(self):
        # two multi-leg spiders joined by a spine of length 8..16 exercises the
        # deep rows of the lookup table
        for spine in range(8, 17):
            for legs_a, legs_b in ((2, 2), (3, 2), (2, 3), (3, 3)):
                edges = []
                nxt = spine + 1  # spine vertices 0..spine
                for _ in range(legs_a):
                    edges.append((0, nxt))
                    nxt += 1
                for _ in range(legs_b):
                    edges.append((spine, nxt))
                    nxt += 1
                edges += [(i, i + 1) for i in range(spine)]
                g = Graph.from_edge_list(nxt, edges)
                fast = run_tree_test(g).colourable
                oracle = decide_k_rs(g, 3).status is SolveStatus.YES
                assert fast == oracle, (spine, legs_a, legs_b)


# -- the int-coded walk against the Enum walk it replaced ------------------------------

DIFFERENTIAL = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
LONG_CHAINS = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def bushy_tree(n: int, rnd: random.Random) -> Graph:
    """A random tree on about n vertices whose inner vertices all have degree 3
    or 4: vertices taken in random order get two or three children or stay
    leaves.  Branches of several classes then meet at one vertex more often
    than in a uniform random tree, which makes colour conflicts less rare."""
    edges, size, open_ = [], 1, [0]
    leaf = rnd.random()
    while open_ and size < n:
        v = open_.pop(rnd.randrange(len(open_)))
        if v and rnd.random() < leaf:
            continue
        for w in range(size, size + rnd.randint(2 if v else 3, 3)):
            edges.append((v, w))
            open_.append(w)
        size = len(edges) + 1
    return Graph.from_edge_list(size, edges)


@st.composite
def subdivided_trees(draw) -> Graph:
    """A uniform random tree or a bushy one, on a few to several hundred
    vertices, with each edge subdivided a number of times drawn from a short
    list and randomly relabelled: a few vertices to a few thousand, with chains
    long enough to reach the saturated table rows."""
    n0 = draw(st.one_of(st.integers(1, 12), st.integers(13, 600)))
    subdivisions = draw(st.lists(st.integers(0, 12), min_size=1, max_size=4))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    base = draw(st.sampled_from([helpers.random_tree, bushy_tree]))(n0, rnd)
    edges, n = [], base.n
    for u, v in base.edges():
        k = rnd.choice(subdivisions)
        edges += pairwise([u, *range(n, n + k), v])
        n += k
    return relabelled(n, edges, rnd)


def relabelled(n: int, edges, rnd: random.Random) -> Graph:
    """The graph of `edges` on n vertices under a random relabelling."""
    label = list(range(n))
    rnd.shuffle(label)
    return Graph.from_edge_list(n, [(label[u], label[v]) for u, v in edges])


LEG = st.one_of(st.integers(1, 12), st.integers(13, 10**4))
SEEDS = st.integers(0, 2**32 - 1).map(random.Random)


@st.composite
def spiders(draw) -> Graph:
    """A centre with 3 to 6 legs of 1 to 10^4 vertices; a star when every
    leg has one."""
    legs = draw(st.lists(LEG, min_size=3, max_size=6))
    return relabelled(1 + sum(legs), spider_edges(legs), draw(SEEDS))


@st.composite
def brooms(draw) -> Graph:
    """A handle of 1 to 10^4 edges with 2 to 6 bristles of 1 to 12 vertices
    at its far end."""
    handle = draw(LEG)
    edges, n = list(pairwise(range(handle + 1))), handle + 1
    for length in draw(st.lists(st.integers(1, 12), min_size=2, max_size=6)):
        edges += pairwise([handle, *range(n, n + length)])
        n += length
    return relabelled(n, edges, draw(SEEDS))


@st.composite
def caterpillars(draw) -> Graph:
    """A spine of 1 to 30 vertices, each spine edge subdivided 0 to 12 times
    and each spine vertex with 0 to 3 hairs of 1 to 12 vertices, and maybe the
    paper's worked tree hung from a spine vertex by a path of 1 to 2000 edges:
    trees with many 3-plus vertices that answer NO near or far from a root."""
    spine = draw(st.integers(1, 30))
    edges, n = [], spine
    for i in range(spine - 1):
        gap = draw(st.integers(0, 12))
        edges += pairwise([i, *range(n, n + gap), i + 1])
        n += gap
    for i in range(spine):
        for length in draw(st.lists(st.integers(1, 12), max_size=3)):
            edges += pairwise([i, *range(n, n + length)])
            n += length
    hang = draw(st.none() | st.tuples(st.integers(0, spine - 1), st.integers(1, 2000), st.integers(0, 13)))
    if hang is not None:
        at, length, to = hang
        base = n + length - 1  # the worked tree's vertex 0
        edges += pairwise([at, *range(n, base), base + to])
        edges += [(base + u, base + v) for u, v in helpers.WORKED_TREE_EDGES]
        n = base + 14
    return relabelled(n, edges, draw(SEEDS))


CHAIN_FAMILIES = st.one_of(
    spiders(), brooms(), caterpillars(),
    st.integers(3, 60).map(star_graph), st.integers(1, 10**4).map(path_graph),
)


def outcome(test, t):
    try:
        return test(t)
    except GraphError as exc:
        return str(exc)


class TestAgainstEnumWalk:
    """``test_3rs_tree`` gives the whole result of the walk on Enum classes
    (``helpers.enum_walk_test_3rs_tree``): verdict, reason, its vertex and the
    visit count."""

    @DIFFERENTIAL
    @given(subdivided_trees(), st.integers(0, 10**6))
    def test_same_result(self, g, pick):
        assert run_tree_test(g) == helpers.enum_walk_test_3rs_tree(g)
        plus = [v for v in range(g.n) if g.degree(v) >= 3]
        root = plus[pick % len(plus)] if plus else pick % g.n
        rooted = RootedTree(g, root)
        assert outcome(run_tree_test, rooted) == outcome(helpers.enum_walk_test_3rs_tree, rooted)

    @LONG_CHAINS
    @given(CHAIN_FAMILIES)
    def test_same_result_from_every_root(self, g):
        # spiders, brooms and paths with chains of up to 10^4 vertices, and
        # caterpillars with the worked tree up to 2000 edges away: many are
        # larger than SMALL_TREE and pass n // FRONT_WALK_SHARE visited
        # vertices, on YES and on NO
        assert run_tree_test(g) == helpers.enum_walk_test_3rs_tree(g)
        for root in np.flatnonzero(g.degrees() >= 3).tolist():
            rooted = RootedTree(g, root)
            assert run_tree_test(rooted) == helpers.enum_walk_test_3rs_tree(rooted)

    @pytest.mark.parametrize("t, message", BAD_INPUTS)
    def test_same_error_on_bad_input(self, t, message):
        assert outcome(run_tree_test, t) == outcome(helpers.enum_walk_test_3rs_tree, t) == message


class TestWalkAndFold:
    """``test_3rs_tree`` answers from the vertex walk while it has visited at
    most n // FRONT_WALK_SHARE vertices of a tree larger than SMALL_TREE, and
    from the skeleton fold after: both give the same whole result from every
    root, on trees of every size."""

    @DIFFERENTIAL
    @given(st.one_of(subdivided_trees(), caterpillars()))
    def test_same_result(self, g):
        plus = np.flatnonzero(g.degrees() >= 3).tolist()
        skeleton = tree3rs._skeleton(g, g.degrees())
        for root in plus[:20]:
            assert tree3rs._walk(g, root, g.n) == tree3rs._fold(skeleton, root, g.n)

    def test_long_trees_leave_the_walk(self):
        # a YES tree, and the worked tree hung 2000 edges down the first leg
        # of a spider: the walk from the centre gives up on both
        no_tree = Graph.from_edge_list(6015, [
            *spider_edges([2000, 2000, 2000]), (2000, 6001),
            *[(6001 + u, 6001 + v) for u, v in helpers.WORKED_TREE_EDGES]])
        for g in (subdivided_yes_tree(2000, np.random.default_rng(24)), no_tree):
            root = int(np.argmax(g.degrees() >= 3))
            assert tree3rs._walk(g, root, g.n // tree3rs.FRONT_WALK_SHARE) is None
            result = run_tree_test(g)
            assert result == helpers.enum_walk_test_3rs_tree(g)
            assert result.colourable == (g is not no_tree)

    def test_early_no_stays_in_the_walk(self):
        # the worked tree on 0..13, hung from the centre 14 of a long spider
        # before its legs: from the centre the walk answers after 15 vertices
        g = Graph.from_edge_list(6015, [
            *helpers.WORKED_TREE_EDGES, (helpers.WORKED_TREE_ROOT, 14),
            *[(14 + u, 14 + v) for u, v in spider_edges([2000, 2000, 2000])]])
        result = tree3rs._walk(g, 14, g.n // tree3rs.FRONT_WALK_SHARE)
        assert result == TreeTestResult(False, "class_i_subtree", helpers.WORKED_TREE_ROOT, 15)
        rooted = RootedTree(g, 14)
        assert run_tree_test(rooted) == result == helpers.enum_walk_test_3rs_tree(rooted)


# -- the walk in linear time --------------------------------------------------------------


def subdivided_yes_tree(n0: int, rng: np.random.Generator) -> Graph:
    """A random recursive tree on n0 vertices with every edge replaced by a
    path of three edges, randomly relabelled.  Colouring the tree vertices 0
    and the two inner vertices of each path 2 and 1 makes it 3-rs coloured
    (the 2 next to either end), so the tester walks every vertex."""
    m0 = n0 - 1
    child = np.arange(1, n0, dtype=np.int64)
    parent = (rng.random(m0) * child).astype(np.int64)
    a = n0 + 2 * np.arange(m0, dtype=np.int64)
    us = np.concatenate([parent, a, a + 1])
    vs = np.concatenate([a, a + 1, child])
    n = n0 + 2 * m0
    label = rng.permutation(n)
    return Graph.from_edge_list(n, np.stack((label[us], label[vs]), axis=1))


def linear_fit_deviation(points: list[tuple[int, float]]) -> float:
    """How far the time per vertex strays, as a factor, from the geometric
    mean of the least and the greatest (acceptance c15's minimax fit)."""
    rates = [t / n for n, t in points]
    a = math.sqrt(min(rates) * max(rates))
    return max(max(rates) / a, a / min(rates))


def test_walk_linearity_on_yes_trees():
    # the same minimax fit and bound as acceptance c15, on trees the tester
    # accepts, so the time is the walk over every vertex and not the set-up
    rng = np.random.default_rng(1818)
    points = []
    for target in (10_000, 100_000, 1_000_000):
        g = subdivided_yes_tree((target + 2) // 3, rng)
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            result = run_tree_test(g)
            best = min(best, time.perf_counter() - start)
        assert result.colourable and result.visited == g.n
        points.append((g.n, best))
    assert linear_fit_deviation(points) <= 2.0, points


def long_chain_tree(family: str, n: int, rng: np.random.Generator) -> Graph:
    """The path on n vertices as ``path_graph`` numbers it, or a spider with
    three legs of n // 3 vertices, randomly relabelled."""
    if family == "path":
        return Graph.from_edge_list(n, np.stack((np.arange(n - 1), np.arange(1, n)), axis=1))
    leg = n // 3
    heads = 1 + leg * np.arange(3)
    inner = np.arange(1, 3 * leg + 1).reshape(3, leg)
    us = np.concatenate((np.zeros(3, dtype=np.int64), inner[:, :-1].ravel()))
    vs = np.concatenate((heads, inner[:, 1:].ravel()))
    label = rng.permutation(3 * leg + 1)
    return Graph.from_edge_list(3 * leg + 1, np.stack((label[us], label[vs]), axis=1))


@pytest.mark.parametrize("family", ["path", "spider"])
def test_linearity_on_long_chains(family):
    # the same fit and bound on chains of 3,000 to 1,000,000 vertices: the
    # numpy rounds that resolve a chain must not grow with its length
    rng = np.random.default_rng(2424)
    points = []
    for target in (10_000, 100_000, 1_000_000):
        g = long_chain_tree(family, target, rng)
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            result = run_tree_test(g)
            best = min(best, time.perf_counter() - start)
        assert result.colourable and result.visited == (0 if family == "path" else g.n)
        points.append((g.n, best))
    assert linear_fit_deviation(points) <= 2.0, points
