import io
import math
import random
import re
import tracemalloc
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
from rscol import graph, hessian
from rscol.colouring import Colouring, is_rs
from rscol.graph import Graph, complete_graph, path_graph, star_graph
from rscol.hessian import (
    CooMatrix,
    PatternError,
    SeedGrouping,
    SparsityPattern,
    compress,
    greedy_rs_colouring,
    parse_matrix_market,
    pattern_to_graph,
    read_dense_csv,
    read_matrix_market,
    recover,
    recover_entries,
    write_dense_csv,
    write_matrix_market,
)
from rscol.solver import rs_chromatic_number


def random_pattern_matrix(n, density, rng):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    pattern = SparsityPattern.from_pairs(n, pairs)
    h = np.zeros((n, n))
    for i, j in pairs:
        value = rng.uniform(-10, 10)
        h[i, j] = h[j, i] = value
    for i in range(n):
        h[i, i] = rng.uniform(-10, 10)
    return pattern, h


class TestPattern:
    def test_arrowhead_is_star(self):
        p = SparsityPattern.from_pairs(5, [(0, j) for j in range(1, 5)])
        g = pattern_to_graph(p)
        assert g == star_graph(4)

    def test_tridiagonal_is_path(self):
        p = SparsityPattern.from_pairs(6, [(i, i + 1) for i in range(5)])
        assert pattern_to_graph(p) == path_graph(6)

    def test_diagonal_only(self):
        p = SparsityPattern.from_pairs(4, [])
        assert pattern_to_graph(p).m == 0

    def test_from_dense_rejects_asymmetric(self):
        with pytest.raises(PatternError):
            SparsityPattern.from_dense(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_diagonal_pairs(self):
        with pytest.raises(PatternError):
            SparsityPattern.from_pairs(3, [(1, 1)])


class TestGreedy:
    def test_path_natural(self):
        g = path_graph(6)
        c = greedy_rs_colouring(g, "natural")
        assert is_rs(g, c)
        assert c.k <= 3
        assert rs_chromatic_number(g) == 3

    def test_star_largest_degree_first(self):
        c = greedy_rs_colouring(star_graph(4), "largest_degree_first")
        assert c.k == 2
        assert c[0] == 0

    def test_largest_degree_first_breaks_ties_by_vertex(self):
        rng = random.Random(7)
        for _ in range(100):
            g = helpers.random_graph(rng.randint(0, 25), rng.random(), rng)
            assert hessian._vertex_order(g, "largest_degree_first") == sorted(
                range(g.n), key=lambda v: (-g.degree(v), v))

    def test_edgeless(self):
        c = greedy_rs_colouring(Graph.from_edge_list(4, []))
        assert set(c.colours) == {0}

    def test_middle_vertex_coloured_last(self):
        # both endpoints first would strand the middle without the look-ahead
        g = Graph.from_edge_list(3, [(0, 2), (1, 2)])
        c = greedy_rs_colouring(g, "natural")
        assert is_rs(g, c)

    def test_always_rs_and_bracketed(self, rng):
        for _ in range(120):
            n = rng.randint(1, 10)
            g = helpers.random_graph(n, 0.35, rng)
            for order in ("natural", "largest_degree_first"):
                c = greedy_rs_colouring(g, order)
                assert is_rs(g, c)
                d2 = helpers.greedy_distance_two_colouring(g, order)
                assert rs_chromatic_number(g) <= c.k <= d2.k

    def test_unknown_order(self):
        with pytest.raises(ValueError):
            greedy_rs_colouring(path_graph(2), "zigzag")

    def test_larger_instances_stay_total(self, rng):
        for n, p in ((150, 0.05), (120, 0.2)):
            g = helpers.random_graph(n, p, rng)
            for order in ("natural", "largest_degree_first"):
                c = greedy_rs_colouring(g, order)
                assert is_rs(g, c)

    def test_matches_retry_oracle(self, rng):
        graphs = [helpers.random_graph(rng.randint(0, 30), rng.choice((0.05, 0.15, 0.3, 0.6)), rng)
                  for _ in range(400)]
        graphs += [grid_graph(r, c) for r, c in ((1, 1), (1, 7), (2, 2), (4, 5), (9, 9), (30, 30))]
        wide = [complete_graph(70), helpers.random_graph(90, 0.5, rng)]
        for g in graphs + wide:
            for order in ("natural", "largest_degree_first"):
                c = greedy_rs_colouring(g, order)
                assert c == helpers.retry_greedy_rs_colouring(g, order)
                assert g not in wide or c.k > 64  # colour masks wider than a machine word


def grid_graph(rows: int, cols: int) -> Graph:
    """The rows x cols grid, vertices numbered row by row."""
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edge_list(rows * cols, edges)


class TestCompress:
    def _grouping(self, g, order="natural"):
        return SeedGrouping.from_colouring(g, greedy_rs_colouring(g, order))

    def test_identity_matrix(self):
        p = SparsityPattern.from_pairs(4, [(0, 1), (2, 3)])
        g = pattern_to_graph(p)
        s = self._grouping(g)
        b = compress(np.eye(4), s, p)
        for v in range(4):
            for col in range(s.k):
                assert b[v, col] == (1.0 if s.colouring[v] == col else 0.0)

    def test_tridiagonal_entry_sums(self):
        p = SparsityPattern.from_pairs(6, [(i, i + 1) for i in range(5)])
        g = pattern_to_graph(p)
        c = Colouring.of([0, 1, 2, 0, 1, 2], k=3)
        s = SeedGrouping.from_colouring(g, c)
        h = np.diag(np.arange(1.0, 7.0))
        for i in range(5):
            h[i, i + 1] = h[i + 1, i] = 0.5
        b = compress(h, s, p)
        # row 1: colour-0 column collects h[1,0] + h[1,3] = 0.5 + 0
        assert b[1, 0] == pytest.approx(0.5)
        assert b[1, 1] == pytest.approx(2.0)

    def test_all_singletons_is_permutation(self):
        p = SparsityPattern.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
        g = pattern_to_graph(p)
        s = SeedGrouping.from_colouring(g, Colouring.of([0, 1, 2], k=3))
        h = np.array([[2.0, 1.0, 3.0], [1.0, 5.0, 4.0], [3.0, 4.0, 7.0]])
        b = compress(h, s, p)
        assert np.array_equal(b, h)  # identity grouping keeps columns in place

    def test_rejects_asymmetric(self):
        p = SparsityPattern.from_pairs(2, [(0, 1)])
        s = self._grouping(pattern_to_graph(p))
        with pytest.raises(PatternError):
            compress(np.array([[1.0, 2.0], [3.0, 1.0]]), s, p)

    def test_rejects_pattern_violation(self):
        p = SparsityPattern.from_pairs(3, [(0, 1)])
        s = self._grouping(pattern_to_graph(p))
        h = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.0], [0.25, 0.0, 1.0]])
        with pytest.raises(PatternError):
            compress(h, s, p)

    def test_rejects_pattern_of_other_size(self):
        p = SparsityPattern.from_pairs(4, [(2, 3)])
        s = self._grouping(pattern_to_graph(SparsityPattern.from_pairs(3, [])))
        with pytest.raises(PatternError, match="^grouping and pattern dimensions differ$"):
            compress(np.eye(3), s, p)

    def test_rejects_overflowing_cell(self):
        # vertices 2 and 3 (1-based) share a group, so B[1, that group] = 1e308 + 1e308
        h = np.eye(3)
        h[1, 0] = h[0, 1] = h[2, 0] = h[0, 2] = 1e308
        p = SparsityPattern.from_pairs(3, [(0, 1), (0, 2)])
        s = self._grouping(pattern_to_graph(p))
        group = s.colouring[1]
        assert s.colouring[2] == group
        with pytest.raises(PatternError, match=rf"^compressed cell \(0,{group}\) is not finite$"):
            compress(h, s, p)


class TestRecover:
    def test_roundtrip_random(self, rng):
        for _ in range(60):
            n = rng.randint(1, 30)
            pattern, h = random_pattern_matrix(n, rng.uniform(0.05, 0.3), rng)
            g = pattern_to_graph(pattern)
            order = rng.choice(["natural", "largest_degree_first"])
            s = SeedGrouping.from_colouring(g, greedy_rs_colouring(g, order))
            b = compress(h, s, pattern)
            out = recover(b, pattern, s)
            assert np.abs(out - h).max() <= 1e-12

    def test_diagonal_matrix_single_colour(self):
        p = SparsityPattern.from_pairs(5, [])
        g = pattern_to_graph(p)
        s = SeedGrouping.from_colouring(g, greedy_rs_colouring(g))
        assert s.k == 1
        h = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.array_equal(recover(compress(h, s, p), p, s), h)

    def test_arrowhead_reads_from_leaf_rows(self):
        # centre coloured 0, leaves 1: each off-diagonal sits alone in the
        # leaf row's colour-0 column
        p = SparsityPattern.from_pairs(5, [(0, j) for j in range(1, 5)])
        g = pattern_to_graph(p)
        c = Colouring.of([0, 1, 1, 1, 1], k=2)
        s = SeedGrouping.from_colouring(g, c)
        h = np.eye(5)
        for j in range(1, 5):
            h[0, j] = h[j, 0] = float(j)
        b = compress(h, s, p)
        for j in range(1, 5):
            assert b[j, 0] == float(j)
        assert np.array_equal(recover(b, p, s), h)

    def test_rejects_non_rs_grouping(self):
        p = SparsityPattern.from_pairs(3, [(0, 1), (1, 2)])
        bad = SeedGrouping(Colouring.of([0, 1, 0], k=2))
        with pytest.raises(ValueError):
            recover(np.zeros((3, 2)), p, bad)

    def test_grouping_constructor_validates(self):
        p = SparsityPattern.from_pairs(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            SeedGrouping.from_colouring(pattern_to_graph(p), Colouring.of([0, 1, 0], k=2))

    def test_direct_recovery_uniqueness(self, rng):
        # every vertex has at most one neighbour in each lower class
        for _ in range(40):
            g = helpers.random_graph(rng.randint(1, 12), 0.3, rng)
            c = greedy_rs_colouring(g)
            for v in range(g.n):
                lower = [c[u] for u in g.neighbours(v) if c[u] < c[v]]
                assert len(lower) == len(set(lower))


class TestMatrixMarket:
    def test_symmetric_real(self):
        text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 4\n1 1 2.0\n2 2 3.0\n2 1 -1.5\n3 3 1.0\n"
        m = parse_matrix_market(io.StringIO(text)).toarray()
        assert m[0, 1] == -1.5 and m[1, 0] == -1.5

    def test_pattern_kind(self):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 1\n"
        m = parse_matrix_market(io.StringIO(text)).toarray()
        assert m[1, 0] == 1.0 and m[0, 1] == 1.0

    def test_general_must_be_structurally_symmetric(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n2 1 5.0\n"
        with pytest.raises(PatternError, match="symmetric"):
            parse_matrix_market(io.StringIO(text))

    def test_header_required(self):
        with pytest.raises(PatternError, match="header"):
            parse_matrix_market(io.StringIO("3 3 0\n"))

    def test_entry_count_checked(self):
        text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n"
        with pytest.raises(PatternError, match="declared"):
            parse_matrix_market(io.StringIO(text))

    HEADER = "%%MatrixMarket matrix coordinate real symmetric\n"

    def test_non_numeric_size_line_names_its_line(self):
        with pytest.raises(PatternError, match=r"^m\.mtx:3: non-numeric size line$"):
            parse_matrix_market(io.StringIO(self.HEADER + "% note\n2 two 1\n1 1 1.0\n"), "m.mtx")

    def test_negative_size_names_its_line(self):
        with pytest.raises(PatternError, match=r"^m\.mtx:2: negative size$"):
            parse_matrix_market(io.StringIO(self.HEADER + "-2 -2 0\n"), "m.mtx")

    def test_non_numeric_index_names_its_line(self):
        with pytest.raises(PatternError, match=r"^m\.mtx:3: non-numeric entry$"):
            parse_matrix_market(io.StringIO(self.HEADER + "2 2 1\n1 x 1.0\n"), "m.mtx")

    def test_non_numeric_value_names_its_line(self):
        text = self.HEADER + "2 2 2\n1 1 1.0\n2 1 abc\n"
        with pytest.raises(PatternError, match=r"^m\.mtx:4: non-numeric entry$"):
            parse_matrix_market(io.StringIO(text), "m.mtx")

    @pytest.mark.parametrize("kind, value", [
        ("integer", "1.5"), ("integer", "1e1"), ("integer", "nan"), ("real", "1_0"), ("integer", "1_0"),
    ])
    def test_value_outside_its_grammar_names_its_line(self, kind, value):
        text = f"%%MatrixMarket matrix coordinate {kind} symmetric\n2 2 2\n1 1 1\n2 1 {value}\n"
        with pytest.raises(PatternError, match=r"^m\.mtx:4: non-numeric entry$"):
            parse_matrix_market(io.StringIO(text), "m.mtx")

    def test_integer_values(self):
        text = "%%MatrixMarket matrix coordinate integer symmetric\n2 2 2\n1 1 -3\n2 1 +7\n"
        m = parse_matrix_market(io.StringIO(text)).toarray()
        assert m.tolist() == [[-3.0, 7.0], [7.0, 0.0]]

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_value_names_its_line(self, value):
        # non-finite values are found after the last line, so a later malformed line wins
        text = self.HEADER + f"3 3 3\n1 1 1.0\n2 1 {value}\n3 3 2.0\n"
        with pytest.raises(PatternError, match=r"^m\.mtx:4: non-finite value$"):
            parse_matrix_market(io.StringIO(text), "m.mtx")
        with pytest.raises(PatternError, match=r"^m\.mtx:6: non-numeric entry$"):
            parse_matrix_market(io.StringIO(text + "3 2 x\n"), "m.mtx")

    def test_repeated_coordinate_rejected(self):
        text = self.HEADER + "2 2 3\n1 1 1.0\n2 1 5.0\n2 1 7.0\n"
        with pytest.raises(PatternError, match=r"^m\.mtx:5: duplicate entry \(2,1\)$"):
            parse_matrix_market(io.StringIO(text), "m.mtx")

    def test_symmetric_mirror_is_the_same_cell(self):
        text = self.HEADER + "2 2 2\n2 1 5.0\n1 2 7.0\n"
        with pytest.raises(PatternError, match=r"^m\.mtx:4: duplicate entry \(1,2\)$"):
            parse_matrix_market(io.StringIO(text), "m.mtx")

    def test_general_mirror_is_a_different_cell(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n2 1 5.0\n1 2 5.0\n"
        m = parse_matrix_market(io.StringIO(text)).toarray()
        assert m[0, 1] == 5.0 and m[1, 0] == 5.0

    def test_general_repeated_coordinate_rejected(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n2 1\n2 1\n"
        with pytest.raises(PatternError, match=r":4: duplicate entry \(2,1\)$"):
            parse_matrix_market(io.StringIO(text))

    def test_csv_roundtrip(self, tmp_path, rng):
        m = np.array([[1.25, -2.0], [0.0, 4.5]])
        path = str(tmp_path / "m.csv")
        write_dense_csv(m, path)
        assert np.array_equal(read_dense_csv(path), m)


# -- the compressed product against exact sums ------------------------------------------

UNIT_ROUNDOFF = 2.0 ** -53


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


def assert_seed_product(b, h, s: SeedGrouping, bit_exact: bool = False) -> None:
    """b is H . S for the dense symmetric h.  Each cell is compared with the
    exact sum of its nonzero terms (``math.fsum``).  A cell of at most one term
    has no rounding in any summation order, so it must equal that sum (bit for
    bit, +0.0 for no term, with `bit_exact`); a cell of m >= 2 terms may be
    summed in any order, so it must lie within the recursive-summation bound
    gamma_m * sum |terms|, gamma_m = m u / (1 - m u)."""
    h = np.asarray(h, dtype=float)
    n, k = h.shape[0], s.k
    assert np.shape(b) == (n, k)
    colours = s.colouring.colours
    terms = defaultdict(list)
    for i, j in zip(*np.nonzero(h)):
        terms[i, colours[j]].append(float(h[i, j]))
    exact, count, size = np.zeros((n, k)), np.zeros((n, k)), np.zeros((n, k))
    for cell, ts in terms.items():
        exact[cell], count[cell], size[cell] = math.fsum(ts), len(ts), math.fsum(map(abs, ts))
    single = count <= 1
    if bit_exact:
        assert np.array_equal(bits(np.asarray(b)[single]), bits(exact[single]))
    else:
        assert np.array_equal(np.asarray(b)[single], exact[single])
    gamma = count * UNIT_ROUNDOFF / (1 - count * UNIT_ROUNDOFF)
    assert (np.abs(np.asarray(b) - exact) <= gamma * size).all()


def seed_matrix(s: SeedGrouping) -> np.ndarray:
    return np.eye(s.k)[np.array(s.colouring.colours, dtype=np.intp)]


# -- the index-array pattern against the frozenset pattern it replaced ---------------

Frozen = helpers.FrozensetPattern
ORACLE = settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def outcome(call):
    """What a call gives: its result, or the exact type and message it raised."""
    try:
        return call()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def assert_same(new, old):
    if isinstance(old, np.ndarray):
        assert isinstance(new, np.ndarray) and np.array_equal(new, old)
    else:
        assert new == old


@st.composite
def patterned_matrices(draw):
    """(n, pairs, h, rnd): pairs in any orientation and order, repeats allowed;
    h symmetric, nonzero on every pair and on a random part of the diagonal."""
    n = draw(st.integers(0, 40))
    density = draw(st.sampled_from([0.0, 0.05, 0.15, 0.4, 1.0]))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    pairs = [(i, j) if rnd.random() < 0.5 else (j, i)
             for i in range(n) for j in range(i + 1, n) if rnd.random() < density]
    pairs += rnd.sample(pairs, min(len(pairs), rnd.randint(0, 3)))
    rnd.shuffle(pairs)
    h = np.zeros((n, n))
    for i, j in pairs:
        h[i, j] = h[j, i] = rnd.choice([-1.0, 1.0]) * rnd.uniform(0.5, 10.0)
    for v in range(n):
        h[v, v] = rnd.choice([0.0, rnd.uniform(-10.0, 10.0)])
    return n, pairs, h, rnd


class TestFrozensetOracle:
    @ORACLE
    @given(patterned_matrices())
    def test_pattern_graph_compress_recover(self, case):
        n, pairs, h, _ = case
        new, old = SparsityPattern.from_pairs(n, pairs), Frozen.from_pairs(n, pairs)
        assert list(zip(new.rows.tolist(), new.cols.tolist())) == sorted(old.offdiag)
        dense = SparsityPattern.from_dense(h)
        assert list(zip(dense.rows.tolist(), dense.cols.tolist())) == sorted(
            Frozen.from_dense(h).offdiag)
        g = pattern_to_graph(new)
        assert g == helpers.frozenset_pattern_to_graph(old)
        assert all(type(w) is int for a in g.adjacency() for w in a)
        for order in ("natural", "largest_degree_first"):
            s = SeedGrouping.from_colouring(g, greedy_rs_colouring(g, order))
            b = compress(h, s, new)
            # a cell that sums two or more terms may round differently from the dense product
            assert_seed_product(b, h, s, bit_exact=True)
            assert_seed_product(helpers.frozenset_compress(h, s, old), h, s)
            out = recover(b, new, s)
            assert np.array_equal(out, helpers.frozenset_recover(b, old, s))
            assert np.array_equal(out, h)

    @ORACLE
    @given(patterned_matrices())
    def test_same_errors(self, case):
        n, pairs, h, rnd = case
        new, old = SparsityPattern.from_pairs(n, pairs), Frozen.from_pairs(n, pairs)
        g = pattern_to_graph(new)
        order = rnd.choice(["natural", "largest_degree_first"])
        s = SeedGrouping.from_colouring(g, greedy_rs_colouring(g, order))
        listed = {(min(i, j), max(i, j)) for i, j in pairs}
        free = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in listed]
        # nonzero entries outside the pattern: the first in row-major order is named
        stray = h.copy()
        for i, j in rnd.sample(free, min(len(free), rnd.randint(1, 4))):
            stray[i, j] = stray[j, i] = rnd.uniform(0.5, 10.0)
        assert_same(outcome(lambda: compress(stray, s, new)),
                    outcome(lambda: helpers.frozenset_compress(stray, s, old)))
        if n >= 2:
            i, j = rnd.sample(range(n), 2)
            skew = h.copy()
            skew[i, j] += 1.0  # values no longer symmetric
            assert_same(outcome(lambda: compress(skew, s, new)),
                        outcome(lambda: helpers.frozenset_compress(skew, s, old)))
            skew[i, j], skew[j, i] = 0.0, 1.0 + abs(h[j, i])  # structure no longer symmetric
            assert_same(outcome(lambda: SparsityPattern.from_dense(skew)),
                        outcome(lambda: Frozen.from_dense(skew)))
        bad = list(pairs)
        v = rnd.randrange(max(n, 1))
        bad.insert(rnd.randint(0, len(bad)), rnd.choice([(v, v), (v, n), (-1, v), (n + 2, v)]))
        assert_same(outcome(lambda: SparsityPattern.from_pairs(n, bad)),
                    outcome(lambda: Frozen.from_pairs(n, bad)))
        colours = [rnd.randrange(3) for _ in range(n)]
        arbitrary = SeedGrouping(Colouring.of(colours, k=3))  # rs or not
        b = rnd.choice([np.ones((n, 3)), np.ones((n, 2))])
        assert_same(outcome(lambda: recover(b, new, arbitrary)),
                    outcome(lambda: helpers.frozenset_recover(b, old, arbitrary)))


# -- the COO kernel against the dense path it replaced ----------------------------------


def assert_row_major(m: CooMatrix) -> None:
    keys = m.rows.astype(np.int64) * m.n + m.cols
    assert (np.diff(keys) > 0).all()  # distinct cells, in row-major order


class TestCooKernel:
    @ORACLE
    @given(patterned_matrices())
    def test_same_product_and_matrix_as_the_dense_path(self, case):
        n, pairs, h, rnd = case
        p = SparsityPattern.from_pairs(n, pairs)
        coo = CooMatrix.from_dense(h)
        assert_row_major(coo)
        assert np.array_equal(coo.toarray(), h)
        assert SparsityPattern.from_coo(coo).rows.tolist() == p.rows.tolist()
        assert SparsityPattern.from_coo(coo).cols.tolist() == p.cols.tolist()
        g = pattern_to_graph(p)
        s = SeedGrouping.from_colouring(
            g, greedy_rs_colouring(g, rnd.choice(["natural", "largest_degree_first"])))
        b = compress(coo, s, p)
        assert np.array_equal(bits(b), bits(compress(h, s, p)))  # one kernel for both callers
        assert_seed_product(b, h, s, bit_exact=True)
        assert_seed_product(helpers.dense_compress(h, s, p), h, s)
        assert_seed_product(scipy.sparse.csr_array(h) @ seed_matrix(s), h, s)
        entries = recover_entries(b, p, s)
        assert_row_major(entries)
        assert len(entries.values) == n + 2 * len(p.rows)
        assert np.array_equal(bits(entries.toarray()), bits(helpers.dense_recover(b, p, s)))
        assert np.array_equal(bits(recover(b, p, s)), bits(entries.toarray()))
        assert np.array_equal(entries.toarray(), h)

    @ORACLE
    @given(patterned_matrices())
    def test_same_errors_as_the_dense_path(self, case):
        n, pairs, h, rnd = case
        p = SparsityPattern.from_pairs(n, pairs)
        s = SeedGrouping(greedy_rs_colouring(pattern_to_graph(p)))
        listed = {(min(i, j), max(i, j)) for i, j in pairs}
        free = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in listed]
        bad = h.copy()
        for i, j in rnd.sample(free, min(len(free), rnd.randint(0, 3))):
            bad[i, j] = bad[j, i] = rnd.uniform(0.5, 10.0)
        if n >= 2 and rnd.random() < 0.5:
            i, j = rnd.sample(range(n), 2)
            bad[i, j] += 1.0
        wrong = rnd.choice([s, SeedGrouping(Colouring.of([0] * (n + 1)))])
        other = rnd.choice([p, SparsityPattern.from_pairs(n + 1, [])])
        want = outcome(lambda: helpers.dense_compress(bad, wrong, other))
        got = outcome(lambda: compress(CooMatrix.from_dense(bad), wrong, other))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_seed_product(got, bad, wrong, bit_exact=True)
        colours = [rnd.randrange(3) for _ in range(n)]
        arbitrary = SeedGrouping(Colouring.of(colours, k=3))  # rs or not
        b = rnd.choice([np.ones((n, 3)), np.ones((n, 2))])
        want = outcome(lambda: helpers.dense_recover(b, p, arbitrary))
        got = outcome(lambda: recover_entries(b, p, arbitrary).toarray())
        assert_same(got, want)

    def test_explicit_zeros_are_no_entries(self):
        # stored zeros, -0.0 among them, are neither pattern pairs nor stray entries
        coo = CooMatrix(3, np.array([0, 0, 1, 2]), np.array([0, 2, 1, 0]), np.array([2.0, -0.0, 0.0, 0.0]))
        p = SparsityPattern.from_coo(coo)
        assert (p.rows.size, p.cols.size) == (0, 0)
        s = SeedGrouping(greedy_rs_colouring(pattern_to_graph(p)))
        assert np.array_equal(bits(compress(coo, s, p)), bits([[2.0], [0.0], [0.0]]))

    def test_no_cells(self):
        empty = CooMatrix(0, np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))
        s = SeedGrouping(Colouring.of([]))
        p = SparsityPattern.from_coo(empty)
        assert compress(empty, s, p).shape == (0, 0)
        assert recover_entries(np.zeros((0, 0)), p, s).toarray().shape == (0, 0)


# -- the MatrixMarket reader against the dense reader it replaced --------------------------

MM_SOURCE = "h.mtx"
READER = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# the line mutations the whole-file path refuses, so that the line scanner names them
LINE_MUTATIONS = ["comment", "blank", "underscore", "junk", "range", "fields"]
FILE_MUTATIONS = ["non-finite", "repeat", "mirror", "count", "drop", "spacing", "zero"]


def number_token(kind: str, rnd: random.Random) -> str:
    if kind == "integer":
        return rnd.choice(["3", "-7", "+12", "007", "١٢", str(rnd.randint(-10**20, 10**20)),
                           str(rnd.randint(-99, 99))])
    return rnd.choice(["-2.5", "1E5", ".5", "3.", "+4", "1e-320", "5e-324", "٣.٥",
                       repr(rnd.uniform(-10.0, 10.0)),
                       repr(rnd.random() * 10.0 ** rnd.randint(-300, 300))])


@st.composite
def matrix_market_texts(draw):
    """(text, entries, clean): a MatrixMarket file over a symmetric structure,
    then mutated; entries are its entry lines, and clean says that every line
    is well formed, so that the whole-file path must read it."""
    kind = draw(st.sampled_from(["real", "integer", "pattern"]))
    symmetry = draw(st.sampled_from(["symmetric", "general"]))
    n = draw(st.integers(0, 7))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = rnd.choice([0.2, 0.5, 1.0])
    cells = []
    for i, j in [(i, j) for i in range(n) for j in range(i + 1) if rnd.random() < density]:
        if symmetry == "general":
            cells += [(i, j), (j, i)] if i != j else [(i, i)]
        else:
            cells.append((i, j) if rnd.random() < 0.5 else (j, i))
    rnd.shuffle(cells)
    value = {}
    for i, j in cells:  # in general data both cells of a pair get one value
        value.setdefault((max(i, j), min(i, j)), number_token(kind, rnd))
    entries = [f"{i + 1} {j + 1}" + ("" if kind == "pattern" else f" {value[max(i, j), min(i, j)]}")
               for i, j in cells]
    inserted: list[tuple[int, str]] = []
    delta = 0
    mutations = draw(st.lists(st.sampled_from(LINE_MUTATIONS + FILE_MUTATIONS), max_size=3))
    for mutation in mutations:
        if mutation in ("comment", "blank"):
            spellings = ["%", "% note", "  %x 1 2"] if mutation == "comment" else ["", "  ", "\t"]
            inserted.append((rnd.randint(0, len(entries)), rnd.choice(spellings)))
            continue
        if mutation == "count":
            delta += rnd.choice([-1, 1])
            continue
        if not entries:
            continue
        t = rnd.randrange(len(entries))
        fields = entries[t].split()
        if len(fields) < (3 if mutation in ("non-finite", "zero") else 2):  # a line cut short before
            continue
        if mutation in ("repeat", "mirror"):
            again = fields if mutation == "repeat" else [fields[1], fields[0], *fields[2:]]
            entries.insert(rnd.randint(0, len(entries)), " ".join(again))
            continue
        if mutation == "drop":
            del entries[t]
            continue
        if mutation == "spacing":
            entries[t] = rnd.choice(["\t", "  ", " \x0c"]).join(fields) + rnd.choice(["", " ", "\t"])
            continue
        if mutation == "underscore":
            fields[rnd.randrange(len(fields))] = rnd.choice(["1_0", "_1", "1_"])
        elif mutation == "junk":
            fields[-1] = rnd.choice(["x", "1.5" if kind == "integer" else "0x1", "--1", "1e"])
        elif mutation == "range":
            fields[rnd.randrange(2)] = rnd.choice(["0", str(n + 1), "-1"])
        elif mutation == "fields":
            fields = fields[:-1] if rnd.random() < 0.5 else fields + ["1"]
        elif mutation == "non-finite":
            fields[2] = rnd.choice(["nan", "-inf", "Infinity", "1e400"])
        else:  # an explicit zero
            fields[2] = rnd.choice(["0", "-0", "0.0", "-0.0", "0e5"] if kind == "real" else ["0", "-0"])
        entries[t] = " ".join(fields)
    lines = list(entries)
    for at, line in sorted(inserted, reverse=True):
        lines.insert(at, line)
    header = rnd.choice([f"%%MatrixMarket matrix coordinate {kind} {symmetry}",
                         f"%%MatrixMarket MATRIX Coordinate {kind.upper()} {symmetry.title()}"])
    preamble = rnd.sample(["% written by hand", "", "%", "   "], rnd.randint(0, 2))
    sep = rnd.choice(["\n", "\n", "\r\n"])
    text = sep.join([header, *preamble, f"{n} {n} {len(entries) + delta}", *lines])
    text += rnd.choice(["", sep])
    def numerals(line: str) -> bool:  # others, as ٣.٥ or an integer nan, go to the line scanner
        return line.isascii() and (kind != "integer" or re.fullmatch(r"[+-]?[0-9]+", line.split()[2]))

    clean = not set(mutations) & set(LINE_MUTATIONS) and all(map(numerals, entries))
    return text, entries, clean


def outcome_of_reading(text: str, lines: bool):
    return outcome(lambda: parse_matrix_market(text.split("\n") if lines and text else
                                               [] if lines else text, MM_SOURCE))


class TestMatrixMarketOracle:
    @READER
    @given(matrix_market_texts(), st.booleans())
    def test_same_entries_or_same_error(self, case, lines):
        text, entries, clean = case
        want = outcome(lambda: helpers.dense_parse_matrix_market(text.split("\n"), MM_SOURCE))
        if clean and not lines:  # well-formed lines are read by the whole-file path
            assert hessian._entry_arrays(text, MM_SOURCE) is not None
        got = outcome_of_reading(text, lines)
        if isinstance(want, tuple):
            assert got == want
            return
        assert isinstance(got, CooMatrix) and got.n == want.shape[0]
        assert_row_major(got)
        # every listed cell is stored, and in symmetric data its mirror too
        symmetric = "symmetric" in text.split("\n")[0].lower()
        pairs = [tuple(line.split()[:2]) for line in entries]
        assert len(got.values) == len(pairs) + symmetric * sum(i != j for i, j in pairs)
        assert np.array_equal(bits(got.toarray()), bits(want))
        assert np.array_equal(bits(got.values), bits(want[got.rows, got.cols]))

    @READER
    @given(matrix_market_texts())
    def test_pattern_compress_recover_as_the_dense_path(self, case):
        text, _, _ = case
        try:
            want = helpers.dense_parse_matrix_market(text.split("\n"), MM_SOURCE)
        except PatternError:
            return
        m = parse_matrix_market(text, MM_SOURCE)
        old = outcome(lambda: Frozen.from_dense(want))
        p = outcome(lambda: SparsityPattern.from_coo(m))
        if isinstance(old, tuple):
            assert p == old
            return
        assert list(zip(p.rows.tolist(), p.cols.tolist())) == sorted(old.offdiag)
        s = SeedGrouping(greedy_rs_colouring(pattern_to_graph(p)))
        b = outcome(lambda: compress(m, s, p))
        if isinstance(b, tuple):
            assert b == outcome(lambda: helpers.dense_compress(want, s, p))
            return
        assert_seed_product(b, want, s, bit_exact=True)
        out = recover_entries(b, p, s)
        assert np.array_equal(bits(out.toarray()), bits(helpers.dense_recover(b, p, s)))
        assert np.array_equal(out.toarray(), want)

    def test_fast_path_names_post_line_errors_at_their_line(self):
        text = "%%MatrixMarket matrix coordinate real general\n% c\n\n2 2 2\n2 1 1.0\n1 1 nan\n"
        assert hessian._entry_arrays(text, "m.mtx") is not None
        with pytest.raises(PatternError, match=r"^m\.mtx:6: non-finite value$"):
            parse_matrix_market(text, "m.mtx")

    @pytest.mark.parametrize("symmetry, entries, message", [
        ("general", "2 1 1.0\n1 1 nan\n", "non-finite value"),
        ("symmetric", "2 1 1.0\n1 2 3.0\n", r"duplicate entry \(1,2\)"),
    ])
    @pytest.mark.parametrize("lines", [False, True], ids=["whole", "by-line"])
    def test_blank_line_keeps_line_numbers(self, symmetry, entries, message, lines):
        # the line check drops blank lines, so entries after one must not move up a line
        text = f"%%MatrixMarket matrix coordinate real {symmetry}\n2 2 2\n\n{entries}"
        with pytest.raises(PatternError, match=rf"^m\.mtx:5: {message}$"):
            parse_matrix_market(text.split("\n") if lines else text, "m.mtx")

    def test_side_past_int64_keys(self):
        text = f"%%MatrixMarket matrix coordinate real symmetric\n{hessian.MAX_SIDE + 1} " \
               f"{hessian.MAX_SIDE + 1} 1\n1 1 1.0\n"
        with pytest.raises(OverflowError):
            parse_matrix_market(text, "m.mtx")

    @pytest.mark.skipif(hessian._physical_memory() is None, reason="the OS does not give its memory")
    def test_side_past_memory(self):
        # one row more than the machine's memory holds at ROW_BYTES a row is refused;
        # the largest side that fits reads as a one-cell matrix
        fits = hessian._physical_memory() // hessian.ROW_BYTES
        for n in (fits + 1, fits):
            text = f"%%MatrixMarket matrix coordinate real symmetric\n{n} {n} 1\n{n} {n} 2.0\n"
            if n > fits:
                with pytest.raises(MemoryError, match=rf"^m\.mtx: matrix side {n} needs more than"):
                    parse_matrix_market(text, "m.mtx")
            else:
                m = parse_matrix_market(text, "m.mtx")
                assert (m.n, m.rows.tolist(), m.cols.tolist(), m.values.tolist()) == (n, [n - 1], [n - 1], [2.0])


def read_cells(call):
    """The cells of the CooMatrix a reader gives, values as their bits, or the
    type and message of what it raised."""
    m = outcome(call)
    return m if isinstance(m, tuple) else (m.n, m.rows.tolist(), m.cols.tolist(), bits(m.values).tolist())


class TestEntryLineCheck:
    """Where the ENTRY_LINE check ends: each hard literal gives the line
    scanner's matrix bit for bit, or its error, and reaches the line scanner
    only when the check or the index range refuses it."""

    CASES = [  # (kind, entry line, whether the whole-file path reads it)
        ("real", "2 1 5e-324", True),
        ("real", "2 1 2.4703282292062327e-324", True),  # rounds to 0.0
        ("real", "2 1 1.7976931348623158e+308", True),
        ("real", "2 1 1.7976931348623159e+308", True),  # rounds to inf: non-finite at its line
        ("real", "2 1 0.12345678901234567890123456789", True),
        ("real", "2 1 123456789012345678901234567890e-5", True),
        ("real", "2 1 1.e5", True),
        ("real", "2 1 +.5", True),
        ("real", "2 1 -0.0", True),
        ("real", "2 1 nan", True),
        ("real", "2 1 -inf", True),
        ("real", "2 1 Infinity", True),
        ("real", "2 1 -nAn", True),
        ("real", "2 1 ٣.٥", False),
        ("real", "2 1 1_0.5", False),
        ("real", "2 1 0x1p3", False),
        ("real", "2 1 .", False),
        ("integer", "2 1 +12", True),
        ("integer", "2 1 007", True),
        ("integer", f"2 1 {2**53 + 1}", True),
        ("integer", f"2 1 {2**63}", True),
        ("integer", f"2 1 -{2**64 + 1}", True),
        ("integer", "2 1 " + "9" * 640, True),  # inf: non-finite at its line
        ("integer", "2 1 " + "9" * 641, False),
        ("integer", "2 1 " + "1" * 4301, False),  # past int()'s digit limit: non-numeric
        ("integer", "2 1 ١٢", False),
        ("integer", "2 1 1.0", False),
        ("integer", "2 1 inf", False),
        ("pattern", "2 1", True),
        ("pattern", f"{2:015d} {1:015d}", True),
        ("pattern", f"{2:016d} 1", False),
        ("pattern", f"2 {'9' * 15}", False),  # out of range
        ("pattern", f"{'9' * 16} 1", False),
        ("pattern", "+2 1", False),
    ]

    @staticmethod
    def read_whole(monkeypatch, text: str):
        """The cells or error of `text` read whole, and the sources the line
        scanner ran on."""
        scans = []

        def scan(lines, source):
            scans.append(source)
            return scan_matrix(lines, source)

        scan_matrix = hessian._scan_matrix
        monkeypatch.setattr(hessian, "_scan_matrix", scan)
        return read_cells(lambda: parse_matrix_market(text, "m.mtx")), scans

    @pytest.mark.parametrize("kind, line, whole", CASES, ids=lambda case: str(case)[:40])
    def test_literal(self, monkeypatch, kind, line, whole):
        text = f"%%MatrixMarket matrix coordinate {kind} symmetric\n2 2 2\n1 1 {'' if kind == 'pattern' else 3}\n{line}\n"
        want = read_cells(lambda: hessian._scan_matrix(text.split("\n"), "m.mtx"))
        assert self.read_whole(monkeypatch, text) == (want, [] if whole else ["m.mtx"])

    @pytest.mark.parametrize("chunk", [0, 1, 9, 100])
    @pytest.mark.parametrize("last", ["{n} {n} 1.0 2", "{n} {n} 1,0", "{n} {n}.0 1.0"])
    def test_match_in_chunks_of_whole_lines(self, monkeypatch, chunk, last):
        """A file far longer than MATCH_CHUNK is checked chunk by chunk, and a
        bad last line still sends it to the line scanner.  numpy alone would
        read ``{n} {n}.0 1.0`` as the cell (n, n)."""
        monkeypatch.setattr(graph, "MATCH_CHUNK", chunk)
        n = 300
        lines = [f"{i} {i} {i / 7!r}" for i in range(1, n)] + [last.format(n=n)]
        text = f"%%MatrixMarket matrix coordinate real symmetric\n{n} {n} {n}\n" + "\n".join(lines) + "\n"
        want = read_cells(lambda: hessian._scan_matrix(text.split("\n"), "m.mtx"))
        assert self.read_whole(monkeypatch, text) == (want, ["m.mtx"])


# -- the MatrixMarket writer ------------------------------------------------------------

SPECIAL_FINITE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.7976931348623157e308,
                  1 / 3, -1.5, 1e16, 123456789.0]


def symmetric_coo(n: int, pairs, rnd: random.Random) -> CooMatrix:
    """Every diagonal cell and both cells of every pair, each pair with one value
    drawn from special finite values and uniform ones."""
    def draw():
        return rnd.choice(SPECIAL_FINITE) if rnd.random() < 0.4 else rnd.uniform(-10.0, 10.0)

    cells = {(v, v): draw() for v in range(n)}
    for i, j in pairs:
        cells[i, j] = cells[j, i] = cells.get((j, i), draw())
    ordered = sorted(cells)
    rows = np.array([i for i, _ in ordered], dtype=np.intp)
    cols = np.array([j for _, j in ordered], dtype=np.intp)
    return CooMatrix(n, rows, cols, np.array([cells[c] for c in ordered], dtype=float))


class TestMatrixMarketWriter:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(patterned_matrices())
    def test_round_trip_keeps_every_bit(self, tmp_path, case):
        n, pairs, _, rnd = case
        m = symmetric_coo(n, pairs, rnd)
        path = str(tmp_path / "h.mtx")
        write_matrix_market(m, path)
        back = read_matrix_market(path)
        written = np.flatnonzero(bits(m.values))  # +0.0 cells are left out, -0.0 ones kept
        assert back.n == n
        assert np.array_equal(back.rows, m.rows[written])
        assert np.array_equal(back.cols, m.cols[written])
        assert np.array_equal(bits(back.values), bits(m.values[written]))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(patterned_matrices())
    def test_same_text_as_one_format_per_line(self, case):
        n, pairs, _, rnd = case
        m = symmetric_coo(n, pairs, rnd)
        out = io.StringIO()
        write_matrix_market(m, out)
        keep = (m.rows >= m.cols) & (bits(m.values) != 0)
        assert out.getvalue() == helpers.line_formatted_matrix_market(
            m.rows[keep], m.cols[keep], m.values[keep], n)

    def test_lower_triangle_repr_per_cell(self):
        m = CooMatrix(2, np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]), np.array([-0.0, 0.1, 0.1, 0.0]))
        out = io.StringIO()
        write_matrix_market(m, out)
        assert out.getvalue() == ("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n"
                                  "1 1 -0.0\n2 1 0.1\n")

    @pytest.mark.parametrize("values, message", [
        ([1.0, 2.0, 3.0, 1.0], "matrix is not symmetric"),
        ([math.inf, 2.0, 2.0, 1.0], "not finite"),
        ([1.0, math.nan, math.nan, 1.0], "not finite"),
        ([1.0, 0.0, -0.0, 1.0], "matrix is not symmetric"),  # -0.0 would be read into both
        ([1.0, -0.0, 0.0, 1.0], "matrix is not symmetric"),
        ([1.0, None, -0.0, 1.0], "matrix is not symmetric"),  # None: the cell is not stored
    ])
    def test_rejects_what_the_reader_would(self, values, message):
        stored = [t for t, v in enumerate(values) if v is not None]
        m = CooMatrix(2, np.array([0, 0, 1, 1])[stored], np.array([0, 1, 0, 1])[stored],
                      np.array([values[t] for t in stored]))
        with pytest.raises(PatternError, match=message):
            write_matrix_market(m, io.StringIO())


# -- no dense n x n array on the COO path ------------------------------------------------------


class TestNoDenseArray:
    def test_grid_of_20000_stays_sparse(self, tmp_path):
        # one dense n x n float64 array would take 3.2 GB; tracemalloc sees numpy's buffers
        side = 141
        n = side * side
        grid = np.arange(n).reshape(side, side)
        lo = np.concatenate((grid[:, :-1].ravel(), grid[:-1, :].ravel()))
        hi = np.concatenate((grid[:, 1:].ravel(), grid[1:, :].ravel()))
        rng = np.random.default_rng(20000)
        diagonal, off = rng.uniform(0.5, 2.0, n), rng.uniform(-2.0, -0.5, lo.size)
        rows = np.concatenate((np.arange(n), lo, hi))
        cols = np.concatenate((np.arange(n), hi, lo))
        order = np.argsort(rows * n + cols)
        h = CooMatrix(n, rows[order], cols[order], np.concatenate((diagonal, off, off))[order])
        path = str(tmp_path / "h.mtx")
        write_matrix_market(h, path)
        tracemalloc.start()
        try:
            m = read_matrix_market(path)
            pattern = SparsityPattern.from_coo(m)
            s = SeedGrouping(greedy_rs_colouring(pattern_to_graph(pattern)))
            out = recover_entries(compress(m, s, pattern), pattern, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert np.array_equal(out.rows, h.rows) and np.array_equal(out.cols, h.cols)
        assert np.array_equal(bits(out.values), bits(h.values))


# -- the dense CSV writer against the repr-per-cell writer it replaced ---------------

WRITER = settings(max_examples=150, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
SPECIAL_CELLS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                 2.2250738585072014e-308 / 3, 1e16, 1 / 3, -1.5, 1.0, 123456789.0]


@st.composite
def csv_matrices(draw):
    """2-D arrays with cells from the special values, arbitrary float64 bit patterns
    and hypothesis floats; C or Fortran order, a strided slice, float32 or integer."""
    shape = (draw(st.integers(0, 30)), draw(st.integers(0, 30)))
    density = draw(st.sampled_from([0.0, 0.02, 0.2, 0.7, 1.0]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array(SPECIAL_CELLS + draw(st.lists(st.floats(width=64), max_size=8)))
    a = pool[gen.integers(0, len(pool), shape)]
    bits = gen.integers(-2**63, 2**63 - 1, shape, dtype=np.int64, endpoint=True).view(float)
    a = np.where(gen.random(shape) < 0.2, bits, a)
    a[gen.random(shape) >= density] = 0.0
    layout = draw(st.sampled_from(["C", "F", "slice", "float32", "int"]))
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "slice":
        big = gen.standard_normal((2 * shape[0], 2 * shape[1] + 1))
        big[::2, 1::2] = a
        return big[::2, 1::2]
    if layout == "float32":
        with np.errstate(all="ignore"):
            return a.astype(np.float32)
    if layout == "int":
        whole = gen.integers(-2**62, 2**62, shape, dtype=np.int64)
        return np.where(a != 0, whole, 0)
    return a


def oracle_csv(matrix) -> str:
    out = io.StringIO()
    helpers.repr_dense_csv(matrix, out)
    return out.getvalue()


class TestDenseCsvWriter:
    @WRITER
    @given(csv_matrices(), st.booleans())
    def test_same_text_as_repr_per_cell(self, tmp_path, matrix, to_path):
        path = str(tmp_path / "m.csv")
        if to_path:
            write_dense_csv(matrix, path)
        else:
            with open(path, "w") as fh:
                write_dense_csv(matrix, fh)
                assert not fh.closed
        with open(path) as fh:
            assert fh.read() == oracle_csv(matrix)

    @WRITER
    @given(csv_matrices())
    def test_read_back_keeps_every_bit(self, tmp_path, matrix):
        a = np.asarray(matrix, dtype=float)
        path = str(tmp_path / "m.csv")
        write_dense_csv(matrix, path)
        if not np.isfinite(a).all():  # the writer keeps nan and inf, the reader refuses them
            with pytest.raises(PatternError, match=r":\d+: non-finite value$"):
                read_dense_csv(path)
            return
        back = read_dense_csv(path)
        if 0 in a.shape:  # the text has no nonblank line, so the width is lost
            assert back.shape == (0, 0)
            return
        assert back.shape == a.shape
        assert np.array_equal(back.view(np.int64), a.view(np.int64))

    @WRITER
    @given(patterned_matrices())
    def test_coo_same_text_as_repr_per_cell(self, case):
        # stored +0.0 and -0.0 cells, subnormals, and each value in two mirror cells
        n, pairs, _, rnd = case
        m = symmetric_coo(n, pairs, rnd)
        out = io.StringIO()
        write_dense_csv(m, out)
        assert out.getvalue() == oracle_csv(m.toarray())

    def test_each_distinct_value_formatted_once(self):
        a = np.array([[0.1, -0.0, 0.1], [5e-324, 0.1, -0.0], [0.0, 5e-324, 2.0]])
        calls = []

        def counted(x):
            calls.append(x)
            return repr(x)

        out = io.StringIO()
        with mock.patch.object(hessian, "repr", counted, create=True):
            write_dense_csv(a, out)
        assert out.getvalue() == "0.1,-0.0,0.1\n5e-324,0.1,-0.0\n0.0,5e-324,2.0\n" == oracle_csv(a)
        assert sorted(map(bits, calls)) == sorted(map(bits, [0.1, -0.0, 5e-324, 2.0]))

    def test_special_cells_spelled_by_repr(self):
        out = io.StringIO()
        write_dense_csv(np.array([[0.0, -0.0, math.nan], [math.inf, -math.inf, 5e-324]]), out)
        assert out.getvalue() == "0.0,-0.0,nan\ninf,-inf,5e-324\n"

    @pytest.mark.parametrize("shape, text", [((0, 0), "\n"), ((0, 3), "\n"), ((2, 0), "\n\n")])
    def test_empty_shapes(self, shape, text):
        out = io.StringIO()
        write_dense_csv(np.zeros(shape), out)
        assert out.getvalue() == text == oracle_csv(np.zeros(shape))

    def test_rejects_non_matrix(self):
        with pytest.raises(PatternError, match=r"need a 2-D matrix, got shape \(3,\)"):
            write_dense_csv(np.zeros(3), io.StringIO())


# -- the dense CSV reader on malformed text ----------------------------------------------

NUMBER_TOKENS = st.one_of(st.floats().map(repr), st.integers(-99, 99).map(str),
                          st.sampled_from([" 2 ", "1_0", "1e3", "-Infinity", "nan"]))
CSV_TOKENS = st.one_of(
    NUMBER_TOKENS,
    st.sampled_from(["", " ", "x", "1.0.0", "--1", "1e", "e5", "0x1p3"]),
    st.text(alphabet="0123456789.-+eE xn_", max_size=6),
)


@st.composite
def malformed_csv_text(draw):
    """Rows of up to five tokens with ragged lengths, empty fields, trailing commas,
    non-numeric tokens and blank lines between rows; in half the cases every
    token is a number, so that ragged rows and well-formed files are reached."""
    numbers_only = draw(st.booleans())
    tokens = NUMBER_TOKENS if numbers_only else CSV_TOKENS
    ends = [""] if numbers_only else ["", "", ",", ", "]
    width = draw(st.integers(1, 5))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        size = draw(st.sampled_from([width, width, width, 0, width - 1, width + 1]))
        lines.append(",".join(draw(st.lists(tokens, min_size=size, max_size=size)))
                     + draw(st.sampled_from(ends)))
        lines += draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=2))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def float_parsed_rows(text: str, path: str):
    """The rows of `text` parsed with float, where a field with ``_`` is not a
    number and nan or inf is not a value, or the PatternError message that
    names the first bad line."""
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            row = [float(tok.replace("_", "x")) for tok in line.split(",")]
        except ValueError:
            return f"{path}:{lineno}: non-numeric field"
        if any(math.isnan(x) or math.isinf(x) for x in row):
            return f"{path}:{lineno}: non-finite value"
        if rows and len(row) != len(rows[0]):
            return f"{path}:{lineno}: expected {len(rows[0])} fields"
        rows.append(row)
    return rows


class TestDenseCsvReaderFuzz:
    @WRITER
    @given(malformed_csv_text())
    def test_pattern_error_or_float_rows(self, tmp_path, text):
        path = tmp_path / "b.csv"
        path.write_text(text)
        expected = float_parsed_rows(text, str(path))
        try:
            got = read_dense_csv(str(path))
        except PatternError as exc:  # any other error, IndexError or bare ValueError, fails
            assert str(exc) == expected
        else:
            assert not isinstance(expected, str), expected
            want = np.array(expected) if expected else np.zeros((0, 0))
            assert got.shape == want.shape
            assert np.array_equal(got, want)


class TestDenseCsvReader:
    @pytest.mark.parametrize("data, line", [
        (b"1.0,2.0\n3.0,\xff\n", 2),
        (b"\xff", 1),
        (b"1.0\r\n2.0\r3.0\n\n4.\xc3\n", 5),
    ])
    def test_not_utf8_named_at_its_line(self, tmp_path, data, line):
        path = tmp_path / "b.csv"
        path.write_bytes(data)
        with pytest.raises(PatternError, match=rf"^{re.escape(str(path))}:{line}: not UTF-8 text$"):
            read_dense_csv(str(path))

    @pytest.mark.parametrize("text, line", [("1_0,2\n", 1), ("1.0,2.0\n3.0,4_0.5\n", 2),
                                            ("1.0\n_1\n", 2)])
    def test_underscore_is_not_a_number(self, tmp_path, text, line):
        path = tmp_path / "b.csv"
        path.write_text(text)
        with pytest.raises(PatternError, match=rf"^{re.escape(str(path))}:{line}: non-numeric field$"):
            read_dense_csv(str(path))

    @pytest.mark.parametrize("text, line", [("1,2\nnan,3\n", 2), ("inf\n", 1),
                                            ("1,2\n\n3,-Infinity\n", 3), ("1,2\n1e400,3\n", 2)])
    def test_non_finite_value_named_at_its_line(self, tmp_path, text, line):
        # hess-recover would write nan into its CSV output; the MatrixMarket reader rejects it too
        path = tmp_path / "b.csv"
        path.write_text(text)
        with pytest.raises(PatternError, match=rf"^{re.escape(str(path))}:{line}: non-finite value$"):
            read_dense_csv(str(path))

    @pytest.mark.parametrize("text", ["", "\n", "\n\n", " \t\n\r\n"])
    def test_no_rows_reads_as_0_by_0(self, tmp_path, text):
        path = tmp_path / "b.csv"
        path.write_text(text)
        got = read_dense_csv(str(path))
        assert got.shape == (0, 0) and got.dtype == np.float64

    @WRITER
    @given(csv_matrices())
    def test_whole_file_path_reads_what_the_writer_wrote(self, tmp_path, matrix):
        a = np.asarray(matrix, dtype=float)
        a = np.where(np.isfinite(a), a, 1.5)
        path = str(tmp_path / "m.csv")
        write_dense_csv(a, path)
        with open(path) as fh:
            text = fh.read()
        if 0 in a.shape:
            return  # no nonblank line: the scanner reads it as 0 x 0
        with mock.patch.object(hessian, "_scan_csv", side_effect=AssertionError("the line scanner ran")):
            back = read_dense_csv(path)
        assert np.array_equal(bits(back), bits(a))
        assert np.array_equal(bits(hessian.parse_dense_csv(text.split("\n"))), bits(a))

    @pytest.mark.parametrize("text", ["1,2\n\n3,4\n", "1,2\n3\n", "1\n2,3\n", "1,2\n3,4,5\n6\n",
                                      "nan,1\n", "1e400\n", "1_0\n", "1,2,\n"])
    def test_other_files_go_to_the_scanner(self, tmp_path, text):
        path = tmp_path / "b.csv"
        path.write_text(text)
        with mock.patch.object(hessian, "_scan_csv", side_effect=RuntimeError("scanned")):
            with pytest.raises(RuntimeError, match="scanned"):
                read_dense_csv(str(path))

    def test_ragged_rows_named_even_when_the_field_count_balances(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("1,2\n3,4,5\n6\n")
        with pytest.raises(PatternError, match=rf"^{re.escape(str(path))}:2: expected 2 fields$"):
            read_dense_csv(str(path))

    def test_text_mode_line_breaks(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_bytes(b"1.0,2.0\r\n3.0,4.0\r5.0,6.0")
        assert np.array_equal(read_dense_csv(str(path)), [[1, 2], [3, 4], [5, 6]])
