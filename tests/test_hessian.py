import io
import math
import random
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
from rscol.colouring import Colouring, is_rs
from rscol.graph import Graph, path_graph, star_graph
from rscol.hessian import (
    PatternError,
    SeedGrouping,
    SparsityPattern,
    compress,
    greedy_rs_colouring,
    parse_matrix_market,
    pattern_to_graph,
    read_dense_csv,
    recover,
    write_dense_csv,
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
        m = parse_matrix_market(io.StringIO(text))
        assert m[0, 1] == -1.5 and m[1, 0] == -1.5

    def test_pattern_kind(self):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 1\n"
        m = parse_matrix_market(io.StringIO(text))
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
        m = parse_matrix_market(io.StringIO(text))
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
            assert np.array_equal(b, helpers.frozenset_compress(h, s, old))
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
        back = read_dense_csv(path)
        if 0 in a.shape:  # the text has no nonblank line, so the width is lost
            assert back.shape == (0, 0)
            return
        assert back.shape == a.shape
        nan = np.isnan(a)
        assert np.array_equal(np.isnan(back), nan)  # repr drops NaN sign and payload
        assert np.array_equal(back.view(np.int64)[~nan], a.view(np.int64)[~nan])

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
    number, or the PatternError message that names the first bad line."""
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            row = [float(tok.replace("_", "x")) for tok in line.split(",")]
        except ValueError:
            return f"{path}:{lineno}: non-numeric field"
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
            assert np.array_equal(got, want, equal_nan=True)


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

    @pytest.mark.parametrize("text", ["", "\n", "\n\n", " \t\n\r\n"])
    def test_no_rows_reads_as_0_by_0(self, tmp_path, text):
        path = tmp_path / "b.csv"
        path.write_text(text)
        got = read_dense_csv(str(path))
        assert got.shape == (0, 0) and got.dtype == np.float64

    def test_text_mode_line_breaks(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_bytes(b"1.0,2.0\r\n3.0,4.0\r5.0,6.0")
        assert np.array_equal(read_dense_csv(str(path)), [[1, 2], [3, 4], [5, 6]])
