"""Graph ingest against the line parser and set-based builder it replaced.

Files are drawn with up to 40 edge lines and with over a thousand, and are
read both from their text (``parse_graph``) and from a file
(``read_graph_file``), so the edge-line regex check and its whitespace
normalisation, the numpy conversion, the fallback to the line scanner and the
text-mode line breaks are each compared with the oracles in helpers.
"""

import io
import random
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
from rscol import graph
from rscol.colouring import (
    ColouringError,
    parse_colouring,
    parse_partial_colouring,
    read_colouring_file,
    read_partial_colouring_file,
)
from rscol.constructions import CnfError, parse_cnf, read_cnf_file
from rscol.graph import (
    Graph,
    GraphError,
    format_graph,
    parse_graph,
    read_graph_file,
)
from rscol.hessian import PatternError, read_matrix_market

LARGE = 1024  # edge lines of a large file

FUZZ = settings(max_examples=80, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])

SIZES = st.one_of(st.integers(0, 40), st.integers(LARGE, LARGE + 150))


def distinct_edges(m: int, rnd: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """n and m distinct 1-based edges in random orientation and order."""
    n = 2 if m <= 1 else max(3, rnd.randint(m // 3 + 3, m + 3))
    while n * (n - 1) // 2 < m:
        n += 1
    seen: set[tuple[int, int]] = set()
    edges = []
    while len(edges) < m:
        u, v = rnd.sample(range(1, n + 1), 2)
        if (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            edges.append((u, v))
    return n, edges


def respell(value: int, how: int) -> str:
    """A spelling of `value` that int() reads back as `value`; the readers
    refuse the one with a ``_`` (how == 2) as a non-integer endpoint."""
    text = str(value)
    if how == 0:
        return "+" + text
    if how == 1:
        return "000" + text
    if how == 2 and len(text) > 1:
        return text[0] + "_" + text[1:]
    return text.translate(str.maketrans("0123456789", "０１２３４５６７８９"))


BAD_LINES = [
    "e 1", "e 1 2 3", "e x 2", "e 1.5 2", "e 0x1 2", "e 1e3 2", "q 1 2", "E 1 2",
    "p edge 3", "p edges 3 3", "p edge x 3", "p edge 3 y", "p edge 3 1", "%", "1 2",
    "cx 1 2", "c1 2",
]

# whitespace that str.split splits at: inside a line it separates tokens, and
# only "\n", "\r\n" and "\r" end a line of a file read in text mode
SEPARATORS = ["\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u2029"]

MUTATION = st.tuples(
    st.sampled_from(["comment", "blank", "respell", "huge", "range", "self-loop", "bad-line",
                     "edge-before-p", "no-p", "count", "indent", "separator", "join"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)


@st.composite
def graph_files(draw) -> str:
    """Graph files with comments, blank lines, odd spellings and bad lines."""
    m = draw(SIZES)
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    n, edges = distinct_edges(m, rnd)
    lines = [f"p edge {n} {m}"] + [f"e {u} {v}" for u, v in edges]
    for kind, a, b in draw(st.lists(MUTATION, max_size=4)):
        if not lines:
            break
        at = a % (len(lines) + 1)
        edge_at = 1 + a % m if m and lines[0].startswith("p") and len(lines) > m else None
        if kind == "comment":
            lines.insert(at, ["c", "c text here", "c 1 2", "  c\tindented", "c \0 nul"][b % 5])
        elif kind == "blank":
            lines.insert(at, ["", "   ", "\t"][b % 3])
        elif kind == "indent":
            lines[at % len(lines)] = "  " + lines[at % len(lines)] + " \t"
        elif kind == "respell" and edge_at is not None:
            parts = lines[edge_at].split()
            if len(parts) == 3 and parts[0] == "e" and parts[1].isascii():
                try:  # an inserted bad line such as "e x 2" has no value to respell
                    value = int(parts[1])
                except ValueError:
                    continue
                lines[edge_at] = f"e {respell(value, b % 4)} {parts[2]}"
        elif kind == "huge" and edge_at is not None:
            lines[edge_at] = f"e {'9' * (18 + b % 14)} 1"
        elif kind == "range" and edge_at is not None:
            lines[edge_at] = f"e {[0, -1, n + 1, 10**6][b % 4]} 1"
        elif kind == "self-loop" and edge_at is not None:
            lines[edge_at] = f"e {1 + b % n} {1 + b % n}"
        elif kind == "bad-line":
            lines.insert(at, BAD_LINES[b % len(BAD_LINES)])
        elif kind == "edge-before-p" and b % 4 == 0:
            lines.insert(0, "e 1 2")
        elif kind == "no-p" and b % 4 == 0 and lines[0].startswith("p"):
            del lines[0]
        elif kind == "count" and lines[0].startswith("p"):
            lines[0] = f"p edge {n} {max(0, m + [-1, 1, 5][b % 3])}"
        elif kind == "separator":
            lines[at % len(lines)] = lines[at % len(lines)].replace(
                " ", SEPARATORS[b % len(SEPARATORS)], 1 + b % 2)
        elif kind == "join" and len(lines) > 1:  # two lines become one
            at %= len(lines) - 1
            lines[at:at + 2] = [lines[at] + SEPARATORS[b % len(SEPARATORS)] + lines[at + 1]]
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from([newline, newline, ""]))


def outcome(read):
    """The graph that read() returns, or the message of its GraphError."""
    try:
        g = read()
    except GraphError as exc:
        return ("error", str(exc))
    adj = g.adjacency()
    assert all(type(w) is int for a in adj for w in a)
    return ("graph", g.n, adj)


def parsed(text: str):
    return outcome(lambda: parse_graph(text, "f.gr"))


def oracle(text: str, newline: str | None = "\n"):
    """``outcome`` of the line parser on the lines of `text`; with
    ``newline=None`` the lines are those of a file read in text mode."""
    return outcome(lambda: helpers.line_parsed_graph(io.StringIO(text, newline=newline), "f.gr"))


class TestAgainstLineParser:
    @FUZZ
    @given(graph_files())
    def test_same_graph_or_same_error(self, text):
        assert parsed(text) == oracle(text)

    @FUZZ
    @given(graph_files())
    def test_file_same_graph_or_same_error(self, tmp_path, monkeypatch, text):
        monkeypatch.chdir(tmp_path)
        with open("f.gr", "wb") as fh:
            fh.write(text.encode())  # no newline translation on the way out
        assert outcome(lambda: read_graph_file("f.gr")) == oracle(text, newline=None)

    @FUZZ
    @given(SIZES, st.integers(0, 2**32 - 1), st.integers(0, 10**6), st.booleans())
    def test_repeated_edge_rejected_at_its_line(self, m, seed, at, with_later_error):
        rnd = random.Random(seed)
        n, edges = distinct_edges(max(m, 1), rnd)
        lines = [f"p edge {n} {len(edges) + 1}"] + [f"e {u} {v}" for u, v in edges]
        first = rnd.randrange(1, len(lines))
        _, u, v = lines[first].split()
        repeat = first + 1 + at % (len(lines) - first)
        lines.insert(repeat, rnd.choice([f"e {u} {v}", f"e {v} {u}"]))
        if with_later_error:
            lines.append("e 1 1")
        lo, hi = sorted((int(u), int(v)))
        with pytest.raises(GraphError, match=rf"^f\.gr:{repeat + 1}: duplicate edge {lo} {hi}$"):
            parse_graph("\n".join(lines) + "\n", "f.gr")

    @FUZZ
    @given(SIZES, st.integers(0, 2**32 - 1), st.text(max_size=30))
    def test_format_roundtrip(self, m, seed, comment):
        n, edges = distinct_edges(m, random.Random(seed))
        g = Graph.from_edge_list(n, [(u - 1, v - 1) for u, v in edges])
        again = parse_graph(format_graph(g, comment=comment or None))
        assert again == g
        assert all(type(w) is int for a in again.adjacency() for w in a)

    def test_large_valid_file_needs_no_line_check(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a line-by-line check ran on a valid large file")

        n, edges = distinct_edges(LARGE, random.Random(3))
        text = f"p edge {n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)
        expected = helpers.line_parsed_graph(io.StringIO(text))
        monkeypatch.setattr(graph, "_scan_graph", refuse)
        assert parse_graph(text) == expected


class TestEdgeLineCheck:
    """Where the EDGE_LINES check ends: each spelling of one edge line gives the
    oracle's graph or error, and reaches the line scanner only when the check
    or the fast path's build refuses it."""

    SPELLINGS = {
        # name: (edge line from its endpoints, whether the fast path reads it)
        "plain": (lambda u, v: f"e {u} {v}", True),
        "18 digits, leading zeros": (lambda u, v: f"e {u:018d} {v:018d}", True),
        "19 digits, leading zeros": (lambda u, v: f"e {u:019d} {v}", False),
        "18 digits, outside 1..n": (lambda u, v: f"e {u} {'9' * 18}", False),
        "19 digits, past int64": (lambda u, v: f"e {'9' * 19} {v}", False),
        "tabs": (lambda u, v: f"e\t{u}\t{v}", True),
        "double spaces": (lambda u, v: f"e  {u}  {v}", True),
        "leading and trailing blanks": (lambda u, v: f" \t e {u} {v} \x0b", True),
        "plus sign": (lambda u, v: f"e +{u} {v}", False),
        "self-loop": (lambda u, v: f"e {u} {u}", False),
    }

    @pytest.mark.parametrize("m", [1, 31, 32, LARGE])
    @pytest.mark.parametrize("at", ["first", "last"])
    @pytest.mark.parametrize("end", ["\n", ""], ids=["newline", "no-newline"])
    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_spelling(self, monkeypatch, m, at, end, spelling):
        spell, fast = self.SPELLINGS[spelling]
        n, edges = distinct_edges(m, random.Random(m))
        lines = [f"e {u} {v}" for u, v in edges]
        i = 0 if at == "first" else -1
        lines[i] = spell(*edges[i])
        text = f"p edge {n} {m}\n" + "\n".join(lines) + end
        scans = []

        def scan(lines, source):
            scans.append(source)
            return scan_graph(lines, source)

        scan_graph = graph._scan_graph
        monkeypatch.setattr(graph, "_scan_graph", scan)
        assert parsed(text) == oracle(text)
        assert scans == ([] if fast else ["f.gr"])

    @pytest.mark.parametrize("chunk", [0, 1, 9, 100])
    @pytest.mark.parametrize("last", ["e {u} {v}", "e {u}e{v}", "e {u} {v} 3"])
    def test_match_in_chunks_of_whole_lines(self, monkeypatch, chunk, last):
        """A file far longer than MATCH_CHUNK is checked chunk by chunk, and a
        bad line in the last chunk still sends it to the line scanner.  numpy
        alone would read ``e {u}e{v}`` as the edge u v."""
        monkeypatch.setattr(graph, "MATCH_CHUNK", chunk)
        n, edges = distinct_edges(LARGE, random.Random(chunk))
        lines = [f"e {u} {v}" for u, v in edges]
        lines[-1] = last.format(u=edges[-1][0], v=edges[-1][1])
        text = f"p edge {n} {LARGE}\n" + "\n".join(lines) + "\n"
        assert parsed(text) == oracle(text)

    @pytest.mark.parametrize("m", [0, 1, 31, 32, LARGE])
    def test_numpy_reads_from_bulk_min_edges(self, monkeypatch, m):
        """Every valid file, the one without edges included, has its endpoints
        read by one numpy call."""
        calls = []

        def fromstring(*args, **kwargs):
            calls.append(m)
            return numpy_fromstring(*args, **kwargs)

        numpy_fromstring = np.fromstring
        monkeypatch.setattr(np, "fromstring", fromstring)
        n, edges = distinct_edges(m, random.Random(m))
        text = f"p edge {n} {m}\n" + "".join(f"e {u} {v}\n" for u, v in edges)
        assert parse_graph(text) == helpers.line_parsed_graph(io.StringIO(text))
        assert len(calls) == 1


class TestWholeFile:
    @pytest.mark.parametrize("m", [4, LARGE + 10])
    @pytest.mark.parametrize("line2", ["e 1 2\x0ce 3 4", "e 1 2 e\n3 4", "e 1 2\x85e 3 4"])
    def test_one_line_with_two_edges_rejected(self, tmp_path, m, line2):
        """Read as whole-text tokens, line 2 would be the edges 1-2 and 3-4, which
        with the m - 2 edges after it make up the declared count."""
        lines = [f"p edge {m + 3} {m}", line2] + [f"e {i} {i + 1}" for i in range(5, m + 3)]
        text = "\n".join(lines) + "\n"
        with pytest.raises(GraphError, match=r"^f:2: expected 'e <u> <v>'$"):
            parse_graph(text, "f")
        path = tmp_path / "f.gr"
        path.write_text(text)
        with pytest.raises(GraphError, match=rf"^{re.escape(str(path))}:2: expected 'e <u> <v>'$"):
            read_graph_file(str(path))

    @pytest.mark.parametrize("data, line", [
        (b"p edge 3 2\ne 1 2\ne 2 \xff\n", 3),
        (b"\xfe\n", 1),
        (b"c \xc3\xa9t\xc3\r\np edge 3 0\n", 1),
        (b"c\r\nc\rc\n\ne 1 \xe2\x82", 5),
    ])
    def test_not_utf8_named_at_its_line(self, tmp_path, data, line):
        path = tmp_path / "f.gr"
        path.write_bytes(data)
        with pytest.raises(GraphError, match=rf"^{re.escape(str(path))}:{line}: not UTF-8 text$"):
            read_graph_file(str(path))

    @pytest.mark.parametrize("m", [0, 1, 5, 32, LARGE])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("last", ["newline", "none", "blank"])
    def test_valid_file_needs_no_line_scan(self, tmp_path, monkeypatch, m, newline, last):
        def refuse(*args):
            raise AssertionError("the line scanner ran on a file of edge lines")

        n, edges = distinct_edges(m, random.Random(m))
        lines = ["c header", "", f"p edge {n} {m}"] + [f"e {u}\t{v} " for u, v in edges]
        text = newline.join(lines) + {"newline": newline, "none": "", "blank": newline + "  "}[last]
        path = tmp_path / "f.gr"
        path.write_bytes(text.encode())
        expected = helpers.line_parsed_graph(io.StringIO(text, newline=None))
        monkeypatch.setattr(graph, "_scan_graph", refuse)
        assert read_graph_file(str(path)) == expected


class TestOtherReaders:
    """The colouring, CNF and MatrixMarket readers decode as the graph reader does."""

    @pytest.mark.parametrize("read, error, data, line", [
        (lambda p: read_colouring_file(p, 2), ColouringError, b"1 0\n2 \xff\n", 2),
        (lambda p: read_partial_colouring_file(p, 3, 2), ColouringError, b"c\r\n1 0\r\xfe 1", 3),
        (read_cnf_file, CnfError, b"p cnf 3 1\n1 2 3 0 c\xc3\n", 2),
        (read_matrix_market, PatternError,
         b"%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 \xff\n", 3),
    ], ids=["colouring", "partial-colouring", "cnf", "matrix-market"])
    def test_not_utf8_named_at_its_line(self, tmp_path, read, error, data, line):
        path = tmp_path / "f"
        path.write_bytes(data)
        with pytest.raises(error, match=rf"^{re.escape(str(path))}:{line}: not UTF-8 text$"):
            read(str(path))

    def test_empty_matrix_market_file(self, tmp_path):
        path = tmp_path / "f.mtx"
        path.write_bytes(b"")
        with pytest.raises(PatternError, match=rf"^{re.escape(str(path))}: empty file$"):
            read_matrix_market(str(path))


class TestDuplicateEdges:
    def test_small_file(self):
        with pytest.raises(GraphError, match=r"^f:3: duplicate edge 1 2$"):
            parse_graph("p edge 2 2\ne 1 2\ne 2 1\n", "f")

    def test_large_file(self):
        m = LARGE + 10
        lines = [f"p edge {m + 1} {m + 1}"] + [f"e {i} {i + 1}" for i in range(1, m + 1)]
        lines.insert(700, "e 501 500")
        with pytest.raises(GraphError, match=r"^f:701: duplicate edge 500 501$"):
            parse_graph("\n".join(lines) + "\n", "f")

    def test_builder_still_merges(self):
        pairs = [(0, 1), (1, 0), (1, 2)]
        as_array = Graph.from_edge_list(3, np.array(pairs))
        assert as_array == Graph.from_edge_list(3, pairs) and as_array.m == 2


class TestComments:
    @pytest.mark.parametrize("comment", ["c", "c text", "  c  spaced out", "c\ttab"])
    def test_graph_comment_skipped(self, comment):
        g = parse_graph(f"{comment}\np edge 3 1\n{comment}\ne 1 2\n")
        assert g.n == 3 and g.m == 1

    def test_graph_c_prefixed_token_rejected(self):
        with pytest.raises(GraphError, match=r"^f:2: unknown line type 'cx'$"):
            parse_graph("p edge 3 1\ncx 1 2\ne 1 2\n", "f")

    @pytest.mark.parametrize("comment", ["c", "c text", "  c  spaced out"])
    def test_colouring_comment_skipped(self, comment):
        text = f"{comment}\n1 0\n{comment}\n2 1\n"
        assert parse_colouring(text, 2).colours == (0, 1)
        assert parse_partial_colouring(text, 2, 2).colours == (0, 1)

    def test_colouring_c_prefixed_token_rejected(self):
        with pytest.raises(ColouringError, match=r"^f:2: expected"):
            parse_colouring("1 0\ncx 1 2\n2 1\n", 2, "f")
        with pytest.raises(ColouringError, match=r"^f:2: expected"):
            parse_partial_colouring("1 0\ncx 1 2\n", 2, 2, "f")

    @pytest.mark.parametrize("comment", ["c", "c text", "  c  spaced out", "c\ttab"])
    def test_cnf_comment_skipped(self, comment):
        f = parse_cnf(f"{comment}\np cnf 3 1\n{comment}\n1 2 3 0\n")
        assert f.clauses == ((1, 2, 3),)

    def test_cnf_c_prefixed_token_rejected(self):
        with pytest.raises(CnfError, match=r"^f:2: non-integer literal$"):
            parse_cnf("p cnf 3 1\ncx 1 2 3 0\n1 2 3 0\n", "f")


class TestProblemLine:
    @pytest.mark.parametrize("text, message", [
        ("p edge -1 1\ne 1 2\n", "f:1: negative vertex count"),
        ("p edge -3 0\n", "f:1: negative vertex count"),
        ("c note\np edge 3 -1\n", "f:2: negative edge count"),
    ])
    def test_negative_count_rejected_at_its_line(self, text, message):
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            parse_graph(text, "f")

    @pytest.mark.parametrize("text, message", [
        ("p edge 1_0 0\n", "f:1: non-integer counts"),
        ("c note\np edge 3 0_1\ne 1 2\n", "f:2: non-integer counts"),
        ("p edge 10 1\ne 1 1_0\n", "f:2: non-integer endpoint"),
        ("p edge 10 2\ne 1 2\ne 1_0 1\n", "f:3: non-integer endpoint"),
    ])
    def test_digit_separator_rejected_at_its_line(self, text, message):
        # int() reads 1_0 as 10
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            parse_graph(text, "f")
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            helpers.line_parsed_graph(io.StringIO(text), "f")


class TestArrayBuilder:
    @FUZZ
    @given(st.integers(0, 12), st.lists(st.tuples(st.integers(-2, 13), st.integers(-2, 13)),
                                         max_size=40))
    def test_matches_set_builder(self, n, pairs):
        array = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        try:
            expected = helpers.set_built_graph(n, pairs)
        except GraphError as exc:
            with pytest.raises(GraphError, match=f"^{re.escape(str(exc))}$"):
                Graph.from_edge_list(n, array)
            return
        g = Graph.from_edge_list(n, array)
        assert g == expected
        assert all(type(w) is int for a in g.adjacency() for w in a)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.int64])
    def test_integer_dtypes(self, dtype):
        g = Graph.from_edge_list(4, np.array([[0, 1], [3, 1]], dtype=dtype))
        assert g == Graph.from_edge_list(4, [(0, 1), (3, 1)])

    def test_empty(self):
        assert Graph.from_edge_list(0, np.zeros((0, 2), dtype=np.int64)) == Graph.from_edge_list(0, [])
        assert Graph.from_edge_list(3, np.zeros((0, 2), dtype=np.int64)).m == 0

    @pytest.mark.parametrize("bad", [np.zeros((2, 3), dtype=np.int64), np.zeros(4, dtype=np.int64),
                                     np.zeros((2, 2))])
    def test_rejects_shape_and_dtype(self, bad):
        with pytest.raises(GraphError, match=r"\(m, 2\) integers"):
            Graph.from_edge_list(3, bad)
