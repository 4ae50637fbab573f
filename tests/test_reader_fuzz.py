"""Malformed-input fuzz of the colouring, CNF, MatrixMarket and dense CSV readers.

Every input either parses or raises the reader's own error type with a
message that starts with the source name, so a CLI error names its file.
Sizes stay small: no token reads as an integer above 12.

The colouring, MatrixMarket and CSV readers take a whole file through a bulk
path and fall back to their line scanner; the scanner called on the file's
lines must give the same value or the same error, on token soup and on valid
files with a few mutations.

A ``_`` put into any numeric field of a valid file of any of these formats,
or of a graph file, is refused at its line, with the same message on both
paths where a reader has two; ``graph.read_float`` is ``float`` bit for bit
on every token without ``_``.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rscol.colouring import ColouringError, _scan_colouring, parse_colouring, parse_partial_colouring
from rscol.constructions import CnfError, parse_cnf
from rscol.graph import GraphError, _scan_graph, parse_graph, read_float
from rscol.hessian import (
    CooMatrix,
    PatternError,
    _scan_csv,
    _scan_matrix,
    parse_dense_csv,
    parse_matrix_market,
)

SOURCE = "fuzz.txt"

TOKENS = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from([
        "c", "p", "cnf", "%", "%%MatrixMarket", "matrix", "coordinate", "array", "real",
        "integer", "pattern", "complex", "symmetric", "general", "-0", "+1", "00", "1.5",
        "1e1", "nan", "inf", "1_0", "0x1", "x", "é", "\x00",
    ]),
    st.text(max_size=3),
)
# lines of small integers are most of what the readers accept, so half the lines are those
NUMBER_LINES = st.lists(st.integers(-1, 8).map(str), min_size=2, max_size=4).map(" ".join)
LINES = st.lists(st.one_of(NUMBER_LINES, st.lists(TOKENS, max_size=6).map(" ".join)), max_size=8)

CNF_HEADERS = st.one_of(
    st.just([]),
    st.tuples(st.integers(1, 6), st.integers(0, 4)).map(lambda vc: [f"p cnf {vc[0]} {vc[1]}"]),
)
MM_HEADERS = st.one_of(
    st.just([]),
    st.tuples(
        st.sampled_from(["real", "integer", "pattern"]),
        st.sampled_from(["symmetric", "general"]),
        st.one_of(st.none(), st.tuples(st.integers(0, 6), st.integers(0, 6))),
    ).map(lambda h: [f"%%MatrixMarket matrix coordinate {h[0]} {h[1]}"]
          + ([] if h[2] is None else ["{0} {0} {1}".format(*h[2])])),
)

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def parses_or_names_source(parse, error):
    """The value of parse(), or the message of the `error` it raises, which must
    name the source."""
    try:
        return parse()
    except error as exc:
        assert str(exc).startswith(f"{SOURCE}:"), str(exc)
        return str(exc)


def same_on_both_paths(parse, scan, text: str, error, key=lambda value: value):
    """parse(text) reads the whole file, scan on its lines checks them one by
    one; an empty text has no lines, as the MatrixMarket reader splits it."""
    whole = parses_or_names_source(lambda: parse(text), error)
    lines = parses_or_names_source(lambda: scan(text.split("\n") if text else []), error)
    if isinstance(whole, str) or isinstance(lines, str):
        assert whole == lines
    else:
        assert key(whole) == key(lines)


def matrix_key(m: CooMatrix):
    return m.n, m.rows.tolist(), m.cols.tolist(), m.values.view(np.int64).tolist()


def array_key(a: np.ndarray):
    return a.shape, a.view(np.int64).tolist()


@FUZZ
@given(LINES, st.integers(0, 6))
def test_colouring(lines, n):
    parses_or_names_source(lambda: _scan_colouring(lines, n, SOURCE), ColouringError)
    same_on_both_paths(lambda t: parse_colouring(t, n, SOURCE),
                       lambda ls: _scan_colouring(ls, n, SOURCE), "\n".join(lines), ColouringError)


@FUZZ
@given(LINES, st.integers(0, 6), st.integers(0, 4))
@example(["1 0", "2 5"], 2, 3)  # a colour outside the budget
def test_partial_colouring(lines, n, k):
    parses_or_names_source(lambda: _scan_colouring(lines, n, SOURCE, k), ColouringError)
    same_on_both_paths(lambda t: parse_partial_colouring(t, n, k, SOURCE),
                       lambda ls: _scan_colouring(ls, n, SOURCE, k), "\n".join(lines), ColouringError)


@FUZZ
@given(CNF_HEADERS, LINES)
def test_cnf(header, lines):
    parses_or_names_source(lambda: parse_cnf("\n".join(header + lines), SOURCE), CnfError)


@FUZZ
@given(MM_HEADERS, LINES)
def test_matrix_market(header, lines):
    parses_or_names_source(lambda: _scan_matrix(header + lines, SOURCE), PatternError)
    same_on_both_paths(lambda t: parse_matrix_market(t, SOURCE), lambda ls: _scan_matrix(ls, SOURCE),
                       "\n".join(header + lines), PatternError, matrix_key)


# -- valid files with a few mutations ----------------------------------------------

EDIT_CHARS = st.sampled_from(list("0123456789 \t-+._eE,xc%") + ["", "1_0", "nan", "1e400"])


@st.composite
def mutated(draw, lines):
    """`lines` joined into a file after up to three mutations: a line replaced by
    token soup, a blank, comment or token line inserted, a line deleted, swapped
    or repeated, or a character inserted or replaced in a line."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["replace", "insert", "delete", "swap", "repeat", "edit"]))
        if not lines and op != "insert":
            continue
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "replace":
            lines[i] = draw(st.lists(TOKENS, max_size=4).map(" ".join))
        elif op == "insert":
            lines.insert(i, draw(st.one_of(st.sampled_from(["", " ", "\t", "c note", "%"]),
                                           NUMBER_LINES)))
        elif op == "delete":
            del lines[i]
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        else:
            at = draw(st.integers(0, len(lines[i])))
            cut = draw(st.integers(0, 1))
            lines[i] = lines[i][:at] + draw(EDIT_CHARS) + lines[i][at + cut:]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@st.composite
def colouring_files(draw):
    """(n, k, file) of a full or partial colouring, lines in any order, mutated."""
    n = draw(st.integers(0, 8))
    k = draw(st.integers(1, 4))
    vertices = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        vertices = vertices[:draw(st.integers(0, n))]
    lines = [f"{v + 1} {draw(st.integers(0, k - 1))}" for v in vertices]
    return n, k, draw(mutated(lines))


CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                  st.integers(-99, 99).map(str),
                  st.sampled_from(["-0.0", "5e-324", "1e16", "1.", ".5", "+2", "0.1e-3"]))


@st.composite
def csv_files(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    lines = [",".join(draw(st.lists(CELLS, min_size=cols, max_size=cols))) for _ in range(rows)]
    return draw(mutated(lines))


@st.composite
def matrix_market_files(draw):
    kind = draw(st.sampled_from(["real", "integer", "pattern"]))
    general = draw(st.booleans())
    n = draw(st.integers(0, 5))
    cells = draw(st.lists(st.tuples(st.integers(1, max(n, 1)), st.integers(1, max(n, 1))),
                          max_size=8, unique_by=lambda ij: (max(ij), min(ij))))
    entries = []
    for i, j in cells:
        value = "" if kind == "pattern" else " " + draw(
            st.integers(-9, 9).map(str) if kind == "integer" else CELLS)
        entries.append(f"{i} {j}{value}")
        if general and i != j:
            entries.append(f"{j} {i}{value}")
    head = [f"%%MatrixMarket matrix coordinate {kind} {'general' if general else 'symmetric'}",
            f"{n} {n} {len(entries)}"]
    return draw(mutated(head + entries))


@FUZZ
@given(colouring_files())
def test_mutated_colouring_files(case):
    n, k, text = case
    same_on_both_paths(lambda t: parse_colouring(t, n, SOURCE),
                       lambda ls: _scan_colouring(ls, n, SOURCE), text, ColouringError)
    same_on_both_paths(lambda t: parse_partial_colouring(t, n, k, SOURCE),
                       lambda ls: _scan_colouring(ls, n, SOURCE, k), text, ColouringError)


@FUZZ
@given(csv_files())
def test_mutated_csv_files(text):
    same_on_both_paths(lambda t: parse_dense_csv(t, SOURCE), lambda ls: _scan_csv(ls, SOURCE), text,
                       PatternError, array_key)


@FUZZ
@given(matrix_market_files())
def test_mutated_matrix_market_files(text):
    same_on_both_paths(lambda t: parse_matrix_market(t, SOURCE), lambda ls: _scan_matrix(ls, SOURCE),
                       text, PatternError, matrix_key)


# -- a digit separator in a numeric field ------------------------------------------


@st.composite
def with_separator(draw, lines, sep=" "):
    """(the file of `lines` with a ``_`` put anywhere into one numeric token,
    one that starts with a digit, a sign or a point; that line's number)."""
    spots = [(i, j) for i, line in enumerate(lines)
             for j, tok in enumerate(line.split(sep)) if tok and tok[0] in "0123456789+-."]
    i, j = draw(st.sampled_from(spots))
    tokens = lines[i].split(sep)
    at = draw(st.integers(0, len(tokens[j])))
    tokens[j] = tokens[j][:at] + "_" + tokens[j][at:]
    return "\n".join(lines[:i] + [sep.join(tokens)] + lines[i + 1:]) + "\n", i + 1


def refused_at(parse, scan, text: str, error, message: str) -> None:
    """parse(text) and scan on its lines both raise `error` with `message`."""
    for read in (lambda: parse(text), lambda: scan(text.split("\n"))):
        with pytest.raises(error) as exc:
            read()
        assert str(exc.value) == message


SEPARATED = settings(max_examples=100, deadline=None)


@SEPARATED
@given(st.data(), st.integers(0, 6))
def test_separator_in_graph_file(data, n):
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    text, lineno = data.draw(with_separator(
        ["c a comment", f"p edge {n} {len(edges)}"] + [f"e {u} {v}" for u, v in edges]))
    what = "counts" if lineno == 2 else "endpoint"
    refused_at(lambda t: parse_graph(t, SOURCE), lambda ls: _scan_graph(ls, SOURCE), text,
               GraphError, f"{SOURCE}:{lineno}: non-integer {what}")


@SEPARATED
@given(st.data(), st.integers(1, 6), st.integers(1, 4))
def test_separator_in_colouring_file(data, n, k):
    colours = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    text, lineno = data.draw(with_separator([f"{v + 1} {c}" for v, c in enumerate(colours)]))
    message = f"{SOURCE}:{lineno}: non-integer field"
    refused_at(lambda t: parse_colouring(t, n, SOURCE),
               lambda ls: _scan_colouring(ls, n, SOURCE), text, ColouringError, message)
    refused_at(lambda t: parse_partial_colouring(t, n, k, SOURCE),
               lambda ls: _scan_colouring(ls, n, SOURCE, k), text, ColouringError, message)


@SEPARATED
@given(st.data(), st.integers(3, 6))
def test_separator_in_cnf_file(data, n):
    clauses = data.draw(st.lists(st.permutations(range(1, n + 1)).map(lambda p: p[:3]),
                                 max_size=4))
    text, lineno = data.draw(with_separator(
        [f"p cnf {n} {len(clauses)}"] + [f"{a} {b} {c} 0" for a, b, c in clauses]))
    what = "counts" if lineno == 1 else "literal"
    with pytest.raises(CnfError, match=f"^{SOURCE}:{lineno}: non-integer {what}$"):
        parse_cnf(text, SOURCE)


@SEPARATED
@given(st.data(), st.sampled_from(["real", "integer", "pattern"]), st.integers(1, 5))
def test_separator_in_matrix_market_file(data, kind, n):
    cells = data.draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=6,
                               unique_by=lambda ij: (max(ij), min(ij))))
    values = {"pattern": st.just(""), "integer": st.integers(-99, 99).map(" {}".format),
              "real": CELLS.map(" {}".format)}[kind]
    entries = [f"{i} {j}{data.draw(values)}" for i, j in cells]
    text, lineno = data.draw(with_separator(
        [f"%%MatrixMarket matrix coordinate {kind} symmetric", f"{n} {n} {len(entries)}"]
        + entries))
    what = "size line" if lineno == 2 else "entry"
    refused_at(lambda t: parse_matrix_market(t, SOURCE), lambda ls: _scan_matrix(ls, SOURCE),
               text, PatternError, f"{SOURCE}:{lineno}: non-numeric {what}")


@SEPARATED
@given(st.data(), st.integers(1, 4), st.integers(1, 4))
def test_separator_in_csv_file(data, rows, cols):
    lines = [",".join(data.draw(st.lists(CELLS, min_size=cols, max_size=cols)))
             for _ in range(rows)]
    text, lineno = data.draw(with_separator(lines, ","))
    refused_at(lambda t: parse_dense_csv(t, SOURCE), lambda ls: _scan_csv(ls, SOURCE), text,
               PatternError, f"{SOURCE}:{lineno}: non-numeric field")


FLOAT_TOKENS = st.one_of(
    st.floats().map(repr),
    st.floats().map("{:e}".format),
    st.integers().map(str),
    st.sampled_from(["nan", "-nan", "+NaN", "inf", "-inf", "+Infinity", "iNF", "1e400", "-1e-400",
                     ".5", "5.", "+.5e-3", "1E5", "-0", " 1.5\t", "", ".", "e5", "0x1p3",
                     "\u0663.\u0665", "1__0"]),
    st.text("0123456789+-.eEinfaINFA_ ", max_size=8),
)


def float_bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=500, deadline=None)
@given(FLOAT_TOKENS)
def test_read_float_is_float_without_separator(token):
    if "_" in token:
        with pytest.raises(ValueError):
            read_float(token)
        return
    try:
        want = float(token)
    except ValueError:
        with pytest.raises(ValueError):
            read_float(token)
    else:
        assert float_bits(read_float(token)) == float_bits(want)


@settings(max_examples=300, deadline=None)
@given(FLOAT_TOKENS, st.data())
def test_read_float_refuses_separator(token, data):
    at = data.draw(st.integers(0, len(token)))
    with pytest.raises(ValueError):
        read_float(token[:at] + "_" + token[at:])
