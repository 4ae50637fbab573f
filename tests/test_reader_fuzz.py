"""Malformed-input fuzz of the colouring, CNF and MatrixMarket readers.

Every input either parses or raises the reader's own error type with a
message that starts with the source name, so a CLI error names its file.
Sizes stay small: no token reads as an integer above 12.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rscol.colouring import ColouringError, parse_colouring, parse_partial_colouring
from rscol.constructions import CnfError, parse_cnf
from rscol.hessian import PatternError, parse_matrix_market

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
    try:
        parse()
    except error as exc:
        assert str(exc).startswith(f"{SOURCE}:"), str(exc)


@FUZZ
@given(LINES, st.integers(0, 6))
def test_colouring(lines, n):
    parses_or_names_source(lambda: parse_colouring(lines, n, SOURCE), ColouringError)


@FUZZ
@given(LINES, st.integers(0, 6), st.integers(0, 4))
@example(["1 0", "2 5"], 2, 3)  # a colour outside the budget
def test_partial_colouring(lines, n, k):
    parses_or_names_source(lambda: parse_partial_colouring(lines, n, k, SOURCE), ColouringError)


@FUZZ
@given(CNF_HEADERS, LINES)
def test_cnf(header, lines):
    parses_or_names_source(lambda: parse_cnf(header + lines, SOURCE), CnfError)


@FUZZ
@given(MM_HEADERS, LINES)
def test_matrix_market(header, lines):
    parses_or_names_source(lambda: parse_matrix_market(header + lines, SOURCE), PatternError)

