"""parse_dimacs reads the text in one pass and gives what the line-by-line
reader (reference_parse_dimacs in conftest) gives: the same variable count,
weights, clauses and literal sharing on accepted text, and the same error
on faulty text."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolham import boolexpr
from boolham.boolexpr import And, Not, Or, parse_dimacs
from boolham.errors import ParseError
from conftest import reference_parse_dimacs
from test_fold import PROPERTY

TEXTS = settings(PROPERTY, max_examples=300)

COMMENTS = ["c", "c plain comment", "c 1 2 0", "c été – ١ 0", "c x_1 grouped_1_0",
            "cnf-like", "c\tp cnf 9 9"]
SPACES = [" ", "  ", "\t", " \t "]


def literal_token(draw, lit: int) -> str:
    """lit as int() reads it: with a '+' sign or leading zeros at times."""
    digits = str(abs(lit))
    if draw(st.booleans()):
        digits = digits.rjust(draw(st.integers(1, 3)), "0")
    sign = "-" if lit < 0 else draw(st.sampled_from(["", "", "+"]))
    return sign + digits


@st.composite
def dimacs_texts(draw):
    """DIMACS text, CNF or WCNF, with comment lines
    anywhere (some with non-ASCII characters or '_'), blank lines, CRLF and
    tab separators, several clauses on one line, clauses across lines and
    weights alone on their line."""
    n = draw(st.integers(1, 12))
    weighted = draw(st.booleans())
    literal = st.integers(-n, n).filter(bool)
    clauses = draw(st.lists(st.lists(literal, max_size=5), max_size=10))
    weights = st.one_of(
        st.integers(-9, 9).map(str), st.sampled_from(["0.5", "-2.25", "1e2", ".5", "3.", "-0", "7"])
    )
    lines = [f"p {'wcnf' if weighted else 'cnf'} {n} {len(clauses)}"]
    row: list[str] = []
    for lits in clauses:
        if row and draw(st.booleans()):
            lines.append(draw(st.sampled_from(SPACES)).join(row))
            row = []
        if weighted:  # every WCNF clause starts with its weight, wherever it starts
            row.append(draw(weights))
            if draw(st.integers(0, 4)) == 0:  # the weight ends its line
                lines.append(draw(st.sampled_from(SPACES)).join(row))
                row = []
        for lit in lits:
            row.append(literal_token(draw, lit))
            if draw(st.integers(0, 5)) == 0:  # the clause goes on on the next line
                lines.append(draw(st.sampled_from(SPACES)).join(row))
                row = []
        row.append(draw(st.sampled_from(["0", "0", "0", "00", "-0", "+0"])))
    if row:
        lines.append(" ".join(row))
    # comments and blank lines anywhere, the header line included
    for _ in range(draw(st.integers(0, 4))):
        extra = draw(st.sampled_from(COMMENTS + ["", "   ", "\t"]))
        indent = draw(st.sampled_from(["", " ", "\t"]))
        lines.insert(draw(st.integers(0, len(lines))), indent + extra)
    lines = [draw(st.sampled_from(["", " ", "\t"])) + line for line in lines]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    end = draw(st.sampled_from(["", newline]))
    return newline.join(lines) + end


def outcome(parse, text):
    try:
        return parse(text), None
    except Exception as exc:  # compared by type and text
        return None, (type(exc), str(exc))


def sharing(objective) -> list[int]:
    """Each literal occurrence, numbered by the first occurrence of its node:
    equal numbers are one shared object."""
    first: dict[int, int] = {}
    pattern = []
    for _, clause in objective.clauses:
        for node in clause.children if type(clause) is Or else (clause,):
            for part in (node, node.child) if type(node) is Not else (node,):
                pattern.append(first.setdefault(id(part), len(first)))
    return pattern


def assert_same_parse(text):
    got, error = outcome(parse_dimacs, text)
    want, want_error = outcome(reference_parse_dimacs, text)
    assert error == want_error
    if error:
        return error
    (objective, conj), (ref_objective, ref_conj) = got, want
    assert objective.n_vars == ref_objective.n_vars
    assert [w.hex() for w, _ in objective.clauses] == [w.hex() for w, _ in ref_objective.clauses]
    assert [type(w) for w, _ in objective.clauses] == [float] * len(objective.clauses)
    assert objective == ref_objective and conj == ref_conj
    assert [type(c) for _, c in objective.clauses] == [type(c) for _, c in ref_objective.clauses]
    assert sharing(objective) == sharing(ref_objective)
    if type(conj) is And:  # the conjunction holds the objective's clause nodes
        assert all(a is c for a, (_, c) in zip(conj.children, objective.clauses, strict=True))
    return None


@TEXTS
@given(dimacs_texts())
def test_accepted_text_reads_as_the_reference_reads_it(text):
    assert assert_same_parse(text) is None


CORRUPT = ["x", "1.5", "1_0", "٣", "p", "nan", "inf", "-inf", "1e400", "99", "-99", "1" * 5000,
           "p cnf 3 1", "c", "0", "--1", ""]


@st.composite
def corrupted_texts(draw):
    """A generated text with one whitespace-separated token replaced."""
    text = draw(dimacs_texts())
    spans = [(m.start(), m.end()) for m in re.finditer(r"\S+", text)]
    # half the time one of the last tokens, so the clause body is hit more than the header
    start, end = draw(st.sampled_from(spans[-12:] if draw(st.booleans()) else spans))
    return text[:start] + draw(st.sampled_from(CORRUPT)) + text[end:]


@TEXTS
@given(corrupted_texts())
def test_corrupted_text_fails_as_the_reference_fails(text):
    assert_same_parse(text)


@pytest.mark.parametrize(
    "text",
    [
        "c é first\np cnf 3 2\nc 1_0 ١\n1 -2 0\nc x\n3 0\n",
        "p wcnf 3 3\n2\n1 -2\n0\nc weight alone, then a clause over two lines\n4 3 0 2 0\n",
        "p cnf 3 3\r\n1\t-2 0 3 0\r\n  c indented comment\r\n-3 -1 0\r\n",
    ],
    ids=["comments", "wcnf-layouts", "crlf-tabs"],
)
def test_accepted_text_takes_no_second_pass(text, monkeypatch):
    def second_pass(*args):
        raise AssertionError("accepted text was read again")

    monkeypatch.setattr(boolexpr, "_first_fault", second_pass)
    monkeypatch.setattr(boolexpr, "_dimacs_error", second_pass)
    assert assert_same_parse(text) is None


@pytest.mark.parametrize(
    "text, weights, clauses",
    [
        ("p wcnf 5 2\n3 1 0 2 5 0\n", ["3", "2"], ["x1", "x5"]),
        ("p wcnf 3 3\n1 1 0 2\n-2 0 4 3 -1 0\n", ["1", "2", "4"], ["x1", "!x2", "x3 | !x1"]),
        ("p wcnf 2 2\n0.5 1\n0 7 0\n", ["0.5", "7"], ["x1", "0"]),
    ],
    ids=["second-on-a-line", "clause-across-lines", "empty-clause-after-0"],
)
def test_every_wcnf_clause_starts_with_its_weight(text, weights, clauses):
    objective, _ = parse_dimacs(text)
    assert [w for w, _ in objective.clauses] == [float(w) for w in weights]
    assert [boolexpr.to_text(c) for _, c in objective.clauses] == clauses
    assert assert_same_parse(text) is None


@pytest.mark.parametrize(
    "text, message",
    [
        ("p wcnf 2 2\n1 1 0 heavy 2 0\n", "line 2: bad clause weight 'heavy'"),
        ("p wcnf 2 3\n1 1 0\n2 -1 0 nan 2 0\n", "line 3: clause weight 'nan' must be finite"),
        ("p wcnf 2 2\n1 1 0 2\n2.5 0\n", "line 3: bad literal '2.5'"),
        ("p wcnf 2 2\n1 1 0 3 0 x\n", "line 2: bad clause weight 'x'"),
    ],
    ids=["weight-mid-line", "nan-mid-line", "literal-after-weight-line", "weight-after-second-0"],
)
def test_a_weight_fault_mid_line_names_the_line(text, message):
    with pytest.raises(ParseError) as info:
        parse_dimacs(text)
    assert str(info.value) == message
    assert assert_same_parse(text) == (ParseError, message)
