"""Malformed input ends in the package's own errors: exit 1 with one line
from the CLI, ParseError or QubitCountError from the library."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolham.boolexpr import parse_dimacs, parse_expr
from boolham.circuits import parse_circuit
from boolham.cli import main
from boolham.compiler import QuboInstance, augment_penalties, compile_qubo, penalty_spec_from_json
from boolham.errors import BoolhamError, ParseError, QubitCountError
from boolham.fourier import fourier_from_table, parse_table
from boolham.pauli import PauliOperator
from boolham.zpoly import DiagonalHamiltonian


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_penalty_spec(doc):
    return penalty_spec_from_json(json.dumps(doc))


# (CLI subcommand, library reader, document)
BAD_DOCUMENTS = {
    "qubo entry without weight": (
        ["qubo"], QuboInstance.from_json_dict, {"n": 2, "quadratic": [[1, 2]]},
    ),
    "qubo linear longer than n": (
        ["compile", "--qubo"], QuboInstance.from_json_dict, {"n": 1, "linear": [1.0, 2.0]},
    ),
    "qubo linear not a list": (
        ["qubo"], QuboInstance.from_json_dict, {"n": 2, "linear": 5},
    ),
    "qubo quadratic not a list": (
        ["qubo"], QuboInstance.from_json_dict, {"n": 2, "quadratic": 5},
    ),
    "penalties not a list": (
        ["penalize"], read_penalty_spec, {"n": 1, "objective": "x1", "penalties": 5},
    ),
    "penalty without expr": (
        ["penalize"],
        read_penalty_spec,
        {"n": 1, "objective": "x1", "penalties": [{"weight": 1.0}]},
    ),
    "penalty expr not a string": (
        ["penalize"], read_penalty_spec, {"n": 1, "objective": "x1", "penalties": [{"expr": 5}]},
    ),
    "terms not a list": (
        ["fourier", "--inverse"], DiagonalHamiltonian.from_json_dict, {"n": 1, "terms": 5},
    ),
    "term without paulis": (
        ["fourier", "--inverse"],
        DiagonalHamiltonian.from_json_dict,
        {"n": 1, "terms": [{"coeff": 1.0}]},
    ),
    "term without coeff": (
        ["circuit", "--gamma", "1", "--hamiltonian"],
        DiagonalHamiltonian.from_json_dict,
        {"n": 1, "terms": [{"paulis": "Z1"}]},
    ),
    "qubo constant a list": (
        ["qubo"], QuboInstance.from_json_dict, {"n": 1, "a": [1]},
    ),
    "qubo linear entry an object": (
        ["compile", "--qubo"], QuboInstance.from_json_dict, {"n": 1, "linear": [{"x": 1}]},
    ),
    "penalty weight a list": (
        ["penalize"],
        read_penalty_spec,
        {"n": 1, "objective": "x1", "penalties": [{"weight": [2], "expr": "x1"}]},
    ),
    "qubo constant not numeric": (
        ["qubo"], QuboInstance.from_json_dict, {"n": 1, "a": "abc"},
    ),
    "penalty n not numeric": (
        ["penalize"], read_penalty_spec, {"n": "abc", "objective": "x1", "penalties": []},
    ),
    "penalty weight not numeric": (
        ["penalize"],
        read_penalty_spec,
        {"n": 1, "objective": "x1", "penalties": [{"weight": "heavy", "expr": "x1"}]},
    ),
    "qubo quadratic weight not numeric": (
        ["qubo"], QuboInstance.from_json_dict, {"n": 2, "quadratic": [[1, 2, "abc"]]},
    ),
    "qubo n above the qubit limit": (
        ["qubo"], QuboInstance.from_json_dict, {"n": 10**12},
    ),
    "operator n infinite": (
        ["fourier", "--inverse"], DiagonalHamiltonian.from_json_dict, {"n": float("inf"), "terms": []},
    ),
    "operator coefficient NaN": (
        ["circuit", "--gamma", "1", "--hamiltonian"],
        DiagonalHamiltonian.from_json_dict,
        {"n": 1, "terms": [{"paulis": "Z1", "coeff": float("nan")}]},
    ),
    "operator coefficient infinite": (
        ["fourier", "--inverse"],
        DiagonalHamiltonian.from_json_dict,
        {"n": 1, "terms": [{"paulis": "Z1", "coeff": float("inf")}]},
    ),
    "penalty weight NaN": (
        ["penalize"],
        read_penalty_spec,
        {"n": 2, "objective": "x1 | x2", "penalties": [{"weight": float("nan"), "expr": "x1"}]},
    ),
    "penalty weight infinite": (
        ["penalize"],
        read_penalty_spec,
        {"n": 2, "objective": "x1 | x2", "penalties": [{"weight": float("inf"), "expr": "x1"}]},
    ),
    "penalty weight negative": (
        ["penalize"],
        read_penalty_spec,
        {"n": 1, "objective": "x1", "penalties": [{"weight": -1, "expr": "x1"}]},
    ),
    "qubo quadratic weight NaN": (
        ["qubo"], QuboInstance.from_json_dict, {"n": 2, "quadratic": [[1, 2, float("nan")]]},
    ),
    "qubo linear entry infinite": (
        ["compile", "--qubo"], QuboInstance.from_json_dict, {"n": 2, "linear": [1, float("-inf")]},
    ),
    "qubo n fractional": (
        ["compile", "--qubo"], QuboInstance.from_json_dict, {"n": 2.5, "linear": [1, 2]},
    ),
    "penalty n fractional": (
        ["penalize"], read_penalty_spec, {"n": 1.5, "objective": "x1", "penalties": []},
    ),
    "operator n fractional": (
        ["fourier", "--inverse"],
        DiagonalHamiltonian.from_json_dict,
        {"n": 1.5, "terms": [{"paulis": "Z1", "coeff": 1.0}]},
    ),
    # JSON true/false are not the numbers 1/0, and an index is not truncated
    "operator n boolean": (
        ["fourier", "--inverse"],
        DiagonalHamiltonian.from_json_dict,
        {"n": True, "terms": [{"paulis": "Z1", "coeff": 1.0}]},
    ),
    "operator coefficient boolean": (
        ["circuit", "--gamma", "1", "--hamiltonian"],
        DiagonalHamiltonian.from_json_dict,
        {"n": 1, "terms": [{"paulis": "Z1", "coeff": True}]},
    ),
    "qubo n boolean": (
        ["qubo"], QuboInstance.from_json_dict, {"n": True, "linear": [1.0]},
    ),
    "qubo linear entry boolean": (
        ["compile", "--qubo"], QuboInstance.from_json_dict, {"n": 1, "linear": [True]},
    ),
    "qubo quadratic index fractional": (
        ["qubo"], QuboInstance.from_json_dict, {"n": 2, "quadratic": [[1.9, 2, 1.0]]},
    ),
    "qubo quadratic index boolean": (
        ["qubo"], QuboInstance.from_json_dict, {"n": 3, "quadratic": [[True, 3, 2.0]]},
    ),
    "qubo quadratic weight boolean": (
        ["qubo"], QuboInstance.from_json_dict, {"n": 2, "quadratic": [[1, 2, True]]},
    ),
    "penalty weight boolean": (
        ["penalize"],
        read_penalty_spec,
        {"n": 1, "objective": "x1", "penalties": [{"weight": True, "expr": "x1"}]},
    ),
    # a quoted number is a string, and a string or an object is not a list
    "qubo fields quoted, quadratic entry an object": (
        ["compile", "--qubo"],
        QuboInstance.from_json_dict,
        {"n": "2", "linear": ["1", "0"], "quadratic": [{"1": 0, "2": 0, "7.5": 0}]},
    ),
    "qubo n quoted": (
        ["compile", "--qubo"], QuboInstance.from_json_dict, {"n": "2", "linear": [1.0, 0.0]},
    ),
    "qubo constant quoted": (
        ["qubo"], QuboInstance.from_json_dict, {"n": 1, "a": "1"},
    ),
    "qubo linear entry quoted": (
        ["compile", "--qubo"], QuboInstance.from_json_dict, {"n": 2, "linear": ["1", "0"]},
    ),
    "qubo linear a string": (
        ["compile", "--qubo"], QuboInstance.from_json_dict, {"n": 3, "linear": "12"},
    ),
    "qubo quadratic entry an object": (
        ["qubo"], QuboInstance.from_json_dict, {"n": 2, "quadratic": [{"1": 0, "2": 0, "7.5": 0}]},
    ),
    "qubo quadratic entry a string": (
        ["qubo"], QuboInstance.from_json_dict, {"n": 3, "quadratic": ["123"]},
    ),
    "qubo linear and quadratic strings": (
        ["compile", "--qubo"],
        QuboInstance.from_json_dict,
        {"n": 3, "linear": "12", "quadratic": ["123"]},
    ),
    "qubo quadratic index quoted": (
        ["qubo"], QuboInstance.from_json_dict, {"n": 2, "quadratic": [["1", 2, 1.0]]},
    ),
    "qubo quadratic weight quoted": (
        ["qubo"], QuboInstance.from_json_dict, {"n": 2, "quadratic": [[1, 2, "1.5"]]},
    ),
    "penalty n quoted": (
        ["penalize"], read_penalty_spec, {"n": "1", "objective": "x1", "penalties": []},
    ),
    "penalty weight quoted": (
        ["penalize"],
        read_penalty_spec,
        {"n": 1, "objective": "x1", "penalties": [{"weight": "3", "expr": "x1"}]},
    ),
    # int() reads other scripts' digits, and isdigit() passes superscripts that int() rejects
    "operator label with a non-ASCII digit": (
        ["fourier", "--inverse"],
        DiagonalHamiltonian.from_json_dict,
        {"n": 1, "terms": [{"paulis": "Z\u0661", "coeff": 1.0}]},
    ),
    "operator label with a superscript digit": (
        ["circuit", "--gamma", "1", "--hamiltonian"],
        DiagonalHamiltonian.from_json_dict,
        {"n": 1, "terms": [{"paulis": "Z\u00b2", "coeff": 1.0}]},
    ),
    "operator n quoted": (
        ["fourier", "--inverse"],
        DiagonalHamiltonian.from_json_dict,
        {"n": "1", "terms": [{"paulis": "Z1", "coeff": 1.0}]},
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_DOCUMENTS))
def test_malformed_json_exits_1_with_one_line(case, tmp_path, capsys):
    argv, _, doc = BAD_DOCUMENTS[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("boolham: parse error:")


@pytest.mark.parametrize("case", sorted(BAD_DOCUMENTS))
def test_malformed_json_raises_parse_error(case):
    _, read, doc = BAD_DOCUMENTS[case]
    with pytest.raises(ParseError):
        read(doc)


DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "--qubo"],
        ["qubo"],
        ["penalize"],
        ["fourier", "--inverse"],
        ["circuit", "--gamma", "1", "--hamiltonian"],
        ["verify", "--qubo"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_deeply_nested_json_exits_1_with_one_line(argv, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("boolham: parse error:")


@pytest.mark.parametrize(
    "vector",
    ["[1, null]", "[1, {}]", "[1e400, 0]", "[1, NaN]", "[1, 2, 3]", "[true, false]",
     '["1", "0", "0", "1"]'],
)
def test_fourier_vector_entries_are_finite_numbers(vector, capsys):
    code, out, err = run(capsys, "fourier", vector)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("boolham: parse error:")


@pytest.mark.parametrize(
    "coeff", [float("nan"), float("inf"), [1.0, float("nan")]], ids=["nan", "inf", "nan imaginary"]
)
def test_pauli_operator_coefficient_is_finite(coeff):
    with pytest.raises(ParseError):
        PauliOperator.from_json_dict({"n": 1, "terms": [{"paulis": "X1", "coeff": coeff}]})


@pytest.mark.parametrize("coeff", [True, [1.0, False]], ids=["real", "imaginary"])
def test_pauli_operator_coefficient_is_not_boolean(coeff):
    with pytest.raises(ParseError):
        PauliOperator.from_json_dict({"n": 1, "terms": [{"paulis": "X1", "coeff": coeff}]})


@pytest.mark.parametrize("coeff", ["1+2j", "0.5"], ids=["complex", "real"])
def test_pauli_operator_coefficient_is_not_quoted(coeff):
    with pytest.raises(ParseError):
        PauliOperator.from_json_dict({"n": 1, "terms": [{"paulis": "X1", "coeff": coeff}]})


@pytest.mark.parametrize(
    "term", [{"coeff": 1.0}, {"paulis": "X1"}], ids=["no paulis", "no coeff"]
)
def test_pauli_operator_term_needs_both_fields(term):
    with pytest.raises(ParseError):
        PauliOperator.from_json_dict({"n": 1, "terms": [term]})


class TestDiagonalLabels:
    def test_repeated_qubit_is_rejected(self):
        # Z1 Z1 = I, so reading it as Z1 would change the operator
        with pytest.raises(ParseError):
            DiagonalHamiltonian.from_json_dict(
                {"n": 1, "terms": [{"paulis": "Z1 Z1", "coeff": 1.0}]}
            )

    def test_qubit_zero_is_out_of_range(self):
        with pytest.raises(QubitCountError):
            DiagonalHamiltonian.from_json_dict(
                {"n": 1, "terms": [{"paulis": "Z0", "coeff": 1.0}]}
            )


@pytest.mark.parametrize(
    "text",
    [
        "qubits 2\ncx 1 1\n",
        "qubits 2\ncrz 1 1 3\n",
        "qubits 1\nrz 1 nan\n",
        "qubits 1\nrz 1 inf\n",
        "qubits -1\n",
        "qubits 1 2\n",
        "qubits 1\nphase nan\n",
        "qubits 1\nrz 0 1\n",
        "qubits 1\ncx 1 2\n",
        "qubits 1_0\n",
        "qubits 10\ncx 1 1_0\n",
        "qubits 1\nphase 1_0.5\n",
        "qubits 3\nrz \u0663 1\n",
        "# \u00e9 comment_1\nqubits 1\nrz 1 0.\u0665\n",
    ],
    ids=[
        "cx repeated qubit", "crz repeated qubit", "nan angle", "infinite angle",
        "negative qubit count", "extra header field", "nan phase", "qubit zero",
        "qubit above count", "grouped qubit count", "grouped qubit", "grouped phase",
        "non-ASCII qubit", "non-ASCII angle after a comment",
    ],
)
def test_malformed_circuit_names_the_line(text):
    with pytest.raises(ParseError, match=f"line {len(text.splitlines())}"):
        parse_circuit(text)


# DIMACS numbers are plain ASCII digits: int() and float() also read "1_0"
# and other scripts' digits
@pytest.mark.parametrize(
    "text",
    [
        "p cnf 1_0 0\n",
        "p cnf 12 1\n1_2 0\n",
        "p wcnf 2 1\n1_0 1 0\n",
        "c \u00e9 comment_1\np cnf 3 1\n\u0661 0\n",
    ],
    ids=["grouped header", "grouped literal", "grouped weight", "non-ASCII literal"],
)
def test_malformed_dimacs_names_the_line(text, tmp_path, capsys):
    with pytest.raises(ParseError, match=f"^line {len(text.splitlines())}:"):
        parse_dimacs(text)
    path = tmp_path / "f.cnf"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "count", "--dimacs", str(path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("boolham: parse error:")


# -- token soup: parsers raise only the package's own errors ----------------

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=400)


def soup(heads, tokens, prefixes=("",)):
    """A prefix, then lines of one head token and up to four more tokens."""
    line = st.tuples(st.sampled_from(heads), st.lists(st.sampled_from(tokens), max_size=4))
    lines = st.lists(line.map(lambda t: " ".join((t[0], *t[1]))), max_size=6)
    return st.tuples(st.sampled_from(prefixes), lines.map("\n".join)).map("".join)


def raises_only_package_errors(parse, text):
    try:
        parse(text)
    except BoolhamError:
        pass


NUMBERS = ["-1", "0", "1", "2", "0.5", "nan", "x1"]
EXPRESSION = ["x0", "x1", "x2", "x99999999999999999999", "x", "!", "&", "|", "^", "=>",
              "=", "(", ")", "0", "1", "2", "@"]


@FUZZ
@given(soup(
    ["qubits", "phase", "cx 1", "rz 1", "h", "x", "crz 2 1", "ccrz 3 1", "#", "foo"], NUMBERS,
    prefixes=("", "qubits 3\n", "qubits 3\nphase 0.5\n"),
))
def test_circuit_soup(text):
    raises_only_package_errors(parse_circuit, text)


@FUZZ
@given(soup(EXPRESSION, EXPRESSION))
def test_expression_soup(text):
    raises_only_package_errors(parse_expr, text)


@FUZZ
@given(soup(
    ["p", "c", *NUMBERS], ["cnf", "wcnf", *NUMBERS], prefixes=("", "p cnf 3 2\n", "p wcnf 3 2\n")
))
def test_dimacs_soup(text):
    raises_only_package_errors(parse_dimacs, text)


# -- JSON documents: readers raise only the package's own errors, and an
# -- accepted document gives finite coefficients ------------------------------

JSON_FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=300)

# finite numbers span the whole float range
NUMBER = st.one_of(
    st.integers(-3, 70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 10**400, 10**12, True]),
)
JUNK = st.sampled_from([None, "", "x1", "2", [], {}, [1, 2], {"n": 1}])
VALUE = st.one_of(NUMBER, JUNK)
LABELS = st.sampled_from(["I", "Z1", "Z2", "Z1 Z2", "Z1Z3", "X1", "Z0", "Z1 Z1", "", "Q", 5])
EXPRS = st.sampled_from(["x1", "x1 & x2", "!x2 | x3", "x1 ^ x2", "x4", "x1 &", "", 5])


def documents(fields: dict):
    """An object with every field of ``fields``; an object with any subset of
    them, each plausible or junk; or not an object at all."""
    loose = {k: st.one_of(v, VALUE) for k, v in fields.items()}
    return st.one_of(
        st.fixed_dictionaries(fields), st.fixed_dictionaries({}, optional=loose), JUNK
    )


TERMS = st.lists(documents({"paulis": LABELS, "coeff": NUMBER}), max_size=4)
HAMILTONIAN = documents({"n": st.integers(1, 4), "terms": TERMS})
QUBO = documents({
    "n": st.integers(1, 4),
    "a": NUMBER,
    "linear": st.lists(NUMBER, max_size=5),
    "quadratic": st.lists(st.lists(NUMBER, max_size=4), max_size=4),
})
PENALTY_SPEC = documents({
    "n": st.integers(1, 4),
    "objective": st.one_of(EXPRS, HAMILTONIAN),
    "penalties": st.lists(
        documents({"expr": EXPRS, "weight": st.one_of(st.none(), NUMBER)}), max_size=3
    ),
})


def accepted(read, doc):
    """read(json text of doc), or None when it raises one of the package's errors."""
    try:
        return read(json.dumps(doc))
    except BoolhamError:
        return None


def all_finite(h) -> bool:
    return all(math.isfinite(c) for _, c in h.items())


@JSON_FUZZ
@given(HAMILTONIAN)
def test_hamiltonian_documents(doc):
    h = accepted(DiagonalHamiltonian.from_json, doc)
    assert h is None or all_finite(h)


@JSON_FUZZ
@given(QUBO)
def test_qubo_documents(doc):
    q = accepted(QuboInstance.from_json, doc)
    assert q is None or all_finite(compile_qubo(q))


@JSON_FUZZ
@given(PENALTY_SPEC)
def test_penalty_spec_documents(doc):
    spec = accepted(penalty_spec_from_json, doc)
    assert spec is None or all_finite(augment_penalties(spec))


@JSON_FUZZ
@given(st.one_of(st.lists(VALUE, max_size=9), VALUE))
def test_fourier_vectors(doc):
    table = accepted(parse_table, doc)
    assert table is None or all_finite(fourier_from_table(table))
