"""Malformed input ends in the package's own errors: exit 1 with one line
from the CLI, ParseError or QubitCountError from the library."""

import json

import pytest

from boolham.cli import main
from boolham.compiler import QuboInstance, penalty_spec_from_json
from boolham.errors import ParseError, QubitCountError
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
