"""Tests for the command-line front end (direct main() calls)."""

import json

import pytest

from boolham import cli
from boolham.boolexpr import Const, register_size
from boolham.circuits import emit_evolution, parse_circuit
from boolham.cli import main
from boolham.errors import QubitCountError
from boolham.verify import CheckResult, VerificationReport
from boolham.zpoly import DiagonalHamiltonian


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompile:
    def test_or_text_golden(self, capsys):
        code, out, _ = run(capsys, "compile", "-e", "x1 | x2", "-n", "2")
        assert code == 0
        assert out == "0.75 I - 0.25 Z1 - 0.25 Z2 - 0.25 Z1Z2\n"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "compile", "-e", "x1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "n": 1,
            "terms": [
                {"paulis": "I", "coeff": 0.5},
                {"paulis": "Z1", "coeff": -0.5},
            ],
        }

    def test_dimacs_modes(self, tmp_path, capsys):
        path = tmp_path / "inst.cnf"
        path.write_text("p cnf 2 2\n1 0\n-1 0\n")
        code, out, _ = run(capsys, "compile", "--dimacs", str(path), "--mode", "sat")
        assert code == 0 and out == "0\n"  # unsatisfiable -> zero operator
        code, out, _ = run(capsys, "compile", "--dimacs", str(path), "--mode", "maxsat")
        assert code == 0 and out == "1 I\n"  # x1 + (1-x1) = 1

    def test_dimacs_requires_mode(self, tmp_path, capsys):
        path = tmp_path / "inst.cnf"
        path.write_text("p cnf 1 1\n1 0\n")
        code, _, err = run(capsys, "compile", "--dimacs", str(path))
        assert code == 1 and "mode" in err

    def test_requires_exactly_one_input(self, capsys):
        code, _, err = run(capsys, "compile")
        assert code == 1

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "compile", "-e", "x1 &")
        assert code == 1 and "parse error" in err

    def test_prune_eps_override(self, capsys):
        code, out, _ = run(
            capsys, "compile", "-e", "x1 | x2", "--prune-eps", "0.5"
        )
        assert code == 0 and out == "0.75 I\n"


class TestFourier:
    def test_bit_string_table(self, tmp_path, capsys):
        path = tmp_path / "table.txt"
        path.write_text("0111")
        code, out, _ = run(capsys, "fourier", str(path))
        assert code == 0
        assert out.splitlines() == [
            "I 0.75",
            "Z1 -0.25",
            "Z2 -0.25",
            "Z1Z2 -0.25",
        ]

    def test_inline_bit_string(self, capsys):
        code, out, _ = run(capsys, "fourier", "0111")
        assert code == 0 and out.splitlines()[0] == "I 0.75"

    def test_inline_json_vector(self, capsys):
        code, out, _ = run(capsys, "fourier", "[0, 1, 1, 2]")
        assert code == 0 and out.splitlines()[0] == "I 1"

    def test_json_vector_and_inverse(self, tmp_path, capsys):
        table = tmp_path / "t.json"
        table.write_text("[0, 1, 1, 2]")
        code, out, _ = run(capsys, "fourier", str(table))
        assert code == 0 and out.splitlines()[0] == "I 1"
        ham = tmp_path / "h.json"
        ham.write_text(
            '{"n": 1, "terms": [{"paulis": "I", "coeff": 0.5},'
            ' {"paulis": "Z1", "coeff": -0.5}]}'
        )
        code, out, _ = run(capsys, "fourier", "--inverse", str(ham))
        assert code == 0 and json.loads(out) == [0.0, 1.0]

    def test_cap_exit_code(self, tmp_path, capsys):
        ham = tmp_path / "big.json"
        ham.write_text('{"n": 30, "terms": [{"paulis": "I", "coeff": 1.0}]}')
        code, _, err = run(capsys, "fourier", "--inverse", str(ham))
        assert code == 2 and "cap" in err


class TestCircuit:
    def test_expression_circuit_parses_back(self, capsys):
        code, out, _ = run(capsys, "circuit", "-e", "x1 ^ x2", "--gamma", "0.5")
        assert code == 0
        circ = parse_circuit(out)
        assert circ.n_qubits == 2 and circ.cnot_count == 2

    def test_hamiltonian_json_input(self, tmp_path, capsys):
        ham = tmp_path / "h.json"
        ham.write_text('{"n": 3, "terms": [{"paulis": "Z1 Z2 Z3", "coeff": 1.0}]}')
        code, out, _ = run(capsys, "circuit", "--hamiltonian", str(ham), "--gamma", "1.0")
        assert code == 0
        assert out.splitlines()[2:] == ["cx 1 2", "cx 2 3", "rz 3 2", "cx 2 3", "cx 1 2"]


class TestQubo:
    def test_hamiltonian_and_circuit(self, tmp_path, capsys):
        q = tmp_path / "q.json"
        q.write_text('{"n": 2, "a": 0, "linear": [0, 0], "quadratic": [[1, 2, 1]]}')
        code, out, _ = run(capsys, "qubo", str(q), "--t", "1.0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0.25 I - 0.25 Z1 - 0.25 Z2 + 0.25 Z1Z2"
        assert lines[1] == "qubits 2"

    def test_deterministic_output(self, tmp_path, capsys):
        q = tmp_path / "q.json"
        q.write_text('{"n": 3, "a": 0.25, "linear": [1, -2, 0.5], "quadratic": [[1, 3, -0.75]]}')
        _, out1, _ = run(capsys, "qubo", str(q))
        _, out2, _ = run(capsys, "qubo", str(q))
        assert out1 == out2


class TestCount:
    def test_unsat(self, capsys):
        code, out, _ = run(capsys, "count", "-e", "x1 & !x1", "-n", "1")
        assert code == 0 and out == "0\n"

    def test_dimacs_conjunction(self, tmp_path, capsys):
        path = tmp_path / "inst.cnf"
        path.write_text("p cnf 3 2\n1 -2 0\n2 3 0\n")
        code, out, _ = run(capsys, "count", "--dimacs", str(path))
        assert code == 0 and out == "4\n"


class TestOtherCommands:
    def test_gslogic(self, capsys):
        # for f = x1 the construction reduces to the two-bit XOR polynomial
        code, out, _ = run(capsys, "gslogic", "-e", "x1", "-n", "1")
        assert code == 0
        assert out == "0.5 I - 0.5 Z1Z2\n"

    def test_penalize(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"n": 1, "objective": "x1", "penalties": [{"weight": 3.0, "expr": "!x1"}]}'
        )
        code, out, _ = run(capsys, "penalize", str(spec))
        assert code == 0
        assert out == "2 I + 1 Z1\n"  # x1 + 3(1-x1) = 2 + Z1... as compiled

    def test_jw_table(self, capsys):
        code, out, _ = run(capsys, "jw", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a1      0.5 X1 + 0.5i Y1"
        assert lines[2] == "a2      0.5 Z1X2 + 0.5i Z1Y2"

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("p cnf 2 1\n1 2 0\n"))
        code, out, _ = run(capsys, "count", "--dimacs", "-")
        assert code == 0 and out == "3\n"


class TestVerify:
    def test_single_expression(self, capsys):
        code, out, _ = run(capsys, "verify", "-e", "x1 & (x2 | x3)")
        assert code == 0
        assert "PASS" in out.splitlines()[-1]

    def test_single_qubo(self, tmp_path, capsys):
        q = tmp_path / "q.json"
        q.write_text('{"n": 2, "a": 1, "linear": [0.5, -1], "quadratic": [[1, 2, 2]]}')
        code, out, _ = run(capsys, "verify", "--qubo", str(q))
        assert code == 0 and "PASS" in out

    def test_failure_exit_code(self, capsys, monkeypatch):
        import boolham.verify as verify_mod

        def fake_corpus(dense_cap=12):
            return VerificationReport((CheckResult("rigged", 1.0, 1e-9),))

        monkeypatch.setattr(verify_mod, "run_corpus_verification", fake_corpus)
        code, out, _ = run(capsys, "verify")
        assert code == 3 and "FAIL" in out


class TestParserReuse:
    """main() builds its parser once per process; a call must not see the
    flags or defaults of an earlier one."""

    def outcomes(self, capsys, inputs):
        argvs = [
            ["count", "--dimacs", inputs["cnf"]],
            ["compile", "--dimacs", inputs["cnf"]],  # count's mode default must not leak
            ["compile", "--dimacs", inputs["cnf"], "--mode", "maxsat"],
            ["compile", "--dimacs", inputs["cnf"]],
            ["verify", "-e", "x1 & x2", "--dense-cap", "3"],
            ["verify", "-e", "x1 & x2"],
            ["circuit", "-e", "x1", "--gamma", "nan"],
            ["circuit", "-e", "x1", "--gamma", "0.5"],
            ["compile", "--bogus"],
            ["compile", "-e", "x1 | x2"],
        ]
        out = []
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    def test_repeated_calls_match_a_fresh_parser_each(self, capsys, inputs, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        shared = self.outcomes(capsys, inputs)
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert self.outcomes(capsys, inputs) == shared
        codes = [code for code, _, _ in shared]
        assert codes == [0, 1, 0, 1, 0, 0, 1, 0, 1, 0]
        assert shared[1][2] == shared[3][2] == "boolham: parse error: --dimacs needs --mode sat|maxsat\n"
        assert shared[4][1].splitlines()[-1] == "14 checks, 0 failures: PASS"  # no kickback
        assert shared[5][1].splitlines()[-1] == "16 checks, 0 failures: PASS"


class TestUsageErrors:
    def test_unknown_flag_exits_one(self):
        # argparse reports flag mistakes through SystemExit; code must be 1
        with pytest.raises(SystemExit) as exc:
            main(["compile", "--bogus"])
        assert exc.value.code == 1


def one_line_usage_error(capsys, *argv):
    """argv ends in exit 1 with one stderr line and no stdout, whether the
    parser or a subcommand rejects it."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code == 1 and captured.out == "" and len(captured.err.splitlines()) == 1


@pytest.fixture
def inputs(tmp_path):
    paths = {
        "cnf": tmp_path / "or.cnf",
        "qubo": tmp_path / "q.json",
        "ham": tmp_path / "h.json",
        "spec": tmp_path / "spec.json",
    }
    paths["cnf"].write_text("p cnf 2 1\n1 2 0\n")
    paths["qubo"].write_text('{"n": 2, "a": 0, "linear": [1, 0], "quadratic": []}')
    paths["ham"].write_text('{"n": 2, "terms": [{"paulis": "Z1", "coeff": 1.0}]}')
    paths["spec"].write_text('{"n": 1, "objective": "x1", "penalties": []}')
    return {name: str(path) for name, path in paths.items()}


class TestRegisterSize:
    # -n is the register size for -e and --dimacs alike: x1 | x2 holds on
    # 3 of the 4 assignments of x1, x2, and on 12 of 16 in a 4-qubit register

    def test_count_dimacs_reads_n(self, inputs, capsys):
        assert run(capsys, "count", "--dimacs", inputs["cnf"], "-n", "4")[:2] == (0, "12\n")
        assert run(capsys, "count", "-e", "x1 | x2", "-n", "4")[:2] == (0, "12\n")
        assert run(capsys, "count", "--dimacs", inputs["cnf"])[:2] == (0, "3\n")

    def test_compile_dimacs_matches_expression(self, inputs, capsys):
        _, from_expr, _ = run(capsys, "compile", "-e", "x1 | x2", "-n", "3")
        for mode in ("sat", "maxsat"):
            code, out, _ = run(
                capsys, "compile", "--dimacs", inputs["cnf"], "--mode", mode, "-n", "3"
            )
            assert code == 0 and out == from_expr

    def test_n_below_the_dimacs_header(self, inputs, capsys):
        for argv in (["count"], ["compile", "--mode", "maxsat"]):
            assert one_line_usage_error(capsys, *argv, "--dimacs", inputs["cnf"], "-n", "1")

    def test_negative_n_is_named(self, capsys):
        # a constant uses no variable, so only the sign of -n is wrong
        assert run(capsys, "compile", "-e", "1", "-n", "-1") == (
            1, "", "boolham: error: register size -1 is negative\n"
        )
        with pytest.raises(QubitCountError, match="^register size -1 is negative$"):
            register_size(Const(1), -1)


class TestOneInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "-e", "x1", "--qubo", "{qubo}"],
            ["compile", "--dimacs", "{cnf}", "--mode", "sat", "--qubo", "{qubo}"],
            ["circuit", "-e", "x1", "--hamiltonian", "{ham}", "--gamma", "1"],
            ["count", "-e", "x1", "--dimacs", "{cnf}"],
            ["verify", "-e", "x1", "--qubo", "{qubo}"],
        ],
        ids=["compile", "compile-dimacs", "circuit", "count", "verify"],
    )
    def test_two_sources_exit_1(self, argv, inputs, capsys):
        argv = [a.format(**inputs) for a in argv]
        assert one_line_usage_error(capsys, *argv)

    @pytest.mark.parametrize("command", [["compile"], ["circuit", "--gamma", "1"], ["count"]])
    def test_no_source_exits_1(self, command, capsys):
        assert one_line_usage_error(capsys, *command)

    def test_gslogic_needs_an_expression(self, capsys):
        assert one_line_usage_error(capsys, "gslogic", "-n", "2")


class TestFlagsThatWouldBeIgnored:
    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "--qubo", "{qubo}", "-n", "3"],
            ["circuit", "--hamiltonian", "{ham}", "--gamma", "1", "-n", "3"],
            ["verify", "--qubo", "{qubo}", "-n", "3"],
            ["verify", "-n", "3"],
            ["compile", "-e", "x1", "--mode", "sat"],
            ["fourier", "--inverse", "--prune-eps", "0.1", "{ham}"],
        ],
        ids=[
            "n-with-qubo", "n-with-hamiltonian", "verify-n-with-qubo", "verify-n-alone",
            "mode-without-dimacs", "inverse-prune",
        ],
    )
    def test_exits_1_with_one_line(self, argv, inputs, capsys):
        argv = [a.format(**inputs) for a in argv]
        assert one_line_usage_error(capsys, *argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["circuit", "-e", "x1", "--gamma", "1", "--prune-eps", "0.1"],
            ["qubo", "{qubo}", "--prune-eps", "0.1"],
            ["count", "-e", "x1", "--prune-eps", "0.1"],
            ["gslogic", "-e", "x1", "--prune-eps", "0.1"],
            ["penalize", "{spec}", "--prune-eps", "0.1"],
            ["verify", "-e", "x1", "--prune-eps", "0.1"],
            ["fourier", "0111", "-n", "2"],
            ["qubo", "{qubo}", "-n", "2"],
            ["penalize", "{spec}", "-n", "2"],
        ],
        ids=[
            "circuit-prune", "qubo-prune", "count-prune", "gslogic-prune", "penalize-prune",
            "verify-prune", "fourier-n", "qubo-n", "penalize-n",
        ],
    )
    def test_removed_flag_exits_1(self, argv, inputs, capsys):
        argv = [a.format(**inputs) for a in argv]
        assert one_line_usage_error(capsys, *argv)


class TestBounds:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "-e", "x1 & x2", "--dense-cap", "-5"],
            ["verify", "--dense-cap", "0"],
            ["verify", "-e", "x1", "--dense-cap", "15"],
            ["verify", "-e", " & ".join(f"x{j}" for j in range(1, 10)), "--dense-cap", "15"],
            ["jw", "-3"],
            ["jw", "0"],
        ],
        ids=["dense-cap-negative", "dense-cap-zero", "dense-cap-above-max",
             "dense-cap-above-max-unused", "jw-negative", "jw-zero"],
    )
    def test_exits_1_with_one_line(self, argv, capsys):
        assert one_line_usage_error(capsys, *argv)

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["compile", "--qubo"], '{"n": 2, "linear": [1e308, 1e308]}'),
            (["fourier"], "[1e308, 1e308]"),
            (["penalize"], json.dumps(
                {"n": 1, "objective": "x1", "penalties": [{"weight": 1e308, "expr": "x1"}] * 4}
            )),
            (["compile", "--mode", "maxsat", "--dimacs"], "p wcnf 1 1\nnan 1 0\n"),
            (["compile", "--mode", "maxsat", "--dimacs"], "p wcnf 1 1\n1e400 1 0\n"),
        ],
        ids=["qubo-sum", "fourier-sum", "penalty-sum", "wcnf-nan-weight", "wcnf-huge-weight"],
    )
    def test_non_finite_coefficients_exit_1(self, argv, text, tmp_path, capsys):
        # finite inputs whose sums overflow used to print inf; a NaN weight
        # dropped its clause
        path = tmp_path / "input"
        path.write_text(text)
        assert one_line_usage_error(capsys, *argv, str(path))

    def test_overflowing_rotation_angle_exits_1(self, tmp_path, capsys):
        # 2 * gamma * w passes the float range although gamma and w are finite
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"n": 2, "terms": [
            {"paulis": "Z1", "coeff": 1e10}, {"paulis": "Z1 Z2", "coeff": 0.5}]}))
        code, out, err = run(capsys, "circuit", "--hamiltonian", str(path), "--gamma", "1e300")
        assert code == 1 and out == ""
        assert err == "boolham: error: rz needs a finite angle, got inf\n"
        with pytest.raises(ValueError, match="^rz needs a finite angle, got inf$"):
            emit_evolution(DiagonalHamiltonian.from_json(path.read_text()), 1e300)

    def test_overflowing_global_phase_exits_1(self, tmp_path, capsys):
        # gamma * w of the identity term passes the float range; its rotation does not
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"n": 1, "terms": [
            {"paulis": "I", "coeff": 1e10}, {"paulis": "Z1", "coeff": 0.5}]}))
        code, out, err = run(capsys, "circuit", "--hamiltonian", str(path), "--gamma", "1e300")
        assert code == 1 and out == ""
        assert err == "boolham: error: global phase must be finite, got -inf\n"
        with pytest.raises(ValueError, match="^global phase must be finite, got -inf$"):
            emit_evolution(DiagonalHamiltonian.from_json(path.read_text()), 1e300)

    def test_overflowing_inverse_transform_exits_1(self, tmp_path, capsys):
        # each coefficient is finite, their sum at x = 0 is not
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"n": 1, "terms": [
            {"paulis": "I", "coeff": 1e308}, {"paulis": "Z1", "coeff": 1e308}]}))
        code, out, err = run(capsys, "fourier", "--inverse", str(path))
        assert code == 1 and out == ""
        assert err == "boolham: parse error: function values overflow the float range\n"

    @pytest.mark.parametrize(
        "argv, doc, what",
        [
            (["compile", "--qubo"], {"n": 2.5, "linear": [1, 2]}, "QUBO 'n'"),
            (["fourier", "--inverse"], {"n": 2.5, "terms": []}, "operator 'n'"),
        ],
        ids=["qubo", "operator"],
    )
    def test_fractional_size_is_named_once(self, argv, doc, what, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, *argv, str(path))
        assert code == 1 and out == ""
        assert err == f"boolham: parse error: {what} must be an integer, got 2.5\n"

    def test_verify_qubo_above_the_table_cap(self, tmp_path, capsys):
        # 30 variables: no value table, so eval is checked on a sample
        q = tmp_path / "q30.json"
        linear = [(-1) ** j * (j + 1) / 4 for j in range(30)]
        quadratic = [[j, j + 1, 0.5] for j in range(1, 30)]
        q.write_text(json.dumps({"n": 30, "a": 1, "linear": linear, "quadratic": quadratic}))
        code, out, _ = run(capsys, "verify", "--qubo", str(q))
        lines = out.splitlines()
        assert code == 0 and lines[-1] == "3 checks, 0 failures: PASS"
        assert any("eval matches polynomial" in line for line in lines)
