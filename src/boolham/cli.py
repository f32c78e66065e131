"""Command-line front end: parse -> compile -> transform/emit -> verify.

Exit codes: 0 success, 1 parse/usage error, 2 cap exceeded, 3 verification
failure.  Diagnostics go to standard error; all outputs are deterministic
for a fixed input.  Input paths accept '-' for standard input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import circuits, compiler, fourier, verify
from .boolexpr import parse_dimacs, parse_expr, register_size
from .errors import CapExceeded, ParseError, VerificationError
from .pauli import jordan_wigner
from .zpoly import DiagonalHamiltonian, format_coeff, load_json, term_label

EXIT_PARSE = 1
EXIT_CAP = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    # flag mistakes are parse errors (exit 1), not argparse's default 2
    def error(self, message):
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _print_ham(h: DiagonalHamiltonian, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(h.to_json_dict()))
    else:
        print(h.to_text())


def _load_expression(args) -> tuple:
    """(expr, n) from -e/--expr or a DIMACS file in SAT view."""
    if args.expr is not None:
        e = parse_expr(args.expr, args.n)
        return e, register_size(e, args.n)
    if getattr(args, "dimacs", None) is not None:
        objective, conjunction = parse_dimacs(_read(args.dimacs))
        return conjunction, objective.n_vars
    raise ParseError("no input given: use --expr or --dimacs")


def _cmd_compile(args) -> int:
    sources = [s for s in (args.expr, args.dimacs, args.qubo) if s is not None]
    if len(sources) != 1:
        raise ParseError("exactly one of --expr, --dimacs, --qubo is required")
    if args.qubo is not None:
        h = compiler.compile_qubo(compiler.QuboInstance.from_json(_read(args.qubo)))
    elif args.dimacs is not None:
        if args.mode is None:
            raise ParseError("--dimacs needs --mode sat|maxsat")
        objective, conjunction = parse_dimacs(_read(args.dimacs))
        n = args.n if args.n is not None else objective.n_vars
        if args.mode == "sat":
            h = compiler.compile_expr(conjunction, n)
        else:
            h = compiler.compile_pseudo(objective, n)
    else:
        e = parse_expr(args.expr, args.n)
        h = compiler.compile_expr(e, args.n)
    if args.prune_eps is not None:
        h = h.pruned(args.prune_eps)
    _print_ham(h, args.format)
    return 0


def _table_text(arg: str) -> str:
    # the table may be given inline (bit string or JSON vector) or as a path
    stripped = arg.strip()
    if stripped.startswith("[") or (stripped and set(stripped) <= {"0", "1"}):
        return stripped
    return _read(arg)


def _cmd_fourier(args) -> int:
    if args.inverse:
        h = DiagonalHamiltonian.from_json(_read(args.input))
        table = fourier.table_from_fourier(h)
        print(json.dumps([float(v) for v in table.values]))
        return 0
    text = _table_text(args.input).strip()
    if text.startswith("["):
        values = load_json(text)
        h = fourier.fourier_from_table(
            fourier.TruthTable((len(values) - 1).bit_length(), values)
        )
    else:
        h = fourier.fourier_from_table(fourier.TruthTable.from_bits(text))
    if args.prune_eps is not None:
        h = h.pruned(args.prune_eps)
    for mask, coeff in h.items():
        print(f"{term_label(mask)} {format_coeff(coeff)}")
    return 0


def _cmd_circuit(args) -> int:
    if args.expr is not None:
        e = parse_expr(args.expr, args.n)
        h = compiler.compile_expr(e, args.n)
    elif args.hamiltonian is not None:
        h = DiagonalHamiltonian.from_json(_read(args.hamiltonian))
    else:
        raise ParseError("no input given: use --expr or --hamiltonian")
    print(circuits.serialize(circuits.emit_evolution(h, args.gamma)), end="")
    return 0


def _cmd_qubo(args) -> int:
    q = compiler.QuboInstance.from_json(_read(args.input))
    h = compiler.compile_qubo(q)
    _print_ham(h, args.format)
    print(circuits.serialize(circuits.emit_evolution(h, args.t)), end="")
    return 0


def _cmd_count(args) -> int:
    e, n = _load_expression(args)
    h = compiler.compile_expr(e, n)
    print(fourier.count_models(h))
    return 0


def _cmd_gslogic(args) -> int:
    e = parse_expr(args.expr, args.n)
    h = compiler.ground_state_logic(e, args.n)
    _print_ham(h, args.format)
    return 0


def _cmd_penalize(args) -> int:
    spec = compiler.penalty_spec_from_json(_read(args.input))
    _print_ham(compiler.augment_penalties(spec), args.format)
    return 0


def _cmd_jw(args) -> int:
    for j in range(1, args.n + 1):
        a = jordan_wigner(args.n, j, "lowering")
        adag = jordan_wigner(args.n, j, "raising")
        print(f"a{j}      {a.to_text()}")
        print(f"a{j}^dag  {adag.to_text()}")
    return 0


def _cmd_verify(args) -> int:
    from .oracle import DENSE_CAP_DEFAULT

    cap = args.dense_cap if args.dense_cap is not None else DENSE_CAP_DEFAULT
    if args.expr is not None:
        e = parse_expr(args.expr, args.n)
        n = register_size(e, args.n)
        report = verify.VerificationReport(
            tuple(verify.expression_checks("input", e, n, dense_cap=cap))
        )
    elif args.qubo is not None:
        q = compiler.QuboInstance.from_json(_read(args.qubo))
        report = verify.VerificationReport(
            tuple(verify.qubo_checks("input", q, dense_cap=cap))
        )
    else:
        report = verify.run_corpus_verification(dense_cap=cap)
    for line in report.lines():
        print(line)
    return 0 if report.passed else EXIT_VERIFY


def build_parser() -> _Parser:
    parser = _Parser(prog="boolham", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt=True):
        p.add_argument("-n", type=int, default=None, help="register size override")
        if fmt:
            p.add_argument(
                "--format", choices=("text", "json"), default="text",
                help="Hamiltonian output form",
            )
        p.add_argument(
            "--prune-eps", type=float, default=None,
            help="re-prune coefficients below this magnitude before printing",
        )

    p = sub.add_parser("compile", help="expression/DIMACS/QUBO -> Hamiltonian")
    p.add_argument("-e", "--expr", help="infix formula, e.g. 'x1 & (x2 | !x3)'")
    p.add_argument("--dimacs", help="DIMACS CNF/WCNF path ('-' for stdin)")
    p.add_argument("--mode", choices=("sat", "maxsat"), default=None,
                   help="DIMACS view: conjunction or weighted clause sum")
    p.add_argument("--qubo", help="QUBO JSON path ('-' for stdin)")
    add_common(p)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("fourier", help="truth table <-> Fourier coefficients")
    p.add_argument(
        "input",
        help="table as bits ('0111') or JSON vector, given inline, as a path, or '-'",
    )
    p.add_argument("--inverse", action="store_true",
                   help="input is a Hamiltonian JSON; print the value table")
    add_common(p, fmt=False)
    p.set_defaults(func=_cmd_fourier)

    p = sub.add_parser("circuit", help="Hamiltonian + gamma -> circuit text")
    p.add_argument("-e", "--expr")
    p.add_argument("--hamiltonian", help="Hamiltonian JSON path ('-' for stdin)")
    p.add_argument("--gamma", type=float, required=True)
    add_common(p, fmt=False)
    p.set_defaults(func=_cmd_circuit)

    p = sub.add_parser("qubo", help="QUBO JSON -> Hamiltonian + circuit")
    p.add_argument("input", help="QUBO JSON path ('-' for stdin)")
    p.add_argument("--t", type=float, default=1.0, help="evolution time")
    add_common(p)
    p.set_defaults(func=_cmd_qubo)

    p = sub.add_parser("count", help="model count via the identity coefficient")
    p.add_argument("-e", "--expr")
    p.add_argument("--dimacs", help="DIMACS path; counts the conjunction")
    add_common(p, fmt=False)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("gslogic", help="ground-state logic Hamiltonian (n+1 qubits)")
    p.add_argument("-e", "--expr", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_gslogic)

    p = sub.add_parser("penalize", help="augment an objective with penalty terms")
    p.add_argument("input", help="penalty spec JSON path ('-' for stdin)")
    add_common(p)
    p.set_defaults(func=_cmd_penalize)

    p = sub.add_parser("jw", help="Jordan-Wigner ladder operator table")
    p.add_argument("n", type=int, help="number of modes/qubits")
    p.set_defaults(func=_cmd_jw)

    p = sub.add_parser("verify", help="run the invariant suite and print residuals")
    p.add_argument("-e", "--expr", help="verify one formula instead of the corpus")
    p.add_argument("--qubo", help="verify one QUBO JSON instead of the corpus")
    p.add_argument(
        "--dense-cap", type=int, default=None,
        help="qubit cap for the dense-matrix checks (default 12, max 14)",
    )
    add_common(p, fmt=False)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "gamma", None) is not None and not math.isfinite(args.gamma):
        print("boolham: error: angle must be finite", file=sys.stderr)
        return EXIT_PARSE
    if getattr(args, "t", None) is not None and not math.isfinite(args.t):
        print("boolham: error: angle must be finite", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"boolham: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceeded as exc:
        print(f"boolham: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except VerificationError as exc:
        print(f"boolham: verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (OSError, ValueError) as exc:
        print(f"boolham: error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
