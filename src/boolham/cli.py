"""Command-line front end: parse -> compile -> transform/emit -> verify.

Exit codes: 0 success, 1 parse/usage error, 2 cap exceeded, 3 verification
failure.  Diagnostics go to standard error; all outputs are deterministic
for a fixed input.  Input paths accept '-' for standard input.

compile, circuit and count read exactly one input source, verify at most
one.  -n is the register size of an -e formula or a DIMACS file.  A flag
that could not change the output is a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import circuits, compiler, fourier, verify
from .boolexpr import parse_dimacs, parse_expr, register_size
from .errors import CapExceeded, ParseError, VerificationError
from .oracle import DENSE_CAP_DEFAULT, DENSE_CAP_MAX
from .pauli import jordan_wigner
from .zpoly import DiagonalHamiltonian, format_coeff, term_label

EXIT_PARSE = 1
EXIT_CAP = 2
EXIT_VERIFY = 3

# input flags, in the order usage messages name them, and those -n sizes
_SOURCES = ("expr", "dimacs", "qubo", "hamiltonian")
_SIZED = ("expr", "dimacs")


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
    print(json.dumps(h.to_json_dict()) if fmt == "json" else h.to_text())


def _source(args, required: bool = True) -> str | None:
    """The input flag given among those the subcommand defines: exactly one,
    or at most one when not required.  -n needs a source it can size."""
    defined = [s for s in _SOURCES if hasattr(args, s)]
    given = [s for s in defined if getattr(args, s) is not None]
    if len(given) > 1 or (required and not given):
        flags = ", ".join(f"--{s}" for s in defined)
        raise ParseError(f"give {'exactly' if required else 'at most'} one of {flags}")
    source = given[0] if given else None
    if args.n is not None and source not in _SIZED:
        sized = " or ".join(f"--{s}" for s in defined if s in _SIZED)
        raise ParseError(f"-n applies only to {sized}")
    return source


def _hamiltonian(args) -> DiagonalHamiltonian:
    """The Hamiltonian of the one input given to compile, circuit or count."""
    source = _source(args)
    if source == "expr":
        return compiler.compile_expr(parse_expr(args.expr, args.n), args.n)
    if source == "dimacs":
        if args.mode is None:
            raise ParseError("--dimacs needs --mode sat|maxsat")
        objective, conjunction = parse_dimacs(_read(args.dimacs))
        n = objective.n_vars if args.n is None else args.n
        if n < objective.n_vars:
            raise ParseError(f"-n {n} is below the header's {objective.n_vars} variables")
        if args.mode == "sat":
            return compiler.compile_expr(conjunction, n)
        return compiler.compile_pseudo(objective, n)
    if source == "qubo":
        return compiler.compile_qubo(compiler.QuboInstance.from_json(_read(args.qubo)))
    return DiagonalHamiltonian.from_json(_read(args.hamiltonian))


def _cmd_compile(args) -> int:
    if args.mode is not None and args.dimacs is None:
        raise ParseError("--mode applies only to --dimacs")
    h = _hamiltonian(args)
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
        if args.prune_eps is not None:
            raise ParseError("--prune-eps applies only to the forward transform")
        h = DiagonalHamiltonian.from_json(_read(args.input))
        print(json.dumps(fourier.table_from_fourier(h).tolist()))
        return 0
    h = fourier.fourier_from_table(fourier.parse_table(_table_text(args.input)))
    if args.prune_eps is not None:
        h = h.pruned(args.prune_eps)
    for mask, coeff in h.items():
        print(f"{term_label(mask)} {format_coeff(coeff)}")
    return 0


def _cmd_circuit(args) -> int:
    print(circuits.serialize(circuits.emit_evolution(_hamiltonian(args), args.angle)), end="")
    return 0


def _cmd_qubo(args) -> int:
    h = compiler.compile_qubo(compiler.QuboInstance.from_json(_read(args.input)))
    _print_ham(h, args.format)
    print(circuits.serialize(circuits.emit_evolution(h, args.angle)), end="")
    return 0


def _cmd_count(args) -> int:
    print(fourier.count_models(_hamiltonian(args)))
    return 0


def _cmd_gslogic(args) -> int:
    _source(args)
    e = parse_expr(args.expr, args.n)
    _print_ham(compiler.ground_state_logic(e, args.n), args.format)
    return 0


def _cmd_penalize(args) -> int:
    spec = compiler.penalty_spec_from_json(_read(args.input))
    _print_ham(compiler.augment_penalties(spec), args.format)
    return 0


def _cmd_jw(args) -> int:
    if args.n < 1:
        raise ParseError(f"jw needs at least 1 mode, got {args.n}")
    for j in range(1, args.n + 1):
        a = jordan_wigner(args.n, j, "lowering")
        adag = jordan_wigner(args.n, j, "raising")
        print(f"a{j}      {a.to_text()}")
        print(f"a{j}^dag  {adag.to_text()}")
    return 0


def _cmd_verify(args) -> int:
    source, cap = _source(args, required=False), args.dense_cap
    if cap < 1:
        raise ParseError(f"--dense-cap must be at least 1, got {cap}")
    if cap > DENSE_CAP_MAX:
        raise ParseError(f"--dense-cap must be at most {DENSE_CAP_MAX}, got {cap}")
    if source == "expr":
        e = parse_expr(args.expr, args.n)
        checks = verify.expression_checks("input", e, register_size(e, args.n), dense_cap=cap)
        report = verify.VerificationReport(tuple(checks))
    elif source == "qubo":
        q = compiler.QuboInstance.from_json(_read(args.qubo))
        report = verify.VerificationReport(tuple(verify.qubo_checks("input", q, dense_cap=cap)))
    else:
        report = verify.run_corpus_verification(dense_cap=cap)
    for line in report.lines():
        print(line)
    return 0 if report.passed else EXIT_VERIFY


# options several subcommands take, by dest; each subcommand adds the ones it reads
_OPTIONS = {
    "expr": (("-e", "--expr"), dict(help="infix formula, e.g. 'x1 & (x2 | !x3)'")),
    "dimacs": (("--dimacs",), dict(help="DIMACS CNF/WCNF path ('-' for stdin)")),
    "qubo": (("--qubo",), dict(help="QUBO JSON path ('-' for stdin)")),
    "n": (("-n",), dict(type=int, help="register size of -e/--dimacs input "
                        "(default: largest variable / DIMACS header count)")),
    "format": (("--format",), dict(choices=("text", "json"), default="text",
                                   help="Hamiltonian output form")),
    "prune_eps": (("--prune-eps",), dict(type=float,
                                         help="re-prune coefficients below this magnitude")),
}


def _subcommand(sub, name: str, func, summary: str, *options: str) -> _Parser:
    p = sub.add_parser(name, help=summary)
    for dest in options:
        flags, kwargs = _OPTIONS[dest]
        p.add_argument(*flags, **kwargs)
    p.set_defaults(func=func)
    return p


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parse_args keeps no
    state in it, so every main() call in one process shares it."""
    parser = _Parser(prog="boolham", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "compile", _cmd_compile, "expression/DIMACS/QUBO -> Hamiltonian",
                    "expr", "dimacs", "qubo", "n", "format", "prune_eps")
    p.add_argument("--mode", choices=("sat", "maxsat"),
                   help="DIMACS view: conjunction or weighted clause sum")

    p = _subcommand(sub, "fourier", _cmd_fourier, "truth table <-> Fourier coefficients",
                    "prune_eps")
    p.add_argument("input", help="table as bits ('0111') or JSON vector, "
                   "given inline, as a path, or '-'")
    p.add_argument("--inverse", action="store_true",
                   help="input is a Hamiltonian JSON; print the value table")

    p = _subcommand(sub, "circuit", _cmd_circuit, "Hamiltonian + gamma -> circuit text",
                    "expr", "n")
    p.add_argument("--hamiltonian", help="Hamiltonian JSON path ('-' for stdin)")
    p.add_argument("--gamma", dest="angle", type=float, required=True)

    p = _subcommand(sub, "qubo", _cmd_qubo, "QUBO JSON -> Hamiltonian + circuit", "format")
    p.add_argument("input", help="QUBO JSON path ('-' for stdin)")
    p.add_argument("--t", dest="angle", type=float, default=1.0, help="evolution time")

    p = _subcommand(sub, "count", _cmd_count, "model count of -e or a DIMACS conjunction",
                    "expr", "dimacs", "n")
    p.set_defaults(mode="sat")

    _subcommand(sub, "gslogic", _cmd_gslogic, "ground-state logic Hamiltonian (n+1 qubits)",
                "expr", "n", "format")

    p = _subcommand(sub, "penalize", _cmd_penalize, "augment an objective with penalty terms",
                    "format")
    p.add_argument("input", help="penalty spec JSON path ('-' for stdin)")

    p = _subcommand(sub, "jw", _cmd_jw, "Jordan-Wigner ladder operator table")
    p.add_argument("n", type=int, help="number of modes/qubits (at least 1)")

    p = _subcommand(sub, "verify", _cmd_verify,
                    "invariant suite on the bundled corpus, or on one -e/--qubo input",
                    "expr", "qubo", "n")
    p.add_argument(
        "--dense-cap", type=int, default=DENSE_CAP_DEFAULT,
        help=f"qubit cap (default {DENSE_CAP_DEFAULT}, min 1, max {DENSE_CAP_MAX}): dense checks run "
        "at n <= min(8, cap), bit queries at n <= min(6, cap-1), kickback at "
        "n <= min(5, cap-2), so any cap of 8 or more runs the default's checks",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not math.isfinite(getattr(args, "angle", 0.0)):
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
