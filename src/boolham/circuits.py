"""Gate-level IR and circuit emitters for simulating Z-polynomials.

Each Hamiltonian term exp(-i gamma w Z_S) is realized as a CNOT ladder
down the qubits of S (ascending index), an RZ(2 gamma w) on the largest
qubit, and the reversed ladder, i.e. 2(|S|-1) CNOTs and one RZ per term.
Identity terms only shift the global phase, which is tracked explicitly:
the simulated gate product times e^(i global_phase) equals the target
operator exactly, so controlled versions of emitted circuits stay correct.

RZ convention: RZ(theta) = exp(-i Z theta / 2).  Multi-controlled
rotations (CRZ, CCRZ) are first-class gates here; lower_basic() rewrites
them into CNOT + RZ when a basic gate set is required.  No cancellation
or optimization passes are applied.

Gates are checked where they enter the program: the public Gate and
Circuit constructors and parse_circuit check names, arities, distinct
1-based integer qubits, angles, the register size and bound, and a finite
global phase, so every circuit they accept serializes to text that
parse_circuit reads back equal.  The emitters and lower_basic build gates
that are valid by construction (their qubits come from operator masks,
which DiagonalHamiltonian keeps inside the register), so they check only
that each rotation angle and emit_evolution's global phase are finite.
Within one call they make each distinct CX gate once and share it across
every ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

from .boolexpr import BoolExpr, register_size
from .compiler import QuboInstance, compile_expr, compile_qubo
from .errors import ParseError, QubitCountError
from .zpoly import DiagonalHamiltonian, qubits_of

# gate name -> number of qubit arguments, takes an angle
_GATE_SHAPE = {
    "cx": (2, False),
    "rz": (1, True),
    "h": (1, False),
    "x": (1, False),
    "crz": (2, True),
    "ccrz": (3, True),
}


@dataclass(frozen=True, slots=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.name not in _GATE_SHAPE:
            raise ValueError(f"unknown gate {self.name!r}")
        try:
            qubits = tuple(self.qubits)
        except TypeError:
            raise ValueError(f"{self.name} qubits must be a sequence, got {self.qubits!r}") from None
        if any(type(q) is not int for q in qubits):  # not isinstance: bool is an int
            raise ValueError(f"{self.name} qubit indices must be integers: {qubits}")
        object.__setattr__(self, "qubits", qubits)
        arity, takes_angle = _GATE_SHAPE[self.name]
        if len(self.qubits) != arity:
            raise ValueError(f"{self.name} takes {arity} qubits, got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.name} qubits must be distinct: {self.qubits}")
        if any(q < 1 for q in self.qubits):
            raise QubitCountError(f"qubit indices are 1-based: {self.qubits}")
        if takes_angle:
            _require_finite(self.angle, f"{self.name} needs a finite angle")
        elif self.angle is not None:
            raise ValueError(f"{self.name} takes no angle")


def _require_finite(value, message: str) -> None:
    """ValueError "<message>, got <value>" unless value is a finite real number."""
    try:
        finite = math.isfinite(value)
    except TypeError:  # None, a string, a complex number
        finite = False
    if not finite:
        raise ValueError(f"{message}, got {value}")


def cx(control: int, target: int) -> Gate:
    return Gate("cx", (control, target))


def rz(qubit: int, angle: float) -> Gate:
    return Gate("rz", (qubit,), angle)


def h(qubit: int) -> Gate:
    return Gate("h", (qubit,))


def x(qubit: int) -> Gate:
    return Gate("x", (qubit,))


def crz(control: int, qubit: int, angle: float) -> Gate:
    return Gate("crz", (control, qubit), angle)


def ccrz(control1: int, control2: int, qubit: int, angle: float) -> Gate:
    return Gate("ccrz", (control1, control2, qubit), angle)


@dataclass(frozen=True, slots=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...] = field(default=())
    global_phase: float = 0.0

    def __post_init__(self):
        if type(self.n_qubits) is not int or self.n_qubits < 0:
            raise ValueError(f"qubit count must be a non-negative integer, got {self.n_qubits!r}")
        _require_finite(self.global_phase, "global phase must be finite")
        object.__setattr__(self, "gates", tuple(self.gates))
        _require_in_register(self.n_qubits, self.gates)

    def gate_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for g in self.gates:
            counts[g.name] = counts.get(g.name, 0) + 1
        return counts

    @property
    def cnot_count(self) -> int:
        return self.gate_counts().get("cx", 0)

    @property
    def rz_count(self) -> int:
        return self.gate_counts().get("rz", 0)

    def __len__(self) -> int:
        return len(self.gates)


def _require_in_register(n_qubits: int, gates) -> None:
    for g in gates:
        if max(g.qubits) > n_qubits:
            raise QubitCountError(
                f"gate {g.name} touches qubit {max(g.qubits)} on a {n_qubits}-qubit circuit"
            )


# -- trusted construction ----------------------------------------------------
# For gates and circuits that are valid by construction: the fields are set
# through the slot descriptors, skipping __post_init__.

_set_name, _set_qubits, _set_angle = (Gate.name.__set__, Gate.qubits.__set__, Gate.angle.__set__)
_set_n, _set_gates, _set_phase = (
    Circuit.n_qubits.__set__, Circuit.gates.__set__, Circuit.global_phase.__set__
)


def _gate(name: str, qubits: tuple[int, ...], angle: float | None = None) -> Gate:
    g = object.__new__(Gate)
    _set_name(g, name)
    _set_qubits(g, qubits)
    _set_angle(g, angle)
    return g


def _rotation(name: str, qubits: tuple[int, ...], angle: float) -> Gate:
    _require_finite(angle, f"{name} needs a finite angle")
    return _gate(name, qubits, angle)


def _circuit(n_qubits: int, gates, global_phase: float) -> Circuit:
    """A Circuit whose gates are known to lie inside the register."""
    c = object.__new__(Circuit)
    _set_n(c, n_qubits)
    _set_gates(c, tuple(gates))
    _set_phase(c, global_phase)
    return c


class _CxGates(dict):
    """(control, target) -> its CX gate, made on first use; one per emitter call."""

    def __missing__(self, pair: tuple[int, int]) -> Gate:
        g = self[pair] = _gate("cx", pair)
        return g


# -- emitters ------------------------------------------------------------


def _ladder_term(gates: list[Gate], cxs: _CxGates, qubits: tuple[int, ...], rotation: Gate) -> None:
    """CNOT ladder down the term, the rotation on its largest qubit, reverse ladder."""
    ladder = list(map(cxs.__getitem__, zip(qubits, qubits[1:])))
    gates.extend(ladder)
    gates.append(rotation)
    gates.extend(reversed(ladder))  # gates are immutable, so every use shares one object


def emit_evolution(ham: DiagonalHamiltonian, gamma: float) -> Circuit:
    """Circuit for exp(-i gamma H) from a diagonal Z-polynomial.

    Exact as an operator (global phase included).  Per term: identity ->
    phase shift, otherwise a CNOT ladder + RZ (a bare RZ for one qubit).
    """
    gates: list[Gate] = []
    cxs = _CxGates()
    phase = 0.0
    for mask, w in ham.items():
        if mask == 0:
            phase -= gamma * w
            continue
        qs = qubits_of(mask)
        _ladder_term(gates, cxs, qs, _rotation("rz", qs[-1:], 2.0 * gamma * w))
    _require_finite(phase, "global phase must be finite")  # gamma * w can pass the float range
    return _circuit(ham.n_qubits, gates, phase)


def emit_qubo_evolution(q: QuboInstance, t: float) -> Circuit:
    """Phase-separation circuit exp(-i t H) for a QUBO instance.

    The compiled operator has degree <= 2, so the circuit uses at most n
    single-qubit rotations and n(n-1)/2 two-qubit rotation blocks.
    """
    return emit_evolution(compile_qubo(q), t)


def evolution_term_profile(ham: DiagonalHamiltonian) -> dict[int, int]:
    """Number of terms per locality; key 1 counts bare RZs, key 2 ZZ blocks."""
    profile: dict[int, int] = {}
    for mask, _ in ham.items():
        k = mask.bit_count()
        profile[k] = profile.get(k, 0) + 1
    return profile


def emit_controlled_evolution(
    f: BoolExpr,
    ham: DiagonalHamiltonian,
    t: float,
    n_ctrl: int | None = None,
) -> Circuit:
    """Circuit for the f-controlled evolution Lambda_f(exp(-i t H)).

    The control register occupies qubits 1..k, the data register the next
    n qubits; the operator equals exp(-i t (H_f tensor H)).  n_ctrl
    defaults to the largest variable used by f (constants need it given
    explicitly when a nonempty control register is wanted).
    """
    hf = compile_expr(f, register_size(f, n_ctrl))
    return emit_evolution(hf.tensor(ham), t)


def emit_bit_query(f: BoolExpr, n: int | None = None) -> Circuit:
    """Circuit computing f into an ancilla: |x>|a> -> |x>|a + f(x) mod 2>.

    Single-bit phase estimation: an H on the ancilla (qubit n+1), the
    ancilla-controlled phase query exp(-i pi x_a H_f) realized term by term
    as CRZ-terminated ladders, and a closing H.  Exact including phase;
    f = x1 reduces to CNOT and f = x1 & x2 to the Toffoli gate.
    """
    n = register_size(f, n)
    hf = compile_expr(f, n)
    ancilla = n + 1
    hadamard = _gate("h", (ancilla,))
    gates: list[Gate] = [hadamard]
    cxs = _CxGates()
    phase = 0.0
    for mask, w in hf.items():
        if mask == 0:
            # exp(-i pi w x_a) = e^(-i pi w / 2) RZ_a(-pi w)
            gates.append(_rotation("rz", (ancilla,), -math.pi * w))
            phase -= math.pi * w / 2.0
            continue
        qs = qubits_of(mask)
        _ladder_term(gates, cxs, qs, _rotation("crz", (ancilla, qs[-1]), 2.0 * math.pi * w))
    gates.append(hadamard)
    return _circuit(ancilla, gates, phase)


# -- lowering -------------------------------------------------------------


def _lowered(gates, cxs: _CxGates) -> Iterator[Gate]:
    for g in gates:
        if g.name == "crz":
            ctrl, tgt = g.qubits
            half = g.angle / 2.0
            cnot = cxs[ctrl, tgt]
            yield from (
                _rotation("rz", (tgt,), half), cnot, _rotation("rz", (tgt,), -half), cnot
            )
        elif g.name == "ccrz":
            c1, c2, tgt = g.qubits
            half = g.angle / 2.0
            cnot = cxs[c1, c2]
            yield from _lowered((
                _rotation("crz", (c2, tgt), half),
                cnot,
                _rotation("crz", (c2, tgt), -half),
                cnot,
                _rotation("crz", (c1, tgt), half),
            ), cxs)
        else:
            yield g


def lower_basic(c: Circuit) -> Circuit:
    """Rewrite CRZ/CCRZ into CNOT + RZ (exact, no phase corrections needed)."""
    return _circuit(c.n_qubits, _lowered(c.gates, _CxGates()), c.global_phase)


# -- text serialization ----------------------------------------------------


def _format_angle(a: float) -> str:
    # shortest of 15/16/17 significant digits that parses back exactly,
    # so serialize -> parse is lossless
    for precision in (15, 16, 17):
        text = f"{a:.{precision}g}"
        if float(text) == a:
            return text
    return repr(a)


def serialize(c: Circuit) -> str:
    """Line-oriented text form: 'qubits N', 'phase <radians>', one gate per line."""
    lines = [f"qubits {c.n_qubits}", f"phase {_format_angle(c.global_phase)}"]
    text_of: dict[int, str] = {}  # id of a gate object -> its line; c keeps every gate alive
    for g in c.gates:
        line = text_of.get(id(g))
        if line is None:
            parts = [g.name, *map(str, g.qubits)]
            if g.angle is not None:
                parts.append(_format_angle(g.angle))
            line = text_of[id(g)] = " ".join(parts)
        lines.append(line)
    return "\n".join(lines) + "\n"


def _line_error(text: str, line: str, message: str) -> ParseError:
    # only the first copy of a stripped line can fail: a copy before it fails first
    lineno = next(i for i, raw in enumerate(text.splitlines(), start=1) if raw.strip() == line)
    return ParseError(f"line {lineno}: {message}: {line!r}")


def parse_circuit(text: str) -> Circuit:
    """Read serialize() output back; a malformed line is a ParseError naming it."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not text.isascii() or "_" in text:  # int() and float() read "1_0" and non-ASCII digits
        for bad in (ln for ln in lines if not ln.isascii() or "_" in ln):
            raise _line_error(text, bad, "numbers must be plain ASCII digits")
    if not lines or not lines[0].startswith("qubits "):
        raise ParseError("circuit text must start with a 'qubits N' line")
    header, body = lines[0], lines[1:]
    try:
        _, count = header.split()
        n = int(count)
    except ValueError as exc:
        raise _line_error(text, header, "bad qubits line") from exc
    if n < 0:
        raise _line_error(text, header, "negative qubit count")
    phase = 0.0
    if body and body[0].startswith("phase "):
        try:
            _, value = body[0].split()
            phase = float(value)
        except ValueError as exc:
            raise _line_error(text, body[0], "bad phase line") from exc
        if not math.isfinite(phase):
            raise _line_error(text, body[0], "phase must be finite")
        body = body[1:]
    parsed: dict[str, Gate] = {}  # one checked gate per distinct line, in first-seen order
    for ln in body:
        if ln not in parsed:
            parsed[ln] = _parse_gate(text, ln)
    try:
        _require_in_register(n, parsed.values())
    except QubitCountError as exc:  # a gate above the register
        bad = next(ln for ln, g in parsed.items() if max(g.qubits) > n)
        raise _line_error(text, bad, str(exc)) from exc
    return _circuit(n, map(parsed.__getitem__, body), phase)


def _parse_gate(text: str, ln: str) -> Gate:
    fields = ln.split()
    if fields[0] not in _GATE_SHAPE:
        raise _line_error(text, ln, "unknown gate")
    arity, takes_angle = _GATE_SHAPE[fields[0]]
    if len(fields) != 1 + arity + takes_angle:
        raise _line_error(text, ln, "wrong number of fields")
    try:
        qubits = tuple(map(int, fields[1 : 1 + arity]))
        return Gate(fields[0], qubits, float(fields[-1]) if takes_angle else None)
    except ValueError as exc:  # bad numbers, repeated qubits, non-finite angles
        raise _line_error(text, ln, str(exc)) from exc
