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
that emit_evolution's gamma, each rotation angle and its global phase are finite.
Within one call they make each distinct CX gate once and share it across
every ladder, grow each term's ladder from the ladder of its prefix (the
term without its largest qubit), so a ladder costs one new CX, and make one
rotation per distinct (largest qubit, coefficient), shared by every term
that has both.  serialize writes the line of each distinct gate object
once, by a writer for its shape, and formats each distinct angle once per
call, from one repr where that gives the text the 15/16/17-digit search
would (_format_angle).

parse_circuit reads text that is ASCII and has no "_" (int() and float()
read digit grouping and other scripts' digits).  Every line is split at
whitespace into its name and fields; the header lines are the first one,
named "qubits", and the next if it is named "phase".  A qubit is what
int() reads, signs and leading zeros included ("+01"); an angle is what
float() reads ("-0", ".5", "1e-3"), but a NaN or infinite one ("nan",
"inf", "1e400") is rejected.  Each distinct line is read once, by the
reader for its gate's shape, which reads canonical qubit tokens ("1" to
"N") through a table of the tokens seen in the call, converts the angle by
float() and tests the rules inline; a line it does not accept, a
non-canonical qubit token included, goes to _parse_gate, which reads it or
words the ParseError, so the first faulty line is the one named.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

from .boolexpr import BoolExpr
from .compiler import QuboInstance, compile_expr, compile_qubo
from .errors import ParseError, QubitCountError
from .zpoly import DiagonalHamiltonian, is_finite_real

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
        _check_shape(self.name, qubits, self.angle)


def _check_shape(name: str, qubits: tuple[int, ...], angle) -> None:
    """The rules for a known gate name and a tuple of integer qubits: its
    arity, distinct 1-based qubits, and a finite angle or none."""
    arity, takes_angle = _GATE_SHAPE[name]
    if len(qubits) != arity:
        raise ValueError(f"{name} takes {arity} qubits, got {qubits}")
    if len(set(qubits)) != arity:
        raise ValueError(f"{name} qubits must be distinct: {qubits}")
    if min(qubits) < 1:
        raise QubitCountError(f"qubit indices are 1-based: {qubits}")
    if takes_angle:
        _require_finite(angle, f"{name} needs a finite angle")
    elif angle is not None:
        raise ValueError(f"{name} takes no angle")


def _require_finite(value, message: str) -> None:
    """ValueError "<message>, got <value>" unless value is a finite real number."""
    if not is_finite_real(value):
        raise ValueError(f"{message}, got {value!r}")


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
            raise QubitCountError(_outside_message(g.name, g.qubits, n_qubits))


def _outside_message(name: str, qubits: tuple[int, ...], n_qubits: int) -> str:
    return f"gate {name} touches qubit {max(qubits)} on a {n_qubits}-qubit circuit"


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
    if not math.isfinite(angle):  # a float product of checked numbers: only its range can fail
        raise ValueError(f"{name} needs a finite angle, got {angle!r}")
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


def _ladder(ladders: dict, cxs: _CxGates, mask: int) -> tuple[Gate, ...]:
    """The CX ladder down mask's qubits, stored in ``ladders``: its prefix's
    ladder (the mask without its largest qubit, made first if missing) plus one CX."""
    top = mask.bit_length()
    prefix = mask ^ (1 << (top - 1))
    ladder = ladders.get(prefix)
    if ladder is None:
        ladder = _ladder(ladders, cxs, prefix)
    if prefix:
        ladder += (cxs[prefix.bit_length(), top],)
    ladders[mask] = ladder
    return ladder


def _append_terms(gates: list[Gate], ham: DiagonalHamiltonian, rotation) -> None:
    """Append, per term of ham but the identity and in mask order, the CX ladder
    down its qubits, ``rotation(top, w)`` on its largest qubit ``top`` and the
    reversed ladder.  Gates are immutable, so every use shares one object: one
    CX per (control, target) and one rotation per (top, w), made on first use;
    the key is the coefficient, not the angle, since 0.0 == -0.0."""
    cxs = _CxGates()
    ladders: dict[int, tuple[Gate, ...]] = {0: ()}  # mask -> its ladder
    rotations: dict[tuple[int, float], Gate] = {}
    terms = ham.items()
    if ham.identity_coeff:  # stored coefficients are nonzero; mask 0 comes first
        next(terms)
    for mask, w in terms:
        top = mask.bit_length()
        prefix = mask ^ (1 << (top - 1))
        # in mask order the prefix's ladder is usually made already
        ladder = ladders.get(prefix)
        if ladder is None:
            ladder = _ladder(ladders, cxs, prefix)
        if prefix:
            ladder += (cxs[prefix.bit_length(), top],)
        ladders[mask] = ladder
        r = rotations.get((top, w))
        if r is None:
            r = rotations[top, w] = rotation(top, w)
        gates += ladder
        gates.append(r)
        gates += ladder[::-1]


# -- emitters ------------------------------------------------------------


def emit_evolution(ham: DiagonalHamiltonian, gamma: float) -> Circuit:
    """Circuit for exp(-i gamma H) from a diagonal Z-polynomial.

    Exact as an operator (global phase included).  Per term: identity ->
    phase shift, otherwise a CNOT ladder + RZ (a bare RZ for one qubit).
    Terms with the same largest qubit and coefficient share one RZ object.
    """
    _require_finite(gamma, "gamma must be a finite real number")
    phase = 0.0 - gamma * ham.identity_coeff  # 0.0 - x, never -0.0
    gates: list[Gate] = []
    _append_terms(gates, ham, lambda top, w: _rotation("rz", (top,), 2.0 * gamma * w))
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
    hf = compile_expr(f, n_ctrl)
    return emit_evolution(hf.tensor(ham), t)


def emit_bit_query(f: BoolExpr, n: int | None = None) -> Circuit:
    """Circuit computing f into an ancilla: |x>|a> -> |x>|a + f(x) mod 2>.

    Single-bit phase estimation: an H on the ancilla (qubit n+1), the
    ancilla-controlled phase query exp(-i pi x_a H_f) realized term by term
    as CRZ-terminated ladders, and a closing H.  Exact including phase;
    f = x1 reduces to CNOT and f = x1 & x2 to the Toffoli gate.  The
    circuit depends on f only through H_f (``_bit_query``).
    """
    return _bit_query(compile_expr(f, n))


def _bit_query(hf: DiagonalHamiltonian) -> Circuit:
    """G_f = H_a Lambda_{x_a}(e^{-i pi H_f}) H_a, the ancilla a one qubit above
    H_f's register."""
    ancilla = hf.n_qubits + 1
    hadamard = _gate("h", (ancilla,))
    gates: list[Gate] = [hadamard]
    phase = 0.0
    w0 = hf.identity_coeff
    if w0:  # exp(-i pi w0 x_a) = e^(-i pi w0 / 2) RZ_a(-pi w0)
        gates.append(_rotation("rz", (ancilla,), -math.pi * w0))
        phase -= math.pi * w0 / 2.0
    _append_terms(
        gates, hf, lambda top, w: _rotation("crz", (ancilla, top), 2.0 * math.pi * w)
    )
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


def _format_angle_loop(a: float) -> str:
    # shortest of 15/16/17 significant digits that parses back exactly,
    # so serialize -> parse is lossless
    for precision in (15, 16, 17):
        text = f"{a:.{precision}g}"
        if float(text) == a:
            return text
    return repr(a)


def _format_angle(a: float) -> str:
    """_format_angle_loop's text, read off repr(a) where that is the same text.

    repr is the shortest text that parses back to a, and of those the
    nearest to a.  With p <= 15 significant digits, rounding a to 15 digits
    gives those digits, as each 15-digit decimal has a double of its own.
    With p = 16 or 17, no shorter form parses back, and the nearest 16- or
    17-digit decimal does, so it is repr's; that takes a rounding interval
    as wide below a as above it, which holds unless a is +-2^k, and those
    in repr's fixed notation below 1e15 (2^-13 to 2^49) have p <= 15.  In
    that notation %g writes the digits as repr does, less repr's trailing
    ".0"; every other form goes to the loop.
    """
    text = repr(a)
    if type(a) is not float or "e" in text or not -1e15 < a < 1e15:
        return _format_angle_loop(a)
    return text[:-2] if text.endswith(".0") else text


class _AngleText(dict):
    """angle -> its text, formatted on first use; one per serialize call.  A
    zero is not stored, as 0.0 == -0.0 would share its key: each is formatted."""

    def __missing__(self, a) -> str:
        text = _format_angle(a)
        if a:
            self[a] = text
        return text


# one writer per gate shape: a gate's line, its angle's text from ``angles``


def _write_q(g: Gate, angles: _AngleText) -> str:
    return f"{g.name} {g.qubits[0]}\n"


def _write_q_angle(g: Gate, angles: _AngleText) -> str:
    return f"{g.name} {g.qubits[0]} {angles[g.angle]}\n"


def _write_qq(g: Gate, angles: _AngleText) -> str:
    a, b = g.qubits
    return f"{g.name} {a} {b}\n"


def _write_qq_angle(g: Gate, angles: _AngleText) -> str:
    a, b = g.qubits
    return f"{g.name} {a} {b} {angles[g.angle]}\n"


def _write_qqq_angle(g: Gate, angles: _AngleText) -> str:
    a, b, c = g.qubits
    return f"{g.name} {a} {b} {c} {angles[g.angle]}\n"


_WRITE_SHAPE = {
    (1, False): _write_q,
    (1, True): _write_q_angle,
    (2, False): _write_qq,
    (2, True): _write_qq_angle,
    (3, True): _write_qqq_angle,
}
_WRITERS = {name: _WRITE_SHAPE[shape] for name, shape in _GATE_SHAPE.items()}


def serialize(c: Circuit) -> str:
    """Line-oriented text form: 'qubits N', 'phase <radians>', one gate per line."""
    angles = _AngleText()
    line_of = dict(zip(map(id, c.gates), c.gates))  # id -> distinct gate; c keeps each alive
    for key, g in line_of.items():
        line_of[key] = _WRITERS[g.name](g, angles)
    head = f"qubits {c.n_qubits}\nphase {_format_angle(c.global_phase)}\n"
    return head + "".join(map(line_of.__getitem__, map(id, c.gates)))


def _line_error(text: str, line: str, message: str, start: int = 0) -> ParseError:
    """A ParseError naming the first raw line whose stripped text is ``line``,
    from the ``start``-th line that is neither blank nor a comment: a header
    line from 0, a gate line from the first after the header lines.  Within
    a region only the first copy of a line can fail: a copy before it fails first."""
    numbered = [
        (i, ln) for i, raw in enumerate(text.splitlines(), start=1)
        if (ln := raw.strip()) and ln[0] != "#"
    ]
    lineno = next(i for i, ln in numbered[start:] if ln == line)
    return ParseError(f"line {lineno}: {message}: {line!r}")


def parse_circuit(text: str) -> Circuit:
    """Read serialize() output back; a malformed line is a ParseError naming it."""
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if "#" in text:
        lines = [ln for ln in lines if ln[0] != "#"]
    if not text.isascii() or "_" in text:  # int() and float() read "1_0" and non-ASCII digits
        for bad in (ln for ln in lines if not ln.isascii() or "_" in ln):
            raise _line_error(text, bad, "numbers must be plain ASCII digits")
    header = lines[0].split() if lines else ()  # a header line is known by its first field
    if not header or header[0] != "qubits":
        raise ParseError("circuit text must start with a 'qubits N' line")
    try:
        _, count = header
        n = int(count)
    except ValueError as exc:
        raise _line_error(text, lines[0], "bad qubits line") from exc
    if n < 0:
        raise _line_error(text, lines[0], "negative qubit count")
    phase = 0.0
    start = 1  # the header lines before the first gate line
    if len(lines) > 1 and (fields := lines[1].split())[0] == "phase":
        try:
            _, value = fields
            phase = float(value)
        except ValueError as exc:
            raise _line_error(text, lines[1], "bad phase line", 1) from exc
        if not math.isfinite(phase):
            raise _line_error(text, lines[1], "phase must be finite", 1)
        start = 2
    body = lines[start:]
    qubits = _QubitTokens(n)
    parsed: dict[str, Gate] = dict.fromkeys(body)  # one gate per distinct line, first-seen order
    for ln in parsed:
        fields = ln.split()
        reader = _READERS.get(fields[0])
        try:
            g = reader(fields, qubits) if reader else None
        except ValueError:  # an angle that float() cannot read
            g = None
        parsed[ln] = _parse_gate(text, ln, n, start) if g is None else g
    return _circuit(n, map(parsed.__getitem__, body), phase)


# -- one reader per gate shape -----------------------------------------------
# Each takes the fields of a split line, the gate name first, reads the qubits
# through the call's token table and the angle by float(), and tests the Gate
# rules inline.  It returns None for a line that breaks one, or whose qubit
# token is not canonical, and _parse_gate then reads it or names the fault.


class _QubitTokens(dict):
    """Qubit token -> its qubit, read on first use; one per parse_circuit call.
    A canonical token, "1" to "n" in ASCII digits without a sign or a leading
    zero, reads as its qubit and any other token as 0.  It holds the tokens
    seen, never a table of the register."""

    __slots__ = ("n", "width")

    def __init__(self, n: int):
        super().__init__()
        self.n = n
        self.width = len(str(n))  # a longer token is above n; int() would refuse 4301 digits

    def __missing__(self, token: str) -> int:
        q = 0
        if len(token) <= self.width and token.isdigit() and token[0] != "0":
            q = int(token)
            if q > self.n:
                q = 0
        self[token] = q
        return q


def _read_q(f: list[str], qubits: _QubitTokens) -> Gate | None:
    if len(f) == 2:
        q = qubits[f[1]]
        if q:
            return _gate(f[0], (q,))
    return None


def _read_q_angle(f: list[str], qubits: _QubitTokens) -> Gate | None:
    if len(f) == 3:
        q, angle = qubits[f[1]], float(f[2])
        if q and math.isfinite(angle):
            return _gate(f[0], (q,), angle)
    return None


def _read_qq(f: list[str], qubits: _QubitTokens) -> Gate | None:
    if len(f) == 3:
        a, b = qubits[f[1]], qubits[f[2]]
        if a and b and a != b:
            return _gate(f[0], (a, b))
    return None


def _read_qq_angle(f: list[str], qubits: _QubitTokens) -> Gate | None:
    if len(f) == 4:
        a, b, angle = qubits[f[1]], qubits[f[2]], float(f[3])
        if a and b and a != b and math.isfinite(angle):
            return _gate(f[0], (a, b), angle)
    return None


def _read_qqq_angle(f: list[str], qubits: _QubitTokens) -> Gate | None:
    if len(f) == 5:
        a, b, c, angle = qubits[f[1]], qubits[f[2]], qubits[f[3]], float(f[4])
        if a and b and c and a != b != c != a and math.isfinite(angle):
            return _gate(f[0], (a, b, c), angle)
    return None


_READ_SHAPE = {
    (1, False): _read_q,
    (1, True): _read_q_angle,
    (2, False): _read_qq,
    (2, True): _read_qq_angle,
    (3, True): _read_qqq_angle,
}
_READERS = {name: _READ_SHAPE[shape] for name, shape in _GATE_SHAPE.items()}


def _parse_gate(text: str, ln: str, n_qubits: int, start: int) -> Gate:
    """The gate on one line, checked by the Gate rules and the register bound;
    ``start`` is where _line_error looks for the line."""
    fields = ln.split()
    name = fields[0]
    if name not in _GATE_SHAPE:
        raise _line_error(text, ln, "unknown gate", start)
    arity, takes_angle = _GATE_SHAPE[name]
    if len(fields) != 1 + arity + takes_angle:
        raise _line_error(text, ln, "wrong number of fields", start)
    try:
        qubits = tuple(map(int, fields[1 : 1 + arity]))
        angle = float(fields[-1]) if takes_angle else None
        _check_shape(name, qubits, angle)
    except ValueError as exc:  # bad numbers, repeated qubits, non-finite angles
        raise _line_error(text, ln, str(exc), start) from exc
    if max(qubits) > n_qubits:
        raise _line_error(text, ln, _outside_message(name, qubits, n_qubits), start)
    return _gate(name, qubits, angle)
