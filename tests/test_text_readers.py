"""The direct readers of circuit lines and Z labels agree with the generic
readers they stand in front of (kept in conftest): on random lines and
labels, each gives the same Gate or term masks, or the same error text.
Likewise serialize and its angle formatter write what the 15/16/17-digit
search of the reference writes."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolham.circuits import (
    _GATE_SHAPE,
    Circuit,
    Gate,
    _format_angle,
    emit_evolution,
    parse_circuit,
    serialize,
)
from boolham.errors import BoolhamError, ParseError
from boolham.zpoly import (
    MAX_QUBITS,
    DiagonalHamiltonian,
    _z_label_mask,
    parse_pauli_label,
    qubits_of,
    term_label,
)
from conftest import (
    random_zham,
    reference_format_angle,
    reference_parse_circuit,
    reference_parse_pauli_label,
    reference_serialize,
)

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=400)


def outcome(read, *args):
    """What a reader gives: its result, or the type and text of its error."""
    try:
        return "ok", read(*args)
    except (BoolhamError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def gate_fields(g: Gate):
    # the angle by its bits: 0.0 == -0.0
    return g.name, g.qubits, None if g.angle is None else g.angle.hex()


def circuit_outcome(read, text: str):
    kind, value = outcome(read, text)
    if kind != "ok":
        return kind, value
    return kind, (value.n_qubits, value.global_phase.hex(), [gate_fields(g) for g in value.gates])


# -- circuit lines -----------------------------------------------------------

SPACES = st.sampled_from([" ", " ", " ", "  ", "\t", "\x1f", "\u2003", "\xa0"])
INTS = st.one_of(
    st.integers(1, 3).map(str),  # on every register but the smallest
    st.integers(-3, 7).map(str),
    st.sampled_from(["01", "007", "+2", "-0", "+0", "1.0", "1e0", "0x1", "1_0", "", "\u0661",
                     "9" * 30, "9" * 4301]),
)
ANGLES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-inf", "+inf", "1e400", "-1e400", "1e-400", "+1.5", ".5", "5.",
                     "0x10", "1_0.5", "1,5", "\u0661", "infinity", "NaN"]),
)
NAMES = st.sampled_from([*_GATE_SHAPE, "cz", "CX", "rzz", "#cx"])


@st.composite
def gate_lines(draw):
    name = draw(NAMES)
    arity, takes_angle = _GATE_SHAPE.get(name, (2, False))
    k = arity + takes_angle + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    fields = [name] + [draw(ANGLES if takes_angle and i == k - 1 else INTS) for i in range(max(k, 0))]
    line = fields[0]
    for f in fields[1:]:
        line += draw(SPACES) + f
    return draw(st.sampled_from(["", " ", "\t"])) + line


def circuit_text(n: int, lines) -> str:
    return "\n".join([f"qubits {n}", "phase 0.25", *lines]) + "\n"


@PROPERTY
@given(st.integers(0, 5), st.lists(gate_lines(), min_size=1, max_size=6))
def test_random_lines_read_as_the_generic_reader_reads_them(n, lines):
    text = circuit_text(n, lines)
    assert circuit_outcome(parse_circuit, text) == circuit_outcome(reference_parse_circuit, text)


@PROPERTY
@given(st.integers(1, 4), st.lists(gate_lines(), min_size=1, max_size=4), st.data())
def test_the_first_faulty_line_is_named(n, lines, data):
    # a faulty line after a run of valid, repeated ones
    good = [f"cx 1 {n + 1}", f"rz {n + 1} 0.5", f"cx 1 {n + 1}", f"h {n + 1}"]
    body = data.draw(st.permutations(good + lines))
    text = circuit_text(n + 1, body)
    assert circuit_outcome(parse_circuit, text) == circuit_outcome(reference_parse_circuit, text)


@pytest.mark.parametrize(
    "line, message",
    [
        ("cx 1 1", "cx qubits must be distinct"),
        ("cx 1 4", "gate cx touches qubit 4 on a 3-qubit circuit"),
        ("cx 0 2", "qubit indices are 1-based"),
        ("rz 1 nan", "rz needs a finite angle, got nan"),
        ("rz 1 1e400", "rz needs a finite angle, got inf"),
        ("crz 1 2 -inf", "crz needs a finite angle, got -inf"),
        ("ccrz 1 2 3 nan", "ccrz needs a finite angle, got nan"),
        ("ccrz 1 2 1 0.5", "ccrz qubits must be distinct"),
        ("crz 1 2", "wrong number of fields"),
        ("x 1 2", "wrong number of fields"),
        ("h +x", "invalid literal for int()"),
    ],
)
def test_each_rule_keeps_its_message(line, message):
    text = circuit_text(3, ["cx 1 2", "rz 3 0.5", line, "h 1"])
    with pytest.raises(ParseError, match=f"^line 5: {message}") as err:
        parse_circuit(text)
    assert str(err.value) == str(outcome(reference_parse_circuit, text)[1])


def test_signs_and_leading_zeros_read_as_int_and_float_read_them():
    c = parse_circuit(circuit_text(3, ["cx +01 003", "rz 2 -0", "crz 3 1 +1.5e0", "ccrz 1 2 3 .5"]))
    assert [gate_fields(g) for g in c.gates] == [
        ("cx", (1, 3), None),
        ("rz", (2,), (-0.0).hex()),
        ("crz", (3, 1), (1.5).hex()),
        ("ccrz", (1, 2, 3), (0.5).hex()),
    ]


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.floats(-4.0, 4.0, allow_nan=False))
def test_emitted_circuits_round_trip(seed, n, gamma):
    c = emit_evolution(random_zham(np.random.default_rng(seed), n, 40), gamma)
    text = serialize(c)
    assert parse_circuit(text) == c == reference_parse_circuit(text)
    assert serialize(parse_circuit(text)) == text


@pytest.mark.parametrize(
    "text, message",
    [
        ("qubits 1\nqubits 1\n", "line 2: unknown gate: 'qubits 1'"),
        ("qubits 2\nphase 0.5\nphase 0.5\n", "line 3: unknown gate: 'phase 0.5'"),
        ("qubits 1\nphase 0\nx 1\nqubits 1\n", "line 4: unknown gate: 'qubits 1'"),
        ("# c\n qubits 1\n\n#qubits 1\nqubits 1\n", "line 5: unknown gate: 'qubits 1'"),
    ],
    ids=["header-repeated", "phase-repeated", "header-after-a-gate", "around-comments"],
)
def test_a_gate_line_that_repeats_a_header_line_is_named_at_its_own_line(text, message):
    with pytest.raises(ParseError) as err:
        parse_circuit(text)
    assert str(err.value) == message == str(outcome(reference_parse_circuit, text)[1])


@pytest.mark.parametrize(
    "text, n, phase",
    [
        ("qubits\t2\nphase 0.5\nh 2\n", 2, 0.5),
        ("qubits 2\nphase\t0.5\nh 2\n", 2, 0.5),
        ("qubits  2\nphase \t -0.5\nh 2\n", 2, -0.5),
        ("qubits\x1f2\nh 2\n", 2, 0.0),
    ],
    ids=["tab-after-qubits", "tab-after-phase", "runs-of-spaces", "unit-separator"],
)
def test_header_lines_split_at_whitespace_as_gate_lines_do(text, n, phase):
    c = parse_circuit(text)
    assert (c.n_qubits, c.global_phase, c.gates) == (n, phase, (Gate("h", (2,)),))
    assert circuit_outcome(parse_circuit, text) == circuit_outcome(reference_parse_circuit, text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("qubits\n", "line 1: bad qubits line: 'qubits'"),
        ("qubits 1\nphase\n", "line 2: bad phase line: 'phase'"),
        ("qubitsx 1\n", "circuit text must start with a 'qubits N' line"),
        ("qubits 1\nphasex 1\n", "line 2: unknown gate: 'phasex 1'"),
    ],
)
def test_a_header_line_is_known_by_its_first_field(text, message):
    assert outcome(parse_circuit, text) == ("ParseError", message)
    assert outcome(reference_parse_circuit, text) == ("ParseError", message)


# -- qubit tokens --------------------------------------------------------------


@pytest.mark.parametrize(
    "line",
    ["cx +01 2", "cx 01 2", "rz 007 0.5", "crz +3 1 0.5", "ccrz 1 2 03 -1", "h 0", "h -0",
     "h 00", "x +0", "h -1", "cx 1 4", "rz 4 0.5", "ccrz 1 2 4 0.5", "x 9999", "h " + "9" * 4301,
     "cx 3 +3", "cx 03 3", "h 1.0", "h 0x1"],
)
def test_non_canonical_and_outside_tokens_read_as_the_generic_reader_reads_them(line):
    text = circuit_text(3, ["cx 1 2", line, "h 3"])
    assert circuit_outcome(parse_circuit, text) == circuit_outcome(reference_parse_circuit, text)


def test_the_token_table_is_not_sized_by_the_register():
    text = "qubits 1000000000\nphase 0\ncx 1 999999999\nrz 1000000000 0.5\nh 1\n"
    parse_circuit(text)  # warm
    tracemalloc.start()
    try:
        c = parse_circuit(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert c.n_qubits == 10**9 and len(c.gates) == 3
    assert peak < 1 << 20


# -- angle text ----------------------------------------------------------------


def edge_angles() -> list[float]:
    """Where the 15/16/17-digit search and repr could part: signed zeros,
    every +-2^k and its neighbours, integers, the 1e15 boundary, the edge of
    repr's exponent form, and subnormals."""
    values = [0.0, -0.0, 999999999999999.9, 1e15, 1e16, 1e-4, 1e-5, 5e-324, 2.2250738585072014e-308,
              2.225073858507201e-308, 1e-310, 123456789012345.25, 0.1, 1 / 3, math.pi]
    for k in range(-1074, 1024):
        p = 2.0**k
        values += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    for exp in range(17):
        values += [float(10**exp), float(10**exp - 1), float(10**exp + 1)]
    values += [float(i) for i in range(-1000, 1001)]
    finite = [v for v in values if math.isfinite(v)]
    return finite + [-v for v in finite]


def test_edge_angles_format_as_the_digit_search_formats_them():
    mismatched = [a for a in edge_angles() if _format_angle(a) != reference_format_angle(a)]
    assert mismatched == []


@PROPERTY
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_angles_format_as_the_digit_search_formats_them(a):
    assert _format_angle(a) == reference_format_angle(a)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def shared_gate_circuits(draw):
    """A circuit drawn from a pool of gate objects, each used any number of
    times; its angles come from a pool of floats that holds 0.0 and -0.0."""
    n = draw(st.integers(3, 6))
    qubit = st.integers(1, n)
    angles = draw(st.lists(FINITE, max_size=4)) + [0.0, -0.0]
    pool = []
    for name in draw(st.lists(st.sampled_from(sorted(_GATE_SHAPE)), min_size=1, max_size=8)):
        arity, takes_angle = _GATE_SHAPE[name]
        qubits = draw(st.lists(qubit, min_size=arity, max_size=arity, unique=True))
        pool.append(Gate(name, tuple(qubits), draw(st.sampled_from(angles)) if takes_angle else None))
    order = draw(st.lists(st.integers(0, len(pool) - 1), max_size=30))
    return Circuit(n, [pool[i] for i in order], draw(FINITE))


@PROPERTY
@given(shared_gate_circuits())
def test_serialize_writes_what_the_reference_writes(c):
    assert serialize(c) == reference_serialize(c)


def test_a_zero_angle_keeps_its_sign():
    # gamma 0 makes each term's angle 2 * 0.0 * w: -0.0 where w < 0
    c = emit_evolution(DiagonalHamiltonian(3, {0b001: 1.5, 0b010: -2.0, 0b110: 0.5, 0b101: -1.0}), 0.0)
    text = serialize(c)
    assert text == reference_serialize(c)
    assert {"rz 1 0", "rz 2 -0", "rz 3 0", "rz 3 -0"} <= set(text.splitlines())
    assert serialize(parse_circuit(text)) == text


# -- Z labels ----------------------------------------------------------------

LETTERS = st.sampled_from(["Z", "Z", "Z", "X", "Y", "I", "z", ""])
QUBITS = st.one_of(
    st.integers(1, 3).map(str),  # repeats
    st.integers(0, 66).map(str),
    st.sampled_from(["01", "003", "+1", "-1", "", "\u0661", "9" * 30, "1_0"]),
)
LABEL_SPACES = st.sampled_from([" ", " ", " ", "", "  ", "\t", "\x1c", "\u2003", "\xa0"])


@st.composite
def labels(draw):
    atoms = draw(st.lists(st.tuples(LETTERS, QUBITS).map("".join), max_size=5))
    label = ""
    for i, atom in enumerate(atoms):
        label += (draw(LABEL_SPACES) if i else "") + atom
    return draw(st.sampled_from(["", "", " ", "\t"])) + label + draw(st.sampled_from(["", "", " "]))


def reference_z_mask(label, n: int) -> int:
    x_mask, z_mask = reference_parse_pauli_label(label, n)
    if x_mask:
        raise ParseError(f"diagonal term label may hold only Z, got {label!r}")
    return z_mask


def json_mask(label, n: int) -> int:
    h = DiagonalHamiltonian.from_json_dict({"n": n, "terms": [{"paulis": label, "coeff": 1.5}]})
    (mask, coeff), = h.items()
    return mask


@PROPERTY
@given(labels(), st.integers(0, MAX_QUBITS))
def test_random_labels_read_as_the_regex_reader_reads_them(label, n):
    assert outcome(parse_pauli_label, label, n) == outcome(reference_parse_pauli_label, label, n)
    assert outcome(json_mask, label, n) == outcome(reference_z_mask, label, n)


@pytest.mark.parametrize(
    "label", ["Z1\u2003Z3", "Z1\xa0Z3", "Z\u0661", None, 3, ["Z1"], b"Z1"],
    ids=["em-space", "nbsp", "arabic-digit", "none", "int", "list", "bytes"],
)
def test_non_ascii_and_non_string_labels_are_rejected(label):
    assert _z_label_mask(label, 3) is None
    kind, message = outcome(parse_pauli_label, label, 3)
    assert (kind, message) == outcome(reference_parse_pauli_label, label, 3)
    assert kind == "ParseError" and message.startswith("Pauli label must be an ASCII string")


@pytest.mark.parametrize(
    "label, masks",
    [("Z1 Z3", (0, 5)), ("X1Z3", (1, 4)), ("Z01", (0, 1)), ("  Z2\tZ3 ", (0, 6)), ("I", (0, 0)),
     ("", (0, 0)), ("Y2 Z1", (2, 3))],
)
def test_other_accepted_spellings_still_read(label, masks):
    assert parse_pauli_label(label, 3) == masks == reference_parse_pauli_label(label, 3)


@PROPERTY
@given(st.integers(0, 2**MAX_QUBITS - 1), st.sampled_from(["", " "]))
def test_term_label_spells_each_qubit_once_in_order(mask, sep):
    label = term_label(mask, sep)
    assert label == (sep.join(f"Z{j}" for j in qubits_of(mask)) if mask else "I")
    if sep and mask:
        assert _z_label_mask(label, MAX_QUBITS) == mask
        assert _z_label_mask(label, mask.bit_length() - 1) is None  # its top qubit is off the register


def test_every_qubit_has_a_name():
    assert term_label(2**MAX_QUBITS - 1, " ").split() == [f"Z{j}" for j in range(1, MAX_QUBITS + 1)]
    assert term_label(1 << 62) == "Z63"
