"""The direct readers of circuit lines and Z labels agree with the generic
readers they stand in front of (kept in conftest): on random lines and
labels, each gives the same Gate or term masks, or the same error text."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolham.circuits import _GATE_SHAPE, Gate, emit_evolution, parse_circuit, serialize
from boolham.errors import BoolhamError, ParseError
from boolham.zpoly import (
    MAX_QUBITS,
    DiagonalHamiltonian,
    _z_label_mask,
    parse_pauli_label,
    qubits_of,
    term_label,
)
from conftest import random_zham, reference_parse_circuit, reference_parse_pauli_label

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
