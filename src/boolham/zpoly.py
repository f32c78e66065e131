"""Sparse algebra of diagonal Z-polynomials.

A diagonal Hamiltonian is stored as a real-weighted sum of products of
Pauli Z operators.  Each product is identified by a term mask: a machine-word
bit set over qubits, so registers are limited to 63 qubits.

Conventions used throughout the package:

- Qubits are numbered 1..n.  Bit j-1 of a term mask means "Z acts on qubit j".
- The empty mask is the identity term.
- Basis strings are indexed by integers with x_1 the LEAST significant bit.
  The string literal "110" reads left to right as x_1=1, x_2=1, x_3=0 and
  corresponds to the integer index 3.
- eval(x) returns sum_S w_S * (-1)^popcount(S & x), i.e. the represented
  function's value on the basis string x.

Arithmetic applies Z^2 = I (term masks combine by XOR) and prunes
coefficients below PRUNE_EPS after every operation.  All values are
immutable after construction; every operation returns a fresh object.

``PauliSum`` is the shared base of ``DiagonalHamiltonian`` (here, keyed by
term mask) and ``pauli.PauliOperator`` (keyed by Pauli string): it holds
their constructor, sum, difference, scaling, comparison and text/JSON forms
once, and ``_table``, which builds every term table and rejects a non-finite
coefficient (an overflowed sum or product) as a ParseError.

Every JSON document (operator, QUBO, penalty spec, ``fourier`` vector) is
read through ``load_json``, ``json_field``, ``json_list`` and ``json_number``
here: a value of the wrong JSON type is a ParseError, never converted.

Term labels are ASCII.  ``term_label`` spells a mask from a tuple of the
names "Z1".."Z63", and ``parse_pauli_label`` reads that spelling ("Z3 Z17",
atoms separated by any ASCII whitespace) through a table of its atoms.  Any
other label goes through the regex reader, which also accepts atoms run
together ("X1Z3"), leading zeros ("Z01"), X and Y atoms and "I", and words
every ParseError.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
import re
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import CapExceeded, ParseError, QubitCountError

PRUNE_EPS = 1e-12
MAX_QUBITS = 63
TABLE_CAP = 24

BasisInput = Union[int, str, Sequence[int]]

# Pauli letter -> (X bit, Z bit); Y = both
PAULI_LETTERS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def check_register(n_qubits: int) -> None:
    if not 0 <= n_qubits <= MAX_QUBITS:
        raise QubitCountError(f"qubit count {n_qubits} outside [0, {MAX_QUBITS}]")


def qubit_bit(j: int, n_qubits: int) -> int:
    """Mask bit of 1-based qubit j, which must lie in 1..n_qubits."""
    if not 1 <= j <= n_qubits:
        raise QubitCountError(f"qubit index {j} outside 1..{n_qubits}")
    return 1 << (j - 1)


def qubits_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based qubit indices of a term mask."""
    out = []
    while mask:
        low = mask & -mask  # lowest set bit
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


_Z_NAMES = tuple(f"Z{j}" for j in range(1, MAX_QUBITS + 1))  # qubit j at index j - 1
_Z_ATOM_BIT = {name: 1 << j for j, name in enumerate(_Z_NAMES)}


def term_label(mask: int, sep: str = "") -> str:
    """Human-readable label, e.g. mask 0b101 -> 'Z1Z3' (or 'Z1 Z3' with sep=' ')."""
    if mask == 0:
        return "I"
    names = []
    while mask:
        low = mask & -mask  # lowest set bit
        names.append(_Z_NAMES[low.bit_length() - 1])
        mask ^= low
    return sep.join(names)


def _z_label_mask(label, n_qubits: int) -> int | None:
    """The term mask of a label spelled as term_label(mask, " ") spells it
    ("Z3 Z17": atoms "Z<j>", j without leading zeros, each qubit once, all on
    the register, split by whitespace); None for any other label."""
    if type(label) is not str or not label.isascii():  # str.split splits at non-ASCII spaces
        return None
    mask = 0
    for atom in label.split():
        bit = _Z_ATOM_BIT.get(atom, 0)
        if not bit or mask & bit:
            return None
        mask |= bit
    return mask if mask >> n_qubits == 0 else None


# one atom per match: a letter and its qubit digits, or a bad atom, which runs
# from any character to the next letter or space
_PAULI_ATOM = re.compile(r"([XYZ])([0-9]+)(?![^\sXYZ])|(\S[^\sXYZ]*)")


def parse_pauli_label(label: str, n_qubits: int) -> tuple[int, int]:
    """(x_mask, z_mask) of a label like 'X1 Z3' or 'X1Z3'; 'I' is the identity.

    A label in term_label's spelling is read through a table of its atoms;
    every other label (X and Y atoms, atoms run together as 'X1Z3', leading
    zeros as 'Z01', and every faulty label) goes through the regex reader,
    which words each ParseError."""
    z_mask = _z_label_mask(label, n_qubits)
    if z_mask is not None:
        return 0, z_mask
    if not isinstance(label, str) or not label.isascii():  # int() reads other scripts' digits
        raise ParseError(f"Pauli label must be an ASCII string, got {label!r}")
    label = label.strip()
    if label in ("I", ""):
        return 0, 0
    x_mask = z_mask = 0
    for letter, digits, bad in _PAULI_ATOM.findall(label):
        if bad:
            raise ParseError(f"bad Pauli atom {bad!r} in label {label!r}")
        j = int(digits)
        bit = qubit_bit(j, n_qubits)
        if (x_mask | z_mask) & bit:
            raise ParseError(f"qubit {j} appears twice in label {label!r}")
        if letter != "Z":  # X or Y
            x_mask |= bit
        if letter != "X":  # Y or Z
            z_mask |= bit
    return x_mask, z_mask


def load_json(text: str):
    """json.loads, with malformed or too deeply nested text raised as ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("JSON nests too deeply") from exc


def is_finite_real(value) -> bool:
    """A finite ``numbers.Real`` that is not a bool (an int, but not a number
    here).  An int past the float range is not finite."""
    if type(value) is float:  # first: the ABC test costs several times math.isfinite
        return math.isfinite(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def is_finite_number(value) -> bool:
    """``is_finite_real`` extended to the complex numbers."""
    if isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real):
        return cmath.isfinite(value)
    return is_finite_real(value)


def is_integer(value) -> bool:
    """An int or a numpy integer, but not a bool."""
    return type(value) is int or (not isinstance(value, bool) and isinstance(value, numbers.Integral))


def json_number(value, what: str, kind: type = float):
    """A JSON int or float (or float subclass) as ``kind``; any other value
    (a boolean, a quoted number), a NaN/infinite one or a fractional one
    read as an int is a ParseError naming ``what``."""
    if type(value) is kind and (kind is int or math.isfinite(value)):
        return value  # the common case, and never a bool: type(True) is bool
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ParseError(f"{what} must be finite, got {value!r}")
        if kind is int and not value.is_integer():
            raise ParseError(f"{what} must be an integer, got {value!r}")
    elif isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be a number, got {value!r}")
    try:
        return kind(value)
    except OverflowError as exc:  # an int past the float range
        raise ParseError(f"{what} must be finite, got {value!r}") from exc


def json_field(doc, key: str, what: str):
    """doc[key]; a ``doc`` that is not a JSON object holding ``key`` is a
    ParseError naming ``what``."""
    if type(doc) is dict and key in doc:
        return doc[key]
    got = f"the keys {list(doc)}" if type(doc) is dict else type(doc).__name__
    raise ParseError(f"{what} must be an object with a {key!r} field, got {got}")


def json_list(value, what: str, length: int | None = None) -> list:
    """A JSON list (of ``length`` entries, where given), else a ParseError naming ``what``."""
    if type(value) is list and (length is None or len(value) == length):
        return value
    raise ParseError(f"{what} must be a list{f' of {length}' if length else ''}, got {value!r}")


def check_table_cap(n: int) -> None:
    if n > TABLE_CAP:
        raise CapExceeded(f"dense table for n={n} exceeds cap {TABLE_CAP}")


def basis_index(x: BasisInput, n_qubits: int) -> int:
    """Convert a basis-string argument into an integer index (x_1 = LSB).

    Accepts an int in [0, 2^n), a string like "110" (read x_1, x_2, ...),
    or a sequence of 0/1 values (x_1 first).
    """
    if isinstance(x, int):
        if not 0 <= x < (1 << n_qubits):
            raise QubitCountError(f"basis index {x} out of range for {n_qubits} qubits")
        return x
    if isinstance(x, str):
        bits = x
    else:
        bits = "".join(str(int(b)) for b in x)
    if len(bits) != n_qubits:
        raise QubitCountError(f"basis string length {len(bits)} != qubit count {n_qubits}")
    idx = 0
    for i, ch in enumerate(bits):
        if ch == "1":
            idx |= 1 << i
        elif ch != "0":
            raise ParseError(f"invalid bit {ch!r} in basis string {bits!r}", i)
    return idx


def basis_label(x: int, n_qubits: int) -> str:
    """Inverse of basis_index for integer inputs: 'x_1 x_2 ... x_n' string."""
    return "".join("1" if (x >> i) & 1 else "0" for i in range(n_qubits))


def format_coeff(c: float) -> str:
    """Coefficient text, 12 significant digits, exact-zero suppression."""
    return f"{c:.12g}"


def _summed(pairs: Iterable[tuple]) -> dict:
    """Term dict of (key, coefficient) pairs, repeated keys added up."""
    acc = {}
    for key, coeff in pairs:
        acc[key] = acc.get(key, 0) + coeff
    return acc


class PauliSum:
    """Immutable sparse sum of Pauli terms: ``_terms`` maps each term key to a
    finite coefficient, in key order, none below the pruning epsilon.  Every
    table is built by ``_table``.  The constructor passes each given pair
    through the subclass's ``_term(n, key, coeff) -> (key, coeff)``, which
    checks the key on the register and converts the coefficient; results whose
    keys are known to be valid skip it (``_pruned``, ``from_json_dict``).
    Subclasses also give ``_sort_key`` (the key order, as for ``sorted``),
    ``_scalar`` (the coefficient type), ``to_json_dict``,
    ``_term_text(key, coeff) -> (negative, magnitude, label)`` and
    ``_json_term(n, label, coeff) -> (key, coeff)``."""

    __slots__ = ("_n", "_terms")

    def __init__(self, n_qubits: int, terms: Union[Mapping, Iterable[tuple]] = ()):
        check_register(n_qubits)
        # a type() test first: the Mapping ABC test costs several times more
        items = terms.items() if type(terms) is dict or isinstance(terms, Mapping) else terms
        self._n = n_qubits
        self._terms = self._table(_summed(self._term(n_qubits, key, c) for key, c in items))

    @classmethod
    def zero(cls, n_qubits: int):
        return cls(n_qubits)

    @property
    def n_qubits(self) -> int:
        return self._n

    @property
    def size(self) -> int:
        """Number of stored nonzero terms (the sparsity of the operator)."""
        return len(self._terms)

    def items(self) -> Iterator[tuple]:
        """(key, coefficient) pairs in the stored key order."""
        return iter(self._terms.items())

    def _require_same_register(self, other: "PauliSum") -> None:
        if self._n != other._n:
            raise QubitCountError(f"qubit-count mismatch: {self._n} vs {other._n}")

    @classmethod
    def _table(cls, acc: dict) -> dict:
        """``acc``, a term dict with keys valid on the register, as stored: its
        terms of at least PRUNE_EPS in ``_sort_key`` order.  A non-finite
        coefficient (an overflowed sum or product; inf - inf is NaN, which
        pruning would drop unseen) is a ParseError."""
        values = acc.values()  # a finite total needs no term-by-term check
        if not cmath.isfinite(sum(values)) and not all(map(cmath.isfinite, values)):
            raise ParseError("coefficients overflow the float range")
        ordered = sorted(acc, key=cls._sort_key)
        return {key: acc[key] for key in ordered if abs(acc[key]) >= PRUNE_EPS}

    @classmethod
    def _from_checked(cls, n_qubits: int, terms: dict):
        """An operator holding ``terms``, a table as ``_table`` returns it."""
        op = object.__new__(cls)
        op._n = n_qubits
        op._terms = terms
        return op

    def _pruned(self, acc: dict):
        """The operator on this register of ``acc``, the raw result of arithmetic
        on operands of this register."""
        return self._from_checked(self._n, self._table(acc))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_same_register(other)
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            acc[key] = acc.get(key, 0) + coeff
        return self._pruned(acc)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_same_register(other)
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            acc[key] = acc.get(key, 0) - coeff
        return self._pruned(acc)

    def __neg__(self):
        return (-1.0) * self

    def scaled(self, w):
        w = self._scalar(w)
        return self._pruned({key: w * c for key, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._n == other._n and self._terms == other._terms

    def to_text(self) -> str:
        """Readable form, e.g. '0.75 I - 0.25 Z1 - 0.25 Z2 - 0.25 Z1Z2'."""
        if not self._terms:
            return "0"
        parts = []
        for key, coeff in self._terms.items():
            negative, magnitude, label = self._term_text(key, coeff)
            if parts:
                parts.append(f"{'-' if negative else '+'} {magnitude} {label}")
            else:
                parts.append(f"{'-' if negative else ''}{magnitude} {label}")
        return " ".join(parts)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, doc: dict):
        """The operator of {"n": n, "terms": [{"paulis": label, "coeff": c}, ...]}."""
        n = json_number(json_field(doc, "n", "operator JSON"), "operator 'n'", int)
        terms = json_list(json_field(doc, "terms", "operator JSON"), "operator 'terms'")
        check_register(n)
        what = "operator term"
        # _json_term checks each label on the register; repeated labels add up
        return cls._from_checked(n, cls._table(_summed(
            cls._json_term(n, json_field(t, "paulis", what), json_field(t, "coeff", what))
            for t in terms
        )))

    @classmethod
    def from_json(cls, text: str):
        return cls.from_json_dict(load_json(text))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._n}, {self.to_text()!r})"


class DiagonalHamiltonian(PauliSum):
    """Immutable sparse sum of Z-products with real coefficients.

    ``terms`` maps term masks to 64-bit float coefficients; no stored
    coefficient has magnitude below the pruning epsilon, and iteration
    is always in ascending mask order.
    """

    __slots__ = ()
    _sort_key = None  # ascending mask
    _scalar = float

    @staticmethod
    def _term(n: int, mask: int, coeff) -> tuple[int, float]:
        if type(mask) is not int:  # first: is_integer's ABC test costs more
            if not is_integer(mask):
                raise ValueError(f"term mask must be an integer, got {mask!r}")
            mask = int(mask)  # a numpy integer
        if not 0 <= mask < (1 << n):
            raise QubitCountError(f"term mask {mask:#x} out of range for {n} qubits")
        if not (isinstance(coeff, float) or is_finite_real(coeff)):  # _table names a NaN or inf
            raise ValueError(f"coefficient must be a finite real number, got {coeff!r}")
        return mask, float(coeff)

    @classmethod
    def identity(cls, n_qubits: int) -> "DiagonalHamiltonian":
        return cls(n_qubits, {0: 1.0})

    # -- inspection ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Maximum number of qubits touched by any term; 0 for the zero operator."""
        if not self._terms:
            return 0
        return max(m.bit_count() for m in self._terms)

    @property
    def identity_coeff(self) -> float:
        return self._terms.get(0, 0.0)

    def coeff(self, mask: int) -> float:
        return self._terms.get(mask, 0.0)

    def coeff_one_norm(self) -> float:
        """Sum of |coefficients|; an upper bound on max_x |eval(x)|."""
        return sum(abs(c) for c in self._terms.values())

    # -- evaluation ---------------------------------------------------

    def eval(self, x: BasisInput) -> float:
        """Value on a basis string: sum_S w_S * (-1)^popcount(S & x)."""
        idx = basis_index(x, self._n)
        total = 0.0
        for mask, coeff in self._terms.items():
            total += coeff if ((mask & idx).bit_count() & 1) == 0 else -coeff
        return total

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, DiagonalHamiltonian):
            self._require_same_register(other)
            acc: dict[int, float] = {}
            for ma, ca in self._terms.items():
                for mb, cb in other._terms.items():
                    m = ma ^ mb  # Z_S Z_T = Z_{S xor T}
                    acc[m] = acc.get(m, 0.0) + ca * cb
            return self._pruned(acc)
        if isinstance(other, (int, float)):
            return self.scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self.scaled(other)
        return NotImplemented

    def tensor(self, other: "DiagonalHamiltonian") -> "DiagonalHamiltonian":
        """Tensor product; self keeps qubits 1..n, other is shifted up by n."""
        n = self._n + other._n
        if n > MAX_QUBITS:
            raise QubitCountError(f"tensor product needs {n} qubits > {MAX_QUBITS}")
        acc = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                acc[ma | (mb << self._n)] = ca * cb
        return self._from_checked(n, self._table(acc))

    def pruned(self, eps: float) -> "DiagonalHamiltonian":
        if not eps >= 0:  # a NaN would fail every abs(c) >= eps test
            raise ValueError(f"prune epsilon must be non-negative, got {eps!r}")
        kept = {m: c for m, c in self._terms.items() if abs(c) >= eps}  # still in mask order
        return self._from_checked(self._n, kept)

    def max_coeff_diff(self, other: "DiagonalHamiltonian") -> float:
        self._require_same_register(other)
        masks = self._terms.keys() | other._terms.keys()
        return max((abs(self.coeff(m) - other.coeff(m)) for m in masks), default=0.0)

    # -- serialization ------------------------------------------------

    def _term_text(self, mask: int, coeff: float) -> tuple[bool, str, str]:
        return coeff < 0, format_coeff(abs(coeff)), term_label(mask)

    def to_json_dict(self) -> dict:
        return {
            "n": self._n,
            "terms": [
                {"paulis": term_label(mask, sep=" "), "coeff": coeff}
                for mask, coeff in self._terms.items()
            ],
        }

    @staticmethod
    def _json_term(n: int, label, coeff) -> tuple[int, float]:
        x_mask, z_mask = parse_pauli_label(label, n)
        if x_mask:
            raise ParseError(f"diagonal term label may hold only Z, got {label!r}")
        return z_mask, json_number(coeff, "operator coefficient")


def bit_projector(n_qubits: int, j: int) -> DiagonalHamiltonian:
    """The multiplication operator for bit j: (I - Z_j)/2, eigenvalue x_j."""
    return DiagonalHamiltonian(n_qubits, {0: 0.5, qubit_bit(j, n_qubits): -0.5})
