"""Exact symbolic algebra of general Pauli strings and operators.

A Pauli string is a pair of bit masks plus a phase exponent: a qubit set in
both masks carries Y, in x_mask only X, in z_mask only Z, in neither I.
The string's value is i^phase_pow times the plain tensor product of those
letters, so phase_pow = 0 strings are exactly the Hermitian Pauli products.
String multiplication is exact: the product of two strings is a single
string whose phase exponent follows the Pauli product table (XZ = -iY and
friends).  Operators fold each string's phase into a complex coefficient,
keeping the stored keys canonical (phase 0).

Qubit numbering and mask conventions follow zpoly: bit j-1 <-> qubit j.
``PauliOperator`` shares its constructor, sum, scaling, comparison and text
forms with ``zpoly.DiagonalHamiltonian`` through their base ``zpoly.PauliSum``;
its ``_term`` hook checks each string's register and folds its phase in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import QubitCountError
from .zpoly import (
    PAULI_LETTERS,
    PauliSum,
    check_register,
    format_coeff,
    is_finite_number,
    json_list,
    json_number,
    parse_pauli_label,
    qubit_bit,
)


@dataclass(frozen=True, slots=True)
class PauliString:
    n_qubits: int
    x_mask: int
    z_mask: int
    phase_pow: int = 0  # power of i multiplying the I/X/Y/Z tensor product

    def __post_init__(self):
        check_register(self.n_qubits)
        limit = 1 << self.n_qubits
        if not (0 <= self.x_mask < limit and 0 <= self.z_mask < limit):
            raise QubitCountError("mask sets bits beyond the register size")
        object.__setattr__(self, "phase_pow", self.phase_pow % 4)

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits, 0, 0)

    @classmethod
    def single(cls, n_qubits: int, letter: str, j: int) -> "PauliString":
        """One X/Y/Z on 1-based qubit j, identity elsewhere."""
        bit = qubit_bit(j, n_qubits)
        try:
            x, z = PAULI_LETTERS[letter]
        except KeyError:
            raise ValueError(f"letter must be one of I X Y Z, got {letter!r}") from None
        return cls(n_qubits, x * bit, z * bit)

    @classmethod
    def from_label(cls, n_qubits: int, label: str) -> "PauliString":
        """Parse 'X1 Z3' / 'X1Z3' style labels; 'I' is the identity."""
        return cls(n_qubits, *parse_pauli_label(label, n_qubits))

    def letter(self, j: int) -> str:
        bit = 1 << (j - 1)
        x, z = bool(self.x_mask & bit), bool(self.z_mask & bit)
        return "Y" if (x and z) else "X" if x else "Z" if z else "I"

    def label(self, sep: str = " ") -> str:
        atoms = [
            f"{self.letter(j)}{j}"
            for j in range(1, self.n_qubits + 1)
            if (self.x_mask | self.z_mask) & (1 << (j - 1))
        ]
        return sep.join(atoms) if atoms else "I"

    @property
    def phase(self) -> complex:
        return (1j) ** self.phase_pow

    def canonical(self) -> "PauliString":
        return PauliString(self.n_qubits, self.x_mask, self.z_mask)

    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        if self.n_qubits != other.n_qubits:
            raise QubitCountError(
                f"qubit-count mismatch: {self.n_qubits} vs {other.n_qubits}"
            )
        xc = self.x_mask ^ other.x_mask
        zc = self.z_mask ^ other.z_mask
        # work in X^x Z^z form: herm(x, z) = i^popcount(x & z) X^x Z^z,
        # and Z^za X^xb = (-1)^(za.xb) X^xb Z^za
        p = (
            self.phase_pow
            + other.phase_pow
            + (self.x_mask & self.z_mask).bit_count()
            + (other.x_mask & other.z_mask).bit_count()
            + 2 * (self.z_mask & other.x_mask).bit_count()
            - (xc & zc).bit_count()
        )
        return PauliString(self.n_qubits, xc, zc, p % 4)

    def adjoint(self) -> "PauliString":
        return PauliString(self.n_qubits, self.x_mask, self.z_mask, -self.phase_pow)

    def __repr__(self) -> str:
        prefix = ["", "i ", "- ", "-i "][self.phase_pow]
        return f"PauliString({prefix}{self.label()})"


def _sort_key(s: PauliString) -> tuple[int, int]:
    return (s.z_mask, s.x_mask)


class PauliOperator(PauliSum):
    """Immutable complex-weighted sum of canonical-phase Pauli strings."""

    __slots__ = ()
    _sort_key = staticmethod(_sort_key)
    _scalar = complex

    @staticmethod
    def _term(n: int, string: PauliString, coeff) -> tuple[PauliString, complex]:
        if not isinstance(string, PauliString):
            raise ValueError(f"term key must be a PauliString, got {string!r}")
        if not (isinstance(coeff, (float, complex)) or is_finite_number(coeff)):  # _table names a NaN or inf
            raise ValueError(f"coefficient must be a finite number, got {coeff!r}")
        if string.n_qubits != n:
            raise QubitCountError(f"string on {string.n_qubits} qubits added to {n}-qubit operator")
        return string.canonical(), complex(coeff) * string.phase

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliOperator":
        return cls(n_qubits, {PauliString.identity(n_qubits): 1.0})

    @classmethod
    def single(cls, n_qubits: int, letter: str, j: int, coeff: complex = 1.0):
        return cls(n_qubits, {PauliString.single(n_qubits, letter, j): coeff})

    # -- inspection ---------------------------------------------------

    def coeff(self, string: PauliString) -> complex:
        return self._terms.get(string.canonical(), 0j) * string.phase.conjugate()

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, PauliOperator):
            self._require_same_register(other)
            acc: dict[PauliString, complex] = {}
            for sa, ca in self._terms.items():
                for sb, cb in other._terms.items():
                    prod = sa * sb
                    key = prod.canonical()
                    acc[key] = acc.get(key, 0j) + ca * cb * prod.phase
            return self._pruned(acc)
        if isinstance(other, (int, float, complex)):
            return self.scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scaled(other)
        return NotImplemented

    def adjoint(self) -> "PauliOperator":
        # canonical strings are Hermitian, so only coefficients conjugate
        return self._pruned({s: c.conjugate() for s, c in self._terms.items()})

    # -- serialization ------------------------------------------------

    def _term_text(self, s: PauliString, c: complex) -> tuple[bool, str, str]:
        # a real or imaginary coefficient puts its sign out front, like the
        # diagonal form; a general one is printed whole, in parentheses
        label = s.label(sep="")
        if c.imag == 0.0:
            return c.real < 0, format_coeff(abs(c.real)), label
        if c.real == 0.0:
            return c.imag < 0, f"{format_coeff(abs(c.imag))}i", label
        sign = "+" if c.imag >= 0 else "-"
        return False, f"({format_coeff(c.real)}{sign}{format_coeff(abs(c.imag))}i)", label

    def to_json_dict(self) -> dict:
        entries = []
        for s, c in self._terms.items():
            coeff = c.real if c.imag == 0.0 else [c.real, c.imag]
            entries.append({"paulis": s.label(), "coeff": coeff})
        return {"n": self._n, "terms": entries}

    @staticmethod
    def _json_term(n: int, label, raw) -> tuple[PauliString, complex]:
        # a real coefficient is one number, a complex one the list [re, im]
        parts = json_list(raw, "operator coefficient", 2) if type(raw) is list else (raw, 0.0)
        re, im = (json_number(part, "operator coefficient") for part in parts)
        return PauliString.from_label(n, label), complex(re, im)


def anticommutator(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """{a, b} = ab + ba."""
    return a * b + b * a


def spin_lowering(n_qubits: int, j: int) -> PauliOperator:
    """b_j = (X_j + i Y_j)/2, the spin annihilation operator |0><1|."""
    return PauliOperator(
        n_qubits,
        [
            (PauliString.single(n_qubits, "X", j), 0.5),
            (PauliString.single(n_qubits, "Y", j), 0.5j),
        ],
    )


def spin_raising(n_qubits: int, j: int) -> PauliOperator:
    """b_j^dag = (X_j - i Y_j)/2, the spin creation operator |1><0|."""
    return spin_lowering(n_qubits, j).adjoint()


def jordan_wigner(n_qubits: int, j: int, kind: str = "lowering") -> PauliOperator:
    """Fermionic ladder operator a_j = Z_1 ... Z_{j-1} (X_j + i Y_j)/2.

    kind='raising' gives a_j^dag (conjugate Y coefficient).  The Z-parity
    prefix makes the family satisfy the canonical anticommutation relations.
    """
    if kind not in ("lowering", "raising"):
        raise ValueError(f"kind must be 'lowering' or 'raising', got {kind!r}")
    bit = qubit_bit(j, n_qubits)
    prefix = bit - 1  # Z on qubits 1..j-1
    y_coeff = 0.5j if kind == "lowering" else -0.5j
    return PauliOperator(
        n_qubits,
        [
            (PauliString(n_qubits, bit, prefix), 0.5),
            (PauliString(n_qubits, bit, prefix | bit), y_coeff),
        ],
    )
