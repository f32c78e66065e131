"""Compile formulas and pseudo-Boolean objectives into Z-polynomials.

``compile_expr`` takes one of two paths, chosen once from the register
size.  Where the value table has at most ``SIZE_CAP`` entries
(2^n <= SIZE_CAP, n <= 19) it tabulates f (``truth_table``, one bitwise
operation on 2^n bits per connective) and one Walsh-Hadamard transform
turns f's values into H_f: the transform's cost is fixed by n, whatever
the formula.  Above that it applies the composition rules of
``boolexpr.compose``

    H_!f     = I - H_f
    H_(f&g)  = H_f H_g
    H_(f|g)  = H_f + H_g - H_f H_g
    H_(f^g)  = H_f + H_g - 2 H_f H_g
    H_(f=>g) = I - H_f + H_f H_g

with H_0 = 0, H_1 = I and H_xj = (I - Z_j)/2 to sparse Z-polynomials
(``_fold``), pairwise for n-ary nodes, each operand as it finishes.  The
fold runs on ``_Terms``, a private ring of plain ``{mask: coeff}`` dicts:
each +, - and * drops its terms below PRUNE_EPS as it builds them, and
``_guard`` checks the term count of every pairwise and => result, but no
step sorts, scans for finiteness or builds a DiagonalHamiltonian.  The
result is sorted once, at the end.  A product of two operators with up to
T terms each costs up to T^2 term products, so the fold is the path for
formulas that stay sparse on a large register.  The cap keeps its meaning:
no table is larger than ``SIZE_CAP``, and only the fold at n >= 20 can
build an intermediate operator above ``SIZE_CAP`` terms (general formulas
can be exponentially dense).  Formulas that stay sparse on a large register
pay for the transform: x1 & x19 takes about 8 ms (0.5 ms of it the table),
against 0.02 ms on the fold.

Both paths are exact, so the output is the same to the bit, and the fold
gives the same bits in any summation order.  The table sums integers.  In
the fold, every value is the polynomial of a 0/1 function f, so each
coefficient is at most 1 in magnitude, the coefficient vector's norm is at
most 1 (Parseval: sum_S f_hat(S)^2 = E[f]), and every coefficient is a
multiple of 2^-k for two values of k:

- k = n, since f_hat(S) = 2^-n sum_x f(x) (-1)^|S&x|;
- k = max(1, ceil(log2(T + 1))) if f has T terms.  1 - 2f is +-1-valued
  with at most T + 1 terms, and a +-1-valued function with s >= 2 terms
  has every coefficient a multiple of 2^(1 - ceil(log2 s)) (Gopalan,
  O'Donnell, Servedio, Shpilka and Wimmer, "Testing Fourier dimensionality
  and sparsity", SIAM J. Comput. 2011).

Every operand is a variable, a constant, a guarded result or one minus
one of these, so it has at most SIZE_CAP + 1 < 2^20 terms, and k <= 20 at
any n.  A product's partial sums are then multiples of 2^-2k at most 1 in
magnitude (Cauchy-Schwarz), which take at most 2k + 1 <= 41 bits: exact in
any order.  A sum or a difference adds one pair of coefficients per mask,
and 2 (f g) is exact.  The nonzero coefficients of such an operand are at
least 2^-20, so pruning drops only exact zeros; only the unguarded f g
inside the Or and Xor rules could hold one below PRUNE_EPS, and only with
more than 2^39 terms.
``tests/test_fold.py`` checks the ring fold against the fold over
DiagonalHamiltonian to the bit at every n up to 63.

Weighted clause sums (``compile_pseudo``, ``augment_penalties``) add every
clause into one term table and prune once.  A clause that is a literal or
an OR of k literals over distinct variables (every DIMACS clause without a
repeated variable) is written by the paper's OR_k row, generalised to
literals:

    H = (1 - 2^-k) I - 2^-k sum_{S nonempty} (prod_{j in S} s_j) Z_S,

with s_j = +1 for x_j and -1 for !x_j.  Its 2^k terms are checked against
``SIZE_CAP`` before any is built.  Every coefficient is +-2^-k or 1 - 2^-k,
as the fold computes it, so the sum is the same to the bit.  Every other
clause (And, constants, nested formulas, repeated variables) is folded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Iterable

import numpy as np

from .boolexpr import (
    And,
    BoolExpr,
    Const,
    Not,
    Or,
    PseudoBooleanObjective,
    Var,
    compose,
    fold,
    parse_expr,
    register_size,
    truth_table,
)
from .errors import CapExceeded, ParseError, QubitCountError
from .fourier import fourier_from_table
from .zpoly import (
    MAX_QUBITS,
    PRUNE_EPS,
    DiagonalHamiltonian,
    basis_index,
    bit_projector,
    check_register,
    is_finite_real,
    is_integer,
    json_field,
    json_list,
    json_number,
    load_json,
    qubit_bit,
)

SIZE_CAP = 10**6


def _guard(size: int, value=None):
    """value, unless an intermediate of ``size`` terms is past SIZE_CAP."""
    if size > SIZE_CAP:
        raise CapExceeded(f"intermediate operator has {size} terms, exceeding cap {SIZE_CAP}")
    return value


def _takes_table(n: int) -> bool:
    """Whether compile_expr composes n-qubit formulas on the value table:
    2^n <= SIZE_CAP, n <= 19.  It compares n, not 2^n, so a huge register
    reaches the register check instead of building a 2^n-bit int."""
    return n <= SIZE_CAP.bit_length() - 1


class _Terms(dict):
    """The fold's ring: a ``{mask: coeff}`` term dict.  +, - and * (by another
    _Terms, or by an int) build a new one and drop each term below PRUNE_EPS
    as it is built: no sort, no finiteness scan and no DiagonalHamiltonian
    per step.  No operation changes its operands, so a variable's terms are
    shared by all its uses.  Keys stay in insertion order; ``_fold`` sorts once."""

    __slots__ = ()

    def __add__(self, other: "_Terms") -> "_Terms":
        return self._plus(other, 1.0)

    def __sub__(self, other: "_Terms") -> "_Terms":
        return self._plus(other, -1.0)  # a + (-c) is a - c to the bit

    def _plus(self, other: "_Terms", sign: float) -> "_Terms":
        acc = _Terms(self)
        for m, c in other.items():
            c = acc.get(m, 0.0) + sign * c
            if abs(c) >= PRUNE_EPS:
                acc[m] = c
            else:  # only a key already in acc: other's own terms are not below the epsilon
                del acc[m]
        return acc

    def __mul__(self, other: "_Terms") -> "_Terms":
        if len(self) > len(other):  # the longer loop innermost
            self, other = other, self
        acc = _Terms()
        get = acc.get
        inner = other.items()
        for ma, ca in self.items():
            for mb, cb in inner:
                m = ma ^ mb  # Z_S Z_T = Z_{S xor T}
                acc[m] = get(m, 0.0) + ca * cb
        for m in [m for m, c in acc.items() if abs(c) < PRUNE_EPS]:
            del acc[m]
        return acc

    def __rmul__(self, k: int) -> "_Terms":  # the 2 (f g) of the Xor rule
        return _Terms({m: k * c for m, c in self.items() if abs(k * c) >= PRUNE_EPS})


def _fold_terms(e: BoolExpr, n: int) -> _Terms:
    """H_e's terms on n qubits by the composition rules over ``_Terms``, in
    no particular order; e must use no variable above n.  ``_guard`` sees
    each pairwise and => result."""
    check_register(n)
    one = _Terms({0: 1.0})
    # (I - Z_j)/2, built once per variable and shared by its uses
    var = cache(lambda j: _Terms({0: 0.5, qubit_bit(j, n): -0.5}))
    step = lambda t: _guard(len(t), t)
    return fold(e, lambda node, values: compose(node, values, one, var, step), pairwise=True)


def _fold(e: BoolExpr, n: int) -> DiagonalHamiltonian:
    """H_e on n qubits by the composition rules on ``_fold_terms``' ring,
    pruned and guarded per step, sorted into a DiagonalHamiltonian once, at
    the end."""
    return DiagonalHamiltonian._from_checked(n, DiagonalHamiltonian._table(_fold_terms(e, n)))


def _or_terms(e: BoolExpr) -> dict[int, float] | None:
    """H_e by the closed form above, 1 - prod_j (I + s_j Z_j)/2, if e is a
    literal or an OR of literals over distinct variables; else None."""
    lits = []
    for child in e.children if type(e) is Or else (e,):
        negated = type(child) is Not
        if negated:
            child = child.child
        if type(child) is not Var:
            return None
        lits.append((1 << (child.index - 1), negated))
    if len({bit for bit, _ in lits}) < len(lits):
        return None
    _guard(1 << len(lits))  # before any of the 2^k terms is built
    scale = 0.5 ** len(lits)
    terms = {0: -scale}
    for bit, negated in lits:
        sign = -1.0 if negated else 1.0
        terms.update([(m | bit, sign * c) for m, c in terms.items()])
    terms[0] = 1.0 - scale
    return terms


def _clause_sum(
    base: DiagonalHamiltonian, clauses: Iterable[tuple[float, BoolExpr]]
) -> DiagonalHamiltonian:
    """base + sum_j w_j H_fj in one term table, pruned and sorted once.  The
    clauses' containers checked their variables when built, so they skip
    register_size and the table's masks need no check.  Literal and
    OR-of-literal clauses are written by the closed form; the rest are
    folded, and the ring's terms (``_fold_terms``) are added as they come."""
    n = base.n_qubits
    acc = dict(base.items())
    for w, expr in clauses:
        w = float(w)  # an np.float64 weight would make every sum an np.float64
        terms = _or_terms(expr)
        if terms is None:
            terms = _fold_terms(expr, n)
        for mask, c in terms.items():
            acc[mask] = acc.get(mask, 0.0) + w * c
        _guard(len(acc))
    return base._pruned(acc)


def compile_expr(e: BoolExpr, n: int | None = None) -> DiagonalHamiltonian:
    """Hamiltonian representing a Boolean formula: eval(x) = f(x) for all x."""
    if n is None or n < 0:
        n = register_size(e, n)
    if _takes_table(n):
        return fourier_from_table(truth_table(e, n))  # checks each variable as it reads it
    register_size(e, n)
    return _fold(e, n)


def compile_pseudo(obj: PseudoBooleanObjective, n: int | None = None) -> DiagonalHamiltonian:
    """Weighted sum of clause Hamiltonians: eval(x) = sum_j w_j f_j(x)."""
    if n is None:
        n = obj.n_vars
    elif n < obj.n_vars:
        raise QubitCountError(f"objective declares {obj.n_vars} variables > n={n}")
    return _clause_sum(DiagonalHamiltonian.zero(n), obj.clauses)


# -- QUBO ----------------------------------------------------------------


@dataclass(frozen=True)
class QuboInstance:
    """f(x) = a + sum_j c_j x_j + sum_{j<k} d_jk x_j x_k over binary x."""

    n_vars: int
    constant: float = 0.0
    linear: np.ndarray = field(default=None)  # shape (n,)
    quadratic: np.ndarray = field(default=None)  # shape (n, n), symmetric, zero diag

    def __post_init__(self):
        n = self.n_vars
        if not (is_integer(n) and 0 <= n <= MAX_QUBITS):
            raise QubitCountError(f"QUBO n_vars must be an integer in [0, {MAX_QUBITS}], got {n!r}")
        if not is_finite_real(self.constant):
            raise ValueError(f"constant must be a finite real number, got {self.constant!r}")
        lin = _real_array(self.linear, "linear", (n,))
        quad = _real_array(self.quadratic, "quadratic", (n, n))
        if not np.array_equal(quad, quad.T):
            raise ValueError("quadratic matrix must be symmetric")
        if np.any(np.diag(quad) != 0.0):
            raise ValueError("quadratic matrix must have zero diagonal")
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "quadratic", quad)

    def value(self, x) -> float:
        idx = basis_index(x, self.n_vars)
        bits = np.array([(idx >> j) & 1 for j in range(self.n_vars)], dtype=float)
        return float(
            self.constant + self.linear @ bits + 0.5 * bits @ self.quadratic @ bits
        )

    @classmethod
    def from_json_dict(cls, doc: dict) -> "QuboInstance":
        n = json_number(json_field(doc, "n", "QUBO JSON"), "QUBO 'n'", int)
        if not 0 <= n <= MAX_QUBITS:  # before the dense n x n allocation below
            raise ParseError(f"QUBO 'n' = {n} is outside [0, {MAX_QUBITS}]")
        a = json_number(doc.get("a", 0.0), "QUBO 'a'")  # doc is an object: it held 'n'
        linear = json_list(doc.get("linear", []), "QUBO 'linear'")
        if len(linear) > n:
            raise ParseError(f"QUBO 'linear' has {len(linear)} entries for n={n}")
        lin = [json_number(c, "QUBO 'linear' entry") for c in linear] + [0.0] * (n - len(linear))
        quad = [[0.0] * n for _ in range(n)]  # nested lists: cheaper per entry than numpy
        for entry in json_list(doc.get("quadratic", []), "QUBO 'quadratic'"):
            j, k, d = json_list(entry, "QUBO 'quadratic' entry", 3)
            j = json_number(j, "QUBO 'quadratic' index", int)
            k = json_number(k, "QUBO 'quadratic' index", int)
            d = json_number(d, "QUBO 'quadratic' weight")
            if not (1 <= j <= n and 1 <= k <= n) or j == k:
                raise ParseError(f"bad quadratic entry {entry!r} for n={n}")
            quad[j - 1][k - 1] += d
            quad[k - 1][j - 1] += d
        quad = np.reshape(quad, (n, n))  # (0, 0) at n = 0
        if not np.isfinite(quad).all():  # repeated entries can sum past the float range
            raise ParseError("QUBO 'quadratic' weights overflow the float range")
        return cls(n, a, lin, quad)

    @classmethod
    def from_json(cls, text: str) -> "QuboInstance":
        return cls.from_json_dict(load_json(text))


def _real_array(value, field: str, shape: tuple[int, ...]) -> np.ndarray:
    """``value`` (zeros if None) as a float array of ``shape`` whose entries are finite reals."""
    if value is None:
        return np.zeros(shape)
    if not isinstance(value, np.ndarray):  # as objects, entries keep their types: True, "2"
        value = np.asarray(value, dtype=object)
    if value.shape != shape:
        raise ValueError(f"{field} must have shape {shape}")
    if value.dtype == object:
        ok = all(map(is_finite_real, value.flat))
    else:
        ok = value.dtype.kind in "iuf" and np.isfinite(value).all()
    if not ok:
        raise ValueError(f"{field} entries must be finite real numbers")
    return np.asarray(value, dtype=float)


def compile_qubo(q: QuboInstance) -> DiagonalHamiltonian:
    """Closed-form quadratic Z-polynomial for a QUBO instance.

    H = (a + c + d) I - 1/2 sum_j (c_j + d_j) Z_j + 1/4 sum_{j<k} d_jk Z_j Z_k
    with c = 1/2 sum_j c_j, d = 1/4 sum_{j<k} d_jk, d_j = 1/2 sum_{k != j} d_jk.
    """
    n = q.n_vars
    with np.errstate(over="ignore", invalid="ignore"):  # the term table checks the sums
        c_bar = 0.5 * float(np.sum(q.linear))
        d_bar = 0.25 * float(np.sum(np.triu(q.quadratic, k=1)))
        row = (q.linear + 0.5 * q.quadratic.sum(axis=1)).tolist()  # c_j + d_j
    quad = q.quadratic.tolist()
    terms = {0: float(q.constant) + c_bar + d_bar}
    for j in range(n):
        terms[1 << j] = -0.5 * row[j]
    for j in range(n):
        for k in range(j + 1, n):
            if quad[j][k] != 0.0:
                terms[(1 << j) | (1 << k)] = 0.25 * quad[j][k]
    return DiagonalHamiltonian._from_checked(n, DiagonalHamiltonian._table(terms))


def qubo_objective(q: QuboInstance) -> PseudoBooleanObjective:
    """The same polynomial written as weighted Boolean clauses (x_j, x_j & x_k)."""
    clauses: list[tuple[float, BoolExpr]] = []
    if q.constant != 0.0:
        clauses.append((q.constant, Const(1)))
    for j in range(q.n_vars):
        if q.linear[j] != 0.0:
            clauses.append((float(q.linear[j]), Var(j + 1)))
    for j in range(q.n_vars):
        for k in range(j + 1, q.n_vars):
            if q.quadratic[j, k] != 0.0:
                clauses.append(
                    (float(q.quadratic[j, k]), And((Var(j + 1), Var(k + 1))))
                )
    # every variable is j + 1 <= n_vars: no clause needs register_size
    return PseudoBooleanObjective._from_checked(q.n_vars, tuple(clauses))


# -- penalty augmentation -------------------------------------------------


def auto_penalty_weight(objective: DiagonalHamiltonian) -> float:
    """Weight guaranteed to lift every infeasible state above every feasible one.

    Uses the coefficient 1-norm as a cheap upper bound on max_x |f(x)|.
    """
    return 2.0 * objective.coeff_one_norm() + 1.0


@dataclass(frozen=True)
class PenaltySpec:
    """Objective plus positively weighted infeasibility markers g_j.

    g_j(x) = 1 flags x as infeasible; x is feasible iff all g_j(x) = 0.
    """

    objective: DiagonalHamiltonian
    penalties: tuple[tuple[float, BoolExpr], ...]

    def __post_init__(self):
        n = self.objective.n_qubits
        for w, g in self.penalties:
            if not (is_finite_real(w) and w > 0):
                raise ValueError(f"penalty weights must be positive and finite, got {w!r}")
            register_size(g, n)

    @classmethod
    def with_auto_weights(
        cls, objective: DiagonalHamiltonian, constraints: Iterable[BoolExpr]
    ) -> "PenaltySpec":
        w = auto_penalty_weight(objective)
        return cls(objective, tuple((w, g) for g in constraints))


def augment_penalties(spec: PenaltySpec) -> DiagonalHamiltonian:
    """H_p = H_f + sum_j w_j H_gj."""
    return _clause_sum(spec.objective, spec.penalties)


def penalty_spec_from_json(text: str) -> PenaltySpec:
    """Penalty spec JSON: objective as an expression string or Hamiltonian
    document, penalties as {"weight": w | null, "expr": "..."} entries
    (null weight means choose automatically)."""
    doc = load_json(text)
    n = json_number(json_field(doc, "n", "penalty spec"), "penalty spec 'n'", int)
    raw_objective = json_field(doc, "objective", "penalty spec")
    raw_penalties = json_list(json_field(doc, "penalties", "penalty spec"), "penalties")
    if isinstance(raw_objective, str):
        objective = compile_expr(parse_expr(raw_objective, n), n)
    else:
        objective = DiagonalHamiltonian.from_json_dict(raw_objective)
        if objective.n_qubits != n:
            raise ParseError("objective qubit count disagrees with 'n'")
    auto_w = auto_penalty_weight(objective)
    penalties = []
    for entry in raw_penalties:
        g = parse_expr(json_field(entry, "expr", "penalty entry"), n)
        w = entry.get("weight")  # null or absent: automatic
        penalties.append((auto_w if w is None else json_number(w, "penalty weight"), g))
    try:
        return PenaltySpec(objective, tuple(penalties))
    except ValueError as exc:  # a weight that is not positive
        raise ParseError(str(exc)) from exc


# -- ground-state logic ----------------------------------------------------


def ground_state_logic(f: BoolExpr, n: int | None = None) -> DiagonalHamiltonian:
    """Encode input-output pairs of f in the zero-eigenvalue subspace.

    Returns the (n+1)-qubit operator H = I (x) x_a + H_f (x) Z_a with the
    ancilla a = qubit n+1.  A basis state |x>|y> has eigenvalue 0 iff
    y = f(x) and eigenvalue 1 otherwise, so the ground space is exactly
    span{|x>|f(x)>}.  It depends on f only through H_f (``_ground_state_logic``).
    """
    return _ground_state_logic(compile_expr(f, n))


def _ground_state_logic(hf: DiagonalHamiltonian) -> DiagonalHamiltonian:
    """I (x) x_a + H_f (x) Z_a, the ancilla a one qubit above H_f's register."""
    ancilla = hf.n_qubits + 1
    return bit_projector(ancilla, ancilla) + hf.tensor(DiagonalHamiltonian(1, {1: 1.0}))
