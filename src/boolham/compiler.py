"""Compile formulas and pseudo-Boolean objectives into Z-polynomials.

Compilation works directly on sparse Z-polynomials: ``compile_expr`` folds
the formula with ``boolexpr.compose``, whose composition rules

    H_!f     = I - H_f
    H_(f&g)  = H_f H_g
    H_(f|g)  = H_f + H_g - H_f H_g
    H_(f^g)  = H_f + H_g - 2 H_f H_g
    H_(f=>g) = I - H_f + H_f H_g

start from H_0 = 0, H_1 = I and H_xj = (I - Z_j)/2 and are applied pairwise
for n-ary nodes, each operand as it finishes.  The fold's cost scales with
the sparsity of its intermediates, and a product of two operators with up
to T terms each costs up to T^2 term products.  Once an intermediate is
dense, one value table and one Walsh-Hadamard transform give the same
coefficients for far less (n = 14, 48 clauses: 1.5 s against 20 ms).  So
``compile_expr`` leaves the fold when a pairwise result passes
T(n) = isqrt(n 2^n) terms, which keeps T^2 near the table's cost, and
returns ``fourier_from_table(truth_table(e, n))``.  Both paths are exact,
so the output is the same to the bit: the table sums integers, and every
partial sum in the fold is a multiple of 2^-2n below 4 in magnitude (the
operands of each product are 0/1 functions, whose coefficient vectors
have norm at most 1), which takes at most 2n + 2 bits.  It switches only
for 7 <= n and 2^n <= ``SIZE_CAP`` (n <= 19):

- below 7 variables the fold is cheap, and a formula that passes T only
  at its root has paid for the fold before it pays for the table (the
  n = 6 corpus formulas that switched went from 0.4 to 0.7 ms);
- at 2^n <= ``SIZE_CAP`` the tables stay small (2^n bytes per pending
  operand) and no fold intermediate can pass the cap, so the cap error
  keeps its meaning: an intermediate operator above ``SIZE_CAP`` terms,
  which only the fold at n >= 20 can build (general formulas can be
  exponentially dense).

Weighted clause sums (``compile_pseudo``, ``augment_penalties``) stay on
the fold, clause by clause: they add every clause into one term table and
prune once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Iterable

import numpy as np

from .boolexpr import (
    And,
    BoolExpr,
    Const,
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
    DiagonalHamiltonian,
    basis_index,
    bit_projector,
    json_field,
    json_list,
    json_number,
    load_json,
    require_finite,
)

SIZE_CAP = 10**6
TABLE_MIN_N = 7  # fewest variables at which compile_expr may switch to the table


def _guard(size: int, value=None):
    """value, unless an intermediate of ``size`` terms is past SIZE_CAP."""
    if size > SIZE_CAP:
        raise CapExceeded(f"intermediate operator has {size} terms, exceeding cap {SIZE_CAP}")
    return value


class _Dense(Exception):
    """A pairwise result of the fold passed its switch size."""


def _switch_size(n: int) -> int | None:
    """Terms past which compile_expr leaves the fold for the value table,
    or None where it never does."""
    if not TABLE_MIN_N <= n < SIZE_CAP.bit_length():  # 2^n <= SIZE_CAP
        return None
    return math.isqrt(n << n)


def _fold(e: BoolExpr, n: int, switch: int | None = None) -> DiagonalHamiltonian:
    """H_e on n qubits by the composition rules; e must use no variable above n.
    With ``switch``, _Dense is raised once a pairwise result holds more terms."""
    identity = DiagonalHamiltonian.identity(n)
    var = cache(partial(bit_projector, n))  # one projector per variable, shared by its uses

    def step(h: DiagonalHamiltonian) -> DiagonalHamiltonian:
        if switch is not None and h.size > switch:
            raise _Dense
        return _guard(h.size, h)

    return fold(e, lambda node, values: compose(node, values, identity, var, step), pairwise=True)


def _clause_sum(
    base: DiagonalHamiltonian, clauses: Iterable[tuple[float, BoolExpr]]
) -> DiagonalHamiltonian:
    """base + sum_j w_j H_fj in one term table, pruned once.  The clauses'
    containers checked their variables when built, so they skip register_size."""
    n = base.n_qubits
    acc = dict(base.items())
    for w, expr in clauses:
        for mask, c in _fold(expr, n).items():
            acc[mask] = acc.get(mask, 0.0) + w * c
        _guard(len(acc))
    require_finite(acc.values(), "weighted clause sums")
    return DiagonalHamiltonian(n, acc)


def compile_expr(e: BoolExpr, n: int | None = None) -> DiagonalHamiltonian:
    """Hamiltonian representing a Boolean formula: eval(x) = f(x) for all x."""
    n = register_size(e, n)
    try:
        return _fold(e, n, _switch_size(n))
    except _Dense:
        return fourier_from_table(truth_table(e, n))


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
        lin = np.zeros(n) if self.linear is None else np.asarray(self.linear, float)
        quad = (
            np.zeros((n, n))
            if self.quadratic is None
            else np.asarray(self.quadratic, float)
        )
        if lin.shape != (n,):
            raise ValueError(f"linear coefficients must have shape ({n},)")
        if quad.shape != (n, n):
            raise ValueError(f"quadratic matrix must have shape ({n}, {n})")
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
        return cls(n, a, lin, np.reshape(quad, (n, n)))  # (0, 0) at n = 0

    @classmethod
    def from_json(cls, text: str) -> "QuboInstance":
        return cls.from_json_dict(load_json(text))


def compile_qubo(q: QuboInstance) -> DiagonalHamiltonian:
    """Closed-form quadratic Z-polynomial for a QUBO instance.

    H = (a + c + d) I - 1/2 sum_j (c_j + d_j) Z_j + 1/4 sum_{j<k} d_jk Z_j Z_k
    with c = 1/2 sum_j c_j, d = 1/4 sum_{j<k} d_jk, d_j = 1/2 sum_{k != j} d_jk.
    """
    n = q.n_vars
    with np.errstate(over="ignore", invalid="ignore"):  # sums are checked below
        c_bar = 0.5 * float(np.sum(q.linear))
        d_bar = 0.25 * float(np.sum(np.triu(q.quadratic, k=1)))
        d_row = 0.5 * q.quadratic.sum(axis=1)
        terms: dict[int, float] = {0: q.constant + c_bar + d_bar}
        for j in range(n):
            terms[1 << j] = terms.get(1 << j, 0.0) - 0.5 * (q.linear[j] + d_row[j])
    for j in range(n):
        for k in range(j + 1, n):
            if q.quadratic[j, k] != 0.0:
                terms[(1 << j) | (1 << k)] = 0.25 * q.quadratic[j, k]
    require_finite(terms.values(), "QUBO coefficients")
    return DiagonalHamiltonian(n, terms)


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
    return PseudoBooleanObjective(q.n_vars, tuple(clauses))


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
            if not (w > 0 and math.isfinite(w)):
                raise ValueError(f"penalty weights must be positive and finite, got {w}")
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
    span{|x>|f(x)>}.
    """
    hf = compile_expr(f, n)
    ancilla = hf.n_qubits + 1
    return bit_projector(ancilla, ancilla) + hf.tensor(DiagonalHamiltonian(1, {1: 1.0}))
