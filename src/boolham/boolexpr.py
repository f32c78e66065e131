"""Boolean formula ASTs, the infix expression parser, and DIMACS/WCNF input.

Every walk over a formula is one iterative post-order ``fold``.  ``compose``
holds the composition rules once; ``eval_expr`` (ints), ``truth_table``
(uint8 vectors) and ``compiler.compile_expr`` (Z-polynomials) apply them.

Grammar for the infix parser::

    expr    := or ('=>' expr)?          right-associative
    or      := xor ('|' xor)*
    xor     := and ('^' and)*
    and     := unary ('&' unary)*
    unary   := '!' unary | atom
    atom    := 'x'<digits> | '0' | '1' | '(' expr ')'

Precedence from tightest to loosest: ! & ^ | =>.  N-ary And/Or/Xor nodes
are flattened, so "x1 & x2 & x3" is a single And with three children.
Parentheses nest at most MAX_NESTING deep.

Assignments follow the package-wide convention: an integer assignment has
x_1 as its least significant bit; sequences list (x_1, x_2, ...).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar, Union

import numpy as np

from .errors import ParseError, QubitCountError
from .zpoly import check_table_cap

MAX_NESTING = 100

Assignment = Union[int, Sequence[int]]
T = TypeVar("T")


class BoolExpr:
    """Base class for formula nodes. Nodes are immutable and hashable.

    Equality, hashing and repr go through folds, so they work at any depth.
    """

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoolExpr):
            return NotImplemented
        return self is other or _structure(self) == _structure(other)

    def __hash__(self) -> int:
        return hash(_structure(self))

    def __repr__(self) -> str:
        return f"parse_expr({to_text(self)!r})"

    def __and__(self, other: "BoolExpr") -> "BoolExpr":
        return And((self, other))

    def __or__(self, other: "BoolExpr") -> "BoolExpr":
        return Or((self, other))

    def __xor__(self, other: "BoolExpr") -> "BoolExpr":
        return Xor((self, other))

    def __invert__(self) -> "BoolExpr":
        return Not(self)

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Const(BoolExpr):
    value: int

    def __post_init__(self):
        if self.value not in (0, 1):
            raise ValueError(f"constant must be 0 or 1, got {self.value}")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Var(BoolExpr):
    index: int  # 1-based

    def __post_init__(self):
        if self.index < 1:
            raise QubitCountError(f"variable index {self.index} must be >= 1")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Not(BoolExpr):
    child: BoolExpr


class _NAry(BoolExpr):
    """And, Or, Xor: two or more children, same-type children flattened in."""

    __slots__ = ()

    def __post_init__(self):
        flat = []
        for c in self.children:
            if isinstance(c, type(self)):
                flat.extend(c.children)
            else:
                flat.append(c)
        object.__setattr__(self, "children", tuple(flat))
        if len(self.children) < 2:
            raise ValueError(f"{type(self).__name__} needs at least two children")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class And(_NAry):
    children: tuple[BoolExpr, ...]


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Or(_NAry):
    children: tuple[BoolExpr, ...]


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Xor(_NAry):
    children: tuple[BoolExpr, ...]


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Implies(BoolExpr):
    lhs: BoolExpr
    rhs: BoolExpr


# -- the fold ------------------------------------------------------------


def _operands(node: BoolExpr) -> tuple[BoolExpr, ...]:
    if isinstance(node, (Var, Const)):
        return ()
    if isinstance(node, Not):
        return (node.child,)
    if isinstance(node, _NAry):
        return node.children
    if isinstance(node, Implies):
        return (node.lhs, node.rhs)
    raise TypeError(f"not a BoolExpr node: {node!r}")


def fold(
    e: BoolExpr, combine: Callable[[BoolExpr, Sequence[T]], T], pairwise: bool = False
) -> T:
    """Post-order fold: combine(node, values of its operands, in order) at
    every node, operands first.  Iterative, so depth costs memory only.

    With ``pairwise``, an And/Or/Xor node takes its operands as they finish:
    acc = combine(node, (acc, value)) for each operand after the first, and
    the last acc is the node's value.  For ``compose`` that is the same
    arithmetic in the same order, with one pending operand per node instead
    of all of them.
    """
    order: list[tuple[BoolExpr, int]] = []
    pending: list = [e]  # nodes to expand, and (node, 2) pairwise steps
    while pending:
        node = pending.pop()
        if type(node) is tuple:
            order.append(node)
            continue
        operands = _operands(node)
        if pairwise and isinstance(node, _NAry):
            pending.append(operands[0])
            for operand in operands[1:]:
                pending.append(operand)
                pending.append((node, 2))
        else:
            order.append((node, len(operands)))
            pending.extend(operands)
    # reversed pre-order with the last operand expanded first is a
    # left-to-right post-order: each node's operand values end the stack
    values: list = []
    for node, arity in reversed(order):
        if arity:
            args = values[-arity:]
            del values[-arity:]
        else:
            args = ()
        values.append(combine(node, args))
    return values[0]


def compose(
    node: BoolExpr,
    values: Sequence[T],
    one: T,
    var: Callable[[int], T],
    step: Callable[[T], T] = lambda v: v,
) -> T:
    """The composition rules, over any ring where 0/1 functions are idempotent:

        !f = 1 - f    f & g = f g    f | g = f + g - f g
        f ^ g = f + g - 2 f g        f => g = 1 - f + f g

    ``values`` are the composed operands of ``node``; 1 is ``one``, 0 is
    one - one and x_j is ``var(j)``.  N-ary nodes combine pairwise from the
    left, and ``step`` sees each pairwise result (and each =>).
    """
    if isinstance(node, Var):
        return var(node.index)
    if isinstance(node, Const):
        return one if node.value else one - one
    if isinstance(node, Not):
        return one - values[0]
    if isinstance(node, Implies):
        f, g = values
        return step(one - f + f * g)
    acc = values[0]
    for g in values[1:]:
        if isinstance(node, And):
            acc = step(acc * g)
        elif isinstance(node, Or):
            acc = step(acc + g - acc * g)
        else:
            acc = step(acc + g - 2 * (acc * g))
    return acc


def _structure(e: BoolExpr) -> tuple:
    """Flat structural key, one (type, payload) per node in post-order; the
    payload is a Var's index, a Const's value, or the operand count."""
    key: list[tuple] = []

    def tag(node: BoolExpr, values: Sequence) -> None:
        key.append((type(node), getattr(node, "index", getattr(node, "value", len(values)))))

    fold(e, tag)
    return tuple(key)


def max_var(e: BoolExpr) -> int:
    """Largest variable index appearing in the formula (0 if none)."""
    return fold(
        e, lambda node, values: node.index if isinstance(node, Var) else max(values, default=0)
    )


def register_size(e: BoolExpr, n: int | None = None) -> int:
    """n, or max_var(e) when n is None; QubitCountError if n is negative or
    e uses a variable above n."""
    used = max_var(e)
    if n is None:
        return used
    if n < 0:
        raise QubitCountError(f"register size {n} is negative")
    if used > n:
        raise QubitCountError(f"formula uses x{used} but register has {n} qubits")
    return n


def _as_mask(x: Assignment) -> int:
    if isinstance(x, int):
        return x
    mask = 0
    for i, b in enumerate(x):
        if b not in (0, 1):
            raise ValueError(f"assignment entries must be 0/1, got {b!r}")
        mask |= b << i
    return mask


def eval_expr(e: BoolExpr, x: Assignment) -> int:
    """Evaluate on an assignment; returns 0 or 1."""
    mask = _as_mask(x)
    var = lambda j: (mask >> (j - 1)) & 1
    return fold(e, lambda node, values: compose(node, values, 1, var))


def truth_table(e: BoolExpr, n: int) -> np.ndarray:
    """All 2^n values as a float vector indexed by assignment (x_1 = LSB)."""
    check_table_cap(n)
    register_size(e, n)
    idx = np.arange(1 << n, dtype=np.uint32)
    one = np.ones(1 << n, dtype=np.uint8)
    # compose never writes into its operands, so all uses of x_j share one column
    var = functools.cache(lambda j: ((idx >> np.uint32(j - 1)) & 1).astype(np.uint8))
    table = fold(e, lambda node, values: compose(node, values, one, var), pairwise=True)
    return table.astype(np.float64)


# -- printing ----------------------------------------------------------

_PREC = {Implies: 1, Or: 2, Xor: 3, And: 4, Not: 5, Var: 6, Const: 6}
_INFIX = {And: " & ", Or: " | ", Xor: " ^ "}


def _render(node: BoolExpr, parts: Sequence[tuple[str, int]]) -> tuple[str, int]:
    prec = _PREC[type(node)]

    def wrap(part: tuple[str, int], allow_equal: bool = False) -> str:
        text, child_prec = part
        if child_prec < prec or (child_prec == prec and not allow_equal):
            return f"({text})"
        return text

    if isinstance(node, Const):
        return str(node.value), prec
    if isinstance(node, Var):
        return f"x{node.index}", prec
    if isinstance(node, Not):
        return "!" + wrap(parts[0], allow_equal=True), prec
    if isinstance(node, Implies):
        # right-associative: parenthesize a nested lhs, not the rhs
        return f"{wrap(parts[0])} => {wrap(parts[1], allow_equal=True)}", prec
    return _INFIX[type(node)].join(wrap(p) for p in parts), prec


def to_text(e: BoolExpr) -> str:
    """Parser-compatible text: parse_expr(to_text(e)) == e up to MAX_NESTING parentheses."""
    return fold(e, _render)[0]


# -- infix parser ------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(x\d+|=>|[!&|^()01])")
_BINARY = ((Or, "|"), (Xor, "^"), (And, "&"))  # loosest first


class _Parser:
    def __init__(self, text: str, n_vars: int | None):
        self.text = text
        self.n_vars = n_vars
        self.tokens: list[tuple[str, int]] = []
        scan = 0
        while scan < len(text):
            m = _TOKEN_RE.match(text, scan)
            if m is None:
                if text[scan:].strip() == "":
                    break
                bad = len(text) - len(text[scan:].lstrip())
                raise ParseError(f"unexpected character {text[bad]!r}", bad)
            self.tokens.append((m.group(1), m.start(1)))
            scan = m.end()
        self.i = 0
        self.depth = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def take(self) -> tuple[str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, token: str) -> None:
        got = self.peek()
        if got != token:
            where = self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)
            raise ParseError(f"expected {token!r}, got {got!r}", where)
        self.take()

    def parse(self) -> BoolExpr:
        e = self.implies()
        if self.i < len(self.tokens):
            tok, where = self.tokens[self.i]
            raise ParseError(f"unexpected trailing token {tok!r}", where)
        return e

    def implies(self) -> BoolExpr:
        parts = [self.chain(0)]
        while self.peek() == "=>":
            self.take()
            parts.append(self.chain(0))
        e = parts.pop()
        while parts:  # right-associative
            e = Implies(parts.pop(), e)
        return e

    def chain(self, level: int) -> BoolExpr:
        if level == len(_BINARY):
            return self.unary()
        node_type, op = _BINARY[level]
        parts = [self.chain(level + 1)]
        while self.peek() == op:
            self.take()
            parts.append(self.chain(level + 1))
        return parts[0] if len(parts) == 1 else node_type(tuple(parts))

    def unary(self) -> BoolExpr:
        negations = 0
        while self.peek() == "!":
            self.take()
            negations += 1
        e = self.atom()
        for _ in range(negations):
            e = Not(e)
        return e

    def atom(self) -> BoolExpr:
        if self.peek() is None:
            raise ParseError("unexpected end of input", len(self.text))
        tok, where = self.take()
        if tok == "(":
            # each level costs a fixed number of interpreter frames
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", where)
            self.depth += 1
            e = self.implies()
            self.expect(")")
            self.depth -= 1
            return e
        if tok in ("0", "1"):
            return Const(int(tok))
        if tok.startswith("x"):
            j = int(tok[1:])
            if j < 1:
                raise ParseError(f"variable index must be >= 1: {tok}", where)
            if self.n_vars is not None and j > self.n_vars:
                raise ParseError(
                    f"variable {tok} exceeds declared count {self.n_vars}", where
                )
            return Var(j)
        raise ParseError(f"unexpected token {tok!r}", where)


def parse_expr(text: str, n_vars: int | None = None) -> BoolExpr:
    """Parse an infix formula; n_vars, when given, bounds variable indices."""
    if not isinstance(text, str):  # e.g. a penalty spec's "expr" read from JSON
        raise ParseError(f"formula must be a string, got {text!r}")
    return _Parser(text, n_vars).parse()


# -- pseudo-Boolean objectives and DIMACS ------------------------------


@dataclass(frozen=True, slots=True)
class PseudoBooleanObjective:
    """Weighted sum of Boolean clauses: value(x) = sum_j w_j * f_j(x)."""

    n_vars: int
    clauses: tuple[tuple[float, BoolExpr], ...] = field(default=())

    def __post_init__(self):
        for _, expr in self.clauses:
            register_size(expr, self.n_vars)

    def value(self, x: Assignment) -> float:
        return sum(w * eval_expr(e, x) for w, e in self.clauses)


def _clause_expr(lits: Sequence[int]) -> BoolExpr:
    if not lits:
        return Const(0)  # empty clause is unsatisfiable
    parts = tuple(Var(l) if l > 0 else Not(Var(-l)) for l in lits)
    return parts[0] if len(parts) == 1 else Or(parts)


def conjunction(clauses: Sequence[BoolExpr]) -> BoolExpr:
    """And of all clause expressions (Const(1) for an empty list)."""
    if not clauses:
        return Const(1)
    if len(clauses) == 1:
        return clauses[0]
    return And(tuple(clauses))


def parse_dimacs(text: str) -> tuple[PseudoBooleanObjective, BoolExpr]:
    """Parse DIMACS CNF (or WCNF with per-clause leading weights).

    Returns both views of the formula: the MAX-SAT objective (one weighted
    OR-clause per input clause, unit weights for plain CNF) and the single
    conjunction expression (the SAT view).
    """
    n_vars = None
    n_clauses_declared = None
    weighted = False
    weights: list[float] = []
    clause_lits: list[list[int]] = []
    current: list[int] = []
    current_weight: float | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if not line.isascii() or "_" in line:  # int() and float() read "1_0" and non-ASCII digits
            raise ParseError(f"line {lineno}: numbers must be plain ASCII digits: {line!r}")
        if line.startswith("p"):
            if n_vars is not None:
                raise ParseError(f"line {lineno}: duplicate problem line")
            fields = line.split()
            if len(fields) != 4 or fields[1] not in ("cnf", "wcnf"):
                raise ParseError(f"line {lineno}: malformed header {line!r}")
            try:
                n_vars = int(fields[2])
                n_clauses_declared = int(fields[3])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: malformed header {line!r}") from exc
            if n_vars < 0 or n_clauses_declared < 0:
                raise ParseError(f"line {lineno}: negative counts in header")
            weighted = fields[1] == "wcnf"
            continue
        if n_vars is None:
            raise ParseError(f"line {lineno}: clause before 'p cnf' header")
        fields = line.split()
        start = 0
        if weighted and current_weight is None and not current:
            try:
                current_weight = float(fields[0])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad clause weight {fields[0]!r}") from exc
            if not math.isfinite(current_weight):
                raise ParseError(f"line {lineno}: clause weight {fields[0]!r} must be finite")
            start = 1
        for tok in fields[start:]:
            try:
                lit = int(tok)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad literal {tok!r}") from exc
            if lit == 0:
                clause_lits.append(current)
                weights.append(1.0 if current_weight is None else current_weight)
                current = []
                current_weight = None
            else:
                if abs(lit) > n_vars:
                    raise ParseError(
                        f"line {lineno}: literal {lit} out of range (n={n_vars})"
                    )
                current.append(lit)

    if n_vars is None:
        raise ParseError("missing 'p cnf' header")
    if current or current_weight is not None:
        raise ParseError("last clause is missing its terminating 0")
    if n_clauses_declared is not None and len(clause_lits) != n_clauses_declared:
        raise ParseError(
            f"header declares {n_clauses_declared} clauses, found {len(clause_lits)}"
        )

    clause_exprs = [_clause_expr(lits) for lits in clause_lits]
    objective = PseudoBooleanObjective(
        n_vars, tuple(zip(weights, clause_exprs))
    )
    return objective, conjunction(clause_exprs)
