"""Boolean formula ASTs, the infix expression parser, and DIMACS/WCNF input.

Every walk over a formula is one iterative post-order ``fold``: it keeps
an explicit stack of frames, one per node on the path from the root (the
node, its operands, the next operand's index, and the values gathered so
far or a pairwise accumulator), and dispatches on the node's type.
Equality, hashing, ``max_var``, ``eval_expr``, ``to_text`` and
``truth_table`` all go through it.  ``compose`` holds the composition
rules once; ``eval_expr`` (ints) and ``compiler._fold`` (Z-polynomials,
for registers past the table's size cap and for clause sums) apply them.
``truth_table``, which ``compiler.compile_expr`` transforms into H_f,
holds f's table as one int of 2^n bits and applies each connective as one
bitwise operation on it, so the table that verify checks the fold against
shares no arithmetic with it.

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

``parse_dimacs`` reads DIMACS CNF and WCNF text in one pass: comment and
blank lines are dropped, the body is split into tokens once, each distinct
token is read once, and each clause node is built on its literals' shared
nodes as given.  The line of a fault is found only when one is raised.

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
from .zpoly import check_table_cap, is_finite_real, is_integer

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
        if not (is_integer(self.value) and self.value in (0, 1)):
            raise ValueError(f"constant must be 0 or 1, got {self.value!r}")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Var(BoolExpr):
    index: int  # 1-based

    def __post_init__(self):
        if not (is_integer(self.index) and self.index >= 1):
            raise QubitCountError(f"variable index {self.index!r} must be an integer >= 1")


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

    @classmethod
    def _of(cls, children: tuple[BoolExpr, ...]) -> "_NAry":
        """A node on ``children`` as given, for callers that know there are
        two or more and none is of type cls: __post_init__ would change
        nothing."""
        node = object.__new__(cls)
        object.__setattr__(node, "children", children)
        return node


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


# operand count by node type: 0 leaf, 1 Not, 2 Implies, 3 And/Or/Xor (any count)
_KIND = {Var: 0, Const: 0, Not: 1, Implies: 2, And: 3, Or: 3, Xor: 3}


def fold(
    e: BoolExpr, combine: Callable[[BoolExpr, Sequence[T]], T], pairwise: bool = False
) -> T:
    """Post-order fold: combine(node, values of its operands, in order) at
    every node, operands first; a leaf gets ().  Iterative, so depth costs
    memory only.

    The walk keeps one frame per node on the path from the root: the node,
    its operands, the index of the next operand to visit, and the values
    its finished operands gave.  A finished value goes into the top frame;
    the frame then descends into its next operand, or, when it has none
    left, is popped and combined.  A node that is not a BoolExpr raises
    TypeError when the walk reaches it.

    With ``pairwise``, an And/Or/Xor frame holds an accumulator instead of
    the values: acc = combine(node, (acc, value)) as each operand after the
    first finishes, and the last acc is the node's value.  For ``compose``
    that is the same arithmetic in the same order, with one pending operand
    per node instead of all of them.
    """
    frames: list[list] = []  # [node, operands, next index, values or acc, pairwise]
    node = e
    while True:
        kind = _KIND.get(type(node))
        if kind:  # descend into the first operand
            if kind == 3:
                operands = node.children
                frames.append([node, operands, 1, None if pairwise else [], pairwise])
            else:
                operands = (node.child,) if kind == 1 else (node.lhs, node.rhs)
                frames.append([node, operands, 1, [], False])
            node = operands[0]
            continue
        if kind is None:
            raise TypeError(f"not a BoolExpr node: {node!r}")
        value = combine(node, ())
        while frames:  # hand the value up until a frame has an operand left
            frame = frames[-1]
            i = frame[2]
            if frame[4]:
                frame[3] = value if i == 1 else combine(frame[0], (frame[3], value))
            else:
                frame[3].append(value)
            operands = frame[1]
            if i < len(operands):
                frame[2] = i + 1
                node = operands[i]
                break
            frames.pop()
            value = frame[3] if frame[4] else combine(frame[0], frame[3])
        else:
            return value


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
        t = type(node)
        key.append((t, node.index if t is Var else node.value if t is Const else len(values)))

    fold(e, tag)
    return tuple(key)


def max_var(e: BoolExpr) -> int:
    """Largest variable index appearing in the formula (0 if none)."""
    return fold(
        e, lambda node, values: node.index if type(node) is Var else max(values, default=0)
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


_LOW_COLUMNS = (0xAA, 0xCC, 0xF0)  # x1, x2, x3 across the 8 assignments of one byte


def truth_table(e: BoolExpr, n: int) -> np.ndarray:
    """All 2^n values as a float vector indexed by assignment (x_1 = LSB).

    The fold holds f's table as one int of 2^n bits, bit x being f(x), so
    each connective is one bitwise operation; the bits become floats once,
    at the end.  Each variable is checked against the register when the
    fold first reads it, so the formula is walked once; a variable above n
    (or a negative n) raises register_size's QubitCountError, which names
    the largest variable.
    """
    check_table_cap(n)
    if n < 0:
        register_size(e, n)
    size = 1 << n
    nbytes = (size + 7) >> 3
    full = (1 << size) - 1

    # one column per variable, however often the formula reads it
    @functools.cache
    def var(j: int) -> int:
        if j > n:
            register_size(e, n)
        if j <= 3:  # the pattern repeats inside one byte
            return int.from_bytes(bytes((_LOW_COLUMNS[j - 1],)) * nbytes, "little") & full
        k = 1 << (j - 4)  # k zero bytes then k 0xff bytes, repeated
        return int.from_bytes((bytes(k) + b"\xff" * k) * (nbytes // (2 * k)), "little")

    def combine(node: BoolExpr, values: Sequence[int]) -> int:
        # n-ary nodes arrive pairwise: values is (acc, next operand)
        t = type(node)
        if t is Var:
            return var(node.index)
        if t is Or:
            return values[0] | values[1]
        if t is And:
            return values[0] & values[1]
        if t is Not:
            return full ^ values[0]
        if t is Xor:
            return values[0] ^ values[1]
        if t is Implies:
            return (full ^ values[0]) | values[1]
        return full if node.value else 0

    bits = fold(e, combine, pairwise=True)
    packed = np.frombuffer(bits.to_bytes(nbytes, "little"), np.uint8)
    return np.unpackbits(packed, bitorder="little")[:size].astype(np.float64)


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

_TOKEN_RE = re.compile(r"\s*(x[0-9]+|=>|[!&|^()01])")  # not \d, which reads other scripts' digits
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
                if text.startswith("x", bad) and bad + 1 < len(text):  # not an ASCII digit after it
                    raise ParseError(f"unexpected character {text[bad + 1]!r} after 'x'", bad)
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
            try:
                j = int(tok[1:])
            except ValueError:  # past int()'s limit on digits
                digits = len(tok) - 1
                raise ParseError(f"variable index of {digits} digits is too long", where) from None
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
        for j, (w, expr) in enumerate(self.clauses):
            if not is_finite_real(w):
                raise ValueError(f"clauses[{j}] weight must be a finite real number, got {w!r}")
            register_size(expr, self.n_vars)

    @classmethod
    def _from_checked(cls, n_vars: int, clauses: tuple[tuple[float, BoolExpr], ...]):
        """Skips __post_init__ for ``clauses`` whose variables are known to lie
        in 1..n_vars (parse_dimacs range-checks them; qubo_objective writes no other)."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "n_vars", n_vars)
        object.__setattr__(obj, "clauses", clauses)
        return obj

    def value(self, x: Assignment) -> float:
        return sum(w * eval_expr(e, x) for w, e in self.clauses)


class _Literals(dict):
    """DIMACS literal -> its node, made on first use; one per parse, so every
    clause that reads a literal shares it (nodes are immutable)."""

    def __missing__(self, lit: int) -> BoolExpr:
        node = self[lit] = Var(lit) if lit > 0 else Not(self[-lit])
        return node


def conjunction(clauses: Sequence[BoolExpr]) -> BoolExpr:
    """And of all clause expressions (Const(1) for an empty list)."""
    if not clauses:
        return Const(1)
    if len(clauses) == 1:
        return clauses[0]
    return And(tuple(clauses))


class _Unread(Exception):
    """A DIMACS clause body holds a token that its place does not accept."""


def _read_clauses(
    tokens: list[str], weighted: bool, n_vars: int
) -> tuple[list[float], list[BoolExpr], bool]:
    """The clauses in a body's tokens: their weights, their nodes, and
    whether a clause is left open at the end.  A clause is the literals up
    to a 0 and may span lines.  In WCNF (``weighted``) the first token of
    every clause is its weight; in CNF every clause has weight 1.  Each
    distinct token is read once, and each literal gets one node, which
    every clause that reads it shares.
    Raises _Unread for a literal that int() cannot read or that is past
    n_vars, and for a weight that float() cannot read or that is not
    finite."""
    value: dict[str, int] = {}
    for token in set(tokens):
        try:
            lit = int(token)
        except ValueError:
            continue
        if abs(lit) <= n_vars:
            value[token] = lit
    literals = _Literals()
    node = {token: literals[lit] for token, lit in value.items() if lit}
    values = list(map(value.get, tokens))  # None: not a literal
    nodes = list(map(node.get, tokens))
    weights: list[float] = []
    clauses: list[BoolExpr] = []
    weights_unread = 0  # weight tokens that no literal reads: the only Nones allowed
    p = 0
    size = len(tokens)
    left_open = False
    while p < size:
        weight = 1.0
        if weighted:
            try:
                weight = float(tokens[p])
            except ValueError:
                raise _Unread from None
            if not math.isfinite(weight):
                raise _Unread
            weights_unread += values[p] is None
            p += 1
        try:
            end = values.index(0, p)
        except ValueError:  # no 0 left: the clause is open
            left_open = True
            break
        parts = nodes[p:end]
        if len(parts) > 1:  # literals are never Or nodes
            clauses.append(Or._of(tuple(parts)))
        else:  # the empty clause is unsatisfiable
            clauses.append(parts[0] if parts else Const(0))
        weights.append(weight)
        p = end + 1
    if values.count(None) != weights_unread:
        raise _Unread
    return weights, clauses, left_open


def _dimacs_error(text: str, k: int, message: str) -> ParseError:
    """A ParseError naming the line of the k-th (0-based) line of text that
    is neither blank nor a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and line[0] != "c":
            if not k:
                return ParseError(f"line {lineno}: {message}")
            k -= 1
    raise AssertionError("no such line")


def _plain(line: str) -> bool:
    # int() and float() also read "1_0" and digits of other scripts
    return line.isascii() and "_" not in line


def _read_header(text: str, line: str) -> tuple[int, int, bool]:
    """(variable count, declared clause count, whether it is WCNF) from the
    first line that is neither blank nor a comment."""
    if not _plain(line):
        raise _dimacs_error(text, 0, f"numbers must be plain ASCII digits: {line!r}")
    if line[0] != "p":
        raise _dimacs_error(text, 0, "clause before 'p cnf' header")
    fields = line.split()
    if len(fields) != 4 or fields[1] not in ("cnf", "wcnf"):
        raise _dimacs_error(text, 0, f"malformed header {line!r}")
    try:
        n_vars, n_declared = int(fields[2]), int(fields[3])
    except ValueError as exc:
        raise _dimacs_error(text, 0, f"malformed header {line!r}") from exc
    if n_vars < 0 or n_declared < 0:
        raise _dimacs_error(text, 0, "negative counts in header")
    return n_vars, n_declared, fields[1] == "wcnf"


def _line_fault(
    line: str, n_vars: int, weighted: bool, is_open: bool
) -> tuple[str | None, bool]:
    """The first fault in one body line, or None, and whether a clause is
    open after it (for a line without a fault), given whether one is open
    where the line starts.  In WCNF a token that starts a clause is its
    weight."""
    if not _plain(line):
        return f"numbers must be plain ASCII digits: {line!r}", False
    if line[0] == "p":
        return "duplicate problem line", False
    for token in line.split():
        if weighted and not is_open:
            try:
                weight = float(token)
            except ValueError:
                return f"bad clause weight {token!r}", False
            if not math.isfinite(weight):
                return f"clause weight {token!r} must be finite", False
            is_open = True  # a weight alone leaves its clause open
            continue
        try:
            lit = int(token)
        except ValueError:
            return f"bad literal {token!r}", False
        if abs(lit) > n_vars:
            return f"literal {lit} out of range (n={n_vars})", False
        is_open = lit != 0
    return None, is_open


def _first_fault(text: str, body: list[str], n_vars: int, weighted: bool) -> ParseError:
    """The error of the first faulty body line, found line by line."""
    is_open = False  # a clause is open where the line starts
    for k, line in enumerate(body):
        fault, is_open = _line_fault(line, n_vars, weighted, is_open)
        if fault:
            return _dimacs_error(text, k + 1, fault)
    raise AssertionError("no faulty line")


def parse_dimacs(text: str) -> tuple[PseudoBooleanObjective, BoolExpr]:
    """Parse DIMACS CNF (or WCNF, where every clause starts with its weight).

    Returns both views of the formula: the MAX-SAT objective (one weighted
    OR-clause per input clause, unit weights for plain CNF) and the single
    conjunction expression (the SAT view).

    One pass: blank and comment lines are dropped, the first line left is
    the header, and the rest is split into tokens once.  Each distinct
    token is read as a literal once, and each clause is the slice up to its
    0.  The line of a fault is found only when one is raised.
    """
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "c"]
    if not lines:
        raise ParseError("missing 'p cnf' header")
    n_vars, n_declared, weighted = _read_header(text, lines[0])
    body = lines[1:]
    joined = " ".join(body)
    try:
        if not _plain(joined):
            raise _Unread
        weights, exprs, left_open = _read_clauses(joined.split(), weighted, n_vars)
    except _Unread:
        raise _first_fault(text, body, n_vars, weighted) from None
    if left_open:
        raise ParseError("last clause is missing its terminating 0")
    if len(exprs) != n_declared:
        raise ParseError(f"header declares {n_declared} clauses, found {len(exprs)}")
    objective = PseudoBooleanObjective._from_checked(n_vars, tuple(zip(weights, exprs)))
    # clauses are literals, Const(0) or Or nodes, never And nodes
    return objective, And._of(tuple(exprs)) if len(exprs) > 1 else conjunction(exprs)
