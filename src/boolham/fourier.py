"""Truth-table <-> Fourier-coefficient transforms and derived checks.

The coefficient of a term mask S is f_hat(S) = 2^-n sum_x f(x) (-1)^(S.x),
with S.x = popcount(S & x).  The fast Walsh-Hadamard transform computes all
2^n coefficients in ceil(n/4) passes, each multiplying the table by a
Sylvester Hadamard block of at most 16 x 16 along a group of up to 4 index
bits (a BLAS matrix product).  It works in place: its extra memory is one
scratch block of 2^15 entries (256 KiB of float64) per thread, whatever n
is, allocated on the thread's first float64 transform and reused by every
later one (a table of another dtype gets a block of its own per call).
The inverse transform of a sparse Z-polynomial (``table_from_fourier``)
prunes its passes: a pass skips the blocks that no term mask has reached
yet, which stay zero, while fewer than half the blocks are reached, and
gathers the others through the same scratch block.  Its table is written
with zeros before the transform reads it, so each fresh page faults once
(a page first read maps the shared zero page and faults again when
written).  The table is the full transform's to the bit.  It is scanned
for an overflow only when the coefficients' 1-norm, which bounds every
value, may reach 1e300 (the bound taken is the term count times the
largest |coefficient|).
The 2^-n normalization is applied only on the table -> coefficients
direction, so applying the raw transform twice returns 2^n times the input.
On integer and dyadic tables the result is exact; on other tables it matches
the exact values to floating-point rounding, and the last bit can differ
between BLAS builds, which may order each block's sums differently.

A value table is a float64 array of the 2^n values, indexed by the
assignment x with x_1 as its least significant bit.  Dense tables are
capped at n = 24 (128 MiB of float64 values).
"""

from __future__ import annotations

import threading

import numpy as np

from . import boolexpr
from .errors import ParseError, VerificationError
from .zpoly import (
    PRUNE_EPS,
    TABLE_CAP,
    DiagonalHamiltonian,
    check_table_cap,
    json_list,
    json_number,
    load_json,
)

MAX_NORM_BOUND = 1.0 / 3.0
PROJECTOR_TOL = 1e-6  # largest defect count_models accepts before rounding
_BLOCK_BITS = 4  # each transform pass applies a Hadamard block of at most 16 x 16
_SCRATCH = 1 << 15  # entries of the one scratch block all passes work through
# .scratch: this thread's float64 scratch block, made on its first transform.
# Per thread, as matmul releases the GIL: threads transforming at once would
# otherwise write through each other's blocks.
_PER_THREAD = threading.local()
# a coefficient 1-norm below this keeps every value and partial sum of the
# inverse transform far inside the float range (about 1.8e308)
_NORM_SAFE = 1e300
# Sylvester order, entry (i, j) = (-1)^popcount(i & j); each pass's H_k is its
# top-left corner.  Building it costs more than a small transform, so it is built once.
_ROWS = np.arange(1 << _BLOCK_BITS)
_HADAMARD = np.where(np.bitwise_count(_ROWS[:, None] & _ROWS) & 1, -1.0, 1.0)
_HADAMARD.setflags(write=False)


def parse_table(text: str) -> np.ndarray:
    """Value table from text, index 0 first: a JSON vector of 2^n finite
    numbers, or a string of 2^n bits ('0111' is OR on 2 bits)."""
    text = text.strip()
    if not text.startswith("["):
        n = (len(text) - 1).bit_length()
        if len(text) != 1 << n or any(ch not in "01" for ch in text):
            raise ParseError(f"truth table string must be 2^n bits of 0/1: {text!r}")
        return np.array([float(ch) for ch in text])
    doc = json_list(load_json(text), "truth table JSON")
    values = [json_number(v, f"table entry {i}") for i, v in enumerate(doc)]
    n = (len(values) - 1).bit_length()
    if len(values) != 1 << n:
        raise ParseError(f"truth table vector must have 2^n entries, got {len(values)}")
    return np.array(values, dtype=np.float64)


def fwht_inplace(a: np.ndarray) -> None:
    """Unnormalized Walsh-Hadamard transform, in place, length 2^n.

    Output[S] = sum_x input[x] * (-1)^popcount(S & x).  Self-inverse up to
    the factor 2^n.  Every pass works on the whole array, and nothing is
    checked for overflow.  ``table_from_fourier`` runs the same passes but
    skips the blocks its term masks have not reached, and scans for an
    overflow only when the coefficients' 1-norm may reach 1e300.
    """
    if a.ndim != 1:
        raise ValueError(f"the transform takes a 1-D array, got shape {a.shape}")
    m = a.shape[0]
    if m & (m - 1) or m == 0:
        raise ValueError(f"length must be a power of two, got {m}")
    _transform(a, None)


def _transform(a: np.ndarray, live: np.ndarray | None) -> None:
    """fwht_inplace of a, which is zero outside the ascending indices in
    ``live`` (None: it may be nonzero anywhere).

    Pass p sees a as (hi, size, lo) blocks and transforms their size axis.
    Block hi is still all zeros unless some index in ``live``, shifted right
    by the bits transformed through pass p, is hi.  While fewer than half
    the blocks are live, only the live ones are transformed: gathered into
    one half of the scratch, transformed into the other half and scattered
    back, or, when one block is larger than half the scratch, transformed
    through views of it as the full pass does.  A dead block stays +0.0, as
    the full pass would leave it.  The live share never falls from one pass
    to the next, so from the first pass where it reaches half every pass is
    the full one.  A float64 a works through this thread's scratch block
    (``_float_scratch``), sliced to at most m entries; another dtype
    through a block allocated for the call.
    """
    m = a.shape[0]
    n = m.bit_length() - 1
    passes = -(-n // _BLOCK_BITS)
    hadamard = _HADAMARD.astype(a.dtype, copy=False)  # int and complex tables stay exact
    if a.dtype == np.float64:
        scratch = _float_scratch()[: min(m, _SCRATCH)]
    else:
        scratch = np.empty(min(m, _SCRATCH), dtype=a.dtype)
    lo = 1  # 2^(number of low bits already transformed)
    for p in range(passes):
        # sizes 2^k: the k add up to n, differ by at most 1, largest first (on
        # the low bits, where lo is small and each product is short)
        k = (n + passes - 1 - p) // passes
        size = 1 << k
        h = hadamard[:size, :size]
        view = a.reshape(-1, size, lo)  # a view, as any 1-D reshape is: writes land in a
        if live is not None:
            live = _live_blocks(live, k, view.shape[0])
        # blocks of the (hi, size, lo) view, whole rows of it when they fit
        # the room: the scratch, or half of it while live blocks are gathered
        # into the other half (a block larger than that half is a view)
        gather = live is not None and 2 * size * lo <= scratch.size
        room = scratch.size // 2 if gather else scratch.size
        rows = max(1, room // (size * lo))
        cols = min(lo, room // size)
        if gather:
            chunks = [live[i : i + rows] for i in range(0, live.size, rows)]
        elif live is None:
            chunks = [slice(r, r + rows) for r in range(0, view.shape[0], rows)]
        else:
            chunks = [slice(r, r + 1) for r in live.tolist()]
        for chunk in chunks:
            for c in range(0, lo, cols):
                if gather:  # whole blocks of a C-contiguous view: take copies only them
                    block = scratch[room : room + chunk.size * size * lo].reshape(-1, size, lo)
                    np.take(view, chunk, axis=0, out=block, mode="clip")
                else:
                    block = view[chunk, :, c : c + cols]
                out = scratch[: block.size].reshape(block.shape)
                if lo == 1:  # one (rows, size) @ H gemm, not a gemv per row
                    np.matmul(block[:, :, 0], h, out=out[:, :, 0])
                else:
                    np.matmul(h, block, out=out)
                if gather:
                    view[chunk] = out
                else:
                    block[...] = out
        lo *= size


def _float_scratch() -> np.ndarray:
    """This thread's float64 scratch block of _SCRATCH entries, allocated on
    its first call: its pages fault once, not on every transform."""
    scratch = getattr(_PER_THREAD, "scratch", None)
    if scratch is None:
        scratch = _PER_THREAD.scratch = np.empty(_SCRATCH)
    return scratch


def _live_blocks(live: np.ndarray, k: int, blocks: int) -> np.ndarray | None:
    """The distinct entries of ``live >> k``, ascending, or None when they
    are at least half of ``blocks``.  ``live`` is ascending and distinct, so
    at least live.size / 2^k of them are distinct: they are counted only
    when that is under half, and listed only when the count is.  (np.unique
    would sort, and its first call pages in about 1 MB of sort code.)"""
    if 2 * -(-live.size >> k) >= blocks:
        return None
    hi = live >> k
    steps = hi[1:] - hi[:-1]
    if 2 * (1 + np.count_nonzero(steps)) >= blocks:
        return None
    return np.concatenate((hi[:1], hi[1:][np.flatnonzero(steps)]))


def fourier_from_table(table: np.ndarray) -> DiagonalHamiltonian:
    """Fourier coefficients of a real table as a sparse Z-polynomial."""
    values = np.asarray(table, dtype=np.float64)
    n = (values.size - 1).bit_length()
    if values.shape != (1 << n,):  # also a 0-d or a multi-axis array
        raise ValueError(f"table shape {values.shape} is not one axis of power-of-two length")
    check_table_cap(n)
    coeffs = values.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        fwht_inplace(coeffs)
    coeffs /= float(1 << n)
    if not np.isfinite(coeffs).all():
        raise ParseError("Fourier coefficients overflow the float range")
    # ascending, distinct, inside the register and none below PRUNE_EPS
    (masks,) = np.nonzero(np.abs(coeffs) >= PRUNE_EPS)
    return DiagonalHamiltonian._from_checked(n, dict(zip(masks.tolist(), coeffs[masks].tolist())))


def table_from_fourier(h: DiagonalHamiltonian) -> np.ndarray:
    """Exact inverse transform: all 2^n function values of a Z-polynomial.

    The transform skips the blocks that no term mask has reached yet
    (``_transform``).  Every value and partial sum is a signed sum of the
    coefficients, at most their 1-norm in size, which is at most the term
    count times the largest |coefficient|: while that bound is below
    _NORM_SAFE nothing can overflow, and only above it are the values
    scanned for an overflow.  The table is zero-filled before the
    coefficients are scattered into it: a freshly mapped page that the
    transform reads first and writes after faults twice, a written one once.
    """
    n = h.n_qubits
    check_table_cap(n)
    vec = np.empty(1 << n, dtype=np.float64)
    vec.fill(0.0)  # not np.zeros, whose pages the transform would read before writing
    terms = h._terms
    masks = np.fromiter(terms.keys(), np.intp, len(terms))
    coeffs = np.fromiter(terms.values(), np.float64, len(terms))
    vec[masks] = coeffs
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        _transform(vec, masks)
        bound = coeffs.size * np.abs(coeffs).max(initial=0.0)
    if not bound < _NORM_SAFE and not np.isfinite(vec).all():
        raise ParseError("function values overflow the float range")
    return vec


def projector_defect(h: DiagonalHamiltonian) -> float:
    """max coefficient difference between h*h and h (0 for Boolean-compiled h)."""
    return (h * h).max_coeff_diff(h)


def count_models(h: DiagonalHamiltonian) -> int:
    """Number of satisfying assignments, read off the identity coefficient.

    Only valid for operators representing 0/1-valued functions, checked
    before rounding: up to TABLE_CAP qubits on the value table,
    max_x |v(x)^2 - v(x)| (one transform, and never smaller than the
    coefficient defect of h*h - h); above it through projector_defect.
    """
    values = table_from_fourier(h) if h.n_qubits <= TABLE_CAP else None
    return _count_models(h, values)


def _count_models(h: DiagonalHamiltonian, values: np.ndarray | None) -> int:
    """count_models with h's value table given, or None above TABLE_CAP."""
    if values is not None:
        with np.errstate(over="ignore"):  # an infinite defect is rejected below
            defect = float(np.max(np.abs(values * values - values)))
    else:
        defect = projector_defect(h)
    if defect > PROJECTOR_TOL:
        raise VerificationError(
            f"operator is not a projector (defect {defect:.3g}); "
            "model counting needs a Boolean-compiled Hamiltonian"
        )
    return round(h.identity_coeff * (1 << h.n_qubits))


def check_approx(
    h: DiagonalHamiltonian, f: boolexpr.BoolExpr
) -> tuple[float, bool]:
    """Max-norm distance between a candidate Z-polynomial and a Boolean function.

    Returns (max_x |h.eval(x) - f(x)|, within the 1/3 approximation bound).
    """
    approx = table_from_fourier(h)
    exact = boolexpr.truth_table(f, h.n_qubits)
    max_error = float(np.max(np.abs(approx - exact)))
    return max_error, max_error <= MAX_NORM_BOUND + 1e-12


def approx_report(h: DiagonalHamiltonian, f: boolexpr.BoolExpr) -> str:
    """check_approx as one line: the max error and whether it is within 1/3."""
    max_error, ok = check_approx(h, f)
    verdict = "OK" if ok else "FAIL"
    return f"max_error {max_error:.12g} bound 1/3 {verdict}"
