"""Truth-table <-> Fourier-coefficient transforms and derived checks.

The coefficient of a term mask S is f_hat(S) = 2^-n sum_x f(x) (-1)^(S.x),
with S.x = popcount(S & x).  The fast Walsh-Hadamard transform computes all
2^n coefficients in O(n 2^n); the 2^-n normalization is applied only on the
table -> coefficients direction, so applying the raw transform twice
returns 2^n times the input.

A value table is a float64 array of the 2^n values, indexed by the
assignment x with x_1 as its least significant bit.  Dense tables are
capped at n = 24 (128 MiB of float64 values).
"""

from __future__ import annotations

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
    the factor 2^n.
    """
    m = a.shape[0]
    if m & (m - 1) or m == 0:
        raise ValueError(f"length must be a power of two, got {m}")
    half = np.empty(m // 2, dtype=a.dtype)  # the top halves, reused by every pass
    h = 1
    while h < m:
        blocks = a.reshape(-1, 2, h)
        top = half.reshape(-1, h)
        np.copyto(top, blocks[:, 0, :])
        bottom = blocks[:, 1, :]
        np.add(top, bottom, out=blocks[:, 0, :])
        np.subtract(top, bottom, out=bottom)
        h *= 2


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
    """Exact inverse transform: all 2^n function values of a Z-polynomial."""
    n = h.n_qubits
    check_table_cap(n)
    vec = np.zeros(1 << n, dtype=np.float64)
    for mask, coeff in h.items():
        vec[mask] = coeff
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        fwht_inplace(vec)
    if not np.isfinite(vec).all():
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
