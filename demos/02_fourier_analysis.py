"""Truth tables and Fourier coefficients are two views of the same object.

The fast Walsh-Hadamard transform converts a 2^n value table into the
2^n parity-basis coefficients in O(n 2^n); running it the other way
recovers the table exactly.  The compiler's composition rules must land on
the same unique operator, which makes a sharp cross-check.
"""

import numpy as np

import boolham as bh
from boolham.fourier import approx_report, parse_table

print("== Table -> coefficients -> table ==")
table = parse_table("0111")  # OR on two bits, as a float64 array
h = bh.fourier_from_table(table)
print("OR from its table :", h.to_text())
print("back to the table :", bh.table_from_fourier(h))

print()
print("== Transform path vs composition path ==")
e = bh.parse_expr("(x1 ^ x2) & (x2 | !x3)")
via_rules = bh.compile_expr(e, 3)
via_table = bh.fourier_from_table(bh.truth_table(e, 3))
print("rules :", via_rules.to_text())
print("table :", via_table.to_text())
print("max coefficient difference:", via_rules.max_coeff_diff(via_table))

print()
print("== Parseval for an arbitrary real table ==")
rng = np.random.default_rng(7)
values = rng.normal(size=16)
g = bh.fourier_from_table(values)
print("sum of squared coefficients:", sum(c * c for _, c in g.items()))
print("mean of squared values     :", float(np.mean(values**2)))

print()
print("== Max-norm approximation checker ==")
# a degree-one candidate: within 1/3 of AND everywhere, but not of OR
candidate = bh.DiagonalHamiltonian(2, {0: 1 / 3, 1: -1 / 6, 2: -1 / 6})
print("vs AND:", approx_report(candidate, bh.parse_expr("x1 & x2")))
print("vs OR :", approx_report(candidate, bh.parse_expr("x1 | x2")))
