"""Oracle queries: computing f as a phase versus computing f in a register.

The bit query G_f maps |x>|a> to |x>|a xor f(x)>.  Single-bit phase
estimation builds it from an ancilla-controlled phase query, and phase
kickback recovers the phase query from G_f.  G_f never changes x, so the
suite checks all four equivalences on its 2^n 2x2 blocks, one per x.
"""

import numpy as np

import boolham as bh
from boolham.oracle import maxdiff, simulate_circuit
from boolham.verify import verify_kickback_suite

print("== Small bit queries are familiar gates ==")
g1 = simulate_circuit(bh.emit_bit_query(bh.Var(1), 1))
print("f = x1 gives CNOT (data qubit controls the ancilla):")
print(np.round(g1.real, 10))

g2 = simulate_circuit(bh.emit_bit_query(bh.parse_expr("x1 & x2"), 2))
toffoli = np.eye(8)
toffoli[[3, 7]] = toffoli[[7, 3]]
print("f = x1 & x2 gives the Toffoli matrix:", maxdiff(g2, toffoli) < 1e-12)

print()
print("== Unsatisfiable f gives the identity ==")
g0 = simulate_circuit(bh.emit_bit_query(bh.parse_expr("x1 & !x1"), 1))
print("max |G - I| =", maxdiff(g0, np.eye(4)))

print()
print("== Controlled evolution from a tensor Hamiltonian ==")
ham = bh.compile_expr(bh.parse_expr("x1 ^ x2"))
circ = bh.emit_controlled_evolution(bh.Var(1), ham, t=0.8)
print("control + data circuit on", circ.n_qubits, "qubits,", len(circ), "gates")

print()
print("== The four query equivalences, per function ==")
for text in ["x1", "x1 & x2", "(x1 | x2) ^ x3"]:
    rep = verify_kickback_suite(bh.parse_expr(text))
    print(f"f = {text}")
    for line in rep.lines():
        print("   ", line)
