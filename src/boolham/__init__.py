"""boolham: Boolean and pseudo-Boolean functions as diagonal Z Hamiltonians.

Compile formulas, CNF/WCNF instances, and QUBO polynomials into sparse
sums of Pauli-Z products via their Fourier expansion; build controlled and
ancilla constructions on top; emit CNOT+RZ simulation circuits; and check
every construction against a dense brute-force oracle at small qubit
counts.
"""

from .boolexpr import (
    And,
    BoolExpr,
    Const,
    Implies,
    Not,
    Or,
    PseudoBooleanObjective,
    Var,
    Xor,
    eval_expr,
    max_var,
    parse_dimacs,
    parse_expr,
    to_text,
    truth_table,
)
from .circuits import (
    Circuit,
    Gate,
    emit_bit_query,
    emit_controlled_evolution,
    emit_evolution,
    emit_qubo_evolution,
    lower_basic,
    parse_circuit,
    serialize,
)
from .compiler import (
    PenaltySpec,
    QuboInstance,
    augment_penalties,
    auto_penalty_weight,
    compile_expr,
    compile_pseudo,
    compile_qubo,
    ground_state_logic,
    qubo_objective,
)
from .errors import (
    BoolhamError,
    CapExceeded,
    ParseError,
    QubitCountError,
    VerificationError,
)
from .fourier import (
    check_approx,
    count_models,
    fourier_from_table,
    fwht_inplace,
    table_from_fourier,
)
from .oracle import (
    Spectrum,
    dense_controlled,
    dense_of_pauli,
    simulate_circuit,
    spectrum,
)
from .pauli import (
    PauliOperator,
    PauliString,
    anticommutator,
    jordan_wigner,
    spin_lowering,
    spin_raising,
)
from .verify import verify_kickback_suite
from .zpoly import DiagonalHamiltonian, bit_projector

__version__ = "0.1.0"

__all__ = [
    "And",
    "BoolExpr",
    "BoolhamError",
    "CapExceeded",
    "Circuit",
    "Const",
    "DiagonalHamiltonian",
    "Gate",
    "Implies",
    "Not",
    "Or",
    "ParseError",
    "PauliOperator",
    "PauliString",
    "PenaltySpec",
    "PseudoBooleanObjective",
    "QuboInstance",
    "QubitCountError",
    "Spectrum",
    "Var",
    "VerificationError",
    "Xor",
    "anticommutator",
    "augment_penalties",
    "auto_penalty_weight",
    "bit_projector",
    "check_approx",
    "compile_expr",
    "compile_pseudo",
    "compile_qubo",
    "count_models",
    "dense_controlled",
    "dense_of_pauli",
    "emit_bit_query",
    "emit_controlled_evolution",
    "emit_evolution",
    "emit_qubo_evolution",
    "eval_expr",
    "fourier_from_table",
    "fwht_inplace",
    "ground_state_logic",
    "jordan_wigner",
    "lower_basic",
    "max_var",
    "parse_circuit",
    "parse_dimacs",
    "parse_expr",
    "qubo_objective",
    "serialize",
    "simulate_circuit",
    "spectrum",
    "spin_lowering",
    "spin_raising",
    "table_from_fourier",
    "to_text",
    "truth_table",
    "verify_kickback_suite",
]
