"""Exact conformal (super)algebra tables and their dual differential coalgebras.

The package constructs every family in the finite simple classification
(Vir, currents, W_n, S_n, S_{n,b}, S~_n, K_n, K_4', CK_6 on the Lie side;
J_n, JS_1, JCK_4 and Jordan currents on the Jordan side), verifies the
defining identities with exact Q(beta) arithmetic, dualizes structure
constants via Q(x, y) = P(x, -x-y), and cross-checks the result against
independently transcribed closed-form coproduct tables.
"""

from .conformal import (
    ConformalElement,
    Generator,
    LambdaStructure,
    ModuleMap,
    Report,
    StructureError,
    bracket,
    check_jacobi,
    check_jordan_comm,
    check_jordan_identity,
    check_skew,
    kernel_basis,
    shift_spectral,
)
from .coalgebra import (
    Coproduct,
    check_jordan_coalgebra,
    check_lie_coalgebra,
    compare,
    double_dual_roundtrip,
    dualize,
)
from .poly import MultiPoly, Scalar

__all__ = [
    "ConformalElement", "Generator", "LambdaStructure", "ModuleMap",
    "Report", "StructureError", "bracket", "check_jacobi",
    "check_jordan_comm", "check_jordan_identity", "check_skew",
    "kernel_basis", "shift_spectral", "Coproduct", "check_jordan_coalgebra",
    "check_lie_coalgebra", "compare", "double_dual_roundtrip", "dualize",
    "MultiPoly", "Scalar",
]

__version__ = "0.1.0"
