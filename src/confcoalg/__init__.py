"""Exact conformal (super)algebra tables and their dual differential coalgebras.

The package constructs every family in the finite simple classification
(Vir, currents, W_n, S_n, S_{n,b}, S~_n, K_n, K_4', CK_6 on the Lie side;
J_n, JS_1, JCK_4 and Jordan currents on the Jordan side), verifies the
defining identities with exact Q(beta) arithmetic, dualizes structure
constants via Q(x, y) = P(x, -x-y), and cross-checks the result against
independently transcribed closed-form coproduct tables.

Importing the package imports none of its modules: each name below is
imported from its module on first use, so a command-line child compiles
only the modules its command runs.
"""

import importlib

# exported name -> the module that defines it
_HOME = {
    **dict.fromkeys((
        "ConformalElement", "Coproduct", "Generator", "LambdaStructure", "StructureError"),
        "tables"),
    **dict.fromkeys((
        "Report", "bracket", "check_jacobi", "check_jordan_comm", "check_jordan_identity",
        "check_skew", "shift_spectral"), "conformal"),
    **dict.fromkeys(("ModuleMap", "kernel_basis"), "restricted"),
    **dict.fromkeys(("compare", "dualize"), "dual"),
    **dict.fromkeys((
        "check_jordan_coalgebra", "check_lie_coalgebra", "double_dual_roundtrip"), "coalgebra"),
    **dict.fromkeys(("MultiPoly", "Scalar"), "poly"),
}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
