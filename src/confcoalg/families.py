"""Constructors for every family in the classification.

The constructors are split by series, one module each, so that a command
compiles only the series it builds: families_current (Vir, the currents and
the Jordan current), families_w (W_n and its subalgebras S_n, S_{n,b} and
S~_n), families_contact (K_n, whose K_2, K_3 and K_4 are the N = 2, 3, 4
algebras, and its subalgebras K_4' and CK_6) and families_jordan (J_n, JS_1
and JCK_4).  This module imports all four, so every constructor is reached
here, and holds the negative control corrupt_entry; the command line
imports the one series module of its family (cli.FAMILIES).  The
generator lists that the closed forms share are in bases, the mask helpers
in masks and the restriction machinery of the subalgebras in
restricted.

A constructor runs no check, so constants that break the axioms
(make_current) give a table whose checks fail.  Where the paper tabulates
the brackets (S_n, CK_6), the tabulated formulas are a second, independent
path in printed, which no constructor evaluates.  meta holds only the data
of the construction and is never written afterwards.  The constructors take
any n; the command line's caps on --n live in cli.FAMILIES.

Parity conventions (stated once, used everywhere): p(xi_I) = |I| mod 2 in
the Lambda(n) parts, p(xi_I d_i) = |I|+1, p(xi_I theta) = |I|+1; in CK_6,
L and C_{ij} are even, C_i and C_{ijk} odd; in JS_1, S is even and T odd;
in JCK_4, 1 and omega_i are even, x and x_i odd.
"""

from __future__ import annotations

from .families_contact import make_CK6, make_K, make_K4prime
from .families_current import make_cur_jordan_unit, make_cur_sl2, make_current, make_vir
from .families_jordan import make_JCK4, make_JS1, make_Jn
from .families_w import make_S, make_S_b, make_S_tilde, make_W
from .poly import MultiPoly
from .tables import ConformalElement, LambdaStructure

__all__ = [
    "corrupt_entry", "make_CK6", "make_JCK4", "make_JS1", "make_Jn", "make_K", "make_K4prime",
    "make_S", "make_S_b", "make_S_tilde", "make_W", "make_cur_jordan_unit", "make_cur_sl2",
    "make_current", "make_vir",
]


def corrupt_entry(S: LambdaStructure, left: str, right: str,
                  out: str, p: MultiPoly) -> LambdaStructure:
    """Copy of S with table entry (left, right) replaced by p * out."""
    i, j, k = S.index[left], S.index[right], S.index[out]
    return S.with_entry(i, j, ConformalElement({k: p}))
