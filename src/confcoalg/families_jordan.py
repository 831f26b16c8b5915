"""Constructors of the Jordan series: J_n, JS_1 and JCK_4.

J_n is built straight into the stored form (Table.from_slots); JS_1 and
JCK_4 list their tabulated products and fill the other orders by
commutativity (_mirror_fill).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .bases import _entry_polys, jck4_generators, jn_generators
from .masks import _mask_of, _sgn, _sign_tables, mul_sign
from .poly import D, LAM, MultiPoly, P_ONE
from .tables import Generator, JORDAN, LambdaStructure, StructureError


def make_Jn(n: int) -> LambdaStructure:
    """J_n on Lambda(n) + Lambda(n) theta, rank 2 * 2^n, Jordan kind.

    Products (a, b in Lambda(n)):
      a lam b = ab;  a lam (b th) = (ab) th;  (a th) lam b = (-1)^{|b|} (ab) th;
      (a th) lam (b th) = (-1)^{|b|} [ lam (|a|+|b|-4) ab + (|a|-2) d(ab)
          + (-1)^{|a|} ( sum_{i<=n-2} (d_i a)(d_i b)
                         + (d_n a)(d_{n-1} b) + (d_{n-1} a)(d_n b) ) ].
    The swapped-index derivative terms need two coordinates and are present
    only for n >= 2; for n < 2 the derivative block is empty.
    """
    if n < 0:
        raise StructureError("J_n needs n >= 0")
    gens, ev_idx, th_idx = jn_generators(n)

    # the derivative pairs: (i, i) for i <= n - 2, then the swapped last two
    deriv_pairs = [(i, i) for i in range(1, n - 1)] + ([(n, n - 1), (n - 1, n)] if n >= 2 else [])
    eps_at = _sign_tables(n)[0]
    number: Dict[Tuple[int, int, int], int] = {}    # the index of each value (see _entry_polys)
    slots = []

    def value(c: int, a: int = 0, b: int = 0) -> int:
        return number.setdefault((c, a, b), len(number))

    for I in ev_idx:
        dI = I.bit_count()
        for J in ev_idx:
            dJ = J.bit_count()
            s = mul_sign(I, J)
            if s:
                k, t = I | J, _sgn(dJ) * s
                slots.append((ev_idx[I], ev_idx[J], ev_idx[k], value(s)))
                slots.append((ev_idx[I], th_idx[J], th_idx[k], value(s)))
                slots.append((th_idx[I], ev_idx[J], th_idx[k], value(t)))
                if dI != 2 or dJ != 2:
                    slots.append((th_idx[I], th_idx[J], ev_idx[k],
                                  value(0, (dI - 2) * t, (dI + dJ - 4) * t)))
            # Table._store sums the (a th) lam (b th) terms by target
            for i, j in deriv_pairs:
                if not (I & _mask_of(i) and J & _mask_of(j)):
                    continue
                Ii, Jj = I ^ _mask_of(i), J ^ _mask_of(j)
                sd = mul_sign(Ii, Jj)
                if sd:
                    sd *= _sgn(dJ + dI + eps_at[i][I] + eps_at[j][J])
                    slots.append((th_idx[I], th_idx[J], ev_idx[Ii | Jj], value(sd)))
    return LambdaStructure.from_slots(
        JORDAN, gens, _entry_polys(number), slots, name=f"J_{n}",
        meta={"n": n, "ev_idx": ev_idx, "th_idx": th_idx},
    )


def _mirror_fill(gens, table):
    """Materialise missing (j, i) entries from (i, j) via commutativity."""
    for i, j in [(j, i) for i, j in table if (j, i) not in table]:
        sg = _sgn(gens[i].parity * gens[j].parity)
        table[(i, j)] = [(k, p.subst_general("lam", -LAM - D) * sg) for k, p in table[(j, i)]]


def make_JS1() -> LambdaStructure:
    """JS_1: even S, odd T; S lam S = 2S, T lam T = (2 lam + d) S, T lam S = T."""
    gens = [Generator("S", 0), Generator("T", 1)]
    table = {
        (0, 0): [(0, MultiPoly.const(2))],
        (1, 1): [(0, LAM * 2 + D)],
        (1, 0): [(1, P_ONE)],
    }
    _mirror_fill(gens, table)
    return LambdaStructure(JORDAN, gens, table, name="JS_1")


_JCK4_CROSS = {
    (1, 2): (1, 3), (2, 1): (-1, 3),
    (1, 3): (1, 2), (3, 1): (-1, 2),
    (2, 3): (-1, 1), (3, 2): (1, 1),
}


def make_JCK4() -> LambdaStructure:
    """JCK_4: even 1, omega_1..3; odd x, x_1..3.

    1 is a unit; omega_i lam omega_i = 1 (i = 1, 2), -1 (i = 3);
    omega_i lam x = lam x_i; omega_i lam x_j = -x_{i x j};
    x lam x = (2 lam + d) 1; x_i lam x = omega_i; x_i lam x_j = 0,
    with the cross table x_{1x2} = -x_{2x1} = x_3, x_{1x3} = -x_{3x1} = x_2,
    -x_{2x3} = x_{3x2} = x_1.  Orders without a tabulated product are filled
    by commutativity.
    """
    gens = jck4_generators()
    names = [g.id for g in gens]
    idx = {nm: i for i, nm in enumerate(names)}
    table: Dict[Tuple[int, int], List[Tuple[int, MultiPoly]]] = {}
    for nm in names:
        table[(idx["one"], idx[nm])] = [(idx[nm], P_ONE)]
    for i in (1, 2, 3):
        val = MultiPoly.const(1 if i < 3 else -1)
        table[(idx[f"w{i}"], idx[f"w{i}"])] = [(idx["one"], val)]
        table[(idx[f"w{i}"], idx["x"])] = [(idx[f"x{i}"], LAM)]
        for j in (1, 2, 3):
            s, k = _JCK4_CROSS.get((i, j), (0, 0))
            if s:
                table[(idx[f"w{i}"], idx[f"x{j}"])] = [(idx[f"x{k}"], MultiPoly.const(-s))]
    table[(idx["x"], idx["x"])] = [(idx["one"], LAM * 2 + D)]
    for i in (1, 2, 3):
        table[(idx[f"x{i}"], idx["x"])] = [(idx[f"w{i}"], P_ONE)]
    _mirror_fill(gens, table)
    return LambdaStructure(JORDAN, gens, table, name="JCK_4")
