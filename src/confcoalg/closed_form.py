"""Closed-form coproduct tables, transcribed sum by sum.

Every emitter here builds its ``Coproduct`` directly from the tabulated
formulas over the dual basis; none of them goes through ``dualize`` (a
structural test enforces this), so agreement of the two paths is a genuine
cross-check of the hand-computed tables.

Dual-symbol conventions used while transcribing:

* xi/C symbols with permuted indices resolve with the permutation sign,
  exactly like their primal counterparts (the pairing is diagonal);
* a 3-index C symbol without the index 1 resolves through the primal
  relation C_{I^c} = beta (-1)^{alpha(I^c, I)} C_I, which for the dual
  symbol contributes the inverse scalar;
* an A-pair dual symbol A*_{I,p,q} whose pair is not consecutive in the
  complement of I resolves to zero (the adjoint of the telescoping rewrite:
  a consecutive-pair functional extends by "interval containment", and a
  separated pair is contained in no single consecutive interval).

In the slot-variable encoding, multiplying a term by x1 puts d on the left
tensor factor and x2 puts it on the right one.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .coalgebra import Coproduct
from .conformal import Generator, JORDAN, LIE, StructureError
from .families import (
    SnBasisElement,
    _CK6_STAR,
    _ck6_basis_tuples,
    _ck6_name,
    _ck6_parity,
    _mask_of,
    _masks,
    _monomial,
    _sgn,
    _xi_name,
    _xi_word,
    ck6_symbol,
    sl2_constants,
    sn_basis,
)
from .grassmann import alpha_mask, eps_mask, members
from .poly import MultiPoly, P_ONE, Scalar, X1, X2


class _Builder:
    def __init__(self, kind: str, prim: Sequence[Tuple[str, int]], name: str):
        self.gens = [Generator(nm + "*", p) for nm, p in prim]
        self.index = {g.id: i for i, g in enumerate(self.gens)}
        self.kind = kind
        self.name = name
        self.table: Dict[int, List[Tuple[int, int, MultiPoly]]] = {}

    def add(self, k: str, i: str, j: str, p: MultiPoly):
        if p.is_zero():
            return
        self.table.setdefault(self.index[k + "*"], []).append(
            (self.index[i + "*"], self.index[j + "*"], p)
        )

    def done(self) -> Coproduct:
        return Coproduct(self.kind, self.gens, self.table, self.name)


def _submasks(m: int):
    sub = m
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & m


def _deg(m: int) -> int:
    return bin(m).count("1")


# ---------------------------------------------------------------------------
# Vir and currents


def coproduct_vir() -> Coproduct:
    """delta(L*) = d L* (x) L* - L* (x) d L*."""
    b = _Builder(LIE, [("L", 0)], "Vir^c[formula]")
    b.add("L", "L", "L", X1 - X2)
    return b.done()


def coproduct_current(
    gen_names: Sequence[str],
    parities: Sequence[int],
    products: Dict[Tuple[str, str], List[Tuple[str, Scalar]]],
    kind: str = LIE,
    name: str = "Cur^c[formula]",
) -> Coproduct:
    """delta(f) = dual of the finite-dimensional bracket, lambda-free."""
    b = _Builder(kind, list(zip(gen_names, parities)), name)
    for (u, v), terms in products.items():
        for w, c in terms:
            b.add(w, u, v, MultiPoly.const(c))
    return b.done()


def coproduct_cur_sl2() -> Coproduct:
    names, pars, prods = sl2_constants()
    return coproduct_current(names, pars, prods, LIE, "Cur(sl2)^c[formula]")


# ---------------------------------------------------------------------------
# W_n


def _w_primal(n: int) -> List[Tuple[str, int]]:
    out = [(_xi_name(m), _deg(m) & 1) for m in _masks(n)]
    for m in _masks(n):
        for i in range(1, n + 1):
            out.append((_w_name(m, i), (_deg(m) + 1) & 1))
    return out


def _w_name(m: int, i: int = 0) -> str:
    return _xi_word(m) + f"d{i}" if i else _xi_name(m)


def coproduct_W(n: int) -> Coproduct:
    """The two displayed sums for delta(xi_K*) and delta((xi_K d_k)*)."""
    b = _Builder(LIE, _w_primal(n), f"W_{n}^c[formula]")
    for K in _masks(n):
        Kn = _w_name(K)
        # pairs with ord(I, J) = K
        for I in _submasks(K):
            J = K & ~I
            a = alpha_mask(I, J)
            c = _sgn(a)
            kosz = _sgn(_deg(I) * _deg(J))
            b.add(Kn, _w_name(I), _w_name(J), X2 * c)
            b.add(Kn, _w_name(J), _w_name(I), X1 * (-c * kosz))
            for k in range(1, n + 1):
                Kkn = _w_name(K, k)
                kosz2 = _sgn(_deg(I) * (_deg(J) + 1))
                b.add(Kkn, _w_name(I), _w_name(J, k), X2 * c)
                b.add(Kkn, _w_name(J, k), _w_name(I), X1 * (-c * kosz2))
        # triples (I, J, i): i in J, I cap (J - i) = empty, ord(I, J - i) = K
        for I in _submasks(K):
            Jm = K & ~I
            for i in range(1, n + 1):
                if Jm & _mask_of(i):
                    continue
                if not (I & _mask_of(i) or not (K & _mask_of(i))):
                    continue
                J = Jm | _mask_of(i)
                c = _sgn(eps_mask(i, J) + alpha_mask(I, Jm))
                cf = MultiPoly.const(c)
                kosz = _sgn(_deg(J) * (_deg(I) + 1))
                b.add(Kn, _w_name(I, i), _w_name(J), cf)
                b.add(Kn, _w_name(J), _w_name(I, i),
                      MultiPoly.const(-c * kosz))
                for k in range(1, n + 1):
                    Kkn = _w_name(K, k)
                    kosz2 = _sgn((_deg(I) + 1) * (_deg(J) + 1))
                    b.add(Kkn, _w_name(I, i), _w_name(J, k), cf)
                    b.add(Kkn, _w_name(J, k), _w_name(I, i),
                          MultiPoly.const(-c * kosz2))
    return b.done()


# ---------------------------------------------------------------------------
# K_n and the N = 2, 3, 4 lists


def _k_primal(n: int) -> List[Tuple[str, int]]:
    return [(_xi_name(m), _deg(m) & 1) for m in _masks(n)]


def coproduct_K(n: int) -> Coproduct:
    """delta(xi_K*) = sum (-1)^alpha (|J|-2) [d xi_I* (x) xi_J*
    - (-1)^{|I||J|} xi_J* (x) d xi_I*]  +  the I cap J = {i} contact sum.

    The second displayed exponent's stray index is read as eps_i^I (the
    cross-check against the machine dual adjudicates the reading).
    """
    b = _Builder(LIE, _k_primal(n), f"K_{n}^c[formula]")
    for K in _masks(n):
        Kn = _xi_name(K)
        for I in _submasks(K):
            J = K & ~I
            c = _sgn(alpha_mask(I, J)) * (_deg(J) - 2)
            kosz = _sgn(_deg(I) * _deg(J))
            b.add(Kn, _xi_name(I), _xi_name(J), X1 * c)
            b.add(Kn, _xi_name(J), _xi_name(I), X2 * (-c * kosz))
        for Ip in _submasks(K):
            Jp = K & ~Ip
            for i in range(1, n + 1):
                if K & _mask_of(i):
                    continue
                I = Ip | _mask_of(i)
                J = Jp | _mask_of(i)
                e = (
                    _deg(I)
                    + eps_mask(i, I)
                    + eps_mask(i, J)
                    + alpha_mask(Ip, Jp)
                )
                b.add(Kn, _xi_name(I), _xi_name(J), MultiPoly.const(_sgn(e)))
    return b.done()


def _xi_sym(idxs: Tuple[int, ...]) -> Optional[Tuple[int, str]]:
    """xi dual symbol with arbitrary index order: (sign, sorted name)."""
    sign, m = _monomial(idxs)
    return (sign, _xi_name(m)) if sign else None


def _n4_rows(drop_star: bool):
    """The N=4 list as (K-tuple, [(coeff-poly, left-tuple, right-tuple)]).

    Index tuples denote xi monomial symbols; () is 1 and (1,2,3,4) is
    xi_star.  With drop_star the xi_star* terms of the |K| = 3 display are
    removed (the K_4-prime reuse).
    """
    rows = []
    one: Tuple[int, ...] = ()
    star = (1, 2, 3, 4)
    # delta(1*)
    terms = [(X2 * 2, one, one), (X1 * (-2), one, one)]
    for i in range(1, 5):
        terms.append((MultiPoly.const(-1), (i,), (i,)))
    rows.append((one, terms))
    # delta(xi_k*)
    for k in range(1, 5):
        terms = [
            (X2 * 2, one, (k,)), (X1 * (-2), (k,), one),
            (X2, (k,), one), (X1 * (-1), one, (k,)),
        ]
        for i in range(1, k):
            terms += [(P_ONE, (i, k), (i,)), (MultiPoly.const(-1), (i,), (i, k))]
        for i in range(k + 1, 5):
            terms += [(P_ONE, (i,), (k, i)), (MultiPoly.const(-1), (k, i), (i,))]
        rows.append(((k,), terms))
    # delta(xi_kl*)
    for k in range(1, 5):
        for l in range(k + 1, 5):
            terms = [
                (X2 * 2, one, (k, l)), (X1 * (-2), (k, l), one),
                (X2, (k,), (l,)), (X1, (l,), (k,)),
                (X1 * (-1), (k,), (l,)), (X2 * (-1), (l,), (k,)),
            ]
            for i in range(1, k):
                terms += [
                    (MultiPoly.const(-1), (i, k, l), (i,)),
                    (MultiPoly.const(-1), (i,), (i, k, l)),
                    (P_ONE, (i, k), (i, l)), (P_ONE, (i, l), (i, k)),
                ]
            for i in range(k + 1, l):
                terms += [
                    (P_ONE, (k, i, l), (i,)), (P_ONE, (i,), (k, i, l)),
                    (MultiPoly.const(-1), (k, i), (i, l)), (P_ONE, (i, l), (k, i)),
                ]
            for i in range(l + 1, 5):
                terms += [
                    (MultiPoly.const(-1), (k, l, i), (i,)),
                    (MultiPoly.const(-1), (i,), (k, l, i)),
                    (P_ONE, (k, i), (l, i)), (MultiPoly.const(-1), (l, i), (k, i)),
                ]
            rows.append(((k, l), terms))
    # delta(xi_klm*)
    for k, l, m in itertools.combinations(range(1, 5), 3):
        terms = [
            (X2 * 2, one, (k, l, m)), (X1 * (-2), (k, l, m), one),
            (X1, one, (k, l, m)), (X2 * (-1), (k, l, m), one),
            (X1 * (-1), (k, l), (m,)), (X2, (m,), (k, l)),
            (X1, (k, m), (l,)), (X2 * (-1), (l,), (k, m)),
            (X1 * (-1), (l, m), (k,)), (X2, (k,), (l, m)),
        ]
        def star_terms(i, sign):
            if drop_star:
                return []
            return [
                (MultiPoly.const(sign), star, (i,)),
                (MultiPoly.const(-sign), (i,), star),
            ]
        for i in range(1, k):
            terms += star_terms(i, 1)
            terms += [
                (MultiPoly.const(-1), (i, k, l), (i, m)), (P_ONE, (i, m), (i, k, l)),
                (P_ONE, (i, k, m), (i, l)), (MultiPoly.const(-1), (i, l), (i, k, m)),
                (MultiPoly.const(-1), (i, l, m), (i, k)), (P_ONE, (i, k), (i, l, m)),
            ]
        for i in range(k + 1, l):
            terms += star_terms(i, -1)
            terms += [
                (P_ONE, (k, i, l), (i, m)), (MultiPoly.const(-1), (i, m), (k, i, l)),
                (MultiPoly.const(-1), (k, i, m), (i, l)), (P_ONE, (i, l), (k, i, m)),
                (P_ONE, (i, l, m), (k, i)), (MultiPoly.const(-1), (k, i), (i, l, m)),
            ]
        for i in range(l + 1, m):
            terms += star_terms(i, 1)
            terms += [
                (MultiPoly.const(-1), (k, l, i), (i, m)), (P_ONE, (i, m), (k, l, i)),
                (P_ONE, (k, i, m), (l, i)), (MultiPoly.const(-1), (l, i), (k, i, m)),
                (MultiPoly.const(-1), (l, i, m), (k, i)), (P_ONE, (k, i), (l, i, m)),
            ]
        for i in range(m + 1, 5):
            terms += star_terms(i, -1)
            terms += [
                (P_ONE, (k, l, i), (m, i)), (MultiPoly.const(-1), (m, i), (k, l, i)),
                (MultiPoly.const(-1), (k, m, i), (l, i)), (P_ONE, (l, i), (k, m, i)),
                (P_ONE, (l, m, i), (k, i)), (MultiPoly.const(-1), (k, i), (l, m, i)),
            ]
        rows.append(((k, l, m), terms))
    if not drop_star:
        terms = [
            (X2 * 2, one, star), (X1 * (-2), star, one),
            (X1 * 2, one, star), (X2 * (-2), star, one),
            (X1 * (-1), (1, 2, 3), (4,)), (X2 * (-1), (4,), (1, 2, 3)),
            (X2 * (-1), (1, 2, 3), (4,)), (X1 * (-1), (4,), (1, 2, 3)),
            (X1, (1, 2, 4), (3,)), (X2, (3,), (1, 2, 4)),
            (X2, (1, 2, 4), (3,)), (X1, (3,), (1, 2, 4)),
            (X1 * (-1), (1, 3, 4), (2,)), (X2 * (-1), (2,), (1, 3, 4)),
            (X2 * (-1), (1, 3, 4), (2,)), (X1 * (-1), (2,), (1, 3, 4)),
            (X1, (2, 3, 4), (1,)), (X2, (1,), (2, 3, 4)),
            (X2, (2, 3, 4), (1,)), (X1, (1,), (2, 3, 4)),
        ]
        rows.append((star, terms))
    return rows


def coproduct_N(n: int) -> Coproduct:
    """Verbatim transcription of the N = 2, 3, 4 superconformal lists."""
    if n not in (2, 3, 4):
        raise StructureError("the N-lists cover n in {2, 3, 4}")
    b = _Builder(LIE, _k_primal(n), f"N={n}[formula]")
    one: Tuple[int, ...] = ()

    def add(K, coeff, lt, rt):
        sl = _xi_sym(lt)
        sr = _xi_sym(rt)
        sk = _xi_sym(K)
        if sl is None or sr is None:
            return
        b.add(sk[1], sl[1], sr[1], coeff * (sl[0] * sr[0] * sk[0]))

    # delta(1*), common to all three cases (the n = 4 row list already
    # contains it)
    if n in (2, 3):
        add(one, X2 * 2, one, one)
        add(one, X1 * (-2), one, one)
        for i in range(1, n + 1):
            add(one, MultiPoly.const(-1), (i,), (i,))

    if n == 2:
        for i in (1, 2):
            ic = 2 if i == 1 else 1
            add((i,), X2 * 2, one, (i,))
            add((i,), X1 * (-2), (i,), one)
            add((i,), X2, (i,), one)
            add((i,), X1 * (-1), one, (i,))
            add((i,), P_ONE, (ic,), (1, 2))
            add((i,), MultiPoly.const(-1), (1, 2), (ic,))
        add((1, 2), X2 * 2, one, (1, 2))
        add((1, 2), X1 * (-2), (1, 2), one)
        add((1, 2), X2 * (-1), (2,), (1,))
        add((1, 2), X1 * (-1), (1,), (2,))
        add((1, 2), X2, (1,), (2,))
        add((1, 2), X1, (2,), (1,))
        return b.done()

    if n == 3:
        for i in (1, 2, 3):
            add((i,), X2 * 2, one, (i,))
            add((i,), X1 * (-2), (i,), one)
            add((i,), X2, (i,), one)
            add((i,), X1 * (-1), one, (i,))
            for k in (1, 2, 3):
                if k != i:
                    add((i,), P_ONE, (k,), (i, k))
                    add((i,), MultiPoly.const(-1), (i, k), (k,))
        for i, j in ((1, 2), (1, 3), (2, 3)):
            k = ({1, 2, 3} - {i, j}).pop()
            add((i, j), X2 * 2, one, (i, j))
            add((i, j), X1 * (-2), (i, j), one)
            add((i, j), X2, (i,), (j,))
            add((i, j), X1, (j,), (i,))
            add((i, j), X1 * (-1), (i,), (j,))
            add((i, j), X2 * (-1), (j,), (i,))
            add((i, j), MultiPoly.const(_sgn(k)), (1, 2, 3), (k,))
            add((i, j), MultiPoly.const(_sgn(k)), (k,), (1, 2, 3))
            add((i, j), P_ONE, (k, j), (i, k))
            add((i, j), MultiPoly.const(-1), (i, k), (k, j))
        K = (1, 2, 3)
        add(K, X2 * 2, one, K)
        add(K, X1 * (-2), K, one)
        add(K, X1, one, K)
        add(K, X2 * (-1), K, one)
        add(K, X2, (1,), (2, 3))
        add(K, X1 * (-1), (2, 3), (1,))
        add(K, X2 * (-1), (2,), (1, 3))
        add(K, X1, (1, 3), (2,))
        add(K, X2, (3,), (1, 2))
        add(K, X1 * (-1), (1, 2), (3,))
        return b.done()

    for K, terms in _n4_rows(drop_star=False):
        for coeff, lt, rt in terms:
            add(K, coeff, lt, rt)
    return b.done()


def coproduct_K4prime() -> Coproduct:
    """delta on (K_4')^c: the K_4 list with xi_star* terms removed, plus the
    d xi_star generator's displayed sums."""
    prim = [(_xi_name(m), _deg(m) & 1) for m in _masks(4) if m != 0b1111]
    prim.append(("dxistar", 0))
    b = _Builder(LIE, prim, "K_4'^c[formula]")

    def add(K, coeff, lt, rt):
        names = []
        for t in (K, lt, rt):
            if t == "dxistar":
                names.append(t)
            else:
                s = _xi_sym(t)
                if s is None:
                    return
                coeff = coeff * s[0]
                names.append(s[1])
        b.add(names[0], names[1], names[2], coeff)

    for K, terms in _n4_rows(drop_star=True):
        for coeff, lt, rt in terms:
            add(K, coeff, lt, rt)
    # the extra |K| = 3 term with (d xi_star)*
    for K in itertools.combinations(range(1, 5), 3):
        (mm,) = tuple(sorted(set(range(1, 5)) - set(K)))
        sg = _sgn(mm - 1)
        add(K, X2 * sg, (mm,), "dxistar")
        add(K, X1 * (-sg), "dxistar", (mm,))
    # delta((d xi_star)*)
    b.add("dxistar", "dxistar", "1", X1 * (-2))
    b.add("dxistar", "1", "dxistar", X2 * 2)
    for i in range(1, 5):
        ic = tuple(sorted(set(range(1, 5)) - {i}))
        sg = -_sgn(i - 1)
        add("dxistar", MultiPoly.const(sg), ic, (i,))
        add("dxistar", MultiPoly.const(sg), (i,), ic)
    return b.done()


# ---------------------------------------------------------------------------
# S_n


def _sn_primal(n: int) -> List[Tuple[str, int]]:
    return [(b.name(), b.parity()) for b in sn_basis(n)]


def _B_name(m: int) -> str:
    return SnBasisElement("B", m).name()


def _A_name(m: int, i: int) -> str:
    return SnBasisElement("A", m, i).name()


def _A2_dual(n: int, I: int, p: int, q: int) -> Optional[Tuple[int, str]]:
    """A-pair dual symbol: the basis name when (p, q) is consecutive in I^c
    (with orientation sign), zero otherwise -- the adjoint of telescoping."""
    if p == q:
        return None
    sign = 1
    if p > q:
        p, q = q, p
        sign = -1
    between = ((1 << (q - 1)) - 1) & ~((1 << p) - 1)
    if ((~I) & ((1 << n) - 1)) & between:
        return None
    return sign, SnBasisElement("A2", I, p, q).name()


def _pair_coeff(j: int, i: int, a: int, b_: int) -> int:
    """Coefficient of the consecutive basis pair (a, b_) of K^c in the
    telescoped expansion of the raw pair element A_{K, j, i}."""
    if j == i:
        return 0
    s = 1
    if j > i:
        j, i = i, j
        s = -1
    return s if (j <= a and b_ <= i) else 0


def coproduct_S(n: int) -> Coproduct:
    """The three displayed formulas for delta(B_K*), delta(A_{K,k}*) and
    delta(A_{K,i_k,i_{k+1}}*), transcribed sum by sum.

    The second-sum exponent of the pair formula is read as
    |I| + |J| + alpha(I-j, J-i) (with the plus), and dual-functional
    evaluations on raw pair elements resolve through the telescoped basis
    coefficient; both readings are adjudicated by the machine cross-check.
    """
    if n < 2:
        raise StructureError("S_n needs n >= 2")
    b = _Builder(LIE, _sn_primal(n), f"S_{n}^c[formula]")
    full = (1 << n) - 1

    def comp_members(m: int) -> Tuple[int, ...]:
        return members(~m & full)

    # ---- delta(B_K*) ----
    for K in _masks(n):
        if _deg(K) == n:
            continue
        Kn = _B_name(K)
        for I in _submasks(K):
            J = K & ~I
            dI, dJ = _deg(I), _deg(J)
            al = _sgn(alpha_mask(I, J))
            kosz = _sgn(dI * dJ)
            # sum 1
            c = MultiPoly.const(al * (n - dJ))
            b.add(Kn, _B_name(I), _B_name(J), c * X1)
            b.add(Kn, _B_name(J), _B_name(I), c * X2 * (-kosz))
            # sums 3 and 4 over consecutive pairs of I^c
            comp = comp_members(I)
            for r in range(len(comp) - 1):
                ir, ir1 = comp[r], comp[r + 1]
                in_r = bool(J & _mask_of(ir))
                in_r1 = bool(J & _mask_of(ir1))
                if in_r == in_r1:
                    continue
                den = dI + dJ - n
                assert den != 0
                cc = MultiPoly.const(Fraction(dJ - n, den) * al)
                if in_r1:  # i_r not in J, i_{r+1} in J: leading minus
                    cc = -cc
                a2 = SnBasisElement("A2", I, ir, ir1).name()
                kosz2 = _sgn(dI * dJ)
                b.add(Kn, a2, _B_name(J), cc)
                b.add(Kn, _B_name(J), a2, -cc * kosz2)
        # sum 2: i in J, i not in I
        for I in _submasks(K):
            Jm = K & ~I
            for i in range(1, n + 1):
                if (K | I) & _mask_of(i):
                    continue
                J = Jm | _mask_of(i)
                dI, dJ = _deg(I), _deg(J)
                den = dI + dJ - n - 1
                assert den != 0
                c = MultiPoly.const(
                    Fraction(dJ - n, den)
                    * _sgn(eps_mask(i, J) + alpha_mask(I, Jm))
                )
                kosz = _sgn((dI + 1) * dJ)
                b.add(Kn, _A_name(I, i), _B_name(Jm | _mask_of(i)), c)
                b.add(Kn, _B_name(Jm | _mask_of(i)), _A_name(I, i), -c * kosz)

    # ---- delta(A_{K,k}*) ----
    for K in _masks(n):
        for k in comp_members(K):
            Kn = _A_name(K, k)
            for I in _submasks(K):
                J = K & ~I
                dI, dJ = _deg(I), _deg(J)
                al = _sgn(alpha_mask(I, J))
                # sum 1: neighbours of k in I^c
                compI = comp_members(I)
                r = compI.index(k)
                kosz = _sgn(dI * (dJ + 1))
                if r + 1 < len(compI):
                    a2 = SnBasisElement("A2", I, k, compI[r + 1]).name()
                    b.add(Kn, a2, _A_name(J, k), MultiPoly.const(-al))
                    b.add(Kn, _A_name(J, k), a2, MultiPoly.const(al * kosz))
                if r > 0:
                    a2 = SnBasisElement("A2", I, compI[r - 1], k).name()
                    b.add(Kn, a2, _A_name(J, k), MultiPoly.const(al))
                    b.add(Kn, _A_name(J, k), a2, MultiPoly.const(-al * kosz))
                # sum 3: B-paired terms
                c = MultiPoly.const(al * _sgn(dJ))
                kosz3 = _sgn((dI + 1) * dJ)
                left = X1 * (n - dJ) + X2 * (dI - 1)
                right = X2 * (n - dJ) + X1 * (dI - 1)
                b.add(Kn, _A_name(I, k), _B_name(J), c * left)
                b.add(Kn, _B_name(J), _A_name(I, k), c * right * (-kosz3))
            # sum 2: i in J, i not in I, i != k
            for I in _submasks(K):
                Jm = K & ~I
                for i in range(1, n + 1):
                    if (K | I) & _mask_of(i) or i == k:
                        continue
                    J = Jm | _mask_of(i)
                    dI, dJ = _deg(I), _deg(J)
                    c = MultiPoly.const(
                        _sgn(eps_mask(i, J) + alpha_mask(I, Jm))
                    )
                    kosz = _sgn((dI + 1) * (dJ + 1))
                    b.add(Kn, _A_name(I, i), _A_name(J, k), c)
                    b.add(Kn, _A_name(J, k), _A_name(I, i), -c * kosz)

    # ---- delta(A_{K,i_k,i_{k+1}}*) ----
    for K in _masks(n):
        compK = comp_members(K)
        for rK in range(len(compK) - 1):
            ik, ik1 = compK[rK], compK[rK + 1]
            Kn = SnBasisElement("A2", K, ik, ik1).name()
            # sum 1: l in I, ord(I - l, J) = K
            for Ip in _submasks(K):
                J = K & ~Ip
                for l in range(1, n + 1):
                    if (K & _mask_of(l)) or l in (ik, ik1):
                        continue
                    I = Ip | _mask_of(l)
                    dI, dJ = _deg(I), _deg(J)
                    sym = _A2_dual(n, I, ik, ik1)
                    if sym is None:
                        continue
                    sg, a2 = sym
                    c = MultiPoly.const(
                        sg * _sgn(
                            eps_mask(l, I) + 1 + dI + dJ + alpha_mask(Ip, J)
                        )
                    )
                    kosz = _sgn(dI * (dJ + 1))
                    b.add(Kn, a2, _A_name(J, l), c)
                    b.add(Kn, _A_name(J, l), a2, -c * kosz)
            # sum 2: i in J \ I, j in I \ J
            for Ip in _submasks(K):
                Jp = K & ~Ip
                for i in range(1, n + 1):
                    if K & _mask_of(i):
                        continue
                    for j in range(1, n + 1):
                        if j == i or (K & _mask_of(j)):
                            continue
                        I = Ip | _mask_of(j)
                        J = Jp | _mask_of(i)
                        ev = _pair_coeff(j, i, ik, ik1)
                        if not ev:
                            continue
                        dI, dJ = _deg(I), _deg(J)
                        c = MultiPoly.const(
                            ev * _sgn(
                                eps_mask(i, J) + eps_mask(j, I)
                                + dI + dJ + alpha_mask(Ip, Jp)
                            )
                        )
                        kosz = _sgn((dI + 1) * (dJ + 1))
                        b.add(Kn, _A_name(I, i), _A_name(J, j), c)
                        b.add(Kn, _A_name(J, j), _A_name(I, i), -c * kosz)
            # sum 3: i in J, I cap J = empty, inner sum over j
            for I in _submasks(K):
                Jm = K & ~I
                for i in range(1, n + 1):
                    if (K | I) & _mask_of(i):
                        continue
                    J = Jm | _mask_of(i)
                    dI, dJ = _deg(I), _deg(J)
                    den = dI + dJ - n - 1
                    assert den != 0
                    ev = 0
                    for j in comp_members(K | _mask_of(i)):
                        ev += _pair_coeff(j, i, ik, ik1)
                    if not ev:
                        continue
                    c = MultiPoly.const(
                        Fraction(ev, den)
                        * _sgn(eps_mask(i, J) + alpha_mask(I, Jm))
                    )
                    kosz = _sgn((dI + 1) * dJ)
                    left = X2 * (1 - dI) + X1 * (dJ - n)
                    right = X1 * (1 - dI) + X2 * (dJ - n)
                    b.add(Kn, _A_name(I, i), _B_name(J), c * left)
                    b.add(Kn, _B_name(J), _A_name(I, i), c * right * (-kosz))
            # sums 4, 5, 6: B-paired terms over disjoint (I, J) with ord = K
            for I in _submasks(K):
                J = K & ~I
                dI, dJ = _deg(I), _deg(J)
                al = _sgn(alpha_mask(I, J))
                kosz = _sgn(dI * dJ)
                sym = _A2_dual(n, I, ik, ik1)
                if sym is not None:
                    sg, a2 = sym
                    c = MultiPoly.const(al * sg)
                    left = X1 * (n - dJ) + X2 * dI
                    right = X2 * (n - dJ) + X1 * dI
                    b.add(Kn, a2, _B_name(J), c * left)
                    b.add(Kn, _B_name(J), a2, c * right * (-kosz))
                compI = comp_members(I)
                for r in range(len(compI) - 1):
                    jr, jr1 = compI[r], compI[r + 1]
                    in_r = bool(J & _mask_of(jr))
                    in_r1 = bool(J & _mask_of(jr1))
                    if in_r == in_r1:
                        continue
                    den = dI + dJ - n
                    assert den != 0
                    anchor = jr1 if in_r else jr
                    ev = 0
                    for j in comp_members(K):
                        ev += _pair_coeff(j, anchor, ik, ik1)
                    if not ev:
                        continue
                    c = MultiPoly.const(Fraction(ev * al, den))
                    if not in_r:  # j_r not in J, j_{r+1} in J: leading minus
                        c = -c
                    a2 = SnBasisElement("A2", I, jr, jr1).name()
                    left = X1 * (dJ - n) - X2 * dI
                    right = X2 * (dJ - n) - X1 * dI
                    b.add(Kn, a2, _B_name(J), c * left)
                    b.add(Kn, _B_name(J), a2, c * right * (-kosz))
    return b.done()


# ---------------------------------------------------------------------------
# CK_6


def _ck6_dual(t: Tuple[int, ...]) -> Optional[Tuple[Scalar, str]]:
    """Dual C symbol with arbitrary indices: (coefficient, basis name).

    Permutations contribute their sign; a 3-tuple without 1 reduces through
    the inverse of the primal scaling relation (1/beta = -beta).
    """
    coords = ck6_symbol(t)
    if not coords:
        return None
    (nm, c), = coords.items()
    return c.inverse(), nm


def _contact_sign(x: int, y: int, z: int) -> int:
    """(-1)^(alpha(I, I^c) + alpha({x}, I^c) + alpha({x} + I^c, {y, z})) for I = {x, y, z}."""
    X, YZ = _mask_of(x), _mask_of(y) | _mask_of(z)
    Ic = _CK6_STAR ^ X ^ YZ
    return _sgn(alpha_mask(X | YZ, Ic) + alpha_mask(X, Ic) + alpha_mask(X | Ic, YZ))


def coproduct_CK6() -> Coproduct:
    """The displayed coproducts of L*, C_l*, C_{1st}* and C_{rs}*."""
    prim = [(_ck6_name(t), _ck6_parity(t)) for t in _ck6_basis_tuples()]
    b = _Builder(LIE, prim, "CK_6^c[formula]")
    beta = Scalar.beta()

    def add(K: str, coeff: MultiPoly, lt: Tuple[int, ...], rt: Tuple[int, ...]):
        sl = _ck6_dual(lt)
        sr = _ck6_dual(rt)
        if sl is None or sr is None:
            return
        b.add(K, sl[1], sr[1], coeff.scalar_mul(sl[0] * sr[0]))

    # delta(L*)
    b.add("L", "L", "L", X1 - X2)
    for i in range(1, 7):
        add("L", MultiPoly.const(2), (i,), (i,))

    # delta(C_l*)
    for l in range(1, 7):
        Kn = f"C{l}"
        add(Kn, X1, (l,), ())
        add(Kn, -X2, (), (l,))
        for k in range(1, 7):
            if k == l:
                continue
            pair = (k, l) if k < l else (l, k)
            add(Kn, P_ONE, pair, (k,))
            add(Kn, MultiPoly.const(-1), (k,), pair)

    # delta(C_{1st}*)
    for s in range(2, 7):
        for t in range(s + 1, 7):
            Kn = f"C1{s}{t}"
            I = 1 | _mask_of(s) | _mask_of(t)
            Ic = _CK6_STAR ^ I
            a_, b_, c_ = members(Ic)
            add(Kn, X1, (1, s, t), ())
            add(Kn, -X2, (), (1, s, t))
            half = MultiPoly.const(Fraction(1, 2))
            add(Kn, half * X2, (1, s, t), ())
            add(Kn, -half * X1, (), (1, s, t))
            add(Kn, -X1, (1, s), (t,))
            add(Kn, X2, (t,), (1, s))
            add(Kn, X1, (1, t), (s,))
            add(Kn, -X2, (s,), (1, t))
            add(Kn, -X1, (s, t), (1,))
            add(Kn, X2, (1,), (s, t))
            bsg = MultiPoly.const(beta * Scalar(_sgn(alpha_mask(Ic, I))))
            for u, vw in ((a_, (b_, c_)), (b_, (a_, c_)), (c_, (a_, b_))):
                add(Kn, bsg, (1, u), (1,) + vw)
                add(Kn, -bsg, (1,) + vw, (1, u))
            for i in range(2, s):
                add(Kn, P_ONE, (i, s), (1, i, t))
                add(Kn, MultiPoly.const(-1), (1, i, t), (i, s))
                add(Kn, MultiPoly.const(-1), (i, t), (1, i, s))
                add(Kn, P_ONE, (1, i, s), (i, t))
            for i in range(s + 1, t):
                add(Kn, MultiPoly.const(-1), (s, i), (1, i, t))
                add(Kn, P_ONE, (1, i, t), (s, i))
                add(Kn, P_ONE, (i, t), (1, s, i))
                add(Kn, MultiPoly.const(-1), (1, s, i), (i, t))
            for i in range(t + 1, 7):
                add(Kn, P_ONE, (s, i), (1, t, i))
                add(Kn, MultiPoly.const(-1), (1, t, i), (s, i))
                add(Kn, MultiPoly.const(-1), (t, i), (1, s, i))
                add(Kn, P_ONE, (1, s, i), (t, i))

    # delta(C_{rs}*)
    for r in range(1, 7):
        for s in range(r + 1, 7):
            Kn = f"C{r}{s}"
            add(Kn, X1, (r, s), ())
            add(Kn, -X2, (), (r, s))
            half = MultiPoly.const(Fraction(1, 2))
            add(Kn, -half * X2, (r, s), ())
            add(Kn, half * X1, (), (r, s))
            add(Kn, X2, (r,), (s,))
            add(Kn, X1, (s,), (r,))
            add(Kn, -X1, (r,), (s,))
            add(Kn, -X2, (s,), (r,))
            for i in range(1, r):
                add(Kn, P_ONE, (i, r), (i, s))
                add(Kn, MultiPoly.const(-1), (i, s), (i, r))
            for i in range(r + 1, s):
                add(Kn, MultiPoly.const(-1), (r, i), (i, s))
                add(Kn, P_ONE, (i, s), (r, i))
            for i in range(s + 1, 7):
                add(Kn, P_ONE, (r, i), (s, i))
                add(Kn, MultiPoly.const(-1), (s, i), (r, i))
            # double sum over i, 1 < k < l with {i,1,k,l}^c = {r,s}
            rs = _mask_of(r) | _mask_of(s)
            for i in range(1, 7):
                for k in range(2, 7):
                    for l in range(k + 1, 7):
                        kl = 1 | _mask_of(k) | _mask_of(l)
                        if _mask_of(i) & kl or _mask_of(i) | kl != _CK6_STAR ^ rs:
                            continue
                        e = alpha_mask(_mask_of(i), kl) + alpha_mask(_mask_of(i) | kl, rs)
                        cf = MultiPoly.const(beta * Scalar(_sgn(e)))
                        add(Kn, cf, (i,), (1, k, l))
                        add(Kn, cf, (1, k, l), (i,))
            if r > 1:
                cf = MultiPoly.const(-Scalar(_contact_sign(1, r, s)))
                add(Kn, cf, (1,), (1, r, s))
                add(Kn, cf, (1, r, s), (1,))
            else:
                for i in range(2, s):
                    cf = MultiPoly.const(-Scalar(_contact_sign(i, 1, s)))
                    add(Kn, cf, (i,), (1, i, s))
                    # the display labels this factor C_{i1s}; reading the
                    # subscript as an unordered label (no permutation sign)
                    # keeps the formula tau-antisymmetric
                    add(Kn, cf, (1, i, s), (i,))
                for i in range(s + 1, 7):
                    cf = MultiPoly.const(Scalar(_contact_sign(i, 1, s)))
                    add(Kn, cf, (i,), (1, s, i))
                    add(Kn, cf, (1, s, i), (i,))
    return b.done()


# ---------------------------------------------------------------------------
# Jordan families


def _jn_primal(n: int) -> List[Tuple[str, int]]:
    out = [(_xi_name(m), _deg(m) & 1) for m in _masks(n)]
    out += [(_th_name(m), (_deg(m) + 1) & 1) for m in _masks(n)]
    return out


def _th_name(m: int) -> str:
    return _xi_word(m) + "th"


def coproduct_Jn(n: int) -> Coproduct:
    """The two displayed formulas for Delta((xi_K theta)*) and Delta(xi_K*)."""
    b = _Builder(JORDAN, _jn_primal(n), f"J_{n}^c[formula]")
    for K in _masks(n):
        Ktn = _th_name(K)
        Kn = _xi_name(K)
        for I in _submasks(K):
            J = K & ~I
            dI, dJ = _deg(I), _deg(J)
            al = _sgn(alpha_mask(I, J))
            # Delta((xi_K th)*)
            b.add(Ktn, _xi_name(I), _th_name(J), MultiPoly.const(al))
            b.add(Ktn, _th_name(J), _xi_name(I),
                  MultiPoly.const(al * _sgn(dI * (dJ + 1))))
            # Delta(xi_K*), first and second sums
            b.add(Kn, _xi_name(I), _xi_name(J), MultiPoly.const(al))
            c = MultiPoly.const(_sgn(dJ + alpha_mask(I, J)) * (dJ - 2))
            kosz = _sgn((dI + 1) * (dJ + 1))
            b.add(Kn, _th_name(I), _th_name(J), c * X1)
            b.add(Kn, _th_name(J), _th_name(I), c * X2 * kosz)
        # derivative sums: diagonal pairs up to n-2 and the swapped last two
        for i in range(1, max(n - 1, 0)):
            _add_swap_deriv(b, K, i, i)
        if n >= 2:
            _add_swap_deriv(b, K, n - 1, n)
            _add_swap_deriv(b, K, n, n - 1)
    return b.done()


def _add_swap_deriv(b: "_Builder", K: int, i: int, j: int):
    """The (d_i a)(d_j b) sum of Delta(xi_K*) for the swapped index pair."""
    for Ip in _submasks(K):
        Jp = K & ~Ip
        if Ip & _mask_of(i):
            continue
        if (K & _mask_of(j)) and not (Ip & _mask_of(j)):
            continue
        I = Ip | _mask_of(i)
        J = Jp | _mask_of(j)
        dI, dJ = _deg(I), _deg(J)
        e = (
            dI + dJ
            + eps_mask(i, I)
            + eps_mask(j, J)
            + alpha_mask(Ip, Jp)
        )
        b.add(_xi_name(K), _th_name(I), _th_name(J),
              MultiPoly.const(_sgn(e)))


def coproduct_JS1() -> Coproduct:
    """Delta(T*) = T* (x) S* + S* (x) T*;
    Delta(S*) = 2 S* (x) S* + d T* (x) T* - T* (x) d T*."""
    b = _Builder(JORDAN, [("S", 0), ("T", 1)], "JS_1^c[formula]")
    b.add("T", "T", "S", P_ONE)
    b.add("T", "S", "T", P_ONE)
    b.add("S", "S", "S", MultiPoly.const(2))
    b.add("S", "T", "T", X1 - X2)
    return b.done()


def coproduct_JCK4() -> Coproduct:
    """The displayed JCK_4 coproducts on 1*, x*, omega_i*, x_k*."""
    prim = [("one", 0), ("w1", 0), ("w2", 0), ("w3", 0),
            ("x", 1), ("x1", 1), ("x2", 1), ("x3", 1)]
    b = _Builder(JORDAN, prim, "JCK_4^c[formula]")
    b.add("one", "one", "one", P_ONE)
    for i, sg in ((1, 1), (2, 1), (3, -1)):
        b.add("one", f"w{i}", f"w{i}", MultiPoly.const(sg))
    b.add("one", "x", "x", X1 - X2)
    b.add("x", "one", "x", P_ONE)
    b.add("x", "x", "one", P_ONE)
    for i in (1, 2, 3):
        b.add(f"w{i}", "one", f"w{i}", P_ONE)
        b.add(f"w{i}", f"w{i}", "one", P_ONE)
        b.add(f"w{i}", f"x{i}", "x", P_ONE)
        b.add(f"w{i}", "x", f"x{i}", MultiPoly.const(-1))
    for k in (1, 2, 3):
        b.add(f"x{k}", "one", f"x{k}", P_ONE)
        b.add(f"x{k}", f"x{k}", "one", P_ONE)
        b.add(f"x{k}", f"w{k}", "x", X1)
        b.add(f"x{k}", "x", f"w{k}", X2)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                if i != j and i != k and j != k:
                    b.add(f"x{k}", f"w{i}", f"x{j}", MultiPoly.const(-1))
                    b.add(f"x{k}", f"x{j}", f"w{i}", MultiPoly.const(-1))
    return b.done()
