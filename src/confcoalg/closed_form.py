"""Closed-form coproduct tables, transcribed sum by sum.

Every emitter here builds its ``Coproduct`` directly from the tabulated
formulas over the dual basis; none of them goes through ``dualize`` (a
structural test enforces this), so agreement of the two paths is a genuine
cross-check of the hand-computed tables.

The generator lists are not part of what is checked: W_n, K_n (and the
N = 2, 3, 4 and K_4' lists), J_n and JCK_4 take theirs, with their index
maps, from ``families`` (``w_generators``, ``k_generators``,
``jn_generators``, ``jck4_generators``), and every dual is named, in LaTeX
too, as ``coalgebra.dual_generators`` names the duals of ``dualize``.
S_n, K_4' and CK_6 take their bases, generators and symbols from
``restricted``, which their emitters import inside their bodies, so an
emitter of another family never compiles it.  Each emitter works out every
dual symbol once per call (``_Builder.add_xi``) and then addresses
generators by index; ``_Builder`` sums the terms and builds the
``Coproduct`` from one polynomial per distinct sum.  Nothing is kept
between calls: two calls share no polynomial.

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

import functools
import itertools
import operator
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .coalgebra import Coproduct, dual_generators
from .conformal import Generator, JORDAN, LIE, StructureError
from .families import (
    _mask_of,
    _masks,
    _monomial,
    _sgn,
    jck4_generators,
    jn_generators,
    k_generators,
    sl2_constants,
    w_generators,
)
from .grassmann import alpha_mask, eps_mask, members
from .poly import MultiPoly, Scalar, _VAR_SHIFT, _exact


class _Builder:
    """The coproduct of one emitter call, its entries added by generator index.

    Every coefficient of the lists is c + a x1 + b x2, so put adds the exact
    triple (c, a, b) of each term into one sum per (k, i, j), in order of
    first occurrence, dropping a pair whose sum is zero (put_gaussian does so
    for CK_6's Gaussian sums), and done hands one MultiPoly per distinct sum
    and one slot per pair to Table.from_slots."""

    def __init__(self, kind: str, prim: Sequence[Generator], name: str,
                 xi: Optional[Dict[int, int]] = None):
        self.gens = dual_generators(prim)   # named, LaTeX too, as dualize names them
        self.at = {g.id: i for i, g in enumerate(prim)}   # primal name -> index
        self.xi = xi   # mask m -> the index of xi_m*, for add_xi
        self.kind = kind
        self.name = name
        self.sums: Dict[Tuple[int, int, int], tuple] = {}   # (k, i, j) -> its sum
        self._syms: Dict[Tuple[int, ...], tuple] = {}

    def put(self, k: int, i: int, j: int, c=0, x1=0, x2=0):
        """delta(a_k*) gets the term (c + x1 X1 + x2 X2) a_i* (x) a_j*; the
        parts are ints and Fractions, or Scalars (Cur(sl2)), one kind per pair."""
        s = self.sums.get((k, i, j))
        s = (c, x1, x2) if s is None else (s[0] + c, s[1] + x1, s[2] + x2)
        if s[0] or s[1] or s[2]:
            self.sums[(k, i, j)] = s
        else:
            self.sums.pop((k, i, j), None)

    def put_gaussian(self, k: int, i: int, j: int, parts: tuple):
        """put for CK_6: parts is twice (re c, im c, re x1, im x1, re x2, im x2)."""
        s = self.sums.get((k, i, j))
        s = parts if s is None else tuple(map(operator.add, s, parts))
        if any(s):
            self.sums[(k, i, j)] = s
        else:
            self.sums.pop((k, i, j), None)

    def add(self, k: str, i: str, j: str, c=0, x1=0, x2=0):
        """put, with the generators given by primal name."""
        self.put(self.at[k], self.at[i], self.at[j], c, x1, x2)

    def _xi_sym(self, t: Tuple[int, ...]) -> tuple:
        """The xi dual symbol of an index tuple t in any order as (sign,
        generator index), or () when an index repeats; each tuple is worked
        out once per call."""
        sym = self._syms.get(t)
        if sym is None:
            sign, m = _monomial(t)
            sym = self._syms[t] = (sign, self.xi[m]) if sign else ()
        return sym

    def add_xi(self, k: Tuple[int, ...], coeff, left: Tuple[int, ...], right: Tuple[int, ...]):
        """delta(xi_k*) gets the term coeff xi_left* (x) xi_right*, the xi
        symbols signed as _xi_sym resolves them and coeff a triple (c, x1, x2)
        of put; no term when an index of left or right repeats."""
        sl = self._xi_sym(left)
        if not sl:
            return
        sr = self._xi_sym(right)
        if not sr:
            return
        sk = self._xi_sym(k)
        s = sl[0] * sr[0] * sk[0]
        c, x1, x2 = coeff
        self.put(sk[1], sl[1], sr[1], s * c, s * x1, s * x2)

    def done(self) -> Coproduct:
        number: Dict[tuple, int] = {}     # a sum -> the index of its polynomial
        slots = [(i, j, k, number.setdefault(s, len(number))) for (k, i, j), s in self.sums.items()]
        values = list(map(_sum_poly, number))
        return Coproduct.from_slots(self.kind, self.gens, values, slots, self.name)


_SLOT_MONOMIALS = (0, 1 << _VAR_SHIFT["x1"], 1 << _VAR_SHIFT["x2"])   # 1, x1 and x2


def _sum_poly(s: tuple) -> MultiPoly:
    """c + x1 X1 + x2 X2 of a sum of put, (c, x1, x2), or of put_gaussian,
    (re c, im c, re x1, im x1, re x2, im x2) times 2."""
    if len(s) == 3:
        return MultiPoly({m: x if isinstance(x, Scalar) else Scalar(x)
                          for m, x in zip(_SLOT_MONOMIALS, s) if x})
    return MultiPoly({m: Scalar(Fraction(re, 2), Fraction(im, 2))
                      for m, re, im in zip(_SLOT_MONOMIALS, s[::2], s[1::2]) if re or im})


# coefficient triples (c, x1, x2) of the hand-written lists: c, c x1, c x2
def _c(v):
    return (v, 0, 0)


def _x1(v):
    return (0, v, 0)


def _x2(v):
    return (0, 0, v)


def _submasks(m: int):
    sub = m
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & m


def _deg(m: int) -> int:
    return m.bit_count()


# ---------------------------------------------------------------------------
# Vir and currents


def coproduct_vir() -> Coproduct:
    """delta(L*) = d L* (x) L* - L* (x) d L*."""
    b = _Builder(LIE, [Generator("L", 0, "L")], "Vir^c[formula]")
    b.add("L", "L", "L", x1=1, x2=-1)
    return b.done()


def coproduct_cur_sl2() -> Coproduct:
    """delta(f) = dual of the sl2 bracket, lambda-free."""
    names, pars, prods = sl2_constants()
    b = _Builder(LIE, [Generator(nm, p) for nm, p in zip(names, pars)], "Cur(sl2)^c[formula]")
    for (u, v), terms in prods.items():
        for w, c in terms:
            b.add(w, u, v, c)
    return b.done()


# ---------------------------------------------------------------------------
# W_n


def coproduct_W(n: int) -> Coproduct:
    """The two displayed sums for delta(xi_K*) and delta((xi_K d_k)*)."""
    gens, lam_idx, w_idx = w_generators(n)
    b = _Builder(LIE, gens, f"W_{n}^c[formula]")
    # w[m][0] indexes xi_m*, w[m][k] indexes (xi_m d_k)*
    w = [[lam_idx[m]] + [w_idx[(m, k)] for k in range(1, n + 1)] for m in range(1 << n)]
    for K in lam_idx:
        Kw = w[K]
        # pairs with ord(I, J) = K
        for I in _submasks(K):
            J = K & ~I
            a = alpha_mask(I, J)
            c = _sgn(a)
            kosz = _sgn(_deg(I) * _deg(J))
            b.put(Kw[0], w[I][0], w[J][0], x2=c)
            b.put(Kw[0], w[J][0], w[I][0], x1=-c * kosz)
            for k in range(1, n + 1):
                kosz2 = _sgn(_deg(I) * (_deg(J) + 1))
                b.put(Kw[k], w[I][0], w[J][k], x2=c)
                b.put(Kw[k], w[J][k], w[I][0], x1=-c * kosz2)
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
                kosz = _sgn(_deg(J) * (_deg(I) + 1))
                b.put(Kw[0], w[I][i], w[J][0], c)
                b.put(Kw[0], w[J][0], w[I][i], -c * kosz)
                for k in range(1, n + 1):
                    kosz2 = _sgn((_deg(I) + 1) * (_deg(J) + 1))
                    b.put(Kw[k], w[I][i], w[J][k], c)
                    b.put(Kw[k], w[J][k], w[I][i], -c * kosz2)
    return b.done()


# ---------------------------------------------------------------------------
# K_n and the N = 2, 3, 4 lists


def coproduct_K(n: int) -> Coproduct:
    """delta(xi_K*) = sum (-1)^alpha (|J|-2) [d xi_I* (x) xi_J*
    - (-1)^{|I||J|} xi_J* (x) d xi_I*]  +  the I cap J = {i} contact sum.

    The second displayed exponent's stray index is read as eps_i^I (the
    cross-check against the machine dual adjudicates the reading).
    """
    gens, xi = k_generators(n)
    b = _Builder(LIE, gens, f"K_{n}^c[formula]")
    for K in xi:
        Kx = xi[K]
        for I in _submasks(K):
            J = K & ~I
            c = _sgn(alpha_mask(I, J)) * (_deg(J) - 2)
            kosz = _sgn(_deg(I) * _deg(J))
            b.put(Kx, xi[I], xi[J], x1=c)
            b.put(Kx, xi[J], xi[I], x2=-c * kosz)
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
                b.put(Kx, xi[I], xi[J], _sgn(e))
    return b.done()


def _n4_rows(drop_star: bool):
    """The N=4 list as (K-tuple, [(coefficient triple, left-tuple, right-tuple)]).

    Index tuples denote xi monomial symbols; () is 1 and (1,2,3,4) is
    xi_star.  With drop_star the xi_star* terms of the |K| = 3 display are
    removed (the K_4-prime reuse).
    """
    rows = []
    one: Tuple[int, ...] = ()
    star = (1, 2, 3, 4)
    # delta(1*)
    terms = [(_x2(2), one, one), (_x1(-2), one, one)]
    for i in range(1, 5):
        terms.append((_c(-1), (i,), (i,)))
    rows.append((one, terms))
    # delta(xi_k*)
    for k in range(1, 5):
        terms = [
            (_x2(2), one, (k,)), (_x1(-2), (k,), one),
            (_x2(1), (k,), one), (_x1(-1), one, (k,)),
        ]
        for i in range(1, k):
            terms += [(_c(1), (i, k), (i,)), (_c(-1), (i,), (i, k))]
        for i in range(k + 1, 5):
            terms += [(_c(1), (i,), (k, i)), (_c(-1), (k, i), (i,))]
        rows.append(((k,), terms))
    # delta(xi_kl*)
    for k in range(1, 5):
        for l in range(k + 1, 5):
            terms = [
                (_x2(2), one, (k, l)), (_x1(-2), (k, l), one),
                (_x2(1), (k,), (l,)), (_x1(1), (l,), (k,)),
                (_x1(-1), (k,), (l,)), (_x2(-1), (l,), (k,)),
            ]
            for i in range(1, k):
                terms += [
                    (_c(-1), (i, k, l), (i,)),
                    (_c(-1), (i,), (i, k, l)),
                    (_c(1), (i, k), (i, l)), (_c(1), (i, l), (i, k)),
                ]
            for i in range(k + 1, l):
                terms += [
                    (_c(1), (k, i, l), (i,)), (_c(1), (i,), (k, i, l)),
                    (_c(-1), (k, i), (i, l)), (_c(1), (i, l), (k, i)),
                ]
            for i in range(l + 1, 5):
                terms += [
                    (_c(-1), (k, l, i), (i,)),
                    (_c(-1), (i,), (k, l, i)),
                    (_c(1), (k, i), (l, i)), (_c(-1), (l, i), (k, i)),
                ]
            rows.append(((k, l), terms))
    # delta(xi_klm*)
    for k, l, m in itertools.combinations(range(1, 5), 3):
        terms = [
            (_x2(2), one, (k, l, m)), (_x1(-2), (k, l, m), one),
            (_x1(1), one, (k, l, m)), (_x2(-1), (k, l, m), one),
            (_x1(-1), (k, l), (m,)), (_x2(1), (m,), (k, l)),
            (_x1(1), (k, m), (l,)), (_x2(-1), (l,), (k, m)),
            (_x1(-1), (l, m), (k,)), (_x2(1), (k,), (l, m)),
        ]
        def star_terms(i, sign):
            if drop_star:
                return []
            return [
                (_c(sign), star, (i,)),
                (_c(-sign), (i,), star),
            ]
        for i in range(1, k):
            terms += star_terms(i, 1)
            terms += [
                (_c(-1), (i, k, l), (i, m)), (_c(1), (i, m), (i, k, l)),
                (_c(1), (i, k, m), (i, l)), (_c(-1), (i, l), (i, k, m)),
                (_c(-1), (i, l, m), (i, k)), (_c(1), (i, k), (i, l, m)),
            ]
        for i in range(k + 1, l):
            terms += star_terms(i, -1)
            terms += [
                (_c(1), (k, i, l), (i, m)), (_c(-1), (i, m), (k, i, l)),
                (_c(-1), (k, i, m), (i, l)), (_c(1), (i, l), (k, i, m)),
                (_c(1), (i, l, m), (k, i)), (_c(-1), (k, i), (i, l, m)),
            ]
        for i in range(l + 1, m):
            terms += star_terms(i, 1)
            terms += [
                (_c(-1), (k, l, i), (i, m)), (_c(1), (i, m), (k, l, i)),
                (_c(1), (k, i, m), (l, i)), (_c(-1), (l, i), (k, i, m)),
                (_c(-1), (l, i, m), (k, i)), (_c(1), (k, i), (l, i, m)),
            ]
        for i in range(m + 1, 5):
            terms += star_terms(i, -1)
            terms += [
                (_c(1), (k, l, i), (m, i)), (_c(-1), (m, i), (k, l, i)),
                (_c(-1), (k, m, i), (l, i)), (_c(1), (l, i), (k, m, i)),
                (_c(1), (l, m, i), (k, i)), (_c(-1), (k, i), (l, m, i)),
            ]
        rows.append(((k, l, m), terms))
    if not drop_star:
        terms = [
            (_x2(2), one, star), (_x1(-2), star, one),
            (_x1(2), one, star), (_x2(-2), star, one),
            (_x1(-1), (1, 2, 3), (4,)), (_x2(-1), (4,), (1, 2, 3)),
            (_x2(-1), (1, 2, 3), (4,)), (_x1(-1), (4,), (1, 2, 3)),
            (_x1(1), (1, 2, 4), (3,)), (_x2(1), (3,), (1, 2, 4)),
            (_x2(1), (1, 2, 4), (3,)), (_x1(1), (3,), (1, 2, 4)),
            (_x1(-1), (1, 3, 4), (2,)), (_x2(-1), (2,), (1, 3, 4)),
            (_x2(-1), (1, 3, 4), (2,)), (_x1(-1), (2,), (1, 3, 4)),
            (_x1(1), (2, 3, 4), (1,)), (_x2(1), (1,), (2, 3, 4)),
            (_x2(1), (2, 3, 4), (1,)), (_x1(1), (1,), (2, 3, 4)),
        ]
        rows.append((star, terms))
    return rows


def coproduct_N(n: int) -> Coproduct:
    """Verbatim transcription of the N = 2, 3, 4 superconformal lists."""
    if n not in (2, 3, 4):
        raise StructureError("the N-lists cover n in {2, 3, 4}")
    gens, lam_idx = k_generators(n)
    b = _Builder(LIE, gens, f"N={n}[formula]", lam_idx)
    add = b.add_xi
    one: Tuple[int, ...] = ()

    # delta(1*), common to all three cases (the n = 4 row list already
    # contains it)
    if n in (2, 3):
        add(one, _x2(2), one, one)
        add(one, _x1(-2), one, one)
        for i in range(1, n + 1):
            add(one, _c(-1), (i,), (i,))

    if n == 2:
        for i in (1, 2):
            ic = 2 if i == 1 else 1
            add((i,), _x2(2), one, (i,))
            add((i,), _x1(-2), (i,), one)
            add((i,), _x2(1), (i,), one)
            add((i,), _x1(-1), one, (i,))
            add((i,), _c(1), (ic,), (1, 2))
            add((i,), _c(-1), (1, 2), (ic,))
        add((1, 2), _x2(2), one, (1, 2))
        add((1, 2), _x1(-2), (1, 2), one)
        add((1, 2), _x2(-1), (2,), (1,))
        add((1, 2), _x1(-1), (1,), (2,))
        add((1, 2), _x2(1), (1,), (2,))
        add((1, 2), _x1(1), (2,), (1,))
        return b.done()

    if n == 3:
        for i in (1, 2, 3):
            add((i,), _x2(2), one, (i,))
            add((i,), _x1(-2), (i,), one)
            add((i,), _x2(1), (i,), one)
            add((i,), _x1(-1), one, (i,))
            for k in (1, 2, 3):
                if k != i:
                    add((i,), _c(1), (k,), (i, k))
                    add((i,), _c(-1), (i, k), (k,))
        for i, j in ((1, 2), (1, 3), (2, 3)):
            k = ({1, 2, 3} - {i, j}).pop()
            add((i, j), _x2(2), one, (i, j))
            add((i, j), _x1(-2), (i, j), one)
            add((i, j), _x2(1), (i,), (j,))
            add((i, j), _x1(1), (j,), (i,))
            add((i, j), _x1(-1), (i,), (j,))
            add((i, j), _x2(-1), (j,), (i,))
            add((i, j), _c(_sgn(k)), (1, 2, 3), (k,))
            add((i, j), _c(_sgn(k)), (k,), (1, 2, 3))
            add((i, j), _c(1), (k, j), (i, k))
            add((i, j), _c(-1), (i, k), (k, j))
        K = (1, 2, 3)
        add(K, _x2(2), one, K)
        add(K, _x1(-2), K, one)
        add(K, _x1(1), one, K)
        add(K, _x2(-1), K, one)
        add(K, _x2(1), (1,), (2, 3))
        add(K, _x1(-1), (2, 3), (1,))
        add(K, _x2(-1), (2,), (1, 3))
        add(K, _x1(1), (1, 3), (2,))
        add(K, _x2(1), (3,), (1, 2))
        add(K, _x1(-1), (1, 2), (3,))
        return b.done()

    for K, terms in _n4_rows(drop_star=False):
        for coeff, lt, rt in terms:
            add(K, coeff, lt, rt)
    return b.done()


def coproduct_K4prime() -> Coproduct:
    """delta on (K_4')^c: the K_4 list with xi_star* terms removed, plus the
    d xi_star generator's displayed sums."""
    from .restricted import DXI_STAR

    gens, lam_idx = k_generators(4)
    # (d xi_star)* takes the place of xi_star*, the last generator of K_4, so
    # the index tuple of xi_star is its symbol
    b = _Builder(LIE, gens[:-1] + [DXI_STAR], "K_4'^c[formula]", lam_idx)
    add = b.add_xi
    dxistar = (1, 2, 3, 4)
    for K, terms in _n4_rows(drop_star=True):
        for coeff, lt, rt in terms:
            add(K, coeff, lt, rt)
    # the extra |K| = 3 term with (d xi_star)*
    for K in itertools.combinations(range(1, 5), 3):
        (mm,) = tuple(sorted(set(range(1, 5)) - set(K)))
        sg = _sgn(mm - 1)
        add(K, _x2(sg), (mm,), dxistar)
        add(K, _x1(-sg), dxistar, (mm,))
    # delta((d xi_star)*)
    b.add("dxistar", "dxistar", "1", x1=-2)
    b.add("dxistar", "1", "dxistar", x2=2)
    for i in range(1, 5):
        ic = tuple(sorted(set(range(1, 5)) - {i}))
        sg = -_sgn(i - 1)
        add(dxistar, _c(sg), ic, (i,))
        add(dxistar, _c(sg), (i,), ic)
    return b.done()


# ---------------------------------------------------------------------------
# S_n


def _A2_dual(n: int, I: int, p: int, q: int) -> Optional[Tuple[int, int, int]]:
    """A-pair dual symbol: (sign, p, q) with p < q when (p, q) is consecutive
    in I^c (with orientation sign), None otherwise -- the adjoint of telescoping."""
    if p == q:
        return None
    sign = 1
    if p > q:
        p, q = q, p
        sign = -1
    between = ((1 << (q - 1)) - 1) & ~((1 << p) - 1)
    if ((~I) & ((1 << n) - 1)) & between:
        return None
    return sign, p, q


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
    from .restricted import sn_basis

    if n < 2:
        raise StructureError("S_n needs n >= 2")
    basis = sn_basis(n)
    b = _Builder(LIE, [Generator(e.name(), e.parity(), e.latex()) for e in basis],
                 f"S_{n}^c[formula]")
    at = {(e.tag, e.mask, e.i, e.j): g for g, e in enumerate(basis)}
    full = (1 << n) - 1

    def B(m: int) -> int:
        return at["B", m, 0, 0]

    def A(m: int, i: int) -> int:
        return at["A", m, i, 0]

    def A2(m: int, p: int, q: int) -> int:
        return at["A2", m, p, q]

    def comp_members(m: int) -> Tuple[int, ...]:
        return members(~m & full)

    # ---- delta(B_K*) ----
    for K in _masks(n):
        if _deg(K) == n:
            continue
        Kn = B(K)
        for I in _submasks(K):
            J = K & ~I
            dI, dJ = _deg(I), _deg(J)
            al = _sgn(alpha_mask(I, J))
            kosz = _sgn(dI * dJ)
            # sum 1
            c = al * (n - dJ)
            b.put(Kn, B(I), B(J), x1=c)
            b.put(Kn, B(J), B(I), x2=-c * kosz)
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
                cc = Fraction(dJ - n, den) * al
                if in_r1:  # i_r not in J, i_{r+1} in J: leading minus
                    cc = -cc
                a2 = A2(I, ir, ir1)
                kosz2 = _sgn(dI * dJ)
                b.put(Kn, a2, B(J), cc)
                b.put(Kn, B(J), a2, -cc * kosz2)
        # sum 2: i in J, i not in I
        for I in _submasks(K):
            Jm = K & ~I
            for i in range(1, n + 1):
                if (K | I) & _mask_of(i):
                    continue
                J = Jm | _mask_of(i)
                if J == full:   # the factor |J| - n vanishes, and B_{1..n} is no generator
                    continue
                dI, dJ = _deg(I), _deg(J)
                den = dI + dJ - n - 1
                assert den != 0
                c = Fraction(dJ - n, den) * _sgn(eps_mask(i, J) + alpha_mask(I, Jm))
                kosz = _sgn((dI + 1) * dJ)
                b.put(Kn, A(I, i), B(J), c)
                b.put(Kn, B(J), A(I, i), -c * kosz)

    # ---- delta(A_{K,k}*) ----
    for K in _masks(n):
        for k in comp_members(K):
            Kn = A(K, k)
            for I in _submasks(K):
                J = K & ~I
                dI, dJ = _deg(I), _deg(J)
                al = _sgn(alpha_mask(I, J))
                # sum 1: neighbours of k in I^c
                compI = comp_members(I)
                r = compI.index(k)
                kosz = _sgn(dI * (dJ + 1))
                if r + 1 < len(compI):
                    a2 = A2(I, k, compI[r + 1])
                    b.put(Kn, a2, A(J, k), -al)
                    b.put(Kn, A(J, k), a2, al * kosz)
                if r > 0:
                    a2 = A2(I, compI[r - 1], k)
                    b.put(Kn, a2, A(J, k), al)
                    b.put(Kn, A(J, k), a2, -al * kosz)
                # sum 3: B-paired terms
                c = al * _sgn(dJ)
                kosz3 = _sgn((dI + 1) * dJ)
                b.put(Kn, A(I, k), B(J), x1=c * (n - dJ), x2=c * (dI - 1))
                b.put(Kn, B(J), A(I, k), x1=-kosz3 * c * (dI - 1), x2=-kosz3 * c * (n - dJ))
            # sum 2: i in J, i not in I, i != k
            for I in _submasks(K):
                Jm = K & ~I
                for i in range(1, n + 1):
                    if (K | I) & _mask_of(i) or i == k:
                        continue
                    J = Jm | _mask_of(i)
                    dI, dJ = _deg(I), _deg(J)
                    c = _sgn(eps_mask(i, J) + alpha_mask(I, Jm))
                    kosz = _sgn((dI + 1) * (dJ + 1))
                    b.put(Kn, A(I, i), A(J, k), c)
                    b.put(Kn, A(J, k), A(I, i), -c * kosz)

    # ---- delta(A_{K,i_k,i_{k+1}}*) ----
    for K in _masks(n):
        compK = comp_members(K)
        for rK in range(len(compK) - 1):
            ik, ik1 = compK[rK], compK[rK + 1]
            Kn = A2(K, ik, ik1)
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
                    sg, p, q = sym
                    c = sg * _sgn(eps_mask(l, I) + 1 + dI + dJ + alpha_mask(Ip, J))
                    kosz = _sgn(dI * (dJ + 1))
                    b.put(Kn, A2(I, p, q), A(J, l), c)
                    b.put(Kn, A(J, l), A2(I, p, q), -c * kosz)
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
                        c = ev * _sgn(
                            eps_mask(i, J) + eps_mask(j, I)
                            + dI + dJ + alpha_mask(Ip, Jp)
                        )
                        kosz = _sgn((dI + 1) * (dJ + 1))
                        b.put(Kn, A(I, i), A(J, j), c)
                        b.put(Kn, A(J, j), A(I, i), -c * kosz)
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
                    c = Fraction(ev, den) * _sgn(eps_mask(i, J) + alpha_mask(I, Jm))
                    kosz = _sgn((dI + 1) * dJ)
                    b.put(Kn, A(I, i), B(J), x1=c * (dJ - n), x2=c * (1 - dI))
                    b.put(Kn, B(J), A(I, i), x1=-kosz * c * (1 - dI), x2=-kosz * c * (dJ - n))
            # sums 4, 5, 6: B-paired terms over disjoint (I, J) with ord = K
            for I in _submasks(K):
                J = K & ~I
                dI, dJ = _deg(I), _deg(J)
                al = _sgn(alpha_mask(I, J))
                kosz = _sgn(dI * dJ)
                sym = _A2_dual(n, I, ik, ik1)
                if sym is not None:
                    sg, p, q = sym
                    c = al * sg
                    b.put(Kn, A2(I, p, q), B(J), x1=c * (n - dJ), x2=c * dI)
                    b.put(Kn, B(J), A2(I, p, q), x1=-kosz * c * dI, x2=-kosz * c * (n - dJ))
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
                    c = Fraction(ev * al, den)
                    if not in_r:  # j_r not in J, j_{r+1} in J: leading minus
                        c = -c
                    a2 = A2(I, jr, jr1)
                    b.put(Kn, a2, B(J), x1=c * (dJ - n), x2=-c * dI)
                    b.put(Kn, B(J), a2, x1=kosz * c * dI, x2=-kosz * c * (dJ - n))
    return b.done()


# ---------------------------------------------------------------------------
# CK_6


def _ck6_duals(b: _Builder):
    """The dual C symbol of an index tuple in any order as (coefficient,
    generator index), the coefficient a Gaussian integer (re, im), or None
    when an index repeats; each tuple is worked out once per call.

    Permutations contribute their sign; a 3-tuple without 1 reduces through
    the inverse of the primal scaling relation (1/beta = -beta).
    """
    from .restricted import ck6_symbol

    @functools.cache
    def dual(t: Tuple[int, ...]) -> Optional[Tuple[Tuple[int, int], int]]:
        coords = ck6_symbol(t)
        if not coords:
            return None
        (nm, c), = coords.items()
        c = c.inverse()
        return (c.re, c.im), b.at[nm]
    return dual


@functools.cache
def _twice_gaussian(coeff: tuple) -> tuple:
    """put_gaussian's parts of a coefficient triple (c, x1, x2) of ints,
    Fractions and Scalars: twice the real and the imaginary part of each."""
    return tuple(_exact(2 * x) for a in coeff
                 for x in ((a.re, a.im) if isinstance(a, Scalar) else (a, 0)))


def _contact_sign(x: int, y: int, z: int) -> int:
    """(-1)^(alpha(I, I^c) + alpha({x}, I^c) + alpha({x} + I^c, {y, z})) for I = {x, y, z}."""
    from .restricted import _CK6_STAR

    X, YZ = _mask_of(x), _mask_of(y) | _mask_of(z)
    Ic = _CK6_STAR ^ X ^ YZ
    return _sgn(alpha_mask(X | YZ, Ic) + alpha_mask(X, Ic) + alpha_mask(X | Ic, YZ))


def coproduct_CK6() -> Coproduct:
    """The displayed coproducts of L*, C_l*, C_{1st}* and C_{rs}*."""
    from .restricted import _CK6_STAR, _ck6_basis_tuples, _ck6_name, _ck6_parity

    prim = [Generator(_ck6_name(t), _ck6_parity(t)) for t in _ck6_basis_tuples()]
    b = _Builder(LIE, prim, "CK_6^c[formula]")
    beta = Scalar.beta()
    dual = _ck6_duals(b)
    half = Fraction(1, 2)

    def add(k: int, coeff, lt: Tuple[int, ...], rt: Tuple[int, ...]):
        sl = dual(lt)
        sr = dual(rt)
        if sl is None or sr is None:
            return
        (a, b_), (c, d) = sl[0], sr[0]
        re, im = a * c - b_ * d, a * d + b_ * c     # the product of the two dual coefficients
        t = _twice_gaussian(coeff)
        b.put_gaussian(k, sl[1], sr[1], (re * t[0] - im * t[1], re * t[1] + im * t[0],
                                         re * t[2] - im * t[3], re * t[3] + im * t[2],
                                         re * t[4] - im * t[5], re * t[5] + im * t[4]))

    # delta(L*)
    add(b.at["L"], (0, 1, -1), (), ())
    for i in range(1, 7):
        add(b.at["L"], _c(2), (i,), (i,))

    # delta(C_l*)
    for l in range(1, 7):
        Kn = b.at[f"C{l}"]
        add(Kn, _x1(1), (l,), ())
        add(Kn, _x2(-1), (), (l,))
        for k in range(1, 7):
            if k == l:
                continue
            pair = (k, l) if k < l else (l, k)
            add(Kn, _c(1), pair, (k,))
            add(Kn, _c(-1), (k,), pair)

    # delta(C_{1st}*)
    for s in range(2, 7):
        for t in range(s + 1, 7):
            Kn = b.at[f"C1{s}{t}"]
            I = 1 | _mask_of(s) | _mask_of(t)
            Ic = _CK6_STAR ^ I
            a_, b_, c_ = members(Ic)
            add(Kn, _x1(1), (1, s, t), ())
            add(Kn, _x2(-1), (), (1, s, t))
            add(Kn, _x2(half), (1, s, t), ())
            add(Kn, _x1(-half), (), (1, s, t))
            add(Kn, _x1(-1), (1, s), (t,))
            add(Kn, _x2(1), (t,), (1, s))
            add(Kn, _x1(1), (1, t), (s,))
            add(Kn, _x2(-1), (s,), (1, t))
            add(Kn, _x1(-1), (s, t), (1,))
            add(Kn, _x2(1), (1,), (s, t))
            bsg = beta * Scalar(_sgn(alpha_mask(Ic, I)))
            for u, vw in ((a_, (b_, c_)), (b_, (a_, c_)), (c_, (a_, b_))):
                add(Kn, _c(bsg), (1, u), (1,) + vw)
                add(Kn, _c(-bsg), (1,) + vw, (1, u))
            for i in range(2, s):
                add(Kn, _c(1), (i, s), (1, i, t))
                add(Kn, _c(-1), (1, i, t), (i, s))
                add(Kn, _c(-1), (i, t), (1, i, s))
                add(Kn, _c(1), (1, i, s), (i, t))
            for i in range(s + 1, t):
                add(Kn, _c(-1), (s, i), (1, i, t))
                add(Kn, _c(1), (1, i, t), (s, i))
                add(Kn, _c(1), (i, t), (1, s, i))
                add(Kn, _c(-1), (1, s, i), (i, t))
            for i in range(t + 1, 7):
                add(Kn, _c(1), (s, i), (1, t, i))
                add(Kn, _c(-1), (1, t, i), (s, i))
                add(Kn, _c(-1), (t, i), (1, s, i))
                add(Kn, _c(1), (1, s, i), (t, i))

    # delta(C_{rs}*)
    for r in range(1, 7):
        for s in range(r + 1, 7):
            Kn = b.at[f"C{r}{s}"]
            add(Kn, _x1(1), (r, s), ())
            add(Kn, _x2(-1), (), (r, s))
            add(Kn, _x2(-half), (r, s), ())
            add(Kn, _x1(half), (), (r, s))
            add(Kn, _x2(1), (r,), (s,))
            add(Kn, _x1(1), (s,), (r,))
            add(Kn, _x1(-1), (r,), (s,))
            add(Kn, _x2(-1), (s,), (r,))
            for i in range(1, r):
                add(Kn, _c(1), (i, r), (i, s))
                add(Kn, _c(-1), (i, s), (i, r))
            for i in range(r + 1, s):
                add(Kn, _c(-1), (r, i), (i, s))
                add(Kn, _c(1), (i, s), (r, i))
            for i in range(s + 1, 7):
                add(Kn, _c(1), (r, i), (s, i))
                add(Kn, _c(-1), (s, i), (r, i))
            # double sum over i, 1 < k < l with {i,1,k,l}^c = {r,s}
            rs = _mask_of(r) | _mask_of(s)
            for i in range(1, 7):
                for k in range(2, 7):
                    for l in range(k + 1, 7):
                        kl = 1 | _mask_of(k) | _mask_of(l)
                        if _mask_of(i) & kl or _mask_of(i) | kl != _CK6_STAR ^ rs:
                            continue
                        e = alpha_mask(_mask_of(i), kl) + alpha_mask(_mask_of(i) | kl, rs)
                        cf = _c(beta * Scalar(_sgn(e)))
                        add(Kn, cf, (i,), (1, k, l))
                        add(Kn, cf, (1, k, l), (i,))
            if r > 1:
                cf = _c(-_contact_sign(1, r, s))
                add(Kn, cf, (1,), (1, r, s))
                add(Kn, cf, (1, r, s), (1,))
            else:
                for i in range(2, s):
                    cf = _c(-_contact_sign(i, 1, s))
                    add(Kn, cf, (i,), (1, i, s))
                    # the display labels this factor C_{i1s}; reading the
                    # subscript as an unordered label (no permutation sign)
                    # keeps the formula tau-antisymmetric
                    add(Kn, cf, (1, i, s), (i,))
                for i in range(s + 1, 7):
                    cf = _c(_contact_sign(i, 1, s))
                    add(Kn, cf, (i,), (1, s, i))
                    add(Kn, cf, (1, s, i), (i,))
    return b.done()


# ---------------------------------------------------------------------------
# Jordan families


def coproduct_Jn(n: int) -> Coproduct:
    """The two displayed formulas for Delta((xi_K theta)*) and Delta(xi_K*)."""
    gens, xi, th = jn_generators(n)
    b = _Builder(JORDAN, gens, f"J_{n}^c[formula]")
    for K in xi:
        for I in _submasks(K):
            J = K & ~I
            dI, dJ = _deg(I), _deg(J)
            al = _sgn(alpha_mask(I, J))
            # Delta((xi_K th)*)
            b.put(th[K], xi[I], th[J], al)
            b.put(th[K], th[J], xi[I], al * _sgn(dI * (dJ + 1)))
            # Delta(xi_K*), first and second sums
            b.put(xi[K], xi[I], xi[J], al)
            c = _sgn(dJ + alpha_mask(I, J)) * (dJ - 2)
            kosz = _sgn((dI + 1) * (dJ + 1))
            b.put(xi[K], th[I], th[J], x1=c)
            b.put(xi[K], th[J], th[I], x2=c * kosz)
        # derivative sums: diagonal pairs up to n-2 and the swapped last two
        for i in range(1, max(n - 1, 0)):
            _add_swap_deriv(b, xi, th, K, i, i)
        if n >= 2:
            _add_swap_deriv(b, xi, th, K, n - 1, n)
            _add_swap_deriv(b, xi, th, K, n, n - 1)
    return b.done()


def _add_swap_deriv(b: "_Builder", xi: List[int], th: List[int], K: int, i: int, j: int):
    """The (d_i a)(d_j b) sum of Delta(xi_K*) for the swapped index pair;
    xi[m] and th[m] index xi_m* and (xi_m theta)*."""
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
        b.put(xi[K], th[I], th[J], _sgn(e))


def coproduct_JS1() -> Coproduct:
    """Delta(T*) = T* (x) S* + S* (x) T*;
    Delta(S*) = 2 S* (x) S* + d T* (x) T* - T* (x) d T*."""
    b = _Builder(JORDAN, [Generator("S", 0), Generator("T", 1)], "JS_1^c[formula]")
    b.add("T", "T", "S", 1)
    b.add("T", "S", "T", 1)
    b.add("S", "S", "S", 2)
    b.add("S", "T", "T", x1=1, x2=-1)
    return b.done()


def coproduct_JCK4() -> Coproduct:
    """The displayed JCK_4 coproducts on 1*, x*, omega_i*, x_k*."""
    b = _Builder(JORDAN, jck4_generators(), "JCK_4^c[formula]")
    b.add("one", "one", "one", 1)
    for i, sg in ((1, 1), (2, 1), (3, -1)):
        b.add("one", f"w{i}", f"w{i}", sg)
    b.add("one", "x", "x", x1=1, x2=-1)
    b.add("x", "one", "x", 1)
    b.add("x", "x", "one", 1)
    for i in (1, 2, 3):
        b.add(f"w{i}", "one", f"w{i}", 1)
        b.add(f"w{i}", f"w{i}", "one", 1)
        b.add(f"w{i}", f"x{i}", "x", 1)
        b.add(f"w{i}", "x", f"x{i}", -1)
    for k in (1, 2, 3):
        b.add(f"x{k}", "one", f"x{k}", 1)
        b.add(f"x{k}", f"x{k}", "one", 1)
        b.add(f"x{k}", f"w{k}", "x", x1=1)
        b.add(f"x{k}", "x", f"w{k}", x2=1)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                if i != j and i != k and j != k:
                    b.add(f"x{k}", f"w{i}", f"x{j}", -1)
                    b.add(f"x{k}", f"x{j}", f"w{i}", -1)
    return b.done()
