"""Closed-form coproducts of the contact series: K_n, the N = 2, 3, 4 lists,
K_4' and CK_6.

The generators and symbols come from bases: those of K_n, the generator
d xi_star of K_4', and the basis and C symbols of CK_6.  Dual-symbol
conventions used while transcribing:

* xi/C symbols with permuted indices resolve with the permutation sign,
  exactly like their primal counterparts (the pairing is diagonal);
* a 3-index C symbol without the index 1 resolves through the primal
  relation C_{I^c} = beta (-1)^{alpha(I^c, I)} C_I, which for the dual
  symbol contributes the inverse scalar.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Optional, Tuple

from .bases import (
    DXI_STAR, _CK6_STAR, _ck6_basis_tuples, _ck6_name, _ck6_parity, ck6_symbol, k_generators,
)
from .closed_form_builder import _Builder, _c, _x1, _x2
from .masks import _mask_of, _sgn, _submasks, alpha_mask, eps_mask, members
from .poly import Scalar, _exact
from .tables import Coproduct, Generator, LIE, StructureError


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
            b.put_flip(Kx, xi[I], xi[J], x1=_sgn(alpha_mask(I, J)) * (J.bit_count() - 2))
        for Ip in _submasks(K):
            Jp = K & ~Ip
            for i in range(1, n + 1):
                if K & _mask_of(i):
                    continue
                I = Ip | _mask_of(i)
                J = Jp | _mask_of(i)
                e = (
                    I.bit_count()
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


def _ck6_duals(b: _Builder):
    """The dual C symbol of an index tuple in any order as (coefficient,
    generator index), the coefficient a Gaussian integer (re, im), or None
    when an index repeats; each tuple is worked out once per call.

    Permutations contribute their sign; a 3-tuple without 1 reduces through
    the inverse of the primal scaling relation (1/beta = -beta).
    """

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
    """(-1)^(alpha(I, I^c) + alpha({x}, I^c) + alpha({x} + I^c, {y, z})) for I = {x, y, z},
    I^c its complement in {1, ..., 6}."""
    X, YZ = _mask_of(x), _mask_of(y) | _mask_of(z)
    Ic = _CK6_STAR ^ X ^ YZ
    return _sgn(alpha_mask(X | YZ, Ic) + alpha_mask(X, Ic) + alpha_mask(X | Ic, YZ))


def coproduct_CK6() -> Coproduct:
    """The displayed coproducts of L*, C_l*, C_{1st}* and C_{rs}*."""
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
