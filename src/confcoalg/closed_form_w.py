"""Closed-form coproducts of the W series: W_n and S_n, transcribed sum by sum.

W_n takes its generators and S_n its basis from bases.  An A-pair dual
symbol A*_{I,p,q} whose pair is not consecutive in the complement of I
resolves to zero (the adjoint of the telescoping rewrite: a consecutive-pair
functional extends by "interval containment", and a separated pair is
contained in no single consecutive interval).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple

from .bases import sn_basis, w_generators
from .closed_form_builder import _Builder
from .masks import _mask_of, _masks, _sgn, _submasks, alpha_mask, eps_mask, members
from .tables import Coproduct, Generator, LIE, StructureError


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
            b.put_flip(Kw[0], w[I][0], w[J][0], x2=c)
            for k in range(1, n + 1):
                b.put_flip(Kw[k], w[I][0], w[J][k], x2=c)
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
                b.put_flip(Kw[0], w[I][i], w[J][0], c)
                for k in range(1, n + 1):
                    b.put_flip(Kw[k], w[I][i], w[J][k], c)
    return b.done()


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
        if K.bit_count() == n:
            continue
        Kn = B(K)
        for I in _submasks(K):
            J = K & ~I
            dI, dJ = I.bit_count(), J.bit_count()
            al = _sgn(alpha_mask(I, J))
            # sum 1
            b.put_flip(Kn, B(I), B(J), x1=al * (n - dJ))
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
                b.put_flip(Kn, A2(I, ir, ir1), B(J), cc)
        # sum 2: i in J, i not in I
        for I in _submasks(K):
            Jm = K & ~I
            for i in range(1, n + 1):
                if (K | I) & _mask_of(i):
                    continue
                J = Jm | _mask_of(i)
                if J == full:   # the factor |J| - n vanishes, and B_{1..n} is no generator
                    continue
                dI, dJ = I.bit_count(), J.bit_count()
                den = dI + dJ - n - 1
                assert den != 0
                c = Fraction(dJ - n, den) * _sgn(eps_mask(i, J) + alpha_mask(I, Jm))
                b.put_flip(Kn, A(I, i), B(J), c)

    # ---- delta(A_{K,k}*) ----
    for K in _masks(n):
        for k in comp_members(K):
            Kn = A(K, k)
            for I in _submasks(K):
                J = K & ~I
                dI, dJ = I.bit_count(), J.bit_count()
                al = _sgn(alpha_mask(I, J))
                # sum 1: neighbours of k in I^c
                compI = comp_members(I)
                r = compI.index(k)
                if r + 1 < len(compI):
                    b.put_flip(Kn, A2(I, k, compI[r + 1]), A(J, k), -al)
                if r > 0:
                    b.put_flip(Kn, A2(I, compI[r - 1], k), A(J, k), al)
                # sum 3: B-paired terms
                c = al * _sgn(dJ)
                b.put_flip(Kn, A(I, k), B(J), x1=c * (n - dJ), x2=c * (dI - 1))
            # sum 2: i in J, i not in I, i != k
            for I in _submasks(K):
                Jm = K & ~I
                for i in range(1, n + 1):
                    if (K | I) & _mask_of(i) or i == k:
                        continue
                    J = Jm | _mask_of(i)
                    b.put_flip(Kn, A(I, i), A(J, k), _sgn(eps_mask(i, J) + alpha_mask(I, Jm)))

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
                    sym = _A2_dual(n, I, ik, ik1)
                    if sym is None:
                        continue
                    sg, p, q = sym
                    c = sg * _sgn(eps_mask(l, I) + 1 + I.bit_count() + J.bit_count()
                                  + alpha_mask(Ip, J))
                    b.put_flip(Kn, A2(I, p, q), A(J, l), c)
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
                        c = ev * _sgn(
                            eps_mask(i, J) + eps_mask(j, I)
                            + I.bit_count() + J.bit_count() + alpha_mask(Ip, Jp)
                        )
                        b.put_flip(Kn, A(I, i), A(J, j), c)
            # sum 3: i in J, I cap J = empty, inner sum over j
            for I in _submasks(K):
                Jm = K & ~I
                for i in range(1, n + 1):
                    if (K | I) & _mask_of(i):
                        continue
                    J = Jm | _mask_of(i)
                    dI, dJ = I.bit_count(), J.bit_count()
                    den = dI + dJ - n - 1
                    assert den != 0
                    ev = 0
                    for j in comp_members(K | _mask_of(i)):
                        ev += _pair_coeff(j, i, ik, ik1)
                    if not ev:
                        continue
                    c = Fraction(ev, den) * _sgn(eps_mask(i, J) + alpha_mask(I, Jm))
                    b.put_flip(Kn, A(I, i), B(J), x1=c * (dJ - n), x2=c * (1 - dI))
            # sums 4, 5, 6: B-paired terms over disjoint (I, J) with ord = K
            for I in _submasks(K):
                J = K & ~I
                dI, dJ = I.bit_count(), J.bit_count()
                al = _sgn(alpha_mask(I, J))
                sym = _A2_dual(n, I, ik, ik1)
                if sym is not None:
                    sg, p, q = sym
                    c = al * sg
                    b.put_flip(Kn, A2(I, p, q), B(J), x1=c * (n - dJ), x2=c * dI)
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
                    b.put_flip(Kn, A2(I, jr, jr1), B(J), x1=c * (dJ - n), x2=-c * dI)
    return b.done()
