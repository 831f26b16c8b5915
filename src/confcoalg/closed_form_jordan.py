"""Closed-form coproducts of the Jordan series: J_n, JS_1 and JCK_4."""

from __future__ import annotations

from typing import List

from .bases import jck4_generators, jn_generators
from .closed_form_builder import _Builder, _deg, _submasks
from .masks import _mask_of, _sgn, alpha_mask, eps_mask
from .tables import Coproduct, Generator, JORDAN


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
