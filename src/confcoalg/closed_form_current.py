"""Closed-form coproducts of the current series: Vir and Cur(sl2)."""

from __future__ import annotations

from .closed_form_builder import _Builder
from .families_current import sl2_constants
from .tables import Coproduct, Generator, LIE


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
