"""Closed-form coproducts of the current series: Vir and Cur(sl2), each
written from its displayed sums, not from the constants of make_cur_sl2."""

from __future__ import annotations

from .closed_form_builder import _Builder
from .tables import Coproduct, Generator, LIE


def coproduct_vir() -> Coproduct:
    """delta(L*) = d L* (x) L* - L* (x) d L*."""
    b = _Builder(LIE, [Generator("L", 0, "L")], "Vir^c[formula]")
    b.add("L", "L", "L", x1=1, x2=-1)
    return b.done()


def coproduct_cur_sl2() -> Coproduct:
    """The dual of [e, f] = h, [h, e] = 2e and [h, f] = -2f, lambda-free:
    delta(h*) = e* (x) f* - f* (x) e*, delta(e*) = 2 h* (x) e* - 2 e* (x) h*
    and delta(f*) = -2 h* (x) f* + 2 f* (x) h*."""
    b = _Builder(LIE, [Generator(nm, 0) for nm in ("e", "h", "f")], "Cur(sl2)^c[formula]")
    b.add("h", "e", "f", 1)
    b.add("h", "f", "e", -1)
    b.add("e", "h", "e", 2)
    b.add("e", "e", "h", -2)
    b.add("f", "h", "f", -2)
    b.add("f", "f", "h", 2)
    return b.done()
