"""Constructors of the current series: Vir, the currents and the Jordan current.

A current algebra's lambda-product is lambda-free: make_current builds it
from the structure constants of a finite-dimensional (super)algebra, such
as sl2_constants, which the closed form of Cur(sl2) reads too.  Like every
constructor these run no check (see families).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .poly import D, LAM, MultiPoly, Scalar
from .tables import Generator, JORDAN, LIE, LambdaStructure, StructureError


def make_vir() -> LambdaStructure:
    """Rank-1 even table [L lam L] = (d + 2 lam) L."""
    gens = [Generator("L", 0, "L")]
    return LambdaStructure(LIE, gens, {(0, 0): [(0, D + 2 * LAM)]}, name="Vir")


def make_current(
    gen_names: List[str],
    parities: List[int],
    products: Dict[Tuple[str, str], List[Tuple[str, Scalar]]],
    kind: str = LIE,
    name: str = "Cur",
) -> LambdaStructure:
    """Current conformal (super)algebra of a finite-dimensional table.

    products maps (a, b) to the structure constants of the underlying
    algebra; the lambda-product is lambda-free.  Like every constructor it
    runs no check: constants that break the axioms of kind give a table
    whose checks fail (for a lambda-free table they reduce to the classical
    identities).  A product naming a generator outside gen_names, or
    parities of another length, raises StructureError.
    """
    if len(parities) != len(gen_names):
        raise StructureError(
            f"{name}: {len(gen_names)} generators but {len(parities)} parities")
    idx = {g: i for i, g in enumerate(gen_names)}
    number: Dict[object, int] = {}      # a structure constant -> the index of its value
    try:
        slots = [(idx[a], idx[b], idx[c], number.setdefault(sc, len(number)))
                 for (a, b), terms in products.items() for c, sc in terms]
    except KeyError as e:
        raise StructureError(f"{name}: products name an unknown generator {e.args[0]!r}") from None
    gens = [Generator(g, p) for g, p in zip(gen_names, parities)]
    values = list(map(MultiPoly.const, number))
    return LambdaStructure.from_slots(kind, gens, values, slots, name=name)


def sl2_constants():
    """Standard sl2 basis e, h, f: [e,f]=h, [h,e]=2e, [h,f]=-2f."""
    two = Scalar(2)
    one = Scalar(1)
    prods = {
        ("e", "f"): [("h", one)],
        ("f", "e"): [("h", -one)],
        ("h", "e"): [("e", two)],
        ("e", "h"): [("e", -two)],
        ("h", "f"): [("f", -two)],
        ("f", "h"): [("f", two)],
    }
    return ["e", "h", "f"], [0, 0, 0], prods


def make_cur_sl2() -> LambdaStructure:
    names, pars, prods = sl2_constants()
    return make_current(names, pars, prods, kind=LIE, name="Cur(sl2)")


def make_cur_jordan_unit() -> LambdaStructure:
    """Rank-1 Jordan current: an idempotent a lam a = a."""
    return make_current(
        ["a"], [0], {("a", "a"): [("a", Scalar(1))]}, kind=JORDAN,
        name="CurJ(unit)",
    )
