"""The builder every closed-form emitter writes its coproduct with.

Every coefficient of the hand-written lists is c + a x1 + b x2, so
_Builder.put adds the exact triple (c, a, b) of each term into one sum per
(k, i, j), and done builds the Coproduct from one polynomial per distinct
sum.  The generators are the duals of the primal list an emitter gives,
named, in LaTeX too, as dual.dualize names them (tables.dual_generators).
In the slot-variable encoding, multiplying a term by x1 puts d on the left
tensor factor and x2 puts it on the right one.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .masks import _monomial
from .poly import MultiPoly, Scalar, _VAR_SHIFT
from .tables import Coproduct, Generator, dual_generators


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
