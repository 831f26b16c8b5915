"""Generator lists, bases, symbols and entry values shared by constructors and closed forms.

W_n, K_n (and the N = 2, 3, 4 and K_4' lists), J_n and JCK_4 list their
generators here once, with the index maps of their masks: each mask's
digits are made once, from those of the mask without its largest member,
and W_n and J_n reuse the names of xi_I.  S_n lists its basis (sn_basis),
K_4' its generator d xi_star (DXI_STAR), and CK_6 its basis and the
symbols C_t of any index tuple (ck6_symbol).  The constructors
(families), the closed forms (closed_form_*) and the printed paths take
them from this module, so no closed form imports families or the
restriction machinery of restricted.  _entry_polys makes the entry values
of the constructors that build straight into the stored form.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .masks import _digits, _masks, _monomial, _sgn, alpha_mask, members
from .poly import MultiPoly, Scalar, _VAR_SHIFT
from .tables import FrozenRecord, Generator

_C_D_LAM = (0, 1 << _VAR_SHIFT["d"], 1 << _VAR_SHIFT["lam"])   # the monomials 1, d and lam


def _entry_polys(number: Dict[Tuple[int, int, int], int]) -> List[MultiPoly]:
    """c + a d + b lam for each key (c, a, b) of number, which a builder fills
    with number.setdefault(key, len(number)): each value made once."""
    return [MultiPoly({m: Scalar(x) for m, x in zip(_C_D_LAM, key) if x}) for key in number]


def k_generators(n: int) -> Tuple[List[Generator], Dict[int, int]]:
    """The generators xi_I of Lambda(n), parity |I|, in table order, and
    lam_idx: I -> the index of xi_I.  K_n has these; W_n and J_n start with them."""
    masks = _masks(n)
    gens = [Generator("1", 0, "1")]     # masks[0] is the empty set
    digits = {0: ""}    # mask -> its members as a digit string
    for m in masks[1:]:     # graded, so m without its largest member top comes first
        top = m.bit_length()
        ds = digits[m] = digits[m ^ (1 << (top - 1))] + str(top)
        gens.append(Generator("xi" + ds, m.bit_count() & 1, r"\xi_{" + ds + "}"))
    return gens, {m: i for i, m in enumerate(masks)}


def w_generators(n: int) -> Tuple[List[Generator], Dict[int, int], Dict[Tuple[int, int], int]]:
    """The generators of W_n in table order, xi_I then xi_I d_i (parity
    |I|+1), with lam_idx (see k_generators) and w_idx: (I, i) -> the index
    of xi_I d_i."""
    gens, lam_idx = k_generators(n)
    w_idx: Dict[Tuple[int, int], int] = {}
    for m, g in list(zip(lam_idx, gens)):
        word, lx = (g.id, g.latex) if m else ("", "")     # the prefix xi_I; none for I empty
        for i in range(1, n + 1):
            w_idx[(m, i)] = len(gens)
            gens.append(Generator(f"{word}d{i}", g.parity ^ 1, lx + r"\partial_{" + str(i) + "}"))
    return gens, lam_idx, w_idx


def jn_generators(n: int) -> Tuple[List[Generator], Dict[int, int], Dict[int, int]]:
    """The generators of J_n in table order, xi_I then xi_I theta (parity
    |I|+1), with ev_idx: I -> the index of xi_I and th_idx: I -> the index
    of xi_I theta."""
    gens, ev_idx = k_generators(n)
    th_idx: Dict[int, int] = {}
    for m, g in list(zip(ev_idx, gens)):
        word, lx = (g.id, g.latex) if m else ("", "")
        th_idx[m] = len(gens)
        gens.append(Generator(word + "th", g.parity ^ 1, lx + r"\theta"))
    return gens, ev_idx, th_idx


def jck4_generators() -> List[Generator]:
    """The generators of JCK_4: even 1, omega_1..3; odd x, x_1..3."""
    return [Generator(nm, p, l) for nm, p, l in zip(
        ("one", "w1", "w2", "w3", "x", "x1", "x2", "x3"), (0, 0, 0, 0, 1, 1, 1, 1),
        ("1", r"\omega_1", r"\omega_2", r"\omega_3", "x", "x_1", "x_2", "x_3"))]


class SnBasisElement(FrozenRecord):
    """Tagged S_n basis element: A (single), A2 (consecutive pair), or B."""

    __slots__ = ("tag", "mask", "i", "j")

    def __init__(self, tag: str, mask: int, i: int = 0, j: int = 0):
        object.__setattr__(self, "tag", tag)     # "A" | "A2" | "B"
        object.__setattr__(self, "mask", mask)   # the set I
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)

    def name(self) -> str:
        ds = _digits(members(self.mask))
        if self.tag == "A":
            return f"A{ds}_{self.i}"
        if self.tag == "A2":
            return f"A{ds}_{self.i}_{self.j}"
        return f"B{ds}"

    def parity(self) -> int:
        deg = self.mask.bit_count()
        return (deg + 1) & 1 if self.tag == "A" else deg & 1

    def latex(self) -> str:
        ds = "{" + _digits(members(self.mask)) + "}"
        if self.tag == "A":
            return f"A_{{{ds},{self.i}}}"
        if self.tag == "A2":
            return f"A_{{{ds},{self.i},{self.j}}}"
        return f"B_{ds}"


def sn_basis(n: int) -> List[SnBasisElement]:
    out = []
    for m in _masks(n):
        comp = members(~m & ((1 << n) - 1))
        for i in comp:
            out.append(SnBasisElement("A", m, i))
        for a, b in zip(comp, comp[1:]):
            out.append(SnBasisElement("A2", m, a, b))
        if m.bit_count() < n:
            out.append(SnBasisElement("B", m))
    return out


# K_4' and CK_6: the generator d xi_star; the basis and symbols of CK_6
DXI_STAR = Generator("dxistar", 0, r"\partial\xi_\star")   # the generator d xi_star of K_4'
_CK6_STAR = (1 << 6) - 1    # the mask of xi_star = xi_1 ... xi_6


def _hodge_sign(m: int) -> int:
    """The sign of xi_m^bullet = +-xi_{m^c} in Lambda(6), so that xi_m xi_m^bullet = xi_star."""
    return _sgn(alpha_mask(m, _CK6_STAR ^ m))


def _ck6_basis_tuples() -> List[Tuple[int, ...]]:
    out: List[Tuple[int, ...]] = [()]
    out += [(i,) for i in range(1, 7)]
    out += [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    out += [(1, j, k) for j in range(2, 7) for k in range(j + 1, 7)]
    return out


def _ck6_name(t: Tuple[int, ...]) -> str:
    return "L" if t == () else "C" + _digits(t)


def _ck6_parity(t: Tuple[int, ...]) -> int:
    return len(t) & 1


def ck6_symbol(t: Tuple[int, ...]) -> Dict[str, Scalar]:
    """Resolve C with an arbitrary index tuple to basis coordinates.

    Repeated indices give zero; permutations contribute their sign; a
    3-tuple not containing 1 reduces through C_{I^c} = beta (-1)^{alpha(I^c,I)} C_I.
    The empty tuple names L.
    """
    sign, m = _monomial(t)
    if not sign:
        return {}
    if m.bit_count() == 3 and not m & 1:
        coeff = Scalar.beta() * Scalar(_hodge_sign(m) * sign)
        return {_ck6_name(members(_CK6_STAR ^ m)): coeff}
    return {_ck6_name(members(m)): Scalar(sign)}
