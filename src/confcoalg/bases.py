"""Generator lists and entry values shared by the constructors by series.

W_n, K_n (and the N = 2, 3, 4 and K_4' lists), J_n and JCK_4 list their
generators here once, with the index maps of their masks: the constructors
(families_*) and the closed forms (closed_form_*) take them from this
module, so that neither imports the other.  _entry_polys makes the entry
values of the constructors that build straight into the stored form.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .masks import _digits, _masks, members
from .poly import MultiPoly, Scalar, _VAR_SHIFT
from .tables import Generator

_C_D_LAM = (0, 1 << _VAR_SHIFT["d"], 1 << _VAR_SHIFT["lam"])   # the monomials 1, d and lam


def _entry_polys(number: Dict[Tuple[int, int, int], int]) -> List[MultiPoly]:
    """c + a d + b lam for each key (c, a, b) of number, which a builder fills
    with number.setdefault(key, len(number)): each value made once."""
    return [MultiPoly({m: Scalar(x) for m, x in zip(_C_D_LAM, key) if x}) for key in number]


def _xi_word(mask: int) -> str:
    """xi followed by the members of mask; empty for the empty set."""
    return "xi" + _digits(members(mask)) if mask else ""


def _xi_name(mask: int) -> str:
    return _xi_word(mask) or "1"


def _xi_latex(mask: int) -> str:
    return r"\xi_{" + _digits(members(mask)) + "}" if mask else "1"


def k_generators(n: int) -> Tuple[List[Generator], Dict[int, int]]:
    """The generators xi_I of Lambda(n), parity |I|, in table order, and
    lam_idx: I -> the index of xi_I.  K_n has these; W_n and J_n start with them."""
    masks = _masks(n)
    gens = [Generator(_xi_name(m), m.bit_count() & 1, _xi_latex(m)) for m in masks]
    return gens, {m: i for i, m in enumerate(masks)}


def w_generators(n: int) -> Tuple[List[Generator], Dict[int, int], Dict[Tuple[int, int], int]]:
    """The generators of W_n in table order, xi_I then xi_I d_i (parity
    |I|+1), with lam_idx (see k_generators) and w_idx: (I, i) -> the index
    of xi_I d_i."""
    gens, lam_idx = k_generators(n)
    w_idx: Dict[Tuple[int, int], int] = {}
    for m in lam_idx:
        for i in range(1, n + 1):
            w_idx[(m, i)] = len(gens)
            lx = (_xi_latex(m) if m else "") + r"\partial_{" + str(i) + "}"
            gens.append(Generator(_xi_word(m) + f"d{i}", (m.bit_count() + 1) & 1, lx))
    return gens, lam_idx, w_idx


def jn_generators(n: int) -> Tuple[List[Generator], Dict[int, int], Dict[int, int]]:
    """The generators of J_n in table order, xi_I then xi_I theta (parity
    |I|+1), with ev_idx: I -> the index of xi_I and th_idx: I -> the index
    of xi_I theta."""
    gens, ev_idx = k_generators(n)
    th_idx: Dict[int, int] = {}
    for m in ev_idx:
        th_idx[m] = len(gens)
        lx = (_xi_latex(m) if m else "") + r"\theta"
        gens.append(Generator(_xi_word(m) + "th", (m.bit_count() + 1) & 1, lx))
    return gens, ev_idx, th_idx


def jck4_generators() -> List[Generator]:
    """The generators of JCK_4: even 1, omega_1..3; odd x, x_1..3."""
    return [Generator(nm, p, l) for nm, p, l in zip(
        ("one", "w1", "w2", "w3", "x", "x1", "x2", "x3"), (0, 0, 0, 0, 1, 1, 1, 1),
        ("1", r"\omega_1", r"\omega_2", r"\omega_3", "x", "x_1", "x_2", "x_3"))]
