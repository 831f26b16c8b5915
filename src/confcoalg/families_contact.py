"""Constructors of the contact series: K_n, and its subalgebras K_4' and CK_6.

K_n is built straight into the stored form (Table.from_slots) from the
closed form of its entries on monomials; the N = 2, 3, 4 superconformal
algebras are K_2, K_3 and K_4.  K_4' and CK_6 are restricted from K_4 and
K_6: their constructors import the restriction machinery of restricted
inside their bodies, so a command that builds K_n alone never compiles it.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .bases import _entry_polys, k_generators
from .masks import _masks, _sgn, _sign_tables
from .poly import D
from .tables import ConformalElement, Generator, LIE, LambdaStructure, StructureError


def make_K(n: int) -> LambdaStructure:
    """K_n on Lambda(n), rank 2^n:
    [f lam g] = (|f|-2) d(fg) + (-1)^{|f|} sum_i (d_i f)(d_i g) + lam (|f|+|g|-4) fg.

    On monomials each entry has a closed form: (-1)^alpha(I,J) ((|I|-2) d
    + (|I|+|J|-4) lam) xi_{I+J} for I, J disjoint; the constant
    (-1)^(|I| + eps(i,I) + eps(i,J) + alpha(I-i, J-i)) on xi_{(I+J)-i} when
    I and J meet in {i} alone; zero when they share more.
    """
    if n < 0:
        raise StructureError("K_n needs n >= 0")
    gens, lam_idx = k_generators(n)
    eps_at, odd = _sign_tables(n)
    number: Dict[Tuple[int, int, int], int] = {}    # the index of each value (see _entry_polys)
    slots = []
    for I, row in lam_idx.items():
        dI = I.bit_count()
        for J, col in lam_idx.items():
            common = I & J
            if not common:
                dJ = J.bit_count()
                if dI != 2 or dJ != 2:      # else the entry is zero
                    s = -1 if (J & odd[I]).bit_count() & 1 else 1     # (-1)^alpha(I, J)
                    e = number.setdefault((0, s * (dI - 2), s * (dI + dJ - 4)), len(number))
                    slots.append((row, col, lam_idx[I | J], e))
            elif not common & (common - 1):
                i = common.bit_length()
                e = dI + eps_at[i][I] + eps_at[i][J] + ((J ^ common) & odd[I ^ common]).bit_count()
                slots.append((row, col, lam_idx[(I | J) ^ common],
                              number.setdefault((_sgn(e), 0, 0), len(number))))
    return LambdaStructure.from_slots(
        LIE, gens, _entry_polys(number), slots, name=f"K_{n}", meta={"n": n, "lam_idx": lam_idx}
    )


def make_K4prime() -> LambdaStructure:
    """K_4' of rank 16: xi_I (|I| <= 3) plus the generator d xi_star.

    Brackets are inherited from K_4 and read back through span_reader: a
    component on xi_star is divided exactly by the pivot d of d xi_star, and
    one that d does not divide raises NotInSpan.  The extra printed brackets
    of the derived algebra are verified against this inheritance in the
    tests.
    """
    from .restricted import DXI_STAR, _restrict

    K4 = make_K(4)
    lam_idx = K4.meta["lam_idx"]
    star = 0b1111
    keep = [m for m in _masks(4) if m != star]
    gens = [K4.generators[lam_idx[m]] for m in keep]
    gens.append(DXI_STAR)
    elems = [ConformalElement.gen(lam_idx[m]) for m in keep]
    elems.append(ConformalElement({lam_idx[star]: D}))
    return LambdaStructure.from_slots(
        LIE, gens, *_restrict(K4, elems), name="K_4'",
        meta={"n": 4, "keep": keep, "K4": K4, "embeds": elems},
    )


def make_CK6() -> LambdaStructure:
    """CK_6 of rank 32, the K_6 restriction of its embedded basis (ck6_embed).

    The printed closed-form brackets are compared with a table term by term
    by printed.verify_ck6_printed.  That list is not empty for CK_6, because
    the tabulated weights of C_i and C_ij are transposed ([L lam C_i]
    restricts to (3/2 lam + d) C_i, matching the standard weight-(2, 3/2, 1,
    1/2) field content, while the table prints (lam + d) C_i)."""
    from .restricted import _ck6_basis_tuples, _ck6_name, _ck6_parity, _restrict, ck6_embed

    K6 = make_K(6)
    tuples = _ck6_basis_tuples()
    gens = [Generator(_ck6_name(t), _ck6_parity(t), None) for t in tuples]
    embeds = [ck6_embed(t, K6) for t in tuples]
    return LambdaStructure.from_slots(
        LIE, gens, *_restrict(K6, embeds), name="CK_6",
        meta={"K6": K6, "tuples": tuples, "embeds": embeds},
    )
