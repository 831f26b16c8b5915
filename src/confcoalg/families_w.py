"""Constructors of the W series: W_n, and its subalgebras S_n, S_{n,b} and S~_n.

W_n is built straight into the stored form (Table.from_slots) out of the
Grassmann sign calculus on masks.  S_n, S_{n,b} and S~_n are restricted
from W_n: their constructors import the restriction machinery of
restricted inside their bodies, so a command that builds W_n alone never
compiles it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .bases import _entry_polys, w_generators
from .masks import _d_mul, _sgn, mul_sign
from .poly import Scalar, accumulate
from .tables import ConformalElement, Generator, LIE, LambdaStructure, StructureError


def make_W(n: int) -> LambdaStructure:
    """W_n = C[d] (x) (W(n) + Lambda(n)), rank (n+1) 2^n.

    Generators: xi_I (parity |I|) and xi_I d_i (parity |I|+1); brackets are
    the four shapes obtained from [a lam f] = a(f) - (-1)^{p(a)p(f)} lam f a
    and [f lam g] = -(d + 2 lam) f g, spelled out on the monomial basis.
    """
    if n < 0:
        raise StructureError("W_n needs n >= 0")
    gens, lam_idx, w_idx = w_generators(n)
    slots: List[Tuple[int, int, int, int]] = []
    put = slots.append
    # the entries take eight values, each made once: 1, -(d + 2 lam), -lam,
    # -(lam + d) and their negatives, by sign (see _entry_polys)
    number: Dict[Tuple[int, int, int], int] = {}
    unit, minus_d_2lam, minus_lam, minus_lam_d = (
        {s: number.setdefault((s * c, s * a, s * b), len(number)) for s in (1, -1)}
        for c, a, b in ((1, 0, 0), (0, -1, -2), (0, 0, -1), (0, -1, -1)))
    for I in lam_idx:
        dI = I.bit_count()
        for J in lam_idx:
            dJ = J.bit_count()
            # [xi_I lam xi_J]
            s = mul_sign(I, J)
            if s:
                put((lam_idx[I], lam_idx[J], lam_idx[I | J], minus_d_2lam[s]))
            s_JI = mul_sign(J, I)
            # xi_J d_j(xi_I) for each j, used by [xi_I d_i lam xi_J d_j]
            d_IJ = [_d_mul(J, j, I) for j in range(1, n + 1)]
            # [xi_I d_i lam xi_J] and [xi_J lam xi_I d_i]
            for i in range(1, n + 1):
                wi = w_idx[(I, i)]
                s_d, K = _d_mul(I, i, J)
                if s_d:
                    # xi_I d_i(xi_J), and -(-1)^{|J|(|I|+1)} of it in the flipped order
                    put((wi, lam_idx[J], lam_idx[K], unit[s_d]))
                    put((lam_idx[J], wi, lam_idx[K], unit[-_sgn(dJ * (dI + 1)) * s_d]))
                if s_JI:
                    # -lam (-1)^{(|I|+1)|J|} xi_J xi_I d_i, and -(lam+d) xi_J xi_I d_i
                    put((wi, lam_idx[J], w_idx[(I | J, i)], minus_lam[_sgn((dI + 1) * dJ) * s_JI]))
                    put((lam_idx[J], wi, w_idx[(I | J, i)], minus_lam_d[s_JI]))
                # [xi_I d_i lam xi_J d_j]: xi_I d_i(xi_J) d_j, less the sign
                # times xi_J d_j(xi_I) d_i.  At j = i, when both are nonzero (I
                # and J meet in {i}), the two land on xi_{I+J} d_i and cancel,
                # as d_i(xi_I xi_J) = 0, so neither is put
                for j in range(1, n + 1):
                    s_e, K_e = d_IJ[j - 1]
                    if j == i and s_d and s_e:
                        continue
                    if s_d:
                        put((wi, w_idx[(J, j)], w_idx[(K, j)], unit[s_d]))
                    if s_e:
                        put((wi, w_idx[(J, j)], w_idx[(K_e, i)],
                             unit[-_sgn((dI + 1) * (dJ + 1)) * s_e]))
    return LambdaStructure.from_slots(
        LIE, gens, _entry_polys(number), slots, name=f"W_{n}",
        meta={"n": n, "lam_idx": lam_idx, "w_idx": w_idx},
    )


def make_S(n: int) -> LambdaStructure:
    """S_n = ker(div) in W_n, rank n 2^n, the W-restriction of the embedded
    basis (restricted.embed_sn), read back through restricted.span_reader.

    The tabulated bracket formulas are a second, independent path, compared
    with a table by printed.proposition_diffs.  (The pair/single case of the
    tabulated formulas is missing its i-in-J contributions, so that list is
    not empty for S_n; see the diffs themselves for the exact terms.)
    """
    from .restricted import _restrict, embed_sn, sn_basis

    if n < 2:
        raise StructureError("S_n needs n >= 2")
    W = make_W(n)
    basis = sn_basis(n)
    gens = [Generator(b.name(), b.parity(), b.latex()) for b in basis]
    embeds = [embed_sn(b, W) for b in basis]
    return LambdaStructure.from_slots(
        LIE, gens, *_restrict(W, embeds), name=f"S_{n}",
        meta={"n": n, "basis": basis, "W": W, "embeds": embeds},
    )


def make_S_b(n: int, b: Scalar) -> LambdaStructure:
    """S_{n,b} = ker(div_b) in W_n, rank n 2^n, basis from kernel_basis.

    The basis is the kernel basis after one more column elimination (at
    n = 3 that step changes it); brackets are read back through span_reader,
    and closure failure raises NotInSpan.
    """
    from .restricted import _eliminate_columns, _restrict, div_module_map, kernel_basis

    if n < 2:
        raise StructureError("S_{n,b} needs n >= 2")
    W = make_W(n)
    M = div_module_map(W, b)
    raw = kernel_basis(M)
    if len(raw) != n * (1 << n):
        raise StructureError(
            f"S_{{{n},{b!r}}} kernel rank {len(raw)} != {n * (1 << n)}"
        )
    cols = [dict(c) for c in raw]
    _eliminate_columns(cols)
    gens = []
    embeds = []
    for j, c in enumerate(cols):
        par = {W.parity(g) for g in c}
        if len(par) != 1:
            raise StructureError("kernel basis element not parity-homogeneous")
        gens.append(Generator(f"k{j}", par.pop()))
        embeds.append(ConformalElement(dict(c)))
    return LambdaStructure.from_slots(
        LIE, gens, *_restrict(W, embeds), name=f"S_{n},b",
        meta={"n": n, "b": b, "W": W, "embeds": embeds},
    )


def make_S_tilde(n: int) -> LambdaStructure:
    """S~_n = (1 - xi_star) S_n inside W_n, rank n 2^n, n even.

    Each S_n basis element e embeds as e - xi_star e, where xi_star =
    xi_1 ... xi_n keeps only the components of e free of xi.  Brackets are
    read back through span_reader.
    """
    from .restricted import _restrict, embed_sn, sn_basis

    if n < 2 or n % 2:
        raise StructureError("S~_n needs even n >= 2")
    W = make_W(n)
    lam_idx, w_idx = W.meta["lam_idx"], W.meta["w_idx"]
    star = (1 << n) - 1
    # the components free of xi, 1 and d_i, and their xi_star multiples
    lift = {lam_idx[0]: lam_idx[star]}
    lift.update({w_idx[(0, i)]: w_idx[(star, i)] for i in range(1, n + 1)})
    basis = sn_basis(n)
    embeds = []
    for b in basis:
        terms = dict(embed_sn(b, W).terms)
        for g in lift.keys() & terms.keys():
            accumulate(terms, lift[g], -terms[g])
        embeds.append(ConformalElement(terms))
    gens = [Generator(b.name(), b.parity(), b.latex()) for b in basis]
    return LambdaStructure.from_slots(
        LIE, gens, *_restrict(W, embeds), name=f"S~_{n}",
        meta={"n": n, "W": W, "embeds": embeds, "basis": basis},
    )
