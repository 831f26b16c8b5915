"""The printed second paths: the tabulated brackets of S_n and CK_6, and the
divergence identity.

Where the paper tabulates the brackets (S_n, CK_6), the tabulated formulas
are a second, independent path: proposition_diffs and verify_ck6_printed
list the disagreements of the table they are given with them.
check_div_identity checks that div_b is a homomorphism of conformal modules
from W_n onto its currents (_current_action).  No constructor and no
command runs them, so no command compiles this module; the tests do.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Tuple

from .bases import (
    SnBasisElement, _CK6_STAR, _ck6_name, _ck6_parity, _entry_polys, _hodge_sign, ck6_symbol,
)
from .conformal import Report, Violation, bracket, shift_spectral
from .families import make_W
from .masks import _d_mul, _mask_of, _monomial, _sgn, eps_mask, members, mul_sign
from .poly import D, LAM, MultiPoly, P_ONE, P_ZERO, Scalar, accumulate
from .restricted import div_w
from .tables import ConformalElement, LIE, LambdaStructure, StructureError


# ---------------------------------------------------------------------------
# divergence: the identity that makes div_b a homomorphism


def _current_action(W: LambdaStructure) -> LambdaStructure:
    """The action of W_n on Lambda(n)-valued currents as a table on the
    generators of W_n, which conformal.bracket extends sesquilinearly: xi_I d_i
    sends xi_J to xi_I d_i(xi_J), and xi_I sends xi_J to -(d + lam) xi_I xi_J.
    This is the weight that makes div_b a homomorphism of conformal modules;
    the adjoint bracket does not (its Lambda-part carries -(d + 2 lam)).
    The rows of targets outside the currents are empty."""
    lam_idx, w_idx = W.meta["lam_idx"], W.meta["w_idx"]
    number: Dict[Tuple[int, int, int], int] = {}    # see bases._entry_polys
    slots = []
    for J, j in lam_idx.items():
        for I, i in lam_idx.items():
            s = mul_sign(I, J)
            if s:       # -s (d + lam)
                slots.append((i, j, lam_idx[I | J], number.setdefault((0, -s, -s), len(number))))
        for (I, i), g in w_idx.items():
            s, K = _d_mul(I, i, J)
            if s:
                slots.append((g, j, lam_idx[K], number.setdefault((s, 0, 0), len(number))))
    return LambdaStructure.from_slots(LIE, W.generators, _entry_polys(number), slots,
                                      name=W.name + " on currents")


def check_div_identity(n: int, b: Scalar = Scalar(0)) -> Report:
    """div_b [D1 lam D2] = (D1)_lam(div_b D2) - (-1)^{p1 p2} (D2)_{-lam-d}(div_b D1)
    over all generator pairs of W_n, with the current-module action."""
    W = make_W(n)
    act = _current_action(W)
    div = [div_w(W, ConformalElement.gen(g), b) for g in range(W.rank)]
    rep = Report(f"div-identity(b={b!r})", W.name)
    for i in range(W.rank):
        for j in range(W.rank):
            rep.total += 1
            ei, ej = ConformalElement.gen(i), ConformalElement.gen(j)
            lhs = div_w(W, W.entry(i, j), b)
            t1 = bracket(act, ei, div[j], "lam")
            t2 = shift_spectral(bracket(act, ej, div[i], "mu"), "mu", -LAM - D)
            sg = _sgn(W.parity(i) * W.parity(j))
            resid = lhs - t1 + t2.scale(MultiPoly.const(sg))
            if not resid.is_zero():
                rep.violations.append(
                    Violation(
                        (W.generators[i].id, W.generators[j].id),
                        resid.pretty(W),
                    )
                )
    return rep


# ---------------------------------------------------------------------------
# S_n: the tabulated brackets


def _raw_A_pair(n: int, mask: int, p: int, q: int, coeff: MultiPoly,
                store: Dict[str, MultiPoly]):
    """Accumulate coeff * A_{mask,p,q} over the consecutive-pair basis."""
    if p == q:
        return
    if (mask >> (p - 1)) & 1 or (mask >> (q - 1)) & 1:
        raise StructureError("A pair indices must avoid I")
    if p > q:
        p, q = q, p
        coeff = -coeff
    comp = members(~mask & ((1 << n) - 1))
    for a, b in zip(comp, comp[1:]):
        if p <= a and b <= q:
            accumulate(store, SnBasisElement("A2", mask, a, b).name(), coeff)


def _raw_B(n: int, mask: int, coeff: MultiPoly, store: Dict[str, MultiPoly]):
    if mask.bit_count() < n:
        accumulate(store, SnBasisElement("B", mask).name(), coeff)
    # B on the full set degenerates to 0: (|I|-n) and the complement sum both vanish


def _prop_entry(n: int, u: SnBasisElement, v: SnBasisElement) -> Dict[str, MultiPoly]:
    """One bracket [u lam v] straight from the tabulated S_n formulas.

    Only the printed orders are produced here; mirrored orders are derived
    from these by skew-symmetry in proposition_diffs.
    """
    out: Dict[str, MultiPoly] = {}
    I, J = u.mask, v.mask
    dI, dJ = I.bit_count(), J.bit_count()
    disjoint = not I & J
    full = (1 << n) - 1

    def single(mask: int, i: int) -> str:
        return SnBasisElement("A", mask, i).name()

    if u.tag == "A2" and v.tag == "A2":
        return out

    if u.tag == "A2" and v.tag == "A":
        i, j, r = u.i, u.j, v.i
        if I & _mask_of(r) and disjoint and not J & (_mask_of(i) | _mask_of(j)):
            Ir = I ^ _mask_of(r)
            s = mul_sign(Ir, J)
            if s:
                sg = _sgn(eps_mask(r, I) + 1 + dI + dJ) * s
                _raw_A_pair(n, Ir | J, i, j, MultiPoly.const(sg), out)
        elif not I & _mask_of(r) and disjoint:
            s = mul_sign(I, J)
            if s:
                if r == j and not J & _mask_of(j):
                    accumulate(out, single(I | J, j), MultiPoly.const(s))
                if r == i and not J & _mask_of(i):
                    accumulate(out, single(I | J, i), MultiPoly.const(-s))
        return out

    if u.tag == "A" and v.tag == "A":
        i, j = u.i, v.i
        i_in_J, j_in_I = J & _mask_of(i), I & _mask_of(j)
        if not i_in_J and not j_in_I:
            return out
        if i_in_J and not j_in_I:
            s, K = _d_mul(I, i, J)
            if s and not K & _mask_of(j):
                accumulate(out, single(K, j), MultiPoly.const(s))
        elif j_in_I and not i_in_J:
            rest = I ^ _mask_of(j)
            s = _sgn(eps_mask(j, I)) * mul_sign(rest, J)
            if s and not (rest | J) & _mask_of(i):
                accumulate(out, single(rest | J, i), MultiPoly.const(_sgn(dI) * s))
        else:
            Iw, Jv = I ^ _mask_of(j), J ^ _mask_of(i)
            s = mul_sign(Iw, Jv)
            if s:
                sg = _sgn(dI + dJ + eps_mask(i, J) + eps_mask(j, I)) * s
                _raw_A_pair(n, Iw | Jv, j, i, MultiPoly.const(sg), out)
        return out

    if u.tag == "B" and v.tag == "B":
        if not disjoint:
            return out
        coeff = (LAM * (2 * n - dI - dJ) + D * (n - dI)) * mul_sign(I, J)
        _raw_B(n, I | J, coeff, out)
        return out

    if u.tag == "A" and v.tag == "B":
        i = u.i
        if not disjoint:
            return out
        if not J & _mask_of(i):
            s = mul_sign(I, J)
            if s:
                coeff = (LAM * (n - dJ + 1 - dI) + D * (1 - dI)) * (_sgn(dJ) * s)
                accumulate(out, single(I | J, i), coeff)
        else:
            s, K = _d_mul(I, i, J)
            if not s:
                return out
            den = dI + dJ - n - 1
            assert den != 0, "S_n proposition denominator vanished"
            _raw_B(n, K, MultiPoly.const(Fraction(dJ - n, den) * s), out)
            coeff_d = D.scalar_mul(Fraction(dI - 1, den)) * s
            for j in members(~(I | J) & full):
                _raw_A_pair(n, K, j, i, coeff_d, out)
                _raw_A_pair(n, K, j, i, LAM * s, out)
        return out

    if u.tag == "A2" and v.tag == "B":
        i, k = u.i, u.j
        if not disjoint:
            return out
        i_in, k_in = J & _mask_of(i), J & _mask_of(k)
        if i_in and k_in:
            return out
        s = mul_sign(I, J)
        if not s:
            return out
        K = I | J
        if not i_in and not k_in:
            coeff = (LAM * (n - dJ - dI) - D * dI) * s
            _raw_A_pair(n, K, i, k, coeff, out)
            return out
        den = dI + dJ - n
        assert den != 0, "S_n proposition denominator vanished"
        free = members(~K & full)
        if i_in:
            _raw_B(n, K, MultiPoly.const(Fraction(dJ - n, den)) * s, out)
            coeff = (LAM + D.scalar_mul(Fraction(dI, den))) * s
            for j in free:
                _raw_A_pair(n, K, j, k, coeff, out)
        else:
            _raw_B(n, K, MultiPoly.const(Fraction(n - dJ, den)) * s, out)
            coeff = (LAM + D.scalar_mul(Fraction(dI, den))) * s
            for j in free:
                _raw_A_pair(n, K, j, i, -coeff, out)
        return out

    raise StructureError(f"no printed formula for ({u.tag}, {v.tag})")


_PRINTED_ORDERS = {
    ("A2", "A2"), ("A2", "A"), ("A", "A"), ("B", "B"), ("A", "B"), ("A2", "B")
}


def proposition_diffs(S: LambdaStructure) -> List[str]:
    """The terms where the tabulated S_n formulas (mirrored orders via
    skew-symmetry) differ from the rows of S, an S_n of make_S or a copy of
    one, bracket by bracket in row-major order, by basis name within a
    bracket."""
    n, basis = S.meta["n"], S.meta["basis"]
    names = [b.name() for b in basis]
    printed: Dict[Tuple[int, int], Dict[str, MultiPoly]] = {}
    for a, u in enumerate(basis):
        for b, v in enumerate(basis):
            if (u.tag, v.tag) in _PRINTED_ORDERS:
                printed[(a, b)] = _prop_entry(n, u, v)
    diffs = []
    for (a, b), row in S.table.items():
        want = printed.get((a, b))
        if want is None:
            sg = -_sgn(basis[a].parity() * basis[b].parity())
            want = {nm: p.subst_general("lam", -LAM - D) * sg
                    for nm, p in printed[(b, a)].items()}
        got = {names[k]: p for k, p in row}
        for nm in sorted(set(got) | set(want)):
            pa = got.get(nm, P_ZERO)
            pb = want.get(nm, P_ZERO)
            if pa != pb:
                diffs.append(
                    f"[{names[a]} lam {names[b]}] @ {nm}: W-path {pa!r}"
                    f" vs formula {pb!r}"
                )
    return diffs


# ---------------------------------------------------------------------------
# CK_6: the tabulated brackets


def verify_ck6_printed(S: LambdaStructure) -> List[str]:
    """The brackets where S, CK_6 of make_CK6 or a copy of one, differs from
    the tabulated CK_6 brackets.

    All comparisons happen inside K_6 (table entries are embedded back), so
    right-hand sides given in monomials and right-hand sides given in C
    symbols are on an equal footing.  Mirrored orders are derived from the
    printed ones by skew-symmetry.
    """
    diffs: List[str] = []
    K6 = S.meta["K6"]
    lam_idx = K6.meta["lam_idx"]
    embeds = S.meta["embeds"]
    beta = Scalar.beta()

    def in_k6(a: int, b: int) -> ConformalElement:
        out = ConformalElement()
        for k, p in S.table[(a, b)]:
            out = out + embeds[k].scale(p)
        return out

    def emb_sym(t: Tuple[int, ...], poly: MultiPoly) -> ConformalElement:
        out = ConformalElement()
        for nm, c in ck6_symbol(t).items():
            out = out + embeds[S.index[nm]].scale(poly.scalar_mul(c))
        return out

    def check(ta: Tuple[int, ...], tb: Tuple[int, ...], want: ConformalElement):
        ca, cb = ck6_symbol(ta), ck6_symbol(tb)
        if not ca or not cb:
            return
        (na, sa), = ca.items()
        (nb, sb), = cb.items()
        a, b = S.index[na], S.index[nb]
        scale = MultiPoly.const(sa * sb)
        got = in_k6(a, b).scale(scale)
        if not (got - want).is_zero():
            diffs.append(f"[{_ck6_name(ta)} lam {_ck6_name(tb)}]: restriction vs printed")
        got_m = in_k6(b, a).scale(scale)
        sgn = -_sgn(_ck6_parity(ta) * _ck6_parity(tb))
        want_m = shift_spectral(want, "lam", -LAM - D).scale(MultiPoly.const(sgn))
        if not (got_m - want_m).is_zero():
            diffs.append(f"[{_ck6_name(tb)} lam {_ck6_name(ta)}]: restriction vs skew of printed")

    # [L lam L] and [L lam C_t]: (2, 1, 3/2, 1/2) lam + d
    weights = {0: Fraction(2), 1: Fraction(1), 2: Fraction(3, 2), 3: Fraction(1, 2)}
    for t in S.meta["tuples"]:
        check((), t, emb_sym(t, LAM.scalar_mul(weights[len(t)]) + D))

    # [C_i lam C_j] = -(2 lam + d) C_ij + 2 delta_ij L
    for i in range(1, 7):
        for j in range(1, 7):
            want = emb_sym((i, j), -(LAM * 2 + D))
            if i == j:
                want = want + emb_sym((), MultiPoly.const(2))
            check((i,), (j,), want)

    # [C_ij lam C_k] = -lam C_ijk + delta_ki C_j - delta_kj C_i
    for i in range(1, 7):
        for j in range(i + 1, 7):
            for k in range(1, 7):
                want = emb_sym((i, j, k), -LAM)
                if k == i:
                    want = want + emb_sym((j,), P_ONE)
                if k == j:
                    want = want - emb_sym((i,), P_ONE)
                check((i, j), (k,), want)

    # [C_ij lam C_kl], Kronecker contractions
    for i in range(1, 7):
        for j in range(i + 1, 7):
            for k in range(1, 7):
                for l in range(k + 1, 7):
                    want = ConformalElement()
                    for d1, d2, s, t2 in (
                        (i, k, 1, (j, l)), (i, l, -1, (j, k)),
                        (j, k, -1, (i, l)), (j, l, 1, (i, k)),
                    ):
                        if d1 == d2:
                            want = want + emb_sym(t2, MultiPoly.const(s))
                    check((i, j), (k, l), want)

    # [C_ij lam C_klm], six Kronecker contractions
    for i in range(1, 7):
        for j in range(i + 1, 7):
            for klm in itertools.combinations(range(2, 7), 2):
                k, l, m = 1, klm[0], klm[1]
                want = ConformalElement()
                for d1, d2, s, t2 in (
                    (i, k, 1, (j, l, m)), (i, l, -1, (j, k, m)), (i, m, 1, (j, k, l)),
                    (j, k, -1, (i, l, m)), (j, l, 1, (i, k, m)), (j, m, -1, (i, k, l)),
                ):
                    if d1 == d2:
                        want = want + emb_sym(t2, MultiPoly.const(s))
                check((i, j), (k, l, m), want)

    # [C_ijk lam C_lmn] = 0
    for ijk in itertools.combinations(range(2, 7), 2):
        for lmn in itertools.combinations(range(2, 7), 2):
            check((1,) + ijk, (1,) + lmn, ConformalElement())

    # [C_i lam C_jkl] = beta (xi_{ijkl}^bullet + beta d xi_{ijkl})
    #                   - ((xi_i xi_{jkl}^bullet)^bullet + beta d xi_i xi_{jkl}^bullet)
    def mono(m: int, poly: MultiPoly) -> ConformalElement:
        return ConformalElement({lam_idx[m]: poly})

    for i in range(1, 7):
        for jk in itertools.combinations(range(2, 7), 2):
            jkl = (1,) + jk
            want = ConformalElement()
            sgn, m = _monomial((i,) + jkl)
            if sgn:
                h = sgn * _hodge_sign(m)
                want = want + mono(_CK6_STAR ^ m, MultiPoly.const(beta * Scalar(h)))
                want = want + mono(m, D.scalar_mul(beta * beta * Scalar(sgn)))
            _, m_jkl = _monomial(jkl)
            hj = _CK6_STAR ^ m_jkl
            sgn2 = _hodge_sign(m_jkl) * mul_sign(_mask_of(i), hj)
            if sgn2:
                m2 = _mask_of(i) | hj
                want = want - mono(_CK6_STAR ^ m2, MultiPoly.const(Scalar(sgn2 * _hodge_sign(m2))))
                want = want - mono(m2, D.scalar_mul(beta * Scalar(sgn2)))
            check((i,), jkl, want)

    return diffs
