"""Constructors for every family in the classification, and the negative
control corrupt_entry.

The constructors come by series: Vir, the currents and the Jordan current;
W_n and its subalgebras S_n, S_{n,b} and S~_n; K_n, whose K_2, K_3 and K_4
are the N = 2, 3, 4 algebras, and its subalgebras K_4' and CK_6; J_n, JS_1
and JCK_4.  The command line builds a family through cli.FAMILIES.  The
generator lists that the closed forms share are in bases, the mask
helpers in masks and the restriction machinery of the subalgebras in
restricted.

W_n, K_n and J_n are built straight into the stored form
(Table.from_slots): W_n out of the Grassmann sign calculus on masks, K_n
and J_n from the closed form of their entries on monomials.  S_n, S_{n,b}
and S~_n are restricted from W_n, K_4' and CK_6 from K_4 and K_6: these
five constructors import the restriction machinery of restricted inside
their bodies, so a command that builds no subalgebra family never
compiles it.  JS_1 and JCK_4 list their tabulated products and fill the
other orders by commutativity (_mirror_fill).  A current algebra's
lambda-product is lambda-free: make_current builds it from the structure
constants of a finite-dimensional (super)algebra, such as sl2_constants.
The closed form of Cur(sl2) writes its dual from the displayed sums, not
from these constants, so its crosscheck can fail.

A constructor runs no check, so constants that break the axioms
(make_current) give a table whose checks fail.  Where the paper tabulates
the brackets (S_n, CK_6), the tabulated formulas are a second, independent
path in printed, which no constructor evaluates.  meta holds only the data
of the construction and is never written afterwards.  The constructors take
any n; the command line's caps on --n live in cli.FAMILIES.

Parity conventions (stated once, used everywhere): p(xi_I) = |I| mod 2 in
the Lambda(n) parts, p(xi_I d_i) = |I|+1, p(xi_I theta) = |I|+1; in CK_6,
L and C_{ij} are even, C_i and C_{ijk} odd; in JS_1, S is even and T odd;
in JCK_4, 1 and omega_i are even, x and x_i odd.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .bases import (
    DXI_STAR, _ck6_basis_tuples, _ck6_name, _ck6_parity, _entry_polys, jck4_generators,
    jn_generators, k_generators, sn_basis, w_generators,
)
from .masks import _d_mul, _mask_of, _masks, _sgn, _sign_tables, mul_sign
from .poly import D, LAM, MultiPoly, P_ONE, Scalar, accumulate
from .tables import ConformalElement, Generator, JORDAN, LIE, LambdaStructure, StructureError


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
    from .restricted import _restrict, embed_sn

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
    from .restricted import _restrict, embed_sn

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
    from .restricted import _restrict

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
    from .restricted import _restrict, ck6_embed

    K6 = make_K(6)
    tuples = _ck6_basis_tuples()
    gens = [Generator(_ck6_name(t), _ck6_parity(t), None) for t in tuples]
    embeds = [ck6_embed(t, K6) for t in tuples]
    return LambdaStructure.from_slots(
        LIE, gens, *_restrict(K6, embeds), name="CK_6",
        meta={"K6": K6, "tuples": tuples, "embeds": embeds},
    )


def make_Jn(n: int) -> LambdaStructure:
    """J_n on Lambda(n) + Lambda(n) theta, rank 2 * 2^n, Jordan kind.

    Products (a, b in Lambda(n)):
      a lam b = ab;  a lam (b th) = (ab) th;  (a th) lam b = (-1)^{|b|} (ab) th;
      (a th) lam (b th) = (-1)^{|b|} [ lam (|a|+|b|-4) ab + (|a|-2) d(ab)
          + (-1)^{|a|} ( sum_{i<=n-2} (d_i a)(d_i b)
                         + (d_n a)(d_{n-1} b) + (d_{n-1} a)(d_n b) ) ].
    The swapped-index derivative terms need two coordinates and are present
    only for n >= 2; for n < 2 the derivative block is empty.
    """
    if n < 0:
        raise StructureError("J_n needs n >= 0")
    gens, ev_idx, th_idx = jn_generators(n)

    # the derivative pairs: (i, i) for i <= n - 2, then the swapped last two
    deriv_pairs = [(i, i) for i in range(1, n - 1)] + ([(n, n - 1), (n - 1, n)] if n >= 2 else [])
    eps_at = _sign_tables(n)[0]
    number: Dict[Tuple[int, int, int], int] = {}    # the index of each value (see _entry_polys)
    slots = []

    def value(c: int, a: int = 0, b: int = 0) -> int:
        return number.setdefault((c, a, b), len(number))

    for I in ev_idx:
        dI = I.bit_count()
        for J in ev_idx:
            dJ = J.bit_count()
            s = mul_sign(I, J)
            if s:
                k, t = I | J, _sgn(dJ) * s
                slots.append((ev_idx[I], ev_idx[J], ev_idx[k], value(s)))
                slots.append((ev_idx[I], th_idx[J], th_idx[k], value(s)))
                slots.append((th_idx[I], ev_idx[J], th_idx[k], value(t)))
                if dI != 2 or dJ != 2:
                    slots.append((th_idx[I], th_idx[J], ev_idx[k],
                                  value(0, (dI - 2) * t, (dI + dJ - 4) * t)))
            # Table._store sums the (a th) lam (b th) terms by target
            for i, j in deriv_pairs:
                if not (I & _mask_of(i) and J & _mask_of(j)):
                    continue
                Ii, Jj = I ^ _mask_of(i), J ^ _mask_of(j)
                sd = mul_sign(Ii, Jj)
                if sd:
                    sd *= _sgn(dJ + dI + eps_at[i][I] + eps_at[j][J])
                    slots.append((th_idx[I], th_idx[J], ev_idx[Ii | Jj], value(sd)))
    return LambdaStructure.from_slots(
        JORDAN, gens, _entry_polys(number), slots, name=f"J_{n}",
        meta={"n": n, "ev_idx": ev_idx, "th_idx": th_idx},
    )


def _mirror_fill(gens, table):
    """Materialise missing (j, i) entries from (i, j) via commutativity."""
    for i, j in [(j, i) for i, j in table if (j, i) not in table]:
        sg = _sgn(gens[i].parity * gens[j].parity)
        table[(i, j)] = [(k, p.subst_general("lam", -LAM - D) * sg) for k, p in table[(j, i)]]


def make_JS1() -> LambdaStructure:
    """JS_1: even S, odd T; S lam S = 2S, T lam T = (2 lam + d) S, T lam S = T."""
    gens = [Generator("S", 0), Generator("T", 1)]
    table = {
        (0, 0): [(0, MultiPoly.const(2))],
        (1, 1): [(0, LAM * 2 + D)],
        (1, 0): [(1, P_ONE)],
    }
    _mirror_fill(gens, table)
    return LambdaStructure(JORDAN, gens, table, name="JS_1")


_JCK4_CROSS = {
    (1, 2): (1, 3), (2, 1): (-1, 3),
    (1, 3): (1, 2), (3, 1): (-1, 2),
    (2, 3): (-1, 1), (3, 2): (1, 1),
}


def make_JCK4() -> LambdaStructure:
    """JCK_4: even 1, omega_1..3; odd x, x_1..3.

    1 is a unit; omega_i lam omega_i = 1 (i = 1, 2), -1 (i = 3);
    omega_i lam x = lam x_i; omega_i lam x_j = -x_{i x j};
    x lam x = (2 lam + d) 1; x_i lam x = omega_i; x_i lam x_j = 0,
    with the cross table x_{1x2} = -x_{2x1} = x_3, x_{1x3} = -x_{3x1} = x_2,
    -x_{2x3} = x_{3x2} = x_1.  Orders without a tabulated product are filled
    by commutativity.
    """
    gens = jck4_generators()
    names = [g.id for g in gens]
    idx = {nm: i for i, nm in enumerate(names)}
    table: Dict[Tuple[int, int], List[Tuple[int, MultiPoly]]] = {}
    for nm in names:
        table[(idx["one"], idx[nm])] = [(idx[nm], P_ONE)]
    for i in (1, 2, 3):
        val = MultiPoly.const(1 if i < 3 else -1)
        table[(idx[f"w{i}"], idx[f"w{i}"])] = [(idx["one"], val)]
        table[(idx[f"w{i}"], idx["x"])] = [(idx[f"x{i}"], LAM)]
        for j in (1, 2, 3):
            s, k = _JCK4_CROSS.get((i, j), (0, 0))
            if s:
                table[(idx[f"w{i}"], idx[f"x{j}"])] = [(idx[f"x{k}"], MultiPoly.const(-s))]
    table[(idx["x"], idx["x"])] = [(idx["one"], LAM * 2 + D)]
    for i in (1, 2, 3):
        table[(idx[f"x{i}"], idx["x"])] = [(idx[f"w{i}"], P_ONE)]
    _mirror_fill(gens, table)
    return LambdaStructure(JORDAN, gens, table, name="JCK_4")


def corrupt_entry(S: LambdaStructure, left: str, right: str,
                  out: str, p: MultiPoly) -> LambdaStructure:
    """Copy of S with table entry (left, right) replaced by p * out."""
    i, j, k = S.index[left], S.index[right], S.index[out]
    return S.with_entry(i, j, ConformalElement({k: p}))
