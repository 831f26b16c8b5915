"""Constructors for every family in the classification.

Each constructor returns a ``LambdaStructure`` built from first principles
out of the Grassmann sign calculus on plain int subset masks.  Families
defined as subalgebras (S_n, S_{n,b}, S~_n, K_4', CK_6) are built by
restriction inside the ambient algebra (W_n, K_4 or K_6): each lists its
basis and embeds it, conformal.bracket_pairs gives the brackets of the
embedded basis as packed rows, and one span_reader per table gives their
coordinates by forward substitution over pivots on packed vectors (a bracket
outside the span raises NotInSpan), each distinct coordinate unpacked once.
Where the paper tabulates the brackets (S_n, CK_6), the tabulated formulas
are a second, independent path: ``proposition_diffs`` and
``verify_ck6_printed`` list the disagreements of the table they are given
with them.  A constructor never evaluates them and runs no check, so
constants that break the axioms (make_current) give a table whose checks
fail.  meta holds only the data of the construction and is never written
afterwards.  The constructors take any n; the command line's caps on --n
live in cli.FAMILIES.

Parity conventions (stated once, used everywhere): p(xi_I) = |I| mod 2 in
the Lambda(n) parts, p(xi_I d_i) = |I|+1, p(xi_I theta) = |I|+1; in CK_6,
L and C_{ij} are even, C_i and C_{ijk} odd; in JS_1, S is even and T odd;
in JCK_4, 1 and omega_i are even, x and x_i odd.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from math import gcd
from typing import Dict, List, Sequence, Tuple

from .conformal import (
    ConformalElement,
    FrozenRecord,
    Generator,
    JORDAN,
    LIE,
    LambdaStructure,
    ModuleMap,
    Report,
    StructureError,
    Violation,
    _eliminate_columns,
    bracket,
    bracket_pairs,
    kernel_basis,
    shift_spectral,
)
from .grassmann import alpha_mask, eps_mask, members, mul_sign
from .poly import (
    D, LAM, MultiPoly, P_ONE, P_ZERO, Scalar, _COMPONENT_SHIFT, _GUARD, _VAR_SHIFT, accumulate,
    add_product, common_denominator, compact_vector, pack_vector, unpack_vector,
)

def _sgn(e: int) -> int:
    return -1 if e & 1 else 1


def _signs(p: MultiPoly) -> Dict[int, MultiPoly]:
    """{1: p, -1: -p}, made once per table for all its entries that are
    one of them; p is made per call too, so two tables share no polynomial."""
    return {1: p, -1: -p}


def _digits(indices: Tuple[int, ...]) -> str:
    return "".join(str(i) for i in indices)


def _mask_of(i: int) -> int:
    return 1 << (i - 1)


def _monomial(indices: Tuple[int, ...]) -> Tuple[int, int]:
    """xi_{i1} ... xi_{ir} as (sign, mask); the sign is 0 when an index repeats."""
    sign, mask = 1, 0
    for i in indices:
        sign *= mul_sign(mask, _mask_of(i))
        mask |= _mask_of(i)
    return sign, mask


def _d_mul(a: int, i: int, b: int) -> Tuple[int, int]:
    """xi_a d_i(xi_b) as (sign, mask); the sign is 0 when it vanishes."""
    if not b & _mask_of(i):
        return 0, 0
    rest = b ^ _mask_of(i)
    return _sgn(eps_mask(i, b)) * mul_sign(a, rest), a | rest


def _masks(n: int) -> List[int]:
    """All subset masks of {1..n}, graded then lexicographic on members."""
    return sorted(range(1 << n), key=lambda m: (m.bit_count(), members(m)))


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


# ---------------------------------------------------------------------------
# restriction: coordinates over an embedded basis


class NotInSpan(StructureError):
    """An element outside the span of an embedded basis."""


def span_reader(ambient: LambdaStructure, embeds: Sequence[ConformalElement]):
    """Coordinates over a free basis embedded in ambient, by forward substitution.

    The basis is ordered once, by pivots.  A pivot is an ambient row touched
    by exactly one element not yet ordered; among those, the coefficient of
    lowest d-degree comes first (then the lowest row).  Each pivot is a
    monomial c m (a constant, or K_4''s d xi_star).  The returned function
    read(x, scale) takes an ambient element x as {generator: packed
    polynomial}, scale times too large (see poly.pack_vector), uses up the
    vectors of x and returns {basis index: (packed coefficient, its scale)}:
    a pivot row divided by m, times the Gaussian-integer numerator of 1/c,
    whose denominator joins the scale.  The rest of an element over -c is
    packed times its denominator L, and L joins the scale of the rows still
    to be read.  A component left over, or a pivot row that m does not
    divide, raises NotInSpan naming that ambient generator.
    """
    touching: Dict[int, set] = {}
    for j, e in enumerate(embeds):
        for r in e.terms:
            touching.setdefault(r, set()).add(j)
    heap: List[Tuple[int, int]] = []

    def offer(rows):
        for r in rows:
            if len(touching[r]) == 1:
                j, = touching[r]
                heapq.heappush(heap, (embeds[j].terms[r].degree_in("d"), r))

    offer(touching)
    # (pivot row, element, m, the numerator of 1/c (None for c = 1) and its
    #  denominator, the rest of the element over -c, packed, and its L)
    plan = []
    while heap:
        _, r = heapq.heappop(heap)
        if len(touching[r]) != 1:   # its element was ordered through another row
            continue
        j = touching[r].pop()
        rest = dict(embeds[j].terms)
        pivot = rest.pop(r)
        if len(pivot.terms) != 1:
            raise StructureError(f"{ambient.name}: the pivot {pivot!r} is not a monomial")
        (m, c), = pivot.terms.items()
        inv = MultiPoly({0: c.inverse()})
        den, rest = common_denominator([inv]), {g: q * -inv for g, q in rest.items()}
        L = common_denominator(rest.values())
        plan.append((r, j, m, None if inv == P_ONE else pack_vector([(0, inv)], den), den,
                     [(g, pack_vector([(0, q)], L)) for g, q in rest.items()], L))
        for g in rest:
            touching[g].discard(j)
        offer(rest)
    if len(plan) != len(embeds):
        raise StructureError(f"{ambient.name}: the embedded basis has no pivot order")

    def outside(g: int) -> NotInSpan:
        return NotInSpan(f"component on {ambient.generators[g].id} is outside the span")

    # an element adds rows only at later positions, so the next pivot is
    # always the earliest row present
    position = {r: k for k, (r, *_) in enumerate(plan)}
    end = len(plan)

    def read(work: Dict[int, Dict[int, int]], scale: int) -> Dict[int, Tuple[Dict[int, int], int]]:
        coords = {}
        while work:
            k = min(position.get(g, end) for g in work)
            if k == end:
                raise outside(min(work))
            r, j, m, numerator, den, rest, L = plan[k]
            p = work.pop(r)
            if m:
                # m divides a key iff no field of key - m borrows from its guard bit
                if any(((key | _GUARD) - m) & _GUARD != _GUARD for key in p):
                    raise outside(r)
                p = {key - m: c for key, c in p.items()}
            coords[j] = (p if numerator is None else compact_vector(add_product({}, p, numerator)),
                         scale * den)
            if L != 1:
                scale, work = scale * L, {g: {key: c * L for key, c in vec.items()}
                                          for g, vec in work.items()}
            for g, q in rest:
                work[g] = compact_vector(add_product(work.get(g, {}), p, q))
                if not work[g]:
                    del work[g]
        return coords

    return read


def _restrict(ambient: LambdaStructure, embeds: List[ConformalElement]):
    """The table of the subalgebra spanned by embeds: each bracket taken in
    ambient and read back in coordinates over embeds.  Each distinct
    coordinate is unpacked once, keyed by its packed form in lowest terms."""
    read = span_reader(ambient, embeds)
    n, low = ambient.rank, (1 << _COMPONENT_SHIFT) - 1
    polys: Dict[tuple, MultiPoly] = {}
    table = {}
    for a, (row, scale) in enumerate(bracket_pairs(ambient, embeds)):
        # row a split into its brackets, elements {k: packed polynomial}
        brackets: Dict[int, Dict[int, Dict[int, int]]] = {}
        for key, c in row.items():
            b, k = divmod(key >> _COMPONENT_SHIFT, n)
            x = brackets.setdefault(b, {})
            vec = x.get(k)
            if vec is None:
                vec = x[k] = {}
            vec[key & low] = c
        for b in range(len(embeds)):
            # rows in any order: LambdaStructure sorts each by generator
            entries = table[(a, b)] = []
            for j, (v, s) in read(brackets.get(b, {}), scale).items():
                g = gcd(s, *v.values())
                key = frozenset((k, c // g) for k, c in v.items()), s // g
                p = polys.get(key)
                if p is None:
                    p = polys[key] = unpack_vector(v, s)[0]
                entries.append((j, p))
    return table


# ---------------------------------------------------------------------------
# Vir and currents


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
    try:
        table = {(idx[a], idx[b]): [(idx[c], MultiPoly.const(sc)) for c, sc in terms]
                 for (a, b), terms in products.items()}
    except KeyError as e:
        raise StructureError(f"{name}: products name an unknown generator {e.args[0]!r}") from None
    gens = [Generator(g, p) for g, p in zip(gen_names, parities)]
    return LambdaStructure(kind, gens, table, name=name)


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


# ---------------------------------------------------------------------------
# W_n


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


def make_W(n: int) -> LambdaStructure:
    """W_n = C[d] (x) (W(n) + Lambda(n)), rank (n+1) 2^n.

    Generators: xi_I (parity |I|) and xi_I d_i (parity |I|+1); brackets are
    the four shapes obtained from [a lam f] = a(f) - (-1)^{p(a)p(f)} lam f a
    and [f lam g] = -(d + 2 lam) f g, spelled out on the monomial basis.
    """
    if n < 0:
        raise StructureError("W_n needs n >= 0")
    gens, lam_idx, w_idx = w_generators(n)
    table: Dict[Tuple[int, int], List[Tuple[int, MultiPoly]]] = {}

    def put(i, j, k, p):
        table.setdefault((i, j), []).append((k, p))

    # the entries take eight values; each is made once and shared by its rows
    unit, minus_d_2lam = _signs(MultiPoly.const(1)), _signs(-(D + 2 * LAM))
    minus_lam, minus_lam_d = _signs(-LAM), _signs(-(LAM + D))
    for I in lam_idx:
        dI = I.bit_count()
        for J in lam_idx:
            dJ = J.bit_count()
            # [xi_I lam xi_J]
            s = mul_sign(I, J)
            if s:
                put(lam_idx[I], lam_idx[J], lam_idx[I | J], minus_d_2lam[s])
            s_JI = mul_sign(J, I)
            # xi_J d_j(xi_I) for each j, used by [xi_I d_i lam xi_J d_j]
            d_IJ = [_d_mul(J, j, I) for j in range(1, n + 1)]
            # [xi_I d_i lam xi_J] and [xi_J lam xi_I d_i]
            for i in range(1, n + 1):
                wi = w_idx[(I, i)]
                s_d, K = _d_mul(I, i, J)
                if s_d:
                    # xi_I d_i(xi_J), and -(-1)^{|J|(|I|+1)} of it in the flipped order
                    put(wi, lam_idx[J], lam_idx[K], unit[s_d])
                    put(lam_idx[J], wi, lam_idx[K],
                        unit[-_sgn(dJ * (dI + 1)) * s_d])
                if s_JI:
                    # -lam (-1)^{(|I|+1)|J|} xi_J xi_I d_i, and -(lam+d) xi_J xi_I d_i
                    put(wi, lam_idx[J], w_idx[(I | J, i)], minus_lam[_sgn((dI + 1) * dJ) * s_JI])
                    put(lam_idx[J], wi, w_idx[(I | J, i)], minus_lam_d[s_JI])
                # [xi_I d_i lam xi_J d_j]
                for j in range(1, n + 1):
                    if s_d:
                        put(wi, w_idx[(J, j)], w_idx[(K, j)], unit[s_d])
                    s_e, K_e = d_IJ[j - 1]
                    if s_e:
                        put(wi, w_idx[(J, j)], w_idx[(K_e, i)],
                            unit[-_sgn((dI + 1) * (dJ + 1)) * s_e])
    S = LambdaStructure(
        LIE,
        gens,
        table,
        name=f"W_{n}",
        meta={"n": n, "lam_idx": lam_idx, "w_idx": w_idx},
    )
    return S


# ---------------------------------------------------------------------------
# divergence


def div_w(W: LambdaStructure, x: ConformalElement, b: Scalar = Scalar(0)) -> ConformalElement:
    """div_b on an element of W_n: div(f d_i) = (-1)^{p(f)} d_i f,
    div(f) = (b - d) f; C[d]-linear, valued in the Lambda(n) part."""
    lam_idx = W.meta["lam_idx"]
    # generator -> (I, i): xi_I d_i, or xi_I for i = 0
    rev = {g: (m, 0) for m, g in lam_idx.items()}
    rev.update({g: key for key, g in W.meta["w_idx"].items()})
    out = ConformalElement()
    bd = MultiPoly.const(b) - D
    for g, p in x.terms.items():
        mask, i = rev[g]
        if not i:
            out = out + ConformalElement({g: p * bd})
        else:
            s, K = _d_mul(0, i, mask)
            if s:
                out = out + ConformalElement({lam_idx[K]: p * (_sgn(mask.bit_count()) * s)})
    return out


def div_module_map(W: LambdaStructure, b: Scalar = Scalar(0)) -> ModuleMap:
    """div_b as a C[d]-module map from W_n onto its Lambda(n)-current part."""
    n = W.meta["n"]
    lam_idx = W.meta["lam_idx"]
    entries: Dict[Tuple[int, int], MultiPoly] = {}
    bd = MultiPoly.const(b) - D
    target = [W.generators[lam_idx[m]].id for m in sorted(lam_idx)]
    tpos = {lam_idx[m]: k for k, m in enumerate(sorted(lam_idx))}
    for g in range(W.rank):
        e = div_w(W, ConformalElement.gen(g), b)
        for tg, p in e.terms.items():
            entries[(tpos[tg], g)] = p
    return ModuleMap([g.id for g in W.generators], target, entries)


def _current_action(W: LambdaStructure) -> LambdaStructure:
    """The action of W_n on Lambda(n)-valued currents as a table on the
    generators of W_n, which conformal.bracket extends sesquilinearly: xi_I d_i
    sends xi_J to xi_I d_i(xi_J), and xi_I sends xi_J to -(d + lam) xi_I xi_J.
    This is the weight that makes div_b a homomorphism of conformal modules;
    the adjoint bracket does not (its Lambda-part carries -(d + 2 lam)).
    The rows of targets outside the currents are empty."""
    lam_idx, w_idx = W.meta["lam_idx"], W.meta["w_idx"]
    minus_d_lam, unit = _signs(-(D + LAM)), _signs(MultiPoly.const(1))
    table: Dict[Tuple[int, int], List[Tuple[int, MultiPoly]]] = {}
    for J, j in lam_idx.items():
        for I, i in lam_idx.items():
            s = mul_sign(I, J)
            if s:
                table[(i, j)] = [(lam_idx[I | J], minus_d_lam[s])]
        for (I, i), g in w_idx.items():
            s, K = _d_mul(I, i, J)
            if s:
                table[(g, j)] = [(lam_idx[K], unit[s])]
    return LambdaStructure(LIE, W.generators, table, name=W.name + " on currents")


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
# S_n: basis, embedding, canonicalization, two-path construction


class SnBasisElement(FrozenRecord):
    """Tagged S_n basis element: A (single), A2 (consecutive pair), or B."""

    __slots__ = ("tag", "mask", "i", "j")

    def __init__(self, tag: str, mask: int, i: int = 0, j: int = 0):
        self._set(tag, mask, i, j)   # tag "A" | "A2" | "B"; mask the set I

    def name(self) -> str:
        ds = _digits(members(self.mask))
        if self.tag == "A":
            return f"A{ds}_{self.i}"
        if self.tag == "A2":
            return f"A{ds}_{self.i}_{self.j}"
        return f"B{ds}"

    def parity(self) -> int:
        deg = bin(self.mask).count("1")
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
        if bin(m).count("1") < n:
            out.append(SnBasisElement("B", m))
    return out


def embed_sn(el: SnBasisElement, W: LambdaStructure) -> ConformalElement:
    """The S_n basis element as an explicit element of W_n."""
    n = W.meta["n"]
    w_idx = W.meta["w_idx"]
    I = el.mask
    if el.tag == "A":
        return ConformalElement({w_idx[(I, el.i)]: P_ONE})
    if el.tag == "A2":
        out = ConformalElement()
        for idx, sign in ((el.i, 1), (el.j, -1)):
            s = sign * mul_sign(I, _mask_of(idx))
            out = out + ConformalElement({w_idx[(I | _mask_of(idx), idx)]: MultiPoly.const(s)})
        return out
    out = ConformalElement({W.meta["lam_idx"][I]: MultiPoly.const(I.bit_count() - n)})
    for i in members(~I & ((1 << n) - 1)):
        out = out + ConformalElement({w_idx[(I | _mask_of(i), i)]: D * mul_sign(I, _mask_of(i))})
    return out


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
    if bin(mask).count("1") < n:
        accumulate(store, SnBasisElement("B", mask).name(), coeff)
    # B on the full set degenerates to 0: (|I|-n) and the complement sum both vanish


def _prop_entry(n: int, u: SnBasisElement, v: SnBasisElement) -> Dict[str, MultiPoly]:
    """One bracket [u lam v] straight from the tabulated S_n formulas.

    Only the printed orders are produced here; mirrored orders are derived
    from these by skew-symmetry in make_S.
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


def make_S(n: int) -> LambdaStructure:
    """S_n = ker(div) in W_n, rank n 2^n, the W-restriction of the embedded
    basis (embed_sn), read back through span_reader.

    The tabulated bracket formulas are a second, independent path, compared
    with a table by proposition_diffs.  (The pair/single case of the
    tabulated formulas is missing its i-in-J contributions, so that list is
    not empty for S_n; see the diffs themselves for the exact terms.)
    """
    if n < 2:
        raise StructureError("S_n needs n >= 2")
    W = make_W(n)
    basis = sn_basis(n)
    gens = [Generator(b.name(), b.parity(), b.latex()) for b in basis]
    embeds = [embed_sn(b, W) for b in basis]
    return LambdaStructure(
        LIE, gens, _restrict(W, embeds), name=f"S_{n}",
        meta={"n": n, "basis": basis, "W": W, "embeds": embeds},
    )


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
# S_{n,b} and S~_n


def make_S_b(n: int, b: Scalar) -> LambdaStructure:
    """S_{n,b} = ker(div_b) in W_n, rank n 2^n, basis from kernel_basis.

    The basis is the kernel basis after one more column elimination (at
    n = 3 that step changes it); brackets are read back through span_reader,
    and closure failure raises NotInSpan.
    """
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
    return LambdaStructure(
        LIE, gens, _restrict(W, embeds), name=f"S_{n},b",
        meta={"n": n, "b": b, "W": W, "embeds": embeds},
    )


def make_S_tilde(n: int) -> LambdaStructure:
    """S~_n = (1 - xi_star) S_n inside W_n, rank n 2^n, n even.

    Each S_n basis element e embeds as e - xi_star e, where xi_star =
    xi_1 ... xi_n keeps only the components of e free of xi.  Brackets are
    read back through span_reader.
    """
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
    return LambdaStructure(
        LIE, gens, _restrict(W, embeds), name=f"S~_{n}",
        meta={"n": n, "W": W, "embeds": embeds, "basis": basis},
    )


# ---------------------------------------------------------------------------
# K_n, K_4', CK_6


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
    d_key, lam_key = 1 << _VAR_SHIFT["d"], 1 << _VAR_SHIFT["lam"]
    # the entries take few values; each is made once and shared by its rows
    unit = _signs(MultiPoly.const(1))
    disjoint: Dict[Tuple[int, int], MultiPoly] = {}     # by the coefficients of d and lam
    table: Dict[Tuple[int, int], List[Tuple[int, MultiPoly]]] = {}
    for I in lam_idx:
        dI = I.bit_count()
        for J in lam_idx:
            common = I & J
            if not common:
                s = _sgn(alpha_mask(I, J))
                key = s * (dI - 2), s * (dI + J.bit_count() - 4)
                p = disjoint.get(key)
                if p is None:
                    p = disjoint[key] = MultiPoly(
                        {v: Scalar(c) for v, c in zip((d_key, lam_key), key) if c})
                if p.terms:
                    table[(lam_idx[I], lam_idx[J])] = [(lam_idx[I | J], p)]
            elif not common & (common - 1):
                i = common.bit_length()
                e = dI + eps_mask(i, I) + eps_mask(i, J) + alpha_mask(I ^ common, J ^ common)
                table[(lam_idx[I], lam_idx[J])] = [(lam_idx[(I | J) ^ common], unit[_sgn(e)])]
    return LambdaStructure(
        LIE, gens, table, name=f"K_{n}", meta={"n": n, "lam_idx": lam_idx}
    )


DXI_STAR = Generator("dxistar", 0, r"\partial\xi_\star")   # the generator d xi_star of K_4'


def make_K4prime() -> LambdaStructure:
    """K_4' of rank 16: xi_I (|I| <= 3) plus the generator d xi_star.

    Brackets are inherited from K_4 and read back through span_reader: a
    component on xi_star is divided exactly by the pivot d of d xi_star, and
    one that d does not divide raises NotInSpan.  The extra printed brackets
    of the derived algebra are verified against this inheritance in the
    tests.
    """
    K4 = make_K(4)
    lam_idx = K4.meta["lam_idx"]
    star = 0b1111
    keep = [m for m in _masks(4) if m != star]
    gens = [K4.generators[lam_idx[m]] for m in keep]
    gens.append(DXI_STAR)
    elems = [ConformalElement.gen(lam_idx[m]) for m in keep]
    elems.append(ConformalElement({lam_idx[star]: D}))
    return LambdaStructure(
        LIE, gens, _restrict(K4, elems), name="K_4'",
        meta={"n": 4, "keep": keep, "K4": K4, "embeds": elems},
    )


# CK_6 -----------------------------------------------------------------------

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


def ck6_embed(t: Tuple[int, ...], K6: LambdaStructure) -> ConformalElement:
    """Generator of CK_6 as an element of K_6.

    L = -1/2 (1 - beta d^3 xi_star); C_i = xi_i - beta d^2 xi_i^bullet;
    C_ij = xi_ij + beta d xi_ij^bullet; C_ijk = xi_ijk + beta xi_ijk^bullet.
    """
    lam_idx = K6.meta["lam_idx"]
    beta = Scalar.beta()
    if t == ():
        return ConformalElement({
            lam_idx[0]: MultiPoly.const(Fraction(-1, 2)),
            lam_idx[_CK6_STAR]: MultiPoly.monomial({"d": 3}, beta * Scalar(Fraction(1, 2))),
        })
    _, m = _monomial(t)
    if members(m) != t or m >> 6:
        raise ValueError(f"CK_6 index tuple must be strictly increasing in 1..6, got {t}")
    deg = len(t)
    coeff = {1: -beta, 2: beta, 3: beta}[deg] * Scalar(_hodge_sign(m))
    return ConformalElement({
        lam_idx[m]: P_ONE,
        lam_idx[_CK6_STAR ^ m]: MultiPoly.monomial({"d": 3 - deg}, coeff),
    })


def make_CK6() -> LambdaStructure:
    """CK_6 of rank 32, the K_6 restriction of its embedded basis (ck6_embed).

    The printed closed-form brackets are compared with a table term by term
    by verify_ck6_printed.  That list is not empty for CK_6, because the
    tabulated weights of C_i and C_ij are transposed ([L lam C_i] restricts
    to (3/2 lam + d) C_i, matching the standard weight-(2, 3/2, 1, 1/2)
    field content, while the table prints (lam + d) C_i)."""
    K6 = make_K(6)
    tuples = _ck6_basis_tuples()
    gens = [Generator(_ck6_name(t), _ck6_parity(t), None) for t in tuples]
    embeds = [ck6_embed(t, K6) for t in tuples]
    return LambdaStructure(
        LIE, gens, _restrict(K6, embeds), name="CK_6",
        meta={"K6": K6, "tuples": tuples, "embeds": embeds},
    )


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


# ---------------------------------------------------------------------------
# Jordan families


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

    def deriv_pairs():
        for i in range(1, max(n - 1, 0)):
            yield i, i
        if n >= 2:
            yield n, n - 1
            yield n - 1, n

    unit = _signs(MultiPoly.const(1))
    table: Dict[Tuple[int, int], List[Tuple[int, MultiPoly]]] = {}
    for I in ev_idx:
        dI = I.bit_count()
        for J in ev_idx:
            dJ = J.bit_count()
            s = mul_sign(I, J)
            # LambdaStructure merges the (a th) lam (b th) terms by target
            th_th = table[(th_idx[I], th_idx[J])] = []
            if s:
                k = I | J
                table[(ev_idx[I], ev_idx[J])] = [(ev_idx[k], unit[s])]
                table[(ev_idx[I], th_idx[J])] = [(th_idx[k], unit[s])]
                table[(th_idx[I], ev_idx[J])] = [(th_idx[k], unit[_sgn(dJ) * s])]
                th_th.append((ev_idx[k], (LAM * (dI + dJ - 4) + D * (dI - 2)) * (_sgn(dJ) * s)))
            for i, j in deriv_pairs():
                if not (I & _mask_of(i) and J & _mask_of(j)):
                    continue
                Ii, Jj = I ^ _mask_of(i), J ^ _mask_of(j)
                sd = mul_sign(Ii, Jj)
                if sd:
                    sd *= _sgn(dJ + dI + eps_mask(i, I) + eps_mask(j, J))
                    th_th.append((ev_idx[Ii | Jj], unit[sd]))
    return LambdaStructure(
        JORDAN, gens, table, name=f"J_{n}",
        meta={"n": n, "ev_idx": ev_idx, "th_idx": th_idx},
    )


def _mirror_fill(gens, table):
    """Materialise missing (j, i) entries from (i, j) via commutativity."""
    for (i, j) in [(i, j) for i in range(len(gens)) for j in range(len(gens))]:
        if (i, j) in table or (j, i) not in table:
            continue
        sg = _sgn(gens[i].parity * gens[j].parity)
        flipped = []
        for k, p in table[(j, i)]:
            flipped.append((k, p.subst_general("lam", -LAM - D) * sg))
        table[(i, j)] = flipped


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


def jck4_generators() -> List[Generator]:
    """The generators of JCK_4: even 1, omega_1..3; odd x, x_1..3."""
    return [Generator(nm, p, l) for nm, p, l in zip(
        ("one", "w1", "w2", "w3", "x", "x1", "x2", "x3"), (0, 0, 0, 0, 1, 1, 1, 1),
        ("1", r"\omega_1", r"\omega_2", r"\omega_3", "x", "x_1", "x_2", "x_3"))]


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
        for j in (1, 2, 3):
            if i != j:
                table[(idx[f"w{i}"], idx[f"w{j}"])] = []
        table[(idx[f"w{i}"], idx["x"])] = [(idx[f"x{i}"], LAM)]
        for j in (1, 2, 3):
            s, k = _JCK4_CROSS.get((i, j), (0, 0))
            table[(idx[f"w{i}"], idx[f"x{j}"])] = (
                [(idx[f"x{k}"], MultiPoly.const(-s))] if s else []
            )
    table[(idx["x"], idx["x"])] = [(idx["one"], LAM * 2 + D)]
    for i in (1, 2, 3):
        table[(idx[f"x{i}"], idx["x"])] = [(idx[f"w{i}"], P_ONE)]
        for j in (1, 2, 3):
            table[(idx[f"x{i}"], idx[f"x{j}"])] = []
    _mirror_fill(gens, table)
    return LambdaStructure(JORDAN, gens, table, name="JCK_4")


def make_cur_jordan_unit() -> LambdaStructure:
    """Rank-1 Jordan current: an idempotent a lam a = a."""
    return make_current(
        ["a"], [0], {("a", "a"): [("a", Scalar(1))]}, kind=JORDAN,
        name="CurJ(unit)",
    )


# ---------------------------------------------------------------------------
# negative controls


def corrupt_entry(S: LambdaStructure, left: str, right: str,
                  out: str, p: MultiPoly) -> LambdaStructure:
    """Copy of S with table entry (left, right) replaced by p * out."""
    i, j, k = S.index[left], S.index[right], S.index[out]
    return S.with_entry(i, j, ConformalElement({k: p}))
