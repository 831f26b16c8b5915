"""The restriction machinery of the families defined as subalgebras.

S_n, S_{n,b}, S~_n, K_4' and CK_6 are built by restriction inside an
ambient algebra (W_n, K_4 or K_6): each embeds its basis, bracket_pairs
gives the brackets of the embedded basis as packed rows, one span_reader
per table gives their coordinates by forward substitution over pivots on
packed vectors (a bracket outside the span raises NotInSpan), and
_restrict gives them to Table.from_slots.  This module holds that
machinery, the kernel of a C[d]-module map (ModuleMap, kernel_basis), the
divergence div_b of W_n, whose kernel S_{n,b} is, and the embeddings of
the bases of S_n and CK_6 that bases lists (embed_sn, ck6_embed).  The
five constructors of these families (families_w, families_contact) import
it inside their bodies, so a command that builds no subalgebra family
never compiles it; no closed form imports it.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import groupby
from math import gcd
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .bases import SnBasisElement, _CK6_STAR, _hodge_sign
from .masks import _d_mul, _mask_of, _monomial, _sgn, members, mul_sign
from .poly import (
    D, LAM, MultiPoly, P_ONE, Scalar, _COMPONENT_SHIFT, _GUARD, _VAR_SHIFT, accumulate,
    add_product, common_denominator, compact_vector, pack_vector, unpack_vector,
)
from .tables import ConformalElement, LambdaStructure, StructureError, _FLIP_BACK


class NotInSpan(StructureError):
    """An element outside the span of an embedded basis."""


def bracket_pairs(
    S: LambdaStructure, xs: Sequence[ConformalElement]
) -> Iterator[Tuple[Dict[int, int], int]]:
    """Yield (row, scale) for each x_a of xs in order: row packs [x_a lam x_b]
    for every b at component b n + k for a_k (n the rank of S), scale times too large.

    The same values as bracket(S, x_a, x_b, "lam"), with the work shared:
    the right images q(lam+d) are packed once each, at component b n, and
    S is read in its stored form, each distinct vector mapped back to P, L
    times too large, once (_FLIP_BACK).  For each generator a_i met on the
    left, one vector holds sum_j q_bj(lam+d) [a_i lam a_j] for every b,
    each nonempty [a_i lam a_j] placed at the components k of its entries;
    row a is one product p(-lam) times that vector per term p a_i of x_a.
    """
    if any("lam" in p.variables() for x in xs for p in x.terms.values()):
        raise StructureError("left coefficient already uses lam")
    n = S.rank
    Lx = common_denominator(p for x in xs for p in x.terms.values())
    Ls, (vecs, slots) = S.packed
    backs = [_FLIP_BACK(vec) for vec in vecs]
    rows = {i: list(row) for i, row in groupby(slots, itemgetter(0))}   # slots sorted by i
    rights: Dict[int, List[dict]] = {}
    for b, x in enumerate(xs):
        for j, q in x.terms.items():
            rights.setdefault(j, []).append(
                pack_vector([(b * n, q.subst_general("d", LAM + D))], Lx))
    by_left: Dict[int, Dict[int, int]] = {}
    for x in xs:
        acc: Dict[int, int] = {}
        for i, p in x.terms.items():
            vec = by_left.get(i)
            if vec is None:
                vec = {}
                get = vec.get
                for _, j, k, e in rows.get(i, ()):     # vec += q_bj(lam+d) P^{ij}_k at k
                    tag, P = k << _COMPONENT_SHIFT, backs[e].items()
                    for qr in rights.get(j, ()):
                        for k1, c1 in qr.items():
                            k1 += tag
                            for k2, c2 in P:
                                vec[k1 + k2] = get(k1 + k2, 0) + c1 * c2
                vec = by_left[i] = compact_vector(vec)
            add_product(acc, pack_vector([(0, p.subst_general("d", -LAM))], Lx), vec)
        yield compact_vector(acc), Lx * Lx * Ls


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
    """(values, slots) of the subalgebra spanned by embeds: each bracket taken
    in ambient and read back in coordinates over embeds, each distinct
    coordinate, keyed by its packed form in lowest terms, unpacked once."""
    read = span_reader(ambient, embeds)
    n, low = ambient.rank, (1 << _COMPONENT_SHIFT) - 1
    number: Dict[tuple, int] = {}   # a coordinate in lowest terms -> its index in values
    values: List[MultiPoly] = []
    slots = []
    for a, (row, scale) in enumerate(bracket_pairs(ambient, embeds)):
        # row a split into its components b n + k, then into its brackets {k: vector}
        parts: Dict[int, Dict[int, int]] = {}
        for key, c in row.items():
            parts.setdefault(key >> _COMPONENT_SHIFT, {})[key & low] = c
        brackets: Dict[int, Dict[int, Dict[int, int]]] = {}
        for comp, vec in parts.items():
            brackets.setdefault(comp // n, {})[comp % n] = vec
        for b, x in sorted(brackets.items()):
            # slots in any order: Table._store sorts them
            for j, (v, s) in read(x, scale).items():
                g = gcd(s, *v.values())
                key = frozenset(zip(v, map(g.__rfloordiv__, v.values()))), s // g
                e = number.get(key)
                if e is None:
                    e = number[key] = len(values)
                    values.append(unpack_vector(v, s)[0])
                slots.append((a, b, j, e))
    return values, slots


# ---------------------------------------------------------------------------
# kernel of a C[d]-module map


class ModuleMap:
    """C[d]-linear map between free modules, entries polynomial in d only."""

    def __init__(self, source: Sequence[str], target: Sequence[str],
                 entries: Dict[Tuple[int, int], MultiPoly]):
        self.source = list(source)
        self.target = list(target)
        self.entries = {}
        for (ti, si), p in entries.items():
            if p.is_zero():
                continue
            if p.variables() - {"d"}:
                raise StructureError("module map entries must live in C[d]")
            self.entries[(ti, si)] = p


_D_SHIFT = _VAR_SHIFT["d"]


def _divmod_d(a: MultiPoly, b: MultiPoly) -> Tuple[MultiPoly, MultiPoly]:
    """Univariate division in Q(beta)[d]: a = q*b + r with deg r < deg b."""
    q = MultiPoly.zero()
    r = a
    db = b.degree_in("d")
    lead_b = b.terms.get(db << _D_SHIFT) if db >= 0 else None
    while not r.is_zero() and r.degree_in("d") >= db:
        dr = r.degree_in("d")
        lead_r = r.terms.get(dr << _D_SHIFT)
        if lead_r is None:
            raise StructureError("non-univariate entry in kernel elimination")
        step = MultiPoly.monomial({"d": dr - db}, lead_r * lead_b.inverse())
        q = q + step
        r = r - step * b
    return q, r


def _eliminate_columns(
    cols: List[Dict[int, MultiPoly]], track: Optional[List[Dict[int, MultiPoly]]] = None
) -> List[Tuple[int, int]]:
    """Unimodular column reduction of cols in place, each step repeated on track.

    Row by row, division with remainder in d between the live columns leaves
    one column nonzero in that row, its pivot.  Returns the pivots as
    (row, col) in elimination order.
    """
    stores = [cols] if track is None else [cols, track]
    pivots = []
    active = list(range(len(cols)))
    for row in sorted({r for c in cols for r in c}):
        live = [j for j in active if row in cols[j]]
        while len(live) > 1:
            live.sort(key=lambda j: cols[j][row].degree_in("d"))
            pivot, other = live[0], live[1]
            q, _ = _divmod_d(cols[other][row], cols[pivot][row])
            for store in stores:  # column other -= q * column pivot
                dst = store[other]
                for r, p in store[pivot].items():
                    accumulate(dst, r, -(q * p))
            live = [j for j in active if row in cols[j]]
        if live:
            pivots.append((row, live[0]))
            active.remove(live[0])
    return pivots


def kernel_basis(M: ModuleMap) -> List[Dict[int, MultiPoly]]:
    """Free basis of ker M over Q(beta)[d], by tracked column elimination.

    Unimodular column operations reduce M; columns that become zero give the
    kernel, read off from the tracking matrix.  Returned as coordinate dicts
    over the source basis, content-normalised.
    """
    ncols = len(M.source)
    cols = [{i: M.entries[(i, j)] for i in range(len(M.target)) if (i, j) in M.entries}
            for j in range(ncols)]
    track = [{j: P_ONE} for j in range(ncols)]
    pivots = {j for _, j in _eliminate_columns(cols, track)}
    return [_normalise_content(track[j]) for j in range(ncols)
            if j not in pivots and not cols[j]]


def _normalise_content(coords: Dict[int, MultiPoly]) -> Dict[int, MultiPoly]:
    """Divide through by the rational content and fix the leading sign."""
    g = gcd(*(x.numerator for p in coords.values() for c in p.terms.values()
              for x in (c.re, c.im)))
    if not g:
        return coords
    scale = Scalar(Fraction(common_denominator(coords.values()), g))
    first = min(coords)
    lead = coords[first].terms[max(coords[first].terms)]
    if (lead * scale).re < 0 or ((lead * scale).re == 0 and (lead * scale).im < 0):
        scale = -scale
    return {g_: p.scalar_mul(scale) for g_, p in coords.items()}


# ---------------------------------------------------------------------------
# divergence of W_n, whose kernel is S_{n,b}


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


# ---------------------------------------------------------------------------
# S_n and CK_6: the embeddings of their bases (bases lists them)


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
