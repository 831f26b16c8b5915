"""The Jacobi and Jordan row kernels behind conformal's and coalgebra's checks.

check_jacobi and check_lie_coalgebra run _jacobi_rows, check_jordan_identity
and check_jordan_coalgebra run _jordan_rows, on a packed table in the slot
variables (see conformal, "packed tables").  The checks write the rows the
kernels yield; conformal imports this module inside the two checks that run
it, and coalgebra, whose co-checks run both kernels, at its top, so a
command that checks no identity of arity three or four never compiles it.

The image sets give each renamed copy of the table its (x1_img, x2_img),
(None, None) for the table as it is.  The Jordan kernel renames the table
for its first factors and for the intermediate r1 only: q2 and the printed
r2 are r1 in other slot variables, r2 and q3 are r1 and q2 with x1 and x2
swapped, r3 and q1 with x1 and x3 swapped, so it renames the products
instead (see _jordan_rows), and _RENAMED writes their images so.  Where a
group acts on the tuples, S_3 on skew Jacobi triples and the rotations on
Jordan triples, a kernel accumulates one tuple per orbit, and _write_images
writes the rest of the orbit from the group's table (_S3 with Koszul signs,
_Z3 without), slot exponents and component digits alike.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations, permutations, takewhile
from typing import Dict, Iterator, Tuple

from .conformal import CONSISTENT, PRINTED, StructureError, _put, _renamed
from .poly import (
    P_ZERO, X1, X2, X3, X4, _COMPONENT_SHIFT, _MAXEXP, _VAR_SHIFT, add_product, compact_vector,
    substitution,
)

JACOBI_IMAGES = {"outer": (X1, X2 + X3), "cols1": (X2, X3), "first2": (None, None),
                 "rows2": (X1 + X2, X3), "first3": (X1, X3), "cols3": (X2, X1 + X3)}
_SWAP12, _SWAP13 = {"x1": "x2", "x2": "x1"}, {"x1": "x3", "x3": "x1"}
_RENAMED = {"r2": ("r1", _SWAP12), "q3": ("q2", _SWAP12), "r3": ("r1", _SWAP13), "q1": ("q2", _SWAP13)}
JORDAN_IMAGES = {"bc": (X2, X3), "ab": (None, None), "ca_chain": (X3, X1), "ca_split": (X3, X1),
                 "r1": ((X2 + X3, X4), (X1, X2 + X3 + X4)), "q2": ((X1, X4), (X2 + X3, X1 + X4))}
JORDAN_IMAGES.update({key: tuple(tuple(p.permute_vars(sigma) for p in pair)
                                 for pair in JORDAN_IMAGES[base])
                      for key, (base, sigma) in _RENAMED.items()})
# the printed T = lam - mu (see check_jordan_identity) moves two of them
PRINTED_JORDAN_IMAGES = {**JORDAN_IMAGES, "ca_chain": (X3, X1 - X2 - X3),
                         "r2": ((X1 - X2, X2 + X3 + X4), (X2, X1 + X3 + X4))}
# Q2 and the printed R2 as R1 in other slot variables (see _jordan_rows)
_R1_TO_Q2 = substitution("x1", "x2", "x3", X2 + X3, X1, P_ZERO)
_R1_TO_PRINTED_R2 = substitution("x1", "x2", "x3", "x4", X2, X1 - X2, P_ZERO, X2 + X3 + X4)

_SLOT_SHIFTS = [_VAR_SHIFT[x] for x in ("x1", "x2", "x3")]
_SLOT_FIELDS = sum(_MAXEXP << shift for shift in _SLOT_SHIFTS)


class _SlotMoves(dict):
    """{f: f renamed} for the x1-x3 fields f of a key (key & _SLOT_FIELDS),
    under sigma, {name: name} as for MultiPoly.permute_vars: the exponent of
    each x_s moves to sigma's image of x_s.  Each image is made on first use."""

    __slots__ = ("shifts",)

    def __init__(self, sigma: Dict[str, str]):
        super().__init__()
        self.shifts = [_VAR_SHIFT[sigma.get(x, x)] for x in ("x1", "x2", "x3")]

    def __missing__(self, f: int) -> int:
        g = self[f] = sum((f >> s & _MAXEXP) << t for s, t in zip(_SLOT_SHIFTS, self.shifts))
        return g


def _images(perms, signed: bool) -> list:
    """(perm, moves, odd) per permutation perm of a triple's positions, which
    puts position perm[q] at q: moves sends the slot exponent of each
    position p to perm.index(p), and odd[P], for the parities P = p_0 + 2 p_1
    + 4 p_2 of the positions, is whether the term changes sign, when signed
    once per pair of positions that perm inverts unless both are odd."""
    out = []
    for perm in perms:
        inverted = [(p, q) for p, q in combinations(range(3), 2) if perm.index(p) > perm.index(q)]
        out.append((perm, _SlotMoves({f"x{p + 1}": f"x{perm.index(p) + 1}" for p in range(3)}),
                    [signed and sum(not P >> p & P >> q & 1 for p, q in inverted) % 2 == 1
                     for P in range(8)]))
    return out


# S_3 on Jacobi triples and its rotations on Jordan triples (see check_jacobi)
_S3 = _images(list(permutations(range(3))), True)
_Z3 = _images([(0, 1, 2), (1, 2, 0), (2, 0, 1)], False)


def _write_images(acc: dict, a: int, n: int, width: int, par, rows: list, images) -> None:
    """Write each term of acc, row a's residuals at the triples t = (a, b, c)
    at components (b n + c) n**width + r, at each image of t under images
    (see _images): into rows[t[perm[0]]] at (t[perm[1]] n + t[perm[2]])
    n**width + r, moved and signed.  Where an index repeats, images meet with
    equal terms, as a representative's accumulation is its whole residual."""
    nw, low = n ** width, (1 << _COMPONENT_SHIFT) - 1
    for key, c in acc.items():
        bc, r = divmod(key >> _COMPONENT_SHIFT, nw)
        t = a, *divmod(bc, n)
        P = par[a] + 2 * par[t[1]] + 4 * par[t[2]]
        f = key & _SLOT_FIELDS
        rest = (key & low) - f
        for (p0, p1, p2), moves, odd in images:
            tag = ((t[p1] * n + t[p2]) * nw + r) << _COMPONENT_SHIFT
            rows[t[p0]][tag + rest + moves[f]] = -c if odd[P] else c


def _dropped_below(vec: dict, lo: int) -> dict:
    """vec with its keys below lo, which come first in it, deleted in place.

    add_product reads the pruned row itself, which allocates nothing per
    item, so the reduced kernel sets off no more garbage collections than
    the full one; a list of item tuples would, drawing full collections into
    the checks that build it."""
    for key in list(takewhile(lo.__gt__, vec)):
        del vec[key]
    return vec


def _jacobi_rows(table, par, reduced: bool) -> Iterator[dict]:
    """For each i, the compact Jacobi residuals of table's triples (i, j, k) under
    JACOBI_IMAGES, L**2 times too large, at components (j n + k) n + m.
    With reduced, for a skew table, only j <= i <= k, one triple per S_3
    orbit, are accumulated, and _write_images writes each residual at every
    permutation of its triple under _S3 (R(j, i, k) is -(-1)^{p_i p_j} R(i,
    j, k) at (x2, x1, x3), R(j, k, i) (-1)^{p_i (p_j + p_k)} R(i, j, k) at
    (x3, x1, x2); see check_jacobi), so the rows follow the last one.

    All (j, k) of one i form one accumulation: per l, the first term takes
    the first factors outer against a column over (j, k), cols1, the second
    the first factors first2, tagged by j, against a row packed over (k, m),
    rows2, and the third the first factors first3, tagged by k, against a
    column over (j, m), cols3.  Each copy is renamed once per call
    (_renamed), and row i makes one pass over its own entries (i, j) -> k,
    writing each (_put) into every role it plays at a tag computed from (i,
    j, k): outer at slot j and component k, first2 (j <= i) at slot k and j
    n^2, first3 (j >= i) at slot k and j n, and, with reduced, through
    window, the windows cols1 (j >= i) at slot k and (i n + j) n and cols3
    at slot (j, p_i) and i n^2 + k.  An entry leaves cols1 after row j by
    deleting its keys, those of its renamed vector plus its tag.  cols3 holds
    rows 0 to i, one column for even and one for odd j (the sign s), and
    rows2, written in row order, has keys that ascend in k, so row i deletes
    their items of k < i, a prefix, before it reads them: no product leaves
    j <= i <= k.  Without reduced every entry is a first factor of each term,
    and the columns are static, written by window for every entry before row
    0: cols1 whole, and cols3 in two signed copies, (l, 0) as it is, which
    even rows read negated, and (l, 1) with the entries of even j negated,
    which odd rows read as they are; so each (row, l) makes one add_product
    call per term.
    """
    n, n2, shift = len(par), len(par) ** 2, _COMPONENT_SHIFT
    vecs, slots = table[0], sorted(table[1])
    outer_v, cols1_v, first2_v, rows2_v, first3_v, cols3_v = (   # six pairs, none shared
        _renamed(vecs, *JACOBI_IMAGES[key], {})
        for key in ("outer", "cols1", "first2", "rows2", "first3", "cols3"))
    by_first, rows2 = [[] for _ in par], defaultdict(dict)   # the entries (i, j, k, e) of each i
    for slot in slots:
        i, j, k, e = slot
        by_first[i].append(slot)
        _put(rows2[i], rows2_v[e], j * n + k << shift)
    negated = not reduced and [{key: -c for key, c in vec.items()} for vec in cols3_v]
    copies = [[(p, cols3_v)] if reduced else [(0, cols3_v), (1, cols3_v if p else negated)]
              for p in (0, 1)]   # (parity slot, vectors) by the row's parity
    cols1, cols3 = defaultdict(dict), defaultdict(dict)
    leaving, rows = [[] for _ in par], [{} for _ in par]   # with reduced: cols1 exits, images

    def window(slot):   # the entry (h, j) -> k into the columns of terms 1 and 3
        h, j, k, e = slot
        for pj, vecs3 in copies[par[h]]:
            _put(cols3[(j, pj)], vecs3[e], h * n2 + k << shift)
        if j >= h or not reduced:
            _put(cols1[k], cols1_v[e], (h * n + j) * n << shift)
            leaving[j].append(slot)

    for slot in slots if not reduced else ():   # static columns
        window(slot)
    for i in range(n):
        acc, outer, first2, first3 = {}, defaultdict(dict), defaultdict(dict), defaultdict(dict)
        for slot in by_first[i]:
            _, j, k, e = slot
            if reduced:
                window(slot)
            _put(outer[j], outer_v[e], k << shift)
            if j <= i or not reduced:
                _put(first2[k], first2_v[e], j * n2 << shift)
            if j >= i or not reduced:
                _put(first3[k], first3_v[e], j * n << shift)
        for l, p in outer.items():
            if cols1.get(l):
                add_product(acc, p, cols1[l])
        lo = i * n << shift   # the least key of k = i
        for l, p in first2.items():
            if l in rows2:
                add_product(acc, p, _dropped_below(rows2[l], lo) if reduced else rows2[l], True)
        for l, p in first3.items():
            for pj in (0, 1) if reduced else (par[i],):
                if cols3.get((l, pj)):
                    add_product(acc, p, cols3[(l, pj)], not par[i] & pj)
        for h, j, k, e in leaving[i] if reduced else ():   # each entry's keys, as window put them
            vec, tag = cols1[k], (h * n + j) * n << shift
            for key in cols1_v[e]:
                del vec[key + tag]
        if not reduced:
            yield compact_vector(acc)
        elif any(acc.values()):
            _write_images(compact_vector(acc), i, n, 1, par, rows, _S3)
    if reduced:
        yield from rows


def _hoisted(vecs, slots, n: int, first, last, renamed: dict) -> dict:
    """h[(x, y)] = sum_{d,m} Q^{xd}_m(*first) Q^{ym}_k(*last), packed at d n + k.

    vecs and slots are a packed table, first and last (x1_img, x2_img)
    pairs, renamed through renamed (_renamed); the fourth tuple index d rides
    in the component, so each h[(x, y)] serves every d at once.  One pass
    over the slots writes each entry (i, j) -> k (_put) as a first factor,
    into firsts[(i, k)] at j n, and as a last one, into lasts[j][i] at k.
    The Jordan kernel runs it once per call, for R1 (see _jordan_rows).
    """
    first_v, last_v = _renamed(vecs, *first, renamed), _renamed(vecs, *last, renamed)
    firsts, lasts = defaultdict(dict), defaultdict(lambda: defaultdict(dict))
    for i, j, k, e in slots:
        _put(firsts[(i, k)], first_v[e], j * n << _COMPONENT_SHIFT)
        _put(lasts[j][i], last_v[e], k << _COMPONENT_SHIFT)
    out: Dict[Tuple[int, int], dict] = {}
    for (x, m), p in firsts.items():
        for y, row in lasts.get(m, {}).items():
            add_product(out.setdefault((x, y), {}), p, row)
    return {key: compact_vector(acc) for key, acc in out.items()}


def _combined(parts) -> dict:
    """out[key] summed over parts [(h, moves, place, negate)]: each vector
    h[(x, y)] with its x1-x3 fields moved by moves (a _SlotMoves; None moves
    nothing), negated where negate(x, y), at component m plus its own, for
    (key, m) = place(x, y).  Each out[key] is compact and nonempty and holds
    its pieces in the order of m.  Renaming commutes with the products, so a
    renamed _hoisted is _hoisted at the renamed image pairs."""
    pieces = sorted((place(x, y), i, negate(x, y), vec)
                    for i, (h, _, place, negate) in enumerate(parts) for (x, y), vec in h.items())
    fields = _SLOT_FIELDS
    out: Dict[tuple, dict] = {}
    for (key, m), i, negated, vec in pieces:
        dst = out.get(key)
        if dst is None:
            dst = out[key] = {}
        get, moves, tag = dst.get, parts[i][1], m << _COMPONENT_SHIFT
        if moves is None:
            for k, c in vec.items():
                k += tag
                dst[k] = get(k, 0) - c if negated else get(k, 0) + c
        else:
            for k, c in vec.items():
                f = k & fields
                k += moves[f] - f + tag
                dst[k] = get(k, 0) - c if negated else get(k, 0) + c
    if len(parts) == 1:   # a renamed copy: no two pieces meet
        return out
    out = {key: {k: c for k, c in vec.items() if c} for key, vec in out.items()}
    return {key: vec for key, vec in out.items() if vec}


def _jordan_rows(table, par, variant: str) -> Iterator[dict]:
    """For each a, the compact residuals of table's quadruples (a, b, c, d)
    under the Jordan identity variant, CONSISTENT or PRINTED (see
    conformal.check_jordan_identity), L**3 times too large, at components
    ((b n + c) n + d) n + m.  Any other variant raises StructureError.

    Each left-hand term is a chain contraction and each right-hand term a
    split one; for the first terms of each side

        a_lam((b_mu c)_nu d) = sum_l P^{bc}_l(mu, -nu) R1[l, a]
            R1[l, a] = sum P^{ld}_m(nu, lam+d) P^{am}_n(lam, d)
        (a_{-mu-d} b)_{lam+mu}(c_{nu-mu} d) = sum_l P^{ab}_l(lam, -lam-mu) Q1[c, l]
            Q1[c, l] = sum P^{cd}_m(nu-mu, lam+mu+d) P^{lm}_n(lam+mu, d)

    and the others follow the same pattern, each P(alpha, beta) read as
    Q(alpha, -alpha-beta) at the images of JORDAN_IMAGES, or of
    PRINTED_JORDAN_IMAGES for the printed variant: T1 and S2 take the first
    factor b c, T2 and S3 c a, and T3 and S1 a b.  b, c and d ride in the
    packed component, so each a is one accumulation.  In slot variables the terms
    are one chain and one split at the rotations of (a, x1; b, x2; c, x3).
    R1's images ((x2+x3, x4), (x1, x2+x3+x4)) read x2 and x3 only through
    x2+x3, and (x1, x2, x3, x4) -> (x2+x3, x1, 0, x4) (_R1_TO_Q2) sends them
    exactly onto q2's, (x2, x1-x2, 0, x2+x3+x4) (_R1_TO_PRINTED_R2) onto the
    printed r2's, neither moving a component: so _hoisted contracts R1 once
    per call, the two maps rename it into Q2 and the printed R2, and

        T1 + S2 = (-1)^{p(a)p(b)} sum_l bc_l w[l, a],
            w[l, a] = (-1)^{p(a)p(l)} R1[l, a] - Q2[a, l],
        T2 + S3 = (-1)^{p(a)p(b)} sum_l ca_l u[l, b],
            u[l, b] = (-1)^{p(b)p(l)} w[l, b] with x1 and x2 swapped,
        T3 + S1 = (-1)^{p(a)p(c)} sum_l ab_l v[l, c],
            v[l, c] = w[l, c] with x1 and x3 swapped (see _RENAMED),

    bc_l, ca_l and ab_l the first factors, b riding in u at b n^3 and c in
    v at c n^2, split by parity.  A first factor's other parity is fixed by
    l, as every entry is parity-homogeneous: p(c) = p(b) + p(l) for b c and
    p(c) = p(a) + p(l) for c a.  Each copy is renamed once per call
    (_renamed), and one pass over the slots writes each entry (_put) into
    every role it plays, at a tag computed from its indices: b c into
    f_bc[(l, p(b))] at b n^3 + c n^2, a b with b >= a into f_ab[a][(b > a,
    l)] at b n^3, c a with c >= a into f_ca[a][(c > a, l)] at c n^2 and, for
    the printed images, c a into the first factors of both chain terms below
    by a and l, at c n^2.

    As R(b, c, a, d)(x2, x3, x1, x4) = R(a, b, c, d)(x1, x2, x3, x4) for the
    consistent identity (see check_jordan_identity), row a accumulates only
    the representatives (a, b, c) of the rotation orbits, the least rotation
    of each: a <= b and a < c, or a = b = c, the tie rule leaving (a, b, a)
    with b > a to (a, a, b).  Each term is cut exactly:

      - b c: an entry (b, c) is live in the rows a <= b if b <= c and a < c
        if b > c, written once and, after its last row, deleted by its keys,
        those of its renamed vector plus its tag;
      - c a: entries with c > a meet T2 + S3 at b >= a, and c = a, which
        leaves (a, a, a) only, its slice b = a;
      - a b: entries with b = a meet T3 + S1 at c >= a, and b > a at c > a.

    The riding index is the top digit of T2 + S3 and T3 + S1, built in its
    order, so b >= a, c >= a and c > a are a prefix deleted in place
    (_dropped_below) before a row reads them, and a row reads c >= a before
    c > a.  A term of row a at (b, c, d, m) with slot exponents (e1, e2, e3,
    e4) is then also the term of row b at (c, a, d, m) with (e2, e3, e1, e4)
    and of row c at (a, b, d, m) with (e3, e1, e2, e4); both rows are a or
    later, so _write_images writes each term at the three rotations under
    _Z3, its own row included, and row a is done, and handed on, after its
    own accumulation.

    The printed images break the rotation in the second chain term only, so
    their rows are the consistent rows plus that term at the printed images
    (first factors at the printed ca_chain, the printed R2) less that term
    at the consistent ones, over all quadruples.
    """
    if variant not in (CONSISTENT, PRINTED):
        raise StructureError(f"unknown variant {variant!r}")
    n, shift = len(par), _COMPONENT_SHIFT
    n2, n3 = n * n, n ** 3
    vecs, slots = table[0], sorted(table[1])
    renamed = {}
    J = JORDAN_IMAGES
    # r[(l, a)] = R1[l, a], and R1 renamed, Q2[a, l] at (a, l); w[(l, a)], the
    # sum b c meets, and its renamed copies u, which c a meets (b at b n^3),
    # and v, which a b meets (c at c n^2), by l and the parity of b or c
    r = _hoisted(vecs, slots, n, *J["r1"], renamed)
    r_renamed = lambda rename: {key: rename(vec) for key, vec in r.items()}
    never = lambda x, y: False
    odd = lambda x, y: par[x] & par[y]
    at_b = lambda l, b: ((l, par[b]), b * n3)
    moves12, moves13 = _SlotMoves(_SWAP12), _SlotMoves(_SWAP13)
    w = _combined([(r, None, lambda l, a: ((l, a), 0), odd),
                   (r_renamed(_R1_TO_Q2), None, lambda a, l: ((l, a), 0), lambda a, l: True)])
    u = _combined([(w, moves12, at_b, odd)])
    v = _combined([(w, moves13, lambda l, c: ((l, par[c]), c * n2), never)])
    # the printed second chain term and the consistent one over all quadruples:
    # first factors c a by a and l, their vectors, the term and its sign
    fixes = []
    if variant == PRINTED:
        fixes = [([defaultdict(dict) for _ in par], _renamed(vecs, *chain, renamed),
                  _combined([(h, moves, at_b, never)]), flip)
                 for chain, h, moves, flip in (
                    (PRINTED_JORDAN_IMAGES["ca_chain"], r_renamed(_R1_TO_PRINTED_R2), None, 0),
                    (J["ca_chain"], r, moves12, 1))]
    del r
    # first factors: of b c live in the current row (last, its last row), of
    # a b with b >= a and c a with c >= a by a, whether the index exceeds a and l
    last = [[b if b <= c else c - 1 for c in range(n)] for b in range(n)]
    bc, ab, ca = (_renamed(vecs, *J[key], renamed) for key in ("bc", "ab", "ca_split"))
    f_bc, leaving = defaultdict(dict), [[] for _ in par]
    f_ab, f_ca = [defaultdict(dict) for _ in par], [defaultdict(dict) for _ in par]
    for i, j, l, e in slots:   # the entry (i, j) -> l in every role it plays
        if last[i][j] >= 0:   # b c
            slot, tag = (l, par[i]), i * n3 + j * n2 << shift
            _put(f_bc[slot], bc[e], tag)
            leaving[last[i][j]].append((slot, tag, e))
        if j >= i:   # a b
            _put(f_ab[i][(j > i, l)], ab[e], j * n3 << shift)
        if i >= j:   # c a
            _put(f_ca[j][(i > j, l)], ca[e], i * n2 << shift)
        for f, chain, _, _ in fixes:   # c a, chained
            _put(f[j][l], chain[e], i * n2 << shift)
    rows = [{} for _ in par]   # the terms written forward into each row
    for a in range(n):
        pa, acc = par[a], {}
        for (l, pb), p in f_bc.items():
            if (l, a) in w:
                add_product(acc, p, w[(l, a)], pa & pb)
        lo, hi = a * n3 << shift, (a + 1) * n3 << shift
        for (above, l), p in f_ca[a].items():
            for pb in (0, 1) if above else (pa,):
                if (l, pb) in u:
                    vec = _dropped_below(u[(l, pb)], lo)
                    if not above:   # (a, a, a): the slice b = a
                        vec = dict(takewhile(lambda item: item[0] < hi, vec.items()))
                    add_product(acc, p, vec, pa & pb)
        for (above, l), p in f_ab[a].items():
            lo = (a + above) * n2 << shift
            for pc in (0, 1):
                if (l, pc) in v:
                    add_product(acc, p, _dropped_below(v[(l, pc)], lo), pa & pc)
        for slot, tag, e in leaving[a]:   # each entry's keys, as the pass put them
            live = f_bc[slot]
            for key in bc[e]:
                del live[key + tag]
            if not live:
                del f_bc[slot]
        if any(acc.values()):
            _write_images(compact_vector(acc), a, n, 2, par, rows, _Z3)
        row = rows[a]
        for f, _, r2, flip in fixes:
            for l, p in f[a].items():
                for pb in (0, 1):
                    if (l, pb) in r2:
                        add_product(row, p, r2[(l, pb)], (pa & pb) ^ flip)
        yield (compact_vector(row) if any(row.values()) else {}) if fixes else row
