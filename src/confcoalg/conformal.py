"""Axiom checks of conformal (super)algebra tables, in exact arithmetic.

A table (tables.LambdaStructure) holds, for every ordered generator pair
(i, j), the polynomials P^{ij}_k(lam, d) of

    [a_i lam a_j] = sum_k P^{ij}_k(lam, d) a_k.

The checks here (skew-symmetry, Jacobi, commutativity and the Jordan
identity) run on its stored form with exact Q(beta) arithmetic, so a
"pass" always means an identically-zero residual; bracket is the
definitional sesquilinear bracket of elements.

Spectral substitution convention: on a free C[d]-module the action of d on
values and the symbol d inside coefficient polynomials agree, so shifted
evaluations such as b_{-lam-d} a are literal polynomial substitutions.
Axioms are checked on generator tuples only; sesquilinearity extends them
to arbitrary elements.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, combinations, permutations, takewhile
from typing import Dict, Iterator, List, Optional, Tuple

from .poly import (
    D, LAM, MU, NU, P_ZERO, X1, X2, X3, X4, MultiPoly, _COMPONENT_SHIFT, _MAXEXP, _VAR_SHIFT,
    _parts, _poly_text, accumulate, add_product, compact_vector, substitution,
)
from .tables import (
    ConformalElement, JORDAN, LIE, LambdaStructure, Record, StructureError, _FLIP_BACK,
)

SPECTRAL_VARS = ("lam", "mu", "nu", "x1", "x2", "x3", "x4")


def bracket(
    S: LambdaStructure, x: ConformalElement, y: ConformalElement, svar: str
) -> ConformalElement:
    """Sesquilinear extension of the table: [p(d)a svar q(d)b] = p(-svar) q(svar+d) [a svar b].

    Coefficients of x and y may involve other spectral variables, which pass
    through untouched; svar itself must not occur in them.
    """
    if svar not in SPECTRAL_VARS:
        raise StructureError(f"invalid spectral variable {svar!r}")
    sv = MultiPoly.var(svar)
    out: Dict[int, MultiPoly] = {}
    for i, p in x.terms.items():
        if svar in p.variables():
            raise StructureError(f"left coefficient already uses {svar}")
        pl = p.subst_general("d", -sv)
        for j, q in y.terms.items():
            if svar in q.variables():
                raise StructureError(f"right coefficient already uses {svar}")
            qr = q.subst_general("d", sv + D)
            c = pl * qr
            if c.is_zero():
                continue
            for k, P in S.table[(i, j)]:
                if svar != "lam" and "lam" in P.variables():
                    P = P.permute_vars({"lam": svar})
                accumulate(out, k, c * P)
    return ConformalElement(out)


def shift_spectral(
    x: ConformalElement, svar: str, image: MultiPoly
) -> ConformalElement:
    """Literal substitution svar -> image in every coefficient."""
    return ConformalElement({g: p.subst_general(svar, image) for g, p in x.terms.items()})


# ---------------------------------------------------------------------------
# axiom checkers


class Violation(Record):
    __slots__ = ("where", "residual")

    def __init__(self, where: Tuple[str, ...], residual: str):
        self.where = where
        self.residual = residual


class Report(Record):
    __slots__ = ("check", "structure", "total", "violations")

    def __init__(self, check: str, structure: str, total: int = 0,
                 violations: Optional[List[Violation]] = None):
        self.check, self.structure, self.total = check, structure, total
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "pass" if self.ok else f"FAIL ({len(self.violations)} violations)"
        return f"{self.check}[{self.structure}]: {status} over {self.total} tuples"

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "structure": self.structure,
            "ok": self.ok,
            "tuples": self.total,
            "violations": [
                {"where": list(v.where), "residual": v.residual}
                for v in self.violations
            ],
        }


# -- packed tables ---------------------------------------------------------------
#
# A table and its dual coproduct are one object in two coordinate systems,
# Q^{ij}_k(x1, x2) = P^{ij}_k(x1, -x1-x2), and every table stores the second
# (Table.packed, in tables).  Table._store is the one path into it: it takes
# the values and slots of a builder (Table.from_slots) or of a constructor's
# rows, checks them, and packs each distinct value once, renamed into the slot
# variables (tables._TO_SLOTS) for a LambdaStructure; dual.dualize relabels a
# table's stored form.
# A table has few distinct entry polynomials (K_5 has 618 entries and 23
# distinct ones), so the stored form holds each once, times the common
# denominator L of the table (see poly.pack_vector), and every entry names its
# own.  The rows (Table.table), read only by the oracles (bracket,
# apply_delta_slot), printed and the benchmark, and the flip residual are
# made from it on first read; the writers walk its slots, each value by its
# index, and with_entry makes a new table.  Every term of the Jacobi and Jordan
# identities on generators is a sparse contraction of renamed copies
# Q^{ij}_k(x1_img, x2_img), so a residual of degree g is reported divided by
# L**g.  _renamed renames each distinct polynomial once per copy.  Every
# kernel places entries one way: a pass over the slots (the Jacobi kernel's
# over each row's own) writes each entry's renamed vector, signed where its
# role asks, once per role it plays (_put), into the slot of that role at a
# tag computed from the entry's indices.  A window that an entry leaves loses
# its keys, those of the vector plus the tag.  Free tuple indices ride in the
# component, so one add_product covers a whole batch of tuples.  With P(a, b)
# = Q(a, -a-b), the kernels read the table at (lam, d) = (x1, -x1-x2) for the
# flip, (lam, mu, d) = (x1, x2, -x1-x2-x3) for Jacobi and (lam, mu, nu, d) =
# (x1, x2, x2+x3, -x1-x2-x3-x4) for Jordan, where the skew, commutativity,
# Jacobi and consistent Jordan residuals are the co-antisymmetry, minus the
# co-commutativity, the co-Jacobi and -(-1)^{p(a)p(c)} times the co-Jordan
# residuals (see coalgebra, whose co-checks run the same kernels).  A
# kernel's row is a plain residual, compact ({} when zero) and in the slot
# variables; one walk, _residual_parts, decodes the rows for every report, and
# each writer applies its own map, sign and scale: the table checks map them
# back (_FLIP_BACK, _JACOBI_BACK, _JORDAN_BACK; each map keeps the image of
# every monomial it meets), and co-Jordan signs each tuple's part.
# The image sets (JACOBI_IMAGES, JORDAN_IMAGES) give each renamed copy its
# (x1_img, x2_img), (None, None) for the table as it is.  The Jordan kernel
# renames the table for its first factors and for the intermediate r1 only,
# so JORDAN_IMAGES holds those pairs and PRINTED_JORDAN_IMAGES the one the
# printed identity moves: q2 and the printed r2 are r1 in other slot
# variables, and the other R and Q are r1 and q2 with x1 and x2 or x1 and x3
# swapped, so it renames the products instead (see _jordan_rows).  Where a
# group acts on the tuples, S_3 on skew Jacobi triples and the rotations on
# Jordan triples, a kernel accumulates one tuple per orbit, and
# _write_images writes the rest of the orbit from the group's table (_S3 with
# Koszul signs, _Z3 without), slot exponents and component digits alike.
_JACOBI_BACK = substitution("x1", "x2", "x3", LAM, MU, -LAM - MU - D)
_JORDAN_BACK = substitution("x1", "x2", "x3", "x4", LAM, MU, NU - MU, -LAM - NU - D)


def _renamed(vecs, x1_img, x2_img) -> list:
    """vecs, a packed table's distinct entries Q(x1, x2), as Q(x1_img, x2_img),
    through one substitution; vecs itself with x1_img None."""
    if x1_img is None:
        return vecs
    return list(map(substitution("x1", "x2", x1_img, x2_img), vecs))


def _put(vec: dict, src: dict, tag: int) -> None:
    """Write the terms of the packed vector src into vec at their keys plus
    tag, a component shifted into place, which no key of vec holds yet."""
    for key, c in src.items():
        vec[key + tag] = c


def _flip_kernel(table, par, kind: str) -> dict:
    """The packed table's skew (Lie) or commutativity (Jordan) residual, compact,
    at components (i n + j) n + k: Q^{ij}_k(x1, x2) - sign (-1)^{p_i p_j}
    Q^{ji}_k(x2, x1), sign -1 for Lie and +1 for Jordan; empty when the axiom holds.
    Each entry is written (_put) once as it is and once renamed, each
    distinct vector negated once, and one add_product sums the two copies."""
    n, (vecs, slots), shift = len(par), table, _COMPONENT_SHIFT
    flipped = _renamed(vecs, X2, X1)
    signed, acc, back = (flipped, [{key: -c for key, c in vec.items()} for vec in flipped]), {}, {}
    for i, j, k, e in slots:   # Q^{ij}_k at (i, j, k) and, signed, at (j, i, k) flipped
        _put(acc, vecs[e], (i * n + j) * n + k << shift)
        _put(back, signed[(kind == JORDAN) ^ par[i] & par[j]][e], (j * n + i) * n + k << shift)
    return compact_vector(add_product(acc, back, {0: 1}))


def _check_flip(S: LambdaStructure, check: str) -> Report:
    """[a lam b] = sign (-1)^{p(a)p(b)} [b_{-lam-d} a] per pair, written from
    S.flip_residual (see _flip_kernel) at (x1, x2) = (lam, -lam-d)."""
    rep = Report(check, S.name, total=S.rank ** 2)
    _record(rep, S, [S.flip_residual], 2, S.packed[0], _FLIP_BACK)
    return rep


def check_skew(S: LambdaStructure) -> Report:
    """[a lam b] = -(-1)^{p(a)p(b)} [b -lam-d a], exactly, per generator pair."""
    if S.kind != LIE:
        raise StructureError("skew-symmetry applies to Lie kind")
    return _check_flip(S, "skew")


def check_jordan_comm(S: LambdaStructure) -> Report:
    """a lam b = (-1)^{p(a)p(b)} b_{-lam-d} a, exactly, per generator pair."""
    if S.kind != JORDAN:
        raise StructureError("commutativity applies to Jordan kind")
    return _check_flip(S, "jordan-comm")


def _residual_parts(rows, n: int, arity: int, scale: int, back=None) -> Iterator[tuple]:
    """(t, m, terms) for each nonzero part of rows, in row order, then component
    order.  Row r is a compact packed residual (a flip residual is one row),
    scale times too large, at components t' n + m: t = r n**(arity-1) + t' is
    the tuple's base-n digits, m its generator, and terms that part's
    poly._parts terms after back, if given, maps the row."""
    top = n ** (arity - 1)
    return chain.from_iterable(   # one row's parts at a time
        [(r * top + comp // n, comp % n, terms)
         for comp, terms in sorted(_parts(back(row) if back else row, scale).items())]
        for r, row in enumerate(rows) if row)


def _record(rep: Report, S: LambdaStructure, rows, arity: int, scale: int, back) -> None:
    """Add a violation at each tuple with a nonzero part of rows (_residual_parts),
    in tuple order, written as ConformalElement.pretty writes it, each
    monomial's and coefficient's text made once per call."""
    n, names, texts = S.rank, [g.id for g in S.generators], {}
    powers, by_tuple = [n ** e for e in reversed(range(arity))], {}
    for t, m, terms in _residual_parts(rows, n, arity, scale, back):
        by_tuple.setdefault(t, []).append(f"({_poly_text(terms, texts)})*{names[m]}")
    for t, parts in by_tuple.items():
        where = tuple([names[t // p % n] for p in powers])
        rep.violations.append(Violation(where, " + ".join(parts)))


PRINTED = "printed"
CONSISTENT = "consistent"

JACOBI_IMAGES = {"outer": (X1, X2 + X3), "cols1": (X2, X3), "first2": (None, None),
                 "rows2": (X1 + X2, X3), "first3": (X1, X3), "cols3": (X2, X1 + X3)}
_SWAP12, _SWAP13 = {"x1": "x2", "x2": "x1"}, {"x1": "x3", "x3": "x1"}
JORDAN_IMAGES = {"bc": (X2, X3), "ab": (None, None), "ca_split": (X3, X1),
                 "r1": ((X2 + X3, X4), (X1, X2 + X3 + X4))}
# the printed T = lam - mu moves, as ca_chain, the chain term's copy of ca_split
# (and r2, which the kernel reaches through _R1_TO_PRINTED_R2)
PRINTED_JORDAN_IMAGES = {"ca_chain": (X3, X1 - X2 - X3)}
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
    0, cols1 whole and cols3 by parity as with reduced.
    """
    n, n2, shift = len(par), len(par) ** 2, _COMPONENT_SHIFT
    vecs, slots = table[0], sorted(table[1])
    outer_v, cols1_v, first2_v, rows2_v, first3_v, cols3_v = (
        _renamed(vecs, *JACOBI_IMAGES[key])
        for key in ("outer", "cols1", "first2", "rows2", "first3", "cols3"))
    by_first, rows2 = [[] for _ in par], defaultdict(dict)   # the entries (i, j, k, e) of each i
    for slot in slots:
        i, j, k, e = slot
        by_first[i].append(slot)
        _put(rows2[i], rows2_v[e], j * n + k << shift)
    cols1, cols3 = defaultdict(dict), defaultdict(dict)
    leaving, rows = [[] for _ in par], [{} for _ in par]   # with reduced: cols1 exits, images

    def window(slot):   # the entry (h, j) -> k into the columns of terms 1 and 3
        h, j, k, e = slot
        _put(cols3[(j, par[h])], cols3_v[e], h * n2 + k << shift)
        if j >= h or not reduced:
            _put(cols1[k], cols1_v[e], (h * n + j) * n << shift)
            if reduced:
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
            for pj in (0, 1):
                if cols3.get((l, pj)):
                    add_product(acc, p, cols3[(l, pj)], not par[i] & pj)
        for h, j, k, e in leaving[i]:   # each entry's keys, as window put them
            vec, tag = cols1[k], (h * n + j) * n << shift
            for key in cols1_v[e]:
                del vec[key + tag]
        if not reduced:
            yield compact_vector(acc)
        elif any(acc.values()):
            _write_images(compact_vector(acc), i, n, 1, par, rows, _S3)
    if reduced:
        yield from rows


def _hoisted(vecs, slots, n: int, first, last) -> dict:
    """h[(x, y)] = sum_{d,m} Q^{xd}_m(*first) Q^{ym}_k(*last), packed at d n + k.

    vecs and slots are a packed table, first and last (x1_img, x2_img)
    pairs (_renamed); the fourth tuple index d rides in the component, so
    each h[(x, y)] serves every d at once.  One pass
    over the slots writes each entry (i, j) -> k (_put) as a first factor,
    into firsts[(i, k)] at j n, and as a last one, into lasts[j][i] at k.
    The Jordan kernel runs it once per call, for R1 (see _jordan_rows).
    """
    first_v, last_v = _renamed(vecs, *first), _renamed(vecs, *last)
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
    Q(alpha, -alpha-beta) at its slot images (JORDAN_IMAGES, and
    PRINTED_JORDAN_IMAGES for the printed chain term): T1 and S2 take the
    first factor b c, T2 and S3 c a, and T3 and S1 a b.  b, c and d ride in the
    packed component, so each a is one accumulation.  In slot variables the terms
    are one chain and one split at the rotations of (a, x1; b, x2; c, x3).
    R1's images ((x2+x3, x4), (x1, x2+x3+x4)) read x2 and x3 only through
    x2+x3, and (x1, x2, x3, x4) -> (x2+x3, x1, 0, x4) (_R1_TO_Q2) sends them
    exactly onto q2's, ((x1, x4), (x2+x3, x1+x4)), and (x2, x1-x2, 0,
    x2+x3+x4) (_R1_TO_PRINTED_R2) onto the printed r2's, ((x1-x2,
    x2+x3+x4), (x2, x1+x3+x4)), neither moving a component: so _hoisted
    contracts R1 once per call, the two maps rename it into Q2 and the
    printed R2, and

        T1 + S2 = (-1)^{p(a)p(b)} sum_l bc_l w[l, a],
            w[l, a] = (-1)^{p(a)p(l)} R1[l, a] - Q2[a, l],
        T2 + S3 = (-1)^{p(a)p(b)} sum_l ca_l u[l, b],
            u[l, b] = (-1)^{p(b)p(l)} w[l, b] with x1 and x2 swapped,
        T3 + S1 = (-1)^{p(a)p(c)} sum_l ab_l v[l, c],
            v[l, c] = w[l, c] with x1 and x3 swapped (_SlotMoves),

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
    J = JORDAN_IMAGES
    bc, ab, ca = (_renamed(vecs, *J[key]) for key in ("bc", "ab", "ca_split"))
    # r[(l, a)] = R1[l, a], and R1 renamed, Q2[a, l] at (a, l); w[(l, a)], the
    # sum b c meets, and its renamed copies u, which c a meets (b at b n^3),
    # and v, which a b meets (c at c n^2), by l and the parity of b or c
    r = _hoisted(vecs, slots, n, *J["r1"])
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
    # first factors c a by a and l, their vectors (the consistent ca_chain
    # pair is ca_split's), the term and its sign
    fixes = []
    if variant == PRINTED:
        fixes = [([defaultdict(dict) for _ in par], chain, _combined([(h, moves, at_b, never)]), flip)
                 for chain, h, moves, flip in (
                    (_renamed(vecs, *PRINTED_JORDAN_IMAGES["ca_chain"]),
                     r_renamed(_R1_TO_PRINTED_R2), None, 0),
                    (ca, r, moves12, 1))]
    del r
    # first factors: of b c live in the current row (last, its last row), of
    # a b with b >= a and c a with c >= a by a, whether the index exceeds a and l
    last = [[b if b <= c else c - 1 for c in range(n)] for b in range(n)]
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


def check_jacobi(S: LambdaStructure) -> Report:
    """[a lam [b mu c]] = [[a lam b] lam+mu c] + (-1)^{p(a)p(b)} [b mu [a lam c]].

    The residual at a_m of the triple (i, j, k) is the contraction

        sum_l P^{jk}_l(mu, lam+d) P^{il}_m(lam, d)
      - sum_l P^{ij}_l(lam, -lam-mu) P^{lk}_m(lam+mu, d)
      - s sum_l P^{ik}_l(lam, mu+d) P^{jl}_m(mu, d),    s = (-1)^{p(i)p(j)}.

    Write R(i, j, k)(x1, x2, x3) for it at (lam, mu, d) = (x1, x2, -x1-x2-x3),
    x1, x2 and x3 going with a_i, a_j and a_k.  Under skew-symmetry, [b mu a]
    = -s [a_{-mu-d} b] makes R the cyclic sum [a_lam [b_mu c]] + [b_mu
    [c_{-lam-mu-d} a]] + [c_{-lam-mu-d} [a_lam b]] up to signs (D'Andrea and
    Kac, Structure theory of finite conformal algebras, 1998).  As every
    entry is parity-homogeneous (p_k = p_i + p_j, which Table._store
    checks), rotating (a, b, c) rotates the sum, with the Koszul sign of
    moving a past b and c, so that

        R(j, i, k)(x1, x2, x3) = -(-1)^{p_i p_j} R(i, j, k)(x2, x1, x3)
        R(j, k, i)(x1, x2, x3) = (-1)^{p_i (p_j + p_k)} R(i, j, k)(x3, x1, x2),

    and the triples j <= i <= k, one per S_3 orbit, decide the rest.  So when
    S.flip_residual is empty the kernel, _jacobi_rows, accumulates those
    triples only and writes the rest (see _write_images), and on every other
    table it runs over all triples, in slot variables (see "packed tables").
    """
    if S.kind != LIE:
        raise StructureError("Jacobi applies to Lie kind")
    rep = Report("jacobi", S.name, total=S.rank ** 3)
    L, table = S.packed
    _record(rep, S, _jacobi_rows(table, S.parities, not S.flip_residual), 3, L * L, _JACOBI_BACK)
    return rep


def check_jordan_identity(S: LambdaStructure, variant: str = CONSISTENT) -> Report:
    """Exact six-term Jordan identity over all generator quadruples.

    With sign factors s1 = (-1)^{|a||c|}, s2 = (-1)^{|a||b|}, s3 = (-1)^{|b||c|}:

        s1 a_lam((b_mu c)_nu d) + s2 b_mu((c_{nu-mu} a)_{T} d)
            + s3 c_{nu-mu}((a_{-mu-d} b)_{lam+mu} d)
      = s1 (a_{-mu-d} b)_{lam+mu}(c_{nu-mu} d) + s2 (b_mu c)_nu(a_lam d)
            + s3 (c_{nu-mu} a)_{lam+nu-mu}(b_mu d)

    The subscript T of the second term is where the two variants differ:
    the printed form has lam-mu, which breaks the conservation of total
    spectral weight lam+nu satisfied by every other term (substituting
    d -> d'+d in the last slot rescales terms by (total + d)); the
    consistent variant (default) uses lam+nu-mu, the unique
    total-conserving choice, which also matches the subscript of the sixth
    term sharing the same (c, a)-product.  The printed variant exists so
    that a failure can be reported with its minimal failing quadruple and
    residual instead of being silently papered over.

    The consistent identity is a cyclic sum: with (g1, l1; g2, l2; g3, l3) each
    rotation of (a, lam; b, mu; c, nu-mu), it sums a chain term less a split term,

        (-1)^{p(g1)p(g3)} (g1_{l1}((g2_{l2} g3)_{l2+l3} d) - (g1_{l1} g2)_{l1+l2}(g3_{l3} d)).

    At the kernel's slot map (lam, mu, nu, d) = (x1, x2, x2+x3, -x1-x2-x3-x4)
    the rotation of (a, b, c) is that of (x1, x2, x3), so the residual R
    satisfies R(b, c, a, d)(x2, x3, x1, x4) = R(a, b, c, d)(x1, x2, x3, x4),
    with sign +1: the signs rotate with the terms, and no axiom but parity
    homogeneity, which Table._store checks, is needed.  The kernel,
    _jordan_rows, so accumulates one quadruple per rotation orbit and
    writes the rest; the printed identity is the consistent one plus s2
    times the second term at T = lam-mu less that term at T = lam+nu-mu.
    Its slot images are in JORDAN_IMAGES and PRINTED_JORDAN_IMAGES (see
    "packed tables"), and the kernel refuses a variant other than PRINTED
    or CONSISTENT.
    """
    if S.kind != JORDAN:
        raise StructureError("Jordan identity applies to Jordan kind")
    rep = Report(f"jordan-id[{variant}]", S.name, total=S.rank ** 4)
    L, table = S.packed
    _record(rep, S, _jordan_rows(table, S.parities, variant), 4, L ** 3, _JORDAN_BACK)
    return rep

