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
to arbitrary elements.  The names of the stored form are imported here from
tables too, for the callers that know them from this module.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .poly import (
    D, LAM, MU, NU, X1, X2, MultiPoly, _COMPONENT_SHIFT, _parts, _poly_text, accumulate,
    add_product, compact_vector, substitution,
)
from .tables import (  # noqa: F401  (Generator and Table for the callers of this module)
    ConformalElement, Generator, JORDAN, LIE, LambdaStructure, Record, StructureError, Table,
    _FLIP_BACK,
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
        self._set(check, structure, total, [] if violations is None else violations)

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
# own.  The rows (Table.table) and the flip residual are made from it on first
# read, and the writers take each distinct value by its index (_indexed_rows);
# with_entry makes a new table.  Every term of the Jacobi and Jordan
# identities on generators is a sparse contraction of renamed copies
# Q^{ij}_k(x1_img, x2_img), so a residual of degree g is reported divided by
# L**g.  _renamed renames each distinct polynomial once per check call and
# image pair.  Every kernel places entries one way: a pass over the slots
# (the Jacobi kernel's over each row's own) writes each entry's renamed
# vector, signed where its role asks, once per role it plays (_put), into the
# slot of that role at a tag computed from the entry's indices.  A window
# that an entry leaves loses its keys, those of the vector plus the tag.
# Free tuple indices ride in the component, so one add_product covers a
# whole batch of tuples.  With P(a, b) = Q(a, -a-b), the kernels read the
# table at (lam, d) = (x1, -x1-x2) for the flip, (lam, mu, d) = (x1, x2,
# -x1-x2-x3) for Jacobi and (lam, mu, nu, d) = (x1, x2, x2+x3, -x1-x2-x3-x4)
# for Jordan, where the skew, commutativity, Jacobi and consistent Jordan
# residuals are the co-antisymmetry, minus the co-commutativity, the
# co-Jacobi and -(-1)^{p(a)p(c)} times the co-Jordan residuals (see
# coalgebra).  A kernel's row is a plain residual, compact ({} when zero) and
# in the slot variables, and its writer applies its own map, sign and scale:
# the table checks map it back (_FLIP_BACK, _JACOBI_BACK, _JORDAN_BACK; each
# map keeps the image of every monomial it meets), and co-Jordan signs it.
# The flip kernel is _flip_kernel below; the Jacobi and Jordan row kernels,
# their image sets and their orbit writer are in kernels.
_JACOBI_BACK = substitution("x1", "x2", "x3", LAM, MU, -LAM - MU - D)
_JORDAN_BACK = substitution("x1", "x2", "x3", "x4", LAM, MU, NU - MU, -LAM - NU - D)


def _renamed(vecs, x1_img, x2_img, renamed: dict) -> list:
    """vecs, a packed table's distinct entries Q(x1, x2), as Q(x1_img, x2_img),
    through one substitution per image pair; vecs itself with x1_img None.
    renamed, a dict one kernel call passes to all its copies, keeps each
    renamed list by the ids of the image pair, so each pair of image objects
    is renamed once; equal pairs share objects."""
    key = id(x1_img), id(x2_img)
    if key not in renamed and x1_img is not None:
        renamed[key] = list(map(substitution("x1", "x2", x1_img, x2_img), vecs))
    return renamed.get(key, vecs)


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
    flipped = _renamed(vecs, X2, X1, {})
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


def _record(rep: Report, S: LambdaStructure, rows, arity: int, scale: int, back) -> None:
    """Add a violation at each tuple whose part of rows is nonzero.

    Row r of rows is a compact packed residual in slot variables, scale
    times too large, at components t n + m, m the generator of the residual
    and r n**(arity-1) + t the tuple's base-n digits (a flip residual is one
    row); back maps it to the table's variables.  Violations follow in the
    order of the tuples, each residual written as ConformalElement.pretty
    writes it, each monomial's and coefficient's text made once per call.
    """
    n, names, texts = S.rank, [g.id for g in S.generators], {}
    powers = [n ** e for e in reversed(range(arity))]
    for r, acc in enumerate(rows):
        if not acc:
            continue
        by_tuple: Dict[int, List[str]] = {}
        for comp, terms in sorted(_parts(back(acc), scale).items()):
            t, m = divmod(comp, n)
            text = f"({_poly_text(terms, texts)})*{names[m]}"
            by_tuple.setdefault(r * powers[0] + t, []).append(text)
        for t, parts in by_tuple.items():
            where = tuple([names[t // p % n] for p in powers])
            rep.violations.append(Violation(where, " + ".join(parts)))


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
    S.flip_residual is empty the kernel, kernels._jacobi_rows, accumulates
    those triples only and writes the rest (see kernels._write_images), and
    on every other table it runs over all triples, in slot variables (see
    "packed tables").
    """
    if S.kind != LIE:
        raise StructureError("Jacobi applies to Lie kind")
    rep = Report("jacobi", S.name, total=S.rank ** 3)
    L, table = S.packed
    from .kernels import _jacobi_rows   # loaded by coalgebra, or here on the first call

    _record(rep, S, _jacobi_rows(table, S.parities, not S.flip_residual), 3, L * L, _JACOBI_BACK)
    return rep


PRINTED = "printed"
CONSISTENT = "consistent"


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
    kernels._jordan_rows, so accumulates one quadruple per rotation orbit and
    writes the rest; the printed identity is the consistent one plus s2
    times the second term at T = lam-mu less that term at T = lam+nu-mu.
    Its image sets are kernels.JORDAN_IMAGES and
    kernels.PRINTED_JORDAN_IMAGES, in slot variables (see "packed tables"),
    and the kernel refuses a variant other than PRINTED or CONSISTENT.
    """
    if S.kind != JORDAN:
        raise StructureError("Jordan identity applies to Jordan kind")
    from .kernels import _jordan_rows   # loaded by coalgebra, or here on the first call

    rep = Report(f"jordan-id[{variant}]", S.name, total=S.rank ** 4)
    L, table = S.packed
    _record(rep, S, _jordan_rows(table, S.parities, variant), 4, L ** 3, _JORDAN_BACK)
    return rep

