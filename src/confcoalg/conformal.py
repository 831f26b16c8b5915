"""Finite free conformal (super)algebras as exact structure-constant tables.

A ``LambdaStructure`` stores, for every ordered generator pair (i, j), the
polynomials P^{ij}_k(lam, d) of

    [a_i lam a_j] = sum_k P^{ij}_k(lam, d) a_k.

Everything downstream (axiom checking, dualization, the closed-form
cross-checks) works on these tables with exact Q(beta) arithmetic, so a
"pass" always means an identically-zero residual.

Spectral substitution convention: on a free C[d]-module the action of d on
values and the symbol d inside coefficient polynomials agree, so shifted
evaluations such as b_{-lam-d} a are literal polynomial substitutions.
Axioms are checked on generator tuples only; sesquilinearity extends them
to arbitrary elements.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import groupby
from math import gcd
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .poly import (
    D, LAM, MU, NU, X1, X2, MultiPoly, P_ONE, Scalar, accumulate, add_product,
    common_denominator, compact_vector, _COMPONENT_SHIFT, _MAXEXP, _MONO_MASK, _VAR_SHIFT,
    _parts, _poly_text, pack_vector, substitution, unpack_vector,
)

LIE = "lie"
JORDAN = "jordan"

SPECTRAL_VARS = ("lam", "mu", "nu", "x1", "x2", "x3", "x4")
# monomial fields of every variable but lam and d, the two of a table entry
_NOT_LAM_D = _MONO_MASK & ~(_MAXEXP << _VAR_SHIFT["lam"] | _MAXEXP << _VAR_SHIFT["d"])


class StructureError(ValueError):
    pass


class Record:
    """A plain record whose fields are its __slots__, in order.

    It gives what the package used of dataclasses: the dataclass repr,
    field-wise equality with records of the same class only, no hash, and
    copies through the constructor. Each subclass writes its __init__ and
    stores the fields with _set.
    """

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __reduce__(self):
        return type(self), self._fields()


class FrozenRecord(Record):
    """A Record that hashes its fields and refuses assignment, as a frozen dataclass does."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Generator(FrozenRecord):
    __slots__ = ("id", "parity", "latex")

    def __init__(self, id: str, parity: int, latex: Optional[str] = None):
        self._set(id, parity, latex)


class ConformalElement:
    """Element of a free conformal algebra: generator index -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[int, MultiPoly]] = None):
        self.terms = {}
        if terms:
            for g, p in terms.items():
                if not p.is_zero():
                    self.terms[g] = p

    @staticmethod
    def gen(i: int) -> "ConformalElement":
        return ConformalElement({i: P_ONE})

    def __add__(self, other: "ConformalElement") -> "ConformalElement":
        out = dict(self.terms)
        for g, p in other.terms.items():
            accumulate(out, g, p)
        return ConformalElement(out)

    def __sub__(self, other: "ConformalElement") -> "ConformalElement":
        return self + (-other)

    def __neg__(self) -> "ConformalElement":
        return ConformalElement({g: -p for g, p in self.terms.items()})

    def scale(self, p: MultiPoly) -> "ConformalElement":
        return ConformalElement({g: p * q for g, q in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, ConformalElement) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({p})*<{g}>" for g, p in sorted(self.terms.items()))

    def pretty(self, struct: "LambdaStructure") -> str:
        if not self.terms:
            return "0"
        names = struct.generators
        return " + ".join(
            f"({p})*{names[g].id}" for g, p in sorted(self.terms.items())
        )


class Table:
    """A table's generators and its one stored form: kind (LIE or JORDAN),
    generators, index (id -> position), rank, parities and packed, and the
    rows (table) and flip residual, made from packed on first read and kept.

    packed is (L, (vecs, slots)), made once by _store (see "packed tables").
    Every verdict and writer reads packed, so a row polynomial changed in
    place reaches no command; with_entry and families.corrupt_entry make a
    new table.  The constructor refuses an unknown kind, repeated ids and
    parities other than int 0 or 1."""

    def __init__(self, kind: str, generators: Sequence[Generator], name: str):
        if kind not in (LIE, JORDAN):
            raise StructureError(f"unknown kind {kind!r}")
        self.kind = kind
        self.generators = list(generators)
        for g in self.generators:
            if type(g.parity) is not int or g.parity not in (0, 1):
                raise StructureError(f"parity {g.parity!r} of generator {g.id!r} is not 0 or 1")
        self.parities = tuple(g.parity for g in self.generators)
        self.name = name
        self.index = {g.id: i for i, g in enumerate(self.generators)}
        if len(self.index) != len(self.generators):
            raise StructureError("generator ids not unique")

    @classmethod
    def from_slots(cls, kind: str, generators: Sequence[Generator], values: Sequence[MultiPoly],
                   slots: Iterable[Tuple[int, int, int, int]], name: str = "", **fields):
        """The table of the entries (i, j, k, values[e]) of slots (see _store)."""
        T = cls.__new__(cls)
        Table.__init__(T, kind, generators, name)
        T.__dict__.update(fields)
        T._store(values, slots)
        return T

    def _store(self, values: Sequence[MultiPoly], slots: Iterable[Tuple[int, int, int, int]]):
        """Set packed from the entries (i, j, k, values[e]): zero ones dropped,
        the others sorted by _ORDER and checked as given, in that order, for
        index ranges, parity additivity and, once per value, variables
        (_refusal words the first failure), repeats of an (i, j, k) then
        summed (a zero sum dropped), and each distinct value packed once at
        the common denominator L."""
        par, ix = self.parities, range(self.rank)     # the generator indices
        zero = {e for e, p in enumerate(values) if not p.terms}
        slots = [slot for slot in slots if slot[3] not in zero] if zero else list(slots)
        slots.sort(key=self._ORDER)
        used = dict.fromkeys(map(itemgetter(3), slots))
        stray = {e for e in used if any(key & self._STRAY_VARS for key in values[e].terms)}
        for i, j, k, e in slots:
            if not (i in ix and j in ix and k in ix and par[i] ^ par[j] == par[k]) or e in stray:
                raise self._refusal(i, j, k, values[e])
        if len(set(map(itemgetter(0, 1, 2), slots))) < len(slots):
            merged: Dict[tuple, MultiPoly] = {}     # keyed in _ORDER, as slots are sorted
            for i, j, k, e in slots:
                accumulate(merged, (i, j, k), values[e])
            values, slots = _numbered((*key, p) for key, p in merged.items())
            used = range(len(values))
        number: Dict[MultiPoly, int] = {}       # each distinct value -> its index
        used = {e: number.setdefault(values[e], len(number)) for e in used}
        if any(e != f for e, f in used.items()):
            slots = [(i, j, k, used[e]) for i, j, k, e in slots]
        L = common_denominator(number)
        self.packed = L, ([self._slotted(pack_vector([(0, p)], L)) for p in number], slots)

    @property
    def rank(self) -> int:
        return len(self.generators)

    def parity(self, i: int) -> int:
        return self.parities[i]

    @cached_property
    def table(self) -> dict:
        """The rows, a view of packed laid out by the subclass (_rows), which
        hold one object per distinct value (_values)."""
        return self._rows(self.packed[1][1], self._values())

    def _indexed_rows(self) -> dict:
        """The rows with each entry's value index e, into _values(), for its value."""
        L, (vecs, slots) = self.packed
        return self._rows(slots, range(len(vecs)))

    def _values(self) -> List[MultiPoly]:     # each vector unpacked, in the subclass's variables
        L, (vecs, _) = self.packed
        return [unpack_vector(self._unslotted(vec), L)[0] for vec in vecs]

    @cached_property
    def flip_residual(self):
        """_flip_kernel of packed, L times too large."""
        return _flip_kernel(self.packed[1], self.parities, self.kind)


class LambdaStructure(Table):
    """Structure-constant table of a finite free conformal (super)algebra.

    Table holds its generators and stored form; this class adds meta and
    the row view, table[(i, j)] = [(k, P^{ij}_k)] for every pair in
    row-major order, each row sorted by k; the constructor refuses a row key
    that is not a pair of generator indices."""

    _ORDER, _STRAY_VARS = None, _NOT_LAM_D       # sorted by (i, j, k); entries in lam and d

    def __init__(self, kind: str, generators: Sequence[Generator],
                 table: Dict[Tuple[int, int], List[Tuple[int, MultiPoly]]], name: str = "",
                 meta: Optional[dict] = None):
        super().__init__(kind, generators, name)
        self.meta = meta or {}
        n = self.rank
        pairs = range(n)
        for key in table:
            if not (isinstance(key, tuple) and len(key) == 2 and key[0] in pairs and key[1] in pairs):
                raise StructureError(f"row {key!r} is not a pair of generator indices in range({n})")
        self._store(*_numbered((i, j, k, p) for (i, j), row in table.items() for k, p in row))

    @classmethod
    def from_slots(cls, kind, generators, values, slots, name="", meta=None):
        return super().from_slots(kind, generators, values, slots, name, meta=meta or {})

    def _refusal(self, i, j, k, p) -> StructureError:
        n, g = self.rank, self.generators
        if not (i in range(n) and j in range(n)):
            return StructureError(
                f"row {(i, j)!r} is not a pair of generator indices in range({n})")
        if k not in range(n):
            return StructureError(f"row ({i}, {j}) names generator index {k}, not in range({n})")
        if self.parities[k] != (self.parities[i] + self.parities[j]) & 1:
            return StructureError(f"parity violation in ({g[i].id},{g[j].id}) -> {g[k].id}")
        return StructureError(f"table entry uses variables {p.variables() - {'lam', 'd'}}")

    def _slotted(self, vec: dict) -> dict:
        return _TO_SLOTS(vec)       # Q(x1, x2) = P(x1, -x1-x2)

    def _unslotted(self, vec: dict) -> dict:
        return _FLIP_BACK(vec)      # P(lam, d) = Q(lam, -lam-d)

    def _rows(self, slots, values) -> dict:
        n = self.rank
        rows = {(i, j): [] for i in range(n) for j in range(n)}
        for i, j, k, e in slots:
            rows[(i, j)].append((k, values[e]))
        return rows

    def entry(self, i: int, j: int) -> "ConformalElement":
        return ConformalElement({k: p for k, p in self.table[(i, j)]})

    def with_entry(self, i: int, j: int, value: "ConformalElement") -> "LambdaStructure":
        """Copy of the table with one (i, j) entry replaced (negative controls):
        the table's slots, those of (i, j) replaced by value's, through _store."""
        if not (i in range(self.rank) and j in range(self.rank)):
            raise self._refusal(i, j, 0, None)
        values = self._values() + list(value.terms.values())
        slots = [slot for slot in self.packed[1][1] if slot[:2] != (i, j)]
        slots += [(i, j, k, len(values) - len(value.terms) + t) for t, k in enumerate(value.terms)]
        return LambdaStructure.from_slots(self.kind, self.generators, values, slots,
                                          name=self.name + "?", meta=dict(self.meta))


def _numbered(entries) -> Tuple[List[MultiPoly], List[Tuple[int, int, int, int]]]:
    """(values, slots) of entries [(i, j, k, p)]: each object p once, in order
    of first occurrence, and (i, j, k, e) with values[e] the entry's p."""
    objects: Dict[int, tuple] = {}      # id(p) -> (e, p), which keeps p alive
    slots = [(i, j, k, objects.setdefault(id(p), (len(objects), p))[0]) for i, j, k, p in entries]
    return [p for _, p in objects.values()], slots


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
    The vector of a_i is dropped after the last row that meets it, so a
    caller that keeps only what it derives from each row never holds all
    the brackets at once (in CK_6 each generator of K_6 meets one row).
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
    last_row = {i: a for a, x in enumerate(xs) for i in x.terms}
    by_left: Dict[int, Dict[int, int]] = {}
    for a, x in enumerate(xs):
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
            if last_row[i] == a:
                del by_left[i]
        yield compact_vector(acc), Lx * Lx * Ls


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
# (Table.packed).  Table._store is the one path into it: it takes the values
# and slots of a builder (Table.from_slots) or of a constructor's rows, checks
# them, and packs each distinct value once, renamed into the slot variables
# (_TO_SLOTS) for a LambdaStructure; dualize relabels a table's stored form.
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
_TO_SLOTS = substitution("lam", "d", X1, -X1 - X2)
_FLIP_BACK = substitution("x1", "x2", LAM, -LAM - D)
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
