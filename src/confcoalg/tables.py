"""The stored form of every table and coproduct, and its element type.

A ``LambdaStructure`` stores, for every ordered generator pair (i, j), the
polynomials P^{ij}_k(lam, d) of

    [a_i lam a_j] = sum_k P^{ij}_k(lam, d) a_k,

and a ``Coproduct`` the coproduct of a dual basis,
delta(a_k^*) = sum Q^{ij}_k(x1, x2) a_i^* (x) a_j^*.  Both hold one stored
form, Table.packed, made by Table._store: the entries as
Q^{ij}_k(x1, x2) = P^{ij}_k(x1, -x1-x2) (see conformal, "packed tables").
The constructors, the closed forms, the readers and the writers build and
read tables through this module alone; the checks are in conformal and
coalgebra, and dualize and compare in dual.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .poly import (
    D, LAM, X1, X2, MultiPoly, P_ONE, accumulate, common_denominator, _MAXEXP, _MONO_MASK,
    _VAR_SHIFT, pack_vector, substitution, unpack_vector,
)

LIE = "lie"
JORDAN = "jordan"

# monomial fields of every variable but lam and d, the two of a table entry
_NOT_LAM_D = _MONO_MASK & ~(_MAXEXP << _VAR_SHIFT["lam"] | _MAXEXP << _VAR_SHIFT["d"])
# monomial fields of every variable but x1 and x2, the two coproduct slots
_NOT_SLOT = _MONO_MASK & ~(_MAXEXP << _VAR_SHIFT["x1"] | _MAXEXP << _VAR_SHIFT["x2"])
_TO_SLOTS = substitution("lam", "d", X1, -X1 - X2)
_FLIP_BACK = substitution("x1", "x2", LAM, -LAM - D)


class StructureError(ValueError):
    pass


class Record:
    """A plain record whose fields are its __slots__, in order.

    It gives what the package used of dataclasses: the dataclass repr,
    field-wise equality with records of the same class only, no hash, and
    copies through the constructor. Each subclass's __init__ sets its own
    fields, a FrozenRecord's through object.__setattr__.
    """

    __slots__ = ()

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
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "latex", latex)


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

    packed is (L, (vecs, slots)), made once by _store (see conformal,
    "packed tables").
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
        index ranges, parity additivity and, once per distinct value,
        variables (_refusal words the first failure), repeats of an (i, j, k)
        then summed (a zero sum dropped), and each distinct value numbered in
        order of first use and packed once at the common denominator L.  The
        values may repeat: a row constructor gives one per entry."""
        par, ix = self.parities, range(self.rank)     # the generator indices
        zero = {e for e, p in enumerate(values) if not p.terms}
        slots = [slot for slot in slots if slot[3] not in zero] if zero else list(slots)
        slots.sort(key=self._ORDER)
        number: Dict[MultiPoly, int] = {}       # each distinct value -> its index
        used = {e: number.setdefault(values[e], len(number))    # each used value hashed once
                for e in dict.fromkeys(map(itemgetter(3), slots))}
        stray = {f for p, f in number.items() if any(key & self._STRAY_VARS for key in p.terms)}
        for i, j, k, e in slots:
            if (not (i in ix and j in ix and k in ix and par[i] ^ par[j] == par[k])
                    or stray and used[e] in stray):
                raise self._refusal(i, j, k, values[e])
        if len(set(map(itemgetter(0, 1, 2), slots))) < len(slots):
            merged: Dict[tuple, MultiPoly] = {}     # keyed in _ORDER, as slots are sorted
            for i, j, k, e in slots:
                accumulate(merged, (i, j, k), values[e])
            number = {}
            slots = [(*key, number.setdefault(p, len(number))) for key, p in merged.items()]
        elif any(e != f for e, f in used.items()):
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

    def _values(self) -> List[MultiPoly]:     # each vector unpacked, in the subclass's variables
        L, (vecs, _) = self.packed
        return [unpack_vector(self._unslotted(vec), L)[0] for vec in vecs]

    @cached_property
    def flip_residual(self):
        """_flip_kernel of packed, L times too large."""
        from .conformal import _flip_kernel     # a check reads it, and imports conformal first

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
        entries = [(i, j, k, p) for (i, j), row in table.items() for k, p in row]
        self._store([p for *_, p in entries],
                    [(i, j, k, e) for e, (i, j, k, _) in enumerate(entries)])

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


class Coproduct(Table):
    """Coproduct table of a differential (super)coalgebra on a dual basis.

    Table holds its generators and stored form; this class adds the row
    view, table[k] = delta(a_k^*) as its list of (i, j, Q^{ij}_k), each
    (i, j) once and in order of first occurrence, for every k.  Two
    coproducts with the same sums have the same document, whose writers sort
    each row's pairs by id, but their rows can list the pairs in other orders."""

    _ORDER, _STRAY_VARS = itemgetter(2), _NOT_SLOT     # sorted stably by k; entries in x1 and x2

    def __init__(self, kind: str, generators: Sequence[Generator],
                 table: Dict[int, List[Tuple[int, int, MultiPoly]]], name: str = ""):
        super().__init__(kind, generators, name)
        stray = [k for k in table if k not in range(self.rank)]
        if stray:
            raise self._refusal(0, 0, stray[0], None)
        entries = [(i, j, k, q) for k, row in table.items() for i, j, q in row]
        self._store([q for *_, q in entries],
                    [(i, j, k, e) for e, (i, j, k, _) in enumerate(entries)])

    def _refusal(self, i, j, k, q) -> StructureError:
        n, g, par = self.rank, self.generators, self.parities
        if k not in range(n):
            return StructureError(f"delta row {k!r} is not a generator index in range({n})")
        if not (i in range(n) and j in range(n)):
            return StructureError(f"delta({g[k].id}) names the pair ({i}, {j}), not in range({n})")
        if par[k] != (par[i] + par[j]) & 1:
            return StructureError(f"parity violation in delta({g[k].id})")
        stray = ", ".join(sorted(q.variables() - {"x1", "x2"}))
        return StructureError(f"delta({g[k].id}) @ {g[i].id} (x) {g[j].id} uses {stray}; "
                              "coproduct entries may only use x1 and x2")

    def _unslotted(self, vec: dict) -> dict:
        return vec      # Q is stored as it is, and the rows are in the slot variables too

    _slotted = _unslotted

    def _rows(self, slots, values) -> dict:
        rows = {k: [] for k in range(self.rank)}
        for i, j, k, e in slots:
            rows[k].append((i, j, values[e]))
        return rows


def dual_generators(gens: Sequence[Generator]) -> List[Generator]:
    """The dual basis of gens: a_k^* for each a_k, its LaTeX name ending in ^*."""
    return [Generator(g.id + "*", g.parity, (g.latex or g.id) + "^*") for g in gens]
