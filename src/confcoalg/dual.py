"""The machine dual of a table, and the exact diff of two coproducts.

Dualization is the substitution functor on structure constants:

    Q^{ij}_k(x1, x2) = P^{ij}_k(x1, -x1-x2),

re-indexed from (i,j) -> k lists to k -> (i,j) lists.  The coproduct of a
dual generator a_k^* is  delta(a_k^*) = sum Q^{ij}_k(x1, x2) a_i^* (x) a_j^*,
where x_s stands for d acting on tensor slot s.  A table stores its entries
as Q already (tables, Table.packed), so dualize relabels the stored form.
compare diffs the machine dual against a closed-form coproduct.  Neither
runs a check, so the commands that dualize, emit or cross-check compile
none of coalgebra's co-checks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .poly import vector_text
from .tables import Coproduct, LambdaStructure, Record, StructureError, Table, dual_generators


def dualize(S: LambdaStructure) -> Coproduct:
    """The coproduct on the dual basis: Q^{ij}_k(x, y) = P^{ij}_k(x, -x-y).

    S's stored form already holds the table as Q, so dualize relabels it
    and builds no rows: the coproduct stores S's L and vectors, with S's
    slots stably regrouped by k (Coproduct._ORDER).  It skips
    Table._store, which would find nothing to merge or refuse: S
    has one entry per (i, j, k), none zero, checked for parity additivity,
    and its stored form uses only x1 and x2.
    """
    L, (vecs, slots) = S.packed
    cop = Coproduct.__new__(Coproduct)
    Table.__init__(cop, S.kind, dual_generators(S.generators), S.name + "^c")
    cop.packed = L, (vecs, sorted(slots, key=Coproduct._ORDER))
    return cop


# ---------------------------------------------------------------------------
# comparison of coproducts (machine-dual vs closed-form transcription)


class DiffLine(Record):
    __slots__ = ("gen", "left", "right", "got", "expected")

    def __init__(self, gen: str, left: str, right: str, got: str, expected: str):
        self.gen, self.left, self.right, self.got, self.expected = gen, left, right, got, expected

    def __str__(self):
        return (
            f"delta({self.gen}) @ {self.left} (x) {self.right}: "
            f"{self.got}  !=  {self.expected}"
        )


class DiffReport(Record):
    __slots__ = ("name_a", "name_b", "lines")

    def __init__(self, name_a: str, name_b: str, lines: Optional[List[DiffLine]] = None):
        self.name_a, self.name_b, self.lines = name_a, name_b, [] if lines is None else lines

    @property
    def ok(self) -> bool:
        return not self.lines

    def summary(self) -> str:
        status = "empty diff" if self.ok else f"{len(self.lines)} differences"
        return f"crosscheck[{self.name_a} vs {self.name_b}]: {status}"

    def to_json(self) -> dict:
        return {
            "a": self.name_a,
            "b": self.name_b,
            "ok": self.ok,
            "diffs": [
                {
                    "gen": l.gen,
                    "left": l.left,
                    "right": l.right,
                    "a_poly": l.got,
                    "b_poly": l.expected,
                }
                for l in self.lines
            ],
        }


def compare(a: Coproduct, b: Coproduct) -> DiffReport:
    """Exact table diff of two coproducts on the same generator ids, pair by
    pair of their merged tables, in a's generator order.

    It reads the stored forms: each side's slots give (k, i, j) -> vector,
    b's indices mapped to a's by id, and each distinct pair of vectors is
    compared once, at the common scale (v_a L_b == v_b L_a).  Only a pair
    that differs is written, with vector_text, which is repr of the
    polynomial, or "0" for a side without it; an empty diff unpacks nothing.
    """
    if a.index.keys() != b.index.keys():
        raise StructureError(
            f"generator sets differ: {sorted(a.index.keys() ^ b.index.keys())}"
        )
    ga = a.generators
    to_a = [a.index[g.id] for g in b.generators]
    La, (va, sa) = a.packed
    Lb, (vb, sb) = b.packed
    right = {(to_a[k], to_a[i], to_a[j]): e for i, j, k, e in sb}
    same: Dict[Tuple[int, int], bool] = {}   # (e_a, e_b) -> their vectors are equal
    differ = []     # (k, i, j, e_a, e_b) of each pair that differs, None for a side without it
    for i, j, k, ea in sa:
        eb = right.pop((k, i, j), None)
        if eb is not None:
            eq = same.get((ea, eb))
            if eq is None:
                eq = same[ea, eb] = _scaled_equal(va[ea], Lb, vb[eb], La)
            if eq:
                continue
        differ.append((k, i, j, ea, eb))
    differ += [(k, i, j, None, eb) for (k, i, j), eb in right.items()]
    rep = DiffReport(a.name, b.name)
    # the text of each distinct vector e of a side that differs; "0" for a side without the pair
    text_a = {e: "0" if e is None else vector_text(va[e], La)[0] for e in {d[3] for d in differ}}
    text_b = {e: "0" if e is None else vector_text(vb[e], Lb)[0] for e in {d[4] for d in differ}}
    for k, i, j, ea, eb in sorted(differ):
        rep.lines.append(DiffLine(ga[k].id, ga[i].id, ga[j].id, text_a[ea], text_b[eb]))
    return rep


def _scaled_equal(u: dict, su: int, v: dict, sv: int) -> bool:
    """u / sv == v / su for packed vectors u and v, that is u su == v sv."""
    if su == sv:
        return u == v
    return len(u) == len(v) and all(c * su == v.get(key, 0) * sv for key, c in u.items())
