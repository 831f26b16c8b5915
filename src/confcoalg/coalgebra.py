"""Differential (super)coalgebras dual to conformal structure tables: the co-checks.

Dualization is the substitution functor on structure constants,
Q^{ij}_k(x1, x2) = P^{ij}_k(x1, -x1-x2) (dual.dualize).  Because the
substitution d -> -x1-x2 is (after identifying x2 with d) an involution,
applying it twice is the identity -- the double-dual round trip.  This
module checks the coalgebra axioms of a coproduct (check_lie_coalgebra,
check_jordan_coalgebra) and the round trip; the coproducts themselves
(tables.Coproduct), dualize and compare are imported here from their own
modules, so the commands that only dualize, emit or cross-check compile
none of these checks.

Tensor arithmetic keeps one coefficient polynomial in x1..x_arity per tuple
of generator indices.  Swapping adjacent slots introduces the Koszul sign
(-1)^{p(a)p(b)} and permutes the matching slot variables; expanding a slot
with a coproduct splits its variable into the sum of the two new ones
(d is a coderivation on tensor products).

``apply_delta_slot``, ``tau`` and ``zeta`` implement these operations on
``TensorElement`` values and are the definitional path: no production code
calls them, and ``tests/test_kernels.py`` uses them as the oracle for the
co-checks; apply_delta_slot reads a coproduct's stored form, as every
reader of a coproduct does, for a coproduct keeps no rows.  Every check, of
a table or of a coproduct, runs the kernels of conformal in slot variables;
co-Jordan is the Jordan identity at (lam, mu, nu, d) = (x1, x2, x2+x3,
-x1-x2-x3-x4), times -(-1)^{p(a)p(c)}, a sign that the writer puts on each
tuple's part as it reads the kernel's rows.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .conformal import (CONSISTENT, Report, Violation, _flip_kernel, _jacobi_rows, _jordan_rows,
                        _residual_parts)
# compare and dualize are read here by bench/run.Library and bench/tracing.TARGETS
from .dual import compare, dualize  # noqa: F401
from .poly import D, LAM, MultiPoly, P_ONE, _poly_text, accumulate
from .tables import Coproduct, JORDAN, LIE, LambdaStructure, StructureError

_X = ("x1", "x2", "x3", "x4")


def double_dual_roundtrip(S: LambdaStructure) -> Report:
    """d -> -lam-d applied twice to every table entry returns it exactly.

    The check reads S's stored form, not its rows: each distinct vector is
    unpacked once (Table._values, as the rows are), substituted and
    compared once, and the total counts every slot; the slots are walked
    again only when a value fails, and then each entry of it has its own
    violation, in slot order, which is the rows' order.  This exercises
    only the involution d -> -lam-d of MultiPoly.subst_general, which holds
    for every polynomial in lam and d, so it cannot fail on a table defect;
    ROADMAP item 2 replaces it with a round trip through dualize and JSON.
    """
    slots = S.packed[1][1]
    rep = Report("roundtrip", S.name, total=len(slots))
    img = -LAM - D
    failed = {}     # e -> "p -> its double dual", for each distinct p that fails
    for e, p in enumerate(S._values()):
        back = p.subst_general("d", img).subst_general("d", img)
        if back != p:
            failed[e] = f"{p} -> {back}"
    if failed:
        names = [g.id for g in S.generators]
        for i, j, k, e in slots:
            if e in failed:
                rep.violations.append(Violation((names[i], names[j], names[k]), failed[e]))
    return rep


class TensorElement:
    """Element of the arity-fold tensor power with slot-variable coefficients."""

    __slots__ = ("arity", "terms", "parities")

    def __init__(
        self,
        arity: int,
        terms: Optional[Dict[Tuple[int, ...], MultiPoly]] = None,
        parities: Tuple[int, ...] = (),
    ):
        if not 1 <= arity <= 4:
            raise StructureError("tensor arity must be 1..4")
        self.arity = arity
        self.parities = parities
        self.terms = {}
        if terms:
            for key, p in terms.items():
                if len(key) != arity:
                    raise StructureError("tuple arity mismatch")
                if not p.is_zero():
                    self.terms[key] = p

    @staticmethod
    def seed(k: int, cop: Coproduct) -> "TensorElement":
        return TensorElement(1, {(k,): P_ONE}, cop.parities)

    def __add__(self, other: "TensorElement") -> "TensorElement":
        if self.arity != other.arity:
            raise StructureError("tensor arity mismatch")
        out = TensorElement(self.arity, dict(self.terms), self.parities)
        for key, p in other.terms.items():
            accumulate(out.terms, key, p)
        return out

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + other.scale(MultiPoly.const(-1))

    def scale(self, p: MultiPoly) -> "TensorElement":
        return TensorElement(
            self.arity, {k: p * q for k, q in self.terms.items()}, self.parities
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorElement)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"({p})*{key}" for key, p in sorted(self.terms.items())
        )


def apply_delta_slot(t: TensorElement, cop: Coproduct, slot: int) -> TensorElement:
    """Expand the generator in position slot (1-based) by the coproduct.

    The slot variable splits into the sum of the two new slot variables and
    later slot variables shift up by one.  The coproduct is an even map, so
    no Koszul sign appears.  cop's slots, sorted by k, are grouped by k once.
    """
    if not 1 <= slot <= t.arity:
        raise StructureError("slot out of range")
    if t.arity >= 4:
        raise StructureError("tensor arity overflow")
    out = TensorElement(t.arity + 1, {}, t.parities)
    xs = MultiPoly.var(_X[slot - 1])
    xs1 = MultiPoly.var(_X[slot])
    split = xs + xs1
    values, delta = cop._values(), {}
    for i, j, k, e in cop.packed[1][1]:
        delta.setdefault(k, []).append((i, j, values[e]))
    for key, p in t.terms.items():
        # shift variables of later slots up, then split the expanded slot
        shifted = p
        for v in range(t.arity, slot, -1):
            shifted = shifted.permute_vars({_X[v - 1]: _X[v]})
        shifted = shifted.subst_general(_X[slot - 1], split)
        g = key[slot - 1]
        sigma = {}
        if _X[slot - 1] != "x1":
            sigma["x1"] = _X[slot - 1]
        if _X[slot] != "x2":
            sigma["x2"] = _X[slot]
        for i, j, q in delta.get(g, ()):
            qq = q.permute_vars(sigma) if sigma else q
            nkey = key[: slot - 1] + (i, j) + key[slot:]
            accumulate(out.terms, nkey, shifted * qq)
    return out


def tau(t: TensorElement, slot: int = 1) -> TensorElement:
    """Swap adjacent tensor slots (slot, slot+1) with the Koszul sign."""
    if not 1 <= slot < t.arity:
        raise StructureError("invalid adjacent pair")
    out = TensorElement(t.arity, {}, t.parities)
    va, vb = _X[slot - 1], _X[slot]
    for key, p in t.terms.items():
        a, b = key[slot - 1], key[slot]
        nkey = key[: slot - 1] + (b, a) + key[slot + 1:]
        q = p.permute_vars({va: vb, vb: va})
        if (t.parities[a] * t.parities[b]) & 1:
            q = -q
        accumulate(out.terms, nkey, q)
    return out


def zeta(t: TensorElement) -> TensorElement:
    """Cyclic shift of the first three of four slots with the super sign.

    zeta(a (x) b (x) c (x) d) = (-1)^{p(a)(p(b)+p(c))} b (x) c (x) a (x) d,
    the slot variables following their factors.
    """
    if t.arity != 4:
        raise StructureError("zeta acts on arity-4 tensors")
    out = TensorElement(4, {}, t.parities)
    sigma = {"x1": "x3", "x2": "x1", "x3": "x2"}
    for key, p in t.terms.items():
        a, b, c, d = key
        q = p.permute_vars(sigma)
        if (t.parities[a] * (t.parities[b] + t.parities[c])) & 1:
            q = -q
        accumulate(out.terms, (b, c, a, d), q)
    return out


# -- contraction kernels ---------------------------------------------------------
#
# The co-checks run the flip and row kernels of conformal on the packed
# coproduct, which holds Q in the slot variables as a packed table does
# (see conformal, "packed tables"): the flip residual is
# the co-antisymmetry residual and minus the co-commutativity one, the Jacobi
# rows are the co-Jacobi residuals and the consistent Jordan rows, times
# -(-1)^{p(a)p(c)}, the co-Jordan ones.  Row a of the Jacobi or Jordan kernel
# holds the residual of a_m^* at [a, t] at component t n + m, n the rank and
# t the rest of the tuple as base-n digits, which conformal._residual_parts
# decodes for the table checks and the co-checks alike; an antisymmetric
# coproduct gets the reduced Jacobi kernel as a skew table does.


def _record(rep: Report, cop: Coproduct, residuals) -> None:
    """Add a violation at each (a_k^*, check) of residuals, [(check, arity, rows,
    scale, odd)], with a nonzero residual, in the order of k and then of
    residuals, read through _residual_parts, the part of each tuple t with
    odd(t) negated (odd None: none); each monomial's text is made once per call."""
    n, texts = cop.rank, {}
    found: Dict[Tuple[int, int], list] = {}
    for x, (_, arity, rows, scale, odd) in enumerate(residuals):
        for t, k, terms in _residual_parts(rows, n, arity, scale):
            if odd and odd(t):
                terms = {key: (-re, -im) for key, (re, im) in terms.items()}
            found.setdefault((k, x), []).append((t, _poly_text(terms, texts)))
    for (k, x), parts in sorted(found.items()):
        powers = [n ** e for e in reversed(range(residuals[x][1]))]
        text = " + ".join(f"({s})*{tuple(t // p % n for p in powers)}" for t, s in sorted(parts))
        rep.violations.append(Violation((cop.generators[k].id, residuals[x][0]), text))


def check_lie_coalgebra(cop: Coproduct) -> Report:
    """Per dual generator: tau(delta a) = -delta a, and exact co-Jacobi.

    The antisymmetric-image condition of the definition is equivalent, over
    an exact field, to delta landing in the -1 eigenspace of tau.  Co-Jacobi:
    (I (x) delta) delta - (tau (x) I)(I (x) delta) delta = (delta (x) I) delta,
    where, with delta(a_k^*) = sum Q^{ij}_k(x1, x2) a_i^* (x) a_j^* and
    [i,l,m] standing for a_i^* (x) a_l^* (x) a_m^*,

        (I (x) delta) delta a_k = sum Q^{ij}_k(x1, x2+x3) Q^{lm}_j(x2, x3) [i,l,m]
        (tau (x) I)(I (x) delta) delta a_k
            = sum (-1)^{p_i p_l} Q^{ij}_k(x2, x1+x3) Q^{lm}_j(x1, x3) [l,i,m]
        (delta (x) I) delta a_k = sum Q^{ij}_k(x1+x2, x3) Q^{lm}_i(x1, x2) [l,m,j]

    For cop = dualize(S), the residual of the flip kernel, _flip_kernel,
    and the rows of the Jacobi kernel, _jacobi_rows, are the rows check_skew
    and check_jacobi map back to lam, mu and d, written as they come (see
    "contraction kernels"); each is computed once per call.  With
    antisymmetry co-Jacobi is (1+zeta+zeta^2)(I (x) delta) delta = 0, so it
    runs over [i, j, k] with j <= i <= k, and _write_images writes the other
    permutations.
    """
    if cop.kind != LIE:
        raise StructureError("Lie coalgebra axioms apply to Lie kind")
    rep = Report("coalg", cop.name, total=cop.rank)
    L, table = cop.packed
    flip = _flip_kernel(table, cop.parities, LIE)
    jacobi = _jacobi_rows(table, cop.parities, not flip)
    _record(rep, cop, [("antisymmetry", 2, [flip], L, None), ("co-jacobi", 3, jacobi, L * L, None)])
    return rep


def check_jordan_coalgebra(cop: Coproduct) -> Report:
    """Per dual generator: tau Delta = Delta, and the exact co-Jordan identity

    (1+zeta+zeta^2)(Delta (x) Delta) Delta
        = (1+zeta+zeta^2)(I (x) Delta (x) I)(I (x) Delta) Delta

    where, with [u,v,l,m] standing for a_u^* (x) a_v^* (x) a_l^* (x) a_m^*,

        (Delta (x) Delta) Delta a_k
            = sum Q^{ij}_k(x1+x2, x3+x4) Q^{lm}_j(x3, x4) Q^{uv}_i(x1, x2) [u,v,l,m]
        (I (x) Delta (x) I)(I (x) Delta) Delta a_k
            = sum Q^{ij}_k(x1, x2+x3+x4) Q^{lm}_j(x2+x3, x4) Q^{uv}_l(x2, x3) [i,u,v,m]

    At (lam, mu, nu, d) = (x1, x2, x2+x3, -x1-x2-x3-x4) the residual of a_m^* at
    [a, b, c, d] is -(-1)^{p(a)p(c)} times the consistent Jordan residual of
    (a, b, c, d) at a_m: that identity is a cyclic sum over (a, b, c) (see
    conformal.check_jordan_identity), and (-1)^{p(a)p(c)} turns the sign of
    each rotation into that of zeta^0, zeta or zeta^2.  So co-Jordan is the
    consistent Jordan kernel (_jordan_rows), each tuple's part negated as
    _record reads it where p(a)p(c) is odd, at scale -L^3,
    and co-commutativity is minus the flip kernel's residual: the rows that
    check_jordan_identity and check_jordan_comm map back to lam, mu, nu and d.
    The kernel accumulates one [a, b, c] per rotation orbit and writes each
    term at the rotations (_write_images) before it hands a row on, so the
    sign is taken at the tuple where each term lands.
    """
    if cop.kind != JORDAN:
        raise StructureError("Jordan coalgebra axioms apply to Jordan kind")
    n, par = cop.rank, cop.parities
    rep = Report("cojordan", cop.name, total=n)
    L, table = cop.packed
    odd = lambda t: par[t // n ** 3] & par[t // n % n]   # p(a) p(c) of t = (a, b, c, d)
    _record(rep, cop, [("co-commutativity", 2, [_flip_kernel(table, par, JORDAN)], -L, None),
                       ("co-jordan", 4, _jordan_rows(table, par, CONSISTENT), -L ** 3, odd)])
    return rep

