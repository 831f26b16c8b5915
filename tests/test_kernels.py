"""Differential tests: the contraction kernels against definitional oracles.

The oracles below evaluate each identity definitionally: the conformal ones
by nesting ``bracket`` calls and substituting spectral variables, one
generator tuple at a time; the coalgebra ones by expanding tensor slots
with ``apply_delta_slot`` and permuting them with ``tau`` and ``zeta``, one
dual generator at a time (no production path calls these tensor
operations).  The checks in ``confcoalg.conformal`` and
``confcoalg.coalgebra`` must return exactly the same violations -- the same
tuples, in the same order, with the same residuals -- on every family and on
seeded corruptions.  A second, faster oracle for the Jacobi and Jordan
identities contracts renamed tables one generator tuple at a time, so it
reaches tables too large for nested brackets.  The nested-bracket Jordan
oracle and the tensor-slot co-Jordan oracle are also compared with each
other, through the slot map on which the shared Jordan kernel rests.
"""

import copy
import heapq
import itertools
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import partial
from types import SimpleNamespace
from typing import Dict, Iterator, List, Tuple

import pytest

from confcoalg import closed_form as cf
from confcoalg import bases, coalgebra, conformal, families, poly, printed, restricted
from confcoalg import families_contact, families_jordan, families_w
from confcoalg.coalgebra import (
    TensorElement, apply_delta_slot, check_jordan_coalgebra,
    check_lie_coalgebra, double_dual_roundtrip, dualize, tau, zeta,
)
from confcoalg.conformal import (
    CONSISTENT, PRINTED, Report, Violation, bracket, check_jacobi, check_jordan_comm,
    check_jordan_identity, check_skew, shift_spectral,
)
from confcoalg.families import corrupt_entry
from confcoalg.conformal import JACOBI_IMAGES
from confcoalg.restricted import ModuleMap, _divmod_d, _normalise_content, bracket_pairs
from confcoalg.grassmann import IndexSet, mul
from confcoalg.masks import alpha_mask, members, mul_sign
from confcoalg.tables import (
    JORDAN, LIE, ConformalElement, Coproduct, Generator, LambdaStructure, StructureError,
)
from confcoalg.poly import (
    BETA, D, LAM, MU, NU, X1, X2, X3, X4, MultiPoly, P_ONE, Scalar, _MONO_MASK, _checked,
    accumulate, compact_vector,
)

from helpers import (
    FULL_JORDAN_IMAGES, FULL_PRINTED_JORDAN_IMAGES, _gather, co_record_oracle,
    conformal_record_oracle, count_calls, derive, dual_entry, element_pairs, element_reader,
    exact_div, packed_rows, pair_element, term_products,
)
from test_coalgebra import _bench_workloads


# -- oracles -------------------------------------------------------------------


def _sign(S, x, y):
    return MultiPoly.const(-1 if (S.parity(x) * S.parity(y)) & 1 else 1)


def _flip_residual(S, i, j):
    """[a lam b] - sign (-1)^{p(a)p(b)} [b_{-lam-d} a]; sign -1 (skew) or +1 (comm)."""
    sign = 1 if S.kind == JORDAN else -1
    flipped = shift_spectral(pair_element(S, j, i, "mu"), "mu", -LAM - D)
    return S.entry(i, j) - flipped.scale(_sign(S, i, j).scalar_mul(sign))


def _jacobi_residual(S, i, j, k):
    ei, ej, ek = map(ConformalElement.gen, (i, j, k))
    lhs = bracket(S, ei, bracket(S, ej, ek, "mu"), "lam")
    inner = bracket(S, ei, ej, "lam")
    r1 = shift_spectral(bracket(S, inner, ek, "nu"), "nu", LAM + MU)
    r2 = bracket(S, ej, bracket(S, ei, ek, "lam"), "mu")
    return lhs - r1 - r2.scale(_sign(S, i, j))


def _jordan_residual(S, a, b, c, d, variant):
    """Six-term Jordan identity LHS - RHS; scratch slot variables x1..x3."""
    ea, eb, ec, ed = map(ConformalElement.gen, (a, b, c, d))
    s1, s2, s3 = _sign(S, a, c), _sign(S, a, b), _sign(S, b, c)
    nu_mu = NU - MU
    lam_mu_sub = (LAM + NU - MU) if variant == CONSISTENT else (LAM - MU)

    # T1 = a_lam((b_mu c)_nu d)
    t1 = bracket(S, ea, bracket(S, bracket(S, eb, ec, "mu"), ed, "nu"), "lam")

    # T2 = b_mu((c_{nu-mu} a)_{T} d)
    u = bracket(S, ec, ea, "x1")
    v = bracket(S, u, ed, "x2")
    t2 = bracket(S, eb, v, "mu")
    t2 = shift_spectral(shift_spectral(t2, "x1", nu_mu), "x2", lam_mu_sub)

    # T3 = c_{nu-mu}((a_{-mu-d} b)_{lam+mu} d)
    u = shift_spectral(bracket(S, ea, eb, "x1"), "x1", -MU - D)
    v = shift_spectral(bracket(S, u, ed, "x2"), "x2", LAM + MU)
    t3 = shift_spectral(bracket(S, ec, v, "x3"), "x3", nu_mu)

    # T4 = (a_{-mu-d} b)_{lam+mu}(c_{nu-mu} d)
    u = shift_spectral(bracket(S, ea, eb, "x1"), "x1", -MU - D)
    w = shift_spectral(bracket(S, ec, ed, "x1"), "x1", nu_mu)
    t4 = shift_spectral(bracket(S, u, w, "x2"), "x2", LAM + MU)

    # T5 = (b_mu c)_nu(a_lam d)
    t5 = bracket(S, bracket(S, eb, ec, "mu"), bracket(S, ea, ed, "lam"), "nu")

    # T6 = (c_{nu-mu} a)_{lam+nu-mu}(b_mu d)
    u = shift_spectral(bracket(S, ec, ea, "x1"), "x1", nu_mu)
    t6 = shift_spectral(bracket(S, u, bracket(S, eb, ed, "mu"), "x2"), "x2", LAM + NU - MU)

    lhs = t1.scale(s1) + t2.scale(s2) + t3.scale(s3)
    rhs = t4.scale(s1) + t5.scale(s2) + t6.scale(s3)
    return lhs - rhs


def _oracle(S, arity, residual):
    out = []
    for where in itertools.product(range(S.rank), repeat=arity):
        r = residual(S, *where)
        if not r.is_zero():
            out.append((tuple(S.generators[g].id for g in where), r.pretty(S)))
    return out


def _found(rep):
    return [(v.where, v.residual) for v in rep.violations]


def assert_lie_kernels_match(S):
    rep = check_jacobi(S)
    assert rep.total == S.rank ** 3
    assert _found(rep) == _oracle(S, 3, _jacobi_residual), S.name
    assert _found(check_skew(S)) == _oracle(S, 2, _flip_residual), S.name


def assert_jordan_kernels_match(S):
    for variant in (CONSISTENT, PRINTED):
        rep = check_jordan_identity(S, variant=variant)
        assert rep.total == S.rank ** 4
        expected = _oracle(S, 4, lambda S_, *q: _jordan_residual(S_, *q, variant))
        assert _found(rep) == expected, (S.name, variant)
    assert _found(check_jordan_comm(S)) == _oracle(S, 2, _flip_residual), S.name


# -- per-tuple contraction oracles ----------------------------------------------
#
# Each generator tuple is one sparse contraction of renamed table copies,
# renamed term by term through permute_vars and subst_general: the kernels
# as they stood before the hoisted and batched contractions.  They keep their
# own Scalar-valued packed vectors (the three functions below), so they share
# nothing with the integer vectors of confcoalg.poly.

_COMPONENT_SHIFT = _MONO_MASK.bit_length()


def pack_vector(entries):
    """Pack [(m, p_m)] (distinct m) into one term dict."""
    out = {}
    for m, p in entries:
        tag = m << _COMPONENT_SHIFT
        for k, c in p.terms.items():
            out[tag | k] = c
    return out


def unpack_vector(acc):
    """Inverse of pack_vector: drop zero coefficients and check for overflow."""
    parts = {}
    for k, c in acc.items():
        if c.re or c.im:
            m = k >> _COMPONENT_SHIFT
            part = parts.get(m)
            if part is None:
                parts[m] = part = {}
            part[k & _MONO_MASK] = c
    return {m: MultiPoly(_checked(t)) for m, t in parts.items()}


def add_product(acc, p, q, negate=False):
    """acc += p*q (or -= with negate); q a term dict or packed vector."""
    get = acc.get
    for k1, c1 in p.terms.items():
        if negate:
            c1 = -c1
        for k2, c2 in q.items():
            k = k1 + k2
            prev = get(k)
            acc[k] = c1 * c2 if prev is None else prev + c1 * c2


def _per_tuple_renamed(S, lam_img, d_img):
    """rows[i][j] = [(k, P^{ij}_k(lam_img, d_img))]; lam parked in x4 meanwhile."""
    def rename(p):
        return p.permute_vars({"lam": "x4"}).subst_general("d", d_img).subst_general("x4", lam_img)

    rows = [[[] for _ in range(S.rank)] for _ in range(S.rank)]
    for (i, j), entries in S.table.items():
        rows[i][j] = [(k, rename(p)) for k, p in entries]
    return rows


def _per_tuple_packed(S, lam_img, d_img):
    return [[pack_vector(row) for row in rows] for rows in _per_tuple_renamed(S, lam_img, d_img)]


def _per_tuple_found(S, where, acc, out):
    resid = unpack_vector(acc)
    if resid:
        out.append((tuple(S.generators[g].id for g in where), ConformalElement(resid).pretty(S)))


def _jacobi_per_tuple(S):
    n = S.rank
    out = []
    inner_jk = _per_tuple_renamed(S, MU, LAM + D)
    outer_il = _per_tuple_packed(S, LAM, D)
    left_ij = _per_tuple_renamed(S, LAM, -LAM - MU)
    right_lk = _per_tuple_packed(S, LAM + MU, D)
    inner_ik = _per_tuple_renamed(S, LAM, MU + D)
    outer_jl = _per_tuple_packed(S, MU, D)
    for i, j, k in itertools.product(range(n), repeat=3):
        even = not S.parity(i) & S.parity(j)
        acc = {}
        for l, p in inner_jk[j][k]:
            add_product(acc, p, outer_il[i][l])
        for l, p in left_ij[i][j]:
            add_product(acc, p, right_lk[l][k], negate=True)
        for l, p in inner_ik[i][k]:
            add_product(acc, p, outer_jl[j][l], negate=even)
        _per_tuple_found(S, (i, j, k), acc, out)
    return n ** 3, out


def _chain(acc, first, mid, d, last, negate):
    """acc += sum_{l,m} first_l mid[l][d]_m last[m] (last a packed row)."""
    inner = {}
    for l, p in first:
        add_product(inner, p, mid[l][d])
    for m, q in unpack_vector(inner).items():
        add_product(acc, q, last[m], negate)


def _split(acc, first, second, last, negate):
    """acc += sum_{l,m} first_l second_m last[l][m] (last packed rows)."""
    for l, p in first:
        for m, q in second:
            if last[l][m]:
                add_product(acc, p * q, last[l][m], negate)


def _jordan_per_tuple(S, variant):
    n = S.rank
    out = []
    nu_mu = NU - MU
    t = LAM + NU - MU if variant == CONSISTENT else LAM - MU

    def renamed(lam_img, d_img):
        return _per_tuple_renamed(S, lam_img, d_img)

    def packed(lam_img, d_img):
        return _per_tuple_packed(S, lam_img, d_img)

    f_bc, f_ab = renamed(MU, -NU), renamed(LAM, -LAM - MU)
    f_ca_chain, f_ca_split = renamed(nu_mu, -t), renamed(nu_mu, MU - LAM - NU)
    c1_mid, c1_last = packed(NU, LAM + D), packed(LAM, D)
    c2_mid, c2_last = packed(t, MU + D), packed(MU, D)
    c3_mid, c3_last = packed(LAM + MU, nu_mu + D), packed(nu_mu, D)
    s1_sec, s1_last = renamed(nu_mu, LAM + MU + D), packed(LAM + MU, D)
    s2_sec, s2_last = renamed(LAM, NU + D), packed(NU, D)
    s3_sec, s3_last = renamed(MU, LAM + NU - MU + D), packed(LAM + NU - MU, D)
    par = [S.parity(i) for i in range(n)]
    for a, b, c, d in itertools.product(range(n), repeat=4):
        if not (f_ab[a][b] or f_bc[b][c] or f_ca_chain[c][a]):
            continue
        odd_ab, odd_ac, odd_bc = par[a] & par[b], par[a] & par[c], par[b] & par[c]
        acc = {}
        _chain(acc, f_bc[b][c], c1_mid, d, c1_last[a], odd_ac)
        _chain(acc, f_ca_chain[c][a], c2_mid, d, c2_last[b], odd_ab)
        _chain(acc, f_ab[a][b], c3_mid, d, c3_last[c], odd_bc)
        _split(acc, f_ab[a][b], s1_sec[c][d], s1_last, not odd_ac)
        _split(acc, f_bc[b][c], s2_sec[a][d], s2_last, not odd_ab)
        _split(acc, f_ca_split[c][a], s3_sec[b][d], s3_last, not odd_bc)
        _per_tuple_found(S, (a, b, c, d), acc, out)
    return n ** 4, out


# -- per-slot gather oracle -------------------------------------------------------
#
# The renamed copies as they stood before each distinct entry polynomial was
# renamed once per call: every entry packed on its own, tagged at its
# component, and every slot renamed through its own poly.substitution call.
# The functions are kept as they were, with the packed table they read and
# poly.tagged written out.


def _packed_per_entry(entries):
    """(L, [(i, j, k, L p packed)]) for entries [(i, j, k, p)], L their common denominator."""
    L = poly.common_denominator(p for *_, p in entries)
    return L, [(i, j, k, poly.pack_vector([(0, p)], L)) for i, j, k, p in entries]


def _tagged(vec, m, negate=False):
    """vec, packed at component 0, moved to component m (negated with negate)."""
    tag, sign = m << poly._COMPONENT_SHIFT, -1 if negate else 1
    return {k + tag: sign * c for k, c in vec.items()}


def _gather_per_slot(table, lam_img, d_img, place, negate=None, names=("lam", "d")):
    """Packed vectors out[slot] of the renamed entries P^{ij}_k(lam_img, d_img).

    place(i, j, k) = (slot, m) puts the entry at component m of out[slot];
    with negate given, the entries for which negate(i, j) holds change sign.
    names are the two variables renamed; with lam_img None nothing is.
    """
    out = {}
    for i, j, k, p in table:
        slot, m = place(i, j, k)
        out.setdefault(slot, {}).update(_tagged(p, m, bool(negate and negate(i, j))))
    if lam_img is None:
        return out
    rename = poly.substitution(*names, lam_img, d_img)
    return {slot: rename(vec) for slot, vec in out.items()}


def _roundtrip_per_entry(S):
    """double_dual_roundtrip as it stood: both substitutions once per entry."""
    rep = Report("roundtrip", S.name)
    img = -LAM - D
    for (i, j), entries in S.table.items():
        for k, p in entries:
            rep.total += 1
            back = p.subst_general("d", img).subst_general("d", img)
            if back != p:
                names = (S.generators[i].id, S.generators[j].id, S.generators[k].id)
                rep.violations.append(Violation(names, f"{p} -> {back}"))
    return rep


# The slot maps under which a table identity is its coproduct identity: with
# P(alpha, beta) = Q(alpha, -alpha-beta), the flip, Jacobi and Jordan kernels
# read the table, as its dual, at these images of the table's variables.
SLOT_MAPS = {
    "flip": {"lam": X1, "d": -X1 - X2},
    "jacobi": {"lam": X1, "mu": X2, "d": -X1 - X2 - X3},
    "jordan": {"lam": X1, "mu": X2, "nu": X2 + X3, "d": -X1 - X2 - X3 - X4},
}


def _at(p, slot_map):
    """p with every table variable replaced by its image in slot_map."""
    for v, img in slot_map.items():
        p = p.subst_general(v, img)
    return p


def _in_slots(pair, slot_map):
    """The images (x1_img, x2_img) in Q of the images (lam_img, d_img) of P,
    (None, None) standing for (lam, d)."""
    alpha, beta = (_at(p, slot_map) for p in ((LAM, D) if pair[0] is None else pair))
    return alpha, -alpha - beta


def _slot_pair(pair):
    """A kernel's slot image pair, (None, None) standing for (x1, x2)."""
    return (X1, X2) if pair[0] is None else pair


def _kernel_gathers(n, par):
    """(lam_img, d_img, slot map, place, negate): gathers shaped as the kernels
    make them on a rank-n table, each read in (lam, d) and at a slot map, with a
    sign rule on some of them."""
    n2 = n * n
    return [
        (None, None, "jacobi", lambda i, l, m: ((i, l), m), None),
        (MU, LAM + D, "jacobi", lambda j, k, l: (l, (j * n + k) * n), None),
        (LAM, -LAM - MU, "jacobi", lambda i, j, l: ((i, l), j * n2), None),
        (MU, D, "jacobi", lambda j, l, m: (l, j * n2 + m), lambda j, l: par[j]),
        (-LAM - D, D, "flip", lambda j, i, k: (0, (i * n + j) * n + k),
         lambda j, i: not par[i] & par[j]),
        (NU, LAM + D, "jordan", lambda x, d, m: ((x, m), d * n), lambda x, d: par[x] ^ par[d]),
        # the Jordan identity's first factors and batched R and Q
        (MU, -NU, "jordan", lambda b, c, l: ((l, par[b], par[c]), b * n ** 3 + c * n2), None),
        (NU - MU, -LAM + MU, "jordan", lambda c, a, l: ((a, l, par[c]), c * n2), None),
        (MU, D, "jordan", lambda y, m, k: ((par[y], m), y * n ** 3 + k), None),
    ]


def _co_kernel_gathers(n, par):
    """(x1_img, x2_img, place, negate): gathers shaped as the kernels make them
    on a rank-n table or coproduct in slot variables, with a sign rule on some of them."""
    return [
        (None, None, lambda i, j, k: (0, (i * n + j) * n + k), None),
        (X2, X1, lambda j, i, k: (0, (i * n + j) * n + k), lambda j, i: par[i] & par[j]),
        (X2, X1 + X3, lambda j, l, m: (l, j * n * n + m), lambda j, l: par[j]),
        # the Jordan kernel's first factors and R and Q under the consistent images
        (X3, X1, lambda c, a, l: ((a, l, par[c]), c * n * n), None),
        (X1 + X3, X4, lambda x, d, m: ((x, m), d * n), None),
        (X1 + X2, X3 + X4, lambda y, m, k: ((y, m), k), None),
    ]


def _repacked_at(out, slot_map):
    """Each packed vector of out, integer-valued, with its polynomials read at slot_map."""
    return {slot: poly.pack_vector([(m, _at(p, slot_map))
                                    for m, p in poly.unpack_vector(vec).items()])
            for slot, vec in out.items()}


def assert_gathers_match(S):
    """_gather of S and of dualize(S) against the per-slot oracle on the dual
    entries Q(x1, x2) = P(x1, -x1-x2), with the placements the kernels use;
    and each copy of S gathered in (lam, d) by the per-slot oracle, read at
    its slot map, is the kernel's gather of S at the slot images."""
    entries = [(i, j, k, p) for (i, j), row in S.table.items() for k, p in row]
    L_lam, by_lam = _packed_per_entry(entries)
    L_old, old = _packed_per_entry([(i, j, k, dual_entry(p)) for i, j, k, p in entries])
    assert L_lam == L_old
    par = [S.parity(i) for i in range(S.rank)]
    for T in (S, dualize(S)):
        L, table = T.packed
        assert L == L_old
        for x1_img, x2_img, place, negate in _co_kernel_gathers(S.rank, par):
            assert (_gather(table, x1_img, x2_img, place, negate)
                    == _gather_per_slot(old, x1_img, x2_img, place, negate, names=("x1", "x2")))
    table = S.packed[1]
    for lam_img, d_img, kernel, place, negate in _kernel_gathers(S.rank, par):
        slot_map = SLOT_MAPS[kernel]
        assert (_gather(table, *_in_slots((lam_img, d_img), slot_map), place, negate)
                == _repacked_at(_gather_per_slot(by_lam, lam_img, d_img, place, negate),
                                slot_map))


@pytest.mark.parametrize("name", ["K_4", "W_2", "S_3", "CK_6", "J_2", "JCK_4"])
def test_gathers_match_per_slot_oracle(name, K, W, S, CK6, Jn, JCK4):
    table = {"K_4": K[4], "W_2": W[2], "S_3": S[3], "CK_6": CK6, "J_2": Jn[2], "JCK_4": JCK4}
    assert_gathers_match(table[name])


def test_each_image_pair_is_renamed_once_per_check(monkeypatch):
    """A kernel call renames the table once per distinct image pair: the
    consistent Jordan kernel renames for its first factors (ca_chain and
    ca_split share a pair) and for r1 only, as it maps R1 to Q2 and renames
    their products for r2, r3, q1 and q3; the printed one renames for the
    printed ca_chain besides, as it maps R1 to the printed R2 too.  The
    Jacobi kernel renames for each of its five other pairs once and reads
    each copy in every row.  The copy that is the table as it is, Jacobi's
    first2 and Jordan's ab, is not renamed.  The tables are fresh, so
    check_jacobi also runs the flip kernel.  A table check renames as its
    co-check does; the maps into and out of the slot variables, and those
    from R1, are made once, on import."""
    J2, JS1, K3 = families.make_Jn(2), families.make_JS1(), families.make_K(3)
    made = count_calls(monkeypatch, conformal, "substitution")
    for check, arg, renamed in (
            (check_jordan_identity, J2, 4), (lambda S: check_jordan_identity(S, PRINTED), JS1, 5),
            (check_jacobi, K3, 6), (check_jordan_coalgebra, dualize(J2), 5),
            (check_lie_coalgebra, dualize(K3), 6)):
        made.clear()
        check(arg)
        assert all(args[:2] == ("x1", "x2") for args in made), arg.name
        pairs = [args[2:] for args in made]
        assert len(pairs) == len(set(pairs)) == renamed, (arg.name, pairs)


# The kernels' image sets in the table's variables (lam, mu, nu, d), as the
# kernels once took them: a copy (lam_img, d_img) reads P^{ij}_k(lam_img,
# d_img), and (None, None) reads the table as it is.  The Jordan sets are those
# of T = lam+nu-mu (consistent) and T = lam-mu (printed).
_SUM = LAM + NU - MU
LAMBDA_JACOBI = {"outer": (None, None), "cols1": (MU, LAM + D), "first2": (LAM, -LAM - MU),
                 "rows2": (LAM + MU, D), "first3": (LAM, MU + D), "cols3": (MU, D)}
LAMBDA_JORDAN = {
    "bc": (MU, -NU), "ab": (LAM, -LAM - MU), "ca_split": (NU - MU, -_SUM),
    "r1": ((NU, LAM + D), (None, None)),
    "q1": ((NU - MU, LAM + MU + D), (LAM + MU, D)), "r2": ((_SUM, MU + D), (MU, D)),
    "q2": ((LAM, NU + D), (NU, D)), "r3": ((LAM + MU, NU - MU + D), (NU - MU, D)),
    "q3": ((MU, _SUM + D), (_SUM, D))}
LAMBDA_PRINTED = {**LAMBDA_JORDAN, "ca_chain": (NU - MU, MU - LAM),
                  "r2": ((LAM - MU, MU + D), (MU, D))}


def test_slot_image_sets_follow_from_the_table_image_sets(monkeypatch):
    """Each slot pair (u, w) of the flip, Jacobi, consistent Jordan and
    printed Jordan kernels is (u', -u'-w') for the images u' and w' of the
    lambda pair at the kernel's slot map; the flip kernel's pair is read off
    its one renamed copy, beside which it reads the table as it is."""
    renamed = []
    real = conformal._renamed
    monkeypatch.setattr(conformal, "_renamed",
                        lambda vecs, x1, x2, *rest: renamed.append((x1, x2)) or real(vecs, x1, x2, *rest))
    K1 = families.make_K(1)
    conformal._flip_kernel(K1.packed[1], [g.parity for g in K1.generators], LIE)
    assert renamed == [_in_slots((-LAM - D, D), SLOT_MAPS["flip"])]
    for lam_images, slots, kernel in ((LAMBDA_JACOBI, JACOBI_IMAGES, "jacobi"),
                                      (LAMBDA_JORDAN, FULL_JORDAN_IMAGES, "jordan"),
                                      (LAMBDA_PRINTED, FULL_PRINTED_JORDAN_IMAGES, "jordan")):
        assert lam_images.keys() == slots.keys()
        for key, pair in lam_images.items():
            if isinstance(pair[0], tuple):   # the (first, last) pair of an R or Q
                assert (tuple(_in_slots(p, SLOT_MAPS[kernel]) for p in pair)
                        == tuple(map(_slot_pair, slots[key]))), key
            else:
                assert _in_slots(pair, SLOT_MAPS[kernel]) == _slot_pair(slots[key]), key
    for printed, consistent in ((LAMBDA_PRINTED, LAMBDA_JORDAN),
                                (FULL_PRINTED_JORDAN_IMAGES, FULL_JORDAN_IMAGES)):
        # the consistent chain term c a reads ca_split's copy, the printed one its own
        chain = {**consistent, "ca_chain": consistent["ca_split"]}
        assert printed.keys() == chain.keys()
        assert {key for key in printed if printed[key] != chain[key]} == {"ca_chain", "r2"}


def _lie_fixtures(request):
    """Every Lie table of the session fixtures."""
    return [request.getfixturevalue("vir"), request.getfixturevalue("cur_sl2"),
            *request.getfixturevalue("W").values(), *request.getfixturevalue("K").values(),
            *request.getfixturevalue("S").values(), *request.getfixturevalue("S2b").values(),
            request.getfixturevalue("Stilde2"), request.getfixturevalue("K4p"),
            request.getfixturevalue("CK6")]


def _jordan_fixtures(request):
    """Every Jordan table of the session fixtures (J_0-J_3, JS_1, JCK_4) and the
    Jordan current."""
    return [*request.getfixturevalue("Jn").values(), request.getfixturevalue("JS1"),
            request.getfixturevalue("JCK4"), families.make_cur_jordan_unit()]


def _corrupt_J2():
    return corrupt_entry(families.make_Jn(2), "xi1", "xi2th", "xi12th", LAM + D)


@pytest.mark.parametrize("corrupt", [None, "skew-keeping", "skew-breaking"])
def test_table_checks_and_co_checks_share_one_packed_form(corrupt, request, monkeypatch):
    """dualize(S).packed holds the very vectors of S.packed, and the skew and
    Jacobi checks of S make as many term products as the co-Lie check of
    dualize(S): both run the same kernels on the same vectors.  On every Lie
    family of the fixtures, or on a skew-keeping and a skew-breaking
    corruption of K_3; each table is a fresh copy, so no form is cached."""
    if corrupt is None:
        tables = _lie_fixtures(request)
    elif corrupt == "skew-keeping":
        tables = [_skew_corruption(families.make_K(3), "xi1", "xi2", "xi12", LAM + 2 * D)]
    else:
        tables = [corrupt_entry(families.make_K(3), "xi1", "xi2", "xi12", MultiPoly.const(-1))]
    for T in tables:
        S = LambdaStructure(T.kind, T.generators, T.table, name=T.name)
        cop = dualize(S)
        assert {id(vec) for vec in cop.packed[1][0]} == {id(vec) for vec in S.packed[1][0]}
        skew, rep = term_products(monkeypatch, check_skew, S)
        assert rep.ok == (corrupt != "skew-breaking")
        jacobi, rep = term_products(monkeypatch, check_jacobi, S)
        assert rep.ok == (corrupt is None), S.name
        co, rep = term_products(monkeypatch, check_lie_coalgebra, cop)
        assert skew + jacobi == co and rep.ok == (corrupt is None), S.name


# the term products of check_jordan_comm and of the consistent
# check_jordan_identity, whose sum check_jordan_coalgebra makes on the dual
# (the kernel over every quadruple made 55,914 and 10,626, and the rotation
# kernel that hoisted Q2 as well as R1 8,752 and 1,828)
JORDAN_SHARED_PRODUCTS = {"J_3": (150, 7512), "J_2?": (49, 1528)}


@pytest.mark.parametrize("corrupt", [False, True])
def test_jordan_table_checks_and_co_checks_share_one_packed_form(corrupt, request, monkeypatch):
    """The Jordan twin of the test above: commutativity plus the consistent
    Jordan identity of a table make exactly the term products of the
    co-Jordan check of its dual, which runs the same kernels on the same
    vectors, parities and images and only signs the rows it writes.  On every
    Jordan fixture and the Jordan current, or on a corruption of J_2; each
    table is a fresh copy, so no form is cached."""
    tables = [_corrupt_J2()] if corrupt else _jordan_fixtures(request)
    for T in tables:
        S = LambdaStructure(T.kind, T.generators, T.table, name=T.name)
        cop = dualize(S)
        comm, comm_rep = term_products(monkeypatch, check_jordan_comm, S)
        jordan, jordan_rep = term_products(monkeypatch, check_jordan_identity, S)
        co, rep = term_products(monkeypatch, check_jordan_coalgebra, cop)
        assert comm + jordan == co and rep.ok == (comm_rep.ok and jordan_rep.ok), S.name
        if S.name in JORDAN_SHARED_PRODUCTS:
            assert (comm, jordan) == JORDAN_SHARED_PRODUCTS[S.name]


def test_kernel_rows_are_compact(request):
    """No row that _jacobi_rows or _jordan_rows (under the consistent and
    the printed images) hands to a writer holds a zero coefficient: each is
    compact, and a zero row is {}.  On every Lie and Jordan fixture, the
    skew-breaking corruption of K_3, which runs the full Jacobi kernel, and a
    corruption of J_2."""
    breaking = corrupt_entry(families.make_K(3), "xi1", "xi2", "xi12", MultiPoly.const(-1))
    assert breaking.flip_residual
    rows = [(S.name, row) for S in [*_lie_fixtures(request), breaking]
            for row in conformal._jacobi_rows(S.packed[1], S.parities, not S.flip_residual)]
    rows += [(S.name, row) for S in [*_jordan_fixtures(request), _corrupt_J2()]
             for variant in (CONSISTENT, PRINTED)
             for row in conformal._jordan_rows(S.packed[1], S.parities, variant)]
    assert {name for name, row in rows if row} >= {"K_3?", "J_2", "J_2?", "JCK_4"}
    for name, row in rows:
        assert 0 not in row.values() and row == compact_vector(row), name


def _seeded_corruptions():
    """A skew-keeping and a skew-breaking corruption of K_3, the second run by
    the full Jacobi kernel, and a corruption of J_2."""
    return [_skew_corruption(families.make_K(3), "xi1", "xi2", "xi12", LAM + 2 * D),
            corrupt_entry(families.make_K(3), "xi1", "xi2", "xi12", MultiPoly.const(-1)),
            _corrupt_J2()]


@pytest.mark.parametrize("corrupt", [False, True])
def test_no_check_changes_the_stored_form(corrupt, request):
    """The kernels write into vectors of their own and never into the stored
    form they read: after skew, Jacobi and co-Lie, or commutativity, both
    Jordan variants and co-Jordan, a table's packed form and its dual's,
    which shares the table's vectors, equal deep copies taken before, and a
    second run of the checks gives equal reports.  On every fixture or on
    the seeded corruptions; each table is a fresh copy, so no form is cached."""
    tables = (_seeded_corruptions() if corrupt
              else [*_lie_fixtures(request), *_jordan_fixtures(request)])
    for T in tables:
        S = LambdaStructure(T.kind, T.generators, T.table, name=T.name)
        cop = dualize(S)
        if S.kind == LIE:
            checks = [(check_skew, S), (check_jacobi, S), (check_lie_coalgebra, cop)]
        else:
            checks = [(check_jordan_comm, S), (check_jordan_identity, S),
                      (lambda S: check_jordan_identity(S, PRINTED), S),
                      (check_jordan_coalgebra, cop)]
        before = copy.deepcopy((S.packed, cop.packed))
        first = [check(arg) for check, arg in checks]
        assert (S.packed, cop.packed) == before, S.name
        assert [check(arg) for check, arg in checks] == first, S.name
        assert (S.packed, cop.packed) == before, S.name


@pytest.mark.parametrize("corrupt", [False, True])
def test_double_dual_roundtrip_matches_the_per_entry_oracle(corrupt, request, monkeypatch):
    """double_dual_roundtrip reads the stored form and builds no row view,
    and its report equals the per-entry oracle's, which reads the rows: on
    every fixture or on the seeded corruptions, and again under a
    subst_general that adds 1 to the first substitution of one value, the
    most frequent, so that each entry of it fails, in the rows' order."""
    tables = (_seeded_corruptions() if corrupt
              else [*_lie_fixtures(request), *_jordan_fixtures(request)])
    real = MultiPoly.subst_general
    for T in tables:
        S = LambdaStructure(T.kind, T.generators, T.table, name=T.name)
        rep = double_dual_roundtrip(S)
        assert "table" not in S.__dict__, S.name
        assert rep.ok and rep == _roundtrip_per_entry(S), S.name
        (target, count), = Counter(p for row in S.table.values() for _, p in row).most_common(1)
        with monkeypatch.context() as mp:
            mp.setattr(MultiPoly, "subst_general", lambda self, var, repl: (
                real(self, var, repl) + P_ONE if self == target else real(self, var, repl)))
            rep, expected = double_dual_roundtrip(S), _roundtrip_per_entry(S)
        assert len(rep.violations) == count and rep == expected, S.name


# -- the Jordan kernel over rotation orbits ----------------------------------------
#
# _jordan_rows as it stood before it accumulated one quadruple per rotation
# orbit: every quadruple, against six intermediates each built by _hoisted.
# The three functions are kept as they were, on the packed vectors of
# confcoalg.poly (this module's add_product is the per-tuple oracles'), and
# add_product may be replaced to watch the products.


def _full_jordan_kernel(add_product=poly.add_product):
    compact_vector = poly.compact_vector

    def _grouped(vectors: dict) -> dict:
        """{(a, *rest): v} as {a: [(*rest, v)]}."""
        out = {}
        for (a, *rest), v in vectors.items():
            out.setdefault(a, []).append((*rest, v))
        return out

    def _hoisted(gather, n: int, first, last, x_at=lambda x: (x, 0), y_at=lambda y: (y, 0)):
        """h[(x, y)] = sum_{d,m} Q^{xd}_m(*first) Q^{ym}_k(*last), packed at d n + k.

        gather is _gather with the table and renamed bound, first and last
        (x1_img, x2_img) pairs; the fourth tuple index d rides in the component,
        so each h[(x, y)] serves every d at once.  With x_at, x -> (key, tag), x rides
        too: key replaces x and tag is added to the component; y_at does the same.
        """
        firsts = gather(*first, lambda x, d, m: ((x_at(x)[0], m), x_at(x)[1] + d * n))
        lasts: Dict[int, list] = {}
        for (y, m), row in gather(*last, lambda y, m, k: ((y_at(y)[0], m), y_at(y)[1] + k)).items():
            lasts.setdefault(m, []).append((y, row))
        out: Dict[Tuple[int, int], dict] = {}
        for (x, m), p in firsts.items():
            for y, row in lasts.get(m, ()):
                add_product(out.setdefault((x, y), {}), p, row)
        return {key: compact_vector(acc) for key, acc in out.items()}

    def _jordan_rows(table, par, images) -> Iterator[dict]:
        """For each a, the compact Jordan-identity residuals of table's quadruples
        (a, b, c, d) under images, L**3 times too large, at components
        ((b n + c) n + d) n + m.

        Each left-hand term is a chain contraction and each right-hand term a
        split one; for the first terms of each side

            a_lam((b_mu c)_nu d) = sum_l P^{bc}_l(mu, -nu) R1[l, a]
                R1[l, a] = sum P^{ld}_m(nu, lam+d) P^{am}_n(lam, d)
            (a_{-mu-d} b)_{lam+mu}(c_{nu-mu} d) = sum_l P^{ab}_l(lam, -lam-mu) Q1[c, l]
                Q1[c, l] = sum P^{cd}_m(nu-mu, lam+mu+d) P^{lm}_n(lam+mu, d)

        and the others follow the same pattern, each P(alpha, beta) read as
        Q(alpha, -alpha-beta) at the images.  Each R and Q depends on two
        indices besides d and is built once per call (see _hoisted).  b, c and
        d ride in the packed component, at (b n + c) n + d, so each a is one
        accumulation: a first factor holds its indices but a and an R or Q its
        index besides l, split by the parity the sign depends on.  A first
        factor's other parity is fixed by l, as every entry is
        parity-homogeneous: p(c) = p(b) + p(l) for b c, p(b) = p(a) + p(l) for
        a b and p(c) = p(a) + p(l) for c a.
        """
        n = len(par)
        n2, n3 = n * n, n ** 3
        gather = partial(_gather, table)
        hoisted = partial(_hoisted, gather, n)
        # first factors: of b c as a list, of a b and c a by a
        f_bc = [(*key, p) for key, p in gather(
            *images["bc"], lambda b, c, l: ((l, par[b]), b * n3 + c * n2)).items()]
        f_ab = _grouped(gather(*images["ab"], lambda a, b, l: ((a, l), b * n3)))
        chain = images.get("ca_chain", images["ca_split"])   # the consistent chain is ca_split's
        f_ca_chain = _grouped(gather(*chain, lambda c, a, l: ((a, l), c * n2)))
        f_ca_split = _grouped(gather(*images["ca_split"], lambda c, a, l: ((a, l), c * n2)))
        # chain terms r[(l, x)], split terms q[(x, l)]; of b and c by their parity
        at_b, at_c = (lambda b: (par[b], b * n3)), (lambda c: (par[c], c * n2))
        r1, q2 = hoisted(*images["r1"]), hoisted(*images["q2"])
        r2, q3 = hoisted(*images["r2"], y_at=at_b), hoisted(*images["q3"], x_at=at_b)
        r3, q1 = hoisted(*images["r3"], y_at=at_c), hoisted(*images["q1"], x_at=at_c)
        for a in range(n):
            pa, acc = par[a], {}
            for l, pb, p in f_bc:
                if (l, a) in r1:
                    add_product(acc, p, r1[(l, a)], pa & (pb ^ par[l]))
                if (a, l) in q2:
                    add_product(acc, p, q2[(a, l)], not pa & pb)
            for l, p in f_ca_chain.get(a, ()):
                for pb in (0, 1):
                    if (l, pb) in r2:
                        add_product(acc, p, r2[(l, pb)], pa & pb)
            for l, p in f_ab.get(a, ()):
                for pc in (0, 1):
                    if (l, pc) in r3:
                        add_product(acc, p, r3[(l, pc)], (pa ^ par[l]) & pc)
                    if (pc, l) in q1:
                        add_product(acc, p, q1[(pc, l)], not pa & pc)
            for l, p in f_ca_split.get(a, ()):
                for pb in (0, 1):
                    if (pb, l) in q3:
                        add_product(acc, p, q3[(pb, l)], not pb & (pa ^ par[l]))
            yield compact_vector(acc) if any(acc.values()) else {}

    return _jordan_rows


_full_jordan_rows = _full_jordan_kernel()
JCK4_PAIR = ("w1", "x", "x1")


def _comm_corruption(S, left, right, out, q):
    """S with q a_out added to [a_left lam a_right] and its commutative image
    (-1)^{p(left)p(right)} q(-lam-d, d) a_out to [a_right lam a_left], so that
    S stays Jordan-commutative (left and right differ)."""
    i, j, k = S.index[left], S.index[right], S.index[out]
    mirror = q.subst_general("lam", -LAM - D).scalar_mul(-1 if S.parity(i) & S.parity(j) else 1)
    T = S.with_entry(i, j, S.entry(i, j) + ConformalElement({k: q}))
    return T.with_entry(j, i, T.entry(j, i) + ConformalElement({k: mirror}))


def _repaired_Jn(n):
    """J_n with README defect 2's repair, the theta-theta coefficient
    lam(|a|+|b|-2) + (|a|-1) d for lam(|a|+|b|-4) + (|a|-2) d: 2 lam + d more
    at each (a th) lam (b th) -> ab, with that entry's sign (-1)^{|b|} s(a, b)."""
    J = families.make_Jn(n)
    ev, th = J.meta["ev_idx"], J.meta["th_idx"]
    table = {key: list(row) for key, row in J.table.items()}
    for I in ev:
        for K in ev:
            s = mul_sign(I, K)
            if s:
                sign = -s if bin(K).count("1") % 2 else s
                table[(th[I], th[K])].append((ev[I | K], (2 * LAM + D) * sign))
    return LambdaStructure(JORDAN, J.generators, table, name=f"J_{n}+")


def _jordan_kernel_tables(request):
    """Every Jordan fixture and the Jordan current, and corruptions of J_2 and
    JCK_4 that keep Jordan commutativity and that break it."""
    J2, JCK4 = request.getfixturevalue("Jn")[2], request.getfixturevalue("JCK4")
    keeping = [_comm_corruption(J2, "xi1", "xi2th", "xi12th", LAM + 2 * D),
               _comm_corruption(JCK4, *JCK4_PAIR, LAM * LAM - D)]
    breaking = [_corrupt_J2(), corrupt_entry(JCK4, *JCK4_PAIR, LAM + D)]
    for S in keeping:
        assert check_jordan_comm(S).ok and not check_jordan_identity(S).ok, S.name
    for S in breaking:
        assert not check_jordan_comm(S).ok, S.name
    return _jordan_fixtures(request) + keeping + breaking


def test_reduced_jordan_rows_match_the_full_kernel(request):
    """The kernel's rows, one quadruple per rotation orbit accumulated and
    the rest written, equal the full kernel's row for row, under the
    consistent and the printed images, on each table and on its dual."""
    for S in _jordan_kernel_tables(request):
        for T in (S, dualize(S)):
            table = T.packed[1]
            for variant, images in ((CONSISTENT, FULL_JORDAN_IMAGES),
                                    (PRINTED, FULL_PRINTED_JORDAN_IMAGES)):
                assert (list(conformal._jordan_rows(table, T.parities, variant))
                        == list(_full_jordan_rows(table, T.parities, images))), (T.name, variant)


def test_jordan_kernel_refuses_an_unknown_variant(Jn):
    """_jordan_rows takes the variant by name, CONSISTENT or PRINTED, and
    refuses anything else, an image set included, as check_jordan_identity
    does through it."""
    S = Jn[2]
    for variant in ("bogus", FULL_JORDAN_IMAGES, FULL_PRINTED_JORDAN_IMAGES, None):
        with pytest.raises(StructureError, match="^unknown variant "):
            list(conformal._jordan_rows(S.packed[1], S.parities, variant))
    with pytest.raises(StructureError, match="^unknown variant 'bogus'$"):
        check_jordan_identity(S, "bogus")


def _least_rotation(a, b, c):
    return min((a, b, c), (b, c, a), (c, a, b))


def _accumulating(touched, n):
    """A packed add_product that adds to touched the triple (a, b, c) of each
    product a Jordan kernel accumulates into a row: a the row index of the
    calling _jordan_rows, b and c the top digits of the product's component."""
    def add_product(acc, p, q, negate=False):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "_jordan_rows":
            a = frame.f_locals["a"]
            for k1 in p:
                for k2 in q:
                    comp = (k1 + k2) >> poly._COMPONENT_SHIFT
                    touched.add((a, comp // n ** 3, comp // n ** 2 % n))
        return poly.add_product(acc, p, q, negate)

    return add_product


@pytest.mark.parametrize("name", ["J_2", "JCK_4"])
def test_representatives_meet_every_rotation_orbit_once(name, Jn, JCK4, monkeypatch):
    """The representatives, a <= b and a < c or a = b = c, are the least
    rotations, one per rotation orbit.  The kernel's rows accumulate products
    at representatives only, at the least rotation of a triple at which the
    full kernel's rows do, and at that of every triple with a violation (J_2
    fails, and a corruption of JCK_4 that keeps commutativity)."""
    S = {"J_2": Jn[2], "JCK_4": _comm_corruption(JCK4, *JCK4_PAIR, LAM * LAM - D)}[name]
    n = S.rank
    for a, b, c in itertools.product(range(n), repeat=3):
        orbit = {(a, b, c), (b, c, a), (c, a, b)}
        assert [t for t in orbit if (t[0] <= t[1] and t[0] < t[2]) or len(set(t)) == 1] \
            == [_least_rotation(a, b, c)]
    full, reduced = set(), set()
    rows = list(_full_jordan_kernel(_accumulating(full, n))(S.packed[1], S.parities,
                                                            FULL_JORDAN_IMAGES))
    monkeypatch.setattr(conformal, "add_product", _accumulating(reduced, n))
    list(conformal._jordan_rows(S.packed[1], S.parities, CONSISTENT))
    failing = {(a, comp // n ** 3, comp // n ** 2 % n) for a, row in enumerate(rows)
               for comp in (key >> poly._COMPONENT_SHIFT for key in row)}
    assert failing and all(t == _least_rotation(*t) for t in reduced)
    assert {_least_rotation(*t) for t in failing} <= reduced <= {_least_rotation(*t) for t in full}
    assert len(full) > 2 * len(reduced)


# the term products of the kernel per fixture: check_jordan_identity consistent
# and printed, and the co-Jordan of check_jordan_coalgebra on the dual (the
# full kernel made J_2 10,380 / 10,693 / 10,380, J_3 55,914 / 57,456 / 55,914,
# JS_1 342 / 355 / 342 and JCK_4 8,766 / 9,028 / 8,766; the rotation kernel,
# hoisting Q2 and the printed R2 besides R1, J_2 1,626 / 5,293 / 1,626)
REDUCED_JORDAN_PRODUCTS = {"J_2": (1330, 4633, 1330), "J_3": (7512, 25994, 7512),
                           "JS_1": (73, 170, 73), "JCK_4": (1118, 3900, 1118)}


def test_reduced_jordan_term_products(Jn, JS1, JCK4, monkeypatch):
    tables = {"J_2": Jn[2], "J_3": Jn[3], "JS_1": JS1, "JCK_4": JCK4}
    for name, products in REDUCED_JORDAN_PRODUCTS.items():
        S, cop = tables[name], dualize(tables[name])
        check_jordan_comm(S), check_jordan_coalgebra(cop)   # the flip residuals, cached
        assert (term_products(monkeypatch, check_jordan_identity, S)[0],
                term_products(monkeypatch, lambda S: check_jordan_identity(S, PRINTED), S)[0],
                term_products(monkeypatch, check_jordan_coalgebra, cop)[0]) == products, name


@pytest.mark.parametrize("n", [2, 3])
def test_repaired_jn_passes_through_both_kernels(n):
    """J_n with README defect 2 repaired satisfies Jordan commutativity, the
    consistent identity and, on its dual, co-Jordan: every row of the kernel
    and of the full kernel is zero, so a term written at a wrong rotation
    would show as a violation."""
    S = _repaired_Jn(n)
    assert check_jordan_comm(S).ok and check_jordan_identity(S).ok
    assert check_jordan_coalgebra(dualize(S)).ok
    assert not check_jordan_identity(families.make_Jn(n)).ok
    for T in (S, dualize(S)):
        table = T.packed[1]
        assert (list(conformal._jordan_rows(table, T.parities, CONSISTENT))
                == list(_full_jordan_rows(table, T.parities, FULL_JORDAN_IMAGES)) == [{}] * T.rank)


def test_r1_image_pairs_map_onto_q2_and_the_printed_r2():
    """R1's image pairs ((x2+x3, x4), (x1, x2+x3+x4)) read x2 and x3 only
    through x2+x3, and _R1_TO_Q2 and _R1_TO_PRINTED_R2 send each of the four
    image polynomials exactly onto the one in its place in q2's and in the
    printed r2's pairs."""
    r1 = [poly.pack_vector([(0, p)]) for pair in FULL_JORDAN_IMAGES["r1"] for p in pair]
    for rename, images in ((conformal._R1_TO_Q2, FULL_JORDAN_IMAGES["q2"]),
                           (conformal._R1_TO_PRINTED_R2, FULL_PRINTED_JORDAN_IMAGES["r2"])):
        assert [rename(p) for p in r1] == [poly.pack_vector([(0, q)])
                                           for pair in images for q in pair]


def assert_r1_renames_to_q2_and_the_printed_r2(S):
    """_hoisted at q2's image pairs and at the printed r2's equals R1,
    _hoisted at r1's, with every vector renamed by _R1_TO_Q2 or
    _R1_TO_PRINTED_R2: the same keys, each with the same compact vector."""
    vecs, slots = S.packed[1]
    hoisted = lambda pair: conformal._hoisted(vecs, sorted(slots), S.rank, *pair)
    r1 = hoisted(FULL_JORDAN_IMAGES["r1"])
    for rename, pair in ((conformal._R1_TO_Q2, FULL_JORDAN_IMAGES["q2"]),
                         (conformal._R1_TO_PRINTED_R2, FULL_PRINTED_JORDAN_IMAGES["r2"])):
        assert {key: rename(vec) for key, vec in r1.items()} == hoisted(pair), S.name


def test_r1_renames_to_q2_and_the_printed_r2(request):
    """On every Jordan fixture, J_4 and a corruption of J_2 (random tables
    with beta and Fraction coefficients are in test_properties)."""
    tables = [*_jordan_fixtures(request), families.make_Jn(4), _corrupt_J2()]
    for S in tables:
        assert_r1_renames_to_q2_and_the_printed_r2(S)


def test_hoisted_runs_once_per_jordan_check(Jn, JCK4, monkeypatch):
    """The consistent, printed and co-Jordan checks each contract one
    intermediate, R1, through _hoisted; Q2 and the printed R2 are R1 renamed."""
    made = count_calls(monkeypatch, conformal, "_hoisted")
    for check, arg in ((check_jordan_identity, Jn[2]), (check_jordan_identity, JCK4),
                       (partial(check_jordan_identity, variant=PRINTED), Jn[2]),
                       (partial(check_jordan_identity, variant=PRINTED), JCK4),
                       (check_jordan_coalgebra, dualize(Jn[3]))):
        made.clear()
        check(arg)
        assert len(made) == 1, arg.name


def test_violations_match_the_writer_oracle(Jn, JS1, JCK4, monkeypatch):
    """The checks write the very violations, where and residual, that the
    writers did when they wrote each row with vector_text on its own
    (helpers.record_oracle and co_record_oracle, swapped in for
    conformal._record and coalgebra._record): consistent and printed J_2 and
    J_3, printed JCK_4 and JS_1, co-Jordan of J_2 and J_3, skew and Jacobi on
    the skew-breaking corruption of K_3, which runs the full Jacobi kernel,
    and co-Lie of the CK_6 closed form, which fails co-Jacobi."""
    printed = partial(check_jordan_identity, variant=PRINTED)
    breaking = corrupt_entry(families.make_K(3), "xi1", "xi2", "xi12", MultiPoly.const(-1))
    cases = [(check_jordan_identity, Jn[2]), (check_jordan_identity, Jn[3]), (printed, Jn[2]),
             (printed, Jn[3]), (printed, JCK4), (printed, JS1), (check_skew, breaking),
             (check_jacobi, breaking), (check_jordan_coalgebra, dualize(Jn[2])),
             (check_jordan_coalgebra, dualize(Jn[3])), (check_lie_coalgebra, cf.coproduct_CK6())]
    for check, arg in cases:
        rep = check(arg)
        with monkeypatch.context() as m:
            m.setattr(conformal, "_record", conformal_record_oracle)
            m.setattr(coalgebra, "_record", co_record_oracle)
            expected = check(arg)
        assert rep.violations and rep.violations == expected.violations, (rep.check, arg.name)


# -- families ------------------------------------------------------------------


LIE_FAMILIES = {
    "Vir": families.make_vir,
    "Cur-sl2": families.make_cur_sl2,
    **{f"W_{n}": (lambda n=n: families.make_W(n)) for n in range(3)},
    "S_2": lambda: families.make_S(2),
    **{f"S_2b-{b}": (lambda b=b: families.make_S_b(2, s))
       for b, s in (("0", Scalar(0)), ("1", Scalar(1)), ("beta", Scalar(0, 1)))},
    "S~_2": lambda: families.make_S_tilde(2),
    **{f"K_{n}": (lambda n=n: families.make_K(n)) for n in range(5)},
    "K_4'": families.make_K4prime,
}


@pytest.mark.parametrize("name", sorted(LIE_FAMILIES))
def test_lie_kernels_match_oracle(name):
    S = LIE_FAMILIES[name]()
    assert S.rank <= 16
    assert_lie_kernels_match(S)


@pytest.mark.parametrize("name", ["J_2", "JS_1", "JCK_4"])
def test_jordan_kernels_match_oracle(name, Jn, JS1, JCK4):
    S = {"J_2": Jn[2], "JS_1": JS1, "JCK_4": JCK4}[name]
    assert_jordan_kernels_match(S)


def test_by_design_violation_counts(Jn, JS1, JCK4):
    assert len(check_jordan_identity(Jn[2]).violations) == 66
    assert len(check_jordan_identity(JCK4, variant=PRINTED).violations) == 182
    assert len(check_jordan_identity(JS1, variant=PRINTED).violations) == 8


# -- corruptions ---------------------------------------------------------------


def test_criterion_9_corruptions_match_oracle(vir, K, JS1):
    assert_lie_kernels_match(corrupt_entry(vir, "L", "L", "L", D + LAM))
    assert_lie_kernels_match(
        corrupt_entry(K[2], "xi1", "xi2", "xi12", MultiPoly.const(-1)))
    assert_jordan_kernels_match(corrupt_entry(JS1, "T", "T", "S", 2 * LAM))


def _random_coefficient(rng):
    p = MultiPoly.zero()
    for _ in range(rng.randrange(1, 4)):
        c = rng.choice((1, -1, 2, Scalar(1, 1), Scalar(0, -1)))
        p = p + MultiPoly.monomial({"lam": rng.randrange(3), "d": rng.randrange(3)}, c)
    return p


def _fractional_coefficient(rng):
    """A random coefficient with a Fraction on d^2, which no integral term cancels."""
    c = Fraction(rng.choice((1, -1, 3)), rng.choice((2, 3)))
    return MultiPoly.monomial({"lam": rng.randrange(2), "d": 2}, c) + _random_coefficient(rng)


def _seeded_corruption(S, seed, coefficient=_random_coefficient):
    """S with one entry replaced by a random coefficient on a parity-allowed target."""
    rng = random.Random(seed)
    i, j = rng.randrange(S.rank), rng.randrange(S.rank)
    parity = (S.parity(i) + S.parity(j)) & 1
    k = rng.choice([g for g in range(S.rank) if S.parity(g) == parity])
    ids = [g.id for g in S.generators]
    return corrupt_entry(S, ids[i], ids[j], ids[k], coefficient(rng))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["K_3", "W_1", "S_2b-beta"])
def test_seeded_corruptions_match_oracle(name, seed):
    bad = _seeded_corruption(LIE_FAMILIES[name](), seed)
    assert not check_jacobi(bad).ok
    assert_lie_kernels_match(bad)


@pytest.mark.parametrize("name", ["J_2", "JCK_4"])
def test_seeded_jordan_corruptions_match_per_tuple_oracle(name, Jn, JCK4):
    bad = _seeded_corruption({"J_2": Jn[2], "JCK_4": JCK4}[name], 0, _fractional_coefficient)
    for variant in (CONSISTENT, PRINTED):
        rep = check_jordan_identity(bad, variant=variant)
        expected = _jordan_per_tuple(bad, variant)
        assert (rep.total, _found(rep)) == expected, (name, variant)
        assert any("d^2" in residual and "/" in residual for _, residual in expected[1])


def test_seeded_jordan_corruption_matches_nested_brackets(Jn):
    bad = _seeded_corruption(Jn[2], 7, _fractional_coefficient)
    rep = check_jordan_identity(bad)
    expected = _oracle(bad, 4, lambda S_, *q: _jordan_residual(S_, *q, CONSISTENT))
    assert any("d^2" in residual and "/" in residual for _, residual in expected)
    assert (rep.total, _found(rep)) == (bad.rank ** 4, expected)


def test_seeded_jacobi_corruption_matches_per_tuple_oracle(CK6):
    bad = _seeded_corruption(CK6, 0, _fractional_coefficient)
    rep = check_jacobi(bad)
    assert (rep.total, _found(rep)) == _jacobi_per_tuple(bad)
    assert rep.violations


def _skew_corruption(S, left, right, out, q):
    """S with q a_out added to [a_left lam a_right] and its skew image
    -(-1)^{p(left)p(right)} q(-lam-d, d) a_out to [a_right lam a_left], so
    that S stays skew (left and right differ)."""
    i, j, k = S.index[left], S.index[right], S.index[out]
    mirror = q.subst_general("lam", -LAM - D).scalar_mul(-1 if S.parity(i) & S.parity(j) else 1)
    T = S.with_entry(i, j, S.entry(i, j) + ConformalElement({k: q}))
    return T.with_entry(j, i, T.entry(j, i) - ConformalElement({k: mirror}))


def _diagonal_corruption(S, gen, out, q):
    """S with q a_out added to [a_gen lam a_gen], which stays skew when
    q(-lam-d, d) = -(-1)^{p(gen)} q."""
    i = S.index[gen]
    return S.with_entry(i, i, S.entry(i, i) + ConformalElement({S.index[out]: q}))


def _full_and_reduced_rows(S):
    """The rows of the full Jacobi kernel of S, and the rows of the reduced
    kernel with every permutation of each residual written."""
    table = S.packed[1]
    full = list(conformal._jacobi_rows(table, S.parities, False))
    return full, list(conformal._jacobi_rows(table, S.parities, True))


def test_skew_corruption_matches_per_tuple_oracle(K, W, CK6):
    """Corruptions that keep a table skew fail Jacobi: on K_3 for two odd
    generators (xi1, xi2), an even and an odd one, and beta and Fraction
    coefficients, on W_2 and CK_6 for two odd generators and on the diagonal
    entry [d1 lam d1] of W_2.  The reduced kernel's rows, each residual of
    j <= i <= k written at the other permutations of its triple, are the
    full kernel's, and the Jacobi and co-Lie reports are the per-tuple and
    tensor-slot oracles'.  Each has violations on a triple with a repeated
    index, and all but two on triples of three distinct odd generators,
    whose permutations all carry Koszul signs."""
    for S, bad, three_odd in (
            (K[3], _skew_corruption(K[3], "xi1", "xi2", "xi12", LAM + 2 * D), True),
            (K[3], _skew_corruption(K[3], "1", "xi3", "xi3", LAM * D - P_ONE), False),
            (K[3], _skew_corruption(K[3], "xi2", "xi13", "xi123",
                                    BETA * LAM * LAM + D.scalar_mul(Fraction(1, 2))), True),
            (W[2], _skew_corruption(W[2], "xi1", "d2", "xi1d1", LAM + 2 * D), True),
            (W[2], _diagonal_corruption(W[2], "d1", "1", P_ONE), False),
            (CK6, _skew_corruption(CK6, "C1", "C123", "C23", LAM * LAM + D), True)):
        assert check_skew(bad).ok and bad.table != S.table
        full, reduced = _full_and_reduced_rows(bad)
        assert reduced == full
        rep = check_jacobi(bad)
        assert rep.violations
        assert (rep.total, _found(rep)) == _jacobi_per_tuple(bad)
        assert_co_kernels_match(dualize(bad))
        wheres = [v.where for v in rep.violations]
        odd = {g.id for g in bad.generators if g.parity}
        assert any(len(set(where)) < 3 for where in wheres)
        assert three_odd == any(len(set(where)) == 3 and set(where) <= odd for where in wheres)


def _jacobi_products(monkeypatch, S):
    """The number of term products check_jacobi(S) makes, with its report."""
    check_skew(S)   # the flip residual, cached before the count
    return term_products(monkeypatch, check_jacobi, S)


def _doubled(S):
    """S with [xi1 lam xi2] doubled: not skew, with the same terms at the same places."""
    i, j = S.index["xi1"], S.index["xi2"]
    return S.with_entry(i, j, S.entry(i, j).scale(MultiPoly.const(2)))


def test_jacobi_runs_half_the_pairs_on_skew_tables(K, monkeypatch):
    """On a skew table the Jacobi kernel accumulates one triple per S_3
    orbit, j <= i <= k, whether Jacobi holds or not.  A copy with one entry
    doubled is not skew but has the same terms at the same places, and there
    the kernel accumulates every triple (K_3 2,178, K_5 50,772 products), over
    four times as many products."""
    for n in (3, 5):
        bad = _skew_corruption(K[n], "xi1", "xi2", "xi12", LAM + 2 * D)
        for S, passes in ((K[n], True), (bad, False)):
            assert check_skew(S).ok and not check_skew(_doubled(S)).ok
            half, rep = _jacobi_products(monkeypatch, S)
            assert rep.ok == passes and rep.total == 8 ** n
            if not passes:
                assert (rep.total, _found(rep)) == _jacobi_per_tuple(S)
            full, rep = _jacobi_products(monkeypatch, _doubled(S))
            assert not rep.ok
            assert half < 0.35 * full, (n, half, full)


def test_co_jacobi_runs_half_the_pairs_on_antisymmetric_duals(K, monkeypatch):
    """check_lie_coalgebra runs the Jacobi kernel in slot variables, so the
    dual of a skew table, which is antisymmetric, gets the reduced kernel
    too, whether co-Jacobi holds or not: under 0.35 times the term products
    of the dual of the copy with one entry doubled.  The skew-keeping
    corruption's report, every permutation of each residual included, is the
    tensor-slot oracle's."""
    for n in (3, 5):
        bad = _skew_corruption(K[n], "xi1", "xi2", "xi12", LAM + 2 * D)
        for S, passes in ((K[n], True), (bad, False)):
            half, rep = term_products(monkeypatch, check_lie_coalgebra, dualize(S))
            assert rep.ok == passes and rep.total == 2 ** n
            if not passes:
                cop = dualize(S)
                assert (rep.total, _found(rep)) == _co_oracle(cop, _coalg_residuals)
                assert {where[1] for where, _ in _found(rep)} == {"co-jacobi"}
            full, rep = term_products(monkeypatch, check_lie_coalgebra, dualize(_doubled(S)))
            assert not rep.ok
            assert half < 0.35 * full, (n, half, full)


def test_reduced_jacobi_rows_match_the_full_kernel_on_every_lie_family(request):
    """On every Lie family of the fixtures the reduced and the full kernel
    leave the same rows: none, as each family satisfies Jacobi."""
    for S in _lie_fixtures(request):
        full, reduced = _full_and_reduced_rows(S)
        assert reduced == full == [{}] * S.rank, S.name


def _jacobi_representative(i, j, k):
    """The member j <= i <= k of the S_3 orbit of (i, j, k)."""
    x, y, z = sorted((i, j, k))
    return y, x, z


def _accumulating_jacobi(touched, n):
    """A packed add_product that adds to touched the triple (i, j, k) of each
    product the Jacobi kernel accumulates into a row: i the row index of the
    calling _jacobi_rows, j and k the top digits of the product's component."""
    def add_product(acc, p, q, negate=False):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "_jacobi_rows":
            i = frame.f_locals["i"]
            for k1 in p:
                for k2 in q:
                    comp = (k1 + k2) >> poly._COMPONENT_SHIFT
                    touched.add((i, comp // n ** 2, comp // n % n))
        return poly.add_product(acc, p, q, negate)

    return add_product


@pytest.mark.parametrize("name", ["K_4", "W_2"])
def test_representatives_meet_every_s3_orbit_once(name, K, W, monkeypatch):
    """The representatives j <= i <= k are one triple per S_3 orbit.  On a
    corruption of each table that keeps skew-symmetry, the reduced kernel's
    rows accumulate products at representatives only, at the representative
    of a triple at which the full kernel's rows do, and at that of every
    triple with a violation."""
    S = {"K_4": _skew_corruption(K[4], "xi1", "xi2", "xi12", LAM + 2 * D),
         "W_2": _skew_corruption(W[2], "xi1", "d2", "xi1d1", LAM + 2 * D)}[name]
    n = S.rank
    for t in itertools.product(range(n), repeat=3):
        orbit = set(itertools.permutations(t))
        assert [u for u in orbit if u[1] <= u[0] <= u[2]] == [_jacobi_representative(*t)]
    assert check_skew(S).ok
    full, reduced = set(), set()
    monkeypatch.setattr(conformal, "add_product", _accumulating_jacobi(full, n))
    rows = list(conformal._jacobi_rows(S.packed[1], S.parities, False))
    monkeypatch.setattr(conformal, "add_product", _accumulating_jacobi(reduced, n))
    list(conformal._jacobi_rows(S.packed[1], S.parities, True))
    failing = {(i, comp // n ** 2, comp // n % n) for i, row in enumerate(rows)
               for comp in (key >> poly._COMPONENT_SHIFT for key in row)}
    assert failing and all(t == _jacobi_representative(*t) for t in reduced)
    representatives = {_jacobi_representative(*t) for t in full}
    assert {_jacobi_representative(*t) for t in failing} <= reduced <= representatives
    assert len(full) > 3 * len(reduced)


def _composed(first, then):
    """The permutation of a triple's positions that applies first, then then."""
    return tuple(first[then[q]] for q in range(3))


def _image_sign(odd, par):
    return -1 if odd[par[0] + 2 * par[1] + 4 * par[2]] else 1


@pytest.mark.parametrize("group, order, width", [("_S3", 6, 1), ("_Z3", 3, 2)])
def test_image_tables(group, order, width):
    """The orbit writer's tables: _S3 and _Z3 hold the identity and are closed
    under composition, and each image's moves sends the slot exponents (1,
    2, 3) where its digit permutation says.  The sign of _S3 is the Koszul
    sign of check_jacobi and multiplicative under composition for every
    parity pattern; that of _Z3 is +1.  A term written at a triple of three
    distinct indices lands on order distinct triples, all in its orbit."""
    images = getattr(conformal, group)
    table = {perm: (moves, odd) for perm, moves, odd in images}
    assert len(images) == len(table) == order and (0, 1, 2) in table
    slots = lambda exps: sum(e << poly._VAR_SHIFT[x] for e, x in zip(exps, ("x1", "x2", "x3")))
    for perm, (moves, odd) in table.items():
        assert moves[slots((1, 2, 3))] == slots([p + 1 for p in perm]), perm
        assert group == "_S3" or not any(odd)
    for first, then in itertools.product(table, repeat=2):
        assert _composed(first, then) in table
        for par in itertools.product((0, 1), repeat=3):
            moved = [par[p] for p in first]
            assert (_image_sign(table[_composed(first, then)][1], par)
                    == _image_sign(table[first][1], par) * _image_sign(table[then][1], moved))
    if group == "_S3":
        for pi, pj, pk in itertools.product((0, 1), repeat=3):
            assert _image_sign(table[(1, 0, 2)][1], (pi, pj, pk)) == -(-1) ** (pi * pj)
            assert _image_sign(table[(1, 2, 0)][1], (pi, pj, pk)) == (-1) ** (pi * (pj + pk))
    n, rest, f = 3, 1, slots((1, 2, 3))
    rows = [{} for _ in range(n)]
    key = (((1 * n + 2) * n ** width + rest) << poly._COMPONENT_SHIFT) + f
    conformal._write_images({key: 5}, 0, n, width, [1, 1, 0], rows, images)
    landed = [(r, comp // n ** (width + 1), comp // n ** width % n, comp % n ** width, c)
              for r, row in enumerate(rows) for comp, c in
              ((k >> poly._COMPONENT_SHIFT, c) for k, c in row.items())]
    triples = {t[:3] for t in landed}
    assert len(landed) == len(triples) == order
    assert triples == {tuple(perm) for perm in table} <= set(itertools.permutations(range(3)))
    assert {t[3:] for t in landed} <= {(rest, 5), (rest, -5)}


# the term products of the reduced kernel: check_jacobi on the tables of the
# lie-jacobi benchmark, and the co-Jacobi of check_lie_coalgebra on the duals
# of coalgebra-crosscheck (the j >= i kernel made 1,990 / 5,518 / 13,364 /
# 1,340 and 17,280 / 26,304 / 29,382)
REDUCED_JACOBI_PRODUCTS = {"W_2": 736, "K_4": 2100, "S_3": 4686, "S_2b-beta": 522}
REDUCED_CO_JACOBI_PRODUCTS = {"W_3": 5958, "K_5": 9401, "CK_6": 10482}


def test_reduced_jacobi_term_products(W, K, S, S2b, CK6, monkeypatch):
    tables = {"W_2": W[2], "K_4": K[4], "S_3": S[3], "S_2b-beta": S2b["beta"], "W_3": W[3],
              "K_5": K[5], "CK_6": CK6}
    for name, products in REDUCED_JACOBI_PRODUCTS.items():
        assert _jacobi_products(monkeypatch, tables[name])[0] == products, name
    for name, products in REDUCED_CO_JACOBI_PRODUCTS.items():
        cop = dualize(tables[name])
        assert check_lie_coalgebra(cop).ok   # the flip residual, cached before the count
        assert term_products(monkeypatch, check_lie_coalgebra, cop)[0] == products, name


# add_product calls of the reduced Jacobi kernel, on the tables above: one per
# first-factor slot and nonempty column or row of each term, the parity of j
# splitting term 3's column; and of the Jordan kernel, consistent and printed
# (J_2 452 / 788, JS_1 25 / 49 and JCK_4 522 / 906 while it contracted Q2 and
# the printed R2 as well as R1)
REDUCED_JACOBI_CALLS = {"W_2": 208, "K_4": 410, "S_3": 620, "S_2b-beta": 104,
                        "W_3": 1116, "K_5": 1362, "CK_6": 1602}
JORDAN_CALLS = {"J_2": (276, 436), "JS_1": (17, 33), "JCK_4": (310, 482)}


def test_add_product_calls_of_the_reduced_kernels(W, K, S, S2b, CK6, Jn, JS1, JCK4, monkeypatch):
    """The reduced Jacobi kernel keeps term 3's window split by the parity of
    j, and the Jordan kernel drops a b c slot once its last entry leaves, so
    their add_product calls stay as they were: on the tables and duals of
    test_reduced_jacobi_term_products, and on the Jordan tables of the
    jordan-identity benchmark under both variants."""
    tables = {"W_2": W[2], "K_4": K[4], "S_3": S[3], "S_2b-beta": S2b["beta"], "W_3": W[3],
              "K_5": K[5], "CK_6": CK6}
    for name, calls in REDUCED_JACOBI_CALLS.items():
        if name in REDUCED_JACOBI_PRODUCTS:
            check, arg = check_jacobi, tables[name]
            check_skew(arg)
        else:
            check, arg = check_lie_coalgebra, dualize(tables[name])
            check(arg)
        _, made, rep = term_products(monkeypatch, check, arg, calls=True)
        assert rep.ok and made == calls, name
    for name, calls in JORDAN_CALLS.items():
        T = {"J_2": Jn[2], "JS_1": JS1, "JCK_4": JCK4}[name]
        assert tuple(term_products(monkeypatch, partial(check_jordan_identity, variant=variant),
                                   T, calls=True)[1]
                     for variant in (CONSISTENT, PRINTED)) == calls, name


def test_full_jacobi_term_3_makes_one_call_per_row_and_slot(K, monkeypatch):
    """Without skew-symmetry term 3's column is static and split by the
    parity of j, as the reduced kernel's is, so each (row, l) with a column
    makes one add_product call per part of it.  On the criterion-9
    corruption of K_4 there are 183 such (row, l), whose columns hold 366
    parts by the parity of j: check_jacobi makes 1 + 183 + 183 + 366 = 733
    calls, the first the flip residual's.  The term products, 10,427, and
    the report, the per-tuple oracle's, are those of the two signed copies
    the full kernel kept before; the co-Lie check of the dual makes the
    same calls."""
    bad = corrupt_entry(K[4], "xi1", "xi2", "xi12", MultiPoly.const(-1))
    slots = bad.packed[1][1]
    parities = {}   # l -> the parities of the j with an entry (j, l)
    for j, l, m, e in slots:
        parities.setdefault(l, set()).add(bad.parities[j])
    term3 = {(i, k) for i, j, k, e in slots if k in parities}   # (row, l) with a column
    assert (len(term3), sum(len(parities[k]) for _, k in term3)) == (183, 366)
    products, calls, rep = term_products(monkeypatch, check_jacobi, bad, calls=True)
    assert (products, calls, len(rep.violations)) == (10427, 1 + 183 + 183 + 366, 49)
    assert (rep.total, _found(rep)) == _jacobi_per_tuple(bad)
    products, calls, rep = term_products(monkeypatch, check_lie_coalgebra, dualize(bad), calls=True)
    assert (products, calls) == (10427, 733) and not rep.ok


def test_tables_are_not_cached_across_copies(K):
    bad = corrupt_entry(K[2], "xi1", "xi2", "xi12", MultiPoly.const(-1))
    assert check_jacobi(K[2]).ok
    assert not check_jacobi(bad).ok
    assert check_jacobi(K[2]).ok
    # nor is the flip residual: the copy fails skew, its parent still passes
    assert check_skew(K[2]).ok
    assert not check_skew(bad).ok
    assert check_skew(K[2]).ok
    # two constructor calls share no table state: negating every coefficient
    # of one, each entry polynomial once, in place, leaves the other as it was built
    for make in (families.make_CK6, lambda: families.make_S(3)):
        one, two = make(), make()
        assert one.table == two.table
        built = repr(sorted(two.table.items()))
        for p in {id(p): p for entries in one.table.values() for _, p in entries}.values():
            for key, c in p.terms.items():
                p.terms[key] = -c
        assert one.table != two.table
        assert repr(sorted(two.table.items())) == built
    # the ambient and the restricted tables share polynomials between their
    # entries, never between calls
    for make in (lambda: families.make_W(3), lambda: families.make_K(3),
                 lambda: families.make_Jn(3), lambda: families.make_S(3),
                 lambda: families.make_S_b(2, Scalar(0, 1)), lambda: families.make_S_tilde(2),
                 families.make_K4prime, families.make_CK6):
        one, two = make(), make()
        polys = [{id(p) for row in S.table.values() for _, p in row} for S in (one, two)]
        assert len(polys[0]) < sum(map(len, one.table.values())), one.name
        assert not polys[0] & polys[1], one.name


def test_benchmark_tables_hold_each_entry_value_once():
    """Every table of the benchmark holds each distinct entry value as one
    polynomial object, shared by every entry that has it."""
    wl = _bench_workloads()
    lib = SimpleNamespace(poly=poly, families=families)
    for name in wl.FAMILIES:
        S = wl.build_table(lib, name)
        polys = [p for row in S.table.values() for _, p in row]
        assert len({id(p) for p in polys}) == len(set(polys)), name


# -- constructors ----------------------------------------------------------------
#
# The constructors build W_n, K_n and J_n on plain subset masks, and the
# restricted families take their brackets from conformal.bracket_pairs.  The
# oracles are the definitional constructions: W_n, K_n and J_n summed term
# by term through the IndexSet layer (IndexSet, mul and derive), with their
# own generator names and order, and the restriction one bracket call per
# ordered pair.


def _sgn(e: int) -> int:
    return -1 if e & 1 else 1


def _digits(members: Tuple[int, ...]) -> str:
    return "".join(str(i) for i in members)


def _masks(n: int) -> List[int]:
    """All subset masks of {1..n}, graded then lexicographic on members."""
    key = lambda m: (bin(m).count("1"), IndexSet.from_mask(n, m).members)  # noqa: E731
    return sorted(range(1 << n), key=key)


def _xi_name(n: int, mask: int) -> str:
    if mask == 0:
        return "1"
    return "xi" + _digits(IndexSet.from_mask(n, mask).members)


def _xi_latex(n: int, mask: int) -> str:
    if mask == 0:
        return "1"
    return r"\xi_{" + _digits(IndexSet.from_mask(n, mask).members) + "}"


def _make_K_oracle(n, flip=None):
    """K_n term by term; flip = (I, J) negates the derivative terms of that pair."""
    masks = _masks(n)
    gens = [Generator(_xi_name(n, m), bin(m).count("1") & 1,
                      _xi_latex(n, m)) for m in masks]
    lam_idx = {m: i for i, m in enumerate(masks)}
    table = {}
    for I in masks:
        dI = bin(I).count("1")
        for J in masks:
            dJ = bin(J).count("1")
            acc = {}
            m = mul(IndexSet.from_mask(n, I), IndexSet.from_mask(n, J))
            if m is not None:
                p = (D * (dI - 2) + LAM * (dI + dJ - 4)) * m.sign
                if not p.is_zero():
                    acc[lam_idx[m.idxset.mask]] = p
            for i in range(1, n + 1):
                da = derive(i, IndexSet.from_mask(n, I))
                db = derive(i, IndexSet.from_mask(n, J))
                if da is None or db is None:
                    continue
                mm = mul(da.idxset, db.idxset)
                if mm is None:
                    continue
                k = lam_idx[mm.idxset.mask]
                sign = (-1) ** dI * da.sign * db.sign * mm.sign
                c = MultiPoly.const(-sign if flip == (I, J) else sign)
                s = acc[k] + c if k in acc else c
                if s.is_zero():
                    acc.pop(k, None)
                else:
                    acc[k] = s
            table[(lam_idx[I], lam_idx[J])] = sorted(acc.items())
    return LambdaStructure(LIE, gens, table, name=f"K_{n}", meta={"n": n, "lam_idx": lam_idx})


def _make_W_oracle(n: int) -> LambdaStructure:
    """W_n = C[d] (x) (W(n) + Lambda(n)), rank (n+1) 2^n.

    Generators: xi_I (parity |I|) and xi_I d_i (parity |I|+1); brackets are
    the four shapes obtained from [a lam f] = a(f) - (-1)^{p(a)p(f)} lam f a
    and [f lam g] = -(d + 2 lam) f g, spelled out on the monomial basis.
    """
    if n < 0:
        raise StructureError("W_n needs n >= 0")
    masks = _masks(n)
    gens: List[Generator] = []
    lam_idx: Dict[int, int] = {}
    w_idx: Dict[Tuple[int, int], int] = {}
    for m in masks:
        lam_idx[m] = len(gens)
        gens.append(Generator(_xi_name(n, m), bin(m).count("1") & 1, _xi_latex(n, m)))
    for m in masks:
        for i in range(1, n + 1):
            w_idx[(m, i)] = len(gens)
            nm = ("" if m == 0 else "xi" + _digits(IndexSet.from_mask(n, m).members)) + f"d{i}"
            lx = (_xi_latex(n, m) if m else "") + r"\partial_{" + str(i) + "}"
            gens.append(Generator(nm, (bin(m).count("1") + 1) & 1, lx))

    def iset(m):
        return IndexSet.from_mask(n, m)

    table: Dict[Tuple[int, int], List[Tuple[int, MultiPoly]]] = {}

    def put(i, j, k, p):
        if not p.is_zero():
            table.setdefault((i, j), []).append((k, p))

    minus_d_2lam = -(D + 2 * LAM)
    for I in masks:
        dI = bin(I).count("1")
        for J in masks:
            dJ = bin(J).count("1")
            # [xi_I lam xi_J]
            m = mul(iset(I), iset(J))
            if m is not None:
                put(lam_idx[I], lam_idx[J], lam_idx[m.idxset.mask],
                    minus_d_2lam * m.sign)
            # [xi_I d_i lam xi_J] and [xi_I lam xi_J d_j]
            for i in range(1, n + 1):
                # xi_I d_i (xi_J) part
                dv = derive(i, iset(J))
                if dv is not None:
                    m2 = mul(iset(I), dv.idxset)
                    if m2 is not None:
                        put(w_idx[(I, i)], lam_idx[J],
                            lam_idx[m2.idxset.mask],
                            MultiPoly.const(dv.sign * m2.sign))
                # -lam (-1)^{(|I|+1)|J|} xi_J xi_I d_i part
                m3 = mul(iset(J), iset(I))
                if m3 is not None:
                    sg = _sgn((dI + 1) * dJ) * m3.sign
                    put(w_idx[(I, i)], lam_idx[J],
                        w_idx[(m3.idxset.mask, i)], -LAM * sg)
                # [xi_J lam xi_I d_i] = -(-1)^{|J|(|I|+1)} xi_I d_i(xi_J)
                #                       - (lam+d) xi_J xi_I d_i
                if dv is not None:
                    m2 = mul(iset(I), dv.idxset)
                    if m2 is not None:
                        sg = -_sgn(dJ * (dI + 1)) * dv.sign * m2.sign
                        put(lam_idx[J], w_idx[(I, i)],
                            lam_idx[m2.idxset.mask], MultiPoly.const(sg))
                if m3 is not None:
                    put(lam_idx[J], w_idx[(I, i)],
                        w_idx[(m3.idxset.mask, i)],
                        -(LAM + D) * m3.sign)
                # [xi_I d_i lam xi_J d_j]
                for j in range(1, n + 1):
                    if dv is not None:
                        m2 = mul(iset(I), dv.idxset)
                        if m2 is not None:
                            put(w_idx[(I, i)], w_idx[(J, j)],
                                w_idx[(m2.idxset.mask, j)],
                                MultiPoly.const(dv.sign * m2.sign))
                    dw = derive(j, iset(I))
                    if dw is not None:
                        m4 = mul(iset(J), dw.idxset)
                        if m4 is not None:
                            sg = -_sgn((dI + 1) * (dJ + 1)) * dw.sign * m4.sign
                            put(w_idx[(I, i)], w_idx[(J, j)],
                                w_idx[(m4.idxset.mask, i)],
                                MultiPoly.const(sg))
    S = LambdaStructure(
        LIE,
        gens,
        table,
        name=f"W_{n}",
        meta={"n": n, "lam_idx": lam_idx, "w_idx": w_idx},
    )
    return S


def _make_Jn_oracle(n: int) -> LambdaStructure:
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
    masks = _masks(n)
    gens: List[Generator] = []
    ev_idx: Dict[int, int] = {}
    th_idx: Dict[int, int] = {}
    for m in masks:
        ev_idx[m] = len(gens)
        gens.append(Generator(_xi_name(n, m), bin(m).count("1") & 1, _xi_latex(n, m)))
    for m in masks:
        th_idx[m] = len(gens)
        nm = ("th" if m == 0 else "xi" + _digits(IndexSet.from_mask(n, m).members) + "th")
        lx = (_xi_latex(n, m) if m else "") + r"\theta"
        gens.append(Generator(nm, (bin(m).count("1") + 1) & 1, lx))

    def deriv_pairs():
        for i in range(1, max(n - 1, 0)):
            yield i, i
        if n >= 2:
            yield n, n - 1
            yield n - 1, n

    table: Dict[Tuple[int, int], List[Tuple[int, MultiPoly]]] = {}
    for I in masks:
        dI = bin(I).count("1")
        for J in masks:
            dJ = bin(J).count("1")
            m = mul(IndexSet.from_mask(n, I), IndexSet.from_mask(n, J))
            if m is not None:
                k = m.idxset.mask
                table[(ev_idx[I], ev_idx[J])] = [(ev_idx[k], MultiPoly.const(m.sign))]
                table[(ev_idx[I], th_idx[J])] = [(th_idx[k], MultiPoly.const(m.sign))]
                table[(th_idx[I], ev_idx[J])] = [
                    (th_idx[k], MultiPoly.const(_sgn(dJ) * m.sign))
                ]
            acc: Dict[int, MultiPoly] = {}
            if m is not None:
                k = m.idxset.mask
                p = (LAM * (dI + dJ - 4) + D * (dI - 2)) * (_sgn(dJ) * m.sign)
                if not p.is_zero():
                    acc[ev_idx[k]] = p
            for i, j in deriv_pairs():
                da = derive(i, IndexSet.from_mask(n, I))
                db = derive(j, IndexSet.from_mask(n, J))
                if da is None or db is None:
                    continue
                mm = mul(da.idxset, db.idxset)
                if mm is None:
                    continue
                kk = ev_idx[mm.idxset.mask]
                c = MultiPoly.const(
                    _sgn(dJ + dI) * da.sign * db.sign * mm.sign
                )
                prev = acc.get(kk)
                s = c if prev is None else prev + c
                if s.is_zero():
                    acc.pop(kk, None)
                else:
                    acc[kk] = s
            table[(th_idx[I], th_idx[J])] = sorted(acc.items())
    return LambdaStructure(
        JORDAN, gens, table, name=f"J_{n}",
        meta={"n": n, "ev_idx": ev_idx, "th_idx": th_idx},
    )



def _bracket_loop(S, xs):
    for a, x in enumerate(xs):
        for b, y in enumerate(xs):
            yield (a, b), bracket(S, x, y, "lam")


CONSTRUCTORS = {
    **{f"W_{n}": (lambda n=n: families.make_W(n)) for n in range(6)},
    **{f"K_{n}": (lambda n=n: families.make_K(n)) for n in range(7)},
    **{f"J_{n}": (lambda n=n: families.make_Jn(n)) for n in range(5)},
    "K_4'": families.make_K4prime,
    "CK_6": families.make_CK6,
    "S_2": lambda: families.make_S(2),
    "S_3": lambda: families.make_S(3),
    **{f"S_2b-{b}": (lambda s=s: families.make_S_b(2, s))
       for b, s in (("0", Scalar(0)), ("1", Scalar(1)), ("beta", Scalar(0, 1)))},
    "S~_2": lambda: families.make_S_tilde(2),
}


# the comparisons with the tabulated brackets, of the families the paper prints
COMPARISONS = {"CK_6": printed.verify_ck6_printed, "S_2": printed.proposition_diffs,
               "S_3": printed.proposition_diffs}


def _built(S):
    """Everything a constructor decides: generators, table and index maps, and
    the diff list of its comparison with the tabulated brackets."""
    compare = COMPARISONS.get(S.name)
    return (S.generators, S.table,
            *(S.meta.get(key) for key in ("lam_idx", "w_idx", "ev_idx", "th_idx")),
            compare(S) if compare else None)


def _by_oracle(monkeypatch, make, make_K=_make_K_oracle, restrict=_bracket_loop):
    """make() with the oracle constructors and the pairs of restrict, packed
    into the rows bracket_pairs yields (helpers.packed_rows)."""
    with monkeypatch.context() as m:
        for module, name, oracle in ((families_w, "make_W", _make_W_oracle),
                                     (families_contact, "make_K", make_K),
                                     (families_jordan, "make_Jn", _make_Jn_oracle)):
            m.setattr(families, name, oracle)       # the constructor the case calls
            m.setattr(module, name, oracle)         # and the one its restriction calls
        m.setattr(restricted, "bracket_pairs", lambda S, xs: packed_rows(restrict(S, xs), S.rank))
        return make()


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_constructors_match_oracle(name, monkeypatch):
    make = CONSTRUCTORS[name]
    assert _built(make()) == _built(_by_oracle(monkeypatch, make))


def test_constructor_oracle_bites(monkeypatch):
    """One seeded sign flip in the oracles shows up in the comparison."""
    rng = random.Random(5)
    K3 = families.make_K(3)
    overlaps = [(I, J) for I in range(8) for J in range(8) if bin(I & J).count("1") == 1]
    I, J = rng.choice(overlaps)
    flipped = _make_K_oracle(3, flip=(I, J))
    lam_idx = K3.meta["lam_idx"]
    assert [key for key in K3.table if K3.table[key] != flipped.table[key]] == [
        (lam_idx[I], lam_idx[J])]

    CK6 = families.make_CK6()
    a, b = rng.randrange(CK6.rank), rng.randrange(CK6.rank)

    def one_pair_flipped(S, xs):
        for key, w in _bracket_loop(S, xs):
            yield key, -w if key == (a, b) else w

    wrong = _by_oracle(monkeypatch, families.make_CK6, restrict=one_pair_flipped)
    assert [key for key in CK6.table if CK6.table[key] != wrong.table[key]] == [(a, b)]


def test_bracket_pairs_match_bracket_and_refuse_lam(K):
    xs = [ConformalElement.gen(g).scale(D + MultiPoly.const(g)) for g in range(K[2].rank)]
    assert list(element_pairs(K[2], xs)) == list(_bracket_loop(K[2], xs))
    with pytest.raises(StructureError, match="already uses lam"):
        list(bracket_pairs(K[1], [ConformalElement({0: LAM})]))


# -- coordinate readers ------------------------------------------------------------
#
# The bespoke CK_6 and S_n coordinate functions as they stood before each
# table worked out its reader once, and make_S's comparison with the
# tabulated formulas as it ran eagerly on every build: the CK_6 coordinates
# re-embedded and summed as ConformalElements, the S_n maps rebuilt on every
# call.  span_reader is checked against them.


def _canonicalize_CK6_oracle(x, K6):
    lam_idx = K6.meta["lam_idx"]
    rev = {g: m for m, g in lam_idx.items()}
    coords = {}
    expect = ConformalElement()
    for g, p in x.terms.items():
        t = members(rev[g])
        if not t:
            c = p.scalar_mul(-2)
        elif len(t) <= 2 or (len(t) == 3 and t[0] == 1):
            c = p
        else:
            continue
        if not c.is_zero():
            coords[bases._ck6_name(t)] = c
            expect = expect + restricted.ck6_embed(t, K6).scale(c)
    if not (x - expect).is_zero():
        raise restricted.NotInSpan("element outside the CK_6 span")
    return coords


def _canonicalize_S_oracle(x, W):
    n = W.meta["n"]
    lam_idx = W.meta["lam_idx"]
    w_idx = W.meta["w_idx"]
    rev = {g: (m, i) for (m, i), g in w_idx.items()}
    coords = {}
    work = dict(x.terms)

    for m, g in lam_idx.items():
        p = work.pop(g, None)
        if p is None:
            continue
        deg = m.bit_count()
        if deg == n:
            raise restricted.NotInSpan("component on the top Lambda monomial")
        cb = p.scalar_mul(Fraction(1, deg - n))
        coords[bases.SnBasisElement("B", m).name()] = cb
        for i in members(~m & ((1 << n) - 1)):
            gidx = w_idx[(m | (1 << (i - 1)), i)]
            accumulate(work, gidx, -(cb * (D * mul_sign(m, 1 << (i - 1)))))

    for g in list(work):
        mask, i = rev[g]
        if not (mask >> (i - 1)) & 1:
            coords[bases.SnBasisElement("A", mask, i).name()] = work.pop(g)

    by_I = {}
    for g, p in work.items():
        mask, i = rev[g]
        I = mask & ~(1 << (i - 1))
        by_I.setdefault(I, {})[i] = p * (-1 if alpha_mask(I, 1 << (i - 1)) & 1 else 1)
    for I, comps in by_I.items():
        comp = members(~I & ((1 << n) - 1))
        total = MultiPoly.zero()
        for a in comp:
            total = total + comps.get(a, MultiPoly.zero())
        if not total.is_zero():
            raise restricted.NotInSpan(f"nonzero divergence defect on I={I:b}")
        partial = MultiPoly.zero()
        for a, b in zip(comp, comp[1:]):
            partial = partial + comps.get(a, MultiPoly.zero())
            if not partial.is_zero():
                coords[bases.SnBasisElement("A2", I, a, b).name()] = partial
    return coords


def _proposition_diffs_oracle(n):
    W = families.make_W(n)
    basis = bases.sn_basis(n)
    names = [b.name() for b in basis]
    embeds = [restricted.embed_sn(b, W) for b in basis]
    prop_coords = {}
    for a, u in enumerate(basis):
        for b, v in enumerate(basis):
            if (u.tag, v.tag) in printed._PRINTED_ORDERS:
                prop_coords[(a, b)] = printed._prop_entry(n, u, v)
    for a, u in enumerate(basis):
        for b, v in enumerate(basis):
            if (a, b) in prop_coords:
                continue
            mirror = prop_coords[(b, a)]
            sg = -1 if basis[a].parity() * basis[b].parity() & 1 else 1
            prop_coords[(a, b)] = {nm: p.subst_general("lam", -LAM - D) * -sg
                                   for nm, p in mirror.items()}
    diffs = []
    for (a, b), w in element_pairs(W, embeds):
        coords = _canonicalize_S_oracle(w, W)
        tabulated = prop_coords[(a, b)]
        for nm in sorted(set(coords) | set(tabulated)):
            pa = coords.get(nm, MultiPoly.zero())
            pb = tabulated.get(nm, MultiPoly.zero())
            if pa != pb:
                diffs.append(f"[{names[a]} lam {names[b]}] @ {nm}: W-path {pa!r}"
                             f" vs formula {pb!r}")
    return diffs


def _named_reader(S):
    """span_reader over the embedded basis of S, with basis indices mapped to
    the generator names of S, as the oracles name them."""
    ambient = S.meta["K6"] if "K6" in S.meta else S.meta["W"]
    read = element_reader(ambient, S.meta["embeds"])
    return lambda x: {S.generators[j].id: p for j, p in read(x).items()}


def _reading(read, x):
    """The coordinates of x, or "NotInSpan"."""
    try:
        return read(x)
    except restricted.NotInSpan:
        return "NotInSpan"


# every bracket of each table, and seeded corruptions of them, go through one
# reader per table and through the oracle


def test_ck6_coordinates_match_oracle(CK6):
    K6 = CK6.meta["K6"]
    read = _named_reader(CK6)
    for _, w in element_pairs(K6, CK6.meta["embeds"]):
        assert read(w) == _canonicalize_CK6_oracle(w, K6)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_s_coordinates_match_oracle(n, S):
    built = S[n] if n in S else families.make_S(n)
    W = built.meta["W"]
    read = _named_reader(built)
    for _, w in element_pairs(W, built.meta["embeds"]):
        assert read(w) == _canonicalize_S_oracle(w, W)


@pytest.mark.parametrize("seed", range(4))
def test_ck6_corruptions_refused_like_oracle(CK6, seed):
    """A perturbed Hodge partner, a dropped partner and a stray component are
    each refused, as the oracle refuses them, on brackets drawn by the seed."""
    rng = random.Random(seed)
    K6 = CK6.meta["K6"]
    lam_idx = K6.meta["lam_idx"]
    star = (1 << 6) - 1
    read = _named_reader(CK6)
    oracle = lambda x: _canonicalize_CK6_oracle(x, K6)  # noqa: E731
    brackets = [w for _, w in element_pairs(K6, CK6.meta["embeds"]) if w.terms]
    # leading monomial -> Hodge partner, for the CK_6 basis elements
    partner = {}
    for t in bases._ck6_basis_tuples():
        m = sum(1 << (i - 1) for i in t)
        partner[lam_idx[m]] = lam_idx[star ^ m]
    for _ in range(5):
        w = rng.choice(brackets)
        terms = dict(w.terms)
        lead = rng.choice([g for g in terms if g in partner])
        h = partner[lead]
        bump = rng.choice((P_ONE, D, MultiPoly.const(Scalar(0, 1)), LAM * 2))
        absent = [g for g in partner if g not in terms]
        corrupted = [
            ConformalElement({**terms, h: terms[h] + bump}),
            ConformalElement({g: p for g, p in terms.items() if g != h}),
            ConformalElement({**terms, partner[rng.choice(absent)]: bump}),
        ]
        for x in corrupted:
            assert _reading(read, x) == _reading(oracle, x) == "NotInSpan"
        assert read(w) == oracle(w)


@pytest.mark.parametrize("seed", range(4))
def test_s_corruptions_read_like_oracle(S, seed):
    """One component added to a bracket of S_3: the same coordinates as the
    oracle, or NotInSpan exactly when the oracle raises it."""
    rng = random.Random(seed)
    W = S[3].meta["W"]
    read = _named_reader(S[3])
    oracle = lambda x: _canonicalize_S_oracle(x, W)  # noqa: E731
    brackets = [w for _, w in element_pairs(W, S[3].meta["embeds"]) if w.terms]
    refused = 0
    for _ in range(20):
        w = rng.choice(brackets)
        g = rng.randrange(W.rank)
        bump = rng.choice((P_ONE, D, MultiPoly.const(Scalar(1, 2)), LAM))
        x = w + ConformalElement({g: bump})
        got = _reading(read, x)
        assert got == _reading(oracle, x)
        refused += got == "NotInSpan"
    assert refused


@pytest.mark.parametrize("n", [2, 3, 4])
def test_proposition_diffs_match_eager_oracle(n, S):
    want = _proposition_diffs_oracle(n)
    built = S[n] if n in S else families.make_S(n)
    assert printed.proposition_diffs(built) == want



def _span_reader_oracle(ambient, embeds):
    """span_reader as it stood on MultiPolys, before it read packed vectors:
    the same pivot order, then forward substitution on {generator:
    MultiPoly} with exact_div for a non-constant pivot, the scalar inverse
    for a constant one and accumulate for the rest of each element."""
    touching = {}
    for j, e in enumerate(embeds):
        for r in e.terms:
            touching.setdefault(r, set()).add(j)
    heap = []

    def offer(rows):
        for r in rows:
            if len(touching[r]) == 1:
                j, = touching[r]
                heapq.heappush(heap, (embeds[j].terms[r].degree_in("d"), r))

    offer(touching)
    plan = []
    while heap:
        _, r = heapq.heappop(heap)
        if len(touching[r]) != 1:
            continue
        j = touching[r].pop()
        rest = dict(embeds[j].terms)
        pivot = rest.pop(r)
        inv = divisor = None
        if list(pivot.terms) != [0]:
            divisor = pivot
        elif pivot != P_ONE:
            inv = pivot.terms[0].inverse()
        plan.append((r, j, inv, divisor, [(g, -q) for g, q in rest.items()]))
        for g in rest:
            touching[g].discard(j)
        offer(rest)
    if len(plan) != len(embeds):
        raise StructureError(f"{ambient.name}: the embedded basis has no pivot order")

    def outside(g):
        return restricted.NotInSpan(f"component on {ambient.generators[g].id} is outside the span")

    position = {r: k for k, (r, *_) in enumerate(plan)}
    end = len(plan)

    def read(x):
        work = dict(x.terms)
        coords = {}
        while work:
            k = min(position.get(g, end) for g in work)
            if k == end:
                raise outside(min(work))
            r, j, inv, divisor, rest = plan[k]
            p = work.pop(r)
            if divisor is not None:
                try:
                    p = exact_div(p, divisor)
                except ValueError:
                    raise outside(r) from None
            elif inv is not None:
                p = p.scalar_mul(inv)
            coords[j] = p
            for g, q in rest:
                accumulate(work, g, p * q)
        return coords

    return read


def _outcome(read, x):
    """read(x), or the class name and message of the StructureError it raises."""
    try:
        return read(x)
    except StructureError as e:
        return type(e).__name__, str(e)


RESTRICTED = ("S_3", "S~_2", "S_2b-beta", "K_4'", "CK_6")


def _restricted(name, S, Stilde2, S2b, K4p, CK6):
    """(ambient, embeds) of a restricted family."""
    T, ambient = {"S_3": (S[3], "W"), "S~_2": (Stilde2, "W"), "S_2b-beta": (S2b["beta"], "W"),
                  "K_4'": (K4p, "K4"), "CK_6": (CK6, "K6")}[name]
    return T.meta[ambient], T.meta["embeds"]


@pytest.mark.parametrize("name", RESTRICTED)
def test_packed_reader_matches_multipoly_oracle(name, S, Stilde2, S2b, K4p, CK6):
    """On every bracket of a restricted family, and on each nonzero one with
    one ambient component added, span_reader gives the coordinates of the
    MultiPoly forward substitution, or raises NotInSpan with its message."""
    ambient, embeds = _restricted(name, S, Stilde2, S2b, K4p, CK6)
    read, oracle = element_reader(ambient, embeds), _span_reader_oracle(ambient, embeds)
    rng = random.Random(name)
    refused = 0
    for _, w in element_pairs(ambient, embeds):
        assert read(w) == oracle(w)
        if w.terms:
            bump = rng.choice((P_ONE, D, MultiPoly.const(Scalar(1, 2)), LAM, D * D))
            x = w + ConformalElement({rng.randrange(ambient.rank): bump})
            got = _outcome(read, x)
            assert got == _outcome(oracle, x)
            refused += isinstance(got, tuple)
    assert refused


def test_packed_reader_refuses_like_multipoly_oracle(S, K4p, CK6):
    """The NotInSpan cases of the span_reader tests, and K_4''s pivot d on
    xi_star, which divides d q and refuses d q plus a constant, give the
    oracle's coordinates or its NotInSpan message."""
    W2, K4, K6 = S[2].meta["W"], K4p.meta["K4"], CK6.meta["K6"]
    star, top = K4.index["xi1234"], K6.index["xi123456"]
    cases = [(W2, S[2].meta["embeds"], [ConformalElement.gen(W2.index[g])
                                        for g in ("xi12", "xi1d1", "xi12d1")]),
             (K6, CK6.meta["embeds"], [ConformalElement.gen(K6.index["1"]), ConformalElement(
                 {K6.index["1"]: P_ONE, top: MultiPoly.monomial({"d": 3}, Scalar(0, -1))})]),
             (K4, K4p.meta["embeds"], [ConformalElement({star: q}) for q in (
                 D, D * D * 3 - LAM * D, D + MultiPoly.const(Scalar(1, 2)), LAM, MultiPoly.const(2))])]
    outcomes = []
    for ambient, embeds, elements in cases:
        read, oracle = element_reader(ambient, embeds), _span_reader_oracle(ambient, embeds)
        for x in elements:
            outcomes.append(_outcome(read, x))
            assert outcomes[-1] == _outcome(oracle, x)
    assert [o if isinstance(o, tuple) else "read" for o in outcomes] == [
        ("NotInSpan", f"component on {g} is outside the span") for g in ("xi12", "xi2d2", "xi12d1")
    ] + [("NotInSpan", "component on xi123456 is outside the span"), "read", "read", "read"] + [
        ("NotInSpan", "component on xi1234 is outside the span")] * 3


# -- kernel of a module map --------------------------------------------------------
#
# kernel_basis as it stood with its own copy of the column elimination, before
# S_{n,b} shared it: every row of the target in turn, the tracker updated in
# step with the matrix.


def _deg_d(p: MultiPoly) -> int:
    return p.degree_in("d")


def _kernel_basis_oracle(M: ModuleMap) -> List[Dict[int, MultiPoly]]:
    nrows = len(M.target)
    ncols = len(M.source)
    cols = []
    for j in range(ncols):
        col = {}
        for i in range(nrows):
            p = M.entries.get((i, j))
            if p is not None:
                col[i] = p
        cols.append(col)
    track = [{j: P_ONE} for j in range(ncols)]

    def combine(dst, src, q):
        """dst -= q*src, on both the matrix column and its tracker."""
        for store in (cols, track):
            d_, s_ = store[dst], store[src]
            for r, p in s_.items():
                add = q * p
                prev = d_.get(r)
                s = -add if prev is None else prev - add
                if s.is_zero():
                    d_.pop(r, None)
                else:
                    d_[r] = s

    active = list(range(ncols))
    for row in range(nrows):
        live = [j for j in active if row in cols[j]]
        while len(live) > 1:
            live.sort(key=lambda j: _deg_d(cols[j][row]))
            pivot, other = live[0], live[1]
            q, _ = _divmod_d(cols[other][row], cols[pivot][row])
            combine(other, pivot, q)
            live = [j for j in active if row in cols[j]]
        if live:
            active.remove(live[0])

    basis = []
    for j in range(ncols):
        if j in active and not cols[j]:
            coords = _normalise_content(track[j])
            basis.append(coords)
    return basis


# -- coalgebra oracles -----------------------------------------------------------

def _coalg_residuals(cop, k):
    """tau(delta a) + delta a and the co-Jacobi residual, slot by slot."""
    d1 = apply_delta_slot(TensorElement.seed(k, cop), cop, 1)
    anti = tau(d1, 1) + d1
    a = apply_delta_slot(d1, cop, 2)          # (I x delta) delta
    b = tau(a, 1)                              # (tau x I)(I x delta) delta
    c = apply_delta_slot(d1, cop, 1)           # (delta x I) delta
    return [("antisymmetry", anti), ("co-jacobi", a - b - c)]


def _cyclic_sum(t):
    z = zeta(t)
    return t + z + zeta(z)


def _cojordan_residuals(cop, k):
    """tau Delta - Delta and (1+zeta+zeta^2)((Delta x Delta) Delta - (I x Delta x I)(I x Delta) Delta)."""
    d1 = apply_delta_slot(TensorElement.seed(k, cop), cop, 1)
    cocomm = tau(d1, 1) - d1
    lhs = apply_delta_slot(apply_delta_slot(d1, cop, 2), cop, 1)
    rhs = apply_delta_slot(apply_delta_slot(d1, cop, 2), cop, 2)
    return [("co-commutativity", cocomm), ("co-jordan", _cyclic_sum(lhs) - _cyclic_sum(rhs))]


def _co_oracle(cop, residuals):
    out = []
    for k in range(cop.rank):
        for check, r in residuals(cop, k):
            if not r.is_zero():
                out.append(((cop.generators[k].id, check), repr(r)))
    return cop.rank, out


def assert_co_kernels_match(cop):
    if cop.kind == JORDAN:
        rep, residuals = check_jordan_coalgebra(cop), _cojordan_residuals
    else:
        rep, residuals = check_lie_coalgebra(cop), _coalg_residuals
    assert (rep.total, _found(rep)) == _co_oracle(cop, residuals), cop.name
    return rep


@pytest.mark.parametrize("name", sorted(LIE_FAMILIES) + ["CK_6"])
def test_lie_co_kernels_match_oracle(name, CK6):
    S = CK6 if name == "CK_6" else LIE_FAMILIES[name]()
    assert_co_kernels_match(dualize(S))


@pytest.mark.parametrize("name", ["J_0", "J_1", "J_2", "J_3", "JS_1", "JCK_4"])
def test_jordan_co_kernels_match_oracle(name, Jn, JS1, JCK4):
    S = {"JS_1": JS1, "JCK_4": JCK4, **{f"J_{n}": Jn[n] for n in range(4)}}[name]
    assert_co_kernels_match(dualize(S))


FAILING_EMITTERS = {
    "S_2": lambda: cf.coproduct_S(2),
    "S_3": lambda: cf.coproduct_S(3),
    "N=2": lambda: cf.coproduct_N(2),
    "N=4": lambda: cf.coproduct_N(4),
    "K_4'": cf.coproduct_K4prime,
    "CK_6": cf.coproduct_CK6,
    "J_2": lambda: cf.coproduct_Jn(2),
    "J_3": lambda: cf.coproduct_Jn(3),
    "JCK_4": cf.coproduct_JCK4,
}


@pytest.mark.parametrize("name", sorted(FAILING_EMITTERS))
def test_closed_form_co_kernels_match_oracle(name):
    assert_co_kernels_match(FAILING_EMITTERS[name]())


def _corrupt_coproduct(cop, seed):
    """cop with one random x1, x2 entry added on a parity-allowed (i, j) of some k."""
    rng = random.Random(seed)
    k = rng.randrange(cop.rank)
    pk = cop.parity(k)
    pairs = [(i, j) for i in range(cop.rank) for j in range(cop.rank)
             if (cop.parity(i) + cop.parity(j)) & 1 == pk]
    i, j = rng.choice(pairs)
    q = MultiPoly.zero()
    for _ in range(rng.randrange(1, 4)):
        c = rng.choice((1, -1, 2, Scalar(1, 1), Scalar(0, -1)))
        q = q + MultiPoly.monomial({"x1": rng.randrange(3), "x2": rng.randrange(3)}, c)
    table = {g: list(cop.table[g]) for g in range(cop.rank)}
    table[k].append((i, j, q))
    return Coproduct(cop.kind, cop.generators, table, name=f"{cop.name}~{seed}")


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["W_2", "K_3", "S_2b-beta", "J_2", "JCK_4"])
def test_seeded_co_corruptions_match_oracle(name, seed, Jn, JCK4):
    S = {"J_2": Jn[2], "JCK_4": JCK4}.get(name) or LIE_FAMILIES[name]()
    assert not assert_co_kernels_match(_corrupt_coproduct(dualize(S), seed)).ok


@pytest.mark.parametrize("name", ["JS_1", "J_1", "CurJ", "JS_1~", "J_1~"])
def test_co_jordan_is_the_jordan_identity_in_slots(name, Jn, JS1):
    """Oracle against oracle: the nested-bracket consistent Jordan residual of
    (a, b, c, d) at a_m, at SLOT_MAPS["jordan"], is -(-1)^{p(a)p(c)} times the
    tensor-slot co-Jordan residual of dualize(S) at a_m^* and [a, b, c, d]."""
    tables = {"JS_1": JS1, "J_1": Jn[1], "CurJ": families.make_cur_jordan_unit()}
    S = tables.get(name) or _seeded_corruption(tables[name[:-1]], 1)
    n = S.rank
    co = [dict(_cojordan_residuals(dualize(S), m))["co-jordan"].terms for m in range(n)]
    nonzero = 0
    for a, b, c, d in itertools.product(range(n), repeat=4):
        jordan = _jordan_residual(S, a, b, c, d, CONSISTENT).terms
        odd = S.parity(a) & S.parity(c)
        for m in range(n):
            q = co[m].get((a, b, c, d), MultiPoly.zero())
            assert _at(jordan.get(m, MultiPoly.zero()), SLOT_MAPS["jordan"]) == (q if odd else -q)
            nonzero += not q.is_zero()
    assert bool(nonzero) == name.endswith("~")
