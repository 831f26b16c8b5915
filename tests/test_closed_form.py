"""Closed-form coproduct emitters against the machine duals.

Where the tabulated display is correct the diff must be empty; where it
carries a verified transcription defect, the exact diff set is pinned so
any drift in either path is caught.
"""

import collections
import hashlib
import importlib
import inspect
import json
import re
import sys
from fractions import Fraction

import pytest

from confcoalg import closed_form as cf
from confcoalg import closed_form_builder
from confcoalg import families, families_current, serialize
from confcoalg.coalgebra import check_jordan_coalgebra, check_lie_coalgebra, compare, dualize
from confcoalg.conformal import check_skew
from confcoalg.families import make_S_b
from confcoalg.poly import MultiPoly, Scalar
from confcoalg.tables import JORDAN, LIE, Coproduct, Generator

from helpers import count_calls


def test_emitters_never_call_dualize():
    """Structural independence: no module that holds an emitter, and no
    package module that such a module imports, at its top or inside a
    function, directly or through another, imports or references dualize
    anywhere in executable code.  The modules reached are exactly the hub,
    the builder, the four series modules and bases, masks, poly and tables,
    and conformal, whose flip kernel LambdaStructure.flip_residual imports
    for the checks: no emitter reaches dual, which defines dualize, restricted,
    which builds the subalgebra families, or a constructor module.  No
    closed_form module, the builder included, names masks._sign_tables, the
    sign tables make_K and make_Jn read: an emitter's signs come from
    eps_mask and alpha_mask, so a sign bug in the tables is no bug of the
    coproducts they are compared with."""
    import ast

    emitters = {getattr(cf, name).__module__ for name in cf.__all__}
    assert len(emitters) == 4, emitters     # one module per series
    todo, seen = [cf.__name__, *emitters], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        banned = {"dualize"} | ({"_sign_tables"} if name.startswith("confcoalg.closed_form")
                                else set())
        for node in ast.walk(ast.parse(inspect.getsource(importlib.import_module(name)))):
            if isinstance(node, ast.ImportFrom):
                assert all(a.name not in banned for a in node.names), name
                if node.level:      # a module of the package
                    todo += ([f"confcoalg.{node.module}"] if node.module
                             else [f"confcoalg.{a.name}" for a in node.names])
            if isinstance(node, (ast.Name, ast.Attribute)):
                assert getattr(node, "id", getattr(node, "attr", "")) not in banned, name
    assert seen == {cf.__name__, *emitters} | {
        f"confcoalg.{name}"
        for name in ("closed_form_builder", "bases", "masks", "poly", "tables", "conformal")
    }, sorted(seen)


# sha256 of serialize.dumps of each emitter at every n the CLI caps allow
# (cli.FAMILIES).  Recorded before the emitters built each name and
# coefficient polynomial once per call, and re-recorded when Coproduct began
# merging the pairs of each row at construction: the 23 emitters whose rows
# repeat a pair (i, j) now write one entry per pair and no zero entries, so
# that equal coproducts write equal documents; vir, cur_sl2, JS1 and JCK4
# repeat none and kept their pins.  Re-recorded again, all of them, when
# documents began to keep each generator's LaTeX name.  The tables must not
# change by a byte
EMITTER_DUMPS = {
    ("coproduct_vir", ()): "d6fd93814593032e6dd0aa801b0b77b46bc29b68e2fb3294d619faa9a291b4a8",
    ("coproduct_cur_sl2", ()): "b5399f0824d8b142fcb0dc2550949eb8c66eac5c5ac97c7bec3531a0aa1c7533",
    ("coproduct_W", (0,)): "e23d389ec61e90e2de5e46e75aa823da8772e7f703553932e3d3a6aaeac3c1db",
    ("coproduct_W", (1,)): "dfa16fe4e7719e3cf64065e3f874f7430d3b92fd45a12f0b8c721af1b1671eef",
    ("coproduct_W", (2,)): "97ea0c2a07bdfba490ad47daf66c8edd1962af688d1fb557482d2a894c5a847f",
    ("coproduct_W", (3,)): "8b886b7ff5390bafccf6cc222fbf94b038528124eaac4f19351f3bc6b8bb7b30",
    ("coproduct_W", (4,)): "94cfad661966fd99e7e6d66ac69e3d048791490d8c4e0f134664b241b1654cfc",
    ("coproduct_S", (2,)): "8b181fe5ea0bb312cb9176facf9231da45f8d3896de55a70fcba557d94184db0",
    ("coproduct_S", (3,)): "905ffca0d7a6a0afeaa419804d555b4a4be077b5ff334bbef1d1ac542ab79dc7",
    ("coproduct_K", (0,)): "c86b42af80cb86439f7ef968e552d305f295fb507dd87301d89c406c2c0ce747",
    ("coproduct_K", (1,)): "d739e6f788cfbde2c9238421225c18906ef1c8f2e890ca3edba5b13a408fb5df",
    ("coproduct_K", (2,)): "2ca22efb03133a4f8e9e84cec7eaf7f14212ae5acb2e0d15cdf059b43e53d62f",
    ("coproduct_K", (3,)): "b47c8f7971db4c7ac9a916808e9891b015f4d4fc776bae9284e42b74efd57e5c",
    ("coproduct_K", (4,)): "ca550ae615ac5af1b1a0f65602490b28959329fb56c04ae047542135d19a66cb",
    ("coproduct_K", (5,)): "2891b09a4319058407cc031b8e74e28253ec263d94112821f39533463c880673",
    ("coproduct_K", (6,)): "646149a73c1b4ff7e9030803bfd18bc5f78fd28c064e220d73bea55463752fcc",
    ("coproduct_N", (2,)): "6a1e660cbc58d6de60a8e59abd606b7558e9fc8304db5d50a72b9b6747d168ee",
    ("coproduct_N", (3,)): "cb908ff857201a779da4a74484702aa3ed2402fbccff8328a0200eb4dcf4b10d",
    ("coproduct_N", (4,)): "3facff2a18bb647ebf95cd3940f9817b3f7183bfb4f18a1b2caad22bf0a3863d",
    ("coproduct_K4prime", ()): "0222567988cb7e819411c8916a2aa10c4caf8d487b193b2eacb52824fc8f583b",
    ("coproduct_CK6", ()): "15dcf857332c0b69da6a05bc55e8e8ac9a46c9930a6eabb25ea06706d293f5bb",
    ("coproduct_Jn", (0,)): "547e54ada419ff6a6880b1235fcb1097e9913e9d5227150edb91aa77cd08c07b",
    ("coproduct_Jn", (1,)): "47d466b34553eb76a030267f390ceca600d5048edc4bdbede9e17b5abd35a3cc",
    ("coproduct_Jn", (2,)): "96c4472183806c8bbf2a060d6c60c9e0a6dc619ca5a15c173e75e0c8a436000f",
    ("coproduct_Jn", (3,)): "86494c497a19f4765d1a9f4e5aff6b4689ffbd0314851a5e2d34af8d8c2706f7",
    ("coproduct_JS1", ()): "47c83249e0cd76f999854d2868d1364b919cef555555a7f30e357600cfaeb1a2",
    ("coproduct_JCK4", ()): "24d7bb41f83396d72ba05fb35b91fc7051e91b33fa8fbe8b853fdce5bbcbdb92",
}


@pytest.mark.parametrize("emitter, args", sorted(EMITTER_DUMPS))
def test_emitter_output_pinned(emitter, args):
    text = serialize.dumps(getattr(cf, emitter)(*args))
    assert hashlib.sha256(text.encode()).hexdigest() == EMITTER_DUMPS[emitter, args]


@pytest.mark.parametrize("emitter, args", [
    ("coproduct_vir", ()), ("coproduct_cur_sl2", ()), ("coproduct_W", (2,)),
    ("coproduct_S", (2,)), ("coproduct_K", (3,)), ("coproduct_N", (2,)), ("coproduct_N", (3,)),
    ("coproduct_N", (4,)), ("coproduct_K4prime", ()), ("coproduct_CK6", ()),
    ("coproduct_Jn", (2,)), ("coproduct_JS1", ()), ("coproduct_JCK4", ()),
])
def test_emitter_calls_share_no_polynomial(emitter, args):
    """An emitter makes its names and coefficient polynomials once per call and
    keeps nothing between calls: two coproducts share no stored vector."""
    first, second = (getattr(cf, emitter)(*args) for _ in range(2))

    def vectors(C):
        return {id(vec) for vec in C.packed[1][0]}

    assert vectors(first) and not vectors(first) & vectors(second)


class _Appending(closed_form_builder._Builder):
    """_Builder as it stood before it summed by pair: each contribution
    appended as a polynomial of its own, the sums left to Coproduct's merge."""

    def __init__(self, *args):
        super().__init__(*args)
        self.terms = {}

    def put(self, k, i, j, c=0, x1=0, x2=0):
        p = MultiPoly.const(c) + MultiPoly.var("x1", 1, x1) + MultiPoly.var("x2", 1, x2)
        self.terms.setdefault(k, []).append((i, j, p))

    def put_gaussian(self, k, i, j, parts):
        c, x1, x2 = (Scalar(Fraction(re, 2), Fraction(im, 2)) for re, im in zip(parts[::2], parts[1::2]))
        self.put(k, i, j, c, x1, x2)

    def done(self):
        return Coproduct(self.kind, self.gens, self.terms, self.name)


@pytest.mark.parametrize("emitter, args", sorted(EMITTER_DUMPS))
def test_builder_hands_one_entry_per_pair_and_one_object_per_value(monkeypatch, emitter, args):
    """_Builder sums each (k, i, j) as it goes: Table.from_slots is given one
    slot per pair and one object per distinct value, each used, and the
    coproduct stores what the terms appended one by one and merged by
    Coproduct store."""
    with monkeypatch.context() as m:
        given = count_calls(m, Coproduct, "from_slots")
        C = getattr(cf, emitter)(*args)
    (_, _, values, slots, _), = given
    pairs = [(k, i, j) for i, j, k, _ in slots]
    assert len(set(pairs)) == len(pairs)
    assert len({id(q) for q in values}) == len(set(values)) == len(values)
    assert {e for *_, e in slots} == set(range(len(values)))
    if (emitter, args) == ("coproduct_K", (6,)):
        assert (len(pairs), len(values)) == (2097, 31)
    monkeypatch.setattr(importlib.import_module(getattr(cf, emitter).__module__), "_Builder",
                        _Appending)
    assert getattr(cf, emitter)(*args).packed == C.packed


# s of put_flip by kind and the parities of the pair: -(-1)^{p_i p_j} for
# Lie, (-1)^{p_i p_j} for Jordan
_FLIP_SIGNS = {(LIE, 0, 0): -1, (LIE, 0, 1): -1, (LIE, 1, 1): 1,
               (JORDAN, 0, 0): 1, (JORDAN, 0, 1): 1, (JORDAN, 1, 1): -1}


@pytest.mark.parametrize("kind, pi, pj", sorted(_FLIP_SIGNS))
def test_put_flip_puts_the_term_and_then_its_flip(kind, pi, pj):
    """put_flip(k, i, j, c, x1, x2) puts (c, x1, x2) at (k, i, j) and then
    s (c, x2, x1) at (k, j, i), s read from the builder's own parities, both
    orders when the parities differ; on a diagonal pair the two sum, and
    cancel where the term is its own flip times -1."""
    s, t, u = _FLIP_SIGNS[kind, pi, pj], _FLIP_SIGNS[kind, pi, pi], _FLIP_SIGNS[kind, pj, pj]
    b = closed_form_builder._Builder(kind, [Generator("a", pi), Generator("b", pj)], "flip")
    half = Fraction(1, 2)
    b.put_flip(0, 0, 1, half, 3, -5)
    b.put_flip(1, 1, 0, x2=half)
    assert list(b.sums.items()) == [
        ((0, 0, 1), (half, 3, -5)), ((0, 1, 0), (s * half, -5 * s, 3 * s)),
        ((1, 1, 0), (0, 0, half)), ((1, 0, 1), (0, s * half, 0))]
    b = closed_form_builder._Builder(kind, [Generator("a", pi), Generator("b", pj)], "diagonal")
    b.put_flip(0, 0, 0, 1, 3, -5)
    b.put_flip(0, 1, 1, x1=1, x2=1)
    assert b.sums == {(0, 0, 0): (1 + t, 3 - 5 * t, -5 + 3 * t),
                      **({(0, 1, 1): (0, 2, 2)} if u == 1 else {})}


@pytest.mark.parametrize("emitter, args", sorted(EMITTER_DUMPS))
def test_flip_report_of_every_closed_form(emitter, args):
    """The antisymmetry or co-commutativity part of each closed form's exact
    report is empty, but for the N = 4 list and K_4', whose two-index
    display prints the (xi_ik, xi_il) pair symmetrically (see
    test_n4_list_known_sign_slips)."""
    C = getattr(cf, emitter)(*args)
    report = (check_lie_coalgebra if C.kind == LIE else check_jordan_coalgebra)(C)
    flips = [v.where for v in report.violations if v.where[1] in ("antisymmetry", "co-commutativity")]
    slips = [("xi23*", "antisymmetry"), ("xi24*", "antisymmetry"), ("xi34*", "antisymmetry")]
    assert flips == (slips if (emitter, args) in (("coproduct_N", (4,)), ("coproduct_K4prime", ()))
                     else [])


# the family table each emitter is the closed-form coproduct of
TABLE_OF = {
    "coproduct_vir": "make_vir", "coproduct_cur_sl2": "make_cur_sl2", "coproduct_W": "make_W",
    "coproduct_S": "make_S", "coproduct_K": "make_K", "coproduct_N": "make_K",
    "coproduct_K4prime": "make_K4prime", "coproduct_CK6": "make_CK6", "coproduct_Jn": "make_Jn",
    "coproduct_JS1": "make_JS1", "coproduct_JCK4": "make_JCK4",
}


@pytest.mark.parametrize("emitter, args", sorted(EMITTER_DUMPS))
def test_equal_coproducts_write_equal_documents(emitter, args):
    """The machine dual and the emitter have an empty diff exactly when their
    documents list the same table."""
    dual = dualize(getattr(families, TABLE_OF[emitter])(*args))
    formula = getattr(cf, emitter)(*args)
    same = json.loads(serialize.dumps(dual))["table"] == json.loads(serialize.dumps(formula))["table"]
    assert compare(dual, formula).ok == same


def test_vir_and_current(vir, cur_sl2):
    assert compare(dualize(vir), cf.coproduct_vir()).ok
    assert compare(dualize(cur_sl2), cf.coproduct_cur_sl2()).ok


def test_cur_sl2_crosscheck_sees_the_constructor_constants(monkeypatch):
    """The closed form of Cur(sl2) is written from its displayed sums, not
    from sl2_constants: constants with [h, e] = 3e, put in place of
    sl2_constants wherever a module of the package binds it, build a table
    that fails skew-symmetry, and its dual differs from the closed form in
    the one sum that changed."""
    real = families_current.sl2_constants

    def three():
        names, pars, prods = real()
        return names, pars, {**prods, ("h", "e"): [("e", Scalar(3))]}

    for name, module in list(sys.modules.items()):
        if name.startswith("confcoalg") and getattr(module, "sl2_constants", None) is real:
            monkeypatch.setattr(module, "sl2_constants", three)
    S = families.make_cur_sl2()
    assert len(check_skew(S).violations) == 2
    rep = compare(dualize(S), cf.coproduct_cur_sl2())
    assert [(l.gen, l.left, l.right) for l in rep.lines] == [("e*", "h*", "e*")], rep.lines


def test_w_crosschecks(W):
    for n in range(4):
        rep = compare(dualize(W[n]), cf.coproduct_W(n))
        assert rep.ok, rep.lines[:5]


def test_k_crosschecks(K):
    for n in range(1, 7):
        rep = compare(dualize(K[n]), cf.coproduct_K(n))
        assert rep.ok, (n, rep.lines[:5])


def test_n3_list_matches(K):
    assert compare(dualize(K[3]), cf.coproduct_N(3)).ok


def test_n2_list_known_sign_slip(K):
    """The N = 2 display's third group needs an i-dependent sign; the two
    diff lines for i = 2 are pinned."""
    rep = compare(dualize(K[2]), cf.coproduct_N(2))
    got = sorted((l.gen, l.left, l.right, l.got, l.expected) for l in rep.lines)
    assert got == [
        ("xi2*", "xi1*", "xi12*", "-1", "1"),
        ("xi2*", "xi12*", "xi1*", "1", "-1"),
    ]


def test_n4_list_known_sign_slips(K):
    """The (xi_ik, xi_il) current pair of the two-index display is printed
    symmetrically; the true dual is antisymmetric in that pair."""
    rep = compare(dualize(K[4]), cf.coproduct_N(4))
    got = sorted((l.gen, l.left, l.right) for l in rep.lines)
    assert got == [
        ("xi23*", "xi13*", "xi12*"),
        ("xi24*", "xi14*", "xi12*"),
        ("xi34*", "xi14*", "xi13*"),
        ("xi34*", "xi24*", "xi23*"),
    ]
    # the printed list is not tau-antisymmetric; the machine dual is
    assert not check_lie_coalgebra(cf.coproduct_N(4)).ok
    assert check_lie_coalgebra(dualize(K[4])).ok


def test_k4prime_crosscheck(K4p):
    rep = compare(dualize(K4p), cf.coproduct_K4prime())
    got = sorted((l.gen, l.left, l.right) for l in rep.lines)
    # exactly the four sign slips inherited from the two-index display
    assert got == [
        ("xi23*", "xi13*", "xi12*"),
        ("xi24*", "xi14*", "xi12*"),
        ("xi34*", "xi14*", "xi13*"),
        ("xi34*", "xi24*", "xi23*"),
    ]


def test_k4prime_fails_with_exactly_the_n4_lines(K, K4p):
    """README defect 5 names K_4' with N = 4: coproduct_K4prime reuses the
    N = 4 rows, and both crosschecks give the same four lines, word for word."""
    lines = [
        "delta(xi23*) @ xi13* (x) xi12*: -1  !=  1",
        "delta(xi24*) @ xi14* (x) xi12*: -1  !=  1",
        "delta(xi34*) @ xi14* (x) xi13*: -1  !=  1",
        "delta(xi34*) @ xi24* (x) xi23*: -1  !=  1",
    ]
    assert [str(l) for l in compare(dualize(K[4]), cf.coproduct_N(4)).lines] == lines
    assert [str(l) for l in compare(dualize(K4p), cf.coproduct_K4prime()).lines] == lines


def test_k4prime_dstar_row_exact(K4p):
    """The (d xi_star)* display and the extra |K| = 3 term are verified
    exactly (no diffs touch the dxistar generator)."""
    rep = compare(dualize(K4p), cf.coproduct_K4prime())
    for l in rep.lines:
        assert "dxistar" not in (l.gen, l.left, l.right)


def test_s_crosscheck_diffs_confined_to_pair_sector(S):
    """(S1) and the B-paired sums of (S2)/(3S) verify exactly; diffs come
    only from the pair-element brackets the tabulated formulas drop."""
    def shape(nm):
        nm = nm.rstrip("*")
        return "A2" if nm.count("_") == 2 else ("A" if "_" in nm else "B")

    rep2 = compare(dualize(S[2]), cf.coproduct_S(2))
    assert len(rep2.lines) == 6
    rep3 = compare(dualize(S[3]), cf.coproduct_S(3))
    assert len(rep3.lines) == 80
    for rep in (rep2, rep3):
        for l in rep.lines:
            shapes = {shape(l.gen), shape(l.left), shape(l.right)}
            assert "B" not in shapes
            assert "A2" in shapes


def test_ck6_crosscheck_characterized(CK6):
    """172 diffs, all explained by the five pinned display defects:
    the C_i/C_ij weight transposition, the flipped l<k sum of delta(C_l*),
    the C-sum sign of delta(C_rs*) at r = 1, the middle-pair permutation
    sign of the beta block, and the six missing beta-d terms per
    delta(C_1st*)."""
    rep = compare(dualize(CK6), cf.coproduct_CK6())
    assert len(rep.lines) == 172
    by_deg = collections.Counter()
    for l in rep.lines:
        by_deg["L" if l.gen == "L*" else f"deg{len(l.gen) - 2}"] += 1
    assert by_deg == {"deg1": 42, "deg2": 50, "deg3": 80}
    assert check_lie_coalgebra(dualize(CK6)).ok
    assert not check_lie_coalgebra(cf.coproduct_CK6()).ok


def test_jordan_crosschecks(Jn, JS1):
    for n in (0, 1, 2, 3):
        assert compare(dualize(Jn[n]), cf.coproduct_Jn(n)).ok
    assert compare(dualize(JS1), cf.coproduct_JS1()).ok


def test_jck4_crosscheck_sign_slips(JCK4):
    """Delta(x_k*) as printed gives the omega (x) x sum a uniform sign; the
    true dual follows the antisymmetric cross table."""
    rep = compare(dualize(JCK4), cf.coproduct_JCK4())
    got = sorted((l.gen, l.left, l.right) for l in rep.lines)
    assert got == [
        ("x1*", "w2*", "x3*"), ("x1*", "x3*", "w2*"),
        ("x2*", "w3*", "x1*"), ("x2*", "x1*", "w3*"),
        ("x3*", "w2*", "x1*"), ("x3*", "x1*", "w2*"),
    ]
    assert check_jordan_coalgebra(dualize(JCK4)).ok
    assert not check_jordan_coalgebra(cf.coproduct_JCK4()).ok


def test_coproduct_n_vs_k_restriction(K):
    """Two printed presentations of one object agree exactly where both are
    defect-free (n = 3); at n = 2, 4 they differ by the pinned slips."""
    assert compare(cf.coproduct_K(3), cf.coproduct_N(3)).ok
    assert len(compare(cf.coproduct_K(2), cf.coproduct_N(2)).lines) == 2
    assert len(compare(cf.coproduct_K(4), cf.coproduct_N(4)).lines) == 4


def test_sb_has_no_printed_coproduct():
    # S_{n,b} carries no tabulated coproduct; its dual is still a coalgebra
    sb = make_S_b(2, Scalar(1))
    assert check_lie_coalgebra(dualize(sb)).ok
