"""Closed-form coproduct emitters against the machine duals.

Where the tabulated display is correct the diff must be empty; where it
carries a verified transcription defect, the exact diff set is pinned so
any drift in either path is caught.
"""

import collections
import hashlib
import inspect
import re

import pytest

from confcoalg import closed_form as cf
from confcoalg import serialize
from confcoalg.coalgebra import (
    check_jordan_coalgebra, check_lie_coalgebra, compare, dualize,
)
from confcoalg.families import make_S_b
from confcoalg.poly import Scalar


def test_emitters_never_call_dualize():
    """Structural independence: the emitter module neither imports nor
    references dualize anywhere in executable code."""
    import ast

    tree = ast.parse(inspect.getsource(cf))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert all(a.name != "dualize" for a in node.names)
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = getattr(node, "id", getattr(node, "attr", ""))
            assert name != "dualize"


# sha256 of serialize.dumps of each emitter at every n the CLI caps allow
# (families.CAPS), recorded before the emitters built each name and
# coefficient polynomial once per call; the tables must not change by a byte
EMITTER_DUMPS = {
    ("coproduct_vir", ()): "b77111cd9456875f7558e6d28b141776f23b318efb789bb1841d029bc9207815",
    ("coproduct_cur_sl2", ()): "dc02b9b7a96b26c93c9b075d46f5cda513dd607397414feca17205772ff7cc79",
    ("coproduct_W", (0,)): "7974d32030299a46e1161df56346686092504efe053dee7f0861302e840ead3c",
    ("coproduct_W", (1,)): "7b0a8c1851b30e324948e1fd826952bed7d33143bcf35824ca61e3630dc01ca6",
    ("coproduct_W", (2,)): "a7a8630028a69506b8af6703ebfc31b595d11645c3bc952bfbeb59a8d15da62b",
    ("coproduct_W", (3,)): "e1ec8fc0b456a2d887b18977ff6a0fa86893f644216a0a5a93213c8d2243b0d0",
    ("coproduct_W", (4,)): "c5d07b29f47d4fcc8f846c94c00a6131fd4df8746daeb8482c14008e52835cc5",
    ("coproduct_S", (2,)): "207c05ef7d35d5f3f706b775cdd38e7afaf9da4eb83d5d853081842ee21ff5ed",
    ("coproduct_S", (3,)): "e0a14fc4cf148a393764a3d9b2308f7b9ae48b26eb22581efd69e3074186cd04",
    ("coproduct_K", (0,)): "f2eb372c5ed332754b12c5bd46a0450fbe8a45375e8ee54a2fc5601a2f30b011",
    ("coproduct_K", (1,)): "b0f6430a3866cfbc9818977b33ac866d610a90d3cb26b667af45949816e7327e",
    ("coproduct_K", (2,)): "af1ee7969fc242bf697550a5d821a0d5fd6dedcfe646e89e4d9ddff3fc0fcd92",
    ("coproduct_K", (3,)): "33e6561d0fa23367a1abee23406409e8bfc985dab4c5a078d1995eaa4a129f60",
    ("coproduct_K", (4,)): "c1ef10981f5759363fd77175da9c802ebffc188487f0c8ac20f81d157f9cb6ef",
    ("coproduct_K", (5,)): "95720e26d51a688fc129230cae0948e0d898db6a11e2b1bb94abdd9645ac9a49",
    ("coproduct_K", (6,)): "73d6369b746f3608a2c19d45a312348ac4ce4529805b3a58d94678519ad68dc5",
    ("coproduct_N", (2,)): "9322e8e843b7aa3e9ffeb67ffc7f919753ecacbb570d520be29e810a83d477f2",
    ("coproduct_N", (3,)): "395b6cae5de2282e102dc90c57063ba4780532128bf2e5c0c6b95fd95a3de9c3",
    ("coproduct_N", (4,)): "00ca281028493e7a71b36cf2875ea96d03605f6e7aae542f0a6bf94331498b03",
    ("coproduct_K4prime", ()): "afea227851090b7beab48dc16ed2832ca85c0fa9a78425884faeb457836761b1",
    ("coproduct_CK6", ()): "5b143fc1e248afb518504e2a8237e521a4c91dd900c2dbc877bd81acd067cd10",
    ("coproduct_Jn", (0,)): "39df25a29301558315b8c1ca66a6dcdc2aba532df7a7f797c591c0338553eb91",
    ("coproduct_Jn", (1,)): "79c390567450f0a0292a50f487656eee9aeb5368efbacbd8fc555acf5773db55",
    ("coproduct_Jn", (2,)): "245fff29cc19f1fe854601a3d8d1c48a1c2c8548e94829699a963a677e3d2568",
    ("coproduct_Jn", (3,)): "2110890638c0dfc9f7bde19f11b478ee12756688c060c52d4ee1eff7873531ce",
    ("coproduct_JS1", ()): "0379e86014495668a300770ec6dc9412af3342f474b22b587a63e10d0b353c3c",
    ("coproduct_JCK4", ()): "ef16f2ab38e57a8425493a3914523a158035fe976f43d85300ef92261ec9c29b",
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
    keeps nothing between calls: two tables share no MultiPoly object."""
    first, second = (getattr(cf, emitter)(*args) for _ in range(2))

    def polys(C):
        return {id(q) for k in range(C.rank) for _, _, q in C.table[k]}

    assert polys(first) and not polys(first) & polys(second)


def test_vir_and_current(vir, cur_sl2):
    assert compare(dualize(vir), cf.coproduct_vir()).ok
    assert compare(dualize(cur_sl2), cf.coproduct_cur_sl2()).ok


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
