"""Acceptance criteria, one test (or parametrized group) per criterion.

All arithmetic is exact: every "pass" below is an identically-zero
residual at tolerance 0.

Four criteria contain sub-cases that are blocked by defects in the
tabulated source formulas (verified independently; see the repository
notes): the J_n lambda-products fail the Jordan identity, the tabulated
S_n pair brackets and two CK_6 weights disagree with the definitional
constructions, and several displayed coproducts differ from the machine
duals.  Those sub-cases are asserted faithfully and fail honestly with
the exact residuals/diffs in the failure message; everything else is
green.
"""

import json
import random
import time

import pytest

from confcoalg import closed_form as cf
from confcoalg import families, printed, serialize
from confcoalg.cli import main as cli_main
from confcoalg.coalgebra import (
    check_jordan_coalgebra, check_lie_coalgebra, compare,
    double_dual_roundtrip, dualize,
)
from confcoalg.conformal import (
    check_jacobi, check_jordan_comm, check_jordan_identity, check_skew,
)
from confcoalg.families import corrupt_entry
from confcoalg.poly import D, LAM, MultiPoly, Scalar
from confcoalg.printed import check_div_identity
from confcoalg.bases import sn_basis
from confcoalg.restricted import div_w, embed_sn

from helpers import random_poly


def crit(num: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE CRITERION {num}: {status}" + (f" -- {detail}" if detail else ""))


def _lie_suite(tag, S):
    t0 = time.time()
    rs = check_skew(S)
    rj = check_jacobi(S)
    dt = time.time() - t0
    assert rs.ok, f"{tag}: skew violations {rs.violations[:3]}"
    assert rj.ok, f"{tag}: jacobi violations {rj.violations[:3]}"
    return dt


# -- criterion 1: Lie axiom suites -------------------------------------------


def test_criterion_1_axiom_suites(vir, cur_sl2, W, S, S2b, Stilde2, K, K4p, CK6):
    t0 = time.time()
    cases = [("Vir", vir), ("Cur(sl2)", cur_sl2)]
    cases += [(f"W_{n}", W[n]) for n in range(4)]
    cases += [(f"S_{n}", S[n]) for n in (2, 3)]
    cases += [(f"S_2,b={k}", v) for k, v in S2b.items()]
    cases += [("S~_2", Stilde2)]
    cases += [(f"K_{n}", K[n]) for n in range(7)]
    cases += [("K_4'", K4p), ("CK_6", CK6)]
    for tag, S_ in cases:
        _lie_suite(tag, S_)
    elapsed = time.time() - t0
    crit(1, True, f"{len(cases)} families, skew+jacobi exact, {elapsed:.0f}s")
    assert elapsed < 300, "criterion 1 exceeded its five-minute budget"


# -- criterion 2: Jordan suites ----------------------------------------------


def test_criterion_2_commutativity(Jn, JS1, JCK4):
    for tag, S_ in (("J_2", Jn[2]), ("J_3", Jn[3]), ("JS_1", JS1), ("JCK_4", JCK4)):
        assert check_jordan_comm(S_).ok, tag


def test_criterion_2_printed_identity_reporting(JS1):
    """The displayed identity (lam-mu subscript) is reported, never patched:
    its minimal failing quadruple and residual are emitted."""
    rep = check_jordan_identity(JS1, variant="printed")
    assert not rep.ok
    v = rep.violations[0]
    assert v.where == ("S", "S", "T", "T") and v.residual == "(-4*nu)*S"
    crit(2, True, "printed-identity failure reporting: minimal quadruple "
                  f"{v.where}, residual {v.residual}")


@pytest.mark.parametrize("name", ["JS_1", "JCK_4", "J_2", "J_3"])
def test_criterion_2_jordan_identity(name, Jn, JS1, JCK4):
    S_ = {"JS_1": JS1, "JCK_4": JCK4, "J_2": Jn[2], "J_3": Jn[3]}[name]
    rep = check_jordan_identity(S_, variant="consistent")
    ok = rep.ok
    if name in ("JS_1", "JCK_4"):
        crit(2, ok, f"{name}: jordan-comm + jordan-id over {rep.total} quadruples")
        assert ok, rep.violations[:3]
    else:
        detail = ""
        if not ok:
            v = rep.violations[0]
            detail = (f"{name}: tabulated lambda-products fail the Jordan "
                      f"identity; minimal quadruple {v.where}, residual "
                      f"{v.residual} ({len(rep.violations)}/{rep.total} fail)")
        crit(2, ok, detail or f"{name}: pass")
        if not ok:
            pytest.fail(detail, pytrace=False)


# -- criterion 3: two-path bracket equality ----------------------------------


@pytest.mark.parametrize("name", ["S_2", "S_3", "CK_6"])
def test_criterion_3_two_path_equality(name, S, CK6):
    if name == "CK_6":
        diffs = printed.verify_ck6_printed(CK6)
    else:
        diffs = printed.proposition_diffs(S[int(name[-1])])
    crit(3, not diffs, f"{name}: restriction vs tabulated brackets, "
                       f"{len(diffs)} term diffs")
    if diffs:
        pytest.fail(
            f"{name}: restriction and tabulated brackets differ on "
            f"{len(diffs)} terms, e.g.\n  " + "\n  ".join(diffs[:6]),
            pytrace=False,
        )


# -- criterion 4: theorem crosschecks (the headline) -------------------------


CROSSCHECKS = (
    ["Vir", "Cur(sl2)"]
    + [f"W_{n}" for n in range(4)]
    + [f"S_{n}" for n in (2, 3)]
    + [f"K_{n}" for n in range(1, 7)]
    + [f"N={n}" for n in (2, 3, 4)]
    + ["K_4'", "CK_6", "J_2", "J_3", "JS_1", "JCK_4"]
)


@pytest.mark.parametrize("name", CROSSCHECKS)
def test_criterion_4_theorem_crosschecks(name, vir, cur_sl2, W, S, K, K4p,
                                         CK6, Jn, JS1, JCK4):
    pairs = {
        "Vir": (vir, cf.coproduct_vir),
        "Cur(sl2)": (cur_sl2, cf.coproduct_cur_sl2),
        "K_4'": (K4p, cf.coproduct_K4prime),
        "CK_6": (CK6, cf.coproduct_CK6),
        "JS_1": (JS1, cf.coproduct_JS1),
        "JCK_4": (JCK4, cf.coproduct_JCK4),
    }
    if name in pairs:
        prim, emit = pairs[name]
        rep = compare(dualize(prim), emit())
    elif name.startswith("W_"):
        n = int(name[2:])
        rep = compare(dualize(W[n]), cf.coproduct_W(n))
    elif name.startswith("S_"):
        n = int(name[2:])
        rep = compare(dualize(S[n]), cf.coproduct_S(n))
    elif name.startswith("K_"):
        n = int(name[2:])
        rep = compare(dualize(K[n]), cf.coproduct_K(n))
    elif name.startswith("N="):
        n = int(name[2:])
        rep = compare(dualize(K[n]), cf.coproduct_N(n))
    else:
        n = int(name[2:])
        rep = compare(dualize(Jn[n]), cf.coproduct_Jn(n))
    crit(4, rep.ok, f"{name}: compare(dualize(make), tabulated) "
                    f"{'empty' if rep.ok else f'{len(rep.lines)} diffs'}")
    if not rep.ok:
        pytest.fail(
            f"{name}: machine dual differs from the tabulated coproduct on "
            f"{len(rep.lines)} entries, e.g.\n  "
            + "\n  ".join(str(l) for l in rep.lines[:6]),
            pytrace=False,
        )


# -- criterion 5: coalgebra axioms on the duals ------------------------------


def test_criterion_5_lie_coalgebras(vir, cur_sl2, W, S, S2b, Stilde2, K, K4p, CK6):
    cases = [("Vir", vir), ("Cur(sl2)", cur_sl2), ("S~_2", Stilde2),
             ("K_4'", K4p), ("CK_6", CK6)]
    cases += [(f"W_{n}", W[n]) for n in range(4)]
    cases += [(f"S_{n}", S[n]) for n in (2, 3)]
    cases += [(f"S_2,b={k}", v) for k, v in S2b.items()]
    cases += [(f"K_{n}", K[n]) for n in range(7)]
    for tag, S_ in cases:
        rep = check_lie_coalgebra(dualize(S_))
        assert rep.ok, f"{tag}: {rep.violations[:2]}"
    crit(5, True, f"{len(cases)} dualized Lie families: antisymmetry + co-Jacobi")


@pytest.mark.parametrize("name", ["JS_1", "JCK_4", "J_2", "J_3"])
def test_criterion_5_jordan_coalgebras(name, Jn, JS1, JCK4):
    S_ = {"JS_1": JS1, "JCK_4": JCK4, "J_2": Jn[2], "J_3": Jn[3]}[name]
    rep = check_jordan_coalgebra(dualize(S_))
    crit(5, rep.ok, f"{name}: co-commutativity + co-Jordan at arity 4")
    if not rep.ok:
        pytest.fail(
            f"{name}: the dual of the tabulated lambda-products is not a "
            f"Jordan coalgebra ({len(rep.violations)} violations, first "
            f"{rep.violations[0].where}); same root cause as criterion 2",
            pytrace=False,
        )


# -- criterion 6: functorial round trip --------------------------------------


def test_criterion_6_roundtrip(vir, cur_sl2, W, S, S2b, Stilde2, K, K4p, CK6,
                               Jn, JS1, JCK4):
    families = [vir, cur_sl2, Stilde2, K4p, CK6, JS1, JCK4]
    families += [W[n] for n in range(4)]
    families += [S[n] for n in (2, 3)]
    families += list(S2b.values())
    families += [K[n] for n in range(7)]
    families += [Jn[n] for n in (2, 3)]
    for S_ in families:
        assert double_dual_roundtrip(S_).ok, S_.name
    rng = random.Random(2026)
    img = -LAM - D
    for _ in range(10_000):
        p = random_poly(rng, nvars=4)
        assert p.subst_general("d", img).subst_general("d", img) == p
    crit(6, True, f"{len(families)} families + 10^4 random tables")


# -- criterion 7: ranks -------------------------------------------------------


def test_criterion_7_ranks(W, S, S2b, Stilde2, K, K4p, CK6, Jn):
    for n in range(4):
        assert W[n].rank == (n + 1) * 2 ** n
    for n in (2, 3):
        assert S[n].rank == n * 2 ** n
    for sb in S2b.values():
        assert sb.rank == 2 * 2 ** 2
    assert Stilde2.rank == 2 * 2 ** 2
    for n in range(7):
        assert K[n].rank == 2 ** n
    assert K4p.rank == 16
    assert CK6.rank == 32
    for n in (0, 1, 2, 3):
        assert Jn[n].rank == 2 * 2 ** n
    crit(7, True, "(n+1)2^n, n2^n (incl. kernel_basis), 2^n, 16, 32, 2*2^n")


# -- criterion 8: divergence identity ----------------------------------------


def test_criterion_8_divergence(W):
    for b in (Scalar(0), Scalar(1), Scalar(0, 1)):
        rep = check_div_identity(2, b)
        assert rep.ok, rep.violations[:3]
    for n in (2, 3):
        w = W[n]
        for el in sn_basis(n):
            if el.tag == "B":
                assert div_w(w, embed_sn(el, w)).is_zero(), el.name()
    crit(8, True, "div_b identity on all W_2 pairs (b in {0,1,beta}); "
                  "div(B_I)=0 at n=2,3")


# -- criterion 9: negative controls ------------------------------------------


def test_criterion_9_negative_controls(tmp_path, capsys, vir, K, JS1):
    seeded = [
        ("vir", corrupt_entry(vir, "L", "L", "L", D + LAM), "skew"),
        ("k2", corrupt_entry(K[2], "xi1", "xi2", "xi12",
                             MultiPoly.const(-1)), "skew"),
        ("js1", corrupt_entry(JS1, "T", "T", "S", 2 * LAM), "jordan-comm"),
    ]
    for tag, bad, checkname in seeded:
        path = tmp_path / f"{tag}.json"
        path.write_text(serialize.dumps(bad))
        code = cli_main(["verify", "--in", str(path), "--checks", checkname])
        out = capsys.readouterr().out
        assert code == 1, tag
        viol_lines = [l for l in out.splitlines() if l.startswith("  ")]
        assert len(viol_lines) >= 1, tag
    crit(9, True, "seeded corruptions in Vir, K_2, JS_1 detected, exit 1, "
                  "residual line emitted")
