"""Family constructors: tabulated examples, ranks, and the documented
discrepancies between the definitional constructions and the printed tables."""

import gc
import random
import re
import weakref
from fractions import Fraction

import pytest

from confcoalg import cli, coalgebra, conformal, families, printed, restricted, tables
from confcoalg.bases import sn_basis
from confcoalg.conformal import bracket, check_jacobi, check_skew
from confcoalg.families import (
    corrupt_entry, make_CK6, make_current, make_S, make_S_b, make_W,
)
from confcoalg.printed import (
    _current_action, check_div_identity, proposition_diffs, verify_ck6_printed,
)
from confcoalg.restricted import (
    NotInSpan, ck6_embed, div_module_map, div_w, embed_sn, span_reader,
)
from confcoalg.masks import _d_mul, members, mul_sign
from confcoalg.poly import D, LAM, MultiPoly, P_ONE, Scalar
from confcoalg.tables import ConformalElement, LambdaStructure, StructureError

from helpers import element_reader


def E(S, name):
    return ConformalElement.gen(S.index[name])


# -- Vir, currents -----------------------------------------------------------


def test_vir_table(vir):
    assert vir.rank == 1
    assert vir.generators[0].parity == 0
    assert vir.entry(0, 0) == ConformalElement({0: D + 2 * LAM})


def test_current_is_lambda_free(cur_sl2):
    for (i, j), entries in cur_sl2.table.items():
        for _, p in entries:
            assert "lam" not in p.variables() and "d" not in p.variables()
    assert cur_sl2.entry(cur_sl2.index["e"], cur_sl2.index["f"]) == E(cur_sl2, "h")


def test_current_rejects_invalid_constants():
    """Constants that break the axioms build a table; its checks fail."""
    S = make_current(
        ["a", "b"], [0, 0],
        {("a", "b"): [("a", Scalar(1))]},  # not antisymmetric
        kind="lie",
    )
    rep = check_skew(S)
    assert [(v.where, v.residual) for v in rep.violations] == [
        (("a", "b"), "(1)*a"), (("b", "a"), "(1)*a")]


def test_current_names_an_unknown_generator():
    with pytest.raises(StructureError, match="unknown generator 'b'"):
        make_current(["a"], [0], {("a", "b"): [("a", Scalar(1))]})


@pytest.mark.parametrize("parities", [[0], [0, 0, 0]])
def test_current_needs_one_parity_per_generator(parities):
    with pytest.raises(StructureError, match=f"2 generators but {len(parities)} parities"):
        make_current(["a", "b"], parities, {})


def test_constructors_run_no_check(monkeypatch):
    """Every family of the command line builds, at n = 2 where it takes --n
    (the smallest n every such family accepts), with every check of
    conformal and coalgebra raising; cur and curjordan are make_current on
    the sl2 constants and on the Jordan unit."""
    def boom(*args, **kwargs):
        raise AssertionError("a constructor ran a check")

    checks = {id(f) for mod in (conformal, coalgebra)
              for name, f in vars(mod).items() if name.startswith("check_")}
    for mod in (conformal, coalgebra, families, restricted):
        for name, f in list(vars(mod).items()):
            if id(f) in checks:
                monkeypatch.setattr(mod, name, boom)
    for name, fd in cli.FAMILIES.items():
        assert fd.build(2 if fd.needs_n else None, Scalar(0)).rank > 0, name


def test_jordan_current_idempotent():
    cur = make_current(["a"], [0], {("a", "a"): [("a", Scalar(1))]},
                       kind="jordan")
    assert cur.entry(0, 0) == E(cur, "a")


# -- W_n ---------------------------------------------------------------------


def test_w_ranks(W):
    for n in range(4):
        assert W[n].rank == (n + 1) * 2 ** n


def test_w_bracket_examples(W):
    w2 = W[2]
    one = w2.index["1"]
    assert w2.entry(one, one) == ConformalElement({one: -(D + 2 * LAM)})
    # [d1 lam xi1] = xi_empty + lam xi1 d1 (the lambda-term sign follows the
    # double negative in a(f) - (-1)^{p(a)p(f)} lam f a with both odd)
    d1 = w2.index["d1"]
    xi1 = w2.index["xi1"]
    assert w2.entry(d1, xi1) == ConformalElement(
        {one: P_ONE, w2.index["xi1d1"]: LAM}
    )


def test_w_axioms(W):
    for n in range(3):
        assert check_skew(W[n]).ok
        assert check_jacobi(W[n]).ok


@pytest.mark.parametrize("n", range(5))
def test_make_w_hands_each_entry_once(n, monkeypatch):
    """The two terms of [xi_I d_i lam xi_J d_j] that land on one slot (j = i)
    cancel, and make_W puts neither, so Table.from_slots gets each (i, j, k)
    once and every slot it gets is an entry of the table: W_3 hands 567
    slots, not 621."""
    handed = []
    real = LambdaStructure.from_slots.__func__

    def spy(cls, kind, gens, values, slots, *args, **kwargs):
        handed.append(slots)
        return real(cls, kind, gens, values, slots, *args, **kwargs)

    monkeypatch.setattr(LambdaStructure, "from_slots", classmethod(spy))
    W = families.make_W(n)
    slots, = handed
    assert len({slot[:3] for slot in slots}) == len(slots) == len(W.packed[1][1])
    if n == 3:
        assert len(slots) == 567


# -- divergence --------------------------------------------------------------


def test_div_examples(W):
    w2 = W[2]
    one = ConformalElement.gen(w2.index["1"])
    assert div_w(w2, one) == ConformalElement({w2.index["1"]: -D})
    assert div_w(w2, one, Scalar(1)) == ConformalElement(
        {w2.index["1"]: MultiPoly.const(1) - D}
    )
    assert div_w(w2, ConformalElement.gen(w2.index["d1"])).is_zero()


def test_div_of_B_elements(W):
    for n in (2, 3):
        w = W[n]
        for b in sn_basis(n):
            assert div_w(w, embed_sn(b, w)).is_zero(), b.name()


def test_div_identity_b0_and_deformed():
    assert check_div_identity(2).ok
    assert check_div_identity(2, Scalar(1)).ok
    assert check_div_identity(2, Scalar(0, 1)).ok


def test_divergence_writes_no_meta(monkeypatch):
    """div_w, div_module_map and check_div_identity leave W_n's meta the
    record of its construction."""
    built = []

    def make_and_keep_W(n):
        built.append(make_W(n))
        return built[-1]

    monkeypatch.setattr(printed, "make_W", make_and_keep_W)
    w = make_W(2)
    div_w(w, ConformalElement.gen(w.index["xi1d2"]))
    div_module_map(w)
    check_div_identity(2)
    assert len(built) == 1
    for table in (w, *built):
        assert sorted(table.meta) == ["lam_idx", "n", "w_idx"]


def current_action(W, x, svar, g):
    """Action of W_n on Lambda(n)-valued currents, extended sesquilinearly
    term by term: (f d_i) acts by the derivation f d_i(g); a Lambda-part f
    acts by -(d + svar) f g.  The definitional path of _current_action."""
    lam_idx = W.meta["lam_idx"]
    rev = {g: ("lam", m, 0) for m, g in lam_idx.items()}
    rev.update({g: ("w", m, i) for (m, i), g in W.meta["w_idx"].items()})
    sv = MultiPoly.var(svar)
    out = ConformalElement()
    for gd, p in x.terms.items():
        kind, mask, i = rev[gd]
        pl = p.subst_general("d", -sv)
        for gg, q in g.terms.items():
            gkind, gmask, _ = rev[gg]
            if gkind != "lam":
                raise StructureError("current_action target must be a current")
            qr = q.subst_general("d", sv + D)
            c = pl * qr
            if c.is_zero():
                continue
            if kind == "w":
                s, K = _d_mul(mask, i, gmask)
                if s:
                    out = out + ConformalElement({lam_idx[K]: c * s})
            else:
                s = mul_sign(mask, gmask)
                if s:
                    out = out + ConformalElement({lam_idx[mask | gmask]: -(D + sv) * c * s})
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_bracket_over_the_action_table_is_the_current_action(W, n):
    """check_div_identity acts on currents through bracket over
    _current_action's table; on random elements of W_n with coefficients in
    d, acting on random currents, that is the definitional action."""
    w = W[n]
    act = _current_action(w)
    rng = random.Random(n)
    currents = sorted(w.meta["lam_idx"].values())

    def coeff():
        return sum((MultiPoly.monomial({"d": e}, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                    for e in range(1, rng.randint(2, 4))), MultiPoly.const(rng.randint(-2, 2)))

    for _ in range(12):
        x = ConformalElement({g: coeff() for g in rng.sample(range(w.rank), 4)})
        f = ConformalElement({g: coeff() for g in rng.sample(currents, 3)})
        for svar in ("lam", "mu"):
            assert bracket(act, x, f, svar) == current_action(w, x, svar, f)
    vector_field = ConformalElement.gen(w.meta["w_idx"][(0, 1)])
    assert bracket(act, x, vector_field, "lam").is_zero()
    with pytest.raises(StructureError, match="must be a current"):
        current_action(w, x, "lam", vector_field)


# -- S_n ---------------------------------------------------------------------


def test_sn_basis_count():
    assert len(sn_basis(2)) == 2 * 2 ** 2
    assert len(sn_basis(3)) == 3 * 2 ** 3


def test_s2_table_examples(S):
    s2 = S[2]
    # [B_I lam B_J] with overlapping I, J vanishes
    b1, b2 = s2.index["B1"], s2.index["B1"]
    assert s2.entry(b1, b2).is_zero()
    # disjoint: [B lam B1] = lam (2n-|I|-|J|) B_{IJ} + d (n-|I|) B_{IJ}
    b, b1 = s2.index["B"], s2.index["B1"]
    assert s2.entry(b, b1) == ConformalElement(
        {s2.index["B1"]: LAM * 3 + D * 2}
    )
    # [A pair lam A pair] on disjoint supports vanishes
    a12 = s2.index["A_1_2"]
    assert (s2.index["A_1_2"], s2.index["A_1_2"]) in s2.table
    assert s2.entry(a12, a12).is_zero()


def test_s_axioms(S):
    for n in (2, 3):
        assert check_skew(S[n]).ok
        assert check_jacobi(S[n]).ok


def test_s_proposition_diffs_documented(S):
    """The tabulated bracket formulas drop the contributions where a pair
    element's indices meet the partner's support; the diff set is pinned."""
    d2 = proposition_diffs(S[2])
    assert sorted(d2) == sorted([
        "[A_1_2 lam A1_2] @ A1_2: W-path 2 vs formula 1",
        "[A_1_2 lam A2_1] @ A2_1: W-path -2 vs formula -1",
        "[A1_2 lam A_1_2] @ A1_2: W-path -2 vs formula -1",
        "[A2_1 lam A_1_2] @ A2_1: W-path 2 vs formula 1",
    ])
    d3 = proposition_diffs(S[3])
    assert len(d3) == 56
    # every diff involves a pair element; none involves a B element
    for d in d3:
        head = re.match(r"\[(\S+) lam (\S+)\]", d)
        assert not any(x.startswith("B") for x in head.groups())
        assert any(x.count("_") == 2 for x in head.groups())


def test_s_proposition_diffs_run_on_first_read(monkeypatch, S):
    """make_S builds the restriction only: the tabulated formulas are
    evaluated when proposition_diffs reads a table, on every call and on the
    table given, and meta holds the data of the construction."""
    def refuse(*args):
        raise AssertionError("tabulated formulas evaluated during construction")

    with monkeypatch.context() as m:
        m.setattr(printed, "_prop_entry", refuse)
        S3 = make_S(3)
        copy = corrupt_entry(S3, "B", "B", "B", D)
    assert sorted(S3.meta) == ["W", "basis", "embeds", "n"]
    calls = []
    prop_entry = printed._prop_entry
    monkeypatch.setattr(printed, "_prop_entry",
                        lambda *args: calls.append(args) or prop_entry(*args))
    diffs = proposition_diffs(S3)
    assert diffs == proposition_diffs(S[3])
    evaluated = len(calls) // 2
    assert evaluated and len(calls) == 2 * evaluated
    # a copy is compared on its own table, not given its source's verdict
    assert proposition_diffs(copy) != diffs and len(calls) == 3 * evaluated


def test_corrupted_copy_compares_its_own_table(S, CK6):
    """The comparisons read the table they are given, so a corrupted copy
    gets its own diffs: the diffs of the table it was made from plus those of
    the corrupted bracket."""
    bad = corrupt_entry(S[2], "A_1", "A_1", "B", D)
    assert proposition_diffs(bad) == [
        "[A_1 lam A_1] @ B: W-path d vs formula 0"] + proposition_diffs(S[2])
    assert len(proposition_diffs(bad)) == 5 and len(proposition_diffs(S[2])) == 4
    bad = corrupt_entry(CK6, "L", "L", "L", D)
    assert verify_ck6_printed(bad) == [
        "[L lam L]: restriction vs printed",
        "[L lam L]: restriction vs skew of printed"] + verify_ck6_printed(CK6)
    assert len(verify_ck6_printed(bad)) == 44


@pytest.mark.parametrize("make, compare", [(make_CK6, verify_ck6_printed),
                                           (lambda: make_S(2), proposition_diffs)])
def test_restricted_table_is_freed_without_the_cycle_collector(make, compare):
    """A restricted table and its meta make no reference cycle, also after
    its comparison with the tabulated formulas: it is freed as soon as it is
    dropped, without waiting for the cycle collector."""
    gc.disable()
    try:
        S = make()
        assert compare(S)
        table = weakref.ref(S)
        del S
        assert table() is None
    finally:
        gc.enable()


def test_s_proposition_diffs_follow_basis_names():
    """Within one bracket the diffs appear in name order, so the list does
    not depend on the string hash seed."""
    by_pair = {}
    for d in proposition_diffs(make_S(4)):
        pair, at = re.match(r"(\[.+\]) @ (\S+):", d).groups()
        by_pair.setdefault(pair, []).append(at)
    assert sum(map(len, by_pair.values())) == 414
    assert any(len(ats) > 1 for ats in by_pair.values())
    assert all(ats == sorted(ats) for ats in by_pair.values())


def test_span_reader_s_rejects_outsiders(S):
    w2 = S[2].meta["W"]
    read = element_reader(w2, S[2].meta["embeds"])
    # xi_star has no preimage in S_2: no basis element touches it
    with pytest.raises(NotInSpan, match=r"^component on xi12 is outside the span$"):
        read(E(w2, "xi12"))
    # a divergence-full element: xi1 d1 alone is read as A_{1,2}, which
    # leaves -xi2 d2 over
    with pytest.raises(NotInSpan, match=r"^component on xi2d2 is outside the span$"):
        read(E(w2, "xi1d1"))
    # xi12 d1 alone: its divergence d xi2 is not cancelled
    with pytest.raises(NotInSpan, match=r"^component on xi12d1 is outside the span$"):
        read(E(w2, "xi12d1"))


def test_span_reader_s_round_trip(S):
    s2 = S[2]
    read = element_reader(s2.meta["W"], s2.meta["embeds"])
    for j, emb in enumerate(s2.meta["embeds"]):
        assert read(emb) == {j: P_ONE}
        assert read(emb.scale(D + LAM)) == {j: D + LAM}
    assert read(ConformalElement()) == {}


def test_span_reader_needs_a_pivot_order(W):
    """Two elements on the same two rows leave no row to read either from."""
    x, y = E(W[1], "1"), E(W[1], "d1")
    with pytest.raises(StructureError, match="no pivot order"):
        span_reader(W[1], [x + y, x - y])


def test_restricted_constructors_build_one_reader_each(monkeypatch):
    from confcoalg import families

    built = []
    real = restricted.span_reader

    def counted(ambient, embeds):
        built.append(ambient.name)
        return real(ambient, embeds)

    monkeypatch.setattr(restricted, "span_reader", counted)
    for make, ambient in (
        (lambda: make_S(3), "W_3"),
        (lambda: families.make_S_tilde(2), "W_2"),
        (lambda: make_S_b(2, Scalar(0, 1)), "W_2"),
        (families.make_K4prime, "K_4"),
        (make_CK6, "K_6"),
    ):
        built.clear()
        make()
        assert built == [ambient]


def test_restriction_reads_the_ambient_stored_form(monkeypatch):
    """bracket_pairs reads its ambient's stored form, never its rows: with
    every row view refused, the brackets of elements of W_1 equal those
    bracket takes from the rows, and the restricted families store what they
    store with the rows readable, so an ambient never builds its rows."""
    from helpers import element_pairs

    W1 = make_W(1)
    xs = [E(W1, "1").scale(D + P_ONE) + E(W1, "d1"), E(W1, "xi1"), E(W1, "xi1d1").scale(D * D)]
    want = {(a, b): bracket(W1, x, y, "lam") for a, x in enumerate(xs) for b, y in enumerate(xs)}
    makes = {"S_2": lambda: make_S(2), "S~_2": lambda: families.make_S_tilde(2),
             "S_2,b": lambda: make_S_b(2, Scalar(0, 1)), "K_4'": families.make_K4prime,
             "CK_6": make_CK6}
    stored = {name: make().packed for name, make in makes.items()}

    def refuse(self):
        raise AssertionError("a row view was read")

    monkeypatch.setattr(tables.LambdaStructure, "table", property(refuse))
    assert dict(element_pairs(make_W(1), xs)) == want
    for name, make in makes.items():
        assert make().packed == stored[name], name


# -- S_{n,b} and S~_n --------------------------------------------------------


def test_sb_ranks_and_axioms(S2b):
    for key, sb in S2b.items():
        assert sb.rank == 2 * 2 ** 2
        assert check_skew(sb).ok
        assert check_jacobi(sb).ok


def test_sb0_matches_s2_after_base_change(S, S2b):
    """Brackets of the kernel basis of div_0 computed through the S_2 table
    agree with the direct W_2 computation."""
    s2 = S[2]
    sb = S2b["0"]
    W2 = s2.meta["W"]
    assert W2.meta["n"] == sb.meta["W"].meta["n"]
    Wb = sb.meta["W"]
    table_embeds = s2.meta["embeds"]
    read = element_reader(Wb, table_embeds)
    for a in range(sb.rank):
        for c in range(sb.rank):
            direct = bracket(Wb, sb.meta["embeds"][a], sb.meta["embeds"][c], "lam")
            ca = read(sb.meta["embeds"][a])
            cc = read(sb.meta["embeds"][c])
            via = ConformalElement()
            for ia, pa in ca.items():
                for ic, pc in cc.items():
                    pa_l = pa.subst_general("d", -LAM)
                    pc_r = pc.subst_general("d", LAM + D)
                    for k, P in s2.table[(ia, ic)]:
                        via = via + table_embeds[k].scale(pa_l * pc_r * P)
            assert (direct - via).is_zero(), (a, c)


def _sb_basis(W, b):
    """An explicit basis of S_{n,b} in W = W_n: A and A2 as embed_sn writes
    them, and B_I^b = (|I| - n) xi_I + (d - b) sum_{i not in I} mul_sign(I,
    {i}) xi_{I+i} d_i, S_n's B with its d replaced by d - b."""
    n, w_idx, lam_idx = W.meta["n"], W.meta["w_idx"], W.meta["lam_idx"]
    out = []
    for el in sn_basis(n):
        if el.tag != "B":
            out.append(embed_sn(el, W))
            continue
        I = el.mask
        terms = {lam_idx[I]: MultiPoly.const(I.bit_count() - n)}
        for i in members(~I & ((1 << n) - 1)):
            terms[w_idx[(I | 1 << i - 1, i)]] = (D - MultiPoly.const(b)) * mul_sign(I, 1 << i - 1)
        out.append(ConformalElement(terms))
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_sb_explicit_basis_spans_what_the_kernel_basis_spans(n):
    """div_b kills every element of the explicit basis, which spans over C[d]
    the module that make_S_b's kernel basis spans: each basis reads every
    element of the other through span_reader, exactly, with no NotInSpan.
    At b = 0 it is make_S's basis, so make_S(n) and make_S_b(n, 0) restrict
    the same submodule of W_n."""
    for b in (Scalar(0), Scalar(1), Scalar(0, 1), Scalar(3, -2)):
        machine = make_S_b(n, b)
        W, kernel = machine.meta["W"], machine.meta["embeds"]
        explicit = _sb_basis(W, b)
        assert all(div_w(W, x, b).is_zero() for x in explicit), b
        for basis, other in ((explicit, kernel), (kernel, explicit)):
            read = element_reader(W, basis)
            for x in other:
                spanned = ConformalElement()
                for j, p in read(x).items():
                    spanned = spanned + basis[j].scale(p)
                assert spanned == x, b
    assert _sb_basis(make_W(n), Scalar(0)) == make_S(n).meta["embeds"]


def test_stilde_rank_and_axioms(Stilde2):
    assert Stilde2.rank == 8
    assert check_skew(Stilde2).ok
    assert check_jacobi(Stilde2).ok


def test_stilde_does_not_build_s(Stilde2, monkeypatch):
    from confcoalg import families

    monkeypatch.setattr(families, "make_S", None)
    assert families.make_S_tilde(2).table == Stilde2.table


def test_stilde_needs_even_n():
    from confcoalg.families import make_S_tilde

    with pytest.raises(StructureError):
        make_S_tilde(3)


# -- K_n, K_4', CK_6 ---------------------------------------------------------


def test_k_ranks_and_examples(K):
    for n in range(7):
        assert K[n].rank == 2 ** n
    k2 = K[2]
    one = k2.index["1"]
    assert k2.entry(one, one) == ConformalElement({one: -2 * D - 4 * LAM})
    xi1 = k2.index["xi1"]
    assert k2.entry(xi1, xi1) == ConformalElement({one: MultiPoly.const(-1)})


def test_k_axioms_small(K):
    for n in range(4):
        assert check_skew(K[n]).ok
        assert check_jacobi(K[n]).ok


def test_k4prime_structure(K4p):
    assert K4p.rank == 16
    i = K4p.index["dxistar"]
    assert K4p.entry(i, i).is_zero()
    assert K4p.entry(i, K4p.index["1"]) == ConformalElement({i: -2 * LAM})
    # [d xi_star lam xi_j] = -lam d_j xi_star
    assert K4p.entry(i, K4p.index["xi1"]) == ConformalElement(
        {K4p.index["xi234"]: -LAM}
    )
    assert K4p.entry(i, K4p.index["xi2"]) == ConformalElement(
        {K4p.index["xi134"]: LAM}
    )
    for nm in ("xi12", "xi123"):
        assert K4p.entry(i, K4p.index[nm]).is_zero()


def test_k4prime_axioms(K4p):
    assert check_skew(K4p).ok
    assert check_jacobi(K4p).ok


def test_ck6_rank_weights_and_examples(CK6):
    assert CK6.rank == 32
    L = CK6.index["L"]
    assert CK6.entry(L, L) == ConformalElement({L: 2 * LAM + D})
    # restriction weights 3/2, 1, 1/2 on degrees 1, 2, 3
    from fractions import Fraction

    for nm, w in (("C1", Fraction(3, 2)), ("C12", Fraction(1)),
                  ("C123", Fraction(1, 2))):
        g = CK6.index[nm]
        assert CK6.entry(L, g) == ConformalElement(
            {g: LAM.scalar_mul(w) + D}
        )
    c1 = CK6.index["C1"]
    assert CK6.entry(c1, c1) == ConformalElement({L: MultiPoly.const(2)})
    assert CK6.entry(CK6.index["C123"], CK6.index["C145"]).is_zero()


def test_ck6_printed_diffs_are_the_weight_transposition(CK6):
    diffs = verify_ck6_printed(CK6)
    assert len(diffs) == 42
    for d in diffs:
        m = re.match(r"\[(\S+) lam (\S+)\]", d)
        a, b = m.groups()
        pair = {a, b}
        assert "L" in pair
        other = (pair - {"L"}).pop() if pair != {"L"} else "L"
        assert other != "L" and len(other) in (2, 3)  # C_i or C_ij only


def test_ck6_printed_check_runs_on_first_read(monkeypatch):
    """make_CK6 never runs the printed check; verify_ck6_printed runs it on
    the table it is given, each time it is called."""
    calls = []
    verify = printed.verify_ck6_printed
    monkeypatch.setattr(printed, "verify_ck6_printed",
                        lambda S: calls.append(S.name) or verify(S))
    S = make_CK6()
    copy = corrupt_entry(S, "L", "L", "L", D)
    assert calls == [] and sorted(S.meta) == ["K6", "embeds", "tuples"]
    assert len(printed.verify_ck6_printed(S)) == 42 and calls == ["CK_6"]
    assert len(printed.verify_ck6_printed(copy)) == 44
    assert calls == ["CK_6", "CK_6?"]


def test_ck6_axioms(CK6):
    assert check_skew(CK6).ok


def test_span_reader_ck6(CK6):
    K6 = CK6.meta["K6"]
    lam_idx = K6.meta["lam_idx"]
    read = element_reader(K6, CK6.meta["embeds"])
    L, C123 = CK6.index["L"], CK6.index["C123"]
    # xi_empty - beta d^3 xi_star = -2 L
    x = ConformalElement({
        lam_idx[0]: P_ONE,
        lam_idx[(1 << 6) - 1]: MultiPoly.monomial({"d": 3}, -Scalar.beta()),
    })
    assert read(x) == {L: MultiPoly.const(-2)}
    # C_456 = beta (-1)^alpha({4,5,6},{1,2,3}) C_123 = -beta C_123
    from confcoalg.grassmann import IndexSet, hodge

    t = IndexSet(6, (4, 5, 6))
    h = hodge(t)
    c456 = ConformalElement({
        lam_idx[t.mask]: P_ONE,
        lam_idx[h.idxset.mask]: MultiPoly.const(Scalar.beta() * Scalar(h.sign)),
    })
    assert read(c456) == {C123: MultiPoly.const(-Scalar.beta())}
    assert read(ConformalElement()) == {}
    # xi_empty alone is read as -2 L, which leaves beta d^3 xi_star over
    with pytest.raises(NotInSpan, match=r"^component on xi123456 is outside the span$"):
        read(ConformalElement.gen(lam_idx[0]))


# -- Jordan families ---------------------------------------------------------


def test_jn_ranks_and_products(Jn):
    for n in (0, 1, 2, 3):
        assert Jn[n].rank == 2 * 2 ** n
    j2 = Jn[2]
    th = j2.index["th"]
    one = j2.index["1"]
    # theta la theta = -4 lam - 2 d on the unit
    assert j2.entry(th, th) == ConformalElement({one: -4 * LAM - 2 * D})
    # (xi1 th) la (xi2 th) picks up the swapped-derivative contact term
    a = j2.index["xi1th"]
    b = j2.index["xi2th"]
    assert j2.entry(a, b) == ConformalElement({
        j2.index["xi12"]: 2 * LAM + D,
        one: P_ONE,
    })


def test_js1_table(JS1):
    s, t = JS1.index["S"], JS1.index["T"]
    assert JS1.entry(s, s) == ConformalElement({s: MultiPoly.const(2)})
    assert JS1.entry(t, t) == ConformalElement({s: 2 * LAM + D})
    assert JS1.entry(t, s) == ConformalElement({t: P_ONE})
    assert JS1.entry(s, t) == ConformalElement({t: P_ONE})


def test_jck4_products(JCK4):
    w3 = JCK4.index["w3"]
    assert JCK4.entry(w3, w3) == ConformalElement(
        {JCK4.index["one"]: MultiPoly.const(-1)}
    )
    w1, x2 = JCK4.index["w1"], JCK4.index["x2"]
    assert JCK4.entry(w1, x2) == ConformalElement(
        {JCK4.index["x3"]: MultiPoly.const(-1)}
    )
    w1x = JCK4.entry(w1, JCK4.index["x"])
    assert w1x == ConformalElement({JCK4.index["x1"]: LAM})
    x, x1 = JCK4.index["x"], JCK4.index["x1"]
    assert JCK4.entry(x, x) == ConformalElement(
        {JCK4.index["one"]: 2 * LAM + D}
    )
    assert JCK4.entry(x1, x) == ConformalElement({w1: P_ONE})
    assert JCK4.entry(x, x1) == ConformalElement({w1: MultiPoly.const(-1)})


@pytest.mark.parametrize("t", [(2, 1), (1, 1), (3, 7), (0, 2)])
def test_ck6_embed_rejects_unsorted_repeated_or_out_of_range(CK6, t):
    with pytest.raises(ValueError):
        ck6_embed(t, CK6.meta["K6"])
