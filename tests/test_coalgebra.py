"""Dualization, tensor calculus with Koszul signs, the co-axioms, and the
JSON documents of tables, coproducts and reports."""

import hashlib
import importlib
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from confcoalg import closed_form, families, poly, serialize
from confcoalg.cli import _emit, main
from confcoalg.coalgebra import (
    TensorElement, apply_delta_slot, check_jordan_coalgebra, check_lie_coalgebra,
    compare, double_dual_roundtrip, dualize, tau, zeta,
)
from confcoalg.dual import DiffLine, DiffReport
from confcoalg.families import make_vir
from confcoalg.poly import D, LAM, MultiPoly, P_ONE, Scalar, X1, X2
from confcoalg.tables import Coproduct, Generator, LambdaStructure, StructureError

from helpers import compare_oracle, count_calls, random_poly, rows_of


def test_dualize_vir(vir):
    c = dualize(vir)
    assert c.generators[0].id == "L*"
    assert rows_of(c)[0] == [(0, 0, X1 - X2)]


def test_dualize_reindexes(cur_sl2):
    c = dualize(cur_sl2)
    h = c.index["h*"]
    e = c.index["e*"]
    f = c.index["f*"]
    assert rows_of(c)[h] == [(e, f, P_ONE), (f, e, MultiPoly.const(-1))]


# sha256 of serialize.dumps(dualize(S)) of every family table at every n the
# CLI caps allow (cli.FAMILIES; S_{2,b} at the three b of the fixtures),
# recorded before dualize renamed each distinct entry polynomial once, and
# again when documents began to keep each generator's LaTeX name; the duals
# must not change by a byte
DUALIZE_DUMPS = {
    ("make_vir", ()): "bedbe119b08c14c8708c5730b77a931b3942713299e9d997169bc590ad62cace",
    ("make_cur_sl2", ()): "d0c302aed8dc3834423d03cf22ca78ee9c9097c1bb615915fbe60f36674c9018",
    ("make_cur_jordan_unit", ()): "9b6fbf8075523e7a5a40ea010cf65bbc6bc7168237f5338c5cbc8720d45d6e11",
    ("make_W", (0,)): "46d2ac0fd51aaacbe83ff79fab287f1500bf95b12c7dedbe8157af1d086e530e",
    ("make_W", (1,)): "252cb2b8a3f202a969d812a10d63efa6fec14d631159898836698be48a11d731",
    ("make_W", (2,)): "cab8b7b6fdf3d66c1af1a4260c391a18339d2a04f30d3a2b7886000a7c032284",
    ("make_W", (3,)): "e88736c821b7d8f945ebc7a71c271ad61afe4d9f24a8f03bb94f5178251eaae5",
    ("make_W", (4,)): "76f28d973f9dedc1826a0cdf81f0b48f80d881386c327fb2e309a7b60dd0a458",
    ("make_K", (0,)): "514ce93202162f53b0f6edb11d158a8aadd8ed951a272af1a3cde2c828ab9e89",
    ("make_K", (1,)): "2304c33446a02db05eebcd047f19e9c59546c04c5943799bd12c560781ef7d13",
    ("make_K", (2,)): "077e5a46a00f58fc185be71939fe78d4bae5cb5901cdda72269b2f2de56de14a",
    ("make_K", (3,)): "f7e98bdbf1341c6a2a10614fac9f4dfbfbe1df35cb0aa8ffba20c29e6ffc9a72",
    ("make_K", (4,)): "b448f62ece7ffbdde7e926ac481294164f1dde0e6c474126fe08f65ba86256e9",
    ("make_K", (5,)): "430f533f66bd31b94879d4adb44b934579bf697a8b257321194a3191a08e7800",
    ("make_K", (6,)): "06b27173dceba16d6a2811aafa30e882592dac874ff853f35be1834f75775364",
    ("make_Jn", (0,)): "e1d3b38c2952aa874c9aa9e9de97fd5ea367729c96cceba60a3f512444c0237b",
    ("make_Jn", (1,)): "3bc3055a9e8b0fbbe4161d3ec26daa0b4d69260634fcde728aced07e780590b7",
    ("make_Jn", (2,)): "e94306b555f53606b96d9c6c7124a6f1159877b88a493115bed8b0e344802a96",
    ("make_Jn", (3,)): "0d8d06a9fb7ee4b7ca12273ecc4fb02b276da9d4d3511ff5cc31e3fbc696a08f",
    ("make_S", (2,)): "e79ce52b96a78f46166b53ed075b96a6c3dca5706614f0d1704c2a68e7be61ba",
    ("make_S", (3,)): "3bf77abbdcfc73989a4eda2b5b0461b6f5fe16a2e1f9db81988a3f74361ccb16",
    ("make_S_b", (2, Scalar(0))): "c7c4e9b79158d402e8ae1b99d267bf6596efe871f4b9dba44f9980f38fdb42fb",
    ("make_S_b", (2, Scalar(1))): "ddff4b6c0bde7934163a1e0577191c7eb1ce1d282748013b1f73937d4d34c980",
    ("make_S_b", (2, Scalar(0, 1))): "4413387bb02e17edaf3d88a0a3238e1e788c6cb2f9088e7b47e33228cded62d4",
    ("make_S_tilde", (2,)): "8eb19230b797e360dd389c654b072c70a96a72884e56161a8fa825ec2cd3f69e",
    ("make_K4prime", ()): "5237cc77efae1aadf5cb93af12dc7309a8d6b72ae69edbcc69adc02d0a511f6a",
    ("make_CK6", ()): "772ee1c093ca82636526dd62e7277be6e0629da177532dc872a080abc1dabe92",
    ("make_JS1", ()): "9423c02da1a93d6ab72f678e287b1ad9d96a1a2f528cfc0a64c78f3761721235",
    ("make_JCK4", ()): "bea7b07a263b4fb3e3ff9650b599ffc0671fe07014921596889b380835a0ad32",
}


@pytest.mark.parametrize("make, args", list(DUALIZE_DUMPS),
                         ids=[f"{make}{args}" for make, args in DUALIZE_DUMPS])
def test_dualize_output_pinned(make, args):
    S = getattr(families, make)(*args)
    cop = dualize(S)
    text = serialize.dumps(cop)
    assert hashlib.sha256(text.encode()).hexdigest() == DUALIZE_DUMPS[make, args]
    # the stored form holds each distinct value once, as a table's does, and
    # its values share no polynomial or term dict with S or with a second
    # dualize call
    values = cop._values()
    assert len(set(values)) == len(values)
    assert len({id(q.terms) for q in values}) == len(values)

    def owned(objects):
        return {id(x) for p in objects for x in (p, p.terms)}

    others = [p for row in S.table.values() for _, p in row] + dualize(S)._values()
    assert not owned(values) & owned(others)


def _rand_tensor(rng, cop, arity):
    pars = tuple(g.parity for g in cop.generators)
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        key = tuple(rng.randrange(cop.rank) for _ in range(arity))
        terms[key] = random_poly(rng, nvars=arity + 4)
    return TensorElement(arity, terms, pars)


def test_tau_involution_and_signs(JS1):
    cop = dualize(JS1)
    rng = random.Random(9)
    for _ in range(100):
        t = _rand_tensor(rng, cop, 2)
        assert tau(tau(t, 1), 1) == t
    # odd (x) odd picks up a sign: T* is odd
    tt = TensorElement(2, {(1, 1): P_ONE}, (0, 1))
    assert tau(tt, 1) == TensorElement(2, {(1, 1): MultiPoly.const(-1)}, (0, 1))
    # even (x) even: the slot variable follows its factor
    ss = TensorElement(2, {(0, 0): X1}, (0, 1))
    assert tau(ss, 1) == TensorElement(2, {(0, 0): X2}, (0, 1))


def zeta_via_tau(t):
    """zeta as two adjacent swaps; cross-checks the closed-form sign of zeta."""
    return tau(tau(t, 1), 2)


def test_zeta_matches_two_swaps(JCK4):
    cop = dualize(JCK4)
    rng = random.Random(10)
    for _ in range(200):
        t = _rand_tensor(rng, cop, 4)
        assert zeta(t) == zeta_via_tau(t)
    # zeta cubed is the identity on the first three slots
    for _ in range(50):
        t = _rand_tensor(rng, cop, 4)
        assert zeta(zeta(zeta(t))) == t


def test_apply_delta_slot_vir(vir):
    cop = dualize(vir)
    seed = TensorElement.seed(0, cop)
    d1 = apply_delta_slot(seed, cop, 1)
    assert d1 == TensorElement(2, {(0, 0): X1 - X2}, (0,))
    # expanding d-weighted elements: the slot variable splits
    weighted = TensorElement(1, {(0,): X1 * X1}, (0,))
    d2 = apply_delta_slot(weighted, cop, 1)
    assert d2.terms[(0, 0)] == (X1 + X2) * (X1 + X2) * (X1 - X2)


def test_apply_delta_slot_coderivation(W):
    # expanding a d-multiplied seed equals (x_s + x_{s+1}) times the expansion
    cop = dualize(W[1])
    rng = random.Random(13)
    for _ in range(40):
        g = rng.randrange(cop.rank)
        seed = TensorElement(1, {(g,): P_ONE}, tuple(x.parity for x in cop.generators))
        dseed = TensorElement(1, {(g,): X1}, seed.parities)
        lhs = apply_delta_slot(dseed, cop, 1)
        rhs = apply_delta_slot(seed, cop, 1).scale(X1 + X2)
        assert lhs == rhs


def test_arity_overflow():
    cop = dualize(make_vir())
    t = TensorElement(4, {(0, 0, 0, 0): P_ONE}, (0,))
    with pytest.raises(StructureError):
        apply_delta_slot(t, cop, 1)
    with pytest.raises(StructureError):
        tau(t, 4)


def test_lie_coalgebra_vir_and_w2(vir, W):
    assert check_lie_coalgebra(dualize(vir)).ok
    assert check_lie_coalgebra(dualize(W[2])).ok


def test_corrupted_vir_antisymmetry():
    # Q = x1 + x2 on identical even factors is tau-symmetric, so it fails
    gens = [Generator("L*", 0)]
    bad = Coproduct("lie", gens, {0: [(0, 0, X1 + X2)]}, name="bad")
    rep = check_lie_coalgebra(bad)
    assert not rep.ok
    assert rep.violations[0].where == ("L*", "antisymmetry")


def test_jordan_coalgebra(JS1, Jn):
    assert check_jordan_coalgebra(dualize(JS1)).ok
    with pytest.raises(StructureError):
        check_jordan_coalgebra(dualize(make_vir()))
    # J_0 and J_1 dualize to honest Jordan coalgebras
    assert check_jordan_coalgebra(dualize(Jn[0])).ok
    assert check_jordan_coalgebra(dualize(Jn[1])).ok


def test_double_dual_roundtrip_families(vir, W, K, JS1):
    for S in (vir, W[2], K[3], JS1):
        assert double_dual_roundtrip(S).ok


def test_double_dual_roundtrip_substitutes_each_distinct_value_once(monkeypatch, K):
    """Two subst_general calls and one comparison per distinct entry value,
    none per entry: K_6 has 2,097 entries and 31 distinct polynomials, and
    the first substitution of each value is made on that value."""
    S = K[6]
    values = {p for row in S.table.values() for _, p in row}
    calls = count_calls(monkeypatch, MultiPoly, "subst_general")
    compared = count_calls(monkeypatch, MultiPoly, "__eq__")
    rep = double_dual_roundtrip(S)
    assert (rep.total, rep.ok, len(values), len(calls), len(compared)) == (2097, True, 31, 62, 31)
    firsts = [p for p, *_ in calls[::2]]
    assert len(set(firsts)) == len(firsts) and set(firsts) == values


def test_double_dual_roundtrip_random_tables():
    rng = random.Random(21)
    img = -LAM - D
    checked = 0
    for _ in range(10_000):
        p = random_poly(rng, nvars=4)
        assert p.subst_general("d", img).subst_general("d", img) == p
        checked += 1
    assert checked == 10_000


@pytest.mark.parametrize("var", ["x3", "lam"])
def test_coproduct_rejects_stray_variables(var):
    gens = [Generator("L*", 0)]
    with pytest.raises(StructureError, match=f"uses {var}; "):
        Coproduct("lie", gens, {0: [(0, 0, X1 - MultiPoly.var(var))]}, name="bad")


def test_coproducts_with_the_same_sums_write_one_document():
    """Two coproducts with the same sums, given in other orders, write the
    same document, whose writers sort each row's pairs by id; their stored
    forms keep the order of first occurrence, so their rows are equal as
    sets, not as lists."""
    gens = [Generator("a*", 0), Generator("b*", 0)]
    first = Coproduct("lie", gens, {0: [(0, 1, X1), (1, 0, X2)]})
    second = Coproduct("lie", gens, {0: [(1, 0, X2), (0, 1, X1)]})
    assert serialize.dumps(first) == serialize.dumps(second)
    assert first.packed != second.packed and rows_of(first) != rows_of(second)
    assert {k: set(row) for k, row in rows_of(first).items()} == {
        k: set(row) for k, row in rows_of(second).items()}


def test_coproduct_merges_each_pair_once():
    """Repeated pairs are summed in order of first occurrence, a pair that
    cancels is dropped, and a pair given once keeps its value; the stored
    form holds the value, not the object."""
    gens = [Generator("a*", 0), Generator("b*", 0)]
    once = X1 - X2
    C = Coproduct("lie", gens, {
        0: [(0, 1, X1), (1, 1, once), (0, 1, X2), (1, 0, X1), (1, 0, -X1)],
        1: [(0, 0, X2), (0, 0, -X2)],
    }, name="merged")
    assert rows_of(C) == {0: [(0, 1, X1 + X2), (1, 1, once)], 1: []}
    assert rows_of(C)[0][1][2] == once and rows_of(C)[0][1][2] is not once
    assert serialize.dumps(C) == serialize.dumps(
        Coproduct("lie", gens, {0: [(1, 1, once), (0, 1, X2 + X1)]}, name="merged"))


def test_coproduct_checks_each_polynomial_object_once():
    """A pair given once keeps its value, and the stored form holds each
    value once; the variables of each distinct object are checked at its
    first pair, which names it in the message, when it is shared by several
    pairs or first met on a later row, and the parity of every pair is checked."""
    class Scanned(dict):
        """Terms that count how often they are walked."""
        walks = 0

        def __iter__(self):
            Scanned.walks += 1
            return super().__iter__()

    gens = [Generator("a*", 0), Generator("b*", 0), Generator("t*", 1)]
    good, bad = MultiPoly(Scanned((X1 - X2).terms)), X1 - MultiPoly.var("x3")
    C = Coproduct("lie", gens, {0: [(0, 1, good), (1, 0, good)], 1: [(1, 1, good)]}, name="ok")
    assert rows_of(C) == {0: [(0, 1, good), (1, 0, good)], 1: [(1, 1, good)], 2: []}
    assert len(C.packed[1][0]) == 1
    assert Scanned.walks == 1
    cases = [
        ({0: [(0, 0, good), (0, 1, bad), (1, 1, bad)]}, r"^delta\(a\*\) @ a\* \(x\) b\* uses x3; "),
        ({0: [(0, 0, good)], 1: [(0, 1, good), (1, 0, bad), (1, 1, bad)]},
         r"^delta\(b\*\) @ b\* \(x\) a\* uses x3; "),
        ({0: [(0, 0, good), (0, 2, good)]}, r"^parity violation in delta\(a\*\)$"),
    ]
    for table, message in cases:
        with pytest.raises(StructureError, match=message):
            Coproduct("lie", gens, table, name="bad")
    # a repeated pair of one object still merges, and a zero entry is dropped
    C = Coproduct("lie", gens, {0: [(0, 1, good), (0, 1, good)],
                                1: [(0, 0, good), (1, 0, MultiPoly.zero())]}, name="merged")
    assert rows_of(C) == {0: [(0, 1, 2 * good)], 1: [(0, 0, good)], 2: []}


def test_coproduct_rejects_out_of_range_indices():
    """A row or a pair index outside the generators is an error, not a dropped
    row or a Python negative index."""
    gens = [Generator("L*", 0)]
    cases = [
        ({3: [(0, 0, X1 - X2)]}, r"^delta row 3 is not a generator index in range\(1\)$"),
        ({-1: []}, r"^delta row -1 is not"),
        ({0: [(-1, -1, X1 - X2)]}, r"^delta\(L\*\) names the pair \(-1, -1\), not in range\(1\)$"),
        ({0: [(0, 0, X1), (0, 1, X2)]}, r"^delta\(L\*\) names the pair \(0, 1\), not in range\(1\)$"),
    ]
    for table, message in cases:
        with pytest.raises(StructureError, match=message):
            Coproduct("lie", gens, table, name="bad")


def test_coproduct_rejects_unknown_kind():
    with pytest.raises(StructureError, match="unknown kind 'lei'"):
        Coproduct("lei", [Generator("L*", 0)], {}, name="bad")


def test_repeated_generator_row_is_rejected():
    doc = json.loads(serialize.dumps(dualize(make_vir())))
    doc["table"].append({"gen": "L*", "pairs": []})
    with pytest.raises(StructureError, match=r"^table row 1 repeats the generator L\*$"):
        serialize.loads(json.dumps(doc))


def test_compare_identity_and_perturbation(vir):
    c = dualize(vir)
    assert compare(c, c).ok
    other = Coproduct(
        "lie", c.generators, {0: [(0, 0, X1 - X2 + P_ONE)]}, name="pert"
    )
    rep = compare(c, other)
    assert len(rep.lines) == 1
    assert rep.lines[0].gen == "L*"


def test_compare_rejects_generator_mismatch(vir, JS1):
    with pytest.raises(StructureError):
        compare(dualize(vir), dualize(JS1))


# the 23 criterion-4 pairs: (family constructor, closed_form emitter, arguments)
CRITERION_4 = [
    ("make_vir", "coproduct_vir", ()), ("make_cur_sl2", "coproduct_cur_sl2", ()),
    *(("make_W", "coproduct_W", (n,)) for n in range(4)),
    *(("make_S", "coproduct_S", (n,)) for n in (2, 3)),
    *(("make_K", "coproduct_K", (n,)) for n in range(1, 7)),
    *(("make_K", "coproduct_N", (n,)) for n in (2, 3, 4)),
    ("make_K4prime", "coproduct_K4prime", ()), ("make_CK6", "coproduct_CK6", ()),
    *(("make_Jn", "coproduct_Jn", (n,)) for n in (2, 3)),
    ("make_JS1", "coproduct_JS1", ()), ("make_JCK4", "coproduct_JCK4", ()),
]


def _crosscheck(make, emitter, args):
    """(the machine dual, the closed form) of a criterion-4 pair, built fresh."""
    return dualize(getattr(families, make)(*args)), getattr(closed_form, emitter)(*args)


def _rebuilt(C, order=None, edit=None):
    """A Coproduct with C's rows, its generators listed in order (a list of
    C's indices; C's order by default), after edit(rows) changed the rows,
    {k: {(i, j): q}} in C's indices, in place."""
    rows = {k: {(i, j): q for i, j, q in row} for k, row in rows_of(C).items()}
    if edit is not None:
        edit(rows)
    order = list(range(C.rank)) if order is None else order
    at = {old: new for new, old in enumerate(order)}
    table = {at[k]: [(at[i], at[j], q) for (i, j), q in row.items()] for k, row in rows.items()}
    return Coproduct(C.kind, [C.generators[k] for k in order], table, C.name + "'")


def test_compare_matches_the_row_oracle_on_criterion_4():
    """compare reads the stored forms; its report is the row-by-row one,
    lines, order and text, on every criterion-4 pair in both orders."""
    assert len(CRITERION_4) == 23
    for make, emitter, args in CRITERION_4:
        dual, formula = _crosscheck(make, emitter, args)
        for a, b in ((dual, formula), (formula, dual)):
            assert compare(a, b) == compare_oracle(a, b), (emitter, args)


@pytest.mark.parametrize("make, emitter, args", [
    ("make_S", "coproduct_S", (3,)), ("make_CK6", "coproduct_CK6", ()),
    ("make_K", "coproduct_N", (4,)), ("make_JCK4", "coproduct_JCK4", ()),
])
def test_compare_maps_generators_by_id(make, emitter, args):
    """A closed form whose generators are listed in another order has the
    report of the row-by-row oracle, on either side."""
    dual, formula = _crosscheck(make, emitter, args)
    shuffled = _rebuilt(formula, order=random.Random(7).sample(range(formula.rank), formula.rank))
    assert shuffled.generators != formula.generators
    for a, b in ((dual, shuffled), (shuffled, dual), (formula, shuffled)):
        assert compare(a, b) == compare_oracle(a, b), emitter
    assert compare(formula, shuffled).ok


@pytest.mark.parametrize("make, emitter, args", [
    ("make_K", "coproduct_K", (3,)), ("make_S", "coproduct_S", (3,)),
    ("make_CK6", "coproduct_CK6", ()), ("make_K", "coproduct_N", (4,)),
    ("make_JCK4", "coproduct_JCK4", ()),
])
def test_compare_matches_the_row_oracle_on_seeded_changes(make, emitter, args):
    """One entry changed, one pair added or one pair removed, on either side,
    gives the oracle's report.  The changes bring fifths, halves and beta,
    so the two stored forms have different common denominators L, and
    their equal pairs must still compare equal."""
    dual, formula = _crosscheck(make, emitter, args)
    values = [MultiPoly.const(Fraction(1, 5)), X1 * Fraction(-2, 5) + X2,
              MultiPoly.const(Scalar(0, 1)), X2 * Scalar(Fraction(1, 2), 1)]
    n, par = formula.rank, formula.parities
    scales, rows = set(), rows_of(formula)
    for seed in range(6):
        rng = random.Random(seed)
        k = rng.choice([k for k in range(n) if rows[k]])
        i, j, q = rng.choice(rows[k])
        taken = {(u, v) for u, v, _ in rows[k]}
        free = [(u, v) for u in range(n) for v in range(n)
                if (par[u] + par[v]) % 2 == par[k] and (u, v) not in taken]
        new, value = rng.choice(free), rng.choice(values)
        edits = {
            "changed": lambda rows: rows[k].__setitem__((i, j), q + value),
            "added": lambda rows: rows[k].__setitem__(new, value),
            "removed": lambda rows: rows[k].pop((i, j)),
        }
        for what, edit in edits.items():
            seeded = _rebuilt(formula, edit=edit)
            scales.add((dual.packed[0], seeded.packed[0]))
            for a, b in ((dual, seeded), (seeded, dual), (formula, seeded), (seeded, formula)):
                assert compare(a, b) == compare_oracle(a, b), (emitter, seed, what)
            assert len(compare(formula, seeded).lines) == 1, (emitter, seed, what)
    assert any(La != Lb for La, Lb in scales), scales


def _bench_workloads():
    """bench/workloads.py: the families and crosschecks the benchmark runs."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)


def test_json_writer_on_every_benchmark_document(capsys):
    """Every document the package writes is json.dumps(doc, indent=2): the
    benchmark's tables, their duals, its crosscheck reports, and the verify
    and crosscheck documents of the CLI, violations included.  dumps, whose
    terms share equal "poly" lists, writes the document its text reads back
    to, which gives each term a list of its own."""
    wl = _bench_workloads()
    lib = SimpleNamespace(poly=poly, families=families)
    tables = {name: wl.build_table(lib, name) for name in wl.FAMILIES}
    docs = []
    for S in tables.values():
        for T in (S, dualize(S)):
            doc = json.loads(serialize.dumps(T))
            polys = [t["poly"] for row in doc["table"] for t in row.get("terms", row.get("pairs"))]
            assert len(set(map(id, polys))) == len(polys), T.name
            assert serialize.dumps(T) == json.dumps(doc, indent=2), T.name
            docs.append(doc)
    docs += [compare(dualize(tables[key]), getattr(closed_form, emitter)(*args)).to_json()
             for _, key, emitter, args in wl.CROSSCHECKS]
    for doc in docs:
        assert serialize._json_text(doc) == json.dumps(doc, indent=2)
    for argv in (("verify", "--family", "vir"),
                 ("verify", "--family", "Jn", "--n", "2"),
                 ("verify", "--family", "JCK4", "--checks", "jordan-id,crosscheck"),
                 ("crosscheck", "--family", "S", "--n", "3"),
                 ("crosscheck", "--family", "W", "--n", "2")):
        main([*argv, "--format", "json"])
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_diff_records_keep_their_dataclass_behaviour():
    line = DiffLine("L*", "L*", "L*", "x1", "x2")
    assert repr(line) == "DiffLine(gen='L*', left='L*', right='L*', got='x1', expected='x2')"
    assert str(line) == "delta(L*) @ L* (x) L*: x1  !=  x2"
    rep = DiffReport("Vir*", "Vir-closed", [line])
    assert repr(rep) == ("DiffReport(name_a='Vir*', name_b='Vir-closed', lines=[DiffLine("
                         "gen='L*', left='L*', right='L*', got='x1', expected='x2')])")
    assert rep == DiffReport(name_a="Vir*", name_b="Vir-closed", lines=[line])
    assert line != DiffLine("L*", "L*", "L*", "x1", "x1")
    a, b = DiffReport("a", "b"), DiffReport("a", "b")
    assert a == b and a.lines is not b.lines
    for record in (line, rep):
        with pytest.raises(TypeError):
            hash(record)


# -- the stored form: one per table, rows as its view, dualize as a relabelling


def _family_tables():
    """Every cli.FAMILIES table at its cap, or its largest allowed or only n,
    and a corrupt_entry copy of each, whose (a_0, a_0) entry is d a_k for
    the first generator a_k of even parity."""
    from confcoalg import cli

    tables = []
    for name, fd in sorted(cli.FAMILIES.items()):
        n = (fd.cap if fd.cap is not None else max(fd.allowed_n)) if fd.needs_n else None
        S = fd.build(n, Scalar(0))
        g = S.generators
        even = next(k for k in range(S.rank) if not S.parities[k])
        tables.append((name, S, fd.tabulated(n) if fd.formula else None))
        tables.append((name + "?", families.corrupt_entry(S, g[0].id, g[0].id, g[even].id, D), None))
    return tables


@pytest.fixture(scope="module")
def family_tables():
    return _family_tables()


def _one_object_per_value(polys):
    first = {}
    return all(first.setdefault(p, p) is p for p in polys)


def test_rows_rebuild_the_stored_form(family_tables):
    """The rows are a faithful view: a table built from a table's rows stores
    what it does, a coproduct built from a dual's rows (helpers.rows_of) has
    the dual's rows, and dualize keeps the table's vectors, the very list."""
    for name, S, _ in family_tables:
        assert LambdaStructure(S.kind, S.generators, S.table).packed == S.packed, name
        cop = dualize(S)
        assert rows_of(Coproduct(cop.kind, cop.generators, rows_of(cop))) == rows_of(cop), name
        assert dualize(S).packed[1][0] is S.packed[1][0], name


def test_every_view_holds_one_object_per_value(family_tables):
    """The rows of tables, and of the tables that loads reads back, hold one
    polynomial object per distinct entry value, and the stored forms of
    duals, closed forms and the coproducts that loads reads back hold each
    distinct value once."""
    for name, S, tabulated in family_tables:
        cops = [dualize(S), serialize.loads(serialize.dumps(dualize(S)))]
        cops += [tabulated] if tabulated is not None else []
        for T in (S, serialize.loads(serialize.dumps(S))):
            assert _one_object_per_value(p for row in T.table.values() for _, p in row), name
        for C in cops:
            values = C._values()
            assert len(set(values)) == len(values), name


def test_a_row_changed_in_place_reaches_no_writer(capsys):
    """Every writer reads the stored form: with each value of the rows of
    K_3 negated in place, dumps, the LaTeX writer and the CLI text equal
    those of a fresh copy.  A coproduct keeps no rows to change."""
    def written(T):
        _emit(T, "text", None)
        return serialize.dumps(T), serialize.structure_tex(T), capsys.readouterr().out

    T, fresh = families.make_K(3), families.make_K(3)
    for p in {id(p): p for rows in T.table.values() for _, p in rows}.values():
        for key, c in p.terms.items():
            p.terms[key] = -c
    assert T.table != fresh.table
    assert written(T) == written(fresh)


def test_row_views_keep_their_shape(family_tables):
    """A table's rows are every pair in row-major order, empty ones
    included: the oracles, printed and the benchmark's input counts read
    them so.  A coproduct's slots are sorted by k, as apply_delta_slot and
    the writers group them."""
    for name, S, tabulated in family_tables:
        n = S.rank
        assert list(S.table) == [(i, j) for i in range(n) for j in range(n)], name
        for C in [dualize(S)] + ([tabulated] if tabulated is not None else []):
            ks = [k for _, _, k, _ in C.packed[1][1]]
            assert ks == sorted(ks), name


def test_readers_hand_one_object_per_value(monkeypatch, family_tables):
    """loads converts each distinct "poly" list of a document once: the
    table or coproduct read back is built by Table.from_slots from one
    object per distinct value (K_5: 618 entries, 23 objects)."""
    cases = [(name, T) for name, S, _ in family_tables for T in (S, dualize(S))]
    cases += [("K_5", families.make_K(5))]
    for name, T in cases:
        cls = LambdaStructure if isinstance(T, LambdaStructure) else Coproduct
        text = serialize.dumps(T)
        with monkeypatch.context() as m:
            given = count_calls(m, cls, "from_slots")
            serialize.loads(text)
        (_, _, values, slots, *_), = given
        polys = [values[slot[3]] for slot in slots]
        assert len({id(p) for p in polys}) == len(set(polys)), name
        if name == "K_5":
            assert (len(polys), len(set(polys))) == (618, 23)


def _poly_holders(doc):
    """(what, obj) of every object with a "poly" list in a table or coproduct
    document, in document order, named as the readers name them."""
    for r, row in enumerate(doc["table"]):
        for t, obj in enumerate(row.get("terms", row.get("pairs"))):
            yield f"{'term' if 'terms' in row else 'pair'} {t} of table row {r}", obj


@pytest.mark.parametrize("bad", [True, 1.0])
def test_reader_keys_each_poly_list_by_its_exact_json(K, bad):
    """Two polys equal as Python values but not as JSON, a coefficient part
    1 against true or 1.0, are converted apart: the malformed one raises
    loads' message at its own location, whichever comes first."""
    for T in (K[3], dualize(K[3])):
        doc = json.loads(serialize.dumps(T))
        alike = {}
        for where, obj in _poly_holders(doc):
            alike.setdefault(json.dumps(obj["poly"]), []).append((where, obj))
        (first, a), (second, b) = next(group for group in alike.values() if len(group) > 1)[:2]
        assert a["poly"][0]["coeff"][1] == 1
        for where, obj in ((first, a), (second, b)):
            edited = json.loads(json.dumps(doc))
            target = dict(_poly_holders(edited))[where]
            target["poly"][0]["coeff"][1] = bad
            assert target["poly"] == obj["poly"]    # equal as Python values
            message = f"malformed poly of {where}: ValueError('coefficient part {bad!r} is not an integer')"
            with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
                serialize.loads(json.dumps(edited))


def test_reader_raises_at_the_first_of_a_repeated_malformed_list(K):
    """A malformed list repeated in a document raises at its first occurrence."""
    for T in (K[3], dualize(K[3])):
        doc = json.loads(serialize.dumps(T))
        holders = list(_poly_holders(doc))
        for _, obj in holders[2:5]:
            obj["poly"] = [{"coeff": [1, 0, 0, 1], "exps": {}}]
        where = holders[2][0]
        message = f"malformed poly of {where}: ZeroDivisionError('Fraction(1, 0)')"
        with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
            serialize.loads(json.dumps(doc))
