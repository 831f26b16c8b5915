"""Dualization, tensor calculus with Koszul signs, the co-axioms, and the
JSON documents of tables, coproducts and reports."""

import hashlib
import importlib
import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from confcoalg import closed_form, families, poly, serialize
from confcoalg.cli import main
from confcoalg.coalgebra import (
    Coproduct, DiffLine, DiffReport, TensorElement, apply_delta_slot, check_jordan_coalgebra,
    check_lie_coalgebra, compare, double_dual_roundtrip, dualize, tau, zeta,
)
from confcoalg.conformal import Generator, LambdaStructure, StructureError
from confcoalg.families import make_vir
from confcoalg.poly import D, LAM, MultiPoly, P_ONE, Scalar, X1, X2

from helpers import count_calls, random_poly


def test_dualize_vir(vir):
    c = dualize(vir)
    assert c.generators[0].id == "L*"
    assert c.table[0] == [(0, 0, X1 - X2)]


def test_dualize_reindexes(cur_sl2):
    c = dualize(cur_sl2)
    h = c.index["h*"]
    e = c.index["e*"]
    f = c.index["f*"]
    assert c.table[h] == [(e, f, P_ONE), (f, e, MultiPoly.const(-1))]


# sha256 of serialize.dumps(dualize(S)) of every family table at every n the
# CLI caps allow (cli.FAMILIES; S_{2,b} at the three b of the fixtures),
# recorded before dualize renamed each distinct entry polynomial once; the
# duals must not change by a byte
DUALIZE_DUMPS = {
    ("make_vir", ()): "0c1b39e4572b06b6710a4ca6754a9107c03d1dc5034b9e8e9ddfa18847a209fd",
    ("make_cur_sl2", ()): "540410ebfbb39921893bc075699d06d21cebe1b55c2d931d10f067b6257aadc3",
    ("make_cur_jordan_unit", ()): "88cf4d5ec858c8deeb3c57bc15374f5879d6dfd04905c65bb1d91682ce55fb4c",
    ("make_W", (0,)): "dd4426831e38731b360baec0436a48054d3115902aea595eb1e3b62546e5628d",
    ("make_W", (1,)): "5cb6096fa3923b99424b12373dc93d613f81a5009b4cb68d537b034312987458",
    ("make_W", (2,)): "b9a8e78dd50f2505deccb8c15cdd319ce633aa88402c851bdd13f4edb96e5ac3",
    ("make_W", (3,)): "697315ebbd8007400daf580d98176c5e4e083ce12627d0ee6734a47667a65f41",
    ("make_W", (4,)): "e84321f4982af1360ddc896b5a9809c03c3cb3396fbe7211f282ce1e8f3c3359",
    ("make_K", (0,)): "9b8e32742dd48a54eace295bb335dc76651656a646ae0b3e5a78c7d869e8ce2d",
    ("make_K", (1,)): "85c9b787750a4474234ce1526b165215f53e16a7272fba7c9f509c4f750db3ca",
    ("make_K", (2,)): "704b0e4ae7581af8c0fe05d2c55822a93661bd1834c815ad63de1015b909f026",
    ("make_K", (3,)): "ee8fd59f5e5defc3c0c8ee3a3fa4b6eefad036aa6c7809d40cd57fe6fddff98a",
    ("make_K", (4,)): "2dd52c1bdb335606f930d62eff5b5995264630f5b9e8d313a913969d5383275e",
    ("make_K", (5,)): "b1a9ed1f077d8d98762aad5e1600ad17bc445ff46cc58b0a0caf56ebedc835b7",
    ("make_K", (6,)): "b684e24490a5e5c3fcad7e0efb0e278f2645d3bb97697fd173094f0380b8515a",
    ("make_Jn", (0,)): "1f7c768ab69585526d329fb59a1810ac7dc24750116184c9370da0e20547e225",
    ("make_Jn", (1,)): "86a604c7d2e8e99865f04c8123004e11bb4c8a23d2830438394f726caa472c0e",
    ("make_Jn", (2,)): "85ebaa1c2068fb3172020ead8dcb70619827401307b0757b7f25610bdc50641d",
    ("make_Jn", (3,)): "2d93cb552bd7ed2b9c93ee8af241f07b5104b94e1b843241a7596f774034552a",
    ("make_S", (2,)): "31cc3bbb6b900405f28b805db612f28c0eb4ac62b90c9e0e2dda0899a1e762e3",
    ("make_S", (3,)): "d0331177c64339bb24aafd6f04679476db4a34a0a36530cd30fcf2c7ea90bf95",
    ("make_S_b", (2, Scalar(0))): "22230c349222025657f8c78ffb931e33a0da51b8ac6da724a59441bde88e470f",
    ("make_S_b", (2, Scalar(1))): "ef975c787d5993140ec17d53f88a2d2c65a2c6f094b20c7b782106e21468ffcd",
    ("make_S_b", (2, Scalar(0, 1))): "4b6882235af06fcdbb3f2f85e86797e067721ce203d3b2e2a0b9d79d7ad2670d",
    ("make_S_tilde", (2,)): "e463ffc1674a31adcdd505c4220b61470bc3259ef9a7a01ed092ce8380dd6684",
    ("make_K4prime", ()): "db54f13d051e30b7127ce6e6cb79e21910d49d93dd0e87defbfa387891f13e3c",
    ("make_CK6", ()): "5bd04672cf48fdd881b48f74071d357b7d1243ce0796bbb0b3fbfa7746e46713",
    ("make_JS1", ()): "dfef59a9f8dcd2d8dff5965135566b437c188eae75bf89d9e82ef9166d1a8997",
    ("make_JCK4", ()): "5dae955f86220ff44955aac9662f6fbd325f1ffaf97f797600d7a5d80f6f65d9",
}


@pytest.mark.parametrize("make, args", list(DUALIZE_DUMPS),
                         ids=[f"{make}{args}" for make, args in DUALIZE_DUMPS])
def test_dualize_output_pinned(make, args):
    S = getattr(families, make)(*args)
    cop = dualize(S)
    text = serialize.dumps(cop)
    assert hashlib.sha256(text.encode()).hexdigest() == DUALIZE_DUMPS[make, args]
    # the entries of one value share one polynomial, as a table's do, and no
    # polynomial or term dict is shared with S or with a second dualize call
    polys = [q for k in range(cop.rank) for _, _, q in cop.table[k]]
    first = {}
    assert all(first.setdefault(q, q) is q for q in polys)
    assert len({id(q.terms) for q in first}) == len(first)

    def owned(objects):
        return {id(x) for p in objects for x in (p, p.terms)}

    others = [p for row in S.table.values() for _, p in row]
    others += [q for row in dualize(S).table.values() for _, _, q in row]
    assert not owned(first) & owned(others)


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


def test_double_dual_roundtrip_substitutes_each_distinct_object_once(monkeypatch, K):
    """Two subst_general calls and one comparison per distinct entry object,
    none per entry: K_6 has 2,097 entries and 31 distinct polynomials."""
    S = K[6]
    objects = {id(p) for row in S.table.values() for _, p in row}
    calls = count_calls(monkeypatch, MultiPoly, "subst_general")
    compared = count_calls(monkeypatch, MultiPoly, "__eq__")
    rep = double_dual_roundtrip(S)
    assert (rep.total, rep.ok, len(objects), len(calls), len(compared)) == (2097, True, 31, 62, 31)
    assert sorted(id(p) for p, *_ in calls[::2]) == sorted(objects)


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


def test_coproduct_merges_each_pair_once():
    """Repeated pairs are summed in order of first occurrence, a pair that
    cancels is dropped, and a pair given once keeps its polynomial object."""
    gens = [Generator("a*", 0), Generator("b*", 0)]
    once = X1 - X2
    C = Coproduct("lie", gens, {
        0: [(0, 1, X1), (1, 1, once), (0, 1, X2), (1, 0, X1), (1, 0, -X1)],
        1: [(0, 0, X2), (0, 0, -X2)],
    }, name="merged")
    assert C.table == {0: [(0, 1, X1 + X2), (1, 1, once)], 1: []}
    assert C.table[0][1][2] is once
    assert serialize.dumps(C) == serialize.dumps(
        Coproduct("lie", gens, {0: [(1, 1, once), (0, 1, X2 + X1)]}, name="merged"))


def test_coproduct_checks_each_polynomial_object_once():
    """A pair given once keeps its object; the variables of each distinct
    object are checked at its first pair, which names it in the message,
    when it is shared by several pairs or first met on a later row, and the
    parity of every pair is checked."""
    class Scanned(dict):
        """Terms that count how often they are walked."""
        walks = 0

        def __iter__(self):
            Scanned.walks += 1
            return super().__iter__()

    gens = [Generator("a*", 0), Generator("b*", 0), Generator("t*", 1)]
    good, bad = MultiPoly(Scanned((X1 - X2).terms)), X1 - MultiPoly.var("x3")
    C = Coproduct("lie", gens, {0: [(0, 1, good), (1, 0, good)], 1: [(1, 1, good)]}, name="ok")
    assert C.table == {0: [(0, 1, good), (1, 0, good)], 1: [(1, 1, good)], 2: []}
    assert all(q is good for row in C.table.values() for _, _, q in row)
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
    assert C.table == {0: [(0, 1, 2 * good)], 1: [(0, 0, good)], 2: []}
    assert C.table[1][0][2] is good


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
