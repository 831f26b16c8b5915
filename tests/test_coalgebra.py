"""Dualization, tensor calculus with Koszul signs, the co-axioms, and the
JSON documents of tables, coproducts and reports."""

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

from helpers import random_poly


def test_dualize_vir(vir):
    c = dualize(vir)
    assert c.generators[0].id == "L*"
    assert c.normalized(0) == {(0, 0): X1 - X2}


def test_dualize_reindexes(cur_sl2):
    c = dualize(cur_sl2)
    h = c.index["h*"]
    e = c.index["e*"]
    f = c.index["f*"]
    assert c.normalized(h) == {(e, f): P_ONE, (f, e): MultiPoly.const(-1)}


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
    and crosscheck documents of the CLI, violations included."""
    wl = _bench_workloads()
    lib = SimpleNamespace(poly=poly, families=families)
    tables = {name: wl.build_table(lib, name) for name in wl.FAMILIES}
    docs = [doc for S in tables.values()
            for doc in (serialize.structure_to_json(S), serialize.coproduct_to_json(dualize(S)))]
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
