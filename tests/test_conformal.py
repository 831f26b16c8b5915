"""Bracket evaluation, axiom checkers and kernel computation."""

import random

import pytest

from confcoalg.conformal import (
    ConformalElement, Generator, LambdaStructure, ModuleMap, StructureError,
    bracket, check_jacobi, check_jordan_comm, check_jordan_identity,
    check_skew, kernel_basis, shift_spectral,
)
from confcoalg.families import (
    corrupt_entry, div_module_map, make_cur_sl2, make_JS1, make_vir, make_W,
)
from confcoalg.poly import D, LAM, MU, MultiPoly, P_ONE, Scalar


def test_vir_bracket_and_sesquilinearity(vir):
    L = ConformalElement.gen(0)
    assert bracket(vir, L, L, "lam") == ConformalElement({0: D + 2 * LAM})
    dL = ConformalElement({0: D})
    assert bracket(vir, dL, L, "lam") == ConformalElement({0: -LAM * (D + 2 * LAM)})
    # right sesquilinearity: [L lam dL] = (lam + d) [L lam L]
    assert bracket(vir, L, dL, "lam") == ConformalElement(
        {0: (LAM + D) * (D + 2 * LAM)}
    )


def test_random_sesquilinearity(W):
    rng = random.Random(4)
    S = W[2]
    for _ in range(50):
        i = rng.randrange(S.rank)
        j = rng.randrange(S.rank)
        a = ConformalElement({i: D * rng.randrange(1, 3) + MultiPoly.const(rng.randrange(-2, 3))})
        b = ConformalElement.gen(j)
        lhs = bracket(S, ConformalElement({i: D}).scale(P_ONE), b, "lam")
        assert lhs == bracket(S, ConformalElement.gen(i), b, "lam").scale(-LAM)
        del a


def test_shift_spectral_example(vir):
    x = ConformalElement({0: D + 2 * MU})
    shifted = shift_spectral(x, "mu", -LAM - D)
    assert shifted == ConformalElement({0: -2 * LAM - D})
    assert shift_spectral(x, "mu", MU) == x
    assert shift_spectral(ConformalElement(), "mu", LAM).is_zero()


def test_skew_and_jacobi_pass(vir, cur_sl2):
    assert check_skew(vir).ok
    assert check_jacobi(vir).ok
    assert check_skew(cur_sl2).ok
    assert check_jacobi(cur_sl2).ok


def test_corrupted_vir_residuals(vir):
    bad = corrupt_entry(vir, "L", "L", "L", D + LAM)
    r = check_skew(bad)
    assert not r.ok
    assert r.violations[0].residual == "(d)*L"
    rj = check_jacobi(bad)
    assert not rj.ok
    assert rj.violations[0].residual == "(lam^2 + lam*mu + lam*d)*L"


def test_kind_preconditions(vir, JS1):
    with pytest.raises(StructureError):
        check_jordan_comm(vir)
    with pytest.raises(StructureError):
        check_jordan_identity(vir)
    with pytest.raises(StructureError):
        check_skew(JS1)
    with pytest.raises(StructureError):
        check_jacobi(JS1)


def test_jordan_comm_examples(JS1):
    # S la S = 2S matches its own flip; T la T = (2 la + d) S likewise
    assert check_jordan_comm(JS1).ok
    # T la T = (2 la + d) S = (-1)^{|T||T|} (T_{-la-d} T): the flip gives
    # (-2 la - d) S and the Koszul sign restores the table entry
    t = JS1.index["T"]
    flipped = shift_spectral(JS1.pair_element(t, t, "mu"), "mu", -LAM - D)
    assert flipped == ConformalElement({JS1.index["S"]: -(2 * LAM + D)})


def test_jordan_identity_variants(JS1):
    ok = check_jordan_identity(JS1, variant="consistent")
    assert ok.ok and ok.total == 16
    printed = check_jordan_identity(JS1, variant="printed")
    assert not printed.ok
    assert printed.violations[0].where == ("S", "S", "T", "T")
    assert printed.violations[0].residual == "(-4*nu)*S"
    # all-odd quadruple residual, frozen from the hand computation
    tttt = [v for v in printed.violations if v.where == ("T", "T", "T", "T")]
    assert tttt and tttt[0].residual == "(-2*mu*nu - 1*nu*d)*S"


def test_parity_validation():
    gens = [Generator("a", 0), Generator("b", 1)]
    with pytest.raises(StructureError):
        LambdaStructure("lie", gens, {(0, 0): [(1, P_ONE)]})
    with pytest.raises(StructureError):
        LambdaStructure("weird", gens, {})


def test_inhomogeneous_input_rejected(vir):
    two = LambdaStructure(
        "lie",
        [Generator("a", 0), Generator("b", 1)],
        {},
    )
    x = ConformalElement({0: P_ONE, 1: P_ONE})
    from confcoalg.conformal import element_parity

    with pytest.raises(StructureError):
        element_parity(two, x)


def test_spectral_variable_collision(vir):
    x = ConformalElement({0: LAM})
    with pytest.raises(StructureError):
        bracket(vir, x, ConformalElement.gen(0), "lam")


# -- kernel computation ------------------------------------------------------


def test_kernel_multiplication_by_d_is_injective():
    M = ModuleMap(["a"], ["a"], {(0, 0): D})
    assert kernel_basis(M) == []


def test_kernel_zero_map_full():
    M = ModuleMap(["a", "b", "c"], ["t"], {})
    basis = kernel_basis(M)
    assert len(basis) == 3
    assert sorted(min(c) for c in basis) == [0, 1, 2]


def test_kernel_div_w2_rank(W):
    M = div_module_map(W[2])
    basis = kernel_basis(M)
    assert len(basis) == 2 * 2 ** 2
    for coords in basis:
        img = M.apply(coords)
        assert img == {}


def test_kernel_relation_column():
    # a 2 -> 1 map with entries (d, d^2): kernel generated by (d, -1)
    M = ModuleMap(["a", "b"], ["t"], {(0, 0): D, (0, 1): D * D})
    basis = kernel_basis(M)
    assert len(basis) == 1
    coords = basis[0]
    assert M.apply(coords) == {}
    degs = sorted(p.degree_in("d") for p in coords.values())
    assert degs == [0, 1]
