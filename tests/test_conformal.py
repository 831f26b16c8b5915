"""Bracket evaluation, axiom checkers and kernel computation."""

import copy
import random

import pytest

from confcoalg.bases import SnBasisElement
from confcoalg.conformal import (
    Report, Violation, bracket, check_jacobi, check_jordan_comm, check_jordan_identity,
    check_skew, shift_spectral,
)
from confcoalg.families import corrupt_entry, make_cur_sl2, make_JS1, make_vir, make_W
from confcoalg.poly import D, LAM, MU, MultiPoly, P_ONE, Scalar
from confcoalg.restricted import ModuleMap, div_module_map, kernel_basis
from confcoalg.tables import ConformalElement, Coproduct, Generator, LambdaStructure, StructureError

from helpers import apply_map, pair_element


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
    flipped = shift_spectral(pair_element(JS1, t, t, "mu"), "mu", -LAM - D)
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
    with pytest.raises(StructureError, match=r"^parity violation in \(a,a\) -> b$"):
        LambdaStructure("lie", gens, {(0, 0): [(1, P_ONE)]})
    with pytest.raises(StructureError, match=r"^table entry uses variables \{'mu'\}$"):
        LambdaStructure("lie", gens, {(0, 1): [(1, LAM)], (1, 1): [(0, LAM * MU + D)]})
    with pytest.raises(StructureError):
        LambdaStructure("weird", gens, {})
    # duplicate targets are summed, zero sums dropped, and rows sorted by target
    S = LambdaStructure("lie", gens, {(1, 1): [(0, D), (0, -D)], (0, 1): [(1, LAM), (1, D)]})
    assert S.table == {(0, 0): [], (0, 1): [(1, LAM + D)], (1, 0): [], (1, 1): []}


def test_with_entry_checks_its_copy_as_the_constructor_does(K):
    """with_entry and corrupt_entry build their copy through the checks of
    every table, with the constructor's messages: in K_2, [xi1 lam xi2] = xi1
    breaks parity additivity and [1 lam 1] = mu 1 uses mu."""
    K2 = K[2]
    xi1, xi2 = K2.index["xi1"], K2.index["xi2"]
    cases = [((xi1, xi2, xi1, P_ONE), r"^parity violation in \(xi1,xi2\) -> xi1$"),
             ((0, 0, 0, MU), r"^table entry uses variables \{'mu'\}$")]
    for (i, j, k, p), message in cases:
        ids = (K2.generators[i].id, K2.generators[j].id, K2.generators[k].id)
        for make in (lambda: LambdaStructure(K2.kind, K2.generators, {(i, j): [(k, p)]}),
                     lambda: K2.with_entry(i, j, ConformalElement({k: p})),
                     lambda: corrupt_entry(K2, *ids, p)):
            with pytest.raises(StructureError, match=message):
                make()


@pytest.mark.parametrize("via_with_entry", [True, False])
def test_out_of_range_indices_rejected(via_with_entry):
    """A row key or a target outside the generators is an error, not a dropped
    row or a Python negative index, whether the row is given to the
    constructor or written into a valid table by with_entry."""
    gens = [Generator("L", 0)]
    cases = [
        ((0, 2), {0: LAM}, r"^row \(0, 2\) is not a pair of generator indices in range\(1\)$"),
        ((-1, 0), {}, r"^row \(-1, 0\) is not a pair"),
        ((0, 0), {-1: LAM}, r"^row \(0, 0\) names generator index -1, not in range\(1\)$"),
        ((0, 0), {0: D, 1: LAM}, r"^row \(0, 0\) names generator index 1, not in range\(1\)$"),
    ]
    valid = LambdaStructure("lie", gens, {(0, 0): [(0, LAM)]})
    for (i, j), terms, message in cases:
        with pytest.raises(StructureError, match=message):
            if via_with_entry:
                valid.with_entry(i, j, ConformalElement(terms))
            else:
                LambdaStructure("lie", gens, {(i, j): sorted(terms.items())})


def element_parity(S, x):
    """Parity of a homogeneous element; raises on mixed parities."""
    ps = {S.parity(g) for g in x.terms}
    if len(ps) > 1:
        raise StructureError("element is not parity-homogeneous")
    return ps.pop() if ps else 0


def test_inhomogeneous_input_rejected(vir):
    two = LambdaStructure(
        "lie",
        [Generator("a", 0), Generator("b", 1)],
        {},
    )
    x = ConformalElement({0: P_ONE, 1: P_ONE})
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
        img = apply_map(M, coords)
        assert img == {}


def test_kernel_relation_column():
    # a 2 -> 1 map with entries (d, d^2): kernel generated by (d, -1)
    M = ModuleMap(["a", "b"], ["t"], {(0, 0): D, (0, 1): D * D})
    basis = kernel_basis(M)
    assert len(basis) == 1
    coords = basis[0]
    assert apply_map(M, coords) == {}
    degs = sorted(p.degree_in("d") for p in coords.values())
    assert degs == [0, 1]


# -- record classes: plain classes that keep what the package used of dataclasses


def test_record_repr_is_the_dataclass_text():
    assert repr(Generator("L", 0, "L")) == "Generator(id='L', parity=0, latex='L')"
    assert repr(Generator("x", 1)) == "Generator(id='x', parity=1, latex=None)"
    assert repr(Report("skew", "Vir", 1, [Violation(("L", "L"), "(d)*L")])) == (
        "Report(check='skew', structure='Vir', total=1, "
        "violations=[Violation(where=('L', 'L'), residual='(d)*L')])")
    assert repr(Report("jacobi", "W_2")) == (
        "Report(check='jacobi', structure='W_2', total=0, violations=[])")
    assert repr(SnBasisElement("A2", 3, 1, 2)) == "SnBasisElement(tag='A2', mask=3, i=1, j=2)"
    assert repr(SnBasisElement(tag="B", mask=5)) == "SnBasisElement(tag='B', mask=5, i=0, j=0)"


def test_record_equality_and_hash():
    assert Generator("L", 0) == Generator(id="L", parity=0, latex=None)
    assert Generator("L", 0) != Generator("L", 1)
    assert Generator("L", 0) != ("L", 0, None)
    assert hash(Generator("L", 0)) == hash(Generator("L", 0, None))
    assert len({SnBasisElement("A", 1, 1), SnBasisElement("A", 1, i=1, j=0),
                SnBasisElement("B", 1)}) == 2
    v = Violation(("L", "L"), "0")
    assert Report("skew", "Vir", 1, [v]) == Report("skew", "Vir", total=1, violations=[v])
    assert Report("skew", "Vir") != Report("skew", "Vir", 1)
    for record in (v, Report("skew", "Vir")):
        with pytest.raises(TypeError):
            hash(record)


def test_frozen_records_refuse_assignment():
    g, el = Generator("L", 0), SnBasisElement("B", 1)
    with pytest.raises(AttributeError):
        g.parity = 1
    with pytest.raises(AttributeError):
        el.mask = 2
    with pytest.raises(AttributeError):
        del g.id
    assert g == Generator("L", 0) and el == SnBasisElement("B", 1)
    rep = Report("skew", "Vir")
    rep.total = 4
    assert rep.total == 4


def test_report_default_violations_are_not_shared():
    a, b = Report("skew", "A"), Report("skew", "B")
    a.violations.append(Violation(("L",), "0"))
    assert b.violations == [] and a.violations is not b.violations


def test_records_copy_and_deepcopy():
    g = Generator("L", 0, "L")
    rep = Report("skew", "Vir", 1, [Violation(("L", "L"), "x")])
    for clone in (copy.copy, copy.deepcopy):
        assert clone(g) == g and clone(rep) == rep
    assert copy.copy(rep).violations is rep.violations
    assert copy.deepcopy(rep).violations is not rep.violations


@pytest.mark.parametrize("parity", [2, -1, True, "odd"])
def test_parity_is_the_int_0_or_1(parity):
    """Both kinds of table refuse a parity other than the int 0 or 1: the
    constructors would read 2 as even and the kernels as odd."""
    from confcoalg.families import make_current

    gens = [Generator("a", 0), Generator("b", parity)]
    message = rf"^parity {parity!r} of generator 'b' is not 0 or 1$"
    for make in (lambda: LambdaStructure("lie", gens, {}),
                 lambda: Coproduct("lie", gens, {}),
                 lambda: make_current(["a", "b"], [0, parity],
                                      {("b", "b"): [("a", Scalar(1))]})):
        with pytest.raises(StructureError, match=message):
            make()
