"""The superconformal algebras from their OPEs: a third path beside make_K
and the paper's coproduct lists.

The centerless N = 2 algebra is written here by hand from its lambda-brackets
in the basis L, J, G+, G- (Kac, Vertex algebras for beginners, 1998), every
ordered pair spelled out, skew-symmetric partners included; nothing is read
from make_K, dualize or a closed form.  The tests check the axioms on it and
that a hand-written map onto make_K(2) carries every bracket onto K_2's,
pair by pair with conformal.bracket over Q(beta).
"""

from fractions import Fraction

import pytest

from confcoalg import conformal, families
from confcoalg.poly import D, LAM, MultiPoly, P_ONE, Scalar
from confcoalg.tables import ConformalElement, Generator, LIE, LambdaStructure

HALF = Fraction(1, 2)

# L and J even, G+ and G- odd
N2_GENERATORS = [Generator("L", 0), Generator("J", 0), Generator("G+", 1), Generator("G-", 1)]

# [a lam b] = sum P(lam, d) c for each ordered pair (a, b): the centerless
# lambda-brackets; a pair not listed brackets to zero
N2_BRACKETS = {
    ("L", "L"): [("L", D + 2 * LAM)],
    ("L", "J"): [("J", D + LAM)],
    ("J", "L"): [("J", LAM)],
    ("L", "G+"): [("G+", D + LAM * Fraction(3, 2))],
    ("L", "G-"): [("G-", D + LAM * Fraction(3, 2))],
    ("G+", "L"): [("G+", D * HALF + LAM * Fraction(3, 2))],
    ("G-", "L"): [("G-", D * HALF + LAM * Fraction(3, 2))],
    ("J", "G+"): [("G+", P_ONE)],
    ("J", "G-"): [("G-", -P_ONE)],
    ("G+", "J"): [("G+", -P_ONE)],
    ("G-", "J"): [("G-", P_ONE)],
    ("G+", "G-"): [("L", P_ONE), ("J", D * HALF + LAM)],
    ("G-", "G+"): [("L", P_ONE), ("J", -(D * HALF + LAM))],
}


def n2_from_ope() -> LambdaStructure:
    at = {g.id: i for i, g in enumerate(N2_GENERATORS)}
    table = {(at[a], at[b]): [(at[c], p) for c, p in row] for (a, b), row in N2_BRACKETS.items()}
    return LambdaStructure(LIE, N2_GENERATORS, table, name="N2-OPE")


# the certificate: each OPE generator as an element of K_2, by the ids of
# make_K(2)'s generators 1, xi1, xi2 and xi12
BETA = Scalar(0, 1)
N2_TO_K2 = {
    "L": {"1": Scalar(-HALF)},
    "J": {"xi12": BETA},
    "G+": {"xi1": Scalar(HALF), "xi2": BETA * Scalar(HALF)},
    "G-": {"xi1": Scalar(HALF), "xi2": -BETA * Scalar(HALF)},
}


def _image(K: LambdaStructure, x: ConformalElement, names) -> ConformalElement:
    """x, an element over the OPE generators named by names, mapped into K
    through N2_TO_K2 (a C[d]-module map: coefficients multiply)."""
    out = ConformalElement()
    for g, p in x.terms.items():
        out = out + ConformalElement(
            {K.index[h]: p * MultiPoly.const(c) for h, c in N2_TO_K2[names[g]].items()})
    return out


@pytest.fixture(scope="module")
def n2():
    return n2_from_ope()


@pytest.mark.parametrize("check", [conformal.check_skew, conformal.check_jacobi])
def test_n2_from_ope_satisfies_the_axioms(n2, check):
    rep = check(n2)
    assert rep.ok, rep.violations[:3]
    assert rep.total > 0


def test_n2_from_ope_is_k2_by_the_certificate(n2):
    """phi([a lam b]) = [phi(a) lam phi(b)] in make_K(2) for all 16 ordered
    pairs, with phi: L -> -1/2, J -> beta xi12, G+- -> (xi1 +- beta xi2)/2."""
    K = families.make_K(2)
    names = [g.id for g in n2.generators]
    checked = 0
    for a in range(n2.rank):
        for b in range(n2.rank):
            lhs = _image(K, n2.entry(a, b), names)
            rhs = conformal.bracket(K, _image(K, ConformalElement.gen(a), names),
                                    _image(K, ConformalElement.gen(b), names), "lam")
            assert lhs == rhs, (names[a], names[b], lhs, rhs)
            checked += not lhs.is_zero()
    assert checked == len(N2_BRACKETS)

