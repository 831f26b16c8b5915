"""Test-only helpers shared by several test modules."""

from fractions import Fraction

from confcoalg import conformal
from confcoalg.conformal import ConformalElement
from confcoalg.poly import ALPHABET, MultiPoly, Scalar


def random_poly(rng, nvars=4, nterms=4, maxexp=3, scalars=(1, -1, 2, Fraction(1, 2))) -> MultiPoly:
    """Small random polynomial in the first nvars variables."""
    out = MultiPoly.zero()
    for _ in range(rng.randrange(nterms + 1)):
        exps = {
            ALPHABET[rng.randrange(nvars)]: rng.randrange(maxexp + 1)
            for _ in range(rng.randrange(1, 3))
        }
        c = rng.choice(scalars)
        if rng.random() < 0.3:
            c = Scalar(c, rng.choice((1, -1)))
        out = out + MultiPoly.monomial(exps, c)
    return out


def pair_element(S, i: int, j: int, svar: str) -> ConformalElement:
    """[a_i svar a_j] of the table S with the spectral variable renamed from lam."""
    if svar == "lam":
        return S.entry(i, j)
    out = {}
    for k, p in S.table[(i, j)]:
        out[k] = p.permute_vars({"lam": svar}) if "lam" in p.variables() else p
    return ConformalElement(out)


def repr_oracle(p: MultiPoly) -> str:
    """repr(p) written term by term through Scalars, as MultiPoly.__repr__
    wrote it before its text rule was shared with poly.vector_text."""
    def scalar(c):
        if c.im == 0:
            return str(c.re)
        if c.re == 0:
            return f"{c.im}*beta"
        sign = "+" if c.im > 0 else "-"
        return f"({c.re}{sign}{abs(c.im)}*beta)"

    if not p.terms:
        return "0"
    parts = []
    for exps, c in p.items():
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in exps.items())
        cs = scalar(c)
        parts.append(cs if not mono else (mono if cs == "1" else f"{cs}*{mono}"))
    return " + ".join(parts).replace("+ -", "- ")


def term_products(monkeypatch, check, arg):
    """The number of term products check(arg) makes through the kernels of
    confcoalg.conformal, counted at its add_product, with the report."""
    count = [0]
    real = conformal.add_product

    def counting(acc, p, q, negate=False):
        count[0] += len(p) * len(q)
        return real(acc, p, q, negate)

    with monkeypatch.context() as m:
        m.setattr(conformal, "add_product", counting)
        rep = check(arg)
    return count[0], rep
