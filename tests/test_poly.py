"""Exact scalar and polynomial arithmetic."""

import random
import sys
from fractions import Fraction

import pytest

from confcoalg.poly import (
    BETA, D, LAM, MU, MultiPoly, P_ONE, P_ZERO, Scalar, X1, X2, X3,
    add_product, common_denominator, compact_vector, pack_vector, poly_from_json,
    poly_to_json, substitution, unpack_vector, _MONO_MASK, _VAR_SHIFT,
    _int_text, _part_text, _sort_key,
)

from helpers import count_calls, exact_div, random_poly, subst_general_oracle


def test_beta_squares_to_minus_one():
    assert Scalar.beta() * Scalar.beta() == Scalar(-1)
    assert BETA * BETA == MultiPoly.const(-1)


def test_scalar_inverse():
    s = Scalar(Fraction(3, 4), Fraction(-2, 5))
    assert s * s.inverse() == Scalar(1)
    with pytest.raises(ZeroDivisionError):
        Scalar(0).inverse()


def test_basic_identities():
    assert (LAM + D) + (-LAM) == D
    assert (2 * LAM + D) * P_ONE == 2 * LAM + D
    assert (LAM - LAM).is_zero()
    assert P_ZERO * LAM == P_ZERO


def test_ring_axioms_randomized():
    rng = random.Random(2024)
    for _ in range(10_000):
        p = random_poly(rng)
        q = random_poly(rng)
        r = random_poly(rng)
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)
        assert p + q == q + p
        assert p * q == q * p


def test_substitute_is_ring_homomorphism():
    rng = random.Random(7)
    img = -X1 - X2
    for _ in range(2_000):
        p = random_poly(rng, nvars=6)
        q = random_poly(rng, nvars=6)
        lhs = (p * q).subst_general("d", img)
        rhs = p.subst_general("d", img) * q.subst_general("d", img)
        assert lhs == rhs


def test_substitute_examples():
    # lam -> x1 then d -> -x1-x2 sends d + 2 lam to x1 - x2
    p = D + 2 * LAM
    q = p.permute_vars({"lam": "x1"}).subst_general("d", -X1 - X2)
    assert q == X1 - X2
    # absent variable is a no-op
    assert LAM.subst_general("mu", D) == LAM
    # an image may contain the variable itself: one pass, no recursion
    assert (D * D).subst_general("d", D + LAM) == (D + LAM) * (D + LAM)
    # image containing the variable is rejected on the strict entry point
    with pytest.raises(ValueError):
        (D * D).substitute("d", D + LAM)


def test_subst_general_matches_the_per_term_sums():
    """The one-pass subst_general equals the implementation that summed one
    MultiPoly per term, on int, Fraction and Gaussian coefficients, with
    images that contain the substituted variable, and on sums that cancel,
    in part or to zero; an exponent overflow still raises, when a power of
    the image overflows and when only a term times its power does."""
    rng = random.Random(29)
    # random_poly makes about 30 % of its coefficients Gaussian; the third
    # set scales every polynomial by a Gaussian with a Fraction part
    seen = set()
    for coefficients, scale in (((1, -1, 2, -3), 1), ((Fraction(1, 2), Fraction(-2, 3), 1), 1),
                                ((1, -1, 2), Scalar(Fraction(1, 2), 2))):
        for _ in range(300):
            p, repl, g = (random_poly(rng, nvars=4, nterms=nterms, scalars=coefficients) * scale
                          for nterms in (4, 3, 4))
            var = rng.choice(("lam", "mu", "d"))
            # p + (var - repl) g: the added terms cancel in the image
            for q in (p, p + (MultiPoly.var(var) - repl) * g, (MultiPoly.var(var) - repl) * g):
                got = q.subst_general(var, repl)
                assert got == subst_general_oracle(q, var, repl), (q, var, repl)
                assert all(not c.is_zero() for c in got.terms.values())
                seen.add((var in repl.variables(), got.is_zero() and not q.is_zero()))
    assert seen == {(False, False), (False, True), (True, False)}
    # an image that contains the variable, with terms that cancel
    p = D * D - 2 * LAM * D
    assert p.subst_general("d", D + LAM) == D * D - LAM * LAM == subst_general_oracle(p, "d", D + LAM)
    for p, var, repl in ((MultiPoly.var("d", 128), "d", D * D),
                         (MultiPoly.var("lam", 200) * D, "d", MultiPoly.var("lam", 100))):
        for subst in (MultiPoly.subst_general, subst_general_oracle):
            with pytest.raises(ValueError, match="exponent overflow"):
                subst(p, var, repl)


def test_subst_general_makes_only_the_powers_past_the_first(monkeypatch):
    """The powers of the image start at the image itself: an entry linear in
    the variable makes no polynomial product, and a cubic one makes two, the
    square and the cube."""
    img = -LAM - D
    linear = 3 * D + 2 * LAM + P_ONE
    cubic = D * D * D - LAM
    want = [subst_general_oracle(p, "d", img) for p in (linear, cubic)]
    products = count_calls(monkeypatch, MultiPoly, "__mul__")
    assert linear.subst_general("d", img) == want[0]
    assert products == []
    assert cubic.subst_general("d", img) == want[1]
    assert len(products) == 2


def test_slot_substitution_is_involution():
    # (x1, x2) -> (x1, -x1-x2) twice is the identity
    rng = random.Random(11)
    img = -X1 - X2
    for _ in range(10_000):
        p = random_poly(rng, nvars=6)
        assert p.subst_general("x2", img).subst_general("x2", img) == p


def test_x2_written_via_d_involution():
    # the structure-constant form: d -> -lam-d twice is the identity
    rng = random.Random(12)
    img = -LAM - D
    for _ in range(10_000):
        p = random_poly(rng, nvars=4)
        assert p.subst_general("d", img).subst_general("d", img) == p


def test_permute_vars():
    p = X1 - X2
    assert p.permute_vars({"x1": "x2", "x2": "x1"}) == X2 - X1
    assert (LAM * D).permute_vars({}) == LAM * D
    sym = X1 * X2 * MultiPoly.var("x3")
    cyc = {"x1": "x3", "x2": "x1", "x3": "x2"}
    assert sym.permute_vars(cyc) == sym


def test_exact_div():
    """The division of the span reader oracle in test_kernels."""
    rng = random.Random(3)
    for _ in range(300):
        f = random_poly(rng, nvars=3)
        g = random_poly(rng, nvars=3)
        if g.is_zero():
            continue
        assert exact_div(f * g, g) == f
    with pytest.raises(ValueError):
        exact_div(LAM + P_ONE, D)


def test_json_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        p = random_poly(rng, nvars=8)
        assert poly_from_json(poly_to_json(p)) == p


def test_sort_key_is_total_degree_then_key():
    rng = random.Random(11)
    cases = [{v: 255 for v in _VAR_SHIFT}, {}] + [
        {v: rng.randrange(256) for v in _VAR_SHIFT if rng.random() < 0.5} for _ in range(300)]
    for exps in cases:
        k = sum(e << _VAR_SHIFT[v] for v, e in exps.items())
        assert _sort_key(k) == (sum(exps.values()), k)


def test_total_degree_and_variables():
    p = LAM * LAM * D + MU
    assert max(sum(exps.values()) for exps, _ in p.items()) == 3
    assert p.variables() == {"lam", "d", "mu"}


def test_scalar_parts_are_ints_when_integral():
    s = Scalar(Fraction(4, 2))
    assert s.re == 2 and type(s.re) is int and type(s.im) is int
    half = Scalar(2).inverse()
    assert half == Scalar(Fraction(1, 2))
    assert type(half.re) is Fraction and type(half.im) is int
    assert not any(isinstance(x, float) for x in (half.re, half.im))
    assert type((half + half).re) is int
    assert type((Scalar(0, 1) * Scalar(0, 1)).re) is int
    # int and Fraction parts hash and compare alike
    assert hash(Scalar(1)) == hash(Scalar(Fraction(3, 3)))
    assert repr(Scalar(Fraction(6, 3), Fraction(-1, 2))) == "(2-1/2*beta)"


def test_scalar_rejects_float():
    for bad in ((0.5,), (1, 2.0), (float("nan"),)):
        with pytest.raises(TypeError):
            Scalar(*bad)


def test_scalar_times_poly_defers_to_poly():
    c = Scalar(1, 3)
    assert c * D == D * c == MultiPoly.monomial({"d": 1}, c)
    assert Scalar(Fraction(1, 2)) * (LAM + D) == (LAM + D).scalar_mul(Fraction(1, 2))
    for op in (lambda: c + D, lambda: c - D, lambda: c * "x"):
        with pytest.raises(TypeError):
            op()


def test_poly_to_json_unchanged():
    p = MultiPoly.monomial({"lam": 2, "d": 1}, Scalar(3, Fraction(-1, 2))) + D.scalar_mul(2)
    assert poly_to_json(p) == [
        {"coeff": [2, 1, 0, 1], "exps": {"d": 1}},
        {"coeff": [3, 1, -1, 2], "exps": {"lam": 2, "d": 1}},
    ]


def test_exponent_overflow_raises():
    big = MultiPoly.var("lam", 200)
    with pytest.raises(ValueError, match="overflow"):
        big * MultiPoly.var("lam", 100)
    # no carry into the next variable at the boundary
    assert big * MultiPoly.var("lam", 55) == MultiPoly.var("lam", 255)
    with pytest.raises(ValueError, match="overflow"):
        MultiPoly.var("x4", 255) * MultiPoly.var("x4", 1)
    with pytest.raises(ValueError, match="overflow"):
        MultiPoly.var("d", 128).subst_general("d", D * D)
    assert (big * MU).variables() == {"lam", "mu"}


def _packed(p, m=0):
    return pack_vector([(m, p)])


def test_int_text_is_str_at_any_length():
    """_int_text and _part_text write what str writes with the int-string
    limit lifted, past the limit too, where str refuses, and at the
    boundaries of their 600-digit chunks; the limit is left as it was."""
    rng = random.Random(11)
    ints = [0, 7, -7, 10 ** 600 - 1, 10 ** 600, 10 ** 1200 + 10 ** 600, 10 ** 5000 + 1,
            -(10 ** 4300)]
    ints += [rng.choice((1, -1)) * rng.randrange(10 ** (d - 1), 10 ** d)
             for d in (4299, 4300, 4301, 9000)]
    parts = ints + [Fraction(x, 3) for x in ints if x % 3] + [Fraction(7, 10 ** 4400 + 1)]
    limit = sys.get_int_max_str_digits()
    got = [_part_text(x) for x in parts]
    assert [_int_text(x) for x in ints] == got[:len(ints)]
    sys.set_int_max_str_digits(0)
    try:
        want = [str(x) for x in parts]
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == want
    assert sys.get_int_max_str_digits() == limit


def test_compact_vector():
    acc = {}
    add_product(acc, _packed(X1 + X2), pack_vector([(1, X1), (2, X3)]))
    add_product(acc, _packed(X2), pack_vector([(1, X1)]), negate=True)
    v = compact_vector(acc)                  # the x1*x2 terms cancel and go
    assert len(v) == 3
    assert unpack_vector(v) == {1: X1 * X1, 2: (X1 + X2) * X3}
    acc = {}
    add_product(acc, _packed(MultiPoly.var("x1", 200)), pack_vector([(0, MultiPoly.var("x1", 100))]))
    with pytest.raises(ValueError, match="overflow"):
        compact_vector(acc)


def test_packed_vectors_hold_ints_with_beta_as_a_digit():
    p = MultiPoly.monomial({"lam": 1}, Scalar(Fraction(1, 2), Fraction(-1, 3))) + BETA * D
    q = LAM.scalar_mul(Scalar(Fraction(2, 5), 1)) + P_ONE
    L = common_denominator([p, q])
    assert L == 30
    pp, pq = pack_vector([(0, p)], L), pack_vector([(0, q)], L)
    assert all(type(c) is int for c in (*pp.values(), *pq.values()))
    # re and im of one coefficient differ only in the beta digit
    assert len(pp) == 3 and len({k & _MONO_MASK for k in pp}) == 2
    acc = {}
    add_product(acc, pp, pq)
    assert unpack_vector(acc, L * L) == {0: p * q}
    # beta**2 folds into -1 before a vector is multiplied again
    b = pack_vector([(0, BETA)])
    acc = {}
    add_product(acc, b, b)
    square = compact_vector(acc)
    assert square == {0: -1} and unpack_vector(acc) == {0: MultiPoly.const(-1)}
    acc = {}
    add_product(acc, square, b)
    assert unpack_vector(acc) == {0: -BETA}
    with pytest.raises(ValueError, match="denominator"):
        pack_vector([(0, p)], 2)


def test_substitution_on_packed_vectors():
    p = MultiPoly.monomial({"lam": 2, "d": 1}, Scalar(3, Fraction(-1, 2))) + BETA * MU
    rename = substitution("lam", "d", X1, -X1 - X2)
    got = unpack_vector(rename(pack_vector([(4, p)], 2)), 2)
    assert got == {4: p.permute_vars({"lam": "x4"}).subst_general("d", -X1 - X2)
                   .subst_general("x4", X1)}


def test_bad_operands_raise_type_error():
    for op in (lambda: D + 1, lambda: D - 1, lambda: D * 0.5, lambda: 0.5 * D,
               lambda: 1 + D, lambda: D + Scalar(1)):
        with pytest.raises(TypeError):
            op()
    assert D * 2 == 2 * D == D + D
    assert D * Fraction(1, 3) == D.scalar_mul(Fraction(1, 3))
    assert D * Scalar(0, 1) == BETA * D
