"""An exact Jacobi sketch: an evaluator of the Jacobi identity that shares
nothing with the kernels and scales past the per-tuple oracles.

The residual at a_m of the triple (i, j, k) is, as check_jacobi's docstring
writes it,

    sum_l P^{jk}_l(mu, lam+d) P^{il}_m(lam, d)
  - sum_l P^{ij}_l(lam, -lam-mu) P^{lk}_m(lam+mu, d)
  - s sum_l P^{ik}_l(lam, mu+d) P^{jl}_m(mu, d),    s = (-1)^{p(i)p(j)}.

It is trilinear in (a_i, a_j, a_k) and a polynomial in (lam, mu, d).  So for
integer combinations u, v and w of generators, u and v each of one parity
(which fixes s), and an integer point (l0, m0, d0), the sum of u_i v_j w_k
times the residual over all triples is six walks over the row view:

    X = [v w] at (m0, l0+d0),    term 1 = [u X] at (l0, d0),
    Y = [u v] at (l0, -l0-m0),   term 2 = [Y w] at (l0+m0, d0),
    Z = [u w] at (l0, m0+d0),    term 3 = [v Z] at (m0, d0),

[x y] at (a, b) being sum x_i y_j P^{ij}_k(a, b) a_k.  The arithmetic is
exact, in Q(beta) with beta^2 = -1.  A nonzero sketch proves that the identity
fails; a failing table gives zero with probability at most (3 + D)/R per
parity pair (Schwartz 1980, Zippel 1979), D the residual's degree in (lam,
mu, d) and R the range of the draws.  The seeds are fixed.  The tests
compare the sketch with the same sums of the kernel's rows and with the
verdicts of check_jacobi and of co-Jacobi on the dual.
"""

import functools
import random
from fractions import Fraction

import pytest

from confcoalg import cli
from confcoalg.coalgebra import check_lie_coalgebra, dualize
from confcoalg.conformal import LIE, ConformalElement, StructureError, _jacobi_rows, check_jacobi
from confcoalg.poly import D, LAM, MultiPoly, Scalar, unpack_vector

_RANGE = 2 ** 31


def _times(x, y):
    """(re, im) of the product of two elements re + im beta of Q(beta)."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _value(P, at):
    """P at the integer point at, {variable: value}, as (re, im)."""
    re = im = 0
    for exps, c in P.items():
        t = 1
        for var, e in exps.items():
            t *= at[var] ** e
        re, im = re + c.re * t, im + c.im * t
    return re, im


def _bracket(S, x, y, point, values):
    """{k: sum_{i,j} x_i y_j P^{ij}_k(point)} over the row view of S, x and y
    {generator: (re, im)}; values keeps each polynomial's value at each point."""
    out = {}
    for (i, j), row in S.table.items():
        if i not in x or j not in y:
            continue
        c = _times(x[i], y[j])
        for k, P in row:
            key = id(P), point
            if key not in values:
                values[key] = _value(P, {"lam": point[0], "d": point[1]})
            re, im = _times(c, values[key])
            old = out.get(k, (0, 0))
            out[k] = old[0] + re, old[1] + im
    return out


def _draws(S, seed: int):
    """The point (l0, m0, d0), the weights w and, for each parity pair (p(u),
    p(v)) that S has, the weights u and v, drawn from seed."""
    rng = random.Random(seed)
    draw = lambda: rng.randrange(-_RANGE, _RANGE)
    point, w, pairs = (draw(), draw(), draw()), {k: draw() for k in range(S.rank)}, {}
    for pu in (0, 1):
        for pv in (0, 1):
            u = {i: draw() for i in range(S.rank) if S.parities[i] == pu}
            v = {j: draw() for j in range(S.rank) if S.parities[j] == pv}
            if u and v:
                pairs[(pu, pv)] = u, v
    return point, w, pairs


def jacobi_sketch(S, draws) -> dict:
    """{(p(u), p(v)): {m: residual at a_m}} at the draws, nonzero parts only."""
    (l0, m0, d0), w, pairs = draws
    gaussian = lambda x: {g: (c, 0) for g, c in x.items()}
    w, sketch, values = gaussian(w), {}, {}
    for (pu, pv), (u, v) in pairs.items():
        u, v = gaussian(u), gaussian(v)
        X = _bracket(S, v, w, (m0, l0 + d0), values)
        Y = _bracket(S, u, v, (l0, -l0 - m0), values)
        Z = _bracket(S, u, w, (l0, m0 + d0), values)
        terms = (_bracket(S, u, X, (l0, d0), values), _bracket(S, Y, w, (l0 + m0, d0), values),
                 _bracket(S, v, Z, (m0, d0), values))
        s = -1 if pu & pv else 1
        residual = {}
        for m in set().union(*terms):
            (a1, b1), (a2, b2), (a3, b3) = (t.get(m, (0, 0)) for t in terms)
            residual[m] = a1 - a2 - s * a3, b1 - b2 - s * b3
        sketch[(pu, pv)] = {m: r for m, r in residual.items() if r != (0, 0)}
    return sketch


def _from_rows(T, draws) -> dict:
    """The sketch's sums taken from the rows of the Jacobi kernel that
    check_jacobi and check_lie_coalgebra run on T: row i holds R(i, j, k) at
    a_m, component (j n + k) n + m, in the slot variables and L**2 times too
    large, so it is read at (x1, x2, x3) = (l0, m0, -l0-m0-d0)."""
    (l0, m0, d0), w, pairs = draws
    n, (L, table) = T.rank, T.packed
    at = {"x1": l0, "x2": m0, "x3": -l0 - m0 - d0}
    rows = [{c: _value(p, at) for c, p in unpack_vector(row, L * L).items()}
            for row in _jacobi_rows(table, T.parities, not T.flip_residual)]
    sketch = {}
    for key, (u, v) in pairs.items():
        residual = {}
        for i, row in enumerate(rows):
            for c, (re, im) in row.items():
                (j, k), m = divmod(c // n, n), c % n
                if i in u and j in v:
                    f = u[i] * v[j] * w[k]
                    old = residual.get(m, (0, 0))
                    residual[m] = old[0] + f * re, old[1] + f * im
        sketch[key] = {m: r for m, r in residual.items() if r != (0, 0)}
    return sketch


def assert_sketch_agrees(S, seed):
    """The sketch equals the same sums of the kernel's rows, for S and for
    its dual, and is nonzero exactly when check_jacobi reports a violation
    and exactly when check_lie_coalgebra reports a co-Jacobi one on the dual;
    returns whether it is."""
    draws, dual = _draws(S, seed), dualize(S)
    sketch = jacobi_sketch(S, draws)
    assert _from_rows(S, draws) == _from_rows(dual, draws) == sketch, S.name
    nonzero = any(sketch.values())
    co = [v for v in check_lie_coalgebra(dual).violations if v.where[1] == "co-jacobi"]
    assert nonzero == (not check_jacobi(S).ok) == bool(co), (S.name, nonzero)
    return nonzero


def _cli_lie_tables():
    """Every Lie table the command line builds within its caps, with the id
    family-n-b: each n up to the cap or each allowed n, Sb at b in 0, 1 and
    beta."""
    out = []
    for name, fd in cli.FAMILIES.items():
        ns = fd.allowed_n or (range(fd.cap + 1) if fd.cap is not None else [None])
        for n in ns:
            for b in ("0", "1", "beta") if fd.takes_b else (None,):
                try:
                    S = fd.build(n, cli.parse_scalar(b) if b else Scalar(0))
                except StructureError:   # below the family's least n
                    continue
                if S.kind == LIE:
                    out.append(pytest.param(S, id=f"{name}-{n}-{b}"))
    return out


_LIE_TABLES = _cli_lie_tables()


def test_every_lie_family_the_caps_allow_is_covered():
    assert [p.id for p in _LIE_TABLES] == [
        "vir-None-None", "cur-None-None", *(f"w-{n}-None" for n in range(5)),
        "s-2-None", "s-3-None", "sb-2-0", "sb-2-1", "sb-2-beta", "stilde-2-None",
        *(f"k-{n}-None" for n in range(7)), *(f"n-{n}-None" for n in (2, 3, 4)),
        "k4prime-None-None", "ck6-None-None"]


@pytest.mark.parametrize("S", _LIE_TABLES)
def test_sketch_is_zero_on_every_lie_family(S):
    assert not assert_sketch_agrees(S, seed=S.rank)


def _skew_partner(S, i, j, k, q):
    """S with q a_k added to [a_i lam a_j] and its skew image
    -(-1)^{p_i p_j} q(-lam-d, d) a_k to [a_j lam a_i], i != j."""
    sign = -1 if S.parities[i] & S.parities[j] else 1
    T = S.with_entry(i, j, S.entry(i, j) + ConformalElement({k: q}))
    mirror = q.subst_general("lam", -LAM - D).scalar_mul(-sign)
    return T.with_entry(j, i, T.entry(j, i) + ConformalElement({k: mirror}))


@functools.lru_cache(maxsize=None)
def _small_tables():
    return {(name, n): cli.FAMILIES[name].build(n, Scalar(*b)) for name, n, b in (
        ("vir", None, (0,)), ("cur", None, (0,)), ("w", 2, (0,)), ("k", 3, (0,)),
        ("k", 4, (0,)), ("s", 2, (0,)), ("sb", 2, (0, 1)), ("stilde", 2, (0,)))}


def _corruption(seed):
    """A seeded corruption of a small Lie table and its kind: one entry that
    breaks skew ("breaks"), one entry with its skew image ("mirrored"), or
    one diagonal entry [a lam a] whose q(-lam-d, d) = -(-1)^{p(a)} q keeps
    the table skew ("diagonal")."""
    rng, kind = random.Random(seed), ("breaks", "mirrored", "diagonal")[seed % 3]
    tables = [T for _, T in sorted(_small_tables().items(), key=str)
              if kind != "mirrored" or T.rank > 1]
    S = rng.choice(tables)
    par, n = S.parities, S.rank
    c = rng.choice([Scalar(1), Scalar(-1), Scalar(2), Scalar(Fraction(1, 2)), Scalar(0, 1)])
    while True:
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == "diagonal":
            j = i
        elif kind == "mirrored" and i == j:
            continue
        targets = [k for k in range(n) if par[k] == par[i] ^ par[j]]
        if targets:
            break
    k = rng.choice(targets)
    if kind == "diagonal":   # lam(lam+d) is fixed by lam -> -lam-d, 2 lam + d negated
        q = (LAM * (LAM + D) if rng.randrange(2) else MultiPoly.const(1)) * c
        q = q if par[i] else q * (2 * LAM + D)
        return S.with_entry(i, i, S.entry(i, i) + ConformalElement({k: q})), kind
    q = MultiPoly.monomial({"lam": rng.randrange(3), "d": rng.randrange(2)}, c)
    if kind == "mirrored":
        return _skew_partner(S, i, j, k, q), kind
    return S.with_entry(i, j, S.entry(i, j) + ConformalElement({k: q})), kind


def test_sketch_agrees_with_the_checks_on_corruptions():
    """36 seeded corruptions, twelve of each kind: the skew-keeping ones run
    the reduced Jacobi kernel, the others the full one.  Each of them fails
    Jacobi."""
    failing = dict.fromkeys(("breaks", "mirrored", "diagonal"), 0)
    for seed in range(36):
        T, kind = _corruption(seed)
        assert (kind == "breaks") == bool(T.flip_residual), (seed, T.name, kind)
        failing[kind] += assert_sketch_agrees(T, seed)
    assert failing == {"breaks": 12, "mirrored": 12, "diagonal": 12}
