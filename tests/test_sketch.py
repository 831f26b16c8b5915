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

The flip identities, skew-symmetry and Jordan commutativity, have a sketch
of their own, taken as the docstrings of check_skew and check_jordan_comm
write them: at (l0, d0) of the same draws, with u and v each of one parity,

    [u_lam v] - s [v_{-lam-d} u],   s = -(-1)^{p(u)p(v)} (Lie), (-1)^{p(u)p(v)} (Jordan),

two walks over the row view.  On a coproduct it is the co-side, read from
its own rows: sum u_i v_j (Q^{ij}_k(x1, x2) - s Q^{ji}_k(x2, x1)) at a point
(x1, x2), so tau delta = -delta (Lie) or tau Delta = Delta (Jordan) holds
where it is zero.  On a machine dual at (x1, x2) = (l0, -l0-d0) it equals
the table's sketch, since Q^{ij}_k(x1, x2) = P^{ij}_k(x1, -x1-x2).  It reads
neither flip_residual nor the flip kernel.

The six-term Jordan identity, both variants as check_jordan_identity's
docstring writes them, is sketched at (lam, mu, nu, d) = (l0, m0, n0, d0)
with u, v and w each of one parity (which fixes s1, s2 and s3) and a fourth
combination z, each term three walks over the row view (see jordan_sketch),
and compared with the same sums of _jordan_rows' rows.

Beside each sketch the exact reports are compared with each other: a table
check and the co-check of its machine dual, each read from its report,
name the same (tuple, generator) pairs.
"""

import functools
import itertools
import random
import re
from fractions import Fraction

import pytest

from confcoalg import cli
from confcoalg import closed_form as cf
from confcoalg.coalgebra import check_jordan_coalgebra, check_lie_coalgebra, dualize
from confcoalg.conformal import (
    CONSISTENT, PRINTED, _jacobi_rows, _jordan_rows, check_jacobi, check_jordan_comm,
    check_jordan_identity, check_skew,
)
from confcoalg.poly import D, LAM, MultiPoly, Scalar, unpack_vector
from confcoalg.tables import JORDAN, LIE, ConformalElement, StructureError

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


def _walk(entries, x, y, at, values):
    """{k: sum_{i,j} x_i y_j P(at)} over entries (i, j, k, P), x and y
    {generator: (re, im)} and at ((variable, value), ...); values keeps each
    polynomial's value at each point."""
    out = {}
    for i, j, k, P in entries:
        if i not in x or j not in y:
            continue
        key = id(P), at
        if key not in values:
            values[key] = _value(P, dict(at))
        re, im = _times(_times(x[i], y[j]), values[key])
        old = out.get(k, (0, 0))
        out[k] = old[0] + re, old[1] + im
    return out


def _bracket(S, x, y, point, values):
    """{k: sum_{i,j} x_i y_j P^{ij}_k(point)} over the row view of S, point (lam, d)."""
    entries = ((i, j, k, P) for (i, j), row in S.table.items() if i in x and j in y for k, P in row)
    return _walk(entries, x, y, (("lam", point[0]), ("d", point[1])), values)


def _cobracket(C, x, y, point, values):
    """{k: sum_{i,j} x_i y_j Q^{ij}_k(point)} over the row view of the
    coproduct C, point (x1, x2)."""
    entries = ((i, j, k, Q) for k, row in C.table.items() for i, j, Q in row)
    return _walk(entries, x, y, (("x1", point[0]), ("x2", point[1])), values)


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


_PARENTHESIS = re.compile(r"[()]")


def _closing(text: str, i: int) -> int:
    """The index of the parenthesis that closes the one at text[i]."""
    depth = 0
    for match in _PARENTHESIS.finditer(text, i):
        depth += 1 if match.group() == "(" else -1
        if not depth:
            return match.start()
    raise AssertionError(f"unbalanced: {text!r}")


def _labels(residual: str) -> list:
    """The label of each part of a violation's residual, "(p)*label + ...":
    a generator name in a table check's report, a tuple "(i, j, ...)" in a
    co-check's.  Each (p) is read to its closing parenthesis, as the
    polynomial's text holds parentheses and " + " of its own."""
    labels, i = [], 0
    while i < len(residual):
        j = _closing(residual, i)
        assert residual[j + 1] == "*", residual
        if residual[j + 2] == "(":
            end = _closing(residual, j + 2) + 1
        else:
            end = residual.find(" ", j + 2)
            end = len(residual) if end < 0 else end
        labels.append(residual[j + 2:end])
        assert residual.startswith(" + (", end) or end == len(residual), residual
        i = end + 3
    return labels


def _table_pairs(S, report) -> set:
    """The (tuple, generator) pairs, as indices, that a table check's report names."""
    index = {g.id: k for k, g in enumerate(S.generators)}
    return {(tuple(index[x] for x in v.where), index[m])
            for v in report.violations for m in _labels(v.residual)}


def _co_pairs(C, report, line) -> set:
    """The (tuple, generator) pairs, as indices, that the lines named line of
    a co-check's report name; the dual generator a_m^* has the index of a_m."""
    index = {g.id: k for k, g in enumerate(C.generators)}
    return {(tuple(map(int, t[1:-1].split(", "))), index[v.where[0]])
            for v in report.violations if v.where[1] == line for t in _labels(v.residual)}


def assert_reports_agree(S, report, dual, co_report, line) -> int:
    """A table check's report on S and the lines named line of the co-check's
    report on its machine dual name the same (tuple, generator) pairs, each
    violation of the table's report at least one; returns how many."""
    pairs = _table_pairs(S, report)
    assert len({where for where, _ in pairs}) == len(report.violations), (S.name, report.check)
    assert pairs == _co_pairs(dual, co_report, line), (S.name, report.check)
    return len(pairs)


def assert_sketch_agrees(S, seed):
    """The sketch equals the same sums of the kernel's rows, for S and for
    its dual, and is nonzero exactly when check_jacobi reports a violation
    and exactly when check_lie_coalgebra reports a co-Jacobi one on the dual,
    the two reports naming the same pairs; returns whether it is."""
    draws, dual = _draws(S, seed), dualize(S)
    sketch = jacobi_sketch(S, draws)
    assert _from_rows(S, draws) == _from_rows(dual, draws) == sketch, S.name
    nonzero = any(sketch.values())
    report, co_report = check_jacobi(S), check_lie_coalgebra(dual)
    assert nonzero == bool(assert_reports_agree(S, report, dual, co_report, "co-jacobi")), S.name
    assert nonzero == (not report.ok), (S.name, nonzero)
    return nonzero


def _cli_tables():
    """Every table the command line builds within its caps, with the id
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
                out.append(pytest.param(S, id=f"{name}-{n}-{b}"))
    return out


_TABLES = _cli_tables()
_LIE_TABLES = [p for p in _TABLES if p.values[0].kind == LIE]


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
    """S with q a_k added to [a_i lam a_j] and its flip image s q(-lam-d,
    d) a_k to [a_j lam a_i], i != j: s = -(-1)^{p_i p_j} in a Lie table,
    (-1)^{p_i p_j} in a Jordan one."""
    sign = _flip_sign(S.kind, S.parities[i], S.parities[j])
    T = S.with_entry(i, j, S.entry(i, j) + ConformalElement({k: q}))
    mirror = q.subst_general("lam", -LAM - D).scalar_mul(sign)
    return T.with_entry(j, i, T.entry(j, i) + ConformalElement({k: mirror}))


@functools.lru_cache(maxsize=None)
def _small_tables():
    return {(name, n): cli.FAMILIES[name].build(n, Scalar(*b)) for name, n, b in (
        ("vir", None, (0,)), ("cur", None, (0,)), ("w", 2, (0,)), ("k", 3, (0,)),
        ("k", 4, (0,)), ("s", 2, (0,)), ("sb", 2, (0, 1)), ("stilde", 2, (0,)))}


@functools.lru_cache(maxsize=None)
def _small_jordan_tables():
    return {(name, n): cli.FAMILIES[name].build(n, Scalar(0)) for name, n in (
        ("jn", 1), ("jn", 2), ("js1", None), ("curjordan", None))}


def _corruption(seed, pool=_small_tables):
    """A seeded corruption of a small table of pool, Lie by default, and its
    kind: one entry that breaks the flip identity ("breaks"), one entry with
    its flip image ("mirrored"), or one diagonal entry [a lam a] whose
    q(-lam-d, d) = s q, s = _flip_sign(kind, p(a), p(a)), keeps it
    ("diagonal")."""
    rng, kind = random.Random(seed), ("breaks", "mirrored", "diagonal")[seed % 3]
    tables = [T for _, T in sorted(pool().items(), key=str)
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
        q = q if _flip_sign(S.kind, par[i], par[i]) == 1 else q * (2 * LAM + D)
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


# -- the flip identities: skew-symmetry and Jordan commutativity


def _flip_sign(kind, p, q):
    """s of the flip identity x = s tau(x): -(-1)^{pq} for Lie, (-1)^{pq} for Jordan."""
    sign = -1 if p & q else 1
    return -sign if kind == LIE else sign


def _flip_residuals(T, draws, walk, there, back) -> dict:
    """{(p(u), p(v)): {k: nonzero residual}} of walk(T, u, v, there) - s
    walk(T, v, u, back) at the draws' weights."""
    _, _, pairs = draws
    gaussian = lambda x: {g: (c, 0) for g, c in x.items()}
    sketch, values = {}, {}
    for (pu, pv), (u, v) in pairs.items():
        u, v, s = gaussian(u), gaussian(v), _flip_sign(T.kind, pu, pv)
        a, b = walk(T, u, v, there, values), walk(T, v, u, back, values)
        residual = {}
        for k in set(a) | set(b):
            (are, aim), (bre, bim) = a.get(k, (0, 0)), b.get(k, (0, 0))
            residual[k] = are - s * bre, aim - s * bim
        sketch[(pu, pv)] = {k: r for k, r in residual.items() if r != (0, 0)}
    return sketch


def flip_sketch(S, draws) -> dict:
    """The table side: [u_lam v] - s [v_{-lam-d} u] at (lam, d) = (l0, d0)."""
    (l0, _, d0), _, _ = draws
    return _flip_residuals(S, draws, _bracket, (l0, d0), (-l0 - d0, d0))


def coflip_sketch(C, draws) -> dict:
    """The co-side: sum u_i v_j (Q^{ij}_k(x1, x2) - s Q^{ji}_k(x2, x1)) at
    (x1, x2) = (l0, -l0-d0), the point of flip_sketch on a machine dual."""
    (l0, _, d0), _, _ = draws
    return _flip_residuals(C, draws, _cobracket, (l0, -l0 - d0), (-l0 - d0, l0))


def _co_report(C):
    return (check_lie_coalgebra if C.kind == LIE else check_jordan_coalgebra)(C)


def _flip_line(C) -> str:
    return "antisymmetry" if C.kind == LIE else "co-commutativity"


def _flip_violations(C) -> list:
    """The antisymmetry or co-commutativity violations of C's exact report."""
    return [v.where for v in _co_report(C).violations if v.where[1] == _flip_line(C)]


def assert_flip_sketch_agrees(S, seed):
    """The flip sketch of S equals the co-side sketch of its dual, and is
    nonzero exactly when check_skew or check_jordan_comm reports a violation
    and exactly when the dual's exact report has a flip violation, the two
    reports naming the same pairs; returns whether it is."""
    draws, dual = _draws(S, seed), dualize(S)
    sketch = flip_sketch(S, draws)
    assert coflip_sketch(dual, draws) == sketch, S.name
    nonzero = any(sketch.values())
    report = (check_skew if S.kind == LIE else check_jordan_comm)(S)
    agree = assert_reports_agree(S, report, dual, _co_report(dual), _flip_line(dual))
    assert nonzero == bool(agree), S.name
    assert nonzero == (not report.ok), (S.name, nonzero)
    return nonzero


def test_every_jordan_family_the_caps_allow_is_covered():
    assert [p.id for p in _TABLES if p.values[0].kind == JORDAN] == [
        *(f"jn-{n}-None" for n in range(4)), "js1-None-None", "jck4-None-None",
        "curjordan-None-None"]


@pytest.mark.parametrize("S", _TABLES)
def test_flip_sketch_is_zero_on_every_family(S):
    assert not assert_flip_sketch_agrees(S, seed=S.rank)


def test_flip_sketch_agrees_with_the_checks_on_corruptions():
    """24 seeded corruptions, twelve Lie and twelve Jordan, four of each
    kind: the ones that break the flip identity fail, the others pass."""
    failing = []
    for seed in range(24):
        T, kind = _corruption(seed, (_small_tables, _small_jordan_tables)[seed % 2])
        assert T.kind == (LIE, JORDAN)[seed % 2]
        failing.append(assert_flip_sketch_agrees(T, seed))
        assert failing[-1] == (kind == "breaks"), (seed, T.name, kind)
    assert sum(failing) == 8


# -- the Jordan identity


def _jordan_draws(S, seed: int):
    """The point (l0, m0, n0, d0), the weights z and, for each parity triple
    (p(u), p(v), p(w)) that S has, the weights u, v and w, drawn from seed."""
    rng = random.Random(seed)
    draw = lambda: rng.randrange(-_RANGE, _RANGE)
    point, z, triples = (draw(), draw(), draw(), draw()), {k: draw() for k in range(S.rank)}, {}
    for parities in itertools.product((0, 1), repeat=3):
        u, v, w = ({i: draw() for i in range(S.rank) if S.parities[i] == p} for p in parities)
        if u and v and w:
            triples[parities] = u, v, w
    return point, z, triples


def jordan_sketch(S, draws, variant) -> dict:
    """{(p(u), p(v), p(w)): {m: residual at a_m}} at the draws, nonzero parts
    only: the left side less the right side of the identity of
    check_jordan_identity's docstring, at (a, b, c, d) = (u, v, w, z) and
    (lam, mu, nu, d) = (l0, m0, n0, d0), T = lam-mu for PRINTED and
    lam+nu-mu for CONSISTENT.  Each term is three walks over the row view:
    [x_a q(d) y] = q(a+d) [x_a y] reads an inner right factor at a+d, and
    [q(d) x_a y] = q(-a) [x_a y] an inner left one at -a, so that, with
    a_{-mu-d} b read at lam+mu as [a_lam b] at d = -lam-mu,

        BC = [v w] at (m0, -n0),  AB = [u v] at (l0, -l0-m0),  CA = [w u] at (n0-m0, -T),
        a_lam((b_mu c)_nu d)                = [u [BC z] at (n0, l0+d0)] at (l0, d0),
        b_mu((c_{nu-mu} a)_T d)             = [v [CA z] at (T, m0+d0)] at (m0, d0),
        c_{nu-mu}((a_{-mu-d} b)_{lam+mu} d) = [w [AB z] at (l0+m0, n0-m0+d0)] at (n0-m0, d0),

    and the right side likewise, each term times its sign s1, s2 or s3."""
    (l0, m0, n0, d0), z, triples = draws
    gaussian = lambda x: {g: (c, 0) for g, c in x.items()}
    z, sketch, values = gaussian(z), {}, {}
    br = lambda x, y, point: _bracket(S, x, y, point, values)
    T, T3 = (l0 - m0 if variant == PRINTED else l0 + n0 - m0), l0 + n0 - m0
    for (pu, pv, pw), weights in triples.items():
        u, v, w = map(gaussian, weights)
        BC, AB = br(v, w, (m0, -n0)), br(u, v, (l0, -l0 - m0))
        sides = ((pu & pw, br(u, br(BC, z, (n0, l0 + d0)), (l0, d0)),
                  br(AB, br(w, z, (n0 - m0, l0 + m0 + d0)), (l0 + m0, d0))),
                 (pu & pv, br(v, br(br(w, u, (n0 - m0, -T)), z, (T, m0 + d0)), (m0, d0)),
                  br(BC, br(u, z, (l0, n0 + d0)), (n0, d0))),
                 (pv & pw, br(w, br(AB, z, (l0 + m0, n0 - m0 + d0)), (n0 - m0, d0)),
                  br(br(w, u, (n0 - m0, -T3)), br(v, z, (m0, T3 + d0)), (T3, d0))))
        residual = {}
        for odd, left, right in sides:
            s = -1 if odd else 1
            for m in set(left) | set(right):
                (a, b), (c, e) = left.get(m, (0, 0)), right.get(m, (0, 0))
                old = residual.get(m, (0, 0))
                residual[m] = old[0] + s * (a - c), old[1] + s * (b - e)
        sketch[(pu, pv, pw)] = {m: r for m, r in residual.items() if r != (0, 0)}
    return sketch


def _from_jordan_rows(T, draws, variant) -> dict:
    """The Jordan sketch's sums taken from the rows of _jordan_rows: row a
    holds the residual of (a, b, c, d) at a_m, component ((b n + c) n + d) n
    + m, in the slot variables and L**3 times too large, so it is read at
    (x1, x2, x3, x4) = (l0, m0, n0-m0, -l0-n0-d0)."""
    (l0, m0, n0, d0), z, triples = draws
    n, (L, table) = T.rank, T.packed
    at = {"x1": l0, "x2": m0, "x3": n0 - m0, "x4": -l0 - n0 - d0}
    rows = [{c: _value(p, at) for c, p in unpack_vector(row, L ** 3).items()}
            for row in _jordan_rows(table, T.parities, variant)]
    sketch = {}
    for key, (u, v, w) in triples.items():
        residual = {}
        for a, row in enumerate(rows):
            for comp, (re_, im) in row.items():
                (b, c, d), m = (comp // n ** 3, comp // n ** 2 % n, comp // n % n), comp % n
                if a in u and b in v and c in w:
                    f = u[a] * v[b] * w[c] * z[d]
                    old = residual.get(m, (0, 0))
                    residual[m] = old[0] + f * re_, old[1] + f * im
        sketch[key] = {m: r for m, r in residual.items() if r != (0, 0)}
    return sketch


def assert_jordan_sketch_agrees(S, seed, variant):
    """The Jordan sketch equals the same sums of the kernel's rows and is
    nonzero exactly when check_jordan_identity reports a violation; for the
    consistent identity also exactly when the dual's exact report has a
    co-Jordan violation, the two reports naming the same pairs.  Returns
    whether it is nonzero."""
    draws = _jordan_draws(S, seed)
    sketch = jordan_sketch(S, draws, variant)
    assert _from_jordan_rows(S, draws, variant) == sketch, (S.name, variant)
    nonzero, report = any(sketch.values()), check_jordan_identity(S, variant)
    assert nonzero == (not report.ok), (S.name, variant, nonzero)
    if variant == CONSISTENT:
        dual = dualize(S)
        assert nonzero == bool(assert_reports_agree(S, report, dual, _co_report(dual), "co-jordan"))
    return nonzero


@pytest.mark.parametrize("S", [p for p in _TABLES if p.values[0].kind == JORDAN])
def test_jordan_sketch_on_every_jordan_family(S):
    """Nonzero on the by-design failures only: the consistent identity on
    J_2 and J_3, the printed one on J_0 to J_3, JS_1 and JCK_4."""
    failing = {CONSISTENT: ("J_2", "J_3"), PRINTED: ("J_0", "J_1", "J_2", "J_3", "JS_1", "JCK_4")}
    for variant, names in failing.items():
        assert assert_jordan_sketch_agrees(S, S.rank, variant) == (S.name in names), variant


def test_jordan_sketch_agrees_with_the_checks_on_corruptions():
    """24 seeded corruptions of the small Jordan tables, eight of each kind,
    under both variants."""
    failing = {CONSISTENT: 0, PRINTED: 0}
    for seed in range(24):
        T, _ = _corruption(seed, _small_jordan_tables)
        for variant in failing:
            failing[variant] += assert_jordan_sketch_agrees(T, seed, variant)
    assert failing == {CONSISTENT: 23, PRINTED: 24}


# family-n of every closed form the caps allow, one per table of a family with one
_CLOSED_FORMS = [p.id.rsplit("-", 1)[0] for p in _TABLES if cli.FAMILIES[p.id.split("-")[0]].formula]


def test_every_closed_form_the_caps_allow_is_covered():
    assert _CLOSED_FORMS == [
        "vir-None", "cur-None", *(f"w-{n}" for n in range(5)), "s-2", "s-3",
        *(f"k-{n}" for n in range(7)), *(f"n-{n}" for n in (2, 3, 4)), "k4prime-None",
        "ck6-None", *(f"jn-{n}" for n in range(4)), "js1-None", "jck4-None"]


@pytest.mark.parametrize("case", _CLOSED_FORMS)
def test_coflip_sketch_on_every_closed_form(case):
    """The co-side sketch of every closed form the caps allow is nonzero
    exactly when its exact report has a flip violation: on the N = 4 list
    and K_4', whose three xi_kl* rows carry the slips of defect 5."""
    name, n = case.split("-")
    C = cli.FAMILIES[name].tabulated(None if n == "None" else int(n))
    nonzero = any(coflip_sketch(C, _draws(C, seed=C.rank)).values())
    assert nonzero == bool(_flip_violations(C)) == (case in ("n-4", "k4prime-None"))
