"""Property tests: the kernels against their oracles on random small tables.

The family tables are homogeneous in spectral weight, with small integral or
beta coefficients.  The tables drawn here are not: rank 2-4, mixed parities,
sparse entries of d-degree up to 3 in no particular weight, and coefficients
with denominators 2, 3 and 5, some of them multiples of beta; about half
the entries repeat an earlier entry's polynomial, as in the family tables.
They satisfy no axiom, so every check has violations to report, and the
integer kernels must report them exactly as the oracles of
``test_kernels`` do: the nested
brackets, the per-tuple contractions on Scalar-valued vectors, and the
definitional tensor operations.  On such tables the Jordan kernel's Q2 and
printed R2 intermediates are its R1 in other slot variables.  ``bracket_pairs`` is compared with the
``bracket`` loop on such tables, and ``kernel_basis`` with its oracle on
random C[d]-module maps.  ``span_reader`` reads random Q(beta)[d]
combinations of the embedded bases of the restricted families back to the
drawn coefficients, and refuses a random extra component exactly when the
coordinate oracles do.  ``vector_text`` is compared with the old
term-by-term writer (``helpers.repr_oracle``) on random packed residuals.
The JSON writer is compared with ``json.dumps(x, indent=2)`` on random JSON
values, also ones holding one list at several places, random tables and raw
random coproducts go through ``dumps`` and ``loads`` unchanged, and
``poly_from_json`` agrees with its Fraction-only definition on random
coefficients.  The co-Jacobi and co-Jordan kernels run on raw random
coproducts against the tensor-slot oracle, and ``compare`` against a
term-by-term diff of a coproduct and a permuted, partly dropped, negated
and split copy of it.  The renamed copies, which rename each distinct entry
polynomial once, agree with the per-slot gather of ``test_kernels``;
gathered slots and ``dualize`` entries share no state; and the double dual
agrees with its per-entry oracle and takes each dual entry back to its
table entry.  Each table's cached packed form still matches its dual
entries Q(x1, x2) = P(x1, -x1-x2) after every check of the default
``verify`` set, and so does its cached flip residual, and ``dualize`` sets
the packed form of its rows; a ``with_entry`` copy packs its replaced
entry.  Skew
tables, whose (j, i) entries are the skew images of the drawn (i, j) ones,
pass skew-symmetry and get the nested-bracket Jacobi report, which takes
the reduced kernel and, for most of them, the other permutations of its
nonzero residuals.  The hypothesis profile is set in conftest.
"""

import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, strategies as st  # noqa: E402

from confcoalg import cli, families, serialize  # noqa: E402
from confcoalg.coalgebra import (  # noqa: E402
    check_jordan_coalgebra, check_lie_coalgebra, compare, double_dual_roundtrip, dualize,
)
from confcoalg.conformal import (  # noqa: E402
    CONSISTENT, PRINTED, check_jacobi, check_jordan_comm, check_jordan_identity, check_skew,
)
from confcoalg.poly import (  # noqa: E402
    ALPHABET, BETA, D, LAM, MultiPoly, P_ONE, Scalar, X1, X2, X3, _BETA_SHIFT,
    _COMPONENT_SHIFT, _pack, poly_from_json, unpack_vector, vector_text,
)
from confcoalg.restricted import ModuleMap, NotInSpan, kernel_basis  # noqa: E402
from confcoalg.tables import (  # noqa: E402
    JORDAN, LIE, ConformalElement, Coproduct, Generator, LambdaStructure, dual_generators,
)

from helpers import (  # noqa: E402
    OracleCoproduct, OracleLambdaStructure, _gather, _packed, apply_map,
    assert_stored_as_the_oracle, dual_entry, element_pairs, element_reader,
    parity_keeping_targets, repr_oracle,
)
from test_kernels import (  # noqa: E402
    _bracket_loop, _canonicalize_CK6_oracle, _canonicalize_S_oracle, _co_oracle,
    _coalg_residuals, _cojordan_residuals, _flip_residual, _found, _jacobi_residual,
    _jordan_per_tuple, _kernel_basis_oracle, _oracle, _reading, _roundtrip_per_entry,
    _skew_corruption, assert_gathers_match, assert_r1_renames_to_q2_and_the_printed_r2,
)

_parts = st.builds(Fraction, st.sampled_from((1, -1, 2, -3)), st.sampled_from((1, 2, 3, 5)))
_coefficients = st.builds(Scalar, _parts, st.one_of(st.just(0), _parts))


_terms = st.tuples(st.integers(0, 2), st.integers(0, 3), _coefficients)


def _polys(draw):
    """A sum of one or two terms c lam^a d^b (a <= 2, b <= 3)."""
    p = MultiPoly.zero()
    for a, b, c in draw(st.lists(_terms, min_size=1, max_size=2)):
        p = p + MultiPoly.monomial({"lam": a, "d": b}, c)
    return p


@st.composite
def table_rows(draw, kind, max_entries):
    """(kind, generators, rows) of a table of rank 2-4 with one to
    max_entries entries, each a sum of one or two terms lam^a d^b (a <= 2,
    b <= 3) on a target of the right parity.  About half the entries after
    the first repeat the polynomial of an earlier one, so that equal
    polynomials sit on different (i, j, k), parities and signs, as they do
    in the family tables, and some repeat an (i, j, k)."""
    n = draw(st.integers(2, 4))
    par = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    table, drawn = {}, []
    for _ in range(draw(st.integers(1, max_entries))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        k = draw(st.sampled_from([k for k in range(n) if par[k] == par[i] ^ par[j]] or [None]))
        p = draw(st.sampled_from(drawn)) if drawn and draw(st.booleans()) else _polys(draw)
        drawn.append(p)
        if k is not None:
            table.setdefault((i, j), []).append((k, p))
    gens = [Generator(f"g{i}", p) for i, p in enumerate(par)]
    return kind, gens, table


def tables(kind, max_entries):
    """The LambdaStructure of table_rows."""
    return table_rows(kind, max_entries).map(lambda rows: LambdaStructure(*rows, name="random"))


@st.composite
def skew_tables(draw, max_pairs):
    """A skew Lie table of rank 2-4: entries P^{ij}_k drawn for i <= j on 2
    to max_pairs pairs, (j, i) filled with -(-1)^{p_i p_j} P^{ij}_k(-lam-d, d),
    and each diagonal entry made (q - s q(-lam-d, d))/2 from a drawn q.  Most
    such tables fail Jacobi."""
    n = draw(st.integers(2, 4))
    par = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    table = {}
    for _ in range(draw(st.integers(2, max_pairs))):
        i, j = sorted((draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))))
        k = draw(st.sampled_from([k for k in range(n) if par[k] == par[i] ^ par[j]] or [None]))
        if k is None:
            continue
        q = _polys(draw)
        s = -1 if par[i] & par[j] else 1
        flipped = q.subst_general("lam", -LAM - D).scalar_mul(-s)
        if i == j:
            table.setdefault((i, i), []).append((k, (q + flipped).scalar_mul(Fraction(1, 2))))
        else:
            table.setdefault((i, j), []).append((k, q))
            table.setdefault((j, i), []).append((k, flipped))
    gens = [Generator(f"g{i}", p) for i, p in enumerate(par)]
    return LambdaStructure(LIE, gens, table, name="skew")


def _dualize_oracle(S):
    """dualize, entry by entry through permute_vars and subst_general."""
    table = {}
    for (i, j), entries in S.table.items():
        for k, p in entries:
            q = p.permute_vars({"lam": "x4"}).subst_general("d", -X1 - X2).subst_general("x4", X1)
            table.setdefault(k, []).append((i, j, q))
    return Coproduct(S.kind, dual_generators(S.generators), table, name=S.name + "^c")


def _assert_dual_matches(S, check, residuals):
    cop = dualize(S)
    assert cop.table == _dualize_oracle(S).table
    rep = check(cop)
    assert (rep.total, _found(rep)) == _co_oracle(cop, residuals)


def _shared_table(kind):
    """Rank 3, parities 0, 1, 1: one polynomial on an even-even, an even-odd, an
    odd-even and an odd-odd pair, another on two pairs of different parity."""
    p = LAM + D.scalar_mul(Scalar(Fraction(2, 3), 1))
    q = LAM * D - MultiPoly.const(Fraction(1, 2))
    table = {(0, 0): [(0, p)], (0, 1): [(1, p), (2, q)], (1, 0): [(2, p)], (1, 2): [(0, p)],
             (2, 2): [(0, q)]}
    gens = [Generator(f"g{i}", par) for i, par in enumerate((0, 1, 1))]
    return LambdaStructure(kind, gens, table, name="shared")


def _lower_triples_table():
    """Rank 2, both even, one entry [a1 lam a0] = lam a1: not skew, and every
    Jacobi triple (i, j, k) with j >= i holds while (1, 0, 0) fails, so a
    kernel over part of the triples could pass it if it ran on a table that
    is not skew."""
    gens = [Generator("a0", 0), Generator("a1", 0)]
    return LambdaStructure(LIE, gens, {(1, 0): [(1, LAM)]}, name="lower")


@given(tables(LIE, 8))
@example(_shared_table(LIE))
@example(_lower_triples_table())
def test_lie_kernels_on_random_tables(S):
    rep = check_jacobi(S)
    assert (rep.total, _found(rep)) == (S.rank ** 3, _oracle(S, 3, _jacobi_residual))
    rep = check_skew(S)
    assert (rep.total, _found(rep)) == (S.rank ** 2, _oracle(S, 2, _flip_residual))
    _assert_dual_matches(S, check_lie_coalgebra, _coalg_residuals)


@given(skew_tables(5))
@example(families.make_K(2))
@example(_skew_corruption(families.make_K(3), "xi2", "xi13", "xi123", BETA * LAM * LAM))
def test_jacobi_on_random_skew_tables(S):
    """On skew tables Jacobi runs the kernel over j <= i <= k and writes each
    nonzero residual at the other permutations of its triple too: the report
    is the oracle's.  Their duals are antisymmetric, so co-Jacobi does the
    same: its report is the tensor-slot oracle's."""
    assert check_skew(S).ok
    rep = check_jacobi(S)
    assert (rep.total, _found(rep)) == (S.rank ** 3, _oracle(S, 3, _jacobi_residual))
    _assert_dual_matches(S, check_lie_coalgebra, _coalg_residuals)


# a Jordan residual has degree 3 in the table, so its tables are smaller
@given(tables(JORDAN, 4))
@example(_shared_table(JORDAN))
def test_jordan_kernels_on_random_tables(S):
    for variant in (CONSISTENT, PRINTED):
        rep = check_jordan_identity(S, variant=variant)
        assert (rep.total, _found(rep)) == _jordan_per_tuple(S, variant)
    rep = check_jordan_comm(S)
    assert (rep.total, _found(rep)) == (S.rank ** 2, _oracle(S, 2, _flip_residual))
    _assert_dual_matches(S, check_jordan_coalgebra, _cojordan_residuals)


# the contraction is bilinear in the table, so larger tables cost little here
@given(tables(JORDAN, 12))
def test_r1_renames_to_q2_and_the_printed_r2_on_random_tables(S):
    assert_r1_renames_to_q2_and_the_printed_r2(S)


# -- shared entries: the renamed copies, dualize and the double dual

@given(tables(LIE, 8))
@example(_shared_table(LIE))
def test_gathers_match_per_slot_oracle_on_random_tables(S):
    assert_gathers_match(S)


_JUNK = 1 << 300      # a key above every component a test table reaches


@given(tables(LIE, 8))
@example(_shared_table(LIE))
def test_gathered_slots_and_dual_entries_share_nothing(S):
    """Changing one gathered slot changes no other, and not the table; changing
    one dualize value changes the entries of that value only, not the table
    and not a second dual."""
    def entries(T):
        return {key: [(k, dict(p.terms)) for k, p in row] for key, row in T.table.items()}

    table_before = entries(S)
    _, table = S.packed
    vecs_before = [dict(vec) for vec in table[0]]
    for x1_img, x2_img in ((None, None), (X2, X3)):
        out = _gather(table, x1_img, x2_img, lambda i, j, k: ((i, j), k))
        fresh = _gather(table, x1_img, x2_img, lambda i, j, k: ((i, j), k))
        for slot in out:
            out[slot][_JUNK] = 1
            assert all(out[s] == fresh[s] for s in out if s != slot)
            assert table[0] == vecs_before
            del out[slot][_JUNK]
    duals, fresh_duals = ([q for row in dualize(S).table.values() for _, _, q in row]
                          for _ in range(2))
    first = {}
    assert all(first.setdefault(q, q) is q for q in duals)
    for q in first:
        # q reaches the entries of its value, and no other entry, the second
        # dual or the table
        q.terms[_JUNK] = Scalar(1)
        assert all((r is q) == (_JUNK in r.terms) for r in duals)
        assert all(r == f for r, f in zip(duals, fresh_duals) if r is not q)
        assert entries(S) == table_before
        del q.terms[_JUNK]


# -- the stored form: packed once by the constructor, never changed by a check

def _packed_entries(T):
    """The entries (i, j, k, Q^{ij}_k) of a coproduct, or of the dual of a
    table, Q(x1, x2) = P(x1, -x1-x2), as both pack them."""
    if isinstance(T, Coproduct):
        return [(i, j, k, q) for k, row in T.table.items() for i, j, q in row]
    return [(i, j, k, dual_entry(p)) for (i, j), row in T.table.items() for k, p in row]


def _unpacked(T):
    """T.packed read back entry by entry: {(i, j, k): p}."""
    L, (vecs, slots) = T.packed
    return {(i, j, k): unpack_vector(vecs[e], L)[0] for i, j, k, e in slots}


def assert_packed_once(S):
    """S.packed, set by the constructor, is the same object and still equals
    a fresh _packed of the dual entries after every check of the default
    verify set, and S.flip_residual equals the flip residual of a fresh copy
    of S; dualize(S) keeps S's L and vector list with the slots stably
    regrouped by k, and its stored form is still so after its co-check."""
    packed = S.packed
    fresh = LambdaStructure(S.kind, S.generators, S.table).flip_residual
    for name in cli.LIE_CHECKS if S.kind == LIE else cli.JORDAN_CHECKS:
        cli.CHECKS[name](S, lambda: dualize(S))
        assert S.packed is packed and packed == _packed(_packed_entries(S)), name
        assert S.flip_residual == fresh, name
    L, (vecs, slots) = packed
    cop = dualize(S)
    stored = cop.packed
    assert stored == (L, (vecs, sorted(slots, key=lambda slot: slot[2]))) and stored[1][0] is vecs
    (check_lie_coalgebra if S.kind == LIE else check_jordan_coalgebra)(cop)
    assert cop.packed is stored and packed == _packed(_packed_entries(S))
    assert stored[1][1] == sorted(slots, key=lambda slot: slot[2])
    assert _unpacked(cop) == {(i, j, k): q for i, j, k, q in _packed_entries(cop)}


@given(st.one_of(tables(LIE, 8), tables(JORDAN, 4)))
@example(_shared_table(LIE))
@example(_shared_table(JORDAN))
def test_packed_form_survives_every_check_on_random_tables(S):
    assert_packed_once(S)


@given(st.one_of(table_rows(LIE, 8), table_rows(JORDAN, 4)))
def test_random_tables_are_stored_as_the_oracle_stores_them(rows):
    """The rows through the constructor, their entries through from_slots
    (one value per entry) and their duals as coproduct rows are stored as
    the row oracles store them."""
    kind, gens, table = rows
    oracle = OracleLambdaStructure(kind, gens, table)
    assert_stored_as_the_oracle(LambdaStructure(kind, gens, table), oracle)
    entries = [(i, j, k, p) for (i, j), row in table.items() for k, p in row]
    slots = [(i, j, k, e) for e, (i, j, k, _) in enumerate(entries)]
    assert_stored_as_the_oracle(
        LambdaStructure.from_slots(kind, gens, [p for *_, p in entries], slots), oracle)
    dual = {}
    for i, j, k, p in entries:
        dual.setdefault(k, []).append((i, j, dual_entry(p)))
    cop = Coproduct(kind, dual_generators(gens), dual)
    assert_stored_as_the_oracle(cop, OracleCoproduct(kind, dual_generators(gens), dual))


@pytest.fixture(scope="module")
def packed_families(W, K, S, CK6, Jn, JCK4):
    return {"W_2": W[2], "K_4": K[4], "S_3": S[3], "CK_6": CK6, "J_2": Jn[2], "JCK_4": JCK4}


@pytest.mark.parametrize("name", ["W_2", "K_4", "S_3", "CK_6", "J_2", "JCK_4"])
def test_packed_form_survives_every_check(packed_families, name):
    assert_packed_once(packed_families[name])


def assert_copy_packs_its_entry(S, i, j, value):
    """A with_entry copy made after S was packed packs its own table, with
    the replaced entry as its dual, and leaves S's packed form alone."""
    packed, before = S.packed, _unpacked(S)
    T = S.with_entry(i, j, value)
    assert _unpacked(T) == {(i_, j_, k): p for i_, j_, k, p in _packed_entries(T)}
    assert ({k: p for (i_, j_, k), p in _unpacked(T).items() if (i_, j_) == (i, j)}
            == {k: dual_entry(p) for k, p in value.terms.items()})
    assert S.packed is packed and _unpacked(S) == before


@given(st.data())
def test_with_entry_copy_packs_its_entry_on_random_tables(data):
    S = data.draw(st.one_of(tables(LIE, 8), tables(JORDAN, 4)))
    i, j, k = data.draw(parity_keeping_targets(S))
    assert_copy_packs_its_entry(S, i, j, ConformalElement({k: _polys(data.draw)}))


@pytest.mark.parametrize("name", ["W_2", "K_4", "S_3", "CK_6", "J_2", "JCK_4"])
@given(st.data())
def test_with_entry_copy_packs_its_entry(packed_families, name, data):
    T = packed_families[name]
    i, j, k = data.draw(parity_keeping_targets(T))
    assert_copy_packs_its_entry(T, i, j, ConformalElement({k: LAM * D - P_ONE}))


def _faulty_subst_general(original):
    """subst_general plus 1 whenever d is replaced in a polynomial that has d."""
    def subst_general(self, var, repl):
        out = original(self, var, repl)
        return out + P_ONE if var == "d" and self.degree_in("d") > 0 else out
    return subst_general


@given(tables(LIE, 8))
@example(_shared_table(LIE))
def test_double_dual_on_random_tables(S):
    assert double_dual_roundtrip(S) == _roundtrip_per_entry(S)
    # a faulty substitution fails every entry that has d, once per entry
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MultiPoly, "subst_general", _faulty_subst_general(MultiPoly.subst_general))
        rep, expected = double_dual_roundtrip(S), _roundtrip_per_entry(S)
    assert rep == expected
    assert len(rep.violations) == sum(p.degree_in("d") > 0 for row in S.table.values() for _, p in row)
    # x1 -> lam, x2 -> -lam-d turns each dual entry Q(x1, x2) = P(x1, -x1-x2) back into P
    back = {(i, j, k): q.subst_general("x1", LAM).subst_general("x2", -LAM - D)
            for k, row in dualize(S).table.items() for i, j, q in row}
    assert back == {(i, j, k): p for (i, j), row in S.table.items() for k, p in row}


def _d_poly(draw, min_size=0):
    """A polynomial in d of degree at most 2 with up to two terms."""
    return sum((MultiPoly.monomial({"d": b}, c)
                for b, c in draw(st.lists(st.tuples(st.integers(0, 2), _coefficients),
                                          min_size=min_size, max_size=2))), MultiPoly.zero())


@st.composite
def elements(draw, rank):
    """One to three elements with one to three generator terms, coefficients in d."""
    return [ConformalElement({draw(st.integers(0, rank - 1)): _d_poly(draw, 1)
                              for _ in range(draw(st.integers(1, 3)))})
            for _ in range(draw(st.integers(1, 3)))]


@given(st.data())
def test_bracket_pairs_match_bracket_loop_on_random_tables(data):
    S = data.draw(tables(LIE, 12))
    xs = data.draw(elements(S.rank))
    assert list(element_pairs(S, xs)) == list(_bracket_loop(S, xs))


@st.composite
def module_maps(draw):
    """A map from a free module of rank 1-4 to one of rank 1-3, entries in Q(beta)[d]."""
    ncols, nrows = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    entries = {(i, j): _d_poly(draw) for i in range(nrows) for j in range(ncols)}
    return ModuleMap([f"s{j}" for j in range(ncols)], [f"t{i}" for i in range(nrows)], entries)


@given(module_maps())
def test_kernel_basis_matches_oracle_on_random_maps(M):
    basis = kernel_basis(M)
    assert all(apply_map(M, v) == {} for v in basis)
    assert [list(v.items()) for v in basis] == [list(v.items()) for v in _kernel_basis_oracle(M)]


@pytest.fixture(scope="module")
def restricted(S, Stilde2, S2b, K4p, CK6):
    """name -> (table, ambient, the coordinate oracle over generator names or None)."""
    W3, K6 = S[3].meta["W"], CK6.meta["K6"]
    return {
        "S_3": (S[3], W3, lambda x: _canonicalize_S_oracle(x, W3)),
        "S~_2": (Stilde2, Stilde2.meta["W"], None),
        "S_2b-beta": (S2b["beta"], S2b["beta"].meta["W"], None),
        "K_4'": (K4p, K4p.meta["K4"], None),
        "CK_6": (CK6, K6, lambda x: _canonicalize_CK6_oracle(x, K6)),
    }


@pytest.mark.parametrize("name", ["S_3", "S~_2", "S_2b-beta", "K_4'", "CK_6"])
@given(data=st.data())
def test_span_reader_on_random_combinations(restricted, name, data):
    S, ambient, oracle = restricted[name]
    embeds = S.meta["embeds"]
    read = element_reader(ambient, embeds)
    coeffs = {data.draw(st.integers(0, S.rank - 1)): _d_poly(data.draw, 1)
              for _ in range(data.draw(st.integers(0, 3)))}
    x = ConformalElement()
    for j, c in coeffs.items():
        x = x + embeds[j].scale(c)
    assert read(x) == {j: c for j, c in coeffs.items() if c}
    # one more ambient component
    y = x + ConformalElement({data.draw(st.integers(0, ambient.rank - 1)): _d_poly(data.draw, 1)})
    if oracle is not None:
        named = lambda z: {S.generators[j].id: c for j, c in read(z).items()}  # noqa: E731
        assert _reading(named, y) == _reading(oracle, y)


@given(data=st.data())
def test_k4prime_reader_needs_d_to_divide_the_star(K4p, data):
    """A component d q on xi_star is read as q d xi_star; adding a nonzero
    constant c leaves a remainder that no basis element of K_4' holds."""
    read = element_reader(K4p.meta["K4"], K4p.meta["embeds"])
    star, dstar = K4p.meta["K4"].index["xi1234"], K4p.index["dxistar"]
    c, q = data.draw(_coefficients), _d_poly(data.draw)
    assert read(ConformalElement({star: D * q})) == ({dstar: q} if q else {})
    with pytest.raises(NotInSpan, match="^component on xi1234 is outside the span$"):
        read(ConformalElement({star: MultiPoly.const(c) + D * q}))


# -- residual text: vector_text against repr of the unpacked polynomials

@st.composite
def packed_residuals(draw):
    """(acc, scale): a packed accumulation as the kernels leave it, with
    components 0-5, beta digits 0-2 (beta**2 unfolded), exponents up to 255,
    zero coefficients and pairs that cancel once beta**2 is folded, and a
    scale 1, 2, 6 or L**2; some coefficients are multiples of the scale."""
    scale = draw(st.sampled_from((1, 2, 6, 36, 900)))
    coeffs = st.one_of(st.integers(-40, 40), st.integers(-3, 3).map(lambda c: c * scale))
    exps = st.one_of(st.integers(0, 3), st.integers(250, 255))
    acc = {}
    for _ in range(draw(st.integers(0, 12))):
        mono = _pack(draw(st.dictionaries(st.sampled_from(ALPHABET), exps, max_size=3)))
        key = draw(st.integers(0, 5)) << _COMPONENT_SHIFT | mono
        digit = draw(st.integers(0, 2))
        c = draw(coeffs)
        acc[key | digit << _BETA_SHIFT] = c
        if digit < 2 and draw(st.booleans()):   # c beta^digit (1 + beta**2) = 0
            acc[key | (digit + 2) << _BETA_SHIFT] = c
    return acc, scale


@given(packed_residuals())
@example(({0: 3, 1 << _BETA_SHIFT: -3, 2 << _BETA_SHIFT: 3}, 6))      # -1/2*beta
@example(({1: 2, 1 | 1 << _BETA_SHIFT: 4, 1 << _COMPONENT_SHIFT: 2}, 2))   # (1+2*beta)*lam, 1
def test_vector_text_is_repr_of_the_unpacked_vector(residual):
    acc, scale = residual
    unpacked = unpack_vector(acc, scale)
    expected = {m: repr_oracle(p) for m, p in unpacked.items()}
    assert vector_text(acc, scale) == expected
    assert {m: repr(p) for m, p in unpacked.items()} == expected


# -- JSON: the writer, the round trip of both document types, the coefficient reader

# document values: str keys, bool, int and str leaves, list and dict containers
_json_leaves = st.one_of(
    st.booleans(), st.integers(), st.integers(-2 ** 200, 2 ** 200),
    # non-ASCII, control and lone surrogate characters
    st.text(st.characters(exclude_categories=()), max_size=6),
)
_json_keys = st.text(st.characters(exclude_categories=()), max_size=4)


def _json_containers(children):
    return st.one_of(st.lists(children, max_size=4),
                     st.dictionaries(_json_keys, children, max_size=4))


@given(st.recursive(_json_leaves, _json_containers, max_leaves=25))
@example([True, False, 0, -2 ** 70, {}, [], "", "\u00e9\x00\ud800"])
@example({"\u00e9": {}, "": [[]], "\ud800": {"\x00": True}})
def test_json_writer_is_json_dumps_indent_2(x):
    assert serialize._json_text(x) == json.dumps(x, indent=2)


@st.composite
def _docs_with_shared_lists(draw):
    """A document value holding one list of dicts, and one list nested in
    it, at random places and depths."""
    dicts = st.dictionaries(_json_keys, _json_leaves, max_size=3)
    inner = draw(st.lists(dicts, min_size=1, max_size=3))
    shared = draw(st.lists(st.one_of(dicts, st.just(inner)), min_size=1, max_size=3))
    return draw(st.recursive(st.one_of(_json_leaves, st.just(shared), st.just(inner)),
                             _json_containers, max_leaves=25))


_POLY = [{"coeff": [1, 2, 0, 1], "exps": {"lam": 1}}, {"coeff": [-1, 1, 3, 1], "exps": {}}]


@given(_docs_with_shared_lists())
@example({"a": [_POLY, {"b": _POLY}], "c": _POLY, "d": [[_POLY], [_POLY]], "e": _POLY})
def test_json_writer_on_shared_lists(doc):
    """A list of dicts met at several places and depths, as the "poly" lists
    that the terms of a document share, is written as json.dumps writes
    every copy."""
    assert serialize._json_text(doc) == json.dumps(doc, indent=2)


_OTHER_KEYS = [1, 1.5, True, None]


@pytest.mark.parametrize(
    "bad",
    [1.5, float("nan"), float("inf"), None, (1,), b"x", 1j, {1}, Fraction(1, 2), Scalar(1)]
    + [{k: 1} for k in _OTHER_KEYS],
    ids=["float", "nan", "inf", "None", "tuple", "bytes", "complex", "set", "Fraction",
         "Scalar"] + [f"{type(k).__name__}-key" for k in _OTHER_KEYS])
def test_json_writer_refuses_all_but_document_values(bad):
    """Any value but a dict, list, str, int or bool, and any key but a str,
    raises a TypeError at any depth, a key also after str keys were met."""
    if type(bad) is dict:
        message = f"keys must be str, not {type(next(iter(bad))).__name__}"
    else:
        message = f"Object of type {type(bad).__name__} is not JSON serializable"
    for x in (bad, [1, "s", bad], {"k": [True, {"k": bad}]}):
        with pytest.raises(TypeError) as got:
            serialize._json_text(x)
        assert str(got.value) == message


def _same_table(a, b):
    assert (a.kind, a.name, a.generators, a.table) == (b.kind, b.name, b.generators, b.table)


@given(tables(LIE, 8), tables(JORDAN, 4))
def test_tables_survive_json(S, T):
    for table in (S, T):
        text = serialize.dumps(table)
        back = serialize.loads(text)
        _same_table(back, table)
        assert serialize.dumps(back) == text


@st.composite
def coproducts(draw, kinds=(LIE, JORDAN)):
    """A raw coproduct of one of kinds, the dual of no table: rank 2-4, any
    parities, up to eight entries, each one or two terms c x1^a x2^b (a <= 2,
    b <= 3) on a target of the right parity."""
    n = draw(st.integers(2, 4))
    par = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    table = {}
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        k = draw(st.sampled_from([k for k in range(n) if par[k] == par[i] ^ par[j]] or [None]))
        q = MultiPoly.zero()
        for a, b, c in draw(st.lists(_terms, min_size=1, max_size=2)):
            q = q + MultiPoly.monomial({"x1": a, "x2": b}, c)
        if k is not None:
            table.setdefault(k, []).append((i, j, q))
    gens = [Generator(f"g{i}*", p) for i, p in enumerate(par)]
    return Coproduct(draw(st.sampled_from(kinds)), gens, table, name="random")


@given(coproducts())
def test_coproducts_survive_json(C):
    text = serialize.dumps(C)
    back = serialize.loads(text)
    assert (back.kind, back.name, back.generators) == (C.kind, C.name, C.generators)
    assert _packed_entries(back) == sorted(_packed_entries(C), key=lambda e: (e[2], e[:2]))
    assert serialize.dumps(back) == text


# the co-kernels on raw coproducts, the duals of no table, against the
# definitional tensor-slot path

@given(coproducts((LIE,)))
def test_co_jacobi_on_random_coproducts(C):
    assert (C.rank, _found(check_lie_coalgebra(C))) == _co_oracle(C, _coalg_residuals)


@given(coproducts((JORDAN,)))
def test_co_jordan_on_random_coproducts(C):
    assert (C.rank, _found(check_jordan_coalgebra(C))) == _co_oracle(C, _cojordan_residuals)


@st.composite
def coproduct_pairs(draw):
    """(a, b): a raw coproduct and a variant of it on the same generators in a
    drawn order, with some entries dropped, negated or split into two entries
    of one term each (so that compare has to merge them)."""
    a = draw(coproducts())
    order = draw(st.permutations(range(a.rank)))
    at = {g: p for p, g in enumerate(order)}
    table = {}
    for k in range(a.rank):
        for i, j, q in a.table[k]:
            how = draw(st.sampled_from(("keep", "drop", "negate", "split")))
            if how == "drop":
                continue
            parts = [-q] if how == "negate" else (
                [MultiPoly({m: c}) for m, c in q.terms.items()] if how == "split" else [q])
            table.setdefault(at[k], []).extend((at[i], at[j], p) for p in parts)
    return a, Coproduct(a.kind, [a.generators[g] for g in order], table, name="variant")


def _compare_oracle(a, b):
    """compare by its definition: both sides summed term by term under generator
    ids, the differing (gen, left, right) in a's generator order."""
    def sums(C):
        out = {}
        for k, entries in C.table.items():
            for i, j, q in entries:
                key = tuple(C.generators[g].id for g in (k, i, j))
                acc = out.setdefault(key, {})
                for m, c in q.terms.items():
                    acc[m] = acc[m] + c if m in acc else c
        return {key: MultiPoly({m: c for m, c in t.items() if not c.is_zero()})
                for key, t in out.items()}
    sa, sb = sums(a), sums(b)
    lines = []
    for key in sorted(set(sa) | set(sb), key=lambda t: tuple(a.index[g] for g in t)):
        qa, qb = sa.get(key, MultiPoly.zero()), sb.get(key, MultiPoly.zero())
        if qa != qb:
            lines.append((*key, repr(qa), repr(qb)))
    return lines


@given(coproduct_pairs())
def test_compare_matches_term_by_term_diff(pair):
    a, b = pair
    rep = compare(a, b)
    assert [(l.gen, l.left, l.right, l.got, l.expected) for l in rep.lines] == _compare_oracle(a, b)
    assert compare(a, a).ok and compare(b, b).ok


def _poly_from_json_oracle(data):
    """poly_from_json by its definition: every coefficient part an integer, through Fraction."""
    terms = {}
    for term in data:
        rn, rd, im_n, im_d = term["coeff"]
        for x in term["coeff"]:
            if type(x) is not int:
                raise ValueError(f"coefficient part {x!r} is not an integer")
        c = Scalar(Fraction(rn, rd), Fraction(im_n, im_d))
        exps = term["exps"]
        if type(exps) is not dict:
            raise ValueError(f"exponents {exps!r} are not an object")
        for v, e in exps.items():
            if type(e) is not int:
                raise ValueError(f"exponent {e!r} of {v} is not an integer")
        if c.is_zero():
            continue
        k = _pack({str(v): e for v, e in exps.items()})
        terms[k] = terms[k] + c if k in terms else c
    return MultiPoly({k: c for k, c in terms.items() if not c.is_zero()})


def _outcome(f, data):
    """f(data) as its terms with the types of the coefficient parts, or the exception it raises."""
    try:
        p = f(data)
    except Exception as e:     # noqa: BLE001 -- the exception is the outcome compared
        return type(e), str(e)
    return [(k, type(c.re), c.re, type(c.im), c.im) for k, c in sorted(p.terms.items())]


_numerators = st.one_of(st.integers(-4, 4), st.integers(-2 ** 80, 2 ** 80), st.booleans())
_denominators = st.one_of(st.just(1), st.integers(-3, 6), st.booleans())
_json_terms = st.fixed_dictionaries({
    "coeff": st.tuples(_numerators, _denominators, _numerators, _denominators).map(list),
    # one exponent in three is a float or a bool; two terms often share a monomial
    "exps": st.dictionaries(st.sampled_from(("lam", "d")),
                            st.one_of(st.integers(0, 2), st.integers(0, 2),
                                      st.sampled_from((1.0, True))), max_size=2),
})


@given(st.lists(_json_terms, max_size=3))
@example([{"coeff": [True, 1, 0, 1], "exps": {}}, {"coeff": [2, 1, False, 1], "exps": {"d": 1}}])
@example([{"coeff": [1, 0, 0, 1], "exps": {}}])
@example([{"coeff": [1, 1, 0, 1], "exps": {"d": 1.0}}])
@example([{"coeff": [1, 1, 2, 1], "exps": {"d": 1}}, {"coeff": [-1, 1, -2, 1], "exps": {"d": 1}}])
def test_poly_from_json_matches_fraction_path(data):
    assert _outcome(poly_from_json, data) == _outcome(_poly_from_json_oracle, data)
