"""Every table is built straight into its stored form through Table._store.

The oracles are the two constructors as they stood before the slot path
(helpers.OracleLambdaStructure, helpers.OracleCoproduct), which walked their
rows entry by entry.  Each table the package builds, read back from JSON or
corrupted by corrupt_entry, has the packed form and the rows that the oracle
makes of the same entries, and the stored form of every family and emitter
at every n the command line allows is pinned to the one recorded before.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from confcoalg import cli, closed_form as cf, closed_form_builder, families, masks, serialize
from confcoalg.masks import alpha_mask, eps_mask
from confcoalg.poly import D, LAM, MU, MultiPoly, Scalar, X1, X2, X3, poly_from_json
from confcoalg.tables import Coproduct, Generator, JORDAN, LIE, LambdaStructure, StructureError

from helpers import (
    OracleCoproduct, OracleLambdaStructure, assert_stored_as_the_oracle, count_calls, random_poly,
)

# sha256 (first 16 hex digits) of repr((L, [sorted(vec.items()) for vec in
# vecs], slots)) of every family and emitter at every n its cap allows, with
# b = 0 and b = beta for sb: recorded from the row constructors, before the
# families, emitters and readers handed their values and slots to _store
STORED_FORMS = {
    "vir": "62ceaa6fb201caa9",
    "vir^c": "62ceaa6fb201caa9",
    "cur": "4918fcb6629d095e",
    "cur^c": "f7d9d985267dcb74",
    "w-0": "814a5485ca4622e9",
    "w-0^c": "814a5485ca4622e9",
    "w-1": "f2275d859624a88e",
    "w-1^c": "1374208f0e471c3a",
    "w-2": "754e7b03f1903266",
    "w-2^c": "53a0cc14bdf26adb",
    "w-3": "2db3964d13dc19a1",
    "w-3^c": "3eb45fd0adffdfea",
    "w-4": "3e81f76f1ecfda6d",
    "w-4^c": "128da3b3db5bce76",
    "s-2": "a994a4c5da3f957a",
    "s-2^c": "f3c3ae093a9fafe4",
    "s-3": "78633f408566c931",
    "s-3^c": "e894ed23f0d2b2f5",
    "sb-2": "bb8f128b4455a55d",
    "sb-2-beta": "66ea391764737469",
    "stilde-2": "aac993334a2dc202",
    "k-0": "62b9e65b77c81e57",
    "k-0^c": "62b9e65b77c81e57",
    "k-1": "627a8f37ee3ad065",
    "k-1^c": "c099172c29affc2f",
    "k-2": "3e5c541a7ef9fd40",
    "k-2^c": "853f550a057d41ad",
    "k-3": "22248914b787bf2e",
    "k-3^c": "86d387dc36df244e",
    "k-4": "20931b03a58f6323",
    "k-4^c": "ce17f706b19726a0",
    "k-5": "33c920e78b092135",
    "k-5^c": "cdc45a26c165fcba",
    "k-6": "509af4b4ff1e1a2b",
    "k-6^c": "2207a181cf14a3c1",
    "n-2": "3e5c541a7ef9fd40",
    "n-2^c": "dbf43c7fdcd12105",
    "n-3": "22248914b787bf2e",
    "n-3^c": "7793b757638ee2ce",
    "n-4": "20931b03a58f6323",
    "n-4^c": "981400b8deced90b",
    "k4prime": "1b1abae5c83f6eab",
    "k4prime^c": "0c155bda41cfba4d",
    "ck6": "e29553b94275d882",
    "ck6^c": "503cfa905959c25f",
    "jn-0": "e6ac8cc2526596fe",
    "jn-0^c": "9627ab440f79df60",
    "jn-1": "d356c8dc549c05f4",
    "jn-1^c": "aa29f16f75082fad",
    "jn-2": "cf95a55149c0b56d",
    "jn-2^c": "ee08bf00d7b75dcb",
    "jn-3": "6e72bb22be3455ac",
    "jn-3^c": "86423ac6fe894bce",
    "js1": "c99e492c23c9f906",
    "js1^c": "4830dfe895c5b357",
    "jck4": "b67e147c31554dc9",
    "jck4^c": "5b0b0ca4080cea1c",
    "curjordan": "7159d9af1ad36926",
}


def _digest(T) -> str:
    L, (vecs, slots) = T.packed
    return hashlib.sha256(repr((L, [sorted(v.items()) for v in vecs], slots)).encode()).hexdigest()[:16]


def _cases():
    """(label, build) of every cli.FAMILIES constructor and emitter at every n its cap allows."""
    out = []
    for name, fd in cli.FAMILIES.items():
        for n in fd.allowed_n or (range(fd.cap + 1) if fd.cap is not None else [None]):
            label = name + ("" if n is None else f"-{n}")
            for suffix, b in (("", Scalar(0)), ("-beta", Scalar(0, 1)))[:1 + fd.takes_b]:
                out.append((label + suffix, lambda fd=fd, n=n, b=b: fd.build(n, b)))
            if fd.formula:
                out.append((label + "^c", lambda fd=fd, n=n: fd.tabulated(n)))
    return out


# the n the constructors refuse: S_n and S_{n,b} below 2, S~_n at odd n
REFUSED = {"s-0", "s-1", "s-0^c", "s-1^c", "sb-0", "sb-0-beta", "sb-1", "sb-1-beta", "stilde-0",
           "stilde-1"}


@pytest.fixture(scope="module")
def built():
    tables = {}
    for label, build in _cases():
        try:
            tables[label] = build()
        except StructureError:
            assert label in REFUSED, label
    return tables


def test_every_family_and_emitter_at_every_n_is_covered(built):
    """The pins cover every family and emitter the command line builds at
    every n its cap allows, and only the refused n build nothing."""
    assert set(built) == set(STORED_FORMS)
    assert {label for label, _ in _cases()} == set(STORED_FORMS) | REFUSED


@pytest.mark.parametrize("label", sorted(STORED_FORMS))
def test_stored_form_is_the_oracle_s_and_the_recorded_one(built, label):
    """packed and the rows equal those the row constructor makes of the
    table's entries, and packed is the one recorded before the slot path:
    the same L, the same vectors in the same order and the same slots."""
    T = built[label]
    assert_stored_as_the_oracle(T)
    assert _digest(T) == STORED_FORMS[label]


def _oracle_of_document(doc):
    """The table of a JSON document as the readers built it before the slot
    path: its rows converted term by term and given to the row constructor."""
    gens = [Generator(g["id"], g["parity"], g.get("latex")) for g in doc["generators"]]
    at = {g.id: i for i, g in enumerate(gens)}
    if doc["type"] == "lambda_structure":
        rows = {(at[r["left"]], at[r["right"]]): [(at[t["gen"]], poly_from_json(t["poly"]))
                                                   for t in r["terms"]] for r in doc["table"]}
        return OracleLambdaStructure(doc["kind"], gens, rows, doc["name"])
    rows = {at[r["gen"]]: [(at[p["left"]], at[p["right"]], poly_from_json(p["poly"]))
                           for p in r["pairs"]] for r in doc["table"]}
    return OracleCoproduct(doc["kind"], gens, rows, doc["name"])


@pytest.mark.parametrize("label", sorted(STORED_FORMS))
def test_json_round_trip_is_stored_as_the_oracle_reads_it(built, label):
    text = serialize.dumps(built[label])
    read = serialize.loads(text)
    assert type(read) is type(built[label])
    assert_stored_as_the_oracle(read, _oracle_of_document(json.loads(text)))
    assert serialize.dumps(read) == text


@pytest.mark.parametrize("seed", range(6))
def test_corrupted_copies_are_stored_as_the_oracle_stores_them(built, seed):
    """corrupt_entry copies the table's slots and re-slots one (i, j): the
    copy equals the row constructor's table of the parent's rows with that
    row replaced, as with_entry built it before."""
    rng = random.Random(seed)
    labels = sorted(label for label, T in built.items() if isinstance(T, LambdaStructure))
    for label in rng.sample(labels, 4):
        S = built[label]
        i, j = rng.randrange(S.rank), rng.randrange(S.rank)
        targets = [k for k in range(S.rank) if S.parities[k] == S.parities[i] ^ S.parities[j]]
        if not targets:
            continue
        k = rng.choice(targets)
        p = random_poly(rng, nvars=4).subst_general("mu", LAM).subst_general("nu", D)
        g = S.generators
        copy = families.corrupt_entry(S, g[i].id, g[j].id, g[k].id, p)
        rows = dict(S.table)
        rows[(i, j)] = [(k, p)] if p.terms else []
        assert_stored_as_the_oracle(
            copy, OracleLambdaStructure(S.kind, g, rows, S.name + "?", dict(S.meta)))
        assert copy.meta == S.meta and copy.name == S.name + "?"


def _both(kind, gens, rows, values, slots, cls):
    """The table of rows through the constructor and of (values, slots)
    through from_slots, each checked against the row oracle."""
    oracle = (OracleLambdaStructure if cls is LambdaStructure else OracleCoproduct)(kind, gens, rows)
    made = [cls(kind, gens, rows), cls.from_slots(kind, gens, values, slots)]
    for T in made:
        assert_stored_as_the_oracle(T, oracle)
    return made[1]


def test_repeated_entries_are_summed_and_zero_sums_dropped():
    gens = [Generator("a", 0), Generator("b", 0)]
    rows = {(0, 1): [(1, LAM), (1, D), (1, -LAM)], (1, 1): [(0, D), (0, -D)], (1, 0): [(0, 2 * D)]}
    S = _both(LIE, gens, rows, [LAM, D, -LAM, -D, 2 * D],
              [(0, 1, 1, 0), (0, 1, 1, 1), (0, 1, 1, 2), (1, 1, 0, 1), (1, 1, 0, 3), (1, 0, 0, 4)],
              LambdaStructure)
    assert S.table == {(0, 0): [], (0, 1): [(1, D)], (1, 0): [(0, 2 * D)], (1, 1): []}
    # a coproduct keeps the pairs of a row in order of first occurrence; a
    # pair whose sum falls to zero and is added again comes last
    q = X1 - X2
    rows = {0: [(0, 1, q), (1, 0, q), (0, 1, -q), (0, 1, X1), (1, 1, q), (1, 1, -q)]}
    C = _both(LIE, gens, rows, [q, -q, X1], [(0, 1, 0, 0), (1, 0, 0, 0), (0, 1, 0, 1),
                                             (0, 1, 0, 2), (1, 1, 0, 0), (1, 1, 0, 1)], Coproduct)
    assert C.table == {0: [(1, 0, q), (0, 1, X1)], 1: []}


def test_zero_entries_are_dropped():
    """A zero entry given once, with no repeat to merge it, is no slot."""
    gens = [Generator("a", 0), Generator("b", 0)]
    zero = MultiPoly.zero()
    S = _both(LIE, gens, {(0, 0): [(0, zero)], (0, 1): [(1, LAM)]}, [zero, LAM],
              [(0, 0, 0, 0), (0, 1, 1, 1)], LambdaStructure)
    assert S.packed[1][1] == [(0, 1, 1, 0)] and S.table[(0, 0)] == []
    C = _both(LIE, gens, {0: [(0, 1, zero), (1, 0, X1)]}, [zero, X1], [(0, 1, 0, 0), (1, 0, 0, 1)],
              Coproduct)
    assert C.packed[1][1] == [(1, 0, 0, 0)]


def test_cancelled_denominators_and_gaussian_parts_leave_the_common_denominator():
    """Sums are taken before L is: 1/2 lam + 1/2 lam packs at L = 1, and
    (1 + beta) d + (1 - beta) d keeps no beta part."""
    gens = [Generator("a", 0)]
    half = LAM * Fraction(1, 2)
    S = _both(LIE, gens, {(0, 0): [(0, half), (0, half)]}, [half], [(0, 0, 0, 0), (0, 0, 0, 0)],
              LambdaStructure)
    assert S.packed[0] == 1 and S.table[(0, 0)] == [(0, LAM)]
    plus, minus = D * Scalar(1, 1), D * Scalar(1, -1)
    S = _both(JORDAN, gens, {(0, 0): [(0, plus), (0, minus)]}, [plus, minus],
              [(0, 0, 0, 0), (0, 0, 0, 1)], LambdaStructure)
    assert S.table[(0, 0)] == [(0, 2 * D)] and S.packed[0] == 1
    third = X1 * Fraction(1, 3)
    C = _both(LIE, gens, {0: [(0, 0, third), (0, 0, -third), (0, 0, X2)]}, [third, -third, X2],
              [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2)], Coproduct)
    assert C.packed[0] == 1 and C.table[0] == [(0, 0, X2)]


def test_equal_values_share_one_vector_in_order_of_first_use():
    """Values are numbered by value: two equal objects, or a sum equal to a
    given value, are one vector, numbered where the sorted slots first use it."""
    gens = [Generator("a", 0), Generator("b", 0)]
    values = [MultiPoly.const(2), LAM, MultiPoly.const(1), MultiPoly.const(1), LAM]
    slots = [(1, 1, 0, 0), (0, 0, 0, 1), (0, 1, 1, 2), (0, 1, 1, 3), (1, 0, 0, 4)]
    rows = {(1, 1): [(0, values[0])], (0, 0): [(0, LAM)], (0, 1): [(1, values[2]), (1, values[3])],
            (1, 0): [(0, values[4])]}
    S = _both(LIE, gens, rows, values, slots, LambdaStructure)
    assert S.packed[1][1] == [(0, 0, 0, 0), (0, 1, 1, 1), (1, 0, 0, 0), (1, 1, 0, 1)]


@pytest.mark.parametrize("cls", [LambdaStructure, Coproduct])
def test_store_hashes_each_used_value_once(monkeypatch, cls):
    """With no repeated (i, j, k), _store hashes each used value index once,
    to number it, and no value that no slot uses: equal values, a value two
    slots share, and one with stray variables, whose refusal is the first
    failing slot's."""
    x, y = (LAM, D) if cls is LambdaStructure else (X1, X2)
    gens = [Generator("a", 0), Generator("b", 0)]
    values = [x, x * y, MultiPoly.const(1), x * y, y, MultiPoly.const(5)]     # 5 unused
    slots = [(1, 1, 0, 0), (0, 0, 1, 1), (0, 1, 1, 2), (1, 0, 0, 3), (0, 1, 0, 2), (1, 1, 1, 4)]
    with monkeypatch.context() as m:
        hashed = count_calls(m, MultiPoly, "__hash__")
        T = cls.from_slots(LIE, gens, values, slots)
    assert len(hashed) == 5 and len(T.packed[1][0]) == 4
    stray, message = (MU, "variables {'mu'}$") if cls is LambdaStructure else (X3, "uses x3;")
    with monkeypatch.context() as m:
        hashed = count_calls(m, MultiPoly, "__hash__")
        with pytest.raises(StructureError, match=message):
            cls.from_slots(LIE, gens, values + [stray], slots + [(0, 0, 0, 6)])
    assert len(hashed) == 6


LIE_GENS = [Generator("a", 0), Generator("b", 1)]
CO_GENS = [Generator("a*", 0), Generator("b*", 1)]


@pytest.mark.parametrize("cls, gens, slots, value, message", [
    (LambdaStructure, LIE_GENS, [(2, 0, 0, 0)], LAM,
     r"^row \(2, 0\) is not a pair of generator indices in range\(2\)$"),
    (LambdaStructure, LIE_GENS, [(0, -1, 0, 0)], LAM,
     r"^row \(0, -1\) is not a pair of generator indices in range\(2\)$"),
    (LambdaStructure, LIE_GENS, [(0, 0, 5, 0)], LAM,
     r"^row \(0, 0\) names generator index 5, not in range\(2\)$"),
    (LambdaStructure, LIE_GENS, [(0, 0, 0, 0), (0, 1, 0, 0)], LAM,
     r"^parity violation in \(a,b\) -> a$"),
    (LambdaStructure, LIE_GENS, [(0, 0, 0, 0)], LAM * MU, r"^table entry uses variables \{'mu'\}$"),
    (Coproduct, CO_GENS, [(0, 0, 3, 0)], X1, r"^delta row 3 is not a generator index in range\(2\)$"),
    (Coproduct, CO_GENS, [(0, 5, 0, 0)], X1,
     r"^delta\(a\*\) names the pair \(0, 5\), not in range\(2\)$"),
    (Coproduct, CO_GENS, [(0, 1, 0, 0)], X1, r"^parity violation in delta\(a\*\)$"),
    (Coproduct, CO_GENS, [(1, 1, 0, 0)], X1 * X3,
     r"^delta\(a\*\) @ b\* \(x\) b\* uses x3; coproduct entries may only use x1 and x2$"),
])
def test_slot_path_refuses_with_the_constructor_messages(cls, gens, slots, value, message):
    with pytest.raises(StructureError, match=message):
        cls.from_slots(LIE, gens, [value], slots)


@pytest.mark.parametrize("cls, gens, entry, value, message", [
    (LambdaStructure, [Generator("a", 0)], (0, 0, 5), LAM,
     r"^row \(0, 0\) names generator index 5, not in range\(1\)$"),
    (LambdaStructure, LIE_GENS, (0, 0, 1), LAM, r"^parity violation in \(a,a\) -> b$"),
    (LambdaStructure, LIE_GENS, (0, 0, 0), MU, r"^table entry uses variables \{'mu'\}$"),
    (Coproduct, [Generator("a*", 0)], (5, 0, 0), X1,
     r"^delta\(a\*\) names the pair \(5, 0\), not in range\(1\)$"),
    (Coproduct, CO_GENS, (0, 1, 0), X1, r"^parity violation in delta\(a\*\)$"),
    (Coproduct, CO_GENS, (0, 0, 0), LAM,
     r"^delta\(a\*\) @ a\* \(x\) a\* uses lam; coproduct entries may only use x1 and x2$"),
])
def test_entries_that_cancel_are_checked_as_given(cls, gens, entry, value, message):
    """Each nonzero entry is checked before repeats are summed: two entries
    (i, j, k) that cancel still name generators in range, add parities and
    use the table's variables, through the rows and through the slots."""
    i, j, k = entry
    rows = ({(i, j): [(k, value), (k, -value)]} if cls is LambdaStructure
            else {k: [(i, j, value), (i, j, -value)]})
    with pytest.raises(StructureError, match=message):
        cls(LIE, gens, rows)
    with pytest.raises(StructureError, match=message):
        cls.from_slots(LIE, gens, [value, -value], [(i, j, k, 0), (i, j, k, 1)])


@pytest.mark.parametrize("cls", [LambdaStructure, Coproduct])
def test_slot_path_refuses_an_unknown_kind_and_a_bad_parity(cls):
    with pytest.raises(StructureError, match=r"^unknown kind 'lei'$"):
        cls.from_slots("lei", [Generator("a", 0)], [], [])
    for parity in (2, True, 1.0):
        with pytest.raises(StructureError, match=rf"^parity {parity!r} of generator 'b' is not 0 or 1$"):
            cls.from_slots(LIE, [Generator("a", 0), Generator("b", parity)], [], [])


def test_sign_tables_are_eps_mask_and_alpha_mask():
    """make_K and make_Jn read eps(i, I) and the parity of alpha(I, J) from
    the tables of one call: every entry agrees with grassmann, n <= 6."""
    for n in range(7):
        eps, odd = masks._sign_tables(n)
        assert len(eps) == n + 1 and all(len(row) == 1 << n for row in eps[1:])
        assert len(odd) == 1 << n
        for m in range(1 << n):
            for i in range(1, n + 1):
                if m >> (i - 1) & 1:
                    assert eps[i][m] == eps_mask(i, m)
            for J in range(1 << n):
                if not m & J:
                    assert (J & odd[m]).bit_count() & 1 == alpha_mask(m, J) & 1


@pytest.mark.parametrize("build", [
    lambda: families.make_K(6), lambda: families.make_W(3), lambda: families.make_Jn(3),
    families.make_cur_sl2, lambda: families.make_S(3), families.make_CK6,
])
def test_builders_hand_each_value_once(monkeypatch, build):
    """The direct builders and the restriction hand Table.from_slots each
    distinct value as one object, each used by a slot, and build no rows."""
    with monkeypatch.context() as m:
        given = count_calls(m, LambdaStructure, "from_slots")
        T = build()
    (_, _, values, slots, *_), = given[-1:]
    assert len(values) == len(set(values)) == len({id(p) for p in values})
    assert {e for *_, e in slots} == set(range(len(values)))
    assert "table" not in vars(T)
    if T.name == "K_6":
        assert (len(slots), len(values)) == (len(T.packed[1][1]), 31)


def test_sums_of_one_and_of_scalar_one_share_one_value():
    """An emitter's sums of 1 and of Scalar(1), and put's and put_gaussian's
    equal sums, are one value of the coproduct."""
    b = closed_form_builder._Builder(LIE, [Generator("a", 0), Generator("b", 0)], "ones")
    b.put(0, 0, 0, 1)
    b.put(0, 1, 1, Scalar(1))
    b.put(1, 0, 1, Fraction(1, 2), x1=Fraction(1, 2))
    b.put_gaussian(1, 1, 0, (1, 0, 1, 0, 0, 0))
    C = b.done()
    half = (MultiPoly.const(1) + X1) * Fraction(1, 2)
    assert C.table == {0: [(0, 0, MultiPoly.const(1)), (1, 1, MultiPoly.const(1))],
                       1: [(0, 1, half), (1, 0, half)]}
    assert len(C.packed[1][0]) == 2
    assert C.packed[1][1] == [(0, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 1), (1, 0, 1, 1)]
