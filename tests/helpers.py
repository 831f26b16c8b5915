"""Test-only helpers shared by several test modules."""

from collections import defaultdict
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from confcoalg import conformal, restricted
from confcoalg.conformal import (
    JORDAN_IMAGES, PRINTED_JORDAN_IMAGES, Report, Violation, _SWAP12, _SWAP13, _put, _renamed,
)
from confcoalg.dual import DiffLine, DiffReport
from confcoalg.tables import (
    ConformalElement, Coproduct, LambdaStructure, StructureError, Table, _NOT_LAM_D, _NOT_SLOT,
    _TO_SLOTS,
)
from confcoalg.grassmann import IndexSet, SignedMonomial
from confcoalg.masks import eps_mask
from confcoalg.poly import (
    ALPHABET, MultiPoly, P_ZERO, Scalar, X1, X2, X3, X4, _COMPONENT_SHIFT, _GUARD, _MAXEXP,
    _VAR_SHIFT, _sort_key, accumulate, common_denominator, pack_vector, unpack_vector,
    vector_text,
)


# The IndexSet versions of eps_mask and the derivation d_i, which only the
# tests use (grassmann keeps the rest of the IndexSet layer for bench/micro.py)
def eps(i: int, J: IndexSet) -> int:
    """Count of members of J strictly below i; i must belong to J."""
    if i not in J:
        raise ValueError(f"{i} not a member of {J}")
    return eps_mask(i, J.mask)


def derive(i: int, J: IndexSet) -> Optional[SignedMonomial]:
    """The odd derivation d_i applied to xi_J."""
    if not 1 <= i <= J.n or i not in J:
        return None
    sign = -1 if eps_mask(i, J.mask) & 1 else 1
    return SignedMonomial(sign, IndexSet.from_mask(J.n, J.mask & ~(1 << (i - 1))))


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


def exact_div(p: MultiPoly, divisor: MultiPoly) -> MultiPoly:
    """p / divisor by long division on leading terms; raises ValueError if
    divisor does not divide p (the span reader oracle's division)."""
    if divisor.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    lead = max(divisor.terms, key=_sort_key)
    lead_c_inv = divisor.terms[lead].inverse()
    rem = dict(p.terms)
    quot = {}
    while rem:
        k = max(rem, key=_sort_key)
        # lead divides k iff no field of k - lead borrows from its guard bit
        if ((k | _GUARD) - lead) & _GUARD != _GUARD:
            raise ValueError("polynomial division is not exact")
        qk = k - lead
        qc = quot[qk] = rem[k] * lead_c_inv
        for dk, dc in divisor.terms.items():
            t = dk + qk
            s = rem.get(t, Scalar(0)) - dc * qc
            if s.is_zero():
                rem.pop(t, None)
            else:
                rem[t] = s
    return MultiPoly(quot)


def subst_general_oracle(self: MultiPoly, var: str, repl: MultiPoly) -> MultiPoly:
    """MultiPoly.subst_general as it stood before it accumulated every term
    into one dict: one MultiPoly sum per term."""
    shift = _VAR_SHIFT[var]
    mask = _MAXEXP << shift
    maxexp = 0
    for k in self.terms:
        e = (k >> shift) & _MAXEXP
        if e > maxexp:
            maxexp = e
    if maxexp == 0:
        return self
    powers = [MultiPoly({0: Scalar(1)})]
    for _ in range(maxexp):
        powers.append(powers[-1] * repl)
    out = MultiPoly({})
    for k, c in self.terms.items():
        e = (k >> shift) & _MAXEXP
        base = MultiPoly({k & ~mask: c})
        out = out + (base * powers[e] if e else base)
    return out


# A gather with a place function per entry, as the kernels placed their
# entries before each wrote them in one pass: the placement tests compare it
# with a per-slot oracle, and the full Jordan kernel of test_kernels reads it.
def _gather(table, x1_img, x2_img, place, negate=None):
    """Packed vectors out[slot] of the renamed entries Q^{ij}_k(x1_img, x2_img).

    place(i, j, k) = (slot, m) puts the entry at component m of out[slot];
    with negate given, the entries for which negate(i, j) holds change sign,
    each distinct vector negated once.  The entries are renamed by _renamed.
    The entries of one slot have distinct components, so each entry's terms
    are written in place (_put) and no slot is summed or compacted; they are
    written in the order of the slots of table, the table's row order.
    """
    vecs = _renamed(table[0], x1_img, x2_img)
    negated = negate and [{key: -c for key, c in vec.items()} for vec in vecs]
    out = defaultdict(dict)
    for i, j, k, e in table[1]:
        slot, m = place(i, j, k)
        _put(out[slot], (negated if negate and negate(i, j) else vecs)[e], m << _COMPONENT_SHIFT)
    return dict(out)


# Every image pair of the Jordan identity's first factors, R and Q, in slot
# variables.  conformal keeps the pairs its kernel renames the table for (the
# first factors, r1 and the printed ca_chain) and reaches the others by
# renaming R1 or the products; the full Jordan kernel of test_kernels and the
# image-set tests read them all.  r2 and q3 are r1 and q2 with x1 and x2
# swapped, r3 and q1 with x1 and x3 swapped.
_RENAMED = {"r2": ("r1", _SWAP12), "q3": ("q2", _SWAP12), "r3": ("r1", _SWAP13), "q1": ("q2", _SWAP13)}
FULL_JORDAN_IMAGES = {**JORDAN_IMAGES, "q2": ((X1, X4), (X2 + X3, X1 + X4))}
FULL_JORDAN_IMAGES.update({key: tuple(tuple(p.permute_vars(sigma) for p in pair)
                                      for pair in FULL_JORDAN_IMAGES[base])
                           for key, (base, sigma) in _RENAMED.items()})
# the printed T = lam - mu moves r2 and, as ca_chain, the chain term's copy of ca_split
FULL_PRINTED_JORDAN_IMAGES = {**FULL_JORDAN_IMAGES, **PRINTED_JORDAN_IMAGES,
                              "r2": ((X1 - X2, X2 + X3 + X4), (X2, X1 + X3 + X4))}


# The by-value cache that numbers _packed's values, as poly kept it until
# the writers and compare took each distinct value by its index
def _memo(f: Callable):
    """f kept by value for the life of the returned function, which looks an
    argument up by its id before it hashes it and keeps it alive, so that no
    id is reused.  The id comes first because MultiPoly.__hash__ builds a
    frozenset and unequal values often share a hash (in CPython hash(-1) ==
    hash(-2): K_6's 31 distinct entry values have 22 distinct hashes)."""
    by_value: dict = {}
    by_id: dict = {}

    def g(p):
        hit = by_id.get(id(p))
        if hit is None:
            hit = by_id[id(p)] = p, by_value[p] if p in by_value else by_value.setdefault(p, f(p))
        return hit[1]

    return g


# The two constructors as they stood before Table._store, each walking its
# rows entry by entry to merge, check and number the values, and conformal's
# _packed, which numbered and packed them: the oracles of the slot path.
def _packed(entries):
    """(L, (vecs, slots)) for entries [(i, j, k, p)], L their common denominator:
    vecs holds each distinct p, packed times L, once, and slots is
    [(i, j, k, e)] with vecs[e] the packed p of that entry."""
    distinct: List[MultiPoly] = []
    number = _memo(lambda p: distinct.append(p) or len(distinct) - 1)
    slots = [(i, j, k, number(p)) for i, j, k, p in entries]
    L = common_denominator(distinct)
    return L, ([pack_vector([(0, p)], L) for p in distinct], slots)


class OracleLambdaStructure(LambdaStructure):
    """A LambdaStructure whose rows are merged, checked and packed as its
    constructor did before the slot path."""

    def __init__(self, kind, generators, table, name="", meta=None):
        Table.__init__(self, kind, generators, name)
        self.meta = meta or {}
        par = self.parities
        n = len(par)
        pairs = range(n)
        for key in table:
            if not (isinstance(key, tuple) and len(key) == 2 and key[0] in pairs and key[1] in pairs):
                raise StructureError(f"row {key!r} is not a pair of generator indices in range({n})")
        entries = []
        checked = set()     # the ids of the polynomials whose variables passed
        # the rows in row-major order, each merged by k if given more than once
        for i, j in sorted(table):
            row = table[(i, j)]
            if row and len(row) > 1:
                merged: Dict[int, MultiPoly] = {}
                for k, p in row:
                    accumulate(merged, k, p)
                row = sorted(merged.items())
            if not row or not row[0][1].terms:      # a merged row holds no zero
                continue
            if row[0][0] < 0 or row[-1][0] >= n:
                stray = row[0][0] if row[0][0] < 0 else row[-1][0]
                raise StructureError(
                    f"row ({i}, {j}) names generator index {stray}, not in range({n})")
            for k, p in row:
                # parity additivity, then coefficient-variable discipline
                if par[k] != (par[i] + par[j]) & 1:
                    raise StructureError(
                        f"parity violation in ({self.generators[i].id},"
                        f"{self.generators[j].id}) -> {self.generators[k].id}"
                    )
                if id(p) not in checked:
                    if any(key & _NOT_LAM_D for key in p.terms):
                        bad = p.variables() - {"lam", "d"}
                        raise StructureError(f"table entry uses variables {bad}")
                    checked.add(id(p))
                entries.append((i, j, k, p))
        L, (vecs, slots) = _packed(entries)
        self.packed = L, ([_TO_SLOTS(vec) for vec in vecs], slots)


class OracleCoproduct(Coproduct):
    """A Coproduct whose rows are merged, checked and packed as its
    constructor did before the slot path."""

    def __init__(self, kind, generators, table, name=""):
        Table.__init__(self, kind, generators, name)
        g = self.generators
        n = len(g)
        par = dict(enumerate(self.parities))
        if not table.keys() <= par.keys():
            stray = next(k for k in table if k not in par)
            raise StructureError(f"delta row {stray!r} is not a generator index in range({n})")
        entries = []
        checked = set()     # the ids of the polynomials whose variables passed
        for k in range(n):
            merged: Dict[Tuple[int, int], MultiPoly] = {}
            for i, j, q in table.get(k, ()):
                accumulate(merged, (i, j), q)
            for (i, j), q in merged.items():
                # parities by index: a pair outside range(n) is a KeyError, not
                # a Python negative index
                try:
                    odd = (par[i] + par[j]) & 1
                except KeyError:
                    raise StructureError(
                        f"delta({g[k].id}) names the pair ({i}, {j}), not in range({n})") from None
                if odd != par[k]:
                    raise StructureError(f"parity violation in delta({g[k].id})")
                entries.append((i, j, k, q))
                if id(q) in checked:
                    continue
                for key in q.terms:
                    if key & _NOT_SLOT:
                        stray = ", ".join(sorted(q.variables() - {"x1", "x2"}))
                        raise StructureError(
                            f"delta({g[k].id}) @ {g[i].id} (x) {g[j].id} uses {stray}; "
                            "coproduct entries may only use x1 and x2"
                        )
                checked.add(id(q))
        self.packed = _packed(entries)


def rows_of(T):
    """The rows of T, the oracle view: a table's row view, and a coproduct's
    stored form laid out as delta(a_k^*), the list of (i, j, Q^{ij}_k) in
    slot order, for every k, one object per distinct value."""
    if not isinstance(T, Coproduct):
        return T.table
    slots, values = T.packed[1][1], T._values()
    rows = {k: [] for k in range(T.rank)}
    for i, j, k, e in slots:
        rows[k].append((i, j, values[e]))
    return rows


def oracle_of(T):
    """The table the pre-slot-path constructor makes of T's rows."""
    if isinstance(T, Coproduct):
        return OracleCoproduct(T.kind, T.generators, rows_of(T), T.name)
    return OracleLambdaStructure(T.kind, T.generators, T.table, T.name, T.meta)


def assert_stored_as_the_oracle(T, oracle=None):
    """T.packed and the rows of T equal those of oracle, by default oracle_of(T)."""
    oracle = oracle_of(T) if oracle is None else oracle
    assert T.packed == oracle.packed, T.name
    assert rows_of(T) == rows_of(oracle), T.name


def count_calls(monkeypatch, owner, name):
    """The list of the argument tuples of every call to owner.name while
    monkeypatch holds: the attribute is replaced by a wrapper that records
    its arguments and calls through."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def parity_keeping_targets(S):
    """A hypothesis strategy for an entry (i, j, k) of the table S with p_k =
    p_i + p_j: where with_entry and corrupt_entry may write a_k.  It draws
    nothing, so the example is dropped, when S has no such entry (every
    generator odd)."""
    from hypothesis import strategies as st   # only the property tests draw

    par = [g.parity for g in S.generators]
    return st.sampled_from([(i, j, k) for i in range(S.rank) for j in range(S.rank)
                            for k in range(S.rank) if par[k] == par[i] ^ par[j]])


def dual_entry(p: MultiPoly) -> MultiPoly:
    """Q(x1, x2) = P(x1, -x1-x2) for a table entry P(lam, d), through MultiPoly."""
    return p.permute_vars({"lam": "x1"}).subst_general("d", -X1 - X2)


def apply_map(M, coords):
    """The image of coords (source index -> polynomial) under the ModuleMap M,
    as target index -> polynomial with no zero entry: the kernel tests' check."""
    out = {}
    for (ti, si), p in M.entries.items():
        c = coords.get(si)
        if c is not None:
            accumulate(out, ti, p * c)
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


def compare_oracle(a, b) -> DiffReport:
    """coalgebra.compare as it stood before it read the stored forms: the
    rows of both coproducts, MultiPoly by MultiPoly, pair by pair, in a's
    generator order."""
    if a.index.keys() != b.index.keys():
        raise StructureError(
            f"generator sets differ: {sorted(a.index.keys() ^ b.index.keys())}"
        )
    ga, gb = a.generators, b.generators
    rows_a, rows_b = rows_of(a), rows_of(b)
    rep = DiffReport(a.name, b.name)
    for k in range(a.rank):
        na = {(i, j): q for i, j, q in rows_a[k]}
        nb = {(a.index[gb[i].id], a.index[gb[j].id]): q
              for i, j, q in rows_b[b.index[ga[k].id]]}
        for key in sorted(na.keys() | nb.keys()):
            qa = na.get(key, P_ZERO)
            qb = nb.get(key, P_ZERO)
            if qa != qb:
                rep.lines.append(
                    DiffLine(ga[k].id, ga[key[0]].id, ga[key[1]].id, repr(qa), repr(qb))
                )
    return rep


def term_products(monkeypatch, check, arg, calls=False):
    """The number of term products check(arg) makes through the kernels of
    confcoalg.conformal, counted at its add_product,
    with the report; with calls, (products, the number of add_product calls,
    report)."""
    count = [0, 0]
    real = conformal.add_product

    def counting(acc, p, q, negate=False):
        count[0] += len(p) * len(q)
        count[1] += 1
        return real(acc, p, q, negate)

    with monkeypatch.context() as m:
        m.setattr(conformal, "add_product", counting)
        rep = check(arg)
    return (count[0], count[1], rep) if calls else (count[0], rep)


# -- the violation writers as they stood before they kept one text cache per
# check call: one conformal call per kernel row, each row's text through
# vector_text; test_kernels swaps them in for conformal._record and
# coalgebra._record and compares the reports.

def record_oracle(rep: Report, S: LambdaStructure, head, acc, width: int, scale: int, back) -> None:
    """Add a violation at each tuple head + tail whose part of acc is nonzero.

    acc is a compact packed residual in slot variables, scale times too
    large, at components tail n + m, m the generator of the residual and tail
    the last width tuple indices as base-n digits; back maps it to the
    table's variables.  Violations follow in the order of the tails, and each
    residual is written as ConformalElement.pretty writes it.
    """
    if not acc:
        return
    acc = back(acc)
    n = S.rank
    names = [g.id for g in S.generators]
    by_tail: Dict[int, List[str]] = {}
    for comp, text in sorted(vector_text(acc, scale).items()):
        tail, m = divmod(comp, n)
        by_tail.setdefault(tail, []).append(f"({text})*{names[m]}")
    for tail, parts in by_tail.items():
        where = head + tuple(tail // n ** e % n for e in reversed(range(width)))
        rep.violations.append(Violation(tuple(names[i] for i in where), " + ".join(parts)))


def co_record_oracle(rep: Report, cop: Coproduct, residuals) -> None:
    """Add a violation at each (a_k^*, check) of residuals, [(check, arity, rows,
    scale, odd)], with a nonzero residual, in the order of k and then of residuals.
    Row r of rows is a packed residual, scale times too large, whose component
    t n + k is the part of a_k^* at the tuple with base-n digits r n^(arity-1) + t
    (a flip residual is one row); a row's text is written as it is read, the
    keys of each tuple whose digits t have odd(t) negated first."""
    n = cop.rank
    found: Dict[Tuple[int, int], list] = {}
    for x, (_, arity, rows, scale, odd) in enumerate(residuals):
        for r, row in enumerate(rows):
            top = r * n ** (arity - 1)
            if odd:
                row = {key: -v if odd(top + (key >> _COMPONENT_SHIFT) // n) else v
                       for key, v in row.items()}
            for c, text in vector_text(row, scale).items():
                t, k = divmod(c, n)
                found.setdefault((k, x), []).append((top + t, text))
    for (k, x), parts in sorted(found.items()):
        check, arity = residuals[x][:2]
        text = " + ".join(f"({s})*{tuple(t // n ** e % n for e in reversed(range(arity)))}"
                          for t, s in sorted(parts))
        rep.violations.append(Violation((cop.generators[k].id, check), text))


def conformal_record_oracle(rep, S, rows, arity, scale, back):
    """conformal._record's arguments as record_oracle took them, one row at
    a time: the row index as head, none for the one row of a flip residual."""
    for r, acc in enumerate(rows):
        head, width = ((), 2) if arity == 2 else ((r,), arity - 1)
        record_oracle(rep, S, head, acc, width, scale, back)


# -- the packed restriction seams on ConformalElements

def element_pairs(S, xs):
    """((a, b), [x_a lam x_b]) for every ordered pair of xs, row by row, as
    ConformalElements: the packed rows of restricted.bracket_pairs unpacked."""
    n = S.rank
    for a, (row, scale) in enumerate(restricted.bracket_pairs(S, xs)):
        terms = [{} for _ in xs]
        for m, p in unpack_vector(row, scale).items():
            b, k = divmod(m, n)
            terms[b][k] = p
        for b, t in enumerate(terms):
            yield (a, b), ConformalElement(t)


def packed_rows(pairs, n):
    """The rows of restricted.bracket_pairs, (row, scale), made from the
    ((a, b), element) pairs of each row a in turn: [x_a lam x_b] at the
    components b n + k of row a."""
    rows = {}
    for (a, b), w in pairs:
        rows.setdefault(a, []).extend((b * n + k, p) for k, p in w.terms.items())
    for entries in rows.values():
        scale = common_denominator(p for _, p in entries)
        yield pack_vector(entries, scale), scale


def element_reader(ambient, embeds):
    """restricted.span_reader on ConformalElements: x -> {basis index: MultiPoly}."""
    read = restricted.span_reader(ambient, embeds)

    def on_element(x):
        scale = common_denominator(x.terms.values())
        coords = read({g: pack_vector([(0, p)], scale) for g, p in x.terms.items()}, scale)
        return {j: unpack_vector(vec, s)[0] for j, (vec, s) in coords.items()}

    return on_element
