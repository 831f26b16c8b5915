"""JSON interchange and LaTeX emission for tables and coproducts.

The JSON schema is flat and order-canonical (generators then table rows
sorted lexicographically, polynomial terms graded-lex), so emitted files
diff cleanly:

  structure:  {"format_version": 1, "type": "lambda_structure",
               "kind": ..., "name": ...,
               "generators": [{"id": ..., "parity": 0|1, "latex": ...}, ...],
               "table": [{"left": id, "right": id,
                          "terms": [{"gen": id, "poly": [...]}, ...]}, ...]}
  coproduct:  {..., "type": "coproduct",
               "table": [{"gen": id,
                          "pairs": [{"left": id, "right": id,
                                     "poly": [...]}, ...]}, ...]}

Polynomials use the coefficient encoding of the poly module.  The readers
and writers work once per distinct value.  A writer writes each distinct
value of a table's stored form once (Table._values) and walks its stored
slots once, sorted into document order: in ``dumps`` equal polynomials
share one "poly" list, and equal rows of terms (the same generators and
value indices) one "terms" list, which ``_json_text`` writes once per
indentation.  A reader converts and checks each distinct "poly" list of a
document once, at its first occurrence, keyed by its exact JSON value, and
builds the table from those values and their slots
(Table.from_slots).  A coproduct lists each (left, right) pair of a row
once and no zero entry, so equal coproducts write equal documents.  A
generator's "latex" is written only when it has a LaTeX
name, so a document read back emits the LaTeX of the table it was written
from.  A reader takes generator ids, LaTeX names and the name as JSON
strings and a parity as the JSON integer 0 or 1, and rejects a repeated
row.

Every JSON document this package writes, tables, coproducts and the CLI's
reports alike, goes through one writer, ``_json_text``.  Its text is the
layout of ``json.dumps(doc, indent=2)``: two-space indentation, every list
item and object member on its own line, non-ASCII characters escaped.

Each layout has one writer, and the rules the writers share are written
once: ``_in_document_order`` is the order of every document, its
generators by id and its rows with their terms or pairs, a walk the
writers group with ``itertools.groupby``; ``_document`` is the header of a
table or coproduct document, ``_signed_sum`` joins LaTeX terms with their
signs and ``_factor`` drops a coefficient 1 (and -1 to its sign) before a
monomial.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import groupby
from json.encoder import encode_basestring_ascii as _str_text
from operator import itemgetter
from typing import Dict, List, Tuple

from .poly import (
    MultiPoly, _MAXEXP, _VAR_SHIFT, _exp_of, _int_text, _sort_key, poly_from_json, poly_to_json,
)
from .tables import Coproduct, Generator, JORDAN, LIE, LambdaStructure, StructureError

FORMAT_VERSION = 1

# the highest total degree of an entry a reader takes, by kind.  A check
# multiplies at most two entries of a Lie table (Jacobi, co-Jacobi) and three
# of a Jordan one (the Jordan identity, co-Jordan); the slot maps and the maps
# back are linear, so no variable's exponent in a product exceeds the sum of
# its factors' total degrees, which must fit an exponent field (poly._MAXEXP)
MAX_DEGREE = {LIE: _MAXEXP // 2, JORDAN: _MAXEXP // 3}


def _in_document_order(T) -> Tuple[List[int], list]:
    """(order, slots): T's generator indices sorted by id, the order of the
    generators of every document, and T's stored slots (i, j, k, e) sorted
    by the places in order of (i, j, k) for a table and of (k, i, j) for a
    coproduct: the order of its rows and of their terms or pairs, as no
    slot repeats an (i, j, k)."""
    n = T.rank
    order = sorted(range(n), key=lambda i: T.generators[i].id)
    rank = [0] * n      # generator index -> its place in order
    for r, i in enumerate(order):
        rank[i] = r
    if isinstance(T, LambdaStructure):
        key = lambda slot: (rank[slot[0]] * n + rank[slot[1]]) * n + rank[slot[2]]
    else:
        key = lambda slot: (rank[slot[2]] * n + rank[slot[0]]) * n + rank[slot[1]]
    return order, sorted(T.packed[1][1], key=key)


def _document(T, doc_type: str, order: List[int], rows: list) -> dict:
    """The JSON document of T with its rows; generators listed in order."""
    return {
        "format_version": FORMAT_VERSION,
        "type": doc_type,
        "kind": T.kind,
        "name": T.name,
        "generators": [_generator(T.generators[i]) for i in order],
        "table": rows,
    }


def _generator(g: Generator) -> dict:
    doc = {"id": g.id, "parity": g.parity}
    if g.latex is not None:
        doc["latex"] = g.latex
    return doc


def _structure_json(S: LambdaStructure) -> dict:
    polys = [poly_to_json(p) for p in S._values()]   # by value index: equal terms share a list
    g = S.generators
    order, slots = _in_document_order(S)
    shared: Dict[tuple, list] = {}    # the (k, e) of a row's terms -> its terms list
    rows = []
    for (i, j), row in groupby(slots, itemgetter(0, 1)):
        key = tuple(slot[2:] for slot in row)
        terms = shared.get(key)
        if terms is None:
            terms = shared[key] = [{"gen": g[k].id, "poly": polys[e]} for k, e in key]
        rows.append({"left": g[i].id, "right": g[j].id, "terms": terms})
    return _document(S, "lambda_structure", order, rows)


def structure_from_json(data: dict) -> LambdaStructure:
    if _doc_type(data) != "lambda_structure":
        raise StructureError("not a lambda_structure document")
    gens, index = _generators(data)
    values, number = _poly_reader(data.get("kind", LIE))
    slots, pairs = [], set()
    for r, row in enumerate(_list(data, "table", "document")):
        what = f"table row {r}"
        i, j = _gen_ref(index, row, "left", what), _gen_ref(index, row, "right", what)
        if (i, j) in pairs:
            raise StructureError(f"{what} repeats the pair ({row['left']}, {row['right']})")
        pairs.add((i, j))
        for t, term in enumerate(_list(row, "terms", what)):
            term_what = f"term {t} of {what}"
            slots.append((i, j, _gen_ref(index, term, "gen", term_what), number(term, term_what)))
    return LambdaStructure.from_slots(data.get("kind", LIE), gens, values, slots, name=_name(data))


def _coproduct_json(C: Coproduct) -> dict:
    polys = [poly_to_json(q) for q in C._values()]   # by value index: equal pairs share a list
    g = C.generators
    order, slots = _in_document_order(C)
    rows = [
        {"gen": g[k].id,
         "pairs": [{"left": g[i].id, "right": g[j].id, "poly": polys[e]} for i, j, _, e in row]}
        for k, row in groupby(slots, itemgetter(2))
    ]
    return _document(C, "coproduct", order, rows)


def coproduct_from_json(data: dict) -> Coproduct:
    if _doc_type(data) != "coproduct":
        raise StructureError("not a coproduct document")
    gens, index = _generators(data)
    values, number = _poly_reader(data.get("kind", LIE))
    slots, rows = [], set()
    for r, row in enumerate(_list(data, "table", "document")):
        what = f"table row {r}"
        k = _gen_ref(index, row, "gen", what)
        if k in rows:
            raise StructureError(f"{what} repeats the generator {row['gen']}")
        rows.add(k)
        for t, pair in enumerate(_list(row, "pairs", what)):
            pair_what = f"pair {t} of {what}"
            slots.append((_gen_ref(index, pair, "left", pair_what),
                          _gen_ref(index, pair, "right", pair_what), k, number(pair, pair_what)))
    return Coproduct.from_slots(data.get("kind", LIE), gens, values, slots, name=_name(data))


# -- schema checks: every malformed document raises a StructureError


def _doc_type(data):
    if not isinstance(data, dict):
        raise StructureError("document is not a JSON object")
    version = data.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise StructureError(f"unsupported format_version {version!r}")
    return data.get("type")


def _field(obj, key: str, what: str):
    """obj[key]; a StructureError if obj is no JSON object or lacks key."""
    if not isinstance(obj, dict):
        raise StructureError(f"{what} is not a JSON object")
    if key not in obj:
        raise StructureError(f"{what} has no {key!r} key")
    return obj[key]


def _list(obj, key: str, what: str) -> list:
    value = _field(obj, key, what)
    if not isinstance(value, list):
        raise StructureError(f"{key!r} of {what} is not a JSON list")
    return value


def _str(value, key: str, what: str) -> str:
    if not isinstance(value, str):
        raise StructureError(f"{key!r} of {what} is not a JSON string")
    return value


def _name(data: dict) -> str:
    return _str(data.get("name", "imported"), "name", "document")


def _generators(data: dict):
    gens = []
    for g, gen in enumerate(_list(data, "generators", "document")):
        what = f"generator {g}"
        parity = _field(gen, "parity", what)
        # the JSON integer 0 or 1, not a float, string or boolean
        if type(parity) is not int or parity not in (0, 1):
            raise StructureError(f"parity of {what} is not 0 or 1")
        latex = _str(gen["latex"], "latex", what) if "latex" in gen else None
        gens.append(Generator(_str(_field(gen, "id", what), "id", what), parity, latex))
    return gens, {g.id: i for i, g in enumerate(gens)}


def _gen_ref(index: Dict[str, int], obj, key: str, what: str) -> int:
    gid = _field(obj, key, what)
    try:
        return index[gid]
    except (KeyError, TypeError):
        raise StructureError(f"{key!r} of {what} names unknown generator {gid!r}") from None


def _poly_reader(kind):
    """(values, number) for one document of kind: number(obj, what) is the index in
    values of the polynomial of obj's "poly" list, each distinct list converted
    and checked once, keyed by its repr, which tells 1, 1.0, true and "1" apart.
    A polynomial of total degree above MAX_DEGREE[kind] is refused (a kind that
    is neither is left to the table, which refuses it)."""
    values: List[MultiPoly] = []
    first: Dict[str, int] = {}      # the repr of a "poly" list -> its index in values
    top = MAX_DEGREE[kind] if kind in (LIE, JORDAN) else _MAXEXP

    def number(obj, what: str) -> int:
        data = _list(obj, "poly", what)
        key = repr(data)
        e = first.get(key)
        if e is None:
            try:
                p = poly_from_json(data)
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
                raise StructureError(f"malformed poly of {what}: {err!r}") from None
            degree = max((_sort_key(k)[0] for k in p.terms), default=0)
            if degree > top:
                raise StructureError(f"poly of {what} has total degree {degree}; "
                                     f"a {kind} table takes at most {top}")
            e = first[key] = len(values)
            values.append(p)
        return e

    return values, number


def dumps(obj) -> str:
    """A table or coproduct as its JSON document, each distinct polynomial
    converted once, or a report dict of verify or crosscheck as it is."""
    if isinstance(obj, LambdaStructure):
        doc = _structure_json(obj)
    elif isinstance(obj, Coproduct):
        doc = _coproduct_json(obj)
    else:
        doc = obj
    return _json_text(doc)


# -- the JSON writer: json.dumps(doc, indent=2), without its generators.  The
# standard library runs its C encoder only when indent is None.  Ints are
# written by poly._int_text, exactly at any length.


def _json_text(doc) -> str:
    """The text of json.dumps(doc, indent=2), appended to one list and joined once.

    doc is a document value: a dict with str keys, a list, a str, an int or
    a bool, each of exactly that type.  Any other value or key raises a
    TypeError.  A list or dict holding itself is not detected.  A list of
    dicts met again at the same indentation, as a "poly" list that terms
    share, is written once: its slice of out is joined at the second meeting
    and put whole.
    """
    out = []
    put = out.append
    keys = {}   # str key -> its text and the separator after it, encoded once per call
    seen = {}   # (id, indentation) of a list of dicts -> its slice of out, then its text

    def value(o, nl):
        t = type(o)
        if t is int:
            put(_int_text(o))
        elif t is str:
            put(_str_text(o))
        elif t is dict:
            obj(o, nl)
        elif t is list:
            array(o, nl)
        elif t is bool:
            put("true" if o else "false")
        else:
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")

    def array(o, nl):
        if not o:
            put("[]")
            return
        shared = type(o[0]) is dict and (id(o), nl)    # the doc holds o: its id names it
        if shared in seen:
            text = seen[shared]
            if type(text) is slice:
                text = seen[shared] = "".join(out[text])
            put(text)
            return
        start = len(out)
        inner = nl + "  "
        sep, comma = "[" + inner, "," + inner
        for v in o:
            put(sep)
            sep = comma
            value(v, inner)
        put(nl + "]")
        if shared:
            seen[shared] = slice(start, len(out))

    def obj(o, nl):
        if not o:
            put("{}")
            return
        inner = nl + "  "
        sep, comma = "{" + inner, "," + inner
        for k, v in o.items():
            put(sep)
            sep = comma
            text = keys.get(k)
            if text is None:
                if type(k) is not str:
                    raise TypeError(f"keys must be str, not {k.__class__.__name__}")
                text = keys[k] = _str_text(k) + ": "
            put(text)
            value(v, inner)
        put(nl + "}")

    value(doc, "\n")
    return "".join(out)


def loads(text: str):
    try:
        data = json.loads(text)
    except RecursionError:
        raise StructureError("document is nested too deeply") from None
    kind = _doc_type(data)
    if kind == "lambda_structure":
        return structure_from_json(data)
    if kind == "coproduct":
        return coproduct_from_json(data)
    raise StructureError("unknown document type")


# ---------------------------------------------------------------------------
# LaTeX


# the variables of a table entry, which LambdaStructure holds to lam and d
_VAR_TEX = {"lam": r"\lambda", "d": r"\partial"}
# (field shift in a packed monomial, LaTeX) of each variable, in name order
_TEX_FIELDS = tuple((_VAR_SHIFT[v], _VAR_TEX[v]) for v in sorted(_VAR_TEX))


def _coeff_tex(c) -> str:
    def frac(f: Fraction) -> str:
        if f.denominator == 1:
            return _int_text(f.numerator)
        return r"\tfrac{%s}{%s}" % (_int_text(f.numerator), _int_text(f.denominator))

    if c.im == 0:
        return frac(c.re)
    bpart = r"\beta" if abs(c.im) == 1 else frac(abs(c.im)) + r"\beta"
    if c.im < 0:
        bpart = "-" + bpart
    if c.re == 0:
        return bpart
    return "(%s%s%s)" % (frac(c.re), "+" if c.im > 0 else "", bpart)


def _signed_sum(parts: List[str]) -> str:
    """parts joined by "+", save before a part that starts with its own "-"."""
    return parts[0] + "".join(t if t.startswith("-") else "+" + t for t in parts[1:])


def _factor(cs: str) -> str:
    """A coefficient's LaTeX as the factor of a monomial: 1 is left out, -1 is "-"."""
    return {"1": "", "-1": "-"}.get(cs, cs)


def poly_tex(p: MultiPoly) -> str:
    """The LaTeX of a table entry, a polynomial in lam and d."""
    if p.is_zero():
        return "0"
    parts = []
    for k in sorted(p.terms, key=_sort_key):
        mono = ""
        for shift, tex in _TEX_FIELDS:
            e = k >> shift & _MAXEXP
            if e:
                mono += tex if e == 1 else "%s^{%d}" % (tex, e)
        cs = _coeff_tex(p.terms[k])
        parts.append(_factor(cs) + mono if mono else cs)
    return _signed_sum(parts)


def _gen_tex(g: Generator) -> str:
    return g.latex if g.latex else g.id


def structure_tex(S: LambdaStructure) -> str:
    """One display line per nonzero bracket, in the lambda-bracket notation."""
    g = S.generators
    lines = []
    op = "[%s_\\lambda\\, %s]" if S.kind == LIE else "%s_\\lambda\\, %s"
    tex = [poly_tex(p) for p in S._values()]
    for (i, j), row in groupby(_in_document_order(S)[1], itemgetter(0, 1)):
        terms = []
        for _, _, k, e in row:
            pt = tex[e]
            gt = _gen_tex(g[k])
            if pt == "1":
                terms.append(gt)
            elif "+" in pt[1:] or "-" in pt[1:]:
                terms.append("(%s)%s" % (pt, gt))
            else:
                terms.append("%s\\,%s" % (pt, gt))
        lhs = op % (_gen_tex(g[i]), _gen_tex(g[j]))
        lines.append("%s = %s" % (lhs, _signed_sum(terms)))
    return "\n".join(lines)


def _dual_tex(g: Generator) -> str:
    """The LaTeX name of a dual generator: its latex, or else its id with a
    closing * written as ^*; ^* is added where it is missing."""
    base = g.latex or g.id.removesuffix("*")
    return base if base.endswith("^*") else base + "^*"


def coproduct_tex(C: Coproduct) -> str:
    r"""delta(g^*) displays: each Q(x1, x2) term becomes d^a g_i^* \otimes d^b g_j^*."""
    g = C.generators
    dual = [_dual_tex(gen) for gen in g]

    def pieces(q):  # (coefficient, d-power on the left, on the right) per term of Q(x1, x2)
        factors = [(_factor(_coeff_tex(q.terms[m])), m) for m in sorted(q.terms, key=_sort_key)]
        return [(cs if cs in ("", "-") else cs + "\\,", _pow_d(_exp_of(m, "x1")),
                 _pow_d(_exp_of(m, "x2"))) for cs, m in factors]

    value_pieces = [pieces(q) for q in C._values()]
    sym = r"\delta" if C.kind == LIE else r"\Delta"
    lines = []
    for k, row in groupby(_in_document_order(C)[1], itemgetter(2)):
        terms = ["%s%s%s\\otimes %s%s" % (cs, left, dual[i], right, dual[j])
                 for i, j, _, e in row for cs, left, right in value_pieces[e]]
        lines.append("%s(%s) = %s" % (sym, dual[k], _signed_sum(terms)))
    return "\n".join(lines)


def _pow_d(e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return r"\partial "
    return r"\partial^{%d} " % e
