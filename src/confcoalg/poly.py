"""Exact sparse multivariate polynomials over the Gaussian rationals Q(beta).

The coefficient field is Q adjoined an element ``beta`` with ``beta**2 = -1``.
All structure constants in this package live in the fixed eight-variable
alphabet

    lam, mu, nu  -- spectral variables
    d            -- the symbol acting on free module generators
    x1 .. x4     -- tensor-slot variables (x_i tracks d acting on slot i)

A monomial is packed into a single int, one nine-bit field per variable:
eight bits of exponent (0..255) and a guard bit above them.  Monomial
multiplication is integer addition; two exponents below 256 cannot carry
out of their field, and a sum above 255 sets the guard bit, which every
product checks, so an overflow raises instead of wrapping into the next
variable.  Polynomials are dicts from packed monomials to nonzero ``Scalar``
coefficients; the zero polynomial is the empty dict, which makes equality
structural and ``is_zero`` O(1).

Scalars keep each rational part as a plain ``int`` when it is integral and
as a ``Fraction`` only when it must; the two compare and hash equal, so
the choice never shows in equality, ``repr`` or JSON.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Dict, Iterable, Iterator, Tuple

ALPHABET: Tuple[str, ...] = ("lam", "mu", "nu", "d", "x1", "x2", "x3", "x4")
_VAR_INDEX = {name: i for i, name in enumerate(ALPHABET)}
_NVARS = len(ALPHABET)
_EXP_BITS = 8
_WIDTH = _EXP_BITS + 1                      # exponent bits plus one guard bit
_MAXEXP = (1 << _EXP_BITS) - 1              # largest exponent; also the field mask
_VAR_SHIFT = {name: _WIDTH * i for i, name in enumerate(ALPHABET)}
_GUARD = sum(1 << (_WIDTH * i + _EXP_BITS) for i in range(_NVARS))
_MONO_MASK = (1 << (_WIDTH * _NVARS)) - 1   # every monomial field


def _exact(x):
    """x as an int when integral, else as a Fraction; floats are refused."""
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise TypeError(f"Scalar parts must be exact, got float {x!r}")
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


_new = object.__new__


def _make(re, im) -> "Scalar":
    """Scalar from int/Fraction parts, demoting integral Fractions to int."""
    if type(re) is not int and re.denominator == 1:
        re = re.numerator
    if type(im) is not int and im.denominator == 1:
        im = im.numerator
    s = _new(Scalar)
    s.re = re
    s.im = im
    return s


class Scalar:
    """An element re + im*beta of Q(beta), beta**2 = -1, in lowest terms.

    Each part is an int when integral and a Fraction otherwise.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _exact(re)
        self.im = _exact(im)

    @staticmethod
    def beta() -> "Scalar":
        return Scalar(0, 1)

    # an operand that is no Scalar (it has no re/im) is left to its reflected
    # method, so Scalar(1, 3) * D works as D * Scalar(1, 3) does

    def __add__(self, other: "Scalar") -> "Scalar":
        try:
            return _make(self.re + other.re, self.im + other.im)
        except AttributeError:
            return NotImplemented

    def __sub__(self, other: "Scalar") -> "Scalar":
        try:
            return _make(self.re - other.re, self.im - other.im)
        except AttributeError:
            return NotImplemented

    def __neg__(self) -> "Scalar":
        return _make(-self.re, -self.im)

    def __mul__(self, other: "Scalar") -> "Scalar":
        try:
            c, d = other.re, other.im
        except AttributeError:
            return NotImplemented
        a, b = self.re, self.im
        if b or d:
            return _make(a * c - b * d, a * d + b * c)
        return _make(a * c, 0)

    def inverse(self) -> "Scalar":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("scalar inverse of 0")
        return _make(Fraction(self.re, n), Fraction(-self.im, n))

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scalar)
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return _poly_text({0: (self.re, self.im)}, {})


def _pack(exps: Dict[str, int]) -> int:
    key = 0
    for v, e in exps.items():
        if e < 0 or e > _MAXEXP:
            raise ValueError(f"exponent out of range: {v}**{e}")
        key |= e << _VAR_SHIFT[v]
    return key


def _unpack(key: int) -> Dict[str, int]:
    out = {}
    for v, s in _VAR_SHIFT.items():
        e = (key >> s) & _MAXEXP
        if e:
            out[v] = e
    return out


def _exp_of(key: int, var: str) -> int:
    return (key >> _VAR_SHIFT[var]) & _MAXEXP


class MultiPoly:
    """Sparse polynomial; treat instances as immutable values."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[int, Scalar] | None = None):
        self.terms = terms if terms is not None else {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly({})

    @staticmethod
    def const(c) -> "MultiPoly":
        sc = c if isinstance(c, Scalar) else Scalar(c)
        return MultiPoly({} if sc.is_zero() else {0: sc})

    @staticmethod
    def var(name: str, exp: int = 1, coeff=1) -> "MultiPoly":
        if name not in _VAR_INDEX:
            raise ValueError(f"unknown variable {name!r}")
        sc = coeff if isinstance(coeff, Scalar) else Scalar(coeff)
        if sc.is_zero():
            return MultiPoly({})
        return MultiPoly({exp << _VAR_SHIFT[name]: sc})

    @staticmethod
    def monomial(exps: Dict[str, int], coeff) -> "MultiPoly":
        sc = coeff if isinstance(coeff, Scalar) else Scalar(coeff)
        if sc.is_zero():
            return MultiPoly({})
        return MultiPoly({_pack(exps): sc})

    # -- ring operations ---------------------------------------------------

    # other operands are left to their reflected methods: D + 1 raises TypeError

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for k, c in other.terms.items():
            prev = out.get(k)
            if prev is None:
                out[k] = c
            else:
                s = prev + c
                if s.is_zero():
                    del out[k]
                else:
                    out[k] = s
        return MultiPoly(out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other) if isinstance(other, MultiPoly) else NotImplemented

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({k: -c for k, c in self.terms.items()})

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scalar_mul(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if not self.terms or not other.terms:
            return MultiPoly({})
        out: Dict[int, Scalar] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                c = c1 * c2
                prev = out.get(k)
                if prev is None:
                    out[k] = c
                else:
                    s = prev + c
                    if s.is_zero():
                        del out[k]
                    else:
                        out[k] = s
        return MultiPoly(_checked(out))

    __rmul__ = __mul__

    def scalar_mul(self, c) -> "MultiPoly":
        sc = c if isinstance(c, Scalar) else Scalar(c)
        if sc.is_zero():
            return MultiPoly({})
        return MultiPoly({k: v * sc for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((k, c.re, c.im) for k, c in self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- structure ---------------------------------------------------------

    def variables(self) -> set:
        seen = set()
        for k in self.terms:
            for v, s in _VAR_SHIFT.items():
                if (k >> s) & _MAXEXP:
                    seen.add(v)
        return seen

    def degree_in(self, var: str) -> int:
        if not self.terms:
            return -1
        return max(_exp_of(k, var) for k in self.terms)

    def items(self) -> Iterator[Tuple[Dict[str, int], Scalar]]:
        for k in sorted(self.terms, key=_sort_key):
            yield _unpack(k), self.terms[k]

    # -- substitution ------------------------------------------------------

    def substitute(self, var: str, repl: "MultiPoly") -> "MultiPoly":
        """Image of self under var -> repl; repl must not contain var."""
        if var in repl.variables():
            raise ValueError(f"substitution image contains {var!r}")
        return self.subst_general(var, repl)

    def subst_general(self, var: str, repl: "MultiPoly") -> "MultiPoly":
        """Image of self under var -> repl in a single pass; repl may itself contain var.

        The powers of repl are made once per call, from repl itself, so an
        entry linear in var makes no product; every term's image is
        accumulated into one dict, and the zero sums are dropped at the end,
        after the exponent-overflow check."""
        shift = _VAR_SHIFT[var]
        keep = ~(_MAXEXP << shift)
        maxexp = 0
        for k in self.terms:
            e = (k >> shift) & _MAXEXP
            if e > maxexp:
                maxexp = e
        if maxexp == 0:
            return self
        powers = [None, repl]       # powers[e] = repl**e
        for _ in range(1, maxexp):
            powers.append(powers[-1] * repl)
        out: Dict[int, Scalar] = {}
        get = out.get
        for k, c in self.terms.items():
            e = (k >> shift) & _MAXEXP
            if not e:
                prev = get(k)
                out[k] = c if prev is None else prev + c
                continue
            rest = k & keep
            for kp, cp in powers[e].terms.items():
                kp += rest
                prev = get(kp)
                out[kp] = c * cp if prev is None else prev + c * cp
        return MultiPoly({k: c for k, c in _checked(out).items() if c.re or c.im})

    def permute_vars(self, sigma: Dict[str, str]) -> "MultiPoly":
        """Relabel variables: the exponent of v moves to sigma[v].

        sigma must be injective on its keys; unmentioned variables stay put.
        """
        img = list(sigma.values())
        if len(set(img)) != len(img):
            raise ValueError("permutation not injective")
        out: Dict[int, Scalar] = {}
        for k, c in self.terms.items():
            nk = k
            moved = 0
            for v, w in sigma.items():
                e = (k >> _VAR_SHIFT[v]) & _MAXEXP
                if e:
                    nk &= ~(_MAXEXP << _VAR_SHIFT[v])
                    moved |= e << _VAR_SHIFT[w]
            for w in sigma.values():
                if (nk >> _VAR_SHIFT[w]) & _MAXEXP and w not in sigma:
                    raise ValueError(f"target variable {w!r} already present")
            nk |= moved
            if nk in out:
                raise ValueError("permutation collides")
            out[nk] = c
        return MultiPoly(out)

    # -- display -----------------------------------------------------------

    def __repr__(self):
        return _poly_text({k: (c.re, c.im) for k, c in self.terms.items()}, {})


_CHUNK_DIGITS = 600   # below 640, the least int-string limit Python allows
_CHUNK = 10 ** _CHUNK_DIGITS


def _int_text(x: int) -> str:
    """str(x) at any length.  str refuses an int of more decimal digits than
    sys.get_int_max_str_digits() (4300 unless set otherwise), a setting of
    the whole process that the package leaves alone, so a longer int is
    written _CHUNK_DIGITS digits at a time, exactly."""
    try:
        return int.__repr__(x)
    except ValueError:
        head, chunks = abs(x), []
        while head >= _CHUNK:
            head, low = divmod(head, _CHUNK)
            chunks.append(int.__repr__(low).zfill(_CHUNK_DIGITS))
        return ("-" if x < 0 else "") + int.__repr__(head) + "".join(reversed(chunks))


def _part_text(x) -> str:
    """str(x) of a coefficient part, an int or a Fraction, at any length."""
    if type(x) is int:
        return _int_text(x)
    return f"{_int_text(x.numerator)}/{_int_text(x.denominator)}"


def _poly_text(terms: Dict[int, tuple], texts: dict) -> str:
    """The text of the polynomial {monomial key: (re, im)}, or of a Scalar as
    {0: (re, im)}; texts holds each monomial's and coefficient's."""
    parts = []
    for k in sorted(terms, key=_sort_key) if len(terms) > 1 else terms:
        c = re, im = terms[k]
        cs = texts.get(c)
        if cs is None:          # re, im*beta or (re+im*beta)
            cs = texts[c] = (
                _part_text(re) if im == 0 else f"{_part_text(im)}*beta" if re == 0
                else f"({_part_text(re)}{'+' if im > 0 else '-'}{_part_text(abs(im))}*beta)")
        mono = texts.get(k)
        if mono is None:        # _unpack lists the variables in ALPHABET order
            mono = texts[k] = "*".join(v if e == 1 else f"{v}^{e}" for v, e in _unpack(k).items())
        parts.append(cs if not mono else (mono if cs == "1" else f"{cs}*{mono}"))
    return " + ".join(parts).replace("+ -", "- ") or "0"


def _sort_key(k: int) -> Tuple[int, int]:
    # graded, then packed-int lex; only used for canonical orderings.  The
    # degree is the sum of the eight exponent fields, written out.
    return ((k & 255) + (k >> 9 & 255) + (k >> 18 & 255) + (k >> 27 & 255)
            + (k >> 36 & 255) + (k >> 45 & 255) + (k >> 54 & 255) + (k >> 63 & 255), k)


def _checked(terms):
    """terms (keys, or a dict of them) unchanged, unless a product overflowed an exponent field."""
    for k in terms:
        if k & _GUARD:
            raise ValueError(f"exponent overflow: a product exceeds {_MAXEXP} in one variable")
    return terms


# -- packed vectors ------------------------------------------------------------
#
# The kernels work on packed vectors, dicts from int keys to int coefficients.
# A key holds a monomial, above it beta's exponent in a two-bit digit, above
# that a component m, so one vector holds a family {m: p_m}; re + im*beta is
# re under its key and im under the key with beta digit 1.  Adding two keys
# multiplies monomials and powers of beta and adds components, and
# compact_vector folds beta**2 into -1.  Coefficients are ints because a
# check packs its table times the common denominator L of its coefficients;
# vector_text writes a residual of degree g divided by L**g when it is reported.

_BETA_SHIFT = _WIDTH * _NVARS
_BETA = 1 << _BETA_SHIFT                    # beta digit 1
_BETA_SQ = 2 << _BETA_SHIFT                 # high bit of the beta digit: beta**2 = -1
_COMPONENT_SHIFT = _BETA_SHIFT + 2


def common_denominator(polys: Iterable[MultiPoly]) -> int:
    """The least L for which L times each coefficient of polys is a Gaussian integer."""
    return lcm(1, *{x.denominator for p in polys for c in p.terms.values()
                    if type(c.re) is not int or type(c.im) is not int for x in (c.re, c.im)})


def pack_vector(entries: Iterable[Tuple[int, MultiPoly]], scale: int = 1) -> Dict[int, int]:
    """Pack [(m, p_m)] (distinct m) into one vector, every coefficient times
    scale, which must clear their denominators (common_denominator)."""
    out: Dict[int, int] = {}
    for m, p in entries:
        tag = m << _COMPONENT_SHIFT
        for k, c in p.terms.items():
            re, im = c.re * scale, c.im * scale
            if type(re) is not int or type(im) is not int:
                if re.denominator != 1 or im.denominator != 1:
                    raise ValueError(f"scale {scale} leaves a denominator in {c!r}")
                re, im = re.numerator, im.numerator
            if re:
                out[tag | k] = re
            if im:
                out[tag | k | _BETA] = im
    return out


def _divided(x: int, scale: int):
    return Fraction(x, scale) if x % scale else x // scale


def _parts(acc: Dict[int, int], scale: int) -> Dict[int, Dict[int, tuple]]:
    """{m: {monomial key: (re, im)}} of acc divided by scale, in one pass that
    folds beta**2 into -1, drops zeros and checks overflow as compact_vector does."""
    sums: Dict[int, list] = {}   # [re, im] by the re key
    for k, c in acc.items():
        if c:
            if k & (_GUARD | _BETA_SQ):   # beta**2 = -1, unless an exponent overflowed
                _checked((k,))
                k, c = k ^ _BETA_SQ, -c
            sums.setdefault(k & ~_BETA, [0, 0])[k >> _BETA_SHIFT & 1] += c
    parts: Dict[int, Dict[int, tuple]] = {}
    for k, (re, im) in sums.items():
        if re or im:
            if scale != 1:
                re, im = _divided(re, scale), _divided(im, scale)
            parts.setdefault(k >> _COMPONENT_SHIFT, {})[k & _MONO_MASK] = re, im
    return parts


def unpack_vector(acc: Dict[int, int], scale: int = 1) -> Dict[int, MultiPoly]:
    """Inverse of pack_vector: {m: p_m}, every coefficient divided by scale."""
    return {m: MultiPoly({k: _make(*c) for k, c in terms.items()})
            for m, terms in _parts(acc, scale).items()}


def vector_text(acc: Dict[int, int], scale: int = 1) -> Dict[int, str]:
    """{m: repr(p_m)} for {m: p_m} = unpack_vector(acc, scale), made from the
    int keys without Scalars, the text of each monomial and coefficient once."""
    texts: dict = {}
    return {m: _poly_text(terms, texts) for m, terms in _parts(acc, scale).items()}


def compact_vector(acc: Dict[int, int]) -> Dict[int, int]:
    """acc with beta**2 folded into -1 and without zero coefficients, checked
    for exponent overflow: an operand for add_product."""
    out = {k: c for k, c in acc.items() if c}
    for k in _checked([k for k in out if k & (_GUARD | _BETA_SQ)]):
        c = out.get(k ^ _BETA_SQ, 0) - out.pop(k)
        if c:
            out[k ^ _BETA_SQ] = c
        else:
            del out[k ^ _BETA_SQ]
    return out


def substitution(*args) -> Callable[[dict], dict]:
    """The map v -> v with x_s -> a_s for every s, simultaneously, on packed
    vectors, for args x_1, .., x_r, a_1, .., a_r: variable names, then their images.

    Each monomial x_1^e1 .. x_r^er m maps to a_1^e1 .. a_r^er m, its beta
    digit and component going along; the image of each x_1^e1 .. x_r^er is
    computed once per map and reused for every vector it renames.  The a_s
    need integer coefficients.
    """
    r = len(args) // 2
    shifts = [_VAR_SHIFT[x] for x in args[:r]]
    factors = [pack_vector([(0, a)]) for a in args[r:]]
    xs = sum(_MAXEXP << s for s in shifts)
    images: Dict[int, Dict[int, int]] = {}

    def rename(vec: Dict[int, int]) -> Dict[int, int]:
        acc: Dict[int, int] = {}
        get = acc.get
        for key, c in vec.items():
            exps = key & xs
            img = images.get(exps)
            if img is None:
                img = {0: 1}
                for s, factor in zip(shifts, factors):
                    for _ in range(exps >> s & _MAXEXP):
                        img = compact_vector(add_product({}, img, factor))
                images[exps] = img
            rest = key - exps
            for k, ci in img.items():
                k += rest
                acc[k] = get(k, 0) + c * ci
        return compact_vector(acc)

    return rename


def add_product(acc: Dict[int, int], p: Dict[int, int], q: Dict[int, int],
                negate: bool = False) -> Dict[int, int]:
    """acc += p*q (or -= with negate) for packed vectors p and q; returns acc.

    Keys add, so p and q need components in disjoint digits and beta digits
    0 or 1 (as pack_vector and compact_vector leave them); compact_vector
    clears the zeros and beta**2 left in acc."""
    get = acc.get
    q_items = q.items()
    for k1, c1 in p.items():
        if negate:
            c1 = -c1
        for k2, c2 in q_items:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    return acc


def accumulate(store: Dict, key, p: MultiPoly) -> None:
    """store[key] += p for a dict of polynomials; the key is dropped when the sum is zero."""
    prev = store.get(key)
    s = p if prev is None else prev + p
    if s.terms:
        store[key] = s
    else:
        store.pop(key, None)


# module-level generators, convenient for building structure constants
LAM = MultiPoly.var("lam")
MU = MultiPoly.var("mu")
NU = MultiPoly.var("nu")
D = MultiPoly.var("d")
X1 = MultiPoly.var("x1")
X2 = MultiPoly.var("x2")
X3 = MultiPoly.var("x3")
X4 = MultiPoly.var("x4")
P_ONE = MultiPoly.const(1)
P_ZERO = MultiPoly.zero()
BETA = MultiPoly.const(Scalar.beta())


# -- JSON encoding ----------------------------------------------------------

def poly_to_json(p: MultiPoly) -> list:
    out = []
    for exps, c in p.items():
        out.append(
            {
                "coeff": [
                    c.re.numerator,
                    c.re.denominator,
                    c.im.numerator,
                    c.im.denominator,
                ],
                "exps": exps,   # _unpack lists the variables in ALPHABET order
            }
        )
    return out


def poly_from_json(data: Iterable[dict]) -> MultiPoly:
    """The polynomial of poly_to_json's terms; repeated monomials are summed.

    The four coefficient parts and the exponents are JSON integers, not
    booleans, and exps is an object.  A term whose coefficient is zero adds
    nothing: of its monomial only the type of each exponent is checked."""
    terms: Dict[int, Scalar] = {}
    for term in data:
        rn, rd, im_n, im_d = coeff = term["coeff"]
        for x in coeff:
            if type(x) is not int:
                raise ValueError(f"coefficient part {x!r} is not an integer")
        # an integral coefficient needs no Fraction
        c = _make(rn, im_n) if rd == im_d == 1 else Scalar(Fraction(rn, rd), Fraction(im_n, im_d))
        exps = term["exps"]
        if type(exps) is not dict:
            raise ValueError(f"exponents {exps!r} are not an object")
        for v, e in exps.items():
            if type(e) is not int:
                raise ValueError(f"exponent {e!r} of {v} is not an integer")
        if c.is_zero():
            continue
        k = _pack({str(v): e for v, e in exps.items()})
        prev = terms.get(k)
        terms[k] = c if prev is None else prev + c
    return MultiPoly({k: c for k, c in terms.items() if not c.is_zero()})
