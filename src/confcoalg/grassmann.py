"""Readable Grassmann monomials: the ``IndexSet``/``SignedMonomial`` layer.

The sign rule of the Grassmann algebra lives once, on plain int masks, in
masks (``alpha_mask``, ``eps_mask``, ``mul_sign``, ``members``), of which
this module imports the ones it wraps.  The ``IndexSet``/``SignedMonomial`` layer
wraps those helpers for readable examples; it is the reference that the
tests and ``bench/micro.py`` use, and no production module calls it (its
``eps`` and ``derive``, which only the tests use, are in
``tests/helpers.py``).  Sign errors are the dominant bug class in this
domain, so its constructors reject unsorted input instead of sorting it.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from .masks import alpha_mask, members, mul_sign

__all__ = ["IndexSet", "MAX_N", "SignedMonomial", "alpha", "complement", "hodge", "mul", "subsets"]

MAX_N = 16


class IndexSet:
    """Strictly increasing index set inside a fixed ambient {1..n}."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, members: Iterable[int] = ()):
        # n = 0 (only the empty monomial) is needed by the W_0/K_0 families
        if not 0 <= n <= MAX_N:
            raise ValueError(f"ambient dimension must be in 0..{MAX_N}, got {n}")
        self.n = n
        mask = 0
        prev = 0
        for i in members:
            if not 1 <= i <= n:
                raise ValueError(f"index {i} outside 1..{n}")
            if i <= prev:
                raise ValueError(f"indices not strictly increasing at {i}")
            mask |= 1 << (i - 1)
            prev = i
        self.mask = mask

    @staticmethod
    def from_mask(n: int, mask: int) -> "IndexSet":
        s = IndexSet(n)
        if mask >> n:
            raise ValueError("mask exceeds ambient dimension")
        s.mask = mask
        return s

    @property
    def members(self) -> Tuple[int, ...]:
        return members(self.mask)

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    @property
    def parity(self) -> int:
        return self.degree & 1

    def __contains__(self, i: int) -> bool:
        return 1 <= i <= self.n and bool(self.mask >> (i - 1) & 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IndexSet)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((self.n, self.mask))

    def __repr__(self):
        return "{" + ",".join(map(str, self.members)) + "}"


class SignedMonomial:
    """A signed Grassmann monomial; the zero product is None, never sign 0."""

    __slots__ = ("sign", "idxset")

    def __init__(self, sign: int, idxset: IndexSet):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.sign = sign
        self.idxset = idxset

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignedMonomial)
            and self.sign == other.sign
            and self.idxset == other.idxset
        )

    def __hash__(self):
        return hash((self.sign, self.idxset))

    def __repr__(self):
        return f"{'+' if self.sign > 0 else '-'}xi{self.idxset}"


def _check_ambient(a: IndexSet, b: IndexSet):
    if a.n != b.n:
        raise ValueError("ambient dimensions differ")


def alpha(I: IndexSet, J: IndexSet) -> int:
    """Number of adjacent transpositions sorting the juxtaposition I.J.

    Equals the inversion count #{(i,j): i in I, j in J, j < i}; requires
    I and J disjoint.
    """
    _check_ambient(I, J)
    return alpha_mask(I.mask, J.mask)


def mul(I: IndexSet, J: IndexSet) -> Optional[SignedMonomial]:
    """xi_I * xi_J: None when the sets overlap, else the signed union."""
    _check_ambient(I, J)
    sign = mul_sign(I.mask, J.mask)
    return SignedMonomial(sign, IndexSet.from_mask(I.n, I.mask | J.mask)) if sign else None


def complement(I: IndexSet) -> IndexSet:
    return IndexSet.from_mask(I.n, ~I.mask & ((1 << I.n) - 1))


def hodge(I: IndexSet) -> SignedMonomial:
    """Signed complement monomial, normalised so xi_I * hodge(I) = xi_1..xi_n."""
    Ic = complement(I)
    return SignedMonomial(-1 if alpha_mask(I.mask, Ic.mask) & 1 else 1, Ic)


def subsets(n: int):
    """All IndexSets of {1..n} in mask order (the empty set first)."""
    for mask in range(1 << n):
        yield IndexSet.from_mask(n, mask)
