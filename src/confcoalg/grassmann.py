"""Sign combinatorics of the Grassmann algebra on n odd generators.

Monomials are indexed by subsets of {1..n}, held as bitmasks (bit i-1 set
means generator i occurs); plain int masks are the one representation the
package builds its tables on.  All products carry the sign (-1)**alpha(I,J)
where alpha counts the adjacent transpositions needed to sort the
juxtaposition I.J.  The sign rule lives here once, on masks: ``alpha_mask``,
``eps_mask`` (derivative signs) and ``mul_sign`` (product signs).

The ``IndexSet``/``SignedMonomial`` layer wraps these helpers for readable
examples; it is the reference that the tests and ``bench/micro.py`` use, and
no production module calls it (its ``eps`` and ``derive``, which only the
tests use, are in ``tests/helpers.py``).  Sign errors are the dominant bug
class in this domain, so its constructors reject unsorted input instead of
sorting it.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

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
        return bin(self.mask).count("1")

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


def members(mask: int) -> Tuple[int, ...]:
    """The members of a subset mask, ascending."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _check_ambient(a: IndexSet, b: IndexSet):
    if a.n != b.n:
        raise ValueError("ambient dimensions differ")


def alpha_mask(a: int, b: int) -> int:
    """alpha on plain masks: #{(i, j): i in a, j in b, j < i}; a, b disjoint."""
    if a & b:
        raise ValueError("alpha undefined for overlapping sets")
    count = 0
    while a:
        low = a & -a                        # the lowest member left in a
        count += (b & (low - 1)).bit_count()
        a ^= low
    return count


def mul_sign(a: int, b: int) -> int:
    """Sign of xi_a * xi_b = sign * xi_{a|b} on plain masks; 0 when a and b overlap."""
    if a & b:
        return 0
    return -1 if alpha_mask(a, b) & 1 else 1


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


def eps_mask(i: int, m: int) -> int:
    """eps on a plain mask: members of m strictly below i; i must belong to m."""
    if not m >> (i - 1) & 1:
        raise ValueError(f"{i} not a member of mask {m:b}")
    return (m & ((1 << (i - 1)) - 1)).bit_count()


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
