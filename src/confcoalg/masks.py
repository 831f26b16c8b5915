"""Sign combinatorics of the Grassmann algebra on n odd generators, on masks.

Monomials are indexed by subsets of {1..n}, held as bitmasks (bit i-1 set
means generator i occurs); plain int masks are the one representation the
package builds its tables on.  All products carry the sign (-1)**alpha(I,J)
where alpha counts the adjacent transpositions needed to sort the
juxtaposition I.J.  The sign rule lives here once: ``alpha_mask``,
``eps_mask`` (derivative signs) and ``mul_sign`` (product signs), with the
mask helpers that the constructors, the closed forms and the restriction
machinery share (``_monomial``, ``_d_mul``, ``_masks``, ``_sign_tables``).
The readable ``IndexSet`` layer over these is in grassmann.
"""

from __future__ import annotations

from typing import List, Tuple


def members(mask: int) -> Tuple[int, ...]:
    """The members of a subset mask, ascending."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


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


def eps_mask(i: int, m: int) -> int:
    """eps on a plain mask: members of m strictly below i; i must belong to m."""
    if not m >> (i - 1) & 1:
        raise ValueError(f"{i} not a member of mask {m:b}")
    return (m & ((1 << (i - 1)) - 1)).bit_count()


# -- the mask helpers of the constructors, the closed forms and the restriction


def _sgn(e: int) -> int:
    return -1 if e & 1 else 1


def _mask_of(i: int) -> int:
    return 1 << (i - 1)


def _digits(indices: Tuple[int, ...]) -> str:
    return "".join(map(str, indices))


def _monomial(indices: Tuple[int, ...]) -> Tuple[int, int]:
    """xi_{i1} ... xi_{ir} as (sign, mask); the sign is 0 when an index repeats."""
    sign, mask = 1, 0
    for i in indices:
        sign *= mul_sign(mask, _mask_of(i))
        mask |= _mask_of(i)
    return sign, mask


def _d_mul(a: int, i: int, b: int) -> Tuple[int, int]:
    """xi_a d_i(xi_b) as (sign, mask); the sign is 0 when it vanishes."""
    if not b & _mask_of(i):
        return 0, 0
    rest = b ^ _mask_of(i)
    return _sgn(eps_mask(i, b)) * mul_sign(a, rest), a | rest


def _masks(n: int) -> List[int]:
    """All subset masks of {1..n}, graded then lexicographic on members."""
    return sorted(range(1 << n), key=lambda m: (m.bit_count(), members(m)))


def _sign_tables(n: int) -> Tuple[List[List[int]], List[int]]:
    """(eps, odd) on the masks m of {1..n}: eps[i][m] = eps(i, m + {i}) from
    eps_mask (row 0 empty), and odd[m] the j with an odd number of members
    of m above j: alpha(I, J) is odd iff J & odd[I] has an odd bit count."""
    odd = [0] * (1 << n)
    for m in range(1, 1 << n):
        top = 1 << (m.bit_length() - 1)     # adding the top member flips the j below it
        odd[m] = odd[m ^ top] ^ (top - 1)
    below = [[eps_mask(i, m | _mask_of(i)) for m in range(1 << n)] for i in range(1, n + 1)]
    return [[]] + below, odd
