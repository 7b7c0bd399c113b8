"""Set partitions of {1..n} and moment/cumulant transforms over them.

Moments and cumulants of a generating functional are related by sums over
the lattice of set partitions:

    moment(1..n)   = sum over partitions pi  of  prod_B cumulant(B)
    cumulant(1..n) = sum over partitions pi  of
                     (|pi|-1)! (-1)^(|pi|-1) prod_B moment(B)

where B runs over the blocks of pi.  By the exponential formula (Stanley,
Enumerative Combinatorics 2, 5.1) these sums are exp and log of set
functions on the subsets of {1..n} under the subset product, and the
condition scale sum_pi (|pi|-1)! prod_B |moment(B)| is -log(1 - |moment|).
The package computes them that way, for every subset at once.  The
enumeration and its lattice sum are kept as the oracle the subset route is
tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping

import numpy as np

from .errors import BoundsError, DomainError, IncompleteInputError

# Bell(10) = 115975 partitions is the practical desk-scale ceiling.
MAX_PARTITION_N = 10

Block = tuple[int, ...]
IndexKey = tuple[int, ...]


@dataclass(frozen=True)
class Partition:
    """A partition of {1..n} into disjoint nonempty blocks.

    Canonical form: blocks ordered by their smallest element, elements
    ascending within each block.
    """

    n: int
    blocks: tuple[Block, ...]

    @property
    def size(self) -> int:
        """Number of blocks |pi|."""
        return len(self.blocks)

    def __str__(self) -> str:
        return "|".join("".join(str(i) for i in b) for b in self.blocks)


def validate_partition(p: Partition) -> None:
    """Raise DomainError unless p satisfies every Partition invariant."""
    if p.n < 1:
        raise DomainError(f"partition ground set must be nonempty, got n={p.n}")
    seen: set[int] = set()
    for block in p.blocks:
        if not block:
            raise DomainError("empty block")
        if list(block) != sorted(block):
            raise DomainError(f"block {block} not sorted")
        for i in block:
            if not 1 <= i <= p.n:
                raise DomainError(f"index {i} outside 1..{p.n}")
            if i in seen:
                raise DomainError(f"index {i} appears twice")
            seen.add(i)
    if len(seen) != p.n:
        raise DomainError("blocks do not cover {1..n}")
    mins = [b[0] for b in p.blocks]
    if mins != sorted(mins):
        raise DomainError("blocks not ordered by smallest element")


def _check_order(n: int) -> None:
    if not isinstance(n, int):
        raise DomainError(f"partition order must be an integer, got {n!r}")
    if not 1 <= n <= MAX_PARTITION_N:
        raise BoundsError(
            f"partition order n={n} outside 1..{MAX_PARTITION_N} "
            f"(cap keeps Bell-number growth desk-scale)"
        )


def _grow(labels: list[int], pos: int, used: int, n: int) -> Iterator[Partition]:
    # Restricted-growth strings in lexicographic order: element pos+1 joins
    # block `b` for b = 0..used, where `used` blocks exist so far.  Blocks
    # come out labelled by first occurrence, i.e. already canonical.
    if pos == n:
        blocks: list[list[int]] = [[] for _ in range(used)]
        for i, b in enumerate(labels):
            blocks[b].append(i + 1)
        yield Partition(n, tuple(tuple(b) for b in blocks))
        return
    for b in range(used + 1):
        labels[pos] = b
        yield from _grow(labels, pos + 1, used + (1 if b == used else 0), n)


@lru_cache(maxsize=None)
def _cached_partitions(n: int) -> tuple[Partition, ...]:
    return tuple(_grow([0] * n, 0, 0, n))


@lru_cache(maxsize=None)
def _cached_pairings(n: int) -> tuple[Partition, ...]:
    return tuple(p for p in _cached_partitions(n) if all(len(b) == 2 for b in p.blocks))


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of {1..n} in canonical (restricted-growth) order.

    The count equals the n-th Bell number.
    """
    _check_order(n)
    return list(_cached_partitions(n))


def pairings(n: int) -> tuple[Partition, ...]:
    """All perfect matchings of {1..n}; there are (n-1)!! of them.

    These are exactly the partitions of {1..n} into blocks of size 2,
    the ones a centered Gaussian moment sum runs over, in the same
    restricted-growth order as `enumerate_partitions`.
    """
    _check_order(n)
    if n % 2 != 0:
        raise DomainError(f"pairings need an even ground set, got n={n}")
    return _cached_pairings(n)


_BELL = [1]  # B(0)


def bell_number(n: int) -> int:
    """n-th Bell number via the binomial recurrence B(m) = sum C(m-1,k) B(k)."""
    if n < 0:
        raise DomainError(f"Bell number index must be >= 0, got {n}")
    while len(_BELL) <= n:
        m = len(_BELL)
        _BELL.append(sum(math.comb(m - 1, k) * _BELL[k] for k in range(m)))
    return _BELL[n]


# Coefficient rows c(|pi|), indexed by |pi| - 1.
_ONES = (1,) * MAX_PARTITION_N
_MOBIUS = tuple((-1) ** k * math.factorial(k) for k in range(MAX_PARTITION_N))


def _lattice_sum(table: Mapping[IndexKey, complex], n: int,
                 row: tuple[int, ...], what: str) -> complex:
    # sum over partitions pi of {1..n} of c(|pi|) prod_B table[B]
    _check_order(n)
    total = 0j
    for part in _cached_partitions(n):
        prod = complex(1.0)
        for block in part.blocks:
            try:
                prod *= table[block]
            except KeyError:
                raise IncompleteInputError(
                    f"{what} map is missing an entry for subset {block}"
                ) from None
        total += row[part.size - 1] * prod
    return total


def moments_from_cumulants(cumulants: Mapping[IndexKey, complex], n: int) -> complex:
    """Order-n moment from the cumulants of every nonempty subset of {1..n}.

    Keys of `cumulants` are the subsets as ascending tuples.
    """
    return _lattice_sum(cumulants, n, _ONES, "cumulant")


def cumulants_from_moments(moments: Mapping[IndexKey, complex], n: int) -> complex:
    """Order-n cumulant from the moments of every nonempty subset of {1..n}."""
    return _lattice_sum(moments, n, _MOBIUS, "moment")


# ---------------------------------------------------------------------------
# Set functions over bitmasks
# ---------------------------------------------------------------------------
# A set function on the subsets of {1..n} is an array whose last axis has
# 2^n entries, entry S for the subset of the i with bit i-1 set in S; other
# axes are batch axes.  Each transform splits off the block T that holds
# i = min S, F[S] = sum over T subset of S, i in T, of a[T] G[S - T], one
# subset size at a time, so every right-hand side is already known.

@lru_cache(maxsize=None)
def _rooted_splits(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    # per size s = 1..n: the masks S (k,), their blocks T that hold min S
    # (k, 2^(s-1)) in increasing order, so column 2^j holds a pair and the
    # last column T = S, and the rests S - T
    m = np.arange(1 << n)
    size = np.array([bin(x).count("1") for x in range(1 << n)])
    rows, blocks = np.nonzero((m & m[:, None] == m) & (m & (m & -m)[:, None] != 0))
    layers = [(m[size == s], blocks[size[rows] == s].reshape(-1, 1 << (s - 1)))
              for s in range(1, n + 1)]
    return tuple((masks, split, masks[:, None] ^ split) for masks, split in layers)


def _layers(a: np.ndarray):
    n = a.shape[-1].bit_length() - 1
    if a.shape[-1] != 1 << n:
        raise DomainError(f"a set function has 2^n entries, got {a.shape[-1]}")
    _check_order(n)
    return _rooted_splits(n)


def subset_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a * b)[S] = sum over A subset of S of a[A] b[S - A]."""
    out = a * b
    for masks, blocks, rests in _layers(a):
        out[..., masks] = (a[..., blocks] * b[..., rests]
                           + b[..., blocks] * a[..., rests]).sum(-1)
    return out


def _exp(a: np.ndarray, layers) -> np.ndarray:
    out = np.zeros_like(a)
    out[..., 0] = 1.0
    for masks, blocks, rests in layers:
        out[..., masks] = (a[..., blocks] * out[..., rests]).sum(-1)
    return out


def subset_exp(a: np.ndarray) -> np.ndarray:
    """exp(a), a[0] unread: entry S is the sum over the set partitions of S
    of prod_B a[B]."""
    return _exp(a, _layers(a))


def pair_exp(a: np.ndarray) -> np.ndarray:
    """subset_exp of an `a` that vanishes off the two-element subsets, by the
    hafnian recursion E[S] = sum over j in S - {i} of a[{i,j}] E[S - {i,j}],
    i = min S.  Entries of odd size are exactly 0."""
    layers = []
    for s, (masks, blocks, rests) in list(enumerate(_layers(a), 1))[1::2]:
        pairs = 1 << np.arange(s - 1)   # the columns whose block is a pair
        layers.append((masks, blocks[:, pairs], rests[:, pairs]))
    return _exp(a, layers)


def subset_log(f: np.ndarray) -> np.ndarray:
    """log(f), f[0] taken as 1: entry S != 0 is the sum over the set
    partitions pi of S of (-1)^(|pi|-1) (|pi|-1)! prod_B f[B]."""
    out = np.zeros_like(f)
    for masks, blocks, rests in _layers(f):
        out[..., masks] = f[..., masks] - (out[..., blocks[:, :-1]]
                                           * f[..., rests[:, :-1]]).sum(-1)
    return out


def subset_neglog1m(t: np.ndarray) -> np.ndarray:
    """-log(1 - t), t[0] unread: entry S != 0 is the sum over the set
    partitions pi of S of (|pi|-1)! prod_B t[B]."""
    out, inv = np.zeros_like(t), np.zeros_like(t)   # inv = 1/(1 - t) = exp(out)
    inv[..., 0] = 1.0
    for masks, blocks, rests in _layers(t):
        out[..., masks] = (t[..., blocks] * inv[..., rests]).sum(-1)
        inv[..., masks] = (out[..., blocks] * inv[..., rests]).sum(-1)
    return out
