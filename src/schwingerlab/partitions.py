"""Moment/cumulant transforms as set functions over the bitmask subsets of
{1..n}.

Moments and cumulants of a generating functional are related by sums over
the lattice of set partitions:

    moment(1..n)   = sum over partitions pi  of  prod_B cumulant(B)
    cumulant(1..n) = sum over partitions pi  of
                     (|pi|-1)! (-1)^(|pi|-1) prod_B moment(B)

where B runs over the blocks of pi.  By the exponential formula (Stanley,
Enumerative Combinatorics 2, 5.1) these sums are exp and log of set
functions on the subsets of {1..n} under the subset product, and the
condition scale sum_pi (|pi|-1)! prod_B |moment(B)| is -log(1 - |moment|)
= -subset_log(-|moment|).  The package computes them that way, for every
subset at once, and never enumerates a partition; a `functional.MomentTable`
is one pair_exp and one subset_log, each over rows stacked on a batch axis.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError

# A transform pays (3^n - 1)/2 subset splits, 29524 at n = 10, the desk-scale ceiling.
MAX_PARTITION_N = 10


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


@lru_cache(maxsize=None)
def _pair_layers(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    # the even sizes' rooted splits, cut to the columns 2^j, whose block is a pair
    return tuple((masks, blocks[:, 1 << np.arange(s - 1)], rests[:, 1 << np.arange(s - 1)])
                 for s, (masks, blocks, rests) in enumerate(_rooted_splits(n), 1) if s % 2 == 0)


def _layers(a: np.ndarray):
    n = a.shape[-1].bit_length() - 1
    if n < 0 or a.shape[-1] != 1 << n:
        raise DomainError(f"a set function has 2^n entries, got {a.shape[-1]}")
    if not 1 <= n <= MAX_PARTITION_N:
        raise DomainError(f"partition order n={n} outside 1..{MAX_PARTITION_N} "
                          f"(cap keeps the O(3^n) subset splits desk-scale)")
    return _rooted_splits(n)


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
    return _exp(a, _pair_layers(len(_layers(a))))   # _layers has one layer per size 1..n


def subset_log(f: np.ndarray) -> np.ndarray:
    """log(f), f[0] taken as 1: entry S != 0 is the sum over the set
    partitions pi of S of (-1)^(|pi|-1) (|pi|-1)! prod_B f[B]."""
    out = np.zeros_like(f)
    for masks, blocks, rests in _layers(f):
        out[..., masks] = f[..., masks] - (out[..., blocks[:, :-1]]
                                           * f[..., rests[:, :-1]]).sum(-1)
    return out
