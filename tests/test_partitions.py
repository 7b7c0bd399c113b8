"""Partition enumeration, moment/cumulant transforms and the subset
exp/log over bitmasks.

Oracles used here are deliberately different algorithms from the library:
partitions by recursive element insertion (the library grows
restricted-growth strings), Bell numbers by the Bell-triangle recurrence
(the library uses the binomial recurrence), pairings by filtering the
insertion enumeration, and the subset exp, log and -log(1 - .) by the sum
over `enumerate_partitions`.
"""

import itertools
import math

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

from schwingerlab import (BoundsError, DomainError, IncompleteInputError,
                          Partition, bell_number, cumulants_from_moments,
                          enumerate_partitions, moments_from_cumulants, pairings)
from schwingerlab.partitions import (pair_exp, subset_exp, subset_log, subset_neglog1m,
                                     subset_product, validate_partition)

from conftest import random_complex
from schwingerlab.fixtures import rng_from_seed


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def insertion_partitions(n):
    """All partitions of {1..n} by inserting element n into each partition
    of {1..n-1} (every block, plus a new singleton)."""
    if n == 1:
        return [[[1]]]
    out = []
    for smaller in insertion_partitions(n - 1):
        for i in range(len(smaller)):
            out.append([b + [n] if j == i else list(b) for j, b in enumerate(smaller)])
        out.append([list(b) for b in smaller] + [[n]])
    return out


def as_set(blocks):
    return frozenset(frozenset(b) for b in blocks)


def bell_triangle(n):
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def oracle_moment(cums, n):
    total = 0j
    for blocks in insertion_partitions(n):
        prod = 1 + 0j
        for b in blocks:
            prod *= cums[tuple(sorted(b))]
        total += prod
    return total


def oracle_cumulant(moms, n):
    total = 0j
    for blocks in insertion_partitions(n):
        k = len(blocks)
        prod = 1 + 0j
        for b in blocks:
            prod *= moms[tuple(sorted(b))]
        total += math.factorial(k - 1) * (-1) ** (k - 1) * prod
    return total


def all_subsets(n):
    for r in range(1, n + 1):
        yield from itertools.combinations(range(1, n + 1), r)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_single_element():
    parts = enumerate_partitions(1)
    assert parts == [Partition(1, ((1,),))]


@pytest.mark.parametrize("n,count", [(4, 15), (5, 52)])
def test_counts_match_insertion_oracle(n, count):
    parts = enumerate_partitions(n)
    oracle = insertion_partitions(n)
    assert len(oracle) == count
    assert len(parts) == count
    assert {as_set(p.blocks) for p in parts} == {as_set(b) for b in oracle}


def test_each_partition_returned_once_and_canonical():
    for n in range(1, 7):
        parts = enumerate_partitions(n)
        assert len({as_set(p.blocks) for p in parts}) == len(parts)
        for p in parts:
            validate_partition(p)


def test_counts_match_bell_recurrence_up_to_8():
    for n in range(1, 9):
        assert len(enumerate_partitions(n)) == bell_number(n)


def test_bell_numbers_against_triangle_oracle():
    expected = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    for n, val in enumerate(expected):
        assert bell_number(n) == val == bell_triangle(n)


def test_order_bounds():
    with pytest.raises(BoundsError, match="1..10"):
        enumerate_partitions(11)
    with pytest.raises(BoundsError):
        enumerate_partitions(0)


def test_pairings_counts_and_oracle():
    assert len(pairings(2)) == 1
    got4 = {as_set(p.blocks) for p in pairings(4)}
    want4 = {as_set([[1, 2], [3, 4]]), as_set([[1, 3], [2, 4]]),
             as_set([[1, 4], [2, 3]])}
    assert got4 == want4
    # (n-1)!! against the filter oracle
    for n in (2, 4, 6):
        filt = [b for b in insertion_partitions(n) if all(len(x) == 2 for x in b)]
        assert len(pairings(n)) == len(filt)
    assert len(pairings(6)) == 15


def test_pairings_odd_rejected():
    with pytest.raises(DomainError, match="even"):
        pairings(3)


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def test_moment_n1_is_the_cumulant():
    cums = {(1,): 2.5 - 1j}
    assert moments_from_cumulants(cums, 1) == cums[(1,)]


def test_cumulant_n2_closed_form():
    moms = {(1,): 0.3 + 0.4j, (2,): -1.1j, (1, 2): 2.0 + 0.1j}
    got = cumulants_from_moments(moms, 2)
    assert got == pytest.approx(moms[(1, 2)] - moms[(1,)] * moms[(2,)])


def test_moments_reduce_to_pairing_sum_when_higher_cumulants_vanish():
    # order-two cumulants only: the moment must equal the sum over
    # partitions with blocks of size <= 2 (pairings + singletons).
    rng = rng_from_seed(5)
    n = 4
    cums = {}
    for key in all_subsets(n):
        if len(key) <= 2:
            cums[key] = random_complex(rng)
        else:
            cums[key] = 0j
    got = moments_from_cumulants(cums, n)
    want = 0j
    for p in enumerate_partitions(n):
        if max(len(b) for b in p.blocks) > 2:
            continue
        prod = 1 + 0j
        for b in p.blocks:
            prod *= cums[b]
        want += prod
    assert got == pytest.approx(want, rel=1e-14)


def test_centered_gaussian_moments_have_zero_fourth_cumulant():
    # moments of a centered system with only pair correlations
    rng = rng_from_seed(6)
    pair = {key: random_complex(rng) for key in itertools.combinations(range(1, 5), 2)}
    moms = {}
    for key in all_subsets(4):
        if len(key) % 2 == 1:
            moms[key] = 0j
        elif len(key) == 2:
            moms[key] = pair[key]
        else:
            a, b, c, d = key
            moms[key] = (pair[(a, b)] * pair[(c, d)] + pair[(a, c)] * pair[(b, d)]
                         + pair[(a, d)] * pair[(b, c)])
    got = cumulants_from_moments(moms, 4)
    scale = sum(abs(v) for v in moms.values())
    assert abs(got) <= 1e-14 * scale


@pytest.mark.parametrize("n", range(1, 6))
def test_transforms_match_direct_oracles(n):
    rng = rng_from_seed(100 + n)
    table = {key: random_complex(rng) for key in all_subsets(n)}
    assert moments_from_cumulants(table, n) == pytest.approx(
        oracle_moment(table, n), rel=1e-13)
    assert cumulants_from_moments(table, n) == pytest.approx(
        oracle_cumulant(table, n), rel=1e-13)


def _relabel(table, key):
    pos = {v: i + 1 for i, v in enumerate(key)}
    out = {}
    for r in range(1, len(key) + 1):
        for sub in itertools.combinations(key, r):
            out[tuple(sorted(pos[v] for v in sub))] = table[sub]
    return out


def roundtrip_error(n, seed):
    """Transform random cumulants to moments on every subset, invert, and
    return the relative error on the recovered top cumulant."""
    rng = rng_from_seed(seed)
    cums = {key: random_complex(rng) for key in all_subsets(n)}
    moms = {key: moments_from_cumulants(_relabel(cums, key), len(key))
            for key in all_subsets(n)}
    back = cumulants_from_moments(moms, n)
    top = cums[tuple(range(1, n + 1))]
    return abs(back - top) / abs(top)


@pytest.mark.parametrize("n", range(1, 7))
def test_roundtrip_identity(n):
    for trial in range(10):
        assert roundtrip_error(n, 1000 * n + trial) <= 1e-12


@settings(max_examples=25, derandomize=True)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10_000))
def test_roundtrip_identity_property(n, seed):
    assert roundtrip_error(n, seed) <= 1e-12


def test_missing_subset_entry_is_reported():
    cums = {key: 1.0 + 0j for key in all_subsets(3)}
    del cums[(1, 3)]
    with pytest.raises(IncompleteInputError, match=r"\(1, 3\)"):
        moments_from_cumulants(cums, 3)
    with pytest.raises(IncompleteInputError):
        cumulants_from_moments(cums, 3)


def test_validate_partition_rejects_defects():
    with pytest.raises(DomainError):
        validate_partition(Partition(3, ((1, 2),)))          # not covering
    with pytest.raises(DomainError):
        validate_partition(Partition(2, ((1,), (1, 2))))     # duplicate index
    with pytest.raises(DomainError):
        validate_partition(Partition(2, ((2,), (1,))))       # bad block order


def test_enumeration_order_is_the_growth_string_order():
    # deterministic fixture promise: lexicographic restricted-growth order
    got = [str(p) for p in enumerate_partitions(3)]
    assert got == ["123", "12|3", "13|2", "1|23", "1|2|3"]


# ---------------------------------------------------------------------------
# Set functions over bitmasks
# ---------------------------------------------------------------------------

def mask(block):
    return sum(1 << (i - 1) for i in block)


def lattice_sum(table, n, coefficient):
    """sum over partitions pi of {1..n} of coefficient(|pi|) prod_B table[B]."""
    total = 0j
    for part in enumerate_partitions(n):
        prod = 1 + 0j
        for block in part.blocks:
            prod *= table[mask(block)]
        total += coefficient(len(part.blocks)) * prod
    return total


def random_set_function(rng, n):
    return np.array([random_complex(rng) for _ in range(1 << n)])


@pytest.mark.parametrize("n", range(1, 9))
def test_subset_transforms_match_the_partition_lattice(n):
    # every odd entry is nonzero, so no partition drops out of the sums
    rng = rng_from_seed(700 + n)
    routes = [(subset_exp, lambda k: 1),
              (subset_log, lambda k: (-1) ** (k - 1) * math.factorial(k - 1)),
              (subset_neglog1m, lambda k: math.factorial(k - 1))]
    for transform, coefficient in routes:
        table = random_set_function(rng, n)
        got = transform(table)
        for r in range(1, n + 1):
            for key in itertools.combinations(range(1, n + 1), r):
                sub = {mask(b): table[mask(tuple(key[i - 1] for i in b))]
                       for b in all_subsets(r)}
                want = lattice_sum(sub, r, coefficient)
                assert abs(got[mask(key)] - want) <= 1e-13 * abs(want) + 1e-13, \
                    (transform.__name__, key)


@pytest.mark.parametrize("n", [1, 4, 7, 8])
def test_subset_product_is_the_disjoint_union_convolution(n):
    rng = rng_from_seed(800 + n)
    a, b = random_set_function(rng, n), random_set_function(rng, n)
    got = subset_product(a, b)
    for s in range(1 << n):
        want = sum(a[t] * b[s ^ t] for t in range(1 << n) if t & s == t)
        assert got[s] == pytest.approx(want, rel=1e-13)
    # the exponential formula: exp turns sums into subset products
    a[0] = b[0] = 0
    assert np.allclose(subset_exp(a + b), subset_product(subset_exp(a), subset_exp(b)),
                       rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", range(1, 9))
def test_pair_exp_is_the_hafnian_of_every_subset(n):
    rng = rng_from_seed(900 + n)
    table = np.zeros(1 << n, dtype=np.complex128)
    for pair in itertools.combinations(range(1, n + 1), 2):
        table[mask(pair)] = random_complex(rng)
    got = pair_exp(table)
    assert np.allclose(got, subset_exp(table), rtol=1e-13, atol=0)
    full = (1 << n) - 1
    if n % 2:
        assert got[full] == 0
    else:
        want = sum(math.prod(table[mask(b)] for b in p.blocks) for p in pairings(n))
        assert got[full] == pytest.approx(want, rel=1e-13)


def test_set_function_length_must_be_a_power_of_two():
    with pytest.raises(DomainError, match="2\\^n"):
        subset_exp(np.zeros(6))
    with pytest.raises(BoundsError):
        subset_log(np.ones(1))
