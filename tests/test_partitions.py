"""The moment/cumulant transforms as exp/log over bitmask set functions.

The oracles in `oracles` are deliberately different algorithms: partitions
by recursive element insertion, Bell numbers by the Bell triangle, pairings
by pairing the first element with each other one, and the lattice sums over
the insertion enumeration.
"""

import itertools
import math

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

from schwingerlab import DomainError, partitions
from schwingerlab.partitions import MAX_PARTITION_N, pair_exp, subset_exp, subset_log

from conftest import random_complex
from oracles import (bell_triangle, insertion_partitions, oracle_cumulant,
                     oracle_moment, own_pairings, per_call_pair_exp, two_table_neglog1m)
from schwingerlab.fixtures import rng_from_seed
from test_lattice import _bits_equal


def as_set(blocks):
    return frozenset(frozenset(b) for b in blocks)


def all_subsets(n):
    for r in range(1, n + 1):
        yield from itertools.combinations(range(1, n + 1), r)


def mask(block):
    return sum(1 << (i - 1) for i in block)


def as_array(table, n):
    """A set function keyed by ascending tuples as its bitmask array."""
    out = np.zeros(1 << n, dtype=np.complex128)
    for key, value in table.items():
        out[mask(key)] = value
    return out


# ---------------------------------------------------------------------------
# Counting: exp of the all-ones set function counts partitions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,count", [(4, 15), (5, 52)])
def test_counts_match_insertion_oracle(n, count):
    oracle = insertion_partitions(n)
    assert len(oracle) == count
    assert len({as_set(b) for b in oracle}) == count
    assert subset_exp(np.ones(1 << n))[-1] == count


def test_counts_match_bell_recurrence_up_to_8():
    counts = subset_exp(np.ones(1 << 8))
    assert all(counts[s] == bell_triangle(s.bit_count()) for s in range(1 << 8))


def test_bell_numbers_against_triangle_oracle():
    expected = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    for n, val in enumerate(expected):
        assert len(insertion_partitions(n)) == val == bell_triangle(n)


def test_order_bounds():
    with pytest.raises(DomainError, match="n=11 outside 1..10"):
        subset_exp(np.zeros(1 << 11))
    with pytest.raises(DomainError, match="n=0 outside 1..10"):
        pair_exp(np.zeros(1))


def test_pairings_counts_and_oracle():
    got4 = {as_set(p) for p in own_pairings((1, 2, 3, 4))}
    want4 = {as_set([[1, 2], [3, 4]]), as_set([[1, 3], [2, 4]]),
             as_set([[1, 4], [2, 3]])}
    assert got4 == want4
    # (s-1)!! at every even subset, against the filter oracle
    table = np.zeros(1 << 6)
    for pair in itertools.combinations(range(1, 7), 2):
        table[mask(pair)] = 1.0
    counts = pair_exp(table)
    for n in (2, 4, 6):
        filt = [b for b in insertion_partitions(n) if all(len(x) == 2 for x in b)]
        assert counts[(1 << n) - 1] == len(filt) == len(list(own_pairings(tuple(range(n)))))
    assert counts[-1] == 15


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def test_moment_n1_is_the_cumulant():
    cums = {(1,): 2.5 - 1j}
    assert subset_exp(as_array(cums, 1))[1] == cums[(1,)]


def test_cumulant_n2_closed_form():
    moms = {(1,): 0.3 + 0.4j, (2,): -1.1j, (1, 2): 2.0 + 0.1j}
    got = subset_log(as_array(moms, 2))[0b11]
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
    got = subset_exp(as_array(cums, n))[-1]
    want = 0j
    for blocks in insertion_partitions(n):
        if max(len(b) for b in blocks) > 2:
            continue
        prod = 1 + 0j
        for b in blocks:
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
    got = subset_log(as_array(moms, 4))[-1]
    scale = sum(abs(v) for v in moms.values())
    assert abs(got) <= 1e-14 * scale


@pytest.mark.parametrize("n", range(1, 6))
def test_transforms_match_direct_oracles(n):
    rng = rng_from_seed(100 + n)
    table = {key: random_complex(rng) for key in all_subsets(n)}
    assert subset_exp(as_array(table, n))[-1] == pytest.approx(
        oracle_moment(table, n), rel=1e-13)
    assert subset_log(as_array(table, n))[-1] == pytest.approx(
        oracle_cumulant(table, n), rel=1e-13)


def roundtrip_error(n, seed):
    """Transform random cumulants to moments on every subset, invert, and
    return the relative error on the recovered top cumulant."""
    rng = rng_from_seed(seed)
    cums = {key: random_complex(rng) for key in all_subsets(n)}
    back = subset_log(subset_exp(as_array(cums, n)))[-1]
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


# ---------------------------------------------------------------------------
# Set functions over bitmasks
# ---------------------------------------------------------------------------

def lattice_sum(table, n, coefficient):
    """sum over partitions pi of {1..n} of coefficient(|pi|) prod_B table[B]."""
    total = 0j
    for blocks in insertion_partitions(n):
        prod = 1 + 0j
        for block in blocks:
            prod *= table[mask(block)]
        total += coefficient(len(blocks)) * prod
    return total


def random_set_function(rng, n):
    return np.array([random_complex(rng) for _ in range(1 << n)])


@pytest.mark.parametrize("n", range(1, 9))
def test_subset_transforms_match_the_partition_lattice(n):
    # every odd entry is nonzero, so no partition drops out of the sums
    rng = rng_from_seed(700 + n)
    routes = [(subset_exp, lambda k: 1),
              (subset_log, lambda k: (-1) ** (k - 1) * math.factorial(k - 1)),
              (lambda t: -subset_log(-t), lambda k: math.factorial(k - 1)),
              (two_table_neglog1m, lambda k: math.factorial(k - 1))]
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
    # the exponential formula: exp turns sums into subset products, the
    # disjoint-union convolution (x * y)[S] = sum over T subset of S of x[T] y[S - T]
    rng = rng_from_seed(800 + n)
    a, b = random_set_function(rng, n), random_set_function(rng, n)
    a[0] = b[0] = 0
    x, y = subset_exp(a), subset_exp(b)
    product = [sum(x[t] * y[s ^ t] for t in range(1 << n) if t & s == t)
               for s in range(1 << n)]
    assert np.allclose(subset_exp(a + b), product, rtol=1e-12, atol=0)


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
        want = sum(math.prod(table[mask(b)] for b in p)
                   for p in own_pairings(tuple(range(1, n + 1))))
        assert got[full] == pytest.approx(want, rel=1e-13)


@pytest.mark.bits
@pytest.mark.parametrize("n", range(2, MAX_PARTITION_N + 1))
def test_pair_exp_warm_tables_are_the_per_call_layer_bits(n):
    rng = rng_from_seed(950 + n)
    table = np.zeros((2, 3, 1 << n), dtype=np.complex128)
    for pair in itertools.combinations(range(1, n + 1), 2):
        table[..., mask(pair)] = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    # a one-row call is its own case: numpy sums a layer of one mask in another
    # order when the batch has one row, so only the same shapes share bits
    want, row = per_call_pair_exp(table), per_call_pair_exp(table[1, 2])
    partitions._pair_layers.cache_clear()
    for _ in range(2):   # cold, then warm
        assert _bits_equal(pair_exp(table), want)
        assert _bits_equal(pair_exp(table[1, 2]), row)
    assert partitions._pair_layers.cache_info()[:2] == (3, 1)


def test_set_function_length_must_be_a_power_of_two():
    with pytest.raises(DomainError, match="2\\^n"):
        subset_exp(np.zeros(6))
    for transform in (subset_exp, pair_exp, subset_log):
        with pytest.raises(DomainError, match="2\\^n entries, got 0"):
            transform(np.zeros(0))
    with pytest.raises(DomainError, match="n=0 outside 1..10"):
        subset_log(np.ones(1))
