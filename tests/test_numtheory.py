import math
from itertools import takewhile

import pytest
from hypothesis import given, strategies as st

from lensdirac.numtheory import (
    PRIME_TEST_LIMIT,
    binomial,
    is_prime,
    series_field,
)
from lensdirac.spectrum import sphere_multiplicity
from reference import units


def test_units_small():
    assert units(1) == [0]
    assert units(2) == [1]
    assert units(12) == [1, 5, 7, 11]
    assert len(units(49)) == 42


@given(st.integers(min_value=2, max_value=300))
def test_units_are_exactly_the_coprimes(q):
    us = units(q)
    assert us == sorted(us)
    assert all(0 < u < q and math.gcd(u, q) == 1 for u in us)
    assert len(us) == sum(1 for a in range(1, q) if math.gcd(a, q) == 1)


def test_binomial_values():
    assert binomial(30, 15) == 155117520
    assert binomial(0, 0) == 1
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0


@given(st.integers(min_value=0, max_value=80), st.integers(min_value=-5, max_value=85))
def test_binomial_pascal(n, k):
    assert binomial(n + 1, k) == binomial(n, k) + binomial(n, k - 1)


def test_is_prime_matches_trial_division():
    primes = []
    for n in range(100_000):
        trial = n >= 2 and all(n % p for p in takewhile(lambda p: p * p <= n, primes))
        if trial:
            primes.append(n)
        assert is_prime(n) == trial, n


def test_is_prime_matches_a_sieve_just_above_2_30():
    # the sketch primes' range, where three bases decide
    lo, hi = 1 << 30, (1 << 30) + 30_000
    small = [n for n in range(2, 32_800) if is_prime(n)]
    composite = bytearray(hi - lo)
    for p in small:
        composite[-lo % p::p] = b"\x01" * len(range(-lo % p, hi - lo, p))
    assert [lo + i for i in range(hi - lo) if is_prime(lo + i)] == [
        lo + i for i in range(hi - lo) if not composite[i]]


def test_is_prime_large_values():
    # strong pseudoprimes to many small bases, and known primes
    assert not is_prime(3_215_031_751)                      # bases 2, 3, 5, 7
    assert not is_prime(3_825_123_056_546_413_051)          # bases up to 23
    assert not is_prime(318_665_857_834_031_151_167_461)    # bases up to 37
    assert not is_prime(4_759_123_141)                      # bases 2, 7, 61
    assert is_prime((1 << 31) - 1)
    assert is_prime((1 << 61) - 1)
    assert not is_prime(((1 << 31) - 1) ** 2)
    with pytest.raises(ValueError, match="limit"):
        is_prime(PRIME_TEST_LIMIT)


def test_series_field_is_a_large_enough_prime_field():
    for q, m, k_max in ((1, 2, 0), (2, 4, 1), (7, 3, 40), (49, 4, 40),
                        (100, 4, 12), (30, 6, 200)):
        bound = sphere_multiplicity(2 * m - 1, k_max)
        p, zeta = series_field(q, bound)
        assert is_prime(p) and p % (2 * q) == 1 and p > bound
        assert all(not is_prime(c) for c in range(p - 2 * q, bound, -2 * q))
        powers = [pow(zeta, t, p) for t in range(1, 2 * q + 1)]
        assert powers.index(1) == 2 * q - 1  # primitive 2q-th root


def set_series_field(q, bound):
    """series_field by its definition: the first prime p == 1 (mod 2q)
    above bound, and the first g whose power g^((p-1)/2q) has 2q distinct
    powers."""
    p = ((bound - 1) // (2 * q) + 1) * 2 * q + 1
    while not is_prime(p):
        p += 2 * q
    for g in range(2, p):
        zeta = pow(g, (p - 1) // (2 * q), p)
        if len({pow(zeta, t, p) for t in range(2 * q)}) == 2 * q:
            return p, zeta


def test_series_field_root_is_the_first_of_order_2q():
    """Checking zeta^(2q/r) != 1 for the primes r | 2q picks the same
    root as comparing all 2q powers."""
    for q in range(1, 301):
        assert series_field(q, 1 << 30) == set_series_field(q, 1 << 30), q
    for q, bound in ((1, 2), (3, 10), (12, 1000), (210, 1 << 40)):
        assert series_field(q, bound) == set_series_field(q, bound), (q, bound)
