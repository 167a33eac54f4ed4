"""Exact integer helpers and the prime fields shared by the package.

Everything here is arbitrary-precision: multiplicity counts grow like
k^(2m-2) and overflow any fixed-width type long before the ranges the
census needs, so counts are plain Python ints throughout the package.
All residue arithmetic supports q = 1 (the sphere) as a degenerate but
valid modulus.
"""

from __future__ import annotations

import math


def binomial(n: int, k: int) -> int:
    """binom(n, k), exact; 0 for k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


# Miller-Rabin with the prime bases up to 41 is proven deterministic
# below this bound (Sorenson and Webster, 2015).
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Below this bound the bases 2, 7 and 61 alone are deterministic
# (Jaeschke, Math. Comp. 61, 1993); the sketch primes lie just above 2^30.
_SMALL_LIMIT = 4_759_123_141
_SMALL_BASES = (2, 7, 61)


def is_prime(n: int) -> bool:
    """Deterministic primality for n < PRIME_TEST_LIMIT; ValueError at or
    above it."""
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(f"{n} is at or above the deterministic prime test "
                         f"limit {PRIME_TEST_LIMIT}")
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:  # no prime factor up to 41
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _SMALL_BASES if n < _SMALL_LIMIT else _PRIME_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def series_field(q: int, bound: int) -> tuple[int, int]:
    """(p, zeta): the smallest prime p == 1 (mod 2q) with p > bound, and
    a primitive 2q-th root of unity zeta mod p.  Raises ValueError when
    that prime would reach PRIME_TEST_LIMIT."""
    two_q = 2 * q
    p = ((bound - 1) // two_q + 1) * two_q + 1
    while not is_prime(p):  # ValueError once p reaches PRIME_TEST_LIMIT
        p += two_q
    cofactor = (p - 1) // two_q
    primes, rest, r = [], two_q, 2
    while rest > 1:  # the primes dividing 2q, by trial division
        if r * r > rest:
            r = rest
        if rest % r == 0:
            primes.append(r)
            while rest % r == 0:
                rest //= r
        r += 1
    for g in range(2, p):
        zeta = pow(g, cofactor, p)
        # zeta^(2q) == 1; the order is exactly 2q iff no zeta^(2q/r) is 1
        if all(pow(zeta, two_q // r, p) != 1 for r in primes):
            return p, zeta
