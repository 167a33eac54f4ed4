"""Dirac eigenvalue multiplicities and exact isospectrality decisions.

The Dirac spectrum of a spin lens space of dimension n = 2m - 1 is the
symmetric set +-(k + n/2) for k = 0, 1, 2, ... (half-integers; the field
value2 below stores the doubled eigenvalue 2k + 2m - 1 to stay integral).
The multiplicity M-(k) of -(k + n/2) is

    sum_{r >= 0} C(r + m - 2, m - 2) * N(r mod 2, k - r)

with N(parity, level) the lattice point counts of the lattice module
(zero below level 0); M+(k) is the same sum with parity r + 1.  With
P_par(z) = sum_k Nred(par, k) z^k, N(par, .) has generating function
P_par / (1 - z^q)^m, and the sum over r divides by (1 -+ z)^(m-1), the
sign (-1)^r being what separates M- from M+:

    S = sum_k (M-(k) + M+(k)) z^k = (P0 + P1)(z) / ((1 - z)^(m-1) (1 - z^q)^m)
    D = sum_k (M-(k) - M+(k)) z^k = (P0 - P1)(z) / ((1 + z)^(m-1) (1 - z^q)^m)

Dividing by 1 - z^q adds each block of q levels, in order, to the block
before it (already divided), one slice addition per block; dividing by
1 - z is a plain running sum.  D needs no alternating sum: with
F = (P0 - P1) / (1 - z^q)^m, D(-z) = F(-z) / (1 - z)^(m-1), so the odd
levels of F are negated before the running sums and negated back after.
So spectrum_table is 2m - 1 passes per series over Python integers, and
M-+ = (S +- D) / 2.

The r = 0 term is N(parity, k) and all others have level < k, so the
spectrum and the finite reduced table determine each other: two spaces
are Dirac isospectral exactly when they share q and m and their reduced
tables agree, a finite exact comparison of the invariant fingerprint().

Both verdicts pass through one place, _tables_agree, which checks q and
m, then runs the census's gate: the two spaces' spin-key rows
(lattice.spin_row) are bucketed by lattice.sketch_survivors, oriented
for dirac_isospectral and unoriented for inverse_isospectral.  A sketch
is a ring image of its table, so rows in different buckets have
different tables and the answer is False, exactly, with no table built;
the tables are built, and decide, only for a pair that shares a bucket.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import add
from typing import NamedTuple

import numpy as np

from .lattice import ReducedCountTable, reduced_counts, sketch_survivors, spin_row
from .lattice import count  # noqa: F401  perfbench wrap site lensdirac.spectrum.count
from .lens import SpinLensSpace
from .numtheory import binomial


class LevelMultiplicities(NamedTuple):
    """One level k of the spectrum: value2 = 2k + 2m - 1 is the doubled
    eigenvalue, minus and plus the multiplicities of -value2/2 and
    +value2/2."""

    k: int
    value2: int
    minus: int
    plus: int


def sphere_multiplicity(n: int, k: int) -> int:
    """Multiplicity of each of +-(k + n/2) on the round sphere S^n,
    n odd: 2^((n-1)/2) * C(k + n - 1, n - 1)."""
    if n % 2 == 0 or n < 3:
        raise ValueError(f"sphere dimension must be odd and >= 3, got {n}")
    return (1 << ((n - 1) // 2)) * binomial(k + n - 1, n - 1)


def multiplicity(x: SpinLensSpace, sign: int, k: int) -> int:
    """Multiplicity of sign * (k + m - 1/2) in the Dirac spectrum of x."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign!r}")
    if k < 0:
        return 0
    row = spectrum_table(x, k)[k]
    return row.minus if sign < 0 else row.plus


def spectrum_table(x: SpinLensSpace, kmax: int) -> list[LevelMultiplicities]:
    """Multiplicities of every eigenvalue pair for k = 0..kmax."""
    m, q, n = x.m, x.q, max(kmax + 1, 0)
    rows = (fingerprint(x).rows + ((0, 0),) * n)[:n]
    lifted = []
    for sign in (1, -1):  # the series S and D of the module docstring
        series = [e + sign * o for e, o in rows]
        for _ in range(m):
            for b in range(q, n, q):
                series[b:b + q] = map(add, series[b:b + q], series[b - q:b])
        if sign < 0:
            series[1::2] = [-c for c in series[1::2]]
        for _ in range(m - 1):
            series = list(accumulate(series))
        if sign < 0:
            series[1::2] = [-c for c in series[1::2]]
        lifted.append(series)
    minus = [(s + d) // 2 for s, d in zip(*lifted)]
    plus = [(s - d) // 2 for s, d in zip(*lifted)]
    # tuple.__new__ makes each row at C level; the named tuple's own
    # __new__ is Python code, about twice the cost per row
    return list(map(tuple.__new__, repeat(LevelMultiplicities),
                    zip(range(n), range(2 * m - 1, 2 * (m + n) - 1, 2), minus, plus)))


def fingerprint(x: SpinLensSpace) -> ReducedCountTable:
    """The finite exact invariant deciding Dirac isospectrality: the
    reduced count table of the space's congruence lattice."""
    return reduced_counts(x)


def _tables_agree(a: SpinLensSpace, b: SpinLensSpace, swap: bool) -> bool:
    """Whether a and b have equal reduced tables, with b's parity
    columns swapped when swap is set: the one routine behind both
    verdicts.  Different q or m never agree (no counting).  Then the
    census's gate: when the spin-key rows (lattice.spin_row) fall in
    different buckets of lattice.sketch_survivors (unoriented when swap
    is set), each sketch being a ring image of its table, the tables
    differ, also after the swap, and no table is built.  Otherwise the
    tables are built and decide."""
    if a.q != b.q or a.m != b.m:
        return False
    rows = np.array([spin_row(a), spin_row(b)], dtype=np.int64)
    if len(sketch_survivors(a.q, rows, "unoriented" if swap else "oriented")) < 2:
        return False
    ra, rb = fingerprint(a).rows, fingerprint(b).rows
    return ra == (tuple((odd, even) for even, odd in rb) if swap else rb)


def dirac_isospectral(a: SpinLensSpace, b: SpinLensSpace) -> bool:
    """Exact decision; spaces of different q or dimension are never
    Dirac isospectral (growth and spacing of the spectrum already
    determine q and m), so no counting happens in that case.  Spaces in
    different oriented sketch buckets have different tables, so their
    tables are built only when the sketches agree, and then decide."""
    return _tables_agree(a, b, swap=False)


def inverse_isospectral(a: SpinLensSpace, b: SpinLensSpace) -> bool:
    """True when the spectrum of a matches the spectrum of b with the
    sign of every eigenvalue flipped (multiplicity of +lambda in a equals
    that of -lambda in b): the parity columns swap.  The unoriented
    sketch buckets merge a table with its swap, so spaces in different
    buckets are not inverse-isospectral and build no table."""
    return _tables_agree(a, b, swap=True)
