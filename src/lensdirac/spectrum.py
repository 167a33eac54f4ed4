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

Each division is a running sum (at stride q, plain, alternating), so
spectrum_table is 2m - 1 passes per series, and M-+ = (S +- D) / 2.

The r = 0 term is N(parity, k) and all others have level < k, so the
spectrum and the finite reduced table determine each other: two spaces
are Dirac isospectral exactly when they share q and m and their reduced
tables agree, a finite exact comparison of the invariant fingerprint().
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .lattice import ReducedCountTable, lattice_of, reduced_counts
from .lattice import count  # noqa: F401  perfbench wrap site lensdirac.spectrum.count
from .lens import SpinLensSpace
from .numtheory import binomial


@dataclass(frozen=True)
class Eigenvalue:
    """Level-k eigenvalue pair of an (2m-1)-dimensional space; the actual
    eigenvalues are +-value2 / 2."""

    k: int
    m: int

    @property
    def value2(self) -> int:
        return 2 * self.k + 2 * self.m - 1


@dataclass(frozen=True)
class LevelMultiplicities:
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
    rows = (reduced_counts(lattice_of(x)).rows + ((0, 0),) * n)[:n]
    lifted = []
    for sign in (1, -1):  # the series S and D of the module docstring
        series = [e + sign * o for e, o in rows]
        for _ in range(m):
            for r in range(q):
                series[r::q] = accumulate(series[r::q])
        for _ in range(m - 1):
            series = list(accumulate(series, lambda acc, c: c + sign * acc))
        lifted.append(series)
    return [LevelMultiplicities(k, Eigenvalue(k, m).value2, (s + d) // 2, (s - d) // 2)
            for k, (s, d) in enumerate(zip(*lifted))]


def fingerprint(x: SpinLensSpace) -> ReducedCountTable:
    """The finite exact invariant deciding Dirac isospectrality: the
    reduced count table of the space's congruence lattice."""
    return reduced_counts(lattice_of(x))


def dirac_isospectral(a: SpinLensSpace, b: SpinLensSpace) -> bool:
    """Exact decision; spaces of different q or dimension are never
    Dirac isospectral (growth and spacing of the spectrum already
    determine q and m), so no counting happens in that case."""
    if a.q != b.q or a.m != b.m:
        return False
    return fingerprint(a).rows == fingerprint(b).rows


def inverse_isospectral(a: SpinLensSpace, b: SpinLensSpace) -> bool:
    """True when the spectrum of a matches the spectrum of b with the
    sign of every eigenvalue flipped (multiplicity of +lambda in a equals
    that of -lambda in b): the parity columns swap."""
    if a.q != b.q or a.m != b.m:
        return False
    ra = fingerprint(a).rows
    rb = fingerprint(b).rows
    return all(x == (y[1], y[0]) for x, y in zip(ra, rb))
