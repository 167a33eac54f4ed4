"""Dirac eigenvalue multiplicities and exact isospectrality decisions.

The Dirac spectrum of a spin lens space of dimension n = 2m - 1 is the
symmetric set +-(k + n/2) for k = 0, 1, 2, ... (half-integers; the field
value2 below stores the doubled eigenvalue 2k + 2m - 1 to stay integral).
The multiplicity of -(k + n/2) is

    sum_{r >= 0} C(r + m - 2, m - 2) * N(r mod 2, k - r)

where N(parity, level) counts congruence lattice points (lattice module);
the multiplicity of +(k + n/2) is the same sum with parity r + 1.  The sum
is finite: N vanishes for negative levels.

Since the multiplicities are triangular in the N table (the r = 0 term is
N(parity, k) and all other terms have level < k), the full spectrum and
the finite reduced table determine each other.  Two spaces are therefore
Dirac isospectral exactly when they share q and m and their reduced
tables agree entrywise, which is a finite exact integer comparison:
fingerprint() exposes that table as the deciding invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import ReducedCountTable, count, lattice_of, reduced_counts
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
    lat = lattice_of(x)
    m = x.m
    offset = 0 if sign < 0 else 1
    total = 0
    for r in range(k + 1):
        w = binomial(r + m - 2, m - 2)
        total += w * count(lat, (r + offset) % 2, k - r)
    return total


def spectrum_table(x: SpinLensSpace, kmax: int) -> list[LevelMultiplicities]:
    """Multiplicities of every eigenvalue pair for k = 0..kmax."""
    lat = lattice_of(x)
    table = reduced_counts(lat)
    m, q = x.m, lat.q
    # N(p, k) from the reduced table, as in lattice.count
    lift = [binomial(beta + m - 1, m - 1) for beta in range(kmax // q + 1)]
    counts = [[sum(lift[beta] * table.get(p, k - beta * q)
                   for beta in range(k // q + 1)) for p in (0, 1)]
              for k in range(kmax + 1)]
    weights = [binomial(r + m - 2, m - 2) for r in range(kmax + 1)]
    out = []
    for k in range(kmax + 1):
        minus = plus = 0
        for r in range(k + 1):
            w = weights[r]
            minus += w * counts[k - r][r % 2]
            plus += w * counts[k - r][(r + 1) % 2]
        out.append(LevelMultiplicities(k, Eigenvalue(k, m).value2, minus, plus))
    return out


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
