"""Independent cross-checks for the exact counting pipeline.

Two separate recomputations of the spectrum live here: the classical
generating function for Dirac eigenvalue multiplicities on cyclic
sphere quotients (a Bar/Ikeda-type average of half-spin characters over
the deck group), and a naive enumeration of lattice points.  Both exist
to catch mistakes in the lattice code; neither is ever the source of
truth.

The series is evaluated exactly in a prime field GF(p) with
p == 1 (mod 2q), where e^(i pi/q) becomes a primitive 2q-th root of
unity zeta.  Each averaged coefficient is a rational integer in
Z[zeta][1/2q], so every ring map to GF(p) returns it unchanged mod p,
and p is chosen above the sphere multiplicity bound, which no lens
multiplicity exceeds: the residues are the multiplicities themselves.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .lens import SpinLensSpace, h_shift
from .lattice import CongruenceLattice
from .numtheory import series_field
from .spectrum import spectrum_table, sphere_multiplicity
from .spectrum import multiplicity  # noqa: F401  perfbench wrap site lensdirac.oracle.multiplicity

DEFAULT_ENUM_LIMIT = 10_000_000


class TooLarge(Exception):
    """Brute-force enumeration would exceed the configured bound."""

    def __init__(self, bound: int, limit: int):
        super().__init__(f"enumeration bound {bound} exceeds limit {limit}")
        self.bound = bound
        self.limit = limit


class OracleMismatch(Exception):
    """The series and the exact multiplicities differ at some level."""


def _divide_quadratic(series: list[int], c: int, p: int) -> list[int]:
    """series(z) / (1 - c z + z^2) mod p, to the same length:
    out[k] = series[k] + c out[k-1] - out[k-2]."""
    out: list[int] = []
    prev2 = prev = 0
    for a in series:
        prev2, prev = prev, (a + c * prev - prev2) % p
        out.append(prev)
    return out


def generating_coeffs(x: SpinLensSpace,
                      k_max: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Coefficients 0..k_max of the multiplicity generating functions
    (F-plus, F-minus), averaged over the deck transformation group.

    The group element at index j rotates the l-th coordinate plane by
    2*pi*j*s_l/q; its spin lifts act through the half-spin characters at
    half those angles, (prod 2cos(pi t/q) +- prod 2i sin(pi t/q)) / 2
    with t the angle numerators mod 2q.  For odd q the unique lift
    inserts the factor (q+1); for even q the label h enters through a
    global sign on the j-th summand.  In GF(p) the cosines and sines
    become zeta^t + zeta^-t and zeta^t - zeta^-t, and the j-th summand
    has denominator prod (1 - (zeta^2t + zeta^-2t) z + z^2), divided out
    one quadratic factor at a time.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    lens = x.lens
    q, s, m = lens.q, lens.s, lens.m
    p, zeta = series_field(q, sphere_multiplicity(2 * m - 1, k_max))
    sign_exp = 0
    if q % 2 == 0:
        sign_exp = (x.spin.h + h_shift(lens)) % 2
    two_q = 2 * q
    powers = [pow(zeta, t, p) for t in range(two_q)]
    lift = q + 1 if q % 2 == 1 else 1

    # summands with the same denominator factors are added before dividing
    numerators: dict[tuple[int, ...], list[int]] = {}
    for j in range(q):
        tnum = [(lift * j * sl) % two_q for sl in s]
        prod_cos = prod_sin = 1
        for t in tnum:
            prod_cos = prod_cos * (powers[t] + powers[-t]) % p
            prod_sin = prod_sin * (powers[t] - powers[-t]) % p
        chi_plus, chi_minus = prod_cos + prod_sin, prod_cos - prod_sin
        if sign_exp and j % 2 == 1:
            chi_plus, chi_minus = -chi_plus, -chi_minus
        cos2 = tuple(sorted((powers[2 * t % two_q] + powers[-2 * t % two_q]) % p
                            for t in tnum))
        acc = numerators.setdefault(cos2, [0, 0])
        acc[0] += chi_plus
        acc[1] += chi_minus

    plus = [0] * (k_max + 1)
    minus = [0] * (k_max + 1)
    for cos2, (chi_plus, chi_minus) in numerators.items():
        for acc, num in ((plus, [chi_minus, -chi_plus]),
                         (minus, [chi_plus, -chi_minus])):
            series = (num + [0] * k_max)[:k_max + 1]
            for c in cos2:
                series = _divide_quadratic(series, c, p)
            for k, c in enumerate(series):
                acc[k] += c
    # the half in each character and the 1/q of the average
    scale = pow(two_q, -1, p)
    return tuple(c * scale % p for c in plus), tuple(c * scale % p for c in minus)


def series_multiplicities(x: SpinLensSpace, k_max: int) -> tuple[tuple[int, int], ...]:
    """Multiplicity table [(mult(-), mult(+)) for k <= k_max] read off
    the generating functions alone.  A second, independent route to the
    numbers spectrum.spectrum_table produces."""
    f_plus, f_minus = generating_coeffs(x, k_max)
    return tuple(zip(f_minus, f_plus))


@lru_cache(maxsize=8)
def _odd_points(m: int, k_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All odd integer vectors with sum |a_j| <= 2*k_max + m, plus their
    levels and sign parities."""
    vals = np.arange(-(2 * k_max + 1), 2 * k_max + 2, 2, dtype=np.int64)
    grids = np.meshgrid(*([vals] * m), indexing="ij")
    a = np.stack([g.ravel() for g in grids], axis=1)
    norm = np.abs(a).sum(axis=1)
    keep = norm <= 2 * k_max + m
    a = a[keep]
    level = (norm[keep] - m) // 2
    parity = (a < 0).sum(axis=1) % 2
    for arr in (a, level, parity):
        arr.flags.writeable = False  # cached: every caller shares them
    return a, level, parity


def brute_counts(lat: CongruenceLattice, k_max: int,
                 limit: int = DEFAULT_ENUM_LIMIT) -> tuple[tuple[int, int], ...]:
    """N(parity, k) for k <= k_max by direct enumeration of every odd
    vector in range, membership-tested one by one.  rows[k] is the pair
    (even parity, odd parity), the same orientation the DP tables use."""
    m = lat.m
    bound = (2 * k_max + m) ** m
    if bound > limit:
        raise TooLarge(bound, limit)
    a, level, parity = _odd_points(m, k_max)
    # membership is mod the modulus: reducing s is exact and keeps a @ s in int64
    s = np.array([sj % lat.modulus for sj in lat.s], dtype=np.int64)
    member = (a @ s) % lat.modulus == lat.target % lat.modulus
    rows = np.zeros((2, k_max + 1), dtype=np.int64)
    np.add.at(rows, (parity[member], level[member]), 1)
    return tuple((int(rows[0, k]), int(rows[1, k])) for k in range(k_max + 1))


def oracle_compare(x: SpinLensSpace, k_max: int) -> None:
    """Check the generating-function coefficients against the exact
    multiplicities for every k <= k_max; raise OracleMismatch naming the
    first k where the series pair differs from (mult(-), mult(+))."""
    series = series_multiplicities(x, k_max)
    for row, pair in zip(spectrum_table(x, k_max), series):
        if pair != (row.minus, row.plus):
            raise OracleMismatch(
                f"series and exact multiplicities disagree for {x.lens.q};"
                f"{x.lens.s} {x.spin.tag} at k={row.k}: series (minus, plus) "
                f"{pair}, exact {(row.minus, row.plus)}")
