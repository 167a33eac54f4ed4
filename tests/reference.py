"""Reference helpers the tests compare the package against: the
congruence lattice of a spin lens space, membership and levels of single
points, transport of a point along a witness, the units mod q,
witnesses between bare lens spaces, the sketch factors and tables
built term by term, and half tables built from both signs of every
coordinate.  The package never builds a lattice:
it reads its tables off the space's spin key.

Like the package, these raise errors rather than assert, so that their
checks survive python -O."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from lensdirac import lattice
from lensdirac.lens import (
    IsoMode,
    IsometryWitness,
    LensParams,
    SpinLensSpace,
    _orientations,
    _witnesses,
    h_shift,
)
from lensdirac.numtheory import series_field


@dataclass(frozen=True)
class CongruenceLattice:
    """The lattice {a in Z^m : a_j odd, sum a_j s_j == target (mod modulus)}
    in doubled coordinates."""

    q: int
    s: tuple[int, ...]
    modulus: int
    target: int

    @property
    def m(self) -> int:
        return len(self.s)


def lattice_of(x: SpinLensSpace) -> CongruenceLattice:
    """Congruence lattice of a spin lens space (SpinLensSpace construction
    already rules out even q with odd m, which has no spin structure)."""
    lens = x.lens
    if lens.q % 2 == 1:
        return CongruenceLattice(lens.q, lens.s, lens.q, 0)
    h_eff = (x.spin.h + h_shift(lens)) % 2
    return CongruenceLattice(lens.q, lens.s, 2 * lens.q, h_eff * lens.q)


def contains(lat: CongruenceLattice, a: Sequence[int]) -> bool:
    if len(a) != lat.m:
        return False
    if any(aj % 2 == 0 for aj in a):
        return False
    return sum(aj * sj for aj, sj in zip(a, lat.s)) % lat.modulus == lat.target


def point_norm2(a: Sequence[int]) -> int:
    """Doubled 1-norm sum |a_j|; equals 2k + m on level k."""
    return sum(abs(aj) for aj in a)


def point_neg_parity(a: Sequence[int]) -> int:
    return sum(1 for aj in a if aj < 0) % 2


def point_level(a: Sequence[int]) -> int:
    """Level k with sum |a_j| = 2k + m; requires every a_j odd."""
    n2 = point_norm2(a)
    m = len(a)
    if (n2 - m) % 2:
        raise ValueError(f"point {tuple(a)} has no level: sum |a_j| - m is odd, "
                         "so some coordinate is even")
    return (n2 - m) // 2


def apply_norm_isometry(w: IsometryWitness, a: Sequence[int]) -> tuple[int, ...]:
    """Transport a lattice point along an isometry witness:
    out[sigma[j]] = eps[j] * a[j].  Maps the lattice of the witness's
    source space onto the lattice of its target space, preserving norms
    and levels."""
    out = [0] * len(a)
    for j, aj in enumerate(a):
        out[w.sigma[j]] = w.eps[j] * aj
    return tuple(out)


def units(q: int) -> list[int]:
    """Residues in [0, q) coprime to q, ascending.

    units(1) == [0]: the single residue class mod 1 counts as the unit.
    """
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    if q == 1:
        return [0]
    return [a for a in range(1, q) if math.gcd(a, q) == 1]


def find_lens_isometry(a: LensParams, b: LensParams, mode: IsoMode = "any"
                       ) -> Optional[IsometryWitness]:
    """Witness of (*) between bare lens spaces (no spin constraint)."""
    allowed = _orientations(mode)
    return next((w for w in _witnesses(a, b) if w.orientation in allowed), None)


def sketch_factors_by_exponents(q: int) -> tuple[int, np.ndarray]:
    """lattice._sketch_factors term by term: p and every factor
    T[u] = sum_{e<q} z0^e w^(u(2e+1)) summed from a (mod x q) matrix of
    exponents, with each power of w and of z0 = lattice._SKETCH_POINT
    from its own pow."""
    mod = q if q % 2 else 2 * q
    p, zeta = series_field(q, 1 << 30)
    omega = pow(zeta, 2 * q // mod, p)
    w = np.array([pow(omega, t, p) for t in range(mod)], dtype=np.int64)
    z = np.array([pow(lattice._SKETCH_POINT, e, p) for e in range(q)], dtype=np.int64)
    exps = np.arange(mod)[:, None] * (2 * np.arange(q) + 1) % mod
    return p, (w[exps] * z % p).sum(axis=1) % p  # sum_e z0^e w^(u(2e+1))


def sketch_tables_by_exponents(q: int, sign: int) -> tuple[int, np.ndarray, np.ndarray]:
    """p and the sketch tables of one sign from the term-by-term factors:
    M[s, j] = T+-[s j mod mod] for s < mod and j = 0..q//2, with
    T+-[u] = T[u] +- T[-u], and the first factor's table, M times the
    weight of frequency j (1 at j = 0 and j = q/2, else 2) mod p."""
    p, fwd = sketch_factors_by_exponents(q)
    mod = len(fwd)
    bwd = fwd[-np.arange(mod) % mod]  # the same sum at -u
    j = np.arange(q // 2 + 1)
    table = ((fwd + sign * bwd) % p)[np.arange(mod)[:, None] * j % mod]  # M[s, j]
    first = np.where((j == 0) | (2 * j == q), 1, 2) * table % p
    return p, table, first


def half_table_two_signs(q: int, s_half: tuple[int, ...]) -> np.ndarray:
    """lattice._half_table by both signs of every further coordinate: the
    same H[u, e, parity], read-only, with the first two coordinates'
    choices all counted by one bincount and each further coordinate added
    as two window sums over levels, one for b >= 0 and one for b < 0,
    instead of one window sum and its image under b -> -b - 1."""
    width = len(s_half) * (q - 1) + 1
    # the first two coordinates: every choice of b, summed outright and
    # counted by one bincount over 2q rows u1 + u2, whose upper half then
    # wraps onto the lower.  The codes u * 2 width + 2 e + parity of the
    # two coordinates add up, except that b2 < 0 flips the parity of b1.
    e = np.arange(q)
    b, lev = np.concatenate([e, -e - 1]), np.concatenate([e, e]) * 2
    neg = np.arange(2 * q) // q
    codes = [b * s % q * 2 * width + lev for s in s_half[:2]]
    if len(codes) == 2:
        first, second = codes
        flat = np.concatenate([np.add.outer(first + neg, second[:q]),
                               np.add.outer(first + 1 - neg, second[q:])], axis=1).ravel()
    else:
        flat = codes[0] + neg
    table = np.bincount(flat, minlength=4 * q * width).reshape(2, q * width, 2)
    table = table[0] + table[1]
    # the cumsums below never exceed the half table's total (2q)^n; past
    # int64, the same code runs on Python integers
    if (2 * q) ** len(s_half) > lattice._INT64_MAX:
        table = table.astype(object)
    # each further coordinate s: b = e' (sign +1) or b = -e' - 1 (sign -1)
    # moves (u, e) to (u + step e' + offset, e + e') with step = sign s
    # and offset = -s for sign -1.  Read at row u - step e - offset on
    # level e, every choice of e' lands on the same row, so the q sizes
    # are a window of q consecutive levels: one cumsum and one difference.
    # Row indices below 2q wrap through one lookup instead of a % q.
    # Sign -1 moves the parity, so its counts add crosswise, column 0 to
    # column 1 and 1 to 0, onto the sign +1 gather.
    rows, lev = np.arange(q)[:, None], np.arange(width)
    wrap = np.concatenate([e, e]) * width
    for s in s_half[2:]:
        for sign in (1, -1):
            step, offset = sign * s, (sign - 1) // 2 * s
            skew = table.take(wrap[rows + step * lev % q] + lev, axis=0)
            np.cumsum(skew, axis=1, out=skew)
            skew[:, q:] -= skew[:, :-q].copy()
            back = wrap[rows + (-step * lev - offset) % q] + lev
            acc = skew.reshape(-1, 2).take(back.ravel(), axis=0)
            if sign == 1:
                new = acc
            else:
                new[:, 0] += acc[:, 1]
                new[:, 1] += acc[:, 0]
        table = new
    table = table.reshape(q, width, 2)
    table.flags.writeable = False
    return table
