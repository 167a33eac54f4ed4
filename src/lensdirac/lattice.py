"""Affine congruence lattices and exact counting of their points by norm.

The spinor eigenspaces of L(q; s_1,...,s_m) are indexed by points of an
affine lattice in (1/2)Z^m.  Doubling coordinates, a lattice point is an
integer vector a with every a_j odd and

    sum_j a_j s_j == target   (mod modulus),

where (modulus, target) = (q, 0) for odd q and (2q, h_eff * q) for even q
with h_eff = (h + sum_j floor(s_j/q)) mod 2 for the structure labelled h.
The set depends only on the space: replacing s_j by s_j mod q is absorbed
by the matching change of h_eff because every a_j is odd.

Counting: N(eps, k) is the number of lattice points with
sum_j |a_j| = 2k + m and #[a_j < 0] == eps (mod 2); these feed the
eigenvalue multiplicities.  Every point splits uniquely as a "q-reduced"
point (all |a_j| <= 2q - 1) plus a vector of nonnegative multiples of 2q
preserving signs, residues and sign parity, so

    N(eps, k) = sum_{beta >= 0} C(beta + m - 1, m - 1) * Nred(eps, k - beta*q)

and the finite table Nred (zero above k = m(q-1)) determines the whole
spectrum.  Two independent backends compute Nred exactly:

  * "packed": coordinate-by-coordinate dynamic programming over residues,
    with the counts for every k packed into one big integer per
    (residue, sign parity) at a fixed bit width.  Pure Python ints, no
    overflow by construction, moderately slow.

  * "mim": meet in the middle with numpy.  Each half of the coordinates
    gets a dense table H[residue, e, parity] built by vectorized DP (or
    direct enumeration for short halves), and the halves are contracted
    by matrix products over residues plus an antidiagonal fold over e.
    Every count in sight is bounded by the total number of reduced
    points in the lattice, which is exactly 2*(2q)^(m-1); the backend
    uses exact float64 BLAS when that bound is below 2^53, exact int64
    otherwise, and refuses (falling back to "packed") beyond 2^63.  A
    full table whose total is not that number raises ArithmeticError.

Both backends produce identical tables; tests compare them and a brute
force enumeration on small cases.  reduced_prefix() returns only the
rows k <= K, from the same mim contraction over half tables capped at
e <= K; a census buckets classes on such prefixes before it computes
any full table.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from hashlib import sha256
from typing import Literal, Optional, Sequence

import numpy as np

from .lens import IsometryWitness, SpinLensSpace, h_shift
from .numtheory import binomial

Backend = Literal["auto", "packed", "mim"]

_FLOAT_SAFE = 1 << 53
_INT64_SAFE = (1 << 63) - 1


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


def reduced_level_bound(q: int, m: int) -> int:
    """Largest k with a reduced point: all |a_j| <= 2q-1 forces
    2k + m <= m(2q-1)."""
    return m * (q - 1)


@dataclass(frozen=True)
class ReducedCountTable:
    """Rows k = 0..m(q-1) of Nred; rows[k] = (even-parity, odd-parity)."""

    q: int
    m: int
    rows: tuple[tuple[int, int], ...]

    def get(self, parity: int, k: int) -> int:
        if k < 0 or k >= len(self.rows):
            return 0
        return self.rows[k][parity & 1]

    @property
    def kmax(self) -> int:
        return len(self.rows) - 1

    def total(self) -> int:
        return sum(r[0] + r[1] for r in self.rows)

    def digest(self) -> str:
        payload = f"{self.q};{self.m};{self.rows!r}".encode()
        return sha256(payload).hexdigest()


def _norm_key(lat: CongruenceLattice) -> tuple[int, int, int, tuple[int, ...]]:
    """Canonical cache key: normalized sorted parameters plus the matching
    target shift (counts are symmetric under coordinate permutation)."""
    q, mod = lat.q, lat.modulus
    sn = tuple(sorted(sj % q for sj in lat.s))
    if mod == q:
        tgt = lat.target % mod
    else:
        shift = sum(sj // q for sj in lat.s) % 2
        tgt = (lat.target - q * shift) % mod
    return (q, mod, tgt, sn)


# ----------------------------------------------------------------- packed

def _reduced_packed(q: int, mod: int, tgt: int, sn: tuple[int, ...]) -> list[list[int]]:
    m = len(sn)
    kmax = reduced_level_bound(q, m)
    width = ((2 * q) ** m).bit_length() + 1
    state = [[0] * mod, [0] * mod]  # [parity][residue] -> packed counts by e
    state[0][0] = 1
    for s in sn:
        new = [[0] * mod, [0] * mod]
        steps = [((2 * e + 1) * s % mod, e * width) for e in range(q)]
        for p in (0, 1):
            row = state[p]
            dst_same = new[p]
            dst_flip = new[p ^ 1]
            for r in range(mod):
                x = row[r]
                if not x:
                    continue
                for d, shift in steps:
                    y = x << shift
                    dst_same[(r + d) % mod] += y
                    dst_flip[(r - d) % mod] += y
        state = new
    mask = (1 << width) - 1
    out = []
    for k in range(kmax + 1):
        sh = k * width
        out.append([(state[0][tgt] >> sh) & mask, (state[1][tgt] >> sh) & mask])
    return out


# -------------------------------------------------------------------- mim

_HALF_CACHE: OrderedDict[tuple, np.ndarray] = OrderedDict()
_HALF_CACHE_LIMIT = 256
_HALF_CACHE_LOCK = threading.Lock()


def _half_table(q: int, mod: int, s_half: tuple[int, ...],
                kcap: Optional[int] = None) -> np.ndarray:
    """Dense table H[residue, e, parity] counting sign/size choices for
    the coordinates s_half: |a_j| = 2 e_j + 1 <= 2q - 1, e = sum e_j,
    parity = #negatives mod 2, residue = sum a_j s_j mod `mod`.  With
    kcap only e <= kcap is kept; a cap at or above the largest e is the
    full table.  Full and capped tables share one bounded LRU.

    The LRU bookkeeping mutates an OrderedDict, so it is guarded; a
    cache miss computes outside the lock (worst case two threads build
    the same table, both results are identical)."""
    if kcap is not None and kcap >= len(s_half) * (q - 1):
        kcap = None
    key = (q, mod, s_half, kcap)
    with _HALF_CACHE_LOCK:
        hit = _HALF_CACHE.get(key)
        if hit is not None:
            _HALF_CACHE.move_to_end(key)
            return hit
    if len(s_half) <= 3:
        table = _half_by_enumeration(q, mod, s_half, kcap)
    else:
        table = _half_by_dp(q, mod, s_half, kcap)
    table.flags.writeable = False
    with _HALF_CACHE_LOCK:
        _HALF_CACHE[key] = table
        if len(_HALF_CACHE) > _HALF_CACHE_LIMIT:
            _HALF_CACHE.popitem(last=False)
    return table


def _half_by_enumeration(q: int, mod: int, s_half: tuple[int, ...],
                         kcap: Optional[int] = None) -> np.ndarray:
    n = len(s_half)
    esize = q if kcap is None else min(q, kcap + 1)
    width = n * (esize - 1) + 1
    vals = 2 * np.arange(esize, dtype=np.int64) + 1
    grids = np.meshgrid(*([vals] * n), indexing="ij")
    esum = sum((g - 1) // 2 for g in grids).ravel()
    table = np.zeros(mod * width * 2, dtype=np.int64)
    for signs in np.ndindex(*([2] * n)):
        acc = np.zeros_like(grids[0], dtype=np.int64)
        parity = 0
        for g, s, neg in zip(grids, s_half, signs):
            acc = acc + (-g if neg else g) * s
            parity ^= neg
        res = np.mod(acc.ravel(), mod)
        flat = (res * width + esum) * 2 + parity
        table += np.bincount(flat, minlength=mod * width * 2).astype(np.int64)
    table = table.reshape(mod, width, 2)
    return table if kcap is None else table[:, : kcap + 1].copy()


def _half_by_dp(q: int, mod: int, s_half: tuple[int, ...],
                kcap: Optional[int] = None) -> np.ndarray:
    table = np.zeros((mod, 1, 2), dtype=np.int64)
    table[0, 0, 0] = 1
    rows = np.arange(mod)
    for s in s_half:
        kold = table.shape[1]
        width = kold + q - 1
        if kcap is not None:
            width = min(width, kcap + 1)
        new = np.zeros((mod, width, 2), dtype=np.int64)
        for e in range(min(q, width)):
            span = min(kold, width - e)
            v = (2 * e + 1) * s
            for sign in (1, -1):
                d = (sign * v) % mod
                rolled_rows = (rows + d) % mod
                if sign == 1:
                    new[rolled_rows, e:e + span, :] += table[:, :span]
                else:
                    new[rolled_rows, e:e + span, 0] += table[:, :span, 1]
                    new[rolled_rows, e:e + span, 1] += table[:, :span, 0]
        table = new
    return table


def _contract(ta: np.ndarray, tb: np.ndarray, tgt: int, levels: int,
              use_float: bool) -> np.ndarray:
    """Rows k = 0..levels, as an int64 array of shape (levels + 1, 2), of

        out[k, p] = sum ta[r, ea, pa] * tb[tgt - r, eb, pb]
                    over residues r, ea + eb = k, pa + pb == p (mod 2).

    A matrix product over residues per parity pair gives the (ea, eb)
    blocks, each stored in a row of ka + kb entries of which the last ka
    stay zero.  Rereading that buffer with rows one entry shorter shifts
    row ea right by ea, so the antidiagonal ea + eb = k becomes column k
    and summing down the rows finishes it.

    The caller picks use_float only when every count involved stays
    below 2^53, where float64 sums of nonnegative integers are exact;
    _reduced_mim checks the full table's total against the exact number
    of reduced points."""
    mod, ka, _ = ta.shape
    kb = tb.shape[1]
    if use_float:
        ta, tb = ta.astype(np.float64), tb.astype(np.float64)
    right = tb[(tgt - np.arange(mod)) % mod]
    width = ka + kb
    skew = np.zeros((ka, width, 2), dtype=ta.dtype)
    for pa in (0, 1):
        left = ta[:, :, pa].T
        for pb in (0, 1):
            skew[:, :kb, (pa + pb) % 2] += left @ right[:, :, pb]
    skew = skew.reshape(ka * width, 2)[: ka * (width - 1)]
    out = skew.reshape(ka, width - 1, 2)[:, : levels + 1].sum(axis=0)
    return out.astype(np.int64)


def _reduced_mim(q: int, mod: int, tgt: int, sn: tuple[int, ...]) -> Optional[list[list[int]]]:
    m = len(sn)
    bound = 2 * (2 * q) ** (m - 1)  # exact total of reduced points
    if bound > _INT64_SAFE:
        return None
    ta = _half_table(q, mod, sn[: m // 2])
    tb = _half_table(q, mod, sn[m // 2:])
    kmax = reduced_level_bound(q, m)
    if ta.shape[1] + tb.shape[1] - 2 != kmax:
        raise ArithmeticError(
            f"half tables reach e = {ta.shape[1] - 1} and {tb.shape[1] - 1}, "
            f"which do not add up to kmax = {kmax}")
    rows = _contract(ta, tb, tgt, kmax, bound < _FLOAT_SAFE).tolist()
    total = sum(map(sum, rows))
    if total != bound:
        raise ArithmeticError(
            f"mim table for q={q}, m={m} totals {total}, not the "
            f"2(2q)^(m-1) = {bound} reduced points")
    return rows


# ------------------------------------------------------------ public API

_TABLE_CACHE: dict[tuple, ReducedCountTable] = {}


def reduced_counts(lat: CongruenceLattice, backend: Backend = "auto") -> ReducedCountTable:
    """Exact table of Nred(parity, k) for k = 0..m(q-1)."""
    q, mod, tgt, sn = _norm_key(lat)
    cache_key = (q, mod, tgt, sn, backend)
    hit = _TABLE_CACHE.get(cache_key)
    if hit is not None:
        return hit
    rows: Optional[list[list[int]]] = None
    if backend in ("auto", "mim"):
        rows = _reduced_mim(q, mod, tgt, sn)
        if rows is None and backend == "mim":
            raise OverflowError(
                f"mim backend refuses q={q}, m={len(sn)}: counts exceed int64")
    if rows is None:
        rows = _reduced_packed(q, mod, tgt, sn)
    table = ReducedCountTable(q, len(sn), tuple((r[0], r[1]) for r in rows))
    _TABLE_CACHE[cache_key] = table
    return table


def reduced_prefix(lat: CongruenceLattice, levels: int) -> tuple[tuple[int, int], ...]:
    """Rows k = 0..levels of the reduced table, equal to
    reduced_counts(lat).rows[:levels + 1] (the whole table once levels
    reaches m(q-1)).  Level k <= levels only reads half-table entries
    with e <= levels, so the half tables are capped there and the
    contraction costs O(mod * levels^2) instead of O(mod * q^2).  The
    result is not cached."""
    if levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels}")
    q, mod, tgt, sn = _norm_key(lat)
    m = len(sn)
    levels = min(levels, reduced_level_bound(q, m))
    # every entry of the capped contraction counts lattice points of
    # level <= 2*levels, and there are 2^m C(2 levels + m, m) such
    # odd vectors in all
    bound = min(2 * (2 * q) ** (m - 1), (1 << m) * binomial(2 * levels + m, m))
    if bound > _INT64_SAFE:
        return reduced_counts(lat).rows[: levels + 1]
    ta = _half_table(q, mod, sn[: m // 2], levels)
    tb = _half_table(q, mod, sn[m // 2:], levels)
    out = _contract(ta, tb, tgt, levels, bound < _FLOAT_SAFE)
    return tuple((even, odd) for even, odd in out.tolist())


def count(lat: CongruenceLattice, parity: int, k: int,
          backend: Backend = "auto") -> int:
    """N(parity, k): lattice points with sum |a_j| = 2k + m and sign
    parity as given.  Exact for every k via the reduction to Nred."""
    if k < 0:
        return 0
    table = reduced_counts(lat, backend)
    m = lat.m
    total = 0
    beta = 0
    while k - beta * lat.q >= 0:
        total += binomial(beta + m - 1, m - 1) * table.get(parity, k - beta * lat.q)
        beta += 1
    return total


def clear_caches() -> None:
    """Drop memoized half tables and count tables (mostly for tests and
    long multi-census runs)."""
    _HALF_CACHE.clear()
    _TABLE_CACHE.clear()
