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
spectrum.

One routine computes it exactly, meet in the middle, in half-integer
coordinates: a_j = 2 b_j + 1 with b_j in [-q, q) (the paper's
(1/2 + Z)^m shifted by 1/2), where size e_j = b_j for a_j > 0 and
-b_j - 1 for a_j < 0.  The congruence becomes sum_j b_j s_j == c (mod q)
with c = (target - sum s_j)/2 for even q and (target - sum s_j) 2^-1 for
odd q, so each half of the coordinates gets a dense table
H[u, e, parity] over residues u mod q, which counts the first two
coordinates' choices outright and adds each further coordinate as a
window sum over levels (int64 while its total (2q)^n fits, Python
integers beyond).

Contraction.  b -> -b - 1 on every coordinate of a half keeps e, moves
the parity by its length n and sends u to -u - sigma (sigma = sum of
its s_j), and 2c == -sum s_j (mod q) for targets 0 and q.  So the terms
of u and its mirror -u - sigma repeat each other, and the sum runs over
one residue of each mirror pair, with weight 2 (1 where u is its own
mirror).  It runs on parity sums X+- = X_even +- X_odd:
S = sum_u A+[u] B+[c - u] and D = sum_u A-[u] B-[c - u] give
even = (S + D)/2 and odd = (S - D)/2, and for odd m the mirror terms of
D cancel, so only S is computed.  (A target other than 0 and q, which
no spin lens space has, pairs no residues: every one is contracted.)
Each sum is float64 matrix products plus an int64 antidiagonal fold over
e.  Below 2^53 reduced points (the lattice has 2*(2q)^(m-1)) every sum
in sight is exact in float64; beyond, the parity sums are cut into
signed w-bit limbs, w chosen so that each product entry stays at or
below 2^53 and each fold below 2^63, and the limb products are joined by
shifts of Python integers.  The products are small (161 x 41 x 161 on
the dimension-7 census at q = 81), so they run on the calling thread
alone (_serial_blas).

Checks.  A table with the wrong number of rows, a total other than
2*(2q)^(m-1), S and D of different parity, rows that are not symmetric
under k -> m(q-1) - k, or a half table that does not repeat itself
under b -> -b - 1 (the reflection the fold relies on) raises
ArithmeticError.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, lru_cache
from hashlib import sha256
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .lens import IsometryWitness, SpinLensSpace, h_shift
from .numtheory import binomial, series_field

_FLOAT_SAFE = 1 << 53
_INT64_MAX = (1 << 63) - 1


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
    # every a_j is odd, so reducing s_j mod q moves sum a_j s_j by
    # s_j - (s_j mod q), a multiple of q, modulo 2q
    tgt = (lat.target - sum(lat.s) + sum(sn)) % mod
    return (q, mod, tgt, sn)


# -------------------------------------------------------- meet in the middle

@lru_cache(maxsize=256)
def _half_table(q: int, s_half: tuple[int, ...]) -> np.ndarray:
    """Dense table H[u, e, parity] counting the choices b_j in [-q, q) for
    the coordinates s_half (a_j = 2 b_j + 1): u = sum b_j s_j mod q,
    e = sum e_j with e_j = b_j for b_j >= 0 and -b_j - 1 below, parity =
    #[b_j < 0] mod 2.  The first two coordinates are enumerated, each
    further one is added as a window sum over levels."""
    width = len(s_half) * (q - 1) + 1
    # the first two coordinates: every choice of b, summed outright and
    # counted by one bincount over 2q rows u1 + u2, whose upper half then
    # wraps onto the lower.  The codes u * 2 width + 2 e + parity of the
    # two coordinates add up, except that b2 < 0 flips the parity of b1.
    e = np.arange(q)
    lev, neg = np.tile(2 * e, 2), np.repeat([0, 1], q)
    codes = [np.concatenate([e, -e - 1]) * s % q * 2 * width + lev for s in s_half[:2]]
    if len(codes) == 2:
        first, second = codes
        flat = np.concatenate([np.add.outer(first + neg, second[:q]),
                               np.add.outer(first + 1 - neg, second[q:])], axis=1).ravel()
    else:
        flat = codes[0] + neg if codes else np.zeros(1, dtype=np.int64)
    table = np.bincount(flat, minlength=4 * q * width).reshape(2, q * width, 2)
    table = table[0] + table[1]
    # the cumsums below never exceed the half table's total (2q)^n; past
    # int64, the same code runs on Python integers
    if (2 * q) ** len(s_half) > _INT64_MAX:
        table = table.astype(object)
    # each further coordinate s: b = e' (sign +1) or b = -e' - 1 (sign -1)
    # moves (u, e) to (u + step e' + offset, e + e') with step = sign s
    # and offset = -s for sign -1.  Read at row u - step e - offset on
    # level e, every choice of e' lands on the same row, so the q sizes
    # are a window of q consecutive levels: one cumsum and one difference.
    # Row indices below 2q wrap through one lookup instead of a % q.
    rows, lev = np.arange(q)[:, None], np.arange(width)
    wrap = np.tile(np.arange(q) * width, 2)
    for s in s_half[2:]:
        new = np.zeros_like(table)
        for sign in (1, -1):
            step, offset = sign * s, (sign - 1) // 2 * s
            skew = table.take(wrap[rows + step * lev % q] + lev, axis=0)
            acc = np.cumsum(skew, axis=1)
            acc[:, q:] -= acc[:, :-q].copy()
            back = wrap[rows + (-step * lev - offset) % q] + lev
            acc = acc.reshape(-1, 2).take(back.ravel(), axis=0)
            new += acc if sign == 1 else acc[:, ::-1]
        table = new
    table = table.reshape(q, width, 2)
    table.flags.writeable = False
    return table


def _check_reflection(table: np.ndarray, q: int, s_half: tuple[int, ...]) -> None:
    """b -> -b - 1 on every coordinate keeps e, moves the parity by
    len(s_half) and sends u to -u - sum(s_half): the fold in _contract
    reads one residue of each such mirror pair, so the table must repeat
    itself under that map."""
    image = table[(-np.arange(q) - sum(s_half)) % q]
    if len(s_half) % 2:
        image = image[:, :, ::-1]
    if not np.array_equal(table, image):
        raise ArithmeticError(f"half table for q={q}, s={s_half} is not "
                              "symmetric under b -> -b - 1")


def _limb_width(q: int, ka: int, total: int) -> int:
    """Bits per limb in _contract.  A table whose total is below 2^53 is
    one limb: every partial sum of its products is bounded by a count of
    reduced points, so float64 adds it exactly.  Beyond, each entry of a
    product sums weight times a product of two limbs, each at most 2^w in
    magnitude, over one residue of each mirror pair; the weights add up
    to q, so the entry is at most q 4^w, which the width keeps at or below
    2^53, and each antidiagonal sums ka of those, which it keeps below
    2^63."""
    if total < _FLOAT_SAFE:
        return total.bit_length()
    cap = min(_FLOAT_SAFE, _INT64_MAX // ka) // q
    w = (cap.bit_length() - 1) // 2  # the largest w with 4^w <= cap
    if w < 1:
        raise ArithmeticError(f"no limb width keeps products over {q} "
                              f"residues and {ka} levels exact")
    return w


def _limbs(t: np.ndarray, w: int) -> Iterator[np.ndarray]:
    """The w-bit limbs of an integer table, least significant first, as
    many as its largest magnitude needs: the low limbs masked into
    [0, 2^w), the top one shifted arithmetically, so it keeps the sign."""
    n = -(-int(np.abs(t).max()).bit_length() // w)
    if n <= 1:
        yield t
        return
    for i in range(n - 1):
        yield (t >> w * i) & ((1 << w) - 1)
    yield t >> w * (n - 1)


def _parity_sums(t: np.ndarray, signs: int) -> np.ndarray:
    """X_even + X_odd of a table X[..., parity], stacked over
    X_even - X_odd when signs is 2."""
    even, odd = t[..., 0], t[..., 1]
    return np.stack([even + odd, even - odd] if signs == 2 else [even + odd])


# the (get, set) thread-count functions of the OpenBLAS builds numpy ships
_OPENBLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
# OpenBLAS keeps one thread count per process, so the blocks of
# _serial_blas in all threads share one saved count and one user count
_serial_lock = threading.Lock()
_serial_users = 0
_serial_saved = 1


@cache
def _blas_threads() -> Optional[tuple[Callable[[], int], Callable[[int], None]]]:
    """The thread-count functions of the OpenBLAS numpy links, found
    from numpy's core extension; None for any other BLAS."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as core
    try:
        lib = ctypes.CDLL(core.__file__)
    except OSError:
        return None
    for get_name, set_name in _OPENBLAS_THREADS:
        get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and put is not None:
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            return get, put
    return None


@contextmanager
def _serial_blas() -> Iterator[None]:
    """Run the BLAS calls of the block on one thread, then restore the
    thread count (once the last of any overlapping blocks ends).

    OpenBLAS splits every product above a small size over all cores.
    The table products are small, so the other threads mostly spin,
    and when a core is busy elsewhere a product waits for them.  On 2
    shared cores, beside one busy process, the dimension-7 census at
    q = 75..81 took a median 0.116 s (up to 0.198 s) on OpenBLAS's
    default 2 threads and 0.077 s (up to 0.088 s) on one; alone, both
    took about 0.08 s.  With another BLAS this does nothing."""
    global _serial_users, _serial_saved
    threads = _blas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    with _serial_lock:
        if _serial_users == 0:
            _serial_saved = get()
            put(1)
        _serial_users += 1
    try:
        yield
    finally:
        with _serial_lock:
            _serial_users -= 1
            if _serial_users == 0:
                put(_serial_saved)


def _contract(ta: np.ndarray, tb: np.ndarray, c: int, mirror: np.ndarray,
              signs: int, total: int) -> np.ndarray:
    """The parity sums [S, D] of the contraction, as a 2 x (ka + kb - 1)
    array of Python integers:

        S[k] = sum_u sum_{ea + eb = k} A+[u, ea] B+[c - u, eb],
        D[k] = the same over A- and B-,

    with X+- = X_even +- X_odd, so S[k] counts the points on level k and
    D[k] their even minus odd ones.  The terms of u and mirror[u] are
    equal, so the sum runs over the smaller residue of each mirror pair,
    with weight 2, or 1 where mirror[u] == u.  D is computed only when
    signs is 2; otherwise it is 0.

    Each side's parity sums are cut into signed w-bit limbs (_limbs,
    _limb_width).  For each pair of limbs and each sign, one float64 product of rows A[ea, u] against
    weighted rows B[u, eb] writes the (ea, eb) block into rows of ka + kb
    entries of which the last ka stay zero.  Rereading that buffer with
    rows one entry shorter shifts row ea right by ea, so the antidiagonal
    ea + eb = k becomes column k and an int64 sum down the rows finishes
    it.  Limbs i and j add that sum shifted left by w (i + j).  The
    products run on one thread (_serial_blas)."""
    q, ka, _ = ta.shape
    kb = tb.shape[1]
    u = np.arange(q)
    keep = u <= mirror
    weight = np.where(u == mirror, 1.0, 2.0)[keep, None]
    w = _limb_width(q, ka, total)
    left = [limb.transpose(0, 2, 1).astype(np.float64, order="C")
            for limb in _limbs(_parity_sums(ta[keep], signs), w)]
    right = [limb.astype(np.float64) * weight
             for limb in _limbs(_parity_sums(tb[(c - u[keep]) % q], signs), w)]
    skew = np.zeros((ka, ka + kb))
    fold = skew.reshape(-1)[: ka * (ka + kb - 1)].reshape(ka, ka + kb - 1)
    out = np.zeros((2, ka + kb - 1), dtype=object)
    with _serial_blas():
        for j, lb in enumerate(right):
            for i, la in enumerate(left):
                for sign in range(signs):
                    np.matmul(la[sign], lb[sign], out=skew[:, :kb])
                    out[sign] += fold.sum(axis=0, dtype=np.int64).astype(object) << w * (i + j)
    return out


# ------------------------------------------------------------ public API

@lru_cache(maxsize=256)
def _full_table(q: int, mod: int, tgt: int, sn: tuple[int, ...]) -> ReducedCountTable:
    """The reduced table of the normalized lattice (q, mod, tgt, sn)."""
    m = len(sn)
    kmax = reduced_level_bound(q, m)
    total = 2 * (2 * q) ** (m - 1)  # exact number of reduced points
    # a_j = 2 b_j + 1: sum a_j s_j == tgt (mod mod) iff
    # 2 sum b_j s_j == tgt - sum s_j, i.e. sum b_j s_j == c (mod q)
    diff = tgt - sum(sn)
    if mod == 2 * q and diff % 2 == 0:
        c = diff // 2 % q
    elif mod == q and q % 2:
        c = diff * (q + 1) // 2 % q
    else:
        raise ValueError(f"no residue target mod {q} for modulus {mod} and "
                         f"target {tgt} at s = {sn}")
    halves = sn[: m // 2], sn[m // 2:]
    ta, tb = (_half_table(q, half) for half in halves)
    # b -> -b - 1 on every coordinate sends u to -u - sum(halves[0]) in the
    # first half and, when 2c == -sum(sn) (targets 0 and q, as for every
    # spin lens space), c - u to its own mirror in the second half: the
    # two terms are equal, and for odd m they cancel in D
    u = np.arange(q)
    if (2 * c + sum(sn)) % q:
        mirror, signs = u, 2
    else:
        mirror, signs = (-u - sum(halves[0])) % q, 2 - m % 2
    plus, minus = _contract(ta, tb, c, mirror, signs, total)
    if len(plus) != kmax + 1:
        raise ArithmeticError(
            f"table for q={q}, m={m} has {len(plus)} rows, not kmax + 1 = {kmax + 1}")
    got = plus.sum()
    if got != total:
        raise ArithmeticError(
            f"table for q={q}, m={m} totals {got}, not the "
            f"2(2q)^(m-1) = {total} reduced points")
    if ((plus - minus) % 2).any():
        raise ArithmeticError(
            f"table for q={q}, m={m} has parity sums S and D of different parity")
    rows = tuple(zip(((plus + minus) // 2).tolist(), ((plus - minus) // 2).tolist()))
    # a_j -> sign(a_j) 2q - a_j keeps signs, sends level k to kmax - k and
    # the target to -target: a spin lens space's table is a palindrome
    if 2 * tgt % mod == 0 and rows != rows[::-1]:
        raise ArithmeticError(
            f"table for q={q}, m={m} is not symmetric under k -> kmax - k")
    for table, half in zip((ta, tb), halves):
        _check_reflection(table, q, half)
    return ReducedCountTable(q, m, rows)


def reduced_counts(lat: CongruenceLattice) -> ReducedCountTable:
    """Exact table of Nred(parity, k) for k = 0..m(q-1)."""
    return _full_table(*_norm_key(lat))


# sketches() evaluates at z0 = _SKETCH_POINT (any residue below 2^30
# works) and takes _SKETCH_BLOCK classes at a time to bound its memory.
_SKETCH_POINT = 0x2545F491
_SKETCH_BLOCK = 1024


def sketches(q: int, s: np.ndarray, h: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Sketches of class rows of one q, given as int64 arrays, with no
    space or lattice built: row i is L(q; s[i]), parameters in [0, q),
    with spin label h[i] (0 for odd q), so its lattice has target h[i] q.
    Each sketch is 2 mod (P0(z0), P1(z0)) mod p with
    P_par(z) = sum_k Nred(par, k) z^k, p = series_field(q, 2^30) and
    z0 = _SKETCH_POINT, from the character sum (w a mod-th root of 1)

        mod (P0 +- P1) = sum_j w^(-j tgt) prod_i T+-[s_i j mod mod],
        T+-[u] = sum_{e<q} z0^e (w^(u(2e+1)) +- w^(-u(2e+1))).

    Period q.  For even q, w^q = -1 and tgt = h q is a multiple of 2q,
    so the term j + q is the term j times (-1)^(sum s_i): the sum over
    j < 2q is twice the sum over j < q when sum s_i is even, and 0 when
    it is odd (that lattice is empty, every a_j being odd).
    T+[-u] = T+[u], T-[-u] = -T-[u], and w^(-j tgt) is unchanged by
    j -> -j because 2 tgt == 0 (mod mod).  So within one period the
    terms j and q - j are equal (for even q with even sum s_i), and the
    sum runs over j = 0..q//2 with weight 2 on j = 1..(q-1)//2 and
    weight 1 on j = 0 and on j = q/2, times 2 or 0 for even q.  For odd
    m the minus terms j and q - j cancel, and at a self-paired j every
    T-[s_i j] is 0: the minus sum is 0 and the sketch is (plus, plus),
    the spectral symmetry of dimensions 4k+1.  Each factor is gathered
    from one table M[sign, s, j] = T+-[s j mod mod], and the first one
    from M times the weighted phase of each label, [sign, h, s, j],
    both built once per q.

    p < 2^31 for any q whose T table fits in memory, so products of two
    residues stay below 2^62 and int64 is exact."""
    mod = q if q % 2 else 2 * q
    p, zeta = series_field(q, 1 << 30)
    omega = pow(zeta, 2 * q // mod, p)
    w = np.array([pow(omega, t, p) for t in range(mod)], dtype=np.int64)
    z = np.array([pow(_SKETCH_POINT, e, p) for e in range(q)], dtype=np.int64)
    exps = np.arange(mod)[:, None] * (2 * np.arange(q) + 1) % mod
    fwd, bwd = w[exps] * z % p, w[-exps % mod] * z % p
    signs = 1 if s.shape[1] % 2 else 2  # T+ alone for odd m
    tables = np.stack([fwd + bwd, fwd - bwd][:signs]).sum(axis=2) % p
    j = np.arange(q // 2 + 1)
    table = tables[:, np.arange(q)[:, None] * j % mod]  # M[sign, s, j]
    weight = np.where((j == 0) | (2 * j == q), 1, 2)
    # the weighted phase w^(-j tgt) of each spin label, tgt = h q
    phase = weight * w[-np.arange(2)[:, None] * q * j % mod] % p
    first = phase[None, :, None, :] * table[:, None] % p  # [sign, h, s, j]
    sums = np.empty((signs, len(s)), dtype=np.int64)
    for start in range(0, len(s), _SKETCH_BLOCK):
        block = slice(start, start + _SKETCH_BLOCK)
        acc = first[:, h[block], s[block, 0]]
        for col in s[block, 1:].T:
            acc *= table[:, col]
            acc %= p
        sums[:, block] = acc.sum(axis=-1) % p
    if q % 2 == 0:
        sums = sums * (2 - 2 * (s.sum(axis=1) % 2)) % p
    plus, minus = sums if signs == 2 else (sums[0], 0)
    return tuple(zip(((plus + minus) % p).tolist(), ((plus - minus) % p).tolist()))


def count(lat: CongruenceLattice, parity: int, k: int) -> int:
    """N(parity, k): lattice points with sum |a_j| = 2k + m and sign
    parity as given.  Exact for every k via the reduction to Nred."""
    if k < 0:
        return 0
    table = reduced_counts(lat)
    m, total = lat.m, 0
    for beta in range(k // lat.q + 1):
        total += binomial(beta + m - 1, m - 1) * table.get(parity, k - beta * lat.q)
    return total


def clear_caches() -> None:
    """Drop memoized half tables and count tables (mostly for tests and
    long multi-census runs)."""
    _half_table.cache_clear()
    _full_table.cache_clear()
