"""Exact counting, by norm, of the points of the affine lattice of a spin
lens space.

The spinor eigenspaces of L(q; s_1,...,s_m) are indexed by points of an
affine lattice in (1/2)Z^m.  Doubling coordinates, a lattice point is an
integer vector a with every a_j odd and

    sum_j a_j s_j == target   (mod modulus),

where (modulus, target) = (q, 0) for odd q and (2q, h_eff * q) for even q
with h_eff = (h + sum_j floor(s_j/q)) mod 2 for the structure labelled h.
The set depends only on the space: replacing s_j by s_j mod q moves
sum_j a_j s_j by q sum_j floor(s_j/q) == h(q;s) q (mod 2q), because every
a_j is odd, which the matching change of h_eff absorbs.  So a table is
keyed by the space's own spin key (q, sorted s mod q, h), h = 0 for odd
q, with target h q; every spin lens space has one, and nothing is
refused.

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
H[u, e, parity] over residues u mod q (int64 while its total (2q)^n
fits, Python integers beyond).  Its entries have two symmetries.
b -> -b - 1 on every coordinate keeps e, moves the parity by n and
sends u to -u - sigma (sigma = the sum of the half's s_j):
H[u, e, par] = H[-u - sigma, e, par + n].  b -> b - q for b >= 0 and
b + q below keeps u, moves the parity by n and sends e to n(q-1) - e:
H[u, e, par] = H[u, n(q-1) - e, par + n], each row a palindrome.  The
build counts only the choices whose last coordinate has b >= 0, and
gets the others as their images under the first map, so the first
symmetry holds by construction: the first two coordinates are counted
outright, 2q^2 pairs, and each further one costs one window sum over
levels and one gather of rows.

Contraction.  By the first symmetry, and since 2c == -sum s_j (mod q)
for the targets 0 and q, the terms of u and its mirror -u - sigma
(sigma of the first half) repeat each other, and the sum runs over one
residue of each mirror pair, with weight 2 (1 where u is its own
mirror).  It runs on parity sums X+- = X_even +- X_odd:
S = sum_u A+[u] B+[c - u] and D = sum_u A-[u] B-[c - u] give
even = (S + D)/2 and odd = (S - D)/2, and for odd m the mirror terms of
D cancel, so only S is computed.  Each sum is float64 matrix products
plus an antidiagonal fold over e.  Below 2^53 reduced points (the
lattice has 2*(2q)^(m-1)) each side is one limb, and the products and
the fold run in float64, exactly: every term of S is a nonnegative
count of points, so each partial sum, in any order, is at most the
total, and |X-| <= X+ entrywise, so each partial sum of D is bounded by
the matching one of S.  Only the finished S and D become int64 arrays,
which the checks below read, and Python integers only as the finished
rows.  Beyond, the parity sums are cut into signed w-bit limbs, w chosen
so that each product entry stays at or below 2^53 and each int64 fold
below 2^63, and the limb products are joined by shifts of Python
integers, which appear in the contraction only past one limb.  The
products are small (161 x 41 x 161 on the dimension-7 census at
q = 81), so they run on the calling thread alone (_serial_blas).

Fixed costs.  Most tables are small (q <= 100 with a few thousand
entries per half table), and each is built cold, so a step's fixed cost
outweighs its work.  numpy's Python-level helpers (tile, repeat, stack,
array_equal, where, zeros_like) cost 60-115 us on a first call after
other work has evicted the caches, and unique with inverse and counts
260-360 us, against about 20 us for a C entry point such as take or
bincount.  So the table kernel, the sketch sums and the verdict gate use
C-level steps only: index vectors from arange and concatenate, cumsums
in place, bool weights in arithmetic, reductions by ufunc, and int64
residues as x - x // d * d, which takes numpy's fast path for division
by a scalar and costs half of x % d on arrays of a thousand entries or
more.  A one-limb table writes its parity sums straight into float64
operands and folds in float64: a reduce that casts float64 to int64
costs 2.5 to 4 times a plain one.

Checks.  A table with the wrong number of rows, a total other than
2*(2q)^(m-1), S and D of different parity, rows that are not symmetric
under k -> m(q-1) - k, or a half table whose rows are not palindromes
under b -> b -+ q raises ArithmeticError.  Each half table is checked
once, when it is built, so one that fails never enters the cache and a
cached one is not checked again.  The half tables are not checked under
b -> -b - 1, the reflection the fold relies on: the build makes every
table, right or wrong, symmetric under it, so that check could never
fail; the palindrome is the symmetry the build does not force.

Census sketches.  sketch_survivors buckets the class rows of one q on
their tables' generating polynomials at one point of GF(p), summed from
characters with no table built; only rows that share a bucket need one.
The isospectrality verdicts put two spaces' spin_row()s through the
same gate.
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass
from functools import cache, lru_cache
from hashlib import sha256
from typing import Callable, Iterator, Optional

import numpy as np

from .lens import KeyMode, SpinLensSpace
from .numtheory import binomial, series_field

_FLOAT_SAFE = 1 << 53
_INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class ReducedCountTable:
    """Rows k = 0..m(q-1) of Nred; rows[k] = (even-parity, odd-parity)."""

    q: int
    m: int
    rows: tuple[tuple[int, int], ...]

    def digest(self) -> str:
        payload = f"{self.q};{self.m};{self.rows!r}".encode()
        return sha256(payload).hexdigest()


# -------------------------------------------------------- meet in the middle

@lru_cache(maxsize=256)
def _half_table(q: int, s_half: tuple[int, ...]) -> np.ndarray:
    """Dense table H[u, e, parity] counting the choices b_j in [-q, q) for
    the coordinates s_half (a_j = 2 b_j + 1): u = sum b_j s_j mod q,
    e = sum e_j with e_j = b_j for b_j >= 0 and -b_j - 1 below, parity =
    #[b_j < 0] mod 2.

    Only the choices whose last coordinate has b >= 0 are counted, as P;
    the others are their images under b -> -b - 1 on every coordinate
    (_add_image), so H = P + image is symmetric under that map by
    construction, whatever P holds.  The palindrome of each row under
    b -> b -+ q is not forced, and _check_reflection checks it as the
    build's last step (module docstring, "Checks").  Of the first two
    coordinates, every b1 and the q choices b2 >= 0 are summed outright
    and counted by one bincount; each further coordinate adds one window
    sum over levels, its b >= 0 choices, to the table before it, in place
    on its gather (module docstring, "Fixed costs").  Its b < 0 choices,
    added to that table, which is already symmetric, are exactly the
    image of that window sum."""
    width = len(s_half) * (q - 1) + 1
    # the codes u * 2 width + 2 e + parity of the first two coordinates
    # add up over 2q rows u1 + u2, whose upper half then wraps onto the
    # lower; b1 < 0 sets the parity
    e = np.arange(q)
    b, lev = np.concatenate([e, -e - 1]), np.concatenate([e, e]) * 2
    neg = np.arange(2 * q) // q
    codes = [b * s % q * 2 * width + lev for s in s_half[:2]]
    if len(codes) == 2:
        flat = np.add.outer(codes[0] + neg, codes[1][:q]).ravel()
    else:
        flat = codes[0][:q]
    table = np.bincount(flat, minlength=4 * q * width).reshape(2, q * width, 2)
    table = table[0] + table[1]
    # the window sums below never exceed the half table's total (2q)^n;
    # past int64, the same code runs on Python integers
    if (2 * q) ** len(s_half) > _INT64_MAX:
        table = table.astype(object)
    rows, lev = np.arange(q), np.arange(width)
    sigma = sum(s_half[:2])
    _add_image(table, rows, len(codes), sigma)
    # a further coordinate s with b = e' >= 0 moves (u, e) to
    # (u + s e', e + e').  Read at row u - s e on level e, every choice
    # of e' lands on the same row, so the q sizes are a window of q
    # consecutive levels: one cumsum and one difference.  Each index is
    # one outer add of rows and levels; a row past q - 1 wraps by take's
    # mode="wrap", since the flat index stays below 2q width.
    for n, s in enumerate(s_half[2:], 3):
        skew = table.take(rows[:, None] * width + (s * lev % q * width + lev),
                          axis=0, mode="wrap")
        np.cumsum(skew, axis=1, out=skew)
        skew[:, q:] -= skew[:, :-q].copy()
        back = rows[:, None] * width + (-s * lev % q * width + lev)
        table = skew.reshape(-1, 2).take(back.ravel(), axis=0, mode="wrap")
        sigma += s
        _add_image(table, rows, n, sigma)
    table = table.reshape(q, width, 2)
    _check_reflection(table, q, s_half)
    table.flags.writeable = False
    return table


def _add_image(table: np.ndarray, rows: np.ndarray, n: int, sigma: int) -> None:
    """Add to a flat half table P[u width + e, parity] over n coordinates
    summing to sigma its image under b -> -b - 1 on every coordinate: that
    map keeps e, moves the parity by n and sends u to -u - sigma, so the
    image is P[-u - sigma, e, parity + n], one gather of rows, its parity
    columns added crosswise for odd n."""
    q = len(rows)
    image = table.reshape(q, -1, 2).take((-rows - sigma) % q, axis=0).reshape(-1, 2)
    if n % 2:
        table[:, 0] += image[:, 1]
        table[:, 1] += image[:, 0]
    else:
        table += image


def _check_reflection(table: np.ndarray, q: int, s_half: tuple[int, ...]) -> None:
    """b -> b - q for b >= 0 and b + q below, on every coordinate, keeps
    u, sends e to len(s_half)(q - 1) - e and moves the parity by
    len(s_half), so each row of a half table is a palindrome in e, its
    parity columns swapped for odd len(s_half).  The build makes the
    table symmetric under b -> -b - 1, the reflection the fold relies on,
    by construction; this symmetry is one it does not force.

    For odd len(s_half), each row read as entries 2e + parity is the same
    backwards.  For even, each parity column is compared on its own: a
    view that reverses e but not the parity runs numpy's inner loop over
    two entries at a time, two to three times slower at q = 81."""
    if len(s_half) % 2:
        rows = table.reshape(q, -1)
        same = (rows == rows[:, ::-1]).all()
    else:
        even, odd = table[..., 0], table[..., 1]
        same = (even == even[:, ::-1]).all() and (odd == odd[:, ::-1]).all()
    if not same:
        raise ArithmeticError(f"half table for q={q}, s={s_half} is not "
                              "symmetric under b -> b - q (b >= 0), b + q (b < 0)")


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


def _parity_sums(t: np.ndarray, signs: int, dtype=None) -> np.ndarray:
    """X_even + X_odd of a table X[..., parity], stacked over
    X_even - X_odd when signs is 2, in a new C-ordered array of the
    given dtype (t's by default)."""
    even, odd = t[..., 0], t[..., 1]
    out = np.empty((signs, *even.shape), dtype=dtype or t.dtype)
    np.add(even, odd, out=out[0])
    if signs == 2:
        np.subtract(even, odd, out=out[1])
    return out


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


class _serial_blas:
    """Run the BLAS calls of the block on one thread, then restore the
    thread count (once the last of any overlapping blocks ends).

    OpenBLAS splits every product above a small size over all cores.
    The table products are small, so the other threads mostly spin,
    and when a core is busy elsewhere a product waits for them.  On 2
    shared cores, beside one busy process, the dimension-7 census at
    q = 75..81 took a median 0.116 s (up to 0.198 s) on OpenBLAS's
    default 2 threads and 0.077 s (up to 0.088 s) on one; alone, both
    took about 0.08 s.  With another BLAS this does nothing.

    A class, because a @contextmanager generator's set-up costs more
    than the products of a small table."""

    __slots__ = ("_threads",)

    def __enter__(self) -> None:
        global _serial_users, _serial_saved
        self._threads = threads = _blas_threads()
        if threads is not None:
            with _serial_lock:
                if _serial_users == 0:
                    _serial_saved = threads[0]()
                    threads[1](1)
                _serial_users += 1

    def __exit__(self, *exc) -> None:
        global _serial_users
        if self._threads is not None:
            with _serial_lock:
                _serial_users -= 1
                if _serial_users == 0:
                    self._threads[1](_serial_saved)


def _contract(ta: np.ndarray, tb: np.ndarray, c: int, mirror: np.ndarray,
              signs: int, total: int) -> np.ndarray:
    """The parity sums [S, D] of the contraction, as a 2 x (ka + kb - 1)
    array, int64 when one limb holds the total (below 2^53) and Python
    integers past one limb:

        S[k] = sum_u sum_{ea + eb = k} A+[u, ea] B+[c - u, eb],
        D[k] = the same over A- and B-,

    with X+- = X_even +- X_odd, so S[k] counts the points on level k and
    D[k] their even minus odd ones.  The terms of u and mirror[u] are
    equal, so the sum runs over the smaller residue of each mirror pair,
    with weight 2, or 1 where mirror[u] == u.  D is computed only when
    signs is 2; otherwise it is 0.

    Each side's parity sums are cut into signed w-bit limbs (_limbs,
    _limb_width); when one limb holds the total, each side is its own
    limb, with no magnitude scan, its parity sums written straight into
    float64 operands.  For each pair of limbs and each sign, one float64
    product of rows A[ea, u] against weighted rows B[u, eb] writes the
    (ea, eb) block into rows of ka + kb entries of which the last ka stay
    zero.  Rereading that buffer with rows one entry shorter shifts row
    ea right by ea, so the antidiagonal ea + eb = k becomes column k and
    a sum down the rows finishes it.  One limb sums in float64, exact as
    every partial sum is bounded by the total (module docstring,
    "Contraction"), and only the finished 2 x (ka + kb - 1) result
    becomes int64.  Past one limb the sum is int64, and limbs i and j
    add it shifted left by w (i + j), as Python integers.  The products
    run on one thread (_serial_blas)."""
    q, ka, _ = ta.shape
    kb = tb.shape[1]
    u = np.arange(q)
    keep = u <= mirror
    weight = (2.0 - (u == mirror))[keep][:, None]
    w = _limb_width(q, ka, total)
    # one limb that holds the total holds every count and every sum; no
    # half table entry needs a scan, being at most (2q)^(m-1) < total
    one_limb = total >> w == 0
    a, b = ta[keep].transpose(1, 0, 2), tb[(c - u[keep]) % q]
    if one_limb:
        left = [_parity_sums(a, signs, np.float64)]
        right = [_parity_sums(b, signs, np.float64)]
    else:
        left = [limb.astype(np.float64) for limb in _limbs(_parity_sums(a, signs), w)]
        right = [limb.astype(np.float64) for limb in _limbs(_parity_sums(b, signs), w)]
    for lb in right:
        lb *= weight
    skew = np.zeros((ka, ka + kb))
    fold = skew.reshape(-1)[: ka * (ka + kb - 1)].reshape(ka, ka + kb - 1)
    out = np.zeros((2, ka + kb - 1), dtype=np.float64 if one_limb else object)
    with _serial_blas():
        for j, lb in enumerate(right):
            for i, la in enumerate(left):
                for sign in range(signs):
                    np.matmul(la[sign], lb[sign], out=skew[:, :kb])
                    if one_limb:
                        np.add.reduce(fold, axis=0, out=out[sign])
                    else:
                        part = np.add.reduce(fold, axis=0, dtype=np.int64)
                        out[sign] += part.astype(object) << w * (i + j)
    return out.astype(np.int64) if one_limb else out


# ------------------------------------------------------------ public API

@lru_cache(maxsize=256)
def _full_table(q: int, sn: tuple[int, ...], h: int) -> ReducedCountTable:
    """The reduced table of the spin key (q, sn, h): sn the sorted
    parameters in [0, q), h the spin label (0 for odd q)."""
    m = len(sn)
    kmax = m * (q - 1)  # all |a_j| <= 2q - 1 forces 2k + m <= m(2q - 1)
    total = 2 * (2 * q) ** (m - 1)  # exact number of reduced points
    # a_j = 2 b_j + 1: sum b_j s_j == c (mod q), c = (h q - sum s_j)/2
    # for even q (modulus 2q) and -sum s_j 2^-1 for odd q (modulus q)
    c = ((h * q - sum(sn)) // 2 if q % 2 == 0 else -sum(sn) * (q + 1) // 2) % q
    halves = sn[: m // 2], sn[m // 2:]
    ta, tb = (_half_table(q, half) for half in halves)
    # b -> -b - 1 on every coordinate sends u to -u - sum(halves[0]) in the
    # first half and, since 2c == -sum(sn), c - u to its own mirror in the
    # second half: the two terms are equal, and for odd m they cancel in D
    mirror = (-np.arange(q) - sum(halves[0])) % q
    plus, minus = _contract(ta, tb, c, mirror, 2 - m % 2, total)
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
    # tolist: the rows hold Python integers on either path, never numpy
    # scalars, whose repr would change digest()
    rows = tuple(zip(((plus + minus) // 2).tolist(), ((plus - minus) // 2).tolist()))
    # a_j -> sign(a_j) 2q - a_j keeps signs, sends level k to kmax - k and
    # the target h q to -h q, the same residue: every table is a palindrome
    if rows != rows[::-1]:
        raise ArithmeticError(
            f"table for q={q}, m={m} is not symmetric under k -> kmax - k")
    return ReducedCountTable(q, m, rows)


def spin_row(x: SpinLensSpace) -> tuple[int, ...]:
    """The row of x's spin key (q, sorted s mod q, h): its parameters
    reduced mod q and sorted, then its spin label h (0 for odd q).  Its
    table is reduced_counts(x), and sketch_survivors takes it as a class
    row of q."""
    return (*sorted(x.lens.normalized()), x.spin.h or 0)


def reduced_counts(x: SpinLensSpace) -> ReducedCountTable:
    """Exact table of Nred(parity, k) for k = 0..m(q-1) of the lattice of
    x, read from x's spin key (spin_row)."""
    *sn, h = spin_row(x)
    return _full_table(x.q, tuple(sn), h)


# the sketch sums evaluate at z0 = _SKETCH_POINT (any residue below 2^30
# works) and take _SKETCH_BLOCK classes at a time to bound their memory.
_SKETCH_POINT = 0x2545F491
_SKETCH_BLOCK = 1024


@lru_cache(maxsize=1)
def _sketch_factors(q: int) -> tuple[int, np.ndarray]:
    """p and the factor vector T[u] = sum_{e<q} z0^e w^(u(2e+1)) for
    u < mod (w a primitive mod-th root of 1 mod p), read-only: the part
    of the sketch sums that both signs share, mod entries per q.

    T is built in O(q).  It is geometric in e with ratio z0 w^(2u), and
    w^(2uq) = 1 (mod divides 2q), so

        T[u] = w^u (1 - z0^q) / (1 - z0 w^(2u)),

    or w^u q where the denominator is 0.  The denominators repeat with
    period q in u.  The powers of w are running products, each block
    of them the one before times a single power, and the nonzero
    denominators are inverted together with one modular inversion
    (prefix products, then back)."""
    mod = q if q % 2 else 2 * q
    # allocated first, so a q too large for numpy fails here at once, not
    # after series_field's trial division of 2q
    w, done = np.ones(mod, dtype=np.int64), 1
    p, zeta = series_field(q, 1 << 30)
    omega = pow(zeta, 2 * q // mod, p)
    while done < mod:  # w[u] = omega^u, doubling the known prefix
        step = min(done, mod - done)
        w[done:done + step] = w[:step] * pow(omega, done, p) % p
        done += step
    z0 = _SKETCH_POINT
    den = ((1 - z0 * w[2 * np.arange(q) % mod]) % p).tolist()
    prefix, acc = [], 1
    for d in den:
        prefix.append(acc)
        if d:
            acc = acc * d % p
    inv, ratio = pow(acc, p - 2, p), [q] * q
    num = (1 - pow(z0, q, p)) % p
    for u in range(q - 1, -1, -1):
        if den[u]:  # inv is 1 / (den[0] ... den[u]) over the nonzero ones
            ratio[u] = num * inv * prefix[u] % p
            inv = inv * den[u] % p
    factor = w * np.array(ratio, dtype=np.int64)[np.arange(mod) % q] % p
    factor.flags.writeable = False
    return p, factor


def _sketch_sums(q: int, s: np.ndarray, h: np.ndarray, sign: int) -> np.ndarray:
    """One sketch sum per class row of one q, as an int64 array, with no
    space or lattice built: row i is L(q; s[i]), parameters in [0, q),
    with spin label h[i] (0 for odd q), so its lattice has target h[i] q.
    With P_par(z) = sum_k Nred(par, k) z^k, p = series_field(q, 2^30)
    and z0 = _SKETCH_POINT, the sum is q (P0 + sign P1)(z0) mod p: the
    plus sum for sign 1, the minus sum for sign -1.  It is one period of
    the character sum (w a mod-th root of 1)

        mod (P0 +- P1) = sum_{j<mod} w^(-j tgt) prod_i T+-[s_i j mod mod]
                       = sum_{j<mod} prod_i T+-[s'_i j mod mod],
        T+-[u] = sum_{e<q} z0^e (w^(u(2e+1)) +- w^(-u(2e+1))),

    with the label read as s'_1 = s_1 + h q (s'_i = s_i otherwise): for
    even q, w^q = -1 and T+-[u + q] = -T+-[u], so the phase
    w^(-j h q) = (-1)^(h j) is T+-[s'_1 j] / T+-[s_1 j], the identity by
    which shifting one parameter by q moves the label (module docstring).

    Period q.  A class row at even q has m even and every s'_i odd, so
    the term j + q is the term j: the sum over j < 2q is twice the sum
    over j < q.  T+[-u] = T+[u] and T-[-u] = -T-[u], so within one
    period the terms j and q - j are equal (in the minus sum, for even
    m), and the sum runs over j = 0..q//2 with weight 2 on
    j = 1..(q-1)//2 and weight 1 on j = 0 and on j = q/2.  (For odd m the
    minus terms j and q - j cancel: the minus sum is 0, and
    sketch_survivors never asks for it.)  Each call gathers the table
    M[s, j] = T+-[s j mod mod] (s < mod, j = 0..q//2) of its sign from
    the factor vector of _sketch_factors(q), so a sign's table exists
    only while the stage that reads it runs; each factor is read from
    M, the first at row s_1 + h q.  Only the rows read are gathered, so
    a two-row verdict gathers at most 2m, not mod.

    p < 2^31 for any q whose factor vector fits in memory, so products
    of two residues stay below 2^62 and int64 is exact.  A block's row
    sums at most q//2 + 1 residues, so the weighted sum, twice the row
    sum less its terms j = 0 and j = q/2, stays far below 2^63."""
    p, fwd = _sketch_factors(q)
    mod = len(fwd)
    first = s[:, 0] + q * h
    read = np.zeros(mod, dtype=bool)
    read[s[:, 1:]] = True
    read[first] = True
    rows = read.nonzero()[0]
    # x - x // d * d is x % d for d > 0, at half the cost on the index
    # table and on the blocks
    index = rows[:, None] * np.arange(q // 2 + 1)
    index -= index // mod * mod
    # M[s, j], gathered only on the rows read; the others are never set
    table = np.empty((mod, q // 2 + 1), dtype=np.int64)
    table[rows] = ((fwd + sign * fwd[-np.arange(mod) % mod]) % p)[index]
    sums = np.empty(len(s), dtype=np.int64)
    for start in range(0, len(s), _SKETCH_BLOCK):
        block = slice(start, start + _SKETCH_BLOCK)
        acc = table[first[block]]
        for col in s[block, 1:].T:
            acc *= table[col]
            acc -= acc // p * p
        weighted = 2 * acc.sum(axis=1) - acc[:, 0]
        if q % 2 == 0:
            weighted -= acc[:, -1]
        sums[block] = weighted % p
    return sums


def _shared(keys: np.ndarray) -> np.ndarray:
    """Whether each key equals another one: equal neighbours in sorted
    order, flagged on both sides (one argsort; np.unique with inverse
    and counts costs twice as much cold, module docstring)."""
    order = keys.argsort(kind="stable")
    ranked = keys[order]
    same = ranked[1:] == ranked[:-1]
    flag = np.zeros(len(keys), dtype=bool)
    flag[1:] = same
    flag[:-1] |= same
    shared = np.empty_like(flag)
    shared[order] = flag
    return shared


def sketch_survivors(q: int, rows: np.ndarray, mode: KeyMode) -> list[int]:
    """The indices, in order, of the class rows (s..., h) of one q whose
    sketch key (plus, minus) equals another row's, the minus sum taken up
    to its sign, min(x, p - x), when unoriented.  Swapping the parity
    columns fixes the plus sum and negates the minus sum, and 2q is
    invertible mod p, so these are the buckets of (P0, P1)(z0), up to
    the swap when unoriented.  Every row is bucketed on one sum, then
    only rows that share it on both: the minus sum first when oriented
    with even m (a space and its mirror image share the plus sum), the
    plus sum otherwise, and alone for odd m (the minus sum is 0).  A
    sign's table is gathered only by the stage that reads it."""
    if mode not in ("oriented", "unoriented"):
        raise ValueError(f"unknown mode {mode!r}")
    s, h = rows[:, :-1], rows[:, -1]
    m = s.shape[1]
    first, second = (-1, 1) if mode == "oriented" and m % 2 == 0 else (1, -1)
    key = _sketch_sums(q, s, h, first)
    shared = _shared(key)
    pick = np.flatnonzero(shared)
    if m % 2 == 0 and len(pick):
        x = _sketch_sums(q, s[pick], h[pick], second)
        if mode == "unoriented":
            p = _sketch_factors(q)[0]
            x = np.minimum(x, p - x)
        # sketch sums are residues below 2^31, so both make one int64 key
        # (were they not, keys could only merge buckets: more full tables,
        # never a lost family)
        shared[pick] = _shared(key[pick] << 31 | x)
    return np.flatnonzero(shared).tolist()


def count(x: SpinLensSpace, parity: int, k: int) -> int:
    """N(parity, k): points of the lattice of x with sum |a_j| = 2k + m
    and sign parity as given.  Exact for every k via the reduction to
    Nred."""
    if k < 0:
        return 0
    rows = reduced_counts(x).rows
    m, total = x.m, 0
    for beta in range(k // x.q + 1):
        if k - beta * x.q < len(rows):
            total += binomial(beta + m - 1, m - 1) * rows[k - beta * x.q][parity & 1]
    return total


def clear_caches() -> None:
    """Drop the three caches: half tables, count tables and the sketch
    factor vector.  Every one is keyed by q, so run_census calls this
    when each q finishes; tests call it to start cold."""
    _half_table.cache_clear()
    _full_table.cache_clear()
    _sketch_factors.cache_clear()
