import random
import tracemalloc
from itertools import product

import numpy as np
import pytest

from lensdirac import lattice
from lensdirac.lattice import (
    CongruenceLattice,
    apply_norm_isometry,
    clear_caches,
    contains,
    count,
    lattice_of,
    point_level,
    point_neg_parity,
    point_norm2,
    reduced_counts,
    reduced_level_bound,
    sketches,
)
from lensdirac.lens import find_isometry, spin_space
from lensdirac.numtheory import series_field, units
from lensdirac.search import tower_family


def brute_reduced_rows(lat):
    """Enumerate every q-reduced point directly."""
    q, m = lat.q, lat.m
    rows = [[0, 0] for _ in range(reduced_level_bound(q, m) + 1)]
    for mags in product(range(1, 2 * q, 2), repeat=m):
        for signs in product((1, -1), repeat=m):
            a = [sg * mg for sg, mg in zip(signs, mags)]
            if contains(lat, a):
                rows[point_level(a)][point_neg_parity(a)] += 1
    return [tuple(r) for r in rows]


def brute_count(lat, parity, k):
    """Enumerate all points of norm 2k + m (not just reduced ones)."""
    m = lat.m
    top = 2 * k + m
    total = 0
    for mags in product(range(1, top + 1, 2), repeat=m):
        if sum(mags) != top:
            continue
        for signs in product((1, -1), repeat=m):
            a = [sg * mg for sg, mg in zip(signs, mags)]
            if contains(lat, a) and point_neg_parity(a) == parity:
                total += 1
    return total


def sample_lattices():
    out = []
    for q, s in [(1, (1, 1)), (3, (1, 2)), (5, (1, 2)), (5, (2, 3)),
                 (7, (1, 2, 3)), (5, (1, 1, 4)), (3, (1, 1, 1))]:
        out.append(lattice_of(spin_space(q, s)))
    for q, s in [(2, (1, 1)), (4, (1, 3)), (6, (1, 5)), (4, (1, 1, 3, 3))]:
        for h in ("h0", "h1"):
            out.append(lattice_of(spin_space(q, s, h)))
    return out


def test_lattice_of_parity_split():
    odd = lattice_of(spin_space(7, (1, 2)))
    assert (odd.modulus, odd.target) == (7, 0)
    ev0 = lattice_of(spin_space(32, (1, 3, 5, 15), "h0"))
    ev1 = lattice_of(spin_space(32, (1, 3, 5, 15), "h1"))
    assert (ev0.modulus, ev0.target) == (64, 0)
    assert (ev1.modulus, ev1.target) == (64, 32)
    # raw parameters above q shift the effective target
    shifted = lattice_of(spin_space(32, (33, 3, 5, 15), "h0"))
    assert shifted.target == 32


def test_membership_example_q32():
    ev1 = lattice_of(spin_space(32, (1, 3, 5, 15), "h1"))
    ev0 = lattice_of(spin_space(32, (1, 3, 5, 15), "h0"))
    assert contains(ev1, (9, 1, 1, 1))       # 9 + 3 + 5 + 15 = 32
    assert not contains(ev0, (9, 1, 1, 1))
    assert not contains(ev1, (9, 1, 1, 2))   # even coordinate
    assert not contains(ev1, (9, 1, 1))      # wrong length
    assert point_norm2((9, 1, 1, 1)) == 12
    assert point_level((9, 1, 1, 1)) == 4


def packed_rows(lat):
    """Reference table from a coordinate-by-coordinate DP over residues
    that packs the counts for every level into one big Python integer per
    (sign parity, residue)."""
    q, mod, tgt, sn = lattice._norm_key(lat)
    width = ((2 * q) ** len(sn)).bit_length() + 1
    state = [[0] * mod, [0] * mod]  # [parity][residue] -> packed counts by e
    state[0][0] = 1
    for s in sn:
        new = [[0] * mod, [0] * mod]
        steps = [((2 * e + 1) * s % mod, e * width) for e in range(q)]
        for p in (0, 1):
            for r, x in enumerate(state[p]):
                if not x:
                    continue
                for d, shift in steps:
                    new[p][(r + d) % mod] += x << shift
                    new[p ^ 1][(r - d) % mod] += x << shift
        state = new
    mask = (1 << width) - 1
    return tuple(tuple((state[p][tgt] >> (k * width)) & mask for p in (0, 1))
                 for k in range(reduced_level_bound(q, len(sn)) + 1))


def test_reduced_rows_match_brute_force():
    for lat in sample_lattices():
        expect = tuple(brute_reduced_rows(lat))
        assert reduced_counts(lat).rows == expect, lat
        assert packed_rows(lat) == expect, lat


def test_backends_agree_on_larger_cases():
    cases = [
        spin_space(49, (1, 6, 8, 22)),
        spin_space(32, (1, 3, 5, 15), "h0"),
        spin_space(32, (1, 3, 5, 15), "h1"),
        spin_space(13, (1, 2, 3, 4)),
        spin_space(8, (1, 3, 5, 7), "h1"),
    ]
    for x in cases:
        lat = lattice_of(x)
        assert reduced_counts(lat).rows == packed_rows(lat), x


def random_spin_lattice(rng, q, m):
    """The lattice of a random spin lens space L(q; s) with raw parameters:
    units shifted by multiples of q, negative ones included, and a random
    spin label for even q."""
    s = tuple(rng.choice(units(q)) + q * rng.randrange(-3, 4) for _ in range(m))
    return lattice_of(spin_space(q, s, rng.choice(("h0", "h1")) if q % 2 == 0 else None))


def test_random_lattices_match_packed_reference():
    """320 random lattices, q from 1 (odd and even), m = 2..7, raw
    parameters, both spin labels: the half-integer tables mod q and the
    folded contraction agree with the DP in a_j coordinates."""
    rng = random.Random(1515)
    qmax = {2: 100, 3: 60, 4: 40, 5: 24, 6: 18, 7: 12}
    done = 0
    while done < 320:
        m = rng.randrange(2, 8)
        q = rng.randrange(1, qmax[m] + 1)
        if q % 2 == 0 and m % 2:
            continue
        lat = random_spin_lattice(rng, q, m)
        assert reduced_counts(lat).rows == packed_rows(lat), lat
        done += 1


def test_targets_off_the_mirror_match_packed_reference():
    """A target other than 0 or q (no spin lens space has one) breaks the
    mirror pairing of residues, so every residue is contracted; the rows
    still match the DP.  A modulus and target with no residue target mod q
    (even q, target - sum s odd: no lattice points) raise ValueError."""
    rng = random.Random(99)
    for q, m in [(5, 2), (7, 3), (9, 4), (6, 2), (8, 4), (10, 3)]:
        mod = q if q % 2 else 2 * q
        s = tuple(rng.choice(units(q)) for _ in range(m))
        for tgt in range(1, mod):
            if tgt % q == 0 or (mod == 2 * q and (tgt - sum(s)) % 2):
                continue
            lat = CongruenceLattice(q, s, mod, tgt)
            assert reduced_counts(lat).rows == packed_rows(lat), lat
    with pytest.raises(ValueError, match="residue target"):
        reduced_counts(CongruenceLattice(6, (1, 5, 1), 12, 0))


def count_limbs(monkeypatch):
    """Record how many limbs _contract cuts each half table into."""
    seen = []
    real = lattice._limbs

    def counted(t, w):
        limbs = list(real(t, w))
        seen.append(len(limbs))
        return limbs

    monkeypatch.setattr(lattice, "_limbs", counted)
    return seen


@pytest.mark.parametrize("r", [2, 3, 4])
def test_towers_match_packed_reference(monkeypatch, r):
    """Tower members (q = 40, m = 10, 14, 18): r = 2 stays below 2^53 and
    is one limb per half table, r = 3 and 4 are past int64 and take
    several."""
    seen = count_limbs(monkeypatch)
    clear_caches()
    for x in tower_family(r):
        lat = lattice_of(x)
        assert reduced_counts(lat).rows == packed_rows(lat), x
    assert (max(seen) > 1) == (r > 2)


def test_object_half_tables_match_packed_reference():
    """At q = 3, m = 50 each half table totals 6^25 > 2^63, so it is built
    on Python integers."""
    lat = lattice_of(spin_space(3, (1, 2) * 25))
    clear_caches()
    assert lattice._half_table(3, lat.s[:25]).dtype == object
    assert reduced_counts(lat).rows == packed_rows(lat)


def test_object_half_tables_match_int64_ones(monkeypatch):
    """With the int64 limit patched to 0, every half table is built on
    Python integers, entry for entry the same."""
    expect = {s_half: lattice._half_table(7, s_half)
              for s_half in [(1,), (1, 3), (1, 3, 5), (1, 1, 3, 5, 6)]}
    monkeypatch.setattr(lattice, "_INT64_MAX", 0)
    clear_caches()
    for s_half, table in expect.items():
        got = lattice._half_table(7, s_half)
        assert got.dtype == object
        assert np.array_equal(got, table), s_half
    clear_caches()


def test_many_limbs_match_packed_reference(monkeypatch):
    """1-bit limbs send every sample table through many limb products."""
    seen = count_limbs(monkeypatch)
    monkeypatch.setattr(lattice, "_limb_width", lambda q, ka, total: 1)
    clear_caches()
    for lat in sample_lattices():
        assert reduced_counts(lat).rows == packed_rows(lat), lat
    assert max(seen) > 2
    clear_caches()


def test_limb_width_keeps_products_exact():
    """The widest exact w: limbs of magnitude up to 2^w whose products,
    summed over residues with weights adding up to q, stay at or below
    2^53 and whose antidiagonals over ka levels stay below 2^63."""
    for q, ka in [(1, 1), (3, 1), (40, 274), (199, 600), (1, 1 << 20)]:
        w = lattice._limb_width(q, ka, 1 << 60)
        assert q * 4 ** w <= 1 << 53 and ka * q * 4 ** w < 1 << 63
        wider = q * 4 ** (w + 1)
        assert wider > 1 << 53 or ka * wider >= 1 << 63, (q, ka)
    # below 2^53 the table total bounds every partial sum: one limb
    assert lattice._limb_width(40, 274, 12345) == (12345).bit_length()
    for q, ka in [(1 << 52, 1), (80, 1 << 60)]:
        with pytest.raises(ArithmeticError, match="limb width"):
            lattice._limb_width(q, ka, 1 << 60)


def test_reduced_total_is_exact():
    # exactly 2*(2q)^(m-1) reduced points land in any such lattice
    for lat in sample_lattices():
        table = reduced_counts(lat)
        assert table.total() == 2 * (2 * lat.q) ** (lat.m - 1)


def test_reduced_rows_vanish_at_bound():
    lat = lattice_of(spin_space(5, (1, 2)))
    table = reduced_counts(lat)
    assert table.kmax == reduced_level_bound(5, 2) == 8
    assert table.get(0, 9) == 0 and table.get(1, -1) == 0
    assert table.rows[8] == (table.get(0, 8), table.get(1, 8))


def test_q49_level_zero_is_empty():
    lat = lattice_of(spin_space(49, (1, 6, 8, 22)))
    table = reduced_counts(lat)
    assert table.rows[0] == (0, 0)


def test_sphere_lattice_rows():
    lat = lattice_of(spin_space(1, (1, 1)))
    table = reduced_counts(lat)
    assert table.rows == ((2, 2),)
    assert count(lat, 0, 5) == 12  # 2*(k+1) at k = 5
    assert count(lat, 1, 5) == 12


def test_count_matches_brute_force():
    for q, s in [(1, (1, 1)), (3, (1, 2)), (4, (1, 3)), (5, (1, 2, 2)),
                 (2, (1, 1)), (6, (1, 5))]:
        labels = ["h0", "h1"] if q % 2 == 0 else [None]
        if q % 2 == 0 and len(s) % 2 == 1:
            continue
        for lb in labels:
            lat = lattice_of(spin_space(q, s, lb))
            for k in range(0, 2 * q + 3):
                for parity in (0, 1):
                    assert count(lat, parity, k) == brute_count(lat, parity, k), \
                        (q, s, lb, parity, k)


def test_negation_symmetry_odd_q_odd_m():
    # a -> -a preserves odd-q lattices and flips parity when m is odd
    lat = lattice_of(spin_space(7, (1, 2, 3)))
    table = reduced_counts(lat)
    assert all(r[0] == r[1] for r in table.rows)


def test_transport_preserves_lattice_membership():
    h0 = spin_space(16, (1, 3, 5, 7), "h0")
    h1 = spin_space(16, (1, 3, 5, 7), "h1")
    w = find_isometry(h0, h1, "any")
    assert w is not None
    src, dst = lattice_of(h0), lattice_of(h1)
    moved = 0
    for mags in product(range(1, 8, 2), repeat=4):
        for signs in product((1, -1), repeat=4):
            a = tuple(sg * mg for sg, mg in zip(signs, mags))
            if not contains(src, a):
                continue
            b = apply_norm_isometry(w, a)
            assert contains(dst, b), (a, b)
            assert point_norm2(b) == point_norm2(a)
            moved += 1
    assert moved > 0


def sketch_args(lats):
    """sketches() arguments for lattices of one q: the parameters and
    labels (target / q) of their normalised keys."""
    keys = [lattice._norm_key(lat) for lat in lats]
    return (keys[0][0], np.array([key[3] for key in keys], dtype=np.int64),
            np.array([key[2] // key[0] for key in keys], dtype=np.int64))


def sketch_of_table(lat):
    """2 mod (P0(z0), P1(z0)) mod p from the rows of the full table."""
    q, mod, _, _ = lattice._norm_key(lat)
    p, _ = series_field(q, 1 << 30)
    rows = reduced_counts(lat).rows
    return tuple(
        2 * mod * sum(row[par] * pow(lattice._SKETCH_POINT, k, p)
                      for k, row in enumerate(rows)) % p
        for par in (0, 1))


def test_sketch_matches_packed_table_past_int64():
    """A tower member (q = 40, m = 14) has 2*80^13 reduced points, past
    int64, so its full table is summed from several limb products; the
    sketch needs no table and has no such limit."""
    lat = lattice_of(tower_family(3)[1])
    assert reduced_counts(lat).total() == 2 * 80 ** 13
    assert sketches(*sketch_args([lat])) == (sketch_of_table(lat),)


def test_packed_table_total_is_checked(monkeypatch):
    """A tower member (q = 40, m = 14) is past 2^53, so its half tables
    are cut into limbs; one count off by one in the top limb of each half
    (2^22 or more in the table) changes the table's total."""
    real = lattice._limbs
    seen = []

    def off_by_one(t, w):
        *low, top = real(t, w)
        top = top.copy()
        top[(0,) * top.ndim] += 1
        seen.append(len(low) + 1)
        return [*low, top]

    monkeypatch.setattr(lattice, "_limbs", off_by_one)
    lat = lattice_of(tower_family(3)[0])
    clear_caches()
    with pytest.raises(ArithmeticError, match="reduced points"):
        reduced_counts(lat)
    assert min(seen) > 1


def brute_half_table(q, s_half):
    """H[u, e, parity] by trying every b in [-q, q)^n: u = sum b_j s_j
    mod q, e_j = b_j or -b_j - 1, parity = #[b_j < 0] mod 2."""
    n = len(s_half)
    table = np.zeros((q, n * (q - 1) + 1, 2), dtype=np.int64)
    for b in product(range(-q, q), repeat=n):
        u = sum(bj * sj for bj, sj in zip(b, s_half))
        e = sum(bj if bj >= 0 else -bj - 1 for bj in b)
        table[u % q, e, sum(1 for bj in b if bj < 0) % 2] += 1
    return table


def test_half_tables_match_brute_force():
    rng = random.Random(2024)
    qs = {1: (13, 12), 2: (9, 10), 3: (7, 6), 4: (5, 4), 5: (3, 4), 6: (3, 2)}
    for n, (q_odd, q_even) in qs.items():
        for q in (q_odd, q_even):
            s_half = tuple(sorted(rng.randrange(q) for _ in range(n)))
            got = lattice._half_table(q, s_half)
            assert got.dtype == np.int64
            assert np.array_equal(got, brute_half_table(q, s_half)), (q, s_half)
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0, 0, 0] = 1


def test_sketches_match_full_tables():
    """The character sum equals the generating polynomials of the full
    table at z0, for one to five coordinates per half, odd and even q."""
    rng = random.Random(1611)
    qmax = {2: 40, 3: 30, 4: 24, 5: 12, 6: 10, 7: 7, 8: 6, 9: 5, 10: 5}
    for m in range(2, 11):
        for q, label in [(rng.randrange(3, qmax[m] + 1, 2), None),
                         (rng.randrange(2, qmax[m] + 1, 2), "h0"),
                         (rng.randrange(2, qmax[m] + 1, 2), "h1")]:
            if q % 2 == 0 and m % 2 == 1:
                continue
            s = tuple(rng.choice(units(q)) for _ in range(m))
            lat = lattice_of(spin_space(q, s, label))
            got = sketches(*sketch_args([lat]))
            assert got == (sketch_of_table(lat),), (q, s, label)
            assert all(type(v) is int for v in got[0])


def test_sketches_of_many_lattices_match_one_at_a_time(monkeypatch):
    """Blocks of the class axis (here 3 lattices) change nothing."""
    rng = random.Random(77)
    lats = [lattice_of(spin_space(20, tuple(rng.choice(units(20)) for _ in range(4)),
                                  rng.choice(("h0", "h1"))))
            for _ in range(10)]
    one_by_one = tuple(sketches(*sketch_args([lat]))[0] for lat in lats)
    monkeypatch.setattr(lattice, "_SKETCH_BLOCK", 3)
    assert sketches(*sketch_args(lats)) == one_by_one
    assert one_by_one == tuple(sketch_of_table(lat) for lat in lats)
    assert sketches(20, np.empty((0, 4), dtype=np.int64),
                    np.empty(0, dtype=np.int64)) == ()


def full_sketches(q, s, h):
    """Reference for sketches(): the character sum over every frequency
    j in [0, mod) and both signs, with the index product s_i j mod mod
    formed for each class."""
    mod = q if q % 2 else 2 * q
    p, zeta = series_field(q, 1 << 30)
    omega = pow(zeta, 2 * q // mod, p)
    w = np.array([pow(omega, t, p) for t in range(mod)], dtype=np.int64)
    z = np.array([pow(lattice._SKETCH_POINT, e, p) for e in range(q)], dtype=np.int64)
    j = np.arange(mod)
    exps = j[:, None] * (2 * np.arange(q) + 1) % mod
    fwd, bwd = w[exps] * z % p, w[-exps % mod] * z % p
    tables = np.stack([fwd + bwd, fwd - bwd]).sum(axis=2) % p  # T+, T-
    acc = w[-(h * q % mod)[:, None] * j % mod]
    for col in s.T:
        acc = acc * tables[:, col[:, None] * j % mod] % p
    plus, minus = acc.sum(axis=2) % p
    return tuple(zip(((plus + minus) % p).tolist(), ((plus - minus) % p).tolist()))


def random_class_rows(rng, q, m, count):
    """sketches() arguments for count random rows: parameters in [0, q)
    and, for even q, a random spin label."""
    s = np.array([[rng.randrange(q) for _ in range(m)] for _ in range(count)],
                 dtype=np.int64)
    h = np.array([rng.randrange(2) if q % 2 == 0 else 0 for _ in range(count)],
                 dtype=np.int64)
    return s, h


def test_folded_sketches_match_the_full_frequency_sum(monkeypatch):
    """Folding j with mod - j, and dropping the minus sum for odd m,
    changes no sketch: odd and even q from q = 1 and q = 2 (mod = 4, where
    j = 2 pairs with itself), m = 2..10, both spin labels, blocks of 3."""
    monkeypatch.setattr(lattice, "_SKETCH_BLOCK", 3)
    rng = random.Random(1313)
    for m in range(2, 11):
        for q in (1, 2, 3, 4, 5, 7, 10, 12, 17, 22):
            if q % 2 == 0 and m % 2 == 1:
                continue
            s, h = random_class_rows(rng, q, m, 8)
            got = sketches(q, s, h)
            assert got == full_sketches(q, s, h), (q, m)
            if m % 2:
                assert all(even == odd for even, odd in got), (q, m)


def test_even_q_rows_with_odd_parameter_sum_sketch_to_zero():
    """For even q the frequencies j and j + q give equal terms when
    sum s_i is even and opposite ones when it is odd, so sketches() sums
    one period and doubles or zeroes it.  An odd sum means an empty
    lattice (every a_j is odd), whose sketch is (0, 0)."""
    for q, row in ((2, (1, 0)), (10, (1, 3, 5, 2)), (22, (1, 3, 7, 9, 13, 4))):
        s = np.array([row, row], dtype=np.int64)
        h = np.array([0, 1], dtype=np.int64)
        assert sum(row) % 2 == 1
        assert sketches(q, s, h) == full_sketches(q, s, h) == ((0, 0), (0, 0)), q


def test_odd_m_tables_are_parity_symmetric():
    """In dimensions 4k+1 every full table has even = odd in every row,
    which is why sketches() computes no minus sum for odd m."""
    rng = random.Random(41)
    for m, qmax in ((3, 30), (5, 12), (7, 7), (9, 5)):
        for q in range(1, qmax + 1, 2):
            s = tuple(rng.choice(units(q)) for _ in range(m))
            lat = lattice_of(spin_space(q, s))
            assert all(even == odd for even, odd in reduced_counts(lat).rows), (q, s)


def test_sketch_memory_is_bounded_by_the_block():
    """10,000 dimension-7 classes at q = 199: one unblocked pass would hold
    about 94 MB of int64 arrays; blocks keep the peak under 32 MB."""
    rng, pool = random.Random(7), units(199)
    lats = [CongruenceLattice(199, tuple(rng.choice(pool) for _ in range(4)), 199, 0)
            for _ in range(10_000)]
    args = sketch_args(lats)
    tracemalloc.start()
    try:
        sketches(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


def test_point_level_rejects_even_coordinates():
    with pytest.raises(ValueError, match="even"):
        point_level((2, 1))


def test_mim_rejects_half_tables_of_the_wrong_size(monkeypatch):
    clear_caches()  # before _half_table is replaced
    real = lattice._half_table
    monkeypatch.setattr(lattice, "_half_table",
                        lambda q, s_half: real(q, s_half)[:, :-1])
    lat = lattice_of(spin_space(11, (1, 2, 3, 5)))
    with pytest.raises(ArithmeticError, match="kmax"):
        reduced_counts(lat)


def test_mim_rejects_non_integer_float_counts(monkeypatch):
    """Half a count added to the even-parity entries only: 0.5 on both
    would cancel in X_even - X_odd and make X_even + X_odd an integer."""
    clear_caches()  # before _half_table is replaced
    real = lattice._half_table
    monkeypatch.setattr(lattice, "_half_table",
                        lambda q, s_half: real(q, s_half) + np.array([0.5, 0.0]))
    lat = lattice_of(spin_space(13, (1, 2, 3, 4)))
    with pytest.raises(ArithmeticError, match="reduced points"):
        reduced_counts(lat)


@pytest.mark.parametrize("limb_bits", [None, 1], ids=["one-limb", "1-bit-limbs"])
def test_mim_rejects_integer_corruption(monkeypatch, limb_bits):
    """An integer error in a half table leaves every count an integer;
    the table total still catches it, whether each half table is one limb
    or many."""
    clear_caches()  # before _half_table is replaced
    real = lattice._half_table
    monkeypatch.setattr(lattice, "_half_table",
                        lambda q, s_half: real(q, s_half) + 1)
    if limb_bits is not None:
        monkeypatch.setattr(lattice, "_limb_width", lambda q, ka, total: limb_bits)
    lat = lattice_of(spin_space(13, (1, 2, 3, 4)))
    with pytest.raises(ArithmeticError, match="reduced points"):
        reduced_counts(lat)


def test_reflection_is_checked_where_the_fold_never_reads(monkeypatch):
    """The contraction reads the smaller residue u of each mirror pair
    u <-> -u - sum(s_half) of the first half table.  A count added at the
    larger one changes no row, so only the reflection check catches it."""
    lat = lattice_of(spin_space(13, (1, 2, 3, 4)))
    q, _, _, sn = lattice._norm_key(lat)
    first = sn[:2]
    unread = next(u for u in range(q) if (-u - sum(first)) % q < u)
    clear_caches()  # before _half_table is replaced
    real = lattice._half_table

    def corrupt(q, s_half):
        table = real(q, s_half)
        if s_half != first:
            return table
        out = table.copy()
        out[unread, 0, 0] += 1
        return out

    monkeypatch.setattr(lattice, "_half_table", corrupt)
    with pytest.raises(ArithmeticError, match="symmetric under b"):
        reduced_counts(lat)


def test_parity_sums_of_different_parity_are_rejected(monkeypatch):
    """even = (S + D)/2 needs S and D of equal parity; D off by one keeps
    the table total (the sum of S), so only the parity check catches it."""
    real = lattice._contract

    def off_by_one(*args):
        out = real(*args)
        out[1, 0] += 1
        return out

    monkeypatch.setattr(lattice, "_contract", off_by_one)
    clear_caches()
    with pytest.raises(ArithmeticError, match="parity sums"):
        reduced_counts(lattice_of(spin_space(13, (1, 2, 3, 4))))
    clear_caches()


def test_tower_table_memory_is_bounded():
    """A tower member (q = 40, m = 14, 274 levels per half) built cold:
    one 274 x 548 float64 skew buffer (1.2 MB) and limbs over one residue
    of each mirror pair keep the traced peak under 3 MB."""
    lat = lattice_of(tower_family(3)[1])
    clear_caches()
    tracemalloc.start()
    try:
        reduced_counts(lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20


def _move_one_count_up(table):
    """A copy of a half table with one count moved from level e to e + 1
    at the same residue and parity: every residue keeps its total."""
    out = table.copy()
    r, e, par = np.argwhere(out[:, :-1] > 0)[0]
    out[r, e, par] -= 1
    out[r, e + 1, par] += 1
    return out


def test_asymmetric_tables_are_rejected(monkeypatch):
    """Moving a count between levels keeps the table total, so only the
    k -> kmax - k symmetry catches it, whether each half table is one
    limb or many."""
    clear_caches()  # before _half_table is replaced
    real = lattice._half_table
    monkeypatch.setattr(lattice, "_half_table",
                        lambda q, s_half: _move_one_count_up(real(q, s_half)))
    lat = lattice_of(spin_space(13, (1, 2, 3, 4)))
    with pytest.raises(ArithmeticError, match="symmetric"):
        reduced_counts(lat)

    seen = count_limbs(monkeypatch)
    monkeypatch.setattr(lattice, "_limb_width", lambda q, ka, total: 1)
    with pytest.raises(ArithmeticError, match="symmetric"):
        reduced_counts(lat)
    assert min(seen) > 1


def test_table_products_run_on_one_blas_thread(monkeypatch):
    """Every product of the contraction sees one BLAS thread, and the
    caller's thread count is back afterwards."""
    threads = lattice._blas_threads()
    if threads is None:
        pytest.skip("numpy does not link OpenBLAS")
    get, _ = threads
    before = get()
    seen = []
    real = np.matmul

    def spy(*args, **kwargs):
        seen.append(get())
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    clear_caches()
    reduced_counts(lattice_of(spin_space(81, (1, 8, 19, 37))))
    assert seen and set(seen) == {1}
    assert get() == before


def test_serial_blas_restores_after_overlapping_blocks(monkeypatch):
    """Blocks that overlap without nesting (two threads) keep one thread
    until the last ends, and an exception still restores the count."""
    state = {"threads": 4}
    monkeypatch.setattr(lattice, "_blas_threads", lambda: (
        lambda: state["threads"], lambda n: state.update(threads=n)))
    a, b = lattice._serial_blas(), lattice._serial_blas()
    a.__enter__()
    b.__enter__()
    assert state["threads"] == 1
    a.__exit__(None, None, None)
    assert state["threads"] == 1
    b.__exit__(None, None, None)
    assert state["threads"] == 4
    with pytest.raises(ZeroDivisionError):
        with lattice._serial_blas():
            assert state["threads"] == 1
            1 / 0
    assert state["threads"] == 4

    monkeypatch.setattr(lattice, "_blas_threads", lambda: None)
    with lattice._serial_blas():
        assert state["threads"] == 4
