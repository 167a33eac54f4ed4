import random
import tracemalloc
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from lensdirac import lattice, search
from lensdirac.lattice import clear_caches, count, reduced_counts, sketch_survivors
from lensdirac.lens import find_isometry, spin_space
from lensdirac.numtheory import series_field
from lensdirac.search import run_census, tower_family, verify_family
from reference import (
    apply_norm_isometry,
    contains,
    half_table_two_signs,
    lattice_of,
    point_level,
    point_neg_parity,
    point_norm2,
    sketch_factors_by_exponents,
    sketch_tables_by_exponents,
    units,
)


def brute_reduced_rows(x):
    """Enumerate every q-reduced point of the lattice of x directly."""
    lat, q, m = lattice_of(x), x.q, x.m
    rows = [[0, 0] for _ in range(m * (q - 1) + 1)]
    for mags in product(range(1, 2 * q, 2), repeat=m):
        for signs in product((1, -1), repeat=m):
            a = [sg * mg for sg, mg in zip(signs, mags)]
            if contains(lat, a):
                rows[point_level(a)][point_neg_parity(a)] += 1
    return [tuple(r) for r in rows]


def brute_count(x, parity, k):
    """Enumerate all points of norm 2k + m of the lattice of x (not just
    reduced ones)."""
    lat, m = lattice_of(x), x.m
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


def sample_spaces():
    out = []
    for q, s in [(1, (1, 1)), (3, (1, 2)), (5, (1, 2)), (5, (2, 3)),
                 (7, (1, 2, 3)), (5, (1, 1, 4)), (3, (1, 1, 1))]:
        out.append(spin_space(q, s))
    for q, s in [(2, (1, 1)), (4, (1, 3)), (6, (1, 5)), (4, (1, 1, 3, 3))]:
        for h in ("h0", "h1"):
            out.append(spin_space(q, s, h))
    return out


def spin_key(x):
    """The key reduced_counts reads off a space: (q, sorted s mod q, h),
    h = 0 for odd q."""
    return x.q, tuple(sorted(sj % x.q for sj in x.s)), x.spin.h or 0


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


def packed_rows(x):
    """Reference table from a coordinate-by-coordinate DP over residues
    that packs the counts for every level into one big Python integer per
    (sign parity, residue), on the lattice of the spin key of x."""
    q, sn, h = spin_key(x)
    mod, tgt = (2 * q if q % 2 == 0 else q), h * q
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
                 for k in range(len(sn) * (q - 1) + 1))


def test_reduced_rows_match_brute_force():
    for x in sample_spaces():
        expect = tuple(brute_reduced_rows(x))
        assert reduced_counts(x).rows == expect, x
        assert packed_rows(x) == expect, x


def test_backends_agree_on_larger_cases():
    cases = [
        spin_space(49, (1, 6, 8, 22)),
        spin_space(32, (1, 3, 5, 15), "h0"),
        spin_space(32, (1, 3, 5, 15), "h1"),
        spin_space(13, (1, 2, 3, 4)),
        spin_space(8, (1, 3, 5, 7), "h1"),
    ]
    for x in cases:
        assert reduced_counts(x).rows == packed_rows(x), x


def random_spin_space(rng, q, m):
    """A random spin lens space L(q; s) with raw parameters: units
    shifted by multiples of q, negative ones included, and a random spin
    label for even q."""
    s = tuple(rng.choice(units(q)) + q * rng.randrange(-3, 4) for _ in range(m))
    return spin_space(q, s, rng.choice(("h0", "h1")) if q % 2 == 0 else None)


def test_random_lattices_match_packed_reference():
    """320 random spaces, q from 1 (odd and even), m = 2..7, raw
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
        x = random_spin_space(rng, q, m)
        assert reduced_counts(x).rows == packed_rows(x), x
        done += 1


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
        assert reduced_counts(x).rows == packed_rows(x), x
    assert (max(seen) > 1) == (r > 2)


def test_object_half_tables_match_packed_reference():
    """At q = 3, m = 50 each half table totals 6^25 > 2^63, so it is built
    on Python integers."""
    x = spin_space(3, (1, 2) * 25)
    clear_caches()
    assert lattice._half_table(3, x.s[:25]).dtype == object
    assert reduced_counts(x).rows == packed_rows(x)


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
    for x in sample_spaces():
        assert reduced_counts(x).rows == packed_rows(x), x
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


# totals 2(2q)^(m-1) between 2^52 and 2^53: odd q with even and odd m,
# and even q with its h1 label
FLOAT_EDGE_SPACES = [
    spin_space(27, (1, 2, 4, 5, 7, 8, 10, 11, 13, 14)),
    spin_space(45, (1, 2, 4, 7, 8, 11, 13, 14, 16)),
    spin_space(26, (1, 3, 5, 7, 9, 11, 15, 17, 19, 21), "h1"),
]


def test_one_limb_float_folds_are_exact_at_the_float_edge(monkeypatch):
    """Just below 2^53 points a table is still one limb, contracted and
    folded in float64 with only its finished sums made int64.  Its rows
    are those of the multi-limb path, which 16-bit limbs force: int64
    folds joined as Python integers."""
    seen = []
    real = lattice._contract

    def spy(*args):
        out = real(*args)
        seen.append(out.dtype)
        return out

    monkeypatch.setattr(lattice, "_contract", spy)
    for x in FLOAT_EDGE_SPACES:
        assert 1 << 52 < 2 * (2 * x.q) ** (x.m - 1) < 1 << 53, x
    clear_caches()
    one_limb = [reduced_counts(x).rows for x in FLOAT_EDGE_SPACES]
    monkeypatch.setattr(lattice, "_limb_width", lambda q, ka, total: 16)
    clear_caches()
    assert [reduced_counts(x).rows for x in FLOAT_EDGE_SPACES] == one_limb
    assert seen == [np.int64] * 3 + [object] * 3
    clear_caches()


def test_reduced_total_is_exact():
    # exactly 2*(2q)^(m-1) reduced points land in any such lattice
    for x in sample_spaces():
        table = reduced_counts(x)
        assert sum(map(sum, table.rows)) == 2 * (2 * x.q) ** (x.m - 1)


def test_reduced_rows_vanish_at_bound():
    table = reduced_counts(spin_space(5, (1, 2)))
    assert len(table.rows) == 9  # levels 0..m(q-1), none above


def test_q49_level_zero_is_empty():
    table = reduced_counts(spin_space(49, (1, 6, 8, 22)))
    assert table.rows[0] == (0, 0)


def test_sphere_lattice_rows():
    x = spin_space(1, (1, 1))
    assert reduced_counts(x).rows == ((2, 2),)
    assert count(x, 0, 5) == 12  # 2*(k+1) at k = 5
    assert count(x, 1, 5) == 12


def test_count_matches_brute_force():
    for q, s in [(1, (1, 1)), (3, (1, 2)), (4, (1, 3)), (5, (1, 2, 2)),
                 (2, (1, 1)), (6, (1, 5))]:
        labels = ["h0", "h1"] if q % 2 == 0 else [None]
        if q % 2 == 0 and len(s) % 2 == 1:
            continue
        for lb in labels:
            x = spin_space(q, s, lb)
            for k in range(-1, 2 * q + 3):  # no point lies below level 0
                for parity in (0, 1):
                    assert count(x, parity, k) == brute_count(x, parity, k), \
                        (q, s, lb, parity, k)


def test_negation_symmetry_odd_q_odd_m():
    # a -> -a preserves odd-q lattices and flips parity when m is odd
    table = reduced_counts(spin_space(7, (1, 2, 3)))
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


def sketch_args(spaces):
    """_sketch_sums() arguments but the sign, for spaces of one q: the
    parameters and labels of their spin keys."""
    keys = [spin_key(x) for x in spaces]
    return (keys[0][0], np.array([key[1] for key in keys], dtype=np.int64),
            np.array([key[2] for key in keys], dtype=np.int64))


def sketch_of_table(x):
    """q (P0 + P1)(z0) and q (P0 - P1)(z0) mod p from the rows of the
    full table."""
    q = x.q
    p, _ = series_field(q, 1 << 30)
    rows = reduced_counts(x).rows
    return tuple(
        q * sum((even + sign * odd) * pow(lattice._SKETCH_POINT, k, p)
                for k, (even, odd) in enumerate(rows)) % p
        for sign in (1, -1))


def both_sums(q, s, h):
    """The plus and minus sums of _sketch_sums(), as lists of Python ints;
    for odd m the minus sum is 0, which sketch_survivors never computes."""
    plus = lattice._sketch_sums(q, s, h, 1).tolist()
    if s.shape[1] % 2:
        return plus, [0] * len(plus)
    return plus, lattice._sketch_sums(q, s, h, -1).tolist()


def test_sketch_matches_packed_table_past_int64():
    """A tower member (q = 40, m = 14) has 2*80^13 reduced points, past
    int64, so its full table is summed from several limb products; the
    sketch needs no table and has no such limit."""
    x = tower_family(3)[1]
    assert sum(map(sum, reduced_counts(x).rows)) == 2 * 80 ** 13
    plus, minus = sketch_of_table(x)
    assert both_sums(*sketch_args([x])) == ([plus], [minus])
    assert minus != 0


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
    clear_caches()
    with pytest.raises(ArithmeticError, match="reduced points"):
        reduced_counts(tower_family(3)[0])
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


def test_half_tables_match_the_two_sign_build():
    """The build from the b >= 0 choices and their mirror images equals
    the window sums over both signs: odd and even q = 1..60 with one to
    seven coordinates, and q = 40 with twelve, whose total 80^12 > 2^63
    puts both builds on Python integers."""
    rng = random.Random(29)
    cases = [(q, tuple(sorted(rng.randrange(q) for _ in range(n))))
             for q in range(1, 61) for n in {q % 7 + 1, rng.randint(1, 7)}]
    cases.append((40, tuple(sorted(rng.randrange(40) for _ in range(12)))))
    clear_caches()
    for q, s_half in cases:
        got, expect = lattice._half_table(q, s_half), half_table_two_signs(q, s_half)
        assert got.dtype == expect.dtype and got.shape == expect.shape, (q, s_half)
        assert (got == expect).all(), (q, s_half)
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0, 0] = 1
    assert got.dtype == object
    clear_caches()


def _mirror_image(table, s_half):
    """table[-u - sum(s_half), e, parity + len(s_half)]: its image under
    b -> -b - 1 on every coordinate."""
    q = len(table)
    image = table[(-np.arange(q) - sum(s_half)) % q]
    return image[:, :, ::-1] if len(s_half) % 2 else image


@pytest.mark.parametrize("q, s_half", [(13, (1, 2, 3)), (11, (2, 3, 5, 7))])
def test_reflection_check_rejects_a_move_that_keeps_the_mirror_symmetry(q, s_half):
    """One count and its mirror image moved to a wrong row: the table
    still repeats itself under b -> -b - 1, which the build makes true of
    any table, but its rows are no longer palindromes in e."""
    table = lattice._half_table(q, s_half)
    lattice._check_reflection(table, q, s_half)
    mirror = (-np.arange(q) - sum(s_half)) % q
    width = table.shape[1]
    u, e, par = next((u, e, par) for u, e, par in np.argwhere(table > 0)
                     if mirror[u] != u and 2 * e != width - 1)
    u2 = next(v for v in range(q) if v not in (u, mirror[u]))
    move = np.zeros_like(table)
    move[u, e, par], move[u2, e, par] = -1, 1
    bad = table + move + _mirror_image(move, s_half)
    assert (bad == _mirror_image(bad, s_half)).all()
    assert (bad >= 0).all() and bad.sum() == table.sum()
    with pytest.raises(ArithmeticError, match="symmetric under b"):
        lattice._check_reflection(bad, q, s_half)


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
            x = spin_space(q, s, label)
            args = sketch_args([x])
            assert all(lattice._sketch_sums(*args, sign).dtype == np.int64
                       for sign in (1, -1))
            plus, minus = sketch_of_table(x)
            assert both_sums(*args) == ([plus], [minus]), (q, s, label)


def test_sketches_of_many_lattices_match_one_at_a_time(monkeypatch):
    """Blocks of the class axis (here 3 spaces) change nothing."""
    rng = random.Random(77)
    spaces = [spin_space(20, tuple(rng.choice(units(20)) for _ in range(4)),
                         rng.choice(("h0", "h1")))
              for _ in range(10)]
    one_by_one = [both_sums(*sketch_args([x])) for x in spaces]
    monkeypatch.setattr(lattice, "_SKETCH_BLOCK", 3)
    plus, minus = both_sums(*sketch_args(spaces))
    assert [([a], [b]) for a, b in zip(plus, minus)] == one_by_one
    assert list(zip(plus, minus)) == [sketch_of_table(x) for x in spaces]
    empty = np.empty((0, 4), dtype=np.int64), np.empty(0, dtype=np.int64)
    assert both_sums(20, *empty) == ([], [])
    with pytest.raises(ValueError, match="unknown mode"):
        sketch_survivors(20, np.empty((0, 5), dtype=np.int64), "sideways")


def test_sketch_factors_match_the_exponent_build():
    """The factor vector built in O(q) (geometric sums, running powers of
    w, one batch inversion) equals the term-by-term build for q = 1..200,
    and the sketch sums, which gather each sign's table per call and
    weight the frequencies as they sum, equal the reference tables'
    weighted products sum_j first[s_1 + q h, j] M[s_2, j] mod p: every
    residue pair (s_1, s_2) at q <= 60, both labels at even q, and a
    seeded sample of pairs up to q = 200, both signs.  Together these
    read every entry of M and every weight of first."""
    for q in range(1, 201):
        p, factor = lattice._sketch_factors.__wrapped__(q)
        want_p, want = sketch_factors_by_exponents(q)
        assert p == want_p, q
        assert factor.dtype == np.int64 and not factor.flags.writeable, q
        assert np.array_equal(factor, want), q
    rng = random.Random(2727)
    for q in [*range(1, 61), *sorted(rng.sample(range(61, 201), 16))]:
        if q <= 60:
            s = np.array(list(product(range(q), repeat=2)), dtype=np.int64)
        else:
            s = np.array([[rng.randrange(q), rng.randrange(q)] for _ in range(300)],
                         dtype=np.int64)
        for sign in (1, -1):
            p, table, first = sketch_tables_by_exponents(q, sign)
            for h in (0, 1) if q % 2 == 0 else (0,):
                want = (first[s[:, 0] + q * h] * table[s[:, 1]] % p).sum(axis=1) % p
                got = lattice._sketch_sums(q, s, np.full(len(s), h), sign)
                assert np.array_equal(got, want), (q, sign, h)
    clear_caches()


def test_sketch_factors_where_a_denominator_vanishes(monkeypatch):
    """With z0 = w^(-2u) the geometric sum of factor u has denominator 0,
    and the factor is w^u q.  The factor vector still equals the
    term-by-term build, and the sketch sums still equal those of the full
    tables at that point: q = 1, 2 and odd and even q, u = 0, 1 and
    q // 2 + 1."""
    rng = random.Random(2626)
    try:
        for q in (1, 2, 3, 4, 7, 9, 12, 40, 49):
            mod = q if q % 2 else 2 * q
            p, zeta = series_field(q, 1 << 30)
            omega = pow(zeta, 2 * q // mod, p)
            for u in (0, 1, q // 2 + 1):
                monkeypatch.setattr(lattice, "_SKETCH_POINT", pow(omega, -2 * u, p))
                clear_caches()
                got_p, got = lattice._sketch_factors(q)
                want_p, want = sketch_factors_by_exponents(q)
                assert got_p == want_p, (q, u)
                assert np.array_equal(got, want), (q, u)
                for m in (2, 4):
                    x = random_spin_space(rng, q, m)
                    plus, minus = sketch_of_table(x)
                    assert both_sums(*sketch_args([x])) == ([plus], [minus]), (x, u)
    finally:
        clear_caches()  # the factors of the patched point must not outlive it


def full_sketches(q, s, h):
    """Reference for _sketch_sums(): the character sum over every frequency
    j in [0, mod) and both signs, with the index product s_i j mod mod
    formed for each class, scaled from mod (P0 +- P1) to q (P0 +- P1)."""
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
    # reduced before scaling: the raw sums times the inverse pass int64
    plus, minus = acc.sum(axis=2) % p * pow(mod // q, -1, p) % p
    return plus.tolist(), minus.tolist()


def random_class_rows(rng, q, m, count):
    """_sketch_sums() arguments for count random rows: parameters in [0, q)
    coprime to q, as in class rows, and, for even q, a random spin label."""
    s = np.array([[rng.choice(units(q)) for _ in range(m)] for _ in range(count)],
                 dtype=np.int64)
    h = np.array([rng.randrange(2) if q % 2 == 0 else 0 for _ in range(count)],
                 dtype=np.int64)
    return s, h


def test_folded_sketches_match_the_full_frequency_sum(monkeypatch):
    """Folding j with mod - j changes no sketch sum, and the minus sum
    of odd m is 0: odd and even q from q = 1 and q = 2 (mod = 4, where
    j = 2 pairs with itself), m = 2..10, both spin labels, blocks of 3.
    (The unoriented fold of the minus sum is checked on the survivors in
    the next test.)"""
    monkeypatch.setattr(lattice, "_SKETCH_BLOCK", 3)
    rng = random.Random(1313)
    for m in range(2, 11):
        for q in (1, 2, 3, 4, 5, 7, 10, 12, 17, 22):
            if q % 2 == 0 and m % 2 == 1:
                continue
            s, h = random_class_rows(rng, q, m, 8)
            plus, minus = full_sketches(q, s, h)
            assert both_sums(q, s, h) == (plus, minus), (q, m)
            if m % 2:
                assert not any(minus), (q, m)


def test_two_stage_sketch_survivors_match_the_sketch_pairs(monkeypatch):
    """The survivors of the two-stage bucketing (one sum, then both where
    the first collides; the minus sum first when oriented with even m)
    are the rows whose pair (P0, P1)(z0), sorted when unoriented, equals
    another row's.  Rows come in a small pool with repeats, permutations
    and negations, so both stages see collisions; blocks of 3 rows."""
    monkeypatch.setattr(lattice, "_SKETCH_BLOCK", 3)
    rng = random.Random(1818)
    for m in range(2, 11):
        for q in (1, 2, 3, 4, 5, 7, 10, 12, 17, 22):
            if q % 2 == 0 and m % 2 == 1:
                continue
            pool = [[rng.choice(units(q)) for _ in range(m)] for _ in range(4)]
            rows = []
            for _ in range(12):
                s = rng.sample(rng.choice(pool), m)
                if rng.randrange(2):
                    s = [-v % q for v in s]
                rows.append(s + [rng.randrange(2) if q % 2 == 0 else 0])
            classes = np.array(rows, dtype=np.int64)
            plus, minus = full_sketches(q, classes[:, :-1], classes[:, -1])
            p, _ = series_field(q, 1 << 30)
            pairs = [((a + b) % p, (a - b) % p) for a, b in zip(plus, minus)]
            for mode in ("oriented", "unoriented"):
                keys = [tuple(sorted(pair)) if mode == "unoriented" else pair
                        for pair in pairs]
                want = [i for i, key in enumerate(keys) if keys.count(key) > 1]
                assert sketch_survivors(q, classes, mode) == want, (q, m, mode)


def test_odd_m_tables_are_parity_symmetric():
    """In dimensions 4k+1 every full table has even = odd in every row,
    which is why sketch_survivors computes no minus sum for odd m."""
    rng = random.Random(41)
    for m, qmax in ((3, 30), (5, 12), (7, 7), (9, 5)):
        for q in range(1, qmax + 1, 2):
            s = tuple(rng.choice(units(q)) for _ in range(m))
            table = reduced_counts(spin_space(q, s))
            assert all(even == odd for even, odd in table.rows), (q, s)


def test_sketch_memory_is_bounded_by_the_block():
    """10,000 dimension-7 classes at q = 199: one unblocked pass would hold
    about 94 MB of int64 arrays; blocks keep the peak under 32 MB."""
    rng, pool = random.Random(7), units(199)
    s = np.array([[rng.choice(pool) for _ in range(4)] for _ in range(10_000)],
                 dtype=np.int64)
    args = 199, np.sort(s, axis=1), np.zeros(10_000, dtype=np.int64)
    tracemalloc.start()
    try:
        lattice._sketch_sums(*args, 1)
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
    with pytest.raises(ArithmeticError, match="kmax"):
        reduced_counts(spin_space(11, (1, 2, 3, 5)))


def test_mim_rejects_non_integer_float_counts(monkeypatch):
    """Half a count added to the even-parity entries only: 0.5 on both
    would cancel in X_even - X_odd and make X_even + X_odd an integer."""
    clear_caches()  # before _half_table is replaced
    real = lattice._half_table
    monkeypatch.setattr(lattice, "_half_table",
                        lambda q, s_half: real(q, s_half) + np.array([0.5, 0.0]))
    with pytest.raises(ArithmeticError, match="reduced points"):
        reduced_counts(spin_space(13, (1, 2, 3, 4)))


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
    with pytest.raises(ArithmeticError, match="reduced points"):
        reduced_counts(spin_space(13, (1, 2, 3, 4)))


def test_reflection_is_checked_where_the_fold_never_reads(monkeypatch):
    """The contraction reads the smaller residue u of each mirror pair
    u <-> -u - sum(s_half) of the first half table.  A count added at the
    larger one, after the build's last image, changes no row, so only the
    reflection check, which the build runs, catches it."""
    x = spin_space(13, (1, 2, 3, 4))
    q, sn, _ = spin_key(x)
    first = sn[:2]
    unread = next(u for u in range(q) if (-u - sum(first)) % q < u)
    clear_caches()  # so that the first half table is built
    real = lattice._add_image

    def corrupt(table, rows, n, sigma):
        real(table, rows, n, sigma)
        if (n, sigma) == (len(first), sum(first)):
            table[unread * (len(table) // q), 0] += 1

    monkeypatch.setattr(lattice, "_add_image", corrupt)
    with pytest.raises(ArithmeticError, match="symmetric under b"):
        reduced_counts(x)
    assert lattice._half_table.cache_info().currsize == 0


def test_each_half_table_is_checked_once_when_built(monkeypatch):
    """A cached half table is not checked again: over a census and a
    family verification, the reflection check runs once per cache miss,
    although some half tables are read from the cache."""
    checks, misses, hits = [], [], []
    real_check = lattice._check_reflection

    def spy(*args):
        checks.append(args[1:])
        real_check(*args)

    def clear():  # a cache clear resets its statistics
        info = lattice._half_table.cache_info()
        misses.append(info.misses)
        hits.append(info.hits)
        clear_caches()

    monkeypatch.setattr(lattice, "_check_reflection", spy)
    monkeypatch.setattr(search, "clear_caches", clear)
    clear_caches()
    run_census(7, [81])
    verify_family(tower_family(2))
    clear()
    assert len(checks) == sum(misses) > 0
    assert sum(hits) > 0


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
        reduced_counts(spin_space(13, (1, 2, 3, 4)))
    clear_caches()


def test_tower_table_memory_is_bounded():
    """A tower member (q = 40, m = 14, 274 levels per half) built cold:
    one 274 x 548 float64 skew buffer (1.2 MB) and limbs over one residue
    of each mirror pair keep the traced peak under 3 MB."""
    x = tower_family(3)[1]
    clear_caches()
    tracemalloc.start()
    try:
        reduced_counts(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20


# (space, dtype of its contraction, digest() recorded before one-limb
# contractions stayed int64)
RECORDED_DIGESTS = {
    "one-limb-q49-m4": (
        spin_space(49, (1, 8, 15, 29)), np.int64,
        "0c2f9ccc79376a03059d95ba72b49689786520c68aedc137f6f9a5ab7694ad3f"),
    "many-limbs-tower-r3": (
        tower_family(3)[1], object,
        "1a9b85f131d551c0413bd177bc559a462945728591259503a79cc4540b28b172"),
    "odd-m5": (
        spin_space(9, (1, 2, 4, 5, 7)), np.int64,
        "c43fa7bec029df47fc4b1ec3735e5bd984105dc8a071cefe2d206a36f79fc7ef"),
    # recorded before the half tables and the contraction dropped numpy's
    # Python-level helpers (tile, repeat, stack, where, zeros_like)
    "one-limb-q97-m4": (
        spin_space(97, (1, 8, 19, 37)), np.int64,
        "9523fd88ed1b7b0b1fe0ce677c52d22ef3510dffabc37e34d9c090009ff94f38"),
    # each half table totals 80^12 > 2^63, so it is built on Python integers
    "object-halves-q40-m24": (
        spin_space(40, (1, 11) * 12, "h0"), object,
        "0ae61ed5eae2f46101482cc87b612a1b3c774a303c9c7c09e0be3c2c7cb88b31"),
}


@pytest.mark.parametrize("name", RECORDED_DIGESTS)
def test_rows_hold_python_integers_on_every_path(monkeypatch, name):
    """One-limb contractions stay int64 and many-limb ones Python
    integers, but every row entry is a Python int: the repr of a numpy
    2 scalar, np.int64(5), would change every digest."""
    x, dtype, digest = RECORDED_DIGESTS[name]
    seen = []
    real = lattice._contract

    def spy(*args):
        out = real(*args)
        seen.append(out.dtype)
        return out

    monkeypatch.setattr(lattice, "_contract", spy)
    clear_caches()
    table = reduced_counts(x)
    assert seen == [dtype]
    assert {type(v) for row in table.rows for v in row} == {int}
    assert table.digest() == digest
    sn = tuple(sorted(x.lens.normalized()))
    halves = [lattice._half_table(x.q, half) for half in (sn[: x.m // 2], sn[x.m // 2:])]
    assert all((half.dtype == object) == name.startswith("object") for half in halves)
    clear_caches()


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
    x = spin_space(13, (1, 2, 3, 4))
    with pytest.raises(ArithmeticError, match="symmetric"):
        reduced_counts(x)

    seen = count_limbs(monkeypatch)
    monkeypatch.setattr(lattice, "_limb_width", lambda q, ka, total: 1)
    with pytest.raises(ArithmeticError, match="symmetric"):
        reduced_counts(x)
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
    reduced_counts(spin_space(81, (1, 8, 19, 37)))
    assert seen and set(seen) == {1}
    assert get() == before


def test_blas_threads_is_none_without_openblas(monkeypatch):
    """No thread-count functions when numpy's core extension cannot be
    loaded, nor when it exports none of OpenBLAS's."""
    def unloadable(path):
        raise OSError(f"cannot load {path}")

    lattice._blas_threads.cache_clear()
    try:
        monkeypatch.setattr(lattice.ctypes, "CDLL", unloadable)
        assert lattice._blas_threads() is None
        lattice._blas_threads.cache_clear()
        monkeypatch.setattr(lattice.ctypes, "CDLL", lambda path: SimpleNamespace())
        assert lattice._blas_threads() is None
    finally:
        monkeypatch.undo()
        lattice._blas_threads.cache_clear()


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


def test_serial_blas_restores_across_nested_blocks(monkeypatch):
    """A block inside a block keeps one thread until the outer one ends,
    and a raise in the inner block still restores the caller's count once
    the outer block is left."""
    state = {"threads": 3}
    monkeypatch.setattr(lattice, "_blas_threads", lambda: (
        lambda: state["threads"], lambda n: state.update(threads=n)))
    with lattice._serial_blas():
        with lattice._serial_blas():
            assert state["threads"] == 1
        assert state["threads"] == 1
    assert state["threads"] == 3
    with pytest.raises(KeyError):
        with lattice._serial_blas():
            with lattice._serial_blas():
                raise KeyError("inner")
    assert state["threads"] == 3
    assert lattice._serial_users == 0


def _shared_by_unique(keys):
    """_shared's definition: keys whose value occurs more than once."""
    _, bucket, size = np.unique(keys, return_inverse=True, return_counts=True)
    return size[bucket] > 1


@pytest.mark.parametrize("keys", [
    [],
    [7],
    [5, 5, 5, 5],
    [3, 1, 4, 2, 9],
    [-3, 8, -3, 0, -1 << 40, 8, -1 << 40, 2],
    [(1 << 62) + 1, 1 << 62, (1 << 62) + 1, (1 << 62) - 1, (1 << 63) - 1, 1 << 62],
], ids=["empty", "one", "all-equal", "all-distinct", "negative", "near-2^62"])
def test_shared_matches_the_unique_definition(keys):
    keys = np.array(keys, dtype=np.int64)
    got = lattice._shared(keys)
    assert got.dtype == bool and got.shape == keys.shape
    assert got.tolist() == _shared_by_unique(keys).tolist()


def test_shared_matches_the_unique_definition_on_seeded_keys():
    rng = np.random.default_rng(5)
    for size in (2, 3, 50, 1000):
        for spread in (2, size, 1 << 62):
            keys = rng.integers(-spread, spread, size=size)
            assert lattice._shared(keys).tolist() == _shared_by_unique(keys).tolist()
