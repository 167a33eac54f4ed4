import random
from itertools import product

import numpy as np
import pytest

from lensdirac import lattice
from lensdirac.lattice import (
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
    reduced_prefix,
)
from lensdirac.lens import find_isometry, spin_space
from lensdirac.numtheory import units
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
    """Reference table from the packed big-integer DP alone."""
    return tuple(map(tuple, lattice._reduced_packed(*lattice._norm_key(lat))))


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


def test_prefix_on_float64_matches_packed_table_past_int64():
    """A tower member (q = 40, m = 14) has 2*80^13 reduced points, past
    int64, so its full table comes from the packed DP; short prefixes
    stay below 2^53 and run on float64 products."""
    lat = lattice_of(tower_family(3)[1])
    full = reduced_counts(lat)
    assert full.total() == 2 * 80 ** 13
    for levels in (3, 8, 12):
        assert reduced_prefix(lat, levels) == full.rows[: levels + 1]


def test_packed_table_total_is_checked(monkeypatch):
    real = lattice._reduced_packed

    def off_by_one(q, mod, tgt, sn):
        rows = real(q, mod, tgt, sn)
        rows[q][1] += 1
        return rows

    monkeypatch.setattr(lattice, "_reduced_packed", off_by_one)
    lat = lattice_of(tower_family(3)[0])
    clear_caches()
    with pytest.raises(ArithmeticError, match="reduced points"):
        reduced_counts(lat)


def brute_half_table(q, mod, s_half):
    """H[residue, e, parity] by trying every (size, sign) choice of every
    coordinate."""
    n = len(s_half)
    table = np.zeros((mod, n * (q - 1) + 1, 2), dtype=np.int64)
    for choice in product(product(range(q), (1, -1)), repeat=n):
        res = sum(sg * (2 * e + 1) * sj for (e, sg), sj in zip(choice, s_half))
        neg = sum(1 for _, sg in choice if sg < 0)
        table[res % mod, sum(e for e, _ in choice), neg % 2] += 1
    return table


def test_half_tables_match_brute_force():
    rng = random.Random(2024)
    qs = {1: (13, 12), 2: (9, 10), 3: (7, 6), 4: (5, 4), 5: (3, 4), 6: (3, 2)}
    for n, (q_odd, q_even) in qs.items():
        for q, mod in ((q_odd, q_odd), (q_even, 2 * q_even)):
            s_half = tuple(sorted(rng.randrange(q) for _ in range(n)))
            full = brute_half_table(q, mod, s_half)
            emax = n * (q - 1)
            for kcap in (None, 0, 1, 16, rng.randrange(emax + 1), emax + 5):
                got = lattice._half_table(q, mod, s_half, kcap)
                width = emax + 1 if kcap is None else min(kcap, emax) + 1
                assert got.dtype == np.int64
                assert np.array_equal(got, full[:, :width]), (q, mod, s_half, kcap)
                assert not got.flags.writeable
                with pytest.raises(ValueError):
                    got[0, 0, 0] = 1


def test_reduced_prefix_matches_full_table():
    """Capped half tables, from the same builder as full ones at every
    half size (one to five coordinates here), give exactly the leading
    rows of the full table; a prefix at or past kmax is the whole table."""
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
            rows = reduced_counts(lat).rows
            kmax = len(rows) - 1
            for levels in (0, 1, 16, rng.randrange(kmax + 1), kmax, kmax + 7):
                got = reduced_prefix(lat, levels)
                assert got == rows[: levels + 1], (q, s, label, levels)
                assert all(type(v) is int for row in got for v in row)


def test_reduced_prefix_past_int64_falls_back_to_full_table(monkeypatch):
    lat = lattice_of(spin_space(6, (1, 5, 1, 5), "h1"))
    expect = tuple(brute_reduced_rows(lat))
    monkeypatch.setattr(lattice, "_INT64_SAFE", 0)
    assert reduced_prefix(lat, 3) == expect[:4]


def test_reduced_prefix_rejects_negative_levels():
    with pytest.raises(ValueError, match="levels"):
        reduced_prefix(lattice_of(spin_space(5, (1, 2))), -1)


def test_point_level_rejects_even_coordinates():
    with pytest.raises(ValueError, match="even"):
        point_level((2, 1))


def test_mim_rejects_half_tables_of_the_wrong_size(monkeypatch):
    real = lattice._half_table
    monkeypatch.setattr(lattice, "_half_table",
                        lambda q, mod, s_half, kcap=None:
                        real(q, mod, s_half, kcap)[:, :-1])
    lat = lattice_of(spin_space(11, (1, 2, 3, 5)))
    clear_caches()
    with pytest.raises(ArithmeticError, match="kmax"):
        reduced_counts(lat)


def test_mim_rejects_non_integer_float_counts(monkeypatch):
    real = lattice._half_table
    monkeypatch.setattr(lattice, "_half_table",
                        lambda q, mod, s_half, kcap=None:
                        real(q, mod, s_half, kcap) + np.float64(0.5))
    lat = lattice_of(spin_space(13, (1, 2, 3, 4)))
    clear_caches()
    with pytest.raises(ArithmeticError, match="reduced points"):
        reduced_counts(lat)


@pytest.mark.parametrize("float_safe", [lattice._FLOAT_SAFE, 0])
def test_mim_rejects_integer_corruption(monkeypatch, float_safe):
    """An integer error in a half table leaves every count an integer;
    the table total still catches it, on the float64 and int64 paths."""
    real = lattice._half_table
    monkeypatch.setattr(lattice, "_half_table",
                        lambda q, mod, s_half, kcap=None:
                        real(q, mod, s_half, kcap) + 1)
    monkeypatch.setattr(lattice, "_FLOAT_SAFE", float_safe)
    lat = lattice_of(spin_space(13, (1, 2, 3, 4)))
    clear_caches()
    with pytest.raises(ArithmeticError, match="reduced points"):
        reduced_counts(lat)
