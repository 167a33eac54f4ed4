import random
from dataclasses import replace

import pytest

from lensdirac import oracle
from lensdirac.lens import spin_space
from lensdirac.lattice import count, lattice_of
from lensdirac.numtheory import PRIME_TEST_LIMIT, binomial, units
from lensdirac.oracle import (
    OracleMismatch,
    TooLarge,
    brute_counts,
    generating_coeffs,
    oracle_compare,
    series_multiplicities,
)
from lensdirac.spectrum import multiplicity, spectrum_table, sphere_multiplicity


def test_sphere_series_closed_form():
    for m in (2, 3, 4):
        x = spin_space(1, (1,) * m)
        f_plus, f_minus = generating_coeffs(x, 50)
        want = tuple(2 ** (m - 1) * binomial(k + 2 * m - 2, 2 * m - 2)
                     for k in range(51))
        assert f_plus == want
        assert f_minus == want


def test_sign_convention_calibration_datum():
    # The asymmetric example that fixes the pairing F-plus <-> +,
    # F-minus <-> -: the h0 spin structure on the 7-dimensional
    # projective space puts all 8 bottom modes on the minus side.
    h0 = spin_space(2, (1, 1, 1, 1), "h0")
    h1 = spin_space(2, (1, 1, 1, 1), "h1")
    assert generating_coeffs(h0, 1) == ((0, 56), (8, 0))
    assert generating_coeffs(h1, 1) == ((8, 0), (0, 56))
    assert (multiplicity(h0, -1, 0), multiplicity(h0, +1, 0)) == (8, 0)


def test_series_field_past_the_prime_test_limit_raises_before_the_series(monkeypatch):
    def no_series(*args):
        raise AssertionError("series work started")

    monkeypatch.setattr(oracle, "_divide_quadratic", no_series)
    x = spin_space(49, (1, 8, 15, 29))
    k_big = 30_000
    assert sphere_multiplicity(7, k_big) >= PRIME_TEST_LIMIT
    with pytest.raises(ValueError, match="prime test limit"):
        generating_coeffs(x, k_big)
    with pytest.raises(ValueError, match="k_max"):
        generating_coeffs(x, -1)


def test_compare_sphere():
    assert oracle_compare(spin_space(1, (1, 1)), 50) is None


def test_compare_q49_family_member():
    assert oracle_compare(spin_space(49, (1, 8, 15, 29)), 40) is None


def test_compare_even_q_both_labels():
    for q, s in ((12, (1, 5, 7, 11)), (16, (1, 3, 5, 7))):
        for tag in ("h0", "h1"):
            assert oracle_compare(spin_space(q, s, tag), 25) is None


def test_compare_raw_parameters():
    # same space written with out-of-range parameters; the spin shift
    # bookkeeping must keep both routes aligned
    assert oracle_compare(spin_space(12, (13, 5, 7, 23), "h0"), 20) is None


def _off_by_one_at(monkeypatch, k_bad):
    real = oracle.spectrum_table

    def off_by_one(x, kmax):
        return [replace(row, plus=row.plus + 1) if row.k == k_bad else row
                for row in real(x, kmax)]

    monkeypatch.setattr(oracle, "spectrum_table", off_by_one)


def test_compare_reports_the_first_wrong_level(monkeypatch):
    _off_by_one_at(monkeypatch, 17)
    with pytest.raises(OracleMismatch, match="k=17"):
        oracle_compare(spin_space(49, (1, 8, 15, 29)), 40)
    assert oracle_compare(spin_space(49, (1, 8, 15, 29)), 16) is None


def test_exact_series_where_doubles_drifted():
    # machine doubles missed these counts (near 1e7) by more than 1e-6
    x = spin_space(11, (1, 1, 1, 1))
    assert series_multiplicities(x, 40) == tuple(
        (row.minus, row.plus) for row in spectrum_table(x, 40))


def test_compare_random_sample():
    rng = random.Random(173)
    done = 0
    while done < 10:
        m = rng.choice((2, 3, 4))
        q = rng.randrange(1, 21)
        if q % 2 == 0 and m % 2 == 1:
            continue
        pool = units(q) if q > 1 else [1]
        s = tuple(rng.choice(pool) for _ in range(m))
        tag = None if q % 2 == 1 else rng.choice(("h0", "h1"))
        assert oracle_compare(spin_space(q, s, tag), 25) is None
        done += 1


def test_brute_counts_sphere_closed_form():
    lat = lattice_of(spin_space(1, (1, 1)))
    rows = brute_counts(lat, 20)
    for k in range(21):
        assert rows[k] == (2 * (k + 1), 2 * (k + 1))


def test_brute_counts_match_dp():
    cases = ((5, (1, 2), None), (8, (1, 3), "h0"), (8, (1, 3), "h1"),
             (7, (1, 2, 3), None), (9, (1, 2, 4), None))
    for q, s, tag in cases:
        lat = lattice_of(spin_space(q, s, tag))
        rows = brute_counts(lat, 15)
        for k in range(16):
            assert rows[k] == (count(lat, 0, k), count(lat, 1, k))


@pytest.mark.parametrize("raw, small", [(2 ** 62 + 2, 1), (2 ** 62 + 3, 2)],
                         ids=["2^62+2", "2^62+3"])
def test_brute_counts_reduce_raw_parameters(raw, small):
    # odd coordinates times 2^62 + c leave int64 unless s is reduced first
    lat = lattice_of(spin_space(5, (1, raw)))
    want = brute_counts(lattice_of(spin_space(5, (1, small))), 6)
    assert brute_counts(lat, 6) == want
    assert want == tuple((count(lat, 0, k), count(lat, 1, k)) for k in range(7))


def test_brute_counts_guard():
    lat = lattice_of(spin_space(5, (1, 1, 2, 3)))
    with pytest.raises(TooLarge):
        brute_counts(lat, 144)


def test_series_multiplicities_match_exact_table():
    for q, s, tag in ((16, (1, 3, 5, 7), "h0"), (9, (1, 2, 4), None)):
        x = spin_space(q, s, tag)
        table = spectrum_table(x, 12)
        assert tuple((row.minus, row.plus) for row in table) == \
            series_multiplicities(x, 12)


def test_series_route_separates_known_negative_pair():
    # control pair: same q and folded one-norm profile, different spectra
    a = series_multiplicities(spin_space(100, (1, 9, 11, 29), "h0"), 12)
    b = series_multiplicities(spin_space(100, (1, 9, 11, 31), "h0"), 12)
    assert a != b
