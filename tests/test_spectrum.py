import random
from itertools import product
from pathlib import Path

import pytest

from lensdirac import lattice
from lensdirac.lattice import count
from lensdirac.lens import find_isometry, spin_space
from lensdirac.numtheory import binomial
from lensdirac.search import tower_family
from lensdirac.spectrum import (
    LevelMultiplicities,
    dirac_isospectral,
    fingerprint,
    inverse_isospectral,
    multiplicity,
    spectrum_table,
    sphere_multiplicity,
)
from reference import find_lens_isometry, units


def direct_multiplicity(x, sign, k):
    """The multiplicity sum of the spectrum module docstring, one
    lattice.count per r: the reference for spectrum_table's running sums."""
    if k < 0:
        return 0
    m = x.m
    offset = 0 if sign < 0 else 1
    return sum(binomial(r + m - 2, m - 2) * count(x, (r + offset) % 2, k - r)
               for r in range(k + 1))


def direct_table(x, kmax):
    return [LevelMultiplicities(k, 2 * k + 2 * x.m - 1,
                                direct_multiplicity(x, -1, k),
                                direct_multiplicity(x, +1, k))
            for k in range(kmax + 1)]


def test_level_rows_are_immutable_named_tuples_as_readme_shows():
    rows = spectrum_table(spin_space(49, (1, 6, 8, 22)), 2)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1]
    shown = library.split("spectrum_table(a, 2)\n", 1)[1].split("```", 1)[0]
    assert repr(rows) == "".join(line[2:] for line in shown.splitlines())
    row = rows[1]
    assert LevelMultiplicities._fields == ("k", "value2", "minus", "plus")
    assert tuple(row) == (row.k, row.value2, row.minus, row.plus) == (1, 9, 2, 0)
    with pytest.raises(AttributeError):
        row.minus = 3
    assert row._replace(minus=3) == (1, 9, 3, 0) and row.minus == 2


@pytest.mark.parametrize("kmax", [0, 1, 200])
def test_table_rows_are_level_multiplicities(kmax):
    """spectrum_table makes its rows with tuple.__new__, not the named
    tuple's constructor: each is still a LevelMultiplicities, with its
    fields, repr and _replace, equal to one built by name."""
    x = spin_space(32, (1, 3, 5, 15), "h1")
    rows = spectrum_table(x, kmax)
    assert len(rows) == kmax + 1
    for k, row in enumerate(rows):
        assert type(row) is LevelMultiplicities
        built = LevelMultiplicities(k=k, value2=2 * k + 7, minus=row[2], plus=row[3])
        assert row == built and (row.k, row.value2) == (k, 2 * k + 7)
        assert (row.minus, row.plus) == (built.minus, built.plus)
        assert repr(row) == (f"LevelMultiplicities(k={k}, value2={2 * k + 7}, "
                             f"minus={row.minus}, plus={row.plus})")
        assert type(row._replace(plus=-1)) is LevelMultiplicities
        assert row._replace(plus=-1) == (k, 2 * k + 7, row.minus, -1)


def test_eigenvalue_values():
    assert spectrum_table(spin_space(5, (1, 2)), 0)[0].value2 == 3   # S^3/Z_5: 3/2
    assert spectrum_table(spin_space(7, (1, 2, 3, 4)), 5)[5].value2 == 17


def test_sphere_multiplicity_small():
    assert sphere_multiplicity(3, 0) == 2
    assert sphere_multiplicity(3, 1) == 6
    assert sphere_multiplicity(7, 0) == 8


def test_sphere_multiplicity_rejects_even_or_small_dimension():
    for n in (1, 4):
        with pytest.raises(ValueError, match="odd and >= 3"):
            sphere_multiplicity(n, 0)


def test_multiplicity_rejects_bad_sign():
    with pytest.raises(ValueError, match="sign"):
        multiplicity(spin_space(5, (1, 2)), 0, 3)


def test_trivial_quotient_matches_sphere():
    for m in (2, 3, 4):
        x = spin_space(1, (1,) * m)
        n = 2 * m - 1
        for k in range(25):
            assert multiplicity(x, -1, k) == sphere_multiplicity(n, k)
            assert multiplicity(x, +1, k) == sphere_multiplicity(n, k)


def test_projective_space_spectrum_split():
    # RP^7: the two spin structures each keep one sign of every sphere
    # eigenvalue pair at the bottom level
    t0 = spin_space(2, (1, 1, 1, 1), "h0")
    t1 = spin_space(2, (1, 1, 1, 1), "h1")
    assert multiplicity(t0, -1, 0) == 8 and multiplicity(t0, +1, 0) == 0
    assert multiplicity(t1, -1, 0) == 0 and multiplicity(t1, +1, 0) == 8
    # together they recover the sphere multiplicity at every level
    for k in range(12):
        for sign in (-1, +1):
            total = multiplicity(t0, sign, k) + multiplicity(t1, sign, k)
            assert total == sphere_multiplicity(7, k)
    assert inverse_isospectral(t0, t1)
    assert not dirac_isospectral(t0, t1)


def test_multiplicity_bound():
    for q, s, lb in [(7, (1, 2, 3), None), (16, (1, 3, 5, 7), "h0"),
                     (9, (1, 2), None)]:
        x = spin_space(q, s, lb)
        m = x.m
        assert multiplicity(x, -1, -1) == multiplicity(x, +1, -1) == 0
        for k in range(0, 30, 3):
            bound = (1 << (m - 1)) * __import__("math").comb(k + 2 * m - 2, 2 * m - 2)
            assert 0 <= multiplicity(x, -1, k) <= bound
            assert 0 <= multiplicity(x, +1, k) <= bound


def test_spectrum_table_consistent_with_multiplicity():
    x = spin_space(12, (1, 5, 7, 11), "h1")
    rows = spectrum_table(x, 8)
    assert [r.k for r in rows] == list(range(9))
    for r in rows:
        assert r.value2 == 2 * r.k + 7
        assert r.minus == multiplicity(x, -1, r.k)
        assert r.plus == multiplicity(x, +1, r.k)


def _sweep_cases():
    """Seeded random spaces with raw (unreduced) parameters, every spin
    label, and kmax below 0, at 0, inside the reduced table and past 3q;
    q = 1 and q = 2 always included."""
    rng = random.Random(20141208)
    cases = [(1, (1, 1), None, 12), (1, (1, 1, 1), None, 0),
             (2, (1, 1), "h0", 9), (2, (1, 3, 5, 7), "h1", 10),
             (5, (1, 2), None, -1), (6, (1, 5), "h1", -3)]
    while len(cases) < 40:
        m = rng.randint(2, 5)
        q = rng.randint(1, 25)
        if q % 2 == 0 and m % 2 == 1:
            continue
        pool = units(q) if q > 1 else [1]
        s = tuple(rng.choice(pool) + q * rng.randint(0, 2) for _ in range(m))
        kmax = rng.choice((-2, 0, rng.randint(1, m * (q - 1) + 1),
                           3 * q + rng.randint(1, 10)))
        for tag in ((None,) if q % 2 else ("h0", "h1")):
            cases.append((q, s, tag, kmax))
    return cases


@pytest.mark.parametrize("q, s, tag, kmax", _sweep_cases())
def test_spectrum_table_matches_direct_sum(q, s, tag, kmax):
    x = spin_space(q, s, tag)
    assert spectrum_table(x, kmax) == direct_table(x, kmax)


def test_running_sums_stay_in_python_integers():
    # tower r = 2 (q = 40, m = 10): at k = 100 the multiplicities pass 2^63
    x = tower_family(2)[0]
    row = spectrum_table(x, 100)[100]
    assert max(row.minus, row.plus) > 1 << 63
    assert (row.minus, row.plus) == (direct_multiplicity(x, -1, 100),
                                     direct_multiplicity(x, +1, 100))
    assert multiplicity(x, -1, 100) == row.minus


def test_quotient_sum_rule():
    # summing lattice counts over all q residue classes recovers the
    # sphere: multiplicities of L(q; s) for the full family of targets
    # would do that; here check the q = 2 case indirectly via a scaled
    # Weyl growth sanity bound instead
    x = spin_space(5, (1, 2))
    total0 = sum(multiplicity(x, sgn, 0) for sgn in (-1, 1))
    assert total0 <= sphere_multiplicity(3, 0) * 5


def test_isometric_spaces_are_isospectral():
    a = spin_space(7, (1, 2))
    b = spin_space(7, (1, 4))
    assert find_lens_isometry(a.lens, b.lens, "any") is not None
    assert dirac_isospectral(a, b)
    # and a genuinely different space is not
    c = spin_space(7, (1, 1))
    assert not dirac_isospectral(a, c)


def test_q49_pair_isospectral_after_reflection_but_not_isometric():
    # The classic q=49 pair.  With a fixed orientation on both sides the
    # count tables come out parity-swapped; reflecting one member (negate
    # a single parameter, 29 = 49 - 20) lines them up exactly.
    a = spin_space(49, (1, 6, 8, 22))
    b = spin_space(49, (1, 6, 8, 20))
    c = spin_space(49, (1, 6, 8, 29))
    assert not dirac_isospectral(a, b)
    assert inverse_isospectral(a, b)
    assert dirac_isospectral(a, c)
    assert not inverse_isospectral(a, c)
    assert find_isometry(a, b, "any") is None
    assert find_isometry(a, c, "any") is None
    # b and c really are the same space up to an orientation flip
    w = find_isometry(b, c, "reversing")
    assert w is not None
    w.verify(b, c, "reversing")


def test_q100_control_pair_is_not_isospectral():
    for ha, hb in product(("h0", "h1"), repeat=2):
        a = spin_space(100, (1, 9, 11, 29), ha)
        b = spin_space(100, (1, 9, 11, 31), hb)
        assert not dirac_isospectral(a, b)
        assert not inverse_isospectral(a, b)


def _verdict_pairs(count):
    """Seeded pairs of spaces of one q (1..90) and m (2..6) with raw
    parameters, each shifted by -q, 0 or q, and random labels at even q.
    The second member is an unrelated space, the first one's parameters
    times a unit, or its parameters permuted with some of them negated,
    so that both verdicts come out either way."""
    rng = random.Random(2626)
    pairs = []
    while len(pairs) < count:
        m, q = rng.randint(2, 6), rng.randint(1, 90)
        if q % 2 == 0 and m % 2 == 1:
            continue
        pool = units(q) if q > 1 else [1]
        labels = ("h0", "h1") if q % 2 == 0 else (None,)
        s = [rng.choice(pool) for _ in range(m)]
        kind = rng.randrange(3)
        if kind == 0:
            t = [rng.choice(pool) for _ in range(m)]
        elif kind == 1:
            unit = rng.choice(pool)
            t = [v * unit for v in s]
        else:
            t = [v * rng.choice((-1, 1)) for v in rng.sample(s, m)]
        a, b = ([v % q + q * rng.randint(-1, 1) for v in row] for row in (s, t))
        pairs.append((spin_space(q, a, rng.choice(labels)),
                      spin_space(q, b, rng.choice(labels))))
    return pairs


def test_verdicts_match_the_table_only_decisions():
    """The sketch gate changes no verdict: each one equals the comparison
    of the two full tables, entrywise and after the parity swap."""
    seen = set()
    for a, b in _verdict_pairs(1200):
        strict, inverse = dirac_isospectral(a, b), inverse_isospectral(a, b)
        ra, rb = fingerprint(a).rows, fingerprint(b).rows
        assert strict == (ra == rb), (a, b)
        assert inverse == (ra == tuple((odd, even) for even, odd in rb)), (a, b)
        seen.add((strict, inverse))
    assert seen == set(product((False, True), repeat=2))


def test_tables_are_built_only_when_the_sketches_agree(monkeypatch):
    """A pair the oriented sketch separates builds no table, also a
    mirror pair that differs only in its minus sum; an isospectral pair
    builds both tables, and so does the unoriented check of the mirror
    pair, whose sketches agree up to the sign of that sum."""
    calls = []
    full_table = lattice._full_table

    def spy(*key):
        calls.append(key)
        return full_table(*key)

    monkeypatch.setattr(lattice, "_full_table", spy)
    mirror = spin_space(81, (1, 8, 19, 37)), spin_space(81, (1, 8, 26, 37))
    cases = [
        (dirac_isospectral, (spin_space(97, (1, 2, 3, 5)), spin_space(97, (1, 2, 3, 7))), False, 0),
        (dirac_isospectral, mirror, False, 0),
        (inverse_isospectral, mirror, True, 2),
        (dirac_isospectral, (spin_space(169, (1, 14, 27, 53)),
                             spin_space(169, (1, 157, 144, 118))), True, 2),
    ]
    for verdict, pair, want, tables in cases:
        calls.clear()
        assert verdict(*pair) is want, (verdict.__name__, pair)
        assert len(calls) == tables, (verdict.__name__, pair)


def test_mismatched_shapes_are_never_isospectral():
    a = spin_space(7, (1, 2))
    b = spin_space(9, (1, 2))
    c = spin_space(7, (1, 2, 3))
    assert not dirac_isospectral(a, b)
    assert not dirac_isospectral(a, c)



def test_mismatched_shapes_are_never_inverse_isospectral(monkeypatch):
    """Spaces of different q or m are decided before any sketch or table."""
    calls = []
    full_table = lattice._full_table
    monkeypatch.setattr(lattice, "_full_table",
                        lambda *key: calls.append(key) or full_table(*key))
    a = spin_space(7, (1, 2))
    for other in (spin_space(9, (1, 2)), spin_space(7, (1, 2, 3))):
        assert not inverse_isospectral(a, other)
        assert not inverse_isospectral(other, a)
    assert calls == []

def test_fingerprint_digests_group_correctly():
    a = spin_space(49, (1, 6, 8, 22))
    b = spin_space(49, (1, 6, 8, 20))
    c = spin_space(49, (1, 6, 8, 29))
    fa, fb, fc = fingerprint(a), fingerprint(b), fingerprint(c)
    assert fa.digest() == fc.digest()
    assert fa.rows == fc.rows
    assert fa.digest() != fb.digest()
    # the swap relation at the row level
    assert fa.rows == tuple((r1, r0) for (r0, r1) in fb.rows)
