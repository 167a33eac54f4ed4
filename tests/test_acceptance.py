"""End-to-end gate: the published isospectrality census and family
results, the closed-form sphere check, the independent series oracle,
brute-force count agreement, and the randomized invariants, each as one
test that prints a single PASS line when it holds.

Census matching note: the published family tables list one parameter
tuple per member, normalized up to unlabeled reflection.  For even q a
reflection moves the spin label to the mirrored parameters, so a listed
(s, tau_h) can denote either the class of (s, h) or the class of
(mirror(s), h).  Matching therefore tries both candidate classes per
listed member and requires a perfect 1:1 assignment onto a computed
family.  Odd q has a unique structure and both candidates coincide.
"""

import random
from itertools import product

from lensdirac.lattice import count, reduced_counts
from lensdirac.lens import (
    IsometryWitness,
    LensParams,
    canonical_key,
    find_isometry,
    spin_space,
    spin_structures,
)
from lensdirac.numtheory import binomial
from lensdirac.oracle import brute_counts, oracle_compare
from lensdirac.search import (
    mirror_pair,
    run_census,
    spin_pair,
    tower_family,
    verify_family,
)
from lensdirac.spectrum import (
    dirac_isospectral,
    fingerprint,
    inverse_isospectral,
    multiplicity,
    spectrum_table,
)
from reference import (
    CongruenceLattice,
    apply_norm_isometry,
    contains,
    lattice_of,
    point_level,
    units,
)

SEED = 74207281


def report(line):
    print(f"PASS: {line}")


# ------------------------------------------------------- published tables

# dimension 7, q <= 100: twelve families
TABLE_DIM7 = {
    32: [[((1, 3, 5, 15), "h0"), ((1, 3, 5, 15), "h1")]],
    49: [[((1, 6, 8, 22), None), ((1, 6, 8, 20), None)]],
    64: [[((1, 7, 9, 31), "h0"), ((1, 7, 9, 31), "h1")]],
    75: [[((1, 4, 14, 16), None), ((1, 4, 11, 19), None)],
         [((1, 4, 11, 34), None), ((1, 4, 14, 31), None)]],
    80: [[((1, 3, 9, 27), "h0"), ((1, 9, 13, 37), "h0")]],
    81: [[((1, 8, 19, 37), None), ((1, 8, 26, 37), None)],
         [((1, 8, 10, 28), None), ((1, 8, 10, 26), None)],
         [((1, 8, 10, 37), None), ((1, 8, 10, 35), None)]],
    96: [[((1, 11, 13, 47), "h0"), ((1, 11, 13, 47), "h1")]],
    98: [[((1, 13, 15, 43), "h0"), ((1, 13, 15, 41), "h1")],
         [((1, 13, 15, 41), "h0"), ((1, 13, 15, 43), "h1")]],
}

TABLE_DIM11 = {
    40: [[((1, 1, 1, 11, 11, 11), "h0"), ((1, 1, 9, 11, 11, 19), "h0")],
         [((1, 1, 11, 11, 13, 17), "h0"), ((1, 1, 3, 7, 11, 11), "h0"),
          ((1, 3, 7, 9, 11, 19), "h0")]],
    44: [[((1, 3, 5, 7, 9, 19), "h0"), ((1, 3, 5, 7, 13, 15), "h0")],
         [((1, 3, 5, 7, 9, 19), "h1"), ((1, 3, 5, 7, 13, 15), "h1")]],
    48: [[((1, 1, 5, 7, 7, 13), "h0"), ((1, 5, 7, 11, 13, 19), "h0"),
          ((1, 1, 7, 7, 11, 19), "h0")],
         [((1, 1, 7, 7, 17, 23), "h0"), ((1, 1, 1, 7, 7, 7), "h0")]],
}

TABLE_DIM15 = {
    39: [[((1, 2, 4, 5, 7, 10, 14, 16), None),
          ((1, 2, 4, 7, 8, 10, 16, 17), None)]],
    52: [[((1, 3, 5, 7, 9, 11, 17, 25), "h0"),
          ((1, 3, 5, 7, 9, 15, 23, 25), "h1")],
         [((1, 3, 5, 7, 9, 11, 19, 21), "h1"),
          ((1, 3, 5, 7, 9, 11, 17, 23), "h1")],
         [((1, 3, 5, 7, 9, 11, 19, 21), "h0"),
          ((1, 3, 5, 7, 9, 11, 17, 23), "h0")],
         [((1, 3, 5, 7, 9, 15, 23, 25), "h0"),
          ((1, 3, 5, 7, 9, 11, 17, 25), "h1")]],
    56: [[((1, 3, 5, 9, 11, 13, 19, 23), "h0"),
          ((1, 3, 5, 9, 11, 13, 15, 27), "h0")],
         [((1, 3, 5, 9, 11, 13, 15, 27), "h1"),
          ((1, 3, 5, 9, 11, 13, 19, 23), "h1")]],
}

TABLE_DIM19 = {
    24: [[((1, 1, 1, 1, 1, 5, 5, 5, 5, 5), "h0"),
          ((1, 1, 1, 5, 5, 5, 7, 7, 11, 11), "h0"),
          ((1, 1, 1, 1, 5, 5, 5, 5, 7, 11), "h0")]],
    40: [[((1, 1, 1, 9, 9, 11, 11, 11, 19, 19), "h0"),
          ((1, 1, 1, 1, 1, 11, 11, 11, 11, 11), "h0"),
          ((1, 1, 1, 1, 9, 11, 11, 11, 11, 19), "h0")],
         [((1, 1, 1, 3, 7, 9, 11, 11, 11, 19), "h0"),
          ((1, 1, 1, 1, 3, 7, 11, 11, 11, 11), "h0"),
          ((1, 1, 3, 7, 9, 9, 11, 11, 19, 19), "h0"),
          ((1, 1, 1, 9, 11, 11, 11, 13, 17, 19), "h0"),
          ((1, 1, 1, 1, 11, 11, 11, 11, 13, 17), "h0")],
         [((1, 1, 3, 3, 7, 7, 9, 11, 11, 19), "h0"),
          ((1, 1, 3, 7, 9, 11, 11, 13, 17, 19), "h0"),
          ((1, 1, 3, 3, 7, 7, 11, 11, 13, 17), "h0"),
          ((1, 1, 1, 3, 3, 7, 7, 11, 11, 11), "h0"),
          ((1, 1, 1, 3, 7, 11, 11, 11, 13, 17), "h0"),
          ((1, 1, 1, 11, 11, 11, 13, 13, 17, 17), "h0")]],
}


def class_key(q, s, spin):
    return canonical_key(spin_space(q, s, spin), "unoriented")


def candidate_keys(q, s, spin):
    """Both classes a listed (s, spin) row can denote; see module note."""
    mirrored = s[:-1] + (q - s[-1],)
    return {class_key(q, s, spin), class_key(q, mirrored, spin)}


def family_matches(q, listed, computed):
    """Perfect 1:1 assignment of listed rows onto a computed family's
    member classes, each row through one of its candidate keys."""
    keys = {canonical_key(x, "unoriented") for x in computed.members}
    if len(listed) != len(keys):
        return False
    options = [candidate_keys(q, s, spin) & keys for s, spin in listed]
    for pick in product(*options):
        if len(set(pick)) == len(keys):
            return True
    return False


def assert_census_equals_table(n, q, results, listed_families):
    match = [r for r in results if r.q == q]
    assert len(match) == 1, f"census missing q={q}"
    computed = list(match[0].families)
    assert len(computed) == len(listed_families), (
        f"dim {n} q={q}: {len(computed)} computed families, "
        f"{len(listed_families)} listed")
    remaining = list(computed)
    for listed in listed_families:
        hits = [f for f in remaining if family_matches(q, listed, f)]
        assert hits, f"dim {n} q={q}: listed family {listed} not reproduced"
        remaining.remove(hits[0])
    assert not remaining


def random_space(rng, q_max, m_choices):
    while True:
        q = rng.randint(1, q_max)
        m = rng.choice(m_choices)
        if not spin_structures(LensParams(q, (1,) * m)):
            continue
        s = tuple(rng.choice(units(q)) for _ in range(m))
        return q, s


def random_lattice_point(rng, lat):
    """Uniform-ish member of the lattice: free odd tail, first coordinate
    solved from the congruence (s_1 is invertible mod the modulus)."""
    q, mod = lat.q, lat.modulus
    tail = [rng.randrange(-q, q) * 2 + 1 for _ in range(lat.m - 1)]
    rhs = (lat.target - sum(a * s for a, s in zip(tail, lat.s[1:]))) % mod
    a1 = (rhs * pow(lat.s[0], -1, mod)) % mod
    if a1 % 2 == 0:
        assert mod % 2 == 1, "even modulus must pin an odd first coordinate"
        a1 += mod
    a = (a1,) + tuple(tail)
    assert contains(lat, a)
    return a


# -------------------------------------------------------------- criteria

def test_dimension7_census_reproduces_published_families():
    results = run_census(7, range(1, 101))
    by_q = {r.q: r for r in results}
    found = {r.q: len(r.families) for r in results if r.families}
    assert found == {32: 1, 49: 1, 64: 1, 75: 2, 80: 1, 81: 3, 96: 1, 98: 2}
    for q, listed in TABLE_DIM7.items():
        assert_census_equals_table(7, q, [by_q[q]], listed)
    report("dimension-7 census over q <= 100 yields exactly the 12 "
           "published families, classes matched 1:1")


def test_higher_dimension_censuses_reproduce_published_families():
    for n, table in ((11, TABLE_DIM11), (15, TABLE_DIM15), (19, TABLE_DIM19)):
        for q, listed in table.items():
            results = run_census(n, [q])
            assert_census_equals_table(n, q, results, listed)
    report("dimensions 11/15/19 censuses at the published q values "
           "reproduce all 17 published families exactly")


def test_sphere_multiplicities_closed_form():
    for m in range(2, 9):
        x = spin_space(1, (1,) * m)
        rows = spectrum_table(x, 100)
        for k in range(101):
            want = (1 << (m - 1)) * binomial(k + 2 * m - 2, 2 * m - 2)
            assert rows[k].minus == want, (m, k)
            assert rows[k].plus == want, (m, k)
        assert multiplicity(x, -1, 17) == multiplicity(x, +1, 17)
    report("sphere multiplicities match 2^(m-1) * C(k+2m-2, 2m-2) for "
           "m = 2..8, k <= 100")


def test_series_oracle_confirms_exact_multiplicities():
    rng = random.Random(SEED)
    spaces = []
    while len(spaces) < 25:
        q, s = random_space(rng, 30, (2, 3, 4))
        spaces.append((q, s))
    checked = 0
    for q, s in spaces:
        for spin in spin_structures(LensParams(q, s)):
            # exact GF(p) series against the lattice counts, no tolerance
            assert oracle_compare(spin_space(q, s, spin.tag), 40) is None
            checked += 1
    report(f"exact series oracle equals the lattice counts on 25 random "
           f"spaces ({checked} spin structures, k <= 40)")


def test_counts_match_brute_enumeration():
    checked = 0
    for q in range(1, 9):
        for m in (2, 3):
            if not spin_structures(LensParams(q, (1,) * m)):
                continue
            for s in product(units(q), repeat=m):
                for spin in spin_structures(LensParams(q, s)):
                    x = spin_space(q, s, spin.tag)
                    brute = brute_counts(x, 3 * q)
                    for k in range(3 * q + 1):
                        assert count(x, 0, k) == brute[k][0], (q, s, k)
                        assert count(x, 1, k) == brute[k][1], (q, s, k)
                    checked += 1
    report(f"exact counts equal brute enumeration on {checked} lattices "
           f"(q <= 8, m <= 3, all labels, k <= 3q)")


def test_tower_families_verify():
    for r in (1, 2, 3):
        members = tower_family(r)
        assert len(members) == r + 1
        assert members[0].m == 2 * (2 * r + 1)
        verify_family(members)
    report("q=40 tower families r = 1, 2, 3 are pairwise isospectral and "
           "non-isometric (r=3: four members, m=14)")


def test_spin_structure_pairs_verify():
    for t in (1, 2, 3):
        a, b = spin_pair(t)
        assert a.lens == b.lens and a.spin.tag != b.spin.tag
        assert fingerprint(a).rows == fingerprint(b).rows
        assert find_isometry(a, b, "any") is None
        verify_family((a, b))
    report("q=32t single-space spin pairs t = 1, 2, 3 are isospectral "
           "with no label-transporting isometry")


def test_mirror_pairs_verify_and_hit_census():
    for r in (7, 9, 11):
        (pair,) = mirror_pair(r)
        verify_family(pair)
    (pair7,) = mirror_pair(7)
    keys = {canonical_key(x, "unoriented") for x in pair7}
    assert keys == {class_key(49, (1, 6, 8, 20), None),
                    class_key(49, (1, 6, 8, 22), None)}
    report("odd mirror pairs r = 7, 9, 11 verify; r=7 lands on the two "
           "q=49 census classes")


def test_dimension5_census_is_empty():
    results = run_census(5, range(1, 102))
    assert all(not r.families for r in results)
    for r in results:
        if r.q > 1 and r.q % 2 == 0:
            assert r.classes == 0 and "no spin structure" in r.note
        else:
            assert r.classes > 0
    report("dimension-5 census over q <= 101 finds no isospectral "
           "families at all")


def test_label_swapping_isometry_on_q16():
    a = spin_space(16, (1, 3, 5, 7), "h0")
    b = spin_space(16, (1, 3, 5, 7), "h1")
    w = find_isometry(a, b, "any")
    assert w is not None and w.verify(a, b)
    known = IsometryWitness(ell=11, sigma=(2, 0, 3, 1),
                            eps=(-1, 1, 1, -1), spin_shift=1)
    assert known.verify(a, b)
    report("L(16; 1,3,5,7) labels h0/h1 are exchanged by an isometry; "
           "the published witness (ell=11) re-verifies")


# ----------------------------------------------- randomized property suites

def _suite_periodicity(rng, cases):
    for _ in range(cases):
        q, s = random_space(rng, 30, (2, 3, 4))
        spin = rng.choice(spin_structures(LensParams(q, s)))
        lat = lattice_of(spin_space(q, s, spin.tag))
        a = random_lattice_point(rng, lat)
        j = rng.randrange(lat.m)
        step = 2 * q * rng.choice((1, -1, 2))
        shifted = a[:j] + (a[j] + step,) + a[j + 1:]
        assert contains(lat, shifted), (q, s, a, j, step)


def _suite_negation(rng, cases):
    for _ in range(cases):
        q, s = random_space(rng, 30, (2, 3, 4))
        spin = rng.choice(spin_structures(LensParams(q, s)))
        lat = lattice_of(spin_space(q, s, spin.tag))
        a = random_lattice_point(rng, lat)
        neg = tuple(-v for v in a)
        assert contains(lat, neg)
        assert point_level(neg) == point_level(a)
        negatives = sum(1 for v in a if v < 0)
        assert sum(1 for v in neg if v < 0) == lat.m - negatives


def _suite_odd_m_symmetry(rng, cases):
    for _ in range(cases):
        q = rng.randrange(1, 26, 2)
        m = rng.choice((3, 5))
        s = tuple(rng.choice(units(q)) for _ in range(m))
        table = reduced_counts(spin_space(q, s))
        assert all(even == odd for even, odd in table.rows), (q, s)


def _suite_isometry_transport(rng, cases):
    for _ in range(cases):
        q, s = random_space(rng, 20, (2, 3, 4))
        m = len(s)
        spin = rng.choice(spin_structures(LensParams(q, s)))
        x = spin_space(q, s, spin.tag)
        lat = lattice_of(x)
        ell = rng.choice(units(q))
        sigma = list(range(m))
        rng.shuffle(sigma)
        eps = tuple(rng.choice((1, -1)) for _ in range(m))
        image_s = [0] * m
        carry = 0
        for j in range(m):
            v = ell * eps[j] * s[j]
            image_s[sigma[j]] = v % q
            carry += v // q
        # reducing the raw parameters mod q moves the affine target by q
        # per unit of carry, because every lattice coordinate is odd
        target = (ell * lat.target - q * carry) % lat.modulus
        image = CongruenceLattice(q, tuple(image_s), lat.modulus, target)
        # the image parameters lie in [0, q), so target h q carries label h
        image_x = spin_space(q, image_s, None if q % 2 else f"h{target // q}")
        assert lattice_of(image_x) == image
        w = IsometryWitness(ell=ell, sigma=tuple(sigma), eps=eps, spin_shift=0)
        for _ in range(3):
            a = random_lattice_point(rng, lat)
            out = apply_norm_isometry(w, a)
            assert contains(image, out), (q, s, ell, sigma, eps, a)
            assert point_level(out) == point_level(a)
        flips = sum(1 for e in eps if e < 0) % 2
        rows = reduced_counts(x).rows
        image_rows = reduced_counts(image_x).rows
        if flips == 0:
            assert image_rows == rows
        else:
            assert image_rows == tuple((o, e) for e, o in rows)


def _scrambled_partner(rng, q, s):
    m = len(s)
    ell = rng.choice(units(q))
    sigma = list(range(m))
    rng.shuffle(sigma)
    eps = [rng.choice((1, -1)) for _ in range(m)]
    out = [0] * m
    for j in range(m):
        out[sigma[j]] = (ell * eps[j] * s[j]) % q
    return tuple(out)


def _suite_canonical_key_vs_witness(rng, cases):
    pair_modes = (("unoriented", "any"), ("oriented", "preserving"))
    for _ in range(cases):
        q, s = random_space(rng, 20, (2, 3, 4))
        lens = LensParams(q, s)
        spin_a = rng.choice(spin_structures(lens))
        a = spin_space(q, s, spin_a.tag)
        partner = _scrambled_partner(rng, q, s)
        stranger = tuple(rng.choice(units(q)) for _ in range(len(s)))
        # raw parameters, negative ones included: the witness's spin
        # transport and the lattice's target must read them alike
        for other_s in ([v + q * rng.randrange(-2, 3) for v in t] for t in (partner, stranger)):
            for spin_b in spin_structures(LensParams(q, other_s)):
                b = spin_space(q, other_s, spin_b.tag)
                for key_mode, iso_mode in pair_modes:
                    same_key = (canonical_key(a, key_mode)
                                == canonical_key(b, key_mode))
                    witness = find_isometry(a, b, iso_mode)
                    assert same_key == (witness is not None), (
                        a, b, key_mode)
                    if witness is not None:
                        assert witness.verify(a, b, iso_mode)
                        # an isometry keeps the Dirac spectrum, and one
                        # reversing orientation flips its sign
                        same = (dirac_isospectral if witness.orientation == 1
                                else inverse_isospectral)
                        assert same(a, b), (a, b, witness)


def _suite_fingerprint_completeness(rng, cases):
    for _ in range(cases):
        q, s = random_space(rng, 12, (2, 3))
        lens = LensParams(q, s)
        spin_a = rng.choice(spin_structures(lens))
        a = spin_space(q, s, spin_a.tag)
        if rng.random() < 0.5:
            other_s = _scrambled_partner(rng, q, s)
        else:
            other_s = tuple(rng.choice(units(q)) for _ in range(len(s)))
        spin_b = rng.choice(spin_structures(LensParams(q, other_s)))
        b = spin_space(q, other_s, spin_b.tag)
        kmax = 3 * len(s) * q
        same_tables = (spectrum_table(a, kmax) == spectrum_table(b, kmax))
        same_print = fingerprint(a).rows == fingerprint(b).rows
        assert same_tables == same_print, (a, b)


def test_randomized_invariants_hold():
    suites = [
        ("lattice periodicity", _suite_periodicity, 200),
        ("negation symmetry", _suite_negation, 200),
        ("odd-m parity balance", _suite_odd_m_symmetry, 200),
        ("isometry transport", _suite_isometry_transport, 200),
        ("canonical key vs witness", _suite_canonical_key_vs_witness, 200),
        ("fingerprint completeness", _suite_fingerprint_completeness, 200),
    ]
    rng = random.Random(SEED)
    for name, fn, cases in suites:
        fn(rng, cases)
    report("six randomized invariant suites hold, 200 seeded cases each")
