import math
import random
import tracemalloc
from itertools import combinations_with_replacement, permutations, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lensdirac import lens
from lensdirac.lens import (
    DimensionTooSmall,
    IsometryWitness,
    LensParams,
    Mismatch,
    NoSpinStructure,
    NotCoprime,
    SpinLabel,
    canonical_key,
    find_isometry,
    format_spin_lens,
    h_shift,
    self_transport_pairs,
    spin_space,
    spin_structures,
)
from lensdirac.search import enumerate_classes, run_census
from reference import find_lens_isometry, units


# ---------------------------------------------------------------- helpers

def brute_witness_exists(a, b, mode, ha=None, hb=None):
    """Exhaustive search over (l, sigma, eps); ground truth for the fast
    group-matching search.  ha/hb add the spin transport constraint."""
    q, m = a.q, a.m
    want = {"any": (1, -1), "preserving": (1,), "reversing": (-1,)}[mode]
    for ell in units(q):
        for sigma in permutations(range(m)):
            for eps in product((1, -1), repeat=m):
                if any((ell * eps[j] * a.s[j] - b.s[sigma[j]]) % q != 0 for j in range(m)):
                    continue
                orient = 1
                for e in eps:
                    orient *= e
                if orient not in want:
                    continue
                if ha is not None:
                    rho = sum((ell * eps[j] * a.s[j] - b.s[sigma[j]]) // q
                              for j in range(m))
                    if (ha + h_shift(a) + h_shift(b) + rho) % 2 != hb % 2:
                        continue
                return True
    return False


# ------------------------------------------------------------- parameters

def test_params_validation():
    with pytest.raises(NotCoprime) as exc:
        LensParams(6, (1, 3))
    assert exc.value.index == 1
    with pytest.raises(DimensionTooSmall):
        LensParams(5, (1,))
    with pytest.raises(ValueError):
        LensParams(0, (1, 1))
    lens = LensParams(7, (1, -2, 16))
    assert lens.m == 3
    assert lens.normalized() == (1, 5, 2)


def test_h_shift_uses_true_floor():
    assert h_shift(LensParams(5, (1, 7))) == 1    # floor(7/5) = 1
    assert h_shift(LensParams(5, (-1, 1))) == 1   # floor(-1/5) = -1
    assert h_shift(LensParams(5, (1, 2))) == 0
    assert h_shift(LensParams(16, (1, 3, 5, 7))) == 0
    assert h_shift(LensParams(16, (17, 3, 5, 7))) == 1


def test_spin_structures_by_parity():
    assert [x.tag for x in spin_structures(LensParams(7, (1, 2)))] == ["unique"]
    assert [x.tag for x in spin_structures(LensParams(8, (1, 3)))] == ["h0", "h1"]
    assert spin_structures(LensParams(8, (1, 3, 5))) == []
    with pytest.raises(NoSpinStructure):
        spin_space(8, (1, 3, 5), "h0")


def test_spin_space_defaults():
    x = spin_space(7, (1, 2))
    assert x.spin.h is None
    with pytest.raises(ValueError):
        spin_space(8, (1, 3))          # even q needs an explicit label
    with pytest.raises(ValueError):
        spin_space(7, (1, 2), "h1")    # odd q has no labelled structures
    assert spin_space(8, (1, 3), "h1").spin == SpinLabel(1)


def test_formatting():
    assert format_spin_lens(spin_space(7, (1, 2))) == "L(7; 1,2)"
    assert str(spin_space(16, (1, 3, 5, 7), "h0")) == "L(16; 1,3,5,7) tau_0"
    assert str(SpinLabel(1)) == "h1" and str(SpinLabel(None)) == "unique"


# --------------------------------------------------------------- isometry

def test_identity_is_found():
    for q, s in [(7, (1, 2)), (16, (1, 3, 5, 7)), (1, (1, 1)), (2, (1, 1))]:
        a = LensParams(q, s)
        w = find_lens_isometry(a, a, "preserving")
        assert w is not None
        assert w.orientation == 1


def test_classic_three_dim_pairs():
    # L(7;1,2) and L(7;1,3): related by an orientation-reversing isometry
    # (2*(1,3) = (2,6) = (2,-1) mod 7) but by no preserving one
    a, b = LensParams(7, (1, 2)), LensParams(7, (1, 3))
    assert find_lens_isometry(a, b, "any") is not None
    assert find_lens_isometry(a, b, "reversing") is not None
    assert find_lens_isometry(a, b, "preserving") is None
    # L(7;1,1) and L(7;1,2) are not even homeomorphic
    c = LensParams(7, (1, 1))
    assert find_lens_isometry(c, a, "any") is None


def test_spin_exchanging_self_isometry_q16():
    # l = 11 with eps = (-1,1,1,-1) permutes (1,3,5,7) mod 16 and carries
    # tau_0 to tau_1: an orientation-preserving spin-exchanging isometry
    h0 = spin_space(16, (1, 3, 5, 7), "h0")
    h1 = spin_space(16, (1, 3, 5, 7), "h1")
    known = IsometryWitness(ell=11, sigma=(2, 0, 3, 1), eps=(-1, 1, 1, -1),
                            spin_shift=1)
    assert known.verify(h0, h1, "preserving")
    assert not known.verify(h0, h0, "preserving")

    w = find_isometry(h0, h1, "any")
    assert w is not None
    assert w.verify(h0, h1, "any")
    assert find_isometry(h0, h0, "any") is not None  # identity still there


def test_witness_verify_rejects_tampering():
    h0 = spin_space(16, (1, 3, 5, 7), "h0")
    h1 = spin_space(16, (1, 3, 5, 7), "h1")
    good = IsometryWitness(11, (2, 0, 3, 1), (-1, 1, 1, -1), 1)
    assert good.verify(h0, h1)
    assert not IsometryWitness(11, (2, 0, 3, 1), (-1, 1, 1, -1), 0).verify(h0, h1)
    assert not IsometryWitness(11, (0, 2, 3, 1), (-1, 1, 1, -1), 1).verify(h0, h1)
    assert not IsometryWitness(11, (2, 0, 3, 3), (-1, 1, 1, -1), 1).verify(h0, h1)
    assert not IsometryWitness(4, (2, 0, 3, 1), (-1, 1, 1, -1), 1).verify(h0, h1)


def test_witness_verify_rejects_eps_of_the_wrong_length():
    # an extra -1 would flip the orientation of the identity map; a short
    # eps must be rejected, not index past its end
    x = spin_space(7, (1, 2))
    assert not IsometryWitness(1, (0, 1), (1, 1, -1), 0).verify(x, x, "reversing")
    assert not IsometryWitness(1, (0, 1), (1, 1, 1), 0).verify(x, x)
    assert not IsometryWitness(1, (0, 1), (1,), 0).verify(x, x)
    assert IsometryWitness(1, (0, 1), (1, 1), 0).verify(x, x, "preserving")


def test_witness_verify_rejects_other_shapes_and_eps_values():
    # a witness maps spaces of one q and one m, and every eps_j is a sign
    x = spin_space(7, (1, 2))
    identity = IsometryWitness(1, (0, 1), (1, 1), 0)
    assert identity.verify(x, x)
    assert not identity.verify(x, spin_space(9, (1, 2)))
    assert not identity.verify(x, spin_space(7, (1, 2, 3)))
    assert not IsometryWitness(1, (0, 1), (1, 2), 0).verify(x, x)
    assert not IsometryWitness(1, (0, 1), (0, -1), 0).verify(x, x)


def test_witness_with_broken_assignment_raises(monkeypatch):
    # an assignment that does not send l*eps_j*s_j to the matched
    # parameter mod q has no spin shift
    real = lens._build_assignment

    def shifted(v, sn_b, q):
        sigma, eps = real(v, sn_b, q)
        return sigma[1:] + sigma[:1], eps

    monkeypatch.setattr(lens, "_build_assignment", shifted)
    with pytest.raises(ArithmeticError, match="differ mod 7"):
        find_isometry(spin_space(7, (1, 2)), spin_space(7, (2, 4)))


def test_below_needs_a_unit_per_entry():
    # the class test reads one candidate unit per tuple entry
    A, units = lens._class_candidates(9, 4, "oriented")
    for short in (units[:, :-1], units[:, :0]):
        with pytest.raises(ArithmeticError, match="candidate units"):
            lens._below(A, short, 9, "oriented", 0)


def test_huge_q_keys_raise_instead_of_wrapping():
    # canonical forms multiply residues in int64; witnesses use Python ints
    q = 2**61 - 1
    with pytest.raises(OverflowError):
        canonical_key(spin_space(q, (1, 2)))
    assert canonical_key(spin_space(3037000493, (1, 2))).s == (1, 2)
    w = find_isometry(spin_space(q, (1, 2)), spin_space(q, (2, 4)))
    assert w.ell == 2 and w.verify(spin_space(q, (1, 2)), spin_space(q, (2, 4)))


def test_class_candidate_units_invert_their_entries():
    """Every unit _class_candidates lists beside a tuple entry is that
    entry's inverse mod q, an int64 in [0, q), mirror rows included:
    q = 1..60, m = 2..7, both modes.  Every tuple starts with 1 mod q, so
    its first unit is 1, which _below skips: at q > 2 it fixes each
    (tuple, label) row (at q <= 2 every unit is 1)."""
    for m in range(2, 8):
        for q in range(1, 61):
            if q % 2 == 0 and m % 2 == 1:
                continue
            for mode in ("oriented", "unoriented"):
                A, units = lens._class_candidates(q, m, mode)
                assert units.dtype == np.int64 and units.shape == A.shape, (q, m, mode)
                assert ((units >= 0) & (units < q)).all(), (q, m, mode)
                assert (A * units % q == 1 % q).all(), (q, m, mode)
                assert (A[:, 0] == 1 % q).all() and (units[:, 0] == 1 % q).all(), (q, m, mode)
                for h in range(2 - q % 2) if q > 2 else ():
                    image = lens._image(A, units[:, 0], q, mode, h)
                    assert np.array_equal(image, np.column_stack([A, np.full(len(A), h)])), \
                        (q, m, mode, h)


def test_mismatch_raises():
    with pytest.raises(Mismatch):
        find_lens_isometry(LensParams(7, (1, 2)), LensParams(5, (1, 2)))
    with pytest.raises(Mismatch):
        find_isometry(spin_space(7, (1, 2)), spin_space(7, (1, 2, 3)))
    with pytest.raises(Mismatch):
        find_isometry(spin_space(8, (1, 3), "h0"), spin_space(7, (1, 2)))


def test_found_witnesses_always_verify():
    rng = random.Random(7)
    for _ in range(120):
        q = rng.randrange(1, 21)
        m = rng.randrange(2, 5)
        us = units(q)
        s_a = tuple(rng.choice(us) + q * rng.randrange(-1, 2) for _ in range(m))
        s_b = tuple(rng.choice(us) + q * rng.randrange(-1, 2) for _ in range(m))
        a, b = LensParams(q, s_a), LensParams(q, s_b)
        for mode in ("any", "preserving", "reversing"):
            w = find_lens_isometry(a, b, mode)
            if w is not None:
                sa = spin_structures(a)
                sb = spin_structures(b)
                if sa and sa[0].h is None:
                    from lensdirac.lens import SpinLensSpace
                    assert w.verify(SpinLensSpace(a, sa[0]),
                                    SpinLensSpace(b, sb[0]), mode)
                else:
                    # check the bare congruences by hand
                    assert all(
                        (w.ell * w.eps[j] * a.s[j] - b.s[w.sigma[j]]) % q == 0
                        for j in range(m))
                    if mode == "preserving":
                        assert w.orientation == 1
                    if mode == "reversing":
                        assert w.orientation == -1


def test_search_matches_brute_force_m2():
    # exhaustive over all ordered unit pairs for several moduli
    for q in (1, 2, 3, 4, 5, 7, 8, 9, 12):
        tuples = list(product(units(q) or [0], repeat=2))
        spaces = [LensParams(q, t) for t in tuples]
        for a in spaces:
            for b in spaces:
                for mode in ("any", "preserving", "reversing"):
                    got = find_lens_isometry(a, b, mode) is not None
                    want = brute_witness_exists(a, b, mode)
                    assert got == want, (q, a.s, b.s, mode)


def test_search_matches_brute_force_m3_sampled():
    rng = random.Random(23)
    for q in (5, 6, 7, 8, 10, 13):
        us = units(q)
        pool = [tuple(rng.choice(us) for _ in range(3)) for _ in range(9)]
        for s_a, s_b in product(pool, repeat=2):
            a, b = LensParams(q, s_a), LensParams(q, s_b)
            for mode in ("any", "preserving", "reversing"):
                got = find_lens_isometry(a, b, mode) is not None
                want = brute_witness_exists(a, b, mode)
                assert got == want, (q, s_a, s_b, mode)


def test_spin_search_matches_brute_force_even_q():
    rng = random.Random(41)
    for q in (2, 4, 6, 8, 10, 12, 16):
        us = units(q)
        pool = [tuple(rng.choice(us) + q * rng.randrange(-1, 2) for _ in range(2))
                for _ in range(8)]
        for s_a, s_b in product(pool, repeat=2):
            a, b = LensParams(q, s_a), LensParams(q, s_b)
            for ha, hb in product((0, 1), repeat=2):
                for mode in ("any", "preserving", "reversing"):
                    xa = spin_space(q, s_a, f"h{ha}")
                    xb = spin_space(q, s_b, f"h{hb}")
                    w = find_isometry(xa, xb, mode)
                    want = brute_witness_exists(a, b, mode, ha, hb)
                    assert (w is not None) == want, (q, s_a, s_b, ha, hb, mode)
                    if w is not None:
                        assert w.verify(xa, xb, mode)


def test_spin_search_matches_brute_force_m4():
    rng = random.Random(59)
    for q in (2, 4, 8, 16):
        us = units(q)
        pool = [tuple(rng.choice(us) for _ in range(4)) for _ in range(5)]
        for s_a, s_b in product(pool, repeat=2):
            for ha, hb in product((0, 1), repeat=2):
                xa = spin_space(q, s_a, f"h{ha}")
                xb = spin_space(q, s_b, f"h{hb}")
                w = find_isometry(xa, xb, "any")
                want = brute_witness_exists(xa.lens, xb.lens, "any", ha, hb)
                assert (w is not None) == want, (q, s_a, s_b, ha, hb)


# --------------------------------------------------------- canonical keys

def test_canonical_key_frozen_values():
    assert canonical_key(spin_space(7, (1, 2)), "unoriented").s == (1, 2)
    assert canonical_key(spin_space(7, (1, 3)), "unoriented").s == (1, 2)
    assert canonical_key(spin_space(7, (1, 3)), "oriented").s == (1, 3)
    assert canonical_key(spin_space(7, (1, 2)), "oriented").s == (1, 2)
    k = canonical_key(spin_space(16, (1, 3, 5, 7), "h1"), "oriented")
    # the l = 11 self-isometry exchanges the labels, so h0 wins the tie
    assert k.spin == "h0"
    assert canonical_key(spin_space(16, (1, 3, 5, 7), "h0"), "oriented") == k


def test_canonical_key_q_one_and_two():
    assert canonical_key(spin_space(1, (1, 1, 1)), "oriented").s == (0, 0, 0)
    a = canonical_key(spin_space(2, (1, 1), "h0"), "unoriented")
    b = canonical_key(spin_space(2, (1, 1), "h1"), "unoriented")
    assert a == b  # antipodal-type reversal exchanges the two structures
    ao = canonical_key(spin_space(2, (1, 1), "h0"), "oriented")
    bo = canonical_key(spin_space(2, (1, 1), "h1"), "oriented")
    assert ao != bo


def test_canonical_key_representative_is_in_orbit():
    rng = random.Random(97)
    for _ in range(60):
        q = rng.randrange(3, 26)
        m = rng.choice((2, 3, 4))
        us = units(q)
        s = tuple(rng.choice(us) for _ in range(m))
        labels = spin_structures(LensParams(q, s))
        if not labels:
            continue
        x = spin_space(q, s, rng.choice(labels).tag)
        for mode, iso_mode in (("oriented", "preserving"), ("unoriented", "any")):
            key = canonical_key(x, mode)
            rep = key.as_space()
            w = find_isometry(x, rep, iso_mode)
            assert w is not None, (q, s, x.spin.tag, mode)
            assert canonical_key(rep, mode) == key


def test_oriented_key_is_the_brute_force_minimum():
    """The oriented canonical key is the lexicographic minimum of
    (sorted (eps_j * l * s_j) mod q, transported label) over units l and
    sign vectors eps with an even number of -1 entries."""
    for m in (2, 3, 4):
        for q in range(1, 16 if m < 4 else 12):
            if q % 2 == 0 and m % 2 == 1:
                continue
            even_signs = [e for e in product((1, -1), repeat=m)
                          if e.count(-1) % 2 == 0]
            for s in combinations_with_replacement(units(q), m):
                for label in spin_structures(LensParams(q, s)):
                    h = label.h or 0
                    want = min(
                        (tuple(sorted(x % q for x in xs)),
                         (h + sum(x // q for x in xs)) % 2)
                        for ell in units(q) for eps in even_signs
                        for xs in [[e * ell * sj for e, sj in zip(eps, s)]])
                    key = canonical_key(spin_space(q, s, label.tag), "oriented")
                    spin = "unique" if label.h is None else f"h{want[1]}"
                    assert (key.s, key.spin) == (want[0], spin), (q, s, label)


def test_unoriented_key_is_the_brute_force_minimum():
    """The unoriented canonical key is the lexicographic minimum of
    (sorted (eps_j * l * s_j) mod q, transported label) over units l and
    all sign vectors eps.  The signs are enumerated: at q = 2 a flip
    moves the label without moving the tuple."""
    for m in (2, 3, 4):
        for q in range(1, 22 if m < 4 else 14):
            if q % 2 == 0 and m % 2 == 1:
                continue
            signs = list(product((1, -1), repeat=m))
            for s in combinations_with_replacement(units(q), m):
                for label in spin_structures(LensParams(q, s)):
                    h = label.h or 0
                    want = min(
                        (tuple(sorted(x % q for x in xs)),
                         (h + sum(x // q for x in xs)) % 2)
                        for ell in units(q) for eps in signs
                        for xs in [[e * ell * sj for e, sj in zip(eps, s)]])
                    key = canonical_key(spin_space(q, s, label.tag), "unoriented")
                    spin = "unique" if label.h is None else f"h{want[1]}"
                    assert (key.s, key.spin) == (want[0], spin), (q, s, label)


def reference_class_rows(q, m, mode):
    """Every sorted candidate (1 mod q, f_2 <= ... <= f_m, label) from the
    folded units, oriented mirrors of even m included, and the canonical
    form of each, the lexicographic minimum of its _image rows, with no
    prefilter."""
    folded = [f for f in range(q // 2 + 1) if math.gcd(f, q) == 1]
    tuples = [(1 % q,) + rest for rest in combinations_with_replacement(folded, m - 1)]
    if mode == "oriented" and m % 2 == 0 and q > 2:
        tuples += [t[:-1] + (q - t[-1],) for t in tuples]
    S = np.array(tuples, dtype=np.int64)
    inverse = np.array([pow(v, -1, q) if math.gcd(v, q) == 1 else 0
                        for v in range(q)], dtype=np.int64)
    units = inverse[S]
    # rows of m entries below q and a label, read as numbers in base q + 1
    weights = (q + 1) ** np.arange(m, -1, -1)
    rows, canon = [], []
    for h in (0,) if q % 2 else (0, 1):
        images = np.array([lens._image(S, ell, q, mode, h) for ell in units.T])
        rows.append(np.column_stack([S, np.full(len(S), h)]))
        canon.append(images[(images @ weights).argmin(axis=0), np.arange(len(S))])
    return np.vstack(rows), np.vstack(canon)


def row_keys(rows):
    """One opaque key per row, for set operations on int64 rows."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def test_class_rows_prefilter_drops_only_noncanonical_rows():
    """_class_rows equals the canonical-form filter over both label rows
    of every candidate tuple (the reference for its one test per tuple),
    and each tuple whose prefix _class_candidates drops has no label row
    that is its own canonical form: q = 1..40 (q <= 2, where nothing is
    dropped), m = 2..7 (m = 2, where no prefix is tested), both modes
    (oriented mirrors)."""
    dropped = 0
    for m in range(2, 8):
        for q in range(1, 41):
            if q % 2 == 0 and m % 2 == 1:
                continue
            for mode in ("oriented", "unoriented"):
                rows, canon = reference_class_rows(q, m, mode)
                fixed = np.all(canon == rows, axis=1)
                want = rows[fixed][np.lexsort(rows[fixed].T[::-1])]
                assert np.array_equal(lens._class_rows(q, m, mode), want), (q, m, mode)
                tuples = np.unique(rows[:, :-1], axis=0)
                canonical = np.isin(row_keys(tuples), row_keys(rows[fixed, :-1]))
                survivors, _ = lens._class_candidates(q, m, mode)
                kept = np.isin(row_keys(tuples), row_keys(survivors))
                assert kept.sum() == len(survivors), (q, m, mode)  # a subset
                assert not canonical[~kept].any(), (q, m, mode, tuples[~kept & canonical][:1])
                if q <= 2 or m == 2:
                    assert kept.all(), (q, m, mode)
                dropped += (~kept).sum()
    assert dropped > 0


def test_class_rows_come_out_strictly_increasing():
    """_class_rows lists its rows in strictly increasing lex order with no
    sort, past the brute-force reference's q <= 40, where mirror entries
    above q/2 must still follow the folded values of their prefix:
    m = 4 at q = 41..100 and m = 8 at q = 64, both modes."""
    for q, m in [(q, 4) for q in range(41, 101)] + [(64, 8)]:
        for mode in ("oriented", "unoriented"):
            rows = lens._class_rows(q, m, mode)
            step = np.diff(rows, axis=0)
            first = (step != 0).argmax(axis=1)
            assert (step[np.arange(len(step)), first] > 0).all(), (q, m, mode)


def test_every_proper_prefix_of_a_class_row_passes_the_class_test(monkeypatch):
    """The lemma behind orderly generation: adding entries only lowers the
    order statistics of an image, so a prefix (1, f_2, ..., f_c), c < m,
    that a unit sends below itself has no class row among its extensions,
    mirrors and labels included.  Every candidate that the prefix tests
    drop is sent below itself by one of its units (so neither label row
    is a class), and every proper prefix of each class row passes the
    unoriented test: q = 1..60, m = 2..7, both modes (odd m once, being
    amphichiral)."""
    real = lens._below
    for m in range(2, 8):

        def full_tuples_only(S, units, q, mode, h=None):
            if S.shape[1] < m:
                return np.zeros(len(S), dtype=bool), np.zeros(len(S), dtype=bool)
            return real(S, units, q, mode, h)

        for q in range(1, 61):
            if q % 2 == 0 and m % 2 == 1:
                continue
            inverse = np.array([pow(v, -1, q) if math.gcd(v, q) == 1 else 0
                                for v in range(q)], dtype=np.int64)
            weights = (q + 1) ** np.arange(m - 1, -1, -1)  # a tuple as one number
            for mode in ("oriented", "unoriented")[m % 2:]:
                monkeypatch.setattr(lens, "_below", full_tuples_only)
                S, units = lens._class_candidates(q, m, mode)
                monkeypatch.setattr(lens, "_below", real)
                kept, _ = lens._class_candidates(q, m, mode)
                dropped = ~np.isin(S @ weights, kept @ weights)
                assert len(S) - dropped.sum() == len(kept), (q, m, mode)
                S, units = S[dropped], units[dropped]
                for j in reversed(range(m)):  # the units of large entries drop most
                    image = lens._image(S, units[:, j], q, mode)
                    first = (image != S).argmax(axis=1)
                    rows = np.arange(len(S))
                    below = image[rows, first] < S[rows, first]
                    S, units = S[~below], units[~below]
                assert len(S) == 0, (q, m, mode, S[:1])
                rows = lens._class_rows(q, m, mode)  # sorted, so equal prefixes are adjacent
                for c in range(2, m):
                    prefix = rows[np.diff(rows[:, :c], axis=0, prepend=-1).any(axis=1), :c]
                    below, _ = lens._below(prefix, inverse[prefix], q, "unoriented")
                    assert not below.any(), (q, m, mode, c)


def test_class_rows_memory_is_bounded():
    """Oriented dimension 9 at q = 101: 292,825 candidates, 63,251
    classes.  Pruned prefixes are never extended, so the peak stays
    well below the 121 MB that canonical forms of every candidate took."""
    tracemalloc.start()
    try:
        rows = lens._class_rows(101, 5, "oriented")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 63_251
    assert peak < 64 << 20


def test_huge_q_class_rows_raise_before_any_product(monkeypatch):
    """The class test multiplies residues in int64, so q^2 must stay
    below 2^63; the guard fires before the folded units are even listed."""

    def no_units(*args):
        raise AssertionError("folded units listed past the guard")

    monkeypatch.setattr(lens, "math", SimpleNamespace(gcd=no_units))
    for q in (3037000500, 2**61 - 1):
        with pytest.raises(OverflowError):
            lens._class_rows(q, 2, "unoriented")
        with pytest.raises(OverflowError):
            lens._class_candidates(q, 4, "oriented")


def test_self_isometry_is_the_identity():
    """find_isometry(x, x, "preserving") pairs equal values in order: the
    smallest unit (0 at q = 1), the identity sigma and no sign flips, also
    when folded values repeat."""
    rng = random.Random(1401)
    for _ in range(400):
        q = rng.randrange(1, 60)
        m = rng.choice((2, 4, 6)) if q % 2 == 0 else rng.randrange(2, 8)
        pool = rng.sample(units(q), min(2, len(units(q))))
        s = [rng.choice(pool) * rng.choice((1, -1)) + q * rng.randrange(-1, 2)
             for _ in range(m)]
        x = spin_space(q, s, rng.choice(spin_structures(LensParams(q, s))).tag)
        w = find_isometry(x, x, "preserving")
        assert (w.ell, w.sigma, w.eps) == (1 % q, tuple(range(m)), (1,) * m), x
        assert w.verify(x, x, "preserving")


def test_dimension_4k_plus_1_is_amphichiral():
    """For odd m, l = -1 with every eps_j = -1 fixes each tuple and
    reverses orientation, so oriented and unoriented classes agree."""
    for n, q_max in ((5, 61), (9, 41), (13, 27)):
        for q in range(1, q_max + 1, 2):  # even q: no spin structure
            oriented = enumerate_classes(n, q, "oriented")
            assert oriented == enumerate_classes(n, q, "unoriented"), (n, q)
    rng = random.Random(4101)
    for _ in range(300):
        q = 2 * rng.randrange(1, 100) + 1
        m = rng.choice((3, 5, 7, 9))
        us = units(q)
        x = spin_space(q, [rng.choice(us) + q * rng.randrange(-2, 3)
                           for _ in range(m)])
        assert find_isometry(x, x, "reversing") is not None, x
        assert canonical_key(x, "oriented").s == canonical_key(x, "unoriented").s, x


def test_witnesses_match_a_loop_over_every_unit():
    """Trying only l = +-b_1 * a_j^-1 yields the same (l, orientation,
    spin shift) sequence as trying every unit whose folded multiset
    matches, with the parities forced by the module docstring's
    formulas, on related and unrelated pairs."""

    def every_unit(sn_a, sn_b, q):
        fb = sorted(min(u, q - u) for u in sn_b)
        u_high = sum(2 * u > q for u in sn_b)
        for ell in units(q):
            v = [(ell * x) % q for x in sn_a]
            if sorted(min(x, q - x) for x in v) != fb:
                continue
            parity = (sum(2 * x > q for x in v) + u_high) % 2
            rho = (sum((ell * x) // q for x in sn_a) + parity) % 2
            yield ell, (-1) ** parity, rho

    rng = random.Random(2024)
    related = 0
    for i in range(1500):
        q = rng.randrange(3, 201)
        m = rng.randrange(2, 10)
        us = units(q)
        sn_a = tuple(rng.choice(us) for _ in range(m))
        if i % 2:
            ell = rng.choice(us)
            sn_b = [(ell * rng.choice((1, -1)) * x) % q for x in sn_a]
            rng.shuffle(sn_b)
            sn_b = tuple(sn_b)
        else:
            sn_b = tuple(rng.choice(us) for _ in range(m))
        got = [(w.ell, w.orientation, w.spin_shift)
               for w in lens._witnesses(LensParams(q, sn_a), LensParams(q, sn_b))]
        assert got == list(every_unit(sn_a, sn_b, q)), (q, sn_a, sn_b)
        related += bool(got)
    assert related >= 750


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_canonical_key_separates_orbits(data):
    q = data.draw(st.integers(min_value=1, max_value=15))
    m = data.draw(st.integers(min_value=2, max_value=3))
    us = units(q)
    s_a = tuple(data.draw(st.sampled_from(us)) for _ in range(m))
    s_b = tuple(data.draw(st.sampled_from(us)) for _ in range(m))
    labels = spin_structures(LensParams(q, s_a))
    if not labels:
        return
    xa = spin_space(q, s_a, data.draw(st.sampled_from(labels)).tag)
    xb = spin_space(q, s_b, data.draw(st.sampled_from(labels)).tag)
    for mode, iso_mode in (("oriented", "preserving"), ("unoriented", "any")):
        keys_equal = canonical_key(xa, mode) == canonical_key(xb, mode)
        related = find_isometry(xa, xb, iso_mode) is not None
        assert keys_equal == related, (xa, xb, mode)


@pytest.mark.parametrize("q", [1, 2])
def test_free_flip_prefers_the_preserving_witness(q):
    """At q <= 2 every sign is free, so each unit has witnesses of both
    orientations; mode "any" returns an orientation-preserving one
    whenever one exists (brute force), for both labels at q = 2; bare
    lens spaces always have one."""
    rng = random.Random(2200 + q)
    preserving = 0
    for _ in range(150):
        m = rng.choice((2, 4)) if q == 2 else rng.randrange(2, 5)
        # raw parameters: any integer at q = 1, any odd one at q = 2
        sa, sb = ([rng.randrange(-6, 6) if q == 1 else 2 * rng.randrange(-3, 3) + 1
                   for _ in range(m)] for _ in "ab")
        a, b = LensParams(q, sa), LensParams(q, sb)
        assert find_lens_isometry(a, b, "any").orientation == 1, (a, b)
        for ha, hb in product(*(spin_structures(x) for x in (a, b))):
            xa, xb = spin_space(q, sa, ha.tag), spin_space(q, sb, hb.tag)
            w = find_isometry(xa, xb, "any")
            assert w is not None and w.verify(xa, xb, "any"), (xa, xb)
            exists = brute_witness_exists(a, b, "preserving", ha.h, hb.h)
            assert (w.orientation == 1) == exists, (xa, xb)
            preserving += exists
    assert preserving >= 100


@pytest.mark.parametrize("call, mode", [
    (lambda x, mode: IsometryWitness(1, (0, 1), (1, 1), 0).verify(x, x, mode), "preserve"),
    (lambda x, mode: find_isometry(x, x, mode), "reverse"),
    (lambda x, mode: find_lens_isometry(x.lens, x.lens, mode), "Any"),
    (lambda x, mode: canonical_key(x, mode), "orientated"),
    (lambda x, mode: run_census(3, [7], mode), "unorientd"),
    (lambda x, mode: enumerate_classes(3, 7, mode), "oriented "),
], ids=["verify", "find_isometry", "find_lens_isometry", "canonical_key",
        "run_census", "enumerate_classes"])
def test_unknown_mode_raises(call, mode):
    with pytest.raises(ValueError, match="unknown mode"):
        call(spin_space(7, (1, 2)), mode)


def test_self_transport_pairs_q16():
    pairs = self_transport_pairs((1, 3, 5, 7), 16)
    assert (0, 1) in pairs   # preserving isometry that swaps the spins
    assert (0, 0) in pairs   # identity


def test_self_transport_pairs_stop_once_all_four_occur():
    # L(5; 1, 2) has self-isometries of both orientations, each with both
    # spin transports, so the loop stops on the fourth pair it sees
    pairs = self_transport_pairs((1, 2), 5)
    assert pairs == {(0, 0), (0, 1), (1, 0), (1, 1)}
