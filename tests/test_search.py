import json
import math
import os
import random
from dataclasses import replace
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from lensdirac import lattice, lens, search, spectrum
from lensdirac.lattice import ReducedCountTable
from lensdirac.lens import (
    NoSpinStructure,
    SpinLensSpace,
    canonical_key,
    LensParams,
    find_isometry,
    self_transport_pairs,
    spin_space,
    spin_structures,
)
from lensdirac.numtheory import series_field
from lensdirac.search import (
    FORMAT_VERSION,
    FormatError,
    IoError,
    IsospectralFamily,
    VerificationFailed,
    enumerate_classes,
    export_csv,
    load_results,
    mirror_pair,
    run_census,
    save_results,
    spin_pair,
    tower_family,
    verify_family,
)
from lensdirac.spectrum import dirac_isospectral, fingerprint, spectrum_table
from reference import units

_census_memo = {}


def census(n, q, mode="unoriented"):
    key = (n, q, mode)
    if key not in _census_memo:
        _census_memo[key] = run_census(n, [q], mode)[0]
    return _census_memo[key]


def member_sets(res):
    """Families as frozensets of (s, spin) pairs."""
    return {
        frozenset((x.lens.s, x.spin.tag) for x in fam.members)
        for fam in res.families
    }


def all_spaces(n, q):
    """Every coprime parameter tuple with every admissible spin label."""
    m = (n + 1) // 2
    out = []
    for s in product(units(q), repeat=m):
        lens = LensParams(q, s)
        for label in spin_structures(lens):
            out.append(SpinLensSpace(lens, label))
    return out


# ---------------------------------------------------------------- enumeration

def test_enumerate_dim3_q5():
    reps = enumerate_classes(3, 5, "unoriented")
    assert [x.s for x in reps] == [(1, 1), (1, 2)]
    # oriented mode splits off the mirror of L(5;1,1)
    reps = enumerate_classes(3, 5, "oriented")
    assert [x.s for x in reps] == [(1, 1), (1, 2), (1, 4)]


def test_enumerate_q2_projective_space():
    reps = enumerate_classes(7, 2, "oriented")
    assert [(x.s, x.spin.tag) for x in reps] == [
        ((1, 1, 1, 1), "h0"), ((1, 1, 1, 1), "h1")]
    # a reflection exchanges the two structures, so unoriented merges them
    reps = enumerate_classes(7, 2, "unoriented")
    assert [(x.s, x.spin.tag) for x in reps] == [((1, 1, 1, 1), "h0")]


def test_enumerate_sphere_class():
    reps = enumerate_classes(3, 1)
    assert len(reps) == 1 and reps[0].q == 1


def test_enumerate_no_spin_structure():
    with pytest.raises(NoSpinStructure):
        enumerate_classes(9, 4)
    res = run_census(9, [4])[0]
    assert res.families == () and res.classes == 0
    assert "no spin structure" in res.note


def test_enumerate_validation():
    with pytest.raises(ValueError):
        enumerate_classes(4, 5)
    with pytest.raises(ValueError):
        enumerate_classes(1, 5)
    with pytest.raises(ValueError):
        enumerate_classes(3, 0)
    with pytest.raises(ValueError):
        enumerate_classes(3, 5, "sideways")


def test_enumerate_agrees_with_canonical_keys():
    """Representatives are exactly one per canonical key, and each is its
    own key's space, over every admissible small (n, q, mode)."""
    cases = [(3, q) for q in range(1, 11)] + \
            [(5, q) for q in (1, 3, 5, 7, 9)] + \
            [(7, q) for q in (2, 3, 4, 5, 6, 8)]
    for n, q in cases:
        for mode in ("oriented", "unoriented"):
            reps = enumerate_classes(n, q, mode)
            keys = [canonical_key(x, mode) for x in reps]
            assert len(set(keys)) == len(reps), (n, q, mode)
            for x, k in zip(reps, keys):
                assert k.as_space() == x, (n, q, mode, x)
            universe = {canonical_key(x, mode) for x in all_spaces(n, q)}
            assert set(keys) == universe, (n, q, mode)


def _split_by_self_relations(tup, q, mode):
    """Reference spin split, one tuple at a time: h1 is its own class
    unless a self-relation of the mode transports the label (orientation
    parity 0, or either parity when unoriented)."""
    pairs = self_transport_pairs(tup, q)
    exchanged = (0, 1) in pairs or (mode == "unoriented" and (1, 1) in pairs)
    return ["h0"] if exchanged else ["h0", "h1"]


@pytest.mark.parametrize("m, q_max", [(2, 120), (4, 64), (6, 30)])
def test_spin_split_matches_self_relations(m, q_max):
    for q in range(2, q_max + 1, 2):
        for mode in ("oriented", "unoriented"):
            tags = {}
            for x in enumerate_classes(2 * m - 1, q, mode):
                tags.setdefault(x.s, []).append(x.spin.tag)
            for tup, got in tags.items():
                assert got == _split_by_self_relations(tup, q, mode), (q, mode, tup)


def test_enumerate_raises_without_a_unit_per_entry(monkeypatch):
    # the class test reads one candidate unit per tuple entry
    real = lens._class_candidates

    def no_units(q, m, mode):
        A, _ = real(q, m, mode)
        return A, np.empty((len(A), 0), dtype=np.int64)

    monkeypatch.setattr(lens, "_class_candidates", no_units)
    with pytest.raises(ArithmeticError, match="candidate units"):
        enumerate_classes(7, 9, "oriented")


def test_fingerprint_constant_on_oriented_class():
    # replacing a space by its oriented canonical representative must not
    # change the spectrum
    rng = random.Random(4021)
    done = 0
    while done < 40:
        q = rng.randrange(3, 21)
        m = rng.choice([2, 3, 4])
        if q % 2 == 0 and m % 2 == 1:
            continue
        s = tuple(rng.choice(units(q)) for _ in range(m))
        label = None if q % 2 else rng.choice(["h0", "h1"])
        x = spin_space(q, s, label)
        rep = canonical_key(x, "oriented").as_space()
        assert fingerprint(x).rows == fingerprint(rep).rows, (x, rep)
        done += 1


# -------------------------------------------------------------------- census

def test_census_q49_unoriented():
    res = census(7, 49)
    assert res.classes == 506
    assert member_sets(res) == {
        frozenset({((1, 6, 8, 20), "unique"), ((1, 6, 8, 22), "unique")})}
    assert res.families[0].trivial_flags == (False,)


def test_census_q49_oriented():
    res = census(7, 49, "oriented")
    assert res.classes == 1012
    assert member_sets(res) == {
        frozenset({((1, 6, 8, 20), "unique"), ((1, 6, 8, 27), "unique")}),
        frozenset({((1, 6, 8, 22), "unique"), ((1, 6, 8, 29), "unique")}),
    }


def test_census_q81_three_families():
    res = census(7, 81)
    assert member_sets(res) == {
        frozenset({((1, 8, 10, 26), "unique"), ((1, 8, 10, 28), "unique")}),
        frozenset({((1, 8, 10, 35), "unique"), ((1, 8, 10, 37), "unique")}),
        frozenset({((1, 8, 19, 37), "unique"), ((1, 8, 26, 37), "unique")}),
    }


def test_census_families_verify_from_scratch():
    for q, mode in [(49, "unoriented"), (49, "oriented"), (81, "unoriented")]:
        res = census(7, q, mode)
        assert res.families
        for fam in res.families:
            verify_family(fam.members,
                          expect_nonisometric=not any(fam.trivial_flags),
                          up_to_reflection=(mode == "unoriented"))


def test_census_dim5_small_sweep_is_empty():
    results = run_census(5, range(1, 30))
    for res in results:
        if res.q % 2 == 0:
            assert "no spin structure" in res.note
        else:
            assert res.families == (), res.q


def test_census_grouping_matches_spectrum_tables():
    """Fingerprint grouping must equal grouping by the actual multiplicity
    tables out to the determining range k < mq (checked past it, 3mq/2)."""
    for n, q in [(3, 5), (3, 8), (3, 12), (7, 4), (7, 9), (7, 12)]:
        m = (n + 1) // 2
        kmax = 3 * m * q // 2
        for mode in ("oriented", "unoriented"):
            reps = enumerate_classes(n, q, mode)
            by_spec = {}
            for x in reps:
                tab = tuple((lm.minus, lm.plus) for lm in spectrum_table(x, kmax))
                if mode == "unoriented":
                    tab = min(tab, tuple((p, mn) for mn, p in tab))
                by_spec.setdefault(tab, set()).add(x)
            spec_partition = {frozenset(v) for v in by_spec.values()}
            fams = census_partition = {
                frozenset(fam.members)
                for fam in run_census(n, [q], mode)[0].families}
            assert {g for g in spec_partition if len(g) > 1} == census_partition, \
                (n, q, mode)


def _families_from_full_tables(n, q, mode):
    """The one-phase census: group every class on its full table."""
    reps = enumerate_classes(n, q, mode)
    groups = {}
    for x in reps:
        rows = fingerprint(x).rows
        if mode == "unoriented":
            rows = min(rows, tuple((odd, even) for even, odd in rows))
        groups.setdefault(rows, []).append(x)
    m = (n + 1) // 2
    return [(ReducedCountTable(q, m, rows).digest(), tuple(members),
             tuple(find_isometry(a, b, "any") is not None
                   for a, b in combinations(members, 2)))
            for rows, members in groups.items() if len(members) > 1]


@pytest.mark.parametrize("bits", [0, 1, None], ids=["0", "1", "sketch"])
def test_two_phase_census_matches_full_table_grouping(monkeypatch, bits):
    """Keeping only 0 or 1 low bits of each sketch value, plus and minus
    sums alike, makes every or many classes collide in the first phase,
    so the full tables of the second phase must separate them.  Each sum
    is folded to min(x, p - x) before the mask, so a minus sum and its
    negative (a reflected table's) keep equal masked values."""
    if bits is not None:
        mask, full = (1 << bits) - 1, lattice._sketch_sums

        def masked(q, s, h, sign):
            x, p = full(q, s, h, sign), series_field(q, 1 << 30)[0]
            return np.minimum(x, p - x) & mask

        monkeypatch.setattr(lattice, "_sketch_sums", masked)
    constant = bits == 0
    cases = [(n, q) for n in (3, 5, 7) for q in range(1, 31)
             if not (q % 2 == 0 and n % 4 == 1)]
    cases += [(7, 32), (9, 23), (11, 24)]
    found = 0
    for n, q in cases:
        for mode in ("oriented", "unoriented"):
            res = run_census(n, [q], mode)[0]
            got = [(f.digest, f.members, f.trivial_flags) for f in res.families]
            assert got == _families_from_full_tables(n, q, mode), (n, q, mode)
            assert res.fingerprints <= res.classes
            if constant and res.classes > 1:
                assert res.fingerprints == res.classes
            found += len(got)
    assert found == 8


def test_census_counts_only_colliding_full_tables():
    res = census(7, 49)
    assert res.classes == 506 and res.fingerprints == 2


def test_census_second_sketch_stage_separates_equal_plus_sums():
    """At these q two classes share a plus sum but not a table, so plus
    sums alone would send both to a full table."""
    assert run_census(7, [65])[0].fingerprints == 0
    assert run_census(11, [17])[0].fingerprints == 0


def spy_sketch_sums(monkeypatch):
    """Record (q, sign, rows) of every sketch stage a census runs."""
    calls, real = [], lattice._sketch_sums

    def spy(q, s, h, sign):
        calls.append((q, sign, len(s)))
        return real(q, s, h, sign)

    monkeypatch.setattr(lattice, "_sketch_sums", spy)
    return calls


def test_oriented_even_m_census_buckets_on_minus_sums_first(monkeypatch):
    """A space and its mirror image share the plus sum but not the minus
    sum, so an oriented census with even m buckets on the minus sum
    first.  In dimension 7 at q = 40..60 that stage leaves only the rows
    of the two families (at q = 49), so the plus stage separates none."""
    calls = spy_sketch_sums(monkeypatch)
    results = run_census(7, range(40, 61), "oriented")
    assert [(q, sign) for q, sign, _ in calls if sign == -1] == [
        (r.q, -1) for r in results]
    assert [(q, rows) for q, sign, rows in calls if sign == 1] == [
        (r.q, r.fingerprints) for r in results if r.fingerprints] == [(49, 4)]
    assert sum(len(r.families) for r in results) == 2


def test_sketch_tables_of_a_sign_are_built_only_when_read(monkeypatch):
    """Odd m never reads the minus sum, and a census whose plus sums never
    collide runs no minus stage: neither gathers a T- table, which only
    _sketch_sums builds, for the sign it sums."""
    calls = spy_sketch_sums(monkeypatch)
    for mode in ("oriented", "unoriented"):
        assert run_census(9, [23], mode)[0].fingerprints == 3
    assert run_census(7, [29])[0].classes == 172
    signs = [sign for _, sign, _ in calls]
    assert signs and set(signs) == {1}
    # where plus sums collide, the minus stage builds T- and reads it
    assert run_census(7, [49])[0].fingerprints == 2
    assert -1 in [sign for _, sign, _ in calls]


def test_census_clears_the_table_caches_after_each_q():
    """Half, full and sketch tables are keyed by q, so run_census drops
    them when each q finishes.  q = 40 and 41 build sketch factors only;
    q = 49 fingerprints two classes, so it builds full and half tables."""
    results = run_census(7, [40, 41, 49])
    assert results[-1].fingerprints == 2
    for cached in (lattice._half_table, lattice._full_table, lattice._sketch_factors):
        assert cached.cache_info().currsize == 0, cached


def test_census_clears_the_table_caches_of_a_failed_q(monkeypatch):
    """A q that fails after building tables (here the second fingerprint
    at q = 75) leaves none of them in the caches."""
    real, calls = search.fingerprint, []

    def fail_second(x):
        calls.append(x)
        if len(calls) == 2:
            raise RuntimeError("second fingerprint")
        return real(x)

    monkeypatch.setattr(search, "fingerprint", fail_second)
    with pytest.raises(RuntimeError, match="second fingerprint"):
        run_census(7, [75])
    for cached in (lattice._half_table, lattice._full_table, lattice._sketch_factors):
        assert cached.cache_info().currsize == 0, cached


# (n, q): unoriented and oriented (classes, classes with label 1)
EVEN_Q_CLASS_COUNTS = {
    (7, 76): ((670, 335), (1_340, 670)),
    (7, 78): ((232, 116), (464, 232)),
    (7, 80): ((500, 248), (1_000, 496)),
    (7, 196): ((7_106, 3_553), (14_212, 7_106)),
    (11, 40): ((434, 212), (868, 424)),
    (11, 44): ((1_008, 504), (2_016, 1_008)),
    (11, 48): ((434, 212), (868, 424)),
    (19, 24): ((146, 70), (292, 140)),
}


@pytest.mark.parametrize("n, q", sorted(EVEN_Q_CLASS_COUNTS))
def test_even_q_class_counts(n, q):
    """Even-q class counts and their label-1 share, as recorded when
    both label rows of every tuple went through the canonical form."""
    for mode, want in zip(("unoriented", "oriented"), EVEN_Q_CLASS_COUNTS[n, q]):
        rows = search._census_rows(n, q, mode)
        assert (len(rows), int(rows[:, -1].sum())) == want, (n, q, mode)


def test_census_builds_spaces_only_for_sketch_collisions(monkeypatch):
    """Classes reach the sketch as rows; only the classes that share a
    sketch become spaces and ask for a table by their spin key."""
    built = {"spaces": 0, "keys": 0}
    post_init, reduced_counts = SpinLensSpace.__post_init__, spectrum.reduced_counts

    def counted_post_init(self):
        built["spaces"] += 1
        post_init(self)

    def counted_reduced_counts(x):
        built["keys"] += 1
        return reduced_counts(x)

    monkeypatch.setattr(SpinLensSpace, "__post_init__", counted_post_init)
    monkeypatch.setattr(spectrum, "reduced_counts", counted_reduced_counts)
    res = run_census(7, [49])[0]
    assert (res.classes, res.fingerprints) == (506, 2)
    assert built == {"spaces": 2, "keys": 2}


# ---------------------------------------------------------------- generators

def test_tower_family_r1():
    a, b = tower_family(1)
    assert a.s == (1, 11, 1, 11, 1, 11) and b.s == (1, 11, 1, 11, 21, 31)
    assert a.spin.tag == "h0" and b.spin.tag == "h0"
    # canonical forms land on the dimension-11 census rows
    ka = canonical_key(a, "unoriented")
    kb = canonical_key(b, "unoriented")
    assert ka.s == (1, 1, 1, 11, 11, 11)
    assert kb.s == (1, 1, 9, 11, 11, 19)
    verify_family((a, b))


def test_tower_family_r2_shape():
    fam = tower_family(2)
    assert len(fam) == 3
    assert all(2 * x.m - 1 == 19 and x.q == 40 for x in fam)
    assert fam[0].s == (1, 11) * 5
    assert fam[2].s == (1, 11) * 3 + (21, 31) * 2
    with pytest.raises(ValueError):
        tower_family(0)


def test_spin_pair_canonical_forms():
    expect = {1: (32, (1, 3, 5, 15)), 2: (64, (1, 7, 9, 31)),
              3: (96, (1, 11, 13, 47))}
    for t, (q, canon) in expect.items():
        a, b = spin_pair(t)
        assert (a.q, a.s) == (q, (1, 1 + 4 * t, 1 + 16 * t, 1 + 28 * t))
        assert a.lens == b.lens
        assert (a.spin.tag, b.spin.tag) == ("h0", "h1")
        ka = canonical_key(a, "unoriented")
        kb = canonical_key(b, "unoriented")
        assert ka.s == kb.s == canon
        assert {ka.spin, kb.spin} == {"h0", "h1"}
    with pytest.raises(ValueError):
        spin_pair(0)


def test_spin_pair_is_isospectral_but_not_isometric():
    a, b = spin_pair(1)
    assert dirac_isospectral(a, b)
    assert find_isometry(a, b, "any") is None


def test_mirror_pair_odd_q():
    ((a, b),) = mirror_pair(7)
    assert a.s == (1, 8, 15, 29) and b.s == (1, 43, 36, 22)
    assert {canonical_key(x, "unoriented").s for x in (a, b)} == \
        {(1, 6, 8, 20), (1, 6, 8, 22)}
    verify_family((a, b))


def test_mirror_pair_r9_lands_in_q81_census():
    ((a, b),) = mirror_pair(9)
    assert {canonical_key(x, "unoriented").s for x in (a, b)} == \
        {(1, 8, 10, 26), (1, 8, 10, 28)}


def test_mirror_pair_even_q_crosses_labels():
    pairs = mirror_pair(7, 2)
    assert [(x.spin.tag, y.spin.tag) for x, y in pairs] == \
        [("h0", "h1"), ("h1", "h0")]
    for pair in pairs:
        verify_family(pair)


def test_mirror_pairs_verify_on_the_stated_grid():
    """Every pair for r = 7, 9, 11 and t = 1..4 (q up to 484, both spin
    labels at even q) is strictly isospectral and non-isometric."""
    for r, t in product((7, 9, 11), range(1, 5)):
        pairs = mirror_pair(r, t)
        assert len(pairs) == (2 if r * r * t % 2 == 0 else 1)
        for pair in pairs:
            verify_family(pair)


def test_mirror_pair_validation():
    for bad in (5, 6, 8):
        with pytest.raises(ValueError):
            mirror_pair(bad)
    with pytest.raises(ValueError):
        mirror_pair(7, 0)


# ---------------------------------------------------------------- verifier

def test_verify_family_reports_checks():
    rep = verify_family(tower_family(1))
    text = str(rep)
    assert "isospectral" in text and "non-isometric" in text
    assert len(rep.checks) == 2


def test_verify_family_rejects_corruption():
    a = spin_space(49, (1, 6, 8, 22))
    bad = spin_space(49, (1, 6, 8, 24))
    with pytest.raises(VerificationFailed, match="not isospectral"):
        verify_family((a, bad))


def test_verify_family_rejects_isometric_members():
    a = spin_space(7, (1, 2))
    b = spin_space(7, (2, 4))  # the same class, scaled by 2
    with pytest.raises(VerificationFailed, match="isometric"):
        verify_family((a, b))
    rep = verify_family((a, b), expect_nonisometric=False)
    assert len(rep.checks) == 1


def test_verify_family_shape_errors():
    a = spin_space(49, (1, 6, 8, 22))
    with pytest.raises(ValueError):
        verify_family((a,))
    with pytest.raises(ValueError):
        verify_family((a, spin_space(25, (1, 2, 3, 4))))
    with pytest.raises(VerificationFailed, match="duplicate"):
        verify_family((a, spin_space(49, (1, 6, 8, 22))))


def test_verify_family_up_to_reflection():
    # the mirrored q=49 pair agrees only after reversing one orientation
    a = spin_space(49, (1, 6, 8, 22))
    b = spin_space(49, (1, 6, 8, 20))
    with pytest.raises(VerificationFailed):
        verify_family((a, b))
    rep = verify_family((a, b), up_to_reflection=True)
    assert any("reflection" in line for line in rep.checks)


# -------------------------------------------------------------- persistence

def test_save_load_round_trip(tmp_path):
    results = run_census(7, [49]) + run_census(9, [4])
    path = tmp_path / "census.json"
    save_results(results, str(path))
    loaded = load_results(str(path))
    assert len(loaded) == len(results)
    for got, want in zip(loaded, results):
        assert got.n == want.n and got.q == want.q and got.mode == want.mode
        assert got.families == want.families
        assert got.classes == want.classes
        assert got.note == want.note


def test_save_is_byte_deterministic(tmp_path):
    results = run_census(7, [49])
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_results(results, str(p1))
    save_results(results, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_saved_file_is_the_encoders_bytes_in_one_write(tmp_path, monkeypatch):
    writes = []
    real = search._write_atomically

    def counted(path, write, newline=None):
        def spy(fh):
            real_write = fh.write
            fh.write = lambda text: writes.append(text) or real_write(text)
            write(fh)
        real(path, spy, newline)

    monkeypatch.setattr(search, "_write_atomically", counted)
    path = tmp_path / "census.json"
    save_results(run_census(7, [49]) + run_census(9, [4]), str(path))
    text = path.read_text()
    assert writes == [text]
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_write_steps_past_a_taken_temporary_name(tmp_path):
    """A temporary name already on disk is left alone; the write takes
    the next one, and the target gets the new bytes."""
    target = tmp_path / "out.txt"
    taken = tmp_path / f".out.txt.{os.getpid()}-0.tmp"
    taken.write_text("not ours")
    search._write_atomically(str(target), lambda fh: fh.write("new bytes"))
    assert target.read_text() == "new bytes"
    assert taken.read_text() == "not ours"
    assert sorted(path.name for path in tmp_path.iterdir()) == [taken.name, target.name]


def test_saved_document_shape(tmp_path):
    path = tmp_path / "census.json"
    save_results(run_census(7, [49]), str(path))
    doc = json.loads(path.read_text())
    assert doc["format_version"] == FORMAT_VERSION
    cen = doc["censuses"][0]
    assert cen["dimension"] == 7 and cen["q"] == 49
    fam = cen["families"][0]
    assert fam["trivial"] is False
    member = fam["members"][0]
    assert set(member) == {"q", "s", "spin"}
    assert member["spin"] == "unique"


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "format_version": 1,\n  oops\n}')
    with pytest.raises(FormatError, match="line 3"):
        load_results(str(path))


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "v9.json"
    path.write_text('{"format_version": 9, "censuses": []}')
    with pytest.raises(FormatError, match="format_version"):
        load_results(str(path))


def _census_doc(**overrides):
    member_a = {"q": 49, "s": [1, 6, 8, 20], "spin": "unique"}
    member_b = {"q": 49, "s": [1, 6, 8, 22], "spin": "unique"}
    fam = {"digest": "d" * 8, "trivial": False,
           "members": [member_a, member_b]}
    cen = {"dimension": 7, "q": 49, "mode": "unoriented", "families": [fam]}
    cen.update(overrides)
    return {"format_version": FORMAT_VERSION, "censuses": [cen]}


def _write_doc(tmp_path, doc):
    """doc is a JSON-able object or the document's text."""
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def test_load_accepts_minimal_document(tmp_path):
    res, = load_results(_write_doc(tmp_path, _census_doc()))
    assert res.q == 49 and len(res.families) == 1
    assert res.families[0].trivial_flags == (False,)
    assert (res.classes, res.fingerprints, res.note) == (0, 0, "")
    res, = load_results(_write_doc(tmp_path, _census_doc(
        classes=3, fingerprints=3, note="three classes")))
    assert (res.classes, res.fingerprints, res.note) == (3, 3, "three classes")


def test_load_rejects_member_shape_mismatches(tmp_path):
    doc = _census_doc()
    doc["censuses"][0]["families"][0]["members"][0]["q"] = 50
    with pytest.raises(FormatError, match="member q=50"):
        load_results(_write_doc(tmp_path, doc))

    doc = _census_doc()
    doc["censuses"][0]["families"][0]["members"][0]["s"] = [1, 6, 8]
    with pytest.raises(FormatError, match="length"):
        load_results(_write_doc(tmp_path, doc))

    # JSON booleans are not lens parameters
    doc = _census_doc()
    doc["censuses"][0]["families"][0]["members"][0]["s"] = [True, 6, 8, 22]
    with pytest.raises(FormatError, match="not all integers"):
        load_results(_write_doc(tmp_path, doc))

    doc = _census_doc(q=1)
    for member in doc["censuses"][0]["families"][0]["members"]:
        member["q"] = True
    with pytest.raises(FormatError, match="member q=True"):
        load_results(_write_doc(tmp_path, doc))

    doc = _census_doc()
    doc["censuses"][0]["families"][0]["members"][0]["spin"] = "h0"
    with pytest.raises(FormatError, match="spin"):
        load_results(_write_doc(tmp_path, doc))

    doc = _census_doc(mode="diagonal")
    with pytest.raises(FormatError, match="mode"):
        load_results(_write_doc(tmp_path, doc))

    # every field well formed, but no lens space has these parameters
    doc = _census_doc(dimension=3, q=6)
    doc["censuses"][0]["families"][0]["members"] = [
        {"q": 6, "s": [1, 2], "spin": "h0"}, {"q": 6, "s": [1, 5], "spin": "h0"}]
    with pytest.raises(FormatError, match=r"s\[1\] = 2 is not coprime to q = 6$"):
        load_results(_write_doc(tmp_path, doc))


def test_load_rejects_a_census_or_member_of_the_wrong_kind(tmp_path):
    doc = _census_doc()
    doc["censuses"].append([7, 49])
    with pytest.raises(FormatError, match=r"census\[1\]: not an object"):
        load_results(_write_doc(tmp_path, doc))

    doc = _census_doc()
    del doc["censuses"][0]["families"][0]["members"][1]["spin"]
    with pytest.raises(FormatError, match=r"families\[0\]: member missing field 'spin'"):
        load_results(_write_doc(tmp_path, doc))


def test_load_rejects_flag_and_member_miscounts(tmp_path):
    doc = _census_doc()
    fam = doc["censuses"][0]["families"][0]
    fam["members"].append({"q": 49, "s": [1, 6, 8, 29], "spin": "unique"})
    with pytest.raises(FormatError, match="trivial_flags required"):
        load_results(_write_doc(tmp_path, doc))
    fam["trivial_flags"] = [False]
    with pytest.raises(FormatError, match="flags"):
        load_results(_write_doc(tmp_path, doc))
    fam["members"] = fam["members"][:1]
    del fam["trivial_flags"]
    with pytest.raises(FormatError, match="fewer than two"):
        load_results(_write_doc(tmp_path, doc))

    doc = _census_doc()
    del doc["censuses"][0]["families"][0]["digest"]
    with pytest.raises(FormatError, match="digest"):
        load_results(_write_doc(tmp_path, doc))


def test_load_rejects_a_member_listed_twice(tmp_path):
    doc = _census_doc()
    fam = doc["censuses"][0]["families"][0]
    fam["members"][1] = dict(fam["members"][0])
    with pytest.raises(FormatError, match="listed twice"):
        load_results(_write_doc(tmp_path, doc))

    # across the families of one census
    doc = _census_doc()
    fam = doc["censuses"][0]["families"][0]
    other = {"q": 49, "s": [1, 6, 8, 29], "spin": "unique"}
    doc["censuses"][0]["families"].append(
        {"digest": "e" * 8, "trivial": False, "members": [other, fam["members"][1]]})
    with pytest.raises(FormatError, match=r"families\[1\].*listed twice"):
        load_results(_write_doc(tmp_path, doc))

    # the same member in two censuses is two results
    doc = _census_doc()
    doc["censuses"].append(_census_doc(mode="oriented")["censuses"][0])
    assert len(load_results(_write_doc(tmp_path, doc))) == 2


def _with_family(**fields):
    doc = _census_doc()
    doc["censuses"][0]["families"][0].update(fields)
    return doc


@pytest.mark.parametrize("doc", [
    _census_doc(classes="many"),
    _census_doc(seconds=None),
    {"format_version": FORMAT_VERSION, "censuses": 5},
    _with_family(trivial_flags=3),
    _census_doc(families=["not an object"]),
    _census_doc(q="x", families=[]),
    _census_doc(classes=-5),
    _census_doc(fingerprints=-1),
    _census_doc(seconds=-0.5),
    _census_doc(classes=3, fingerprints=9),
    _census_doc(fingerprints=1),
    _census_doc(note=["x", 1]),
    _census_doc(note=None),
    _census_doc(seconds=math.inf),
    json.dumps(_census_doc(seconds="@")).replace('"@"', "1e999"),
    _census_doc(seconds=10 ** 400),
], ids=["classes", "seconds", "censuses", "trivial_flags", "family", "q",
        "negative-classes", "negative-fingerprints", "negative-seconds",
        "fingerprints-above-classes", "fingerprints-without-classes",
        "list-note", "null-note", "infinite-seconds", "overflowing-seconds",
        "huge-integer-seconds"])
def test_load_rejects_fields_of_the_wrong_type(tmp_path, doc):
    with pytest.raises(FormatError):
        load_results(_write_doc(tmp_path, doc))


@pytest.mark.parametrize("doc", [
    _with_family(trivial_flags=["no"]),
    _with_family(trivial_flags=[1]),
    _with_family(trivial="false"),
], ids=["string-flag", "integer-flag", "string-trivial"])
def test_load_rejects_trivial_flags_that_are_not_booleans(tmp_path, doc):
    with pytest.raises(FormatError, match="trivial flags"):
        load_results(_write_doc(tmp_path, doc))


@pytest.mark.parametrize("doc", [
    _with_family(trivial=True, trivial_flags=[False]),
    _with_family(trivial=False, trivial_flags=[True]),
    _with_family(trivial=0, trivial_flags=[False]),
], ids=["true-over-false", "false-over-true", "integer-trivial"])
def test_load_rejects_trivial_that_disagrees_with_its_flags(tmp_path, doc):
    with pytest.raises(FormatError, match="disagrees"):
        load_results(_write_doc(tmp_path, doc))


def test_io_errors_are_wrapped(tmp_path):
    with pytest.raises(IoError):
        load_results(str(tmp_path / "missing.json"))
    with pytest.raises(IoError):
        save_results((), str(tmp_path / "nodir" / "x.json"))


def test_export_csv(tmp_path):
    path = tmp_path / "census.csv"
    export_csv(run_census(7, [49]), str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("dimension,q,mode,family")
    assert len(lines) == 3  # header + one family of two
    assert "1 6 8 20" in lines[1] + lines[2]


def test_census_csv_matches_the_recorded_file(tmp_path):
    """Dimension 7 at q = 196 has all 8 families of q = 195..199; its CSV
    (members, spin labels, digests, trivial flags) is checked in byte for
    byte."""
    path = tmp_path / "census.csv"
    export_csv(run_census(7, [196]), str(path))
    recorded = Path(__file__).parent / "data" / "census_7_196.csv"
    assert path.read_bytes() == recorded.read_bytes()


def test_family_rejects_bad_shapes():
    a, b = spin_space(49, (1, 6, 8, 20)), spin_space(49, (1, 6, 8, 22))
    with pytest.raises(ValueError, match="two members"):
        IsospectralFamily("d", (a,), ())
    with pytest.raises(ValueError, match="flags"):
        IsospectralFamily("d", (a, b), (False, False))


class _Unwritable:
    """A family member whose parameters raise once the CSV writer reaches
    it."""

    @property
    def lens(self):
        raise RuntimeError("member lost")


def test_failed_writes_leave_the_old_file(tmp_path):
    """A write that fails halfway keeps the old bytes and leaves no
    temporary file behind."""
    good = run_census(7, [49])
    fam = good[0].families[0]
    # json cannot encode the note, so nothing new reaches the file
    unserializable = (replace(good[0], note=object()),)
    broken = IsospectralFamily(fam.digest, (fam.members[0], _Unwritable()),
                               fam.trivial_flags)
    unwritable = (good[0], replace(good[0], families=(broken,)))
    for writer, bad, exc in ((save_results, unserializable, TypeError),
                             (export_csv, unwritable, RuntimeError)):
        path = tmp_path / writer.__name__
        writer(good, str(path))
        before = path.read_bytes()
        with pytest.raises(exc):
            writer(bad, str(path))
        assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["export_csv",
                                                         "save_results"]
