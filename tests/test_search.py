import json
import math
import random
from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest

from lensdirac import lens, search
from lensdirac.lattice import ReducedCountTable
from lensdirac.lens import (
    NoSpinStructure,
    SpinLensSpace,
    canonical_key,
    find_isometry,
    make_lens,
    self_transport_pairs,
    spin_space,
    spin_structures,
)
from lensdirac.numtheory import units
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
        lens = make_lens(q, s)
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


def test_enumerate_raises_when_canonical_form_is_unset(monkeypatch):
    # with no candidate unit the canonical form is never set
    monkeypatch.setattr(lens, "_candidate_ells",
                        lambda S, q: np.empty((len(S), 0), dtype=np.int64))
    with pytest.raises(ArithmeticError, match="canonical form"):
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
    """Keeping only 0 or 1 low bits of each sketch value makes every or
    many classes collide in the first phase, so the full tables of the
    second phase must separate them."""
    if bits is not None:
        mask, full = (1 << bits) - 1, search.sketches
        monkeypatch.setattr(search, "sketches", lambda lats: tuple(
            (a & mask, b & mask) for a, b in full(lats)))
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
    assert all(x.lens.dim == 19 and x.q == 40 for x in fam)
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
    # json.dump has written the families when it reaches the note
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
