import json
from dataclasses import replace
from itertools import product

import pytest

from lensdirac import cli
from lensdirac.cli import main
from lensdirac.search import load_results


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(out):
    """Numeric rows of the plain spectrum table, header lines dropped."""
    rows = []
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0].isdigit():
            rows.append(tuple(int(p) for p in parts))
    return rows


def test_spectrum_sphere():
    # S^3 multiplicities 2*binom(k+2, 2) on both sides
    code = main(["spectrum", "-q", "1", "-s", "1,1", "-k", "3"])
    assert code == 0


def test_spectrum_sphere_rows(capsys):
    code, out, _ = run(capsys, "spectrum", "-q", "1", "-s", "1,1", "-k", "3")
    assert code == 0
    rows = data_rows(out)
    assert [(r[2], r[3]) for r in rows] == [(2, 2), (6, 6), (12, 12), (20, 20)]
    assert [r[1] for r in rows] == [3, 5, 7, 9]


def test_spectrum_strict_partner_same_output(capsys):
    # (1,6,8,22) and (1,6,8,29) are strictly isospectral, so the tables
    # agree row for row; (1,6,8,20) carries the mirror spectrum, so its
    # table is the same with the two multiplicity columns exchanged.
    _, out22, _ = run(capsys, "spectrum", "-q", "49", "-s", "1,6,8,22", "-k", "5")
    _, out29, _ = run(capsys, "spectrum", "-q", "49", "-s", "1,6,8,29", "-k", "5")
    _, out20, _ = run(capsys, "spectrum", "-q", "49", "-s", "1,6,8,20", "-k", "5")
    assert data_rows(out22) == data_rows(out29)
    swapped = [(k, v, p, mn) for (k, v, mn, p) in data_rows(out20)]
    assert data_rows(out22) == swapped
    assert data_rows(out22) != data_rows(out20)


def test_spectrum_no_spin_structure(capsys):
    code, _, err = run(capsys, "spectrum", "-q", "4", "-s", "1,1,1")
    assert code == 2
    assert "no spin structure" in err


def test_spectrum_even_q_needs_spin(capsys):
    code, _, err = run(capsys, "spectrum", "-q", "8", "-s", "1,3,5,7")
    assert code == 2
    assert "h0" in err


def test_spectrum_not_coprime(capsys):
    code, _, err = run(capsys, "spectrum", "-q", "6", "-s", "1,2,5,5")
    assert code == 2
    assert "coprime" in err


def test_spectrum_bad_params(capsys):
    code, _, err = run(capsys, "spectrum", "-q", "7", "-s", "1,x")
    assert code == 2
    assert "integers" in err


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "-q", "49", "-s", "1,6,8,20",
                       "-k", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,eigenvalue2,minus,plus"
    assert len(lines) == 5
    assert lines[1] == "0,7,0,0"


def test_spectrum_structured(capsys):
    code, out, _ = run(capsys, "spectrum", "-q", "32", "-s", "1,3,5,15",
                       "--spin", "h0", "-k", "4", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["format_version"] == 1
    assert doc["q"] == 32 and doc["s"] == [1, 3, 5, 15] and doc["spin"] == "h0"
    assert len(doc["rows"]) == 5
    first = doc["rows"][0]
    assert set(first) == {"k", "eigenvalue2", "minus", "plus"}
    assert first["eigenvalue2"] == 7


def test_isospec_strict_pair(capsys):
    code, out, _ = run(capsys, "isospec", "49:1,6,8,22", "49:1,6,8,29")
    assert code == 0
    assert out.strip() == "isospectral"


def test_isospec_mirror_members_strict_vs_unoriented(capsys):
    # the two class representatives carry mirror spectra: not equal as
    # printed, equal after reversing one orientation
    code, out, _ = run(capsys, "isospec", "49:1,6,8,20", "49:1,6,8,22")
    assert code == 1
    assert "not isospectral" in out
    code, out, _ = run(capsys, "isospec", "--unoriented",
                       "49:1,6,8,20", "49:1,6,8,22")
    assert code == 0
    assert "inverse-isospectral" in out


def test_isospec_spin_pair(capsys):
    code, out, _ = run(capsys, "isospec", "32:1,3,5,15:h0", "32:1,3,5,15:h1")
    assert code == 0
    assert out.strip() == "isospectral"


def test_isospec_negative_pairs_every_spin_combo(capsys):
    # p-isospectral lens spaces that are not Dirac isospectral for any
    # spin assignment, in either orientation
    pairs = [("1,9,11,29", "1,9,11,31"), ("1,9,21,39", "1,9,29,31")]
    for (sa, sb), ha, hb in product(pairs, ("h0", "h1"), ("h0", "h1")):
        for extra in ([], ["--unoriented"]):
            code, out, _ = run(capsys, "isospec", *extra,
                               f"100:{sa}:{ha}", f"100:{sb}:{hb}")
            assert code == 1, (sa, sb, ha, hb, extra)
            assert "not isospectral" in out


def test_isospec_mismatched_shape(capsys):
    code, out, _ = run(capsys, "isospec", "49:1,6,8,20", "25:1,6,8")
    assert code == 1
    assert "different order or dimension" in out
    code, out, _ = run(capsys, "isospec", "7:1,2", "9:1,2")
    assert code == 1
    assert "different order or dimension" in out


def test_isospec_bad_spec(capsys):
    code, _, err = run(capsys, "isospec", "49:1,6,8,20", "banana")
    assert code == 2
    assert "space spec" in err
    code, _, err = run(capsys, "isospec", "49:1,6,8,20", "49:1,6,8,20:h7")
    assert code == 2
    assert "spin tag" in err


def test_isospec_even_q_spec_needs_spin(capsys):
    code, _, err = run(capsys, "isospec", "32:1,3,5,15", "32:1,3,5,15:h1")
    assert code == 2
    assert "h0" in err


def test_search_finds_the_q49_family(capsys):
    code, out, _ = run(capsys, "search", "-n", "7", "--q-min", "49",
                       "--q-max", "49")
    assert code == 0
    assert "q=49" in out
    assert "L(49; 1,6,8,20)" in out and "L(49; 1,6,8,22)" in out
    assert "1 families found" in out


def test_search_empty_range(capsys):
    code, out, _ = run(capsys, "search", "-n", "3", "--q-max", "12")
    assert code == 0
    assert "no families found" in out


def test_search_writes_files(tmp_path, capsys):
    out_json = tmp_path / "census.json"
    out_csv = tmp_path / "census.csv"
    code, out, _ = run(capsys, "search", "-n", "7", "--q-min", "49",
                       "--q-max", "49", "--out", str(out_json),
                       "--csv", str(out_csv))
    assert code == 0
    results = load_results(str(out_json))
    assert len(results) == 1 and results[0].q == 49
    assert len(results[0].families) == 1
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("dimension,q,mode")
    assert len(lines) == 3


def test_search_rejects_bad_range(capsys):
    code, _, err = run(capsys, "search", "-n", "7", "--q-min", "9",
                       "--q-max", "3")
    assert code == 2
    assert "q-min" in err
    code, _, err = run(capsys, "search", "-n", "6", "--q-max", "10")
    assert code == 2
    assert "odd" in err


def test_family_tower_verify(capsys):
    code, out, _ = run(capsys, "family", "51", "-r", "2", "--verify")
    assert code == 0
    members = [ln for ln in out.splitlines() if ln.startswith("L(40;")]
    assert len(members) == 1
    assert members[0].count("L(40;") == 3
    assert "verification passed" in out


def test_family_spin_pair_verify(capsys):
    code, out, _ = run(capsys, "family", "52", "-t", "1", "--verify")
    assert code == 0
    assert "tau_0" in out and "tau_1" in out
    assert "verification passed" in out


def test_family_mirror_canonical_matches_census(capsys):
    code, out, _ = run(capsys, "family", "53", "-r", "7", "--verify")
    assert code == 0
    canon = [ln for ln in out.splitlines() if "canonical:" in ln]
    assert len(canon) == 1
    assert "L(49; 1,6,8,22)" in canon[0] and "L(49; 1,6,8,20)" in canon[0]
    assert "verification passed" in out


def test_family_mirror_even_scale_two_pairs(capsys):
    code, out, _ = run(capsys, "family", "mirror", "-r", "7", "-t", "2",
                       "--verify")
    assert code == 0
    pair_lines = [ln for ln in out.splitlines()
                  if ln.startswith("L(98;") and "|" in ln]
    assert len(pair_lines) == 2
    assert "verification passed" in out


def test_family_aliases(capsys):
    for name in ("tower", "51"):
        code, out, _ = run(capsys, "family", name, "-r", "1")
        assert code == 0
        assert out.count("L(40;") >= 2


def test_family_usage_errors(capsys):
    code, _, err = run(capsys, "family", "99", "-r", "7")
    assert code == 2
    assert "unknown family" in err
    code, _, err = run(capsys, "family", "51")
    assert code == 2
    assert "-r" in err
    code, _, err = run(capsys, "family", "52", "-t", "0")
    assert code == 2
    code, _, err = run(capsys, "family", "53", "-r", "6")
    assert code == 2
    for t in ("0", "-1"):
        code, _, err = run(capsys, "family", "mirror", "-r", "7", "-t", t)
        assert code == 2, t
        assert "t must be >= 1" in err
    # q = 55111^2 is past the int64 products of the canonical form
    code, _, err = run(capsys, "family", "mirror", "-r", "55111")
    assert code == 2
    assert err.startswith("error:") and "overflow" in err


def test_oracle_sphere(capsys):
    code, out, _ = run(capsys, "oracle", "-q", "1", "-s", "1,1,1", "-k", "20")
    assert code == 0
    assert out.startswith("ok:")


def test_oracle_q49(capsys):
    code, out, _ = run(capsys, "oracle", "-q", "49", "-s", "1,6,8,20",
                       "-k", "30")
    assert code == 0
    assert out == "ok: L(49; 1,6,8,20) k <= 30\n"


def test_oracle_tight_tolerance_fails(capsys, monkeypatch):
    """The comparison is exact: one count off by one at a single level
    fails it."""
    from lensdirac import oracle
    real = oracle.spectrum_table
    monkeypatch.setattr(
        oracle, "spectrum_table",
        lambda x, kmax: [replace(row, minus=row.minus + 1) if row.k == 9 else row
                         for row in real(x, kmax)])
    code, out, _ = run(capsys, "oracle", "-q", "49", "-s", "1,6,8,20")
    assert code == 1
    assert "disagree" in out and "k=9" in out


def test_oracle_dps_meets_tight_tolerance(capsys):
    """--dps is accepted and ignored: the exact run prints the same line."""
    code, out, _ = run(capsys, "oracle", "-q", "49", "-s", "1,6,8,20",
                       "--dps", "40")
    assert code == 0
    assert (code, out) == run(capsys, "oracle", "-q", "49", "-s", "1,6,8,20")[:2]
    assert out == "ok: L(49; 1,6,8,20) k <= 25\n"


def test_oracle_usage_errors(capsys):
    code, _, err = run(capsys, "oracle", "-q", "6", "-s", "1,2")
    assert code == 2
    assert "coprime" in err
    code, _, err = run(capsys, "oracle", "-q", "7", "-s", "1,2", "-k", "-1")
    assert code == 2
    code, _, err = run(capsys, "oracle", "-q", "7", "-s", "1,2,3,4",
                       "-k", "30000")
    assert code == 2
    assert "prime test limit" in err
    with pytest.raises(SystemExit) as info:
        main(["oracle", "-q", "7", "-s", "1,2", "--tol", "1e-6"])
    assert info.value.code == 2


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["definitely-not-a-command"])
    assert info.value.code == 2


def test_missing_required_flag_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["spectrum", "-s", "1,1"])
    assert info.value.code == 2


# one call per subcommand, then a usage error (exit 2 from the program)
# and two argument errors (exit 2 from argparse)
EVERY_SUBCOMMAND = [
    ["spectrum", "-q", "49", "-s", "1,6,8,22", "-k", "3"],
    ["isospec", "49:1,6,8,22", "49:1,6,8,20"],
    ["search", "-n", "7", "--q-min", "49", "--q-max", "49"],
    ["family", "tower", "-r", "1"],
    ["oracle", "-q", "7", "-s", "1,2", "-k", "5"],
    ["spectrum", "-q", "8", "-s", "1,3,5,7"],
    ["spectrum", "-s", "1,1"],
    ["definitely-not-a-command"],
]


def call(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_call(capsys, monkeypatch):
    """main builds its parser once per process and reuses it; every
    subcommand and every kind of error answers exactly as with a parser
    built for the call."""
    assert cli.build_parser() is cli.build_parser()
    reused = [call(capsys, argv) for argv in EVERY_SUBCOMMAND * 2]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [call(capsys, argv) for argv in EVERY_SUBCOMMAND * 2]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 1, 0, 0, 0, 2, 2, 2] * 2
    assert all(out for _, out, _ in reused[:5])
