import json
import random
import shlex
from itertools import product
from math import gcd
from pathlib import Path

import pytest

from lensdirac import cli, lattice
from lensdirac.cli import main
from lensdirac.lens import format_spin_lens, spin_space
from lensdirac.search import FORMAT_VERSION, VerificationFailed, load_results
from lensdirac.spectrum import spectrum_table


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


NEEDS_SPIN = ("error: even q = {} needs a spin structure: --spin h0|h1, "
              "or :h0/:h1 in an isospec spec\n")


def test_spectrum_even_q_needs_spin(capsys):
    """Even q has no default structure: the error names the missing
    label, not the unique structure the user never asked for."""
    for q, s in ((8, "1,3,5,7"), (4, "1,3")):
        assert run(capsys, "spectrum", "-q", str(q), "-s", s) == (2, "", NEEDS_SPIN.format(q))
    code, _, err = run(capsys, "spectrum", "-q", "4", "-s", "1,3", "--spin", "unique")
    assert code == 2
    assert err.startswith("error: spin unique invalid for q=4")


def test_spectrum_not_coprime(capsys):
    code, _, err = run(capsys, "spectrum", "-q", "6", "-s", "1,2,5,5")
    assert code == 2
    assert "coprime" in err


def test_spectrum_bad_params(capsys):
    code, _, err = run(capsys, "spectrum", "-q", "7", "-s", "1,x")
    assert code == 2
    assert "integers" in err
    # an empty list and an empty entry both fail as integers
    for text in ("", "1,,2"):
        code, _, err = run(capsys, "spectrum", "-q", "7", "-s", text)
        assert code == 2, text
        assert err.startswith("error: parameters must be comma-separated integers"), text


def test_spectrum_negative_k(capsys):
    code, _, err = run(capsys, "spectrum", "-q", "7", "-s", "1,2", "-k", "-1")
    assert code == 2
    assert err == "error: k must be >= 0, got -1\n"


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


def _spectrum_spaces():
    """Seeded spaces for every m = 2..7: q = 1, q = 2, and odd and even
    q <= 100, each even q under both spin labels."""
    rng = random.Random(24)
    odd = rng.sample(range(3, 101, 2), 3)
    even = rng.sample(range(4, 101, 2), 3)
    spaces = [spin_space(1, (1,) * 3)]
    for i, q in enumerate([2] + odd + even):
        m = 2 + (i % 3) * 2 + q % 2  # even m at even q (the others have no spin structure)
        units = [u for u in range(1, q) if gcd(u, q) == 1]
        s = tuple(rng.choice(units) for _ in range(m))
        spaces += [spin_space(q, s, label) for label in ((None,) if q % 2 else ("h0", "h1"))]
    return spaces


def test_spectrum_prints_each_format_as_the_per_row_code_did(capsys):
    """Plain and csv print the per-row lines, and structured the bytes
    json.dumps(doc, indent=2, sort_keys=True) gives for the document the
    rows and the space make, whatever the sizes of q, m and k."""
    spaces = _spectrum_spaces()
    assert {x.m for x in spaces} == set(range(2, 8))
    assert {x.spin.tag for x in spaces} == {"unique", "h0", "h1"}
    for x in spaces:
        for k in sorted({0, 1, x.q - 1, x.q, 200}):
            rows = spectrum_table(x, k)
            doc = {"format_version": FORMAT_VERSION, "q": x.q, "s": list(x.lens.s),
                   "spin": x.spin.tag,
                   "rows": [{"k": r.k, "eigenvalue2": r.value2,
                             "minus": r.minus, "plus": r.plus} for r in rows]}
            csv = ["k,eigenvalue2,minus,plus"]
            csv += [f"{r.k},{r.value2},{r.minus},{r.plus}" for r in rows]
            plain = [f"# {format_spin_lens(x)}   eigenvalues +-(2k+{2 * x.m - 1})/2",
                     f"{'k':>6} {'2|lambda|':>10} {'mult(-)':>14} {'mult(+)':>14}"]
            plain += [f"{r.k:>6} {r.value2:>10} {r.minus:>14} {r.plus:>14}" for r in rows]
            argv = ["spectrum", "-q", str(x.q), "-s", ",".join(map(str, x.lens.s)),
                    "-k", str(k)]
            if x.q % 2 == 0:
                argv += ["--spin", x.spin.tag]
            for fmt, want in (("structured", json.dumps(doc, indent=2, sort_keys=True) + "\n"),
                              ("csv", "".join(f"{line}\n" for line in csv)),
                              ("plain", "".join(f"{line}\n" for line in plain))):
                assert run(capsys, *argv, "--format", fmt) == (0, want, ""), (argv, fmt)


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
    code, _, err = run(capsys, "isospec", "x:1,2", "7:1,2")
    assert code == 2
    assert err.startswith("error: bad order 'x'")


def test_isospec_even_q_spec_needs_spin(capsys):
    assert run(capsys, "isospec", "32:1,3,5,15", "32:1,3,5,15:h1") == (
        2, "", NEEDS_SPIN.format(32))


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


def test_search_checks_output_paths_before_the_census(tmp_path, capsys, monkeypatch):
    """A missing directory for --out or --csv, or a path that is a
    directory, exits 2 before any class is enumerated, with nothing on
    stdout."""
    monkeypatch.setattr(cli, "run_census", lambda *args: pytest.fail("census ran"))
    for flag, path in product(("--out", "--csv"), ("/nonexistent/x.json", str(tmp_path))):
        code, out, err = run(capsys, "search", "-n", "7", "--q-max", "49", flag, path)
        assert (code, out) == (2, ""), (flag, path)
        assert err.startswith("error: cannot write") and path in err


def test_oversized_inputs_are_errors_not_verdicts(capsys, monkeypatch):
    """OverflowError (a q past the int64 products of the class rows) and
    MemoryError (a table too large to build) exit 2 with one error line,
    never 1, the negative verdict."""
    code, out, err = run(capsys, "search", "-n", "7", "--q-min", "3037000500",
                         "--q-max", "3037000500")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "overflow" in err and err.count("\n") == 1

    def no_memory(*args):
        raise MemoryError("Unable to allocate 745. GiB")

    # the sketches of this pair agree (a mirror family at q = 169), so
    # the verdict must build the tables
    monkeypatch.setattr(lattice, "_full_table", no_memory)
    code, out, err = run(capsys, "isospec", "169:1,14,27,53", "169:1,157,144,118")
    assert (code, out) == (2, "")
    assert err == "error: out of memory: Unable to allocate 745. GiB\n"


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
    canonical = [ln for ln in out.splitlines() if ln.startswith("  canonical:")]
    assert canonical == [
        "  canonical: L(98; 1,13,15,43) tau_0 | L(98; 1,13,15,41) tau_0",
        "  canonical: L(98; 1,13,15,43) tau_1 | L(98; 1,13,15,41) tau_1",
    ]
    assert "verification passed" in out


def test_family_verify_failure_exits_one(capsys, monkeypatch):
    def fail(members):
        raise VerificationFailed("members are not isospectral")

    monkeypatch.setattr(cli, "verify_family", fail)
    code, out, _ = run(capsys, "family", "tower", "-r", "1", "--verify")
    assert code == 1
    assert "verification FAILED: members are not isospectral" in out
    assert "verification passed" not in out


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
    code, _, err = run(capsys, "family", "spin-pair")
    assert code == 2
    assert "-t" in err
    code, _, err = run(capsys, "family", "mirror", "-t", "2")
    assert code == 2
    assert "-r" in err
    code, _, err = run(capsys, "family", "53", "-r", "6")
    assert code == 2
    # each generator refuses the flag it does not read
    code, out, err = run(capsys, "family", "tower", "-r", "3", "-t", "2")
    assert code == 2 and not out
    assert err.startswith("error:") and "-t" in err
    code, out, err = run(capsys, "family", "spin-pair", "-t", "1", "-r", "3")
    assert code == 2 and not out
    assert err.startswith("error:") and "-r" in err
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
        lambda x, kmax: [row._replace(minus=row.minus + 1) if row.k == 9 else row
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


def parsed(capsys, parse, argv):
    """The Namespace parse(argv) returns, with its attribute order, or
    its exit code, and what it printed."""
    try:
        result = repr(parse(list(argv)))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


# every subcommand with and without its options, help at both levels,
# and arguments that only the full parser rejects
DISPATCH_ARGV = EVERY_SUBCOMMAND + [
    ["isospec", "--unoriented", "81:1,8,19,37", "81:1,8,26,37"],
    ["search", "-n", "7", "--q-max", "9", "--mode", "oriented", "--out", "x.json"],
    ["family", "53", "-r", "7", "-t", "2", "--verify"],
    ["oracle", "-q", "7", "-s", "1,2", "--spin", "unique", "--dps", "40"],
    ["spectrum", "-q", "32", "-s", "1,3,5,15", "--spin", "h1", "--format", "csv"],
    ["-h"], ["spectrum", "-h"], ["family", "--help"], [], ["nosuch"],
    ["spectrum", "-q", "7", "-s", "1,2", "--bogus"],
    ["spectrum", "-q", "7", "-s", "1,2", "extra"],
    ["spectrum", "-q", "x", "-s", "1,2"],
    ["spectrum", "--", "-q"],
    ["-q", "7", "spectrum"],
]


def test_direct_dispatch_answers_as_a_full_parse(capsys, monkeypatch, tmp_path):
    """main sends a known subcommand straight to its subparser.  For
    every kind of call it returns the Namespace (attribute order
    included), prints the text and exits with the code of the full
    parser, and main answers exactly as when every call takes the full
    parse."""
    monkeypatch.chdir(tmp_path)  # for the census's --out
    full = cli.build_parser().parse_args
    for argv in DISPATCH_ARGV:
        assert parsed(capsys, cli._parse_args, argv) == parsed(capsys, full, argv), argv
    direct = [call(capsys, argv) for argv in DISPATCH_ARGV]
    monkeypatch.setattr(cli.build_parser(), "subcommands", {})
    assert [call(capsys, argv) for argv in DISPATCH_ARGV] == direct
    assert [code for code, _, _ in direct[-10:]] == [0, 0, 0] + [2] * 7


def readme_examples():
    """(argv, shown stdout) for every `$ lensdirac ...` line in README.md's
    code blocks; the output is the block's lines up to the next command."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    examples, current, in_block = [], None, False
    for line in lines:
        if line.startswith("```"):
            in_block, current = not in_block, None
        elif in_block and line.startswith("$ lensdirac "):
            current = (shlex.split(line)[2:], [])
            examples.append(current)
        elif current is not None:
            current[1].append(line)
    return [(argv, "".join(f"{out}\n" for out in shown)) for argv, shown in examples]


def test_readme_examples_print_what_readme_shows(capsys):
    examples = readme_examples()
    assert [argv[0] for argv, _ in examples] == [
        "spectrum", "isospec", "isospec", "search", "family", "oracle"]
    for argv, shown in examples:
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, shown), argv
