"""Command-line front end.

Subcommands: spectrum (multiplicity table), isospec (pairwise decision),
search (census over a q range), family (known-family generators), oracle
(exact series cross-check).  Exit codes are a stable contract:
0 affirmative, 1 negative verdict, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Optional, Sequence

from .lens import (
    SpinLensSpace,
    canonical_key,
    format_spin_lens,
    make_lens,
    spin_space,
    spin_structures,
)
from .oracle import OracleMismatch, oracle_compare
from .search import (
    FORMAT_VERSION,
    IoError,
    VerificationFailed,
    export_csv,
    mirror_pair,
    run_census,
    save_results,
    spin_pair,
    tower_family,
    verify_family,
)
from .spectrum import dirac_isospectral, inverse_isospectral, spectrum_table


class UsageError(Exception):
    """Bad parameters; maps to exit code 2 with a diagnostic."""


def _parse_params(text: str) -> tuple[int, ...]:
    try:
        s = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"parameters must be comma-separated integers, got {text!r}")
    if not s:
        raise UsageError("empty parameter list")
    return s


def _build_space(q: int, s_text: str, spin: Optional[str]) -> SpinLensSpace:
    s = _parse_params(s_text)
    if spin == "unique":
        spin = None
    try:
        lens = make_lens(q, s)
        if not spin_structures(lens):
            raise UsageError(
                f"L({q}; {','.join(map(str, s))}) has no spin structure "
                "(q even, m odd)")
        if spin is None and q % 2 == 0:
            raise UsageError(
                f"q={q} is even: choose a spin structure with h0 or h1")
        return spin_space(q, s, spin)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_space_spec(text: str) -> SpinLensSpace:
    """Grammar q:s1,s2,...[:spin], e.g. 49:1,6,8,22 or 32:1,3,5,15:h0."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise UsageError(f"space spec must look like q:s1,s2,..[:spin], got {text!r}")
    try:
        q = int(parts[0])
    except ValueError:
        raise UsageError(f"bad order {parts[0]!r} in space spec {text!r}")
    spin = parts[2] if len(parts) == 3 else None
    if spin is not None and spin not in ("unique", "h0", "h1"):
        raise UsageError(f"bad spin tag {spin!r} in space spec {text!r}")
    return _build_space(q, parts[1], spin)


def cmd_spectrum(args) -> int:
    x = _build_space(args.q, args.s, args.spin)
    if args.k_max < 0:
        raise UsageError(f"k must be >= 0, got {args.k_max}")
    rows = spectrum_table(x, args.k_max)
    if args.format == "structured":
        doc = {
            "format_version": FORMAT_VERSION,
            "q": x.q,
            "s": list(x.lens.s),
            "spin": x.spin.tag,
            "rows": [{"k": r.k, "eigenvalue2": r.value2,
                      "minus": r.minus, "plus": r.plus} for r in rows],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    if args.format == "csv":
        print("k,eigenvalue2,minus,plus")
        for r in rows:
            print(f"{r.k},{r.value2},{r.minus},{r.plus}")
        return 0
    print(f"# {format_spin_lens(x)}   eigenvalues +-(2k+{2 * x.m - 1})/2")
    print(f"{'k':>6} {'2|lambda|':>10} {'mult(-)':>14} {'mult(+)':>14}")
    for r in rows:
        print(f"{r.k:>6} {r.value2:>10} {r.minus:>14} {r.plus:>14}")
    return 0


def cmd_isospec(args) -> int:
    a = _parse_space_spec(args.a)
    b = _parse_space_spec(args.b)
    if a.q != b.q or a.m != b.m:
        print("not isospectral (different order or dimension)")
        return 1
    if dirac_isospectral(a, b):
        print("isospectral")
        return 0
    if args.unoriented and inverse_isospectral(a, b):
        print("isospectral (inverse-isospectral: spectra agree after "
              "reversing one orientation)")
        return 0
    print("not isospectral")
    return 1


def cmd_search(args) -> int:
    if args.q_min < 1 or args.q_max < args.q_min:
        raise UsageError(
            f"need 1 <= q-min <= q-max, got {args.q_min}..{args.q_max}")
    if args.dimension < 3 or args.dimension % 2 == 0:
        raise UsageError(f"dimension must be odd and >= 3, got {args.dimension}")
    results = run_census(args.dimension, range(args.q_min, args.q_max + 1),
                         args.mode)
    found = 0
    for res in results:
        for fam in res.families:
            found += 1
            tag = "  [isometric pair]" if any(fam.trivial_flags) else ""
            print(f"q={res.q}: " +
                  " | ".join(format_spin_lens(x) for x in fam.members) + tag)
    if found == 0:
        print("no families found")
    else:
        print(f"{found} families found")
    if args.out:
        save_results(results, args.out)
        print(f"results written to {args.out}")
    if args.csv:
        export_csv(results, args.csv)
        print(f"csv written to {args.csv}")
    return 0


_GENERATORS = {"51": "tower", "tower": "tower",
               "52": "spin-pair", "spin-pair": "spin-pair",
               "53": "mirror", "mirror": "mirror"}


def cmd_family(args) -> int:
    kind = _GENERATORS.get(args.generator)
    if kind is None:
        raise UsageError(f"unknown family {args.generator!r}: "
                         "choose 51/tower, 52/spin-pair, or 53/mirror")
    try:
        if kind == "tower":
            if args.r is None:
                raise UsageError("tower family needs -r")
            groups = [tower_family(args.r)]
        elif kind == "spin-pair":
            if args.t is None:
                raise UsageError("spin-pair family needs -t")
            groups = [spin_pair(args.t)]
        else:
            if args.r is None:
                raise UsageError("mirror family needs -r")
            groups = list(mirror_pair(args.r, 1 if args.t is None else args.t))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    for members in groups:
        print(" | ".join(format_spin_lens(x) for x in members))
        try:
            canon = [canonical_key(x, "unoriented").as_space() for x in members]
        except OverflowError as exc:
            raise UsageError(str(exc)) from exc
        print("  canonical: " + " | ".join(format_spin_lens(x) for x in canon))
    if not args.verify:
        return 0
    for members in groups:
        try:
            report = verify_family(members)
        except VerificationFailed as exc:
            print(f"verification FAILED: {exc}")
            return 1
        for line in report.checks:
            print("  " + line)
    print("verification passed")
    return 0


def cmd_oracle(args) -> int:
    x = _build_space(args.q, args.s, args.spin)
    if args.k_max < 0:
        raise UsageError(f"k must be >= 0, got {args.k_max}")
    try:
        oracle_compare(x, args.k_max)
    except OracleMismatch as exc:
        print(f"FAIL: {exc}")
        return 1
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(f"ok: {format_spin_lens(x)} k <= {args.k_max}")
    return 0


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it costs far more than a parse."""
    parser = argparse.ArgumentParser(
        prog="lensdirac",
        description="Exact spin Dirac spectra of lens spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="print eigenvalue multiplicities")
    p.add_argument("-q", type=int, required=True, help="order of the group")
    p.add_argument("-s", required=True, help="comma-separated parameters")
    p.add_argument("--spin", choices=("unique", "h0", "h1"))
    p.add_argument("-k", "--k-max", type=int, default=10)
    p.add_argument("--format", choices=("plain", "csv", "structured"),
                   default="plain")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("isospec", help="decide Dirac isospectrality")
    p.add_argument("a", help="first space, q:s1,s2,..[:spin]")
    p.add_argument("b", help="second space, same grammar")
    p.add_argument("--unoriented", action="store_true",
                   help="also accept spectra matching after reflection")
    p.set_defaults(func=cmd_isospec)

    p = sub.add_parser("search", help="census a dimension over a q range")
    p.add_argument("-n", "--dimension", type=int, required=True)
    p.add_argument("--q-min", type=int, default=1)
    p.add_argument("--q-max", type=int, required=True)
    p.add_argument("--mode", choices=("oriented", "unoriented"),
                   default="unoriented")
    p.add_argument("--out", help="write results as structured JSON")
    p.add_argument("--csv", help="write one CSV row per family member")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("family", help="known isospectral families")
    p.add_argument("generator", help="51/tower, 52/spin-pair, or 53/mirror")
    p.add_argument("-r", type=int, help="tower/mirror size parameter")
    p.add_argument("-t", type=int, help="spin-pair/mirror scale parameter")
    p.add_argument("--verify", action="store_true",
                   help="recheck isospectrality and non-isometry from scratch")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("oracle", help="cross-check spectra against the "
                                      "generating-function series")
    p.add_argument("-q", type=int, required=True)
    p.add_argument("-s", required=True)
    p.add_argument("--spin", choices=("unique", "h0", "h1"))
    p.add_argument("-k", "--k-max", type=int, default=25)
    # ignored (the series is exact); every oracle query in perfbench/pool.json passes it
    p.add_argument("--dps", type=int, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
