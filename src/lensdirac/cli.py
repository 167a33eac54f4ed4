"""Command-line front end.

Subcommands: spectrum (multiplicity table), isospec (pairwise decision),
search (census over a q range), family (known-family generators), oracle
(exact series cross-check).  Exit codes are a stable contract:
0 affirmative, 1 negative verdict, 2 usage or validation error, a failed
exactness check (ArithmeticError), or an input too large to compute or
allocate (MemoryError, OverflowError, numpy's ValueError).  main alone
maps an exception to an exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import Optional, Sequence

from .lens import (
    LensParams,
    SpinLensSpace,
    canonical_key,
    format_spin_lens,
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
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"parameters must be comma-separated integers, got {text!r}")


def _build_space(q: int, s_text: str, spin: Optional[str]) -> SpinLensSpace:
    s = _parse_params(s_text)
    # even q has two spin structures or none, so none is the default;
    # a parameter error, or no structure at all, is reported as such
    if spin is None and q % 2 == 0 and spin_structures(LensParams(q, s)):
        raise UsageError(f"even q = {q} needs a spin structure: --spin h0|h1, "
                         "or :h0/:h1 in an isospec spec")
    return spin_space(q, s, spin)


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
    return _build_space(q, parts[1], spin)


# --format structured prints the bytes of json.dumps(doc, indent=2,
# sort_keys=True), laid out here once: with indent, json runs its
# pure-Python encoder, which cost about half of a spectrum query
_STRUCTURED = """{
  "format_version": %d,
  "q": %d,
  "rows": [
%s
  ],
  "s": [
%s
  ],
  "spin": %s
}"""
_STRUCTURED_ROW = """    {
      "eigenvalue2": %d,
      "k": %d,
      "minus": %d,
      "plus": %d
    }"""


def cmd_spectrum(args) -> int:
    x = _build_space(args.q, args.s, args.spin)
    if args.k_max < 0:
        raise UsageError(f"k must be >= 0, got {args.k_max}")
    rows = spectrum_table(x, args.k_max)
    if args.format == "structured":
        text = _STRUCTURED % (
            FORMAT_VERSION, x.q,
            ",\n".join([_STRUCTURED_ROW % (r.value2, r.k, r.minus, r.plus) for r in rows]),
            ",\n".join([f"    {v}" for v in x.lens.s]),
            json.dumps(x.spin.tag))
    elif args.format == "csv":
        text = "\n".join(["k,eigenvalue2,minus,plus"] + ["%d,%d,%d,%d" % r for r in rows])
    else:
        text = "\n".join([
            f"# {format_spin_lens(x)}   eigenvalues +-(2k+{2 * x.m - 1})/2",
            f"{'k':>6} {'2|lambda|':>10} {'mult(-)':>14} {'mult(+)':>14}",
            *["%6d %10d %14d %14d" % r for r in rows]])
    print(text)
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
    # fail before the census, not after it
    for path in filter(None, (args.out, args.csv)):
        directory = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path) or not os.path.isdir(directory):
            raise UsageError(f"cannot write {path}: not a file in an existing directory")
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


# each generator under its name and its number in the paper: the name, the
# member groups as a function of (r, t), the flag it needs and the flag it
# refuses
_FAMILIES = {key: entry for entry in (
    ("tower", "51", lambda r, t: [tower_family(r)], "r", "t"),
    ("spin-pair", "52", lambda r, t: [spin_pair(t)], "t", "r"),
    ("mirror", "53", lambda r, t: mirror_pair(r, 1 if t is None else t), "r", None),
) for key in entry[:2]}


def cmd_family(args) -> int:
    entry = _FAMILIES.get(args.generator)
    if entry is None:
        raise UsageError(f"unknown family {args.generator!r}: "
                         "choose 51/tower, 52/spin-pair, or 53/mirror")
    name, _, make, needs, refuses = entry
    if getattr(args, needs) is None:
        raise UsageError(f"{name} family needs -{needs}")
    if refuses is not None and getattr(args, refuses) is not None:
        raise UsageError(f"{name} family takes no -{refuses}")
    groups = make(args.r, args.t)

    for members in groups:
        print(" | ".join(format_spin_lens(x) for x in members))
        canon = [canonical_key(x, "unoriented").as_space() for x in members]
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
    print(f"ok: {format_spin_lens(x)} k <= {args.k_max}")
    return 0


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it costs far more than a parse.
    Its subcommands attribute maps each subcommand to its subparser."""
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

    parser.subcommands = sub.choices
    return parser


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """What build_parser().parse_args(argv) returns, prints and exits with.

    A known subcommand goes straight to its subparser: the top-level
    parser would only set args.command and hand it the rest of argv,
    which costs about as much as the subparser's own parse.  Anything
    else (no argv, -h, an unknown name) and any argument the subparser
    leaves over take the full parse, so every usage line and error
    message is the full parser's."""
    parser = build_parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    # any exception not caught here is a bug and keeps its traceback
    try:
        return args.func(args)
    except (UsageError, IoError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # an input too large to compute is not a negative verdict
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
