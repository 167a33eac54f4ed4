"""Rebuild pool.json: the known-good inputs the `queries` workload draws
from, each with its contracted exit code and the digest of its output.

    PYTHONPATH=src python3 perfbench/record.py

Positive isospec pairs come from tower_family, spin_pair, mirror_pair and
from members of families that run_census computes; negative pairs join
members of different computed families at the same q.  Every candidate
is run through the CLI once here and must exit with the code its
construction implies, so a recorded digest is never a recorded failure.
Run this only at a commit whose answers are trusted: the digests are the
reference every later benchmark run is checked against.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from itertools import combinations

from lensdirac import cli, lattice
from lensdirac.search import mirror_pair, run_census, spin_pair, tower_family
from lensdirac.spectrum import dirac_isospectral, inverse_isospectral

from workloads import POOL_PATH, output_digest

BUILD_SEED = 20141208
VARIANTS = 4

# (dimension, q) censuses whose families seed the isospec pairs.
CENSUS_SOURCES = ((7, 49), (7, 75), (7, 80), (7, 81), (7, 98),
                  (11, 40), (11, 44), (11, 48),
                  (15, 39), (15, 52),
                  (19, 24), (19, 40))


def run_cli(argv: list[str]) -> tuple[int, str]:
    lattice.clear_caches()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def spec(x) -> str:
    text = f"{x.q}:{','.join(map(str, x.lens.s))}"
    return text + (f":{x.spin.tag}" if x.q % 2 == 0 else "")


def random_q(rng, q_lo, q_hi, m):
    """q in [q_lo, q_hi]; even q needs even m for a spin structure."""
    while True:
        q = rng.randint(q_lo, q_hi)
        if q % 2 == 1 or m % 2 == 0:
            return q


def space_args(rng, q, m):
    units = [u for u in range(1, q) if math.gcd(u, q) == 1]
    s = [rng.choice(units) for _ in range(m)]
    spin = ["--spin", rng.choice(("h0", "h1"))] if q % 2 == 0 else []
    return ["-q", str(q), "-s", ",".join(map(str, s))] + spin


def candidate(argv, expect_rc):
    rc, text = run_cli(argv)
    if rc != expect_rc:
        sys.exit(f"{' '.join(argv)}: exit {rc}, expected {expect_rc}\n{text}")
    return {"argv": argv, "rc": rc, "digest": output_digest(argv, text)}


def stratum(name, slots):
    print(f"{name}: {len(slots)} slots, "
          f"{sum(map(len, slots))} candidates", flush=True)
    return {"name": name, "slots": slots}


def spectrum_strata(rng):
    """A slot fixes q, m, k and the format; its variants differ in the
    parameters and spin label, which barely change the cost."""
    out = []
    for m in (2, 3, 4, 5):
        for lo, hi in ((3, 25), (26, 50), (51, 75), (76, 100)):
            slots = []
            for _ in range(6):
                q = random_q(rng, lo, hi, m)
                tail = ["-k", str(rng.randint(10, 200)),
                        "--format", rng.choice(("plain", "csv", "structured"))]
                slots.append([candidate(["spectrum"] + space_args(rng, q, m) + tail, 0)
                              for _ in range(VARIANTS)])
            out.append(stratum(f"spectrum/m{m}/q{lo}-{hi}", slots))
    return out


def oracle_strata(rng):
    out = []
    for m in (2, 3, 4, 5):
        for lo, hi in ((3, 15), (16, 30)):
            slots = []
            for _ in range(5):
                q = random_q(rng, lo, hi, m)
                slots.append([candidate(["oracle"] + space_args(rng, q, m)
                                        + ["-k", "40", "--dps", "40"], 0)
                              for _ in range(VARIANTS)])
            out.append(stratum(f"oracle/m{m}/q{lo}-{hi}", slots))
    return out


def family_strata():
    groups = (("family/tower", [["tower", "-r", r] for r in "11223"]),
              ("family/spin-pair", [["spin-pair", "-t", t] for t in "12312"]),
              ("family/mirror", [["mirror", "-r", r] for r in
                                 ("7", "9", "11", "13") * 2 + ("7", "13")]))
    return [stratum(name, [[candidate(["family"] + args + ["--verify"], 0)]
                           for args in cmds])
            for name, cmds in groups]


def isospec_strata(rng):
    """One stratum per dimension and verdict; two slots per q, whose
    variants are all the pairs at that q (same q and m, so the same cost)."""
    pos: dict[tuple, list] = {}
    neg: dict[tuple, list] = {}
    known = [tower_family(1), tower_family(2)]
    known += [spin_pair(t) for t in (1, 2, 3)]
    known += [p for r in (7, 9, 11, 13) for p in mirror_pair(r)]
    for fam in known:
        pos.setdefault((2 * fam[0].m - 1, fam[0].q), []).extend(combinations(fam, 2))
    for n, q in CENSUS_SOURCES:
        fams = [f.members for f in run_census(n, [q])[0].families]
        print(f"census n={n} q={q}: {len(fams)} families", flush=True)
        for fam in fams:
            pos.setdefault((n, q), []).extend(combinations(fam, 2))
        for fa, fb in combinations(fams, 2):
            neg.setdefault((n, q), []).extend((a, b) for a in fa for b in fb)

    out = []
    for n in (7, 11, 15, 19):
        for sign, groups in (("pos", pos), ("neg", neg)):
            slots = []
            for (gn, q), pairs in sorted(groups.items()):
                if gn != n:
                    continue
                variants = []
                for a, b in rng.sample(pairs, min(VARIANTS, len(pairs))):
                    strict = dirac_isospectral(a, b)
                    if sign == "neg" and (strict or inverse_isospectral(a, b)):
                        continue
                    flag = ["--unoriented"] if (
                        (sign == "pos" and not strict) or rng.random() < 0.5) else []
                    variants.append(candidate(["isospec"] + flag + [spec(a), spec(b)],
                                              0 if sign == "pos" else 1))
                if variants:
                    slots += [variants, variants]
            out.append(stratum(f"isospec/n{n}/{sign}", slots))
    return out


def main() -> None:
    rng = random.Random(BUILD_SEED)
    strata = (spectrum_strata(rng) + isospec_strata(rng) + family_strata()
              + oracle_strata(rng))
    with open(POOL_PATH, "w") as fh:
        json.dump({"build_seed": BUILD_SEED, "strata": strata}, fh, indent=1)
        fh.write("\n")
    print(f"{sum(len(s['slots']) for s in strata)} queries per sample, "
          f"written to {POOL_PATH}")


if __name__ == "__main__":
    main()
