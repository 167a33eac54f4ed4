"""Workload plans and correctness gates.

A plan is the list of CLI argument vectors a sample runs; it depends on
the workload name and the seed only.  Gates run after the timed section
and return the operations that failed: one q of a census, or one query.

The census gates compare against copies of the published family tables
(the same rows the acceptance tests replay).  A listed row names a
parameter tuple up to unlabelled reflection, so for even q it can denote
the class of s or of its mirror (last entry negated); matching tries
both and needs a perfect 1:1 assignment onto a computed family.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path

from lensdirac.lens import canonical_key, spin_space
from lensdirac.search import FormatError, load_results, save_results

POOL_PATH = Path(__file__).resolve().parent / "pool.json"

# Published families inside the census windows, as (s, spin label) rows.
PUBLISHED = {
    7: {
        75: [[((1, 4, 14, 16), None), ((1, 4, 11, 19), None)],
             [((1, 4, 11, 34), None), ((1, 4, 14, 31), None)]],
        80: [[((1, 3, 9, 27), "h0"), ((1, 9, 13, 37), "h0")]],
        81: [[((1, 8, 19, 37), None), ((1, 8, 26, 37), None)],
             [((1, 8, 10, 28), None), ((1, 8, 10, 26), None)],
             [((1, 8, 10, 37), None), ((1, 8, 10, 35), None)]],
    },
    11: {
        40: [[((1, 1, 1, 11, 11, 11), "h0"), ((1, 1, 9, 11, 11, 19), "h0")],
             [((1, 1, 11, 11, 13, 17), "h0"), ((1, 1, 3, 7, 11, 11), "h0"),
              ((1, 3, 7, 9, 11, 19), "h0")]],
        44: [[((1, 3, 5, 7, 9, 19), "h0"), ((1, 3, 5, 7, 13, 15), "h0")],
             [((1, 3, 5, 7, 9, 19), "h1"), ((1, 3, 5, 7, 13, 15), "h1")]],
        48: [[((1, 1, 5, 7, 7, 13), "h0"), ((1, 5, 7, 11, 13, 19), "h0"),
              ((1, 1, 7, 7, 11, 19), "h0")],
             [((1, 1, 7, 7, 17, 23), "h0"), ((1, 1, 1, 7, 7, 7), "h0")]],
    },
    19: {
        24: [[((1, 1, 1, 1, 1, 5, 5, 5, 5, 5), "h0"),
              ((1, 1, 1, 5, 5, 5, 7, 7, 11, 11), "h0"),
              ((1, 1, 1, 1, 5, 5, 5, 5, 7, 11), "h0")]],
    },
}

# Each workload is one search per q, in this order, in one process, so
# the table cache persists from one q to the next.  census-d7 is a window
# of the dimension-7 census (q = 79 is prime with 2,870 classes; 76 and 78
# are even with two spin structures); census-hi is the published q of
# dimensions 11 and 19.
D7_CENSUSES = tuple((7, q) for q in range(75, 82))
HI_CENSUSES = ((11, 40), (11, 44), (11, 48), (19, 24))


@dataclass(frozen=True)
class Census:
    """One `search` call: dimension, q window, output file names."""

    n: int
    q_min: int
    q_max: int

    def files(self, out_dir: Path) -> tuple[Path, Path]:
        stem = out_dir / f"census-n{self.n}-q{self.q_min}-{self.q_max}"
        return Path(f"{stem}.json"), Path(f"{stem}.csv")

    def argv(self, out_dir: Path) -> list[str]:
        json_path, csv_path = self.files(out_dir)
        return ["search", "-n", str(self.n), "--q-min", str(self.q_min),
                "--q-max", str(self.q_max), "--out", str(json_path),
                "--csv", str(csv_path)]


@dataclass(frozen=True)
class Query:
    stratum: str
    argv: tuple[str, ...]
    rc: int
    digest: str


def census_plan(workload: str) -> list[Census]:
    """The census inputs are fixed windows with published answers; the
    seed does not change them."""
    censuses = D7_CENSUSES if workload == "census-d7" else HI_CENSUSES
    return [Census(n, q, q) for n, q in censuses]


def load_pool() -> dict:
    with open(POOL_PATH) as fh:
        return json.load(fh)


def query_plan(seed: int, pool: dict) -> list[Query]:
    """The seeded query mix: one query per slot of recorded known-good
    inputs, the variant picked at random, isospec sides swapped at
    random, then shuffled.  The variants of a slot cost about the same,
    so the mix costs about the same for every seed."""
    rng = random.Random(seed)
    queries = []
    for stratum in pool["strata"]:
        for variants in stratum["slots"]:
            cand = rng.choice(variants)
            argv = list(cand["argv"])
            if argv[0] == "isospec" and rng.random() < 0.5:
                argv[-2], argv[-1] = argv[-1], argv[-2]
            queries.append(Query(stratum["name"], tuple(argv), cand["rc"],
                                 cand["digest"]))
    rng.shuffle(queries)
    return queries


# ------------------------------------------------------------------ gates

def output_digest(argv, text: str) -> str:
    """sha256 of a query's output without its float diagnostics: an
    oracle line keeps only the part before the measured deltas."""
    if argv[0] == "oracle":
        text = "\n".join(line.split("  max |delta|")[0]
                         for line in text.splitlines())
    return hashlib.sha256(text.encode()).hexdigest()


def query_ok(query: Query, rc: int, text: str) -> bool:
    return rc == query.rc and output_digest(query.argv, text) == query.digest


def _class_key(q, s, spin):
    return canonical_key(spin_space(q, s, spin), "unoriented")


def _family_matches(q, listed, members) -> bool:
    keys = {canonical_key(x, "unoriented") for x in members}
    if len(listed) != len(keys):
        return False
    options = [{_class_key(q, s, spin), _class_key(q, s[:-1] + (q - s[-1],), spin)}
               & keys for s, spin in listed]
    return any(len(set(pick)) == len(keys) for pick in product(*options))


def families_match(q, listed_families, computed) -> bool:
    """True when the computed families at q are exactly the listed ones."""
    remaining = list(computed)
    if len(remaining) != len(listed_families):
        return False
    for listed in listed_families:
        hit = next((f for f in remaining
                    if _family_matches(q, listed, f.members)), None)
        if hit is None:
            return False
        remaining.remove(hit)
    return True


def _csv_members(path: Path) -> dict[int, list[tuple]]:
    rows: dict[int, list[tuple]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(int(row["q"]), []).append(
                (int(row["family"]), row["digest"], row["s"], row["spin"]))
    return rows


def census_failures(census: Census, out_dir: Path,
                    published: dict = PUBLISHED) -> list[int]:
    """The q values of one search whose saved results are wrong: a family
    missing, extra or changed against the published table (no family at
    an unlisted q), a record that does not round-trip through
    load_results and save_results, or a CSV that disagrees with the JSON."""
    window = range(census.q_min, census.q_max + 1)
    json_path, csv_path = census.files(out_dir)
    try:
        results = load_results(str(json_path))
        again = json_path.with_suffix(".roundtrip.json")
        save_results(results, str(again))
        first = {c["q"]: c for c in json.loads(json_path.read_text())["censuses"]}
        second = {c["q"]: c for c in json.loads(again.read_text())["censuses"]}
        csv_rows = _csv_members(csv_path)
    except (OSError, ValueError, KeyError, FormatError):
        return list(window)
    by_q = {r.q: r for r in results}
    table = published.get(census.n, {})
    failed = []
    for q in window:
        res = by_q.get(q)
        ok = (res is not None and res.n == census.n
              and families_match(q, table.get(q, []), res.families)
              and first.get(q) == second.get(q)
              and csv_rows.get(q, []) == [
                  (fi, fam.digest, " ".join(map(str, x.lens.s)), x.spin.tag)
                  for fi, fam in enumerate(res.families) for x in fam.members])
        if not ok:
            failed.append(q)
    return failed


def census_classes(census: Census, out_dir: Path) -> int:
    """The number of classes the saved results report."""
    doc = json.loads(census.files(out_dir)[0].read_text())
    return sum(int(c["classes"]) for c in doc["censuses"])
