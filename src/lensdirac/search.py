"""Census machinery: enumerate isometry classes of spin lens spaces at a
fixed dimension and group order, fingerprint every class, and partition
into isospectral families.  Also: generators for the known infinite
families, a from-scratch family verifier, and result persistence.

Class enumeration is lens._class_rows: the (tuple, spin label) rows that
equal their own canonical form, which settles the tuples and the even-q
spin split in one vectorized pass.  A census fingerprints those rows in
two phases: one vectorized sketch of every row's table (lattice.sketches,
the table's generating polynomials at one point of a prime field), then
a SpinLensSpace and its full table only for classes whose sketch collides
with another's.  Grouping follows enumeration order, so output is
deterministic.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable, Iterable, Optional, Sequence, TextIO

import numpy as np

from .lens import (
    KeyMode,
    NoSpinStructure,
    SpinLabel,
    SpinLensSpace,
    _class_rows,
    find_isometry,
    format_spin_lens,
    spin_space,
)
from .lens import self_transport_pairs  # noqa: F401  perfbench wrap site lensdirac.search.self_transport_pairs
from .lattice import ReducedCountTable, sketches
from .spectrum import dirac_isospectral, fingerprint, inverse_isospectral


class VerificationFailed(Exception):
    """A family failed one of its from-scratch checks."""


class IoError(Exception):
    """Filesystem trouble while saving or loading results."""


class FormatError(Exception):
    """A results file does not parse or does not fit the schema."""


FORMAT_VERSION = 1


@dataclass(frozen=True)
class IsospectralFamily:
    """A group of >= 2 pairwise isospectral classes sharing a fingerprint
    digest.  trivial_flags has one entry per member pair (i < j, in
    lexicographic pair order): True when some isometry relates the pair
    with spin structures transported, i.e. when the coincidence is
    explained away by geometry."""

    digest: str
    members: tuple[SpinLensSpace, ...]
    trivial_flags: tuple[bool, ...]

    def __post_init__(self):
        k = len(self.members)
        if k < 2:
            raise ValueError(f"a family needs at least two members, got {k}")
        if len(self.trivial_flags) != k * (k - 1) // 2:
            raise ValueError(f"{len(self.trivial_flags)} trivial flags for "
                             f"{k * (k - 1) // 2} member pairs")


@dataclass(frozen=True)
class CensusResult:
    """One q of a census.  classes counts the isometry classes;
    fingerprints counts the sketch collisions: the classes whose sketch
    equals another class's, each of which gets a full table."""

    n: int
    q: int
    mode: str
    families: tuple[IsospectralFamily, ...]
    classes: int
    fingerprints: int
    seconds: float
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[str, ...]

    def __str__(self) -> str:
        return "\n".join(self.checks)


def _census_rows(n: int, q: int, mode: KeyMode) -> np.ndarray:
    """lens._class_rows of dimension n and order q, after checking n, q
    and mode; raises NoSpinStructure for even q with odd m."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"dimension must be odd and >= 3, got {n}")
    if mode not in ("oriented", "unoriented"):
        raise ValueError(f"unknown mode {mode!r}")
    if q < 1:
        raise ValueError(f"order must be positive, got {q}")
    m = (n + 1) // 2
    if q % 2 == 0 and m % 2 == 1:
        raise NoSpinStructure(f"no spin structure for q={q}, m={m}")
    return _class_rows(q, m, mode)


def _row_space(q: int, row: list[int]) -> SpinLensSpace:
    """The space of a class row (parameters, spin label)."""
    return spin_space(q, row[:-1], SpinLabel(row[-1] if q % 2 == 0 else None))


def enumerate_classes(n: int, q: int, mode: KeyMode = "unoriented") -> tuple[SpinLensSpace, ...]:
    """One representative per isometry class of spin lens spaces of
    dimension n and order q, in deterministic (lexicographic) order.

    mode "oriented" classifies up to orientation-preserving isometry,
    "unoriented" up to all isometries; spin structures are transported
    along the isometries either way, so the two even-q labels of a tuple
    are one class exactly when a self-isometry of the mode exchanges
    them.  Each representative is its own canonical key's space.
    """
    return tuple(_row_space(q, row) for row in _census_rows(n, q, mode).tolist())


def _group_key(rows: tuple[tuple[int, int], ...], mode: KeyMode) -> tuple:
    """Rows as compared by a census: up to the parity swap when unoriented."""
    if mode == "unoriented":
        return min(rows, tuple((odd, even) for even, odd in rows))
    return rows


def run_census(n: int, q_range: Iterable[int],
               mode: KeyMode = "unoriented") -> tuple[CensusResult, ...]:
    """Collect, for each q, the groups of >= 2 classes with matching
    spectra.

    Oriented mode groups by exact table equality; unoriented mode also
    merges groups whose tables match after the parity swap (reflecting a
    representative swaps its table columns, so equality-up-to-swap is
    the orientation-free comparison).  Same-key grouping compares full
    tables, never digests alone.

    Two phases.  The first buckets every class row on its lattice.sketches
    pair (sorted, in unoriented mode), a ring image of its table, with
    one np.unique over the pairs: equal tables have equal sketches, so a
    class alone in its bucket is alone in its spectrum.  Only classes
    sharing a bucket become spaces and get fingerprint(), in enumeration
    order, and CensusResult.fingerprints counts them.
    """
    m = (n + 1) // 2
    results: list[CensusResult] = []
    for q in q_range:
        started = time.perf_counter()
        try:
            classes = _census_rows(n, q, mode)
        except NoSpinStructure:
            results.append(CensusResult(
                n=n, q=q, mode=mode, families=(), classes=0, fingerprints=0,
                seconds=0.0, note="no spin structure (q even, m odd)"))
            continue
        pairs = np.fromiter(chain.from_iterable(sketches(q, classes[:, :-1], classes[:, -1])),
                            dtype=np.int64, count=2 * len(classes)).reshape(-1, 2)
        if mode == "unoriented":
            pairs.sort(axis=1)
        # sketch values are residues below 2^31, so a pair is one int64
        # key (were they not, keys could only merge buckets: more full
        # tables, never a lost family)
        _, bucket, size = np.unique(pairs[:, 0] << 31 | pairs[:, 1],
                                    return_inverse=True, return_counts=True)
        survivors = np.flatnonzero(size[bucket] > 1).tolist()
        reps = {i: _row_space(q, classes[i].tolist()) for i in survivors}
        groups: dict[tuple, list[int]] = {}
        for idx in survivors:
            rows = fingerprint(reps[idx]).rows
            groups.setdefault(_group_key(rows, mode), []).append(idx)
        families = []
        for rows, idxs in groups.items():
            if len(idxs) < 2:
                continue
            members = tuple(reps[i] for i in idxs)
            flags = tuple(find_isometry(a, b, "any") is not None
                          for a, b in combinations(members, 2))
            digest = ReducedCountTable(q, m, rows).digest()
            families.append(IsospectralFamily(digest, members, flags))
        results.append(CensusResult(
            n=n, q=q, mode=mode, families=tuple(families), classes=len(classes),
            fingerprints=len(survivors), seconds=time.perf_counter() - started))
    return tuple(results)


def tower_family(r: int) -> tuple[SpinLensSpace, ...]:
    """The q=40 tower: r+1 pairwise isospectral, pairwise non-isometric
    spaces of dimension 8r+3, all with spin label h0.  Member p swaps p
    copies of the parameter block (1,11) for (21,31)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    members = []
    for p in range(r + 1):
        s = (1, 11) * (2 * r + 1 - p) + (21, 31) * p
        members.append(spin_space(40, s, "h0"))
    return tuple(members)


def spin_pair(t: int) -> tuple[SpinLensSpace, SpinLensSpace]:
    """L(32t; 1, 1+4t, 1+16t, 1+28t) with each of its two spin labels: a
    single space isospectral to itself across spin structures that no
    isometry exchanges."""
    if t < 1:
        raise ValueError("t must be >= 1")
    q = 32 * t
    s = (1, 1 + 4 * t, 1 + 16 * t, 1 + 28 * t)
    return spin_space(q, s, "h0"), spin_space(q, s, "h1")


def mirror_pair(r: int, t: int = 1) -> tuple[tuple[SpinLensSpace, SpinLensSpace], ...]:
    """L(r^2 t; 1, 1+rt, 1+2rt, 1+4rt) against the same formula with rt
    negated (parameters reduced mod q).  For odd r^2 t this is one pair;
    for even r^2 t there is a pair at each spin label.  Reducing the
    three negative minus-side parameters mod q flips that side's label
    (an odd number of entries cross a period boundary), so the pairs are
    (plus h0, minus h1) and (plus h1, minus h0).

    The t=1 members are proven isospectral for odd r >= 7.  For t >= 2,
    verify_family passes on every pair for r = 7, 9, 11 and t = 1..4 (q
    up to 484, both spin labels at even q), which the test suite checks;
    beyond that grid, verify a pair before relying on it.
    """
    if r < 7 or r % 2 == 0:
        raise ValueError("r must be odd and >= 7")
    if t < 1:
        raise ValueError("t must be >= 1")
    q = r * r * t
    plus = tuple(v % q for v in (1, 1 + r * t, 1 + 2 * r * t, 1 + 4 * r * t))
    minus = tuple(v % q for v in (1, 1 - r * t, 1 - 2 * r * t, 1 - 4 * r * t))
    if q % 2 == 1:
        return ((spin_space(q, plus), spin_space(q, minus)),)
    return ((spin_space(q, plus, "h0"), spin_space(q, minus, "h1")),
            (spin_space(q, plus, "h1"), spin_space(q, minus, "h0")))


def verify_family(members: Sequence[SpinLensSpace],
                  expect_nonisometric: bool = True,
                  up_to_reflection: bool = False) -> VerificationReport:
    """Recheck a claimed family from scratch: every pair must be strictly
    isospectral (tables equal entrywise), and with expect_nonisometric no
    pair may be related by any isometry (spin structures transported).

    up_to_reflection additionally accepts pairs whose tables agree after
    swapping the two parity columns of one side (the relation produced by
    reversing orientation), which is the grouping rule of an unoriented
    census."""
    members = tuple(members)
    if len(members) < 2:
        raise ValueError("a family needs at least two members")
    shape = {(x.q, x.m) for x in members}
    if len(shape) != 1:
        raise ValueError(f"members disagree on (q, m): {sorted(shape)}")
    if len(set(members)) != len(members):
        raise VerificationFailed("duplicate member")

    checks: list[str] = []
    for a, b in combinations(members, 2):
        if dirac_isospectral(a, b):
            checks.append(
                f"isospectral  {format_spin_lens(a)} == {format_spin_lens(b)}")
        elif up_to_reflection and inverse_isospectral(a, b):
            checks.append(
                f"isospectral after reflection  "
                f"{format_spin_lens(a)} ~ {format_spin_lens(b)}")
        else:
            raise VerificationFailed(
                f"not isospectral: {format_spin_lens(a)} vs {format_spin_lens(b)}")
    if expect_nonisometric:
        for a, b in combinations(members, 2):
            witness = find_isometry(a, b, "any")
            if witness is not None:
                raise VerificationFailed(
                    f"isometric: {format_spin_lens(a)} ~ {format_spin_lens(b)} "
                    f"via {witness}")
            checks.append(
                f"non-isometric  {format_spin_lens(a)} vs {format_spin_lens(b)}")
    return VerificationReport(tuple(checks))


def _member_dict(x: SpinLensSpace) -> dict:
    return {"q": x.q, "s": list(x.lens.s), "spin": x.spin.tag}


def _census_dict(res: CensusResult) -> dict:
    return {
        "dimension": res.n,
        "q": res.q,
        "mode": res.mode,
        "classes": res.classes,
        "fingerprints": res.fingerprints,
        "seconds": res.seconds,
        "note": res.note,
        "families": [
            {
                "digest": fam.digest,
                "trivial": any(fam.trivial_flags),
                "trivial_flags": list(fam.trivial_flags),
                "members": [_member_dict(x) for x in fam.members],
            }
            for fam in res.families
        ],
    }


def _write_atomically(path: str, write: Callable[[TextIO], None],
                      newline: Optional[str] = None) -> None:
    """Run write() on a fresh file beside path, then rename it over path,
    so path holds either its old bytes or all of the new ones.  On any
    failure the temporary file is removed and path is left untouched."""
    directory, name = os.path.split(os.path.abspath(path))
    try:
        attempt = 0
        while True:
            tmp = os.path.join(directory, f".{name}.{os.getpid()}-{attempt}.tmp")
            try:
                fh = open(tmp, "x", newline=newline)
                break
            except FileExistsError:
                attempt += 1
        try:
            with fh:
                write(fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def save_results(results: Sequence[CensusResult], path: str) -> None:
    """Write censuses as a versioned JSON document.  Keys are sorted and
    indentation fixed, so identical inputs produce identical bytes."""
    doc = {"format_version": FORMAT_VERSION,
           "censuses": [_census_dict(r) for r in results]}

    def write(fh: TextIO) -> None:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

    _write_atomically(path, write)


def _load_member(obj: dict, q: int, m: int, where: str) -> SpinLensSpace:
    try:
        mq, s, spin = obj["q"], obj["s"], obj["spin"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{where}: member missing field {exc}") from exc
    if type(mq) is not int or mq != q:  # not isinstance: JSON true is a bool
        raise FormatError(f"{where}: member q={mq!r} inside census q={q}")
    if not isinstance(s, list) or len(s) != m:
        raise FormatError(f"{where}: parameter list has length "
                          f"{len(s) if isinstance(s, list) else '?'}, want {m}")
    if any(type(v) is not int for v in s):
        raise FormatError(f"{where}: parameters {s!r} are not all integers")
    if spin not in (("unique",) if q % 2 else ("h0", "h1")):
        raise FormatError(f"{where}: spin {spin!r} invalid for q={q}")
    try:
        return spin_space(q, tuple(s), None if spin == "unique" else spin)
    except Exception as exc:
        raise FormatError(f"{where}: {exc}") from exc


def _field(obj: dict, key: str, kinds, where: str, default=None,
           ok: Callable[..., bool] = lambda value: True):
    """obj[key] (default when absent), checked to be one of kinds, not a
    bool, and to pass ok."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kinds) or not ok(value):
        raise FormatError(f"{where}: bad {key} {value!r}")
    return value


def load_results(path: str) -> tuple[CensusResult, ...]:
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(doc, dict) or doc.get("format_version") != FORMAT_VERSION:
        raise FormatError(f"{path}: missing or unsupported format_version")

    results = []
    for ci, cobj in enumerate(_field(doc, "censuses", list, path, [])):
        where = f"{path}: census[{ci}]"
        if not isinstance(cobj, dict):
            raise FormatError(f"{where}: not an object")
        n = _field(cobj, "dimension", int, where, ok=lambda v: v >= 3 and v % 2 == 1)
        q = _field(cobj, "q", int, where, ok=lambda v: v >= 1)
        mode = _field(cobj, "mode", str, where, ok=lambda v: v in ("oriented", "unoriented"))
        m = (n + 1) // 2
        families, seen = [], set()
        for fi, fobj in enumerate(_field(cobj, "families", list, where, [])):
            fwhere = f"{where}.families[{fi}]"
            if not isinstance(fobj, dict):
                raise FormatError(f"{fwhere}: not an object")
            members = tuple(_load_member(mo, q, m, fwhere)
                            for mo in _field(fobj, "members", list, fwhere, []))
            if len(members) < 2:
                raise FormatError(f"{fwhere}: fewer than two members")
            for x in members:  # families partition distinct classes
                if x in seen:
                    raise FormatError(f"{fwhere}: {format_spin_lens(x)} listed twice")
                seen.add(x)
            npairs = len(members) * (len(members) - 1) // 2
            if "trivial_flags" in fobj:
                flags = tuple(_field(fobj, "trivial_flags", list, fwhere))
            elif npairs == 1:
                flags = (fobj.get("trivial", False),)
            else:
                raise FormatError(f"{fwhere}: trivial_flags required for "
                                  f"{len(members)} members")
            if len(flags) != npairs or not all(isinstance(f, bool) for f in flags):
                raise FormatError(f"{fwhere}: want {npairs} boolean trivial "
                                  f"flags, got {list(flags)!r}")
            if "trivial" in fobj and fobj["trivial"] is not any(flags):
                raise FormatError(f"{fwhere}: trivial {fobj['trivial']!r} disagrees "
                                  f"with trivial_flags {list(flags)!r}")
            digest = fobj.get("digest")
            if not isinstance(digest, str):
                raise FormatError(f"{fwhere}: missing digest")
            families.append(IsospectralFamily(digest, members, flags))
        classes = _field(cobj, "classes", int, where, 0, ok=lambda v: v >= 0)
        results.append(CensusResult(
            n=n, q=q, mode=mode, families=tuple(families), classes=classes,
            # the classes that share a sketch bucket are some of the classes
            fingerprints=_field(cobj, "fingerprints", int, where, 0,
                                ok=lambda v: 0 <= v <= classes),
            seconds=float(_field(cobj, "seconds", (int, float), where, 0.0,
                                 ok=lambda v: 0 <= v <= sys.float_info.max)),
            note=_field(cobj, "note", str, where, "")))
    return tuple(results)


def export_csv(results: Sequence[CensusResult], path: str) -> None:
    """One row per family member."""
    import csv

    def write(fh: TextIO) -> None:
        writer = csv.writer(fh)
        writer.writerow(["dimension", "q", "mode", "family", "digest",
                         "member", "s", "spin", "trivial"])
        for res in results:
            for fi, fam in enumerate(res.families):
                trivial = any(fam.trivial_flags)
                for mi, x in enumerate(fam.members):
                    writer.writerow([
                        res.n, res.q, res.mode, fi, fam.digest, mi,
                        " ".join(str(v) for v in x.lens.s),
                        x.spin.tag, int(trivial)])

    _write_atomically(path, write, newline="")
