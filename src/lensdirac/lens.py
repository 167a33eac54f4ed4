"""Lens space parameters, spin structures, isometries, canonical forms.

A lens space L(q; s_1,...,s_m) is the quotient of the unit sphere in C^m
by the cyclic isometry group generated by
    gamma = diag(rot(2*pi*s_1/q), ..., rot(2*pi*s_m/q)),
with every s_j coprime to q and m >= 2 (dimension n = 2m-1 >= 3).

Two such spaces are isometric iff there are a unit l mod q, a permutation
sigma and signs eps_j = +-1 with

    l * eps_j * s_j == s'_{sigma(j)}   (mod q)  for all j.           (*)

The map realizing (*) conjugates/permutes coordinates; each eps_j = -1
reverses orientation, so the witness is orientation preserving iff
prod eps_j = +1 (the permutation itself never reverses: a permutation of
complex coordinates is an even real rotation).

Spin structures: for odd q there is exactly one; for even q there are two
(labelled h = 0, 1) when m is even and none when m is odd.  The label is
attached to the lens space independently of the parameter representative
via the shift h(q;s) = sum_j floor(s_j/q) mod 2.  A witness (*) transports
labels by

    h' = h + h(q;s) + h(q;s') + sum_j rho_j   (mod 2),
    rho_j = (l * eps_j * s_j - s'_{sigma(j)}) / q  (an exact integer).

The searches below never enumerate permutations: for a fixed l the
coordinates must match up by folded residue {v, q-v}, and the orientation
parity and transport parity are forced:

    #[eps_j = -1]  ==  #{j: l*s_j mod q > q/2} + #{k: s'_k mod q > q/2},
    sum_j rho_j    ==  sum_j floor(l*s_j_norm/q) + #[eps_j = -1]

with normalized parameters (each rho_j changes by exactly 1 when a
coordinate is matched across the fold, since -x = -(floor(x/q)+1)*q + ...).
That collapses the (sigma, eps) search to a multiset comparison per l.

The free flip.  For q <= 2 every residue x has x == -x (mod q), so each
eps_j is free: flipping it toggles the orientation parity and moves the
transport parity by 2x/q (1 at q = 2, 0 at q = 1).  For q > 2 no unit
has 2x == 0, and the forced parities above are the only ones.

Candidate units.  Only l = +-b_1 * a_j^-1 (mod q), at most 2m units, can
matter: a unit relating a to b sends some a_j to +-b_1, and a unit
minimising a canonical form sends some a_j to +-1, the smallest folded
value.  Witnesses try both signs; canonical forms need only l = a_j^-1.
l and q - l fold alike, with fold counts adding up to m.  For even m,
(q - l, -eps) acts as (l, eps) and moves the spin label by
sum_j a_j + m, even when q is (a_j odd).  For odd m, l = -1 with every
eps_j = -1 fixes each tuple and reverses orientation: dimension 4k+1 is
amphichiral, so oriented canonical forms are the unoriented ones.

Classes.  A canonical tuple is (1 mod q, f_2 <= ... <= f_m), f_j folded,
or when oriented its mirror, and a (tuple, spin label) row is a class iff
it equals its canonical form: the spin split is the label column, as
(t, 1) stays unless an isometry of the mode fixing t takes label 1 to 0.
A row is not canonical when the unit sending some entry to 1 sends
another below f_2 (_class_candidates), a test far cheaper than the form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Literal, Optional, Sequence

import numpy as np


class NotCoprime(ValueError):
    """A parameter s_j shares a factor with q."""

    def __init__(self, j: int, s: int, q: int):
        super().__init__(f"s[{j}] = {s} is not coprime to q = {q}")
        self.index = j


class DimensionTooSmall(ValueError):
    """Fewer than two parameters (dimension < 3)."""


class NoSpinStructure(ValueError):
    """L(q; s) with q even and m odd carries no spin structure."""


class Mismatch(ValueError):
    """Isometry search between spaces of different q or m."""


IsoMode = Literal["any", "preserving", "reversing"]
KeyMode = Literal["oriented", "unoriented"]


@dataclass(frozen=True)
class LensParams:
    """Parameters (q; s_1,...,s_m), stored exactly as given.

    Parameters are deliberately not normalized mod q: the spin shift
    h(q;s) depends on the raw integers, and normalization is the job of
    canonical_key.
    """

    q: int
    s: tuple[int, ...]

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"q must be positive, got {self.q}")
        object.__setattr__(self, "s", tuple(self.s))
        if len(self.s) < 2:
            raise DimensionTooSmall(f"need m >= 2 parameters, got {len(self.s)}")
        for j, sj in enumerate(self.s):
            if math.gcd(sj, self.q) != 1:
                raise NotCoprime(j, sj, self.q)

    @property
    def m(self) -> int:
        return len(self.s)

    @property
    def dim(self) -> int:
        return 2 * len(self.s) - 1

    def normalized(self) -> tuple[int, ...]:
        """Residues of s in [0, q); [1, q) except for q = 1."""
        return tuple(sj % self.q for sj in self.s)


def make_lens(q: int, s: Sequence[int]) -> LensParams:
    return LensParams(q, tuple(s))


def h_shift(lens: LensParams) -> int:
    """Parity of sum_j floor(s_j / q) (true floor, negatives included)."""
    return sum(sj // lens.q for sj in lens.s) % 2


@dataclass(frozen=True)
class SpinLabel:
    """Spin structure label: h is None for the unique structure (odd q),
    0 or 1 for the two structures of an even-q space."""

    h: Optional[int] = None

    @property
    def tag(self) -> str:
        return "unique" if self.h is None else f"h{self.h}"

    @staticmethod
    def from_tag(tag: str) -> "SpinLabel":
        if tag == "unique":
            return SpinLabel(None)
        if tag in ("h0", "h1"):
            return SpinLabel(int(tag[1]))
        raise ValueError(f"unknown spin tag {tag!r}")

    def __str__(self) -> str:
        return self.tag


UNIQUE_SPIN = SpinLabel(None)


def spin_structures(lens: LensParams) -> list[SpinLabel]:
    """Spin structures of L(q; s): one for odd q, two for even q with m
    even, none for even q with m odd."""
    if lens.q % 2 == 1:
        return [UNIQUE_SPIN]
    if lens.m % 2 == 1:
        return []
    return [SpinLabel(0), SpinLabel(1)]


@dataclass(frozen=True)
class SpinLensSpace:
    lens: LensParams
    spin: SpinLabel

    def __post_init__(self):
        valid = spin_structures(self.lens)
        if not valid:
            raise NoSpinStructure(
                f"L(q={self.lens.q}; m={self.lens.m}) has no spin structure"
            )
        if self.spin not in valid:
            raise ValueError(
                f"spin {self.spin.tag} invalid for q={self.lens.q}: "
                f"expected one of {[x.tag for x in valid]}"
            )

    @property
    def q(self) -> int:
        return self.lens.q

    @property
    def s(self) -> tuple[int, ...]:
        return self.lens.s

    @property
    def m(self) -> int:
        return self.lens.m

    def __str__(self) -> str:
        return format_spin_lens(self)


def spin_space(q: int, s: Sequence[int], spin: str | SpinLabel | None = None) -> SpinLensSpace:
    """Build a SpinLensSpace; spin defaults to the unique structure when
    q is odd and must be given explicitly ("h0"/"h1") when q is even."""
    lens = make_lens(q, s)
    if isinstance(spin, str):
        label = SpinLabel.from_tag(spin)
    elif isinstance(spin, SpinLabel):
        label = spin
    elif spin is None:
        label = UNIQUE_SPIN
    else:
        raise TypeError(f"bad spin {spin!r}")
    return SpinLensSpace(lens, label)


def format_spin_lens(x: SpinLensSpace) -> str:
    params = ",".join(str(sj) for sj in x.s)
    base = f"L({x.q}; {params})"
    if x.spin.h is None:
        return base
    return f"{base} tau_{x.spin.h}"


@dataclass(frozen=True)
class IsometryWitness:
    """A solution of (*): l * eps[j] * s_j == s'[sigma[j]] (mod q).

    sigma is 0-based (source j maps to target slot sigma[j]); spin_shift
    is sum_j rho_j mod 2 computed from the raw parameters.
    """

    ell: int
    sigma: tuple[int, ...]
    eps: tuple[int, ...]
    spin_shift: int

    @property
    def orientation(self) -> int:
        prod = 1
        for e in self.eps:
            prod *= e
        return prod

    def verify(self, a: SpinLensSpace, b: SpinLensSpace, mode: IsoMode = "any") -> bool:
        """Exact re-check of every witness invariant."""
        la, lb = a.lens, b.lens
        q = la.q
        if lb.q != q or lb.m != la.m:
            return False
        m = la.m
        if sorted(self.sigma) != list(range(m)) or len(self.eps) != m:
            return False
        if any(e not in (-1, 1) for e in self.eps):
            return False
        if math.gcd(self.ell, q) != 1:
            return False
        rho_sum = 0
        for j in range(m):
            diff = self.ell * self.eps[j] * la.s[j] - lb.s[self.sigma[j]]
            if diff % q != 0:
                return False
            rho_sum += diff // q
        if rho_sum % 2 != self.spin_shift:
            return False
        if mode == "preserving" and self.orientation != 1:
            return False
        if mode == "reversing" and self.orientation != -1:
            return False
        if a.spin.h is not None:
            expect = (a.spin.h + h_shift(la) + h_shift(lb) + self.spin_shift) % 2
            if b.spin.h != expect:
                return False
        return True


def _fold(v: int, q: int) -> int:
    return min(v, q - v)


def _mode_parities(mode: IsoMode) -> frozenset[int]:
    if mode == "any":
        return frozenset((0, 1))
    if mode == "preserving":
        return frozenset((0,))
    if mode == "reversing":
        return frozenset((1,))
    raise ValueError(f"unknown mode {mode!r}")


def _ell_relations(sn_a: tuple[int, ...], sn_b: tuple[int, ...], q: int
                   ) -> Iterator[tuple[int, frozenset[tuple[int, int]]]]:
    """For each candidate unit l (module docstring) with matching folded
    multisets, in increasing order, yield
    (l, achievable {(orientation parity, transport parity)}).

    Parameters must be normalized to [0, q).  The forced pair is always
    achievable; the free flip (q <= 2, module docstring) adds its image.
    """
    fb = sorted(_fold(u, q) for u in sn_b)
    u_high = sum(1 for u in sn_b if 2 * u > q)
    # Python ints: exact at any q, and cheaper than numpy for one pair
    b1 = sn_b[0]
    for ell in sorted({e * b1 * pow(x, -1, q) % q for x in sn_a for e in (1, -1)}):
        v = [(ell * x) % q for x in sn_a]
        fa = sorted(_fold(x, q) for x in v)
        if fa != fb:
            continue
        parity = (sum(1 for x in v if 2 * x > q) + u_high) % 2
        rho = (sum((ell * x) // q for x in sn_a) + parity) % 2
        pairs = {(parity, rho)}
        if 2 * v[0] % q == 0:  # the free flip: every coordinate is free at q <= 2
            pairs.add((1 - parity, (rho + 2 * v[0] // q) % 2))
        yield ell, frozenset(pairs)


def _build_assignment(v: list[int], sn_b: tuple[int, ...], q: int
                      ) -> tuple[list[int], list[int]]:
    """Deterministic (sigma, eps) for matched folded multisets: sources and
    targets each sorted by (folded value, value) and paired in order, so
    every fold group matches its equal values first and flips the fewest
    signs; eps_j = +1 exactly when v_j equals its target."""
    src = sorted(range(len(v)), key=lambda j: (_fold(v[j], q), v[j]))
    dst = sorted(range(len(sn_b)), key=lambda k: (_fold(sn_b[k], q), sn_b[k]))
    sigma = [0] * len(v)
    eps = [0] * len(v)
    for j, k in zip(src, dst):
        sigma[j] = k
        eps[j] = 1 if v[j] == sn_b[k] else -1
    return sigma, eps


def _raw_spin_shift(ell: int, sigma: Sequence[int], eps: Sequence[int],
                    a: LensParams, b: LensParams) -> int:
    q = a.q
    total = 0
    for j in range(a.m):
        diff = ell * eps[j] * a.s[j] - b.s[sigma[j]]
        if diff % q:
            raise ArithmeticError(
                f"assignment sends parameter {a.s[j]} (x {ell * eps[j]}) to "
                f"{b.s[sigma[j]]}, which differ mod {q}")
        total += diff // q
    return total % 2


def find_lens_isometry(a: LensParams, b: LensParams, mode: IsoMode = "any"
                       ) -> Optional[IsometryWitness]:
    """Witness of (*) between bare lens spaces (no spin constraint)."""
    return _find_witness(a, b, mode, spin_delta=None)


def find_isometry(a: SpinLensSpace, b: SpinLensSpace, mode: IsoMode = "any"
                  ) -> Optional[IsometryWitness]:
    """Witness of (*) transporting a's spin structure to b's.

    For odd q the unique structures are always transported; for even q
    the witness must satisfy the transport rule for the given labels.
    """
    if a.spin.h is None or b.spin.h is None:
        delta = None  # odd q, or orders that _find_witness rejects
    else:
        # required transport parity in normalized-parameter convention
        delta = (b.spin.h - a.spin.h) % 2
    return _find_witness(a.lens, b.lens, mode, spin_delta=delta)


def _find_witness(a: LensParams, b: LensParams, mode: IsoMode,
                  spin_delta: Optional[int]) -> Optional[IsometryWitness]:
    if a.q != b.q or a.m != b.m:
        raise Mismatch(f"cannot compare q={a.q},m={a.m} with q={b.q},m={b.m}")
    q = a.q
    want = _mode_parities(mode)
    sn_a, sn_b = a.normalized(), b.normalized()
    for ell, pairs in _ell_relations(sn_a, sn_b, q):
        choices = [(p, r) for (p, r) in sorted(pairs)
                   if p in want and (spin_delta is None or r == spin_delta)]
        if not choices:
            continue
        sigma, eps = _build_assignment([(ell * x) % q for x in sn_a], sn_b, q)
        if eps.count(-1) % 2 != choices[0][0]:  # the free flip, q <= 2 only
            eps[-1] = -eps[-1]
        return IsometryWitness(
            ell=ell,
            sigma=tuple(sigma),
            eps=tuple(eps),
            spin_shift=_raw_spin_shift(ell, sigma, eps, a, b),
        )
    return None


@dataclass(frozen=True)
class CanonicalKey:
    """Orbit invariant: equal keys iff the spaces are related by an
    isometry of the key's mode (spin structures transported)."""

    q: int
    s: tuple[int, ...]
    spin: str
    mode: KeyMode

    def as_space(self) -> SpinLensSpace:
        return spin_space(self.q, self.s, self.spin)


def _candidate_ells(S: np.ndarray, q: int) -> np.ndarray:
    """(rows, m) array of the units S[:, j]^-1 mod q ("Candidate units")."""
    if q * q >= 2**63:
        raise OverflowError(f"q = {q}: products of residues would overflow int64")
    values, where = np.unique(S, return_inverse=True)
    return np.array([pow(int(v), -1, q) for v in values])[where].reshape(S.shape)


def _lex_update(best: np.ndarray, cand: np.ndarray) -> None:
    """Rowwise best = min(best, cand) lexicographically."""
    first = (cand != best).argmax(axis=1)
    rows = np.arange(len(best))
    less = cand[rows, first] < best[rows, first]
    best[less] = cand[less]


def _canonical_rows(S: Sequence[Sequence[int]], q: int, mode: KeyMode,
                    h: Sequence[int]) -> np.ndarray:
    """Canonical form of every row of normalized parameters S: the
    lexicographic minimum of (sorted folded tuple, transported label h[i])
    over the candidate units l = S[i, j]^-1.  Oriented tuples take only
    even numbers of sign flips: after an odd number of folds the largest
    entry is unfolded, as q - g >= q/2 still sorts last.  Odd m is
    amphichiral and takes the unoriented path ("Candidate units").  At
    q = 2 the free flip makes every unoriented label 0.
    """
    S = np.asarray(S, dtype=np.int64)
    spin = np.asarray(h, dtype=np.int64)
    best = np.full((len(S), S.shape[1] + 1), q, dtype=np.int64)
    for ell in _candidate_ells(S, q).T:
        prod = ell[:, None] * S
        v = prod % q
        tup = np.minimum(v, q - v)
        folds = (tup != v).sum(axis=1)
        tup.sort(axis=1)
        # each sign flip moves the transport parity by one, and the
        # oriented tuple always carries an even number of them
        label = spin + (prod // q).sum(axis=1)
        if mode == "unoriented" or S.shape[1] % 2:
            label += folds
        else:
            odd = folds % 2 == 1
            tup[odd, -1] = q - tup[odd, -1]
        _lex_update(best, np.column_stack([tup, label % 2]))
    if q == 2 and mode == "unoriented":  # the free flip moves the label by 1
        best[:, -1] = 0
    if not (best < q).all():
        raise ArithmeticError(f"canonical form left unset for some tuple at q={q}")
    return best


def _fold_below(x: np.ndarray, bound: np.ndarray, q: int) -> np.ndarray:
    """Rowwise: is the folded residue of x mod q below bound?"""
    v = x % q
    return (v < bound) | (v > q - bound)


def _class_candidates(q: int, m: int, mode: KeyMode) -> np.ndarray:
    """The rows _class_rows runs the canonical form on: (1 mod q, f_2 <=
    ... <= f_m, spin label) over the folded units in [0, q/2], with the
    oriented mirrors of even m (q > 2 only: at q = 2 a mirror is the row
    itself; odd m mirrors are never canonical), less those the prefilter
    rejects.

    Prefilter.  The unit l = f_j^-1 (j >= 2) sends f_j to 1, so its
    sorted folded tuple is (1, min_{k != j} fold(l f_k), ...), with the
    leading 1 as f_1.  If that second entry is below f_2, the tuple is
    smaller than the row's, and no label or mirror makes the row
    canonical.  The entries are added one column at a time, each new
    column tested against the earlier ones, so a rejected prefix is
    never extended (orderly generation).  In oriented m = 2 the second
    entry is the unfolded last entry, so nothing is rejected there; at
    q <= 2 every folded value is f_2 and nothing is rejected either.
    The products l f_k are int64, so q^2 must stay below 2^63.
    """
    if q * q >= 2**63:
        raise OverflowError(f"q = {q}: products of residues would overflow int64")
    folded = np.array([f for f in range(q // 2 + 1) if math.gcd(f, q) == 1], dtype=np.int64)
    inverse = np.array([pow(int(f), -1, q) for f in folded], dtype=np.int64)
    prune = mode == "unoriented" or m > 2
    # f_2..f_c as columns of indices into folded; each further column
    # repeats every row once per folded unit from its last index on
    # (cumsum gives the offsets)
    cols: list[np.ndarray] = []
    new = np.arange(len(folded))
    for _ in range(1, m):
        if cols:
            counts = len(folded) - cols[-1]
            start = np.repeat(np.cumsum(counts) - counts, counts)
            new = np.repeat(cols[-1], counts) + np.arange(len(start)) - start
            cols = [np.repeat(col, counts) for col in cols]
        if prune:
            f, g = folded[new], inverse[new]
            f2 = folded[cols[0]] if cols else f
            bad = _fold_below(g, f2, q)
            for col in cols:
                bad |= _fold_below(g * folded[col], f2, q) | _fold_below(inverse[col] * f, f2, q)
            new = new[~bad]
            cols = [col[~bad] for col in cols]
        cols.append(new)
    A = np.column_stack([np.full(len(new), 1 % q, dtype=np.int64),
                         folded[np.stack(cols, axis=1)]])
    if mode == "oriented" and m % 2 == 0 and q > 2:
        mirror = A.copy()
        mirror[:, -1] = q - mirror[:, -1]
        A = np.vstack([A, mirror])
    labels = (0,) if q % 2 else (0, 1)
    return np.column_stack([np.tile(A, (len(labels), 1)), np.repeat(labels, len(A))])


def _class_rows(q: int, m: int, mode: KeyMode) -> np.ndarray:
    """Sorted int64 rows (canonical tuple, spin label), one per class of
    spin lens spaces of order q with m parameters (m even when q is;
    label 0 for the unique structure of odd q): the _class_candidates
    rows that are their own canonical form."""
    rows = _class_candidates(q, m, mode)
    keep = np.all(_canonical_rows(rows[:, :-1], q, mode, rows[:, -1]) == rows, axis=1)
    rows = rows[keep]
    return rows[np.lexsort(rows.T[::-1])]


def canonical_key(x: SpinLensSpace, mode: KeyMode = "unoriented") -> CanonicalKey:
    """Lexicographically minimal (parameter tuple, spin label) over the
    isometry group of the given mode.

    Entries of the canonical tuple lie in [1, q) ((0,...) for q = 1);
    ties between transported spin labels prefer h = 0.
    """
    if mode not in ("oriented", "unoriented"):
        raise ValueError(f"unknown mode {mode!r}")
    q, h = x.q, x.spin.h
    *tup, hval = _canonical_rows([x.lens.normalized()], q, mode, [h or 0])[0].tolist()
    spin_tag = "unique" if h is None else f"h{hval}"
    return CanonicalKey(q, tuple(tup), spin_tag, mode)


def self_transport_pairs(params: tuple[int, ...], q: int) -> frozenset[tuple[int, int]]:
    """Achievable (orientation parity, spin transport parity) pairs over
    all self-relations of the normalized tuple: whether the two spin
    structures of an even-q space are exchanged by an isometry, and
    whether the space admits an orientation-reversing self-isometry
    (amphichirality).  A census reads the first from _class_rows instead."""
    sn = tuple(v % q for v in params)
    out: set[tuple[int, int]] = set()
    for _ell, pairs in _ell_relations(sn, sn, q):
        out |= pairs
        if len(out) == 4:
            break
    return frozenset(out)
