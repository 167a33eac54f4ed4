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
So a witness search builds one assignment per l whose folded multiset
matches and keeps the first that IsometryWitness.verify accepts;
canonical forms read the transported label off the second line.

The free flip.  For q <= 2 every residue x has x == -x (mod q), so each
eps_j is free: flipping it toggles the orientation parity and moves the
transport parity by 2x/q (1 at q = 2, 0 at q = 1).  For q > 2 no unit
has 2x == 0, and the forced parities above are the only ones.

Candidate units.  Only l = +-b_1 * a_j^-1 (mod q), at most 2m units, can
matter: a unit relating a to b sends some a_j to +-b_1, and a unit
minimising a canonical form sends some a_j to +-1, the smallest folded
value.  Witnesses try both signs; canonical forms and the class test
need only l = a_j^-1, since a unit sending a tuple below itself can be
replaced by the one minimising its form.  Callers supply these units: a
census lists each folded unit f and mirror q - f beside its inverse,
and one key inverts its m entries with pow.
l and q - l fold alike, with fold counts adding up to m.  For even m,
(q - l, -eps) acts as (l, eps) and moves the spin label by
sum_j a_j + m, even when q is (a_j odd).  For odd m, l = -1 with every
eps_j = -1 fixes each tuple and reverses orientation: dimension 4k+1 is
amphichiral, so oriented canonical forms are the unoriented ones.

Classes.  A canonical tuple is (1 mod q, f_2 <= ... <= f_m), f_j folded,
or when oriented its mirror, and a (tuple, spin label) row is a class iff
no candidate unit sends it lexicographically below itself (_below).  The
image tuples do not depend on the input label, and no label is below 0,
so one pass over the units with input label 1 at even q settles both
rows: (A, 0) is a class iff no image tuple is below A, and (A, 1) iff no
image row is below (A, 1), i.e. besides that no isometry of the mode
fixing A takes label 1 to 0.  At odd q no canonical tuple gets label 1.
The same test runs on every prefix (1, f_2, ..., f_c), c < m, as the
tuples are built in lex order (_class_candidates): adding entries only
lowers the order statistics of an image, so no extension of a prefix
sent below itself is a class (orderly generation).
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

    def normalized(self) -> tuple[int, ...]:
        """Residues of s in [0, q); [1, q) except for q = 1."""
        return tuple(sj % self.q for sj in self.s)


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


def spin_space(q: int, s: Sequence[int], spin: Optional[str] = None) -> SpinLensSpace:
    """Build a SpinLensSpace; spin defaults to the unique structure when
    q is odd and must be given explicitly ("h0"/"h1") when q is even."""
    label = UNIQUE_SPIN if spin is None else SpinLabel.from_tag(spin)
    return SpinLensSpace(LensParams(q, s), label)


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
        return math.prod(self.eps)

    def verify(self, a: SpinLensSpace, b: SpinLensSpace, mode: IsoMode = "any") -> bool:
        """Exact re-check of every witness invariant; an unknown mode
        raises ValueError."""
        allowed = _orientations(mode)
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
        shift = _transport_parity(self.ell, self.sigma, self.eps, la, lb)
        if shift is None or shift != self.spin_shift:
            return False
        if self.orientation not in allowed:
            return False
        if a.spin.h is not None:
            expect = (a.spin.h + h_shift(la) + h_shift(lb) + self.spin_shift) % 2
            if b.spin.h != expect:
                return False
        return True


def _fold(v: int, q: int) -> int:
    return min(v, q - v)


_ORIENTATIONS = {"any": (1, -1), "preserving": (1,), "reversing": (-1,)}


def _orientations(mode: IsoMode) -> tuple[int, ...]:
    """Witness orientations that an isometry mode allows."""
    if mode not in _ORIENTATIONS:
        raise ValueError(f"unknown mode {mode!r}")
    return _ORIENTATIONS[mode]


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


def _transport_parity(ell: int, sigma: Sequence[int], eps: Sequence[int],
                      a: LensParams, b: LensParams) -> Optional[int]:
    """sum_j rho_j mod 2 from the raw parameters, rho_j = (ell eps_j a_j -
    b_sigma(j)) / q; None when some coordinate does not match mod q."""
    total = 0
    for j in range(a.m):
        rho, rest = divmod(ell * eps[j] * a.s[j] - b.s[sigma[j]], a.q)
        if rest:
            return None
        total += rho
    return total % 2


def _witnesses(a: LensParams, b: LensParams) -> Iterator[IsometryWitness]:
    """Candidate witnesses of (*) from a to b, by increasing candidate unit
    l (module docstring) whose folded multiset matches: the
    _build_assignment witness, then at q <= 2 (the free flip; every eps_j
    is +1 there) the same witness with its last sign flipped."""
    if a.q != b.q or a.m != b.m:
        raise Mismatch(f"cannot compare q={a.q},m={a.m} with q={b.q},m={b.m}")
    q = a.q
    sn_a, sn_b = a.normalized(), b.normalized()
    fb = sorted(_fold(u, q) for u in sn_b)
    # Python ints: exact at any q, and cheaper than numpy for one pair
    for ell in sorted({e * sn_b[0] * pow(x, -1, q) % q for x in sn_a for e in (1, -1)}):
        v = [(ell * x) % q for x in sn_a]
        if sorted(_fold(x, q) for x in v) != fb:
            continue
        sigma, eps = _build_assignment(v, sn_b, q)
        choices = [eps, eps[:-1] + [-eps[-1]]] if 2 * v[0] % q == 0 else [eps]
        for e in choices:
            shift = _transport_parity(ell, sigma, e, a, b)
            if shift is None:
                raise ArithmeticError(f"assignment {sigma}, {e} at unit {ell} sends "
                                      f"{a.s} to parameters of {b.s} that differ mod {q}")
            yield IsometryWitness(ell, tuple(sigma), tuple(e), shift)


def find_isometry(a: SpinLensSpace, b: SpinLensSpace, mode: IsoMode = "any"
                  ) -> Optional[IsometryWitness]:
    """Witness of (*) transporting a's spin structure to b's: the first
    candidate witness (_witnesses) that IsometryWitness.verify accepts
    in the given mode, so every witness returned has passed that check.

    For odd q the unique structures are always transported; for even q
    the witness must satisfy the transport rule for the given labels.
    """
    _orientations(mode)  # an unknown mode raises even when no unit matches
    return next((w for w in _witnesses(a.lens, b.lens) if w.verify(a, b, mode)), None)


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


def _image(S: np.ndarray, ell: np.ndarray, q: int, mode: KeyMode,
           h: Optional[int] = None) -> np.ndarray:
    """Each row of normalized parameters S under its unit ell[i]: the
    sorted folded tuple, then, only when the input label h is given, the
    transported label.  Oriented tuples take only even numbers of sign
    flips: after an odd number of folds the largest entry is unfolded, as
    q - g >= q/2 still sorts last.  Odd m is amphichiral and takes the
    unoriented path.  At q = 2 the free flip makes every unoriented label
    0.  One floor division gives both the residue, prod - quot q (half
    the cost of prod % q), and the transport parity, the quotient's row
    sum.  The products are int64, so q^2 must stay below 2^63.
    """
    if q * q >= 2**63:
        raise OverflowError(f"q = {q}: products of residues would overflow int64")
    # two (n, m) int64 arrays at a time, worked in place: the residues v,
    # and the quotient, then q times it, then the tuple (kept contiguous:
    # steps on a strided view of the labelled output cost more than its
    # one copy)
    n, m = S.shape
    v = np.multiply(ell[:, None], S)
    tup = np.floor_divide(v, q)
    if h is not None:
        label = tup.sum(axis=1)
    tup *= q
    v -= tup
    np.subtract(q, v, out=tup)
    np.minimum(v, tup, out=tup)
    unfold = mode == "oriented" and m % 2 == 0
    if unfold or h is not None:
        folds = (tup != v).sum(axis=1)
    del v
    tup.sort(axis=1)
    if unfold:
        odd = folds % 2 == 1
        tup[odd, -1] = q - tup[odd, -1]
    if h is None:
        return tup
    # each sign flip moves the transport parity by one, and the oriented
    # tuple always carries an even number of them
    label += h
    if not unfold:
        label += folds
    if q == 2 and mode == "unoriented":  # the free flip moves the label by 1
        label[:] = 0
    out = np.empty((n, m + 1), dtype=np.int64)
    out[:, :m] = tup
    np.remainder(label, 2, out=out[:, m])
    return out


def _below(S: np.ndarray, units: np.ndarray, q: int, mode: KeyMode,
           h: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
    """Per row of sorted folded tuples S (oriented: as _image leaves
    them), whether some candidate unit units[i, j] = S[i, j]^-1 mod q
    ("Candidate units") sends the tuple lexicographically below itself,
    and whether it sends (tuple, label) below (S[i], h).  Without h the
    second answer is the first.  Rows start with 1 mod q, whose unit 1 is
    skipped (at q <= 2 the other units, also 1, make the free flip)."""
    if units.shape != S.shape:
        raise ArithmeticError(f"candidate units of shape {units.shape} for "
                              f"tuples of shape {S.shape} at q={q}")
    rows = np.arange(len(S))
    tup_below = np.zeros(len(S), dtype=bool)
    row_below = np.zeros(len(S), dtype=bool)
    for ell in units.T[1:]:
        image = _image(S, ell, q, mode, h)
        differ = image[:, :S.shape[1]] != S
        first = differ.argmax(axis=1)
        tup_below |= image[rows, first] < S[rows, first]
        if h is not None:
            row_below |= ~differ.any(axis=1) & (image[:, -1] < h)
    return tup_below, tup_below | row_below


def _class_candidates(q: int, m: int, mode: KeyMode) -> tuple[np.ndarray, np.ndarray]:
    """The tuples A whose label rows _class_rows tests, in lex order with
    no label column, and their candidate units, units[i, j] = A[i, j]^-1
    mod q: A is (1 mod q, f_2 <= ... <= f_m) over the folded units f in
    [0, q/2], the last entry also over the mirrors q - f > q/2 when
    oriented with even m (q > 2 only: at q = 2 a mirror is the tuple
    itself; odd m mirrors are never canonical), less those with a prefix
    that _below rejects.  Each entry's unit is gathered from the same
    index, the leading 1 mod q being the first folded unit (0 at q = 1),
    and a mirror's unit is q less its f's, as (-f)^-1 = -f^-1.

    Orderly generation.  The entries are added one column at a time, and
    a prefix (1, f_2, ..., f_c) with c < m is dropped when some unit of
    its entries sends it below itself: adding entries only lowers the
    order statistics of an image, so every tuple extending it, mirrors
    and labels included, falls below itself under the same unit.  The
    test multiplies residues in int64, so q^2 must stay below 2^63,
    checked before the folded units are listed.
    """
    if q * q >= 2**63:
        raise OverflowError(f"q = {q}: products of residues would overflow int64")
    folded = np.array([f for f in range(q // 2 + 1) if math.gcd(f, q) == 1], dtype=np.int64)
    inverse = np.array([pow(int(f), -1, q) for f in folded], dtype=np.int64)
    F, mirrors = len(folded), mode == "oriented" and m % 2 == 0 and q > 2
    if mirrors:  # increasing after the folded units; only the last column reaches them
        folded = np.concatenate([folded, q - folded[::-1]])
        inverse = np.concatenate([inverse, q - inverse[::-1]])
    # indices into folded, one row per prefix; each further column repeats
    # every row once per folded unit from its last index on, the last one
    # also once per mirror of those units (cumsum gives the offsets)
    index = np.zeros((1, 1), dtype=np.int64)
    for c in range(2, m + 1):
        counts = (2 if mirrors and c == m else 1) * (F - index[:, -1])
        start = np.repeat(np.cumsum(counts) - counts, counts)
        new = np.repeat(index[:, -1], counts) + np.arange(len(start)) - start
        index = np.column_stack([index.repeat(counts, axis=0), new])
        if c < m:
            index = index[~_below(folded[index], inverse[index], q, "unoriented")[0]]
    return folded[index], inverse[index]


def _class_rows(q: int, m: int, mode: KeyMode) -> np.ndarray:
    """Sorted int64 rows (canonical tuple, spin label), one per class of
    spin lens spaces of order q with m parameters (m even when q is;
    label 0 for the unique structure of odd q).  One _below call over the
    _class_candidates tuples A, with input label 1 at even q: (A, 0) is a
    class iff no unit sends A below itself, and (A, 1) iff none sends
    (A, 1) below itself ("Classes").  A is in lex order, so no sort."""
    A, units = _class_candidates(q, m, mode)
    labels = 2 - q % 2
    below = _below(A, units, q, mode, None if q % 2 else 1)
    kept = np.flatnonzero(~np.column_stack(below[:labels]))
    return np.column_stack([A[kept // labels], kept % labels])


def canonical_key(x: SpinLensSpace, mode: KeyMode = "unoriented") -> CanonicalKey:
    """Lexicographically minimal (parameter tuple, spin label) over the
    isometry group of the given mode: the least of the m images under the
    candidate units ("Candidate units").

    Entries of the canonical tuple lie in [1, q) ((0,...) for q = 1);
    ties between transported spin labels prefer h = 0.
    """
    if mode not in ("oriented", "unoriented"):
        raise ValueError(f"unknown mode {mode!r}")
    q, h, sn = x.q, x.spin.h, x.lens.normalized()
    # Python ints for the inverses: exact at any q, and cheaper than numpy
    units = np.array([pow(v, -1, q) for v in sn], dtype=np.int64)
    best = min(map(tuple, _image(np.array([sn] * len(sn)), units, q, mode, h).tolist()))
    if h is None:
        return CanonicalKey(q, best, "unique", mode)
    return CanonicalKey(q, best[:-1], f"h{best[-1]}", mode)


def self_transport_pairs(params: tuple[int, ...], q: int) -> frozenset[tuple[int, int]]:
    """Achievable (orientation parity, spin transport parity) pairs over
    all self-relations of the normalized tuple: whether the two spin
    structures of an even-q space are exchanged by an isometry, and
    whether the space admits an orientation-reversing self-isometry
    (amphichirality).  A census reads the first from _class_rows instead."""
    x = LensParams(q, [v % q for v in params])
    out: set[tuple[int, int]] = set()
    for w in _witnesses(x, x):
        out.add(((1 - w.orientation) // 2, w.spin_shift))
        if len(out) == 4:
            break
    return frozenset(out)
