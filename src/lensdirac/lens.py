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
value.  Witnesses try both signs; canonical forms need only l = a_j^-1,
which their callers supply: a census lists each folded unit beside its
inverse, and one key inverts its m entries with pow.
l and q - l fold alike, with fold counts adding up to m.  For even m,
(q - l, -eps) acts as (l, eps) and moves the spin label by
sum_j a_j + m, even when q is (a_j odd).  For odd m, l = -1 with every
eps_j = -1 fixes each tuple and reverses orientation: dimension 4k+1 is
amphichiral, so oriented canonical forms are the unoriented ones.

Classes.  A canonical tuple is (1 mod q, f_2 <= ... <= f_m), f_j folded,
or when oriented its mirror, and a (tuple, spin label) row is a class iff
it equals its canonical form.  The tuple part of a form does not depend
on the input label, and the identity unit gives (A, 0) itself, so one
form per tuple A, taken with input label 1 at even q, settles both rows:
(A, 0) is a class iff the form's tuple part is A, and (A, 1) iff the
whole form is (A, 1), i.e. no isometry of the mode fixing A takes label
1 to 0.  At odd q (input label 0) no canonical tuple gets label 1.  A
tuple is not canonical when the unit sending some entry to 1 sends
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


def _lex_update(best: np.ndarray, cand: np.ndarray) -> None:
    """Rowwise best = min(best, cand) lexicographically."""
    first = (cand != best).argmax(axis=1)
    rows = np.arange(len(best))
    less = cand[rows, first] < best[rows, first]
    best[less] = cand[less]


def _canonical_rows(S: Sequence[Sequence[int]], q: int, mode: KeyMode,
                    h: Sequence[int], units: Sequence[Sequence[int]]) -> np.ndarray:
    """Canonical form of every row of normalized parameters S: the
    lexicographic minimum of (sorted folded tuple, transported label h[i])
    over the candidate units l = units[i, j] = S[i, j]^-1 mod q, which
    the caller supplies ("Candidate units").  Oriented tuples take only
    even numbers of sign flips: after an odd number of folds the largest
    entry is unfolded, as q - g >= q/2 still sorts last.  Odd m is
    amphichiral and takes the unoriented path.  At q = 2 the free flip
    makes every unoriented label 0.  One floor division per unit gives
    both the residue, prod - quot q (half the cost of prod % q), and the
    transport parity, the quotient's row sum.  The products are int64,
    so q^2 must stay below 2^63.
    """
    if q * q >= 2**63:
        raise OverflowError(f"q = {q}: products of residues would overflow int64")
    S = np.asarray(S, dtype=np.int64)
    spin = np.asarray(h, dtype=np.int64)
    best = np.full((len(S), S.shape[1] + 1), q, dtype=np.int64)
    for ell in np.asarray(units, dtype=np.int64).T:
        prod = ell[:, None] * S
        quot = prod // q
        v = prod - quot * q
        tup = np.minimum(v, q - v)
        folds = (tup != v).sum(axis=1)
        tup.sort(axis=1)
        # each sign flip moves the transport parity by one, and the
        # oriented tuple always carries an even number of them
        label = spin + quot.sum(axis=1)
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
    """Rowwise: is the folded residue of x mod q below bound?  x % q,
    not x - x // q * q as in _canonical_rows: the candidate columns hold
    a few hundred entries at census sizes, where one ufunc call costs
    less than three."""
    v = x % q
    return (v < bound) | (v > q - bound)


def _class_candidates(q: int, m: int, mode: KeyMode) -> tuple[np.ndarray, np.ndarray]:
    """The tuples A _class_rows runs the canonical form on, with no label
    column, and their candidate units, units[i, j] = A[i, j]^-1 mod q:
    A is (1 mod q, f_2 <= ... <= f_m) over the folded units in [0, q/2],
    with the oriented mirrors of even m (q > 2 only: at q = 2 a mirror is
    the tuple itself; odd m mirrors are never canonical), less those the
    prefilter rejects.  Each entry's unit is gathered from the same index
    as the entry, the leading 1 mod q being the first folded unit (0 at
    q = 1), and a mirror's last unit is q less the tuple's, since the
    inverse of -f is -f^-1.

    Prefilter.  The unit l = f_j^-1 (j >= 2) sends f_j to 1, so its
    sorted folded tuple is (1, min_{k != j} fold(l f_k), ...), with the
    leading 1 as f_1.  If that second entry is below f_2, that tuple is
    smaller, and no label or mirror makes the candidate canonical.  The
    entries are added one column at a time, each new column tested
    against the earlier ones, so a rejected prefix is never extended
    (orderly generation).  In oriented m = 2 the second entry is the
    unfolded last entry, so nothing is rejected there; at q <= 2 every
    folded value is f_2 and nothing is rejected either.
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
    index = np.column_stack([np.zeros(len(new), dtype=np.int64), *cols])
    A, units = folded[index], inverse[index]
    if mode == "oriented" and m % 2 == 0 and q > 2:
        A, units = np.vstack([A, A]), np.vstack([units, units])
        A[len(index):, -1] = q - A[len(index):, -1]  # the mirrors
        units[len(index):, -1] = q - units[len(index):, -1]
    return A, units


def _class_rows(q: int, m: int, mode: KeyMode) -> np.ndarray:
    """Sorted int64 rows (canonical tuple, spin label), one per class of
    spin lens spaces of order q with m parameters (m even when q is;
    label 0 for the unique structure of odd q).  One canonical form per
    _class_candidates tuple A, with input label 1 at even q and 0 at odd
    q: (A, 0) is a class iff the form's tuple part is A, and (A, 1) iff
    the whole form is (A, 1) ("Classes")."""
    A, units = _class_candidates(q, m, mode)
    form = _canonical_rows(A, q, mode, np.full(len(A), 1 - q % 2), units)
    fixed = np.all(form[:, :-1] == A, axis=1)
    rows = np.vstack([np.column_stack([A[fixed], np.zeros(fixed.sum(), dtype=np.int64)]),
                      form[fixed & (form[:, -1] == 1)]])
    return rows[np.lexsort(rows.T[::-1])]


def canonical_key(x: SpinLensSpace, mode: KeyMode = "unoriented") -> CanonicalKey:
    """Lexicographically minimal (parameter tuple, spin label) over the
    isometry group of the given mode.

    Entries of the canonical tuple lie in [1, q) ((0,...) for q = 1);
    ties between transported spin labels prefer h = 0.
    """
    if mode not in ("oriented", "unoriented"):
        raise ValueError(f"unknown mode {mode!r}")
    q, h, sn = x.q, x.spin.h, x.lens.normalized()
    # Python ints: exact at any q, and cheaper than numpy for one row
    units = [[pow(v, -1, q) for v in sn]]
    *tup, hval = _canonical_rows([sn], q, mode, [h or 0], units)[0].tolist()
    spin_tag = "unique" if h is None else f"h{hval}"
    return CanonicalKey(q, tuple(tup), spin_tag, mode)


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
