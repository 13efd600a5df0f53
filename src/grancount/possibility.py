"""Per-observation possibility assignments and granular counting.

An assignment stores the degree pi[o, r] in [0, 1] to which observation o is
compatible with referent r. Counting a referent under such an assignment does
not return a single integer but a fuzzy set over {0..K}: for every candidate
count y, the degree to which "exactly y of the K observations belong to the
referent" remains possible.

Two implementations of the count are provided: an exponential brute force
used as testing oracle, and an exact polynomial algorithm based on a
threshold (alpha-cut) characterisation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tables
from .errors import ValidationError

# Brute force enumerates all 2^n subsets; refuse anything bigger than this.
MAX_BRUTEFORCE_OBS = 20


@dataclass(frozen=True)
class PossibilityAssignment:
    """Dense matrix of possibility degrees, observations by referents."""

    degrees: np.ndarray
    referent_names: tuple[str, ...] | None = None

    def __post_init__(self):
        degrees = np.asarray(self.degrees, dtype=np.float64)
        if degrees.ndim != 2:
            raise ValidationError("degrees must be a 2-D matrix (observations x referents)")
        if degrees.shape[0] < 1 or degrees.shape[1] < 1:
            raise ValidationError("assignment needs at least one observation and one referent")
        if not np.all(np.isfinite(degrees)):
            raise ValidationError("degrees must be finite")
        if degrees.min() < 0.0 or degrees.max() > 1.0:
            raise ValidationError("degrees must lie in [0, 1]")
        if self.referent_names is not None and len(self.referent_names) != degrees.shape[1]:
            raise ValidationError("referent_names length does not match the degree matrix")
        degrees = degrees.copy()
        degrees.flags.writeable = False
        object.__setattr__(self, "degrees", degrees)

    @property
    def n_obs(self) -> int:
        return self.degrees.shape[0]

    @property
    def n_ref(self) -> int:
        return self.degrees.shape[1]

    @property
    def is_normalized(self) -> bool:
        """True iff every observation has full possibility for some referent."""
        return bool(np.all(self.degrees.max(axis=1) == 1.0))

    def _check_referent(self, referent: int) -> int:
        referent = int(referent)
        if not 0 <= referent < self.n_ref:
            raise ValidationError(
                f"referent index {referent} out of range [0, {self.n_ref})"
            )
        return referent


@dataclass(frozen=True)
class MembershipVector:
    """A fuzzy set over the truncated count space {0..k_max}."""

    memberships: np.ndarray

    def __post_init__(self):
        memberships = np.asarray(self.memberships, dtype=np.float64)
        if memberships.ndim != 1 or memberships.size < 1:
            raise ValidationError("memberships must be a non-empty 1-D vector")
        if not np.all(np.isfinite(memberships)):
            raise ValidationError("memberships must be finite")
        if memberships.min() < 0.0 or memberships.max() > 1.0:
            raise ValidationError("memberships must lie in [0, 1]")
        if memberships.max() <= 0.0:
            raise ValidationError("empty fuzzy set: membership vector has no support")
        memberships = memberships.copy()
        memberships.flags.writeable = False
        object.__setattr__(self, "memberships", memberships)

    @property
    def k_max(self) -> int:
        return self.memberships.size - 1

    @property
    def is_normalized(self) -> bool:
        return bool(self.memberships.max() == 1.0)

    def support(self) -> np.ndarray:
        """Indices y with strictly positive membership."""
        return np.flatnonzero(self.memberships > 0.0)

    def alpha_cut(self, alpha: float) -> np.ndarray:
        if not 0.0 < alpha <= 1.0:
            raise ValidationError("alpha must lie in (0, 1]")
        return np.flatnonzero(self.memberships >= alpha)


def complement_degrees(assign: PossibilityAssignment, referent: int) -> np.ndarray:
    """Best degree each observation has for any referent other than `referent`.

    With a single referent there is no alternative, and the empty maximum is
    taken as 0 (the observation cannot be anything else).
    """
    referent = assign._check_referent(referent)
    if assign.n_ref == 1:
        return np.zeros(assign.n_obs)
    others = np.delete(assign.degrees, referent, axis=1)
    return others.max(axis=1)


def granular_count_bruteforce(assign: PossibilityAssignment, referent: int) -> MembershipVector:
    """Count a referent by exhaustive subset enumeration.

    For each y, the membership is the best (over subsets O_y of size y) of
    min(min over O_y of pi[o, r], min over the rest of the best alternative
    degree), empty minima counting as 1. Exponential in the number of
    observations; intended as the oracle for the fast implementation.
    """
    referent = assign._check_referent(referent)
    n = assign.n_obs
    if n > MAX_BRUTEFORCE_OBS:
        raise ValidationError(
            f"instance too large for oracle: {n} observations exceeds "
            f"the enumeration guard of {MAX_BRUTEFORCE_OBS}"
        )
    own = assign.degrees[:, referent].tolist()
    alt = complement_degrees(assign, referent).tolist()
    best = [0.0] * (n + 1)
    for subset in range(1 << n):
        level = 1.0  # empty minima count as fully possible
        size = 0
        for o in range(n):
            if subset >> o & 1:
                size += 1
                if own[o] < level:
                    level = own[o]
            elif alt[o] < level:
                level = alt[o]
        if level > best[size]:
            best[size] = level
    return _as_count_vector(np.array(best), referent)


def granular_count_fast(assign: PossibilityAssignment, referent: int) -> MembershipVector:
    """Count a referent exactly in polynomial time.

    Uses the threshold characterisation of the subset formula: the count y
    reaches level alpha iff every observation whose best alternative degree
    falls below alpha also supports the referent at level alpha, at most y
    such observations are forced in, and at least y observations support the
    referent at level alpha. Feasible (alpha, y) regions are nested as alpha
    decreases, so one descending sweep over candidate levels fills the vector.
    """
    referent = assign._check_referent(referent)
    n = assign.n_obs
    own = assign.degrees[:, referent]
    alt = complement_degrees(assign, referent)

    # Membership values can only be degrees present in the instance, or 1.
    candidates = np.unique(np.concatenate([own, alt, [1.0]]))
    candidates = candidates[candidates > 0.0][::-1]

    order = np.argsort(alt, kind="stable")
    alt_sorted = alt[order]
    own_by_alt = own[order]
    # prefix_min_own[j] = min own degree among the j observations with the
    # smallest alternative degrees (the ones forced into the subset first)
    prefix_min_own = np.concatenate([[np.inf], np.minimum.accumulate(own_by_alt)])
    own_sorted = np.sort(own)

    out = np.zeros(n + 1)
    covered_lo, covered_hi = None, None
    for alpha in candidates:
        forced = int(np.searchsorted(alt_sorted, alpha, side="left"))
        available = n - int(np.searchsorted(own_sorted, alpha, side="left"))
        if prefix_min_own[forced] < alpha:
            continue  # some forced observation cannot support the referent
        lo, hi = forced, available
        if covered_lo is None:
            out[lo : hi + 1] = alpha
        else:
            out[lo:covered_lo] = alpha
            out[covered_hi + 1 : hi + 1] = alpha
        covered_lo = lo if covered_lo is None else min(covered_lo, lo)
        covered_hi = hi if covered_hi is None else max(covered_hi, hi)
    return _as_count_vector(out, referent)


def _as_count_vector(values: np.ndarray, referent: int) -> MembershipVector:
    if values.max() <= 0.0:
        raise ValidationError(
            f"granular count for referent {referent} is empty: some observation "
            "has zero possibility both for this referent and for every alternative"
        )
    return MembershipVector(values)


def read_possibility_csv(path) -> PossibilityAssignment:
    """Read a possibility matrix: header of referent names, one row per observation."""
    header, rows = tables.read_table(
        path,
        lambda h: bool(h) and all(n.strip() for n in h),
        "header must list non-empty referent names",
        "observation rows",
    )
    names = [h.strip() for h in header]
    degrees = []
    for i, row in rows:
        values = tables.parse_floats(path, i, names, row)
        for name, value in zip(names, values):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(
                    f"{path}: line {i}, column '{name}': degree {value} outside [0, 1]"
                )
        degrees.append(values)
    return PossibilityAssignment(np.array(degrees), tuple(names))


def write_counts_csv(path, names, vectors) -> None:
    """Write granular counts, one row per referent, columns y0..yK."""
    vectors = list(vectors)
    if len(names) != len(vectors):
        raise ValidationError("names and vectors must have matching length")
    if not vectors:
        raise ValidationError("no count vectors to write")
    k = vectors[0].k_max
    if any(v.k_max != k for v in vectors):
        raise ValidationError("all count vectors must share the same truncation level")
    tables.write_table(
        path,
        ["id"] + [f"y{y}" for y in range(k + 1)],
        ([name, *vec.memberships] for name, vec in zip(names, vectors)),
    )


def read_count_rows(path) -> list[tuple[int, str, np.ndarray]]:
    """Rows of a granular-count table as (line_no, id, values), values unchecked."""
    header, rows = tables.read_table(
        path,
        lambda h: len(h) >= 2 and h[0] == "id",
        "expected header 'id,y0,...,yK'",
        "referent rows",
    )
    return [(i, row[0], np.array(tables.parse_floats(path, i, header[1:], row[1:])))
            for i, row in rows]


def read_counts_csv(path) -> tuple[list[str], list[MembershipVector]]:
    """Read a granular-count table back into membership vectors."""
    names, vectors = [], []
    for i, name, values in read_count_rows(path):
        try:
            vectors.append(MembershipVector(values))
        except ValidationError as exc:
            raise ValidationError(f"{path}: line {i}: {exc}") from None
        names.append(name)
    return names, vectors
