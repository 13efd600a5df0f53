"""Per-observation possibility assignments and granular counting.

An assignment stores the degree pi[o, r] in [0, 1] to which observation o is
compatible with referent r. Counting a referent under such an assignment does
not return a single integer but a fuzzy set over {0..K}: for every candidate
count y, the degree to which "exactly y of the K observations belong to the
referent" remains possible.

The membership of y is the best, over the subsets O of y observations, of
min(min over O of pi[o, r], min over the others of their best alternative
degree), empty minima counting as 1. `granular_count_fast` computes it
exactly in polynomial time from a threshold (alpha-cut) characterisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tables
from .errors import ValidationError


@dataclass(frozen=True)
class PossibilityAssignment:
    """Dense matrix of possibility degrees, observations by referents.

    Per row, read-only: `best_degree`, the first column holding it (`best_referent`),
    and `second_degree`, the best left once that column is set aside (0 if none).
    """

    degrees: np.ndarray
    referent_names: tuple[str, ...] | None = None
    best_degree: np.ndarray = field(init=False, repr=False, compare=False)
    best_referent: np.ndarray = field(init=False, repr=False, compare=False)
    second_degree: np.ndarray = field(init=False, repr=False, compare=False)

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
        best_referent = degrees.argmax(axis=1)
        best_degree = degrees.max(axis=1)
        if degrees.shape[1] > 1:
            second_degree = np.partition(degrees, -2, axis=1)[:, -2]
        else:
            second_degree = np.zeros(degrees.shape[0])
        for name, array in (("degrees", degrees), ("best_degree", best_degree),
                            ("best_referent", best_referent), ("second_degree", second_degree)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def n_obs(self) -> int:
        return self.degrees.shape[0]

    @property
    def n_ref(self) -> int:
        return self.degrees.shape[1]

    @property
    def is_normalized(self) -> bool:
        """True iff every observation has full possibility for some referent."""
        return bool(np.all(self.best_degree == 1.0))


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

    def support(self) -> np.ndarray:
        """Indices y with strictly positive membership."""
        return np.flatnonzero(self.memberships > 0.0)


def granular_count_fast(assign: PossibilityAssignment, referent: int) -> MembershipVector:
    """Count a referent exactly in polynomial time.

    Uses the threshold characterisation of the subset formula: the count y
    reaches level alpha iff alpha is feasible (every observation whose best
    alternative degree falls below alpha also supports the referent at level
    alpha) and lo(alpha) <= y <= hi(alpha). Here lo(alpha) counts the
    observations forced in, those with an alternative degree below alpha, and
    hi(alpha) those that support the referent at level alpha. As alpha falls,
    lo never rises, hi never falls and a feasible alpha stays feasible, so the
    feasible intervals [lo, hi] nest and widen. Over the feasible levels in
    descending order, those whose interval misses y (lo > y or hi < y) thus
    form a prefix, and y's membership is the first level after it, or 0.
    """
    referent = int(referent)
    if not 0 <= referent < assign.n_ref:
        raise ValidationError(f"referent index {referent} out of range [0, {assign.n_ref})")
    n = assign.n_obs
    own = assign.degrees[:, referent]
    # best alternative degree: the best of the row unless it is this referent's
    alt = np.where(assign.best_referent == referent, assign.second_degree, assign.best_degree)

    # Membership values can only be degrees present in the instance, or 1.
    levels = np.unique(np.concatenate([own, alt, [1.0]]))
    levels = levels[levels > 0.0][::-1]

    order = np.argsort(alt, kind="stable")
    # prefix_min_own[j] = min own degree among the j observations with the
    # smallest alternative degrees (the ones forced into the subset first)
    prefix_min_own = np.concatenate([[np.inf], np.minimum.accumulate(own[order])])
    lo = np.searchsorted(alt[order], levels, side="left")
    hi = n - np.searchsorted(np.sort(own), levels, side="left")
    feasible = prefix_min_own[lo] >= levels
    levels, lo, hi = levels[feasible], lo[feasible], hi[feasible]
    y = np.arange(n + 1)
    # max(#(lo > y), #(hi < y)); lo descends and hi ascends along the levels
    first = np.maximum(np.searchsorted(-lo, -y, side="left"), np.searchsorted(hi, y, side="left"))
    out = np.append(levels, 0.0)[first]
    if out.max() <= 0.0:
        raise ValidationError(
            f"granular count for referent {referent} is empty: some observation "
            "has zero possibility both for this referent and for every alternative"
        )
    return MembershipVector(out)


def read_possibility_csv(path) -> PossibilityAssignment:
    """Read a possibility matrix: header of distinct referent names, one row per observation."""
    header, rows, degrees = tables.read_table(
        path,
        lambda h: bool(h) and all(n.strip() for n in h),
        "header must list non-empty referent names",
        slice(None),
        "observation rows",
    )
    names = [h.strip() for h in header]
    tables.reject_repeats(path, names, "referent name", lambda j: 1)
    outside = np.argwhere(~((degrees >= 0.0) & (degrees <= 1.0)))  # nan too; row-major order
    if outside.size:
        r, j = outside[0]
        where = f"{path}: line {rows[r][0]}, column '{names[j]}'"
        raise ValidationError(f"{where}: degree {float(degrees[r, j])} outside [0, 1]")
    empty = np.flatnonzero(~degrees.any(axis=1))  # such a row leaves every count empty
    if empty.size:
        where = f"{path}: line {rows[empty[0]][0]}"
        raise ValidationError(f"{where}: every degree is 0, so no referent is possible")
    return PossibilityAssignment(degrees, tuple(names))


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
    """Rows of a granular-count table as (line_no, id, values), distinct ids, values unchecked."""
    _, rows, values = tables.read_table(
        path,
        lambda h: len(h) >= 2 and h[0] == "id",
        "expected header 'id,y0,...,yK'",
        slice(1, None),
        "referent rows",
    )
    tables.reject_repeats(path, [row[0] for _, row in rows], "id", lambda j: rows[j][0])
    return [(i, row[0], row_values) for (i, row), row_values in zip(rows, values)]


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
