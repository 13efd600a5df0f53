"""Fuzzy-reporting kernel over a finite set of outcomes.

Given a finite set M of fuzzy outcomes with a reference mass nu on it, the
probability of reporting xi when the latent count is y is proportional to
xi(y) * nu(xi). This weights reports by how compatible they are with the
latent value, which is exactly what makes the mechanism non-ignorable: the
report probability varies over the latent values the report does not
exclude, unless the ratio xi(y) / c(y) happens to be constant there. The
`is_car` detector checks that condition and produces a witness when it
fails.

A kernel builds its one weighted matrix xi(y) * nu(xi) and its row sums c(y)
once, at construction; phi and the CAR ratios both read them, so they agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tables
from .errors import ValidationError
from .possibility import MembershipVector

# `is_car`'s relative tolerance on the spread of the ratios xi(y)/c(y).
CAR_TOL = 1.0e-9


@dataclass(frozen=True)
class ReportingKernel:
    """Finite outcome set with a reference probability mass over it.

    `weighted` (read-only) is xi(y) * nu(xi), shape (K+1, n_outcomes); `c` its row sums c(y).
    """

    outcomes: tuple[MembershipVector, ...]
    nu: np.ndarray
    names: tuple[str, ...] | None = None
    weighted: np.ndarray = field(init=False, repr=False, compare=False)
    c: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        outcomes = tuple(self.outcomes)
        if not outcomes:
            raise ValidationError("outcome set must be non-empty")
        k = outcomes[0].k_max
        if any(o.k_max != k for o in outcomes):
            raise ValidationError("all outcomes must share the same truncation level")
        nu = np.asarray(self.nu, dtype=np.float64)
        if nu.shape != (len(outcomes),):
            raise ValidationError("nu must assign one mass per outcome")
        if not np.all(np.isfinite(nu)) or nu.min() < 0.0:
            raise ValidationError("nu entries must be finite and non-negative")
        if abs(nu.sum() - 1.0) > 1.0e-9:
            raise ValidationError(f"nu must sum to 1 (got {float(nu.sum())})")
        names = self.names
        if names is not None and len(names) != len(outcomes):
            raise ValidationError("names length does not match outcomes")
        nu = nu.copy()
        weighted = np.stack([o.memberships for o in outcomes], axis=1) * nu
        object.__setattr__(self, "outcomes", outcomes)
        for name, array in (("nu", nu), ("weighted", weighted), ("c", weighted.sum(axis=1))):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def k_max(self) -> int:
        return self.outcomes[0].k_max

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def _check_index(self, idx: int) -> int:
        idx = int(idx)
        if not 0 <= idx < self.n_outcomes:
            raise ValidationError(f"outcome index {idx} out of range")
        return idx


def phi_matrix(kern: ReportingKernel) -> np.ndarray:
    """Full singleton kernel, shape (K+1, n_outcomes); rows sum to 1. Needs c(y) > 0 at every y."""
    uncovered = np.flatnonzero(kern.c <= 0.0)
    if uncovered.size:
        raise ValidationError(
            f"construction violated at y={uncovered[0]}: no outcome with positive mass covers it"
        )
    return kern.weighted / kern.c[:, None]


@dataclass(frozen=True)
class CarResult:
    """Verdict of the coarsening-at-random check for one outcome."""

    is_car: bool
    witness: tuple[int, int] | None
    compatibility_set: tuple[int, ...]
    ratios: tuple[float, ...]


def is_car(kern: ReportingKernel, xi_index: int) -> CarResult:
    """Check whether reporting the outcome ignores the latent count.

    The mechanism is CAR for an outcome exactly when xi(y)/c(y) is constant
    over the outcome's compatibility set {y : xi(y) > 0}; constant means a
    spread of at most `CAR_TOL` times (1 + the mean ratio). On failure the
    witness pair (y_high, y_low) carries the most extreme ratios. On that set
    c(y) >= xi(y) * nu(xi) > 0, so every ratio is defined.
    """
    xi_index = kern._check_index(xi_index)
    if kern.nu[xi_index] <= 0.0:
        raise ValidationError("outcome must carry positive reference mass")
    xi = kern.outcomes[xi_index].memberships
    support = kern.outcomes[xi_index].support()  # never empty for a MembershipVector
    ratios = xi[support] / kern.c[support]
    spread = ratios.max() - ratios.min()
    flat = spread <= CAR_TOL * (1.0 + abs(ratios.mean()))
    witness = None
    if not flat:
        witness = (int(support[np.argmax(ratios)]), int(support[np.argmin(ratios)]))
    return CarResult(
        is_car=bool(flat),
        witness=witness,
        compatibility_set=tuple(int(y) for y in support),
        ratios=tuple(float(r) for r in ratios),
    )


def kernel_from_json(path) -> ReportingKernel:
    """Read a kernel from a JSON object with the keys `nu`, `outcomes` and `names`.

    `nu` holds one positive reference mass per outcome (`is_car` needs it), summing
    to 1. `outcomes` holds one membership list per outcome, all over {0..K}: K is
    their length minus 1, and no `k_max` key is read. `names` is optional: a list
    of strings, or null.
    """
    payload = tables.read_json_object(path)
    for key in ("nu", "outcomes"):
        if key not in payload:
            raise ValidationError(f"{path}: missing required key '{key}'")
    names = payload.get("names")
    if not (names is None or isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise ValidationError(f"{path}: 'names' must be a list of strings")
    try:
        outcomes = tuple(_outcome(j, o) for j, o in enumerate(payload["outcomes"]))
        nu = np.asarray(payload["nu"], dtype=np.float64)
        kern = ReportingKernel(outcomes, nu, None if names is None else tuple(names))
    except (TypeError, ValueError, OverflowError) as exc:  # a ValidationError is a ValueError
        raise ValidationError(f"{path}: {exc}") from None
    zero = np.flatnonzero(kern.nu == 0.0)
    if zero.size:
        raise ValidationError(f"{path}: outcome {zero[0]}: its mass in 'nu' is 0, not positive")
    return kern


def _outcome(j: int, memberships) -> MembershipVector:
    try:
        return MembershipVector(np.asarray(memberships, dtype=np.float64))
    except (TypeError, ValueError, OverflowError) as exc:  # an int past float64, say
        raise ValidationError(f"outcome {j}: {exc}") from None
