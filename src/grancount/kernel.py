"""Fuzzy-reporting kernel over a finite set of outcomes.

Given a finite set M of fuzzy outcomes with a reference mass nu on it, the
probability of reporting xi when the latent count is y is proportional to
xi(y) * nu(xi). This weights reports by how compatible they are with the
latent value, which is exactly what makes the mechanism non-ignorable: the
report probability varies over the latent values the report does not
exclude, unless the ratio xi(y) / c(y) happens to be constant there. The
`is_car` detector checks that condition and produces a witness when it
fails.

Every kernel quantity (c(y), phi, outcome marginals, CAR ratios) comes from
one weighted matrix xi(y) * nu(xi) and its row sums c(y), so they agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tables
from .errors import ValidationError
from .possibility import MembershipVector


@dataclass(frozen=True)
class ReportingKernel:
    """Finite outcome set with a reference probability mass over it."""

    outcomes: tuple[MembershipVector, ...]
    nu: np.ndarray
    names: tuple[str, ...] | None = None

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
            raise ValidationError(f"nu must sum to 1 (got {nu.sum()!r})")
        names = self.names
        if names is not None and len(names) != len(outcomes):
            raise ValidationError("names length does not match outcomes")
        nu = nu.copy()
        nu.flags.writeable = False
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "nu", nu)

    @property
    def k_max(self) -> int:
        return self.outcomes[0].k_max

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def _check_y(self, y: int) -> int:
        y = int(y)
        if not 0 <= y <= self.k_max:
            raise ValidationError(f"y={y} outside the count space [0, {self.k_max}]")
        return y

    def _check_index(self, idx: int) -> int:
        idx = int(idx)
        if not 0 <= idx < self.n_outcomes:
            raise ValidationError(f"outcome index {idx} out of range")
        return idx


def check_pmf_rows(pmf: np.ndarray) -> np.ndarray:
    """`pmf` (a vector, or one pmf per row) once each row is >= 0, finite and sums to 1 +- 1e-9."""
    if pmf.min() < 0.0 or not np.all(np.isfinite(pmf)):
        raise ValidationError("pmf entries must be finite and non-negative")
    sums = np.atleast_1d(pmf.sum(axis=-1))
    if (off := np.abs(sums - 1.0) > 1.0e-9).any():
        raise ValidationError(f"pmf must sum to 1 (got {sums[off.argmax()]!r})")
    return pmf


@dataclass(frozen=True)
class LatentCountModel:
    """Probability mass of the latent count on {0..K}."""

    pmf: np.ndarray

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=np.float64)
        if pmf.ndim != 1 or pmf.size < 1:
            raise ValidationError("pmf must be a non-empty vector")
        pmf = check_pmf_rows(pmf).copy()
        pmf.flags.writeable = False
        object.__setattr__(self, "pmf", pmf)

    @property
    def k_max(self) -> int:
        return self.pmf.size - 1


def _weighted(kern: ReportingKernel, ys) -> tuple[np.ndarray, np.ndarray]:
    """xi(y) * nu(xi), shape (K+1, n_outcomes), and its row sums c(y) at the counts `ys`.

    Raises only for a y in `ys` that no outcome with positive mass covers.
    """
    weighted = np.stack([o.memberships for o in kern.outcomes], axis=1) * kern.nu
    ys = np.atleast_1d(ys)
    c = weighted.sum(axis=1)[ys]
    if np.any(c <= 0.0):
        bad = int(ys[c <= 0.0][0])
        raise ValidationError(
            f"construction violated at y={bad}: no outcome with positive mass covers it"
        )
    return weighted, c


def normalizer(kern: ReportingKernel, y: int) -> float:
    """c(y) = sum over outcomes of xi(y) * nu(xi); must be strictly positive."""
    y = kern._check_y(y)
    return float(_weighted(kern, y)[1][0])


def kernel_prob(kern: ReportingKernel, y: int, outcome_subset) -> float:
    """phi(y, A): conditional probability of reporting an outcome in A given y."""
    y = kern._check_y(y)
    indices = sorted({kern._check_index(i) for i in outcome_subset})
    weighted, (c,) = _weighted(kern, y)
    return float(weighted[y, indices].sum() / c)


def phi_matrix(kern: ReportingKernel) -> np.ndarray:
    """Full singleton kernel, shape (K+1, n_outcomes); rows sum to 1."""
    weighted, c = _weighted(kern, np.arange(kern.k_max + 1))
    return weighted / c[:, None]


def zadeh_probability(mv: MembershipVector, latent: LatentCountModel) -> float:
    """Expected membership of the latent count: sum(xi(y) * P[Y=y])."""
    if mv.k_max != latent.k_max:
        raise ValidationError(
            f"length mismatch: membership on {{0..{mv.k_max}}}, pmf on {{0..{latent.k_max}}}"
        )
    return float(mv.memberships @ latent.pmf)


def marginal_outcome_prob(
    kern: ReportingKernel, latent: LatentCountModel, xi_index: int
) -> float:
    """Marginal probability of reporting one specific outcome."""
    xi_index = kern._check_index(xi_index)
    if latent.k_max != kern.k_max:
        raise ValidationError("latent pmf and kernel disagree on the count space")
    xi = kern.outcomes[xi_index].memberships
    ys = np.flatnonzero((xi != 0.0) | (latent.pmf != 0.0))
    total = (xi[ys] * latent.pmf[ys] / _weighted(kern, ys)[1]).sum()
    return float(kern.nu[xi_index] * total)


@dataclass(frozen=True)
class CarResult:
    """Verdict of the coarsening-at-random check for one outcome."""

    is_car: bool
    witness: tuple[int, int] | None
    compatibility_set: tuple[int, ...]
    ratios: tuple[float, ...]


def is_car(kern: ReportingKernel, xi_index: int, tol: float = 1.0e-9) -> CarResult:
    """Check whether reporting the outcome ignores the latent count.

    The mechanism is CAR for an outcome exactly when xi(y)/c(y) is constant
    over the outcome's compatibility set {y : xi(y) > 0}. On failure the
    witness pair (y_high, y_low) carries the most extreme ratios.
    """
    xi_index = kern._check_index(xi_index)
    if kern.nu[xi_index] <= 0.0:
        raise ValidationError("outcome must carry positive reference mass")
    xi = kern.outcomes[xi_index].memberships
    support = np.flatnonzero(xi > 0.0)
    if support.size == 0:
        raise ValidationError("outcome has empty compatibility set")
    ratios = xi[support] / _weighted(kern, support)[1]
    spread = ratios.max() - ratios.min()
    flat = spread <= tol * (1.0 + abs(ratios.mean()))
    witness = None
    if not flat:
        witness = (int(support[np.argmax(ratios)]), int(support[np.argmin(ratios)]))
    return CarResult(
        is_car=bool(flat),
        witness=witness,
        compatibility_set=tuple(int(y) for y in support),
        ratios=tuple(float(r) for r in ratios),
    )


def kernel_to_json(kern: ReportingKernel, path) -> None:
    payload = {
        "k_max": kern.k_max,
        "nu": [float(w) for w in kern.nu],
        "outcomes": [[float(v) for v in o.memberships] for o in kern.outcomes],
    }
    if kern.names is not None:
        payload["names"] = list(kern.names)
    tables.write_json(path, payload)


def kernel_from_json(path) -> ReportingKernel:
    payload = tables.read_json_object(path)
    for key in ("nu", "outcomes"):
        if key not in payload:
            raise ValidationError(f"{path}: missing required key '{key}'")
    try:
        outcomes = tuple(MembershipVector(np.asarray(o, dtype=np.float64))
                         for o in payload["outcomes"])
        nu = np.asarray(payload["nu"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed kernel payload: {exc}") from None
    names = payload.get("names")
    if not (names is None or isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise ValidationError(f"{path}: 'names' must be a list of strings")
    return ReportingKernel(outcomes=outcomes, nu=nu, names=None if names is None else tuple(names))
