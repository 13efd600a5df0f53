"""Posterior predictive checking for fuzzy count models.

Replicated datasets are simulated from systematically thinned posterior
draws. Two layers of comparison are provided: scalar summaries of the scaled
report locations (mean and 80% inter-quantile range), and an energy-style
analysis that compares whole membership profiles through mean pairwise
distances within the observed sample (u_obs), within a replicate (u_rep),
and across the two (u_cross). Replicates structurally compatible with the
data put u_cross close to u_obs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tables
from .errors import ValidationError
from .fuzzy import kl_membership
from .inference import PosteriorDraws
from .model import (
    RegressionSpec,
    SimulatedData,
    check_model_name,
    observation_arrays,
    params_from_constrained,
    simulate,
)
from .possibility import MembershipVector

DEFAULT_GRID = 101
_SINGLETON = "{}: singleton sample, within-distance undefined"


@dataclass(frozen=True)
class EnergyStats:
    """Mean pairwise profile distances for one replicate against the data."""

    u_obs: float
    u_rep: float
    u_cross: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class PpcSummary:
    """Replicate-level statistics with observed reference values."""

    observed_scaled_mean: float
    observed_iqr80: float
    u_obs: float
    scaled_mean: np.ndarray
    iqr80: np.ndarray
    u_rep: np.ndarray
    u_cross: np.ndarray
    tail_prob_mean: float
    tail_prob_iqr80: float
    flags: tuple[str, ...] = ()


def replicate(
    draws: PosteriorDraws,
    spec: RegressionSpec,
    model: str,
    n_reps: int,
    seed: int,
) -> list[SimulatedData]:
    """Simulate one dataset per systematically thinned posterior draw."""
    model = check_model_name(model)
    n_available = draws.draws.shape[0]
    if n_reps < 1:
        raise ValidationError("n_reps must be at least 1")
    if n_reps > n_available:
        raise ValidationError(
            f"requested {n_reps} replicates but only {n_available} draws are available"
        )
    p = spec.n_covariates
    indices = np.unique(np.round(np.linspace(0, n_available - 1, n_reps)).astype(int))
    while indices.size < n_reps:  # pad duplicates away deterministically
        extra = np.setdiff1d(np.arange(n_available), indices)[: n_reps - indices.size]
        indices = np.union1d(indices, extra)
    children = np.random.SeedSequence(seed).spawn(n_reps)
    out = []
    for child, idx in zip(children, indices):
        params = params_from_constrained(draws.draws[idx], p, model)
        out.append(simulate(spec, params, child, model))
    return out


def scalar_summaries(observations) -> tuple[float, float]:
    """Mean and 80% inter-quantile range of the scaled report locations."""
    locations, _, k = observation_arrays(observations)
    if locations.size == 0:
        raise ValidationError("empty dataset")
    scaled = locations / k
    q10, q90 = np.quantile(scaled, [0.1, 0.9])  # type-7 linear interpolation
    return float(scaled.mean()), float(q90 - q10)


def _profile_matrix(items, t_grid: np.ndarray) -> np.ndarray:
    """Membership profiles on a shared unit grid, one row per item.

    `BetaFuzzy` items are evaluated through the parametric family; raw
    `MembershipVector`s are linearly interpolated on their own scaled grid.
    """
    rows = np.empty((len(items), t_grid.size))
    parametric = [
        (i, item) for i, item in enumerate(items) if not isinstance(item, MembershipVector)
    ]
    if parametric:
        idx = np.array([i for i, _ in parametric])
        m = np.array([item.location / item.k_max for _, item in parametric])[:, None]
        h = np.array([item.precision for _, item in parametric])[:, None]
        rows[idx] = kl_membership(m, h, t_grid[None, :])
    for i, item in enumerate(items):
        if isinstance(item, MembershipVector):
            grid = np.arange(item.k_max + 1) / item.k_max
            rows[i] = np.interp(t_grid, grid, item.memberships)
    return rows


def fuzzy_distance(a, b, grid: int = DEFAULT_GRID) -> float:
    """Root-mean-square membership difference on a shared unit-scale grid."""
    if grid < 2:
        raise ValidationError("grid must have at least 2 points")
    profiles = _profile_matrix([a, b], np.linspace(0.0, 1.0, grid))
    return float(_pairwise_distances(profiles[:1], profiles[1:], grid)[0, 0])


def _pairwise_distances(a: np.ndarray, b: np.ndarray, grid: int) -> np.ndarray:
    # direct differences (chunked): exact zeros for identical profiles, which
    # the expanded-inner-product shortcut cannot guarantee
    out = np.empty((a.shape[0], b.shape[0]))
    step = max(1, 4_000_000 // (b.shape[0] * grid + 1))
    for start in range(0, a.shape[0], step):
        block = a[start : start + step, None, :] - b[None, :, :]
        out[start : start + step] = np.sqrt(np.einsum("ijk,ijk->ij", block, block) / grid)
    return out


def _within_distance(profiles: np.ndarray, grid: int) -> float:
    """Mean pairwise distance within one sample; NaN for fewer than 2 rows."""
    n = profiles.shape[0]
    if n < 2:
        return float("nan")
    d = _pairwise_distances(profiles, profiles, grid)
    return float(d[np.triu_indices(n, k=1)].mean())


def energy_components(observed, replicated, grid: int = DEFAULT_GRID) -> EnergyStats:
    """u_obs / u_rep / u_cross for one replicated dataset."""
    if grid < 2:
        raise ValidationError("grid must have at least 2 points")
    observed = list(observed)
    replicated = list(replicated)
    if not observed or not replicated:
        raise ValidationError("both samples must be non-empty")
    t = np.linspace(0.0, 1.0, grid)
    prof_obs = _profile_matrix(observed, t)
    prof_rep = _profile_matrix(replicated, t)
    flags = [
        _SINGLETON.format(label)
        for label, profiles in (("observed", prof_obs), ("replicated", prof_rep))
        if profiles.shape[0] < 2
    ]
    u_obs = _within_distance(prof_obs, grid)
    u_rep = _within_distance(prof_rep, grid)
    u_cross = float(_pairwise_distances(prof_obs, prof_rep, grid).mean())
    return EnergyStats(u_obs=u_obs, u_rep=u_rep, u_cross=u_cross, flags=tuple(flags))


def run_ppc(
    draws: PosteriorDraws,
    spec: RegressionSpec,
    model: str,
    observed,
    n_reps: int,
    seed: int,
    grid: int = DEFAULT_GRID,
) -> PpcSummary:
    """Full posterior predictive check against an observed dataset."""
    observed = list(observed)
    obs_mean, obs_iqr = scalar_summaries(observed)
    reps = replicate(draws, spec, model, n_reps, seed)
    t = np.linspace(0.0, 1.0, grid)
    prof_obs = _profile_matrix(observed, t)
    flags = [_SINGLETON.format("observed")] if prof_obs.shape[0] < 2 else []
    u_obs = _within_distance(prof_obs, grid)

    means = np.empty(len(reps))
    iqrs = np.empty(len(reps))
    u_rep = np.empty(len(reps))
    u_cross = np.empty(len(reps))
    for r, rep in enumerate(reps):
        means[r], iqrs[r] = scalar_summaries(rep.observations)
        prof_rep = _profile_matrix(list(rep.observations), t)
        u_rep[r] = _within_distance(prof_rep, grid)
        u_cross[r] = float(_pairwise_distances(prof_obs, prof_rep, grid).mean())

    return PpcSummary(
        observed_scaled_mean=obs_mean,
        observed_iqr80=obs_iqr,
        u_obs=u_obs,
        scaled_mean=means,
        iqr80=iqrs,
        u_rep=u_rep,
        u_cross=u_cross,
        tail_prob_mean=float(np.mean(means >= obs_mean)),
        tail_prob_iqr80=float(np.mean(iqrs >= obs_iqr)),
        flags=tuple(flags),
    )


def write_ppc_csv(path, summary: PpcSummary) -> None:
    rows = zip(range(summary.scaled_mean.size), summary.u_rep, summary.u_cross,
               summary.scaled_mean, summary.iqr80)
    tables.write_table(path, ["rep_id", "u_rep", "u_cross", "scaled_mean", "iqr80"], rows)


def write_ppc_json(path, summary: PpcSummary, metadata=None) -> None:
    payload = {
        "u_obs": summary.u_obs,
        "observed_scaled_mean": summary.observed_scaled_mean,
        "observed_iqr80": summary.observed_iqr80,
        "tail_prob_mean": summary.tail_prob_mean,
        "tail_prob_iqr80": summary.tail_prob_iqr80,
        "n_reps": int(summary.scaled_mean.size),
        "mean_u_rep": float(np.nanmean(summary.u_rep)),
        "mean_u_cross": float(np.mean(summary.u_cross)),
        "mean_abs_cross_gap": float(np.mean(np.abs(summary.u_cross - summary.u_obs))),
        "flags": list(summary.flags),
    }
    if metadata is not None:
        payload["metadata"] = metadata
    tables.write_json(path, payload)
