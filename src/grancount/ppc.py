"""Posterior predictive checking for fuzzy count models.

Replicated datasets are simulated from systematically thinned posterior
draws. Observed and replicated datasets are `model.Reports`, and every
comparison reads their columns. Two layers of comparison are provided:
scalar summaries of the scaled report locations (mean and 80% inter-quantile
range), and an energy-style analysis that compares whole membership
profiles through mean pairwise distances within the observed sample (u_obs),
within a replicate (u_rep), and across the two (u_cross). Replicates
structurally compatible with the data put u_cross close to u_obs.
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
    Reports,
    check_model_name,
    params_from_constrained,
    simulate,
)

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
) -> list[Reports]:
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
    # distinct: n_reps <= n_available spaces them at least one draw apart
    indices = np.round(np.linspace(0, n_available - 1, n_reps)).astype(int)
    children = np.random.SeedSequence(seed).spawn(n_reps)
    out = []
    for child, idx in zip(children, indices):
        params = params_from_constrained(draws.draws[idx], p, model)
        out.append(simulate(spec, params, child, model))
    return out


def scalar_summaries(reports: Reports) -> tuple[float, float]:
    """Mean and 80% inter-quantile range of the scaled report locations."""
    if len(reports) == 0:
        raise ValidationError("empty dataset")
    scaled = reports.location / reports.k_max
    q10, q90 = np.quantile(scaled, [0.1, 0.9])  # type-7 linear interpolation
    return float(scaled.mean()), float(q90 - q10)


def _profile_matrix(reports: Reports, t_grid: np.ndarray) -> np.ndarray:
    """Membership profiles of the reports on a shared unit grid, one row per report."""
    scaled = reports.location / reports.k_max
    return kl_membership(scaled[:, None], reports.precision[:, None], t_grid[None, :])


# float64 cells (512 KB) of one difference block, so that it stays in cache
_BLOCK_CELLS = 1 << 16


def _pairwise_distances(a: np.ndarray, b: np.ndarray, grid: int) -> np.ndarray:
    """(rows of a, rows of b) matrix of RMS profile distances.

    Direct differences in blocks of `_BLOCK_CELLS` cells: exact zeros for
    identical profiles, which the expanded-inner-product shortcut cannot
    guarantee. Holds one block (512 KB) besides the result.
    """
    out = np.empty((a.shape[0], b.shape[0]))
    step = max(1, _BLOCK_CELLS // (b.shape[0] * grid + 1))
    buf = np.empty((min(step, a.shape[0]),) + b.shape)
    for start in range(0, a.shape[0], step):
        rows = out[start : start + step]
        block = np.subtract(a[start : start + step, None, :], b, out=buf[: rows.shape[0]])
        np.einsum("ijk,ijk->ij", block, block, out=rows)
        rows /= grid
        np.sqrt(rows, out=rows)
    return out


def _within_distance(profiles: np.ndarray, grid: int) -> float:
    """Mean pairwise distance within one sample; NaN for fewer than 2 rows.

    Only the pairs j > i are computed, a block of rows at a time, and they are
    taken in `np.triu_indices` order, so the mean reduces the array the full
    matrix's upper triangle gives. Holds one block and the n(n-1)/2
    distances twice: about 0.6 MB at n=200.
    """
    n = profiles.shape[0]
    if n < 2:
        return float("nan")
    step = max(1, _BLOCK_CELLS // (n * grid + 1))
    pieces = []
    for start in range(0, n - 1, step):
        # block row r is profile start + r; its pairs j > i begin at column r
        d = _pairwise_distances(profiles[start : start + step], profiles[start + 1 :], grid)
        pieces.extend(d[r, r:] for r in range(d.shape[0]))
    return float(np.concatenate(pieces).mean())


def _replicate_energy(prof_obs: np.ndarray, replicated: Reports, t: np.ndarray, grid: int):
    """(u_rep, u_cross) of one replicated sample against the observed profiles."""
    prof_rep = _profile_matrix(replicated, t)
    u_cross = float(_pairwise_distances(prof_obs, prof_rep, grid).mean())
    return _within_distance(prof_rep, grid), u_cross


def energy_components(observed: Reports, replicated: Reports, grid=DEFAULT_GRID) -> EnergyStats:
    """u_obs / u_rep / u_cross for one replicated dataset."""
    if grid < 2:
        raise ValidationError("grid must have at least 2 points")
    if not len(observed) or not len(replicated):
        raise ValidationError("both samples must be non-empty")
    t = np.linspace(0.0, 1.0, grid)
    prof_obs = _profile_matrix(observed, t)
    flags = [
        _SINGLETON.format(label)
        for label, sample in (("observed", observed), ("replicated", replicated))
        if len(sample) < 2
    ]
    u_rep, u_cross = _replicate_energy(prof_obs, replicated, t, grid)
    return EnergyStats(_within_distance(prof_obs, grid), u_rep, u_cross, tuple(flags))


def run_ppc(
    draws: PosteriorDraws,
    spec: RegressionSpec,
    model: str,
    observed: Reports,
    n_reps: int,
    seed: int,
    grid: int = DEFAULT_GRID,
) -> PpcSummary:
    """Full posterior predictive check against an observed dataset."""
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
        means[r], iqrs[r] = scalar_summaries(rep)
        u_rep[r], u_cross[r] = _replicate_energy(prof_obs, rep, t, grid)

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
