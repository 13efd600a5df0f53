"""Posterior predictive checking for fuzzy count models.

Replicated datasets are simulated from systematically thinned posterior
draws. Observed and replicated datasets are `model.Reports`, and every
comparison reads their columns. Two layers of comparison are provided:
scalar summaries of the scaled report locations (mean and 80% inter-quantile
range), and an energy-style analysis that compares whole membership
profiles through mean pairwise distances within the observed sample (u_obs),
within a replicate (u_rep), and across the two (u_cross). `run_ppc` is the
one path to both layers. Replicates structurally compatible with the data put
u_cross close to u_obs.

A squared distance is |a|^2 + |b|^2 - 2 a.b, one matrix product per block of
`fuzzy.BLOCK_CELLS` cells; pairs where that falls below 1e-6 (|a|^2 + max |b|^2)
are recomputed by direct difference, so identical profiles read exactly 0 and
every distance is within 1.2e-8 relative (`_distance_sum`). Within one sample the
n self-pairs (i, i) are set to 0 and skip the recompute. The means are summed
block by block, so memory holds a few blocks, whatever the sample sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tables
from .errors import ValidationError
from .fuzzy import BLOCK_CELLS, kl_membership
from .inference import PosteriorDraws
from .model import (
    RegressionSpec,
    Reports,
    check_model_name,
    params_from_constrained,
    simulate,
)

DEFAULT_GRID = 101


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


def _profiles(reports: Reports, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Membership profiles on `grid` points of [0, 1], a row per report, and their squared norms."""
    if grid < 2:
        raise ValidationError("grid must have at least 2 points")
    scaled = reports.location / reports.k_max
    rows = kl_membership(scaled[:, None], reports.precision[:, None], np.linspace(0.0, 1.0, grid))
    return rows, np.einsum("ij,ij->i", rows, rows)


_RECOMPUTE_SHARE = 1e-6


def _distance_sum(pa, pb, grid: int) -> float:
    """Sum of the RMS distances sqrt(|a - b|^2 / grid) over every pair of a row of pa and of pb.

    pa, pb are `_profiles` results. Per block of rows of a, d^2 = |a|^2 + |b|^2
    - 2 a.b comes from one matrix product, its rounding error at most about
    2 (grid + 1) u (|a|^2 + |b|^2), u = 2**-53. Pairs with d^2 < `_RECOMPUTE_SHARE`
    (|a|^2 + max |b|^2) are recomputed by direct difference: identical profiles
    read exactly 0, and every distance is within (grid + 1) u / `_RECOMPUTE_SHARE`
    relative, 1.2e-8 at grid 101. When pa is pb, the self-pairs (i, i) are set to
    exactly 0 without a recompute. Holds about three `fuzzy.BLOCK_CELLS` blocks.
    """
    (a, a_sq), (b, b_sq) = pa, pb
    total = 0.0
    step = max(1, BLOCK_CELLS // b.shape[0])
    pair_step = max(1, BLOCK_CELLS // grid)
    for start in range(0, a.shape[0], step):
        rows = slice(start, start + step)
        d2 = (a[rows] * -2.0) @ b.T
        d2 += a_sq[rows, None]
        d2 += b_sq
        if pa is pb:  # kept out of `near`, then 0
            np.fill_diagonal(d2[:, start:], np.inf)
        near = np.flatnonzero(d2 < _RECOMPUTE_SHARE * (a_sq[rows, None] + b_sq.max()))
        for pairs in np.split(near, range(pair_step, near.size, pair_step)):
            i, j = np.divmod(pairs, b.shape[0])  # from flat indices: 2-D np.nonzero is slower
            d2.flat[pairs] = _direct_squares(a, b, start + i, j)
        if pa is pb:
            np.fill_diagonal(d2[:, start:], 0.0)
        total += np.sqrt(d2, out=d2).sum()
    return total / math.sqrt(grid)


def _direct_squares(a, b, i, j) -> np.ndarray:
    """|a[i] - b[j]|^2 by direct difference, elementwise over the index arrays i and j."""
    diff = a[i] - b[j]
    return np.einsum("ij,ij->i", diff, diff)


def _within_distance(profiles, grid: int) -> float:
    """Mean distance over the pairs j > i of one `_profiles` sample; NaN for fewer than 2 rows."""
    n = len(profiles[1])
    if n < 2:
        return float("nan")
    # the pairs (i, i) are 0, so all n(n-1) ordered pairs sum to twice the j > i ones
    return _distance_sum(profiles, profiles, grid) / (n * (n - 1))


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
    prof_obs = _profiles(observed, grid)
    obs_mean, obs_iqr = scalar_summaries(observed)
    reps = replicate(draws, spec, model, n_reps, seed)
    flags = ("observed: singleton sample, within-distance undefined",) if len(observed) < 2 else ()
    u_obs = _within_distance(prof_obs, grid)

    means, iqrs = np.array([scalar_summaries(rep) for rep in reps]).T
    u_rep, u_cross = np.empty(n_reps), np.empty(n_reps)
    for r, rep in enumerate(reps):
        prof_rep = _profiles(rep, grid)
        u_rep[r] = _within_distance(prof_rep, grid)
        u_cross[r] = _distance_sum(prof_obs, prof_rep, grid) / len(observed) / len(rep)

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
        flags=flags,
    )


def write_ppc_csv(path, summary: PpcSummary) -> None:
    rows = zip(range(summary.scaled_mean.size), summary.u_rep, summary.u_cross,
               summary.scaled_mean, summary.iqr80)
    tables.write_table(path, ["rep_id", "u_rep", "u_cross", "scaled_mean", "iqr80"], rows)


def write_ppc_json(path, summary: PpcSummary, metadata: dict) -> None:
    """Write the summary; `mean_u_rep` is over the replicates with a finite u_rep, null if none."""
    u_rep = summary.u_rep[np.isfinite(summary.u_rep)]
    payload = {
        "u_obs": summary.u_obs,
        "observed_scaled_mean": summary.observed_scaled_mean,
        "observed_iqr80": summary.observed_iqr80,
        "tail_prob_mean": summary.tail_prob_mean,
        "tail_prob_iqr80": summary.tail_prob_iqr80,
        "n_reps": int(summary.scaled_mean.size),
        "mean_u_rep": float(u_rep.mean()) if u_rep.size else None,
        "mean_u_cross": float(np.mean(summary.u_cross)),
        "mean_abs_cross_gap": float(np.mean(np.abs(summary.u_cross - summary.u_obs))),
        "flags": list(summary.flags),
        "metadata": metadata,
    }
    tables.write_json(path, payload)
