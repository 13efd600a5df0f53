"""Likelihoods, gradients, and simulators for fuzzily reported counts.

The data model: a latent count Y_i follows a negative binomial regression
with mean mu_i = u_i * exp(z_i . coef) and dispersion kappa (variance
mu + mu^2/kappa), truncated to {0..K_i}. The report precision H_i is Gamma
(shape, rate) distributed, and the scaled report location C_i given (H_i,
Y_i) is Beta with shapes (H_i * ybar_i, H_i * (1 - ybar_i)), where ybar is
the scaled count with a half-count continuity correction so the shapes stay
positive at the boundary counts. The observed statistic per sample is the
pair (c_i, h_i) = (K_i * C_i, H_i). A dataset of them travels as one
`Reports`, read-only columns (location, precision, k_max): `Posterior` reads
it, `simulate` returns it, and `fuzzy.check_reports` is the rule every row obeys.

Four observed-data likelihoods are provided:

* ``cnar``   -- marginalises the latent count (non-ignorable reporting);
* ``car1``   -- ignores the latent count, conditioning the report location
                directly on the scaled regression mean;
* ``car2``   -- same, with an extra multiplier on both Beta shapes to soak
                up the missing count variability;
* ``scalar`` -- plain negative binomial regression on defuzzified counts.

Each likelihood is implemented once, in `Posterior`, with its exact analytic
gradient on an unconstrained scale (log transforms for positive parameters);
`Posterior.logp_and_grad` adds the prior and is the HMC sampler's target.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import betaln, digamma, nbdtrik

from .errors import NumericalError, ValidationError
from .fuzzy import BetaFuzzy, beta_centroids, check_reports, k_blocks

MODEL_NAMES = ("cnar", "car1", "car2", "scalar")
REJECTION_REASONS = ("nonfinite_phi", "positive_bound", "eta_overflow", "nonfinite_peak",
                     "nonfinite_logp")
# the share of the widest count pmf the cnar grid may drop; `Posterior._cutoff` reads it
TAIL_MASS = 1.0e-12

# exp() overflows just above this; treat larger linear predictors as failures
_MAX_LINEAR_PREDICTOR = 700.0
_LOG_TINY = np.log(1.0e-300)
# a cnar sum below this, or a tail cut that may lose more than this share of a
# mixture sum, sends the call to `Posterior`'s exact rerun; a cut pass's mixture
# sums must therefore reach TAIL_MASS / _CUT_LOSS
_SUM_FLOOR = 1.0e-290
_CUT_LOSS = 1.0e-8
_PRIOR_NORM = 0.5 * np.log(2.0 * np.pi)


@dataclass(frozen=True)
class RegressionSpec:
    """Design matrix, offsets, and per-sample truncation levels."""

    covariates: np.ndarray
    offsets: np.ndarray
    k_max: np.ndarray
    covariate_names: tuple[str, ...] | None = None

    def __post_init__(self):
        covariates = np.atleast_2d(np.asarray(self.covariates, dtype=np.float64))
        offsets = np.asarray(self.offsets, dtype=np.float64)
        k_max = np.asarray(self.k_max, dtype=np.int64)
        n = covariates.shape[0]
        if covariates.ndim != 2:
            raise ValidationError("covariates must be a 2-D matrix")
        if offsets.shape != (n,):
            raise ValidationError("offsets must have one entry per sample")
        if k_max.shape != (n,):
            raise ValidationError("k_max must have one entry per sample")
        if not np.all(np.isfinite(covariates)):
            raise ValidationError("covariates must be finite")
        if np.any(offsets <= 0.0) or not np.all(np.isfinite(offsets)):
            raise ValidationError("offsets must be strictly positive and finite")
        if np.any(k_max < 1):
            raise ValidationError("every truncation level must be at least 1")
        names = self.covariate_names
        if names is not None and not len(set(names)) == len(names) == covariates.shape[1]:
            raise ValidationError(f"covariate_names must be {covariates.shape[1]} distinct names, "
                                  f"one per column, got {list(names)}")
        for arr in (covariates, offsets, k_max):
            arr.flags.writeable = False
        object.__setattr__(self, "covariates", covariates)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "k_max", k_max)

    @property
    def n_samples(self) -> int:
        return self.covariates.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[1]


@dataclass(frozen=True)
class ModelParams:
    """Constrained-scale parameters; only the fields a model uses are set."""

    coef: np.ndarray
    dispersion: float | None = None
    precision_shape: float | None = None
    precision_rate: float | None = None
    extra_dispersion: float | None = None

    def __post_init__(self):
        coef = np.atleast_1d(np.asarray(self.coef, dtype=np.float64))
        if coef.ndim != 1 or not np.all(np.isfinite(coef)):
            raise ValidationError("coef must be a finite 1-D vector")
        for f in fields(self)[1:]:  # the positive parameters
            value = getattr(self, f.name)
            if value is not None and not (np.isfinite(value) and value > 0.0):
                raise ValidationError(f"{f.name} must be strictly positive and finite")
        coef.flags.writeable = False
        object.__setattr__(self, "coef", coef)

    def require(self, *labels: str) -> None:
        missing = [lab for lab in labels if getattr(self, lab) is None]
        if missing:
            raise ValidationError(f"model requires parameters: {', '.join(missing)}")


@dataclass(frozen=True)
class Reports:
    """Fuzzy reports (c_i, h_i, K_i) as read-only (n,) columns, plus the latent counts
    `simulate` drew them from. `fuzzy.check_reports` is the rule every row obeys.
    """

    location: np.ndarray
    precision: np.ndarray
    k_max: np.ndarray
    latent_counts: np.ndarray | None = None

    def __post_init__(self):
        location = np.asarray(self.location, dtype=np.float64)
        precision = np.asarray(self.precision, dtype=np.float64)
        k_max = np.asarray(self.k_max, dtype=np.int64)
        if location.ndim != 1 or not location.shape == precision.shape == k_max.shape:
            raise ValidationError("location, precision and k_max must be 1-D of one length")
        check_reports(location, precision, k_max)
        for name, column in (("location", location), ("precision", precision), ("k_max", k_max)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return self.location.size

    @property
    def observations(self) -> tuple[BetaFuzzy, ...]:
        """One `BetaFuzzy` per report, built on each access.

        It remains only as an entry point of the benchmark in `bench/`, until
        ROADMAP item 8 moves it to the columns.
        """
        columns = self.location.tolist(), self.precision.tolist(), self.k_max.tolist()
        return tuple(map(BetaFuzzy, *columns))


# ---------------------------------------------------------------------------
# elementary densities
# ---------------------------------------------------------------------------


def linear_means(spec: RegressionSpec, params: ModelParams) -> np.ndarray:
    """mu_i = u_i * exp(z_i . coef) for all samples."""
    if params.coef.size != spec.n_covariates:
        raise ValidationError(
            f"coef has {params.coef.size} entries, design has {spec.n_covariates} columns"
        )
    eta = np.log(spec.offsets) + spec.covariates @ params.coef
    if np.any(eta > _MAX_LINEAR_PREDICTOR):
        worst = float(eta.max())
        raise NumericalError(f"linear predictor overflow: eta={worst:.3g} exceeds exp() range")
    return np.exp(eta)


def _nb_grid_sums(kappa: float, grid: np.ndarray, out=None) -> np.ndarray:
    """Rows [g(y); digamma(y + kappa) - digamma(kappa)] on grid = 0..L-1, L >= 1, from one
    cumulative sum, where g(y) = log Gamma(y + kappa) - log Gamma(kappa) - log Gamma(y + 1).

    Over m = 1..y, g sums log((kappa + m - 1)/m): log kappa at m = 1, then log1p((kappa - 1)/m),
    where (kappa - 1)/m >= -1/2, so no term loses kappa's digits; the digamma difference sums
    1/(kappa + m - 1). The terms of a row share one sign, so the sums cancel nothing: g is within
    2.2e-15 relative of 40-digit values for kappa in [e^-30, e^25] and y <= 500, where a
    difference of two log-gamma values loses up to 1.1e-6.
    """
    out = np.empty((2, grid.size)) if out is None else out
    coef, psi = out[0, 2:], out[1, 1:]
    np.log1p(np.divide(kappa - 1.0, grid[2:], out=coef), out=coef)
    np.reciprocal(np.add(grid[:-1], kappa, out=psi), out=psi)
    out[0, 0] = out[1, 0] = 0.0
    if grid.size > 1:
        out[0, 1] = math.log(kappa)
    return np.add.accumulate(out, axis=1, out=out)


def _nb_factors(mu: np.ndarray, kappa: float, mu_max=None, out=None):
    """(log q, -log r, r) per mean, r = kappa/(kappa + mu) and q = 1 - r, so that
    log NB(y; mu, kappa) = g(y) + y log q + kappa log r, g from `_nb_grid_sums`; log q in `out`.

    -log r = log1p(mu/kappa) keeps its digits at small mu/kappa; past mu = 1e300 kappa, where r
    leaves the normal floats and mu/kappa may overflow, it comes from logaddexp. `mu_max`, the
    largest mean, saves a pass where the caller has it.
    """
    log_q = np.log(mu, out=out)
    log_q -= math.log(kappa)
    normal = (mu.max(initial=0.0) if mu_max is None else mu_max) < 1.0e300 * kappa
    neg_log_r = np.log1p(x := mu / kappa, out=x) if normal else np.logaddexp(0.0, log_q)
    log_q -= neg_log_r
    return log_q, neg_log_r, np.divide(kappa, r := kappa + mu, out=r)


def _log1p_gap(mu, kappa: float) -> np.ndarray:
    """mu - kappa log1p(mu/kappa) for mu > 0, without its cancellation at small mu/kappa.

    Below x = mu/kappa = 1e-2 it is mu x sum_{k=2..9} (-x)^(k-2)/k, within 1e-16 relative;
    above, logaddexp gives log1p(mu/kappa) where mu/kappa overflows.
    """
    with np.errstate(over="ignore"):
        x = mu / kappa
    gap = mu - kappa * np.logaddexp(0.0, np.log(mu) - math.log(kappa))
    small = x < 1.0e-2
    x = x[small]
    series = np.zeros_like(x)
    for k in range(9, 1, -1):
        series = 1.0 / k - x * series
    gap[small] = mu[small] * x * series
    return gap


def corrected_scaled_count(y, k):
    """Scaled count (y + 1/2) / (k + 1); keeps Beta shapes positive at 0 and k."""
    return (np.asarray(y, dtype=np.float64) + 0.5) / (np.asarray(k, dtype=np.float64) + 1.0)


def clamp_scaled_location(location, k) -> np.ndarray:
    """Scaled report location clipped into the open support of the Beta density.

    The clip interval [1/(2k+2), 1 - 1/(2k+2)] equals the range of the
    corrected scaled counts, so a clamped location and a boundary count meet
    at the same point. Idempotent.
    """
    k = np.asarray(k, dtype=np.float64)
    lo = 0.5 / (k + 1.0)  # the bits of 1/(2k+2), with one operation fewer per car call
    return np.clip(np.asarray(location, dtype=np.float64) / k, lo, 1.0 - lo)


# ---------------------------------------------------------------------------
# priors and the unconstrained parametrization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PriorSpec:
    """Independent Normal priors on the unconstrained parameters.

    Coefficients are Normal(0, coef_sd) directly; every positive parameter
    gets a Normal prior on its logarithm, which doubles as the transform, so
    no separate Jacobian bookkeeping is needed. The sd of the prior on
    log <parameter> is the field `log_<parameter>_sd`.
    """

    coef_sd: float = 5.0
    log_dispersion_sd: float = 1.5
    log_precision_shape_sd: float = 1.5
    log_precision_rate_sd: float = 1.5
    log_extra_dispersion_sd: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if not 0.0 < getattr(self, f.name) < np.inf:
                raise ValidationError(f"{f.name} must be strictly positive and finite")


_POSITIVE_BLOCKS = {
    "cnar": ("dispersion", "precision_shape", "precision_rate"),
    "car1": ("precision_shape", "precision_rate"),
    "car2": ("precision_shape", "precision_rate", "extra_dispersion"),
    "scalar": ("dispersion",),
}

def check_model_name(model: str) -> str:
    if model not in MODEL_NAMES:
        raise ValidationError(f"unknown model '{model}'; choose one of {MODEL_NAMES}")
    return model


def parameter_names(model: str, covariate_names=None, n_covariates=None) -> list[str]:
    model = check_model_name(model)
    if covariate_names is not None:
        coef = [f"coef_{name}" for name in covariate_names]
    else:
        coef = [f"coef_{j}" for j in range(int(n_covariates))]
    return coef + list(_POSITIVE_BLOCKS[model])


def params_from_constrained(values, n_covariates: int, model: str) -> ModelParams:
    """Constrained-scale vector (in `parameter_names` order) -> ModelParams."""
    model = check_model_name(model)
    values = np.asarray(values, dtype=np.float64)
    labels = _POSITIVE_BLOCKS[model]
    if values.shape != (n_covariates + len(labels),):
        raise ValidationError(
            f"constrained vector for '{model}' must have length {n_covariates + len(labels)}"
        )
    positives = {label: float(values[n_covariates + j]) for j, label in enumerate(labels)}
    return ModelParams(coef=values[:n_covariates].copy(), **positives)


def _prior_sds(priors: PriorSpec, n_covariates: int, model: str) -> np.ndarray:
    tail = [getattr(priors, f"log_{label}_sd") for label in _POSITIVE_BLOCKS[model]]
    return np.concatenate([np.full(n_covariates, priors.coef_sd), np.array(tail)])


# ---------------------------------------------------------------------------
# posterior target (log density + gradient on the unconstrained scale)
# ---------------------------------------------------------------------------


class Posterior:
    """Callable log posterior with analytic gradient for one model instance.

    `data` is a `Reports` aligned with `spec`, for all four models; `scalar`
    reads only the reports' centroids (`fuzzy.beta_centroids`), rounded.
    Evaluation happens on the unconstrained scale. A point where the density
    cannot be evaluated gets log density -inf rather than an exception, so
    samplers can treat it as a divergence; `rejections` counts such points
    by reason (`REJECTION_REASONS`), and `evaluations` counts the calls of
    `logp_and_grad`, full and gradient-only. `_loglik_and_grad` checks
    `nonfinite_phi`, `positive_bound` (a |log parameter| above 700) and
    `eta_overflow`, `_cnar_block` checks `nonfinite_peak`; these hold for both
    kinds of call. `logp_and_grad` checks `nonfinite_logp`, on full calls only.

    A gradient-only call (`need_logp=False`) skips what only the log density
    reads: the prior's quadratic, the Gamma block's lgamma and sum, car's
    betaln sum (not the sums a log c and b log(1 - c), which car2's gradient
    reads), cnar's log sums and closed-form log normaliser, and scalar's
    negative binomial log pmf. Its gradient keeps the bits of the full call's.

    `cnar` divides a mixture (count pmf times report density) by the bare
    count pmf on {0..K}, summing over 0..max K cut one column past the
    (1 - `TAIL_MASS`) quantile of NB(max mu, kappa), so each sample's pmf loses
    at most `TAIL_MASS` (1e-12); the exact rerun below evaluates the full grid.
    Where the cut ends before the grid and inside every K, the bare pmf's log
    normaliser and means of y and digamma(y + kappa) - digamma(kappa) are the
    untruncated NB's closed forms, 0, mu and -log r, off by its mass beyond K, at
    most `TAIL_MASS`. It keeps the (max K + 1, n) report density and a scratch of
    2*(max K + 1)*n float64 cells, for the two sums the other cuts take: 2.4 MB in
    all at n=200, K=500.

    No max pass scales the (cut, n) terms. The count pmf is one rank-3 product,
    [g(y), 1, y] @ [1; kappa log r; log q], r = kappa/(kappa + mu) = 1 - q, the
    factors of `_nb_factors`; its second rank carries the normaliser. The grid
    column g(y) = log Gamma(y + kappa) - log Gamma(kappa) - log Gamma(y + 1) and
    the moment column digamma(y + kappa) - digamma(kappa) are the rows of
    `_nb_grid_sums`' one cumulative sum, both 0 at y = 0. Neither loses digits at
    large kappa, as differences of log-gamma and digamma values do. The report
    density is kept relative to its per-sample maximum, whose sum is added back to
    the log likelihood. An untruncated pmf and a density over its own maximum are
    at most 1, so every term is, up to rounding, and one exp needs no shift. A call
    trusts that pass only where its sums pass two checks; otherwise it reruns once,
    exactly, on the full grid with each sample's maximum subtracted before the
    exp, and `exact_reruns` counts it. The floor:
    every sum is finite and at least `_SUM_FLOOR` (1e-290), so its largest term
    is at least 1e-290/(max K + 1), a normal float, and the sums keep the
    precision of the shifted terms. The certificate, where the cut ends before
    the grid: a relative report density is at most 1, so a sample's mixture loses
    at most its pmf's mass past the cut, `TAIL_MASS`, and its relative loss is at
    most `TAIL_MASS` over its mixture sum; the smallest sum must hold that to
    `_CUT_LOSS` (1e-8), which bounds each sample's log likelihood error by about
    1e-8. A report far in its pmf's tail fails it and pays for the full grid. The
    grid columns take 4*(max K + 1) float64 cells and the sample rows 3n, 20.8 KB
    at n=200, K=500.
    """

    def __init__(self, spec: RegressionSpec, data, priors: PriorSpec, model: str):
        self.model = check_model_name(model)
        self.n_covariates = spec.n_covariates
        self.names = parameter_names(
            model, spec.covariate_names, n_covariates=spec.n_covariates
        )
        self.dim = len(self.names)
        sds = _prior_sds(priors, spec.n_covariates, model)
        self._neg_inv_var = -1.0 / sds**2
        self._prior_norm = float(np.log(sds).sum() + self.dim * _PRIOR_NORM)
        self._z = spec.covariates
        self._logu = np.log(spec.offsets)
        # |eta| is at most max|log u| + sum_j max|z_j| |phi_j|, as Python floats
        self._max_abs_logu = float(np.abs(self._logu).max(initial=0.0))
        self._max_abs_z = np.abs(self._z).max(axis=0, initial=0.0).tolist()
        self._kvec = spec.k_max.astype(np.float64)
        self.rejections = dict.fromkeys(REJECTION_REASONS, 0)
        self.evaluations = {"full": 0, "gradient_only": 0}
        self.exact_reruns = 0

        if len(data) != spec.n_samples:
            raise ValidationError(f"{len(data)} reports for {spec.n_samples} design rows")
        if np.any(data.k_max != spec.k_max):
            raise ValidationError("report k_max disagrees with the design k_max")
        if self.model == "scalar":
            self._counts = np.round(beta_centroids(data.location, data.precision, data.k_max))
            self._count_index = self._counts.astype(np.intp)
            # j = 0..max y; c(y) = sum_{j<y} j/(kappa + j) is the cumsum's entry max(y - 1, 0)
            self._grid = np.arange(self._counts.max(initial=0.0) + 1.0)
            self._steps_index = np.maximum(self._count_index - 1, 0)
            return
        self._h = data.precision
        self._sum_log_h = float(np.log(self._h).sum()) if self._h.size else 0.0
        self._sum_h = float(self._h.sum())
        self._cbar = clamp_scaled_location(data.location, data.k_max)
        self._log_cbar = np.log(self._cbar)
        self._log1m_cbar = np.log1p(-self._cbar)
        self._logit_cbar = self._log_cbar - self._log1m_cbar

        if self.model != "cnar":  # the clamp's bounds, as `clamp_scaled_location` gives them
            self._m_lo, self._m_hi = clamp_scaled_location([0 * self._kvec, self._kvec], self._kvec)
            self._sum_log_c = float(self._log_cbar.sum() + self._log1m_cbar.sum())
            # the Beta shapes a, b and car2's scale s, rows of one buffer for one digamma call
            self._shapes = np.empty((3, spec.n_samples))
        else:
            n = spec.n_samples
            grid_len = int(spec.k_max.max()) + 1 if n else 1
            grid = np.arange(grid_len, dtype=np.float64)
            self._grid = grid
            # Matrices are (grid, n): a cut at hi is the C-contiguous [:hi] block.
            # The scratch, viewed per call as (2, hi, n), first holds the Beta
            # shapes a and b, so the report density is built in place.
            self._scratch = np.empty(2 * grid_len * n)
            a, b = self._scratch.reshape(2, grid_len, n)
            ybar = corrected_scaled_count(grid[:, None], self._kvec)
            np.multiply(self._h, ybar, out=a)
            np.multiply(self._h, np.subtract(1.0, ybar, out=ybar), out=b)
            beta = self._beta = betaln(a, b, out=ybar)
            a -= 1.0
            a *= self._log_cbar
            b -= 1.0
            b *= self._log1m_cbar
            a += b
            np.subtract(a, beta, out=beta)
            valid = grid[:, None] <= self._kvec
            bad = ~np.isfinite(beta) & valid
            if bad.any():
                raise NumericalError(f"sample {bad.any(axis=0).argmax()}: non-finite report density")
            np.copyto(beta, -np.inf, where=~valid)
            # the report density relative to its per-sample maximum, and the sum of those maxima
            peak = beta.max(axis=0)
            beta -= peak
            self._sum_beta_peak = float(peak.sum())
            # cells past a sample's own K; None when every sample has the same K
            self._beyond_k = None if valid.all() else ~valid
            # columns [g, 1, y, digamma(y + kappa) - digamma(kappa)] over the grid: the
            # first three and the sample rows [1; kappa log r; log q] are the two factors
            # of the count pmf's rank-3 product (the class docstring's), the last three give
            # sums and moments, and `_nb_grid_sums` writes the first and the last
            self._grid_columns = np.column_stack([grid, np.ones(grid_len), grid, grid])
            self._sample_factor = np.ones((3, n))
            # longest cut that ends before the grid and inside every sample's K
            self._closed_hi = min(grid_len - 1, int(spec.k_max.min()) + 1) if n else 0

    # -- public surface ----------------------------------------------------

    def initial_point(self) -> np.ndarray:
        """Prior mean on the unconstrained scale."""
        return np.zeros(self.dim)

    def constrain(self, phi: np.ndarray) -> np.ndarray:
        """Map unconstrained vectors (last axis) to constrained values, in `names` order."""
        phi = np.asarray(phi, dtype=np.float64)
        out = phi.copy()
        out[..., self.n_covariates :] = np.exp(phi[..., self.n_covariates :])
        return out

    def logp_and_grad(self, phi: np.ndarray, need_logp: bool = True):
        """(log posterior, gradient) at `phi`; with `need_logp` False, (0.0, gradient)
        wherever the gradient is not rejected, 0.0 being a finite stand-in."""
        self.evaluations["full" if need_logp else "gradient_only"] += 1
        phi = np.asarray(phi, dtype=np.float64)
        ll, grad = self._loglik_and_grad(phi, need_logp)
        if grad is not None:  # None: rejected, and counted, by the likelihood
            score = phi * self._neg_inv_var  # of the Normal(0, sd) prior on each coordinate
            logp = float(ll + 0.5 * float(phi @ score) - self._prior_norm) if need_logp else 0.0
            if math.isfinite(logp):
                grad += score
                return logp, grad
            self._reject("nonfinite_logp")
        return -np.inf, np.zeros(self.dim)

    def _reject(self, reason: str):
        self.rejections[reason] += 1
        return -np.inf, None

    def _loglik_and_grad(self, phi: np.ndarray, need_logp: bool = True):
        """Observed-data log likelihood and its gradient, without the prior.

        Returns (-inf, None) where it cannot be evaluated, counting the reason,
        and 0.0 in place of the log likelihood when `need_logp` is False.
        """
        if phi.shape != (self.dim,):
            raise ValidationError(f"parameter vector must have length {self.dim}")
        values = phi.tolist()
        if not all(map(math.isfinite, values)):
            return self._reject("nonfinite_phi")
        p = self.n_covariates
        # reject points whose constrained values overflow or underflow exp()
        if max(map(abs, values[p:])) > _MAX_LINEAR_PREDICTOR:
            return self._reject("positive_bound")
        eta = self._logu + self._z @ phi[:p]
        # the exact max only where the bound, with 0.1% for rounding, does not clear 700
        bound = self._max_abs_logu + sum(map(operator.mul, self._max_abs_z, map(abs, values)))
        if bound >= 0.999 * _MAX_LINEAR_PREDICTOR and np.abs(eta).max() > _MAX_LINEAR_PREDICTOR:
            return self._reject("eta_overflow")
        mu = np.exp(eta, out=eta)
        if self.model == "cnar":
            return self._cnar_block(phi, mu, need_logp)
        if self.model in ("car1", "car2"):
            return self._car_block(phi, mu, need_logp)
        return self._scalar_block(phi, mu, need_logp)

    # -- model blocks -------------------------------------------------------

    def _gamma_block(self, shape: float, rate: float, n: int, need_logp: bool):
        """Gamma log density of the precisions (0.0 unless `need_logp`) and its
        derivatives in log shape and log rate."""
        log_rate = math.log(rate)
        logp = (
            n * (shape * log_rate - math.lgamma(shape))
            + (shape - 1.0) * self._sum_log_h
            - rate * self._sum_h
        ) if need_logp else 0.0
        d_shape = n * (log_rate - float(digamma(shape))) + self._sum_log_h
        # no division by the rate: n*shape/rate overflows when the rate is tiny
        return logp, d_shape * shape, n * shape - rate * self._sum_h

    def _cnar_block(self, phi: np.ndarray, mu: np.ndarray, need_logp: bool):
        p = self.n_covariates
        kappa, shape, rate = map(math.exp, phi[p:].tolist())
        n = mu.size

        grid_len = self._grid.size
        mu_max = float(mu.max()) if n else 0.0
        cut = self._cutoff(mu_max, kappa) if n else grid_len
        _, neg_log_r, r = _nb_factors(mu, kappa, mu_max, out=self._sample_factor[2])
        np.multiply(neg_log_r, -kappa, out=self._sample_factor[1])

        # Every term is at most 1, so one exp needs no shift; a pass whose sums fail the
        # floor or the cut's certificate (the class docstring's) takes the exact rerun.
        for rerun in (False, True):
            hi = grid_len if rerun else cut
            # a cut inside every K (never the full grid) leaves the bare pmf to its closed form
            closed = hi <= self._closed_hi
            columns = self._grid_columns[:hi]
            _nb_grid_sums(kappa, self._grid[:hi], out=columns[:, ::3].T)
            # half [0] is the posterior mixture, half [1] the bare pmf on {0..K}
            halves = self._scratch[: 2 * hi * n].reshape(2, hi, n)[: 1 if closed else 2]
            np.matmul(columns[:, :3], self._sample_factor, out=halves[-1])
            if not closed and self._beyond_k is not None:
                np.copyto(halves[1], -np.inf, where=self._beyond_k[:hi])
            np.add(halves[-1], self._beta[:hi], out=halves[0])
            if rerun:
                peak = halves.max(axis=1)
                if not np.isfinite(peak).all():
                    return self._reject("nonfinite_peak")
                halves -= peak[:, None, :]
            np.exp(halves, out=halves)
            moments = np.matmul(columns[:, 1:].T, halves)
            sums = moments[:, 0]
            # the mixture sums answer for the floor and, where the grid is cut, the certificate
            floor = _SUM_FLOOR if hi == grid_len else TAIL_MASS / _CUT_LOSS
            if rerun or (sums[0].min(initial=1.0) >= floor and sums.max(initial=0.0) < math.inf
                         and (closed or sums[1].min(initial=1.0) >= _SUM_FLOOR)):
                break
            self.exact_reruns += 1

        # sums and means of y and digamma(y + kappa) - digamma(kappa) per half; the gap
        # between the mixture's and the bare pmf's means drives the gradient
        means = moments[:, 1:] / moments[:, :1]
        post_y, post_psi = means[0]
        # untruncated NB: E[y] = mu, E[digamma(y + kappa) - digamma(kappa)] = -log r
        bare_y, bare_psi = (mu, neg_log_r) if closed else means[1]
        weight = (post_y - bare_y) * r
        d_kappa = kappa * float((post_psi - bare_psi).sum()) - float(weight.sum())
        count_ll = 0.0
        if need_logp:
            log_sums = (np.log(sums) + (peak if rerun else 0.0)).sum(axis=1)
            # the untruncated pmf sums to 1, so the closed form's log normaliser is 0
            count_ll = float(log_sums[0] - (0.0 if closed else log_sums[1])) + self._sum_beta_peak

        gamma_ll, d_shape, d_rate = self._gamma_block(shape, rate, n, need_logp)
        grad = np.empty(self.dim)
        np.matmul(weight, self._z, out=grad[:p])
        grad[p:] = d_kappa, d_shape, d_rate
        return count_ll + gamma_ll, grad

    def _cutoff(self, mu_max: float, kappa: float) -> int:
        """Grid length to the (1 - `TAIL_MASS`) quantile of NB(mu_max, kappa), plus one spare."""
        # nbdtrik is accurate while 1 - p = mu/(kappa + mu) exceeds about 1e-13; nearer
        # p = 1 its quantile falls short (35 of the 37 columns needed at kappa = e^38,
        # mu = 8), so that corner keeps the full grid, as do a nan quantile and a long one
        if mu_max < 1.0e-12 * kappa:
            return self._grid.size
        q = nbdtrik(1.0 - TAIL_MASS, kappa, kappa / (kappa + mu_max))
        return math.ceil(q) + 2 if q <= self._grid.size - 2 else self._grid.size

    def _car_block(self, phi: np.ndarray, mu: np.ndarray, need_logp: bool):
        p = self.n_covariates
        log_positives = phi[p:].tolist()
        n = mu.size

        scaled = mu / self._kvec
        m = np.maximum(scaled, self._m_lo)
        np.minimum(m, self._m_hi, out=m)  # the bits of clamp_scaled_location(mu, K)
        car2 = self.model == "car2"
        shapes = self._shapes[: 3 if car2 else 2]
        a, b = shapes[:2]
        s = np.multiply(math.exp(log_positives[2]), self._h, out=shapes[2]) if car2 else self._h
        np.multiply(s, m, out=a)
        np.multiply(s, np.subtract(1.0, m, out=b), out=b)
        a_log_c, b_log_1mc = float(a @ self._log_cbar), float(b @ self._log1m_cbar)
        beta_ll = 0.0
        if need_logp:  # sum of (a - 1) log c + (b - 1) log(1 - c) - betaln(a, b)
            beta_ll = a_log_c + b_log_1mc - float(betaln(a, b).sum()) - self._sum_log_c
        dg = digamma(shapes)
        dm = dg[1] - dg[0]
        dm += self._logit_cbar
        dm *= s
        dm *= m == scaled  # a clamped mean does not move with the coefficients
        dm *= scaled

        gamma_ll, d_shape, d_rate = self._gamma_block(*map(math.exp, log_positives[:2]), n,
                                                      need_logp)
        grad = np.empty(self.dim)
        np.matmul(dm, self._z, out=grad[:p])
        grad[p], grad[p + 1] = d_shape, d_rate
        if car2:  # sum of a (log c - psi(a)) + b (log(1 - c) - psi(b)) + s psi(s)
            grad[p + 2] = (
                a_log_c + b_log_1mc - float(a @ dg[0]) - float(b @ dg[1]) + float(s @ dg[2])
            )
        return beta_ll + gamma_ll, grad

    def _scalar_block(self, phi: np.ndarray, mu: np.ndarray, need_logp: bool):
        p = self.n_covariates
        kappa = float(np.exp(phi[p]))
        y = self._counts
        kmu = kappa + mu
        ll = 0.0
        if need_logp:  # the negative binomial log pmf at the counts
            log_q, neg_log_r, _ = _nb_factors(mu, kappa)
            coef = _nb_grid_sums(kappa, self._grid)[0, self._count_index]
            ll = float(np.sum(coef + y * log_q - kappa * neg_log_r))
        d_coef = self._z.T @ (y - mu * ((y + kappa) / kmu))  # mu (y + kappa) can overflow
        # kappa (psi(y + kappa) - psi(kappa) + log(kappa/(kappa + mu)) + 1 - (y + kappa)/(kappa + mu))
        # in terms that do not cancel at large kappa: -c(y) + (mu - kappa log1p(mu/kappa))
        # - mu (mu - y)/(kappa + mu), with kappa (psi(y + kappa) - psi(kappa)) = y - c(y)
        c = np.add.accumulate(self._grid / (kappa + self._grid))[self._steps_index]
        d_kappa = float((_log1p_gap(mu, kappa) - c - mu * ((mu - y) / kmu)).sum())
        return ll, np.concatenate([d_coef, [d_kappa]])


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


# `simulate` evaluates a cnar row up to the first multiple of this many columns past its cut
_CUT_ROUND = 64


def _cut_columns(mu, kappa, k):
    """Per NB(mu, kappa) row, the cut: columns 0..cut-1 fix every bit of its cumsum; cut <= K + 1.

    Past y1 = 2 floor(max(kappa - 1, 0) mu / kappa) + 10 (beyond the mode) every pmf ratio
    p(y + 1)/p(y) = r (y + kappa)/(y + 1), r = mu/(kappa + mu), is at most
    rho = r max(1, (y1 + kappa)/(y1 + 1)), so the terms from y1 + 2 + ceil(60 ln 2 / -ln rho)
    on are below 2**-60 of p(y1), hence of the row's peak. rho >= 1 or NaN (r rounds to 1, or
    the mean overflowed) keeps the whole row {0..K}.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        r = mu / (kappa + mu)
        y1 = 2.0 * np.floor(max(kappa - 1.0, 0.0) / kappa * mu) + 10.0
        rho = r * np.maximum(1.0, (y1 + kappa) / (y1 + 1.0))
        cut = y1 + 2.0 + np.ceil(60.0 * math.log(2.0) / -np.log(rho))
    return np.where(rho < 1.0, np.minimum(cut, k + 1), k + 1).astype(np.int64)


def simulate(spec: RegressionSpec, params: ModelParams, seed, model: str = "cnar") -> Reports:
    """Draw a synthetic dataset from one of the report models.

    Deterministic for a fixed seed (an int or a numpy SeedSequence): the draw
    order is precisions, then latent counts (cnar only), then report locations.
    A cnar row holds the NB log pmf lp on columns 0..W-1 and cdf = cumsum(exp(lp -
    row max)). W is the row's `_cut_columns` cut rounded up to a multiple of
    `_CUT_ROUND`, at most K + 1; rows of one W share `fuzzy.k_blocks` blocks of at
    most `fuzzy.BLOCK_CELLS` cells (512 KB, about 1.5 MB with temporaries), whatever
    their K. Every term past the cut is below 2**-60 of the peak term while the
    running sum is >= 1, so it leaves the sum's bits as they are: the row max,
    cdf[W - 1] and each count equal those of the whole row {0..K}. A count is the
    number of cdf entries below u * cdf[W - 1], so at most K. A row whose log mass
    is not finite or below log 1e-300 raises `NumericalError` (CLI exit 3).
    """
    model = check_model_name(model)
    if model == "scalar":
        raise ValidationError("the scalar proxy has no fuzzy simulator; use 'cnar'")
    params.require(*_POSITIVE_BLOCKS[model])

    rng = np.random.default_rng(seed)
    n = spec.n_samples
    k = spec.k_max
    mu = linear_means(spec, params)
    h = rng.gamma(shape=params.precision_shape, scale=1.0 / params.precision_rate, size=n)

    latent = None
    if model == "cnar":
        latent = np.empty(n, dtype=np.int64)
        u = rng.random(n)
        kappa = params.dispersion
        width = np.minimum(-(-_cut_columns(mu, kappa, k) // _CUT_ROUND) * _CUT_ROUND, k + 1)
        for last, idx in k_blocks(width - 1):
            with np.errstate(divide="ignore", invalid="ignore"):  # log 0 of an underflowed mean
                log_q, neg_log_r, _ = _nb_factors(mu[idx, None], kappa)
                grid = np.arange(last + 1.0)
                lp = log_q * grid + _nb_grid_sums(kappa, grid)[0] - kappa * neg_log_r
                peak = lp.max(axis=1, keepdims=True)
                cdf = np.exp(np.subtract(lp, peak, out=lp), out=lp).cumsum(axis=1, out=lp)
                log_mass = peak[:, 0] + np.log(cdf[:, -1])
            if (bad := ~(log_mass >= _LOG_TINY)).any():  # NaN fails too
                j = bad.argmax()
                i = idx[j]
                raise NumericalError(f"truncation incompatible with mean: log mass {log_mass[j]:.4g}"
                                     f" on {{0..{k[i]}}}, mu={mu[i]:.3g}, kappa={kappa:.3g}")
            latent[idx] = (cdf[:, :-1] < u[idx, None] * cdf[:, -1:]).sum(axis=1)
        ybar = corrected_scaled_count(latent, k)
        scaled = rng.beta(h * ybar, h * (1.0 - ybar))
    else:
        lam = params.extra_dispersion if model == "car2" else 1.0
        m = clamp_scaled_location(mu, k)
        scaled = rng.beta(lam * h * m, lam * h * (1.0 - m))

    return Reports(k * scaled, h, k, latent)
