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
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import betaln, digamma, gammaln, nbdtrik

from .errors import NumericalError, ValidationError
from .fuzzy import BetaFuzzy, beta_centroids, check_reports, k_blocks

MODEL_NAMES = ("cnar", "car1", "car2", "scalar")
REJECTION_REASONS = ("nonfinite_phi", "positive_bound", "eta_overflow", "nonfinite_peak",
                     "nonfinite_logp")
# `Posterior`'s default share of the widest count pmf the cnar grid may drop
TAIL_MASS = 1.0e-12

# exp() overflows just above this; treat larger linear predictors as failures
_MAX_LINEAR_PREDICTOR = 700.0
_LOG_TINY = np.log(1.0e-300)
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


def _negbin_log_pmf(y, mu, kappa):
    """Negative binomial log pmf, Var = mu + mu^2/kappa, for mu, kappa > 0.

    betaln keeps the digits that gammaln(y + kappa) - gammaln(kappa) loses for kappa >~ 1e10,
    and logaddexp gives log((kappa + mu)/kappa) without mu/kappa, which overflows past 1.8e308.
    """
    log_ratio = np.log(mu) - np.log(kappa)
    log_kmu_k = np.logaddexp(0.0, log_ratio)
    head = -betaln(kappa, y + 1.0) - np.log(y + kappa)
    return head - kappa * log_kmu_k + y * (log_ratio - log_kmu_k)


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

def check_tail_mass(tail_mass: float) -> float:
    """Share of the widest untruncated count pmf the cnar grid may drop: a float in [0, 1)."""
    if not 0.0 <= float(tail_mass) < 1.0:
        raise ValidationError(f"tail_mass must lie in [0, 1), got {tail_mass!r}")
    return float(tail_mass)


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
    (1 - `tail_mass`) quantile of NB(max mu, kappa): each sample's pmf loses at
    most `tail_mass`, `TAIL_MASS` (1e-12) unless the caller chooses, and
    `tail_mass=0` is the exact full grid, the reference. Where the cut ends
    before the grid and inside every K, the bare pmf's log normaliser and means
    of y and digamma(y + kappa) are the untruncated NB's closed forms, off by
    its mass beyond K, at most `tail_mass`. It keeps the (max K + 1, n) report
    density and a scratch of 2*(max K + 1)*n float64 cells, for the two sums
    the other cuts take: 2.4 MB in all at n=200, K=500.
    """

    def __init__(
        self, spec: RegressionSpec, data, priors: PriorSpec, model: str, tail_mass: float = TAIL_MASS
    ):
        self.model = check_model_name(model)
        self.tail_mass = check_tail_mass(tail_mass)
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
        self._kvec = spec.k_max.astype(np.float64)
        self.rejections = dict.fromkeys(REJECTION_REASONS, 0)
        self.evaluations = {"full": 0, "gradient_only": 0}

        if len(data) != spec.n_samples:
            raise ValidationError(f"{len(data)} reports for {spec.n_samples} design rows")
        if np.any(data.k_max != spec.k_max):
            raise ValidationError("report k_max disagrees with the design k_max")
        if self.model == "scalar":
            self._counts = np.round(beta_centroids(data.location, data.precision, data.k_max))
            # j = 0..max y - 1; c(y) = sum_{j<y} j/(kappa + j) is the cumsum's entry max(y - 1, 0)
            self._steps = np.arange(max(self._counts.max(initial=0.0), 1.0))
            self._steps_index = np.maximum(self._counts - 1.0, 0.0).astype(np.intp)
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
        else:
            n = spec.n_samples
            grid_len = int(spec.k_max.max()) + 1 if n else 1
            grid = np.arange(grid_len, dtype=np.float64)
            self._grid = grid
            self._lgamma_fact = gammaln(grid + 1.0)
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
            # cells past a sample's own K; None when every sample has the same K
            self._beyond_k = None if valid.all() else ~valid
            # the two factors of the count pmf's rank-2 product, and the rows
            # [1; grid; digamma(grid + kappa)] that give both sums and moments
            self._grid_col = np.column_stack([grid, grid])
            self._slope_one = np.ones((2, n))
            self._moment_rows = np.stack([np.ones(grid_len), grid, grid])
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
        if eta.size and np.abs(eta).max() > _MAX_LINEAR_PREDICTOR:
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

        mu_max = float(mu.max()) if n else 0.0
        hi = self._cutoff(mu_max, kappa) if n else self._grid.size
        # a cut inside every K leaves the bare pmf to its closed form, if mu/kappa is finite
        closed = hi <= self._closed_hi and mu_max < 1.0e300 * kappa
        kmu = kappa + mu
        np.subtract(np.log(mu), np.log(kmu), out=self._slope_one[0])
        grid_kappa = self._grid[:hi] + kappa
        np.subtract(gammaln(grid_kappa), self._lgamma_fact[:hi], out=self._grid_col[:hi, 1])
        rows = self._moment_rows[:, :hi]
        digamma(grid_kappa, out=rows[2])

        # The count pmf's per-sample constant head - gammaln(kappa) cancels in
        # count_ll and in the moments, so it never enters the matrices or the
        # closed form. Half [0] is the posterior mixture, half [1] the bare pmf.
        halves = self._scratch[: 2 * hi * n].reshape(2, hi, n)[: 1 if closed else 2]
        np.matmul(self._grid_col[:hi], self._slope_one, out=halves[-1])
        if not closed and self._beyond_k is not None:
            np.copyto(halves[1], -np.inf, where=self._beyond_k[:hi])
        np.add(halves[-1], self._beta[:hi], out=halves[0])
        peak = halves.max(axis=1)
        if not np.isfinite(peak).all():
            return self._reject("nonfinite_peak")
        halves -= peak[:, None, :]
        np.exp(halves, out=halves)

        # sums and means of y and digamma(y + kappa) per half; the gap between
        # the mixture's and the bare pmf's means drives the gradient
        moments = np.matmul(rows, halves)
        means = moments[:, 1:] / moments[:, :1]
        post_y, post_psi = means[0]
        if closed:
            # untruncated NB: log normaliser gammaln(kappa) + kappa * log((kappa + mu)/kappa),
            # E[y] = mu, and E[digamma(y + kappa)] = digamma(kappa) + log((kappa + mu)/kappa)
            bare_y, log_ratio = mu, np.log1p(mu / kappa)
            bare_psi = log_ratio + digamma(kappa)
        else:
            bare_y, bare_psi = means[1]
        weight = post_y - bare_y
        weight *= kappa / kmu
        d_kappa = kappa * float((post_psi - bare_psi).sum()) - float(weight.sum())
        count_ll = 0.0
        if need_logp:
            log_sums = (peak + np.log(moments[:, 0])).sum(axis=1)
            bare_ll = n * math.lgamma(kappa) + kappa * float(log_ratio.sum()) if closed else log_sums[1]
            count_ll = float(log_sums[0] - bare_ll)

        gamma_ll, d_shape, d_rate = self._gamma_block(shape, rate, n, need_logp)
        grad = np.empty(self.dim)
        np.matmul(weight, self._z, out=grad[:p])
        grad[p:] = d_kappa, d_shape, d_rate
        return count_ll + gamma_ll, grad

    def _cutoff(self, mu_max: float, kappa: float) -> int:
        """Grid length to the (1 - tail_mass) quantile of NB(mu_max, kappa), plus one spare."""
        # nbdtrik is accurate while 1 - p = mu/(kappa + mu) exceeds about 1e-13; nearer
        # p = 1 its quantile falls short (35 of the 37 columns needed at kappa = e^38,
        # mu = 8), so that corner keeps the full grid, as do a nan quantile (tail_mass 0)
        # and a long one
        if mu_max < 1.0e-12 * kappa:
            return self._grid.size
        q = nbdtrik(1.0 - self.tail_mass, kappa, kappa / (kappa + mu_max))
        return int(np.ceil(q)) + 2 if q <= self._grid.size - 2 else self._grid.size

    def _car_block(self, phi: np.ndarray, mu: np.ndarray, need_logp: bool):
        p = self.n_covariates
        log_positives = phi[p:].tolist()
        n = mu.size

        scaled = mu / self._kvec
        m = np.maximum(scaled, self._m_lo)
        np.minimum(m, self._m_hi, out=m)  # the bits of clamp_scaled_location(mu, K)
        s = self._h if self.model == "car1" else math.exp(log_positives[2]) * self._h
        a = s * m
        b = s * (1.0 - m)
        a_log_c, b_log_1mc = float(a @ self._log_cbar), float(b @ self._log1m_cbar)
        beta_ll = 0.0
        if need_logp:  # sum of (a - 1) log c + (b - 1) log(1 - c) - betaln(a, b)
            beta_ll = a_log_c + b_log_1mc - float(betaln(a, b).sum()) - self._sum_log_c
        dg_a, dg_b = digamma(a), digamma(b)
        dm = dg_b - dg_a
        dm += self._logit_cbar
        dm *= s
        dm *= m == scaled  # a clamped mean does not move with the coefficients
        dm *= scaled

        gamma_ll, d_shape, d_rate = self._gamma_block(*map(math.exp, log_positives[:2]), n,
                                                      need_logp)
        grad = np.empty(self.dim)
        np.matmul(dm, self._z, out=grad[:p])
        grad[p], grad[p + 1] = d_shape, d_rate
        if self.model == "car2":  # sum of a (log c - psi(a)) + b (log(1 - c) - psi(b)) + s psi(s)
            grad[p + 2] = (
                a_log_c + b_log_1mc - float(a @ dg_a) - float(b @ dg_b) + float(s @ digamma(s))
            )
        return beta_ll + gamma_ll, grad

    def _scalar_block(self, phi: np.ndarray, mu: np.ndarray, need_logp: bool):
        p = self.n_covariates
        kappa = float(np.exp(phi[p]))
        y = self._counts
        kmu = kappa + mu
        ll = float(_negbin_log_pmf(y, mu, kappa).sum()) if need_logp else 0.0
        d_coef = self._z.T @ (y - mu * ((y + kappa) / kmu))  # mu (y + kappa) can overflow
        # kappa (psi(y + kappa) - psi(kappa) + log(kappa/(kappa + mu)) + 1 - (y + kappa)/(kappa + mu))
        # in terms that do not cancel at large kappa: -c(y) + (mu - kappa log1p(mu/kappa))
        # - mu (mu - y)/(kappa + mu), with kappa (psi(y + kappa) - psi(kappa)) = y - c(y)
        c = np.cumsum(self._steps / (kappa + self._steps))[self._steps_index]
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
                lp = _negbin_log_pmf(np.arange(last + 1.0), mu[idx, None], kappa)
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
