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

from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, digamma, gammaln

from .errors import NumericalError, ValidationError
from .fuzzy import BetaFuzzy, check_reports
from .kernel import check_pmf_rows

MODEL_NAMES = ("cnar", "car1", "car2", "scalar")

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
        if names is not None and len(names) != covariates.shape[1]:
            raise ValidationError("covariate_names length does not match the matrix")
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
        for label in ("dispersion", "precision_shape", "precision_rate", "extra_dispersion"):
            value = getattr(self, label)
            if value is not None and not (np.isfinite(value) and value > 0.0):
                raise ValidationError(f"{label} must be strictly positive and finite")
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
        ROADMAP item 6 moves it to the columns.
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
    """Negative binomial log pmf, Var = mu + mu^2/kappa; callers check mu, kappa > 0."""
    log_kmu = np.log(kappa + mu)
    return (
        gammaln(y + kappa)
        - gammaln(kappa)
        - gammaln(y + 1.0)
        + kappa * (np.log(kappa) - log_kmu)
        + y * (np.log(mu) - log_kmu)
    )


# `simulate` builds truncated pmfs this many float64 cells (512 KB) at a time
_PMF_BLOCK_CELLS = 1 << 16


def _truncated_pmf_rows(mu: np.ndarray, kappa: float, k: int) -> np.ndarray:
    """Negative binomial pmfs restricted and renormalised to {0..k}: one row per mean.

    Row i has the bits of a one-row call for mu[i]. Besides the
    (mu.size, k+1) result the formula holds two temporaries of its size.
    """
    if (mu <= 0.0).any() or kappa <= 0.0:
        raise ValidationError("mu and kappa must be strictly positive")
    lp = _negbin_log_pmf(np.arange(k + 1.0), mu[:, None], kappa)
    peak = lp.max(axis=1, keepdims=True)
    lp -= peak
    mass = np.exp(lp, out=lp)
    total = mass.sum(axis=1, keepdims=True)
    if (low := peak + np.log(total) < _LOG_TINY).any():
        raise NumericalError(
            f"truncation incompatible with mean: mass below 1e-300 on {{0..{k}}} "
            f"for mu={mu[low.argmax()]:.3g}, kappa={kappa:.3g}"
        )
    return check_pmf_rows(np.divide(mass, total, out=mass))


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
    lo = 1.0 / (2.0 * k + 2.0)
    return np.clip(np.asarray(location, dtype=np.float64) / k, lo, 1.0 - lo)


# ---------------------------------------------------------------------------
# priors and the unconstrained parametrization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PriorSpec:
    """Independent Normal priors on the unconstrained parameters.

    Coefficients are Normal(0, coef_sd) directly; every positive parameter
    gets a Normal prior on its logarithm, which doubles as the transform, so
    no separate Jacobian bookkeeping is needed.
    """

    coef_sd: float = 5.0
    log_dispersion_sd: float = 1.5
    log_precision_shape_sd: float = 1.5
    log_precision_rate_sd: float = 1.5
    log_extra_dispersion_sd: float = 1.0

    def __post_init__(self):
        for label in (
            "coef_sd",
            "log_dispersion_sd",
            "log_precision_shape_sd",
            "log_precision_rate_sd",
            "log_extra_dispersion_sd",
        ):
            if not 0.0 < getattr(self, label) < np.inf:
                raise ValidationError(f"{label} must be strictly positive and finite")


_POSITIVE_BLOCKS = {
    "cnar": ("dispersion", "precision_shape", "precision_rate"),
    "car1": ("precision_shape", "precision_rate"),
    "car2": ("precision_shape", "precision_rate", "extra_dispersion"),
    "scalar": ("dispersion",),
}

_PRIOR_SD_FIELD = {
    "dispersion": "log_dispersion_sd",
    "precision_shape": "log_precision_shape_sd",
    "precision_rate": "log_precision_rate_sd",
    "extra_dispersion": "log_extra_dispersion_sd",
}


def check_tail_mass(tail_mass: float) -> float:
    """The share of count mass the cnar grid may drop: a float in [0, 1)."""
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


def pack_params(params: ModelParams, model: str) -> np.ndarray:
    """Constrained parameters -> unconstrained vector (logs for positives)."""
    model = check_model_name(model)
    params.require(*_POSITIVE_BLOCKS[model])
    tail = [np.log(getattr(params, label)) for label in _POSITIVE_BLOCKS[model]]
    return np.concatenate([params.coef, np.array(tail)])


def params_from_constrained(values, n_covariates: int, model: str) -> ModelParams:
    """Constrained-scale vector (in `parameter_names` order) -> ModelParams."""
    model = check_model_name(model)
    values = np.asarray(values, dtype=np.float64)
    labels = _POSITIVE_BLOCKS[model]
    if values.shape != (n_covariates + len(labels),):
        raise ValidationError(
            f"constrained vector for '{model}' must have length {n_covariates + len(labels)}"
        )
    fields = {label: float(values[n_covariates + j]) for j, label in enumerate(labels)}
    return ModelParams(coef=values[:n_covariates].copy(), **fields)


def _prior_sds(priors: PriorSpec, n_covariates: int, model: str) -> np.ndarray:
    tail = [getattr(priors, _PRIOR_SD_FIELD[label]) for label in _POSITIVE_BLOCKS[model]]
    return np.concatenate([np.full(n_covariates, priors.coef_sd), np.array(tail)])


# ---------------------------------------------------------------------------
# posterior target (log density + gradient on the unconstrained scale)
# ---------------------------------------------------------------------------


class Posterior:
    """Callable log posterior with analytic gradient for one model instance.

    `data` is a `Reports` aligned with `spec`, or for `scalar` the (n,) counts.
    Evaluation happens on the unconstrained scale. Points where the
    likelihood cannot be evaluated (overflowing predictors, underflowing
    truncations) get log density -inf rather than an exception, so samplers
    can treat them as divergences.

    `cnar` sums the latent count over the grid 0..max K, cut where the widest
    count pmf leaves at most `tail_mass` of its mass beyond; `tail_mass=0`
    evaluates the full grid, which is exact. It keeps the (n, max K + 1)
    report-density matrix and two flat scratch buffers of n*(max K + 1)
    float64 cells each: 2.4 MB in all at n=200, K=500.
    """

    def __init__(
        self, spec: RegressionSpec, data, priors: PriorSpec, model: str, tail_mass: float = 0.0
    ):
        self.model = check_model_name(model)
        self.spec = spec
        self.priors = priors
        self.tail_mass = check_tail_mass(tail_mass)
        self.n_covariates = spec.n_covariates
        self.names = parameter_names(
            model, spec.covariate_names, n_covariates=spec.n_covariates
        )
        self.dim = len(self.names)
        self._sds = _prior_sds(priors, spec.n_covariates, model)
        self._log_sds_sum = np.log(self._sds).sum()
        self._z = spec.covariates
        self._logu = np.log(spec.offsets)
        self._kvec = spec.k_max.astype(np.float64)

        if self.model == "scalar":
            counts = np.asarray(data, dtype=np.float64)
            if counts.shape != (spec.n_samples,):
                raise ValidationError("counts must have one entry per sample")
            if np.any(counts < 0.0) or not np.all(np.isfinite(counts)):
                raise ValidationError("counts must be finite and non-negative")
            self._counts = counts
            return

        if len(data) != spec.n_samples:
            raise ValidationError(f"{len(data)} reports for {spec.n_samples} design rows")
        if np.any(data.k_max != spec.k_max):
            raise ValidationError("report k_max disagrees with the design k_max")
        self._h = data.precision
        self._sum_log_h = float(np.log(self._h).sum()) if self._h.size else 0.0
        self._sum_h = float(self._h.sum())
        self._cbar = clamp_scaled_location(data.location, data.k_max)
        self._log_cbar = np.log(self._cbar)
        self._log1m_cbar = np.log1p(-self._cbar)
        self._logit_cbar = self._log_cbar - self._log1m_cbar
        self._m_lo = 1.0 / (2.0 * self._kvec + 2.0)

        if self.model == "cnar":
            grid_len = int(spec.k_max.max()) + 1 if spec.n_samples else 1
            grid = np.arange(grid_len, dtype=np.float64)
            self._grid = grid
            valid = grid[None, :] <= self._kvec[:, None]
            # cells past a sample's own K; None when every sample has the same K
            self._beyond_k = None if valid.all() else ~valid
            ybar = corrected_scaled_count(grid[None, :], self._kvec[:, None])
            a = self._h[:, None] * ybar
            b = self._h[:, None] * (1.0 - ybar)
            logc, log1mc = self._log_cbar[:, None], self._log1m_cbar[:, None]
            beta_mat = (a - 1.0) * logc + (b - 1.0) * log1mc - betaln(a, b)
            if not np.isfinite(beta_mat[valid]).all():
                bad = int(np.argwhere(~np.isfinite(beta_mat) & valid)[0][0])
                raise NumericalError(f"sample {bad}: non-finite report density")
            self._beta_mat = np.where(valid, beta_mat, -np.inf)
            self._lgamma_fact = gammaln(grid + 1.0)
            # flat scratch, viewed per call as C-contiguous (n, hi) arrays: strided
            # [:, :hi] slices would split every pass of this hot loop into n short rows
            self._scratch = (np.empty(beta_mat.size), np.empty(beta_mat.size))

    # -- prior ------------------------------------------------------------

    def _prior_logp_grad(self, phi: np.ndarray):
        z = phi / self._sds
        logp = float(-0.5 * z @ z - self._log_sds_sum - self.dim * _PRIOR_NORM)
        return logp, -z / self._sds

    # -- public surface ----------------------------------------------------

    def initial_point(self) -> np.ndarray:
        """Prior mean on the unconstrained scale."""
        return np.zeros(self.dim)

    def constrain(self, phi: np.ndarray) -> np.ndarray:
        """Map an unconstrained vector to constrained values, in `names` order."""
        phi = np.asarray(phi, dtype=np.float64)
        out = phi.copy()
        out[self.n_covariates :] = np.exp(phi[self.n_covariates :])
        return out

    def logp_and_grad(self, phi: np.ndarray):
        phi = np.asarray(phi, dtype=np.float64)
        ll, grad = self._loglik_and_grad(phi)
        prior_ll, prior_grad = self._prior_logp_grad(phi)
        logp = ll + prior_ll
        if not np.isfinite(logp):
            return -np.inf, np.zeros(self.dim)
        return float(logp), grad + prior_grad

    def _loglik_and_grad(self, phi: np.ndarray):
        """Observed-data log likelihood and its gradient, without the prior.

        Returns log likelihood -inf where it cannot be evaluated.
        """
        if phi.shape != (self.dim,):
            raise ValidationError(f"parameter vector must have length {self.dim}")
        if not np.isfinite(phi).all():
            return -np.inf, np.zeros(self.dim)
        # reject points whose constrained values overflow or underflow exp()
        if (np.abs(phi[self.n_covariates :]) > _MAX_LINEAR_PREDICTOR).any():
            return -np.inf, np.zeros(self.dim)
        eta = self._logu + self._z @ phi[: self.n_covariates]
        if (np.abs(eta) > _MAX_LINEAR_PREDICTOR).any():
            return -np.inf, np.zeros(self.dim)
        mu = np.exp(eta)
        if self.model == "cnar":
            return self._cnar_block(phi, mu)
        if self.model in ("car1", "car2"):
            return self._car_block(phi, mu)
        return self._scalar_block(phi, mu)

    # -- model blocks -------------------------------------------------------

    def _gamma_block(self, shape: float, rate: float, n: int):
        logp = (
            n * (shape * np.log(rate) - gammaln(shape))
            + (shape - 1.0) * self._sum_log_h
            - rate * self._sum_h
        )
        d_shape = n * (np.log(rate) - digamma(shape)) + self._sum_log_h
        d_rate = n * shape / rate - self._sum_h
        return logp, d_shape, d_rate

    def _cnar_block(self, phi: np.ndarray, mu: np.ndarray):
        p = self.n_covariates
        kappa, shape, rate = np.exp(phi[p : p + 3])
        n = mu.size

        grid = self._grid
        if self.tail_mass == 0.0 or n == 0:
            hi = grid.size
        else:
            hi = self._cutoff(mu.max(), kappa)
        grid = grid[:hi]
        beta_mat = self._beta_mat[:, :hi]

        log_kmu = np.log(kappa + mu)
        row_const = kappa * (np.log(kappa) - log_kmu) - gammaln(kappa)
        slope = np.log(mu) - log_kmu
        col_const = gammaln(grid + kappa) - self._lgamma_fact[:hi]

        # lp and lp + beta built in reusable scratch to avoid temporaries
        lp = self._scratch[0][: n * hi].reshape(n, hi)
        np.multiply(slope[:, None], grid[None, :], out=lp)
        lp += row_const[:, None]
        lp += col_const[None, :]
        if self._beyond_k is not None:
            np.copyto(lp, -np.inf, where=self._beyond_k[:, :hi])
        top = self._scratch[1][: n * hi].reshape(n, hi)
        np.add(lp, beta_mat, out=top)

        top_peak = top.max(axis=1)
        bot_peak = lp.max(axis=1)
        if not (np.isfinite(top_peak).all() and np.isfinite(bot_peak).all()):
            return -np.inf, np.zeros(self.dim)
        top -= top_peak[:, None]
        np.exp(top, out=top)
        lp -= bot_peak[:, None]
        np.exp(lp, out=lp)
        w, q = top, lp
        w_sum = w.sum(axis=1)
        q_sum = q.sum(axis=1)
        count_ll = float(
            (top_peak + np.log(w_sum)).sum() - (bot_peak + np.log(q_sum)).sum()
        )

        # first moments of the count under the posterior mixture and under the
        # bare truncated pmf; their gap drives the regression gradient
        delta_y = (w @ grid) / w_sum - (q @ grid) / q_sum
        psi_grid = digamma(grid + kappa)
        delta_psi = (w @ psi_grid) / w_sum - (q @ psi_grid) / q_sum

        d_coef = self._z.T @ (delta_y * (kappa / (kappa + mu)))
        d_kappa = float((delta_psi - delta_y / (kappa + mu)).sum()) * kappa

        gamma_ll, d_shape, d_rate = self._gamma_block(shape, rate, n)
        grad = np.concatenate([d_coef, [d_kappa, d_shape * shape, d_rate * rate]])
        return count_ll + gamma_ll, grad

    def _cutoff(self, mu_max: float, kappa: float) -> int:
        """Grid length capturing all but `tail_mass` of the widest count pmf."""
        grid = self._grid
        lp = (
            gammaln(grid + kappa)
            - self._lgamma_fact
            + kappa * (np.log(kappa) - np.log(kappa + mu_max))
            + grid * (np.log(mu_max) - np.log(kappa + mu_max))
        )
        mass = np.exp(lp - lp.max())
        csum = np.cumsum(mass)
        cut = int(np.searchsorted(csum, (1.0 - self.tail_mass) * csum[-1])) + 1
        return min(grid.size, cut + 1)

    def _car_block(self, phi: np.ndarray, mu: np.ndarray):
        p = self.n_covariates
        shape, rate = np.exp(phi[p : p + 2])
        lam = np.exp(phi[p + 2]) if self.model == "car2" else 1.0
        n = mu.size

        raw = mu / self._kvec
        m = np.clip(raw, self._m_lo, 1.0 - self._m_lo)
        free = (raw > self._m_lo) & (raw < 1.0 - self._m_lo)
        s = lam * self._h
        a = s * m
        b = s * (1.0 - m)
        beta_ll = float(
            ((a - 1.0) * self._log_cbar
             + (b - 1.0) * self._log1m_cbar
             - betaln(a, b)).sum()
        )
        dg_a, dg_b = digamma(a), digamma(b)
        dm = s * (self._logit_cbar - dg_a + dg_b)
        d_coef = self._z.T @ (np.where(free, dm, 0.0) * mu / self._kvec)

        gamma_ll, d_shape, d_rate = self._gamma_block(shape, rate, n)
        pieces = [d_coef, [d_shape * shape, d_rate * rate]]
        if self.model == "car2":
            d_lam = float(
                (
                    self._h * m * self._log_cbar
                    + self._h * (1.0 - m) * self._log1m_cbar
                    - self._h * m * dg_a
                    - self._h * (1.0 - m) * dg_b
                    + self._h * digamma(s)
                ).sum()
            )
            pieces.append([d_lam * lam])
        grad = np.concatenate([np.asarray(x, dtype=np.float64) for x in pieces])
        return beta_ll + gamma_ll, grad

    def _scalar_block(self, phi: np.ndarray, mu: np.ndarray):
        p = self.n_covariates
        kappa = float(np.exp(phi[p]))
        y = self._counts
        kmu = kappa + mu
        ll = float(_negbin_log_pmf(y, mu, kappa).sum())
        d_coef = self._z.T @ (y - mu * (y + kappa) / kmu)
        d_kappa = float(
            (
                digamma(y + kappa)
                - digamma(kappa)
                + np.log(kappa)
                + 1.0
                - np.log(kmu)
                - (y + kappa) / kmu
            ).sum()
        ) * kappa
        return ll, np.concatenate([d_coef, [d_kappa]])


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def simulate(spec: RegressionSpec, params: ModelParams, seed, model: str = "cnar") -> Reports:
    """Draw a synthetic dataset from one of the report models.

    Deterministic for a fixed seed (an int or a numpy SeedSequence): the
    draw order is precisions, then latent counts (cnar only), then report
    locations. cnar builds its truncated pmfs in blocks of `_PMF_BLOCK_CELLS`
    cells; with their temporaries they hold about 1.5 MB at most.
    """
    model = check_model_name(model)
    if model == "scalar":
        raise ValidationError("the scalar proxy has no fuzzy simulator; use 'cnar'")
    params.require("precision_shape", "precision_rate")
    if model == "cnar":
        params.require("dispersion")
    if model == "car2":
        params.require("extra_dispersion")

    rng = np.random.default_rng(seed)
    n = spec.n_samples
    k = spec.k_max
    mu = linear_means(spec, params)
    h = rng.gamma(shape=params.precision_shape, scale=1.0 / params.precision_rate, size=n)

    latent = None
    if model == "cnar":
        latent = np.empty(n, dtype=np.int64)
        u = rng.random(n)
        # one pmf matrix per truncation level, as padding rows to the largest
        # would change the bits of their sums
        for level in np.unique(k).tolist():
            rows = np.flatnonzero(k == level)
            step = max(1, _PMF_BLOCK_CELLS // (level + 1))
            for idx in (rows[i : i + step] for i in range(0, rows.size, step)):
                cdf = np.cumsum(_truncated_pmf_rows(mu[idx], params.dispersion, level), axis=1)
                latent[idx] = (cdf < u[idx, None]).sum(axis=1)  # searchsorted, side="left"
        ybar = corrected_scaled_count(latent, k)
        scaled = rng.beta(h * ybar, h * (1.0 - ybar))
    else:
        lam = params.extra_dispersion if model == "car2" else 1.0
        m = clamp_scaled_location(mu, k)
        scaled = rng.beta(lam * h * m, lam * h * (1.0 - m))

    return Reports(k * scaled, h, k, latent)
