"""Hierarchical likelihoods: densities, gradients, and the simulator."""

import functools
import math
import re

import numpy as np
import pytest
from scipy import stats
from scipy.special import betainc

from grancount import NumericalError, ValidationError, model
from grancount.fuzzy import BLOCK_CELLS, BetaFuzzy, beta_centroids, k_blocks
from grancount.model import (
    _cut_columns,
    _nb_factors,
    _nb_grid_sums,
    ModelParams,
    REJECTION_REASONS,
    Posterior,
    PriorSpec,
    RegressionSpec,
    Reports,
    clamp_scaled_location,
    corrected_scaled_count,
    linear_means,
    params_from_constrained,
    parameter_names,
    simulate,
)

from conftest import make_cnar_data, make_params, make_reports, make_spec
from oracles import (
    RowsCnarPosterior, cutoff_width, full_grid, latent_counts_full_rows, nb_cdf_rows,
    nb_tail_width, observed_loglik, pack_params, record_widths, truncated_pmf,
)

# the count mass a cnar pass may drop: none on the full grid, `TAIL_MASS` with the tail cut
DROPPED = [0.0, model.TAIL_MASS]


def on_grid(post, dropped):
    """`post` pinned to the full grid if it may drop no mass (`full_grid`), else with its cut."""
    return full_grid(post) if dropped == 0.0 else post


class TestMeanResponse:
    def test_zero_coefficients_identity(self):
        spec = RegressionSpec([[1.0, 2.0]], [1.0], [10])
        params = ModelParams(coef=np.zeros(2))
        assert linear_means(spec, params)[0] == 1.0

    def test_cancelling_predictor(self):
        spec = RegressionSpec([[1.0, 2.0]], [10.0], [10])
        params = ModelParams(coef=np.array([0.5, -0.25]))
        assert abs(linear_means(spec, params)[0] - 10.0) < 1e-12

    def test_offset_passthrough(self):
        spec = RegressionSpec([[0.0]], [3.0], [10])
        params = ModelParams(coef=np.array([7.0]))
        assert linear_means(spec, params)[0] == pytest.approx(3.0, rel=1e-14)

    def test_overflow_reports_value(self):
        spec = RegressionSpec([[1.0]], [1.0], [10])
        params = ModelParams(coef=np.array([800.0]))
        with pytest.raises(NumericalError, match="overflow"):
            linear_means(spec, params)


def nb_log_pmf(y, mu, kappa):
    """log NB(y; mu, kappa) at integer counts y, from `model`'s grid sums and factors."""
    y = np.atleast_1d(y)
    log_q, neg_log_r, _ = _nb_factors(np.atleast_1d(np.asarray(mu, dtype=np.float64)), kappa)
    return _nb_grid_sums(kappa, np.arange(y.max() + 1.0))[0, y] + y * log_q - kappa * neg_log_r


class TestNegbinLogPmf:
    def test_zero_count_closed_form(self):
        mu, kappa = 3.7, 1.9
        expected = kappa * (np.log(kappa) - np.log(kappa + mu))
        assert abs(nb_log_pmf(0, mu, kappa)[0] - expected) < 1e-14

    def test_poisson_limit(self):
        kappa = 1e6
        y = np.arange(12)
        poisson = stats.poisson.logpmf(y, 1.0)
        np.testing.assert_allclose(nb_log_pmf(y, 1.0, kappa), poisson, atol=1e-4)

    @pytest.mark.parametrize("kappa", [1e13, 1e300, 1e306])
    def test_poisson_limit_at_huge_dispersion(self, kappa):
        y = np.arange(30)
        poisson = stats.poisson.logpmf(y, 3.0)
        np.testing.assert_allclose(nb_log_pmf(y, 3.0, kappa), poisson, rtol=1e-12)

    def test_mass_sums_to_one(self):
        total = np.exp(nb_log_pmf(np.arange(201), 5.0, 2.0)).sum()
        assert abs(total - 1.0) <= 1e-8

    def test_against_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            mu = float(rng.uniform(0.2, 50))
            kappa = float(rng.uniform(0.2, 20))
            y = rng.integers(0, 60, size=8)
            mine = nb_log_pmf(y, mu, kappa)
            ref = stats.nbinom.logpmf(y, kappa, kappa / (kappa + mu))
            np.testing.assert_allclose(mine, ref, rtol=1e-10)

    @pytest.mark.parametrize("log_kappa", [-30.0, -5.0, 0.0, 8.0, 15.0, 20.0, 25.0])
    def test_grid_sums_against_exact_sums(self, log_kappa):
        # log Gamma(y + kappa) - log Gamma(kappa) - log Gamma(y + 1) and digamma(y + kappa) -
        # digamma(kappa) as math.fsum of log((kappa + j)/(j + 1)) and 1/(kappa + j), j < y;
        # the gammaln difference is off by 1.1e-6 at e^25, and betaln(kappa, y + 1) by 3.1e-10
        # at e^20
        kappa = math.exp(log_kappa)
        for row, term in enumerate([lambda j: math.log((kappa + j) / (j + 1)),
                                    lambda j: 1.0 / (kappa + j)]):
            terms = list(map(term, range(500)))
            exact = [math.fsum(terms[:y]) for y in range(501)]
            np.testing.assert_allclose(_nb_grid_sums(kappa, np.arange(501.0))[row], exact,
                                       rtol=1e-14, atol=0.0)

    def test_factors_agree_across_the_logaddexp_switch(self):
        # past mu = 1e300 kappa both factors come from logaddexp, for every mean of the call
        kappa = 1e-5
        mu = np.array([0.1, 3.0, 1e294, 1e296])
        below = _nb_factors(mu[:3], kappa)
        above = _nb_factors(mu, kappa)
        for near, far in zip(below, above):
            np.testing.assert_allclose(far[:3], near, rtol=1e-15, atol=1e-300)


class TestTruncatedPmf:
    """The reference pmf of the simulator tests, and the simulator's mass guard."""

    def test_wide_truncation_matches_untruncated(self):
        pmf = truncated_pmf(3.0, 2.0, 200)
        ref = np.exp(nb_log_pmf(np.arange(201), 3.0, 2.0))
        np.testing.assert_allclose(pmf, ref, atol=1e-12)

    def test_degenerate_zero_level(self):
        np.testing.assert_array_equal(truncated_pmf(5.0, 2.0, 0), [1.0])

    def test_sums_exactly_to_one(self):
        pmf = truncated_pmf(5.0, 2.0, 20)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-15)

    def test_vanishing_mass_raises(self):
        spec = RegressionSpec(np.ones((1, 1)), np.array([1e280]), np.ones(1, dtype=int))
        params = ModelParams(
            coef=np.array([0.0]), dispersion=1e4, precision_shape=4.0, precision_rate=0.1
        )
        with pytest.raises(NumericalError, match="truncation incompatible"):
            simulate(spec, params, seed=0, model="cnar")


class TestClamping:
    def test_clamp_is_idempotent(self):
        k = np.array([10, 500])
        raw = np.array([0.0, 450.0])
        once = clamp_scaled_location(raw, k)
        twice = clamp_scaled_location(once * k, k)
        np.testing.assert_array_equal(once, twice)

    def test_clamp_interval_matches_corrected_counts(self):
        k = np.array([25])
        assert clamp_scaled_location(np.array([0.0]), k)[0] == corrected_scaled_count(0, 25)
        assert clamp_scaled_location(np.array([25.0]), k)[0] == corrected_scaled_count(25, 25)


def _reference_cnar_loglik(spec, params, observations):
    """Independent composition from scipy.stats densities."""
    total = 0.0
    mu = spec.offsets * np.exp(spec.covariates @ params.coef)
    for i, obs in enumerate(observations):
        total += stats.gamma.logpdf(
            obs.precision, params.precision_shape, scale=1.0 / params.precision_rate
        )
        k = obs.k_max
        grid = np.arange(k + 1)
        weights = stats.nbinom.pmf(
            grid, params.dispersion, params.dispersion / (params.dispersion + mu[i])
        )
        weights /= weights.sum()
        ybar = (grid + 0.5) / (k + 1)
        c_bar = float(clamp_scaled_location(np.array([obs.location]), np.array([k]))[0])
        dens = stats.beta.pdf(c_bar, obs.precision * ybar, obs.precision * (1 - ybar))
        total += np.log((weights * dens).sum())
    return total


class TestObservedLogliks:
    def test_empty_data_gives_zero(self):
        spec = RegressionSpec(np.empty((0, 2)), np.empty(0), np.empty(0, dtype=int))
        for model in ("cnar", "car1", "car2", "scalar"):
            assert observed_loglik(spec, make_params(model), Reports([], [], []), model) == 0.0

    def test_cnar_against_independent_composition(self, small_cnar_data):
        spec, params, sim = small_cnar_data
        mine = observed_loglik(spec, params, sim, "cnar")
        ref = _reference_cnar_loglik(spec, params, sim.observations)
        assert abs(mine - ref) < 1e-8 * (1 + abs(ref))

    def test_cnar_two_term_hand_case(self):
        # K=1: the latent sum has exactly two terms
        spec = RegressionSpec([[1.0]], [1.0], [1])
        params = ModelParams(
            coef=np.array([0.3]), dispersion=2.0, precision_shape=3.0, precision_rate=0.5
        )
        obs = make_reports([(0.4, 5.0, 1)])
        mu = np.exp(0.3)
        p0 = (2.0 / (2.0 + mu)) ** 2.0
        p1 = p0 * 2.0 * mu / (2.0 + mu)
        w = np.array([p0, p1]) / (p0 + p1)
        c_bar = 0.4
        dens = [
            stats.beta.pdf(c_bar, 5.0 * 0.25, 5.0 * 0.75),
            stats.beta.pdf(c_bar, 5.0 * 0.75, 5.0 * 0.25),
        ]
        expected = stats.gamma.logpdf(5.0, 3.0, scale=2.0) + np.log(
            w[0] * dens[0] + w[1] * dens[1]
        )
        got = observed_loglik(spec, params, obs, "cnar")
        assert abs(got - expected) < 1e-10

    def test_cnar_mixed_k_against_independent_composition(self):
        # samples with different truncation levels share one padded count grid
        base = make_spec(n=30, seed=4)
        spec = RegressionSpec(
            base.covariates, base.offsets, np.resize([5, 20, 60], 30), base.covariate_names
        )
        params = make_params("cnar")
        sim = simulate(spec, params, seed=6, model="cnar")
        mine = observed_loglik(spec, params, sim, "cnar")
        ref = _reference_cnar_loglik(spec, params, sim.observations)
        assert abs(mine - ref) < 1e-8 * (1 + abs(ref))

    def test_gamma_block_separates_exactly(self, small_cnar_data):
        spec, params, sim = small_cnar_data
        base = observed_loglik(spec, params, sim, "cnar")
        shifted = ModelParams(
            coef=params.coef,
            dispersion=params.dispersion,
            precision_shape=6.5,
            precision_rate=0.4,
        )
        moved = observed_loglik(spec, shifted, sim, "cnar")
        h = sim.precision
        delta = (
            stats.gamma.logpdf(h, 6.5, scale=1.0 / 0.4).sum()
            - stats.gamma.logpdf(h, params.precision_shape, scale=1.0 / params.precision_rate).sum()
        )
        assert moved - base == pytest.approx(delta, abs=1e-10)

    def test_car1_against_direct_formula(self, small_cnar_data):
        spec, _, sim = small_cnar_data
        params = make_params("car1")
        mine = observed_loglik(spec, params, sim, "car1")
        locations, precisions, k = sim.location, sim.precision, sim.k_max
        mu = linear_means(spec, params)
        lo = 1.0 / (2.0 * k + 2.0)
        m = np.clip(mu / k, lo, 1.0 - lo)
        c_bar = clamp_scaled_location(locations, k)
        ref = stats.beta.logpdf(c_bar, precisions * m, precisions * (1 - m)).sum()
        ref += stats.gamma.logpdf(precisions, 4.0, scale=10.0).sum()
        assert abs(mine - ref) < 1e-8 * (1 + abs(ref))

    def test_car1_matches_cnar_at_degenerate_counts(self):
        # a tiny mean forces the latent count to 0 and the scaled mean onto
        # the lower clamp, where the two likelihoods meet
        spec = RegressionSpec([[1.0]], [1e-9], [1])
        cnar_params = ModelParams(
            coef=np.array([0.0]), dispersion=2.0, precision_shape=3.0, precision_rate=0.5
        )
        car_params = ModelParams(
            coef=np.array([0.0]), precision_shape=3.0, precision_rate=0.5
        )
        obs = make_reports([(0.3, 4.0, 1)])
        a = observed_loglik(spec, cnar_params, obs, "cnar")
        b = observed_loglik(spec, car_params, obs, "car1")
        assert abs(a - b) < 1e-7

    def test_car2_reduces_to_car1_at_unit_scale(self, small_cnar_data):
        spec, _, sim = small_cnar_data
        car1 = make_params("car1")
        car2 = ModelParams(
            coef=car1.coef,
            precision_shape=car1.precision_shape,
            precision_rate=car1.precision_rate,
            extra_dispersion=1.0,
        )
        assert observed_loglik(spec, car2, sim, "car2") == observed_loglik(spec, car1, sim, "car1")

    def test_car2_fixture_against_direct_formula(self, small_cnar_data):
        spec, _, sim = small_cnar_data
        params = make_params("car2")
        mine = observed_loglik(spec, params, sim, "car2")
        locations, precisions, k = sim.location, sim.precision, sim.k_max
        mu = linear_means(spec, params)
        lo = 1.0 / (2.0 * k + 2.0)
        m = np.clip(mu / k, lo, 1.0 - lo)
        c_bar = clamp_scaled_location(locations, k)
        s = params.extra_dispersion * precisions
        ref = stats.beta.logpdf(c_bar, s * m, s * (1 - m)).sum()
        ref += stats.gamma.logpdf(precisions, 4.0, scale=10.0).sum()
        assert abs(mine - ref) < 1e-8 * (1 + abs(ref))

    def test_scalar_against_scipy(self, small_cnar_data):
        # the scalar proxy reads each report's centroid, rounded
        spec, _, sim = small_cnar_data
        params = make_params("scalar")
        counts = np.round(beta_centroids(sim.location, sim.precision, sim.k_max))
        mine = observed_loglik(spec, params, sim, "scalar")
        mu = linear_means(spec, params)
        ref = stats.nbinom.logpmf(counts, 2.0, 2.0 / (2.0 + mu)).sum()
        assert abs(mine - ref) < 1e-8 * (1 + abs(ref))


class TestGradients:
    @pytest.mark.parametrize("model", ["cnar", "car1", "car2", "scalar"])
    def test_matches_central_differences(self, model, small_cnar_data):
        spec, _, sim = small_cnar_data
        priors = PriorSpec()
        post = full_grid(Posterior(spec, sim, priors, model))
        rng = np.random.default_rng(5)
        step = 1e-5
        for _ in range(6):
            phi = 0.4 * rng.standard_normal(post.dim)
            _, grad = post.logp_and_grad(phi)
            for j in range(post.dim):
                unit = np.zeros(post.dim)
                unit[j] = step
                up, down = post.logp_and_grad(phi + unit)[0], post.logp_and_grad(phi - unit)[0]
                fd = (up - down) / (2 * step)
                assert abs(grad[j] - fd) <= 1e-5 * (1.0 + abs(fd))

    @pytest.mark.parametrize("model", ["car1", "car2"])
    def test_car_gradient_with_means_clamped_at_both_bounds(self, model):
        # at K = 8 a mean mu/K below 1/18 or above 17/18 is clamped and does
        # not move with the coefficients; the other means do
        spec = make_spec(n=40, k=8, offset=1.0, seed=3)
        post = Posterior(spec, simulate(spec, make_params(model), seed=4, model=model),
                         PriorSpec(), model)
        centre = pack_params(make_params(model, coef=(0.7, 1.5)), model)
        lo, step = 1.0 / 18.0, 1e-5
        checked = 0
        for phi in centre + 0.2 * np.random.default_rng(43).standard_normal((10, centre.size)):
            scaled = spec.offsets * np.exp(spec.covariates @ phi[:2]) / 8.0
            if np.abs(np.log(scaled[:, None] / [lo, 1 - lo])).min() < 1e-3:
                continue  # a difference across a bound would not be a derivative
            assert (scaled < lo).any() and (scaled > 1 - lo).any()
            assert ((scaled > lo) & (scaled < 1 - lo)).any()
            _, grad = post.logp_and_grad(phi)
            for j in range(post.dim):
                unit = np.zeros(post.dim)
                unit[j] = step
                up, down = post.logp_and_grad(phi + unit)[0], post.logp_and_grad(phi - unit)[0]
                fd = (up - down) / (2 * step)
                assert abs(grad[j] - fd) <= 1e-5 * (1.0 + abs(fd)), (model, j)
            checked += 1
        assert checked >= 8

    @pytest.mark.parametrize("model, phi", [("cnar", [1.0, 0.5, np.log(2.0), 5.0, -699.9]),
                                            ("car2", [1.0, 0.5, 5.0, -699.9, 0.0])])
    def test_log_rate_gradient_is_finite_at_a_tiny_rate(self, model, phi):
        # n*shape/rate overflows at rate = exp(-699.9); its log-scale form does not
        spec = make_spec(n=200, k=500, offset=1.0)
        data = simulate(spec, make_params("cnar"), seed=0, model="cnar")
        post = full_grid(Posterior(spec, data, PriorSpec(), model))
        phi = np.array(phi)
        _, grad = post.logp_and_grad(phi)
        j = post.names.index("precision_rate")
        step = np.zeros(post.dim)
        step[j] = 0.05
        fd = (post.logp_and_grad(phi + step)[0] - post.logp_and_grad(phi - step)[0]) / 0.1
        assert np.isfinite(grad[j])
        assert grad[j] == pytest.approx(fd, rel=1e-6)

    # at intercept 12 and log kappa -699 every mu/kappa overflows (log ratio 712 to 714)
    @pytest.mark.parametrize("intercept, log_kappa", [(1.0, 0.0), (1.0, 5.0), (1.0, 25.0),
                                                      (1.0, 100.0), (1.0, 690.0), (12.0, -699.0)])
    def test_scalar_log_dispersion_gradient_keeps_its_digits(self, intercept, log_kappa,
                                                             small_cnar_data):
        spec, _, sim = small_cnar_data
        post = Posterior(spec, sim, PriorSpec(), "scalar")
        phi = np.array([intercept, 0.5, log_kappa])
        _, grad = post._loglik_and_grad(phi)
        if log_kappa <= 5.0:
            step = np.array([0.0, 0.0, 1e-4])
            want = (post._loglik_and_grad(phi + step)[0] - post._loglik_and_grad(phi - step)[0]) / 2e-4
        else:  # the large-kappa limit: sum of y - (y - mu)^2 over 2 kappa, off by O(y/kappa)
            y, mu = post._counts, linear_means(spec, make_params("scalar", coef=phi[:2]))
            want = float(np.sum(y - (y - mu) ** 2)) / (2.0 * np.exp(log_kappa))
        assert grad[2] == pytest.approx(want, rel=1e-6, abs=0.0)

    def test_scalar_coefficient_gradient_is_finite_at_the_positive_bound(self):
        # log mean and log dispersion both 700, on an intercept-only design: the
        # density is finite there, and so is its gradient, though mu (y + kappa) overflows
        spec = RegressionSpec(np.ones((5, 1)), np.ones(5), np.full(5, 10))
        post = Posterior(spec, make_reports([(2.0, 5.0, 10)] * 5), PriorSpec(), "scalar")
        logp, grad = post.logp_and_grad(np.array([700.0, 700.0]))
        assert np.isfinite(logp) and np.isfinite(grad).all()
        # mu = kappa, so each sample adds y - (y + kappa) / 2
        want = float(np.sum(post._counts - np.exp(700.0)) / 2.0)
        assert grad[0] == pytest.approx(want, rel=1e-12)

    def test_prior_score_only_without_data(self):
        spec = RegressionSpec(np.empty((0, 1)), np.empty(0), np.empty(0, dtype=int))
        priors = PriorSpec()
        phi = np.array([0.7, -0.3, 0.2, 0.1])
        _, grad = Posterior(spec, Reports([], [], []), priors, "cnar").logp_and_grad(phi)
        sds = np.array([5.0, 1.5, 1.5, 1.5])
        np.testing.assert_allclose(grad, -phi / sds**2, atol=1e-14)

    def test_symmetric_design_zeroes_coefficient_gradient(self):
        spec = RegressionSpec([[1.5], [-1.5]], [1.0, 1.0], [8, 8])
        obs = make_reports([(3.0, 6.0, 8), (3.0, 6.0, 8)])
        phi = np.array([0.0, np.log(2.0), np.log(3.0), np.log(0.5)])
        _, grad = Posterior(spec, obs, PriorSpec(), "cnar").logp_and_grad(phi)
        # identical samples cancel; BLAS fused multiply-adds leave rounding dust
        assert abs(grad[0]) <= 1e-14

    def test_nonfinite_point_gives_neg_inf(self):
        spec = RegressionSpec([[1.0]], [1.0], [4])
        obs = make_reports([(2.0, 3.0, 4)])
        post = Posterior(spec, obs, PriorSpec(), "cnar")
        logp, grad = post.logp_and_grad(np.array([1e4, 0.0, 0.0, 0.0]))
        assert logp == -np.inf and not grad.any()


def cnar_posteriors(k_cycle, dropped):
    """The cnar `Posterior` and its (n, hi) oracle on `make_cnar_data(k_cycle)`, both `on_grid`."""
    args = (*make_cnar_data(k_cycle), PriorSpec())
    return on_grid(Posterior(*args, "cnar"), dropped), on_grid(RowsCnarPosterior(*args), dropped)


def moved(phi, j, value):
    """A copy of `phi` with coordinate j set to `value`."""
    phi = phi.copy()
    phi[j] = value
    return phi


def rejection_sweep(truth, names) -> dict:
    """Points next to `truth` that `Posterior` rejects, by the reason it counts."""
    shape = names.index("precision_shape") if "precision_shape" in names else len(names) - 1
    at = functools.partial(moved, truth)
    rejected = {
        "nonfinite_phi": [at(0, np.nan), at(shape, np.inf)],
        # |log parameter| above 700; math.exp(710) would raise
        "positive_bound": [at(len(names) - 1, 710.0), at(shape, -700.5)],
        "eta_overflow": [at(0, 701.0), at(0, -701.0)],
    }
    if "precision_shape" in names:  # n * gammaln(shape) overflows at shape = exp(699)
        rejected["nonfinite_logp"] = [at(shape, 699.0), at(shape, 700.0)]
    return rejected


class TestCnarKernelAgainstRowsOracle:
    # the kernel sums in another order than the oracle, and under the tail cut its
    # closed-form bare pmf misses up to `TAIL_MASS` per sample: the log densities
    # differ by at most 7.5e-13 relative on these points
    @pytest.mark.parametrize("dropped", DROPPED)
    @pytest.mark.parametrize("k", [[500], [5, 20, 60, 500]], ids=["uniform-k", "mixed-k"])
    def test_agrees_at_seeded_points(self, k, dropped):
        post, oracle = cnar_posteriors(k, dropped)
        truth = pack_params(make_params("cnar"), "cnar")
        rng = np.random.default_rng(29)
        for phi in truth + 0.5 * rng.standard_normal((50, truth.size)):
            logp, grad = post.logp_and_grad(phi)
            ref_logp, ref_grad = oracle.logp_and_grad(phi)
            assert np.isfinite(ref_logp)
            assert logp == pytest.approx(ref_logp, rel=1e-10, abs=0.0)
            np.testing.assert_allclose(grad, ref_grad, rtol=0.0, atol=1e-8 * np.abs(ref_grad).max())

    def test_agrees_without_data(self):
        spec = RegressionSpec(np.empty((0, 2)), np.empty(0), np.empty(0, dtype=int))
        args = (spec, Reports([], [], []), PriorSpec())
        post, oracle = Posterior(*args, "cnar"), RowsCnarPosterior(*args)
        for phi in np.random.default_rng(31).standard_normal((5, post.dim)):
            logp, grad = post.logp_and_grad(phi)
            ref_logp, ref_grad = oracle.logp_and_grad(phi)
            assert logp == ref_logp
            np.testing.assert_array_equal(grad, ref_grad)

    def test_both_reject_the_same_points(self):
        # the oracle shares everything but the cnar kernel; car1 and car2 have no oracle
        spec, sim = make_cnar_data([5, 20, 60, 500])
        for model in ("cnar", "car1", "car2"):
            post = Posterior(spec, sim, PriorSpec(), model)
            targets = [post]
            if model == "cnar":
                targets.append(RowsCnarPosterior(spec, sim, PriorSpec()))
            truth = pack_params(make_params(model), model)
            shape = post.names.index("precision_shape")
            rejected = rejection_sweep(truth, post.names)
            for phi in (phi for points in rejected.values() for phi in points):
                for target in targets:
                    with np.errstate(over="ignore"):  # how the gamma block fails
                        logp, grad = target.logp_and_grad(phi)
                    assert logp == -np.inf and grad.shape == (post.dim,) and not grad.any()
            counts = {reason: len(rejected.get(reason, ())) for reason in REJECTION_REASONS}
            assert post.rejections == counts, model
            # the bound itself is evaluated
            assert np.isfinite(post.logp_and_grad(moved(truth, shape, -700.0))[0])
            assert np.isfinite(post.logp_and_grad(truth)[0])
        post = Posterior(spec, sim, PriorSpec(), "cnar")
        post._beta[0, 3] = np.nan  # one sample's report density is no longer finite
        assert post.logp_and_grad(truth)[0] == -np.inf
        assert post.rejections["nonfinite_peak"] == 1


class TestAnalyticShift:
    """The cnar kernel scales each sample by its count pmf's normaliser and its
    report density's maximum, with no max pass; a call whose sums underflow, or
    whose tail cut may lose mixture mass, reruns exactly on the full grid."""

    # Against the (n, hi) oracle on the full grid: reports at c = 0 and c = K.
    # Under the tail cut a report at c = K sits far in its pmf's tail, so every
    # cut call reruns, and no full-grid call does.
    @pytest.mark.parametrize("k, dropped, regimes", [
        ([500], 0.0, {"full"}), ([5, 20, 60, 500], 0.0, {"full"}),
        ([500], model.TAIL_MASS, {"closed", "full"}),
        ([5, 20, 60, 500], model.TAIL_MASS, {"past_min_k", "full"}),
    ], ids=["uniform-k-full-grid", "mixed-k-full-grid", "uniform-k-cut", "mixed-k-cut"])
    def test_agrees_with_the_full_grid_over_kappa(self, monkeypatch, k, dropped, regimes):
        spec, sim = make_cnar_data(k)
        location = sim.location.copy()
        location[:8:2] = 0.0
        location[1:8:2] = spec.k_max[1:8:2]
        args = (spec, Reports(location, sim.precision, sim.k_max), PriorSpec())
        post = on_grid(Posterior(*args, "cnar"), dropped)
        oracle = full_grid(RowsCnarPosterior(*args))
        widths = record_widths(monkeypatch, post)
        centre = pack_params(make_params("cnar"), "cnar")
        rng = np.random.default_rng(43)
        for log_kappa in np.arange(-3.0, 25.25, 0.5):
            for phi in centre + 0.3 * rng.standard_normal((4, centre.size)):
                phi[2] = log_kappa
                logp, grad = post.logp_and_grad(phi)
                ref_logp, ref_grad = oracle.logp_and_grad(phi)
                assert logp == pytest.approx(ref_logp, rel=1e-10, abs=0.0), log_kappa
                np.testing.assert_allclose(grad, ref_grad, rtol=0.0,
                                           atol=1e-8 * np.abs(ref_grad).max())
        full = spec.k_max.max() + 1
        visited = {
            "full" if w == full else "closed" if w <= spec.k_max.min() + 1 else "past_min_k"
            for w in widths
        }
        assert visited == regimes
        assert post.exact_reruns == sum(w < full for w in widths)

    @pytest.mark.parametrize("dropped", DROPPED)
    def test_an_underflowing_sum_takes_the_max_shift(self, dropped):
        # mu = 1e-3 puts about 1e-330 of the count pmf at y = 100 = K/2, where a
        # report of precision 1e4 sits; next to it, one ordinary report
        spec = RegressionSpec([[1.0], [1.0]], [1e-3, 10.0], [200, 200])
        reports = make_reports([(100.0, 1e4, 200), (12.0, 30.0, 200)])
        args = (spec, reports, PriorSpec())
        post = on_grid(Posterior(*args, "cnar"), dropped)
        oracle = full_grid(RowsCnarPosterior(*args))
        for phi in ([0.0, np.log(2.0), 0.0, 0.0], [0.3, np.log(5.0), 1.0, -2.0]):
            phi = np.array(phi)
            ref_logp, ref_grad = oracle.logp_and_grad(phi)
            for need_logp in (True, False):
                before = post.exact_reruns
                logp, grad = post.logp_and_grad(phi, need_logp)
                assert post.exact_reruns == before + 1
                assert logp == (pytest.approx(ref_logp, rel=1e-10, abs=0.0) if need_logp else 0.0)
                np.testing.assert_allclose(grad, ref_grad, rtol=0.0,
                                           atol=1e-8 * np.abs(ref_grad).max())
            assert np.isfinite(ref_logp) and np.isfinite(grad).all()
        assert post.rejections == dict.fromkeys(REJECTION_REASONS, 0)

    def test_a_report_past_the_cut_reruns_on_the_full_grid(self, monkeypatch):
        # four reports at c = K = 500, far in the tail of their count pmf: the
        # default cut keeps each pmf's mass but not theirs, and keeping the cut's
        # result put the log density off by up to 0.89 relative on these points
        spec, sim = make_cnar_data([500])
        location = sim.location.copy()
        location[1:8:2] = spec.k_max[1:8:2]
        args = (spec, Reports(location, sim.precision, sim.k_max), PriorSpec())
        post, oracle = Posterior(*args, "cnar"), full_grid(RowsCnarPosterior(*args))
        widths = record_widths(monkeypatch, post)
        centre = pack_params(make_params("cnar"), "cnar")
        for phi in centre + 0.5 * np.random.default_rng(5).standard_normal((40, centre.size)):
            logp, grad = post.logp_and_grad(phi)
            ref_logp, ref_grad = oracle.logp_and_grad(phi)
            assert logp == pytest.approx(ref_logp, rel=1e-10, abs=0.0)
            np.testing.assert_allclose(grad, ref_grad, rtol=0.0, atol=1e-8 * np.abs(ref_grad).max())
        full = spec.k_max[0] + 1
        assert post.exact_reruns == sum(w < full for w in widths) > 0

    @pytest.mark.parametrize("dropped", DROPPED)
    def test_means_past_1e300_kappa(self, dropped):
        # kappa/(kappa + mu) leaves the normal floats, so log1p(mu/kappa) comes from logaddexp
        spec = RegressionSpec([[1.0], [1.0]], [1.0, 20.0], [50, 50])
        args = (spec, make_reports([(0.2, 3.0, 50), (0.0, 30.0, 50)]), PriorSpec())
        post = on_grid(Posterior(*args, "cnar"), dropped)
        oracle = on_grid(RowsCnarPosterior(*args), dropped)
        for phi in ([10.0, -700.0, 0.0, 0.0], [5.0, -690.0, 0.5, 0.5]):
            logp, grad = post.logp_and_grad(np.array(phi))
            ref_logp, ref_grad = oracle.logp_and_grad(np.array(phi))
            assert np.isfinite(ref_logp) and logp == pytest.approx(ref_logp, rel=1e-10, abs=0.0)
            np.testing.assert_allclose(grad, ref_grad, rtol=0.0, atol=1e-8 * np.abs(ref_grad).max())


class TestGradientOnly:
    # cnar at K = 500 takes the closed-form bare pmf with a tail cut and the two
    # halves without one; mixed K mostly takes the two halves too
    @pytest.mark.parametrize("model, k, dropped", [
        ("cnar", [500], model.TAIL_MASS), ("cnar", [500], 0.0),
        ("cnar", [5, 20, 60, 500], model.TAIL_MASS), ("car1", [500], model.TAIL_MASS),
        ("car2", [500], model.TAIL_MASS), ("scalar", [500], model.TAIL_MASS),
    ], ids=["cnar-closed", "cnar-halves", "cnar-mixed-k", "car1", "car2", "scalar"])
    def test_matches_the_full_call(self, model, k, dropped):
        spec, sim = make_cnar_data(k)
        full, grad_only = (on_grid(Posterior(spec, sim, PriorSpec(), model), dropped)
                           for _ in range(2))
        truth = pack_params(make_params(model), model)
        grid = [truth + step * unit for unit in np.eye(truth.size) for step in (-3, -1, 1, 3)]
        cloud = truth + 0.5 * np.random.default_rng(37).standard_normal((20, truth.size))
        sweep = [phi for points in rejection_sweep(truth, full.names).values() for phi in points]

        def compare(phi):
            before = full.rejections["nonfinite_logp"]
            with np.errstate(over="ignore"):  # how the gamma block fails
                logp, grad = full.logp_and_grad(phi)
                stand_in, grad_alone = grad_only.logp_and_grad(phi, need_logp=False)
            if np.isfinite(logp):
                assert stand_in == 0.0
                assert grad_alone.tobytes() == grad.tobytes()
            elif full.rejections["nonfinite_logp"] > before:  # found by full calls only
                assert stand_in == 0.0
            else:
                assert stand_in == -np.inf and grad_alone.shape == grad.shape
                assert not grad_alone.any()

        for phi in [*grid, *cloud, *sweep]:
            compare(phi)
        if model == "cnar":  # one sample's report density is no longer finite
            for post in (full, grad_only):
                post._beta[0, 3] = np.nan
            compare(truth)
            assert full.rejections["nonfinite_peak"] == 1
        assert grad_only.rejections == {**full.rejections, "nonfinite_logp": 0}
        assert full.evaluations["gradient_only"] == grad_only.evaluations["full"] == 0
        assert full.evaluations["full"] == grad_only.evaluations["gradient_only"] > len(grid)


class TestTailCutoff:
    def test_cutoff_matches_exact_truncation(self, monkeypatch):
        spec = make_spec(n=30, k=300, offset=1.0)
        sim = simulate(spec, make_params("cnar"), seed=13, model="cnar")
        exact = full_grid(Posterior(spec, sim, PriorSpec(), "cnar"))
        cut = Posterior(spec, sim, PriorSpec(), "cnar")
        rng = np.random.default_rng(17)
        widths = record_widths(monkeypatch, cut)
        for i in range(20):
            phi = rng.standard_normal(exact.dim)
            logp, grad = exact.logp_and_grad(phi)
            logp_cut, grad_cut = cut.logp_and_grad(phi)
            assert abs(logp_cut - logp) <= 1e-8
            np.testing.assert_allclose(grad_cut, grad, rtol=0.0, atol=1e-8)
            mu = spec.offsets * np.exp(spec.covariates @ phi[:2])
            assert widths[i:] == [nb_tail_width(cut, mu.max(), np.exp(phi[2]))]
        # the comparison means something only where a call kept its cut; the calls
        # that rerun, on the full grid, are at most `exact_reruns` of the cut ones
        assert sum(w < spec.k_max[0] + 1 for w in widths) > cut.exact_reruns

    def test_cutoff_matches_exact_truncation_on_mixed_k(self, monkeypatch):
        base = make_spec(n=40, k=300, offset=1.0, seed=5)
        spec = RegressionSpec(
            base.covariates, base.offsets, np.resize([5, 20, 60, 300], 40), base.covariate_names
        )
        sim = simulate(spec, make_params("cnar"), seed=13, model="cnar")
        exact = full_grid(Posterior(spec, sim, PriorSpec(), "cnar"))
        cut = Posterior(spec, sim, PriorSpec(), "cnar")
        rng = np.random.default_rng(19)
        widths = record_widths(monkeypatch, cut)
        compared = 0
        for i in range(40):
            phi = rng.standard_normal(exact.dim)
            mu = spec.offsets * np.exp(spec.covariates @ phi[:2])
            logp_cut, grad_cut = cut.logp_and_grad(phi)
            assert widths[i:] == [nb_tail_width(cut, mu.max(), np.exp(phi[2]))]
            if widths[i] == 301:
                continue  # only points where the grid is cut test the cutoff
            logp, grad = exact.logp_and_grad(phi)
            assert abs(logp_cut - logp) <= 1e-8
            np.testing.assert_allclose(grad_cut, grad, rtol=0.0, atol=1e-8)
            compared += 1
        assert compared - cut.exact_reruns >= 10

    def test_call_order_does_not_change_bits(self):
        # one Posterior reuses its scratch at a cutoff width that changes per
        # call; mixed K also takes the beyond-K mask through those widths
        base = make_spec(n=40, k=300, offset=1.0, seed=7)
        spec = RegressionSpec(
            base.covariates, base.offsets, np.resize([60, 300], 40), base.covariate_names
        )
        sim = simulate(spec, make_params("cnar"), seed=3, model="cnar")
        args = (spec, sim, PriorSpec(), "cnar")
        shared = Posterior(*args)
        truth = pack_params(make_params("cnar"), "cnar")
        points = [np.concatenate([[c], truth[1:]]) for c in np.linspace(-1.0, 2.5, 20)]
        widths = set()
        for i in np.random.default_rng(23).permutation(len(points)):
            phi = points[i]
            mu = spec.offsets * np.exp(spec.covariates @ phi[:2])
            widths.add(nb_tail_width(shared, mu.max(), np.exp(phi[2])))
            logp, grad = shared.logp_and_grad(phi)
            fresh_logp, fresh_grad = Posterior(*args).logp_and_grad(phi)
            assert np.isfinite(logp) and logp == fresh_logp
            np.testing.assert_array_equal(grad, fresh_grad)
        # cut widths on both sides of the smaller K, up to the full grid
        assert len(widths) >= 10 and min(widths) < 61 < max(widths), sorted(widths)

    @pytest.mark.parametrize(
        "k, dispersion, regimes",
        [([500], 2.0, {"closed", "full"}), ([5, 20, 60, 500], 2.0, {"past_min_k", "full"}),
         ([500], 0.5, {"closed", "full"}), ([500], np.exp(8.0), {"closed"}),
         ([500], np.exp(15.0), {"closed"}), ([500], np.exp(20.0), {"closed"}),
         ([500], np.exp(25.0), {"closed"}), ([5, 20, 60, 500], np.exp(25.0), {"past_min_k"})],
        ids=["uniform-k", "mixed-k", "wide-tail", "e8", "e15", "e20", "e25", "mixed-k-e25"],
    )
    def test_closed_form_agrees_with_the_full_grid(self, monkeypatch, k, dispersion, regimes):
        # the bare count pmf in closed form where the cut ends inside every K, in
        # the matrix where the cut passes the smallest K or is the full grid; up to
        # kappa = e^25, where the two differ by 1.2e-14 relative in the log density and
        # gammaln(y + kappa) - gammaln(kappa) put them 1.9e-4 apart
        spec, sim = make_cnar_data(k)
        exact = full_grid(Posterior(spec, sim, PriorSpec(), "cnar"))
        cut = Posterior(spec, sim, PriorSpec(), "cnar")
        widths = record_widths(monkeypatch, cut)
        centre = pack_params(make_params("cnar"), "cnar")
        centre[2] = np.log(dispersion)
        for phi in centre + 0.5 * np.random.default_rng(41).standard_normal((30, centre.size)):
            logp, grad = exact.logp_and_grad(phi)
            logp_cut, grad_cut = cut.logp_and_grad(phi)
            assert logp_cut == pytest.approx(logp, rel=1e-12, abs=0.0)
            np.testing.assert_allclose(grad_cut, grad, rtol=0.0, atol=1e-11 * np.abs(grad).max())
        full = spec.k_max.max() + 1
        visited = {
            "full" if w == full else "closed" if w <= spec.k_max.min() + 1 else "past_min_k"
            for w in widths
        }
        assert visited == regimes

    def test_quantile_cut_over_kappa_and_mu(self):
        # K = 500; log kappa in [-8, 25] reaches past the near-Poisson guard at 1e12 * mu
        one = RegressionSpec([[1.0]], [1.0], [500]), make_reports([(250.0, 5.0, 500)]), PriorSpec()
        post = Posterior(*one, "cnar")
        full = 501
        rng = np.random.default_rng(37)
        log_kappa, log_mu = rng.uniform(-8.0, 25.0, 10_000), rng.uniform(-8.0, 7.0, 10_000)
        cut = 0
        for kappa, mu in zip(np.exp(log_kappa), np.exp(log_mu)):
            width = post._cutoff(mu, kappa)
            assert width >= cutoff_width(post, mu, kappa), (kappa, mu)
            if width < full:
                assert betainc(width, kappa, mu / (kappa + mu)) <= model.TAIL_MASS, (kappa, mu)
                assert width == nb_tail_width(post, mu, kappa), (kappa, mu)
                cut += 1
            else:
                assert mu < 1e-12 * kappa or nb_tail_width(post, mu, kappa) == full, (kappa, mu)
        assert 5_000 < cut < 10_000
        # near p = 1 nbdtrik's quantile falls short of the 37 columns this needs
        assert post._cutoff(8.0, np.exp(38.0)) == full
        assert nb_tail_width(post, 8.0, np.exp(38.0)) == 37


class TestPacking:
    @pytest.mark.parametrize("model", ["cnar", "car1", "car2", "scalar"])
    def test_round_trip(self, model):
        params = make_params(model)
        p = params.coef.size
        post = Posterior(RegressionSpec(np.empty((0, p)), [], []), Reports([], [], []), PriorSpec(),
                         model)
        back = params_from_constrained(post.constrain(pack_params(params, model)), p, model)
        np.testing.assert_allclose(back.coef, params.coef)
        for label in ("dispersion", "precision_shape", "precision_rate", "extra_dispersion"):
            a, b = getattr(params, label), getattr(back, label)
            assert (a is None) == (b is None)
            if a is not None:
                assert abs(a - b) < 1e-12

    def test_names_align_with_constrained_vector(self):
        names = parameter_names("car2", ("intercept", "x"))
        assert names == [
            "coef_intercept",
            "coef_x",
            "precision_shape",
            "precision_rate",
            "extra_dispersion",
        ]
        params = params_from_constrained(np.array([1.0, 0.5, 4.0, 0.1, 2.0]), 2, "car2")
        assert params.extra_dispersion == 2.0


class TestReports:
    @pytest.mark.parametrize(
        "row",
        [(11.0, 5.0, 10), (-1.0, 5.0, 10), (np.nan, 5.0, 10), (4.0, 0.0, 10), (4.0, np.inf, 10),
         (4.0, np.nan, 10), (0.0, 5.0, 0)],
    )
    def test_rule_of_one_fuzzy_count_applies_to_every_row(self, row):
        good = (2.0, 5.0, 10)
        message = re.escape("(c, h, K) = ({}, {}, {}) is outside the family".format(*row))
        with pytest.raises(ValidationError, match=f"report 2: {message}"):
            make_reports([good, good, row, row])
        with pytest.raises(ValidationError, match=f"report 0: {message}"):
            BetaFuzzy(*row)

    def test_boundary_rows_are_accepted(self):
        reports = make_reports([(0.0, 1e-300, 1), (7.0, 1e300, 7)])
        assert len(reports) == 2

    def test_columns_must_be_one_dimensional_and_aligned(self):
        with pytest.raises(ValidationError, match="1-D of one length"):
            Reports([1.0, 2.0], [5.0], [10, 10])
        with pytest.raises(ValidationError, match="1-D of one length"):
            Reports([[1.0]], [[5.0]], [[10]])

    def test_columns_are_read_only(self, small_cnar_data):
        _, _, sim = small_cnar_data
        for column in (sim.location, sim.precision, sim.k_max):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0

    def test_observations_view_has_one_fuzzy_count_per_row(self, small_cnar_data):
        _, _, sim = small_cnar_data
        assert sim.observations == tuple(
            BetaFuzzy(c, h, k) for c, h, k in zip(sim.location, sim.precision, sim.k_max)
        )

    def test_posterior_rejects_reports_misaligned_with_the_design(self):
        spec = RegressionSpec([[1.0], [1.0]], [1.0, 1.0], [10, 10])
        with pytest.raises(ValidationError, match="1 reports for 2 design rows"):
            Posterior(spec, make_reports([(2.0, 5.0, 10)]), PriorSpec(), "cnar")
        with pytest.raises(ValidationError, match="k_max disagrees"):
            Posterior(spec, make_reports([(2.0, 5.0, 10), (2.0, 5.0, 12)]), PriorSpec(), "car1")


class TestSimulate:
    def test_seed_determinism(self):
        spec = make_spec(n=15, k=40, seed=3)
        params = make_params("cnar")
        a = simulate(spec, params, seed=77, model="cnar")
        b = simulate(spec, params, seed=77, model="cnar")
        for column in ("location", "precision", "k_max", "latent_counts"):
            np.testing.assert_array_equal(getattr(a, column), getattr(b, column))

    def test_latent_mean_matches_truncated_pmf(self):
        n = 100_000
        spec = RegressionSpec(
            np.ones((n, 1)), np.full(n, 6.0), np.full(n, 20, dtype=int)
        )
        params = ModelParams(
            coef=np.array([0.0]), dispersion=2.0, precision_shape=4.0, precision_rate=0.1
        )
        sim = simulate(spec, params, seed=5, model="cnar")
        pmf = truncated_pmf(6.0, 2.0, 20)
        expected = float(np.arange(21) @ pmf)
        variance = float(((np.arange(21) - expected) ** 2) @ pmf)
        mc_se = np.sqrt(variance / n)
        assert abs(sim.latent_counts.mean() - expected) <= 3 * mc_se

    @pytest.mark.parametrize("levels, offset", [((500,), 1.0), ((1, 7, 250, 800), 10.0)])
    def test_draws_equal_per_sample_reference_loop(self, levels, offset):
        n = 301
        rng = np.random.default_rng(len(levels))
        k = rng.choice(levels, size=n)
        assert n % (BLOCK_CELLS // (max(levels) + 1)) != 0
        spec = RegressionSpec(
            np.column_stack([np.ones(n), rng.standard_normal(n)]), np.full(n, offset), k
        )
        params = make_params("cnar")
        sim = simulate(spec, params, seed=17, model="cnar")
        # the reference: precisions, uniforms, one inverse-CDF search per sample, locations
        ref = np.random.default_rng(17)
        mu = linear_means(spec, params)
        h = ref.gamma(shape=params.precision_shape, scale=1.0 / params.precision_rate, size=n)
        u = ref.random(n)
        latent = np.empty(n, dtype=np.int64)
        for i in range(n):
            pmf = truncated_pmf(mu[i], params.dispersion, int(k[i]))
            latent[i] = np.searchsorted(np.cumsum(pmf), u[i])
        ybar = corrected_scaled_count(latent, k)
        scaled = ref.beta(h * ybar, h * (1.0 - ybar))
        np.testing.assert_array_equal(sim.latent_counts, latent)
        np.testing.assert_array_equal(sim.location, k * scaled)
        np.testing.assert_array_equal(sim.precision, h)
        np.testing.assert_array_equal(sim.k_max, k)

    def test_underflowing_truncation_raises(self):
        spec = RegressionSpec(np.ones((3, 1)), np.array([10.0, 1e280, 10.0]), np.ones(3, dtype=int))
        params = ModelParams(
            coef=np.array([0.0]), dispersion=1e4, precision_shape=4.0, precision_rate=0.1
        )
        with pytest.raises(NumericalError, match=r"truncation incompatible.* on \{0\.\.1\}, "
                                                 r"mu=1e\+280, kappa=1e\+04"):
            simulate(spec, params, seed=0, model="cnar")
        # a mean that underflows to 0 has no finite mass: the same numerical failure, and the
        # error names the sample's own K, also where its row is cut to fewer columns
        zero_mean = ModelParams(
            coef=np.array([-800.0]), dispersion=2.0, precision_shape=4.0, precision_rate=0.1
        )
        for k in (5, 500):
            spec = RegressionSpec(np.ones((3, 1)), np.ones(3), np.full(3, k))
            with pytest.raises(NumericalError, match=rf"truncation incompatible.* on \{{0\.\.{k}\}}, "
                                                     r"mu=0, kappa=2\b"):
                simulate(spec, zero_mean, seed=0)

    def test_cut_rows_keep_every_bit_of_the_whole_rows(self, monkeypatch):
        widths = []  # the cut widths `simulate` evaluates, one array per call
        monkeypatch.setattr(model, "k_blocks", lambda last: widths.append(last + 1) or k_blocks(last))
        n = 400
        rng = np.random.default_rng(24)
        k = rng.choice([1, 7, 250, 800], size=n)
        # up to 50 (K + 1), so even the Poisson limit keeps mass above 1e-300 on {0..K}
        offset = np.minimum(10.0 ** rng.uniform(-3.0, 3.0, size=n), 50.0 * (k + 1))
        fallback = []
        for dispersion in (0.3, 1.0, 2.0, 50.0, 1e6):
            means = offset.copy()
            if dispersion <= 2.0:  # r = mu / (kappa + mu) rounds to 1: rho >= 1, whole rows
                means[:8] = 1e18
            spec = RegressionSpec(np.ones((n, 1)), means, k)
            params = ModelParams(coef=np.array([0.0]), dispersion=dispersion,
                                 precision_shape=4.0, precision_rate=0.1)
            sim = simulate(spec, params, seed=7, model="cnar")
            ref = np.random.default_rng(7)
            h = ref.gamma(shape=params.precision_shape, scale=1.0 / params.precision_rate, size=n)
            mu = linear_means(spec, params)
            latent = latent_counts_full_rows(mu, dispersion, k, ref.random(n))
            ybar = corrected_scaled_count(latent, k)
            np.testing.assert_array_equal(sim.latent_counts, latent)
            np.testing.assert_array_equal(sim.location, k * ref.beta(h * ybar, h * (1.0 - ybar)))

            cut = _cut_columns(mu, dispersion, k)
            assert (cut >= 1).all() and (cut <= k + 1).all() and (widths[-1] >= cut).all()
            for level, idx in k_blocks(k):  # the whole-row cumsum is constant from the cut on
                cdf = nb_cdf_rows(mu[idx], dispersion, level)
                at_cut = np.take_along_axis(cdf, cut[idx, None] - 1, axis=1)
                assert ((cdf == at_cut) | (np.arange(level + 1) < cut[idx, None] - 1)).all()
            fallback.append(mu / (dispersion + mu) == 1.0)
            assert (cut[fallback[-1]] == k[fallback[-1]] + 1).all()
        widths, k_all = np.concatenate(widths), np.tile(k, 5)
        assert (widths < k_all + 1).any() and (widths == k_all + 1).any()
        assert ((widths % 64 == 0) | (widths == k_all + 1)).all()
        assert np.concatenate(fallback).any()

    @pytest.mark.parametrize("dispersion", [1e300, 1e306])
    def test_huge_dispersion_draws_poisson_counts(self, dispersion):
        n, k, mean = 20_000, 20, 3.0
        spec = RegressionSpec(np.ones((n, 1)), np.full(n, mean), np.full(n, k, dtype=int))
        params = ModelParams(
            coef=np.array([0.0]), dispersion=dispersion, precision_shape=4.0, precision_rate=0.1
        )
        latent = simulate(spec, params, seed=5, model="cnar").latent_counts
        pmf = stats.poisson.pmf(np.arange(k + 1), mean)
        pmf /= pmf.sum()
        expected = float(np.arange(k + 1) @ pmf)
        mc_se = np.sqrt(float(((np.arange(k + 1) - expected) ** 2) @ pmf) / n)
        assert abs(latent.mean() - expected) <= 3 * mc_se

    def test_crisp_limit_concentrates_reports(self):
        n, k = 400, 1000
        spec = RegressionSpec(
            np.ones((n, 1)), np.full(n, 100.0), np.full(n, k, dtype=int)
        )
        params = ModelParams(
            coef=np.array([0.0]),
            dispersion=2.0,
            precision_shape=1e8,  # mean precision 1e4
            precision_rate=1e4,
        )
        sim = simulate(spec, params, seed=9, model="cnar")
        c_bar = sim.location / sim.k_max
        y_bar = corrected_scaled_count(sim.latent_counts, k)
        assert np.std(c_bar - y_bar) < 0.01

    def test_car2_extra_dispersion_concentrates(self):
        spec = make_spec(n=300, k=50, seed=8)
        loose = ModelParams(
            coef=np.array([1.0, 0.5]),
            precision_shape=4.0,
            precision_rate=0.1,
            extra_dispersion=1.0,
        )
        tight = ModelParams(
            coef=np.array([1.0, 0.5]),
            precision_shape=4.0,
            precision_rate=0.1,
            extra_dispersion=500.0,
        )
        mu = linear_means(spec, loose)
        m = np.clip(mu / 50.0, 1.0 / 102.0, 1.0 - 1.0 / 102.0)
        spread = {}
        for label, params in [("loose", loose), ("tight", tight)]:
            sim = simulate(spec, params, seed=10, model="car2")
            c_bar = sim.location / sim.k_max
            spread[label] = np.std(c_bar - m)
        assert spread["tight"] < 0.25 * spread["loose"]

    def test_scalar_model_has_no_simulator(self):
        spec = make_spec(n=5)
        with pytest.raises(ValidationError):
            simulate(spec, make_params("scalar"), seed=0, model="scalar")


def small_posterior(reports=((2.0, 5.0, 10), (3.0, 5.0, 10))):
    """A cnar `Posterior` on two samples with an intercept and one covariate (dim 5)."""
    return Posterior(make_spec(n=len(reports), k=10), make_reports(reports), PriorSpec(), "cnar")


# library calls that must raise: id -> (call, error type, message pattern)
LIBRARY_ERRORS = {
    "spec-covariates-3d": (lambda: RegressionSpec(np.zeros((2, 2, 2)), [1.0, 1.0], [10, 10]),
                           ValidationError, "covariates must be a 2-D matrix"),
    "spec-offsets-length": (lambda: RegressionSpec([[1.0], [2.0]], [1.0], [10, 10]),
                            ValidationError, "offsets must have one entry per sample"),
    "spec-k-length": (lambda: RegressionSpec([[1.0], [2.0]], [1.0, 1.0], [10]),
                      ValidationError, "k_max must have one entry per sample"),
    "spec-nan-covariate": (lambda: RegressionSpec([[np.nan], [2.0]], [1.0, 1.0], [10, 10]),
                           ValidationError, "covariates must be finite"),
    "spec-zero-k": (lambda: RegressionSpec([[1.0], [2.0]], [1.0, 1.0], [10, 0]),
                    ValidationError, "every truncation level must be at least 1"),
    # the covariates reader names the cell of a zero offset; the library call checks it too
    "spec-zero-offset": (lambda: RegressionSpec([[1.0], [2.0]], [1.0, 0.0], [10, 10]),
                         ValidationError, "offsets must be strictly positive and finite"),
    # the covariates reader names the file's repeated or reserved name; the library call checks too
    "spec-repeated-name": (lambda: RegressionSpec([[1.0, 1.0]], [1.0], [10], ("x", "x")),
                           ValidationError, r"covariate_names must be 2 distinct names, one per "
                                            r"column, got \['x', 'x'\]"),
    "params-coef-2d": (lambda: ModelParams(coef=np.ones((2, 2))),
                       ValidationError, "coef must be a finite 1-D vector"),
    "params-missing": (lambda: make_params("scalar").require("dispersion", "precision_shape"),
                       ValidationError, "model requires parameters: precision_shape$"),
    "means-coef-size": (lambda: linear_means(make_spec(n=3), ModelParams(coef=[1.0])),
                        ValidationError, "coef has 1 entries, design has 2 columns"),
    "unknown-model": (lambda: parameter_names("cnar2", n_covariates=1),
                      ValidationError, "unknown model 'cnar2'"),
    "constrained-length": (lambda: params_from_constrained([1.0, 2.0], 2, "cnar"),
                           ValidationError, "constrained vector for 'cnar' must have length 5"),
    "phi-length": (lambda: small_posterior().logp_and_grad(np.zeros(6)),
                   ValidationError, "parameter vector must have length 5"),
    "report-density-overflow": (lambda: small_posterior(((5.0, 1.7e308, 10), (3.0, 5.0, 10))),
                                NumericalError, "sample 0: non-finite report density"),
}


@pytest.mark.parametrize("call, error, message", LIBRARY_ERRORS.values(), ids=list(LIBRARY_ERRORS))
def test_library_call_rejects_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()
