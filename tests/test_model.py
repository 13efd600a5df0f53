"""Hierarchical likelihoods: densities, gradients, and the simulator."""

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from grancount import (
    BetaFuzzy,
    ModelParams,
    NumericalError,
    Posterior,
    PriorSpec,
    RegressionSpec,
    ValidationError,
    car1_observed_loglik,
    car2_observed_loglik,
    cnar_observed_loglik,
    grad_log_posterior,
    mean_response,
    negbin_log_pmf,
    scalar_observed_loglik,
    simulate,
    truncated_count_pmf,
)
from grancount.model import (
    clamp_scaled_location,
    cond_location_log_density,
    corrected_scaled_count,
    gamma_precision_loglik,
    linear_means,
    observation_arrays,
    pack_params,
    params_from_constrained,
    parameter_names,
    unpack_params,
)

from conftest import make_params, make_spec


class TestMeanResponse:
    def test_zero_coefficients_identity(self):
        spec = RegressionSpec([[1.0, 2.0]], [1.0], [10])
        params = ModelParams(coef=np.zeros(2))
        assert mean_response(spec, params, 0) == 1.0

    def test_cancelling_predictor(self):
        spec = RegressionSpec([[1.0, 2.0]], [10.0], [10])
        params = ModelParams(coef=np.array([0.5, -0.25]))
        assert abs(mean_response(spec, params, 0) - 10.0) < 1e-12

    def test_offset_passthrough(self):
        spec = RegressionSpec([[0.0]], [3.0], [10])
        params = ModelParams(coef=np.array([7.0]))
        assert mean_response(spec, params, 0) == pytest.approx(3.0, rel=1e-14)

    def test_overflow_reports_value(self):
        spec = RegressionSpec([[1.0]], [1.0], [10])
        params = ModelParams(coef=np.array([800.0]))
        with pytest.raises(NumericalError, match="overflow"):
            mean_response(spec, params, 0)


class TestNegbinLogPmf:
    def test_zero_count_closed_form(self):
        mu, kappa = 3.7, 1.9
        expected = kappa * (np.log(kappa) - np.log(kappa + mu))
        assert abs(negbin_log_pmf(0, mu, kappa) - expected) < 1e-14

    def test_poisson_limit(self):
        kappa = 1e6
        y = np.arange(12)
        poisson = stats.poisson.logpmf(y, 1.0)
        np.testing.assert_allclose(negbin_log_pmf(y, 1.0, kappa), poisson, atol=1e-4)

    def test_mass_sums_to_one(self):
        total = np.exp(negbin_log_pmf(np.arange(201), 5.0, 2.0)).sum()
        assert abs(total - 1.0) <= 1e-8

    def test_against_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            mu = float(rng.uniform(0.2, 50))
            kappa = float(rng.uniform(0.2, 20))
            y = rng.integers(0, 60, size=8)
            mine = negbin_log_pmf(y, mu, kappa)
            ref = stats.nbinom.logpmf(y, kappa, kappa / (kappa + mu))
            np.testing.assert_allclose(mine, ref, rtol=1e-10)


class TestTruncatedPmf:
    def test_wide_truncation_matches_untruncated(self):
        pmf = truncated_count_pmf(3.0, 2.0, 200).pmf
        ref = np.exp(negbin_log_pmf(np.arange(201), 3.0, 2.0))
        np.testing.assert_allclose(pmf, ref, atol=1e-12)

    def test_degenerate_zero_level(self):
        np.testing.assert_array_equal(truncated_count_pmf(5.0, 2.0, 0).pmf, [1.0])

    def test_sums_exactly_to_one(self):
        pmf = truncated_count_pmf(5.0, 2.0, 20).pmf
        assert pmf.sum() == pytest.approx(1.0, abs=1e-15)

    def test_vanishing_mass_raises(self):
        with pytest.raises(NumericalError, match="truncation incompatible"):
            truncated_count_pmf(1e280, 1e4, 1)


class TestCondLocationDensity:
    def test_uniform_beta_is_flat(self):
        # shapes (1, 1) arise from h=2, ybar=1/2
        for c_bar in (0.1, 0.5, 0.9):
            assert abs(cond_location_log_density(c_bar, 2.0, 0.5)) < 1e-14

    def test_against_scipy_beta(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            h = float(rng.uniform(0.5, 80))
            y_bar = float(rng.uniform(0.02, 0.98))
            c_bar = float(rng.uniform(0.01, 0.99))
            mine = cond_location_log_density(c_bar, h, y_bar)
            ref = stats.beta.logpdf(c_bar, h * y_bar, h * (1 - y_bar))
            assert abs(mine - ref) < 1e-9

    def test_mean_matches_location_by_quadrature(self):
        h, y_bar = 10.0, 0.3
        mean, _ = quad(
            lambda x: x * np.exp(cond_location_log_density(x, h, y_bar)), 0.0, 1.0
        )
        assert abs(mean - y_bar) <= 1e-6

    def test_boundary_input_rejected(self):
        with pytest.raises(ValidationError):
            cond_location_log_density(0.0, 5.0, 0.5)


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
        for fn, model in [
            (cnar_observed_loglik, "cnar"),
            (car1_observed_loglik, "car1"),
            (car2_observed_loglik, "car2"),
        ]:
            assert fn(spec, make_params(model), []) == 0.0
        assert scalar_observed_loglik(spec, make_params("scalar"), []) == 0.0

    def test_cnar_against_independent_composition(self, small_cnar_data):
        spec, params, sim = small_cnar_data
        mine = cnar_observed_loglik(spec, params, sim.observations)
        ref = _reference_cnar_loglik(spec, params, sim.observations)
        assert abs(mine - ref) < 1e-8 * (1 + abs(ref))

    def test_cnar_two_term_hand_case(self):
        # K=1: the latent sum has exactly two terms
        spec = RegressionSpec([[1.0]], [1.0], [1])
        params = ModelParams(
            coef=np.array([0.3]), dispersion=2.0, precision_shape=3.0, precision_rate=0.5
        )
        obs = [BetaFuzzy(location=0.4, precision=5.0, k_max=1)]
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
        got = cnar_observed_loglik(spec, params, obs)
        assert abs(got - expected) < 1e-10

    def test_cnar_mixed_k_against_independent_composition(self):
        # samples with different truncation levels share one padded count grid
        base = make_spec(n=30, seed=4)
        spec = RegressionSpec(
            base.covariates, base.offsets, np.resize([5, 20, 60], 30), base.covariate_names
        )
        params = make_params("cnar")
        sim = simulate(spec, params, seed=6, model="cnar")
        mine = cnar_observed_loglik(spec, params, sim.observations)
        ref = _reference_cnar_loglik(spec, params, sim.observations)
        assert abs(mine - ref) < 1e-8 * (1 + abs(ref))

    def test_gamma_block_separates_exactly(self, small_cnar_data):
        spec, params, sim = small_cnar_data
        base = cnar_observed_loglik(spec, params, sim.observations)
        shifted = ModelParams(
            coef=params.coef,
            dispersion=params.dispersion,
            precision_shape=6.5,
            precision_rate=0.4,
        )
        moved = cnar_observed_loglik(spec, shifted, sim.observations)
        h = np.array([o.precision for o in sim.observations])
        delta = gamma_precision_loglik(h, 6.5, 0.4) - gamma_precision_loglik(
            h, params.precision_shape, params.precision_rate
        )
        assert moved - base == pytest.approx(delta, abs=1e-10)

    def test_car1_against_direct_formula(self, small_cnar_data):
        spec, _, sim = small_cnar_data
        params = make_params("car1")
        mine = car1_observed_loglik(spec, params, sim.observations)
        locations, precisions, k = observation_arrays(sim.observations)
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
        obs = [BetaFuzzy(location=0.3, precision=4.0, k_max=1)]
        a = cnar_observed_loglik(spec, cnar_params, obs)
        b = car1_observed_loglik(spec, car_params, obs)
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
        assert car2_observed_loglik(spec, car2, sim.observations) == car1_observed_loglik(
            spec, car1, sim.observations
        )

    def test_car2_fixture_against_direct_formula(self, small_cnar_data):
        spec, _, sim = small_cnar_data
        params = make_params("car2")
        mine = car2_observed_loglik(spec, params, sim.observations)
        locations, precisions, k = observation_arrays(sim.observations)
        mu = linear_means(spec, params)
        lo = 1.0 / (2.0 * k + 2.0)
        m = np.clip(mu / k, lo, 1.0 - lo)
        c_bar = clamp_scaled_location(locations, k)
        s = params.extra_dispersion * precisions
        ref = stats.beta.logpdf(c_bar, s * m, s * (1 - m)).sum()
        ref += stats.gamma.logpdf(precisions, 4.0, scale=10.0).sum()
        assert abs(mine - ref) < 1e-8 * (1 + abs(ref))

    def test_scalar_against_scipy(self, small_cnar_data):
        spec, _, sim = small_cnar_data
        params = make_params("scalar")
        counts = np.round([o.location for o in sim.observations])
        mine = scalar_observed_loglik(spec, params, counts)
        mu = linear_means(spec, params)
        ref = stats.nbinom.logpmf(counts, 2.0, 2.0 / (2.0 + mu)).sum()
        assert abs(mine - ref) < 1e-8 * (1 + abs(ref))


class TestGradients:
    @pytest.mark.parametrize("model", ["cnar", "car1", "car2", "scalar"])
    def test_matches_central_differences(self, model, small_cnar_data):
        spec, _, sim = small_cnar_data
        data = (
            np.round([o.location for o in sim.observations])
            if model == "scalar"
            else sim.observations
        )
        priors = PriorSpec()
        post = Posterior(spec, data, priors, model, exact_truncation=True)
        rng = np.random.default_rng(5)
        step = 1e-5
        for _ in range(6):
            phi = 0.4 * rng.standard_normal(post.dim)
            _, grad = post.logp_and_grad(phi)
            for j in range(post.dim):
                unit = np.zeros(post.dim)
                unit[j] = step
                fd = (post.logp(phi + unit) - post.logp(phi - unit)) / (2 * step)
                assert abs(grad[j] - fd) <= 1e-5 * (1.0 + abs(fd))

    def test_prior_score_only_without_data(self):
        spec = RegressionSpec(np.empty((0, 1)), np.empty(0), np.empty(0, dtype=int))
        priors = PriorSpec()
        phi = np.array([0.7, -0.3, 0.2, 0.1])
        grad = grad_log_posterior(spec, phi, [], priors, "cnar")
        sds = np.array([5.0, 1.5, 1.5, 1.5])
        np.testing.assert_allclose(grad, -phi / sds**2, atol=1e-14)

    def test_symmetric_design_zeroes_coefficient_gradient(self):
        spec = RegressionSpec([[1.5], [-1.5]], [1.0, 1.0], [8, 8])
        obs = [
            BetaFuzzy(location=3.0, precision=6.0, k_max=8),
            BetaFuzzy(location=3.0, precision=6.0, k_max=8),
        ]
        phi = np.array([0.0, np.log(2.0), np.log(3.0), np.log(0.5)])
        grad = grad_log_posterior(spec, phi, obs, PriorSpec(), "cnar")
        # identical samples cancel; BLAS fused multiply-adds leave rounding dust
        assert abs(grad[0]) <= 1e-14

    def test_nonfinite_point_raises(self):
        spec = RegressionSpec([[1.0]], [1.0], [4])
        obs = [BetaFuzzy(location=2.0, precision=3.0, k_max=4)]
        with pytest.raises(NumericalError):
            grad_log_posterior(
                spec, np.array([1e4, 0.0, 0.0, 0.0]), obs, PriorSpec(), "cnar"
            )


class TestTailCutoff:
    def test_cutoff_matches_exact_truncation(self):
        spec = make_spec(n=30, k=300, offset=1.0)
        sim = simulate(spec, make_params("cnar"), seed=13, model="cnar")
        exact = Posterior(spec, sim.observations, PriorSpec(), "cnar", exact_truncation=True)
        cut = Posterior(spec, sim.observations, PriorSpec(), "cnar", exact_truncation=False)
        rng = np.random.default_rng(17)
        lengths = []
        for _ in range(20):
            phi = rng.standard_normal(exact.dim)
            logp, grad = exact.logp_and_grad(phi)
            logp_cut, grad_cut = cut.logp_and_grad(phi)
            assert abs(logp_cut - logp) <= 1e-8
            np.testing.assert_allclose(grad_cut, grad, rtol=0.0, atol=1e-8)
            mu = spec.offsets * np.exp(spec.covariates @ phi[:2])
            lengths.append(cut._cutoff(mu.max(), np.exp(phi[2])))
        # the comparison means something only where the grid was cut
        assert min(lengths) < spec.k_max[0] + 1

    def test_tail_mass_outside_unit_interval_rejected(self, small_cnar_data):
        spec, _, sim = small_cnar_data
        for tail_mass in (-1.0, 1.0, 2.0, float("nan")):
            with pytest.raises(ValidationError, match="tail_mass"):
                Posterior(
                    spec, sim.observations, PriorSpec(), "cnar",
                    exact_truncation=False, tail_mass=tail_mass,
                )


class TestPacking:
    @pytest.mark.parametrize("model", ["cnar", "car1", "car2", "scalar"])
    def test_round_trip(self, model):
        params = make_params(model)
        phi = pack_params(params, model)
        back = unpack_params(phi, params.coef.size, model)
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


class TestSimulate:
    def test_seed_determinism(self):
        spec = make_spec(n=15, k=40, seed=3)
        params = make_params("cnar")
        a = simulate(spec, params, seed=77, model="cnar")
        b = simulate(spec, params, seed=77, model="cnar")
        assert a.observations == b.observations
        np.testing.assert_array_equal(a.latent_counts, b.latent_counts)

    def test_latent_mean_matches_truncated_pmf(self):
        n = 100_000
        spec = RegressionSpec(
            np.ones((n, 1)), np.full(n, 6.0), np.full(n, 20, dtype=int)
        )
        params = ModelParams(
            coef=np.array([0.0]), dispersion=2.0, precision_shape=4.0, precision_rate=0.1
        )
        sim = simulate(spec, params, seed=5, model="cnar")
        pmf = truncated_count_pmf(6.0, 2.0, 20).pmf
        expected = float(np.arange(21) @ pmf)
        variance = float(((np.arange(21) - expected) ** 2) @ pmf)
        mc_se = np.sqrt(variance / n)
        assert abs(sim.latent_counts.mean() - expected) <= 3 * mc_se

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
        c_bar = np.array([o.location / o.k_max for o in sim.observations])
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
            c_bar = np.array([o.location / o.k_max for o in sim.observations])
            spread[label] = np.std(c_bar - m)
        assert spread["tight"] < 0.25 * spread["loose"]

    def test_scalar_model_has_no_simulator(self):
        spec = make_spec(n=5)
        with pytest.raises(ValidationError):
            simulate(spec, make_params("scalar"), seed=0, model="scalar")
