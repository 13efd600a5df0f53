"""Hierarchical likelihoods: densities, gradients, and the simulator."""

import re

import numpy as np
import pytest
from scipy import stats

from grancount import NumericalError, ValidationError
from grancount.fuzzy import BetaFuzzy
from grancount.model import (
    _PMF_BLOCK_CELLS,
    _negbin_log_pmf,
    _truncated_pmf_rows,
    ModelParams,
    Posterior,
    PriorSpec,
    RegressionSpec,
    Reports,
    clamp_scaled_location,
    corrected_scaled_count,
    linear_means,
    pack_params,
    params_from_constrained,
    parameter_names,
    simulate,
)

from conftest import make_params, make_reports, make_spec
from oracles import observed_loglik


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


def truncated_pmf(mu, kappa, k):
    """The pmf of one mean, as a one-row call of `_truncated_pmf_rows`."""
    return _truncated_pmf_rows(np.array([mu], dtype=np.float64), kappa, k)[0]


class TestNegbinLogPmf:
    def test_zero_count_closed_form(self):
        mu, kappa = 3.7, 1.9
        expected = kappa * (np.log(kappa) - np.log(kappa + mu))
        assert abs(_negbin_log_pmf(0, mu, kappa) - expected) < 1e-14

    def test_poisson_limit(self):
        kappa = 1e6
        y = np.arange(12)
        poisson = stats.poisson.logpmf(y, 1.0)
        np.testing.assert_allclose(_negbin_log_pmf(y, 1.0, kappa), poisson, atol=1e-4)

    def test_mass_sums_to_one(self):
        total = np.exp(_negbin_log_pmf(np.arange(201), 5.0, 2.0)).sum()
        assert abs(total - 1.0) <= 1e-8

    def test_against_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            mu = float(rng.uniform(0.2, 50))
            kappa = float(rng.uniform(0.2, 20))
            y = rng.integers(0, 60, size=8)
            mine = _negbin_log_pmf(y, mu, kappa)
            ref = stats.nbinom.logpmf(y, kappa, kappa / (kappa + mu))
            np.testing.assert_allclose(mine, ref, rtol=1e-10)


class TestTruncatedPmf:
    def test_wide_truncation_matches_untruncated(self):
        pmf = truncated_pmf(3.0, 2.0, 200)
        ref = np.exp(_negbin_log_pmf(np.arange(201), 3.0, 2.0))
        np.testing.assert_allclose(pmf, ref, atol=1e-12)

    def test_degenerate_zero_level(self):
        np.testing.assert_array_equal(truncated_pmf(5.0, 2.0, 0), [1.0])

    def test_sums_exactly_to_one(self):
        pmf = truncated_pmf(5.0, 2.0, 20)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-15)

    def test_vanishing_mass_raises(self):
        with pytest.raises(NumericalError, match="truncation incompatible"):
            truncated_pmf(1e280, 1e4, 1)


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
            data = [] if model == "scalar" else Reports([], [], [])
            assert observed_loglik(spec, make_params(model), data, model) == 0.0

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
        spec, _, sim = small_cnar_data
        params = make_params("scalar")
        counts = np.round(sim.location)
        mine = observed_loglik(spec, params, counts, "scalar")
        mu = linear_means(spec, params)
        ref = stats.nbinom.logpmf(counts, 2.0, 2.0 / (2.0 + mu)).sum()
        assert abs(mine - ref) < 1e-8 * (1 + abs(ref))


class TestGradients:
    @pytest.mark.parametrize("model", ["cnar", "car1", "car2", "scalar"])
    def test_matches_central_differences(self, model, small_cnar_data):
        spec, _, sim = small_cnar_data
        data = np.round(sim.location) if model == "scalar" else sim
        priors = PriorSpec()
        post = Posterior(spec, data, priors, model)
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


class TestTailCutoff:
    def test_cutoff_matches_exact_truncation(self):
        spec = make_spec(n=30, k=300, offset=1.0)
        sim = simulate(spec, make_params("cnar"), seed=13, model="cnar")
        exact = Posterior(spec, sim, PriorSpec(), "cnar", tail_mass=0.0)
        cut = Posterior(spec, sim, PriorSpec(), "cnar", tail_mass=1e-12)
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

    def test_cutoff_matches_exact_truncation_on_mixed_k(self):
        base = make_spec(n=40, k=300, offset=1.0, seed=5)
        spec = RegressionSpec(
            base.covariates, base.offsets, np.resize([5, 20, 60, 300], 40), base.covariate_names
        )
        sim = simulate(spec, make_params("cnar"), seed=13, model="cnar")
        exact = Posterior(spec, sim, PriorSpec(), "cnar", tail_mass=0.0)
        cut = Posterior(spec, sim, PriorSpec(), "cnar", tail_mass=1e-12)
        rng = np.random.default_rng(19)
        compared = 0
        for _ in range(40):
            phi = rng.standard_normal(exact.dim)
            mu = spec.offsets * np.exp(spec.covariates @ phi[:2])
            if cut._cutoff(mu.max(), np.exp(phi[2])) == 301:
                continue  # only points where the grid is cut test the cutoff
            logp, grad = exact.logp_and_grad(phi)
            logp_cut, grad_cut = cut.logp_and_grad(phi)
            assert abs(logp_cut - logp) <= 1e-8
            np.testing.assert_allclose(grad_cut, grad, rtol=0.0, atol=1e-8)
            compared += 1
        assert compared >= 10

    def test_call_order_does_not_change_bits(self):
        # one Posterior reuses its scratch at a cutoff width that changes per
        # call; mixed K also takes the beyond-K mask through those widths
        base = make_spec(n=40, k=300, offset=1.0, seed=7)
        spec = RegressionSpec(
            base.covariates, base.offsets, np.resize([60, 300], 40), base.covariate_names
        )
        sim = simulate(spec, make_params("cnar"), seed=3, model="cnar")
        args = (spec, sim, PriorSpec(), "cnar", 1e-12)
        shared = Posterior(*args)
        truth = pack_params(make_params("cnar"), "cnar")
        points = [np.concatenate([[c], truth[1:]]) for c in np.linspace(-1.0, 2.5, 20)]
        widths = set()
        for i in np.random.default_rng(23).permutation(len(points)):
            phi = points[i]
            mu = spec.offsets * np.exp(spec.covariates @ phi[:2])
            widths.add(shared._cutoff(mu.max(), np.exp(phi[2])))
            logp, grad = shared.logp_and_grad(phi)
            fresh_logp, fresh_grad = Posterior(*args).logp_and_grad(phi)
            assert np.isfinite(logp) and logp == fresh_logp
            np.testing.assert_array_equal(grad, fresh_grad)
        # cut widths on both sides of the smaller K, up to the full grid
        assert len(widths) >= 10 and min(widths) < 61 < max(widths), sorted(widths)

    def test_zero_tail_mass_evaluates_the_full_grid(self, monkeypatch):
        spec = make_spec(n=30, k=300, offset=1.0)
        sim = simulate(spec, make_params("cnar"), seed=13, model="cnar")
        exact = Posterior(spec, sim, PriorSpec(), "cnar", tail_mass=0.0)
        cut = Posterior(spec, sim, PriorSpec(), "cnar", tail_mass=1e-12)
        phi = pack_params(make_params("cnar"), "cnar")
        mu = linear_means(spec, make_params("cnar"))
        # at tail_mass 0 the cutoff search still stops short of the grid's end:
        # the cumulative mass stops growing in floating point first
        assert exact._cutoff(mu.max(), 2.0) < spec.k_max[0] + 1
        calls = []
        original = Posterior._cutoff
        monkeypatch.setattr(
            Posterior, "_cutoff", lambda self, *args: calls.append(self) or original(self, *args)
        )
        assert np.isfinite(exact.logp_and_grad(phi)[0]) and calls == []
        assert np.isfinite(cut.logp_and_grad(phi)[0]) and calls == [cut]

    def test_tail_mass_outside_unit_interval_rejected(self, small_cnar_data):
        spec, _, sim = small_cnar_data
        for tail_mass in (-1.0, 1.0, 2.0, float("nan")):
            with pytest.raises(ValidationError, match="tail_mass"):
                Posterior(spec, sim, PriorSpec(), "cnar", tail_mass=tail_mass)


class TestPacking:
    @pytest.mark.parametrize("model", ["cnar", "car1", "car2", "scalar"])
    def test_round_trip(self, model):
        params = make_params(model)
        p = params.coef.size
        data = [] if model == "scalar" else Reports([], [], [])
        post = Posterior(RegressionSpec(np.empty((0, p)), [], []), data, PriorSpec(), model)
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
        assert n % (_PMF_BLOCK_CELLS // (max(levels) + 1)) != 0
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
            lp = _negbin_log_pmf(np.arange(k[i] + 1), mu[i], params.dispersion)
            mass = np.exp(lp - lp.max())
            np.testing.assert_array_equal(pmf, mass / mass.sum())
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
        with pytest.raises(NumericalError, match="truncation incompatible"):
            simulate(spec, params, seed=0, model="cnar")
        # a mean that underflows to 0 is rejected
        zero_mean = ModelParams(
            coef=np.array([-800.0]), dispersion=2.0, precision_shape=4.0, precision_rate=0.1
        )
        with pytest.raises(ValidationError, match="strictly positive"):
            simulate(RegressionSpec(np.ones((3, 1)), np.ones(3), np.full(3, 5)), zero_mean, seed=0)

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
