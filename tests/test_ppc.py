"""Posterior predictive machinery: distances, summaries, energy components."""

import numpy as np
import pytest

from grancount import ValidationError
from grancount.inference import HmcConfig, sample
from grancount.model import Posterior, PriorSpec, Reports, simulate
from grancount.ppc import (
    DEFAULT_GRID,
    _pairwise_distances,
    _profile_matrix,
    _within_distance,
    energy_components,
    replicate,
    run_ppc,
    scalar_summaries,
)

from conftest import make_params, make_reports, make_spec


def obs(c_bar, h, k=10):
    return (c_bar * k, h, k)


def distance(a, b, grid=DEFAULT_GRID):
    """RMS membership distance of two (c, h, K) reports, as the ppc stage computes it."""
    profiles = _profile_matrix(make_reports([a, b]), np.linspace(0.0, 1.0, grid))
    return float(_pairwise_distances(profiles[:1], profiles[1:], grid)[0, 0])


class TestFuzzyDistance:
    def test_identity(self):
        a = (3.0, 20.0, 10)
        assert distance(a, a) == 0.0

    def test_symmetry(self):
        a = (3.0, 20.0, 10)
        b = (7.0, 55.0, 10)
        assert distance(a, b) == distance(b, a)

    def test_frozen_fixture(self):
        # independent plain-python summation over the 101-point grid
        a = (3.0, 20.0, 10)
        b = (7.0, 20.0, 10)
        assert abs(distance(a, b, grid=101) - 0.5824980316187047) < 1e-12

    def test_metric_axioms_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            k = int(rng.integers(4, 30))
            items = [(float(rng.uniform(0, k)), float(rng.uniform(0.5, 80)), k) for _ in range(3)]
            d_ab = distance(items[0], items[1])
            d_bc = distance(items[1], items[2])
            d_ac = distance(items[0], items[2])
            assert d_ab >= 0.0
            assert d_ac <= d_ab + d_bc + 1e-12

    def test_mixed_scales_share_unit_grid(self):
        # same scaled location and precision on different count spaces
        a = (3.0, 20.0, 10)
        b = (30.0, 20.0, 100)
        assert distance(a, b) < 1e-12

    def test_grid_validation(self):
        a = make_reports([(3.0, 20.0, 10)])
        with pytest.raises(ValidationError, match="grid"):
            energy_components(a, a, grid=1)


class TestScalarSummaries:
    def test_constant_sample_has_zero_spread(self):
        data = make_reports([obs(0.4, 10.0) for _ in range(6)])
        mean, iqr = scalar_summaries(data)
        assert mean == pytest.approx(0.4)
        assert iqr == 0.0

    def test_decile_fixture(self):
        data = make_reports([obs(v, 10.0) for v in np.arange(0.1, 1.01, 0.1)])
        mean, iqr = scalar_summaries(data)
        assert mean == pytest.approx(0.55)
        assert iqr == pytest.approx(0.72)

    def test_scale_invariance(self):
        a = make_reports([(c, 5.0, 10) for c in (1, 4, 7)])
        b = make_reports([(10 * c, 5.0, 100) for c in (1, 4, 7)])
        assert scalar_summaries(a) == scalar_summaries(b)


class TestEnergyComponents:
    def test_identical_multisets_match_exactly(self):
        rng = np.random.default_rng(2)
        items = [obs(float(rng.uniform(0.1, 0.9)), float(rng.uniform(2, 40))) for _ in range(8)]
        stats = energy_components(make_reports(items), make_reports(items))
        assert stats.u_rep == stats.u_obs
        assert stats.u_cross == pytest.approx(stats.u_obs * 7.0 / 8.0, rel=1e-12)

    def test_degenerate_samples_are_zero(self):
        data = make_reports([obs(0.5, 10.0)] * 5)
        stats = energy_components(data, data)
        assert stats.u_obs == 0.0 and stats.u_rep == 0.0 and stats.u_cross == 0.0

    def test_order_invariance(self):
        rng = np.random.default_rng(3)
        data = [obs(float(rng.uniform(0.1, 0.9)), float(rng.uniform(2, 40))) for _ in range(7)]
        reps = [obs(float(rng.uniform(0.1, 0.9)), float(rng.uniform(2, 40))) for _ in range(5)]
        a = energy_components(make_reports(data), make_reports(reps))
        b = energy_components(make_reports(data[::-1]), make_reports(reps[::-1]))
        assert a.u_obs == pytest.approx(b.u_obs, rel=1e-12)
        assert a.u_cross == pytest.approx(b.u_cross, rel=1e-12)

    def test_singleton_flags_nan(self):
        data = make_reports([obs(0.5, 10.0)])
        reps = make_reports([obs(0.4, 8.0), obs(0.6, 12.0)])
        stats = energy_components(data, reps)
        assert np.isnan(stats.u_obs)
        assert np.isfinite(stats.u_cross)
        assert any("singleton" in f for f in stats.flags)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValidationError):
            energy_components(Reports([], [], []), make_reports([obs(0.5, 10.0)]))


def _full_distance_matrix(a, b, grid):
    """Reference: every difference in one block, as the distances were first computed."""
    block = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", block, block) / grid)


class TestDistanceBlocks:
    @pytest.mark.parametrize("n", [1, 2, 3, 199, 200, 257])
    def test_blocked_distances_equal_full_matrix_reference(self, n):
        rng = np.random.default_rng(n)
        items = [obs(float(rng.uniform(0.0, 1.0)), float(rng.gamma(4.0, 10.0)), 500)
                 for _ in range(n + 3)]
        profiles = _profile_matrix(make_reports(items), np.linspace(0.0, 1.0, 101))
        profiles[n - 1] = profiles[0]  # a duplicate row wherever n > 1
        data, other = profiles[:n], profiles[n:]
        full = _full_distance_matrix(data, data, 101)
        np.testing.assert_array_equal(_pairwise_distances(data, data, 101), full)
        np.testing.assert_array_equal(
            _pairwise_distances(data, other, 101), _full_distance_matrix(data, other, 101)
        )
        within = _within_distance(data, 101)
        if n == 1:
            assert np.isnan(within)
        else:
            assert within == full[np.triu_indices(n, k=1)].mean()
            assert full[0, n - 1] == 0.0
            assert _within_distance(np.repeat(data[:1], n, axis=0), 101) == 0.0


@pytest.fixture(scope="module")
def fitted_small_posterior():
    """CNAR fit on a small simulated dataset, reused by replicate tests."""
    spec = make_spec(n=40, k=80, seed=31, offset=15.0)
    params = make_params("cnar")
    sim = simulate(spec, params, seed=32, model="cnar")
    post = Posterior(spec, sim, PriorSpec(), "cnar", tail_mass=1e-12)
    cfg = HmcConfig(n_chains=2, n_warmup=300, n_draws=300, seed=33, max_leapfrog=24)
    draws = sample(
        post.logp_and_grad, cfg, post.initial_point(), names=post.names, constrain=post.constrain
    )
    return spec, sim, draws


class TestReplicate:
    def test_single_replicate_shape(self, fitted_small_posterior):
        spec, sim, draws = fitted_small_posterior
        reps = replicate(draws, spec, "cnar", n_reps=1, seed=0)
        assert len(reps) == 1
        assert len(reps[0]) == spec.n_samples

    def test_deterministic(self, fitted_small_posterior):
        spec, sim, draws = fitted_small_posterior
        a = replicate(draws, spec, "cnar", n_reps=5, seed=4)
        b = replicate(draws, spec, "cnar", n_reps=5, seed=4)
        for ra, rb in zip(a, b):
            for column in ("location", "precision", "k_max", "latent_counts"):
                np.testing.assert_array_equal(getattr(ra, column), getattr(rb, column))

    def test_too_many_reps_rejected(self, fitted_small_posterior):
        spec, sim, draws = fitted_small_posterior
        with pytest.raises(ValidationError, match="available"):
            replicate(draws, spec, "cnar", n_reps=10_000, seed=0)

    def test_replicate_means_bracket_observed(self, fitted_small_posterior):
        # well-specified model: the observed scaled mean falls inside the
        # replicate distribution for most posterior fits
        spec, sim, draws = fitted_small_posterior
        summary = run_ppc(draws, spec, "cnar", sim, n_reps=100, seed=7)
        assert summary.scaled_mean.min() <= summary.observed_scaled_mean <= summary.scaled_mean.max()
        assert 0.0 < summary.tail_prob_mean < 1.0

    def test_u_obs_constant_across_reps(self, fitted_small_posterior):
        spec, sim, draws = fitted_small_posterior
        a = run_ppc(draws, spec, "cnar", sim, n_reps=10, seed=1)
        b = run_ppc(draws, spec, "cnar", sim, n_reps=20, seed=2)
        assert a.u_obs == b.u_obs

    def test_run_ppc_energy_equals_energy_components(self, fitted_small_posterior):
        spec, sim, draws = fitted_small_posterior
        summary = run_ppc(draws, spec, "cnar", sim, n_reps=3, seed=5)
        for r, rep in enumerate(replicate(draws, spec, "cnar", n_reps=3, seed=5)):
            stats = energy_components(sim, rep)
            assert (stats.u_obs, stats.u_rep, stats.u_cross) == (
                summary.u_obs, summary.u_rep[r], summary.u_cross[r]
            )
