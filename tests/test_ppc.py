"""Posterior predictive machinery: distances, summaries, energy components."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from grancount import ValidationError, ppc
from grancount.fuzzy import BLOCK_CELLS
from grancount.inference import HmcConfig, sample
from grancount.model import Posterior, PriorSpec, Reports, simulate
from grancount.ppc import (
    _RECOMPUTE_SHARE,
    DEFAULT_GRID,
    _distance_sum,
    _profiles,
    _within_distance,
    replicate,
    run_ppc,
    scalar_summaries,
)

from conftest import make_params, make_reports, make_spec, with_norms
from oracles import pairwise_distances

# the relative error bound `ppc._distance_sum` states for each distance at grid 101
RTOL = (101 + 1) * 2.0**-53 / _RECOMPUTE_SHARE


def obs(c_bar, h, k=10):
    return (c_bar * k, h, k)


def distance(a, b, grid=DEFAULT_GRID):
    """RMS membership distance of two (c, h, K) reports, as the ppc stage computes it."""
    rows, sq = _profiles(make_reports([a, b]), grid)
    return _distance_sum((rows[:1], sq[:1]), (rows[1:], sq[1:]), grid)


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
    """u_obs and u_rep are `_within_distance` means, u_cross a `_distance_sum` over n_obs n_rep."""

    def test_identical_multisets_match_exactly(self):
        rng = np.random.default_rng(2)
        items = [obs(float(rng.uniform(0.1, 0.9)), float(rng.uniform(2, 40))) for _ in range(8)]
        data, rep = (_profiles(make_reports(items), DEFAULT_GRID) for _ in range(2))
        u_obs = _within_distance(data, DEFAULT_GRID)
        assert _within_distance(rep, DEFAULT_GRID) == u_obs
        u_cross = _distance_sum(data, rep, DEFAULT_GRID) / 8 / 8
        assert u_cross == pytest.approx(u_obs * 7.0 / 8.0, rel=1e-12)

    def test_degenerate_samples_are_zero(self):
        data = _profiles(make_reports([obs(0.5, 10.0)] * 5), DEFAULT_GRID)
        assert _within_distance(data, DEFAULT_GRID) == 0.0
        assert _distance_sum(data, data, DEFAULT_GRID) == 0.0

    def test_order_invariance(self):
        rng = np.random.default_rng(3)
        data = [obs(float(rng.uniform(0.1, 0.9)), float(rng.uniform(2, 40))) for _ in range(7)]
        reps = [obs(float(rng.uniform(0.1, 0.9)), float(rng.uniform(2, 40))) for _ in range(5)]
        forward = [_profiles(make_reports(items), DEFAULT_GRID) for items in (data, reps)]
        backward = [_profiles(make_reports(items[::-1]), DEFAULT_GRID) for items in (data, reps)]
        assert _within_distance(forward[0], DEFAULT_GRID) == pytest.approx(
            _within_distance(backward[0], DEFAULT_GRID), rel=1e-12)
        assert _distance_sum(*forward, DEFAULT_GRID) == pytest.approx(
            _distance_sum(*backward, DEFAULT_GRID), rel=1e-12)

    def test_singleton_flags_nan(self, fitted_small_posterior):
        spec, sim, draws = fitted_small_posterior
        summary = run_ppc(draws, spec, "cnar", make_reports([obs(0.5, 10.0)]), n_reps=2, seed=0)
        assert np.isnan(summary.u_obs)
        assert np.isfinite(summary.u_cross).all()
        assert any("singleton" in f for f in summary.flags)

    def test_empty_sample_rejected(self, fitted_small_posterior):
        spec, sim, draws = fitted_small_posterior
        with pytest.raises(ValidationError, match="empty"):
            run_ppc(draws, spec, "cnar", Reports([], [], []), n_reps=2, seed=0)


class TestDistanceBlocks:
    @pytest.mark.parametrize("n", [1, 2, 3, 199, 200, 257])
    def test_blocked_distances_equal_full_matrix_reference(self, n):
        rng = np.random.default_rng(n)
        items = [obs(float(rng.uniform(0.0, 1.0)), float(rng.gamma(4.0, 10.0)), 500)
                 for _ in range(n + 3)]
        profiles, _ = _profiles(make_reports(items), 101)
        profiles[n - 1] = profiles[0]  # a duplicate row wherever n > 1
        data, other = with_norms(profiles[:n]), with_norms(profiles[n:])
        full = pairwise_distances(data[0], data[0], 101)
        cross = pairwise_distances(data[0], other[0], 101)
        assert _distance_sum(data, data, 101) == pytest.approx(full.sum(), rel=RTOL, abs=0)
        assert _distance_sum(data, other, 101) == pytest.approx(cross.sum(), rel=RTOL, abs=0)
        for i in range(n):  # row by row, so no error hides in a sum
            row = (data[0][i : i + 1], data[1][i : i + 1])
            assert _distance_sum(row, data, 101) == pytest.approx(full[i].sum(), rel=RTOL, abs=0)
        within = _within_distance(data, 101)
        if n == 1:
            assert np.isnan(within)
        else:
            assert within == pytest.approx(full[np.triu_indices(n, k=1)].mean(), rel=RTOL, abs=0)
            assert full[0, n - 1] == 0.0
            first, last = (data[0][:1], data[1][:1]), (data[0][-1:], data[1][-1:])
            assert _distance_sum(first, last, 101) == 0.0
            assert _within_distance(with_norms(np.repeat(data[0][:1], n, axis=0)), 101) == 0.0

    def test_self_pairs_read_zero_without_a_recompute(self, monkeypatch):
        rng = np.random.default_rng(24)
        items = [obs(float(rng.uniform(0.0, 1.0)), float(rng.gamma(4.0, 10.0)), 500)
                 for _ in range(300)]
        dups = (3, 250, 299)  # exact duplicates at distinct indices, in both row blocks
        for i in dups[1:]:
            items[i] = items[dups[0]]
        data = _profiles(make_reports(items), 101)
        assert BLOCK_CELLS // 300 < 300  # rows per block: the sample spans two blocks
        direct, recomputed = ppc._direct_squares, []

        def spy(a, b, i, j):
            squares = direct(a, b, i, j)
            recomputed.extend(zip(i.tolist(), j.tolist(), squares.tolist()))
            return squares

        monkeypatch.setattr(ppc, "_direct_squares", spy)
        full = pairwise_distances(data[0], data[0], 101)
        within = _within_distance(data, 101)
        assert within == pytest.approx(full[np.triu_indices(300, k=1)].mean(), rel=RTOL, abs=0)
        assert {(i, j) for i, j, _ in recomputed} == {(i, j) for i in dups for j in dups if i != j}
        assert all(square == 0.0 for *_, square in recomputed)
        # off the diagonal, the self path keeps the bits of two distinct samples
        other = (data[0].copy(), data[1].copy())
        assert _distance_sum(data, data, 101) == _distance_sum(data, other, 101)

    @pytest.mark.parametrize(
        "shift, h, below",
        [("nextafter", 40.0, True), (1e-4, 40.0, True), (1e-4, 400.0, False)],
        ids=["one-ulp", "1e-4-h40", "1e-4-h400"],
    )
    def test_near_duplicates_on_both_sides_of_the_recompute_threshold(self, shift, h, below):
        if shift == "nextafter":
            rows, _ = _profiles(make_reports([obs(0.3, h, 500)]), 101)
            rows = np.vstack([rows, np.nextafter(rows, 2.0)])
        else:
            rows, _ = _profiles(make_reports([obs(0.3, h, 500), obs(0.3 + shift, h, 500)]), 101)
        a, b = with_norms(rows[:1]), with_norms(rows[1:])
        expected = pairwise_distances(a[0], b[0], 101)[0, 0]
        assert (expected**2 * 101 < _RECOMPUTE_SHARE * (a[1][0] + b[1][0])) == below
        assert expected > 0.0
        assert _distance_sum(a, b, 101) == pytest.approx(expected, rel=RTOL, abs=0)
        assert _distance_sum(b, a, 101) == pytest.approx(expected, rel=RTOL, abs=0)


# u_obs, u_rep and u_cross of two fixed 200-row cnar datasets, printed as JSON
_BLAS_CHILD = """
import json
from conftest import make_params, make_spec
from grancount.model import simulate
from grancount.ppc import _distance_sum, _profiles, _within_distance
spec = make_spec(n=200, k=500, offset=1.0)
obs, rep = (_profiles(simulate(spec, make_params("cnar"), seed=s, model="cnar"), 101)
            for s in (0, 1))
u_cross = _distance_sum(obs, rep, 101) / 200 / 200
print(json.dumps([_within_distance(obs, 101), _within_distance(rep, 101), u_cross]))
"""


def test_energy_components_agree_across_blas_thread_counts():
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(tests), "src"), tests])
    results = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        child = subprocess.run([sys.executable, "-c", _BLAS_CHILD], env=env, capture_output=True,
                               text=True, timeout=120, check=True)
        results.append(json.loads(child.stdout))
    spec = make_spec(n=200, k=500, offset=1.0)
    obs, rep = (_profiles(simulate(spec, make_params("cnar"), seed=s, model="cnar"), 101)[0]
                for s in (0, 1))
    triu = np.triu_indices(200, k=1)
    expected = [pairwise_distances(obs, obs, 101)[triu].mean(),
                pairwise_distances(rep, rep, 101)[triu].mean(),
                pairwise_distances(obs, rep, 101).mean()]
    np.testing.assert_allclose(results[0], results[1], rtol=RTOL, atol=0)
    for result in results:
        np.testing.assert_allclose(result, expected, rtol=RTOL, atol=0)


@pytest.fixture(scope="module")
def fitted_small_posterior():
    """CNAR fit on a small simulated dataset, reused by replicate tests."""
    spec = make_spec(n=40, k=80, seed=31, offset=15.0)
    params = make_params("cnar")
    sim = simulate(spec, params, seed=32, model="cnar")
    post = Posterior(spec, sim, PriorSpec(), "cnar")
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

    def test_zero_reps_rejected(self, fitted_small_posterior):
        spec, sim, draws = fitted_small_posterior
        with pytest.raises(ValidationError, match="n_reps must be at least 1"):
            replicate(draws, spec, "cnar", n_reps=0, seed=0)

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
        triu = np.triu_indices(len(sim), k=1)
        data = _profiles(sim, DEFAULT_GRID)[0]
        u_obs = pairwise_distances(data, data, DEFAULT_GRID)[triu].mean()
        assert summary.u_obs == pytest.approx(u_obs, rel=RTOL, abs=0)
        for r, rep in enumerate(replicate(draws, spec, "cnar", n_reps=3, seed=5)):
            rows = _profiles(rep, DEFAULT_GRID)[0]
            u_rep = pairwise_distances(rows, rows, DEFAULT_GRID)[triu].mean()
            u_cross = pairwise_distances(data, rows, DEFAULT_GRID).mean()
            assert summary.u_rep[r] == pytest.approx(u_rep, rel=RTOL, abs=0)
            assert summary.u_cross[r] == pytest.approx(u_cross, rel=RTOL, abs=0)

    @pytest.mark.parametrize("grid", [0, 1])
    def test_run_ppc_rejects_a_grid_below_two_points(self, fitted_small_posterior, grid):
        spec, sim, draws = fitted_small_posterior
        with pytest.raises(ValidationError, match="grid must have at least 2 points"):
            run_ppc(draws, spec, "cnar", sim, n_reps=2, seed=0, grid=grid)
