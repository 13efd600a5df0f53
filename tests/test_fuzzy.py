"""Beta-type fuzzy counts: evaluation, cuts, fitting, defuzzification."""

import math

import numpy as np
import pytest

from grancount import (
    BetaFuzzy,
    ValidationError,
    alpha_cut,
    beta_centroid,
    beta_membership,
    bernoulli_kl,
    defuzzify,
    fit_beta,
    membership_grid,
)
from grancount.fuzzy import (
    CRISP_PRECISION_CEILING,
    _GridSSE,
    _scan_c,
    kl_divergence,
    kl_membership,
    read_stats_csv,
    to_membership_vector,
    write_stats_csv,
)
from grancount.possibility import MembershipVector


class TestMembership:
    def test_peak_value_is_one_at_location(self):
        fz = BetaFuzzy(location=8.0, precision=25.0, k_max=16)
        assert beta_membership(fz, 8) == 1.0

    def test_zero_location_boundary_conventions(self):
        fz = BetaFuzzy(location=0.0, precision=3.0, k_max=10)
        assert beta_membership(fz, 0) == 1.0
        assert beta_membership(fz, 10) == 0.0

    def test_divergence_form_closed_value(self):
        # exp(-10 * kl(1/2, 1/4)) = 2^-5 * (3/2)^5 = 243/1024, checked to 40
        # digits with mpmath
        fz = BetaFuzzy(location=10.0, precision=10.0, k_max=20)
        assert abs(beta_membership(fz, 5) - 243.0 / 1024.0) < 1e-15

    def test_infinite_precision_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            BetaFuzzy(5.0, math.inf, 10)

    def test_out_of_range_count(self):
        fz = BetaFuzzy(location=1.0, precision=1.0, k_max=4)
        with pytest.raises(ValidationError):
            beta_membership(fz, 5)

    def test_precision_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(4, 30))
            c = float(rng.uniform(0, k))
            h = float(rng.uniform(0.5, 50))
            lo = membership_grid(BetaFuzzy(c, h, k))
            hi = membership_grid(BetaFuzzy(c, h * rng.uniform(1.0, 4.0), k))
            off_mode = np.arange(k + 1) / k != c / k
            assert np.all(hi[off_mode] <= lo[off_mode] + 1e-15)

    def test_unimodality(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k = int(rng.integers(4, 30))
            fz = BetaFuzzy(float(rng.uniform(0, k)), float(rng.uniform(0.5, 60)), k)
            grid = membership_grid(fz)
            mode = fz.location / k
            t = np.arange(k + 1) / k
            rising = grid[t <= mode]
            falling = grid[t >= mode]
            assert np.all(np.diff(rising) >= -1e-15)
            assert np.all(np.diff(falling) <= 1e-15)

    def test_grid_max_at_nearest_point(self):
        fz = BetaFuzzy(location=7.3, precision=12.0, k_max=20)
        grid = membership_grid(fz)
        assert int(np.argmax(grid)) == 7

    def test_kl_conventions(self):
        assert bernoulli_kl(0.0, 0.0) == 0.0
        assert bernoulli_kl(0.0, 1.0) == math.inf
        assert bernoulli_kl(1.0, 0.0) == math.inf
        assert bernoulli_kl(0.5, 0.5) == 0.0

    @pytest.mark.parametrize("t", [-0.1, 1.1, math.nan, [0.2, math.nan]])
    def test_kl_rejects_t_outside_unit_interval(self, t):
        with pytest.raises(ValidationError, match="t must lie"):
            bernoulli_kl(0.5, t)


class TestAlphaCut:
    def test_core_at_integral_location(self):
        fz = BetaFuzzy(location=5.0, precision=30.0, k_max=12)
        assert alpha_cut(fz, 1.0) == (5, 5)

    def test_small_alpha_gives_support(self):
        fz = BetaFuzzy(location=5.0, precision=30.0, k_max=12)
        # interior location: boundary points have membership exactly 0
        assert alpha_cut(fz, 1e-300) == (1, 11)

    def test_cut_contains_quarter_point(self):
        # membership at t=0.25 is 243/1024 ~ 0.237 >= 0.2
        fz = BetaFuzzy(location=10.0, precision=10.0, k_max=20)
        lo, hi = alpha_cut(fz, 0.2)
        assert lo <= 5 <= hi

    def test_alpha_range_validated(self):
        fz = BetaFuzzy(location=1.0, precision=1.0, k_max=4)
        with pytest.raises(ValidationError):
            alpha_cut(fz, 0.0)
        with pytest.raises(ValidationError):
            alpha_cut(fz, 1.5)


class TestFit:
    def test_crisp_vector_hits_ceiling(self):
        values = np.zeros(13)
        values[4] = 1.0
        fit = fit_beta(MembershipVector(values))
        assert fit.params.location == 4.0
        assert fit.params.precision == CRISP_PRECISION_CEILING
        assert fit.converged and fit.degenerate
        assert fit.sse < 1e-12

    def test_symmetric_vector_centers(self):
        k = 10
        t = np.arange(k + 1) / k
        values = np.exp(-8.0 * (t - 0.5) ** 2)
        values /= values.max()
        fit = fit_beta(MembershipVector(values))
        assert abs(fit.params.location - k / 2) < 1e-6

    def test_round_trip_recovery(self):
        mv = to_membership_vector(BetaFuzzy(6.0, 40.0, 20))
        fit = fit_beta(mv)
        assert abs(fit.params.location - 6.0) <= 0.05
        assert abs(fit.params.precision - 40.0) / 40.0 <= 0.05
        assert fit.sse < 1e-10

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            k = int(rng.integers(8, 40))
            c = float(rng.integers(1, k))
            h = float(np.exp(rng.uniform(np.log(3.0), np.log(300.0))))
            fit = fit_beta(to_membership_vector(BetaFuzzy(c, h, k)))
            assert abs(fit.params.location - c) <= 0.05
            assert abs(fit.params.precision - h) / h <= 0.05

    def test_requires_normalized_input(self):
        with pytest.raises(ValidationError, match="normalized"):
            fit_beta(MembershipVector([0.2, 0.5, 0.2]))

    def test_tolerance_below_float_spacing_terminates(self):
        fit = fit_beta(to_membership_vector(BetaFuzzy(6.0, 40.0, 20)), tol=1e-15)
        assert abs(fit.params.location - 6.0) <= 0.05
        assert abs(fit.params.precision - 40.0) / 40.0 <= 0.05

    @pytest.mark.parametrize(
        "kwargs",
        [{"tol": 0.0}, {"tol": -1.0}, {"tol": math.nan}, {"max_iter": 0}, {"max_iter": -3},
         {"crisp_ceiling": 1e-4}, {"crisp_ceiling": 1e-3}, {"crisp_ceiling": -1.0},
         {"crisp_ceiling": math.inf}, {"crisp_ceiling": math.nan}],
    )
    def test_bad_arguments_rejected(self, kwargs):
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            fit_beta(to_membership_vector(BetaFuzzy(6.0, 40.0, 20)), **kwargs)


class TestFitKernels:
    """The fit's precomputed SSE and location scan give the bits of the direct formulas."""

    @pytest.mark.parametrize("k", [1, 2, 7, 500])
    def test_sse_matches_membership_grid_exactly(self, k):
        rng = np.random.default_rng(k)
        v = rng.uniform(0.0, 1.0, k + 1)
        sse = _GridSSE(v, k)
        for c in [0.0, 1.0, float(k), *rng.uniform(0.0, k, 20)]:
            for h in np.exp(rng.uniform(math.log(1e-3), math.log(1e6), 5)):
                resid = v - membership_grid(BetaFuzzy(c, h, k))
                assert sse(c / k, h) == float(resid @ resid), (c, h)

    def test_scan_c_matches_brute_force_argmin(self):
        k = 500
        rng = np.random.default_rng(5)
        t = np.arange(k + 1) / k
        v = rng.uniform(0.0, 1.0, k + 1)
        div_matrix = kl_divergence(t[:, None], t[None, :])
        for h in np.exp(rng.uniform(math.log(1e-3), math.log(1e6), 50)):
            resid = kl_membership(t[:, None], h, t[None, :]) - v
            expected = int(np.argmin(np.einsum("ij,ij->i", resid, resid)))
            assert _scan_c(v, div_matrix, h) == expected, h

    @pytest.mark.parametrize("m", [-1e-12, 1.0 + 1e-12, math.nan, -math.inf])
    def test_sse_rejects_location_outside_unit_interval(self, m):
        with pytest.raises(ValidationError, match="m must lie"):
            _GridSSE(np.ones(11), 10)(m, 1.0)


class TestDefuzzify:
    def test_crisp_gives_the_point(self):
        values = np.zeros(9)
        values[3] = 1.0
        assert defuzzify(MembershipVector(values)) == 3.0

    def test_symmetric_gives_center(self):
        values = np.array([0.25, 1.0, 0.25])
        assert defuzzify(MembershipVector(values)) == 1.0

    def test_weighted_fixture(self):
        # (0*0.5 + 1*1.0 + 2*0.25) / 1.75 = 6/7
        mv = MembershipVector([0.5, 1.0, 0.25])
        assert abs(defuzzify(mv) - 6.0 / 7.0) < 1e-15

    def test_within_support_hull(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            values = rng.uniform(0, 1, size=int(rng.integers(2, 20)))
            values[rng.integers(0, values.size)] = 1.0
            mv = MembershipVector(values)
            support = mv.support()
            assert support[0] <= defuzzify(mv) <= support[-1]

    def test_beta_centroid_crisp_limit(self):
        # integral location, enormous precision: centroid collapses to c
        assert abs(beta_centroid(BetaFuzzy(7.0, 1e6, 20)) - 7.0) < 1e-8


class TestStatsCsv:
    def test_round_trip(self, tmp_path):
        mv = to_membership_vector(BetaFuzzy(6.0, 40.0, 20))
        fits = [fit_beta(mv)]
        path = tmp_path / "stats.csv"
        write_stats_csv(path, ["s1"], fits)
        ids, locs, precs, ks = read_stats_csv(path)
        assert ids == ["s1"]
        assert abs(locs[0] - fits[0].params.location) < 1e-12
        assert abs(precs[0] - fits[0].params.precision) < 1e-9
        assert ks[0] == 20

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "stats.csv"
        for row in ("s1,1.0,bad,20", "s1,1.0,5.0,48.9"):
            path.write_text(f"sample_id,c,h,K\n{row}\n")
            with pytest.raises(ValidationError, match="line 2"):
                read_stats_csv(path)
