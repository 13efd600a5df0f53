"""Beta-type fuzzy counts: evaluation, level sets, fitting, centroids."""

import math

import numpy as np
import pytest

from grancount import ValidationError, fuzzy
from grancount.fuzzy import (
    CRISP_PRECISION_CEILING,
    BetaFuzzy,
    _GridSSE,
    _scan_c,
    beta_centroids,
    fit_beta,
    kl_divergence,
    kl_membership,
    membership_grid,
    read_stats_csv,
    write_stats_csv,
)
from grancount.possibility import MembershipVector, PossibilityAssignment, granular_count_fast

from oracles import fit_beta_alternating


def membership(c, h, k):
    """Memberships of the Beta-type count (c, h, K) on its grid y = 0..K."""
    return kl_membership(c / k, h, np.arange(k + 1) / k)


def grid_vector(c, h, k):
    """The membership vector of the Beta-type count (c, h, K), as `fit` reads it."""
    return MembershipVector(membership(c, h, k))


def centroid(c, h, k):
    return float(beta_centroids(np.array([c]), np.array([h]), np.array([k]))[0])


def possibility_counts(seed, n_obs, n_ref, partial_share):
    """Granular counts of a seeded possibility matrix: each row has one referent
    at degree 1 and partial degrees in steps of 0.1 on `partial_share` of the others."""
    rng = np.random.default_rng(seed)
    degrees = np.zeros((n_obs, n_ref))
    partial = rng.random((n_obs, n_ref)) < partial_share
    degrees[partial] = rng.integers(1, 10, int(partial.sum())) / 10
    degrees[np.arange(n_obs), rng.integers(0, n_ref, n_obs)] = 1.0
    assign = PossibilityAssignment(degrees)
    return [granular_count_fast(assign, r) for r in range(n_ref)]


class TestMembership:
    def test_peak_value_is_one_at_location(self):
        assert membership(8.0, 25.0, 16)[8] == 1.0

    def test_zero_location_boundary_conventions(self):
        grid = membership(0.0, 3.0, 10)
        assert grid[0] == 1.0
        assert grid[10] == 0.0

    def test_divergence_form_closed_value(self):
        # exp(-10 * kl(1/2, 1/4)) = 2^-5 * (3/2)^5 = 243/1024, checked to 40
        # digits with mpmath
        assert abs(membership(10.0, 10.0, 20)[5] - 243.0 / 1024.0) < 1e-15

    def test_infinite_precision_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            BetaFuzzy(5.0, math.inf, 10)

    def test_out_of_range_count(self):
        for location in (-1e-9, 4.5):
            with pytest.raises(ValidationError, match="outside"):
                BetaFuzzy(location=location, precision=1.0, k_max=4)

    def test_precision_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(4, 30))
            c = float(rng.uniform(0, k))
            h = float(rng.uniform(0.5, 50))
            lo = membership(c, h, k)
            hi = membership(c, h * rng.uniform(1.0, 4.0), k)
            off_mode = np.arange(k + 1) / k != c / k
            assert np.all(hi[off_mode] <= lo[off_mode] + 1e-15)

    def test_unimodality(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k = int(rng.integers(4, 30))
            c = float(rng.uniform(0, k))
            grid = membership(c, float(rng.uniform(0.5, 60)), k)
            mode = c / k
            t = np.arange(k + 1) / k
            rising = grid[t <= mode]
            falling = grid[t >= mode]
            assert np.all(np.diff(rising) >= -1e-15)
            assert np.all(np.diff(falling) <= 1e-15)

    def test_grid_max_at_nearest_point(self):
        assert int(np.argmax(membership(7.3, 12.0, 20))) == 7

    def test_kl_conventions(self):
        assert kl_divergence(0.0, 0.0) == 0.0
        assert kl_divergence(0.0, 1.0) == math.inf
        assert kl_divergence(1.0, 0.0) == math.inf
        assert kl_divergence(0.5, 0.5) == 0.0
        assert math.isnan(kl_divergence(math.nan, 0.5))

    def test_kl_is_never_negative_near_t_equal_m(self):
        m = np.random.default_rng(3).uniform(0.0, 1.0, 2000)
        t = np.clip(m[:, None] + np.arange(-4, 5) * np.spacing(m)[:, None], 0.0, 1.0)
        assert (kl_divergence(m[:, None], t) >= 0.0).all()

    def test_kl_broadcasts_over_m_and_t(self):
        m, t = np.array([0.0, 0.3, 1.0]), np.array([0.0, 0.25, 0.5, 1.0])
        expected = [[kl_divergence(a, b) for b in t] for a in m]
        out = kl_divergence(m[:, None], t[None, :])
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(kl_divergence(m, 0.25), out[:, 1])
        assert np.isinf(out[1, [0, 3]]).all() and out[0, 0] == out[2, 3] == 0.0


class TestAlphaCut:
    """Level sets {y : membership >= alpha} of `kl_membership` on the grid."""

    @staticmethod
    def cut(c, h, k, alpha):
        return np.flatnonzero(membership(c, h, k) >= alpha).tolist()

    def test_core_at_integral_location(self):
        assert self.cut(5.0, 30.0, 12, 1.0) == [5]

    def test_small_alpha_gives_support(self):
        # interior location: boundary points have membership exactly 0
        assert self.cut(5.0, 30.0, 12, 1e-300) == list(range(1, 12))

    def test_cut_contains_quarter_point(self):
        # membership at t=0.25 is 243/1024 ~ 0.237 >= 0.2
        cut = self.cut(10.0, 10.0, 20, 0.2)
        assert 5 in cut and cut == list(range(cut[0], cut[-1] + 1))


class TestFit:
    def test_crisp_vector_hits_ceiling(self):
        values = np.zeros(13)
        values[4] = 1.0
        fit = fit_beta(MembershipVector(values))
        assert fit.location == 4.0
        assert fit.precision == CRISP_PRECISION_CEILING
        assert fit.converged and fit.degenerate
        assert fit.sse < 1e-12

    def test_symmetric_vector_centers(self):
        k = 10
        t = np.arange(k + 1) / k
        values = np.exp(-8.0 * (t - 0.5) ** 2)
        values /= values.max()
        fit = fit_beta(MembershipVector(values))
        assert abs(fit.location - k / 2) < 1e-6

    def test_round_trip_recovery(self):
        fit = fit_beta(grid_vector(6.0, 40.0, 20))
        assert abs(fit.location - 6.0) <= 0.05
        assert abs(fit.precision - 40.0) / 40.0 <= 0.05
        assert fit.sse < 1e-10

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            k = int(rng.integers(8, 40))
            c = float(rng.integers(1, k))
            h = float(np.exp(rng.uniform(np.log(3.0), np.log(300.0))))
            fit = fit_beta(grid_vector(c, h, k))
            assert abs(fit.location - c) <= 0.05
            assert abs(fit.precision - h) / h <= 0.05

    def test_requires_normalized_input(self):
        with pytest.raises(ValidationError, match="normalized"):
            fit_beta(MembershipVector([0.2, 0.5, 0.2]))

    def test_tolerance_below_float_spacing_terminates(self, monkeypatch):
        monkeypatch.setattr(fuzzy, "FIT_TOL", 1e-15)  # read at each call
        fit = fit_beta(grid_vector(6.0, 40.0, 20))
        assert abs(fit.location - 6.0) <= 0.05
        assert abs(fit.precision - 40.0) / 40.0 <= 0.05

    def test_never_worse_than_alternating_oracle(self):
        # four count vectors shaped like the benchmark's (500 reads, 40 referents),
        # then counts of small random possibility matrices and noisy Beta shapes
        vectors = possibility_counts(1, 500, 40, 0.1)[:4]
        rng = np.random.default_rng(2)
        for seed in range(8):
            vectors += possibility_counts(seed, int(rng.integers(2, 40)), 3, rng.uniform(0.05, 0.5))
        for _ in range(12):
            k = int(rng.integers(2, 40))
            values = membership(rng.uniform(0.0, k), math.exp(rng.uniform(-2.0, 6.0)), k)
            values = values + 0.05 * rng.random(k + 1)
            vectors.append(MembershipVector(values / values.max()))
        # a flat top, fitted with h at its floor; a vector with no count at or
        # below half height; two-peaked vectors where the first refinement
        # stops in the higher basin
        vectors += [MembershipVector([0.0, 1.0, 1.0, 1.0, 1.0, 0.0]),
                    MembershipVector([0.6, 0.8, 1.0, 0.9, 0.7]),
                    MembershipVector([0.0, 0.54, 0.0, 1.0, 0.07, 0.0, 0.99]),
                    MembershipVector([1.0, 0.15, 0.05, 0.0, 0.0, 0.74, 0.0, 0.0, 0.0, 0.66,
                                      0.88, 0.56, 0.0, 0.13])]
        for mv in vectors:
            if mv.support().size > 1:  # the oracle has no degenerate path
                new, old = fit_beta(mv), fit_beta_alternating(mv)
                assert new.sse <= old.sse * (1.0 + 1e-9) + 1e-12, mv.memberships

    def test_convergence_survives_one_ulp_nudges(self):
        for mv in possibility_counts(0, 500, 20, 0.2):
            fit = fit_beta(mv)
            nudged = fit_beta(MembershipVector(np.nextafter(mv.memberships, 0.0)))
            assert fit.converged and nudged.converged
            assert abs(fit.location - nudged.location) <= 1e-9
            assert abs(math.log(fit.precision / nudged.precision)) <= 1e-9

    @pytest.mark.parametrize("c,h,k", [(0.0, 30.0, 20), (20.0, 30.0, 20), (0.0, 3.0, 500),
                                       (500.0, 0.5, 500)])
    def test_vector_peaked_at_an_edge_is_fitted_exactly(self, c, h, k):
        fit = fit_beta(grid_vector(c, h, k))
        assert fit.location == c
        assert fit.precision == pytest.approx(h, rel=1e-6)
        assert fit.sse < 1e-12

    def test_step_with_empty_last_count_fits_the_limit_below_k(self):
        # kl(m, 1) is infinite for every m < 1, so the loss jumps at m = 1 and
        # the best fit is the limit from inside
        values = np.array([0.0, 0.5, 0.5, 0.5, 1.0, 0.0])
        fit = fit_beta(MembershipVector(values))
        assert 5.0 - 1e-3 < fit.location < 5.0
        sse, h = _GridSSE(values, 5), fit.precision
        assert fit.sse < sse(1.0 - 1e-8, h) < sse(1.0, h) - 0.5
        assert fit.sse <= fit_beta_alternating(MembershipVector(values)).sse

    @pytest.mark.parametrize("values", [[0.0, 1.0, 0.5, 0.0], [0.0, 1.0, 0.999, 0.0]])
    def test_exact_two_point_fit_converges(self, values):
        # exp(-h kl(1/3, t)) meets both points at c = 1; the count there has kl = 0,
        # so its row of the Jacobian vanishes and the step rule alone never fires
        fit = fit_beta(MembershipVector(values))
        assert fit.converged and fit.iterations <= 100
        assert fit.sse < 1e-16
        assert fit.location == pytest.approx(1.0, abs=1e-2)


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

    @pytest.mark.parametrize("k", [7, 500])
    def test_gauss_newton_terms_match_central_differences(self, k):
        # the gradient of the SSE is 2 J'r; at a zero residual its Jacobian is J'J
        rng = np.random.default_rng(k)
        eps = 1e-6
        for m, s in zip(rng.uniform(0.05, 0.95, 6), rng.uniform(-1.0, 4.0, 6)):
            sse = _GridSSE(rng.uniform(0.0, 1.0, k + 1), k)
            value, (g_m, g_s), _ = sse.gauss_newton(m, s)
            assert value == sse(m, math.exp(s))
            d_m = (sse(m + eps, math.exp(s)) - sse(m - eps, math.exp(s))) / (2 * eps)
            d_s = (sse(m, math.exp(s + eps)) - sse(m, math.exp(s - eps))) / (2 * eps)
            assert 2 * g_m == pytest.approx(d_m, rel=1e-5, abs=1e-8)
            assert 2 * g_s == pytest.approx(d_s, rel=1e-5, abs=1e-8)

            exact = _GridSSE(membership(m * k, math.exp(s), k), k)
            _, _, (h_mm, h_ms, h_ss) = exact.gauss_newton(m, s)
            up_m, down_m = exact.gauss_newton(m + eps, s)[1], exact.gauss_newton(m - eps, s)[1]
            up_s, down_s = exact.gauss_newton(m, s + eps)[1], exact.gauss_newton(m, s - eps)[1]
            assert (up_m[0] - down_m[0]) / (2 * eps) == pytest.approx(h_mm, rel=1e-5, abs=1e-8)
            assert (up_m[1] - down_m[1]) / (2 * eps) == pytest.approx(h_ms, rel=1e-5, abs=1e-8)
            assert (up_s[1] - down_s[1]) / (2 * eps) == pytest.approx(h_ss, rel=1e-5, abs=1e-8)

    @pytest.mark.parametrize("m", [-1e-12, 1.0 + 1e-12, math.nan, -math.inf])
    def test_sse_rejects_location_outside_unit_interval(self, m):
        with pytest.raises(ValidationError, match="m must lie"):
            _GridSSE(np.ones(11), 10)(m, 1.0)


class TestDefuzzify:
    """`beta_centroids`, the defuzzified counts of the `scalar` model."""

    def test_crisp_gives_the_point(self):
        # every other membership underflows to exactly 0 at the crisp ceiling
        assert centroid(3.0, CRISP_PRECISION_CEILING, 8) == 3.0

    def test_symmetric_gives_center(self):
        assert centroid(5.0, 4.0, 10) == pytest.approx(5.0, abs=1e-12)

    def test_weighted_fixture(self):
        # K=4, c=1, h=4: the memberships of y=0..4 are 0, 1, 16/27, 1/9, 0, as
        # exp(-4 kl(1/4, 1/2)) = (2^(1/4) / 1.5^(3/4))^4 and exp(-4 kl(1/4, 3/4)) = 3^-2;
        # the centroid is (1 + 2 * 16/27 + 3 * 1/9) / (1 + 16/27 + 1/9) = 34/23
        assert abs(centroid(1.0, 4.0, 4) - 34.0 / 23.0) < 1e-14

    def test_within_support_hull(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            k = int(rng.integers(2, 20))
            c, h = float(rng.uniform(0, k)), float(rng.uniform(0.5, 60))
            support = np.flatnonzero(membership(c, h, k) > 0.0)
            assert support[0] <= centroid(c, h, k) <= support[-1]

    def test_beta_centroid_crisp_limit(self):
        # integral location, enormous precision: centroid collapses to c
        assert abs(centroid(7.0, 1e6, 20) - 7.0) < 1e-8
        # off the grid the memberships all underflow; weighed from the peak, the
        # centroid is the nearest count
        assert centroid(7.3, 1e6, 20) == 7.0

    def test_mixed_k_equals_the_rows_alone(self):
        rng = np.random.default_rng(8)
        k = rng.choice([1, 3, 20, 500, 5000], size=300)
        c = np.where(k == 1, rng.integers(0, 2, 300), rng.uniform(0.0, k))
        h = np.exp(rng.uniform(-2.0, 14.0, 300))
        out = beta_centroids(c, h, k)
        # one matrix product per block sums in another order than a one-row call
        np.testing.assert_allclose(out, [centroid(*row) for row in zip(c, h, k)],
                                   rtol=1e-14, atol=1e-12)
        assert out[k == 1].tolist() == c[k == 1].tolist()

    def test_k1_interior_location_rejected(self):
        c, h, k = np.array([2.0, 0.5]), np.array([5.0, 5.0]), np.array([10, 1])
        with pytest.raises(ValidationError, match="report 1: c=0.5, K=1"):
            beta_centroids(c, h, k)


class TestStatsCsv:
    def test_round_trip(self, tmp_path):
        fits = [fit_beta(grid_vector(6.0, 40.0, 20))]
        path = tmp_path / "stats.csv"
        write_stats_csv(path, ["s1"], fits)
        ids, locs, precs, ks = read_stats_csv(path)
        assert ids == ["s1"]
        assert abs(locs[0] - fits[0].location) < 1e-12
        assert abs(precs[0] - fits[0].precision) < 1e-9
        assert ks[0] == 20

    @pytest.mark.parametrize("row", ["11.0,5.0,10", "nan,5.0,10", "4.0,inf,10", "0.0,5.0,0"])
    def test_row_outside_the_family_names_file_line_and_sample(self, tmp_path, row):
        path = tmp_path / "stats.csv"
        path.write_text(f"sample_id,c,h,K\ns1,2.0,5.0,10\ns2,{row}\n")
        with pytest.raises(ValidationError, match=f"stats.csv: line 3, sample_id 's2': .* outside"):
            read_stats_csv(path)

    def test_ids_and_fits_must_match_in_length(self, tmp_path):
        fits = [fit_beta(grid_vector(6.0, 40.0, 20))]
        with pytest.raises(ValidationError, match="ids and fits must have matching length"):
            write_stats_csv(tmp_path / "stats.csv", ["s1", "s2"], fits)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "stats.csv"
        for row in ("s1,1.0,bad,20", "s1,1.0,5.0,48.9"):
            path.write_text(f"sample_id,c,h,K\n{row}\n")
            with pytest.raises(ValidationError, match="line 2"):
                read_stats_csv(path)
