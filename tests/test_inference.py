"""HMC: integrator, sampler moments, adaptation, and diagnostics."""

import numpy as np
import pytest

from grancount import HmcConfig, NumericalError, ValidationError, diagnostics, leapfrog, sample
from grancount import inference
from grancount.inference import (
    PosteriorDraws,
    read_draws_csv,
    write_draws_csv,
)


def standard_normal_target(dim):
    def target(phi):
        return float(-0.5 * phi @ phi), -phi

    return target


def quadratic_target(scale):
    """Gaussian log density with per-coordinate scales, and its gradient."""

    def target(q):
        return float(-0.5 * np.sum((q / scale) ** 2)), -q / scale**2

    return target


class TestLeapfrog:
    def test_zero_momentum_zero_field(self):
        def target(q):
            return 0.0, np.zeros_like(q)

        q0 = np.array([1.0, -2.0])
        q, p, logp, _, diverged = leapfrog(
            target, q0, np.zeros(2), np.zeros(2), 0.1, 5, np.ones(2)
        )
        np.testing.assert_array_equal(q, [1.0, -2.0])
        np.testing.assert_array_equal(p, [0.0, 0.0])
        assert logp == 0.0 and not diverged

    def test_single_step_closed_form(self):
        # for the standard Gaussian: q' = q + eps * M^-1 (p - eps/2 * q)
        eps = 0.3
        q0, p0 = np.array([0.7]), np.array([-0.4])
        for inv_mass in (1.0, 2.5):
            q, p, logp, grad, _ = leapfrog(
                quadratic_target(1.0), q0, p0, -q0, eps, 1, np.full(1, inv_mass)
            )
            expected_q = q0 + eps * inv_mass * (p0 - eps / 2.0 * q0)
            expected_p = p0 - eps / 2.0 * (q0 + expected_q)
            np.testing.assert_allclose(q, expected_q, atol=1e-15)
            np.testing.assert_allclose(p, expected_p, atol=1e-15)
            # the returned log density and gradient belong to the end point
            np.testing.assert_allclose(grad, -expected_q, atol=1e-15)
            assert logp == pytest.approx(-0.5 * float(expected_q @ expected_q), abs=1e-15)

    def test_reversibility(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            dim = int(rng.integers(1, 6))
            scale = rng.uniform(0.5, 2.0, size=dim)
            target = quadratic_target(scale)
            ones = np.ones(dim)

            q0 = rng.standard_normal(dim)
            p0 = rng.standard_normal(dim)
            q1, p1, _, g1, d1 = leapfrog(target, q0, p0, target(q0)[1], 0.05, 30, ones)
            q2, p2, _, _, d2 = leapfrog(target, q1, -p1, g1, 0.05, 30, ones)
            assert not (d1 or d2)
            np.testing.assert_allclose(q2, q0, atol=1e-8)
            np.testing.assert_allclose(-p2, p0, atol=1e-8)

    def test_energy_error_scales_quadratically(self):
        rng = np.random.default_rng(4)
        dim = 5
        target = quadratic_target(1.0)

        ratios = []
        for _ in range(40):
            q0 = rng.standard_normal(dim)
            p0 = rng.standard_normal(dim)
            errors = {}
            for eps, steps in [(0.1, 10), (0.05, 20)]:
                _, p, logp, _, _ = leapfrog(target, q0, p0, -q0, eps, steps, np.ones(dim))
                h0 = -target(q0)[0] + 0.5 * p0 @ p0
                h1 = -logp + 0.5 * p @ p
                errors[eps] = abs(h1 - h0)
            ratios.append(errors[0.1] / errors[0.05])
        assert 3.0 <= np.mean(ratios) <= 5.0

    def test_divergence_flag_not_exception(self):
        # a non-finite gradient or log density anywhere on the path flags it
        for logp_bad, grad_bad in [(0.0, np.nan), (-np.inf, 0.0), (np.nan, 0.0)]:

            def target(q):
                return logp_bad, np.full_like(q, grad_bad)

            *_, diverged = leapfrog(
                target, np.zeros(1), np.ones(1), np.zeros(1), 0.1, 3, np.ones(1)
            )
            assert diverged

    def test_step_validation(self):
        target = quadratic_target(1.0)
        args = (np.zeros(1), np.ones(1), np.zeros(1))
        with pytest.raises(ValidationError):
            leapfrog(target, *args, -0.1, 3, np.ones(1))
        with pytest.raises(ValidationError):
            leapfrog(target, *args, 0.1, 0, np.ones(1))


class TestSampler:
    def test_standard_gaussian_moments(self):
        cfg = HmcConfig(n_chains=4, n_warmup=500, n_draws=2500, seed=42, max_leapfrog=32)
        draws = sample(standard_normal_target(1), cfg, np.zeros(1))
        x = draws.draws[:, 0]
        assert abs(x.mean()) < 0.05
        assert abs(x.var() - 1.0) < 0.1
        assert draws.divergence_count == 0

    def test_warmup_divergences_counted_per_chain(self, monkeypatch):
        # Recount every transition with the documented rule: the integrator's
        # flag, or an energy error above DIVERGENCE_THRESHOLD.
        flags = []
        integrate = inference.leapfrog

        def spy(target, q, p, grad, step, n_steps, inv_mass):
            out = integrate(target, q, p, grad, step, n_steps, inv_mass)
            h0 = -target(q)[0] + 0.5 * np.sum(p * p * inv_mass)
            h1 = -out[2] + 0.5 * np.sum(out[1] * out[1] * inv_mass)
            flags.append(out[4] or not h1 - h0 <= inference.DIVERGENCE_THRESHOLD)
            return out

        monkeypatch.setattr(inference, "leapfrog", spy)
        cfg = HmcConfig(n_chains=1, n_warmup=100, n_draws=20, seed=8, max_leapfrog=16)
        draws = sample(standard_normal_target(2), cfg, np.zeros(2))
        # the chain's transitions are the last calls; the step-size search makes the earlier ones
        warmup = flags[-(cfg.n_warmup + cfg.n_draws):-cfg.n_draws]
        sampling = flags[-cfg.n_draws:]
        # dual averaging starts at 10x the initial step, past the leapfrog
        # stability limit of a unit Gaussian (step 2): early warmup diverges
        assert draws.warmup_divergences.tolist() == [sum(warmup)] and sum(warmup) > 0
        assert draws.divergence_count == sum(sampling) == 0

    def test_correlated_gaussian_recovers_correlation(self):
        rho = 0.8
        prec = np.linalg.inv(np.array([[1.0, rho], [rho, 1.0]]))

        def target(phi):
            return float(-0.5 * phi @ prec @ phi), -prec @ phi

        cfg = HmcConfig(n_chains=4, n_warmup=500, n_draws=2500, seed=1, max_leapfrog=32)
        draws = sample(target, cfg, np.zeros(2))
        corr = np.corrcoef(draws.draws.T)[0, 1]
        assert abs(corr - rho) < 0.05

    def test_deterministic_replay(self):
        cfg = HmcConfig(n_chains=2, n_warmup=100, n_draws=200, seed=9, max_leapfrog=16)
        a = sample(standard_normal_target(3), cfg, np.zeros(3))
        b = sample(standard_normal_target(3), cfg, np.zeros(3))
        np.testing.assert_array_equal(a.draws, b.draws)
        np.testing.assert_array_equal(a.energy, b.energy)

    def test_acceptance_tracks_adaptation_target(self):
        # smooth 10-D target: the dual-averaging fixed point is informative
        cfg = HmcConfig(n_chains=4, n_warmup=1000, n_draws=1000, seed=5, max_leapfrog=32)
        draws = sample(standard_normal_target(10), cfg, np.zeros(10))
        assert abs(draws.accept_rate.mean() - cfg.target_accept) <= 0.05

    def test_all_divergent_warmup_raises(self):
        def target(phi):
            if np.all(phi == 0.0):
                return 0.0, np.zeros_like(phi)
            return -np.inf, np.zeros_like(phi)

        cfg = HmcConfig(n_chains=1, n_warmup=50, n_draws=10, seed=0, init_jitter=0.0)
        with pytest.raises(NumericalError, match="re-parametrization"):
            sample(target, cfg, np.zeros(2))

    def test_constrain_applied_to_storage(self):
        cfg = HmcConfig(n_chains=2, n_warmup=100, n_draws=100, seed=3, max_leapfrog=8)
        draws = sample(
            standard_normal_target(1),
            cfg,
            np.zeros(1),
            names=["scale"],
            constrain=np.exp,
        )
        assert np.all(draws.draws > 0.0)


class TestDiagnostics:
    def _draws_from_chains(self, chains):
        c, m, dim = chains.shape
        return PosteriorDraws(
            names=tuple(f"x{j}" for j in range(dim)),
            draws=chains.reshape(c * m, dim),
            chain=np.repeat(np.arange(c), m),
            iteration=np.tile(np.arange(m), c),
            energy=np.zeros(c * m),
            divergent=np.zeros(c * m, dtype=bool),
            accept_rate=np.full(c, 0.9),
            step_size=np.full(c, 0.1),
            inv_mass=np.ones((c, dim)),
        )

    def test_iid_chains_look_converged(self):
        rng = np.random.default_rng(0)
        chains = rng.standard_normal((4, 1000, 2))
        table = diagnostics(self._draws_from_chains(chains))
        assert np.all((table.rhat > 0.99) & (table.rhat < 1.01))
        assert np.all(table.ess_bulk >= 0.5 * 4000)

    def test_shifted_chain_flags(self):
        rng = np.random.default_rng(1)
        chains = rng.standard_normal((4, 500, 1))
        chains[0] += 5.0
        table = diagnostics(self._draws_from_chains(chains))
        assert table.rhat[0] > 1.2
        assert any("exceeds" in f for f in table.flags)

    def test_constant_chains_guarded(self):
        chains = np.ones((4, 100, 1))
        table = diagnostics(self._draws_from_chains(chains))
        assert np.isnan(table.rhat[0])
        assert any("constant" in f for f in table.flags)

    def test_single_chain_warns_and_omits_rhat(self):
        rng = np.random.default_rng(2)
        chains = rng.standard_normal((1, 400, 1))
        table = diagnostics(self._draws_from_chains(chains))
        assert np.isnan(table.rhat[0])
        assert any("single chain" in f for f in table.flags)
        assert np.isfinite(table.ess_bulk[0])


class TestPersistence:
    def test_draws_csv_round_trip(self, tmp_path):
        cfg = HmcConfig(n_chains=2, n_warmup=50, n_draws=60, seed=12, max_leapfrog=8)
        draws = sample(standard_normal_target(2), cfg, np.zeros(2), names=["a", "b"])
        path = tmp_path / "draws.csv"
        write_draws_csv(path, draws)
        back = read_draws_csv(path)
        assert back.names == ("a", "b")
        np.testing.assert_array_equal(back.draws, draws.draws)
        np.testing.assert_array_equal(back.chain, draws.chain)
        np.testing.assert_array_equal(back.energy, draws.energy)
        np.testing.assert_array_equal(back.divergent, draws.divergent)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "draws.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValidationError):
            read_draws_csv(path)
