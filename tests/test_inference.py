"""HMC: integrator, sampler moments, adaptation, and diagnostics."""

import re

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import rankdata

from grancount import NumericalError, ValidationError, inference
from grancount.inference import (
    HmcConfig,
    PosteriorDraws,
    diagnostics,
    leapfrog,
    read_draws_csv,
    sample,
    write_draws_csv,
)
from oracles import ess_from_chains_loop, leapfrog_loop


def standard_normal_target(dim):
    def target(phi, need_logp=True):
        return float(-0.5 * phi @ phi), -phi

    return target


def quadratic_target(scale):
    """Gaussian log density with per-coordinate scales, and its gradient."""

    def target(q, need_logp=True):
        return float(-0.5 * np.sum((q / scale) ** 2)), -q / scale**2

    return target


def slab_target(q, need_logp=True):
    """Standard normal, whose log density alone is -inf on the slab 1 < q[0] < 2.

    The gradient stays finite there, so a gradient-only call returns the stand-in
    0.0, as `Posterior` does at a point where only the log density fails.
    """
    if not need_logp:
        return 0.0, -q
    return (-np.inf if 1.0 < q[0] < 2.0 else float(-0.5 * q @ q)), -q


class TestLeapfrog:
    def test_zero_momentum_zero_field(self):
        def target(q, need_logp=True):
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

            def target(q, need_logp=True):
                return logp_bad, np.full_like(q, grad_bad)

            *_, diverged = leapfrog(
                target, np.zeros(1), np.ones(1), np.zeros(1), 0.1, 3, np.ones(1)
            )
            assert diverged

    # the target fails at call `bad_call` only: one NaN gradient entry at an inner
    # or the last step, or a -inf log density on the last step, the one full call
    @pytest.mark.parametrize("failure, bad_call, n_steps", [
        ("nan-gradient-entry", 3, 7), ("nan-gradient-entry", 7, 7), ("nan-gradient-entry", 1, 1),
        ("neg-inf-logp", 7, 7), ("neg-inf-logp", 1, 1),
    ])
    def test_a_nonfinite_call_stops_where_the_reference_loop_stops(self, failure, bad_call,
                                                                   n_steps):
        def failing_target():
            calls, gaussian = [0], quadratic_target(np.array([1.0, 2.0, 0.5]))

            def target(q, need_logp=True):
                calls[0] += 1
                logp, grad = gaussian(q)
                if calls[0] == bad_call:
                    if failure == "neg-inf-logp":
                        return -np.inf, grad
                    grad[1] = np.nan
                return (logp if need_logp else 0.0), grad

            return target

        q0, p0 = np.array([0.3, -0.2, 0.9]), np.array([1.0, 0.5, -2.0])
        args = (q0, p0, -q0 / np.array([1.0, 4.0, 0.25]), 0.1, n_steps, np.array([1.0, 0.5, 2.0]))
        got = leapfrog(failing_target(), *args)
        expected = leapfrog_loop(failing_target(), *args)
        assert got[4] is expected[4] is True
        for value, reference in zip(got[:4], expected[:4]):
            np.testing.assert_array_equal(value, reference)
        # the caller's arrays are not moved
        np.testing.assert_array_equal(q0, [0.3, -0.2, 0.9])
        np.testing.assert_array_equal(p0, [1.0, 0.5, -2.0])

    @pytest.mark.parametrize("n_steps", [1, 2, 7])
    def test_inner_steps_ask_for_the_gradient_alone(self, n_steps):
        kinds, gaussian = [], quadratic_target(1.0)

        def target(q, need_logp=True):
            kinds.append(need_logp)
            return gaussian(q)

        leapfrog(target, np.zeros(2), np.ones(2), np.zeros(2), 0.1, n_steps, np.ones(2))
        assert kinds == [False] * (n_steps - 1) + [True]

    def test_a_slab_crossed_at_an_inner_step_is_judged_at_the_end(self):
        # from q = 0 with p = 4 and step 0.3 the positions are 1.2 (in the slab), 2.29, 3.18
        visited = []

        def target(q, need_logp=True):
            visited.append(q[0])
            return slab_target(q, need_logp)

        q, _, logp, _, diverged = leapfrog(
            target, np.zeros(1), np.full(1, 4.0), np.zeros(1), 0.3, 3, np.ones(1)
        )
        assert 1.0 < visited[0] < 2.0 and q[0] > 2.0 and not diverged
        assert logp == slab_target(q)[0] == pytest.approx(-0.5 * q[0] ** 2)

    def test_a_trajectory_ending_in_the_slab_diverges(self):
        q, _, logp, _, diverged = leapfrog(
            slab_target, np.zeros(1), np.full(1, 4.0), np.zeros(1), 0.3, 1, np.ones(1)
        )
        assert 1.0 < q[0] < 2.0 and diverged and logp == -np.inf

    def test_step_validation(self):
        target = quadratic_target(1.0)
        args = (np.zeros(1), np.ones(1), np.zeros(1))
        with pytest.raises(ValidationError):
            leapfrog(target, *args, -0.1, 3, np.ones(1))
        with pytest.raises(ValidationError):
            leapfrog(target, *args, 0.1, 0, np.ones(1))


class TestStepSearch:
    def test_flat_target_doubles_up_to_the_bound(self):
        # every trial keeps the energy: doubling runs until the next step reaches 1e3
        def target(q, need_logp=True):
            return 0.0, np.zeros_like(q)

        rng = np.random.default_rng(0)
        assert inference._reasonable_epsilon(target, np.zeros(2), 0.0, np.zeros(2), rng) == 512.0

    def test_box_target_stops_at_the_first_step_that_leaves(self):
        # flat inside |q| <= 10 |p|: steps 1..8 stay inside, 16 leaves the box
        (p,) = np.random.default_rng(3).standard_normal(1)

        def target(q, need_logp=True):
            inside = abs(q[0]) <= 10.0 * abs(p)
            return (0.0 if inside else -np.inf), np.zeros_like(q)

        rng = np.random.default_rng(3)
        assert inference._reasonable_epsilon(target, np.zeros(1), 0.0, np.zeros(1), rng) == 8.0


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
        # flag, or an energy error above DIVERGENCE_THRESHOLD. Only the leapfrog
        # calls made inside a transition count, not those of the step-size search.
        flags, in_transition = [], [False]
        integrate, transition = inference.leapfrog, inference._transition

        def spy(target, q, p, grad, step, n_steps, inv_mass):
            out = integrate(target, q, p, grad, step, n_steps, inv_mass)
            if in_transition[0]:
                h0 = -target(q)[0] + 0.5 * np.sum(p * p * inv_mass)
                h1 = -out[2] + 0.5 * np.sum(out[1] * out[1] * inv_mass)
                flags.append(out[4] or not h1 - h0 <= inference.DIVERGENCE_THRESHOLD)
            return out

        def transition_spy(*args):
            in_transition[0] = True
            out = transition(*args)
            in_transition[0] = False
            return out

        monkeypatch.setattr(inference, "leapfrog", spy)
        monkeypatch.setattr(inference, "_transition", transition_spy)
        cfg = HmcConfig(n_chains=1, n_warmup=100, n_draws=20, seed=8, max_leapfrog=16)
        draws = sample(standard_normal_target(2), cfg, np.zeros(2))
        assert len(flags) == cfg.n_warmup + cfg.n_draws
        warmup, sampling = flags[: cfg.n_warmup], flags[cfg.n_warmup :]
        # dual averaging starts at 10x the initial step, past the leapfrog
        # stability limit of a unit Gaussian (step 2): early warmup diverges
        assert draws.warmup_divergences.tolist() == [sum(warmup)] and sum(warmup) > 0
        assert draws.divergence_count == sum(sampling) == 0

    def test_only_the_trajectory_inner_steps_skip_the_log_density(self, monkeypatch):
        # each target call is recorded with its phase: "start" until the step search,
        # "search" in it, and "transition" in a transition, whose step counts the
        # leapfrog spy records
        calls, phase, steps = [], ["start"], []
        gaussian = standard_normal_target(2)
        integrate = inference.leapfrog

        def target(q, need_logp=True):
            calls.append((phase[0], need_logp))
            return gaussian(q)

        def in_phase(name, fn):
            def run(*args):
                phase[0] = name
                return fn(*args)
            return run

        def spy(target, q, p, grad, step, n_steps, inv_mass):
            if phase[0] == "transition":
                steps.append(n_steps)
            return integrate(target, q, p, grad, step, n_steps, inv_mass)

        monkeypatch.setattr(inference, "leapfrog", spy)
        monkeypatch.setattr(inference, "_reasonable_epsilon",
                            in_phase("search", inference._reasonable_epsilon))
        monkeypatch.setattr(inference, "_transition", in_phase("transition", inference._transition))
        cfg = HmcConfig(n_chains=1, n_warmup=30, n_draws=20, seed=3, max_leapfrog=8)
        sample(target, cfg, np.zeros(2))
        kinds = {name: [need for at, need in calls if at == name]
                 for name in ("start", "search", "transition")}
        assert kinds["start"] == [True]
        assert len(kinds["search"]) >= 2 and all(kinds["search"])
        assert len(steps) == cfg.n_warmup + cfg.n_draws and max(steps) > 1
        assert kinds["transition"] == [need for n in steps for need in [False] * (n - 1) + [True]]

    def test_correlated_gaussian_recovers_correlation(self):
        rho = 0.8
        prec = np.linalg.inv(np.array([[1.0, rho], [rho, 1.0]]))

        def target(phi, need_logp=True):
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
        def target(phi, need_logp=True):
            if np.all(phi == 0.0):
                return 0.0, np.zeros_like(phi)
            return -np.inf, np.zeros_like(phi)

        cfg = HmcConfig(n_chains=1, n_warmup=50, n_draws=10, seed=0, init_jitter=0.0)
        with pytest.raises(NumericalError, match="re-parametrization"):
            sample(target, cfg, np.zeros(2))

    def test_nonfinite_start_without_jitter_raises(self):
        calls = []

        def target(phi, need_logp=True):
            calls.append(phi)
            return -np.inf, np.zeros_like(phi)

        cfg = HmcConfig(n_chains=2, n_warmup=20, n_draws=10, seed=0, init_jitter=0.0)
        with pytest.raises(NumericalError, match="chain 0: could not find a finite starting point"):
            sample(target, cfg, np.zeros(2))
        assert len(calls) == 1

    def test_no_finite_jittered_start_raises(self):
        calls = []

        def target(phi, need_logp=True):
            calls.append(phi)
            return -np.inf, np.zeros_like(phi)

        cfg = HmcConfig(n_chains=2, n_warmup=20, n_draws=10, seed=0, init_jitter=0.5)
        with pytest.raises(NumericalError, match="chain 0: could not find a finite starting point"):
            sample(target, cfg, np.zeros(2))
        # the start and 100 jittered retries, each evaluated once and checked
        assert len(calls) == 101 and not np.array_equal(calls[0], np.zeros(2))

    def test_every_start_attempt_is_drawn_from_the_start_stream_around_init(self):
        calls = []

        def target(phi, need_logp=True):
            calls.append(phi)
            return -np.inf, np.zeros_like(phi)

        init = np.array([3.0, -3.0])
        cfg = HmcConfig(n_chains=1, n_warmup=20, n_draws=10, seed=17, init_jitter=0.5)
        with pytest.raises(NumericalError):
            sample(target, cfg, init)
        stream = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(17, spawn_key=(0, 0xA11CE)))
        )
        expected = init + 0.5 * stream.standard_normal(101 * 2).reshape(101, 2)
        np.testing.assert_array_equal(np.array(calls), expected)

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


def draws_from_chains(chains):
    """`PosteriorDraws` named x0, x1, ... from a (chains, draws, dim) array."""
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
    )


class TestDiagnostics:
    def test_iid_chains_look_converged(self):
        rng = np.random.default_rng(0)
        chains = rng.standard_normal((4, 1000, 2))
        table = diagnostics(draws_from_chains(chains))
        assert np.all((table.rhat > 0.99) & (table.rhat < 1.01))
        assert np.all(table.ess_bulk >= 0.5 * 4000)

    def test_shifted_chain_flags(self):
        rng = np.random.default_rng(1)
        chains = rng.standard_normal((4, 500, 1))
        chains[0] += 5.0
        table = diagnostics(draws_from_chains(chains))
        assert table.rhat[0] > 1.2
        assert any("exceeds" in f for f in table.flags)

    def test_constant_chains_guarded(self):
        chains = np.ones((4, 100, 1))
        table = diagnostics(draws_from_chains(chains))
        assert np.isnan(table.rhat[0])
        assert any("constant" in f for f in table.flags)

    @pytest.mark.parametrize("m", [40, 100])
    def test_stuck_chains_that_disagree_read_infinite_rhat(self, m):
        # x0: two chains that never move, at 1.0 and 2.0; x1 mixes. The split
        # chains' variances round to exactly 0 at m = 40 and above 0 at m = 100.
        chains = np.random.default_rng(6).standard_normal((2, m, 2))
        chains[0, :, 0], chains[1, :, 0] = 1.0, 2.0
        table = diagnostics(draws_from_chains(chains))
        assert table.rhat[0] == np.inf and np.isfinite(table.rhat[1])
        assert table.max_rhat() == np.inf
        assert "x0: R-hat inf exceeds 1.01" in table.flags

    def test_one_draw_per_split_chain_gives_nan_rhat(self):
        # 2 draws per chain split into halves of 1: no within-chain variance
        chains = np.random.default_rng(7).standard_normal((4, 2, 1))
        table = diagnostics(draws_from_chains(chains))
        assert np.isnan(table.rhat[0]) and not any("exceeds" in f for f in table.flags)

    @pytest.mark.parametrize("scale, shift", [(1e-10, 1e-9), (1.0, 1e6)])
    def test_affine_map_leaves_rhat_and_ess_unchanged(self, scale, shift):
        x = np.random.default_rng(5).standard_normal((2, 200, 1))
        table = diagnostics(draws_from_chains(scale * x + shift))
        ref = diagnostics(draws_from_chains(x))
        assert np.isfinite(ref.rhat).all() and table.flags == ref.flags
        np.testing.assert_array_equal(table.rhat, ref.rhat)
        np.testing.assert_array_equal(table.ess_bulk, ref.ess_bulk)

    def test_single_chain_warns_and_omits_rhat(self):
        rng = np.random.default_rng(2)
        chains = rng.standard_normal((1, 400, 1))
        table = diagnostics(draws_from_chains(chains))
        assert np.isnan(table.rhat[0])
        assert any("single chain" in f for f in table.flags)
        assert np.isfinite(table.ess_bulk[0])

    def test_ess_without_a_positive_pair_is_the_draw_count(self):
        # alternating chains: the first autocorrelation pair sum is already negative
        t = np.arange(10)
        x = (-1.0) ** t * (1.0 + 0.001 * t)
        assert inference._ess_from_chains(np.stack([x, x + 1.0e-6])) == 20.0

    @pytest.mark.parametrize("c, m", [(1, 4), (2, 5), (4, 10), (4, 101), (3, 400)])
    @pytest.mark.parametrize("phi", [0.0, 0.9, -0.6])
    def test_ess_equals_the_per_chain_loop(self, c, m, phi):
        # AR(1) chains: independent, positively and negatively correlated draws
        e = np.random.default_rng(m).standard_normal((c, m))
        chains = np.empty_like(e)
        chains[:, 0] = e[:, 0]
        for t in range(1, m):
            chains[:, t] = phi * chains[:, t - 1] + e[:, t]
        assert inference._ess_from_chains(chains) == ess_from_chains_loop(chains)

    def test_constant_chains_have_no_ess(self):
        # `diagnostics` skips constant columns; the ESS itself must not divide by 0
        assert np.isnan(inference._ess_from_chains(np.ones((2, 10))))

    def test_short_chains_give_nan_ess(self):
        # 7 draws split into halves of 3, fewer than the 4 the ESS needs
        chains = np.random.default_rng(4).standard_normal((4, 7, 1))
        table = diagnostics(draws_from_chains(chains))
        assert np.isnan(table.ess_bulk[0]) and np.isfinite(table.rhat[0])

    @pytest.mark.parametrize("levels", [2, 3, 50, None], ids=["2", "3", "50", "distinct"])
    def test_rank_normalize_scores_average_ranks(self, levels):
        rng = np.random.default_rng(levels or 0)
        if levels is None:
            chains = rng.standard_normal((4, 60))
        else:
            chains = rng.integers(0, levels, (4, 60)).astype(float)
        chains[1, :30] = 0.5  # a constant half
        ranks = rankdata(chains.ravel(), method="average")
        expected = ndtri((ranks - 0.375) / (chains.size + 0.25)).reshape(chains.shape)
        np.testing.assert_array_equal(inference._rank_normalize(chains), expected)


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

    @pytest.mark.parametrize("chains, message", [
        ([1, 1], "line 2, column 'chain': chain id 1 is outside 0..0, one per distinct id"),
        ([0, 0, 2, 2], "line 4, column 'chain': chain id 2 is outside 0..1, one per distinct id"),
        ([0, 1, 1, 2, 2], "chain 1's draw count 2 differs from chain 0's 1"),
        ([2, 0, 1, 0, 2], "chain 1's draw count 1 differs from chain 0's 2"),
    ])
    def test_chain_ids_name_the_line_or_the_chain(self, tmp_path, chains, message):
        path = tmp_path / "draws.csv"
        rows = "".join(f"{c},0,1.0,10.0,0\n" for c in chains)
        path.write_text(f"chain,iter,a,energy,divergent\n{rows}")
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_draws_csv(path)


# library calls that must raise: id -> (call, message pattern)
LIBRARY_ERRORS = {
    "draws-unknown-column": (lambda: draws_from_chains(np.zeros((2, 3, 1))).column("y"),
                             "no parameter named 'y'"),
    "sample-empty-init": (lambda: sample(standard_normal_target(0), HmcConfig(), np.zeros(0)),
                          "init must be a non-empty vector"),
    "sample-names-length": (lambda: sample(standard_normal_target(2), HmcConfig(), np.zeros(2),
                                           names=["a"]),
                            "names length must match the dimension"),
    "diagnostics-one-draw": (lambda: diagnostics(draws_from_chains(np.arange(2.0).reshape(2, 1, 1))),
                             "need at least 2 draws per chain to split"),
}


@pytest.mark.parametrize("call, message", LIBRARY_ERRORS.values(), ids=list(LIBRARY_ERRORS))
def test_library_call_rejects_bad_input(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
