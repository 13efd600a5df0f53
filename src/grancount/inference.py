"""Hamiltonian Monte Carlo over an unconstrained parameter space.

Plain HMC with a jittered number of leapfrog steps (uniform on
{1..max_leapfrog}), dual-averaging step-size adaptation toward a target
acceptance rate, and a diagonal mass matrix estimated from the second half
of warmup. `leapfrog` is the one integrator: the transitions and the initial
step-size search both call it. Chains use independent counter-based random
streams derived from (seed, chain), so results are reproducible and chain
order is irrelevant.

Convergence diagnostics follow the rank-normalised split R-hat and bulk
effective sample size recipe, with Geyer's initial monotone sequence for the
autocorrelation sum.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata

from . import tables
from .errors import NumericalError, ValidationError

# Hamiltonian error beyond this marks the transition as divergent.
DIVERGENCE_THRESHOLD = 1000.0


@dataclass(frozen=True)
class HmcConfig:
    n_chains: int = 4
    n_warmup: int = 1000
    n_draws: int = 1000
    target_accept: float = 0.8
    max_leapfrog: int = 512
    seed: int = 0
    init_jitter: float = 0.5

    def __post_init__(self):
        if self.n_chains < 1:
            raise ValidationError("n_chains must be at least 1")
        if self.n_warmup < 1 or self.n_draws < 1:
            raise ValidationError("n_warmup and n_draws must be positive")
        if not 0.0 < self.target_accept < 1.0:
            raise ValidationError("target_accept must lie in (0, 1)")
        if self.max_leapfrog < 1:
            raise ValidationError("max_leapfrog must be at least 1")
        if self.init_jitter < 0.0:
            raise ValidationError("init_jitter must be non-negative")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


def leapfrog(target, q, p, grad, step, n_steps, inv_mass):
    """Volume-preserving leapfrog integration of Hamiltonian dynamics.

    `target` maps a position to (log density, gradient), and `grad` is the
    gradient at the start `q`; `inv_mass` is the diagonal inverse metric.
    Returns (q, p, logp, grad, diverged) at the end of the trajectory. A
    non-finite log density or gradient stops it and sets the flag instead of
    raising; the momentum then stays at its last completed update.
    """
    if step <= 0.0:
        raise ValidationError("step must be positive")
    if n_steps < 1:
        raise ValidationError("n_steps must be at least 1")
    p = p + 0.5 * step * grad
    for i in range(n_steps):
        q = q + step * inv_mass * p
        logp, grad = target(q)
        if not (np.isfinite(logp) and np.all(np.isfinite(grad))):
            return q, p, logp, grad, True
        p = p + (step if i < n_steps - 1 else 0.5 * step) * grad
    return q, p, logp, grad, False


@dataclass
class _DualAveraging:
    """Nesterov-style step-size averaging toward a target acceptance rate."""

    target: float
    mu: float
    gamma: float = 0.05
    t0: float = 10.0
    kappa: float = 0.75
    t: int = field(default=0, init=False)
    h_bar: float = field(default=0.0, init=False)
    log_eps_bar: float = field(default=0.0, init=False)
    log_eps: float = field(default=0.0, init=False)

    def update(self, accept_prob: float) -> float:
        self.t += 1
        frac = 1.0 / (self.t + self.t0)
        self.h_bar = (1.0 - frac) * self.h_bar + frac * (self.target - accept_prob)
        self.log_eps = self.mu - math.sqrt(self.t) / self.gamma * self.h_bar
        weight = self.t ** (-self.kappa)
        self.log_eps_bar = weight * self.log_eps + (1.0 - weight) * self.log_eps_bar
        return math.exp(self.log_eps)

    def adapted(self) -> float:
        return math.exp(self.log_eps_bar)


@dataclass(frozen=True)
class DiagnosticsTable:
    """Per-parameter convergence summary."""

    names: tuple[str, ...]
    rhat: np.ndarray
    ess_bulk: np.ndarray
    flags: tuple[str, ...]

    def rows(self):
        for j, name in enumerate(self.names):
            yield {
                "name": name,
                "rhat": float(self.rhat[j]),
                "ess_bulk": float(self.ess_bulk[j]),
            }

    def max_rhat(self) -> float:
        finite = self.rhat[np.isfinite(self.rhat)]
        return float(finite.max()) if finite.size else float("nan")


@dataclass(frozen=True)
class PosteriorDraws:
    """Posterior sample on the constrained scale, with per-draw bookkeeping."""

    names: tuple[str, ...]
    draws: np.ndarray          # (n_chains * n_draws, dim)
    chain: np.ndarray          # (N,) chain index per draw
    iteration: np.ndarray      # (N,) within-chain index per draw
    energy: np.ndarray         # (N,) Hamiltonian at the recorded state
    divergent: np.ndarray      # (N,) bool
    accept_rate: np.ndarray    # (n_chains,)
    step_size: np.ndarray      # (n_chains,)
    inv_mass: np.ndarray       # (n_chains, dim)
    diagnostics: DiagnosticsTable | None = None
    warmup_divergences: np.ndarray | None = None  # (n_chains,) divergent warmup transitions

    @property
    def n_chains(self) -> int:
        return int(self.chain.max()) + 1 if self.chain.size else 0

    @property
    def n_draws_per_chain(self) -> int:
        return self.draws.shape[0] // max(self.n_chains, 1)

    @property
    def dim(self) -> int:
        return self.draws.shape[1]

    @property
    def divergence_count(self) -> int:
        return int(self.divergent.sum())

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.names.index(name)
        except ValueError:
            raise ValidationError(f"no parameter named '{name}'") from None
        return self.draws[:, j]

    def by_chain(self) -> np.ndarray:
        """Draws reshaped to (n_chains, n_draws, dim), in chain order."""
        c = self.n_chains
        m = self.n_draws_per_chain
        out = np.empty((c, m, self.dim))
        for k in range(c):
            out[k] = self.draws[self.chain == k]
        return out


def _reasonable_epsilon(target, q, logp, grad, rng, inv_mass) -> float:
    """Double or halve the step until one leapfrog step is borderline-accepted."""
    eps = 1.0
    p = rng.standard_normal(q.size) / np.sqrt(inv_mass)
    h0 = -logp + 0.5 * np.sum(p * p * inv_mass)

    def one_step(eps_try):
        _, p_new, logp_new, _, diverged = leapfrog(target, q, p, grad, eps_try, 1, inv_mass)
        if diverged:
            return -np.inf
        return h0 - (-logp_new + 0.5 * np.sum(p_new * p_new * inv_mass))

    log_ratio = one_step(eps)
    while not np.isfinite(log_ratio) and eps > 1.0e-10:
        eps *= 0.1
        log_ratio = one_step(eps)
    if not np.isfinite(log_ratio):
        # no scale works here; let warmup report the divergences instead
        return 1.0e-3
    direction = 1.0 if log_ratio > math.log(0.5) else -1.0
    for _ in range(100):
        eps_next = eps * (2.0 ** direction)
        if not 1.0e-10 < eps_next < 1.0e3:
            break
        log_ratio = one_step(eps_next)
        if not np.isfinite(log_ratio):
            break
        if direction * log_ratio <= direction * math.log(0.5):
            break
        eps = eps_next
    return eps


def _run_chain(target, config: HmcConfig, init: np.ndarray, chain_index: int, dim: int):
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(config.seed, spawn_key=(chain_index,)))
    )
    q = np.array(init, dtype=np.float64)
    logp, grad = target(q)
    for _ in range(100):
        if np.isfinite(logp):
            break
        q = init + config.init_jitter * rng.standard_normal(dim)
        logp, grad = target(q)
    else:
        raise NumericalError(
            f"chain {chain_index}: could not find a finite starting point"
        )

    inv_mass = np.ones(dim)
    eps = _reasonable_epsilon(target, q, logp, grad, rng, inv_mass)
    averager = _DualAveraging(target=config.target_accept, mu=math.log(10.0 * eps))

    warmup = config.n_warmup
    collect_from = warmup // 2
    mass_update_at = max(collect_from + 1, int(0.9 * warmup)) if warmup >= 20 else warmup
    window: list[np.ndarray] = []

    draws = np.empty((config.n_draws, dim))
    energies = np.empty(config.n_draws)
    divergent = np.zeros(config.n_draws, dtype=bool)
    accept_sum = 0.0
    warmup_divergences = 0

    for it in range(warmup + config.n_draws):
        sampling = it >= warmup
        p = rng.standard_normal(dim) / np.sqrt(inv_mass)
        h0 = -logp + 0.5 * np.sum(p * p * inv_mass)
        n_steps = int(rng.integers(1, config.max_leapfrog + 1))

        q_new, p_new, logp_new, grad_new, diverged = leapfrog(
            target, q, p, grad, eps, n_steps, inv_mass
        )
        if diverged:
            accept_prob = 0.0
            h1 = np.inf
        else:
            h1 = -logp_new + 0.5 * np.sum(p_new * p_new * inv_mass)
            delta = h0 - h1
            if not np.isfinite(delta) or -delta > DIVERGENCE_THRESHOLD:
                diverged = True
                accept_prob = 0.0
            else:
                accept_prob = min(1.0, math.exp(min(delta, 0.0)))

        accepted = (not diverged) and (rng.random() < accept_prob)
        if accepted:
            q, logp, grad = q_new, logp_new, grad_new

        if sampling:
            i = it - warmup
            draws[i] = q
            energies[i] = h1 if accepted else h0
            divergent[i] = diverged
            accept_sum += accept_prob
        else:
            if diverged:
                warmup_divergences += 1
            eps = max(averager.update(accept_prob), 1.0e-12)
            if collect_from <= it < mass_update_at:
                window.append(q.copy())
            if it + 1 == mass_update_at and len(window) >= 10:
                stacked = np.stack(window)
                var = stacked.var(axis=0, ddof=1)
                n_win = stacked.shape[0]
                # regularised estimate, shrunk toward a small floor
                inv_mass = (n_win / (n_win + 5.0)) * var + (5.0 / (n_win + 5.0)) * 1.0e-3
                inv_mass = np.maximum(inv_mass, 1.0e-12)
                # the running averager stays in charge of the step size; its
                # gain at this point is still large enough to re-balance
            if it + 1 == warmup:
                if warmup_divergences == warmup:
                    raise NumericalError(
                        f"chain {chain_index}: every warmup transition diverged; "
                        "the posterior likely needs re-parametrization"
                    )
                eps = max(averager.adapted(), 1.0e-12)

    accept_rate = accept_sum / config.n_draws
    return draws, energies, divergent, accept_rate, eps, inv_mass, warmup_divergences


def sample(target, config: HmcConfig, init, names=None, constrain=None) -> PosteriorDraws:
    """Run HMC chains against a log-density-and-gradient callable.

    `target(phi)` must return (log density, gradient). `init` is the shared
    base starting point on the unconstrained scale; each chain adds its own
    jitter. `constrain` (optional) maps unconstrained vectors to the
    constrained scale used for storage.
    """
    init = np.asarray(init, dtype=np.float64)
    if init.ndim != 1 or init.size < 1:
        raise ValidationError("init must be a non-empty vector")
    dim = init.size
    if names is None:
        names = tuple(f"x{j}" for j in range(dim))
    else:
        names = tuple(names)
        if len(names) != dim:
            raise ValidationError("names length must match the dimension")
    logp0, _ = target(init)
    if not np.isfinite(logp0) and config.init_jitter == 0.0:
        raise ValidationError("log density is not finite at the initial point")

    all_draws, all_energy, all_div = [], [], []
    chain_ids, iter_ids = [], []
    accept_rates, step_sizes, masses, warmup_divs = [], [], [], []
    for c in range(config.n_chains):
        rng0 = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(config.seed, spawn_key=(c, 0xA11CE)))
        )
        start = init + config.init_jitter * rng0.standard_normal(dim)
        draws, energies, divergent, acc, eps, inv_mass, n_warmup_div = _run_chain(
            target, config, start, c, dim
        )
        if constrain is not None:
            draws = np.stack([np.asarray(constrain(row), dtype=np.float64) for row in draws])
        all_draws.append(draws)
        all_energy.append(energies)
        all_div.append(divergent)
        chain_ids.append(np.full(config.n_draws, c, dtype=np.int64))
        iter_ids.append(np.arange(config.n_draws, dtype=np.int64))
        accept_rates.append(acc)
        step_sizes.append(eps)
        masses.append(inv_mass)
        warmup_divs.append(n_warmup_div)

    result = PosteriorDraws(
        names=names,
        draws=np.concatenate(all_draws, axis=0),
        chain=np.concatenate(chain_ids),
        iteration=np.concatenate(iter_ids),
        energy=np.concatenate(all_energy),
        divergent=np.concatenate(all_div),
        accept_rate=np.array(accept_rates),
        step_size=np.array(step_sizes),
        inv_mass=np.stack(masses),
        warmup_divergences=np.array(warmup_divs, dtype=np.int64),
    )
    return dataclasses.replace(result, diagnostics=diagnostics(result))


# ---------------------------------------------------------------------------
# convergence diagnostics
# ---------------------------------------------------------------------------


def _rank_normalize(chains: np.ndarray) -> np.ndarray:
    """Map draws to normal scores by pooled average ranks; shape preserved."""
    flat = chains.reshape(-1)
    ranks = rankdata(flat, method="average")
    z = ndtri((ranks - 0.375) / (flat.size + 0.25))
    return z.reshape(chains.shape)


def _split(chains: np.ndarray) -> np.ndarray:
    c, m = chains.shape
    half = m // 2
    if half < 1:
        raise ValidationError("need at least 2 draws per chain to split")
    return np.concatenate([chains[:, :half], chains[:, m - half :]], axis=0)


def _rhat_from_chains(chains: np.ndarray) -> float:
    c, m = chains.shape
    means = chains.mean(axis=1)
    variances = chains.var(axis=1, ddof=1)
    w = variances.mean()
    b = m * means.var(ddof=1)
    if w <= 0.0:
        return float("nan")
    var_plus = (m - 1.0) / m * w + b / m
    return float(math.sqrt(var_plus / w))


def _autocovariance(x: np.ndarray) -> np.ndarray:
    n = x.size
    xc = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n].real
    return acov / n


def _ess_from_chains(chains: np.ndarray) -> float:
    c, m = chains.shape
    if m < 4:
        return float("nan")
    acov = np.stack([_autocovariance(chains[k]) for k in range(c)])
    mean_acov = acov.mean(axis=0)
    w = (acov[:, 0] * m / (m - 1.0)).mean()
    var_plus = (m - 1.0) / m * w
    if c > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    if var_plus <= 0.0:
        return float("nan")
    rho = 1.0 - (w - mean_acov) / var_plus
    # Geyer: sum of autocorrelation pairs, kept positive and non-increasing
    max_pairs = (m - 1) // 2
    pair_sums = []
    for k in range(max_pairs):
        s = rho[2 * k] + rho[2 * k + 1]
        if s <= 0.0:
            break
        pair_sums.append(s)
    if not pair_sums:
        return float(c * m)
    pair_sums = np.minimum.accumulate(pair_sums)
    tau = -1.0 + 2.0 * float(np.sum(pair_sums))
    tau = max(tau, 1.0 / math.log10(c * m + 10.0))
    return float(c * m / tau)


def diagnostics(draws: PosteriorDraws) -> DiagnosticsTable:
    """Split R-hat and bulk ESS per parameter, on rank-normalised draws."""
    chains = draws.by_chain()
    n_chains = chains.shape[0]
    flags = []
    if n_chains < 2:
        flags.append("single chain: R-hat not available")
    rhat = np.full(draws.dim, np.nan)
    ess = np.full(draws.dim, np.nan)
    for j in range(draws.dim):
        x = chains[:, :, j]
        if np.allclose(x, x.ravel()[0]):
            flags.append(f"{draws.names[j]}: constant draws, diagnostics undefined")
            continue
        z = _rank_normalize(_split(x))
        if n_chains >= 2:
            rhat[j] = _rhat_from_chains(z)
        ess[j] = _ess_from_chains(z)
    for j, name in enumerate(draws.names):
        if np.isfinite(rhat[j]) and rhat[j] > 1.01:
            flags.append(f"{name}: R-hat {rhat[j]:.4f} exceeds 1.01")
    return DiagnosticsTable(
        names=draws.names, rhat=rhat, ess_bulk=ess, flags=tuple(flags)
    )


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def write_draws_csv(path, draws: PosteriorDraws) -> None:
    columns = zip(draws.chain, draws.iteration, draws.draws, draws.energy, draws.divergent)
    rows = ([c, i, *values, e, "1" if d else "0"] for c, i, values, e, d in columns)
    tables.write_table(path, ["chain", "iter", *draws.names, "energy", "divergent"], rows)


def read_draws_csv(path) -> PosteriorDraws:
    header, rows = tables.read_table(
        path,
        lambda h: len(h) > 4 and h[:2] == ["chain", "iter"] and h[-2:] == ["energy", "divergent"],
        "expected header 'chain,iter,<params>,energy,divergent'",
        "draws",
    )
    names = tuple(header[2:-2])
    chain, iters, values, energy = [], [], [], []
    for i, row in rows:
        chain.append(tables.parse_int(path, i, "chain", row[0]))
        iters.append(tables.parse_int(path, i, "iter", row[1]))
        *params, e = tables.parse_floats(path, i, header[2:-1], row[2:-1])
        values.append(params)
        energy.append(e)
    chain_arr = np.array(chain, dtype=np.int64)
    n_chains = int(chain_arr.max()) + 1
    counts = [int((chain_arr == c).sum()) for c in range(n_chains)]
    if len(set(counts)) != 1 or counts[0] == 0:
        raise ValidationError(f"{path}: chains have unequal draw counts")
    return PosteriorDraws(
        names=names,
        draws=np.array(values),
        chain=chain_arr,
        iteration=np.array(iters, dtype=np.int64),
        energy=np.array(energy),
        divergent=np.array([row[-1] == "1" for _, row in rows], dtype=bool),
        accept_rate=np.full(n_chains, np.nan),
        step_size=np.full(n_chains, np.nan),
        inv_mass=np.full((n_chains, len(names)), np.nan),
    )


def write_diagnostics_json(path, draws: PosteriorDraws, metadata=None) -> None:
    table = draws.diagnostics if draws.diagnostics is not None else diagnostics(draws)
    payload = {
        "parameters": list(table.rows()),
        "divergences": draws.divergence_count,
        "accept_rate": [float(a) for a in draws.accept_rate],
        "step_size": [float(s) for s in draws.step_size],
        "flags": list(table.flags),
    }
    if metadata is not None:
        payload["metadata"] = metadata
    tables.write_json(path, payload)
