"""Hamiltonian Monte Carlo over an unconstrained parameter space.

Plain HMC with a jittered number of leapfrog steps, uniform on {1..max_leapfrog}.
`leapfrog` is the one integrator and `_trajectory` the one Hamiltonian: the
step-size search and every transition call them. Chains use independent
counter-based random streams derived from (seed, chain), so results are
reproducible and chain order is irrelevant. A chain runs, in order:
- the start: every attempt is `init + init_jitter * z` from the chain's own
  start stream, 101 attempts or 1 when `init_jitter` is 0; with no finite
  attempt the chain raises `NumericalError` (exit 3 in the CLI);
- the step search: double or halve a unit-metric step eps0 until one leapfrog
  step is borderline-accepted;
- `n_warmup` transitions, with dual averaging from mu = log(10 eps0) toward
  `target_accept`. With h = n_warmup // 2, the positions of the window
  [h, max(h + 1, int(0.9 n_warmup))) set the diagonal metric once, to their
  regularised variance, if the window holds at least 10 draws;
- `n_draws` recorded transitions at the adapted (averaged) step.

The target contract: `target(q)` returns (log density, gradient) at q, and
`target(q, need_logp=False)` returns (stand-in, gradient), where the stand-in
is -inf at a point whose gradient cannot be evaluated and any finite number
elsewhere, a point whose log density alone is not finite included. `leapfrog`
asks for the gradient alone on every step but the last; the start attempts,
the step search and each trajectory's end, which the Metropolis test reads,
are full calls.

Diagnostics: rank-normalised split R-hat and bulk effective sample size, with
Geyer's initial monotone sequence for the autocorrelation sum.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import tables
from .errors import NumericalError, ValidationError

# Hamiltonian error beyond this marks the transition as divergent.
DIVERGENCE_THRESHOLD = 1000.0
# `_DualAveraging`'s gains (Hoffman and Gelman 2014): the pull toward mu, the damping of
# the first updates, and how fast the averaged step forgets the early ones
_DA_GAMMA, _DA_T0, _DA_KAPPA = 0.05, 10.0, 0.75


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
        if self.n_warmup < 1 or self.n_draws < 2:
            raise ValidationError("n_warmup must be positive and n_draws at least 2")
        if not 0.0 < self.target_accept < 1.0:
            raise ValidationError("target_accept must lie in (0, 1)")
        if self.max_leapfrog < 1:
            raise ValidationError("max_leapfrog must be at least 1")
        if not (math.isfinite(self.init_jitter) and self.init_jitter >= 0.0):
            raise ValidationError("init_jitter must be finite and non-negative")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


def leapfrog(target, q, p, grad, step, n_steps, inv_mass):
    """Volume-preserving leapfrog integration of Hamiltonian dynamics.

    `target` follows the module's contract, and `grad` is the gradient at the
    start `q`; `inv_mass` is the diagonal inverse metric. Steps 1..n_steps-1
    call `target(q, need_logp=False)` and the last step `target(q)`.
    Returns (q, p, logp, grad, diverged) at the end of the trajectory. A
    non-finite first element or gradient of any call stops it and sets the
    flag instead of raising; the momentum then stays at its last completed
    update. The caller's `q` and `p` are left as they are: the integrator
    updates copies in place, so every call of `target` gets the same array,
    which a target that keeps points must copy.
    """
    if step <= 0.0:
        raise ValidationError("step must be positive")
    if n_steps < 1:
        raise ValidationError("n_steps must be at least 1")
    drift = step * inv_mass
    p = p + 0.5 * step * grad
    q = np.array(q, dtype=np.float64)
    for i in range(n_steps):
        q += drift * p
        inner = i < n_steps - 1
        logp, grad = target(q, need_logp=False) if inner else target(q)
        # math.isfinite on Python floats: np.isfinite costs microseconds per call
        if not (math.isfinite(logp) and all(map(math.isfinite, grad.tolist()))):
            return q, p, logp, grad, True
        p += (step if inner else 0.5 * step) * grad
    return q, p, logp, grad, False


@dataclass
class _DualAveraging:
    """Nesterov-style step-size averaging toward a target acceptance rate."""

    target: float
    mu: float

    def __post_init__(self):
        self.t, self.h_bar, self.log_eps_bar = 0, 0.0, 0.0

    def update(self, accept_prob: float) -> float:
        self.t += 1
        frac = 1.0 / (self.t + _DA_T0)
        self.h_bar = (1.0 - frac) * self.h_bar + frac * (self.target - accept_prob)
        self.log_eps = self.mu - math.sqrt(self.t) / _DA_GAMMA * self.h_bar
        weight = self.t ** (-_DA_KAPPA)
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

    def max_rhat(self) -> float:
        defined = self.rhat[~np.isnan(self.rhat)]
        return float(defined.max()) if defined.size else float("nan")


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
    diagnostics: DiagnosticsTable | None = None
    warmup_divergences: np.ndarray | None = None  # (n_chains,) divergent warmup transitions

    @property
    def n_chains(self) -> int:
        return int(self.chain.max()) + 1 if self.chain.size else 0

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
        return np.stack([self.draws[self.chain == k] for k in range(self.n_chains)])


def _trajectory(target, q, p, logp, grad, step, n_steps, inv_mass):
    """Run one `leapfrog` trajectory from (q, p) under the diagonal metric `inv_mass`.

    Returns (q, logp, grad, h0, h1): the end point and the Hamiltonian at the
    start and at the end, with h1 = inf when the integrator stops.
    """
    h0 = -logp + 0.5 * np.sum(p * p * inv_mass)
    q, p, logp, grad, stopped = leapfrog(target, q, p, grad, step, n_steps, inv_mass)
    h1 = np.inf if stopped else -logp + 0.5 * np.sum(p * p * inv_mass)
    return q, logp, grad, h0, h1


def _reasonable_epsilon(target, q, logp, grad, rng) -> float:
    """Double or halve the step until one leapfrog step is borderline-accepted."""
    eps = 1.0
    p = rng.standard_normal(q.size)

    def one_step(eps_try):
        *_, h0, h1 = _trajectory(target, q, p, logp, grad, eps_try, 1, np.ones(q.size))
        return h0 - h1

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


def _transition(target, state, eps, inv_mass, max_leapfrog, rng):
    """One HMC transition from `state` = (q, logp, grad).

    Draws the momentum, then the step count on {1..max_leapfrog}, and runs the
    trajectory. It diverges when the integrator stops or the energy error is
    non-finite or above DIVERGENCE_THRESHOLD, and is then rejected without a
    uniform draw. Returns (state, accept_prob, diverged, energy at the state).
    """
    q, logp, grad = state
    p = rng.standard_normal(q.size) / np.sqrt(inv_mass)
    n_steps = int(rng.integers(1, max_leapfrog + 1))
    *proposal, h0, h1 = _trajectory(target, q, p, logp, grad, eps, n_steps, inv_mass)
    delta = h0 - h1
    if not np.isfinite(delta) or -delta > DIVERGENCE_THRESHOLD:
        return state, 0.0, True, h0
    accept_prob = min(1.0, math.exp(min(delta, 0.0)))
    if rng.random() < accept_prob:
        return tuple(proposal), accept_prob, False, h1
    return state, accept_prob, False, h0


def _run_chain(target, config: HmcConfig, init: np.ndarray, chain_index: int):
    start_rng, rng = (
        np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed, spawn_key=key)))
        for key in ((chain_index, 0xA11CE), (chain_index,))
    )
    for _ in range(101 if config.init_jitter > 0.0 else 1):
        q = init + config.init_jitter * start_rng.standard_normal(init.size)
        logp, grad = target(q)
        if np.isfinite(logp):
            break
    else:
        raise NumericalError(f"chain {chain_index}: could not find a finite starting point")

    state = (q, logp, grad)
    inv_mass = np.ones(init.size)
    eps = _reasonable_epsilon(target, q, logp, grad, rng)
    averager = _DualAveraging(target=config.target_accept, mu=math.log(10.0 * eps))
    collect_from = config.n_warmup // 2
    mass_update_at = max(collect_from + 1, int(0.9 * config.n_warmup))
    warmup_divergences, window = 0, []
    for it in range(config.n_warmup):
        state, accept_prob, diverged, _ = _transition(
            target, state, eps, inv_mass, config.max_leapfrog, rng
        )
        warmup_divergences += diverged
        eps = max(averager.update(accept_prob), 1.0e-12)
        if collect_from <= it < mass_update_at:
            window.append(state[0])
        if it + 1 == mass_update_at and len(window) >= 10:
            # shrunk toward a small floor; the averager's gain still re-balances the step
            var, n_win = np.var(window, axis=0, ddof=1), len(window)
            inv_mass = (n_win / (n_win + 5.0)) * var + (5.0 / (n_win + 5.0)) * 1.0e-3
            inv_mass = np.maximum(inv_mass, 1.0e-12)
    if warmup_divergences == config.n_warmup:
        raise NumericalError(f"chain {chain_index}: every warmup transition diverged; "
                             "the posterior likely needs re-parametrization")
    eps = max(averager.adapted(), 1.0e-12)

    draws = np.empty((config.n_draws, init.size))
    energies = np.empty(config.n_draws)
    divergent = np.zeros(config.n_draws, dtype=bool)
    accept_sum = 0.0
    for i in range(config.n_draws):
        state, accept_prob, divergent[i], energies[i] = _transition(
            target, state, eps, inv_mass, config.max_leapfrog, rng
        )
        draws[i] = state[0]
        accept_sum += accept_prob
    return draws, energies, divergent, accept_sum / config.n_draws, eps, warmup_divergences


def sample(target, config: HmcConfig, init, names=None, constrain=None) -> PosteriorDraws:
    """Run HMC chains against a log-density-and-gradient callable.

    `target(phi)` must return (log density, gradient), and
    `target(phi, need_logp=False)` (stand-in, gradient), as the module's
    contract says. `init` is the shared
    base point on the unconstrained scale: each chain draws every start attempt
    as `init + init_jitter * z` from its own start stream (101 attempts, or 1
    without jitter) and raises `NumericalError` if none is finite. `constrain`
    (optional) maps the (N, dim) matrix of unconstrained draws, row by row, to
    the constrained scale of storage.
    """
    init = np.asarray(init, dtype=np.float64)
    if init.ndim != 1 or init.size < 1:
        raise ValidationError("init must be a non-empty vector")
    if names is None:
        names = tuple(f"x{j}" for j in range(init.size))
    else:
        names = tuple(names)
        if len(names) != init.size:
            raise ValidationError("names length must match the dimension")
    runs = [_run_chain(target, config, init, c) for c in range(config.n_chains)]
    draws, energies, divergent, accept_rates, step_sizes, warmup_divs = zip(*runs)
    draws = np.concatenate(draws)
    if constrain is not None:
        draws = np.asarray(constrain(draws), dtype=np.float64)

    result = PosteriorDraws(
        names=names,
        draws=draws,
        chain=np.repeat(np.arange(config.n_chains, dtype=np.int64), config.n_draws),
        iteration=np.tile(np.arange(config.n_draws, dtype=np.int64), config.n_chains),
        energy=np.concatenate(energies),
        divergent=np.concatenate(divergent),
        accept_rate=np.array(accept_rates),
        step_size=np.array(step_sizes),
        warmup_divergences=np.array(warmup_divs, dtype=np.int64),
    )
    return dataclasses.replace(result, diagnostics=diagnostics(result))


# ---------------------------------------------------------------------------
# convergence diagnostics
# ---------------------------------------------------------------------------


def _rank_normalize(chains: np.ndarray) -> np.ndarray:
    """Map draws to normal scores by pooled average ranks; shape preserved."""
    flat = chains.reshape(-1)
    # average ranks of ties: the mean of positions cumsum - count + 1 .. cumsum
    _, inverse, counts = np.unique(flat, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]
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
    if m < 2:  # one draw per split chain: no within-chain variance
        return float("nan")
    # Every split chain constant, compared exactly since their variance can
    # round above 0: stuck at different values they never mix (inf); at one
    # value R-hat is undefined (NaN).
    if (chains == chains[:, :1]).all():
        return float("inf") if (chains[:, 0] != chains[0, 0]).any() else float("nan")
    means = chains.mean(axis=1)
    variances = chains.var(axis=1, ddof=1)
    w = variances.mean()
    b = m * means.var(ddof=1)
    var_plus = (m - 1.0) / m * w + b / m
    return float(math.sqrt(var_plus / w))


def _autocovariance(chains: np.ndarray) -> np.ndarray:
    """Autocovariance of each row of a (chains, m) matrix at lags 0..m-1."""
    m = chains.shape[-1]
    xc = chains - chains.mean(axis=-1, keepdims=True)
    nfft = 1 << (2 * m - 1).bit_length()
    f = np.fft.rfft(xc, nfft)
    return np.fft.irfft(f * np.conj(f), nfft)[..., :m] / m


def _ess_from_chains(chains: np.ndarray) -> float:
    c, m = chains.shape
    if m < 4:
        return float("nan")
    acov = _autocovariance(chains)
    mean_acov = acov.mean(axis=0)
    w = (acov[:, 0] * m / (m - 1.0)).mean()
    var_plus = (m - 1.0) / m * w
    if c > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    if var_plus <= 0.0:
        return float("nan")
    rho = 1.0 - (w - mean_acov) / var_plus
    # Geyer: sum of autocorrelation pairs up to the first non-positive one, kept non-increasing
    pairs = rho[: m - 2 : 2] + rho[1 : m - 1 : 2]  # the (m - 1) // 2 lag pairs (2k, 2k + 1)
    pairs = pairs[: np.argmax(np.append(pairs, 0.0) <= 0.0)]
    if not pairs.size:
        return float(c * m)
    tau = -1.0 + 2.0 * float(np.sum(np.minimum.accumulate(pairs)))
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
        if (x == x.flat[0]).all():  # exact: any tolerance has a scale
            flags.append(f"{draws.names[j]}: constant draws, diagnostics undefined")
            continue
        z = _rank_normalize(_split(x))
        if n_chains >= 2:
            rhat[j] = _rhat_from_chains(z)
        ess[j] = _ess_from_chains(z)
    for j, name in enumerate(draws.names):
        if rhat[j] > 1.01:  # inf included; NaN compares false
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
    header, rows, values = tables.read_table(
        path,
        lambda h: len(h) > 4 and h[:2] == ["chain", "iter"] and h[-2:] == ["energy", "divergent"],
        "expected header 'chain,iter,<params>,energy,divergent'",
        slice(0, -1),
        "draws",
        finite=True,
    )
    chain, iters = (tables.integer_column(path, header, rows, j, values[:, j]) for j in (0, 1))
    for i, row in rows:
        if row[-1] not in ("0", "1"):
            raise ValidationError(f"{path}: line {i}, column 'divergent': not 0 or 1: {row[-1]!r}")
    ids, counts = np.unique(chain, return_counts=True)  # sorted and distinct
    n_chains = ids.size
    if ids[0] != 0 or ids[-1] != n_chains - 1 or (counts != counts[0]).any():
        raise ValidationError(f"{path}: chain ids must be 0..C-1, each with equal draw counts")
    return PosteriorDraws(
        names=tuple(header[2:-2]),
        draws=values[:, 2:-1].copy(),
        chain=chain,
        iteration=iters,
        energy=values[:, -1].copy(),
        divergent=np.array([row[-1] == "1" for _, row in rows], dtype=bool),
        accept_rate=np.full(n_chains, np.nan),
        step_size=np.full(n_chains, np.nan),
    )


def write_diagnostics_json(path, draws: PosteriorDraws, metadata: dict) -> None:
    """Write the diagnostics table that `sample` attached to `draws`."""
    table = draws.diagnostics
    payload = {
        "parameters": [
            {"name": name, "rhat": float(rhat), "ess_bulk": float(ess)}
            for name, rhat, ess in zip(table.names, table.rhat, table.ess_bulk)
        ],
        "divergences": draws.divergence_count,
        "accept_rate": [float(a) for a in draws.accept_rate],
        "step_size": [float(s) for s in draws.step_size],
        "flags": list(table.flags),
        "metadata": metadata,
    }
    tables.write_json(path, payload)
