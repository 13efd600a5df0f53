"""Reference implementations that the tests check the program against."""

import math

import numpy as np
from scipy.special import betainc, betaln, digamma, gammaln

from grancount.errors import NumericalError, ValidationError
from grancount.fuzzy import (
    _H_SCAN, _MIN_PRECISION, BLOCK_CELLS, CRISP_PRECISION_CEILING, FitResult, _GridSSE, _scan_c,
    k_blocks, kl_divergence,
)
from grancount.model import (
    Posterior, PriorSpec, _negbin_log_pmf, corrected_scaled_count, parameter_names,
)
from grancount.possibility import MembershipVector, PossibilityAssignment

# Brute force enumerates all 2^n subsets; refuse anything bigger than this.
MAX_BRUTEFORCE_OBS = 20


def pack_params(params, model: str) -> np.ndarray:
    """Constrained `ModelParams` -> unconstrained vector (logs for positives)."""
    p = params.coef.size
    labels = parameter_names(model, n_covariates=p)[p:]
    params.require(*labels)
    tail = [np.log(getattr(params, label)) for label in labels]
    return np.concatenate([params.coef, np.array(tail)])


def truncated_pmf(mu: float, kappa: float, k: int) -> np.ndarray:
    """The NB(mu, kappa) pmf restricted and renormalised to {0..k}, for one mean."""
    lp = _negbin_log_pmf(np.arange(k + 1.0), mu, kappa)
    mass = np.exp(lp - lp.max())
    return mass / mass.sum()


def nb_cdf_rows(mu: np.ndarray, kappa: float, level: int) -> np.ndarray:
    """cumsum(exp(lp - row max)) of the NB log pmf lp on the whole row {0..level}, a row per mean."""
    lp = _negbin_log_pmf(np.arange(level + 1.0), mu[:, None], kappa)
    return np.exp(lp - lp.max(axis=1, keepdims=True)).cumsum(axis=1)


def latent_counts_full_rows(mu, kappa: float, k, u) -> np.ndarray:
    """Latent counts as `model.simulate` drew them on whole rows {0..K}, one block per K.

    The reference for its cut rows: per sample, the number of cdf entries below
    u * cdf[K] among the first K.
    """
    latent = np.empty(mu.size, dtype=np.int64)
    for level, idx in k_blocks(k):
        cdf = nb_cdf_rows(mu[idx], kappa, level)
        latent[idx] = (cdf[:, :-1] < u[idx, None] * cdf[:, -1:]).sum(axis=1)
    return latent


def observed_loglik(spec, params, data, model) -> float:
    """Observed-data log likelihood of `model` at constrained-scale `params`, on the full grid."""
    post = Posterior(spec, data, PriorSpec(), model, tail_mass=0.0)
    ll, _ = post._loglik_and_grad(pack_params(params, model))
    if not np.isfinite(ll):
        raise NumericalError(f"{model} likelihood cannot be evaluated at these parameters")
    return float(ll)


def cutoff_width(post: Posterior, mu_max: float, kappa: float) -> int:
    """Grid length the earlier truncated-grid scan kept at the largest mean `mu_max`.

    The negative binomial log pmf of that mean written out over the whole grid
    in one expression, then all but `post.tail_mass` of its mass on the grid,
    plus one spare column. `Posterior._cutoff` cuts the untruncated pmf
    instead, so it never keeps fewer columns than this.
    """
    grid = np.arange(post._grid.size, dtype=np.float64)
    lp = (
        gammaln(grid + kappa)
        - gammaln(grid + 1.0)
        + kappa * (np.log(kappa) - np.log(kappa + mu_max))
        + grid * (np.log(mu_max) - np.log(kappa + mu_max))
    )
    mass = np.exp(lp - lp.max())
    csum = np.cumsum(mass)
    cut = int(np.searchsorted(csum, (1.0 - post.tail_mass) * csum[-1])) + 1
    return min(grid.size, cut + 1)


def nb_tail_width(post: Posterior, mu_max: float, kappa: float) -> int:
    """Grid length `Posterior._cutoff` should keep at the largest mean `mu_max`.

    The fewest columns 0..m-1 whose dropped mass P(Y >= m) = I_{1-p}(m, kappa),
    1 - p = mu_max/(kappa + mu_max), of the untruncated NB(mu_max, kappa) pmf
    is at most `post.tail_mass`, plus one spare column, capped at the grid.
    """
    m = np.arange(1, post._grid.size + 1)
    kept = betainc(m, kappa, mu_max / (kappa + mu_max)) <= post.tail_mass
    return min(post._grid.size, int(m[kept.argmax()]) + 1) if kept.any() else post._grid.size


class RowsCnarPosterior(Posterior):
    """A cnar `Posterior` whose likelihood kernel works in an (n, hi) layout.

    The reference for `Posterior._cnar_block`: the report density is an
    (n, max K + 1) matrix, the count pmf carries its per-sample constant, and
    the two log-sum-exps and four first moments take a pass each over
    C-contiguous (n, hi) buffers. Everything else, the tail cutoff and the -inf
    returns of `logp_and_grad` included, is inherited. It evaluates every term
    whatever `need_logp` says.
    """

    def __init__(self, spec, data, priors, tail_mass=0.0):
        super().__init__(spec, data, priors, "cnar", tail_mass)
        grid = self._grid
        valid = grid[None, :] <= self._kvec[:, None]
        self._beyond_k = None if valid.all() else ~valid
        ybar = corrected_scaled_count(grid[None, :], self._kvec[:, None])
        a = self._h[:, None] * ybar
        b = self._h[:, None] * (1.0 - ybar)
        logc, log1mc = self._log_cbar[:, None], self._log1m_cbar[:, None]
        beta_mat = (a - 1.0) * logc + (b - 1.0) * log1mc - betaln(a, b)
        self._beta_mat = np.where(valid, beta_mat, -np.inf)
        self._scratch = (np.empty(beta_mat.size), np.empty(beta_mat.size))

    def _cnar_block(self, phi: np.ndarray, mu: np.ndarray, need_logp: bool):
        p = self.n_covariates
        kappa, shape, rate = np.exp(phi[p : p + 3])
        n = mu.size

        log_kmu = np.log(kappa + mu)
        head = kappa * (np.log(kappa) - log_kmu)
        slope = np.log(mu) - log_kmu
        col = gammaln(self._grid + kappa) - self._lgamma_fact
        hi = self._grid.size if self.tail_mass == 0.0 or n == 0 else self._cutoff(mu.max(), kappa)
        grid = self._grid[:hi]
        beta_mat = self._beta_mat[:, :hi]

        # lp and lp + beta built in reusable scratch to avoid temporaries
        lp = self._scratch[0][: n * hi].reshape(n, hi)
        np.multiply(slope[:, None], grid[None, :], out=lp)
        lp += (head - gammaln(kappa))[:, None]
        lp += col[None, :hi]
        if self._beyond_k is not None:
            np.copyto(lp, -np.inf, where=self._beyond_k[:, :hi])
        top = self._scratch[1][: n * hi].reshape(n, hi)
        np.add(lp, beta_mat, out=top)

        top_peak = top.max(axis=1)
        bot_peak = lp.max(axis=1)
        if not (np.isfinite(top_peak).all() and np.isfinite(bot_peak).all()):
            return -np.inf, np.zeros(self.dim)
        top -= top_peak[:, None]
        np.exp(top, out=top)
        lp -= bot_peak[:, None]
        np.exp(lp, out=lp)
        w, q = top, lp
        w_sum = w.sum(axis=1)
        q_sum = q.sum(axis=1)
        count_ll = float(
            (top_peak + np.log(w_sum)).sum() - (bot_peak + np.log(q_sum)).sum()
        )

        # first moments of the count under the posterior mixture and under the
        # bare truncated pmf; their gap drives the regression gradient
        delta_y = (w @ grid) / w_sum - (q @ grid) / q_sum
        psi_grid = digamma(grid + kappa)
        delta_psi = (w @ psi_grid) / w_sum - (q @ psi_grid) / q_sum

        d_coef = self._z.T @ (delta_y * (kappa / (kappa + mu)))
        d_kappa = float((delta_psi - delta_y / (kappa + mu)).sum()) * kappa

        gamma_ll, d_shape, d_rate = self._gamma_block(shape, rate, n, True)
        grad = np.concatenate([d_coef, [d_kappa, d_shape, d_rate]])
        return count_ll + gamma_ll, grad


def complement_degrees(assign: PossibilityAssignment, referent: int) -> np.ndarray:
    """Best degree each observation has for any referent other than `referent`.

    With a single referent there is no alternative, and the empty maximum is
    taken as 0 (the observation cannot be anything else). The reference for
    the alternative degrees `granular_count_fast` reads off the top two.
    """
    referent = assign._check_referent(referent)
    if assign.n_ref == 1:
        return np.zeros(assign.n_obs)
    return np.delete(assign.degrees, referent, axis=1).max(axis=1)


def granular_count_bruteforce(assign, referent: int) -> MembershipVector:
    """Count a referent by exhaustive subset enumeration.

    For each y, the membership is the best (over subsets O_y of size y) of
    min(min over O_y of pi[o, r], min over the rest of the best alternative
    degree), empty minima counting as 1. Exponential in the number of
    observations; the oracle for `granular_count_fast`.
    """
    n = assign.n_obs
    if n > MAX_BRUTEFORCE_OBS:
        raise ValidationError(
            f"instance too large for oracle: {n} observations exceeds "
            f"the enumeration guard of {MAX_BRUTEFORCE_OBS}"
        )
    alt = complement_degrees(assign, referent).tolist()  # checks the referent index
    own = assign.degrees[:, referent].tolist()
    best = [0.0] * (n + 1)
    for subset in range(1 << n):
        level = 1.0  # empty minima count as fully possible
        size = 0
        for o in range(n):
            if subset >> o & 1:
                size += 1
                if own[o] < level:
                    level = own[o]
            elif alt[o] < level:
                level = alt[o]
        if level > best[size]:
            best[size] = level
    return MembershipVector(np.array(best))


def pairwise_distances(a: np.ndarray, b: np.ndarray, grid: int) -> np.ndarray:
    """(rows of a, rows of b) matrix of RMS profile distances, by direct differences.

    The reference for `ppc._distance_sum`: no cancellation, so identical
    profiles read exactly 0 and every distance is correct to a few ulps. Works
    in difference blocks of `BLOCK_CELLS` cells.
    """
    out = np.empty((a.shape[0], b.shape[0]))
    step = max(1, BLOCK_CELLS // (b.shape[0] * grid + 1))
    buf = np.empty((min(step, a.shape[0]),) + b.shape)
    for start in range(0, a.shape[0], step):
        rows = out[start : start + step]
        block = np.subtract(a[start : start + step, None, :], b, out=buf[: rows.shape[0]])
        np.einsum("ijk,ijk->ij", block, block, out=rows)
        rows /= grid
        np.sqrt(rows, out=rows)
    return out


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo: float, hi: float, xtol: float) -> float:
    """Golden-section minimum of unimodal f on [lo, hi], to width xtol or to float spacing."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > xtol and a < x1 < x2 < b:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def fit_beta_alternating(mv: MembershipVector, crisp_precision=CRISP_PRECISION_CEILING,
                         tol=1.0e-8, max_iter=500) -> FitResult:
    """Fit (c, h) by alternating golden-section line searches; the oracle for `fit_beta`.

    Each round scans every integer location at the current precision and
    golden-refines the location within one grid step of the best, then scans
    64 log-spaced precisions at that location and golden-refines within the
    neighbouring scan points, until neither moves by more than `tol` (the
    location in count units). Non-degenerate vectors only.
    """
    values = mv.memberships
    k = mv.k_max
    t_grid = np.arange(k + 1) / k
    sse = _GridSSE(values, k)
    peak = np.flatnonzero(values == values.max())
    c = float(peak.mean())
    m0 = c / k
    below_half = np.flatnonzero(values <= 0.5)
    if below_half.size:
        nearest = below_half[np.argmin(np.abs(below_half / k - m0))]
        div_half = kl_divergence(m0, nearest / k)
    else:
        farthest = np.argmax(np.abs(t_grid - m0))
        div_half = kl_divergence(m0, t_grid[farthest])
    h = math.log(2.0) / div_half if 0.0 < div_half < math.inf else 1.0
    h = min(max(h, _MIN_PRECISION), crisp_precision)

    h_scan = _H_SCAN[_H_SCAN <= crisp_precision]
    div_matrix = kl_divergence(t_grid[:, None], t_grid)
    converged = False
    iterations = 0
    last_sse = np.inf
    stalled = 0
    for iterations in range(1, max_iter + 1):
        c_star = _scan_c(values, div_matrix, h)
        c_new = _golden_min(
            lambda x: sse(x / k, h),
            max(0.0, c_star - 1.0),
            min(float(k), c_star + 1.0),
            xtol=tol * 1.0e-2,
        )
        j = int(np.argmin([sse(c_new / k, hh) for hh in h_scan]))
        log_h_new = _golden_min(
            lambda x: sse(c_new / k, math.exp(x)),
            math.log(h_scan[max(0, j - 1)]),
            math.log(h_scan[min(h_scan.size - 1, j + 1)]),
            xtol=tol * 1.0e-2,
        )
        h_new = math.exp(log_h_new)
        moved = max(abs(c_new - c), abs(math.log(h_new) - math.log(h)))
        c, h = c_new, h_new
        if moved < tol:
            converged = True
            break
        sse_now = sse(c_new / k, h)
        stalled = stalled + 1 if abs(last_sse - sse_now) <= 1.0e-15 * (1.0 + sse_now) else 0
        last_sse = sse_now
        if stalled >= 3:  # zigzag in a flat valley
            break
    return FitResult(c, h, k, sse(c / k, h), iterations, converged)


def ess_from_chains_loop(chains: np.ndarray) -> float:
    """Bulk ESS of a (chains, m) matrix, one FFT per chain and Geyer's pairs in a loop."""
    c, m = chains.shape
    if m < 4:
        return float("nan")
    acov = []
    for x in chains:
        nfft = 1 << (2 * m - 1).bit_length()
        f = np.fft.rfft(x - x.mean(), nfft)
        acov.append(np.fft.irfft(f * np.conj(f), nfft)[:m] / m)
    acov = np.stack(acov)
    w = (acov[:, 0] * m / (m - 1.0)).mean()
    var_plus = (m - 1.0) / m * w + (chains.mean(axis=1).var(ddof=1) if c > 1 else 0.0)
    if var_plus <= 0.0:
        return float("nan")
    rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
    pair_sums = []
    for k in range((m - 1) // 2):
        s = rho[2 * k] + rho[2 * k + 1]
        if s <= 0.0:
            break
        pair_sums.append(s)
    if not pair_sums:
        return float(c * m)
    tau = -1.0 + 2.0 * float(np.sum(np.minimum.accumulate(pair_sums)))
    return float(c * m / max(tau, 1.0 / math.log10(c * m + 10.0)))
