"""Reference implementations that the tests check the program against."""

import math

import numpy as np

from grancount.errors import NumericalError, ValidationError
from grancount.fuzzy import (
    _H_SCAN, _MIN_PRECISION, CRISP_PRECISION_CEILING, FitResult, _GridSSE, _scan_c, kl_divergence,
)
from grancount.model import Posterior, PriorSpec, pack_params
from grancount.possibility import MembershipVector, complement_degrees

# Brute force enumerates all 2^n subsets; refuse anything bigger than this.
MAX_BRUTEFORCE_OBS = 20


def observed_loglik(spec, params, data, model) -> float:
    """Observed-data log likelihood of `model` at constrained-scale `params`, on the full grid."""
    ll, _ = Posterior(spec, data, PriorSpec(), model)._loglik_and_grad(pack_params(params, model))
    if not np.isfinite(ll):
        raise NumericalError(f"{model} likelihood cannot be evaluated at these parameters")
    return float(ll)


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


def fit_beta_alternating(mv: MembershipVector, crisp_ceiling=CRISP_PRECISION_CEILING,
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
    h = min(max(h, _MIN_PRECISION), crisp_ceiling)

    h_scan = _H_SCAN[_H_SCAN <= crisp_ceiling]
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
