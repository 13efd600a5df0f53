"""Beta-type parametric fuzzy counts.

The family used throughout is the mode-normalised Beta kernel written in
divergence form: a fuzzy count with location c and precision h assigns grid
point y the membership exp(-h * kl(c/K, y/K)), where kl is the Bernoulli
Kullback-Leibler divergence. The shape is unimodal on [0, K], peaks at c,
and collapses to a crisp indicator as h grows.

`kl_divergence` is the one Bernoulli KL and `kl_membership` the one
membership built on it; the fit, the centroids and the `ppc` profiles all
read them. Besides evaluation this module fits raw membership vectors to
(c, h) statistics by Levenberg-Marquardt least squares, and compresses fuzzy
counts to their centroids, the counts the `scalar` model reads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import softmax, xlogy

from . import tables
from .errors import ValidationError
from .possibility import MembershipVector

# Cap for the fitted precision of a point (crisp) fuzzy set; keeps the
# downstream densities that consume h finite.
CRISP_PRECISION_CEILING = 1.0e6
# `fit_beta`'s cap on the iterations of all its refinements together, and its
# tolerance on the last step in (m, log h) or, for an exact fit, on the root SSE.
FIT_MAX_ITER = 500
FIT_TOL = 1.0e-8
# The least maximum membership of a normalised vector: `fit_beta` rejects a
# vector below it, and the `fit` stage drops its row.
NORMALIZED_MIN = 1.0 - 1.0e-9

_MIN_PRECISION = 1.0e-3
# A step that would leave (0, 1) moves m this share of the way to the boundary.
_BOUNDARY_SHARE = 0.5
# m of the inside limits at 0 and 1: kl(m, y/K) reads the limit to ~1e-13, c = m K stays inside.
_INSIDE_EDGE = 1.0e-15
# float64 cells (512 KB) of one block: `model.simulate` (rows cut to their own
# width, not to K + 1), `beta_centroids` and the `ppc` distances hold one such
# block (and its temporaries) at a time
BLOCK_CELLS = 1 << 16


def kl_divergence(m, t) -> np.ndarray:
    """KL divergence between Bernoulli(m) and Bernoulli(t), elementwise over broadcastable arrays.

    Conventions: 0*log(0) = 0, and the divergence is +inf wherever t puts no
    mass on a point m requires. Rounding residues below 0 near t == m read 0;
    a NaN m gives NaN.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        left = np.where(m == 0.0, 0.0, m * (np.log(m) - np.log(t)))
        right = np.where(m == 1.0, 0.0, (1.0 - m) * (np.log1p(-m) - np.log1p(-t)))
    left += right  # in place: the divergence matrix is built in blocks of about 1 MB
    return np.maximum(left, 0.0, out=left)


def kl_membership(m, h, t) -> np.ndarray:
    """exp(-h * kl(m, t)) for broadcastable arrays; infinite divergences give 0."""
    return np.exp(-h * kl_divergence(m, t))


def k_blocks(k_max):
    """(K, row indices) per distinct K, ascending, in blocks of `BLOCK_CELLS` // (K + 1) rows.

    K is the last column of the rows' arrays: the truncation level in `beta_centroids`,
    a row's cut width less one in `model.simulate`.
    """
    for k in np.unique(k_max).tolist():
        rows = np.flatnonzero(k_max == k)
        step = max(1, BLOCK_CELLS // (k + 1))
        for i in range(0, rows.size, step):
            yield k, rows[i : i + step]


def check_reports(location, precision, k_max, label=lambda i: f"report {i}") -> None:
    """Reject fuzzy counts outside the family: K >= 1, 0 <= c <= K, 0 < h < inf.

    Elementwise over (n,) arrays, NaN failing; the error names the first bad
    report by `label(index)`.
    """
    good = (k_max >= 1) & (location >= 0.0) & (location <= k_max)
    good &= (precision > 0.0) & (precision < np.inf)
    if not good.all():
        i = int(good.argmin())
        raise ValidationError(
            f"{label(i)}: (c, h, K) = ({location[i]}, {precision[i]}, {k_max[i]}) is outside "
            "the family: K >= 1, c in [0, K], h positive and finite"
        )


@dataclass(frozen=True)
class BetaFuzzy:
    """One fuzzy count (c, h, K) that `check_reports` accepts.

    It remains only as an entry point of the benchmark in `bench/`, until
    ROADMAP item 8 moves it to the array form; the program reads columns.
    """

    location: float
    precision: float
    k_max: int

    def __post_init__(self):
        check_reports(
            np.array([self.location], dtype=np.float64),
            np.array([self.precision], dtype=np.float64),
            np.array([self.k_max]),
        )


def membership_grid(fz: BetaFuzzy) -> np.ndarray:
    """Memberships on the full grid y = 0..K; kept for `bench/` until ROADMAP item 8."""
    return kl_membership(fz.location / fz.k_max, fz.precision, np.arange(fz.k_max + 1) / fz.k_max)


def beta_centroids(location, precision, k_max) -> np.ndarray:
    """Centroids of the Beta-type counts given as (n,) columns, stable for large precision.

    A count's weights are its memberships scaled to sum to 1, as the softmax
    of -h * kl, so a large h cannot underflow them all. The counts of one K
    are weighed together, one `k_blocks` block at a time.
    """
    bad = (k_max == 1) & (location > 0.0) & (location < 1.0)
    if bad.any():  # kl(c, 0) and kl(c, 1) are both infinite
        i = int(bad.argmax())
        raise ValidationError(f"report {i}: c={location[i]:g}, K=1: no count is possible")
    out = np.empty(len(location))
    for k, idx in k_blocks(k_max):
        log_w = -precision[idx, None] * kl_divergence(location[idx, None] / k, np.arange(k + 1) / k)
        out[idx] = softmax(log_w, axis=1) @ np.arange(k + 1.0)
    return out


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting a raw membership vector to (c, h) on its grid 0..K."""

    location: float
    precision: float
    k_max: int
    sse: float
    iterations: int
    converged: bool
    degenerate: bool = False


class _GridSSE:
    """Squared error of `kl_membership(m, h, y/K)` against a membership vector."""

    def __init__(self, values: np.ndarray, k: int):
        self.values, self.t = values, np.arange(k + 1) / k
        self.logit = np.log(self.t[1:-1]) - np.log1p(-self.t[1:-1])

    def __call__(self, m: float, h: float) -> float:
        if not 0.0 <= m <= 1.0:
            raise ValidationError("m must lie in [0, 1]")
        resid = self.values - kl_membership(m, h, self.t)
        return float(resid @ resid)

    def gauss_newton(self, m: float, s: float, free_m: bool = True):
        """(sse, J'r, J'J) at (m, s = log h), J'J as (H_mm, H_ms, H_ss), for f = exp(-h kl).

        df/ds = -h kl f = f log f, and df/dm = -h f (logit m - logit t), 0 at
        t = 0 and 1 where f is; the m column is 0 unless `free_m`, which holds
        m at 0 or 1.
        """
        h = math.exp(s)
        fitted = kl_membership(m, h, self.t)
        resid = fitted - self.values
        j_s, inner = xlogy(fitted, fitted), slice(1, self.t.size - 1)
        j_m = 0.0 * j_s[inner]
        if free_m:
            j_m = -h * fitted[inner] * (math.log(m) - math.log1p(-m) - self.logit)
        grad = float(j_m @ resid[inner]), float(j_s @ resid)
        h_mm, h_ms = float(j_m @ j_m), float(j_m @ j_s[inner])
        return float(resid @ resid), grad, (h_mm, h_ms, float(j_s @ j_s))


def _scan_c(mv_values: np.ndarray, div_matrix: np.ndarray, h: float) -> int:
    """Best row of exp(-h * div_matrix) against the values; rows kl(c/K, y/K) scan c.

    Works in place on 16-row blocks, so a scan at K=500 allocates about 130 KB.
    """
    best_idx, best_sse = 0, np.inf
    for start in range(0, div_matrix.shape[0], 16):
        resid = div_matrix[start : start + 16] * -h
        np.exp(resid, out=resid)
        resid -= mv_values
        sse = np.einsum("ij,ij->i", resid, resid)
        j = int(np.argmin(sse))
        if sse[j] < best_sse:
            best_idx, best_sse = start + j, float(sse[j])
    return best_idx


_H_SCAN = np.exp(np.linspace(np.log(_MIN_PRECISION), np.log(CRISP_PRECISION_CEILING), 64))


@functools.lru_cache(maxsize=1)
def _divergence_matrix(k: int) -> np.ndarray:
    """kl(c/K, y/K) of all grid pairs, read-only; held for the last K, (K+1)^2 * 8 bytes."""
    t = np.arange(k + 1) / k
    out = np.empty((k + 1, k + 1))
    # 256-row blocks bound the temporaries to about 1 MB each at K=500. Freeing
    # blocks that size also lifts glibc's adaptive mmap threshold, so the 512 KB
    # blocks a later ppc stage in the same process allocates reuse heap pages.
    for start in range(0, k + 1, 256):
        out[start : start + 256] = kl_divergence(t[start : start + 256, None], t)
    out.flags.writeable = False
    return out


def _refine(sse: _GridSSE, m: float, s: float, bounds, tol: float, budget: int, free_m=True):
    """Levenberg-Marquardt in (m, s = log h), or in s alone; (m, s, sse, iterations, converged).

    s is clipped to `bounds`, and a step that would leave (0, 1) moves m a fixed
    share of the way to that boundary. Stops when a step would move (m, s) by
    less than `tol`, when an exact fit brings the SSE below tol^2 (J'J may turn
    singular there, so steps shrink only linearly), or after `budget` iterations.
    """
    lam, cur = 1.0e-3, sse.gauss_newton(m, s, free_m)
    for it in range(1, budget + 1):
        value, (g_m, g_s), (h_mm, h_ms, h_ss) = cur
        if value < tol * tol:
            return m, s, value, it, True
        a_m, a_s = h_mm * (1.0 + lam), h_ss * (1.0 + lam)
        det = a_m * a_s - h_ms * h_ms
        dm = 0.0
        if det > 0.0:
            dm = (h_ms * g_s - a_s * g_m) / det
            if s in bounds and not bounds[0] <= s - (g_s + h_ms * dm) / a_s <= bounds[1]:
                dm = -g_m / a_m  # h is held at its bound: the best m step alone
        if not 0.0 < m + dm < 1.0:
            dm = _BOUNDARY_SHARE * (float(m + dm >= 1.0) - m)
        # the best s step for the m step taken, so the joint solution while m stays inside
        ds = -(g_s + h_ms * dm) / a_s if a_s > 0.0 else 0.0
        m_new = m + dm if 0.0 < m + dm < 1.0 else m  # m may sit at float spacing from 0 or 1
        s_new = min(max(s + ds, bounds[0]), bounds[1])
        if max(abs(m_new - m), abs(s_new - s)) < tol:
            return m, s, value, it, True
        trial = sse.gauss_newton(m_new, s_new, free_m)
        if trial[0] < value:
            # the floor lets a few rejections restore the damping
            m, s, cur, lam = m_new, s_new, trial, max(lam * 0.1, 1.0e-6)
        else:
            lam *= 10.0
    return m, s, cur[0], budget, False


def fit_beta(mv: MembershipVector) -> FitResult:
    """Least-squares fit of (location, precision) to a raw membership vector.

    The location starts at the best integer for the precision that matches
    the half-height crossing, and Levenberg-Marquardt with the analytic
    Jacobian refines (m = c/K, s = log h). A scan over the integer locations
    at the refined h and one over 64 log-spaced precisions at the refined m
    restart it from a lower basin if either finds one. The loss is
    discontinuous at m = 0 and 1, so when the fit lies within 1e-3/K of one
    or started there, h is also refined alone at that edge and at its inside
    limit, and the lowest SSE wins. `FIT_TOL` bounds the last step in
    (m, log h) or, for an exact fit, the root SSE; `FIT_MAX_ITER` caps the
    iterations of all refinements together, and `converged` is false when the
    cap ends one. The precision lies in [1e-3, `CRISP_PRECISION_CEILING`], and a
    single-point support is fitted exactly with the precision pinned at that
    ceiling and flagged as degenerate; the three constants are read at each
    call. The divergence matrix kl(c/K, y/K) of all grid pairs, (K+1)^2 * 8
    bytes (2 MB at K=500, 72 MB at K=3000), is built once per K and held after
    the call.
    """
    crisp_precision, tol, max_iter = CRISP_PRECISION_CEILING, FIT_TOL, FIT_MAX_ITER
    values = mv.memberships
    k = mv.k_max
    if values.max() < NORMALIZED_MIN:
        raise ValidationError("membership vector must be normalized (max == 1)")
    support = mv.support()
    sse = _GridSSE(values, k)

    if support.size == 1:
        c = float(support[0])
        return FitResult(c, crisp_precision, k, sse(c / k, crisp_precision), 0, True, degenerate=True)

    peak = np.flatnonzero(values == values.max())
    c = float(peak.mean())
    m0 = c / k
    below_half = np.flatnonzero(values <= 0.5)
    if below_half.size:
        t_half = below_half[np.argmin(np.abs(below_half / k - m0))] / k
    else:
        t_half = sse.t[np.argmax(np.abs(sse.t - m0))]
    div_half = kl_divergence(m0, t_half)
    h = math.log(2.0) / div_half if 0.0 < div_half < math.inf else 1.0
    h = min(max(h, _MIN_PRECISION), crisp_precision)

    # The loss ripples with period 1/K in c once h is large and is multimodal
    # in h for poorly matched shapes, so scans over both check the refinement.
    h_scan = _H_SCAN[_H_SCAN <= crisp_precision]
    bounds = math.log(_MIN_PRECISION), math.log(crisp_precision)
    div_matrix = _divergence_matrix(k)
    budget, converged, edges = max_iter, True, set()
    m, s = _scan_c(values, div_matrix, h) / k, math.log(h)
    while True:
        if m in (0.0, 1.0):  # the last stage tries the edge itself
            edges.add(m)
        m = min(max(m, 0.5 / k), 1.0 - 0.5 / k)  # refine from half a step inside
        m, s, value, used, done = _refine(sse, m, s, bounds, tol, budget)
        budget, converged = budget - used, converged and done
        # restart from the best integer c at the refined h or the best scanned h at
        # the refined m if either is lower; no edge is started from twice
        m_alt = _scan_c(values, div_matrix, math.exp(s)) / k
        at_m_alt = math.inf if m_alt in edges else sse(m_alt, math.exp(s))
        h_alt = h_scan[_scan_c(values, np.multiply.outer(h_scan, kl_divergence(m, sse.t)), 1.0)]
        at_h_alt = sse(m, h_alt)
        if budget < 1 or min(at_m_alt, at_h_alt) >= value * (1.0 - 1.0e-9):
            break
        m, s = (m_alt, s) if at_m_alt <= at_h_alt else (m, math.log(h_alt))

    near = [edge for edge in (0.0, 1.0) if edge in edges or abs(m - edge) <= 1.0e-3 / k]
    for m_edge in [*near, *(abs(edge - _INSIDE_EDGE) for edge in near)]:
        fit = _refine(sse, m_edge, s, bounds, tol, budget, free_m=False)
        budget, converged = budget - fit[3], converged and fit[4]
        if fit[2] < value:
            m, s, value = fit[:3]
    c, h = m * k, math.exp(s)
    return FitResult(c, h, k, sse(c / k, h), max_iter - budget, converged)


def write_stats_csv(path, ids, fits) -> None:
    """Persist fitted statistics: sample_id, c, h, K, sse, converged."""
    fits = list(fits)
    if len(ids) != len(fits):
        raise ValidationError("ids and fits must have matching length")
    rows = (
        [sample_id, float(fit.location), float(fit.precision), fit.k_max, float(fit.sse),
         "true" if fit.converged else "false"]
        for sample_id, fit in zip(ids, fits)
    )
    tables.write_table(path, ["sample_id", "c", "h", "K", "sse", "converged"], rows)


def read_stats_csv(path):
    """Read fitted statistics; returns (ids, locations, precisions, k_maxes).

    A repeated sample id, or a row outside the family of `check_reports`, is an
    error that names the file, its line and its sample id.
    """
    expected = ["sample_id", "c", "h", "K"]
    header, rows, values = tables.read_table(
        path,
        lambda header: [name.strip() for name in header[:4]] == expected,
        f"expected columns {','.join(expected)}[,sse,converged]",
        slice(1, 4),
    )
    ids = [row[0] for _, row in rows]
    tables.reject_repeats(path, ids, "sample_id", lambda j: rows[j][0])
    locs, precs = values[:, :2].T.copy()  # contiguous columns
    ks = tables.integer_column(path, header, rows, 3, values[:, 2])
    check_reports(locs, precs, ks, lambda j: f"{path}: line {rows[j][0]}, sample_id {ids[j]!r}")
    return ids, locs, precs, ks
