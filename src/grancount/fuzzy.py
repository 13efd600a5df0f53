"""Beta-type parametric fuzzy counts.

The family used throughout is the mode-normalised Beta kernel written in
divergence form: a fuzzy count with location c and precision h assigns grid
point y the membership exp(-h * kl(c/K, y/K)), where kl is the Bernoulli
Kullback-Leibler divergence. The shape is unimodal on [0, K], peaks at c,
and collapses to a crisp indicator as h grows.

Besides evaluation and alpha-cuts this module fits raw membership vectors to
(c, h) statistics by derivative-free least squares, and compresses fuzzy
counts to scalars (centroid defuzzification).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tables
from .errors import ValidationError
from .possibility import MembershipVector

# Cap for the fitted precision of a point (crisp) fuzzy set; keeps the
# downstream densities that consume h finite.
CRISP_PRECISION_CEILING = 1.0e6

_MIN_PRECISION = 1.0e-3
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _kl_from_logs(m, log_t, log1m_t):
    """kl(m, t) from log(t) and log1p(-t); +inf where t puts no mass where m does."""
    if not 0.0 <= m <= 1.0:
        raise ValidationError("m must lie in [0, 1]")
    if m == 0.0:
        out = -log1m_t
    elif m == 1.0:
        out = -log_t
    else:
        out = m * (math.log(m) - log_t) + (1.0 - m) * (math.log1p(-m) - log1m_t)
    # rounding can leave a tiny negative residue near t == m; KL is >= 0
    return np.maximum(out, 0.0)


def bernoulli_kl(m, t):
    """KL divergence between Bernoulli(m) and Bernoulli(t), elementwise in t.

    Conventions: 0*log(0) = 0, and the divergence is +inf wherever t puts
    zero mass on a point m requires.
    """
    t_arr = np.asarray(t, dtype=np.float64)
    if not np.all((t_arr >= 0.0) & (t_arr <= 1.0)):
        raise ValidationError("t must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        out = _kl_from_logs(m, np.log(t_arr), np.log1p(-t_arr))
    return float(out) if t_arr.ndim == 0 else out


def kl_divergence(m, t) -> np.ndarray:
    """`bernoulli_kl` vectorised over m too, without its checks or its clip at 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        left = np.where(m > 0.0, m * (np.log(m) - np.log(t)), 0.0)
        right = np.where(m < 1.0, (1.0 - m) * (np.log1p(-m) - np.log1p(-t)), 0.0)
    return left + right


def kl_membership(m, h, t) -> np.ndarray:
    """exp(-h * kl(m, t)) for broadcastable arrays; infinite divergences give 0."""
    return np.exp(-h * kl_divergence(m, t))


@dataclass(frozen=True)
class BetaFuzzy:
    """Parametric fuzzy count (c, h, K): location in [0, K], finite precision > 0."""

    location: float
    precision: float
    k_max: int

    def __post_init__(self):
        if self.k_max < 1:
            raise ValidationError("k_max must be at least 1")
        if not 0.0 <= self.location <= self.k_max:
            raise ValidationError(
                f"location {self.location} outside [0, {self.k_max}]"
            )
        if not (math.isfinite(self.precision) and self.precision > 0.0):
            raise ValidationError("precision must be strictly positive and finite")

    @property
    def location_scaled(self) -> float:
        return self.location / self.k_max


def beta_membership(fz: BetaFuzzy, y: int) -> float:
    """Membership of the integer count y under the Beta-type fuzzy set."""
    if not 0 <= y <= fz.k_max:
        raise ValidationError(f"y={y} outside the count space [0, {fz.k_max}]")
    div = bernoulli_kl(fz.location_scaled, y / fz.k_max)
    return 0.0 if math.isinf(div) else math.exp(-fz.precision * div)


def membership_grid(fz: BetaFuzzy) -> np.ndarray:
    """Memberships on the full grid y = 0..K."""
    t = np.arange(fz.k_max + 1) / fz.k_max
    div = bernoulli_kl(fz.location_scaled, t)
    out = np.zeros(t.size)
    finite = np.isfinite(div)
    out[finite] = np.exp(-fz.precision * div[finite])
    return out


def to_membership_vector(fz: BetaFuzzy) -> MembershipVector:
    grid = membership_grid(fz)
    if grid.max() <= 0.0:
        raise ValidationError(
            "membership underflows to zero on the whole grid; precision too large "
            "for a non-integral location"
        )
    return MembershipVector(grid)


def alpha_cut(fz: BetaFuzzy, alpha: float):
    """Integer interval [lo, hi] where membership reaches alpha; None if empty."""
    if not 0.0 < alpha <= 1.0:
        raise ValidationError("alpha must lie in (0, 1]")
    hits = np.flatnonzero(membership_grid(fz) >= alpha)
    if hits.size == 0:
        return None
    return int(hits[0]), int(hits[-1])


def defuzzify(mv: MembershipVector) -> float:
    """Centroid of a fuzzy count: sum(y * xi(y)) / sum(xi(y))."""
    weights = mv.memberships
    total = weights.sum()
    if total <= 0.0:
        raise ValidationError("empty fuzzy set")
    return float(np.arange(weights.size) @ weights / total)


def beta_centroid(fz: BetaFuzzy) -> float:
    """Centroid of the Beta-type set on its grid, stable for large precision."""
    t = np.arange(fz.k_max + 1) / fz.k_max
    div = bernoulli_kl(fz.location_scaled, t)
    finite = np.isfinite(div)
    # normalise by the smallest divergence so the weights never all underflow
    w = np.zeros(t.size)
    w[finite] = np.exp(-fz.precision * (div[finite] - div[finite].min()))
    return float(np.arange(t.size) @ w / w.sum())


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting a raw membership vector to (c, h)."""

    params: BetaFuzzy
    sse: float
    iterations: int
    converged: bool
    degenerate: bool = False


class _GridSSE:
    """Squared error of exp(-h * kl(m, y/K)) against a membership vector.

    The grid's logs are taken once; each evaluation then makes the float
    operations of `membership_grid` and the subtraction, so it has their bits.
    """

    def __init__(self, values: np.ndarray, k: int):
        self.values, self.k = values, k
        with np.errstate(divide="ignore"):
            t = np.arange(k + 1) / k
            self.logs = np.log(t), np.log1p(-t)

    def divergence(self, m: float):
        # kl(m, y/K) is infinite at y=0 unless m=0 and at y=K unless m=1
        return slice(int(m > 0.0), self.k + int(m == 1.0)), _kl_from_logs(m, *self.logs)

    def at(self, divergence, h: float) -> float:
        finite, div = divergence
        fitted = np.zeros(self.k + 1)
        fitted[finite] = np.exp(-h * div[finite])
        resid = self.values - fitted
        return float(resid @ resid)

    def __call__(self, m: float, h: float) -> float:
        return self.at(self.divergence(m), h)


def _scan_c(mv_values: np.ndarray, div_matrix: np.ndarray, h: float) -> int:
    """Best integer location for a fixed precision, given kl(c/K, y/K) (chunked)."""
    best_idx, best_sse = 0, np.inf
    for start in range(0, div_matrix.shape[0], 256):
        resid = np.exp(-h * div_matrix[start : start + 256]) - mv_values[None, :]
        sse = np.einsum("ij,ij->i", resid, resid)
        j = int(np.argmin(sse))
        if sse[j] < best_sse:
            best_idx, best_sse = start + j, float(sse[j])
    return best_idx


_H_SCAN = np.exp(np.linspace(np.log(_MIN_PRECISION), np.log(CRISP_PRECISION_CEILING), 64))


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


def fit_beta(
    mv: MembershipVector,
    crisp_ceiling: float = CRISP_PRECISION_CEILING,
    tol: float = 1.0e-8,
    max_iter: int = 500,
) -> FitResult:
    """Least-squares fit of (location, precision) to a raw membership vector.

    The location starts at the argmax (ties average), the precision at the
    value matching the half-height crossing, and both are refined by
    alternating golden-section line searches until neither moves by more
    than `tol`. A single-point support is fitted exactly with the precision
    pinned at the crisp ceiling and flagged as degenerate. The fit holds the
    divergence matrix kl(c/K, y/K) of all grid pairs, (K+1)^2 * 8 bytes: 2 MB
    at K=500, 72 MB at K=3000.
    """
    if not tol > 0.0:
        raise ValidationError(f"tol must be strictly positive, got {tol!r}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter!r}")
    if not (math.isfinite(crisp_ceiling) and crisp_ceiling > _MIN_PRECISION):
        raise ValidationError(f"crisp_ceiling must be finite and above {_MIN_PRECISION:g}")
    values = mv.memberships
    k = mv.k_max
    if values.max() < 1.0 - 1.0e-9:
        raise ValidationError("membership vector must be normalized (max == 1)")
    support = mv.support()
    t_grid = np.arange(k + 1) / k
    sse = _GridSSE(values, k)

    if support.size == 1:
        c = float(support[0])
        return FitResult(
            params=BetaFuzzy(c, crisp_ceiling, k),
            sse=sse(c / k, crisp_ceiling),
            iterations=0,
            converged=True,
            degenerate=True,
        )

    peak = np.flatnonzero(values == values.max())
    c = float(peak.mean())
    m0 = c / k
    below_half = np.flatnonzero(values <= 0.5)
    if below_half.size:
        nearest = below_half[np.argmin(np.abs(below_half / k - m0))]
        div_half = bernoulli_kl(m0, nearest / k)
    else:
        farthest = np.argmax(np.abs(t_grid - m0))
        div_half = bernoulli_kl(m0, t_grid[farthest])
    h = math.log(2.0) / div_half if 0.0 < div_half < math.inf else 1.0
    h = min(max(h, _MIN_PRECISION), crisp_ceiling)

    # The loss surface ripples with period 1/K in c once h is large and is
    # multimodal in h for poorly matched shapes, so each line search scans
    # coarse candidates first and golden-refines only the bracketing basin.
    h_scan = _H_SCAN[_H_SCAN <= crisp_ceiling]
    div_matrix = np.empty((k + 1, k + 1))  # filled in blocks to bound the temporaries
    for start in range(0, k + 1, 256):
        div_matrix[start : start + 256] = kl_divergence(t_grid[start : start + 256, None], t_grid)
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
        div_c = sse.divergence(c_new / k)
        j = int(np.argmin([sse.at(div_c, hh) for hh in h_scan]))
        log_h_new = _golden_min(
            lambda x: sse.at(div_c, math.exp(x)),
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
        sse_now = sse.at(div_c, h)
        stalled = stalled + 1 if abs(last_sse - sse_now) <= 1.0e-15 * (1.0 + sse_now) else 0
        last_sse = sse_now
        if stalled >= 3:  # zigzag in a flat valley; keep converged honest
            break

    return FitResult(
        params=BetaFuzzy(c, h, k),
        sse=sse(c / k, h),
        iterations=iterations,
        converged=converged,
    )


def write_stats_csv(path, ids, fits) -> None:
    """Persist fitted statistics: sample_id, c, h, K, sse, converged."""
    fits = list(fits)
    if len(ids) != len(fits):
        raise ValidationError("ids and fits must have matching length")
    rows = (
        [sample_id, float(fit.params.location), float(fit.params.precision), fit.params.k_max,
         float(fit.sse), "true" if fit.converged else "false"]
        for sample_id, fit in zip(ids, fits)
    )
    tables.write_table(path, ["sample_id", "c", "h", "K", "sse", "converged"], rows)


def read_stats_csv(path):
    """Read fitted statistics; returns (ids, locations, precisions, k_maxes)."""
    expected = ["sample_id", "c", "h", "K"]
    _, rows = tables.read_table(
        path,
        lambda header: [name.strip() for name in header[:4]] == expected,
        f"expected columns {','.join(expected)}[,sse,converged]",
    )
    ids, locs, precs, ks = [], [], [], []
    for i, row in rows:
        c, h = tables.parse_floats(path, i, expected[1:3], row[1:3])
        ids.append(row[0])
        locs.append(c)
        precs.append(h)
        ks.append(tables.parse_int(path, i, "K", row[3]))
    return ids, np.array(locs), np.array(precs), np.array(ks, dtype=np.int64)
