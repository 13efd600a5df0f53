"""Output checks and file-derived metrics for one benchmark pass.

Checks are tolerance-based, never byte digests, so a change in float
operation order still passes. Each check is one operation: `Checks.ok`
counts it as attempted, and as failed when its condition is false or
raises.
"""

from __future__ import annotations

import csv
import json
import math
import sys

import numpy as np

from grancount import fuzzy, inference, model, possibility

# Tolerance for the fit SSE recomputed from (c, h) against the written value.
SSE_RTOL = 1.0e-6
SSE_ATOL = 1.0e-9

# Quality floors and ceilings, so that a faster but worse sampler, likelihood
# or fit fails a check. Each lies well outside the range seen over workload
# seeds 1-40 (1-30 for the fit) at the commit that added the benchmark; see
# `quality` in baseline.json. A failing one is a failed operation.
MIN_ESS_FLOOR = 10.0
MAX_RHAT_CEILING = 1.2
TRUTH_Z_CEILING = {"cnar": 20.0, "car2": 15.0}
FIT_SSE_MEDIAN_CEILING = 0.85


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def ok(self, label, fn) -> bool:
        """Run check `fn()`; a False result or an exception is a failure."""
        self.attempted += 1
        try:
            passed = bool(fn())
        except Exception as exc:  # the check's verdict, reported below
            passed = False
            label = f"{label} ({type(exc).__name__}: {exc})"
        if not passed:
            self.failed += 1
            print(f"check failed: {label}", file=sys.stderr)
        return passed


def check_count(checks: Checks, counts_path, n_obs, n_ref) -> None:
    names, vectors = [], []

    def parse():
        names[:], vectors[:] = possibility.read_counts_csv(counts_path)
        return len(vectors) == n_ref

    if checks.ok("count: output parses with read_counts_csv, one row per referent", parse):
        checks.ok(
            "count: vectors normalized with length n_obs + 1",
            lambda: all(
                v.memberships.size == n_obs + 1 and abs(v.memberships.max() - 1.0) <= 1e-12
                for v in vectors
            ),
        )


def _read_sse(stats_path):
    with open(stats_path, newline="", encoding="utf-8") as fh:
        return [float(row["sse"]) for row in csv.DictReader(fh)]


def check_fit(checks: Checks, stats_path, counts_path) -> float | None:
    """Check the fitted statistics; return their median SSE when they parse."""
    parsed = {}

    def parse():
        parsed["stats"] = fuzzy.read_stats_csv(stats_path)
        parsed["sse"] = _read_sse(stats_path)
        parsed["counts"] = possibility.read_counts_csv(counts_path)[1]
        return len(parsed["sse"]) == len(parsed["counts"])

    if not checks.ok("fit: output parses with read_stats_csv, one row per count vector", parse):
        return None
    _, locations, precisions, ks = parsed["stats"]

    def sse_matches():
        for c, h, k, sse, vec in zip(locations, precisions, ks, parsed["sse"], parsed["counts"]):
            grid = fuzzy.membership_grid(fuzzy.BetaFuzzy(float(c), float(h), int(k)))
            resid = vec.memberships - grid
            if not math.isclose(float(resid @ resid), sse, rel_tol=SSE_RTOL, abs_tol=SSE_ATOL):
                return False
        return True

    checks.ok("fit: written SSE equals the SSE recomputed with membership_grid", sse_matches)
    median = float(np.median(parsed["sse"]))
    checks.ok(f"fit: median SSE {median:.4g} below {FIT_SSE_MEDIAN_CEILING}",
              lambda: median < FIT_SSE_MEDIAN_CEILING)
    return median


def check_infer(checks: Checks, draws_path, diag_path, model_name, n_expected, truth) -> dict:
    """Check draws and diagnostics; return the sampling-quality metrics."""
    out = {}

    def parse_draws():
        out["draws"] = inference.read_draws_csv(draws_path)
        return True

    if checks.ok("infer: draws parse with read_draws_csv", parse_draws):
        draws = out["draws"]
        n_coef = sum(1 for name in draws.names if name.startswith("coef_"))
        checks.ok(
            "infer: draws finite, positives positive, rows == chains x draws",
            lambda: draws.draws.shape[0] == n_expected
            and np.all(np.isfinite(draws.draws))
            and np.all(draws.draws[:, n_coef:] > 0.0)
            and list(draws.names) == model.parameter_names(model_name, ("intercept", "x1")),
        )
        z = [
            abs(draws.column(name).mean() - truth[name]) / draws.column(name).std(ddof=1)
            for name in draws.names[:n_coef]
        ]
        out["truth_z"] = float(max(z))

    def parse_diag():
        with open(diag_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        params = payload["parameters"]
        out["min_ess"] = float(min(p["ess_bulk"] for p in params))
        out["max_rhat"] = float(max(p["rhat"] for p in params))
        out["divergences"] = int(payload["divergences"])
        return math.isfinite(out["min_ess"]) and math.isfinite(out["max_rhat"])

    if checks.ok("infer: diagnostics JSON parses with finite ESS and R-hat", parse_diag):
        checks.ok(f"infer: min ESS {out['min_ess']:.4g} above {MIN_ESS_FLOOR}",
                  lambda: out["min_ess"] > MIN_ESS_FLOOR)
        checks.ok(f"infer: max R-hat {out['max_rhat']:.4g} below {MAX_RHAT_CEILING}",
                  lambda: out["max_rhat"] < MAX_RHAT_CEILING)
    if "truth_z" in out:
        ceiling = TRUTH_Z_CEILING[model_name]
        checks.ok(f"infer: truth_z {out['truth_z']:.4g} below {ceiling}",
                  lambda: out["truth_z"] < ceiling)
    out.pop("draws", None)
    return out


def check_ppc(checks: Checks, csv_path, json_path, n_reps) -> None:
    def rows_finite():
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        return len(rows) == n_reps and all(
            math.isfinite(float(r[key])) for r in rows for key in ("u_rep", "u_cross")
        )

    def summary_in_range():
        with open(json_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        return (
            0.0 <= payload["tail_prob_mean"] <= 1.0
            and 0.0 <= payload["tail_prob_iqr80"] <= 1.0
            and math.isfinite(payload["u_obs"])
            and payload["n_reps"] == n_reps
        )

    checks.ok("ppc: CSV has one finite u_rep, u_cross row per replicate", rows_finite)
    checks.ok("ppc: tail probabilities in [0, 1] and u_obs finite", summary_in_range)
