"""Time `Posterior.logp_and_grad` alone, per model, in microseconds per call.

Usage: python tools/logp_timing.py <checkout>

Imports the `grancount` package of `<checkout>/src` and writes the benchmark's
`cnar-infer` inputs for seeds 1, 2 and 3 with `<checkout>/bench/inputs.py`:
n=200 reports at K=500 and the tail cutoff `infer` uses (`Posterior`'s default,
or the `truncation` config section's in checkouts that have one). Seed 3 is
the one whose cnar calls mostly reach the full grid on the exact-c/K posterior
of ROADMAP item 1. For each seed and each of cnar, car1 and car2 it builds the
`Posterior` the `infer` stage builds from those files and times `logp_and_grad`
on two point sets:

- `truth`: 2,000 points drawn with a fixed seed around the packed simulation
  truth;
- `chain`: the points one short seeded HMC chain of that model visits (1 chain,
  100 warmup + 100 draws, `max_leapfrog` 16), which is the region `infer`
  samples.

Each set is timed twice per pass: full calls, and gradient-only calls
(`need_logp=False`, what the leapfrog's inner steps ask for), where the
checkout has them. One pass over a set warms up; the next REPEATS passes are
timed, the two kinds alternating, and the median pass of each kind is printed
per call, with the share of points whose log density is -inf. For cnar the
warm-up pass also records the grid length of the tail cut at each point: its
quartiles say which regime the timing measured (about 190 columns around the
truth, about 45 where a clamped seed-1 `cnar-infer` chain goes), and, where
the checkout has the closed-form bare count pmf, the share of calls that take
it. One BLAS thread is used.
"""

import inspect
import os
import statistics
import sys
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

MODELS = ("cnar", "car1", "car2")
SEEDS = (1, 2, 3)
N_POINTS = 2000
REPEATS = 5
SPREAD = 0.1  # sd of the points around the truth, on the unconstrained scale


def truth_points(post, truth) -> np.ndarray:
    """N_POINTS seeded points around the truth, packed for `post.model`."""
    centre = np.array([{**truth, "extra_dispersion": 1.0}[name] for name in post.names])
    centre[post.n_covariates :] = np.log(centre[post.n_covariates :])
    rng = np.random.default_rng(0)
    return centre + SPREAD * rng.standard_normal((N_POINTS, centre.size))


def chain_points(post, inference) -> np.ndarray:
    """Every point one short seeded HMC chain on `post` evaluates, in order."""
    visited = []

    def target(phi, **need_logp):  # forwards the flag, and runs on checkouts without it
        visited.append(np.array(phi, dtype=np.float64))
        return post.logp_and_grad(phi, **need_logp)

    config = inference.HmcConfig(n_chains=1, n_warmup=100, n_draws=100, max_leapfrog=16, seed=1)
    inference.sample(target, config, post.initial_point())
    return np.array(visited)


def time_calls(post, phis, kwargs) -> float:
    """Seconds of one pass of `logp_and_grad(phi, **kwargs)` over `phis`."""
    t0 = time.perf_counter()
    for phi in phis:
        post.logp_and_grad(phi, **kwargs)
    return time.perf_counter() - t0


def report(post, label: str, phis) -> None:
    """Time `post.logp_and_grad` over `phis`, full and gradient-only, and print one line."""
    widths = []  # the cnar tail cut's grid length per call, on the warm-up pass only
    if post.model == "cnar":
        post._cutoff = lambda *args, cut=post._cutoff: widths.append(cut(*args)) or widths[-1]
    rejected = sum(not np.isfinite(post.logp_and_grad(phi)[0]) for phi in phis)
    vars(post).pop("_cutoff", None)  # the timed passes call the method itself
    kinds = {"full": {}}
    if "need_logp" in inspect.signature(post.logp_and_grad).parameters:
        kinds["gradient-only"] = {"need_logp": False}
    passes = {kind: [] for kind in kinds}
    for _ in range(REPEATS):
        for kind, kwargs in kinds.items():
            passes[kind].append(time_calls(post, phis, kwargs))
    timings = ", ".join(f"{kind} {1e6 * statistics.median(t) / len(phis):.1f}"
                        for kind, t in passes.items())
    spread = "; ".join(f"{kind} passes " + ", ".join(f"{1e6 * x / len(phis):.1f}" for x in t)
                       for kind, t in passes.items())
    cut = ""
    if widths:
        quartiles = tuple(np.percentile(widths, [25, 50, 75]))
        cut = "; cut width quartiles %.0f / %.0f / %.0f" % quartiles
        if hasattr(post, "_closed_hi"):
            closed = int(np.sum(np.array(widths) <= post._closed_hi))
            cut += f"; closed-form share {closed / len(widths):.3f} ({closed} of {len(widths)})"
    print(f"{post.model:<5} {label:<5} {timings} us/call  ({len(phis)} points; {spread}; "
          f"-inf share {rejected / len(phis):.4f}{cut})", flush=True)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        raise SystemExit(__doc__.split("\n\n")[1])
    checkout = os.path.abspath(args[0])
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "bench")]
    import inputs as bench_inputs
    from grancount import cli, inference, model

    config = cli.RunConfig()
    tail = {"tail_mass": config.truncation.tail_mass} if hasattr(config, "truncation") else {}
    truth = bench_inputs.truth()
    for seed in SEEDS:
        print(f"seed {seed}", flush=True)
        with tempfile.TemporaryDirectory() as tmp:
            files = bench_inputs.generate("cnar-infer", seed, tmp)
            spec, reports = cli._build_regression_spec(
                files["stats.csv"], files["covariates.csv"], config.add_intercept
            )
        for name in MODELS:
            post = model.Posterior(spec, reports, config.priors, name, **tail)
            report(post, "truth", truth_points(post, truth))
            report(post, "chain", chain_points(post, inference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
