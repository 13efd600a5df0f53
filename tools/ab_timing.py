"""CPU time of two checkouts side by side in one process, in alternated rounds.

Usage: python tools/ab_timing.py <checkout-a> <checkout-b> [rounds]

Loads the `grancount` package of each `<checkout>/src` under its own module
name (`grancount_a`, `grancount_b`), so both are imported at once and share the
process, its CPU and its caches. The benchmark's `cnar-infer` and `car2-infer`
inputs for seed 1 are written with `<checkout-a>/bench/inputs.py`, which is
imported and run, never modified. Each side builds its `Posterior` from those
files, as `infer` does, and three timings alternate, in each round the side that
ran second in the previous round running first:

- `sample cnar`, `sample car2`: `inference.sample` at the benchmark's HMC
  settings (the inputs' `config.json`: 2 chains, 150 + 150 transitions,
  `max_leapfrog` 64);
- `logp cnar`: `Posterior.logp_and_grad` over the points, with the `need_logp`
  flags, that side a's cnar `sample` visits (about 20,000).

Per timing it prints each side's median CPU time (`time.process_time`) over
`rounds` rounds (default 8) and the per-round ratios b/a: on a host whose CPU
speed changes between rounds, the ratios of one round, taken close together,
are the figure to read. It also prints whether the two sides' draws are
identical and, over the recorded points, the largest disagreement of the log
density (relative) and of the gradient (relative to the point's max|grad|).
One BLAS thread is used.
"""

import importlib
import importlib.util
import os
import statistics
import sys
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

SIDES = ("a", "b")


def load_package(checkout: str, name: str):
    """`<checkout>/src/grancount` imported as `name`, with the submodules the timings call."""
    root = os.path.join(checkout, "src", "grancount")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"), submodule_search_locations=[root]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in ("cli", "inference", "model"):
        importlib.import_module(f"{name}.{sub}")
    return package


def bench_inputs(checkout: str, package):
    """`<checkout>/bench/inputs.py`, whose `from grancount import model` gets `package`."""
    saved = sys.modules.get("grancount")
    sys.modules["grancount"] = package
    try:
        spec = importlib.util.spec_from_file_location(
            "ab_bench_inputs", os.path.join(checkout, "bench", "inputs.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        if saved is None:
            del sys.modules["grancount"]
        else:
            sys.modules["grancount"] = saved
    return module


def setup(package, files):
    """(posterior, run) for one side: `run()` samples as `infer` does and returns the draws."""
    config = package.cli.load_config(files["config.json"])
    spec, reports = package.cli._build_regression_spec(
        files["stats.csv"], files["covariates.csv"], config.add_intercept
    )
    post = package.model.Posterior(spec, reports, config.priors, config.model)

    def run(target=None):
        return package.inference.sample(
            target or post.logp_and_grad, config.hmc, post.initial_point(), names=post.names,
            constrain=post.constrain,
        ).draws

    return post, run


def cpu_seconds(fn) -> float:
    t0 = time.process_time()
    fn()
    return time.process_time() - t0


def recorded_points(post, run):
    """Every (point, need_logp) one `run` of the sampler asks `post` for, in order."""
    visited = []

    def target(phi, need_logp=True):
        visited.append((phi.copy(), need_logp))
        return post.logp_and_grad(phi, need_logp)

    run(target)
    return visited


def disagreement(post_a, post_b, points):
    """Largest relative log-density gap and gradient gap over max|grad| at `points`."""
    worst_logp = worst_grad = 0.0
    for phi, _ in points:
        (logp_a, grad_a), (logp_b, grad_b) = post_a.logp_and_grad(phi), post_b.logp_and_grad(phi)
        if not (np.isfinite(logp_a) and np.isfinite(logp_b)):
            if logp_a != logp_b:
                return float("inf"), float("inf")
            continue
        worst_logp = max(worst_logp, abs(logp_b - logp_a) / abs(logp_a))
        scale = np.abs(grad_a).max()
        worst_grad = max(worst_grad, float(np.abs(grad_b - grad_a).max() / scale) if scale else 0.0)
    return worst_logp, worst_grad


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (2, 3):
        raise SystemExit(__doc__.split("\n\n")[1])
    rounds = int(args[2]) if len(args) == 3 else 8
    checkouts = dict(zip(SIDES, map(os.path.abspath, args[:2])))
    packages = {side: load_package(path, f"grancount_{side}") for side, path in checkouts.items()}
    inputs = bench_inputs(checkouts["a"], packages["a"])

    jobs, posts, runs = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in ("cnar-infer", "car2-infer"):
            os.mkdir(out := os.path.join(tmp, workload))
            files = inputs.generate(workload, 1, out)
            model = workload.split("-")[0]
            for side in SIDES:
                posts[model, side], runs[model, side] = setup(packages[side], files)
                jobs[f"sample {model}", side] = runs[model, side]
    points = recorded_points(posts["cnar", "a"], runs["cnar", "a"])
    for side in SIDES:
        post = posts["cnar", side]
        jobs["logp cnar", side] = lambda post=post: [post.logp_and_grad(*pt) for pt in points]

    for model in ("cnar", "car2"):
        same = np.array_equal(runs[model, "a"](), runs[model, "b"]())
        print(f"sample {model}: draws {'identical' if same else 'differ'}", flush=True)
    worst_logp, worst_grad = disagreement(posts["cnar", "a"], posts["cnar", "b"], points)
    print(f"logp cnar: {len(points)} points; largest |logp b - logp a|/|logp a| {worst_logp:.2e}, "
          f"|grad b - grad a|/max|grad a| {worst_grad:.2e}", flush=True)

    names = list(dict.fromkeys(name for name, _ in jobs))
    seconds = {key: [] for key in jobs}
    for r in range(rounds):
        for name in names:
            for side in SIDES[:: 1 if r % 2 == 0 else -1]:
                seconds[name, side].append(cpu_seconds(jobs[name, side]))
    for name in names:
        a, b = seconds[name, "a"], seconds[name, "b"]
        ratios = [y / x for x, y in zip(a, b)]
        print(f"{name}: median CPU a {statistics.median(a):.3f} s, b {statistics.median(b):.3f} s; "
              f"ratio b/a median {statistics.median(ratios):.3f}, per round "
              + " ".join(f"{x:.3f}" for x in ratios), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
