#!/usr/bin/env python3
"""Pipeline benchmark for grancount: stage times, sampling quality, layers.

Run from the root of a source checkout:

    python3 bench/run.py --workload cnar-infer --seed 1 --seconds 20 --trace 0

Set-up starts a fresh interpreter that imports the CLI and writes the
workload's inputs from `--seed` (see `inputs.py`); it runs SETUP_REPEATS
times and `setup_s` is the median. The CLI stages then run in-process
through `grancount.cli.main`, one after another in this single process (a
closed loop with one caller, `workers=1`, one BLAS thread). The workload's
pass of stages repeats while the next pass is expected to end within
`--seconds`, and at least MIN_PASSES times. Every pass is checked (see
`checks.py`); timings are medians over passes.

With `--trace 0` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json. With `--trace 1` the
passes alternate between untraced and traced, and the metrics are the
per-layer ones, including the tracing overhead. The lines before the last
show every end-to-end metric the workload has, by name and unit.
"""

from __future__ import annotations

import os
import sys

# At most one BLAS thread; set before numpy is imported, here and in set-up.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "grancount", "__init__.py")):
    sys.exit(f"bench: no grancount sources under {SRC}; run from the root of a source checkout")
sys.path.insert(0, SRC)

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from grancount import cli, fuzzy  # noqa: E402
from grancount.errors import ValidationError  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 2
STAGES = ("simulate", "infer", "count", "fit", "ppc")

# What one set-up costs a user: start the interpreter, import the CLI, make
# the inputs. Run as a child so every repeat pays the imports again.
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import grancount.cli, inputs; "
    "inputs.generate(sys.argv[3], int(sys.argv[4]), sys.argv[5])"
)

# (name, unit) of every end-to-end quantity a pass can yield, in print order.
END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("simulate_s", "s"), ("count_s", "s"), ("fit_s", "s"),
    ("infer_s", "s"), ("ppc_s", "s"), ("min_ess", "draws"), ("min_ess_per_s", "1/s"),
    ("max_rhat", "1"), ("divergences", "count"), ("truth_z", "sd"), ("fit_sse_median", "1"),
    ("peak_rss_mb", "MB"), ("simulate_readback_failures", "count"),
]
# The ones every workload has; BENCHMARK.json gates these.
GATED = ("setup_s", "wall_s", "peak_rss_mb")


def setup(workload, seed, in_dir) -> float:
    """One set-up in a fresh interpreter; returns its wall time."""
    cmd = [sys.executable, "-c", SETUP_CODE, SRC, HERE, workload, str(seed), in_dir]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, timeout=120)
    return time.perf_counter() - t0


def stage_argv(stage, files, work):
    """Command line of one CLI stage; outputs go to the work directory."""
    out = lambda name: os.path.join(work, name)  # noqa: E731
    argv = {
        "simulate": ["simulate", "--out-data", out("sim_data.csv"),
                     "--out-covariates", out("sim_covariates.csv"),
                     "--out-params", out("sim_params.json")],
        "infer": ["infer", files["stats.csv"], files["covariates.csv"],
                  "--out-draws", out("draws.csv"), "--out-diagnostics", out("diagnostics.json")],
        "count": ["count", files.get("possibility.csv", ""), "--out", out("counts.csv")],
        "fit": ["fit", out("counts.csv"), "--out", out("fit.csv")],
        "ppc": ["ppc", files.get("draws.csv", ""), files["stats.csv"], files["covariates.csv"],
                "--out-csv", out("ppc.csv"), "--out-json", out("ppc.json")],
    }[stage]
    return ["--config", files["config.json"], *argv]


def run_stage(argv) -> int:
    """One CLI call; an uncaught exception counts as exit code 1."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except Exception:  # a crashing stage is a failed operation, not a benchmark crash
        traceback.print_exc()
        return 1


def run_pass(workload, files, work, tracer):
    """Run the workload's stages once, then check the outputs."""
    spec = inputs.WORKLOADS[workload]
    chk = checks.Checks()
    m, codes = {}, {}
    t_pass = time.perf_counter()
    for stage in spec["stages"]:
        argv = stage_argv(stage, files, work)
        t0 = time.perf_counter()
        rc = run_stage(argv) if tracer is None else tracer.run_stage(stage, lambda: run_stage(argv))
        m[f"{stage}_s"] = time.perf_counter() - t0
        codes[stage] = rc
        chk.ok(f"{stage}: exit code {rc}", lambda: rc == 0)
    m["wall_s"] = time.perf_counter() - t_pass

    out = lambda name: os.path.join(work, name)  # noqa: E731
    defect = None
    if "simulate" in spec["stages"] and codes["simulate"] == 0:
        # Known defect: `simulate` writes covariates its own reader rejects.
        # It is recorded and printed, never repaired; `infer` reads the
        # generator's files, so the rest of the pass still runs. Any other
        # error reading them back is a failed check.
        def read_back():
            nonlocal defect
            try:
                cli._read_covariates_csv(out("sim_covariates.csv"))
            except ValidationError as exc:
                defect = f"simulate covariates unreadable by the CLI reader: {exc}"
            return True

        chk.ok("simulate: covariates file can be read back", read_back)
        m["simulate_readback_failures"] = int(defect is not None)
        chk.ok("simulate: data parses with read_stats_csv",
               lambda: len(fuzzy.read_stats_csv(out("sim_data.csv"))[0])
               == inputs.SIMULATE["n_samples"])
    if "count" in spec["stages"]:
        p = inputs.POSSIBILITY
        checks.check_count(chk, out("counts.csv"), p["n_obs"], p["n_ref"])
    if "fit" in spec["stages"]:
        sse = checks.check_fit(chk, out("fit.csv"), out("counts.csv"))
        if sse is not None:
            m["fit_sse_median"] = sse
    if "infer" in spec["stages"]:
        h = inputs.HMC
        m.update(checks.check_infer(chk, out("draws.csv"), out("diagnostics.json"), spec["model"],
                                    h["n_chains"] * h["n_draws"], inputs.truth()))
        if "min_ess" in m:
            m["min_ess_per_s"] = m["min_ess"] / m["infer_s"]
    if "ppc" in spec["stages"]:
        checks.check_ppc(chk, out("ppc.csv"), out("ppc.json"), inputs.PPC["n_reps"])
    return m, chk, defect


def layer_metrics(tracer, traced, untraced_wall):
    """Per-layer metrics from the traced passes, per pass unless a ratio.

    Returns the result metrics and the readings that are only printed.
    """
    n_traced = len(traced)
    per_pass = lambda v: v / n_traced  # noqa: E731
    ms = lambda total_s, n: 1e3 * total_s / n if n else 0.0  # noqa: E731
    mean = lambda values: statistics.fmean(values) if values else 0.0  # noqa: E731
    out = {}
    for name in ("cnar", "car2"):
        calls = tracer.calls(f"model.{name}")
        out[f"model.{name}.calls"] = (per_pass(calls), "count")
        out[f"model.{name}.ms_per_call"] = (ms(tracer.total_s(f"model.{name}"), calls), "ms")
    inits = tracer.calls("model.posterior_init")
    out["model.posterior_init_ms"] = (ms(tracer.total_s("model.posterior_init"), inits), "ms")
    rejected = len(tracer.collected("model.cnar") + tracer.collected("model.car2"))
    logps = tracer.calls("model.cnar") + tracer.calls("model.car2")
    out["model.neginf_share"] = (rejected / logps if logps else 0.0, "share")
    sims = tracer.calls("model.simulate")
    out["model.simulate.calls"] = (per_pass(sims), "count")
    out["model.simulate.infer_calls"] = (per_pass(tracer.calls("model.simulate", "infer")), "count")
    out["model.simulate.ms_per_call"] = (ms(tracer.total_s("model.simulate"), sims), "ms")

    grads = tracer.calls("model.cnar", "infer") + tracer.calls("model.car2", "infer")
    # (accept rate, step size, min ESS, transitions, target accept rate)
    samples = tracer.collected("inference.sample")
    transitions = sum(s[3] for s in samples)
    out["inference.grads"] = (per_pass(grads), "count")
    out["inference.grads_per_draw"] = (grads / transitions if transitions else 0.0, "grads/draw")
    out["inference.ess_per_grad"] = (sum(s[2] for s in samples) / grads if grads else 0.0, "1/grad")
    out["inference.accept_gap"] = (mean([abs(s[0] - s[4]) for s in samples]), "share")
    out["inference.step_size"] = (mean([s[1] for s in samples]), "1")
    out["inference.overhead_us_per_grad"] = (
        1e6 * tracer.self_s("inference.sample") / grads if grads else 0.0, "us")
    out["inference.diagnostics_ms"] = (per_pass(1e3 * tracer.total_s("inference.diagnostics")), "ms")
    out["inference.write_draws_ms"] = (per_pass(1e3 * tracer.total_s("inference.write_draws")), "ms")

    fits = tracer.collected("fuzzy.fit")  # (iterations, converged)
    out["fuzzy.fit.calls"] = (per_pass(len(fits)), "count")
    out["fuzzy.fit.ms_per_call"] = (ms(tracer.total_s("fuzzy.fit"), len(fits)), "ms")
    out["fuzzy.fit.iterations_mean"] = (mean([f[0] for f in fits]), "count")
    out["fuzzy.fit.converged_share"] = (mean([f[1] for f in fits]), "share")
    refs = tracer.calls("possibility.count")
    out["possibility.count.ms_per_ref"] = (ms(tracer.total_s("possibility.count"), refs), "ms")
    reps = sum(tracer.collected("ppc.run_ppc"))
    out["ppc.self_ms_per_rep"] = (ms(tracer.self_s("ppc.run_ppc"), reps), "ms")

    for stage in STAGES:
        out[f"cli.{stage}.read_ms"] = (per_pass(1e3 * tracer.total_s("io.read", stage)), "ms")
        written = tracer.total_s("io.write", stage) + tracer.total_s("inference.write_draws", stage)
        out[f"cli.{stage}.write_ms"] = (per_pass(1e3 * written), "ms")
        out[f"cli.{stage}.self_ms"] = (per_pass(1e3 * tracer.self_s("stage", stage)), "ms")
    out["cli.simulate.readback_failures"] = (
        per_pass(sum(m.get("simulate_readback_failures", 0) for m in traced)), "count")

    # Calibrated wrapper cost of the spans a pass records. The difference of
    # traced and untraced wall times is no measure of it: host drift swamps it.
    overhead = per_pass(tracer.spans()) * tracer.span_overhead
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_share"] = (overhead / untraced_wall, "share")
    # printed and kept in the detail line, but not a result metric: the
    # better rate is the target, which `inference.accept_gap` measures from
    readings = {"inference.accept_rate": (mean([s[0] for s in samples]), "share")}
    return out, readings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # keep the stages' INFO logging off the measurement; errors still print
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")

    work_root = os.path.join(HERE, "_work")
    base = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    in_dir, work = os.path.join(base, "inputs"), os.path.join(base, "out")
    passes = {False: [], True: []}  # traced -> metrics of each pass
    attempted = failed = 0
    defects = set()
    tracer = tracing.Tracer() if args.trace else None

    try:
        os.makedirs(in_dir)
        os.makedirs(work)
        setup_times = [setup(args.workload, args.seed, in_dir) for _ in range(SETUP_REPEATS)]
        files = inputs.paths(args.workload, in_dir)
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(passes[False]) > len(passes[True])
            if traced:  # the untraced passes run the program unwrapped
                tracing.install(tracer)
            try:
                m, chk, defect = run_pass(args.workload, files, work, tracer if traced else None)
            finally:
                if traced:
                    tracer.close()
            passes[traced].append(m)
            attempted += chk.attempted
            failed += chk.failed
            defects.add(defect)
            n_done = len(passes[False]) + len(passes[True])
            expected_end = time.perf_counter() - start + statistics.median(
                p["wall_s"] for p in passes[False] + passes[True])
            if n_done >= MIN_PASSES and expected_end > args.seconds:
                break
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)  # only when no other run is using it

    table = {"setup_s": (statistics.median(setup_times), "s")}
    for name, unit in END_TO_END[1:]:
        values = [m[name] for m in passes[False] if name in m]
        if values:
            table[name] = (statistics.median(values), unit)
    table["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    print(f"workload {args.workload} seed {args.seed}: {len(passes[False])} untraced and "
          f"{len(passes[True])} traced passes, {attempted} checks, {failed} failed")
    for defect in sorted(defects - {None}):
        print(f"known defect: {defect}")
    if tracer is not None:
        metrics, readings = layer_metrics(tracer, passes[True], table["wall_s"][0])
        table.update(readings)
    else:
        metrics = {name: table[name] for name in GATED}
    for name, (value, unit) in table.items():
        print(f"  {name:<34}{value:>16.6g} {unit}")
    print("detail " + json.dumps({name: value for name, (value, _) in table.items()}))
    if tracer is not None:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<34}{value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
