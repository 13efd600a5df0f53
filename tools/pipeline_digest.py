"""Digest of every CLI data output, for byte comparisons between two checkouts.

Usage: python tools/pipeline_digest.py <checkout>

Runs the `grancount` pipeline of `<checkout>/src` through `cli.main`, in a
temporary directory, on the benchmark's `granular-ppc` inputs for seeds 1 and 2
(`<checkout>/bench/inputs.py`) and on the packaged demo files:

- `count` and `fit`;
- `simulate` for cnar, car1 and car2, and cnar again in the regimes of
  `CNAR_REGIMES`: dispersion 0.3 and 50 (the CLI default is 2), and a coef
  that puts many means near K = 500;
- `infer` for cnar, car1, car2 and scalar, with small HMC settings;
- `ppc` on the benchmark draws (cnar) and on car2's own draws;

then `count` and `fit` alone on a seeded possibility matrix with continuous degrees
(`write_continuous_possibility`), whose counts have many levels; and
`kernel-audit` on three kernels it writes itself: the two-outcome worked
example (not CAR), two disjoint indicators (CAR) and a seeded random kernel
with 9 outcomes on {0..12}. Last, `infer` runs as the benchmark runs it, on the
`cnar-infer` and `car2-infer` inputs and configs for seeds 1 and 2, and its
`draws.csv` and diagnostics JSON are hashed as `<workload>_draws.csv` and
`<workload>_diagnostics.json`. Then every case of `ERROR_CASES`, a malformed
input for each table reader and each rule it checks, runs through the stage
that reads it.

Prints one line `<seed> <file> <sha256>` per output (`kernel` in place of the
seed for the audits), and one line `error <case> <exit code> <message>` per
error case, where the message is the one error the stage logged, with the
temporary directory cut from its paths (an exception that escapes `cli.main`
prints its type and text in place of the code and message). The stdout of `infer` and `kernel-audit` is saved as a
`.txt` output. CSV and text files are hashed as bytes; JSON files are hashed as
canonical JSON without their `metadata` block, which holds a timestamp. One
BLAS thread is used, so the products in `ppc` are reproducible. To compare two
commits, run it on each checkout and `diff` the outputs, e.g. against a
`git archive` of the parent commit.
"""

import contextlib
import hashlib
import io
import json
import logging
import logging.handlers
import os
import sys
import tempfile

if __name__ == "__main__":  # imported, as the tier-1 fuzzer imports its cases, it sets nothing
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings, which numpy reads on import)

SEEDS = (1, 2)
SMALL_HMC = ["--set", "hmc.n_chains=2", "--set", "hmc.n_warmup=60",
             "--set", "hmc.n_draws=60", "--set", "hmc.max_leapfrog=16"]
MODELS = ("cnar", "car1", "car2", "scalar")
BENCH_INFER = ("cnar-infer", "car2-infer")
# label -> `--set` of an extra cnar `simulate` run, beyond the CLI defaults
CNAR_REGIMES = {"dispersion0.3": "simulate.dispersion=0.3", "dispersion50": "simulate.dispersion=50",
                "near_k": "simulate.coef=[5.0,0.5]"}


# a valid draws header and row for `ppc` on VALID_INPUTS; the draws cases edit copies
DRAWS_HEADER = "chain,iter,coef_intercept,coef_x,dispersion,precision_shape,precision_rate,energy,divergent"
DRAW = "1.0,0.5,2.0,4.0,0.1,10.0,0"
VALID_INPUTS = {"stats.csv": "sample_id,c,h,K\na,2.0,5.0,10\nb,4.0,5.0,10\n",
                "covariates.csv": "sample_id,x\na,0.5\nb,-0.5\n",
                "draws.csv": f"{DRAWS_HEADER}\n0,0,{DRAW}\n0,1,{DRAW}\n"}
# stage -> argv, with `bad.csv` in the place of the table its reader reads (for
# `kernel`, a JSON document under that name)
ERROR_STAGES = {
    "count": ["count", "bad.csv", "--out", "out.csv"],
    "fit": ["fit", "bad.csv", "--out", "out.csv"],
    "infer-stats": [*SMALL_HMC, "infer", "bad.csv", "covariates.csv",
                    "--out-draws", "out.csv", "--out-diagnostics", "out.json"],
    "infer-covariates": [*SMALL_HMC, "infer", "stats.csv", "bad.csv",
                         "--out-draws", "out.csv", "--out-diagnostics", "out.json"],
    "ppc-draws": ["--set", "ppc.n_reps=2", "ppc", "bad.csv", "stats.csv", "covariates.csv",
                  "--out-csv", "out.csv", "--out-json", "out.json"],
    "kernel": ["kernel-audit", "bad.csv"],
}
# case -> (stage, text of bad.csv): one bad cell, row or header per case
ERROR_CASES = {
    "possibility-empty": ("count", ""),
    "possibility-header": ("count", "g1, \n1.0,1.0\n"),
    "possibility-ragged": ("count", "g1,g2\n1.0,0.5\n1.0\n"),
    "possibility-no-rows": ("count", "g1,g2\n"),
    "possibility-not-a-number": ("count", "g1,g2\n1.0,0.5\n0.5,abc\n"),
    "possibility-padded-name": ("count", "g1, g2\n1.0,x\n"),
    "possibility-two-non-numbers": ("count", "g1,g2\n1.0,x\ny,1.0\n"),
    "possibility-above-1": ("count", "g1,g2\n1.0,0.5\n1.5,0.5\n"),
    "possibility-nan": ("count", "g1,g2\n1.0,nan\n"),
    "possibility-empty-count": ("count", "g1,g2\n1.0,0.5\n0.0,0.0\n"),
    # a cell past the `csv` module's 131,072-character field limit
    "possibility-field-limit": ("count", "g1\n1.0\n" + "1" * 200_000 + "\n"),
    "possibility-repeated-name": ("count", "g1,g2,g1\n1.0,0.5,0.2\n"),
    "counts-header": ("fit", "name,y0,y1\na,1.0,0.5\n"),
    "counts-not-a-number": ("fit", "id,y0,y1\na,1.0,0.5\nb,1.0,x\n"),
    "counts-nan": ("fit", "id,y0,y1\na,1.0,0.5\nb,nan,1.0\n"),
    "counts-above-1": ("fit", "id,y0,y1\na,1.0,1.5\n"),
    "counts-repeated-id": ("fit", "id,y0,y1\na,1.0,0.5\na,0.5,1.0\n"),
    "stats-header": ("infer-stats", "sample_id,c,K,h\na,2.0,10,5.0\n"),
    "stats-not-a-number": ("infer-stats", "sample_id,c,h,K\na,2.0,5.0,10\nb,4.0,bad,10\n"),
    "stats-k-not-a-number": ("infer-stats", "sample_id,c,h,K\na,2.0,5.0,10\nb,4.0,5.0,x\n"),
    "stats-k-fraction": ("infer-stats", "sample_id,c,h,K\na,2.0,5.0,10\nb,4.0,5.0,48.9\n"),
    "stats-k-nan": ("infer-stats", "sample_id,c,h,K\na,2.0,5.0,10\nb,4.0,5.0,nan\n"),
    "stats-k-inf": ("infer-stats", "sample_id,c,h,K\na,2.0,5.0,10\nb,4.0,5.0,inf\n"),
    "stats-c-above-k": ("infer-stats", "sample_id,c,h,K\na,2.0,5.0,10\nb,11.0,5.0,10\n"),
    "stats-c-nan": ("infer-stats", "sample_id,c,h,K\na,2.0,5.0,10\nb,nan,5.0,10\n"),
    "stats-repeated-id": ("infer-stats", "sample_id,c,h,K\na,2.0,5.0,10\na,4.0,5.0,10\n"),
    "covariates-header": ("infer-covariates", "id,x\na,0.5\nb,-0.5\n"),
    "covariates-not-a-number": ("infer-covariates", "sample_id,x\na,0.5\nb,abc\n"),
    "covariates-nan": ("infer-covariates", "sample_id,x\na,0.5\nb,nan\n"),
    "covariates-offset-inf": ("infer-covariates", "sample_id,x,offset\na,0.5,1.0\nb,-0.5,inf\n"),
    "covariates-offset-zero": ("infer-covariates", "sample_id,x,offset\na,0.5,1.0\nb,-0.5,0.0\n"),
    "covariates-duplicate-name": ("infer-covariates", "sample_id,x,x\na,0.5,1.0\nb,-0.5,2.0\n"),
    "covariates-missing-id": ("infer-covariates", "sample_id,x\na,0.5\n"),
    "covariates-repeated-id": ("infer-covariates", "sample_id,x\na,0.5\na,-0.5\n"),
    "draws-header": ("ppc-draws", "chain,iter,coef_x,energy\n0,0,1.0,10.0\n"),
    "draws-chain-fraction": ("ppc-draws", f"{DRAWS_HEADER}\n0,0,{DRAW}\n0.5,1,{DRAW}\n"),
    "draws-chain-nan": ("ppc-draws", f"{DRAWS_HEADER}\n0,0,{DRAW}\nnan,1,{DRAW}\n"),
    "draws-chain-past-int64": ("ppc-draws", f"{DRAWS_HEADER}\n0,0,{DRAW}\n1e300,1,{DRAW}\n"),
    "draws-iter-not-a-number": ("ppc-draws", f"{DRAWS_HEADER}\n0,0,{DRAW}\n0,x,{DRAW}\n"),
    "draws-dispersion-inf": ("ppc-draws", f"{DRAWS_HEADER}\n0,0,{DRAW}\n0,1,1.0,0.5,inf,4.0,0.1,10.0,0\n"),
    "draws-energy-not-a-number": ("ppc-draws", f"{DRAWS_HEADER}\n0,0,{DRAW}\n0,1,1.0,0.5,2.0,4.0,0.1,e,0\n"),
    "draws-divergent": ("ppc-draws", f"{DRAWS_HEADER}\n0,0,{DRAW}\n0,1,{DRAW[:-1]}true\n"),
    "draws-chain-ids": ("ppc-draws", f"{DRAWS_HEADER}\n1,0,{DRAW}\n1,1,{DRAW}\n"),
    "kernel-zero-mass": ("kernel", '{"nu": [1.0, 0.0], "outcomes": [[1.0, 0.5], [0.5, 1.0]]}'),
}


def digest(path) -> str:
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        payload.pop("metadata", None)
        data = json.dumps(payload, sort_keys=True).encode()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return hashlib.sha256(data).hexdigest()


def pipeline(cli, inputs, out):
    """Run every stage on `inputs` (file name -> path); return the output paths."""
    config = ["--config", inputs["config.json"]] if "config.json" in inputs else []
    files = []

    def stage(*argv, outputs, stdout=None):
        text = run_cli(cli, [*config, *SMALL_HMC, *map(str, argv)])
        files.extend(outputs)
        if stdout is not None:
            with open(stdout, "w", encoding="utf-8") as fh:
                fh.write(text)
            files.append(stdout)

    counts, fitted = out("counts.csv"), out("fit_stats.csv")
    stage("count", inputs["possibility.csv"], "--out", counts, outputs=[counts])
    stage("fit", counts, "--out", fitted, outputs=[fitted])
    stats = inputs.get("stats.csv", fitted)
    simulations = [(model, ["--set", f"model={model}"]) for model in ("cnar", "car1", "car2")]
    simulations += [(f"cnar_{label}", ["--set", "model=cnar", "--set", setting])
                    for label, setting in CNAR_REGIMES.items()]
    for label, settings in simulations:
        sim = [out(f"simulate_{label}_{name}")
               for name in ("data.csv", "covariates.csv", "params.json")]
        stage(*settings, "simulate", "--out-data", sim[0],
              "--out-covariates", sim[1], "--out-params", sim[2], outputs=sim)
    for model in MODELS:
        draws, diag = out(f"infer_{model}_draws.csv"), out(f"infer_{model}_diagnostics.json")
        stage("--set", f"model={model}", "infer", stats, inputs["covariates.csv"],
              "--out-draws", draws, "--out-diagnostics", diag, outputs=[draws, diag],
              stdout=out(f"infer_{model}_stdout.txt"))
    sources = [("bench", "cnar", inputs["draws.csv"])] if "draws.csv" in inputs else []
    sources.append(("car2", "car2", out("infer_car2_draws.csv")))
    for label, model, draws in sources:
        result = [out(f"ppc_{label}.csv"), out(f"ppc_{label}.json")]
        stage("--set", f"model={model}", "--set", "ppc.n_reps=20", "ppc", draws, stats,
              inputs["covariates.csv"], "--out-csv", result[0], "--out-json", result[1],
              outputs=result)
    return files


def write_continuous_possibility(path) -> None:
    """Write a seeded 300 x 12 possibility CSV with continuous degrees.

    Each read holds its own referent at degree 1 and every other referent, with
    probability 0.15, at a uniform degree in [0, 1).
    """
    rng = np.random.default_rng(5)
    degrees = np.where(rng.random((300, 12)) < 0.15, rng.random((300, 12)), 0.0)
    degrees[np.arange(300), rng.integers(0, 12, size=300)] = 1.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"g{j}" for j in range(12)) + "\n")
        fh.writelines(",".join(map(repr, row.tolist())) + "\n" for row in degrees)


def audit_kernels():
    """Name -> kernel JSON payload for the `kernel-audit` runs."""
    rng = np.random.default_rng(9)
    outcomes = rng.uniform(0.0, 1.0, size=(9, 13))
    outcomes[rng.uniform(size=outcomes.shape) < 0.3] = 0.0
    outcomes[np.arange(9), rng.integers(0, 13, size=9)] = 1.0
    outcomes[0] = np.maximum(outcomes[0], 0.05)  # every count covered
    return {
        "worked": {"nu": [0.5, 0.5], "names": ["xi1", "xi2"],
                   "outcomes": [[1.0, 0.5, 0.5, 0.25], [0.25, 0.5, 1.0, 1.0]]},
        "disjoint": {"nu": [0.5, 0.5], "outcomes": [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]},
        "random9": {"nu": rng.dirichlet(np.ones(9)).tolist(), "outcomes": outcomes.tolist()},
    }


def run_cli(cli, argv) -> str:
    """Run `grancount argv` in this process; return what it printed."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise SystemExit(f"grancount {' '.join(argv)} exited {code}")
    return stdout.getvalue()


def run_error_case(cli, stage, text, work) -> str:
    """`<exit code> <message>` of the stage on `bad.csv` = `text`, run in `work`."""
    for name, content in [*VALID_INPUTS.items(), ("bad.csv", text)]:
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            fh.write(content)
    argv = [os.path.join(work, arg) if arg.endswith((".csv", ".json")) else arg
            for arg in ERROR_STAGES[stage]]
    errors = logging.handlers.BufferingHandler(capacity=100)
    errors.setLevel(logging.ERROR)
    logger = logging.getLogger("grancount")
    logger.addHandler(errors)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # report what escapes, as a traceback would
        return f"raised {type(exc).__name__}: {exc}"
    finally:
        logger.removeHandler(errors)
    messages = " | ".join(record.getMessage() for record in errors.buffer)
    return f"{code} {messages.replace(work + os.sep, '')}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        raise SystemExit(__doc__.split("\n\n")[1])
    checkout = os.path.abspath(args[0])
    sys.path[:0] = [os.path.join(checkout, "src"), checkout]
    from bench import inputs as bench_inputs
    from grancount import cli

    data = os.path.join(os.path.dirname(cli.__file__), "data")
    runs = [(str(seed), None) for seed in SEEDS]
    runs.append(("demo", {"possibility.csv": os.path.join(data, "demo_possibility.csv"),
                          "covariates.csv": os.path.join(data, "demo_covariates.csv")}))
    with tempfile.TemporaryDirectory() as tmp:
        for label, inputs in runs:
            work = os.path.join(tmp, label)
            os.mkdir(work)
            if inputs is None:
                inputs = bench_inputs.generate("granular-ppc", int(label), work)
            for path in pipeline(cli, inputs, lambda name: os.path.join(work, name)):
                print(label, os.path.basename(path), digest(path), flush=True)
        possibility, counts, fitted = (os.path.join(tmp, f"continuous_{name}.csv")
                                       for name in ("possibility", "counts", "fit_stats"))
        write_continuous_possibility(possibility)
        run_cli(cli, ["count", possibility, "--out", counts])
        run_cli(cli, ["fit", counts, "--out", fitted])
        for path in (counts, fitted):
            print("continuous", os.path.basename(path), digest(path), flush=True)
        for name, payload in audit_kernels().items():
            kernel, audit = (os.path.join(tmp, f"kernel_{name}{ext}") for ext in (".json", ".txt"))
            with open(kernel, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            with open(audit, "w", encoding="utf-8") as fh:
                fh.write(run_cli(cli, ["kernel-audit", kernel]))
            print("kernel", os.path.basename(audit), digest(audit), flush=True)
        for workload in BENCH_INFER:
            for seed in SEEDS:
                work = os.path.join(tmp, f"{workload}-{seed}")
                os.mkdir(work)
                files = bench_inputs.generate(workload, seed, work)
                draws, diag = (os.path.join(work, f"{workload}_{name}")
                               for name in ("draws.csv", "diagnostics.json"))
                run_cli(cli, ["--config", files["config.json"], "infer", files["stats.csv"],
                              files["covariates.csv"], "--out-draws", draws,
                              "--out-diagnostics", diag])
                for path in (draws, diag):
                    print(seed, os.path.basename(path), digest(path), flush=True)
        for case, (stage, text) in ERROR_CASES.items():
            work = os.path.join(tmp, f"error-{case}")
            os.mkdir(work)
            print("error", case, run_error_case(cli, stage, text, work), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
