"""Contract tests for the command-line pipeline, run in-process through `cli.main`."""

import argparse
import csv
import dataclasses
import json
import logging
import os
import statistics
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from grancount import cli, fuzzy, inference, model

DATA = Path(cli.__file__).parent / "data"
SMALL = [
    "--set", "hmc.n_chains=2",
    "--set", "hmc.n_warmup=50",
    "--set", "hmc.n_draws=50",
    "--set", "hmc.max_leapfrog=16",
    "--set", "ppc.n_reps=20",
]

# every value `--set` can change, as `show-config` prints it
SETTABLE_KEYS = [
    "add_intercept", "model", "seed", "workers",
    "hmc.init_jitter", "hmc.max_leapfrog", "hmc.n_chains", "hmc.n_draws", "hmc.n_warmup",
    "hmc.seed", "hmc.target_accept",
    "ppc.grid", "ppc.n_reps",
    "priors.coef_sd", "priors.log_dispersion_sd", "priors.log_extra_dispersion_sd",
    "priors.log_precision_rate_sd", "priors.log_precision_shape_sd",
    "simulate.coef", "simulate.dispersion", "simulate.extra_dispersion", "simulate.k",
    "simulate.n_samples", "simulate.offset", "simulate.precision_rate", "simulate.precision_shape",
]
# former config values, now module constants of `fuzzy`, `model` and `kernel`
REMOVED_KEYS = ("car_tol", "fit.tol", "fit.max_iter", "fit.crisp_precision", "truncation.tail_mass")

# stats rows (c, h, K) outside the Beta-type family, each given to sample b
BAD_STATS_ROWS = {"c-above-k": "11.0,5.0,10", "c-below-zero": "-1.0,5.0,10", "c-nan": "nan,5.0,10",
                  "h-zero": "4.0,0.0,10", "h-inf": "4.0,inf,10", "k-zero": "0.0,5.0,0"}
# a bad third line of a draws file: (name, column at fault, row)
BAD_DRAWS_ROWS = [("divergent-x", "divergent", "0,1,1.0,0.5,2.0,4.0,0.1,10.0,x"),
                  ("divergent-true", "divergent", "0,1,1.0,0.5,2.0,4.0,0.1,10.0,true"),
                  ("divergent-2", "divergent", "0,1,1.0,0.5,2.0,4.0,0.1,10.0,2"),
                  ("energy-nan", "energy", "0,1,1.0,0.5,2.0,4.0,0.1,nan,0"),
                  ("dispersion-inf", "dispersion", "0,1,1.0,0.5,inf,4.0,0.1,10.0,0")]

# input file -> the place and fault its one error line names after the file
BAD_TABLE_LINES = {
    "covariates_nan.csv": "line 3, column 'x': not a finite number: 'nan'",
    "covariates_offset_inf.csv": "line 3, column 'offset': not a finite number: 'inf'",
    "covariates_offset_0.csv": "line 3, column 'offset': not a positive number: '0.0'",
    "covariates_dup.csv": "line 1: covariate name 'x' is repeated",
    "covariates_intercept.csv": "line 1: covariate name 'intercept' is the column add_intercept "
                                "adds; rename it or set add_intercept=false",
    "zero_row.csv": "line 3: every degree is 0, so no referent is possible",
    "long_cell.csv": "line 3: field larger than field limit (131072)",
    "dup_referent.csv": "line 1: referent name 'r1' is repeated",
    "dup_counts.csv": "line 3: id 'a' is repeated",
    "dup_stats.csv": "line 3: sample_id 'a' is repeated",
    "covariates_dup_id.csv": "line 3: sample_id 'a' is repeated",
    "covariates_with_c.csv": "line 4: sample_id 'c' has no row in stats.csv",
    "draws_chain_minus_1.csv": "line 2, column 'chain': chain id -1 is outside 0..1, one per "
                               "distinct id",
    "kernel_zero_nu.json": "outcome 1: its mass in 'nu' is 0, not positive",
    "kernel_big_int.json": "outcome 1: int too large to convert to float",
    # json parses an integer of at most 4,300 digits
    "long_int.json": "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion",
}


def run(*argv):
    assert cli.main([*SMALL, *map(str, argv)]) == cli.EXIT_OK


def demo_pipeline(out: Path) -> Path:
    out.mkdir()
    covariates = DATA / "demo_covariates.csv"
    run("count", DATA / "demo_possibility.csv", "--out", out / "counts.csv")
    run("fit", out / "counts.csv", "--out", out / "stats.csv")
    run("infer", out / "stats.csv", covariates,
        "--out-draws", out / "draws.csv", "--out-diagnostics", out / "diagnostics.json")
    run("ppc", out / "draws.csv", out / "stats.csv", covariates,
        "--out-csv", out / "ppc.csv", "--out-json", out / "ppc.json")
    return out


def without_metadata(path: Path) -> dict:
    payload = json.loads(path.read_text())
    del payload["metadata"]
    return payload


def test_demo_pipeline_reruns_are_identical(tmp_path):
    first = demo_pipeline(tmp_path / "first")
    second = demo_pipeline(tmp_path / "second")
    for name in ("counts.csv", "stats.csv", "draws.csv", "ppc.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    for name in ("diagnostics.json", "ppc.json"):
        assert without_metadata(first / name) == without_metadata(second / name), name
    metadata = json.loads((first / "diagnostics.json").read_text())["metadata"]
    assert len(metadata["warmup_divergences"]) == 2
    assert all(isinstance(n, int) and 0 <= n < 50 for n in metadata["warmup_divergences"])
    assert sorted(metadata["rejections"]) == sorted(model.REJECTION_REASONS)
    assert all(isinstance(n, int) and n >= 0 for n in metadata["rejections"].values())


def modules_loaded_by_importing_the_cli(*names) -> list[bool]:
    """Whether each module is in `sys.modules` after `import grancount.cli` in a fresh process."""
    code = f"import sys, grancount.cli; print(*[name in sys.modules for name in {names!r}])"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=120, check=True)
    return [word == "True" for word in child.stdout.split()]


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # importing scipy.stats takes about a second and 45 MB, and the program needs none of it
    assert modules_loaded_by_importing_the_cli("scipy.stats") == [False]


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # only `fit` with workers > 1 needs the process pool; loading it takes 12-25 ms
    assert modules_loaded_by_importing_the_cli(
        "multiprocessing", "concurrent.futures.process") == [False, False]


def test_fit_process_pool_writes_the_same_bytes(tmp_path):
    run("count", DATA / "demo_possibility.csv", "--out", tmp_path / "counts.csv")
    for workers in (1, 2):
        run("--set", f"workers={workers}", "fit", tmp_path / "counts.csv",
            "--out", tmp_path / f"stats{workers}.csv")
    assert (tmp_path / "stats1.csv").read_bytes() == (tmp_path / "stats2.csv").read_bytes()


def test_fit_logs_convergence_and_sse_summary(tmp_path, caplog, monkeypatch):
    run("count", DATA / "demo_possibility.csv", "--out", tmp_path / "counts.csv")
    with caplog.at_level(logging.INFO, logger="grancount"):
        run("fit", tmp_path / "counts.csv", "--out", tmp_path / "stats.csv")
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("stage=fit in=")]
    fields = dict(item.split("=", 1) for item in line.split())
    rows = [row.split(",") for row in (tmp_path / "stats.csv").read_text().splitlines()[1:]]
    sse = [float(row[4]) for row in rows]
    assert int(fields["converged"]) == sum(row[5] == "true" for row in rows)
    assert float(fields["iterations_mean"]) >= 1.0
    assert float(fields["sse_median"]) == pytest.approx(statistics.median(sse), rel=1e-3)
    assert float(fields["sse_max"]) == pytest.approx(max(sse), rel=1e-3)
    assert int(fields["boundary"]) == sum(float(row[1]) in (0.0, float(row[3])) for row in rows)
    assert int(fields["at_max_iter"]) == 0 and float(fields["elapsed_s"]) > 0.0

    caplog.clear()
    monkeypatch.setattr(fuzzy, "FIT_MAX_ITER", 2)
    with caplog.at_level(logging.INFO, logger="grancount"):
        run("fit", tmp_path / "counts.csv", "--out", tmp_path / "s2.csv")
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("stage=fit in=")]
    fields = dict(item.split("=", 1) for item in line.split())
    assert int(fields["at_max_iter"]) >= int(fields["fitted"]) - int(fields["converged"]) > 0


def test_scalar_infer_runs_on_the_demo_stats(tmp_path):
    run("count", DATA / "demo_possibility.csv", "--out", tmp_path / "counts.csv")
    run("fit", tmp_path / "counts.csv", "--out", tmp_path / "stats.csv")
    run("--set", 'model="scalar"', "infer", tmp_path / "stats.csv", DATA / "demo_covariates.csv",
        "--out-draws", tmp_path / "draws.csv", "--out-diagnostics", tmp_path / "diagnostics.json")
    header = (tmp_path / "draws.csv").read_text().splitlines()[0].split(",")
    assert header[2:5] == ["coef_intercept", "coef_x", "dispersion"]
    assert len((tmp_path / "draws.csv").read_text().splitlines()) == 1 + 2 * 50


def test_fit_drops_unusable_rows_and_writes_the_rest(tmp_path, caplog):
    rows = ["zero,0.0,0.0,0.0,0.0", "low,0.2,0.9,0.5,0.1"]
    (tmp_path / "counts.csv").write_text(
        "\n".join(["id,y0,y1,y2,y3", *rows, "a,0.2,1.0,0.6,0.1", "b,0.1,0.5,1.0,0.3"]) + "\n"
    )
    with caplog.at_level(logging.INFO, logger="grancount"):
        run("fit", tmp_path / "counts.csv", "--out", tmp_path / "stats.csv")
    messages = [r.getMessage() for r in caplog.records]
    assert "stage=fit sample=zero dropped reason=empty-support" in messages
    assert "stage=fit sample=low dropped reason=not-normalized max=0.9" in messages
    written = (tmp_path / "stats.csv").read_text().splitlines()[1:]
    assert [line.split(",")[0] for line in written] == ["a", "b"]

    (tmp_path / "dropped.csv").write_text("\n".join(["id,y0,y1,y2,y3", *rows]) + "\n")
    assert cli.main(["fit", str(tmp_path / "dropped.csv"), "--out", str(tmp_path / "none.csv")]) \
        == cli.EXIT_VALIDATION
    assert not (tmp_path / "none.csv").exists()


@pytest.mark.parametrize("coef", ["[800]", "[-800]"], ids=["overflowing-mean", "underflowing-mean"])
def test_numerical_failure_exits_3_with_one_line_error(coef, tmp_path, caplog):
    outputs = [tmp_path / name for name in ("data.csv", "covariates.csv", "params.json")]
    argv = ["--set", f"simulate.coef={coef}", "simulate", "--out-data", outputs[0],
            "--out-covariates", outputs[1], "--out-params", outputs[2]]
    with caplog.at_level(logging.ERROR, logger="grancount"):
        assert cli.main(list(map(str, argv))) == cli.EXIT_NUMERICAL
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and errors[0].startswith("numerical failure: "), errors
    assert not any(path.exists() for path in outputs)


def test_simulate_output_feeds_infer(tmp_path):
    run("--set", "simulate.n_samples=20", "simulate",
        "--out-data", tmp_path / "data.csv", "--out-covariates", tmp_path / "covariates.csv",
        "--out-params", tmp_path / "params.json")
    run("infer", tmp_path / "data.csv", tmp_path / "covariates.csv",
        "--out-draws", tmp_path / "draws.csv", "--out-diagnostics", tmp_path / "diagnostics.json")


def test_infer_counts_its_evaluations_by_kind(tmp_path, monkeypatch, caplog):
    seen = []
    logp_and_grad = model.Posterior.logp_and_grad

    def spy(self, phi, need_logp=True):
        seen.append(need_logp)
        return logp_and_grad(self, phi, need_logp)

    monkeypatch.setattr(model.Posterior, "logp_and_grad", spy)
    run("--set", "simulate.n_samples=20", "simulate",
        "--out-data", tmp_path / "data.csv", "--out-covariates", tmp_path / "covariates.csv",
        "--out-params", tmp_path / "params.json")
    with caplog.at_level(logging.INFO, logger="grancount"):
        run("infer", tmp_path / "data.csv", tmp_path / "covariates.csv",
            "--out-draws", tmp_path / "draws.csv", "--out-diagnostics", tmp_path / "diagnostics.json")
    evaluations = json.loads((tmp_path / "diagnostics.json").read_text())["metadata"]["evaluations"]
    assert evaluations["full"] + evaluations["gradient_only"] == len(seen)
    assert evaluations == {"full": seen.count(True), "gradient_only": seen.count(False)}
    assert 0 < evaluations["full"] < evaluations["gradient_only"]
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("stage=infer out=")]
    fields = dict(item.split("=", 1) for item in line.split())
    assert int(fields["full_evaluations"]) == evaluations["full"]
    assert int(fields["gradient_only_evaluations"]) == evaluations["gradient_only"]


def test_infer_reports_its_exact_reruns(tmp_path, monkeypatch, caplog):
    targets = set()
    logp_and_grad = model.Posterior.logp_and_grad

    def spy(self, phi, need_logp=True):
        targets.add(self)
        return logp_and_grad(self, phi, need_logp)

    monkeypatch.setattr(model.Posterior, "logp_and_grad", spy)
    run("--set", "simulate.n_samples=20", "simulate",
        "--out-data", tmp_path / "data.csv", "--out-covariates", tmp_path / "covariates.csv",
        "--out-params", tmp_path / "params.json")
    # one report at c = K, far in its count pmf's tail, makes cut calls rerun
    rows = [line.split(",") for line in (tmp_path / "data.csv").read_text().splitlines()]
    rows[1][1] = rows[1][3]
    (tmp_path / "data.csv").write_text("".join(",".join(row) + "\n" for row in rows))
    with caplog.at_level(logging.INFO, logger="grancount"):
        run("infer", tmp_path / "data.csv", tmp_path / "covariates.csv",
            "--out-draws", tmp_path / "draws.csv", "--out-diagnostics", tmp_path / "diagnostics.json")
    (post,) = targets
    metadata = json.loads((tmp_path / "diagnostics.json").read_text())["metadata"]
    assert metadata["exact_reruns"] == post.exact_reruns > 0
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("stage=infer out=")]
    assert f" exact_reruns={post.exact_reruns}" in line


def test_infer_reports_divergent_draws(tmp_path, monkeypatch, capsys):
    sample = inference.sample

    def divergent_sample(*args, **kwargs):
        draws = sample(*args, **kwargs)
        return dataclasses.replace(draws, divergent=np.arange(draws.divergent.size) % 10 == 0)

    monkeypatch.setattr(inference, "sample", divergent_sample)
    run("--set", "simulate.n_samples=20", "simulate",
        "--out-data", tmp_path / "data.csv", "--out-covariates", tmp_path / "covariates.csv",
        "--out-params", tmp_path / "params.json")
    run("infer", tmp_path / "data.csv", tmp_path / "covariates.csv",
        "--out-draws", tmp_path / "draws.csv", "--out-diagnostics", tmp_path / "diagnostics.json")
    assert "divergent transitions: 10\n" in capsys.readouterr().out  # 2 x 50 draws
    assert json.loads((tmp_path / "diagnostics.json").read_text())["divergences"] == 10


def test_simulated_covariates_read_back_bit_for_bit(tmp_path):
    run("--set", "simulate.coef=[1.0,0.5,-0.25]", "--set", "simulate.offset=2.5", "simulate",
        "--out-data", tmp_path / "data.csv", "--out-covariates", tmp_path / "covariates.csv",
        "--out-params", tmp_path / "params.json")
    with open(tmp_path / "covariates.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    ids, names, matrix, offsets = cli._read_covariates_csv(tmp_path / "covariates.csv")
    assert header == ["sample_id", "x1", "x2", "offset"] and names == ("x1", "x2")
    assert ids == [row[0] for row in rows]
    # `repr` is the writer's format, and it tells apart any two distinct floats
    read = [[repr(v) for v in values] for values in np.column_stack([matrix, offsets]).tolist()]
    assert read == [row[1:] for row in rows]


def strict_json(path: Path) -> dict:
    """Parse `path`, failing on the non-standard constants NaN, Infinity and -Infinity."""
    def reject(constant):
        raise AssertionError(f"{path.name} holds {constant}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_single_chain_infer_writes_rhat_as_null(tmp_path):
    run("count", DATA / "demo_possibility.csv", "--out", tmp_path / "counts.csv")
    run("fit", tmp_path / "counts.csv", "--out", tmp_path / "stats.csv")
    run("--set", "hmc.n_chains=1", "infer", tmp_path / "stats.csv", DATA / "demo_covariates.csv",
        "--out-draws", tmp_path / "draws.csv", "--out-diagnostics", tmp_path / "diagnostics.json")
    params = strict_json(tmp_path / "diagnostics.json")["parameters"]
    assert [p["rhat"] for p in params] == [None] * 5
    assert all(p["ess_bulk"] > 0.0 for p in params)


def test_one_sample_ppc_writes_undefined_distances_as_null(tmp_path):
    run("--set", "simulate.n_samples=1", "--set", "simulate.k=20", "simulate",
        "--out-data", tmp_path / "data.csv", "--out-covariates", tmp_path / "covariates.csv",
        "--out-params", tmp_path / "params.json")
    run("infer", tmp_path / "data.csv", tmp_path / "covariates.csv",
        "--out-draws", tmp_path / "draws.csv", "--out-diagnostics", tmp_path / "diagnostics.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run("ppc", tmp_path / "draws.csv", tmp_path / "data.csv", tmp_path / "covariates.csv",
            "--out-csv", tmp_path / "ppc.csv", "--out-json", tmp_path / "ppc.json")
    payload = strict_json(tmp_path / "ppc.json")
    assert payload["u_obs"] is payload["mean_u_rep"] is payload["mean_abs_cross_gap"] is None
    assert payload["mean_u_cross"] > 0.0


@pytest.mark.parametrize("model_name", ["cnar", "car1", "car2"])
def test_simulate_sidecar_records_only_the_model_parameters(tmp_path, model_name):
    run("--set", f"model={model_name}", "--set", "simulate.n_samples=5", "simulate",
        "--out-data", tmp_path / "data.csv", "--out-covariates", tmp_path / "covariates.csv",
        "--out-params", tmp_path / "params.json")
    params = json.loads((tmp_path / "params.json").read_text())["params"]
    recorded = [name for name, value in params.items() if value is not None and name != "coef"]
    assert sorted(recorded) == sorted(model.parameter_names(model_name, ()))


@pytest.mark.parametrize(
    "argv",
    [
        ["--set", "hmc.n_chains=2.5", "show-config"],
        ["--set", 'workers="a"', "show-config"],
        ["--set", "hmc.n_draws=true", "show-config"],
        ["--set", "simulate.k=2.5", "show-config"],
        ["--set", "priors.coef_sd=1" + "0" * 400, "show-config"],
        ["--set", "validate=1", "show-config"],
        ["count", "no-such-file.csv", "--out", "counts.csv"],
        ["count", "latin1.csv", "--out", "counts.csv"],
        [*SMALL, "--set", "truncation.tail_mass=-1", "infer", "stats.csv", "covariates.csv",
         "--out-draws", "draws.csv", "--out-diagnostics", "diagnostics.json"],
        ["--set", "seed=-1", "show-config"],
        ["--set", "hmc.seed=-1", "show-config"],
        ["--set", "fit.tol=0", "fit", "counts.csv", "--out", "stats.csv"],
        ["--set", "fit.max_iter=-3", "fit", "counts.csv", "--out", "stats.csv"],
        ["--set", "fit.crisp_precision=0.0001", "fit", "counts.csv", "--out", "stats.csv"],
        ["--set", "fit.crisp_precision=-1", "fit", "counts.csv", "--out", "stats.csv"],
        [*SMALL, "--set", 'model="scalar"', "infer", "k1_stats.csv", "covariates.csv",
         "--out-draws", "draws.csv", "--out-diagnostics", "diagnostics.json"],
        ["kernel-audit", "kernel_int.json"],
        ["kernel-audit", "kernel_names_int.json"],
        ["kernel-audit", "kernel_names_str.json"],
        ["kernel-audit", "kernel_nan_nu.json"],
        [*SMALL, "--set", "hmc.init_jitter=NaN", "infer", "stats.csv", "covariates.csv",
         "--out-draws", "draws.csv", "--out-diagnostics", "diagnostics.json"],
        ["--set", "hmc.init_jitter=Infinity", "show-config"],
        ["--set", "truncation.exact=true", "show-config"],
        ["--set", "priors.coef_sd=Infinity", "show-config"],
        ["--set", "truncation.tail_mass=-1", "show-config"],
        ["--set", "fit.tol=-1", "show-config"],
        ["--set", "fit.max_iter=0", "show-config"],
        ["--set", "fit.crisp_precision=-1", "show-config"],
        ["--set", "simulate.dispersion=-1", "show-config"],
        ["--set", "simulate.precision_rate=0", "show-config"],
        ["--set", "simulate.coef=[]", "show-config"],
        ["--set", "car_tol=Infinity", "kernel-audit", "kernel_ok.json"],
        ["fit", "counts_nan.csv", "--out", "stats_out.csv"],
        ["--set", "ppc.n_reps=2", "ppc", "draws_chain_minus_1.csv", "stats.csv", "covariates.csv",
         "--out-csv", "ppc.csv", "--out-json", "ppc.json"],
        ["--set", 'model="scalar"', "simulate", "--out-data", "data.csv",
         "--out-covariates", "covariates_out.csv", "--out-params", "params.json"],
        ["--set", 'model="scalar"', "--set", "ppc.n_reps=2", "ppc", "draws_scalar.csv", "stats.csv",
         "covariates.csv", "--out-csv", "ppc.csv", "--out-json", "ppc.json"],
        ["count", "empty.csv", "--out", "out.csv"],
        ["count", "ragged.csv", "--out", "out.csv"],
        ["count", "header_only.csv", "--out", "out.csv"],
        ["count", "zero_row.csv", "--out", "out.csv"],
        ["count", "long_cell.csv", "--out", "out.csv"],
        ["--config", "invalid.json", "show-config"],
        ["--set", "workers=0", "show-config"],
        ["--set", "simulate.k=0", "show-config"],
        ["--set", "simulate.offset=0", "show-config"],
        ["--set", "simulate.offset=Infinity", "show-config"],
        ["--set", "ppc.grid=1", "show-config"],
        ["--set", "hmc.n_draws=1", "show-config"],
        ["kernel-audit", "kernel_no_outcomes.json"],
        ["kernel-audit", "kernel_two_lengths.json"],
        ["kernel-audit", "kernel_nu_length.json"],
        ["kernel-audit", "kernel_nu_sum.json"],
        ["kernel-audit", "kernel_names_length.json"],
        [*SMALL, "infer", "stats.csv", "covariates_nan.csv",
         "--out-draws", "draws_out.csv", "--out-diagnostics", "diagnostics.json"],
        [*SMALL, "infer", "stats.csv", "covariates_offset_0.csv",
         "--out-draws", "draws_out.csv", "--out-diagnostics", "diagnostics.json"],
        [*SMALL, "infer", "stats.csv", "covariates_offset_inf.csv",
         "--out-draws", "draws_out.csv", "--out-diagnostics", "diagnostics.json"],
        [*SMALL, "infer", "stats.csv", "covariates_dup.csv",
         "--out-draws", "draws_out.csv", "--out-diagnostics", "diagnostics.json"],
        [*SMALL, "infer", "stats.csv", "covariates_intercept.csv",
         "--out-draws", "draws_out.csv", "--out-diagnostics", "diagnostics.json"],
        ["kernel-audit", "kernel_membership.json"],
        ["--set", "hmc.n_chains=0", "show-config"],
        ["--set", "hmc.target_accept=1", "show-config"],
        ["--set", "hmc.max_leapfrog=0", "show-config"],
        ["--set", "simulate.coef=1", "show-config"],
        ["--set", "hmc=3", "show-config"],
        ["--set", "seed", "kernel-audit", "kernel_ok.json"],
        ["--set", "hmc=3", "--set", "hmc.seed=1", "show-config"],
        [*SMALL, "infer", "dup_stats.csv", "covariates.csv",
         "--out-draws", "draws_out.csv", "--out-diagnostics", "diagnostics.json"],
        [*SMALL, "infer", "stats.csv", "covariates_without_b.csv",
         "--out-draws", "draws_out.csv", "--out-diagnostics", "diagnostics.json"],
        [*SMALL, "infer", "stats.csv", "covariates_with_c.csv",
         "--out-draws", "draws_out.csv", "--out-diagnostics", "diagnostics.json"],
        ["--set", 'model="car1"', "--set", "ppc.n_reps=2", "ppc", "draws.csv", "stats.csv",
         "covariates.csv", "--out-csv", "ppc.csv", "--out-json", "ppc.json"],
        ["count", "dup_referent.csv", "--out", "out.csv"],
        ["fit", "dup_counts.csv", "--out", "out.csv"],
        [*SMALL, "infer", "stats.csv", "covariates_dup_id.csv",
         "--out-draws", "draws_out.csv", "--out-diagnostics", "diagnostics.json"],
        ["kernel-audit", "kernel_zero_nu.json"],
        ["kernel-audit", "kernel_big_int.json"],
        ["--config", "long_int.json", "show-config"],
    ] + [
        [*SMALL, "infer", f"stats_{name}.csv", "covariates.csv",
         "--out-draws", "draws_out.csv", "--out-diagnostics", "diagnostics.json"]
        for name in BAD_STATS_ROWS
    ] + [
        ["--set", "ppc.n_reps=2", "ppc", "draws.csv", f"stats_{name}.csv", "covariates.csv",
         "--out-csv", "ppc.csv", "--out-json", "ppc.json"]
        for name in BAD_STATS_ROWS
    ] + [
        ["--set", "ppc.n_reps=2", "ppc", f"draws_{name}.csv", "stats.csv", "covariates.csv",
         "--out-csv", "ppc.csv", "--out-json", "ppc.json"]
        for name, _, _ in BAD_DRAWS_ROWS
    ],
    ids=["non-integral-int", "string-for-int", "bool-for-int", "non-integral-k",
         "int-beyond-float", "unknown-key", "missing-input", "not-utf8", "negative-tail-mass",
         "negative-seed", "negative-hmc-seed", "zero-fit-tol", "negative-fit-max-iter",
         "tiny-crisp-precision", "negative-crisp-precision", "scalar-k1-interior-location",
         "kernel-not-object", "kernel-names-int", "kernel-names-string", "kernel-nan-nu",
         "nan-init-jitter", "infinite-init-jitter", "removed-truncation-exact",
         "infinite-prior-sd", "negative-tail-mass-config", "negative-fit-tol-config",
         "zero-fit-max-iter-config", "negative-crisp-precision-config",
         "negative-simulate-dispersion", "zero-simulate-precision-rate", "empty-simulate-coef",
         "infinite-car-tol", "fit-counts-nan",
         "ppc-chain-minus-1", "scalar-simulate", "scalar-ppc",
         "empty-csv", "ragged-csv", "header-only-csv", "empty-count", "cell-past-field-limit",
         "invalid-json-config",
         "zero-workers", "zero-simulate-k", "zero-simulate-offset", "infinite-simulate-offset", "ppc-grid-1",
         "one-hmc-draw", "kernel-no-outcomes", "kernel-two-lengths", "kernel-nu-length",
         "kernel-nu-sum", "kernel-names-length", "covariate-nan", "covariate-offset-zero",
         "covariate-offset-inf",
         "covariate-duplicate-name", "covariate-named-intercept", "kernel-membership-above-1",
         "zero-hmc-chains", "hmc-target-accept-1", "zero-hmc-max-leapfrog",
         "simulate-coef-not-list", "section-not-mapping", "override-without-equals",
         "override-through-non-section", "infer-duplicate-stats-id", "infer-covariates-missing-id",
         "infer-covariates-extra-id",
         "ppc-draws-of-another-model", "count-repeated-referent", "fit-repeated-id",
         "infer-covariates-repeated-id",
         "kernel-zero-nu", "kernel-int-past-float", "config-int-past-digit-limit"]
    + [f"infer-stats-{name}" for name in BAD_STATS_ROWS]
    + [f"ppc-stats-{name}" for name in BAD_STATS_ROWS]
    + [f"ppc-draws-{name}" for name, _, _ in BAD_DRAWS_ROWS],
)
def test_bad_input_exits_2_with_one_line_error(argv, tmp_path, monkeypatch, caplog):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.csv").write_bytes("g\u00e8ne\n1.0\n".encode("latin-1"))
    (tmp_path / "stats.csv").write_text("sample_id,c,h,K\na,2.0,5.0,10\nb,4.0,5.0,10\n")
    (tmp_path / "k1_stats.csv").write_text("sample_id,c,h,K\na,0.5,5.0,1\nb,4.0,5.0,10\n")
    (tmp_path / "covariates.csv").write_text("sample_id,x\na,0.5\nb,-0.5\n")
    for name, row in BAD_STATS_ROWS.items():
        (tmp_path / f"stats_{name}.csv").write_text(f"sample_id,c,h,K\na,2.0,5.0,10\nb,{row}\n")
    # draws that `ppc` accepts with the valid stats.csv, so only the stats row is at fault
    draw = "1.0,0.5,2.0,4.0,0.1,10.0,0"
    header = "chain,iter,coef_intercept,coef_x,dispersion,precision_shape,precision_rate,energy,"
    (tmp_path / "draws.csv").write_text(f"{header}divergent\n0,0,{draw}\n0,1,{draw}\n")
    for name, _, row in BAD_DRAWS_ROWS:
        (tmp_path / f"draws_{name}.csv").write_text(f"{header}divergent\n0,0,{draw}\n{row}\n")
    (tmp_path / "draws_chain_minus_1.csv").write_text(
        f"{header}divergent\n-1,0,{draw}\n0,0,{draw}\n"
    )
    (tmp_path / "draws_scalar.csv").write_text(
        "chain,iter,coef_intercept,coef_x,dispersion,energy,divergent\n"
        "0,0,1.0,0.5,2.0,10.0,0\n0,1,1.0,0.5,2.0,10.0,0\n"
    )
    (tmp_path / "counts.csv").write_text("id,y0,y1,y2,y3\na,0.2,1.0,0.6,0.1\n")
    (tmp_path / "counts_nan.csv").write_text(
        "id,y0,y1,y2,y3\na,0.2,1.0,0.6,0.1\nb,0.2,nan,1.0,0.1\n"
    )
    (tmp_path / "covariates_nan.csv").write_text("sample_id,x\na,0.5\nb,nan\n")
    (tmp_path / "covariates_offset_0.csv").write_text("sample_id,x,offset\na,0.5,1.0\nb,-0.5,0.0\n")
    (tmp_path / "covariates_offset_inf.csv").write_text("sample_id,x,offset\na,0.5,1.0\nb,-0.5,inf\n")
    (tmp_path / "covariates_dup.csv").write_text("sample_id,x,x\na,0.5,1.0\nb,-0.5,2.0\n")
    (tmp_path / "covariates_intercept.csv").write_text("sample_id,intercept\na,1.0\nb,1.0\n")
    (tmp_path / "covariates_without_b.csv").write_text("sample_id,x\na,0.5\n")
    (tmp_path / "covariates_with_c.csv").write_text("sample_id,x\na,0.5\nb,-0.5\nc,1.0\n")
    (tmp_path / "dup_stats.csv").write_text("sample_id,c,h,K\na,2.0,5.0,10\na,4.0,5.0,10\n")
    (tmp_path / "covariates_dup_id.csv").write_text("sample_id,x\na,0.5\na,-0.5\n")
    (tmp_path / "dup_referent.csv").write_text("r1,r2,r1\n1.0,0.5,0.2\n")
    (tmp_path / "dup_counts.csv").write_text("id,y0,y1,y2\na,0.2,1.0,0.6\na,1.0,0.5,0.1\n")
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "ragged.csv").write_text("r1,r2\n1.0,0.5\n1.0\n")
    (tmp_path / "header_only.csv").write_text("r1,r2\n")
    (tmp_path / "zero_row.csv").write_text("r1,r2\n1.0,0.5\n0.0,0.0\n")
    (tmp_path / "long_cell.csv").write_text("r1\n1.0\n" + "1" * 200_000 + "\n")
    (tmp_path / "invalid.json").write_text('{"seed": 1,')
    (tmp_path / "long_int.json").write_text('{"seed": ' + "1" * 5000 + "}")
    kernel = {"nu": [0.5, 0.5], "outcomes": [[1.0, 0.5], [0.5, 1.0]]}
    for name, payload in [("ok", kernel), ("int", 5), ("names_int", {**kernel, "names": 5}),
                          ("names_str", {**kernel, "names": "ab"}),
                          ("nan_nu", {**kernel, "nu": [float("nan"), 1.0]}),
                          ("no_outcomes", {"nu": [], "outcomes": []}),
                          ("two_lengths", {**kernel, "outcomes": [[1.0, 0.5], [0.5, 1.0, 0.5]]}),
                          ("nu_length", {**kernel, "nu": [1.0]}),
                          ("nu_sum", {**kernel, "nu": [0.45, 0.45]}),
                          ("names_length", {**kernel, "names": ["xi1"]}),
                          ("membership", {**kernel, "outcomes": [[1.0, 0.5], [0.5, 1.5]]}),
                          ("zero_nu", {**kernel, "nu": [1.0, 0.0]}),
                          ("big_int", {**kernel, "outcomes": [[1.0, 0.5], [0.5, 10**400]]})]:
        (tmp_path / f"kernel_{name}.json").write_text(json.dumps(payload))
    inputs = sorted(tmp_path.iterdir())
    with caplog.at_level(logging.ERROR, logger="grancount"):
        assert cli.main(argv) == cli.EXIT_VALIDATION
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and "\n" not in errors[0], errors
    assert sorted(tmp_path.iterdir()) == inputs  # no output file
    bad = [arg for arg in argv if arg.startswith(("stats_", "counts_"))]
    if bad:  # the bad row is the third line, sample b
        column = "sample_id" if bad[0].startswith("stats_") else "id"
        assert f"{bad[0]}: line 3, {column} 'b'" in errors[0], errors
    for name, where in BAD_TABLE_LINES.items():
        if name in argv:
            assert f"{name}: {where}" in errors[0], errors
    if "covariates_without_b.csv" in argv:  # the stats file holds the id that has no match
        assert "stats.csv: line 3: sample_id 'b' has no row in covariates_without_b.csv" in errors[0]
    for name, column, _ in BAD_DRAWS_ROWS:
        if f"draws_{name}.csv" in argv:
            assert f"draws_{name}.csv: line 3, column '{column}'" in errors[0], errors
    for kernel in [arg for arg in argv if arg.startswith("kernel_") and arg != "kernel_ok.json"]:
        assert kernel in errors[0] and "np.float64" not in errors[0], errors
    if "kernel_membership.json" in argv:
        assert "outcome 1" in errors[0], errors
    if argv[0] == "--set" and argv[-1] == "show-config":  # the error names the key's section
        key = "config." + argv[1].split("=")[0]
        assert f"{key.rpartition('.')[0]}: " in errors[0] or key in errors[0], errors
    for key in REMOVED_KEYS:
        if any(arg.startswith(f"{key}=") for arg in argv):
            assert f"unknown config key(s): config.{key}" in errors[0], errors


def test_show_config_prints_every_settable_key(capsys):
    assert cli.main(["show-config"]) == cli.EXIT_OK
    config = json.loads(capsys.readouterr().out)
    keys = []
    for name, value in config.items():
        keys += [f"{name}.{key}" for key in value] if isinstance(value, dict) else [name]
    assert sorted(keys) == sorted(SETTABLE_KEYS)


def test_every_subcommand_sets_a_run_handler():
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == {"count", "fit", "simulate", "infer", "ppc", "kernel-audit",
                                "show-config"}
    for name, parser in sub.choices.items():
        assert callable(parser.get_default("run")), name


def test_kernel_audit_rejects_a_zero_mass_before_printing(tmp_path):
    # `is_car` needs each outcome's mass positive; the reader checks it before the phi table
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"nu": [1.0, 0.0], "outcomes": [[1.0, 0.5], [0.5, 1.0]]}))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-m", "grancount.cli", "kernel-audit", str(path)],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == cli.EXIT_VALIDATION
    assert child.stdout == ""
    assert child.stderr.splitlines() == [
        f"ERROR validation error: {path}: outcome 1: its mass in 'nu' is 0, not positive"]


def kernel_audit_stdout(tmp_path, capsys, payload) -> str:
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["kernel-audit", str(path)]) == cli.EXIT_OK
    return capsys.readouterr().out


def test_kernel_audit_prints_phi_and_car_witness(tmp_path, capsys):
    out = kernel_audit_stdout(tmp_path, capsys, {
        "nu": [0.5, 0.5], "names": ["xi1", "xi2"],
        "outcomes": [[1.0, 0.5, 0.5, 0.25], [0.25, 0.5, 1.0, 1.0]],
    })
    assert out == (
        "phi(y, outcome):\n"
        "  y             xi1           xi2\n"
        "   0       0.800000      0.200000\n"
        "   1       0.500000      0.500000\n"
        "   2       0.333333      0.666667\n"
        "   3       0.200000      0.800000\n"
        "\n"
        "outcome          CAR  witness (ratio_high vs ratio_low)\n"
        "xi1               no  (y=0, y'=3): 1.600000 vs 0.400000\n"
        "xi2               no  (y=3, y'=0): 1.600000 vs 0.400000\n"
    )


def test_kernel_audit_finds_disjoint_indicators_car(tmp_path, capsys):
    out = kernel_audit_stdout(tmp_path, capsys, {
        "nu": [0.5, 0.5], "outcomes": [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]],
    })
    assert out == (
        "phi(y, outcome):\n"
        "  y             xi0           xi1\n"
        "   0       1.000000      0.000000\n"
        "   1       1.000000      0.000000\n"
        "   2       0.000000      1.000000\n"
        "   3       0.000000      1.000000\n"
        "\n"
        "outcome          CAR  witness (ratio_high vs ratio_low)\n"
        "xi0              yes\n"
        "xi1              yes\n"
    )
