"""Contract tests for the command-line pipeline, run in-process through `cli.main`."""

import json
import logging
import statistics
from pathlib import Path

import pytest

from grancount import cli

DATA = Path(cli.__file__).parent / "data"
SMALL = [
    "--set", "hmc.n_chains=2",
    "--set", "hmc.n_warmup=50",
    "--set", "hmc.n_draws=50",
    "--set", "hmc.max_leapfrog=16",
    "--set", "ppc.n_reps=20",
]


# stats rows (c, h, K) outside the Beta-type family, each given to sample b
BAD_STATS_ROWS = {"c-above-k": "11.0,5.0,10", "c-below-zero": "-1.0,5.0,10", "c-nan": "nan,5.0,10",
                  "h-zero": "4.0,0.0,10", "h-inf": "4.0,inf,10", "k-zero": "0.0,5.0,0"}


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


def test_fit_process_pool_writes_the_same_bytes(tmp_path):
    run("count", DATA / "demo_possibility.csv", "--out", tmp_path / "counts.csv")
    for workers in (1, 2):
        run("--set", f"workers={workers}", "fit", tmp_path / "counts.csv",
            "--out", tmp_path / f"stats{workers}.csv")
    assert (tmp_path / "stats1.csv").read_bytes() == (tmp_path / "stats2.csv").read_bytes()


def test_fit_logs_convergence_and_sse_summary(tmp_path, caplog):
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
    with caplog.at_level(logging.INFO, logger="grancount"):
        run("--set", "fit.max_iter=2", "fit", tmp_path / "counts.csv", "--out", tmp_path / "s2.csv")
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


def test_simulate_output_feeds_infer(tmp_path):
    run("--set", "simulate.n_samples=20", "simulate",
        "--out-data", tmp_path / "data.csv", "--out-covariates", tmp_path / "covariates.csv",
        "--out-params", tmp_path / "params.json")
    run("infer", tmp_path / "data.csv", tmp_path / "covariates.csv",
        "--out-draws", tmp_path / "draws.csv", "--out-diagnostics", tmp_path / "diagnostics.json")


@pytest.mark.parametrize(
    "argv",
    [
        ["--set", "hmc.n_chains=2.5", "show-config"],
        ["--set", 'workers="a"', "show-config"],
        ["--set", "hmc.n_draws=true", "show-config"],
        ["--set", "simulate.k=2.5", "show-config"],
        ["--set", "car_tol=1" + "0" * 400, "show-config"],
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
    ] + [
        [*SMALL, "infer", f"stats_{name}.csv", "covariates.csv",
         "--out-draws", "draws_out.csv", "--out-diagnostics", "diagnostics.json"]
        for name in BAD_STATS_ROWS
    ] + [
        ["--set", "ppc.n_reps=2", "ppc", "draws.csv", f"stats_{name}.csv", "covariates.csv",
         "--out-csv", "ppc.csv", "--out-json", "ppc.json"]
        for name in BAD_STATS_ROWS
    ],
    ids=["non-integral-int", "string-for-int", "bool-for-int", "non-integral-k",
         "int-beyond-float", "unknown-key", "missing-input", "not-utf8", "negative-tail-mass",
         "negative-seed", "negative-hmc-seed", "zero-fit-tol", "negative-fit-max-iter",
         "tiny-crisp-precision", "negative-crisp-precision", "scalar-k1-interior-location",
         "kernel-not-object", "kernel-names-int", "kernel-names-string", "kernel-nan-nu",
         "nan-init-jitter", "infinite-init-jitter", "removed-truncation-exact",
         "infinite-prior-sd", "negative-tail-mass-config"]
    + [f"infer-stats-{name}" for name in BAD_STATS_ROWS]
    + [f"ppc-stats-{name}" for name in BAD_STATS_ROWS],
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
    (tmp_path / "draws.csv").write_text(
        "chain,iter,coef_intercept,coef_x,dispersion,precision_shape,precision_rate,energy,"
        f"divergent\n0,0,{draw}\n0,1,{draw}\n"
    )
    (tmp_path / "counts.csv").write_text("id,y0,y1,y2,y3\na,0.2,1.0,0.6,0.1\n")
    kernel = {"nu": [0.5, 0.5], "outcomes": [[1.0, 0.5], [0.5, 1.0]]}
    for name, payload in [("int", 5), ("names_int", {**kernel, "names": 5}),
                          ("names_str", {**kernel, "names": "ab"}),
                          ("nan_nu", {**kernel, "nu": [float("nan"), 1.0]})]:
        (tmp_path / f"kernel_{name}.json").write_text(json.dumps(payload))
    with caplog.at_level(logging.ERROR, logger="grancount"):
        assert cli.main(argv) == cli.EXIT_VALIDATION
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and "\n" not in errors[0], errors
    stats = [arg for arg in argv if arg.startswith("stats_")]
    if stats:  # the bad row is the third line, sample b
        assert f"{stats[0]}: line 3, sample_id 'b'" in errors[0], errors


def test_kernel_audit_prints_phi_and_car_witness(tmp_path, capsys):
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"nu": [0.5, 0.5], "names": ["xi1", "xi2"],
                                "outcomes": [[1.0, 0.5, 0.5, 0.25], [0.25, 0.5, 1.0, 1.0]]}))
    assert cli.main(["kernel-audit", str(path)]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "   0       0.800000      0.200000" in lines
    xi1 = next(line for line in lines if line.startswith("xi1"))
    assert xi1.endswith("(y=0, y'=3): 1.600000 vs 0.400000")
