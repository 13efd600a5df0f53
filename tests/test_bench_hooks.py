"""The program names that the benchmark in `bench/` calls or wraps still exist.

The benchmark's tracer looks its targets up only in traced passes, so a
renamed or deleted function would otherwise first fail there.
"""

from pathlib import Path

import pytest

from grancount import cli, fuzzy, inference, model, possibility

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    before = (model.Posterior.logp_and_grad, model.simulate, fuzzy.fit_beta, cli._write_json)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert model.simulate is not before[1]
    finally:
        tracer.close()
    assert (model.Posterior.logp_and_grad, model.simulate, fuzzy.fit_beta, cli._write_json) == before


def test_names_the_benchmark_calls_exist():
    # bench/run.py, bench/checks.py and bench/inputs.py
    for owner, name in [
        (cli, "main"), (cli, "_read_covariates_csv"), (fuzzy, "BetaFuzzy"),
        (fuzzy, "membership_grid"), (fuzzy, "read_stats_csv"), (possibility, "read_counts_csv"),
        (inference, "read_draws_csv"), (model, "parameter_names"), (model, "simulate"),
        (model, "RegressionSpec"), (model, "ModelParams"),
    ]:
        assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"


@pytest.mark.parametrize("workload", ["cnar-infer", "car2-infer", "granular-ppc"])
def test_input_generator_writes_files_the_readers_accept(workload, tmp_path, monkeypatch):
    # bench/inputs.py writes stats.csv through `simulate(...).observations`
    monkeypatch.syspath_prepend(str(BENCH))
    import inputs

    files = inputs.generate(workload, 1, str(tmp_path))
    ids, locations, precisions, ks = fuzzy.read_stats_csv(files["stats.csv"])
    reports = model.Reports(locations, precisions, ks)
    assert len(ids) == len(reports) == inputs.SIMULATE["n_samples"]
    assert (reports.k_max == inputs.SIMULATE["k"]).all()
    assert cli._read_covariates_csv(files["covariates.csv"])[0] == ids
    if "draws.csv" in files:
        assert inference.read_draws_csv(files["draws.csv"]).draws.shape[0] > 0
    if "possibility.csv" in files:
        assert possibility.read_possibility_csv(files["possibility.csv"]).n_obs > 0
