"""The program names that the benchmark in `bench/` calls or wraps still exist.

The benchmark's tracer looks its targets up only in traced passes, so a
renamed or deleted function would otherwise first fail there.
"""

import sys
from pathlib import Path

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
