"""Seeded input generator for the pipeline benchmark.

Every workload is a set of files written here from `--seed` alone, with
numpy and `grancount.model.simulate`. Floats are written as Python floats
(`repr(float(v))`), so each file parses with the program's own readers. The
program under test sees only these files.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np
from scipy.special import ndtri

from grancount import model

# The CLI-default `simulate` section: n=200 samples, K=500, offset 1.
SIMULATE = {
    "n_samples": 200,
    "k": 500,
    "coef": [1.0, 0.5],
    "dispersion": 2.0,
    "precision_shape": 4.0,
    "precision_rate": 0.1,
    "offset": 1.0,
}
HMC = {"n_chains": 2, "n_warmup": 150, "n_draws": 150, "max_leapfrog": 64}
POSSIBILITY = {"n_obs": 500, "n_ref": 40, "partial_share": 0.1, "degree_levels": 9}
# Draws for `ppc`: the simulation truth jittered by these scales (coefficients
# additively, positive parameters multiplicatively on the log scale).
PPC_DRAWS = {"n_chains": 2, "n_draws": 150, "coef_sd": 0.05, "log_sd": 0.05}
# Half the CLI default of 200 replicates: a `granular-ppc` pass then takes
# about 20 s on 2 cores, and a run makes at least two passes.
PPC = {"n_reps": 100, "grid": 101}

WORKLOADS = {
    "cnar-infer": {
        "model": "cnar",
        "stages": ("simulate", "infer"),
    },
    "car2-infer": {
        "model": "car2",
        "stages": ("infer",),
    },
    "granular-ppc": {
        "model": "cnar",
        "stages": ("count", "fit", "ppc"),
    },
}

COEF_NAMES = ("intercept", "x1")


def truth() -> dict:
    """Constrained-scale simulation truth, keyed by cnar parameter name."""
    names = model.parameter_names("cnar", COEF_NAMES)
    values = SIMULATE["coef"] + [
        SIMULATE["dispersion"],
        SIMULATE["precision_shape"],
        SIMULATE["precision_rate"],
    ]
    return dict(zip(names, values))


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _dataset(rng_cov, sim_seed):
    # A balanced design: the covariate takes the n normal quantiles in a
    # seeded order, so every seed has the same range of true means.
    n = SIMULATE["n_samples"]
    x1 = rng_cov.permutation(ndtri((np.arange(n) + 0.5) / n))
    spec = model.RegressionSpec(
        covariates=np.column_stack([np.ones(n), x1]),
        offsets=np.full(n, SIMULATE["offset"]),
        k_max=np.full(n, SIMULATE["k"], dtype=np.int64),
        covariate_names=COEF_NAMES,
    )
    params = model.ModelParams(
        coef=np.asarray(SIMULATE["coef"]),
        dispersion=SIMULATE["dispersion"],
        precision_shape=SIMULATE["precision_shape"],
        precision_rate=SIMULATE["precision_rate"],
    )
    data = model.simulate(spec, params, sim_seed, "cnar")
    return x1, data


def _possibility_rows(rng):
    n_obs, n_ref = POSSIBILITY["n_obs"], POSSIBILITY["n_ref"]
    levels = POSSIBILITY["degree_levels"]
    degrees = np.zeros((n_obs, n_ref))
    partial = rng.random((n_obs, n_ref)) < POSSIBILITY["partial_share"]
    degrees[partial] = rng.integers(1, levels + 1, size=int(partial.sum())) / (levels + 1)
    degrees[np.arange(n_obs), rng.integers(0, n_ref, size=n_obs)] = 1.0
    return [[repr(float(v)) for v in row] for row in degrees]


def _draw_rows(rng):
    t = truth()
    rows = []
    n_coef = len(COEF_NAMES)
    for chain in range(PPC_DRAWS["n_chains"]):
        for it in range(PPC_DRAWS["n_draws"]):
            values = []
            for j, v in enumerate(t.values()):
                if j < n_coef:
                    values.append(v + PPC_DRAWS["coef_sd"] * rng.standard_normal())
                else:
                    values.append(v * np.exp(PPC_DRAWS["log_sd"] * rng.standard_normal()))
            energy = 500.0 + rng.standard_normal()
            rows.append([chain, it, *[repr(float(v)) for v in values], repr(float(energy)), "0"])
    return list(t), rows


def paths(workload: str, out_dir: str) -> dict:
    """Paths of the input files of one workload in `out_dir`, by file name."""
    names = ["stats.csv", "covariates.csv", "config.json"]
    stages = WORKLOADS[workload]["stages"]
    if "count" in stages:
        names.append("possibility.csv")
    if "ppc" in stages:
        names.append("draws.csv")
    return {name: os.path.join(out_dir, name) for name in names}


def generate(workload: str, seed: int, out_dir: str) -> dict:
    """Write the inputs of one workload into `out_dir`; return their paths."""
    spec = WORKLOADS[workload]
    seeds = np.random.SeedSequence(seed).spawn(5)
    cfg_seed, hmc_seed = (int(v) for v in seeds[0].generate_state(2) % (2**31))
    x1, data = _dataset(np.random.default_rng(seeds[1]), seeds[2])
    ids = [f"s{i:05d}" for i in range(x1.size)]
    files = paths(workload, out_dir)

    _write_csv(
        files["stats.csv"],
        ["sample_id", "c", "h", "K"],
        [
            [sid, repr(float(o.location)), repr(float(o.precision)), int(o.k_max)]
            for sid, o in zip(ids, data.observations)
        ],
    )
    _write_csv(
        files["covariates.csv"],
        ["sample_id", "x1", "offset"],
        [[sid, repr(float(v)), repr(float(SIMULATE["offset"]))] for sid, v in zip(ids, x1)],
    )
    config = {
        "seed": cfg_seed,
        "model": spec["model"],
        "workers": 1,
        "hmc": {**HMC, "seed": hmc_seed},
        "ppc": PPC,
    }
    with open(files["config.json"], "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)

    if "possibility.csv" in files:
        header = [f"ref{j:02d}" for j in range(POSSIBILITY["n_ref"])]
        _write_csv(files["possibility.csv"], header, _possibility_rows(np.random.default_rng(seeds[3])))
    if "draws.csv" in files:
        names, rows = _draw_rows(np.random.default_rng(seeds[4]))
        _write_csv(files["draws.csv"], ["chain", "iter", *names, "energy", "divergent"], rows)
    return files
