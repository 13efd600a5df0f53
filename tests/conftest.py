import numpy as np
import pytest

from grancount.model import ModelParams, RegressionSpec, Reports, simulate


def make_spec(n=20, k=60, seed=0, offset=10.0, names=("intercept", "x")):
    """Small regression design with an intercept and one standard-normal covariate."""
    rng = np.random.default_rng(seed)
    z = np.column_stack([np.ones(n), rng.standard_normal(n)])
    return RegressionSpec(
        covariates=z,
        offsets=np.full(n, offset),
        k_max=np.full(n, k, dtype=np.int64),
        covariate_names=names,
    )


def make_cnar_data(k_cycle):
    """(spec, reports) of 200 samples drawn from the cnar truth at offset 1, K cycling through `k_cycle`."""
    base = make_spec(n=200, k=500, offset=1.0)
    spec = RegressionSpec(base.covariates, base.offsets, np.resize(k_cycle, 200), base.covariate_names)
    return spec, simulate(spec, make_params("cnar"), seed=0, model="cnar")


def make_reports(items):
    """`Reports` from (location, precision, k_max) triples."""
    location, precision, k_max = zip(*items)
    return Reports(location, precision, k_max)


def with_norms(rows):
    """(profile rows, their squared norms): the form the `ppc` distances read."""
    return rows, np.einsum("ij,ij->i", rows, rows)


def make_params(model="cnar", coef=(1.0, 0.5)):
    if model == "car1":
        return ModelParams(coef=np.asarray(coef), precision_shape=4.0, precision_rate=0.1)
    if model == "car2":
        return ModelParams(
            coef=np.asarray(coef),
            precision_shape=4.0,
            precision_rate=0.1,
            extra_dispersion=2.0,
        )
    if model == "scalar":
        return ModelParams(coef=np.asarray(coef), dispersion=2.0)
    return ModelParams(
        coef=np.asarray(coef), dispersion=2.0, precision_shape=4.0, precision_rate=0.1
    )


@pytest.fixture(scope="session")
def small_cnar_data():
    """One simulated CNAR dataset shared by likelihood and gradient tests."""
    spec = make_spec(n=25, k=60, seed=11)
    params = make_params("cnar")
    sim = simulate(spec, params, seed=21, model="cnar")
    return spec, params, sim
