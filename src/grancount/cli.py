"""Command-line pipeline: count, fit, simulate, infer, ppc, kernel-audit.

All stages read and write local files only. A run is fully determined by its
inputs, the configuration file, and the seeds inside it; outputs are
byte-identical across repeated runs (timestamps live in isolated metadata
blocks of the JSON sidecars). CSV and JSON files go through `tables`.

The configuration is `RunConfig`. Its sections and their value types come
from the dataclasses that consume them: `priors` is `model.PriorSpec`, `hmc`
is `inference.HmcConfig`, and `ppc` and `simulate` are the dataclasses below.
The accuracy settings are module constants, not config values or function
arguments: `model.TAIL_MASS` (the cnar tail cut), `fuzzy.FIT_TOL`,
`fuzzy.FIT_MAX_ITER` and `fuzzy.CRISP_PRECISION_CEILING` (`fit_beta`'s
tolerance, iteration cap and precision ceiling) and `kernel.CAR_TOL`.
`--set key.path=value` overrides are parsed as JSON (a value that is not JSON
is taken as a string), merged into the file's values, and checked exactly
like them: unknown keys are rejected, each named by its full dotted path
(`config.fit.tol`), an int is accepted where a float is expected, and any
other mismatch (a bool or non-integral number for an int, a string for a
number) is a validation error. Each section checks its own rules as it is
built, and every config error names its section (`config.hmc: ...`).

Exit codes: 0 success, 2 validation error or unreadable file, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from . import fuzzy, inference, model, possibility, ppc
from . import kernel as kernel_mod
from .errors import NumericalError, ValidationError
from .inference import HmcConfig
from .model import PriorSpec
from . import tables
from .tables import write_json as _write_json

logger = logging.getLogger("grancount")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class PpcSection:
    n_reps: int = 200
    grid: int = ppc.DEFAULT_GRID

    def __post_init__(self):
        if self.n_reps < 1 or self.grid < 2:
            raise ValidationError("n_reps must be >= 1 and grid >= 2")


@dataclass
class SimulateSection:
    n_samples: int = 200
    k: int = 500
    coef: list[float] = field(default_factory=lambda: [1.0, 0.5])
    dispersion: float = 2.0
    precision_shape: float = 4.0
    precision_rate: float = 0.1
    extra_dispersion: float = 1.0
    offset: float = 1.0

    def __post_init__(self):
        if self.n_samples < 1 or self.k < 1:
            raise ValidationError("n_samples and k must be positive")
        if not 0.0 < self.offset < np.inf:  # the offsets rule of `model.RegressionSpec`
            raise ValidationError("offset must be strictly positive and finite")
        if not self.coef:
            raise ValidationError("coef must be non-empty")
        # every simulate parameter, whichever model reads it
        model.ModelParams(**{f.name: getattr(self, f.name)
                             for f in dataclasses.fields(model.ModelParams)})


@dataclass
class RunConfig:
    seed: int = 0
    model: str = "cnar"
    add_intercept: bool = True
    workers: int = 1
    priors: PriorSpec = field(default_factory=PriorSpec)
    hmc: HmcConfig = field(default_factory=HmcConfig)
    ppc: PpcSection = field(default_factory=PpcSection)
    simulate: SimulateSection = field(default_factory=SimulateSection)

    def __post_init__(self):
        model.check_model_name(self.model)
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if self.workers < 1:
            raise ValidationError("workers must be at least 1")


def _check_value(value, kind, path):
    """Return `value` as the declared type `kind`, or raise ValidationError."""
    if dataclasses.is_dataclass(kind):
        return _build_section(kind, value, path)
    if typing.get_origin(kind) is list:
        if not isinstance(value, list):
            raise ValidationError(f"config key '{path}' must be a list, got {value!r}")
        (item,) = typing.get_args(kind)
        return [_check_value(v, item, path) for v in value]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if kind is float and number:
        try:
            return float(value)
        except OverflowError:
            pass
    if kind in (bool, str) and isinstance(value, kind):
        return value
    raise ValidationError(f"config key '{path}' must be {kind.__name__}, got {value!r}")


def _leaf_paths(payload, keys, path):
    """Dotted paths of the values under `keys`, e.g. `config.fit.tol` for a removed section."""
    for key in keys:
        value = payload[key]
        if isinstance(value, dict) and value:
            yield from _leaf_paths(value, value, f"{path}.{key}")
        else:
            yield f"{path}.{key}"


def _build_section(cls, payload, path):
    if not isinstance(payload, dict):
        raise ValidationError(f"config section '{path}' must be a mapping")
    hints = typing.get_type_hints(cls)
    unknown = set(payload) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValidationError(
            f"unknown config key(s): {', '.join(sorted(_leaf_paths(payload, unknown, path)))}"
        )
    values = {k: _check_value(v, hints[k], f"{path}.{k}") for k, v in payload.items()}
    try:
        return cls(**values)
    except ValidationError as exc:  # the section's own rules; name the section
        raise ValidationError(f"{path}: {exc}") from None


def load_config(path=None, overrides=()) -> RunConfig:
    """Build the run configuration from an optional JSON file plus overrides.

    Overrides use dotted paths, e.g. ``hmc.n_draws=200``. Unknown keys are
    rejected.
    """
    payload = {} if path is None else tables.read_json_object(path)
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"override '{item}' must look like key.path=value")
        raw_key, raw_value = item.split("=", 1)
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        *sections, leaf = raw_key.split(".")
        target, path = payload, "config"
        for part in sections:
            target, path = target.setdefault(part, {}), f"{path}.{part}"
            if not isinstance(target, dict):
                raise ValidationError(f"override '{item}': '{path}' is not a config section")
        target[leaf] = value
    return _build_section(RunConfig, payload, "config")


def _metadata(stage: str, config: RunConfig) -> dict:
    return {"stage": stage, "created_unix": time.time(), "config": dataclasses.asdict(config)}


# ---------------------------------------------------------------------------
# shared IO helpers
# ---------------------------------------------------------------------------


def _read_covariates_csv(path, add_intercept=False):
    """Read distinct sample_ids, covariate columns, and an optional offset column; with
    `add_intercept`, no covariate may be named 'intercept', the column the caller adds."""
    header, rows, values = tables.read_table(
        path, lambda h: h[:1] == ["sample_id"], "first column must be 'sample_id'", slice(1, None),
        finite=True,
    )
    ids = [row[0] for _, row in rows]
    has_offset = header[-1] == "offset"
    names = tuple(header[1:-1] if has_offset else header[1:])
    tables.reject_repeats(path, names, "covariate name", lambda j: 1)
    if add_intercept and "intercept" in names:
        raise ValidationError(f"{path}: line 1: covariate name 'intercept' is the column "
                              "add_intercept adds; rename it or set add_intercept=false")
    tables.reject_repeats(path, ids, "sample_id", lambda j: rows[j][0])
    if not has_offset:
        return ids, names, values, np.ones(len(ids))
    bad = np.flatnonzero(values[:, -1] <= 0.0)
    if bad.size:
        line_no, row = rows[bad[0]]
        raise ValidationError(
            f"{path}: line {line_no}, column 'offset': not a positive number: {row[-1]!r}"
        )
    return ids, names, values[:, :-1], values[:, -1]


def _align(stats_ids, cov_ids):
    """Covariate row of each stats id; each reader has already rejected a repeated id."""
    cov_index = {sid: i for i, sid in enumerate(cov_ids)}
    known = set(stats_ids)
    missing_cov = [sid for sid in stats_ids if sid not in cov_index]
    missing_stats = [sid for sid in cov_ids if sid not in known]
    if missing_cov or missing_stats:
        raise ValidationError(
            "sample id mismatch; missing covariates for "
            f"{missing_cov or 'none'}, missing statistics for {missing_stats or 'none'}"
        )
    return [cov_index[sid] for sid in stats_ids]


def _build_regression_spec(stats_path, covariates_path, add_intercept):
    ids, locations, precisions, ks = fuzzy.read_stats_csv(stats_path)
    reports = model.Reports(locations, precisions, ks)
    cov_ids, cov_names, matrix, offsets = _read_covariates_csv(covariates_path, add_intercept)
    order = _align(ids, cov_ids)
    matrix = matrix[order]
    offsets = offsets[order]
    if add_intercept:
        matrix = np.column_stack([np.ones(len(ids)), matrix])
        cov_names = ("intercept",) + cov_names
    spec = model.RegressionSpec(
        covariates=matrix, offsets=offsets, k_max=ks, covariate_names=cov_names
    )
    return spec, reports


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def cmd_count(args, config: RunConfig) -> int:
    assign = possibility.read_possibility_csv(args.possibility)
    logger.info(
        "stage=count input=%s n_obs=%d n_ref=%d normalized=%s",
        args.possibility,
        assign.n_obs,
        assign.n_ref,
        assign.is_normalized,
    )
    names = list(assign.referent_names or [f"ref{j}" for j in range(assign.n_ref)])
    vectors = [possibility.granular_count_fast(assign, r) for r in range(assign.n_ref)]
    possibility.write_counts_csv(args.out, names, vectors)
    logger.info("stage=count out=%s rows=%d k=%d", args.out, len(vectors), vectors[0].k_max)
    return EXIT_OK


def cmd_fit(args, config: RunConfig) -> int:
    start = time.perf_counter()
    rows = possibility.read_count_rows(args.counts)
    usable, dropped = [], 0
    for line_no, sample_id, values in rows:
        if values.size < 2 or values.max() <= 0.0:
            logger.info("stage=fit sample=%s dropped reason=empty-support", sample_id)
            dropped += 1
            continue
        if values.max() < fuzzy.NORMALIZED_MIN:
            logger.info("stage=fit sample=%s dropped reason=not-normalized max=%g", sample_id, values.max())
            dropped += 1
            continue
        try:
            usable.append((sample_id, possibility.MembershipVector(values)))
        except ValidationError as exc:
            raise ValidationError(f"{args.counts}: line {line_no}, id {sample_id!r}: {exc}") from None
    if not usable:
        raise ValidationError("no usable rows after support checks")

    ids, vectors = zip(*usable)
    if config.workers > 1:
        # imported here: loading multiprocessing would cost every other stage 12-25 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            fits = list(pool.map(fuzzy.fit_beta, vectors))
    else:
        fits = list(map(fuzzy.fit_beta, vectors))
    fuzzy.write_stats_csv(args.out, ids, fits)
    logger.info(
        "stage=fit in=%d fitted=%d dropped=%d degenerate=%d converged=%d at_max_iter=%d "
        "boundary=%d iterations_mean=%.1f sse_median=%.4g sse_max=%.4g elapsed_s=%.3f out=%s",
        len(rows), len(fits), dropped, sum(f.degenerate for f in fits),
        sum(f.converged for f in fits), sum(f.iterations >= fuzzy.FIT_MAX_ITER for f in fits),
        sum(f.location in (0.0, f.k_max) for f in fits),
        np.mean([f.iterations for f in fits]), np.median([f.sse for f in fits]),
        max(f.sse for f in fits), time.perf_counter() - start, args.out,
    )
    return EXIT_OK


def cmd_simulate(args, config: RunConfig) -> int:
    sim = config.simulate
    coef = np.asarray(sim.coef, dtype=np.float64)
    rng = np.random.default_rng(config.seed)
    n = sim.n_samples
    extra = rng.standard_normal((n, coef.size - 1)) if coef.size > 1 else np.empty((n, 0))
    matrix = np.column_stack([np.ones(n), extra])
    cov_names = ("intercept",) + tuple(f"x{j+1}" for j in range(coef.size - 1))
    spec = model.RegressionSpec(
        covariates=matrix,
        offsets=np.full(n, sim.offset),
        k_max=np.full(n, sim.k, dtype=np.int64),
        covariate_names=cov_names,
    )
    params = model.ModelParams(
        coef=coef, **{name: getattr(sim, name) for name in model.parameter_names(config.model, ())}
    )
    data = model.simulate(spec, params, config.seed, config.model)
    ids = [f"s{i:05d}" for i in range(n)]

    header = ["sample_id", "c", "h", "K"]
    columns = [ids, data.location.tolist(), data.precision.tolist(), data.k_max.tolist()]
    if data.latent_counts is not None:
        header.append("y_latent")
        columns.append(data.latent_counts.tolist())
    tables.write_table(args.out_data, header, zip(*columns))
    tables.write_table(
        args.out_covariates,
        ["sample_id", *cov_names[1:], "offset"],
        ([sample_id, *x, offset] for sample_id, x, offset in zip(ids, matrix[:, 1:], spec.offsets)),
    )

    sidecar = {
        "model": config.model,
        "seed": config.seed,
        "params": {**dataclasses.asdict(params), "coef": [float(v) for v in params.coef]},
        "metadata": _metadata("simulate", config),
    }
    _write_json(args.out_params, sidecar)
    logger.info(
        "stage=simulate model=%s n=%d k=%d seed=%d out=%s",
        config.model, n, sim.k, config.seed, args.out_data,
    )
    return EXIT_OK


def cmd_infer(args, config: RunConfig) -> int:
    spec, data = _build_regression_spec(
        args.stats, args.covariates, config.add_intercept
    )
    post = model.Posterior(spec, data, config.priors, config.model)
    logger.info(
        "stage=infer model=%s n=%d p=%d chains=%d warmup=%d draws=%d",
        config.model, spec.n_samples, spec.n_covariates,
        config.hmc.n_chains, config.hmc.n_warmup, config.hmc.n_draws,
    )
    draws = inference.sample(
        post.logp_and_grad,
        config.hmc,
        post.initial_point(),
        names=post.names,
        constrain=post.constrain,
    )
    inference.write_draws_csv(args.out_draws, draws)
    summary = {}
    for name in draws.names:
        col = draws.column(name)
        q5, q95 = np.quantile(col, [0.05, 0.95])
        summary[name] = {
            "mean": float(col.mean()),
            "sd": float(col.std(ddof=1)),
            "q5": float(q5),
            "q95": float(q95),
        }
    inference.write_diagnostics_json(
        args.out_diagnostics,
        draws,
        metadata={**_metadata("infer", config), "summary": summary,
                  "warmup_divergences": [int(n) for n in draws.warmup_divergences],
                  "rejections": dict(post.rejections), "evaluations": dict(post.evaluations),
                  "exact_reruns": post.exact_reruns},
    )
    table = draws.diagnostics
    print(f"{'parameter':<22}{'mean':>12}{'sd':>12}{'q5':>12}{'q95':>12}{'rhat':>10}{'ess':>10}")
    for j, name in enumerate(draws.names):
        s = summary[name]
        print(
            f"{name:<22}{s['mean']:>12.4f}{s['sd']:>12.4f}{s['q5']:>12.4f}"
            f"{s['q95']:>12.4f}{table.rhat[j]:>10.4f}{table.ess_bulk[j]:>10.0f}"
        )
    if draws.divergence_count:
        print(f"divergent transitions: {draws.divergence_count}")
    logger.info(
        "stage=infer out=%s divergences=%d max_rhat=%.4f full_evaluations=%d "
        "gradient_only_evaluations=%d exact_reruns=%d", args.out_draws, draws.divergence_count,
        table.max_rhat(), post.evaluations["full"], post.evaluations["gradient_only"],
        post.exact_reruns,
    )
    return EXIT_OK


def cmd_ppc(args, config: RunConfig) -> int:
    spec, reports = _build_regression_spec(
        args.stats, args.covariates, config.add_intercept
    )
    draws = inference.read_draws_csv(args.draws)
    expected = model.parameter_names(config.model, spec.covariate_names)
    if list(draws.names) != expected:
        raise ValidationError(
            f"draws columns {list(draws.names)} do not match model '{config.model}' "
            f"parameters {expected}"
        )
    summary = ppc.run_ppc(
        draws,
        spec,
        config.model,
        reports,
        n_reps=config.ppc.n_reps,
        seed=config.seed,
        grid=config.ppc.grid,
    )
    ppc.write_ppc_csv(args.out_csv, summary)
    ppc.write_ppc_json(args.out_json, summary, metadata=_metadata("ppc", config))
    logger.info(
        "stage=ppc model=%s reps=%d u_obs=%.5f tail_mean=%.3f tail_iqr=%.3f",
        config.model, config.ppc.n_reps, summary.u_obs,
        summary.tail_prob_mean, summary.tail_prob_iqr80,
    )
    return EXIT_OK


def cmd_kernel_audit(args, config: RunConfig) -> int:
    kern = kernel_mod.kernel_from_json(args.kernel)
    names = list(kern.names or [f"xi{j}" for j in range(kern.n_outcomes)])
    matrix = kernel_mod.phi_matrix(kern)
    print("phi(y, outcome):")
    print("  y  " + "".join(f"{n:>14}" for n in names))
    for y in range(kern.k_max + 1):
        print(f"{y:>4} " + "".join(f"{matrix[y, j]:>14.6f}" for j in range(kern.n_outcomes)))
    print()
    print(f"{'outcome':<14}{'CAR':>6}  witness (ratio_high vs ratio_low)")
    for j in range(kern.n_outcomes):
        res = kernel_mod.is_car(kern, j)
        if res.is_car:
            print(f"{names[j]:<14}{'yes':>6}")
        else:
            y_hi, y_lo = res.witness
            r = dict(zip(res.compatibility_set, res.ratios))
            print(
                f"{names[j]:<14}{'no':>6}  (y={y_hi}, y'={y_lo}): "
                f"{r[y_hi]:.6f} vs {r[y_lo]:.6f}"
            )
    return EXIT_OK


def cmd_show_config(args, config: RunConfig) -> int:
    print(json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grancount",
        description="Granular counting and Bayesian inference for fuzzily reported counts.",
    )
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY.PATH=VALUE",
        dest="overrides",
        help="override a configuration value (repeatable)",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log at DEBUG level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="granular counts from a possibility matrix")
    p.set_defaults(run=cmd_count)
    p.add_argument("possibility", help="possibility matrix CSV")
    p.add_argument("--out", required=True, help="output granular-count CSV")

    p = sub.add_parser("fit", help="fit (c, h) statistics to granular counts")
    p.set_defaults(run=cmd_fit)
    p.add_argument("counts", help="granular-count CSV")
    p.add_argument("--out", required=True, help="output statistics CSV")

    p = sub.add_parser("simulate", help="draw a synthetic dataset")
    p.set_defaults(run=cmd_simulate)
    p.add_argument("--out-data", required=True)
    p.add_argument("--out-covariates", required=True)
    p.add_argument("--out-params", required=True, help="JSON sidecar with ground truth")

    p = sub.add_parser("infer", help="posterior sampling for one model")
    p.set_defaults(run=cmd_infer)
    p.add_argument("stats", help="statistics CSV (sample_id,c,h,K,...)")
    p.add_argument("covariates", help="covariates CSV (sample_id,...[,offset])")
    p.add_argument("--out-draws", required=True)
    p.add_argument("--out-diagnostics", required=True)

    p = sub.add_parser("ppc", help="posterior predictive checks")
    p.set_defaults(run=cmd_ppc)
    p.add_argument("draws", help="posterior draws CSV")
    p.add_argument("stats", help="observed statistics CSV")
    p.add_argument("covariates", help="covariates CSV")
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-json", required=True)

    p = sub.add_parser("kernel-audit", help="print the reporting kernel and CAR verdicts")
    p.set_defaults(run=cmd_kernel_audit)
    p.add_argument(
        "kernel",
        help='kernel JSON file: an object with "nu" (one positive mass per outcome, summing to 1), '
             '"outcomes" (one membership list per outcome, all over {0..K}: K is their length '
             'minus 1, no "k_max" key is read) and optional "names" (strings, or null)',
    )

    p = sub.add_parser("show-config", help="print the effective configuration")
    p.set_defaults(run=cmd_show_config)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    try:
        config = load_config(args.config, args.overrides)
        return args.run(args, config)
    except ValidationError as exc:
        logger.error("validation error: %s", exc)
        return EXIT_VALIDATION
    except (OSError, UnicodeDecodeError) as exc:
        logger.error("cannot read or write a file: %s", exc)
        return EXIT_VALIDATION
    except NumericalError as exc:
        logger.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
