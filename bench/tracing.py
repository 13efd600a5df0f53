"""Aggregating span tracer for the traced benchmark passes.

Functions are wrapped under the name their caller looks them up by (a module
or class attribute), so the program itself is not edited. Spans are not
stored one by one: `logp_and_grad` runs tens of thousands of times per pass.
Each (stage, span name) keeps a call count, total time and self time, where
self time is the span's duration minus the time of the traced spans it
encloses and minus the wrappers' own cost for them. That cost per span is
calibrated on a no-op function when the tracer is made. Spans are recorded
only while a stage is open, so the benchmark's own output checks, which use
the same readers, are not counted.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict

from grancount import cli, fuzzy, inference, model, possibility, ppc


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # (stage, name) -> [calls, total_s, self_s]
        self.events = defaultdict(list)  # (stage, name) -> values collected from results
        self.stage = None
        self._children = []  # child time accumulated by each open span
        self._restore = []
        self.span_cost = 0.0  # seconds outside the recorded span, per span
        self.span_cost, self.span_overhead = self._calibrate()

    def wrap(self, owner, attr, name, collect=None):
        """Replace `owner.attr` by a timing wrapper recorded under `name`.

        `name` may be a callable of the call's positional arguments, so one
        wrapper can split its spans, e.g. by the model a `Posterior` holds.
        `collect(result, args)` returns a value to keep for the span, or None.
        """
        original = getattr(owner, attr)
        tracer = self
        split = callable(name)

        def traced(*args, **kwargs):
            if tracer.stage is None:
                return original(*args, **kwargs)
            label = name(args) if split else name
            tracer._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                child = tracer._children.pop()
                entry = tracer.stats[tracer.stage, label]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - child
                tracer._children[-1] += elapsed + tracer.span_cost
            if collect is not None:
                value = collect(result, args)
                if value is not None:
                    tracer.events[tracer.stage, label].append(value)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def run_stage(self, stage, fn):
        """Run `fn()` as the root span of `stage`; spans inside attach to it."""
        self.stage = stage
        self._children = [0.0]
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            elapsed = time.perf_counter() - t0
            entry = self.stats[stage, "stage"]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - self._children.pop()
            self.stage = None

    def close(self):
        """Put every wrapped attribute back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _calibrate(self, n_calls=20000, repeats=5):
        """Seconds one span costs: (outside the time it records, in all).

        Measured on a no-op wrapped like `logp_and_grad`, the hot span, with
        a label function and a result collector; medians of `repeats`. The
        first part is charged to the enclosing span unless subtracted; the
        second is what tracing adds to the wall time.
        """

        class Probe:
            @staticmethod
            def noop():
                return None

        raw = Probe.noop
        self.wrap(Probe, "noop", lambda args: "probe", collect=lambda r, a: None)
        wrapped = Probe.noop
        outside, total = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(n_calls):
                raw()
            t_raw = time.perf_counter() - t0
            self.stage, self._children = "calibrate", [0.0]
            t0 = time.perf_counter()
            for _ in range(n_calls):
                wrapped()
            t_wrapped = time.perf_counter() - t0
            recorded = self._children.pop()
            self.stage = None
            outside.append(max(0.0, t_wrapped - recorded) / n_calls)
            total.append(max(0.0, t_wrapped - t_raw) / n_calls)
        self.close()
        self.stats.clear()
        self.events.clear()
        return statistics.median(outside), statistics.median(total)

    # -- aggregation -------------------------------------------------------

    def spans(self) -> int:
        """Spans recorded so far, stage roots excluded."""
        return sum(v[0] for (s, n), v in self.stats.items() if n != "stage")

    def calls(self, name, stage=None) -> int:
        return sum(v[0] for (s, n), v in self.stats.items() if n == name and stage in (None, s))

    def total_s(self, name, stage=None) -> float:
        return sum(v[1] for (s, n), v in self.stats.items() if n == name and stage in (None, s))

    def self_s(self, name, stage=None) -> float:
        return sum(v[2] for (s, n), v in self.stats.items() if n == name and stage in (None, s))

    def collected(self, name):
        return [v for (s, n), vals in self.events.items() if n == name for v in vals]


def install(tracer: Tracer) -> None:
    """Wrap each layer's entry points in the `grancount` package."""

    def logp_label(args):
        return f"model.{args[0].model}"

    def neginf(result, args):
        return None if math.isfinite(result[0]) else True  # kept only for rejections

    tracer.wrap(model.Posterior, "logp_and_grad", logp_label, collect=neginf)
    tracer.wrap(model.Posterior, "__init__", "model.posterior_init")
    # cli reaches simulate as `model.simulate`, run_ppc as the name it imported
    tracer.wrap(model, "simulate", "model.simulate")
    tracer.wrap(ppc, "simulate", "model.simulate")
    tracer.wrap(
        fuzzy, "fit_beta", "fuzzy.fit",
        collect=lambda r, a: (r.iterations, 1.0 if r.converged else 0.0),
    )
    tracer.wrap(possibility, "granular_count_fast", "possibility.count")
    tracer.wrap(
        inference, "sample", "inference.sample",
        collect=lambda r, a: (
            float(r.accept_rate.mean()),
            float(r.step_size.mean()),
            min(float(v) for v in r.diagnostics.ess_bulk if math.isfinite(v)),
            r.n_chains * (a[1].n_warmup + a[1].n_draws),
            a[1].target_accept,
        ),
    )
    tracer.wrap(inference, "diagnostics", "inference.diagnostics")
    tracer.wrap(ppc, "run_ppc", "ppc.run_ppc", collect=lambda r, a: r.scaled_mean.size)
    tracer.wrap(ppc, "scalar_summaries", "ppc.scalar_summaries")
    # `fit` parses its counts CSV inline in `cmd_fit` and `simulate` writes its
    # CSVs inline in `cmd_simulate`: that IO is cli self time.
    readers = (
        (possibility, "read_possibility_csv"),
        (fuzzy, "read_stats_csv"),
        (cli, "_read_covariates_csv"),
        (inference, "read_draws_csv"),
    )
    writers = (
        (possibility, "write_counts_csv"),
        (fuzzy, "write_stats_csv"),
        (inference, "write_diagnostics_json"),
        (ppc, "write_ppc_csv"),
        (ppc, "write_ppc_json"),
        (cli, "_write_json"),
    )
    for owner, attr in readers:
        tracer.wrap(owner, attr, "io.read")
    for owner, attr in writers:
        tracer.wrap(owner, attr, "io.write")
    tracer.wrap(inference, "write_draws_csv", "inference.write_draws")
