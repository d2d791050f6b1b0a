"""Spans around qmaflow's public functions, recorded from outside the program.

A traced child process installs wrappers on the names each caller looks
up (``qmaflow.flow.block_eigenvalues``, ``SpectralOps.fft``, ...).  Every
call records a span: name, start, end, parent span and one number the
layer reports (bytes produced, accepted or not, step taken).  Spans stay
in memory and are written once, when the command has finished.

Self time is a span's duration minus the part of it covered by its child
spans; per-layer metrics are built from self times, so that the layers
of one solve add up to the solve.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

SOLVE_ROOTS = ("flow.run_to_steady", "verify.identity_suite")


class Tracer:
    """In-memory span store.  A span is [name_id, parent, start, end, value]."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name, fn, value=None):
        """``fn`` recording a span per call; ``value(args, result)`` -> number."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_id, stack[-1] if stack else -1, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if value is not None:
                span[4] = value(args, result)
            return result

        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def install(tracer: Tracer):
    """Wrap the public functions of every qmaflow module at their call sites."""
    from qmaflow import cli, exterior, flow, model, operators, verify
    from qmaflow.exterior import ExteriorElement
    from qmaflow.fields import SpectralOps
    from qmaflow.flow import FlowEngine

    def patch(owner, attr, name, value=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), value))

    def run_to_steady(*args, **kwargs):
        if kwargs.get("on_step") is not None:
            kwargs["on_step"] = tracer.wrap("cli.on_step", kwargs["on_step"])
        return solve(*args, **kwargs)

    solve = tracer.wrap("flow.run_to_steady", cli.run_to_steady)
    cli.run_to_steady = run_to_steady
    patch(cli, "run_identity_suite", "verify.identity_suite")
    cli.RunConfig.load = staticmethod(tracer.wrap("cli.config_load", cli.RunConfig.load))
    patch(cli, "write_snapshot", "cli.snapshot", lambda a, r: os.path.getsize(a[0]))
    patch(cli, "build_manufactured", "verify.build_manufactured")
    patch(verify, "flow_form", "operators.flow_form")
    for module in (cli, verify):
        patch(module, "flow_rhs", "operators.flow_rhs")
    for fn in ("del_del_j", "gradient_energy", "gradient_energy_wedge", "induced_metric_form_real_path"):
        patch(verify, fn, "operators.dual_paths")
    patch(verify, "_trial_rng", "verify.identity_trial")

    patch(SpectralOps, "__init__", "fields.spectral_ops_build")
    for fn in ("fft", "ifft"):
        patch(SpectralOps, fn, "fields.fft", lambda a, r: r.nbytes)
    patch(
        SpectralOps,
        "ddj_upper_s1_from_hat",
        "fields.bundle",
        lambda a, r: a[1].nbytes * (len(a[0].pairs) + 1),
    )
    patch(SpectralOps, "zbar_gradient_batched_from_hat", "fields.gradient", lambda a, r: r.nbytes)
    patch(SpectralOps, "spectral_tail", "fields.tail")

    patch(FlowEngine, "evaluate", "flow.evaluate", lambda a, r: float(r.ok))
    patch(FlowEngine, "step", "flow.step", lambda a, r: r[0].t - a[1].t)
    patch(FlowEngine, "diagnostics", "flow.diagnostics")
    patch(flow, "block_eigenvalues", "model.block_eigenvalues")
    patch(flow, "pfaffian_upper", "exterior.pfaffian_upper")
    patch(model, "positivity_eigenvalues", "model.positivity_eigenvalues")
    patch(ExteriorElement, "wedge", "exterior.wedge")
    for module in (exterior, flow, model, operators, verify):
        patch(module, "pfaffian", "exterior.pfaffian")


# -- analysis --------------------------------------------------------------------


def self_times(spans) -> list:
    """Per span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for idx, (_, parent, start, end, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, _, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[idx]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(names, spans) -> dict:
    """name -> {"calls", "self_s", "total_s", "value"} over the given spans."""
    out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "value": 0.0} for name in names}
    for span, self_s in zip(spans, self_times(spans)):
        entry = out[names[span[0]]]
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["total_s"] += span[3] - span[2]
        entry["value"] += span[4]
    return out


def merge(summaries) -> dict:
    """Sum several summaries (one per process of a round)."""
    out: dict = {}
    for summary in summaries:
        for name, entry in summary.items():
            acc = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "value": 0.0})
            for key, val in entry.items():
                acc[key] += val
    return out


# (metric name, span name, field of the summary, unit)
LAYER_METRICS = (
    ("cli.config_load_s", "cli.config_load", "self_s", "s"),
    ("cli.snapshot_writes", "cli.snapshot", "calls", "count"),
    ("cli.snapshot_bytes", "cli.snapshot", "value", "B"),
    ("cli.snapshot_s", "cli.snapshot", "self_s", "s"),
    ("cli.csv_rows", "cli.on_step", "calls", "count"),
    ("cli.csv_row_s", "cli.on_step", "self_s", "s"),
    ("verify.build_manufactured_s", "verify.build_manufactured", "self_s", "s"),
    ("operators.flow_form_s", "operators.flow_form", "self_s", "s"),
    ("fields.spectral_ops_build_s", "fields.spectral_ops_build", "self_s", "s"),
    ("fields.fft_calls", "fields.fft", "calls", "count"),
    ("fields.fft_s", "fields.fft", "self_s", "s"),
    ("fields.bundle_calls", "fields.bundle", "calls", "count"),
    ("fields.bundle_s", "fields.bundle", "self_s", "s"),
    ("fields.gradient_s", "fields.gradient", "self_s", "s"),
    ("fields.tail_s", "fields.tail", "self_s", "s"),
    ("flow.diagnostics_s", "flow.diagnostics", "self_s", "s"),
    ("model.block_eigenvalues_calls", "model.block_eigenvalues", "calls", "count"),
    ("model.block_eigenvalues_s", "model.block_eigenvalues", "self_s", "s"),
    ("exterior.pfaffian_upper_calls", "exterior.pfaffian_upper", "calls", "count"),
    ("exterior.pfaffian_upper_s", "exterior.pfaffian_upper", "self_s", "s"),
    ("exterior.wedge_calls", "exterior.wedge", "calls", "count"),
    ("exterior.wedge_s", "exterior.wedge", "self_s", "s"),
    ("exterior.pfaffian_s", "exterior.pfaffian", "self_s", "s"),
    ("model.positivity_eigenvalues_calls", "model.positivity_eigenvalues", "calls", "count"),
    ("model.positivity_eigenvalues_s", "model.positivity_eigenvalues", "self_s", "s"),
    ("operators.flow_rhs_s", "operators.flow_rhs", "self_s", "s"),
    ("operators.dual_paths_s", "operators.dual_paths", "self_s", "s"),
    ("verify.identity_trials", "verify.identity_trial", "calls", "count"),
    ("verify.identity_suite_s", "verify.identity_suite", "self_s", "s"),
    ("flow.steps", "flow.step", "calls", "count"),
    ("flow.evaluations", "flow.evaluate", "calls", "count"),
    ("flow.evaluate_s", "flow.evaluate", "self_s", "s"),
    ("flow.step_s", "flow.step", "self_s", "s"),
    ("flow.run_to_steady_s", "flow.run_to_steady", "self_s", "s"),
)


def layer_metrics(summary: dict) -> dict:
    """Per-layer metric name -> (value, unit) for one round's merged summary."""
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "value": 0.0}
    get = lambda span: summary.get(span, empty)
    out = {metric: (float(get(span)[field]), unit) for metric, span, field, unit in LAYER_METRICS}
    # bytes of complex output each transform produces, from array sizes
    out["fields.bytes_transformed"] = (
        sum(get(s)["value"] for s in ("fields.fft", "fields.bundle", "fields.gradient")),
        "B",
    )
    steps = get("flow.step")["calls"]
    evaluations = get("flow.evaluate")["calls"]
    accepted = get("flow.evaluate")["value"]
    # a Heun step that is accepted used exactly two evaluations, both ok
    out["flow.accepted_evaluations"] = (float(2 * steps), "count")
    out["flow.rejected_evaluations"] = (float(evaluations - accepted), "count")
    out["flow.accept_ratio"] = (2 * steps / evaluations if evaluations else 0.0, "ratio")
    out["flow.mean_dt"] = (get("flow.step")["value"] / steps if steps else 0.0, "flow_time")
    out["flow.us_per_step"] = (1e6 * get("flow.step")["total_s"] / steps if steps else 0.0, "us")
    solve = sum(get(root)["total_s"] for root in SOLVE_ROOTS)
    root_self = sum(get(root)["self_s"] for root in SOLVE_ROOTS)
    out["trace.solve_s"] = (solve, "s")
    out["trace.attributed_share"] = ((solve - root_self) / solve if solve else 0.0, "ratio")
    return out
