"""Spans, self time and the probe table of the traced run.

A probe replaces a function at the name its caller looks up (a module
global such as ``qmoe.hybrid.batch_parameter_shift``, or a class attribute
such as ``qmoe.gbdt.GBDTModel.predict_proba``) with a wrapper that records
one span per call and adds the call's work counts. Names are resolved when
the probes are installed, so a function that a later change renames or
deletes is reported as ``missing``: it never reads as zero and never stops
a run.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Recorder.spans, -1 at top level
    op: int  # the benchmark operation (fold, fit or scoring call) the span served


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted((spans[k].start, spans[k].end) for k in kids):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


class Recorder:
    """Spans kept in memory plus summed work counts, for one process."""

    def __init__(self, op_span: Optional[str] = None) -> None:
        self.spans: list = []
        self.counts: dict = {}
        self.op = -1 if op_span else 0
        self.op_span = op_span  # a top-level span of this name opens the next operation
        self._stack: list = []

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, probe: "Probe", fn: Callable) -> Callable:
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(rec.spans)
            if probe.span == rec.op_span and not rec._stack:
                rec.op += 1
            span = Span(probe.span, 0.0, 0.0, rec._stack[-1] if rec._stack else -1, rec.op)
            rec.spans.append(span)
            rec._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                rec._stack.pop()
            if probe.calls:
                rec.add(probe.calls, 1)
            if probe.count is not None:
                for name, amount in zip(probe.counters, probe.count(args, kwargs, result)):
                    rec.add(name, amount)
            return result

        return traced

    def busy_seconds(self) -> dict:
        """Summed self time per span name."""
        out: dict = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def dump(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans]


# --- the probe table ------------------------------------------------------


def trees_grown(model) -> int:
    """Boosting rounds fit_gbdt ran, from what the returned model keeps.

    With early stopping the loop runs early_stopping_rounds past the best
    round and then truncates to it; without, every kept tree was grown.
    """
    if model.best_iteration is None:
        return len(model.trees)
    p = model.params
    return min(model.best_iteration + 1 + p.early_stopping_rounds, p.n_estimators)


def _rows(index: int, name: str) -> Callable:
    """Counts the rows of the argument at this position or keyword."""
    return lambda args, kwargs, result: (len(kwargs[name] if name in kwargs else args[index]),)


@dataclass(frozen=True)
class Probe:
    caller: str  # module whose namespace the calling code reads the name from
    name: str  # attribute path inside it: "fit_gbdt" or "GBDTModel.predict_proba"
    span: str  # busy seconds are reported as <span>.s
    calls: Optional[str] = None  # counter bumped once per call
    counters: tuple = ()  # counters that count() adds to, in order
    count: Optional[Callable] = None  # (args, kwargs, result) -> one amount per counter

    @property
    def feeds(self) -> set:
        return {f"{self.span}.s", self.calls, *self.counters} - {None}


_FIT_COUNTERS = ("gbdt.fit.trees_grown", "gbdt.fit.trees_kept")


def _fit_counts(args, kwargs, model):
    return trees_grown(model), len(model.trees)


PROBES = (
    Probe("qmoe.bench", "fit_gbdt", "gbdt.fit.primary", "gbdt.fit.calls",
          _FIT_COUNTERS, _fit_counts),
    Probe("qmoe.moe", "fit_gbdt", "gbdt.fit.router", "gbdt.fit.calls",
          _FIT_COUNTERS, _fit_counts),
    Probe("qmoe.gbdt", "GBDTModel.predict_proba", "gbdt.predict", "gbdt.predict.calls",
          ("gbdt.predict.rows",), _rows(1, "x")),
    Probe("qmoe.hybrid", "batch_parameter_shift", "qsim.batch_parameter_shift",
          "qsim.batch_parameter_shift.calls", ("qsim.batch_parameter_shift.rows",),
          _rows(2, "features")),
    Probe("qmoe.hybrid", "batch_expectations", "qsim.batch_expectations",
          "qsim.batch_expectations.calls", ("qsim.batch_expectations.rows",),
          _rows(2, "features")),
    Probe("qmoe.hybrid", "mlp_forward", "neural.mlp_forward", "neural.mlp_forward.calls"),
    Probe("qmoe.hybrid", "mlp_backward", "neural.mlp_backward", "neural.mlp_backward.calls"),
    Probe("qmoe.hybrid", "optimizer_step", "neural.optimizer_step",
          "neural.optimizer_step.calls"),
    Probe("qmoe.bench", "fit_hybrid", "hybrid.fit", None,
          ("hybrid.fit.epochs_run", "hybrid.fit.epochs_useful"),
          lambda a, k, out: (len(out[1].epochs), out[1].best_epoch + 1)),
    Probe("qmoe.hybrid", "HybridModel.predict_proba", "hybrid.predict", None,
          ("hybrid.predict.rows",), _rows(1, "x")),
    Probe("qmoe.bench", "combined_predict", "moe.combined_predict",
          "moe.combined_predict.calls",
          ("moe.combined_predict.rows", "moe.combined_predict.routed"),
          lambda a, k, out: (int(out.routed.size), int(out.routed.sum()))),
    Probe("qmoe.bench", "fit_router", "moe.fit_router"),
    Probe("qmoe.bench", "router_targets", "moe.router_targets", None,
          ("moe.router_targets.positives",), lambda a, k, out: (int(out.sum()),)),
    Probe("qmoe.bench", "youden_threshold", "moe.youden_threshold"),
    Probe("qmoe.data", "load_csv", "data.load_csv", None,
          ("data.load_csv.rows",), lambda a, k, out: (len(out[1]),)),
    Probe("qmoe.data", "synthesize", "data.synthesize"),
    Probe("qmoe.bench", "synthesize", "data.synthesize"),
    Probe("qmoe.bench", "split_eval", "data.split_eval"),
    Probe("qmoe.bench", "undersample", "data.undersample"),
    Probe("qmoe.data", "MinMaxScaler.transform", "data.transform", None,
          ("data.transform.rows",), lambda a, k, out: (len(out),)),
    Probe("qmoe.bench", "fit_fold", "bench.fit_fold", "bench.fit_fold.calls"),
    Probe("qmoe.bench", "load_model", "bench.load_model"),
    Probe("qmoe.bench", "save_model", "bench.save_model"),
    Probe("qmoe.bench", "save_report", "bench.save_report"),
    Probe("qmoe.bench", "fit_temperature", "calibration.fit_temperature",
          "calibration.fit_temperature.calls", ("calibration.fit_temperature.iterations",),
          lambda a, k, out: (out.iterations,)),
    Probe("qmoe.bench", "average_precision", "metrics.average_precision",
          "metrics.average_precision.calls"),
    Probe("qmoe.hybrid", "average_precision", "metrics.average_precision",
          "metrics.average_precision.calls"),
    Probe("qmoe.bench", "pr_curve", "metrics.pr_curve", "metrics.pr_curve.calls"),
)

# Ratios are derived after the run from two counters: name -> (numerator,
# base). An empty base reads 0, and every base is a metric of its own.
RATIOS = {
    "gbdt.fit.trees_kept_ratio": ("gbdt.fit.trees_kept", "gbdt.fit.trees_grown"),
    "hybrid.fit.epochs_useful_ratio": ("hybrid.fit.epochs_useful", "hybrid.fit.epochs_run"),
    "qsim.batch_expectations.rows_per_call": ("qsim.batch_expectations.rows",
                                              "qsim.batch_expectations.calls"),
    "moe.routed_fraction": ("moe.combined_predict.routed", "moe.combined_predict.rows"),
}


def resolve(probe: Probe):
    """(owner, attribute, function) for a probe, or None when the name is gone."""
    try:
        owner = importlib.import_module(probe.caller)
    except ImportError:
        return None
    *path, attr = probe.name.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else None


class Installed:
    """Probes patched in place; restore() puts every original back."""

    def __init__(self, recorder: Recorder, probes=PROBES) -> None:
        self.missing: list = []
        self._patched: list = []
        for probe in probes:
            found = resolve(probe)
            if found is None:
                self.missing.append(probe)
                continue
            owner, attr, fn = found
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, recorder.wrap(probe, fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()


def layer_metrics(recorder: Recorder, missing: list, wanted: list) -> dict:
    """Every wanted per-layer metric as {value, unit}; value None if missing.

    A metric is missing when any probe that feeds it could not be resolved,
    because a partial sum would read as a smaller number, not as a gap.
    """
    gone = set().union(*(p.feeds for p in missing))
    busy = recorder.busy_seconds()
    out = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if gone & set(RATIOS.get(name, (name,))):
            out[name] = {"value": None, "unit": unit, "missing": True}
        elif name in RATIOS:
            top, base = (recorder.counts.get(part, 0) for part in RATIOS[name])
            out[name] = {"value": top / base if base else 0.0, "unit": unit}
        elif name.endswith(".s"):
            out[name] = {"value": busy.get(name[:-2], 0.0), "unit": unit}
        else:
            out[name] = {"value": recorder.counts.get(name, 0), "unit": unit}
    return out
