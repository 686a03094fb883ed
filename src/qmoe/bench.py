"""Cross-validation benchmark, latency arithmetic, and the file codec.

One fold's protocol, in order: undersample the training rows to a
balanced set by their labels, fit the scaler on the training rows only,
scale the balanced set and the held-out rows (never the whole training
split), train both experts (the boosted primary and the hybrid
secondary), fit temperature scalers and Youden thresholds on the
validation part of the held-out rows, build router targets from
calibrated probabilities on the analysis part, train the router there,
and score the holdout part last. Holdout rows influence nothing upstream
of scoring.

Every fold entry carries a baseline arm (calibrated primary alone), one
arm per gate value, and a sentinel arm at gamma = 1.0 where the gate
cannot open. Every arm is combined_predict's output on the holdout at its
gamma, the path that serves a saved pipeline, so the report scores what
serving scores. The sentinel arm's output must match the baseline bit for
bit, which the record asserts in its own field. Reports contain no
wall-clock values, so two runs with one seed serialize identically.

cross_validate fits the fold ranges of ``workers.parts`` through
``workers.fork_map``: the process fits the first range and a forked child
each other one, each range in order, so the lowest failing range holds the
lowest failing fold (see ``workers`` for the fork facts; ``taskset -c 0``
runs serially). Each fold is seeded by its (repeat, fold), so the report
bytes do not depend on the worker count. Memory is the parent plus one
child per range past the first, each holding one fold.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import os
import typing
import warnings
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import Optional, Union

import numpy as np

from .calibration import apply_temperature, fit_temperature
from .data import (
    MinMaxScaler,
    fit_minmax,
    load_csv,
    split_eval,
    stratified_repeated_kfold,
    synthesize,
    undersample,
)
from .errors import (ConfigurationError, InputError, ModelIOError, replacing,
                     require_finite_rows, row_blocks)
from .gbdt import GBDTParams, fit_gbdt, router_params
from .hybrid import HybridConfig, fit_hybrid
from .metrics import auprc_trapezoid, average_precision, pr_curve, precision_recall
from .moe import (
    GAMMA_GRID,
    CombinedModel,
    combined_predict,
    fit_router,
    router_targets,
    youden_threshold,
)
from .workers import fork_map, parts

__all__ = [
    "RunConfig",
    "TASK_SECONDS",
    "latency_estimate",
    "latency_table",
    "FoldRecord",
    "BenchReport",
    "fit_calibration",
    "fit_fold",
    "fit_pipeline",
    "cross_validate",
    "run_cv",
    "report_to_dict",
    "save_report",
    "load_report",
    "load_config",
    "Pipeline",
    "pipeline_predict",
    "save_model",
    "load_model",
    "check_model_path",
    "make_report_dir",
]

SENTINEL_GAMMA = 1.0  # gate never opens; the built-in no-routing arm

_MODEL_FORMAT = "qmoe-pipeline"
_REPORT_FORMAT = "qmoe-report"
# format -> (noun, version). Model version 4 holds the hybrid as its config
# and the flat params predict_proba reads, without the training-only
# decoder; reports are unchanged since version 2.
_FORMATS = {_MODEL_FORMAT: ("model file", 4), _REPORT_FORMAT: ("report", 2)}


@dataclass(frozen=True)
class RunConfig:
    """Everything a benchmark run needs, including the dataset source.

    csv_path, when set, wins over the synthetic generator fields. The
    gamma grid must be strictly increasing inside (0, 1); the 1.0
    sentinel arm is always added on top.
    """

    csv_path: Optional[str] = None
    synth_rows: int = 20000
    synth_fraud_rate: float = 0.00172
    hybrid: HybridConfig = HybridConfig()
    expert: GBDTParams = GBDTParams()
    router: GBDTParams = router_params()
    gamma_grid: tuple[float, ...] = GAMMA_GRID
    n_splits: int = 5
    n_repeats: int = 3
    majority_ratio: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        grid = tuple(float(g) for g in self.gamma_grid)
        if not grid:
            raise ConfigurationError("gamma_grid must not be empty")
        if any(not 0.0 < g < 1.0 for g in grid):
            raise ConfigurationError(f"gamma values must lie strictly in (0, 1): {grid}")
        if any(a >= b for a, b in zip(grid, grid[1:])):
            raise ConfigurationError(f"gamma_grid must be strictly increasing: {grid}")
        object.__setattr__(self, "gamma_grid", grid)
        if self.n_splits < 2 or self.n_repeats < 1:
            raise ConfigurationError("need n_splits >= 2 and n_repeats >= 1")
        if not self.majority_ratio > 0:
            raise ConfigurationError(f"majority_ratio must be positive, got {self.majority_ratio}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        # Each fold derives its own hybrid seed from ``seed``, so a nested seed
        # would change only the report.
        if self.hybrid.seed != 0:
            raise ConfigurationError(f"hybrid.seed must be 0, got {self.hybrid.seed}: every "
                                     f"fold derives its seeds from the run's seed")


# Seconds per quantum task on the reference hardware: server, compile and
# execution time.
TASK_SECONDS = 0.17 + 1.92 + 0.649


def latency_estimate(n_points: int, routed_fraction: float) -> float:
    """Added seconds for routing a fraction of n_points, one task each.

    Deliberately assumes no batching or pipelining: every routed row pays
    the full per-task price. Linear in both arguments.
    """
    if n_points < 0:
        raise InputError(f"n_points must be >= 0, got {n_points}")
    if not 0.0 <= routed_fraction <= 1.0:
        raise InputError(f"routed_fraction must be in [0, 1], got {routed_fraction}")
    return n_points * routed_fraction * TASK_SECONDS


def latency_table(report: BenchReport, n_points: int) -> list:
    """Per-arm latency summary from a report's mean routed fractions."""
    rows = []
    for arm, stats in report.aggregates["combined"].items():
        fraction = stats["routed_fraction"]["mean"]
        seconds = latency_estimate(n_points, fraction)
        rows.append(
            {
                "gamma": float(arm),
                "routed_fraction": fraction,
                "seconds": seconds,
                "minutes": seconds / 60.0,
            }
        )
    rows.sort(key=lambda r: r["gamma"])
    return rows


@dataclass
class FoldRecord:
    repeat: int
    fold: int
    sizes: dict
    tau_primary: float
    tau_secondary: float
    temperature_primary: float
    temperature_secondary: float
    primary_trees: int
    hybrid_epochs: int
    baseline: dict
    combined: dict  # str(gamma) -> metric dict, sentinel included
    sentinel_equals_baseline: bool
    warnings: list[str] = field(default_factory=list)


@dataclass
class BenchReport:
    config: dict
    folds: list[FoldRecord]
    aggregates: dict

    def __post_init__(self) -> None:
        arms = self.aggregates.get("combined")
        if type(arms) is not dict:
            raise ConfigurationError(f"aggregates combined must be an object, found {arms!r:.60}")
        for arm, stats in arms.items():
            fraction = stats["routed_fraction"]["mean"]
            if (not 0 < float(arm) <= 1 or type(fraction) not in (int, float)
                    or not 0 <= fraction <= 1):
                raise ConfigurationError(f"arm {arm!r} needs a gamma in (0, 1] and a mean "
                                         f"routed_fraction in [0, 1], found {fraction!r}")


@dataclass
class Pipeline:
    """A deployable unit: the feature scaler plus the routed expert pair."""

    scaler: MinMaxScaler
    combined: CombinedModel

    def __post_init__(self) -> None:
        # The scaler must read the experts' width; CombinedModel checks that they share one.
        width = self.combined.primary.n_features
        for name in ("low", "span"):
            shape = getattr(self.scaler, name).shape
            if shape != (width,):
                raise ConfigurationError(f"scaler {name} has shape {shape}, "
                                         f"the experts read {width} features")


def pipeline_predict(pipeline: Pipeline, x_raw, gamma: float):
    """Score raw rows; combined_predict checks and scales them block by block."""
    return combined_predict(pipeline.combined, x_raw, gamma, pipeline.scaler)


def _fold_seeds(master_seed: int, repeat: int, fold: int):
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(repeat, fold))
    return tuple(int(v) for v in ss.generate_state(3))


def _arm_metrics(y, probs, hard, routed_fraction: float, n_points: int, notes: list) -> dict:
    """AUCPR/AP/precision/recall for one arm; NaN, with a note added to
    ``notes``, when holdout is one-class."""
    out = {
        "routed_fraction": float(routed_fraction),
        "latency_seconds": latency_estimate(n_points, routed_fraction),
    }
    if np.unique(y).size < 2:
        note = "holdout split has one class; ranking metrics are NaN"
        if note not in notes:
            notes.append(note)
        out.update(aucpr=float("nan"), ap=float("nan"),
                   precision=float("nan"), recall=float("nan"))
        return out
    curve = pr_curve(probs, y)
    out["ap"] = average_precision(curve)
    out["aucpr"] = auprc_trapezoid(curve)
    out["precision"], out["recall"] = precision_recall(hard, y)
    return out


def fit_calibration(p1, p2, y):
    """``(scalers, taus)``: both experts' temperature scalers fit on labelled
    scores, then their Youden thresholds on the recalibrated scores. ``taus``
    is None when ``y`` has one class: the scalers fall back to t = 1."""
    scalers = fit_temperature(p1, y), fit_temperature(p2, y)
    if np.unique(y).size < 2:
        return scalers, None
    return scalers, tuple(youden_threshold(apply_temperature(scaler, p), y)
                          for scaler, p in zip(scalers, (p1, p2)))


def fit_fold(config: RunConfig, x, y, train_idx, heldout_idx,
             repeat: int, fold: int):
    """Run one fold end to end; returns (record, pipeline).

    The fold copies only the rows it reads: the balanced set, picked from
    the training labels alone, and the three held-out parts. The scaler
    reads the training rows' min and max block by block, so the training
    split is never copied whole; scaling is row by row, so the balanced
    rows scale to the same bits as in a scaled copy of the split.
    """
    # Checked on the raw rows: the scaler would clip an infinity into range.
    require_finite_rows(x)
    split_seed, sample_seed, hybrid_seed = _fold_seeds(config.seed, repeat, fold)
    notes = []

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parts = split_eval(y, heldout_idx, seed=split_seed)

        balanced = train_idx[undersample(y[train_idx], majority_ratio=config.majority_ratio,
                                         seed=sample_seed)]
        scaler = fit_minmax(x, train_idx)
        x_bal = scaler.transform(x[balanced])
        x_val = scaler.transform(x[parts.validation])
        x_ana = scaler.transform(x[parts.analysis])
        x_hold = scaler.transform(x[parts.holdout])
        y_bal, y_val = y[balanced], y[parts.validation]
        y_ana, y_hold = y[parts.analysis], y[parts.holdout]
        sizes = {name: {"rows": int(rows.size), "positives": int(y[rows].sum())}
                 for name, rows in (("train", train_idx), ("balanced", balanced),
                                    ("validation", parts.validation),
                                    ("analysis", parts.analysis), ("holdout", parts.holdout))}

        primary = fit_gbdt(config.expert, x_bal, y_bal, x_val, y_val)

        hybrid_cfg = replace(config.hybrid, seed=hybrid_seed)
        if np.unique(y_val).size < 2:
            notes.append("validation split has one class; hybrid trained without early stopping")
            secondary, train_report = fit_hybrid(hybrid_cfg, x_bal, y_bal)
        else:
            secondary, train_report = fit_hybrid(hybrid_cfg, x_bal, y_bal, x_val, y_val)

        p1_val = primary.predict_proba(x_val)
        p2_val = train_report.val_probs  # the best epoch's, which the roll-back restored
        if p2_val is None:
            p2_val = secondary.predict_proba(x_val)
        del x_val  # read no further; the router fit below is the fold's peak
        (scaler1, scaler2), taus = fit_calibration(p1_val, p2_val, y_val)
        if scaler1.degenerate or scaler2.degenerate:
            notes.append("temperature fit degenerate; kept t = 1")
        if taus is None:
            notes.append("validation split has one class; thresholds fall back to 0.5")
            taus = 0.5, 0.5
        tau1, tau2 = taus

        targets = router_targets(
            y_ana,
            apply_temperature(scaler1, primary.predict_proba(x_ana)),
            apply_temperature(scaler2, secondary.predict_proba(x_ana)),
            tau1,
            tau2,
        )
        router = fit_router(x_ana, targets, config.router)
        if router.degenerate:
            notes.append("router targets were all zero; gate stays shut at every gamma")

        combined = CombinedModel(
            primary=primary, primary_scaler=scaler1,
            secondary=secondary, secondary_scaler=scaler2,
            router=router, tau_primary=tau1, tau_secondary=tau2,
        )

        # The baseline is the calibrated primary alone; every arm is served.
        n_hold = int(y_hold.size)
        base_probs = apply_temperature(scaler1, primary.predict_proba(x_hold))
        base_hard = (base_probs > tau1).astype(np.float64)
        baseline = _arm_metrics(y_hold, base_probs, base_hard, 0.0, n_hold, notes)

        arms = {}
        for gamma in (*config.gamma_grid, SENTINEL_GAMMA):
            out = combined_predict(combined, x_hold, gamma)
            arms[str(gamma)] = _arm_metrics(y_hold, out.probs, out.labels,
                                            out.routed_fraction, n_hold, notes)
        # out is now the sentinel arm's, the only output kept: the record checks it.

    for w in caught:
        message = str(w.message)
        if message not in notes:
            notes.append(message)
    record = FoldRecord(
        repeat=repeat, fold=fold, sizes=sizes, tau_primary=tau1, tau_secondary=tau2,
        temperature_primary=scaler1.temperature, temperature_secondary=scaler2.temperature,
        primary_trees=len(primary.trees), hybrid_epochs=len(train_report.epochs),
        baseline=baseline, combined=arms,
        sentinel_equals_baseline=bool(np.array_equal(out.probs, base_probs)
                                      and np.array_equal(out.labels, base_hard)),
        warnings=notes,
    )
    return record, Pipeline(scaler=scaler, combined=combined)


def _stats(values) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    valid = arr[~np.isnan(arr)]
    return {
        "mean": float(np.mean(valid)) if valid.size else float("nan"),
        "std": float(np.std(valid, ddof=1)) if valid.size > 1 else float("nan"),
        "median": float(np.median(valid)) if valid.size else float("nan"),
        "n_valid": int(valid.size),
    }


_ARM_METRICS = ("aucpr", "ap", "precision", "recall", "routed_fraction", "latency_seconds")


def _aggregate(folds: list) -> dict:
    baseline = {
        m: _stats([f.baseline[m] for f in folds]) for m in _ARM_METRICS
    }
    arms = folds[0].combined.keys()
    combined = {
        arm: {m: _stats([f.combined[arm][m] for f in folds]) for m in _ARM_METRICS}
        for arm in arms
    }
    return {"baseline": baseline, "combined": combined}


def cross_validate(x, y, config: RunConfig) -> BenchReport:
    """The full repeated stratified CV over already-loaded arrays.

    Each fold range of ``workers.parts`` is fitted in order by one worker
    (``fork_map``; the process fits the first). A worker stops at its first
    failing fold, and ``fork_map`` raises the first failing range's error:
    that of the lowest failing fold, the one a serial run reaches first.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n_folds = config.n_splits * config.n_repeats
    done = fork_map(lambda folds: _fit_folds(x, y, config, folds), parts(n_folds))
    folds = [record for records in done for record in records]
    return BenchReport(
        config=asdict(config), folds=folds, aggregates=_aggregate(folds)
    )


def _fit_folds(x, y, config: RunConfig, folds: slice) -> list:
    """The ``FoldRecord`` of each fold in the range ``folds``, in order.

    The worker walks the lazy split generator itself, so it holds one split
    at a time.
    """
    splits = itertools.islice(stratified_repeated_kfold(
        y, config.n_splits, config.n_repeats, config.seed), folds.start, folds.stop)
    return [fit_fold(config, x, y, train_idx, heldout_idx, *divmod(i, config.n_splits))[0]
            for i, (train_idx, heldout_idx) in enumerate(splits, folds.start)]


def load_dataset(config: RunConfig):
    """(x, y) from the configured source: a CSV path or the generator."""
    if config.csv_path is not None:
        return load_csv(config.csv_path)
    x, y, _ = synthesize(config.synth_rows, config.synth_fraud_rate, seed=config.seed)
    return x, y


def run_cv(config: RunConfig) -> BenchReport:
    x, y = load_dataset(config)
    return cross_validate(x, y, config)


def fit_pipeline(x, y, config: RunConfig):
    """Train one deployable pipeline on the first CV split of the data."""
    train_idx, heldout_idx = next(stratified_repeated_kfold(y, config.n_splits, 1, config.seed))
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return fit_fold(config, x, y, train_idx, heldout_idx, 0, 0)


def report_to_dict(report: BenchReport) -> dict:
    return {**_header(_REPORT_FORMAT), **asdict(report)}


def make_report_dir(out_dir) -> None:
    """``out_dir`` and its parents; an OSError is a ModelIOError."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ModelIOError(f"cannot write {out_dir}: {exc}") from None


def save_report(report: BenchReport, out_dir) -> None:
    """Write report.json (NaN metrics as null) plus flat folds.csv / aggregates.csv exports."""
    make_report_dir(out_dir)
    # A NaN metric goes through a JSON round trip as a NaN token and comes back None.
    doc = json.loads(json.dumps(report_to_dict(report)), parse_constant=lambda _: None)
    _write(os.path.join(out_dir, "report.json"), doc, indent=2, sort_keys=True)

    folds = [["repeat", "fold", "arm", *_ARM_METRICS]]
    for f in report.folds:
        # labeled honestly: the reference expert is our own GBDT
        for arm, metrics in _arms(f.baseline, f.combined):
            folds.append([f.repeat, f.fold, arm, *[repr(metrics[m]) for m in _ARM_METRICS]])

    aggregates = [["arm", "metric", "mean", "std", "median", "n_valid"]]
    for arm, stats in _arms(report.aggregates["baseline"], report.aggregates["combined"]):
        for metric in _ARM_METRICS:
            s = stats[metric]
            aggregates.append([arm, metric, repr(s["mean"]), repr(s["std"]), repr(s["median"]),
                               s["n_valid"]])
    for name, rows in (("folds.csv", folds), ("aggregates.csv", aggregates)):
        with replacing(os.path.join(out_dir, name), ModelIOError) as fh:
            csv.writer(fh).writerows(rows)


def _arms(baseline: dict, combined: dict) -> list:
    """``(name, entry)`` for the baseline arm, then each gated arm by rising gamma."""
    return [("gbdt-baseline", baseline),
            *((arm, combined[arm]) for arm in sorted(combined, key=float))]


# --- the file codec ---------------------------------------------------------
# Model files and reports are {"format", "version", **fields of the body},
# with arrays as lists, written by _write and read by _read. _build decodes each
# field by the type its dataclass declares, so the declarations are the
# schema, and each class's own __post_init__ checks the fields together, as
# it does for an object built in code. Float repr round-trips doubles, so a
# loaded model predicts bit-identically.

_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def _header(fmt: str) -> dict:
    return {"format": fmt, "version": _FORMATS[fmt][1]}


class _Rows(list):
    """An array as json.dump sees a list: one stand-in item makes it non-empty
    when the array is, and iterating it yields the array's values one row
    block at a time, so the whole array is never one list of Python numbers.
    json.dump always runs the Python encoder, which iterates a list; the C
    encoder of an unindented json.dumps would read the stand-in instead."""

    def __init__(self, array: np.ndarray) -> None:
        super().__init__([None] if len(array) else [])
        self.array = array

    def __iter__(self):
        for rows in row_blocks(len(self.array)):
            yield from self.array[rows].tolist()


def _encodable(value):
    """json.dump's ``default``: a dataclass as its fields, an array as _Rows."""
    if is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    return _Rows(value)


def _write(path, doc, **json_options) -> None:
    """``doc`` as strict JSON at ``path``: the bytes of ``json.dumps(doc,
    allow_nan=False, **json_options)`` and a newline, with dataclasses as
    their fields and arrays as lists, streamed through ``errors.replacing``,
    so a fault, NaN included, leaves ``path`` as it was.
    """
    with replacing(path, ModelIOError) as fh:
        json.dump(doc, fh, allow_nan=False, default=_encodable, **json_options)
        fh.write("\n")


def _read(path, fmt: str, cls):
    """The ``cls`` in the ``fmt`` document at ``path``; any fault is a ModelIOError."""
    noun, version = _FORMATS[fmt]
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # deep nesting is a RecursionError
        raise ModelIOError(f"cannot read {noun} {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ModelIOError(f"{path} is not a {fmt} file")
    if doc.get("version") != version:
        raise ModelIOError(f"{path} has version {doc.get('version')!r}, this build reads "
                           f"{version}")
    try:
        return _build(cls, {k: v for k, v in doc.items() if k not in ("format", "version")})
    except _MALFORMED as exc:
        raise ModelIOError(f"{noun} {path} is malformed: {exc}") from exc


@functools.cache
def _field_types(cls) -> dict:
    """Each field's declared type, the annotations resolved once per class."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _finite(name: str, values) -> np.ndarray:
    """``values`` as a float array; ValueError unless every entry is a finite number."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "if":
        raise ValueError(f"{name} must be an array of numbers, found {values!r:.60}")
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        where = f" at index {bad}" if arr.ndim else ""
        raise ValueError(f"{name} must be finite, found {arr.flat[bad]}{where}")
    return arr


def _decode(tp, value, name: str, base=None):
    """``value``, parsed from JSON, as the declared type ``tp``; ValueError naming ``name``."""
    if tp is float:
        if type(value) not in (int, float):
            raise ValueError(f"{name} must be a number, found {value!r:.60}")
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, found {value}")
        return float(value)
    if tp in (int, bool, str, dict, list):
        if type(value) is not tp:
            raise ValueError(f"{name} must be JSON {tp.__name__}, found {value!r:.60}")
        if tp is dict:  # free-form JSON, finite all the way down
            try:
                json.dumps(value, allow_nan=False)
            except ValueError:
                raise ValueError(f"{name} must not hold NaN or infinity") from None
        return value
    if tp is np.ndarray:
        return _finite(name, value)
    if is_dataclass(tp):
        return _build(tp, value, name, base)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is np.ndarray:  # NDArray[np.int64]: a tree's node indices or features
        if type(value) is not list or not all(type(v) is int for v in value):
            raise ValueError(f"{name} must be a list of integers, found {value!r:.60}")
        return np.array(value, dtype=np.int64)
    if origin is Union:  # Optional[T]
        return None if value is None else _decode(args[0], value, name, base)
    # list[T] or tuple[T, ...]
    items = _decode(list, value, name)
    return origin(_decode(args[0], v, f"{name}[{i}]") for i, v in enumerate(items))


def _build(cls, obj, name: str = "", base=None):
    """``cls`` from a JSON object holding exactly its fields, or any of them over
    ``base``, an instance whose values the fields left out keep.

    Each field is decoded by its declared type; a ValueError from the class's
    own checks comes back with ``name`` in front.
    """
    types = _field_types(cls)
    if not isinstance(obj, dict):
        raise ValueError(f"{name or cls.__name__} must be an object, found {obj!r:.60}")
    unknown = [k for k in obj if k not in types]
    if unknown:
        raise ValueError(f"{cls.__name__} has unknown fields {unknown}")
    missing = [n for n in types if n not in obj]
    if missing and base is None:
        raise ValueError(f"{cls.__name__} is missing fields {missing}")
    values = {n: _decode(tp, obj[n], f"{name} {n}".lstrip(), getattr(base, n, None))
              for n, tp in types.items() if n in obj}
    try:
        return cls(**values) if base is None else replace(base, **values)
    except ValueError as exc:
        raise ValueError(f"{name} {exc}".lstrip()) from exc


def load_config(path) -> RunConfig:
    """RunConfig from a JSON object holding any subset of its fields; each one
    left out, in nested objects too, keeps its ``RunConfig()`` default."""
    try:
        with open(path) as fh:
            return _build(RunConfig, json.load(fh), base=RunConfig())
    except (OSError, RecursionError, *_MALFORMED) as exc:
        raise ConfigurationError(f"{exc} (config {path})") from exc


def load_report(path) -> BenchReport:
    """The report in a report.json file or in a directory's report.json."""
    if os.path.isdir(path):
        path = os.path.join(path, "report.json")
    return _read(path, _REPORT_FORMAT, BenchReport)


def check_model_path(path) -> None:
    """ModelIOError unless ``path``'s directory exists, for a check before the work."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ModelIOError(f"cannot write {path}: no directory {directory}")


def save_model(pipeline: Pipeline, path) -> None:
    _write(path, {**_header(_MODEL_FORMAT), **_encodable(pipeline)})


def load_model(path) -> Pipeline:
    return _read(path, _MODEL_FORMAT, Pipeline)
