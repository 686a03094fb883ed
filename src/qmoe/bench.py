"""Cross-validation benchmark, latency arithmetic, and the file codec.

One fold's protocol, in order: fit the scaler on the training rows only,
transform everything, undersample the training rows to a balanced set,
train both experts (the boosted primary and the hybrid secondary), fit
temperature scalers and Youden thresholds on the validation part of the
held-out rows, build router targets from calibrated probabilities on the
analysis part, train the router there, and score the holdout part last.
Holdout rows influence nothing upstream of scoring.

Every fold entry carries a baseline arm (calibrated primary alone), one
arm per gate value, and a sentinel arm at gamma = 1.0 where the gate
cannot open. The holdout scored afresh through combined_predict at the
sentinel gamma must match the baseline bit for bit, which the record
asserts in its own field. Reports contain no wall-clock values, so
two runs with one seed serialize identically.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import typing
import warnings
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import Optional, Union

import numpy as np

from .calibration import TemperatureScaler, apply_temperature, fit_temperature
from .data import (
    MinMaxScaler,
    fit_minmax,
    load_csv,
    split_eval,
    stratified_repeated_kfold,
    synthesize,
    undersample,
)
from .errors import ConfigurationError, InputError, ModelIOError, require_finite_rows
from .gbdt import GBDTModel, GBDTParams, Tree, fit_gbdt, router_params
from .hybrid import HybridConfig, HybridModel, fit_hybrid
from .metrics import auprc_trapezoid, average_precision, pr_curve, precision_recall
from .moe import (
    GAMMA_GRID,
    CombinedModel,
    combined_predict,
    fit_router,
    route_rows,
    router_targets,
    youden_threshold,
)
from .neural import _check_params_shape

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
]

SENTINEL_GAMMA = 1.0  # gate never opens; the built-in no-routing arm

_MODEL_FORMAT = "qmoe-pipeline"
_REPORT_FORMAT = "qmoe-report"
_VERSION = 2  # of both formats
_NOUNS = {_MODEL_FORMAT: "model file", _REPORT_FORMAT: "report"}


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
        if self.majority_ratio <= 0:
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


@dataclass
class Pipeline:
    """A deployable unit: the feature scaler plus the routed expert pair."""

    scaler: MinMaxScaler
    combined: CombinedModel


def pipeline_predict(pipeline: Pipeline, x_raw, gamma: float):
    """Score raw rows; combined_predict checks and scales them block by block."""
    return combined_predict(pipeline.combined, x_raw, gamma, pipeline.scaler)


def _fold_seeds(master_seed: int, repeat: int, fold: int):
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(repeat, fold))
    return tuple(int(v) for v in ss.generate_state(3))


def _arm_metrics(y, probs, hard, routed_fraction: float, n_points: int,
                 record: FoldRecord) -> dict:
    """AUCPR/AP/precision/recall for one arm; NaN when holdout is one-class."""
    out = {
        "routed_fraction": float(routed_fraction),
        "latency_seconds": latency_estimate(n_points, routed_fraction),
    }
    if np.unique(y).size < 2:
        note = "holdout split has one class; ranking metrics are NaN"
        if note not in record.warnings:
            record.warnings.append(note)
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
    """Run one fold end to end; returns (record, pipeline)."""
    # Checked on the raw rows: the scaler would clip an infinity into range.
    require_finite_rows(x)
    split_seed, sample_seed, hybrid_seed = _fold_seeds(config.seed, repeat, fold)
    record = FoldRecord(
        repeat=repeat, fold=fold, sizes={}, tau_primary=0.5, tau_secondary=0.5,
        temperature_primary=1.0, temperature_secondary=1.0,
        primary_trees=0, hybrid_epochs=0, baseline={}, combined={},
        sentinel_equals_baseline=False,
    )

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parts = split_eval(y, heldout_idx, seed=split_seed)

        scaler = fit_minmax(x[train_idx])
        x_train = scaler.transform(x[train_idx])
        x_val = scaler.transform(x[parts.validation])
        x_ana = scaler.transform(x[parts.analysis])
        x_hold = scaler.transform(x[parts.holdout])
        y_train, y_val = y[train_idx], y[parts.validation]
        y_ana, y_hold = y[parts.analysis], y[parts.holdout]

        x_bal, y_bal, _ = undersample(
            x_train, y_train, majority_ratio=config.majority_ratio, seed=sample_seed
        )
        record.sizes = {
            "train": {"rows": int(train_idx.size), "positives": int(y_train.sum())},
            "balanced": {"rows": int(y_bal.size), "positives": int(y_bal.sum())},
            "validation": {"rows": int(y_val.size), "positives": int(y_val.sum())},
            "analysis": {"rows": int(y_ana.size), "positives": int(y_ana.sum())},
            "holdout": {"rows": int(y_hold.size), "positives": int(y_hold.sum())},
        }

        primary = fit_gbdt(config.expert, x_bal, y_bal, x_val, y_val)
        record.primary_trees = len(primary.trees)

        hybrid_cfg = replace(config.hybrid, seed=hybrid_seed)
        if np.unique(y_val).size < 2:
            record.warnings.append(
                "validation split has one class; hybrid trained without early stopping"
            )
            secondary, train_report = fit_hybrid(hybrid_cfg, x_bal, y_bal)
        else:
            secondary, train_report = fit_hybrid(hybrid_cfg, x_bal, y_bal, x_val, y_val)
        record.hybrid_epochs = len(train_report.epochs)

        p1_val = primary.predict_proba(x_val)
        p2_val = train_report.val_probs  # the best epoch's, which the roll-back restored
        if p2_val is None:
            p2_val = secondary.predict_proba(x_val)
        (scaler1, scaler2), taus = fit_calibration(p1_val, p2_val, y_val)
        record.temperature_primary = scaler1.temperature
        record.temperature_secondary = scaler2.temperature
        if scaler1.degenerate or scaler2.degenerate:
            record.warnings.append("temperature fit degenerate; kept t = 1")
        if taus is None:
            record.warnings.append("validation split has one class; thresholds fall back to 0.5")
            taus = 0.5, 0.5
        tau1, tau2 = taus
        record.tau_primary, record.tau_secondary = tau1, tau2

        targets = router_targets(
            y_ana,
            apply_temperature(scaler1, primary.predict_proba(x_ana)),
            apply_temperature(scaler2, secondary.predict_proba(x_ana)),
            tau1,
            tau2,
        )
        router = fit_router(x_ana, targets, config.router)
        if router.degenerate:
            record.warnings.append(
                "router targets were all zero; gate stays shut at every gamma"
            )

        combined = CombinedModel(
            primary=primary, primary_scaler=scaler1,
            secondary=secondary, secondary_scaler=scaler2,
            router=router, tau_primary=tau1, tau_secondary=tau2,
        )

        # Both trees score the holdout once; every arm reuses the scores.
        n_hold = int(y_hold.size)
        base_probs = apply_temperature(scaler1, primary.predict_proba(x_hold))
        base_hard = (base_probs > tau1).astype(np.float64)
        record.baseline = _arm_metrics(y_hold, base_probs, base_hard, 0.0, n_hold, record)
        gate = router.predict_proba(x_hold)

        for gamma in (*config.gamma_grid, SENTINEL_GAMMA):
            routed = gate > gamma
            out = route_rows(combined, base_probs, routed, x_hold[routed])
            record.combined[str(gamma)] = _arm_metrics(
                y_hold, out.probs, out.labels, out.routed_fraction, n_hold, record
            )
        # The arms share base_probs, so the sentinel check scores the holdout
        # afresh through the serving path instead.
        sentinel = combined_predict(combined, x_hold, SENTINEL_GAMMA)
        record.sentinel_equals_baseline = bool(
            np.array_equal(sentinel.probs, base_probs)
            and np.array_equal(sentinel.labels, base_hard)
        )

    for w in caught:
        message = str(w.message)
        if message not in record.warnings:
            record.warnings.append(message)
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
    """The full repeated stratified CV over already-loaded arrays."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    splits = stratified_repeated_kfold(y, config.n_splits, config.n_repeats, config.seed)
    folds = []
    for i, (train_idx, heldout_idx) in enumerate(splits):
        repeat, fold = divmod(i, config.n_splits)
        record, _ = fit_fold(config, x, y, train_idx, heldout_idx, repeat, fold)
        folds.append(record)
    return BenchReport(
        config=asdict(config), folds=folds, aggregates=_aggregate(folds)
    )


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
    splits = stratified_repeated_kfold(y, config.n_splits, 1, config.seed)
    train_idx, heldout_idx = splits[0]
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return fit_fold(config, x, y, train_idx, heldout_idx, 0, 0)


def report_to_dict(report: BenchReport) -> dict:
    return {"format": _REPORT_FORMAT, "version": _VERSION, **asdict(report)}


def save_report(report: BenchReport, out_dir) -> None:
    """Write report.json (NaN metrics as null) plus flat folds.csv / aggregates.csv exports."""
    os.makedirs(out_dir, exist_ok=True)
    # A NaN metric goes through a JSON round trip as a NaN token and comes back None.
    doc = json.loads(json.dumps(report_to_dict(report)), parse_constant=lambda _: None)
    _write(os.path.join(out_dir, "report.json"), doc, indent=2, sort_keys=True)

    with open(os.path.join(out_dir, "folds.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["repeat", "fold", "arm", *_ARM_METRICS])
        for f in report.folds:
            # labeled honestly: the reference expert is our own GBDT
            writer.writerow([f.repeat, f.fold, "gbdt-baseline",
                             *[repr(f.baseline[m]) for m in _ARM_METRICS]])
            for arm in sorted(f.combined, key=float):
                writer.writerow([f.repeat, f.fold, arm,
                                 *[repr(f.combined[arm][m]) for m in _ARM_METRICS]])

    with open(os.path.join(out_dir, "aggregates.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arm", "metric", "mean", "std", "median", "n_valid"])
        agg = report.aggregates
        for metric in _ARM_METRICS:
            s = agg["baseline"][metric]
            writer.writerow(["gbdt-baseline", metric, repr(s["mean"]), repr(s["std"]),
                             repr(s["median"]), s["n_valid"]])
        for arm in sorted(agg["combined"], key=float):
            for metric in _ARM_METRICS:
                s = agg["combined"][arm][metric]
                writer.writerow([arm, metric, repr(s["mean"]), repr(s["std"]),
                                 repr(s["median"]), s["n_valid"]])


# --- the file codec ---------------------------------------------------------
# Model files and reports are {"format", "version", **asdict(body)}, with
# arrays as lists, written by _write and read by _read. _build decodes each
# field by the type its dataclass declares, so the declarations are the
# schema; custom decoders cover only a Tree's integer node arrays, the
# hybrid's (weights, bias) layers and the secondary's "kind" tag. Float
# repr round-trips doubles, so a loaded model predicts bit-identically.

_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def _write(path, doc, **json_options) -> None:
    """``doc`` as strict JSON at ``path``; nothing is written if it holds NaN or infinity."""
    try:
        text = json.dumps(doc, allow_nan=False, **json_options)  # the C encoder, unless indented
    except ValueError as exc:
        raise ModelIOError(f"cannot write {path}: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _read(path, fmt: str, build):
    """``build(body)`` of the ``fmt`` document at ``path``; any fault is a ModelIOError."""
    noun = _NOUNS[fmt]
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # deep nesting is a RecursionError
        raise ModelIOError(f"cannot read {noun} {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ModelIOError(f"{path} is not a {fmt} file")
    if doc.get("version") != _VERSION:
        raise ModelIOError(f"{path} has version {doc.get('version')!r}, this build reads "
                           f"{_VERSION}")
    try:
        return build({k: v for k, v in doc.items() if k not in ("format", "version")})
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
    if origin is Union:  # Optional[T]
        return None if value is None else _decode(args[0], value, name, base)
    # list[T] or tuple[T, ...]
    items = _decode(list, value, name)
    return origin(_decode(args[0], v, f"{name}[{i}]") for i, v in enumerate(items))


def _build(cls, obj, name: str = "", base=None, **decoders):
    """``cls`` from a JSON object holding exactly its fields, or any of them over
    ``base``, an instance whose values the fields left out keep.

    Each field is decoded by its declared type, or by ``decoders[field](value, name)``.
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
    values = {}
    for n, tp in types.items():
        if n in obj:
            label = f"{name} {n}".lstrip()
            values[n] = (decoders[n](obj[n], label) if n in decoders
                         else _decode(tp, obj[n], label, getattr(base, n, None)))
    return cls(**values) if base is None else replace(base, **values)


def load_config(path) -> RunConfig:
    """RunConfig from a JSON object holding any subset of its fields; each one
    left out, in nested objects too, keeps its ``RunConfig()`` default."""
    try:
        with open(path) as fh:
            return _build(RunConfig, json.load(fh), base=RunConfig())
    except (OSError, RecursionError, *_MALFORMED) as exc:
        raise ConfigurationError(f"{exc} (config {path})") from exc


def _report(body) -> BenchReport:
    report = _build(BenchReport, body)
    arms = _decode(dict, report.aggregates.get("combined"), "aggregates combined")
    for arm, stats in arms.items():
        fraction = stats["routed_fraction"]["mean"]
        if not 0 < float(arm) <= 1 or type(fraction) not in (int, float) or not 0 <= fraction <= 1:
            raise ValueError(f"arm {arm!r} needs a gamma in (0, 1] and a mean routed_fraction "
                             f"in [0, 1], found {fraction!r}")
    return report


def load_report(path) -> BenchReport:
    """The report in a report.json file or in a directory's report.json."""
    if os.path.isdir(path):
        path = os.path.join(path, "report.json")
    return _read(path, _REPORT_FORMAT, _report)


def _nodes(value, name: str) -> np.ndarray:
    """A tree's node indices or features: a list of JSON integers."""
    if type(value) is not list or not all(type(v) is int for v in value):
        raise ValueError(f"{name} must be a list of integers, found {value!r:.60}")
    return np.array(value, dtype=np.int64)


def _check_tree(tree: Tree, n_features: int, index: int) -> None:
    """Reject node arrays that the compare-and-select scorer would index past or misread.

    Children must sit after their parent, so the scorer, taking the splits
    last first, has both children's values before it selects between them;
    a node is a leaf exactly when its feature is -1 and it has no children;
    no node has two parents, as the scorer drops a value once it is read.
    """
    size = tree.feature.shape[0]
    arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
    if size == 0 or any(a.shape != (size,) for a in arrays):
        raise ValueError(f"tree {index}: node arrays must be non-empty and of equal length")
    bad_feature = (tree.feature < -1) | (tree.feature >= n_features)
    if bad_feature.any():
        node = int(np.flatnonzero(bad_feature)[0])
        raise ValueError(f"tree {index}, node {node}: feature {tree.feature[node]} out of "
                         f"range for {n_features} features")
    leaf = tree.feature == -1
    childless = (tree.left == -1) & (tree.right == -1)
    if (leaf != childless).any():
        node = int(np.flatnonzero(leaf != childless)[0])
        raise ValueError(f"tree {index}, node {node}: a node must be a leaf (feature -1) "
                         f"exactly when it has no children")
    nodes = np.arange(size)
    bad_child = ~leaf & ((tree.left <= nodes) | (tree.left >= size)
                         | (tree.right <= nodes) | (tree.right >= size))
    if bad_child.any():
        node = int(np.flatnonzero(bad_child)[0])
        raise ValueError(f"tree {index}, node {node}: children ({tree.left[node]}, "
                         f"{tree.right[node]}) must lie after the node and below {size}")
    parents = np.bincount(np.concatenate([tree.left[~leaf], tree.right[~leaf]]), minlength=size)
    if (parents > 1).any():
        node = int(np.flatnonzero(parents > 1)[0])
        raise ValueError(f"tree {index}, node {node}: a node must have at most one parent")


def _gbdt(obj, name: str) -> GBDTModel:
    model = _build(GBDTModel, obj, name, trees=lambda items, label: [
        _build(Tree, t, f"tree {i}", feature=_nodes, left=_nodes, right=_nodes)
        for i, t in enumerate(_decode(list, items, label))
    ])
    for index, tree in enumerate(model.trees):
        _check_tree(tree, model.n_features, index)
    return model


def _layers(value, name: str) -> list:
    """A network's layers from [[weights, bias], ...]."""
    pairs = _decode(list[list], value, name)
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError(f"{name}: every layer must be a [weights, bias] pair")
    return [(_finite(f"{name} layer {i} weights", w), _finite(f"{name} layer {i} bias", b))
            for i, (w, b) in enumerate(pairs)]


def _secondary(obj, name: str) -> HybridModel:
    """The hybrid expert behind its "kind" tag, every array checked against its config."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind != "hybrid":
        raise ValueError(f"unknown secondary expert kind {kind!r}")
    model = _build(HybridModel, {k: v for k, v in obj.items() if k != "kind"}, "hybrid",
                   encoder=_layers, decoder=_layers, head=_layers)
    config = model.config
    for part, spec in (("encoder", config.encoder_spec),
                       ("decoder", config.decoder_spec),
                       ("head", config.head_spec)):
        try:
            _check_params_shape(spec, getattr(model, part))
        except ConfigurationError as exc:
            raise ValueError(f"hybrid {part}: {exc}") from exc
    if model.theta.shape != (config.ansatz.n_params,):
        raise ValueError(f"hybrid theta has shape {model.theta.shape}, the config needs "
                         f"{config.ansatz.n_params} circuit parameters")
    return model


def _pipeline(body) -> Pipeline:
    pipeline = _build(Pipeline, body, combined=lambda obj, name: _build(
        CombinedModel, obj, name, primary=_gbdt, secondary=_secondary, router=_gbdt))
    combined = pipeline.combined
    for name in ("primary_scaler", "secondary_scaler"):
        temperature = getattr(combined, name).temperature
        if temperature <= 0:
            raise ValueError(f"{name} temperature must be positive, found {temperature}")
    for name in ("tau_primary", "tau_secondary"):  # Youden's cuts, 0 and 1 included
        tau = getattr(combined, name)
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], found {tau}")
    # The scaler and all three experts must agree on the feature count.
    widths = {"primary": combined.primary.n_features, "router": combined.router.n_features,
              "secondary": combined.secondary.config.n_features}
    if len(set(widths.values())) != 1:
        raise ValueError(f"the experts' feature counts differ: {widths}")
    for name in ("low", "span"):
        shape = getattr(pipeline.scaler, name).shape
        if shape != (widths["primary"],):
            raise ValueError(f"scaler {name} has shape {shape}, "
                             f"the experts read {widths['primary']} features")
    return pipeline


def save_model(pipeline: Pipeline, path) -> None:
    secondary = pipeline.combined.secondary
    if not isinstance(secondary, HybridModel):
        raise ModelIOError(f"cannot persist a secondary expert of type {type(secondary).__name__}")
    doc = {"format": _MODEL_FORMAT, "version": _VERSION, **asdict(pipeline)}
    doc["combined"]["secondary"] = {"kind": "hybrid", **doc["combined"]["secondary"]}
    _write(path, doc, default=lambda array: array.tolist())


def load_model(path) -> Pipeline:
    return _read(path, _MODEL_FORMAT, _pipeline)
