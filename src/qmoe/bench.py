"""Cross-validation benchmark, latency arithmetic, and model persistence.

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
import json
import os
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

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
from .errors import ConfigurationError, InputError, ModelIOError
from .gbdt import GBDTModel, GBDTParams, Tree, fit_gbdt, router_params
from .hybrid import HybridConfig, HybridModel, fit_hybrid
from .metrics import auprc_trapezoid, average_precision, pr_curve, precision_recall
from .moe import (
    GAMMA_GRID,
    CombinedModel,
    combined_predict,
    fit_router,
    require_finite_rows,
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
    "fit_fold",
    "fit_pipeline",
    "cross_validate",
    "run_cv",
    "report_to_dict",
    "save_report",
    "Pipeline",
    "pipeline_predict",
    "save_model",
    "load_model",
]

SENTINEL_GAMMA = 1.0  # gate never opens; the built-in no-routing arm

_MODEL_FORMAT = "qmoe-pipeline"
_REPORT_FORMAT = "qmoe-report"
_VERSION = 1


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
    gamma_grid: tuple = GAMMA_GRID
    n_splits: int = 5
    n_repeats: int = 3
    majority_ratio: float = 1.0
    seed: int = 0
    out_dir: Optional[str] = None

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
        # Each fold derives its own hybrid seed from ``seed`` and nothing reads
        # a GBDTParams seed, so a nested seed would change only the report.
        for name in ("hybrid", "expert", "router"):
            value = getattr(self, name).seed
            if value != 0:
                raise ConfigurationError(f"{name}.seed must be 0, got {value}: every fold "
                                         f"derives its seeds from the run's seed")


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


def latency_table(report: dict, n_points: int) -> list:
    """Per-arm latency summary from a report dict's mean routed fractions."""
    rows = []
    for arm, stats in report["aggregates"]["combined"].items():
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
    warnings: list = field(default_factory=list)


@dataclass
class BenchReport:
    config: dict
    folds: list
    aggregates: dict


@dataclass
class Pipeline:
    """A deployable unit: the feature scaler plus the routed expert pair."""

    scaler: MinMaxScaler
    combined: CombinedModel


def pipeline_predict(pipeline: Pipeline, x_raw, gamma: float):
    x_raw = np.asarray(x_raw, dtype=np.float64)
    # Checked before scaling as well: the scaler would clip an infinity
    # into range.
    require_finite_rows(x_raw)
    return combined_predict(pipeline.combined, pipeline.scaler.transform(x_raw), gamma)


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
    out["ap"] = average_precision(probs, y)
    out["aucpr"] = auprc_trapezoid(pr_curve(probs, y))
    out["precision"], out["recall"] = precision_recall(hard, y)
    return out


def fit_fold(config: RunConfig, x, y, train_idx, heldout_idx,
             repeat: int, fold: int):
    """Run one fold end to end; returns (record, pipeline)."""
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
        p2_val = secondary.predict_proba(x_val)
        scaler1 = fit_temperature(p1_val, y_val)
        scaler2 = fit_temperature(p2_val, y_val)
        record.temperature_primary = scaler1.temperature
        record.temperature_secondary = scaler2.temperature
        if scaler1.degenerate or scaler2.degenerate:
            record.warnings.append("temperature fit degenerate; kept t = 1")

        if np.unique(y_val).size < 2:
            record.warnings.append(
                "validation split has one class; thresholds fall back to 0.5"
            )
            tau1 = tau2 = 0.5
        else:
            tau1 = youden_threshold(apply_temperature(scaler1, p1_val), y_val)
            tau2 = youden_threshold(apply_temperature(scaler2, p2_val), y_val)
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
        require_finite_rows(x_hold)
        n_hold = int(y_hold.size)
        base_probs = apply_temperature(scaler1, primary.predict_proba(x_hold))
        base_hard = (base_probs > tau1).astype(np.float64)
        record.baseline = _arm_metrics(y_hold, base_probs, base_hard, 0.0, n_hold, record)
        gate = router.predict_proba(x_hold)

        for gamma in (*config.gamma_grid, SENTINEL_GAMMA):
            out = route_rows(combined, x_hold, base_probs, gate, gamma)
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
    return {
        "format": _REPORT_FORMAT,
        "version": _VERSION,
        "config": report.config,
        "folds": [asdict(f) for f in report.folds],
        "aggregates": report.aggregates,
    }


def save_report(report: BenchReport, out_dir) -> None:
    """Write report.json plus flat folds.csv / aggregates.csv exports."""
    os.makedirs(out_dir, exist_ok=True)
    d = report_to_dict(report)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(d, fh, indent=2, sort_keys=True)
        fh.write("\n")

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


# --- model persistence ----------------------------------------------------
# One codec. save_model writes {"format", "version", **asdict(pipeline)}:
# every dataclass becomes a JSON object with its fields in declaration
# order, and arrays become JSON lists. The secondary expert, always a
# HybridModel here, leads with a "kind": "hybrid" tag, the one key that is
# not a field. load_model mirrors it: _build rebuilds each dataclass from an
# object holding exactly its fields, and the checks below run on the decoded
# values. Python's float repr round-trips doubles exactly, so a loaded model
# predicts bit-identically to the saved one.


def _array(values, dtype=np.float64) -> np.ndarray:
    return np.asarray(values, dtype=dtype)


def _ints(values) -> np.ndarray:
    return _array(values, np.int64)


def _finite(name: str, values) -> np.ndarray:
    """``values`` as a float array; ModelIOError if any entry is NaN or infinite."""
    arr = _array(values)
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        where = f" at index {int(bad[0])}" if arr.ndim else ""
        raise ModelIOError(f"{name} must be finite, found {arr.flat[bad[0]]}{where}")
    return arr


def _build(cls, obj, **decoders):
    """``cls`` from a JSON object holding exactly its fields, each through its decoder.

    A ValueError names the class and the missing or unknown keys.
    """
    names = [f.name for f in fields(cls)]
    keys = list(obj) if isinstance(obj, dict) else []
    missing = [n for n in names if n not in keys]
    unknown = [k for k in keys if k not in names]
    if missing or unknown:
        raise ValueError(f"{cls.__name__} needs exactly its fields: missing {missing}, "
                         f"unknown {unknown}")
    return cls(**{n: decoders[n](obj[n]) if n in decoders else obj[n] for n in names})


def _check_tree(tree: Tree, n_features: int, index: int) -> None:
    """Reject node arrays that Tree.predict would loop on, index past or misread.

    Children must sit after their parent, so every root-to-leaf walk ends;
    a node is a leaf exactly when its feature is -1 and it has no children.
    Thresholds and values must be finite: a NaN threshold would send every
    row right.
    """
    size = tree.feature.shape[0]
    arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
    if size == 0 or any(a.shape != (size,) for a in arrays):
        raise ModelIOError(f"tree {index}: node arrays must be non-empty and of equal length")
    bad_feature = (tree.feature < -1) | (tree.feature >= n_features)
    if bad_feature.any():
        node = int(np.flatnonzero(bad_feature)[0])
        raise ModelIOError(
            f"tree {index}, node {node}: feature {tree.feature[node]} out of range "
            f"for {n_features} features"
        )
    leaf = tree.feature == -1
    childless = (tree.left == -1) & (tree.right == -1)
    if (leaf != childless).any():
        node = int(np.flatnonzero(leaf != childless)[0])
        raise ModelIOError(
            f"tree {index}, node {node}: a node must be a leaf (feature -1) "
            f"exactly when it has no children"
        )
    nodes = np.arange(size)
    bad_child = ~leaf & ((tree.left <= nodes) | (tree.left >= size)
                         | (tree.right <= nodes) | (tree.right >= size))
    if bad_child.any():
        node = int(np.flatnonzero(bad_child)[0])
        raise ModelIOError(
            f"tree {index}, node {node}: children ({tree.left[node]}, {tree.right[node]}) "
            f"must lie after the node and below {size}"
        )
    _finite(f"tree {index} threshold", tree.threshold)
    _finite(f"tree {index} value", tree.value)


def _gbdt(obj) -> GBDTModel:
    model = _build(
        GBDTModel, obj,
        params=lambda d: _build(GBDTParams, d),
        base_score=lambda v: float(_finite("base_score", v)),
        trees=lambda items: [
            _build(Tree, t, feature=_ints, threshold=_array, left=_ints, right=_ints,
                   value=_array)
            for t in items
        ],
    )
    for index, tree in enumerate(model.trees):
        _check_tree(tree, model.n_features, index)
    return model


def _layers(items) -> list:
    return [(_array(w), _array(b)) for w, b in items]


def _hybrid(obj) -> HybridModel:
    """Rebuild a hybrid expert, checking every array against its config."""
    model = _build(HybridModel, obj, config=lambda d: _build(HybridConfig, d),
                   encoder=_layers, decoder=_layers, theta=_array, head=_layers)
    config = model.config
    for name, spec in (("encoder", config.encoder_spec),
                       ("decoder", config.decoder_spec),
                       ("head", config.head_spec)):
        layers = getattr(model, name)
        try:
            _check_params_shape(spec, layers)
        except ConfigurationError as exc:
            raise ModelIOError(f"hybrid {name}: {exc}") from exc
        for i, (w, b) in enumerate(layers):
            _finite(f"hybrid {name} layer {i} weights", w)
            _finite(f"hybrid {name} layer {i} bias", b)
    if model.theta.shape != (config.ansatz.n_params,):
        raise ModelIOError(
            f"hybrid theta has shape {model.theta.shape}, the config needs "
            f"{config.ansatz.n_params} circuit parameters"
        )
    _finite("hybrid theta", model.theta)
    return model


def _temperature(name: str, obj) -> TemperatureScaler:
    scaler = _build(TemperatureScaler, obj)
    if not _finite(f"{name} temperature", scaler.temperature) > 0:
        raise ModelIOError(f"{name} temperature must be positive, found {scaler.temperature}")
    return scaler


def _secondary(obj) -> HybridModel:
    kind = obj["kind"]
    if kind != "hybrid":
        raise ModelIOError(f"unknown secondary expert kind {kind!r}")
    return _hybrid({k: v for k, v in obj.items() if k != "kind"})


def save_model(pipeline: Pipeline, path) -> None:
    secondary = pipeline.combined.secondary
    if not isinstance(secondary, HybridModel):
        raise ModelIOError(
            f"cannot persist a secondary expert of type {type(secondary).__name__}"
        )
    doc = {"format": _MODEL_FORMAT, "version": _VERSION, **asdict(pipeline)}
    doc["combined"]["secondary"] = {"kind": "hybrid", **doc["combined"]["secondary"]}
    # json.dumps runs the C encoder; json.dump always runs the Python one.
    text = json.dumps(doc, default=lambda array: array.tolist())
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_model(path) -> Pipeline:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelIOError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _MODEL_FORMAT:
        raise ModelIOError(f"{path} is not a pipeline file")
    if doc.get("version") != _VERSION:
        raise ModelIOError(
            f"{path} has version {doc.get('version')!r}, this build reads {_VERSION}"
        )
    body = {k: v for k, v in doc.items() if k not in ("format", "version")}
    try:
        pipeline = _build(
            Pipeline, body,
            scaler=lambda d: _build(MinMaxScaler, d,
                                    low=lambda v: _finite("scaler low", v),
                                    span=lambda v: _finite("scaler span", v)),
            combined=lambda d: _build(
                CombinedModel, d,
                primary=_gbdt,
                primary_scaler=lambda s: _temperature("primary_scaler", s),
                secondary=_secondary,
                secondary_scaler=lambda s: _temperature("secondary_scaler", s),
                router=_gbdt,
                tau_primary=lambda v: float(_finite("tau_primary", v)),
                tau_secondary=lambda v: float(_finite("tau_secondary", v)),
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelIOError(f"model file {path} is malformed: {exc}") from exc
    _check_widths(pipeline, path)
    return pipeline


def _check_widths(pipeline: Pipeline, path) -> None:
    """The scaler and all three experts must agree on the feature count."""
    combined = pipeline.combined
    widths = {
        "primary": combined.primary.n_features,
        "router": combined.router.n_features,
        "secondary": combined.secondary.config.n_features,
    }
    if len(set(widths.values())) != 1:
        raise ModelIOError(f"model file {path}: the experts' feature counts differ: {widths}")
    n_features = widths["primary"]
    for name in ("low", "span"):
        shape = getattr(pipeline.scaler, name).shape
        if shape != (n_features,):
            raise ModelIOError(
                f"model file {path}: scaler {name} has shape {shape}, "
                f"the experts read {n_features} features"
            )
