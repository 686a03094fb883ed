"""Command line front end.

Subcommands cover the whole workflow: generate data (synth), fit one
deployable pipeline (train), score a saved pipeline on labeled data
(evaluate), run the full cross-validated benchmark (bench), tabulate
routing latency from a report (latency), and refit the temperature
scalers of a saved pipeline on fresh data (calibrate). calibrate then
refits both decision thresholds by Youden on the recalibrated scores of
the same rows: bench.fit_calibration, the rule training applies to its
validation rows. One-class data fits neither, so it keeps the old
temperatures and thresholds and says so in its warnings.

Dataset resolution for train and bench: an explicit --data flag, then
the config file's csv_path, then the QMOE_DATASET environment variable,
then the built-in synthetic generator. evaluate and calibrate score a
labeled file, so they read only --data, then QMOE_DATASET, and fail
without either. synth, train, calibrate and bench check where they will
write before any work: an output file's directory must exist, and bench
creates its report directory. Every output file is written through
``errors.replacing``, so a failed or stopped command leaves the old file.
Structured errors exit 1 with a message on stderr, as does running out of
memory, named with the command; argparse handles usage errors with exit 2.
The CLI owns its process, so only ``main`` turns SIGTERM, SIGHUP and
SIGINT into ``SystemExit(128 + signal number)``, the status a shell reports
for a process the signal killed, and restores the old handlers when it
returns. A signal the caller ignores stays ignored: ``nohup qmoe ...`` runs
on after SIGHUP, and a background job of a non-interactive shell after
SIGINT. Ctrl-C thus exits 130 without a traceback.
Every ``finally`` runs on the way out: ``fork_map`` kills and reaps its
workers and ``errors.replacing`` removes its temp file. SIGKILL runs no
handler and can leave a temp file behind, but on Linux the kernel kills its
workers with it (see ``workers``); elsewhere they run on.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from dataclasses import replace

import numpy as np

from .bench import (
    TASK_SECONDS,
    RunConfig,
    check_model_path,
    fit_calibration,
    fit_pipeline,
    latency_table,
    load_config,
    load_dataset,
    load_model,
    load_report,
    make_report_dir,
    pipeline_predict,
    run_cv,
    save_model,
    save_report,
)
from .data import load_csv, save_csv, synthesize
from .errors import ConfigurationError, DataError, InputError, QmoeError, require_finite_rows
from .metrics import auprc_trapezoid, average_precision, pr_curve, precision_recall

ENV_DATASET = "QMOE_DATASET"
_STOP_SIGNALS = [getattr(signal, name) for name in ("SIGTERM", "SIGHUP", "SIGINT")
                 if hasattr(signal, name)]


def _stop(signum, frame) -> None:
    """Exit 128 + ``signum`` through every ``finally``; no ``except Exception`` holds it."""
    for stop in _STOP_SIGNALS:  # a second signal must not cut the cleanup short
        signal.signal(stop, signal.SIG_IGN)
    raise SystemExit(128 + signum)


def _resolve_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    updates = {}
    if getattr(args, "data", None):
        updates["csv_path"] = args.data
    elif config.csv_path is None and os.environ.get(ENV_DATASET):
        updates["csv_path"] = os.environ[ENV_DATASET]
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "rows", None) is not None:
        if (path := updates.get("csv_path", config.csv_path)) is not None:
            raise ConfigurationError(f"--rows sizes synthetic data, but the data is the CSV {path}")
        updates["synth_rows"] = args.rows
    return replace(config, **updates) if updates else config


def _load_labeled(args) -> tuple:
    path = getattr(args, "data", None) or os.environ.get(ENV_DATASET)
    if not path:
        raise DataError(f"no dataset given: pass --data or set {ENV_DATASET}")
    return load_csv(path)


def _cmd_synth(args) -> int:
    check_model_path(args.out)
    x, y, _ = synthesize(args.rows, args.fraud_rate, seed=args.seed)
    save_csv(args.out, x, y)
    print(f"wrote {args.rows} rows ({int(y.sum())} positive) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    check_model_path(args.model)
    config = _resolve_config(args)
    x, y = load_dataset(config)
    record, model = fit_pipeline(x, y, config)
    save_model(model, args.model)
    summary = {
        "model": args.model,
        "sizes": record.sizes,
        "tau_primary": record.tau_primary,
        "tau_secondary": record.tau_secondary,
        "holdout_baseline": record.baseline,
        "warnings": record.warnings,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_evaluate(args) -> int:
    model = load_model(args.model)
    x, y = _load_labeled(args)
    out = pipeline_predict(model, x, args.gamma)
    precision, recall = precision_recall(out.labels, y)
    curve = pr_curve(out.probs, y) if np.unique(y).size > 1 else None
    result = {
        "rows": int(y.size),
        "positives": int(y.sum()),
        "gamma": args.gamma,
        "routed_fraction": out.routed_fraction,
        "ap": None if curve is None else average_precision(curve),
        "aucpr": None if curve is None else auprc_trapezoid(curve),
        "precision": precision,
        "recall": None if np.isnan(recall) else recall,
    }
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _cmd_bench(args) -> int:
    config = _resolve_config(args)
    out_dir = args.out or "bench-out"
    make_report_dir(out_dir)
    report = run_cv(config)
    save_report(report, out_dir)
    agg = report.aggregates
    lines = [f"wrote report to {out_dir}"]
    lines.append(f"gbdt-baseline ap: mean {agg['baseline']['ap']['mean']:.4f} "
                 f"median {agg['baseline']['ap']['median']:.4f}")
    for arm in sorted(agg["combined"], key=float):
        s = agg["combined"][arm]
        lines.append(
            f"gamma {arm}: ap mean {s['ap']['mean']:.4f} median {s['ap']['median']:.4f} "
            f"routed {s['routed_fraction']['mean']:.4f}"
        )
    print("\n".join(lines))
    return 0


def _cmd_latency(args) -> int:
    if args.points < 0:
        raise InputError(f"--points must be >= 0, got {args.points}")
    rows = latency_table(load_report(args.report), args.points)
    print(json.dumps({"points": args.points, "per_task_s": TASK_SECONDS,
                      "table": rows}, indent=2, sort_keys=True))
    return 0


def _cmd_calibrate(args) -> int:
    check_model_path(args.out)
    model = load_model(args.model)
    x, y = _load_labeled(args)
    require_finite_rows(x)  # before scaling, which would clip an infinity into range
    p1 = model.primary.predict_proba(x)  # the forests read raw rows, the hybrid scaled ones
    p2 = model.secondary.predict_proba(model.scaler.transform(x))
    scalers, taus = fit_calibration(p1, p2, y)
    degenerate = any(scaler.degenerate for scaler in scalers)
    notes = []
    if taus is None:  # t = 1 would leave the old thresholds on the wrong scale
        notes.append("calibration data has one class; kept the old temperatures "
                     "and thresholds")
        scalers = model.primary_scaler, model.secondary_scaler
        taus = model.tau_primary, model.tau_secondary
    (scaler1, scaler2), (tau1, tau2) = scalers, taus
    save_model(replace(model, primary_scaler=scaler1, secondary_scaler=scaler2,
                       tau_primary=tau1, tau_secondary=tau2), args.out)
    print(json.dumps({
        "model": args.out,
        "temperature_primary": scaler1.temperature,
        "temperature_secondary": scaler2.temperature,
        "tau_primary": tau1,
        "tau_secondary": tau2,
        "degenerate": degenerate,
        "warnings": notes,
    }, indent=2, sort_keys=True))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmoe",
        description="Quantum-routed expert pipeline for rare-event detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic transaction CSV")
    p.add_argument("--rows", type=int, default=20000)
    p.add_argument("--fraud-rate", type=float, default=0.00172)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="fit one pipeline and save it")
    p.add_argument("--config", help="JSON file with run settings")
    p.add_argument("--data", help="training CSV (overrides config and env)")
    p.add_argument("--rows", type=int, help="synthetic row count override")
    p.add_argument("--seed", type=int)
    p.add_argument("--model", required=True, help="output model path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="score a saved pipeline on a CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", help="labeled CSV to score")
    p.add_argument("--gamma", type=float, default=0.9)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("bench", help="run the cross-validated benchmark")
    p.add_argument("--config", help="JSON file with run settings")
    p.add_argument("--data", help="dataset CSV (overrides config and env)")
    p.add_argument("--rows", type=int, help="synthetic row count override")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="report directory (default bench-out)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("latency", help="latency table from a saved report")
    p.add_argument("--report", required=True, help="report.json or its directory")
    p.add_argument("--points", type=int, default=14000)
    p.set_defaults(func=_cmd_latency)

    p = sub.add_parser("calibrate", help="refit temperatures and thresholds on fresh data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", help="labeled CSV for calibration")
    p.add_argument("--out", required=True, help="updated model path")
    p.set_defaults(func=_cmd_calibrate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    previous = {stop: signal.getsignal(stop) for stop in _STOP_SIGNALS}
    for stop, handler in previous.items():
        if handler != signal.SIG_IGN:  # nohup's SIGHUP, a background job's SIGINT
            signal.signal(stop, _stop)
    try:
        return args.func(args)
    except QmoeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the allocation that failed
        print(f"error: qmoe {args.command} ran out of memory" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return 1
    finally:
        for stop, handler in previous.items():
            signal.signal(stop, handler)


if __name__ == "__main__":
    sys.exit(main())
