"""The three workloads: what each prepares, loads, runs and checks.

Every workload is closed-loop: one process, one caller, each call waiting
for the last. Inputs come from the workload seed and are made before any
clock starts. A workload has three steps:

- prepare: untimed work the measured steps need (the serving model, the
  pool file);
- load: the set-up a user pays before the first result, timed as setup_s;
- work: the timed part, split into operations that each pass or fail.

Operations: a CV fold on cv-desk, the one pipeline fit on train-paper and
a whole-pool pipeline_predict call on serve-paper. An operation fails when
it raises or when its output check fails.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from probes import PROBES

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_cv_desk.json"

# The acceptance-criterion-6 seed; cv-desk aggregates were recorded there.
REFERENCE_SEED = 3
GOLDEN_REL = 1e-9

# The ROADMAP's desk-scale hybrid (the acceptance-criterion-6 config).
DESK_HYBRID = dict(n_features=29, encoder_hidden=(64, 32), n_qubits=3, n_layers=2,
                   head_hidden=8, recon_weight=0.5, batch_size=8, epochs=5,
                   learning_rate=0.01, patience=5, seed=0)

# train-paper: 50k rows at fraud rate 0.01 balance to 800 training rows,
# the size of the real dataset's balanced set, so one epoch costs what a
# real-data epoch costs.
TRAIN_ROWS = 50_000
TRAIN_FRAUD_RATE = 0.01
TRAIN_CHECK_ROWS = 8_192  # rows scored twice to compare saved and in-memory models

# serve-paper does what `qmoe evaluate` does: load a model and a labelled
# file, then score the whole file in one pipeline_predict call per gate
# value. The pool is half the real dataset's 284,807 rows, so four set-ups
# fit in one run; each gamma scores it SERVE_PASSES times for a median.
SERVE_POOL_ROWS = 142_404
SERVE_FRAUD_RATE = 0.00172
SERVE_PASSES = 3
SERVE_GAMMAS = (1.0, 0.5)  # 1.0 routes nothing; 0.5 routes about 1.5% of rows
SERVE_TIMED_GAMMA = 0.5  # op_p50_ms comes from the routed arm
MODEL_SEED = 0  # the served pipeline is train-paper's at this seed


@dataclass
class Outcome:
    wall_s: float
    op_ms: list  # per-operation wall times behind op_p50_ms
    attempted: int
    failed: int
    checks: dict = field(default_factory=dict)  # run-level output checks: name -> bool
    detail: dict = field(default_factory=dict)


@dataclass
class Context:
    seed: int
    out: Path  # the run's scratch space inside the checkout
    src_hash: str  # digest of the package source, keys caches and the digest ledger
    qmoe: object  # namespace of freshly imported qmoe modules


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def ledger_check(ctx: Context, key: str, value: str) -> bool:
    """True unless an earlier run of the same code and seed saw another digest."""
    path = ctx.out / "digests.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    key = f"{key}/seed{ctx.seed}/{ctx.src_hash[:16]}"
    seen = ledger.setdefault(key, value)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return seen == value


def _close(a, b) -> bool:
    """Recursive equality, floats within GOLDEN_REL, NaN equal to NaN."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _close(a[k], b[k]) for k in a)
    if isinstance(a, float) or isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= GOLDEN_REL * max(abs(a), abs(b))
    return a == b


def _failure(exc: BaseException) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(limit=8)}


class CvDesk:
    """run_cv + save_report on the acceptance-criterion-6 config (qmoe bench)."""

    name = "cv-desk"
    op_span = "bench.fit_fold"
    setup_repeats = 8  # before the work and again after it; a set-up takes under 0.1 s

    def config(self, ctx):
        q = ctx.qmoe
        return q.bench.RunConfig(hybrid=q.hybrid.HybridConfig(**DESK_HYBRID), seed=ctx.seed)

    def prepare(self, ctx):
        return None

    def load(self, ctx, prep):
        return ctx.qmoe.bench.load_dataset(self.config(ctx))

    def work(self, ctx, inputs, recorder):
        bench = ctx.qmoe.bench
        config = self.config(ctx)
        n_ops = config.n_splits * config.n_repeats
        out_dir = ctx.out / f"cv-desk-seed{ctx.seed}"
        x, y = inputs
        start = time.perf_counter()
        try:  # run_cv is load_dataset, timed as set-up, then cross_validate
            report = bench.cross_validate(x, y, config)
            bench.save_report(report, out_dir)
        except Exception as exc:  # the run must still report what failed
            return Outcome(time.perf_counter() - start, [], n_ops, n_ops,
                           {"completed": False}, _failure(exc))
        wall = time.perf_counter() - start

        fold_ms = [(s.end - s.start) * 1e3 for s in recorder.spans
                   if s.name == self.op_span and s.parent == -1]
        bad = [f"{f.repeat}/{f.fold}" for f in report.folds if not f.sentinel_equals_baseline]
        failed = len(bad) + max(0, n_ops - len(report.folds))
        report_digest = hashlib.sha256((out_dir / "report.json").read_bytes()).hexdigest()
        checks = {"report_digest_repeats": ledger_check(ctx, self.name, report_digest)}
        if ctx.seed == REFERENCE_SEED:
            golden = json.loads(GOLDEN.read_text())
            checks["golden_aggregates"] = _close(golden["aggregates"],
                                                 bench.report_to_dict(report)["aggregates"])
        detail = {
            "report_digest": report_digest,
            "folds_without_sentinel": bad,
            "primary_trees": [f.primary_trees for f in report.folds],
            "fold_ms": fold_ms,
        }
        if len(fold_ms) != n_ops:  # fit_fold could not be timed; fall back to the mean
            fold_ms = [wall * 1e3 / n_ops]
            detail["op_timing"] = "mean fold time: qmoe.bench.fit_fold was not traced"
        return Outcome(wall, fold_ms, n_ops, failed, checks, detail)


class TrainPaper:
    """fit_pipeline with the default paper HybridConfig for one epoch (qmoe train)."""

    name = "train-paper"
    op_span = None
    setup_repeats = 8  # before the work and again after it; a set-up takes about 0.1 s

    def config(self, ctx, seed):
        q = ctx.qmoe
        return q.bench.RunConfig(hybrid=q.hybrid.HybridConfig(epochs=1), seed=seed)

    def prepare(self, ctx):
        return None

    def load(self, ctx, prep):
        x, y, _ = ctx.qmoe.data.synthesize(TRAIN_ROWS, TRAIN_FRAUD_RATE, seed=ctx.seed)
        return x, y

    def work(self, ctx, inputs, recorder):
        bench = ctx.qmoe.bench
        x, y = inputs
        start = time.perf_counter()
        try:
            record, pipeline = bench.fit_pipeline(x, y, self.config(ctx, ctx.seed))
        except Exception as exc:
            return Outcome(time.perf_counter() - start, [], 1, 1, {}, _failure(exc))
        wall = time.perf_counter() - start

        path = ctx.out / f"train-paper-seed{ctx.seed}.model.json"
        rows = x[:TRAIN_CHECK_ROWS]
        try:
            bench.save_model(pipeline, path)
            mine = bench.pipeline_predict(pipeline, rows, 0.5)
            theirs = bench.pipeline_predict(bench.load_model(path), rows, 0.5)
        except Exception as exc:  # a model that cannot round-trip fails the operation
            return Outcome(wall, [wall * 1e3], 1, 1, {}, _failure(exc))
        fields = ("probs", "labels", "routed")
        same = all(np.array_equal(getattr(mine, f), getattr(theirs, f)) for f in fields)
        ok = same and record.sentinel_equals_baseline
        out_digest = digest(*(getattr(mine, f) for f in fields))
        checks = {"prediction_digest_repeats": ledger_check(ctx, self.name, out_digest)}
        detail = {
            "prediction_digest": out_digest,
            "loaded_model_predicts_identically": same,
            "sentinel_equals_baseline": record.sentinel_equals_baseline,
            "balanced_rows": record.sizes["balanced"]["rows"],
            "primary_trees": record.primary_trees,
            "routed_rows_checked": int(mine.routed.sum()),
        }
        return Outcome(wall, [wall * 1e3], 1, 0 if ok else 1, checks, detail)


class ServePaper:
    """load_model + load_csv, then whole-pool pipeline_predict per gamma (qmoe evaluate)."""

    name = "serve-paper"
    op_span = None
    setup_repeats = 2  # before the work and again after it; a set-up takes about 4 s

    def prepare(self, ctx):
        q = ctx.qmoe
        cache = ctx.out / "cache"
        cache.mkdir(parents=True, exist_ok=True)
        model = cache / f"serve-model-{ctx.src_hash[:16]}.json"
        if not model.exists():  # trained once per checkout; loading it is the timed set-up
            x, y, _ = q.data.synthesize(TRAIN_ROWS, TRAIN_FRAUD_RATE, seed=MODEL_SEED)
            config = TrainPaper().config(ctx, MODEL_SEED)
            _, pipeline = q.bench.fit_pipeline(x, y, config)
            tmp = model.with_suffix(".tmp")
            q.bench.save_model(pipeline, tmp)
            os.replace(tmp, model)
        x, y, _ = q.data.synthesize(SERVE_POOL_ROWS, SERVE_FRAUD_RATE, seed=ctx.seed)
        pool = ctx.out / f"serve-pool-seed{ctx.seed}.csv"
        q.data.save_csv(pool, x, y)  # repr floats round-trip, so the pool loads exactly
        return {"model": model, "pool": pool, "x": x, "y": y}

    def load(self, ctx, prep):
        pipeline = ctx.qmoe.bench.load_model(prep["model"])
        x, y = ctx.qmoe.data.load_csv(prep["pool"])
        return pipeline, x, y, prep

    def work(self, ctx, inputs, recorder):
        pipeline, x, y, prep = inputs
        predict = ctx.qmoe.bench.pipeline_predict
        checks = {"pool_loads_exactly": bool(np.array_equal(x, prep["x"])
                                             and np.array_equal(y, prep["y"]))}
        detail = {}
        wall = 0.0
        attempted = failed = 0
        op_ms = []
        for gamma in SERVE_GAMMAS:
            digests = []
            latencies = []
            routed = []
            errors = []
            for _ in range(SERVE_PASSES):
                attempted += 1
                recorder.op = attempted - 1
                tick = time.perf_counter()
                try:
                    out = predict(pipeline, x, gamma)
                except Exception as exc:
                    failed += 1
                    errors.append(f"{type(exc).__name__}: {exc}")
                    continue
                latencies.append(time.perf_counter() - tick)
                ok = bool(out.probs.shape == (x.shape[0],) and np.all(np.isfinite(out.probs))
                          and np.all(out.probs >= 0.0) and np.all(out.probs <= 1.0))
                if gamma >= 1.0:
                    ok = ok and not out.routed.any()
                digests.append(digest(out.probs, out.labels, out.routed))
                ok = ok and digests[-1] == digests[0]  # a repeated call scores identically
                routed.append(int(out.routed.sum()))
                failed += not ok
            seconds = sum(latencies)
            wall += seconds
            ms = sorted(t * 1e3 for t in latencies)
            if gamma == SERVE_TIMED_GAMMA:
                op_ms = ms
            detail[f"g{gamma}"] = {
                "calls": len(latencies),
                "call_ms": ms,
                "rows_per_s": len(latencies) * x.shape[0] / seconds if seconds else 0.0,
                "call_p50_ms": percentile(ms, 50),
                "routed_rows": routed[0] if routed else None,
                "routed_fraction": routed[0] / x.shape[0] if routed else None,
                "output_digest": digests[0] if digests else None,
                "errors": errors[:5],
            }
            checks[f"output_digest_repeats.g{gamma}"] = bool(digests) and ledger_check(
                ctx, f"{self.name}/g{gamma}", digests[0])
        return Outcome(wall, op_ms, attempted, failed, checks, detail)


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


WORKLOADS = {w.name: w for w in (CvDesk(), TrainPaper(), ServePaper())}

# Module calls each workload must show in the traced run: the workload is
# where that module's metrics are predicted to move.
EXPECTED_ACTIVITY = {
    "cv-desk": ("gbdt.fit.calls", "bench.fit_fold.calls"),
    "train-paper": ("qsim.batch_parameter_shift.calls", "neural.mlp_forward.calls",
                    "neural.mlp_backward.calls", "neural.optimizer_step.calls",
                    "hybrid.fit.epochs_run"),
    "serve-paper": ("gbdt.predict.calls", "qsim.batch_expectations.calls",
                    "moe.combined_predict.calls", "data.load_csv.rows",
                    "bench.load_model.s"),
}

# Traced-run shares that justify each workload: (metrics summed, minimum
# share of the traced wall time).
WORKLOAD_SHARE = {
    "cv-desk": (("gbdt.fit.primary.s", "gbdt.fit.router.s"), 0.5),
    "train-paper": (("qsim.batch_parameter_shift.s",), 0.5),
}


def op_probes(workload) -> tuple:
    """The probes an untraced run keeps: only the one that times operations."""
    return tuple(p for p in PROBES if p.span == workload.op_span)
