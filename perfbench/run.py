"""qmoe benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload cv-desk --seed 0 --seconds 40 --trace 0

Run it from anywhere inside a checkout: the package is imported from the
checkout's own src/. With --trace 0 the last line of standard output is a
JSON object whose metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics, taken from a traced pass
that follows an untraced one, and the difference of their wall times is
reported as the tracing overhead. The lines above it say the same for a
reader. Each run also writes its full record (environment, checks,
digests, per-operation figures and, when traced, the spans) under
.perfbench/ at the checkout root; nothing is written anywhere else.

Every workload does a fixed amount of work, so its figures compare across
runs and commits; --seconds is recorded, and a run whose timed work
exceeds it says so. --workload all runs every workload in turn, one
process each, and exits 1 unless all of them report correct outputs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

BLAS_THREADS = 1  # pinned for this process only, before numpy loads


def pin_blas() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_qmoe() -> SimpleNamespace:
    """A fresh import of the package, so every set-up pays for it."""
    for name in [m for m in sys.modules if m == "qmoe" or m.startswith("qmoe.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"qmoe.{m}")
                              for m in ("bench", "data", "hybrid")})


def source_files() -> list:
    return sorted(SRC.rglob("*.py"))


def source_hash() -> str:
    h = hashlib.sha256()
    for path in source_files():
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "src_lines": sum(len(p.read_text().splitlines()) for p in source_files()),
    }


def time_setups(workload, ctx, prep, n: int):
    """n set-ups, each a fresh import plus the workload's load: (last inputs, seconds)."""
    seconds = []
    inputs = None
    for _ in range(n):
        inputs = None  # the last set-up's inputs would otherwise raise this one's peak memory
        gc.collect()
        tick = time.perf_counter()
        ctx.qmoe = import_qmoe()
        inputs = workload.load(ctx, prep)
        seconds.append(time.perf_counter() - tick)
    return inputs, seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end(outcome, setup_s: float) -> dict:
    from workloads import percentile

    ms = sorted(outcome.op_ms)
    values = {
        "setup_s": setup_s,
        "wall_s": outcome.wall_s,
        "op_p50_ms": percentile(ms, 50),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in contract()["end_to_end"]}


def roadmap_figures(name: str, outcome) -> list:
    """The workload's figures under the names the ROADMAP reports them by."""
    d = outcome.detail
    lines = {
        "cv-desk": [("cv_wall_s", outcome.wall_s, "s")],
        "train-paper": [("fit_wall_s", outcome.wall_s, "s")],
        "serve-paper": [
            (f"serve_{k}.{g}", d[g][k], u)
            for g in ("g1.0", "g0.5") if g in d
            for k, u in (("rows_per_s", "1/s"), ("call_p50_ms", "ms"))
        ],
    }[name]
    frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    return lines + [("ops_failed_frac", frac, "1")]


def run_all(args, names: list) -> int:
    """Every workload, each in its own process so each reports its own peak memory.

    Exits 1 unless every workload ran and reported correct outputs.
    """
    ok = True
    for name in names:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        ok = ok and done.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qmoe" / "__init__.py").is_file():
        print(f"no qmoe package under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    pin_blas()
    sys.path.insert(0, str(SRC))
    import probes
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    ctx = workloads.Context(seed=args.seed, out=OUT, src_hash=source_hash(),
                            qmoe=import_qmoe())
    prep = workload.prepare(ctx)

    inputs, setups = time_setups(workload, ctx, prep, workload.setup_repeats)
    recorder = probes.Recorder(op_span=workload.op_span)
    installed = probes.Installed(recorder, workloads.op_probes(workload))
    try:
        outcome = workload.work(ctx, inputs, recorder)
    finally:
        installed.restore()
    # Host load drifts over seconds, so half the set-ups run after the work:
    # their median then spans two moments of the run instead of one.
    inputs = None
    setups += time_setups(workload, ctx, prep, workload.setup_repeats)[1]
    setup_s = statistics.median(setups)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(),
              "setup_samples_s": setups}

    if args.trace:
        untraced = outcome
        recorder = probes.Recorder(op_span=workload.op_span)
        installed = probes.Installed(recorder)
        try:
            tick = time.perf_counter()
            inputs = workload.load(ctx, prep)
            traced_setup = time.perf_counter() - tick
            outcome = workload.work(ctx, inputs, recorder)
        finally:
            installed.restore()
        layer = probes.layer_metrics(recorder, installed.missing, contract()["per_layer"])
        activity = {m: ("missing" if layer[m].get("missing") else layer[m]["value"] > 0)
                    for m in workloads.EXPECTED_ACTIVITY[args.workload]}
        share = None
        if args.workload in workloads.WORKLOAD_SHARE:
            names, floor = workloads.WORKLOAD_SHARE[args.workload]
            parts = [layer[n]["value"] for n in names]
            if None not in parts:
                share = {"metrics": names, "share": sum(parts) / outcome.wall_s,
                         "floor": floor, "met": sum(parts) / outcome.wall_s >= floor}
        record["trace_detail"] = {
            "untraced_wall_s": untraced.wall_s,
            "traced_wall_s": outcome.wall_s,
            "overhead_s": outcome.wall_s - untraced.wall_s,
            "traced_setup_s": traced_setup,
            "missing_probes": [f"{p.caller}.{p.name}" for p in installed.missing],
            "expected_activity": activity,
            "workload_share": share,
        }
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                          "spans": recorder.dump()}))
        metrics = layer
        checks = {**{f"untraced.{k}": v for k, v in untraced.checks.items()}, **outcome.checks}
        # a module that is predicted to move here but recorded nothing fails the
        # run; a probe that no longer resolves is reported, not failed
        checks.update({f"activity.{m}": False for m, seen in activity.items() if seen is False})
        correct = untraced.failed == 0
    else:
        metrics = end_to_end(outcome, setup_s)
        checks = dict(outcome.checks)
        correct = True

    correct = correct and outcome.failed == 0 and all(checks.values())
    result = {"correct": correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    record.update(result=result, checks=checks, detail=outcome.detail)
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str))

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{outcome.attempted} operations, {outcome.failed} failed")
    for name, value, unit in roadmap_figures(args.workload, outcome):
        print(f"  {name:<34} {value:>14.6g} {unit}")
    for name, m in metrics.items():
        shown = "missing" if m.get("missing") else f"{m['value']:>14.6g}"
        print(f"  {name:<34} {shown:>14} {m['unit']}")
    for name, ok in checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    if args.trace:
        t = record["trace_detail"]
        print(f"  tracing overhead {t['overhead_s']:+.3f} s "
              f"(traced {t['traced_wall_s']:.3f} s, untraced {t['untraced_wall_s']:.3f} s)")
        for name, seen in t["expected_activity"].items():
            print(f"  activity {name}: {seen}")
        if t["workload_share"]:
            print(f"  workload share {t['workload_share']}")
    if outcome.wall_s > args.seconds:
        print(f"  note: timed work took {outcome.wall_s:.1f} s, more than --seconds "
              f"{args.seconds:g}")
    env = record["environment"]
    print("  env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
