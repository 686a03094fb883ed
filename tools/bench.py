"""Write BENCH_<topic>.json: timings of one kernel family before and after a change.

Usage, from the root of the changed checkout, after running perfbench in
both checkouts over the same seeds (alternate which checkout runs first):

    python3 perfbench/run.py --workload <w> --seed <s> --seconds 40
    python3 tools/bench.py <topic> --parent ../parent-checkout

The topic picks the kernel table: ``qsim`` times
``qsim.batch_parameter_shift`` and ``qsim.batch_expectations`` and writes
BENCH_qsim.json, ``gbdt`` times ``gbdt.fit_gbdt`` (router fits at the
cv-desk, train-paper and paper-fold analysis sizes, the train-paper primary
and a 16k-row fit) and writes BENCH_gbdt.json, ``predict`` times
``GBDTModel.predict_margin`` on the serving forests and on dense depth-6
and depth-4 forests, and writes BENCH_predict.json, ``hybrid`` times ``mlp_forward`` plus
``mlp_backward`` on the paper encoder, one ``_batch_gradients`` step and
``HybridModel.predict_proba`` at the paper ``HybridConfig``, and writes
BENCH_hybrid.json; ``ingest`` times ``data.load_csv`` on a 142,404-row
``save_csv`` file (written once, outside the timed calls) and
``MinMaxScaler.transform`` on a (142404, 29) array, and writes
BENCH_ingest.json; ``gate`` times whole-pool ``bench.pipeline_predict``
calls at gamma 1.0, 0.9 and 0.5 on the serve-paper shape (the train-paper
pipeline at seed 0, fit once per interpreter outside the timed calls, over
a 142,404-row pool) and writes BENCH_gate.json; ``serve`` times ``data.load_csv``
on that pool's ``save_csv`` file and whole-pool ``bench.pipeline_predict``
calls at gamma 1.0 and 0.5 on that pipeline, and writes BENCH_serve.json.

For each of the three perfbench workloads it copies every untraced result
record (environment included) of the parent checkout and of this one from
their ``.perfbench/results/`` directories, skipping any whose recorded
``src_lines`` is not the checkout's current count (a result left by an
older source), pairs them by seed, and summarises each end-to-end metric:
median and quartiles per side, the pairs the change won, and a verdict
against the bound in BENCHMARK.json. serve-paper also gets each gamma's
call median and rows/s. Each workload also records, per output digest
(cv-desk's report, train-paper's predictions, serve-paper's outputs per
gamma), whether the two checkouts wrote the same one at every paired seed.
It then times the topic's kernel from each checkout's ``src/`` on every
entry of its table, with BLAS pinned to one thread. Each side runs in
``INVOCATIONS`` fresh interpreters of ``REPEATS`` timed calls, the two
sides alternating which goes first, so load drift on the host reaches both
sides alike. After its timed calls each interpreter makes one more under
``tracemalloc`` and records that call's peak of traced memory. It records the median and interquartile range of each side's
pooled calls, the median of each invocation, and a verdict: "faster" only
when every invocation median of the change beats every one of the parent,
"slower" for the reverse, and "unresolved" otherwise, since a pooled
median can still move by a quarter between invocations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("cv-desk", "train-paper", "serve-paper")
REPEATS = 7
INVOCATIONS = 3  # fresh interpreters per side and kernel

# The timer runs in a fresh interpreter: ``kernel`` is one table entry, and
# the topic's set-up defines ``call`` from it.
_TIMER = """
import json, sys, time
import numpy as np
kernel, repeats = json.loads(sys.argv[1]), int(sys.argv[2])
rng = np.random.default_rng(0)
{setup}
call()  # warm-up
samples = []
for _ in range(repeats):
    start = time.perf_counter()
    call()
    samples.append(time.perf_counter() - start)
import tracemalloc
tracemalloc.start()
call()
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps({{"samples": samples, "peak_bytes": peak}}))
"""


@dataclass(frozen=True)
class Topic:
    title: str  # the "topic" field of the file
    kernels: tuple  # one dict of named inputs per timed shape
    setup: str  # timer code defining call() from ``kernel`` and ``rng``
    note: str = ""  # a known cost of the change, written next to the title


TOPICS = {
    "qsim": Topic(
        title="qsim kernels: gates as strided views and the CNOT ring as one basis "
              "permutation, under batch_expectations and the batch_parameter_shift "
              "adjoint sweep",
        # The desk config, the paper config with one and with every qubit
        # measured, a wide desk batch, and the paper config over the about
        # 2,000 rows serve-paper routes per call; each shape runs both calls.
        kernels=tuple(
            {"call": call, "n_qubits": n, "n_layers": layers, "rows": rows, "measured": q}
            for n, layers, rows, q in ((3, 2, 8, 1), (6, 6, 32, 1), (6, 6, 32, 6),
                                       (3, 2, 512, 1), (6, 6, 2048, 1))
            for call in ("batch_parameter_shift", "batch_expectations")
        ),
        setup="""
from qmoe import qsim
spec = qsim.AnsatzSpec(n_qubits=kernel["n_qubits"], n_layers=kernel["n_layers"])
params = rng.uniform(-np.pi, np.pi, size=spec.n_params)
feats = rng.uniform(-np.pi, np.pi, size=(kernel["rows"], spec.n_qubits))
qubits = tuple(range(kernel["measured"]))
call = lambda: getattr(qsim, kernel["call"])(spec, params, feats, qubits)
""",
    ),
    "gbdt": Topic(
        title="gbdt.fit_gbdt: one complex prefix sum for grad and hess, ties checked only "
              "at the winner, no search where the hessian mass cannot fill two children, "
              "and leaf-assigned training margins",
        # The router's shape (rare positive targets, router_params) at the
        # cv-desk analysis part (1,000 rows), train-paper's (2,500) and the
        # paper fold's (14,240); the train-paper primary (an 800-row balanced
        # set, default params, early stopping on a validation set at the real
        # fraud rate); and a 16k-row fit.
        kernels=(
            {"name": "router", "rows": 1000, "fraud_rate": 0.02, "n_estimators": 100,
             "max_depth": 3, "early_stopping_rounds": 0, "validation_rows": 0},
            {"name": "router, train-paper", "rows": 2500, "fraud_rate": 0.02,
             "n_estimators": 100, "max_depth": 3, "early_stopping_rounds": 0,
             "validation_rows": 0},
            {"name": "router, paper fold", "rows": 14_240, "fraud_rate": 0.02,
             "n_estimators": 100, "max_depth": 3, "early_stopping_rounds": 0,
             "validation_rows": 0},
            {"name": "primary", "rows": 800, "fraud_rate": 0.5, "n_estimators": 200,
             "max_depth": 4, "early_stopping_rounds": 20, "validation_rows": 2500},
            {"name": "wide", "rows": 16000, "fraud_rate": 0.01, "n_estimators": 20,
             "max_depth": 4, "early_stopping_rounds": 0, "validation_rows": 0},
        ),
        setup="""
from qmoe import data, gbdt
x, y, _ = data.synthesize(max(kernel["rows"], 1000), kernel["fraud_rate"], seed=0)
x, y = x[: kernel["rows"]], y[: kernel["rows"]]  # synthesize shuffles its rows
val = (data.synthesize(kernel["validation_rows"], 0.01, seed=1)[:2]
       if kernel["validation_rows"] else (None, None))
params = gbdt.GBDTParams(n_estimators=kernel["n_estimators"], max_depth=kernel["max_depth"],
                         early_stopping_rounds=kernel["early_stopping_rounds"])
call = lambda: gbdt.fit_gbdt(params, x, y, *val)
""",
    ),
    "predict": Topic(
        title="gbdt prediction: compare-and-select over transposed row blocks, one "
              "contiguous compare and one np.where per split, replacing the "
              "level-synchronous forest walk",
        # The serve-paper forests (the primary's 52 trees at depth 4 and the
        # router's 100 at depth 3) over its 142,404-row pool, and dense
        # forests fit on a balanced 7,000-row set: 50 trees at depth 6,
        # XGBoost's default max_depth, with about 20 splits per tree, and 50
        # at depth 4 with about 11.
        kernels=(
            {"name": "serve primary", "call": "predict_margin", "trees": 52, "max_depth": 4,
             "rows": 142_404},
            {"name": "serve router", "call": "predict_margin", "trees": 100, "max_depth": 3,
             "rows": 142_404},
            {"name": "dense, depth 6", "call": "predict_margin", "trees": 50, "max_depth": 6,
             "rows": 142_404, "fit_rows": 7000, "fit_fraud_rate": 0.5},
            {"name": "dense, depth 4", "call": "predict_margin", "trees": 50, "max_depth": 4,
             "rows": 142_404, "fit_rows": 7000, "fit_fraud_rate": 0.5},
        ),
        setup="""
from qmoe import data, gbdt
x, _, _ = data.synthesize(kernel["rows"], 0.00172, seed=0)
fit_x, fit_y, _ = data.synthesize(kernel.get("fit_rows", 2000),
                                  kernel.get("fit_fraud_rate", 0.05), seed=1)
params = gbdt.GBDTParams(n_estimators=kernel["trees"], max_depth=kernel["max_depth"],
                         early_stopping_rounds=0)
model = gbdt.fit_gbdt(params, fit_x, fit_y)
assert len(model.trees) == kernel["trees"]
call = lambda: model.predict_margin(x)
""",
        note="Dense trees favour the walk this replaces: the scorer pays one compare and one "
             "select per split, so its time grows with the splits per tree, while the walk's "
             "grew with the depth. The gain therefore shrinks as trees fill out: the dense "
             "forests have about 20.2 splits per tree at depth 6 and 11.3 at depth 4, against "
             "6.1 and 3.8 in the serve primary and router kernels (5.5 and 5.0 in the "
             "serve-paper model), and a forest denser or deeper than the depth-6 one can "
             "score slower than the walk did.",
    ),
    "hybrid": Topic(
        title="hybrid training step: one circuit pass per step, the adjoint sweep "
              "returning the expectations the loss reads",
        # The paper encoder (29-256-128-64-6) forward and backward over one
        # 32-row batch, one joint training step at the paper HybridConfig,
        # and the secondary's scoring of 2,048 rows.
        kernels=(
            {"name": "encoder forward+backward", "call": "mlp", "rows": 32},
            {"name": "training step", "call": "_batch_gradients", "rows": 32},
            {"name": "predict", "call": "predict_proba", "rows": 2048},
        ),
        setup="""
from qmoe import hybrid, neural
cfg = hybrid.HybridConfig()
model = hybrid.init_hybrid(cfg)
x = rng.uniform(0.0, 1.0, size=(kernel["rows"], cfg.n_features))
y = (np.arange(kernel["rows"]) % 2).astype(np.float64)
upstream = rng.normal(size=(kernel["rows"], cfg.n_qubits))
def mlp():
    _, acts = neural.mlp_forward(cfg.encoder_spec, model.encoder, x)
    neural.mlp_backward(cfg.encoder_spec, model.encoder, acts, upstream)
call = {"mlp": mlp, "_batch_gradients": lambda: hybrid._batch_gradients(model, x, y),
        "predict_proba": lambda: model.predict_proba(x)}[kernel["call"]]
""",
    ),
    "ingest": Topic(
        title="serve ingestion: load_csv parses the body in one np.loadtxt call, and "
              "MinMaxScaler.transform scales in one buffer",
        # The serve-paper pool: load_csv of its 142,404-row save_csv file,
        # written once before the timed calls, and the scaler over its
        # (142404, 29) features.
        kernels=(
            {"call": "load_csv", "rows": 142_404},
            {"call": "MinMaxScaler.transform", "rows": 142_404},
        ),
        setup="""
import atexit, os, shutil, tempfile
from qmoe import data
x, y, _ = data.synthesize(kernel["rows"], 0.00172, seed=0)
if kernel["call"] == "load_csv":
    tmp = tempfile.mkdtemp()
    atexit.register(shutil.rmtree, tmp)
    path = os.path.join(tmp, "pool.csv")
    data.save_csv(path, x, y)
    call = lambda: data.load_csv(path)
else:
    scaler = data.fit_minmax(x)
    call = lambda: scaler.transform(x)
""",
    ),
    "gate": Topic(
        title="routed serving: the router is scored only until each row's gate decision "
              "is settled (GBDTModel.proba_above), instead of in full and then compared "
              "with gamma",
        # serve-paper's calls: its pipeline (train-paper's fit_pipeline at seed
        # 0: 50k rows at fraud rate 0.01, one epoch of the paper hybrid) over a
        # 142,404-row pool, at the gate that routes nothing, one that routes
        # about 0.4% of rows and serve-paper's routed gamma.
        kernels=tuple({"call": "pipeline_predict", "gamma": gamma, "rows": 142_404}
                      for gamma in (1.0, 0.9, 0.5)),
        setup="""
from qmoe import bench, data, hybrid
x, y, _ = data.synthesize(50_000, 0.01, seed=0)
config = bench.RunConfig(hybrid=hybrid.HybridConfig(epochs=1), seed=0)
_, pipeline = bench.fit_pipeline(x, y, config)
pool, _, _ = data.synthesize(kernel["rows"], 0.00172, seed=0)
call = lambda: bench.pipeline_predict(pipeline, pool, kernel["gamma"])
""",
    ),
    "serve": Topic(
        title="serving in O(block) memory: load_csv allocates its table once and packs the "
              "features inside it; pipeline_predict scores the pool in row blocks of the "
              "forests' size and hands the secondary every routed row in one call",
        # serve-paper's set-up and calls: load_csv of its 142,404-row pool,
        # written once by save_csv before the timed calls, and whole-pool
        # pipeline_predict on its pipeline (as in ``gate``) at the gate that
        # routes nothing and at serve-paper's routed gamma. The memory figure
        # is each call's tracemalloc peak.
        kernels=(
            {"call": "load_csv", "rows": 142_404},
            *({"call": "pipeline_predict", "gamma": gamma, "rows": 142_404}
              for gamma in (1.0, 0.5)),
        ),
        setup="""
import atexit, os, shutil, tempfile
from qmoe import bench, data, hybrid
pool, labels, _ = data.synthesize(kernel["rows"], 0.00172, seed=0)
if kernel["call"] == "load_csv":
    tmp = tempfile.mkdtemp()
    atexit.register(shutil.rmtree, tmp)
    path = os.path.join(tmp, "pool.csv")
    data.save_csv(path, pool, labels)
    del pool, labels
    call = lambda: data.load_csv(path)
else:
    x, y, _ = data.synthesize(50_000, 0.01, seed=0)
    config = bench.RunConfig(hybrid=hybrid.HybridConfig(epochs=1), seed=0)
    _, pipeline = bench.fit_pipeline(x, y, config)
    call = lambda: bench.pipeline_predict(pipeline, pool, kernel["gamma"])
""",
    ),
}


def _quantile(ordered: list, frac: float) -> float:
    pos = frac * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _quartiles(samples: list) -> dict:
    ordered = sorted(samples)
    return {"q1": _quantile(ordered, 0.25), "median": _quantile(ordered, 0.5),
            "q3": _quantile(ordered, 0.75), "runs": len(ordered)}


def _invoke(checkout: Path, topic: Topic, kernel: dict) -> dict:
    """``REPEATS`` call times in ms and one call's tracemalloc peak in bytes,
    from one fresh interpreter on ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", _TIMER.format(setup=topic.setup), json.dumps(kernel),
         str(REPEATS)],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def time_kernel(parent: Path, change: Path, topic: Topic, kernel: dict) -> tuple:
    """(parent, change) timings of one kernel, the invocations interleaved."""
    runs = ([], [])
    for i in range(INVOCATIONS):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            runs[side].append(_invoke((parent, change)[side], topic, kernel))
    out = []
    for invocations in runs:
        ms = [[1e3 * t for t in run["samples"]] for run in invocations]
        q = _quartiles([t for samples in ms for t in samples])
        peaks = [run["peak_bytes"] / 1e6 for run in invocations]
        out.append({"median_ms": q["median"], "iqr_ms": q["q3"] - q["q1"], "repeats": q["runs"],
                    "invocation_medians_ms": [_quartiles(s)["median"] for s in ms],
                    "tracemalloc_peak_mb": _quartiles(peaks)["median"],
                    "invocation_peaks_mb": peaks})
    return tuple(out)


def kernel_verdict(parent: dict, change: dict) -> str:
    """"faster" or "slower" when the two sides' invocation medians do not overlap."""
    before, after = parent["invocation_medians_ms"], change["invocation_medians_ms"]
    if max(after) < min(before):
        return "faster"
    if min(after) > max(before):
        return "slower"
    return "unresolved"


def src_lines(checkout: Path) -> int:
    """The line count of ``checkout``'s ``src/**/*.py``, as perfbench records it."""
    return sum(len(p.read_text().splitlines()) for p in (checkout / "src").rglob("*.py"))


def load_records(checkout: Path, workload: str) -> dict:
    """Every untraced result of ``workload`` in ``checkout``, keyed by seed.

    A result whose ``environment.src_lines`` differs from the checkout's
    current source came from an older tree; it is skipped, and named.
    """
    records, skipped, lines = {}, [], src_lines(checkout)
    results = checkout / ".perfbench" / "results"
    for path in sorted(results.glob(f"{workload}-seed*-trace0.json")):
        record = json.loads(path.read_text())
        if record.get("environment", {}).get("src_lines") != lines:
            skipped.append(path.name)
            continue
        records[record["seed"]] = record
    if skipped:
        print(f"{checkout}: skipped {len(skipped)} {workload} results whose src_lines is not "
              f"the checkout's {lines}: {', '.join(skipped)}")
    if not records:
        sys.exit(f"no {workload} results in {checkout}: run perfbench/run.py "
                 f"--workload {workload} --seed <s> --seconds 40 there first")
    return dict(sorted(records.items()))


def compare(parent: list, change: list, better: str, bound) -> dict:
    """Summarise one metric over paired runs (parent[i] and change[i] share a seed).

    The verdict follows the benchmark's rules: "gain" when the change wins at
    least nine tenths of the pairs and its median beats the parent's by more
    than the parent's interquartile range; "unresolved" when the parent's
    spread exceeds the bound, unless every change run beats every parent run;
    otherwise "worse" or "within bound" by the median against the bound.
    """
    sign = 1.0 if better == "lower" else -1.0
    before, after = _quartiles(parent), _quartiles(change)
    iqr = before["q3"] - before["q1"]
    gained = sign * (before["median"] - after["median"])
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    out = {"parent": before, "change": after, "pairs": len(parent), "change_wins": wins,
           "change_pct": 100.0 * (after["median"] / before["median"] - 1.0),
           "parent_iqr_pct": 100.0 * iqr / before["median"]}
    if bound is None:
        return out
    clear_win = all(sign * (p - c) > 0 for p in parent for c in change)
    if wins >= 0.9 * len(parent) and gained > iqr:
        out["verdict"] = "gain"
    elif iqr / before["median"] > bound and not clear_win:
        out["verdict"] = "unresolved"
    elif -gained / before["median"] > bound:
        out["verdict"] = "worse"
    else:
        out["verdict"] = "within bound"
    return out


def summarise(parent: dict, change: dict, metrics: list) -> dict:
    seeds = sorted(set(parent) & set(change))
    summary = {}
    for m in metrics:
        values = [[runs[s]["result"]["metrics"][m["name"]]["value"] for s in seeds]
                  for runs in (parent, change)]
        summary[m["name"]] = compare(*values, m["better"], m["bound"])
    if all("g1.0" in parent[s]["detail"] for s in seeds):  # serve-paper's calls
        for gamma in ("g1.0", "g0.5"):
            for name, better in (("call_p50_ms", "lower"), ("rows_per_s", "higher")):
                values = [[runs[s]["detail"][gamma][name] for s in seeds]
                          for runs in (parent, change)]
                summary[f"{gamma}.{name}"] = compare(*values, better, None)
    return summary


def _digests(detail: dict, prefix: str = "") -> dict:
    """Every ``*digest`` field of a record's detail, the per-gamma entries included."""
    out = {}
    for key, value in detail.items():
        if isinstance(value, dict):
            out.update(_digests(value, f"{prefix}{key}."))
        elif key.endswith("digest"):
            out[prefix + key] = value
    return out


def digests_equal(parent: dict, change: dict, seeds: list) -> dict:
    """For each output digest, whether both checkouts wrote the same one at every seed."""
    names = sorted({name for s in seeds for name in _digests(parent[s]["detail"])})
    return {name: all(_digests(parent[s]["detail"]).get(name)
                      == _digests(change[s]["detail"]).get(name) for s in seeds)
            for name in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("topic", choices=sorted(TOPICS), help="kernel table to time")
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--out", type=Path, help="output file (default BENCH_<topic>.json)")
    args = ap.parse_args(argv)
    topic = TOPICS[args.topic]
    out_path = args.out or Path(f"BENCH_{args.topic}.json")
    change = Path(__file__).resolve().parents[1]
    parent = args.parent.resolve()
    metrics = json.loads((change / "BENCHMARK.json").read_text())["end_to_end"]

    workloads = {}
    for name in WORKLOADS:
        before, after = load_records(parent, name), load_records(change, name)
        summary = summarise(before, after, metrics)
        paired = sorted(set(before) & set(after))  # the seeds the summary reads
        same = digests_equal(before, after, paired)
        workloads[name] = {"summary": summary, "digests_equal": same,
                           "parent": [before[s] for s in paired],
                           "change": [after[s] for s in paired]}
        print(f"{name:12s} digests equal at seeds {paired}: {same}")
        for metric, row in summary.items():
            print(f"{name:12s} {metric:18s} {row['parent']['median']:12.4g} -> "
                  f"{row['change']['median']:12.4g} ({row['change_pct']:+6.1f}%, parent IQR "
                  f"{row['parent_iqr_pct']:.1f}%, wins {row['change_wins']}/{row['pairs']}) "
                  f"{row.get('verdict', '')}")

    kernels = []
    for kernel in topic.kernels:
        before, after = time_kernel(parent, change, topic, kernel)
        verdict = kernel_verdict(before, after)
        kernels.append({**kernel, "parent": before, "change": after,
                        "speedup": before["median_ms"] / after["median_ms"], "verdict": verdict})
        per_run = ["/".join(f"{m:.2f}" for m in side["invocation_medians_ms"])
                   for side in (before, after)]
        print(f"kernel {kernel}: {before['median_ms']:.2f} ms -> {after['median_ms']:.2f} ms "
              f"(invocations {per_run[0]} -> {per_run[1]} ms) {verdict}; tracemalloc peak "
              f"{before['tracemalloc_peak_mb']:.1f} -> {after['tracemalloc_peak_mb']:.1f} MB")

    doc = {
        "topic": topic.title,
        **({"note": topic.note} if topic.note else {}),
        "kernel_environment": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": 1,
        },
        "workloads": workloads,
        "kernels": kernels,
    }
    out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
