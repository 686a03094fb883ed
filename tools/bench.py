"""Write BENCH_<topic>.json: timings of one kernel family before and after a change.

Usage, from the root of the changed checkout, after running perfbench in
both checkouts over the same seeds (alternate which checkout runs first):

    python3 perfbench/run.py --workload <w> --seed <s> --seconds 40
    python3 tools/bench.py <topic> --parent ../parent-checkout

The topic picks a kernel table of ``TOPICS``; the comment above a topic's
kernels says what they time and ``_TIMER``'s what each interpreter records.

BENCH_qsim.json, BENCH_gate.json, BENCH_ingest.json, BENCH_fold.json,
BENCH_codes.json, BENCH_raw.json, BENCH_parse.json and BENCH_parts.json
stay as records of topics since folded into others. ``qsim`` timed the
two circuit calls that ``circuit`` times, at every shape the hybrid runs;
``gate`` timed the whole-pool ``pipeline_predict`` calls that ``serve``
times; ``ingest`` timed ``load_csv`` on the serve pool, as ``serve``
does, and ``MinMaxScaler.transform`` on the whole pool, which no caller
runs since serving scales only the routed rows; ``fold`` timed the
paper-scale ``bench.fit_pipeline`` fold that ``synth`` times; ``codes``
timed the ``predict`` and ``serve`` kernels in one file; ``raw`` timed
the ``serve`` kernels with their minor faults and the scaler's fold into
the forests' thresholds (gone since the forests are fit on raw rows),
``parse`` the ``load_csv`` kernels and ``parts`` the gamma 1.0 and 0.5
calls, each at one part and at one part per usable CPU with the peak RSS,
all of which ``serve`` now records but the fold.

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
entry of its table, with BLAS pinned to one thread. A kernel of one part
(``"parts": 1``) runs each interpreter bound to the lowest usable CPU
(``os.sched_setaffinity``), recorded as the kernel's ``cpu``: both
checkouts then read one usable CPU, and the timings cannot follow the CPU
an invocation lands on. Every other kernel keeps every CPU. Each side runs in
``INVOCATIONS`` fresh interpreters of ``_TIMER``, or as many as the
kernel's ``invocations``, the two sides alternating which goes first, so
load drift on the host reaches both sides alike. It records the median and
interquartile range of each side's pooled calls, the median of each
invocation and the parent's median over the change's (``speedup``), and no
verdict: three invocations a side can separate by host drift alone (kernels
of identical code have read both "faster" and "slower"), and a pooled
median can still move by a quarter between invocations. Only the
end-to-end summaries above judge a change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("cv-desk", "train-paper", "serve-paper")
REPEATS = 7
INVOCATIONS = 3  # fresh interpreters per side and kernel

# The one timer, run in a fresh interpreter: ``kernel`` is one table entry, and
# the topic's set-up defines ``call`` from it (``rng`` and ``usage``, the
# process's rusage, are there to build it). The set-up may also define
# ``digest``, a string from the last timed call's result, and ``recorded``, a
# dict of figures reported beside the timer's own. After a warm-up the timer
# times ``repeats`` calls, or one cold call for a kernel marked ``once``,
# keeping only the last result. It reports the peak RSS (ru_maxrss, in KiB
# on Linux) of the process after the set-up and after the timed calls, that
# of its largest forked child (RUSAGE_CHILDREN, which counts the pages a
# forked child shares with its parent), the CPU seconds of the timed calls
# (children included) and the usable CPUs; then it makes one more call under
# tracemalloc for its peak of traced memory, unless the kernel is marked
# ``untraced``.
_TIMER = """
import json, os, resource, sys, time, tracemalloc
import numpy as np
kernel, repeats = json.loads(sys.argv[1]), int(sys.argv[2])
rng = np.random.default_rng(0)
usage = lambda who=resource.RUSAGE_SELF: resource.getrusage(who)
{setup}
cpu_s = lambda: sum(u.ru_utime + u.ru_stime for u in (usage(), usage(resource.RUSAGE_CHILDREN)))
rss_before_mb = usage().ru_maxrss / 1024
if not kernel.get("once"):
    call()  # warm-up
samples, cpu = [], cpu_s()
for _ in range(1 if kernel.get("once") else repeats):
    out = None  # the last result goes before the next call, outside its time
    start = time.perf_counter()
    out = call()
    samples.append(time.perf_counter() - start)
figures = {{"samples": samples, "peak_bytes": None, "rss_before_mb": rss_before_mb,
           "rss_after_mb": usage().ru_maxrss / 1024, "cpu_s": cpu_s() - cpu,
           "children_rss_mb": usage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
           "cores_usable": len(os.sched_getaffinity(0))}}
if "digest" in globals():
    figures["digest"] = digest(out)
if not kernel.get("untraced"):
    tracemalloc.start()
    call()
    figures["peak_bytes"] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
print(json.dumps({{**figures, **globals().get("recorded", {{}})}}))
"""


@dataclass(frozen=True)
class Topic:
    title: str  # the "topic" field of the file
    kernels: tuple  # one dict of named inputs per timed shape
    setup: str  # timer code defining call() from ``kernel``, ``rng`` and ``usage``
    note: str = ""  # a known cost of the change, written next to the title
    # Code run once per kernel, in an interpreter of its own before the timers,
    # with the kernel (plus the run's ``scratch`` directory) as JSON in argv[1];
    # the timers then see the same ``scratch``.
    prepare: str = ""


TOPICS = {
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
        title="gbdt prediction: leaf-code groups over transposed row blocks, each maximal "
              "subtree of at most 8 splits scored by one compare per split into a uint8 code "
              "and one take from its table of leaf values, compare-and-select only above the "
              "groups",
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
        note="The select this replaces, np.where(cond, leaf, leaf) on two scalar leaves, "
             "branches on every row: on a balanced condition over an 8,192-row block it took "
             "18-28 us against about 16 us with array operands and 2.4 us for the compare. A "
             "group pays one compare, one add and one or per split, all contiguous, and one "
             "take from its table. A tree of at most 8 splits is one group; a larger one keeps "
             "a compare and an array-operand np.where per split above its groups: 2.6 such "
             "splits and 3.6 groups per tree in the dense depth-6 forest (20.2 splits per "
             "tree), 0.9 and 1.9 at depth 4 (11.3 splits).",
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
training = hybrid._init_training(cfg)
model = training.served()
x = rng.uniform(0.0, 1.0, size=(kernel["rows"], cfg.n_features))
y = (np.arange(kernel["rows"]) % 2).astype(np.float64)
upstream = rng.normal(size=(kernel["rows"], cfg.n_qubits))
def mlp():
    _, acts = neural.mlp_forward(cfg.encoder_spec, model.encoder, x)
    neural.mlp_backward(cfg.encoder_spec, model.encoder, acts, upstream)
call = {"mlp": mlp, "_batch_gradients": lambda: hybrid._batch_gradients(training, x, y),
        "predict_proba": lambda: model.predict_proba(x)}[kernel["call"]]
""",
    ),
    "serve": Topic(
        title="serving in O(block) memory: load_csv allocates its table once and packs the "
              "features inside it; pipeline_predict scores the pool in row blocks of the "
              "forests' size and hands the secondary every routed row in one call",
        # serve-paper's calls: load_csv of its 142,404-row pool and of a
        # 284,807-row file, each written once by ``prepare``, and whole-pool
        # pipeline_predict of that pool on its pipeline (train-paper's
        # fit_pipeline at seed 0: 50k rows at fraud rate 0.01, one epoch of the
        # paper hybrid) at the gate that routes nothing, one that routes about
        # 0.4% of rows and serve-paper's routed gamma. Each runs at one part
        # and at one part per usable CPU (a parent without parts runs one
        # either way).
        kernels=tuple({**kernel, "parts": parts}
                      for kernel in ({"call": "load_csv", "rows": 142_404},
                                     {"call": "load_csv", "rows": 284_807},
                                     *({"call": "pipeline_predict", "gamma": gamma,
                                        "rows": 142_404} for gamma in (1.0, 0.9, 0.5)))
                      for parts in (1, None)),
        prepare="""
import json, os, sys
from qmoe import data
kernel = json.loads(sys.argv[1])
path = os.path.join(kernel["scratch"], f"pool-{kernel['rows']}.csv")
if kernel["call"] == "load_csv" and not os.path.exists(path):
    x, y, _ = data.synthesize(kernel["rows"], 0.00172, seed=0)
    data.save_csv(path, x, y)
""",
        # ``call`` also records its minor page faults (ru_minflt), the
        # warm-up's first, with the last scoring call's outputs kept through
        # the next, as perfbench keeps them; the timer's children_rss_mb adds
        # the forked parts' peak to perfbench's peak_rss_mb, which reads the
        # process alone.
        setup="""
from qmoe import bench, data, hybrid
recorded = {"minflt": []}
if kernel["call"] == "load_csv":
    path = os.path.join(kernel["scratch"], f"pool-{kernel['rows']}.csv")
    def timed():  # keeps no table, so the peak RSS is one parse's
        data.load_csv(path)
else:
    pool, _, _ = data.synthesize(kernel["rows"], 0.00172, seed=0)
    x, y, _ = data.synthesize(50_000, 0.01, seed=0)
    config = bench.RunConfig(hybrid=hybrid.HybridConfig(epochs=1), seed=0)
    _, pipeline = bench.fit_pipeline(x, y, config)
    timed = lambda: bench.pipeline_predict(pipeline, pool, kernel["gamma"])
kept = [None]  # the last call's outputs
def call():
    before = usage().ru_minflt
    kept[0] = timed()
    recorded["minflt"].append(usage().ru_minflt - before)
""",
    ),
    "circuit": Topic(
        title="one dense circuit path: folded-observable scoring (one A_q per call, "
              "phi^T A_q phi per row) and a layer-at-a-time adjoint over dense RY "
              "sublayers and RZ phase vectors, replacing the gate-by-gate walk",
        # The desk hybrid (3 qubits x 2 layers): an 8-row training batch and a
        # 512-row scoring chunk; the paper's (6 x 6): a 32-row batch with one
        # and with every qubit measured, and a scoring chunk; then the
        # crossover, a 512-row chunk and a 32-row batch at 6 layers on 8, 9
        # and 10 qubits. The cap is the widest n at which the change wins both.
        kernels=(
            *({"name": "desk", "call": call, "n_qubits": 3, "n_layers": 2, "rows": rows,
               "measured": 1}
              for call, rows in (("batch_parameter_shift", 8), ("batch_expectations", 512))),
            *({"name": "paper", "call": call, "n_qubits": 6, "n_layers": 6, "rows": rows,
               "measured": q}
              for call, rows, q in (("batch_parameter_shift", 32, 1),
                                    ("batch_parameter_shift", 32, 6),
                                    ("batch_expectations", 512, 1))),
            *({"name": "crossover", "call": call, "n_qubits": n, "n_layers": 6, "rows": rows,
               "measured": 1}
              for n in (8, 9, 10)
              for call, rows in (("batch_expectations", 512), ("batch_parameter_shift", 32))),
        ),
        setup="""
from qmoe import qsim
spec = object.__new__(qsim.AnsatzSpec)  # skips the MAX_QUBITS check, on both sides
object.__setattr__(spec, "n_qubits", kernel["n_qubits"])
object.__setattr__(spec, "n_layers", kernel["n_layers"])
params = rng.uniform(-np.pi, np.pi, size=spec.n_params)
feats = rng.uniform(-np.pi, np.pi, size=(kernel["rows"], spec.n_qubits))
qubits = tuple(range(kernel["measured"]))
call = lambda: getattr(qsim, kernel["call"])(spec, params, feats, qubits)
""",
        note="The crossover kernels run widths above qsim.MAX_QUBITS (8), which the change "
             "refuses through AnsatzSpec; the timer builds the spec without its check so "
             "both sides run the same shapes. From 9 qubits the dense path loses on the "
             "training batch, where building U costs about L dense 2**n-square GEMMs per "
             "call whatever the batch size.",
    ),
    "model": Topic(
        title="a model file holds only what serving reads: no training-only decoder in the "
              "hybrid's params, and save_model streams the text into a temp file renamed "
              "over the target, arrays one row block at a time",
        # train-paper's pipeline (fit_pipeline at seed 0: 50k rows at fraud
        # rate 0.01, one epoch of the paper hybrid), fit once per interpreter
        # outside the timed calls; each side writes with its own save_model
        # and records the model file's bytes.
        kernels=({"call": "save_model"}, {"call": "load_model"}),
        setup="""
import atexit, os, shutil, tempfile
from qmoe import bench, data, hybrid
x, y, _ = data.synthesize(50_000, 0.01, seed=0)
config = bench.RunConfig(hybrid=hybrid.HybridConfig(epochs=1), seed=0)
_, pipeline = bench.fit_pipeline(x, y, config)
del x, y
tmp = tempfile.mkdtemp()
atexit.register(shutil.rmtree, tmp)
path = os.path.join(tmp, "model.json")
bench.save_model(pipeline, path)
recorded = {"file_bytes": os.path.getsize(path)}
call = {"save_model": lambda: bench.save_model(pipeline, path),
        "load_model": lambda: bench.load_model(path)}[kernel["call"]]
""",
    ),
    "synth": Topic(
        title="data.synthesize holds one table: the factor GEMM writes into it, the noise is "
              "drawn and added in row blocks, and the rows are shuffled in place a few "
              "columns at a time",
        # The generator at the cv-desk (20k), train-paper (50k) and real
        # dataset's (284,807) row counts; then, once per interpreter, the
        # paper-scale table and one fold fit on it (the default RunConfig,
        # seed 0): fold 0 of the first repeat, whose balanced set is 784 rows
        # of a 227,845-row split. Its digest is the table's and the
        # FoldRecord's.
        kernels=(
            *({"name": "synthesize", "call": "synthesize", "rows": rows}
              for rows in (20_000, 50_000, 284_807)),
            {"name": "paper fold", "call": "fit_pipeline", "rows": 284_807, "once": True},
        ),
        setup="""
import hashlib
from dataclasses import asdict
from qmoe import bench, data
if kernel["call"] == "synthesize":
    call = lambda: data.synthesize(kernel["rows"], 0.00172, seed=0)
else:
    x, y, component = data.synthesize(kernel["rows"], 0.00172, seed=0)
    table = hashlib.sha256()
    for part in (x, y, component):
        table.update(part)  # no copy: the digest reads each array's buffer
    del component
    config = bench.RunConfig(seed=0)
    call = lambda: bench.fit_pipeline(x, y, config)[0]
    digest = lambda record: table.hexdigest() + " " + hashlib.sha256(
        json.dumps(asdict(record), sort_keys=True).encode()).hexdigest()
""",
    ),
}


# The cv topic runs the whole CV (run_cv plus save_report) once per
# interpreter, untraced: the desk CV is perfbench cv-desk's config at seed 0
# (its DESK_HYBRID, 20,000 rows), the paper CV the default RunConfig at
# 284,807 rows, one run a side. Its digest is report.json's.
_DESK_HYBRID = dict(n_features=29, encoder_hidden=(64, 32), n_qubits=3, n_layers=2,
                    head_hidden=8, recon_weight=0.5, batch_size=8, epochs=5,
                    learning_rate=0.01, patience=5, seed=0)

TOPICS["cv"] = Topic(
    title="cross_validate fits its folds on every usable CPU through fork_map, the one fork "
          "loop, which load_csv parses through too: worker w of W fits the w-th of W "
          "contiguous fold ranges, walking the lazy splits itself, the process is worker 0, "
          "and the report is a serial run's",
    kernels=(
        {"name": "desk CV: cv-desk config, 20,000 rows, 15 folds, seed 0", "rows": 20_000,
         "desk": True, "once": True, "untraced": True, "parts": None},
        {"name": "paper CV: default RunConfig, 284,807 rows, 15 folds, seed 0",
         "rows": 284_807, "desk": False, "once": True, "untraced": True, "invocations": 1,
         "parts": None},
    ),
    setup=f"""
import hashlib, tempfile
from qmoe import bench, hybrid
desk = {{"hybrid": hybrid.HybridConfig(**{_DESK_HYBRID!r})}} if kernel["desk"] else {{}}
config = bench.RunConfig(synth_rows=kernel["rows"], seed=0, **desk)
def call():
    with tempfile.TemporaryDirectory() as out:
        bench.save_report(bench.run_cv(config), out)
        with open(os.path.join(out, "report.json"), "rb") as fh:
            return fh.read()
digest = lambda report: hashlib.sha256(report).hexdigest()
""",
)

def _quantile(ordered: list, frac: float) -> float:
    pos = frac * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _quartiles(samples: list) -> dict:
    ordered = sorted(samples)
    return {"q1": _quantile(ordered, 0.25), "median": _quantile(ordered, 0.5),
            "q3": _quantile(ordered, 0.75), "runs": len(ordered)}


def _env(checkout: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def pinned(kernel: dict) -> dict:
    """``kernel`` with ``cpu``, the lowest usable CPU, when it runs one part
    (``"parts": 1``); any other kernel as it is, free to use every CPU."""
    return {**kernel, "cpu": min(os.sched_getaffinity(0))} if kernel.get("parts") == 1 else kernel


def _invoke(checkout: Path, topic: Topic, kernel: dict) -> dict:
    """``_TIMER``'s figures for ``kernel`` (call times in seconds), from one
    fresh interpreter on ``checkout``, bound to the kernel's ``cpu`` when it
    has one (see ``pinned``)."""
    cpu = kernel.get("cpu")
    out = subprocess.run(
        [sys.executable, "-c", _TIMER.format(setup=topic.setup), json.dumps(kernel),
         str(REPEATS)],
        env=_env(checkout), check=True, capture_output=True, text=True,
        preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
    )
    return json.loads(out.stdout)


def time_kernel(parent: Path, change: Path, topic: Topic, kernel: dict) -> tuple:
    """(parent, change) timings of one kernel, the invocations interleaved."""
    runs = ([], [])
    for i in range(kernel.get("invocations", INVOCATIONS)):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            runs[side].append(_invoke((parent, change)[side], topic, kernel))
    out = []
    for invocations in runs:
        ms = [[1e3 * t for t in run["samples"]] for run in invocations]
        q = _quartiles([t for samples in ms for t in samples])
        peaks = [run["peak_bytes"] / 1e6 for run in invocations if run["peak_bytes"] is not None]
        out.append({"median_ms": q["median"], "iqr_ms": q["q3"] - q["q1"], "repeats": q["runs"],
                    "invocation_medians_ms": [_quartiles(s)["median"] for s in ms],
                    "tracemalloc_peak_mb": _quartiles(peaks)["median"] if peaks else None,
                    "invocation_peaks_mb": peaks,
                    # the timer's other figures and the set-up's ``recorded``
                    **{f"invocation_{key}": [run[key] for run in invocations]
                       for key in invocations[0] if key not in ("samples", "peak_bytes")}})
    return tuple(out)


def src_lines(checkout: Path) -> int:
    """The line count of ``checkout``'s ``src/**/*.py``, as perfbench records it."""
    return sum(len(p.read_text().splitlines()) for p in (checkout / "src").rglob("*.py"))


def load_records(checkout: Path, workload: str) -> dict:
    """Every untraced result of ``workload`` in ``checkout``, keyed by seed.

    A result whose ``environment.src_lines`` differs from the checkout's
    current source came from an older tree; it is skipped. One line counts
    the skipped files and names the first and the last.
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
        names = " ... ".join(dict.fromkeys((skipped[0], skipped[-1])))
        print(f"{checkout}: skipped {len(skipped)} {workload} results whose src_lines is not "
              f"the checkout's {lines}: {names}")
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
    """Each metric of ``compare`` over the seeds both sides ran; exits naming
    each side's seeds when they share none, as no pair is left to compare."""
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        sys.exit(f"the checkouts' results share no seed: the parent ran seeds {sorted(parent)}, "
                 f"the change {sorted(change)}; run perfbench at the same seeds in both")
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
    with tempfile.TemporaryDirectory() as scratch:  # what the topic's prepare writes
        for kernel in map(pinned, topic.kernels):
            timed = kernel
            if topic.prepare:
                timed = {**kernel, "scratch": scratch}
                subprocess.run([sys.executable, "-c", topic.prepare, json.dumps(timed)],
                               env=_env(change), check=True)
            before, after = time_kernel(parent, change, topic, timed)
            entry = {**kernel, "parent": before, "change": after,
                     "speedup": before["median_ms"] / after["median_ms"]}
            per_run = ["/".join(f"{m:.2f}" for m in side["invocation_medians_ms"])
                       for side in (before, after)]
            peaks = [side["tracemalloc_peak_mb"] for side in (before, after)]
            print(f"kernel {kernel}: {before['median_ms']:.2f} ms -> {after['median_ms']:.2f} ms "
                  f"(invocations {per_run[0]} -> {per_run[1]} ms)"
                  + ("" if None in peaks else f"; tracemalloc peak {peaks[0]:.1f} -> "
                                              f"{peaks[1]:.1f} MB"))
            for name, side in (("parent", before), ("change", after)):
                rss = zip(side["invocation_rss_before_mb"], side["invocation_rss_after_mb"])
                print(f"  {name} peak RSS before -> after: "
                      + ", ".join(f"{a:.1f} -> {b:.1f} MB" for a, b in rss)
                      + "; children's peak RSS "
                      + ", ".join(f"{c:.1f} MB" for c in side["invocation_children_rss_mb"])
                      + "; CPU " + ", ".join(f"{c:.1f} s" for c in side["invocation_cpu_s"])
                      + f" on {side['invocation_cores_usable']} usable CPUs")
            if "invocation_digest" in before:
                entry["digests_equal"] = len({*before["invocation_digest"],
                                              *after["invocation_digest"]}) == 1
                print(f"  digests equal: {entry['digests_equal']}")
            kernels.append(entry)

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
