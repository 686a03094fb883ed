"""Write BENCH_qsim.json: circuit-gradient timings before and after a change.

Usage, from the root of the changed checkout, after running perfbench in
both checkouts over the same seeds (alternate which checkout runs first):

    python3 perfbench/run.py --workload <w> --seed <s> --seconds 40
    python3 tools/bench_qsim.py --parent ../parent-checkout

For each of the three perfbench workloads it copies every untraced result
record (environment included) of the parent checkout and of this one from
their ``.perfbench/results/`` directories, pairs them by seed, and
summarises each end-to-end metric: median and quartiles per side, the
pairs the change won, and a verdict against the bound in BENCHMARK.json.
It then times ``qsim.batch_parameter_shift`` from each checkout's ``src/``
on the kernel shapes below, each in a fresh interpreter with BLAS pinned
to one thread, and records the median and interquartile range of
``REPEATS`` timed calls.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("cv-desk", "train-paper", "serve-paper")

# (n_qubits, n_layers, rows, measured qubits): the desk config, the paper
# config with one and with every qubit measured, and a wide desk batch.
KERNELS = ((3, 2, 8, 1), (6, 6, 32, 1), (6, 6, 32, 6), (3, 2, 512, 1))
REPEATS = 7

_TIMER = """
import json, sys, time
import numpy as np
from qmoe import qsim
n, layers, rows, q, repeats = (int(v) for v in sys.argv[1:])
rng = np.random.default_rng(0)
spec = qsim.AnsatzSpec(n_qubits=n, n_layers=layers)
params = rng.uniform(-np.pi, np.pi, size=spec.n_params)
feats = rng.uniform(-np.pi, np.pi, size=(rows, n))
qubits = tuple(range(q))
qsim.batch_parameter_shift(spec, params, feats, qubits)  # warm-up
samples = []
for _ in range(repeats):
    start = time.perf_counter()
    qsim.batch_parameter_shift(spec, params, feats, qubits)
    samples.append(time.perf_counter() - start)
print(json.dumps(samples))
"""


def _quantile(ordered: list, frac: float) -> float:
    pos = frac * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _quartiles(samples: list) -> dict:
    ordered = sorted(samples)
    return {"q1": _quantile(ordered, 0.25), "median": _quantile(ordered, 0.5),
            "q3": _quantile(ordered, 0.75), "runs": len(ordered)}


def time_kernel(checkout: Path, shape: tuple) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", _TIMER, *(str(v) for v in shape), str(REPEATS)],
        env=env, check=True, capture_output=True, text=True,
    )
    q = _quartiles([1e3 * t for t in json.loads(out.stdout)])
    return {"median_ms": q["median"], "iqr_ms": q["q3"] - q["q1"], "repeats": q["runs"]}


def load_records(checkout: Path, workload: str) -> dict:
    """Every untraced result of ``workload`` in ``checkout``, keyed by seed."""
    records = {}
    for path in (checkout / ".perfbench" / "results").glob(f"{workload}-seed*-trace0.json"):
        record = json.loads(path.read_text())
        records[record["seed"]] = record
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
    if all("g1.0" in parent[s]["detail"] for s in seeds):  # serve-paper's call times
        for gamma in ("g1.0", "g0.5"):
            values = [[runs[s]["detail"][gamma]["call_p50_ms"] for s in seeds]
                      for runs in (parent, change)]
            summary[f"{gamma}.call_p50_ms"] = compare(*values, "lower", None)
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--out", type=Path, default=Path("BENCH_qsim.json"))
    args = ap.parse_args(argv)
    change = Path(__file__).resolve().parents[1]
    parent = args.parent.resolve()
    metrics = json.loads((change / "BENCHMARK.json").read_text())["end_to_end"]

    workloads = {}
    for name in WORKLOADS:
        before, after = load_records(parent, name), load_records(change, name)
        summary = summarise(before, after, metrics)
        workloads[name] = {"summary": summary, "parent": list(before.values()),
                           "change": list(after.values())}
        for metric, row in summary.items():
            print(f"{name:12s} {metric:18s} {row['parent']['median']:12.4g} -> "
                  f"{row['change']['median']:12.4g} ({row['change_pct']:+6.1f}%, parent IQR "
                  f"{row['parent_iqr_pct']:.1f}%, wins {row['change_wins']}/{row['pairs']}) "
                  f"{row.get('verdict', '')}")

    kernels = []
    for shape in KERNELS:
        before = time_kernel(parent, shape)
        after = time_kernel(change, shape)
        kernels.append({
            "n_qubits": shape[0], "n_layers": shape[1], "rows": shape[2], "measured": shape[3],
            "parent": before, "change": after,
            "speedup": before["median_ms"] / after["median_ms"],
        })
        print(f"kernel {shape}: {before['median_ms']:.2f} ms -> {after['median_ms']:.2f} ms")

    doc = {
        "topic": "qsim.batch_parameter_shift: adjoint sweep replacing the shift-rule loop",
        "kernel_environment": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": 1,
        },
        "workloads": workloads,
        "kernels": kernels,
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
