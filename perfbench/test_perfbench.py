"""Self-tests of the benchmark: span arithmetic, work counts, probe table, contract.

    python -m pytest perfbench -q
"""

import json
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import probes  # noqa: E402
from probes import PROBES, RATIOS, Installed, Probe, Recorder, Span, resolve  # noqa: E402


def test_self_time_subtracts_child_cover_once():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: the union 1..6 is covered once
        Span("a1", 2.0, 3.0, 1, 0),
        Span("c", 11.0, 12.5, -1, 1),
    ]
    assert probes.self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0, 1.5])


def test_recorder_nests_spans_and_reports_missing(monkeypatch):
    mod = types.ModuleType("perfbench_fake")
    exec("def inner(x):\n    return [x] * 3\n"
         "def outer(x):\n    return inner(x) + inner(x)\n", mod.__dict__)
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    table = (
        Probe(mod.__name__, "outer", "fake.outer", "fake.outer.calls"),
        Probe(mod.__name__, "inner", "fake.inner", "fake.inner.calls",
              ("fake.inner.rows",), lambda a, k, out: (len(out),)),
        Probe(mod.__name__, "gone", "fake.gone", "fake.gone.calls"),
    )
    original = mod.outer
    rec = Recorder(op_span="fake.outer")
    installed = Installed(rec, table)
    try:
        assert mod.outer(1) == [1] * 6
        mod.outer(2)
    finally:
        installed.restore()
    assert mod.outer is original
    assert [p.name for p in installed.missing] == ["gone"]
    assert [(s.name, s.parent, s.op) for s in rec.spans] == [
        ("fake.outer", -1, 0), ("fake.inner", 0, 0), ("fake.inner", 0, 0),
        ("fake.outer", -1, 1), ("fake.inner", 3, 1), ("fake.inner", 3, 1)]
    wanted = [{"name": n, "unit": "count"} for n in
              ("fake.outer.calls", "fake.inner.rows", "fake.gone.calls")]
    wanted.append({"name": "fake.gone.s", "unit": "s"})
    got = probes.layer_metrics(rec, installed.missing, wanted)
    assert got["fake.outer.calls"]["value"] == 2
    assert got["fake.inner.rows"]["value"] == 12
    for name in ("fake.gone.calls", "fake.gone.s"):  # never reads as zero
        assert got[name] == {"value": None, "unit": got[name]["unit"], "missing": True}


def _fit_counting_trees(monkeypatch, params, with_validation):
    from qmoe import gbdt
    from qmoe.data import synthesize

    grown = []

    class CountingTree(gbdt.Tree):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            grown.append(self)

    monkeypatch.setattr(gbdt, "Tree", CountingTree)
    x, y, _ = synthesize(4000, 0.05, seed=1)
    val = (x[3000:], y[3000:]) if with_validation else (None, None)
    model = gbdt.fit_gbdt(params, x[:3000], y[:3000], *val)
    return model, len(grown)


@pytest.mark.parametrize("n_estimators, rounds, with_validation", [
    (200, 5, True),  # early stopping ends the loop and truncates the trees
    (12, 20, True),  # patience outlasts the budget: n_estimators caps it
    (15, 5, False),  # no validation set: every grown tree is kept
])
def test_trees_grown_matches_a_real_fit(monkeypatch, n_estimators, rounds, with_validation):
    from qmoe.gbdt import GBDTParams

    params = GBDTParams(n_estimators=n_estimators, max_depth=2, early_stopping_rounds=rounds)
    model, grown = _fit_counting_trees(monkeypatch, params, with_validation)
    assert probes.trees_grown(model) == grown
    if n_estimators == 200:
        assert len(model.trees) < grown  # the case exercises truncation


def test_every_probe_resolves():
    assert [f"{p.caller}.{p.name}" for p in PROBES if resolve(p) is None] == []


def test_every_per_layer_metric_has_a_source():
    fed = set(RATIOS).union(*(p.feeds for p in PROBES))
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in contract["per_layer"] if m["name"] not in fed] == []


def test_contract_limits():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in doc["workloads"]]
    metrics = doc["end_to_end"] + doc["per_layer"]
    assert 2 <= len(names) <= 8 and all(name.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(name.match(m["name"]) and unit.match(m["unit"]) for m in metrics)
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cv-desk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_percentile_is_nearest_rank():
    from workloads import percentile

    values = list(np.arange(1.0, 1114.0))
    assert percentile(values, 50) == 557.0
    assert percentile(values, 99) == 1102.0  # 11 samples lie beyond it
    assert percentile([1.0, 2.0, 3.0], 50) == 2.0  # serve-paper's calls per gamma
    assert percentile([4.0], 99) == 4.0
