"""Corrupted model files, reports, config files and CSVs: every fault is a
structured error.

Each model and report test saves one small file, then loads every mutant
of it: each key path (and the first and last element of each list) set to
each value in SUBSTITUTES, an integer rewritten as a float, each key
deleted, and the text cut at 300 offsets. A mutant must either fail to
load with a ModelIOError or load and then raise nothing but a QmoeError
where it is used. A NaN or an infinity is never accepted. A config file's
mutants must load or raise a ConfigurationError; a CSV's are described
with their test.
"""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from qmoe.bench import (
    RunConfig,
    cross_validate,
    fit_pipeline,
    latency_table,
    load_config,
    load_model,
    load_report,
    pipeline_predict,
    save_model,
    save_report,
)
from qmoe import data
from qmoe.errors import ConfigurationError, ModelIOError, QmoeError
from qmoe.gbdt import GBDTParams
from qmoe.hybrid import HybridConfig
from test_data import _row_bound

SUBSTITUTES = ("x", None, True, 1.5, [], {}, -1, 0, 5, float("nan"), float("inf"))
CUTS = 300

CONFIG = RunConfig(
    hybrid=HybridConfig(encoder_hidden=(4,), n_qubits=2, n_layers=1, head_hidden=2,
                        batch_size=16, epochs=1),
    expert=GBDTParams(n_estimators=3, max_depth=2),
    router=GBDTParams(n_estimators=2, max_depth=2),
    gamma_grid=(0.5,), n_splits=2, n_repeats=1, seed=1,
)


def _data(rows, positives, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, data.N_FEATURES))
    y = np.zeros(rows)
    y[:positives] = 1.0
    x[:positives] += 1.5  # the positives sit apart, so trees split
    return x, y


SCORED_ROWS = _data(50, 5, seed=7)[0]


def _paths(doc, path=()):
    """Every key path of ``doc``, and the first and last element of each list."""
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = [(i, doc[i]) for i in sorted({0, len(doc) - 1}) if doc]
    else:
        return
    for key, value in children:
        yield (*path, key), value
        yield from _paths(value, (*path, key))


def _mutants(text):
    """(description, mutated text, whether a NaN or infinity went in) for one file."""
    doc = json.loads(text)
    for path, value in list(_paths(doc)):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        for new in (*SUBSTITUTES, *([float(value)] if type(value) is int else [])):
            parent[key] = new
            non_finite = isinstance(new, float) and not math.isfinite(new)
            yield f"{path} = {new!r}", json.dumps(doc), non_finite
        parent[key] = value
        if isinstance(parent, dict):
            items = list(parent.items())
            del parent[key]
            yield f"del {path}", json.dumps(doc), False
            parent.clear()
            parent.update(items)
    for cut in np.unique(np.linspace(0, len(text) - 1, CUTS).astype(int)):
        yield f"cut at {cut}", text[:cut], False


def _escapes(text, path, load, use):
    """Mutants of ``text`` whose ``load`` or ``use`` breaks the contract, described."""
    escapes = []
    for what, mutant, non_finite in _mutants(text):
        path.write_text(mutant)
        stage = "load"
        try:
            loaded = load(path)
            if non_finite:
                escapes.append(f"{what}: accepted")
                continue
            stage = "use"
            use(loaded)
        except QmoeError as exc:
            if stage == "load" and not isinstance(exc, ModelIOError):
                escapes.append(f"{what}: load raised {exc!r}")
        except Exception as exc:  # noqa: BLE001 - any other class is the finding
            escapes.append(f"{what}: {stage} raised {exc!r}")
    return escapes


def _score(pipeline):
    for gamma in (1.0, 0.5, 1e-12):
        try:
            pipeline_predict(pipeline, SCORED_ROWS, gamma)
        except QmoeError:
            pass


def _tabulate(report):
    try:
        latency_table(report, 14000)
    except QmoeError:
        pass


@pytest.fixture(scope="module")
def model_text(tmp_path_factory):
    _, pipeline = fit_pipeline(*_data(400, 40, seed=0), CONFIG)
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(pipeline, path)
    return path.read_text()


@pytest.fixture(scope="module")
def report_text(tmp_path_factory):
    # Two positives cannot reach both holdouts, so some metrics are null.
    out = tmp_path_factory.mktemp("report")
    save_report(cross_validate(*_data(80, 2, seed=3), CONFIG), out)
    return (out / "report.json").read_text()


def test_the_files_under_test_have_structure(model_text, report_text):
    model = json.loads(model_text)
    for role in ("primary", "router"):
        assert any(t["feature"][0] >= 0 for t in model[role]["trees"]), role
    assert "null" in report_text


def test_corrupted_model_files_fail_cleanly(model_text, tmp_path):
    escapes = _escapes(model_text, tmp_path / "model.json", load_model, _score)
    assert not escapes, "\n".join(escapes[:20])


def test_corrupted_reports_fail_cleanly(report_text, tmp_path):
    escapes = _escapes(report_text, tmp_path / "report.json", load_report, _tabulate)
    assert not escapes, "\n".join(escapes[:20])


# Corrupted CSV files: each mutant either loads byte-identically in one part
# and in several, or raises the same DataError text both ways. The file is
# split into three parts of two-row chunks, and every kind of mutant is
# placed in the first row, which part 0 parses here, and in the last, which
# a forked child parses.

TOKENS = ("nan", "inf", "1_0", '"', "")
CSV_CUTS = 60


def _csv_text(quoted):
    rng = np.random.default_rng(3)
    lines = [",".join(data.CSV_HEADER)]
    for i in range(12):
        fields = [repr(float(v)) for v in np.r_[i, rng.normal(size=data.N_FEATURES)]]
        lines.append(",".join(fields + [f'"{i % 2}"' if quoted else str(i % 2)]))
    if quoted:  # the Kaggle layout: the header and every Class quoted
        lines[0] = ",".join(f'"{c}"' for c in data.CSV_HEADER)
    return "\n".join(lines) + "\n"


def _csv_mutants(text):
    """(description, mutated text) for one CSV file."""
    lines = text.split("\n")
    for line_no in (1, len(lines) - 2):  # the first row and the last
        fields = lines[line_no].split(",")
        for col in (0, 14, len(fields) - 1):
            for token in TOKENS:
                mutant = lines.copy()
                mutant[line_no] = ",".join(fields[:col] + [token] + fields[col + 1:])
                yield f"line {line_no + 1} column {col} = {token!r}", "\n".join(mutant)
            mutant = lines.copy()
            mutant[line_no] = ",".join(fields[:col] + fields[col + 1:])
            yield f"line {line_no + 1} column {col} deleted", "\n".join(mutant)
        row = lines[line_no]
        for at in (0, len(row) // 2, len(row)):
            for insert in ("\n", "\r", "\r\n"):
                mutant = lines.copy()
                mutant[line_no] = row[:at] + insert + row[at:]
                yield f"{insert!r} at {at} of line {line_no + 1}", "\n".join(mutant)
    for cut in np.unique(np.linspace(0, len(text) - 1, CSV_CUTS).astype(int)):
        yield f"cut at {cut}", text[:cut]


def _outcome(path):
    try:
        x, y = data.load_csv(path)
    except data.DataError as exc:
        return str(exc)
    return x.tobytes(), y.tobytes(), x.shape, x.flags.c_contiguous


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_corrupted_csv_files_load_alike_in_one_part_and_in_several(tmp_path, monkeypatch,
                                                                     quoted):
    text = _csv_text(quoted)
    path = tmp_path / "txn.csv"
    path.write_text(text)
    monkeypatch.setattr(data, "_MIN_PART_BYTES", 1)
    monkeypatch.setattr(data, "_CHUNK_ROWS", 2)
    assert len(_row_bound(path, 3)) == 3
    differ = []
    for what, mutant in _csv_mutants(text):
        path.write_bytes(mutant.encode())
        outcomes = []
        for cpus in (1, 3):
            monkeypatch.setattr("qmoe.workers.usable_cpus", lambda cpus=cpus: cpus)
            outcomes.append(_outcome(path))
        if outcomes[0] != outcomes[1]:
            differ.append(f"{what}: {outcomes[0]!r:.80} against {outcomes[1]!r:.80}")
    assert not differ, "\n".join(differ[:20])


def test_corrupted_config_files_load_or_raise_configuration_errors(tmp_path):
    text = json.dumps(asdict(RunConfig()))
    path = tmp_path / "config.json"
    escapes = []
    for what, mutant, _ in _mutants(text):
        path.write_text(mutant)
        try:
            load_config(path)
        except ConfigurationError:
            pass
        except Exception as exc:  # noqa: BLE001 - any other class is the finding
            escapes.append(f"{what}: {exc!r}")
    assert not escapes, "\n".join(escapes[:20])
