"""End-to-end command line tests, run in process through main()."""

import contextlib
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import qmoe
from qmoe.bench import RunConfig, fit_pipeline, load_model, pipeline_predict, save_model
from qmoe.calibration import apply_temperature, fit_temperature
from qmoe import bench, cli
from qmoe.cli import ENV_DATASET, main
from qmoe.data import load_csv, save_csv, synthesize
from qmoe.errors import ModelIOError
from qmoe.hybrid import HybridConfig
from qmoe.moe import youden_threshold

TINY_CONFIG = {
    "synth_rows": 1500,
    "synth_fraud_rate": 0.02,
    "hybrid": {
        "n_features": 29, "encoder_hidden": [8], "n_qubits": 2, "n_layers": 1,
        "head_hidden": 4, "batch_size": 16, "epochs": 2,
        "learning_rate": 0.005, "patience": 2, "seed": 0,
    },
    "expert": {"n_estimators": 20, "max_depth": 3},
    "router": {"n_estimators": 10, "max_depth": 3},
    "n_splits": 2,
    "n_repeats": 1,
    "seed": 5,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    paths = {
        "csv": str(ws / "data.csv"),
        "config": str(ws / "config.json"),
        "model": str(ws / "model.json"),
    }
    with open(paths["config"], "w") as fh:
        json.dump(TINY_CONFIG, fh)
    assert main(["synth", "--rows", "1200", "--fraud-rate", "0.02",
                 "--seed", "3", "--out", paths["csv"]]) == 0
    assert main(["train", "--config", paths["config"], "--data", paths["csv"],
                 "--model", paths["model"]]) == 0
    return paths


def test_synth_writes_readable_csv(tmp_path, capsys):
    out = str(tmp_path / "synth.csv")
    assert main(["synth", "--rows", "1200", "--fraud-rate", "0.02",
                 "--seed", "3", "--out", out]) == 0
    assert "wrote 1200 rows (24 positive)" in capsys.readouterr().out
    x, y = load_csv(out)
    assert x.shape == (1200, 29)
    assert int(y.sum()) == 24


def test_train_summary_and_model_file(workspace, capsys, tmp_path):
    model_path = str(tmp_path / "again.json")
    assert main(["train", "--config", workspace["config"],
                 "--data", workspace["csv"], "--model", model_path]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["model"] == model_path
    parts = ("train", "validation", "analysis", "holdout")
    assert sum(summary["sizes"][p]["rows"] for p in parts) == 1200
    assert 0.0 < summary["tau_primary"] < 1.0
    load_model(model_path)  # parses and validates


def test_evaluate_reports_metrics(workspace, capsys):
    assert main(["evaluate", "--model", workspace["model"],
                 "--data", workspace["csv"], "--gamma", "0.8"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["rows"] == 1200
    assert result["positives"] == 24
    assert result["gamma"] == 0.8
    assert 0.0 <= result["routed_fraction"] <= 1.0
    assert 0.0 <= result["ap"] <= 1.0
    assert 0.0 <= result["aucpr"] <= 1.0


def test_evaluate_without_positives_prints_null_recall(workspace, tmp_path, capsys):
    lines = open(workspace["csv"]).read().splitlines()
    legit = [lines[0]] + [line for line in lines[1:] if line.rsplit(",", 1)[1] == "0"]
    csv_path = tmp_path / "legit.csv"
    csv_path.write_text("\n".join(legit) + "\n")
    assert main(["evaluate", "--model", workspace["model"],
                 "--data", str(csv_path), "--gamma", "1.0"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["positives"] == 0
    assert result["recall"] is None
    assert result["ap"] is None and result["aucpr"] is None
    assert 0.0 <= result["precision"] <= 1.0


def test_evaluate_rejects_bad_gamma(workspace, capsys):
    assert main(["evaluate", "--model", workspace["model"],
                 "--data", workspace["csv"], "--gamma", "1.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "gamma" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to NaN
def test_bench_names_a_diverged_hybrid(tmp_path, capsys):
    config = dict(TINY_CONFIG, hybrid={**TINY_CONFIG["hybrid"], "learning_rate": 1e300})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["bench", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: hybrid training diverged in epoch 0 (")
    assert "learning_rate 1e+300 may be too large" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # Adam's second moment overflows
@pytest.mark.parametrize("workers", [1, 2])
def test_bench_names_a_finite_divergence(tmp_path, capsys, monkeypatch, workers):
    # At 1e30 the loss stays finite while Adam's updates freeze. At 2 workers
    # fold 1 diverges in a child too; fold 0's error, the parent's, is raised.
    config = dict(TINY_CONFIG, hybrid={**TINY_CONFIG["hybrid"], "learning_rate": 1e30})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    monkeypatch.setattr("qmoe.workers.usable_cpus", lambda: workers)
    assert main(["bench", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == ("error: hybrid training diverged in epoch 0 (Adam's second moment "
                   "overflowed); learning_rate 1e+30 may be too large\n")


def test_bench_writes_report_and_latency_reads_it(workspace, tmp_path, capsys):
    out_dir = str(tmp_path / "bench")
    assert main(["bench", "--config", workspace["config"], "--out", out_dir]) == 0
    stdout = capsys.readouterr().out
    assert f"wrote report to {out_dir}" in stdout
    assert "gbdt-baseline ap:" in stdout
    assert sorted(os.listdir(out_dir)) == ["aggregates.csv", "folds.csv", "report.json"]

    assert main(["latency", "--report", out_dir, "--points", "14000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["points"] == 14000
    assert payload["per_task_s"] == pytest.approx(2.739)
    for row in payload["table"]:
        assert row["seconds"] == pytest.approx(
            14000 * row["routed_fraction"] * payload["per_task_s"]
        )
    # the file path form works too, not just the directory
    assert main(["latency", "--report", os.path.join(out_dir, "report.json")]) == 0
    capsys.readouterr()


def test_report_does_not_depend_on_the_output_directory(workspace, tmp_path, capsys):
    # Before, the report's copy of the config held --out.
    written = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["bench", "--config", workspace["config"], "--data", workspace["csv"],
                     "--out", str(out)]) == 0
        written.append((out / "report.json").read_bytes())
    capsys.readouterr()
    assert written[0] == written[1]


def test_calibrate_refits_temperatures(workspace, tmp_path, capsys):
    out = str(tmp_path / "recal.json")
    assert main(["calibrate", "--model", workspace["model"],
                 "--data", workspace["csv"], "--out", out]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"] == out
    assert 0.05 <= payload["temperature_primary"] <= 20.0
    assert 0.05 <= payload["temperature_secondary"] <= 20.0
    recal = load_model(out)
    base = load_model(workspace["model"])
    # the experts themselves are untouched
    assert len(recal.primary.trees) == len(base.primary.trees)
    # the thresholds are Youden-refit on the recalibrated scores of the same rows
    x, y = load_csv(workspace["csv"])
    # The forests read raw rows, the hybrid scaled ones.
    for expert, scaler, tau, rows in (
            ("primary", "primary_scaler", "tau_primary", x),
            ("secondary", "secondary_scaler", "tau_secondary", base.scaler.transform(x))):
        probs = getattr(base, expert).predict_proba(rows)
        # The temperature tells the rows apart: the Youden cut here is the
        # lowest score either way.
        assert getattr(recal, scaler).temperature == fit_temperature(probs, y).temperature
        want = youden_threshold(apply_temperature(getattr(recal, scaler), probs), y)
        assert getattr(recal, tau) == payload[tau] == want
    for name in ("low", "span"):  # the scaler too
        assert getattr(recal.scaler, name).tobytes() == getattr(base.scaler, name).tobytes()
    assert payload["warnings"] == []


def test_calibrate_keeps_the_operating_point_on_fresh_data(tmp_path, capsys):
    # The recalibration case that flipped 62 hard labels at gamma 1.0 while
    # the old thresholds stayed on the old scale. Refit on the new scale, the
    # thresholds pick the cut Youden picks on the old scale's scores of the
    # same rows: no row changes side.
    x, y, _ = synthesize(20000, 0.01)
    config = RunConfig(hybrid=HybridConfig(encoder_hidden=(64, 32), n_qubits=3, n_layers=2,
                                           batch_size=8, epochs=5, learning_rate=0.01))
    _, pipeline = fit_pipeline(x, y, config)
    model, fresh, out = (str(tmp_path / name) for name in ("m.json", "fresh.csv", "r.json"))
    save_model(pipeline, model)
    x_cal, y_cal, _ = synthesize(20000, 0.03, seed=5)
    save_csv(fresh, x_cal, y_cal)
    assert main(["calibrate", "--model", model, "--data", fresh, "--out", out]) == 0
    capsys.readouterr()
    old = pipeline_predict(pipeline, x_cal, 1.0)
    new = pipeline_predict(load_model(out), x_cal, 1.0)
    assert load_model(out).primary_scaler.temperature != pipeline.primary_scaler.temperature
    assert np.array_equal(new.labels, old.probs > youden_threshold(old.probs, y_cal))


def test_calibrate_on_one_class_data_keeps_the_thresholds(workspace, tmp_path, capsys):
    x, y = load_csv(workspace["csv"])
    legit = str(tmp_path / "legit.csv")
    save_csv(legit, x[y == 0], y[y == 0])
    out = str(tmp_path / "recal.json")
    assert main(["calibrate", "--model", workspace["model"],
                 "--data", legit, "--out", out]) == 0
    payload = json.loads(capsys.readouterr().out)
    old = load_model(workspace["model"])
    new = load_model(out)
    assert payload["warnings"] == [
        "calibration data has one class; kept the old temperatures and thresholds"]
    assert payload["degenerate"]
    for name in ("primary", "secondary"):
        # The t = 1 fallback would leave the old thresholds on the wrong scale.
        kept = getattr(old, f"{name}_scaler").temperature
        assert kept != 1.0
        assert getattr(new, f"{name}_scaler").temperature == kept
        assert payload[f"temperature_{name}"] == kept
        tau = getattr(old, f"tau_{name}")
        assert getattr(new, f"tau_{name}") == payload[f"tau_{name}"] == tau
    for gamma in (1.0, 0.5):
        assert np.array_equal(pipeline_predict(new, x, gamma).labels,
                              pipeline_predict(old, x, gamma).labels)


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_calibrate_non_finite_row_exits_1(workspace, tmp_path, capsys, value):
    # The scaler would clip an infinity into range and refit silently.
    lines = open(workspace["csv"]).read().splitlines()
    fields = lines[4].split(",")  # data row 3, after the header line
    fields[3] = value
    lines[4] = ",".join(fields)
    bad_csv = tmp_path / f"{value}.csv"
    bad_csv.write_text("\n".join(lines) + "\n")
    out = tmp_path / "recal.json"
    assert main(["calibrate", "--model", workspace["model"],
                 "--data", str(bad_csv), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "feature rows must be finite" in err and "row indices [3]" in err
    assert not out.exists()


def test_env_var_supplies_dataset(workspace, monkeypatch, capsys):
    monkeypatch.setenv(ENV_DATASET, workspace["csv"])
    assert main(["evaluate", "--model", workspace["model"]]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == 1200


def test_data_flag_beats_env_var(workspace, monkeypatch, capsys):
    monkeypatch.setenv(ENV_DATASET, "/does/not/exist.csv")
    assert main(["evaluate", "--model", workspace["model"],
                 "--data", workspace["csv"]]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == 1200


@pytest.mark.parametrize("command", ["train", "bench"])
@pytest.mark.parametrize("source", ["--data", "csv_path", ENV_DATASET])
def test_rows_with_csv_data_exits_1(command, source, workspace, monkeypatch, tmp_path, capsys):
    # --rows sizes synthetic data only; before, a CSV run ignored it and the
    # report's config still recorded it as synth_rows.
    config, argv = dict(TINY_CONFIG), []
    if source == "--data":
        argv = ["--data", workspace["csv"]]
    elif source == "csv_path":
        config["csv_path"] = workspace["csv"]
    else:
        monkeypatch.setenv(ENV_DATASET, workspace["csv"])
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = ["--model", str(tmp_path / "model.json")] if command == "train" else [
        "--out", str(tmp_path / "bench")]
    assert main([command, "--config", str(cfg), "--rows", "2000", *argv, *out]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: --rows sizes synthetic data, but the data is the CSV "
                   f"{workspace['csv']}\n")
    assert set(os.listdir(tmp_path)) == {"config.json"}  # nothing was written


def test_missing_dataset_is_a_structured_error(workspace, monkeypatch, capsys):
    monkeypatch.delenv(ENV_DATASET, raising=False)
    assert main(["evaluate", "--model", workspace["model"]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert ENV_DATASET in err


def test_missing_model_exits_1(tmp_path, capsys):
    assert main(["evaluate", "--model", str(tmp_path / "missing.json"),
                 "--data", "unused.csv"]) == 1
    assert "error: cannot read model file" in capsys.readouterr().err


def _undecodable_csv(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"\xffTime,V1\n")
    return path


@pytest.mark.parametrize("command, make", [
    ("evaluate", lambda tmp_path: tmp_path / "absent.csv"),
    ("evaluate", lambda tmp_path: tmp_path),
    ("evaluate", _undecodable_csv),
    ("synth", lambda tmp_path: tmp_path / "no-such-dir" / "x.csv"),
], ids=["missing file", "directory", "not utf-8", "unwritable"])
def test_unreadable_data_path_exits_1(command, make, workspace, tmp_path, capsys):
    path = str(make(tmp_path))
    if command == "evaluate":
        argv = ["evaluate", "--model", workspace["model"], "--data", path]
    else:
        argv = ["synth", "--rows", "1200", "--out", path]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and path in err
    assert "Traceback" not in err


def _below_a_file(tmp_path):
    (tmp_path / "plain").write_text("")
    return tmp_path / "plain" / "sub"


@pytest.mark.parametrize("command, flag, make, work", [
    ("train", "--model", lambda tmp_path: tmp_path / "no-such-dir" / "m.json", "fit_pipeline"),
    ("train", "--model", lambda tmp_path: _below_a_file(tmp_path) / "m.json", "fit_pipeline"),
    ("calibrate", "--out", lambda tmp_path: tmp_path / "no-such-dir" / "c.json", "load_model"),
    ("bench", "--out", _below_a_file, "run_cv"),
    ("synth", "--out", lambda tmp_path: tmp_path / "no-such-dir" / "x.csv", "synthesize"),
], ids=["train model", "train model below a file", "calibrate out", "bench out below a file",
        "synth out"])
def test_unwritable_output_path_exits_1(command, flag, make, work, workspace, tmp_path, capsys,
                                        monkeypatch):
    # The path is checked before the work: before, the whole fit or CV ran first.
    def never(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output path was checked")

    monkeypatch.setattr(cli, work, never)
    path = str(make(tmp_path))
    source = {"calibrate": ["--model", workspace["model"], "--data", workspace["csv"]],
              "synth": ["--rows", "1200"]}.get(
        command, ["--config", workspace["config"], "--data", workspace["csv"]])
    assert main([command, *source, flag, path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and path in err
    assert "Traceback" not in err


def test_evaluate_non_finite_row_exits_1(workspace, tmp_path, capsys):
    lines = open(workspace["csv"]).read().splitlines()
    fields = lines[4].split(",")  # data row 3, after the header line
    fields[3] = "nan"
    lines[4] = ",".join(fields)
    bad_csv = tmp_path / "nan.csv"
    bad_csv.write_text("\n".join(lines) + "\n")
    for gamma in ("1.0", "0.5"):
        assert main(["evaluate", "--model", workspace["model"],
                     "--data", str(bad_csv), "--gamma", gamma]) == 1
        assert "row indices [3]" in capsys.readouterr().err


def test_evaluate_mis_shaped_hybrid_exits_1(workspace, tmp_path, capsys):
    doc = json.loads(open(workspace["model"]).read())
    doc["secondary"]["params"].append(0.0)
    bad_model = tmp_path / "params.json"
    bad_model.write_text(json.dumps(doc))
    assert main(["evaluate", "--model", str(bad_model),
                 "--data", workspace["csv"]]) == 1
    assert (f"error: model file {bad_model} is malformed: secondary hybrid params has shape"
            in capsys.readouterr().err)


@pytest.mark.parametrize("edit, message", [
    (lambda scaler: scaler.update(span=[-v for v in scaler["span"]]),
     "scaler span must not be negative, found -"),
    (lambda scaler: scaler["span"].pop(),
     "scaler low and span must be 1-D of one length, found shapes (29,) and (28,)"),
], ids=["negative span", "ragged span"])
def test_evaluate_hostile_scaler_exits_1(workspace, tmp_path, capsys, edit, message):
    # Before the scaler checked its own fields, every span negated served
    # with exit 0, each routed row's scaled features read as if the span were 1.
    doc = json.loads(open(workspace["model"]).read())
    edit(doc["scaler"])
    bad_model = tmp_path / "scaler.json"
    bad_model.write_text(json.dumps(doc))
    assert main(["evaluate", "--model", str(bad_model), "--data", workspace["csv"],
                 "--gamma", "0.05"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: model file {bad_model} is malformed: {message}")


def test_evaluate_too_deep_model_exits_1(workspace, tmp_path, capsys):
    # A hand-edited chain of 10,000 splits used to load and score.
    doc = json.loads(open(workspace["model"]).read())
    tree = doc["primary"]["trees"][0]
    n = 2 * 10_000 + 1
    tree.update(feature=[0, -1] * 10_000 + [-1], threshold=[0.5] * n, value=[0.0] * n,
                left=[c for k in range(10_000) for c in (2 * k + 2, -1)] + [-1],
                right=[c for k in range(10_000) for c in (2 * k + 1, -1)] + [-1])
    bad_model = tmp_path / "deep.json"
    bad_model.write_text(json.dumps(doc))
    assert main(["evaluate", "--model", str(bad_model), "--data", workspace["csv"]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "tree 0, node 6: a split at depth 3 makes" in err


def test_out_of_memory_exits_1(workspace, monkeypatch, capsys):
    # numpy raises a MemoryError subclass naming the allocation it could not
    # make; the allocation is stubbed, so nothing asks for that memory.
    def refused(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 TiB for an array with shape (137438953472,) "
                          "and data type float64")

    monkeypatch.setattr(np, "empty", refused)
    assert main(["evaluate", "--model", workspace["model"], "--data", workspace["csv"]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: qmoe evaluate ran out of memory: Unable to allocate 1.00 TiB")
    assert "Traceback" not in err


def test_evaluate_non_finite_model_exits_1(workspace, tmp_path, capsys):
    doc = json.loads(open(workspace["model"]).read())
    doc["secondary"]["params"][0] = float("nan")
    bad_model = tmp_path / "nan-params.json"
    bad_model.write_text(json.dumps(doc))
    assert main(["evaluate", "--model", str(bad_model), "--data", workspace["csv"],
                 "--gamma", "0.5"]) == 1
    err = capsys.readouterr().err
    assert (f"error: model file {bad_model} is malformed: secondary params must be "
            f"finite, found nan at index 0") in err


def test_version_2_model_files_are_refused(workspace, tmp_path, capsys):
    # Version 2 wrote the hybrid behind a "kind" tag, as per-layer
    # [weights, bias] lists and a separate theta; version 6 reads one params
    # list without the decoder, beside forests fit on raw rows, all in one
    # flat model.
    hybrid = load_model(workspace["model"]).secondary
    doc = json.loads(open(workspace["model"]).read())

    def layers(pairs):
        return [[w.tolist(), b.tolist()] for w, b in pairs]

    sizes = hybrid.config.decoder_spec.layer_sizes
    decoder = [(np.zeros((b, a)), np.zeros(b)) for a, b in zip(sizes, sizes[1:])]
    doc["version"] = 2
    doc["secondary"] = {
        "kind": "hybrid", "config": doc["secondary"]["config"],
        "encoder": layers(hybrid.encoder), "decoder": layers(decoder),
        "theta": hybrid.theta.tolist(), "head": layers(hybrid.head),
    }
    old = tmp_path / "version-2.json"
    old.write_text(json.dumps(doc))
    with pytest.raises(ModelIOError, match="has version 2, this build reads 6"):
        load_model(old)
    assert main(["evaluate", "--model", str(old), "--data", workspace["csv"]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "has version 2, this build reads 6" in err
    assert "Traceback" not in err


def test_evaluate_cyclic_model_exits_1(workspace, tmp_path, capsys):
    doc = json.loads(open(workspace["model"]).read())
    tree = next(t for t in doc["router"]["trees"] if t["feature"][0] >= 0)
    tree["left"][0] = 0
    bad_model = tmp_path / "cyclic.json"
    bad_model.write_text(json.dumps(doc))

    def hung(signum, frame):
        raise AssertionError("scoring with a cyclic tree never returned")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        assert main(["evaluate", "--model", str(bad_model),
                     "--data", workspace["csv"]]) == 1
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert "children" in capsys.readouterr().err


def test_unknown_config_field_exits_1(workspace, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"bogus_knob": 1}')
    assert main(["bench", "--config", str(cfg)]) == 1
    assert "unknown fields" in capsys.readouterr().err


@pytest.mark.parametrize("doc, field", [
    ('{"hybrid": {"encoder_hidden": ["x"]}}', "hybrid encoder_hidden[0]"),
    ('{"hybrid": {"encoder_hidden": [1e999]}}', "hybrid encoder_hidden[0]"),
    ('{"gamma_grid": "ab"}', "gamma_grid"),
    ('{"n_splits": "3"}', "n_splits"),
    ('{"expert": {"learning_rate": NaN}}', "expert learning_rate"),
], ids=["string width", "infinite width", "string grid", "string int", "nan rate"])
def test_mistyped_config_exits_1(doc, field, tmp_path, capsys):
    # Before, the first three ended in a traceback, the fourth was called an
    # unknown field and the fifth failed inside the first fold.
    cfg = tmp_path / "config.json"
    cfg.write_text(doc)
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "bench")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be") and str(cfg) in err
    assert "Traceback" not in err
    assert set(os.listdir(tmp_path)) == {"config.json"}  # nothing was written


def test_missing_report_exits_1(tmp_path, capsys):
    assert main(["latency", "--report", str(tmp_path / "nowhere")]) == 1
    assert "error: cannot read report" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case", ["empty object", "list", "model file", "arm without routed_fraction"]
)
def test_latency_malformed_report_exits_1(case, workspace, tmp_path, capsys):
    docs = {
        "empty object": {},
        "list": [1, 2],
        "arm without routed_fraction": {
            "format": "qmoe-report",
            "aggregates": {"combined": {"0.5": {"ap": {"mean": 0.5}}}},
        },
    }
    if case == "model file":
        path = workspace["model"]
    else:
        path = str(tmp_path / "report.json")
        with open(path, "w") as fh:
            json.dump(docs[case], fh)
    assert main(["latency", "--report", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and path in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command", ["synth", "train", "bench", "config seed", "config hybrid seed"]
)
def test_negative_seed_exits_1(command, workspace, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    if command == "synth":
        argv = ["synth", "--rows", "1200", "--fraud-rate", "0.02", "--seed", "-1",
                "--out", str(tmp_path / "synth.csv")]
    elif command == "train":
        argv = ["train", "--config", workspace["config"], "--data", workspace["csv"],
                "--seed", "-1", "--model", str(tmp_path / "model.json")]
    elif command == "bench":
        argv = ["bench", "--config", workspace["config"], "--data", workspace["csv"],
                "--seed", "-1", "--out", str(tmp_path / "bench")]
    else:
        doc = dict(TINY_CONFIG)
        if command == "config seed":
            doc["seed"] = -1
        else:
            doc["hybrid"] = {**TINY_CONFIG["hybrid"], "seed": -1}
        cfg.write_text(json.dumps(doc))
        argv = ["bench", "--config", str(cfg), "--data", workspace["csv"],
                "--out", str(tmp_path / "bench")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    owner = "hybrid " if command == "config hybrid seed" else ""  # load_config names the object
    assert err.startswith(f"error: {owner}seed must be >= 0, got -1")
    assert set(os.listdir(tmp_path)) <= {"config.json"}  # nothing was written


@pytest.mark.parametrize("nested", ["hybrid", "expert", "router"])
def test_nested_seed_exits_1(nested, workspace, tmp_path, capsys):
    # Each fold derives its seeds from the top-level seed: before this check
    # a config's hybrid seed 0 or 7 wrote byte-equal folds.csv. GBDTParams
    # has no seed field, since nothing read it.
    doc = dict(TINY_CONFIG)
    doc[nested] = {**TINY_CONFIG[nested], "seed": 7}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    argv = ["bench", "--config", str(cfg), "--data", workspace["csv"],
            "--out", str(tmp_path / "bench")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    if nested == "hybrid":
        assert err.startswith("error: hybrid.seed must be 0, got 7")
        assert "the run's seed" in err
    else:
        assert err.startswith("error: GBDTParams has unknown fields ['seed']")
    assert str(cfg) in err
    assert set(os.listdir(tmp_path)) == {"config.json"}  # nothing was written


def test_another_hybrid_width_exits_1_before_any_work(tmp_path, capsys):
    # Before, bench made its report directory, fit fold 0's primary and then
    # exited 1 with "training rows have 29 features, expected 10", naming no field.
    doc = dict(TINY_CONFIG, hybrid={**TINY_CONFIG["hybrid"], "n_features": 10})
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "bench")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: hybrid.n_features must be 29, got 10") and str(cfg) in err
    assert set(os.listdir(tmp_path)) == {"config.json"}  # no report directory


def test_latency_negative_points_exits_1(tmp_path, capsys):
    report = {"format": "qmoe-report", "version": 2, "config": {}, "folds": [],
              "aggregates": {"combined": {"0.5": {"routed_fraction": {"mean": 0.25}}}}}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert main(["latency", "--report", str(path), "--points", "-1"]) == 1
    err = capsys.readouterr().err
    # Before, the InputError was reported as a malformed report.
    assert err.startswith("error: --points must be >= 0, got -1")
    assert "malformed" not in err
    assert main(["latency", "--report", str(path), "--points", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["table"][0]["seconds"] == 0.0
    # A report that really is malformed still says so and names the file.
    report["aggregates"]["combined"]["0.5"]["routed_fraction"]["mean"] = 1.5
    path.write_text(json.dumps(report))
    assert main(["latency", "--report", str(path), "--points", "10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: report {path} is malformed") and "routed_fraction" in err


def test_train_with_a_huge_majority_ratio_keeps_every_row(workspace, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_CONFIG, "majority_ratio": 1e308}))
    assert main(["train", "--config", str(config), "--data", workspace["csv"],
                 "--model", str(tmp_path / "model.json")]) == 0
    sizes = json.loads(capsys.readouterr().out)["sizes"]
    assert sizes["balanced"] == sizes["train"]


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["synth"])  # --out is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])  # a subcommand is required
    assert exc.value.code == 2


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGHUP, signal.SIGINT])
def test_a_stop_signal_exits_128_plus_its_number(signum, monkeypatch, tmp_path):
    before = {stop: signal.getsignal(stop)
              for stop in (signal.SIGTERM, signal.SIGHUP, signal.SIGINT)}
    monkeypatch.setattr(cli, "run_cv", lambda config: os.kill(os.getpid(), signum))
    with pytest.raises(SystemExit) as stopped:
        main(["bench", "--rows", "100", "--out", str(tmp_path / "out")])
    assert stopped.value.code == 128 + signum
    # main restores the handlers it replaced: the caller owns its process.
    assert {stop: signal.getsignal(stop) for stop in before} == before
    assert main(["latency", "--report", str(tmp_path / "none")]) == 1
    assert {stop: signal.getsignal(stop) for stop in before} == before


def _children(pid: int) -> list:
    with open(f"/proc/{pid}/task/{pid}/children") as fh:  # the forks of its main thread
        return fh.read().split()


def _state(pid: int):
    """The state letter in ``/proc/<pid>/stat`` (``Z`` for a zombie), or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


@contextlib.contextmanager
def _slow_bench(tmp_path, ignored=()):
    """A ``qmoe bench`` subprocess, in a session of its own, once its first CV
    worker exists: two folds of thousands of epochs each, the parent fitting
    one and a forked worker the other. It starts with the ``ignored`` signals
    ignored, as ``nohup`` starts its command. The session is killed on the
    way out."""
    slow = {**TINY_CONFIG, "hybrid": {**TINY_CONFIG["hybrid"], "epochs": 10_000,
                                      "patience": 10_000}}
    config = tmp_path / "slow.json"
    config.write_text(json.dumps(slow))
    src = os.path.dirname(os.path.dirname(qmoe.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "qmoe.cli", "bench", "--config", str(config),
                             "--out", str(tmp_path / "out")], env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            preexec_fn=lambda: [signal.signal(s, signal.SIG_IGN) for s in ignored])
    try:
        deadline = time.monotonic() + 60
        while not _children(proc.pid):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        yield proc
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


_FORKS_A_WORKER = pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="needs Linux and a second usable CPU, so the CV forks a worker")


@_FORKS_A_WORKER
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGHUP, signal.SIGINT])
def test_a_stopped_bench_leaves_no_worker_and_no_temp_file(signum, tmp_path):
    with _slow_bench(tmp_path) as proc:
        proc.send_signal(signum)
        start = time.monotonic()
        _, err = proc.communicate(timeout=30)
        assert time.monotonic() - start < 1.0
        assert proc.returncode == 128 + signum
        assert err == ""  # no traceback
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # nothing is left of the run's process group
        assert list((tmp_path / "out").glob("*.tmp")) == []


@_FORKS_A_WORKER
def test_a_bench_started_with_sighup_ignored_runs_on_after_it(tmp_path):
    # nohup ignores SIGHUP before it runs its command. Before, main replaced
    # that with its stop handler, and the bench exited 129 on SIGHUP.
    with _slow_bench(tmp_path, ignored=[signal.SIGHUP]) as proc:
        proc.send_signal(signal.SIGHUP)
        time.sleep(1.0)
        assert proc.poll() is None
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=30)
        assert proc.returncode == 128 + signal.SIGTERM
        assert err == ""


@_FORKS_A_WORKER
def test_a_killed_bench_leaves_no_running_worker(tmp_path):
    # SIGKILL runs no handler. Before, the worker was reparented and fitted its
    # fold to the end; now the kernel kills it with its parent. A dead worker
    # may stay a zombie where nothing reaps the reparented process.
    with _slow_bench(tmp_path) as proc:
        workers = [int(pid) for pid in _children(proc.pid)]
        assert workers
        proc.kill()
        proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL
        deadline = time.monotonic() + 1.0
        while running := [pid for pid in workers if _state(pid) not in (None, "Z")]:
            assert time.monotonic() < deadline, f"workers {running} outlived their parent"
            time.sleep(0.01)
