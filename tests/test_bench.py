"""Benchmark orchestration tests over a small synthetic dataset."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from qmoe import bench, data, errors, hybrid
from qmoe.bench import (
    TASK_SECONDS,
    RunConfig,
    _fold_seeds,
    cross_validate,
    fit_fold,
    fit_pipeline,
    latency_estimate,
    latency_table,
    load_config,
    load_model,
    load_report,
    pipeline_predict,
    report_to_dict,
    save_model,
    save_report,
)
from qmoe.calibration import apply_temperature
from qmoe.data import MinMaxScaler, split_eval, stratified_repeated_kfold, synthesize, undersample
from qmoe.errors import ConfigurationError, InputError, ModelIOError
from qmoe.gbdt import GBDTParams, fit_gbdt, router_params
from qmoe.hybrid import HybridConfig, HybridModel
from qmoe.moe import GAMMA_GRID, CombinedModel, fit_router
from qmoe.neural import adam_init
from test_data import FAULTS, _no_children_left, expect_kept, fail_part_way
from test_hybrid import fresh_hybrid

ARM_KEYS = {"aucpr", "ap", "precision", "recall", "routed_fraction", "latency_seconds"}

TINY_HYBRID = HybridConfig(
    n_features=29, encoder_hidden=(12, 6), n_qubits=2, n_layers=2,
    head_hidden=4, recon_weight=0.5, batch_size=16, epochs=2,
    learning_rate=0.005, patience=2, seed=0,
)

CONFIG = RunConfig(
    synth_rows=2000, synth_fraud_rate=0.02,
    hybrid=TINY_HYBRID,
    expert=GBDTParams(n_estimators=25, max_depth=3),
    router=GBDTParams(n_estimators=15, max_depth=3),
    n_splits=3, n_repeats=2, seed=13,
)


@pytest.fixture(scope="module")
def dataset():
    x, y, _ = synthesize(CONFIG.synth_rows, CONFIG.synth_fraud_rate, seed=CONFIG.seed)
    return x, y


@pytest.fixture(scope="module")
def report(dataset):
    return cross_validate(*dataset, CONFIG)


def test_run_config_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(gamma_grid=(0.5, 0.5))
    with pytest.raises(ConfigurationError):
        RunConfig(gamma_grid=(0.9, 0.5))
    with pytest.raises(ConfigurationError):
        RunConfig(gamma_grid=(0.5, 1.0))  # the sentinel is implicit, not configured
    with pytest.raises(ConfigurationError):
        RunConfig(gamma_grid=())
    with pytest.raises(ConfigurationError):
        RunConfig(n_splits=1)
    with pytest.raises(ConfigurationError):
        RunConfig(majority_ratio=0.0)
    assert RunConfig().gamma_grid == GAMMA_GRID


@pytest.mark.parametrize("nested", ["hybrid", "expert", "router"])
def test_run_config_rejects_nested_seeds(nested):
    # Folds derive the hybrid seed from RunConfig.seed, so a hybrid seed
    # would change only the report's copy of the config. Nothing read a
    # GBDTParams seed, so that field is gone.
    if nested != "hybrid":
        with pytest.raises(TypeError, match="seed"):
            GBDTParams(seed=1)
        return
    match = r"hybrid\.seed must be 0, got 7: every fold derives its seeds from the run's seed"
    with pytest.raises(ConfigurationError, match=match):
        RunConfig(hybrid=HybridConfig(seed=7))


def test_run_config_refuses_another_hybrid_width(tmp_path):
    # Every dataset a run reads has N_FEATURES columns. Before this check a
    # config's other width failed only in fold 0, once its primary was fit,
    # against the training rows, in a message that named no field.
    match = r"^hybrid\.n_features must be 29, got 10: the hybrid reads every feature column"
    with pytest.raises(ConfigurationError, match=match):
        RunConfig(hybrid=HybridConfig(n_features=10))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"hybrid": {"n_features": 10}}))
    with pytest.raises(ConfigurationError, match=match):
        load_config(path)


NAN = float("nan")


# Every range check a NaN would pass as ``x <= 0`` or ``x < 0``. A JSON config
# cannot carry NaN (load_config refuses it), so only code reaches these.
@pytest.mark.parametrize("build, error, field", [
    (lambda: RunConfig(majority_ratio=NAN), ConfigurationError, "majority_ratio"),
    (lambda: undersample(np.array([0.0, 1.0, 0.0]), majority_ratio=NAN), InputError,
     "majority_ratio"),
    (lambda: GBDTParams(learning_rate=NAN), ConfigurationError, "learning_rate"),
    (lambda: GBDTParams(reg_lambda=NAN), ConfigurationError, "reg_lambda"),
    (lambda: GBDTParams(min_split_gain=NAN), ConfigurationError, "min_split_gain"),
    (lambda: GBDTParams(min_child_weight=NAN), ConfigurationError, "min_child_weight"),
    (lambda: HybridConfig(learning_rate=NAN), ConfigurationError, "learning_rate"),
    (lambda: adam_init(np.zeros(3), NAN), ConfigurationError, "learning rate"),
], ids=["RunConfig.majority_ratio", "undersample", "GBDTParams.learning_rate",
        "GBDTParams.reg_lambda", "GBDTParams.min_split_gain", "GBDTParams.min_child_weight",
        "HybridConfig.learning_rate", "adam_init"])
def test_a_nan_fails_every_range_check_by_name(build, error, field):
    with pytest.raises(error, match=field):
        build()


def test_latency_model_arithmetic():
    assert TASK_SECONDS == 0.17 + 1.92 + 0.649
    assert TASK_SECONDS == pytest.approx(2.739)
    base = latency_estimate(5000, 0.2)
    assert base == 5000 * 0.2 * TASK_SECONDS
    assert latency_estimate(10000, 0.2) == pytest.approx(2 * base)
    assert latency_estimate(5000, 0.4) == pytest.approx(2 * base)
    assert latency_estimate(5000, 0.0) == 0.0
    with pytest.raises(InputError):
        latency_estimate(-1, 0.5)
    with pytest.raises(InputError):
        latency_estimate(100, 1.5)


def test_report_structure(report, dataset):
    _, y = dataset
    assert len(report.folds) == CONFIG.n_splits * CONFIG.n_repeats
    arms = {str(g) for g in CONFIG.gamma_grid} | {"1.0"}
    for f in report.folds:
        assert set(f.combined) == arms
        assert set(f.baseline) == ARM_KEYS
        for arm in f.combined.values():
            assert set(arm) == ARM_KEYS
        rows = sum(f.sizes[part]["rows"] for part in
                   ("train", "validation", "analysis", "holdout"))
        assert rows == y.size
        assert f.sizes["balanced"]["positives"] == f.sizes["train"]["positives"]
    assert {(f.repeat, f.fold) for f in report.folds} == {
        (r, k) for r in range(CONFIG.n_repeats) for k in range(CONFIG.n_splits)
    }


def test_sentinel_arm_equals_baseline(report):
    for f in report.folds:
        assert f.sentinel_equals_baseline
        sentinel = f.combined["1.0"]
        assert sentinel["routed_fraction"] == 0.0
        assert sentinel["latency_seconds"] == 0.0
        for key in ("ap", "aucpr", "precision", "recall"):
            if np.isnan(f.baseline[key]):
                assert np.isnan(sentinel[key])
            else:
                assert sentinel[key] == f.baseline[key]


def test_aggregates_recomputable_from_folds(report):
    for metric, stats in report.aggregates["baseline"].items():
        values = np.array([f.baseline[metric] for f in report.folds])
        valid = values[~np.isnan(values)]
        assert stats["n_valid"] == valid.size
        assert stats["mean"] == pytest.approx(valid.mean(), abs=1e-12)
        assert stats["median"] == pytest.approx(np.median(valid), abs=1e-12)
        if valid.size > 1:
            assert stats["std"] == pytest.approx(valid.std(ddof=1), abs=1e-12)
    for arm, metrics in report.aggregates["combined"].items():
        values = np.array([f.combined[arm]["ap"] for f in report.folds])
        valid = values[~np.isnan(values)]
        assert metrics["ap"]["mean"] == pytest.approx(valid.mean(), abs=1e-12)


def test_mean_routed_fraction_monotone(report):
    fractions = [
        report.aggregates["combined"][str(g)]["routed_fraction"]["mean"]
        for g in CONFIG.gamma_grid
    ]
    assert all(a >= b for a, b in zip(fractions, fractions[1:]))
    assert report.aggregates["combined"]["1.0"]["routed_fraction"]["mean"] == 0.0


def test_cross_validate_is_bit_deterministic(dataset, report):
    again = cross_validate(*dataset, CONFIG)
    assert json.dumps(report_to_dict(report), sort_keys=True) == json.dumps(
        report_to_dict(again), sort_keys=True
    )


# The console-script smoke step's config, and the report fields a BLAS kernel
# may move: the hybrid's GEMMs round by the kernel, so its validation scores,
# hence their Youden cut, may move by ulps. Its temperature read the same here.
SMOKE_CONFIG = {"synth_rows": 1500, "synth_fraud_rate": 0.02,
                "hybrid": {"encoder_hidden": [8], "n_qubits": 2, "n_layers": 1, "head_hidden": 4,
                           "batch_size": 16, "epochs": 2, "patience": 2},
                "expert": {"n_estimators": 20, "max_depth": 3},
                "router": {"n_estimators": 10, "max_depth": 3},
                "n_splits": 2, "n_repeats": 1, "seed": 5}
KERNEL_FIELDS = {"tau_secondary"}
_CORE_AND_REPORT = """
import ctypes, sys
from qmoe.bench import load_config, run_cv, save_report
corename = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_corename64_
corename.restype = ctypes.c_char_p
save_report(run_cv(load_config(sys.argv[2])), sys.argv[3])
print(corename().decode())
"""


def _dynamic_openblas():
    """The path of numpy's OpenBLAS and its core name, or a skip unless it is a
    DYNAMIC_ARCH build, which picks its kernels at load time (OPENBLAS_CORETYPE)."""
    import ctypes
    import glob
    import platform

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    if platform.machine() != "x86_64" or len(libs) != 1:
        pytest.skip("needs numpy's own scipy-openblas on x86-64")
    lib = ctypes.CDLL(libs[0])
    if not hasattr(lib, "scipy_openblas_get_config64_"):
        pytest.skip("needs the 64-bit-integer scipy-openblas")
    for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_corename64_"):
        getattr(lib, name).restype = ctypes.c_char_p
    if b"DYNAMIC_ARCH" not in lib.scipy_openblas_get_config64_():
        pytest.skip("numpy's OpenBLAS has one kernel set")
    return libs[0], lib.scipy_openblas_get_corename64_().decode()


def _leaves(doc, key=None):
    """``(key, leaf)`` for every scalar of a JSON document, in order."""
    if isinstance(doc, dict):
        return [leaf for k, v in doc.items() for leaf in _leaves(v, k)]
    if isinstance(doc, list):
        return [leaf for v in doc for leaf in _leaves(v, key)]
    return [(key, doc)]


def test_a_report_under_another_blas_kernel_moves_only_the_named_fields(tmp_path):
    # Equal bytes per seed on one BLAS kernel; on another (a forced core type,
    # in a subprocess, as OpenBLAS reads it at load time), only KERNEL_FIELDS
    # may move, within rel 1e-12.
    path, core = _dynamic_openblas()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.join(os.path.dirname(__file__), os.pardir, "src"), os.environ.get("PYTHONPATH")])))
    if "OPENBLAS_CORETYPE" in env:  # this process runs a forced core; the child, the CPU's own
        del env["OPENBLAS_CORETYPE"]
    else:
        env["OPENBLAS_CORETYPE"] = "Prescott"  # SSE3, which every x86-64 CPU runs
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMOKE_CONFIG))
    save_report(bench.run_cv(load_config(config)), tmp_path / "here")
    child = subprocess.run([sys.executable, "-c", _CORE_AND_REPORT, path, str(config),
                            str(tmp_path / "there")], env=env, check=True, capture_output=True,
                           text=True).stdout.strip()
    assert child != core
    here, there = (_leaves(json.loads((tmp_path / side / "report.json").read_text()))
                   for side in ("here", "there"))
    assert [key for key, _ in here] == [key for key, _ in there]
    for (key, a), (_, b) in zip(here, there):
        if key in KERNEL_FIELDS:
            assert b == pytest.approx(a, rel=1e-12, abs=0.0), key
        else:
            assert json.dumps(a) == json.dumps(b), key


def test_save_report_files(report, tmp_path):
    save_report(report, tmp_path)
    assert sorted(os.listdir(tmp_path)) == ["aggregates.csv", "folds.csv", "report.json"]
    with open(tmp_path / "report.json") as fh:
        loaded = json.load(fh)
    assert loaded["format"] == "qmoe-report" and loaded["version"] == 2
    assert len(loaded["folds"]) == len(report.folds)
    folds_lines = (tmp_path / "folds.csv").read_text().splitlines()
    arms_per_fold = 1 + len(CONFIG.gamma_grid) + 1  # baseline + grid + sentinel
    assert len(folds_lines) == 1 + len(report.folds) * arms_per_fold
    # repr-encoded floats in the CSV parse back to the exact values
    header = folds_lines[0].split(",")
    first = folds_lines[1].split(",")
    ap_col = header.index("ap")
    assert first[2] == "gbdt-baseline"
    assert float(first[ap_col]) == report.folds[0].baseline["ap"]


def test_latency_table_matches_aggregates(report):
    rows = latency_table(report, 14000)
    gammas = [r["gamma"] for r in rows]
    assert gammas == sorted(gammas)
    for row in rows:
        stored = report.aggregates["combined"][str(row["gamma"])]
        assert row["routed_fraction"] == stored["routed_fraction"]["mean"]
        assert row["seconds"] == pytest.approx(
            14000 * row["routed_fraction"] * 2.739
        )
        assert row["minutes"] == pytest.approx(row["seconds"] / 60.0)


@pytest.fixture(scope="module")
def one_class_report():
    # Two positives cannot reach every holdout, so some ranking metrics are NaN.
    rng = np.random.default_rng(0)
    x = rng.normal(size=(80, data.N_FEATURES))
    y = np.zeros(80)
    y[:2] = 1.0
    cfg = RunConfig(
        hybrid=HybridConfig(encoder_hidden=(4,), n_qubits=2, n_layers=1, head_hidden=2,
                            batch_size=8, epochs=1),
        expert=GBDTParams(n_estimators=5, max_depth=2),
        router=GBDTParams(n_estimators=5, max_depth=2),
        n_splits=2, n_repeats=1, seed=3,
    )
    return cross_validate(x, y, cfg)


def test_report_file_is_strict_json_and_round_trips(one_class_report, tmp_path):
    save_report(one_class_report, tmp_path)
    assert np.isnan(one_class_report.folds[0].baseline["ap"])

    def refuse(token):
        raise AssertionError(f"report.json holds the non-JSON token {token}")

    written = json.loads((tmp_path / "report.json").read_text(), parse_constant=refuse)
    assert written["folds"][0]["baseline"]["ap"] is None
    for path in (tmp_path, tmp_path / "report.json"):
        loaded = load_report(path)
        assert report_to_dict(loaded) == written
        assert latency_table(loaded, 14000) == latency_table(one_class_report, 14000)


def test_version_1_files_are_refused(model_doc, report, tmp_path):
    # Version 2 dropped GBDTParams.seed and RunConfig.out_dir and writes NaN as
    # null; model files then moved on to version 3 (one hybrid params list),
    # 4 (no decoder in it), 5 (forests fit on raw rows) and 6 (one flat
    # CombinedModel).
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**model_doc, "version": 1}))
    with pytest.raises(ModelIOError, match="has version 1, this build reads 6"):
        load_model(path)
    save_report(report, tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    (tmp_path / "report.json").write_text(json.dumps({**doc, "version": 1}))
    with pytest.raises(ModelIOError, match="has version 1, this build reads 2"):
        load_report(tmp_path)


def test_each_loader_refuses_the_other_format(model_doc, report, tmp_path):
    save_report(report, tmp_path)
    with pytest.raises(ModelIOError, match="report.json is not a qmoe-pipeline file"):
        load_model(tmp_path / "report.json")
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_doc))
    with pytest.raises(ModelIOError, match="model.json is not a qmoe-report file"):
        load_report(path)


def test_save_model_refuses_non_finite_numbers(model_doc, tmp_path):
    # Before, the file was written and then refused by load_model. The writer
    # streams, so a NaN found part way must leave no part-written file behind,
    # and no temp file, and must leave a file already at the path as it was.
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_doc))
    pipeline = load_model(path)
    pipeline.secondary.theta[3] = np.nan
    target = tmp_path / "nan-theta.json"
    with pytest.raises(ModelIOError, match=f"cannot write {target}"):
        save_model(pipeline, target)
    assert sorted(os.listdir(tmp_path)) == ["model.json"]  # no file, no temp file
    before = path.read_bytes()
    with pytest.raises(ModelIOError, match=f"cannot write {path}"):
        save_model(pipeline, path)
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["model.json"]


@pytest.mark.parametrize("exc", FAULTS, ids=["fault", "interrupt"])
@pytest.mark.parametrize("existing", [b"the old file\n", None], ids=["existing", "new"])
@pytest.mark.parametrize("name, writer, nth", [
    ("report.json", "json", 1), ("folds.csv", "csv", 1), ("aggregates.csv", "csv", 2),
], ids=["report.json", "folds.csv", "aggregates.csv"])
def test_save_report_replaces_each_file_whole(one_class_report, tmp_path, monkeypatch, name,
                                              writer, nth, existing, exc):
    # Before, the two CSVs were opened for writing: a fault part way left the
    # rows written so far in place of the old file.
    target = tmp_path / name
    if existing is not None:
        target.write_bytes(existing)
    fail_part_way(monkeypatch, writer, exc, nth)
    expect_kept(target, exc, ModelIOError, lambda: save_report(one_class_report, tmp_path))


@pytest.mark.parametrize("exc", FAULTS, ids=["fault", "interrupt"])
@pytest.mark.parametrize("existing", [b"the old file\n", None], ids=["existing", "new"])
def test_save_model_replaces_its_target_whole(model_doc, tmp_path, monkeypatch, existing, exc):
    pipeline = _load_edited(model_doc, lambda t: None, tmp_path)
    target = tmp_path / "out" / "model.json"
    target.parent.mkdir()
    if existing is not None:
        target.write_bytes(existing)
    fail_part_way(monkeypatch, "json", exc)
    expect_kept(target, exc, ModelIOError, lambda: save_model(pipeline, target))


def test_written_files_are_the_json_text_of_their_document(model_doc, one_class_report,
                                                           tmp_path):
    # The writer streams the text; its bytes are those of one json.dumps call.
    pipeline = _load_edited(model_doc, lambda t: None, tmp_path)
    save_model(pipeline, tmp_path / "model.json")
    doc = {"format": "qmoe-pipeline", "version": 6, **asdict(pipeline)}
    text = json.dumps(doc, allow_nan=False, default=lambda array: array.tolist())
    assert (tmp_path / "model.json").read_text() == text + "\n"
    save_report(one_class_report, tmp_path / "out")
    # A NaN metric is written as null, as a JSON round trip of the report gives it.
    doc = json.loads(json.dumps(report_to_dict(one_class_report)), parse_constant=lambda _: None)
    text = json.dumps(doc, indent=2, sort_keys=True)
    assert (tmp_path / "out" / "report.json").read_text() == text + "\n"


def test_save_model_holds_no_array_as_one_list(model_doc, tmp_path):
    # The paper hybrid's 49,319 params as one list of Python floats take about
    # 1.6 MB, and the file's text about 1 MB; the writer holds one row block.
    pipeline = _load_edited(model_doc, lambda t: None, tmp_path)
    pipeline.secondary = fresh_hybrid(HybridConfig(), np.random.default_rng(5))
    assert pipeline.secondary.params.size == 49_319
    tracemalloc.start()
    try:
        save_model(pipeline, tmp_path / "paper.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert os.path.getsize(tmp_path / "paper.json") > 10**6
    assert peak < 600_000


def test_load_config_takes_any_subset(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{}")
    assert load_config(path) == RunConfig()
    path.write_text(json.dumps({"n_splits": 4, "gamma_grid": [0.25, 0.75],
                                "hybrid": {"encoder_hidden": [8, 4]},
                                "router": {"n_estimators": 10}}))
    config = load_config(path)
    assert config.n_splits == 4 and config.n_repeats == RunConfig().n_repeats
    assert config.gamma_grid == (0.25, 0.75)
    assert config.hybrid == HybridConfig(encoder_hidden=(8, 4))
    # A nested object starts from RunConfig's default for that field.
    assert config.router == replace(router_params(), n_estimators=10)
    assert config.expert == GBDTParams()


def test_pipeline_round_trip(dataset, tmp_path):
    x, y = dataset
    record, pipeline = fit_pipeline(x, y, CONFIG)
    path = tmp_path / "model.json"
    save_model(pipeline, path)
    loaded = load_model(path)
    probe = x[:300]
    for gamma in (0.5, 0.9, 1.0):
        a = pipeline_predict(pipeline, probe, gamma)
        b = pipeline_predict(loaded, probe, gamma)
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.routed, b.routed)
    # Serialization is stable: saving the loaded pipeline reproduces the file.
    second = tmp_path / "model2.json"
    save_model(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_load_model_rejects_bad_files(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ModelIOError):
        load_model(missing)
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "other"}')
    with pytest.raises(ModelIOError, match="not a qmoe-pipeline file"):
        load_model(bad)
    wrong_version = tmp_path / "ver.json"
    wrong_version.write_text('{"format": "qmoe-pipeline", "version": 99}')
    with pytest.raises(ModelIOError, match="version"):
        load_model(wrong_version)
    truncated = tmp_path / "trunc.json"
    truncated.write_text('{"format": "qmoe-pipeline", "version": 6, "scaler"')
    with pytest.raises(ModelIOError, match="cannot read"):
        load_model(truncated)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)  # json.load raises RecursionError
    with pytest.raises(ModelIOError, match="cannot read model file"):
        load_model(deep)
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"format": "qmoe-pipeline", "version": 6, "scaler": {}}')
    with pytest.raises(ModelIOError, match="is malformed"):
        load_model(malformed)


def _first_fold(dataset):
    """The record and pipeline of the first fold, with its raw holdout rows and labels."""
    x, y = dataset
    train_idx, heldout_idx = next(stratified_repeated_kfold(y, CONFIG.n_splits, 1, CONFIG.seed))
    record, pipeline = fit_fold(CONFIG, x, y, train_idx, heldout_idx, 0, 0)
    holdout = split_eval(y, heldout_idx, seed=_fold_seeds(CONFIG.seed, 0, 0)[0]).holdout
    return record, pipeline, x[holdout], y[holdout]


def test_every_arm_equals_the_full_router_oracle(dataset):
    # The path fit_fold's arms once took: the router scored in full on the raw
    # rows and compared with gamma, the secondary scoring the routed rows,
    # scaled, in one call, each label at its owning expert's threshold. Every
    # arm's metrics must equal those of combined_predict's output bit for bit.
    record, combined, x_hold, y_hold = _first_fold(dataset)
    base = apply_temperature(combined.primary_scaler, combined.primary.predict_proba(x_hold))
    gate = combined.router.predict_proba(x_hold)
    routed_any = False
    for gamma in (*CONFIG.gamma_grid, bench.SENTINEL_GAMMA):
        routed = gate > gamma
        routed_any |= routed.any()
        probs = base.copy()
        if routed.any():
            handed = combined.scaler.transform(x_hold[routed])
            probs[routed] = apply_temperature(combined.secondary_scaler,
                                              combined.secondary.predict_proba(handed))
        labels = probs > np.where(routed, combined.tau_secondary, combined.tau_primary)
        want = bench._arm_metrics(y_hold, probs, labels.astype(np.float64), routed.mean(), [])
        assert json.dumps(record.combined[str(gamma)]) == json.dumps(want), gamma  # NaN equals NaN
    assert routed_any  # the secondary scored some arm's rows


def test_every_arm_equals_the_fold_pipeline_served_on_raw_rows(dataset):
    # The report scores what serving scores: each arm is pipeline_predict of
    # the fold's own pipeline on the raw holdout rows.
    record, pipeline, x_hold, y_hold = _first_fold(dataset)
    for gamma in (*CONFIG.gamma_grid, bench.SENTINEL_GAMMA):
        out = pipeline_predict(pipeline, x_hold, gamma)
        want = bench._arm_metrics(y_hold, out.probs, out.labels, out.routed_fraction, [])
        assert json.dumps(record.combined[str(gamma)]) == json.dumps(want), gamma
    assert any(arm["routed_fraction"] > 0 for arm in record.combined.values())


@pytest.mark.parametrize("name", ["expert", "router"])
def test_a_forest_fit_on_raw_rows_equals_the_one_fit_on_scaled_rows(name):
    # Exact greedy splits read only each column's order, which min-max scaling
    # keeps on the training rows: every array but the thresholds is equal, and
    # each raw threshold scales to the scaled forest's threshold. The primary
    # stops early on a validation part; the router fits without one.
    params = getattr(RunConfig(), name)
    x, y, _ = synthesize(3000, 0.05, seed=31)
    scaler = data.fit_minmax(x[:2000])

    def fit(rows):  # on the first 2,000 rows; the primary validates on the rest
        val = (rows[2000:], y[2000:]) if name == "expert" else ()
        return fit_gbdt(params, rows[:2000], y[:2000], *val)

    raw, scaled = fit(x), fit(scaler.transform(x))
    assert len(raw.trees) == len(scaled.trees) > 1 and raw.base_score == scaled.base_score
    for a, b in zip(raw.trees, scaled.trees):
        for field in ("feature", "left", "right", "value"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
        split = np.flatnonzero(a.feature >= 0)
        rows = np.zeros((split.size, x.shape[1]))
        rows[np.arange(split.size), a.feature[split]] = a.threshold[split]
        mapped = scaler.transform(rows)[np.arange(split.size), a.feature[split]]
        assert mapped.tobytes() == b.threshold[split].tobytes()
        assert a.threshold[a.feature < 0].tobytes() == b.threshold[b.feature < 0].tobytes()


def test_sentinel_check_sees_a_one_ulp_difference(dataset, monkeypatch):
    # Every arm, the sentinel's included, is combined_predict's output, while
    # the baseline scores the primary alone, so the check sees a one-ulp
    # difference in the sentinel arm's scores.
    real = bench.combined_predict

    def nudged(*args, **kwargs):
        out = real(*args, **kwargs)
        return replace(out, probs=np.nextafter(out.probs, np.inf))

    monkeypatch.setattr(bench, "combined_predict", nudged)
    record, _ = fit_pipeline(*dataset, CONFIG)
    assert not record.sentinel_equals_baseline


@pytest.fixture(scope="module")
def model_doc(dataset, tmp_path_factory):
    _, pipeline = fit_pipeline(*dataset, CONFIG)
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(pipeline, path)
    return json.loads(path.read_text())


def _split_tree(doc):
    """The first primary tree whose root splits, as an editable dict."""
    return next(t for t in doc["primary"]["trees"] if t["feature"][0] >= 0)


def _load_edited(doc, edit, tmp_path):
    doc = json.loads(json.dumps(doc))
    edit(_split_tree(doc))
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return load_model(path)


def test_load_model_rejects_cyclic_tree(model_doc, tmp_path):
    # Before validation this file loaded, and scoring with it never returned.
    def edit(t):
        t["left"][0] = 0
    with pytest.raises(ModelIOError, match="tree .*node 0: children"):
        _load_edited(model_doc, edit, tmp_path)


def chain(t, n_splits):
    """Make ``t`` a chain of ``n_splits`` splits, each with a leaf on its right."""
    n = 2 * n_splits + 1
    t.update(feature=[0, -1] * n_splits + [-1], threshold=[0.5] * n, value=[0.0] * n,
             left=[c for k in range(n_splits) for c in (2 * k + 2, -1)] + [-1],
             right=[c for k in range(n_splits) for c in (2 * k + 1, -1)] + [-1])


def test_load_model_rejects_a_tree_deeper_than_max_depth(model_doc, tmp_path):
    # A chain of 10,000 splits loaded before, and scored one split at a time.
    depth = model_doc["primary"]["params"]["max_depth"]
    _load_edited(model_doc, lambda t: chain(t, depth), tmp_path)
    for n_splits in (depth + 1, 10_000):
        with pytest.raises(ModelIOError, match=rf"tree \d+, node {2 * depth}: a split at depth "
                                               rf"{depth} makes the tree deeper than max_depth"):
            _load_edited(model_doc, lambda t: chain(t, n_splits), tmp_path)


def test_load_model_rejects_shared_child(model_doc, tmp_path):
    # The scorer drops a node's value once a parent has read it, so a second
    # parent would read nothing.
    def edit(t):
        t["right"][0] = t["left"][0]
    with pytest.raises(ModelIOError, match="tree .*node 1: a node must have at most one parent"):
        _load_edited(model_doc, edit, tmp_path)


def test_load_model_rejects_child_out_of_range(model_doc, tmp_path):
    def edit(t):
        t["right"][0] = len(t["right"])
    with pytest.raises(ModelIOError, match="must lie after the node and below"):
        _load_edited(model_doc, edit, tmp_path)


def test_load_model_rejects_leaf_feature_mismatch(model_doc, tmp_path):
    def split_without_children(t):
        leaf = t["feature"].index(-1)
        t["feature"][leaf] = 0

    def leaf_with_children(t):
        t["feature"][0] = -1

    for edit in (split_without_children, leaf_with_children):
        with pytest.raises(ModelIOError, match="leaf"):
            _load_edited(model_doc, edit, tmp_path)


def test_load_model_rejects_feature_out_of_range(model_doc, tmp_path):
    # Before validation this escaped from predict as a bare IndexError.
    n_features = model_doc["primary"]["n_features"]

    def edit(t):
        t["feature"][0] = n_features
    with pytest.raises(ModelIOError, match=f"feature {n_features} out of range"):
        _load_edited(model_doc, edit, tmp_path)


def test_load_model_rejects_mis_shaped_hybrid(model_doc, tmp_path):
    # Before validation these files loaded and failed at the first predict
    # with a ConfigurationError.
    def short_params(h):
        h["params"].pop()

    def long_params(h):
        h["params"].append(0.0)

    def wider_head(h):
        h["config"]["head_hidden"] += 1

    for edit in (short_params, long_params, wider_head):
        doc = json.loads(json.dumps(model_doc))
        edit(doc["secondary"])
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelIOError,
                           match="edited.json is malformed: secondary hybrid params has shape"):
            load_model(path)


def _set(path, value):
    """An edit that puts ``value`` at ``path`` (keys and indices) of a model document."""
    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return edit


def _in_first_split(role, edit):
    """``edit`` applied to the first splitting tree of ``role`` ("primary" or "router")."""
    def apply(doc):
        edit(next(t for t in doc[role]["trees"] if t["feature"][0] >= 0))
    return apply


def _leaf_value(t):
    t["value"][t["feature"].index(-1)] = float("inf")


def _in_params(part, value):
    """An edit that puts ``value`` into the hybrid's params at the flat offset
    of ``part(model)``, read off a model whose params count 0, 1, 2, ..."""
    def edit(doc):
        hybrid = doc["secondary"]
        config = HybridConfig(**hybrid["config"])
        counting = HybridModel(config, np.arange(config.n_params, dtype=np.float64))
        hybrid["params"][int(part(counting))] = value
    return edit


# Offsets in TINY_HYBRID's params: encoder (29->12->6->2) 452 values, theta 8,
# head (1->4->1) 13; the decoder is not in a model file.
_NON_FINITE_PARAMS = r"secondary params must be finite, found {} at index {}$"


NON_FINITE_EDITS = {
    "tree threshold": (_in_first_split("primary", _set(["threshold", 0], float("nan"))),
                       r"trees\[\d+\] threshold must be finite, found nan at index 0"),
    "tree leaf value": (_in_first_split("router", _leaf_value), r"trees\[\d+\] value must be finite"),
    "base_score": (_set(["router", "base_score"], float("-inf")),
                   "base_score must be finite"),
    "hybrid weights": (_in_params(lambda m: m.encoder[0][0][2, 1], float("nan")),
                       _NON_FINITE_PARAMS.format("nan", 2 * 29 + 1)),
    "hybrid bias": (_in_params(lambda m: m.encoder[1][1][0], float("nan")),
                    _NON_FINITE_PARAMS.format("nan", 12 * 29 + 12 + 6 * 12)),
    "hybrid head": (_in_params(lambda m: m.head[0][1][0], float("inf")),
                    _NON_FINITE_PARAMS.format("inf", 452 + 8 + 4)),
    "theta": (_in_params(lambda m: m.theta[3], float("nan")),
              _NON_FINITE_PARAMS.format("nan", 452 + 3)),
    "scaler low": (_set(["scaler", "low", 5], float("nan")), "scaler low must be finite"),
    "scaler span": (_set(["scaler", "span", 0], float("inf")), "scaler span must be finite"),
    "tau_primary": (_set(["tau_primary"], float("nan")),
                    "tau_primary must be finite"),
    "tau_secondary": (_set(["tau_secondary"], float("inf")),
                      "tau_secondary must be finite"),
    "primary temperature": (_set(["primary_scaler", "temperature"], float("nan")),
                            "primary_scaler temperature must be finite"),
    "secondary temperature": (_set(["secondary_scaler", "temperature"], 0.0),
                              "secondary_scaler temperature must be positive"),
}


# Finite scaler fields that are refused all the same: transform would read
# a negative span as 1, and a 2-D low fails only at the first routed row.
SCALER_EDITS = {
    "scaler span": (_set(["scaler", "span", 3], -0.5),
                    r"scaler span must not be negative, found -0.5 at index 3$"),
    "scaler low": (_set(["scaler", "low"], [[0.0] * data.N_FEATURES]),
                   r"scaler low and span must be 1-D of one length, found shapes \(1, 29\) "
                   r"and \(29,\)$"),
}


@pytest.mark.parametrize("group", sorted(SCALER_EDITS))
def test_load_model_rejects_a_hostile_scaler(model_doc, tmp_path, group):
    edit, match = SCALER_EDITS[group]
    doc = json.loads(json.dumps(model_doc))
    edit(doc)
    path = tmp_path / "scaler.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelIOError, match=match):
        load_model(path)


def _drop(path):
    """An edit that deletes the key at ``path`` of a model document."""
    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
    return edit


# level -> (path to the object, one of its keys, the dataclass it decodes to)
FIELD_LEVELS = {
    "combined": ([], "scaler", "CombinedModel"),  # the top level
    "scaler": (["scaler"], "span", "MinMaxScaler"),
    "gbdt": (["router"], "best_iteration", "GBDTModel"),
    "gbdt params": (["primary", "params"], "max_depth", "GBDTParams"),
    "tree": (["primary", "trees", 0], "value", "Tree"),
    "hybrid": (["secondary"], "params", "HybridModel"),
    "hybrid config": (["secondary", "config"], "patience", "HybridConfig"),
    "temperature scaler": (["secondary_scaler"], "nll", "TemperatureScaler"),
}


@pytest.mark.parametrize("change", ("unknown", "missing"))
@pytest.mark.parametrize("level", sorted(FIELD_LEVELS))
def test_load_model_requires_exactly_the_fields(model_doc, tmp_path, level, change):
    # Before the exact-field rule an unknown key loaded silently.
    path, key, name = FIELD_LEVELS[level]
    edit = _set([*path, "extra"], 1) if change == "unknown" else _drop([*path, key])
    doc = json.loads(json.dumps(model_doc))
    edit(doc)
    target = tmp_path / "fields.json"
    target.write_text(json.dumps(doc))
    with pytest.raises(ModelIOError, match=f"malformed: {name} "):
        load_model(target)


@pytest.mark.parametrize("group", sorted(NON_FINITE_EDITS))
def test_load_model_rejects_non_finite_numbers(model_doc, tmp_path, group):
    # Before these checks a NaN threshold sent every row right, and a NaN in
    # theta or an encoder bias loaded and failed at the first routed row.
    edit, match = NON_FINITE_EDITS[group]
    doc = json.loads(json.dumps(model_doc))
    edit(doc)
    path = tmp_path / "non-finite.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity tokens, as json.load reads them
    with pytest.raises(ModelIOError, match=match):
        load_model(path)


def test_model_file_key_order(model_doc):
    # save_model writes without sort_keys, so the key order is part of the
    # file's bytes; a reordered dataclass field would show up here.
    gbdt_keys = ["params", "n_features", "base_score", "degenerate", "best_iteration", "trees"]
    temperature_keys = ["temperature", "nll", "iterations", "degenerate"]
    assert list(model_doc) == ["format", "version", "scaler", "primary", "primary_scaler",
                               "secondary", "secondary_scaler", "router", "tau_primary",
                               "tau_secondary"]
    assert list(model_doc["scaler"]) == ["low", "span"]
    assert list(model_doc["primary"]) == gbdt_keys
    assert list(model_doc["router"]) == gbdt_keys
    assert list(model_doc["primary"]["trees"][0]) == ["feature", "threshold", "left", "right",
                                                      "value"]
    assert list(model_doc["secondary"]) == ["config", "params"]
    assert list(model_doc["primary_scaler"]) == temperature_keys
    assert list(model_doc["secondary_scaler"]) == temperature_keys


def test_version_3_files_are_refused(model_doc, tmp_path):
    # Version 3 held the decoder in the hybrid's params, between the encoder
    # and theta; its params are longer than a version-4 config reads.
    doc = json.loads(json.dumps(model_doc))
    hybrid_doc = doc["secondary"]
    config = HybridConfig(**hybrid_doc["config"])
    sizes = config.decoder_spec.layer_sizes
    decoder = [0.0] * sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))
    encoder = config.n_params - config.ansatz.n_params - 13  # TINY_HYBRID's head: 13
    params = hybrid_doc["params"]
    hybrid_doc["params"] = params[:encoder] + decoder + params[encoder:]
    path = tmp_path / "version-3.json"
    path.write_text(json.dumps({**doc, "version": 3}))
    with pytest.raises(ModelIOError, match="has version 3, this build reads 6"):
        load_model(path)


def _nested(doc):
    """``doc`` in the layout of versions 4 and 5: the scaler beside the rest
    of the model, nested under "combined"."""
    rest = {k: v for k, v in doc.items() if k not in ("format", "version", "scaler")}
    return {"format": doc["format"], "version": doc["version"], "scaler": doc["scaler"],
            "combined": rest}


def test_version_4_files_are_refused(model_doc, tmp_path):
    # A version-4 file has the layout of version 5, but its forests were fit
    # on scaled rows: served raw rows, they would score wrongly without error.
    path = tmp_path / "version-4.json"
    path.write_text(json.dumps({**_nested(model_doc), "version": 4}))
    with pytest.raises(ModelIOError, match="has version 4, this build reads 6"):
        load_model(path)


def test_version_5_files_are_refused(model_doc, tmp_path):
    # Version 5 held the same model with its scaler outside it: the version
    # names the layout, so the file is refused by its version, not read as
    # a malformed version 6.
    path = tmp_path / "version-5.json"
    path.write_text(json.dumps({**_nested(model_doc), "version": 5}))
    with pytest.raises(ModelIOError, match=r"version-5\.json has version 5, this build reads 6$"):
        load_model(path)


def test_only_a_hybrid_secondary_is_persisted(model_doc, tmp_path):
    # A file carrying a well-formed GBDT secondary, as older builds wrote,
    # with or without their "kind" tag.
    path = tmp_path / "model.json"
    for tag in ({"kind": "gbdt"}, {"kind": "forest"}, {}):
        doc = json.loads(json.dumps(model_doc))
        doc["secondary"] = {**tag, **doc["primary"]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelIOError, match="malformed: HybridModel has unknown fields"):
            load_model(path)


def test_load_model_checks_the_scaler_width(model_doc, tmp_path):
    # Before this check the file loaded and the first predict failed with an
    # InputError that named neither the file nor the scaler.
    for name in ("low", "span"):
        doc = json.loads(json.dumps(model_doc))
        doc["scaler"][name].pop()
        path = tmp_path / f"short-{name}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelIOError, match=f"short-{name}.json is malformed: scaler low "
                                               f"and span must be 1-D of one length"):
            load_model(path)
    doc = json.loads(json.dumps(model_doc))
    for name in ("low", "span"):
        doc["scaler"][name].pop()
    path = tmp_path / "short-scaler.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelIOError, match=re.escape("short-scaler.json is malformed: the "
                                                     "model's feature counts differ: "
                                                     "{'scaler': 28, 'primary': 29")):
        load_model(path)
    doc = json.loads(json.dumps(model_doc))
    doc["router"]["n_features"] += 1
    path = tmp_path / "wide-router.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelIOError, match="feature counts differ"):
        load_model(path)


@pytest.mark.parametrize("name", ["tau_primary", "tau_secondary"])
def test_load_model_checks_the_thresholds(model_doc, tmp_path, name):
    # A threshold above 1 labels none of its expert's rows positive, one
    # below 0 all of them; Youden's endpoints 0 and 1 themselves are legal.
    for value in (0.0, 1.0):
        doc = json.loads(json.dumps(model_doc))
        doc[name] = value
        path = tmp_path / f"edge-{value}.json"
        path.write_text(json.dumps(doc))
        assert getattr(load_model(path), name) == value
    for value in (5.0, -1.0, np.nextafter(1.0, 2.0), -5e-324):
        doc = json.loads(json.dumps(model_doc))
        doc[name] = value
        path = tmp_path / "bad-tau.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelIOError,
                           match=rf"bad-tau.json is malformed: {name} must be in \[0, 1\]"):
            load_model(path)


@pytest.mark.parametrize("name", ["tau_primary", "tau_secondary"])
def test_a_combined_model_checks_its_thresholds(model_doc, tmp_path, name):
    # Before the check moved into CombinedModel, only load_model ran it:
    # replace(combined, tau_primary=1.5), as qmoe calibrate builds its model,
    # made a model that saved and labeled none of its expert's rows positive.
    combined = _load_edited(model_doc, lambda t: None, tmp_path)
    with pytest.raises(ConfigurationError, match=rf"^{name} must be in \[0, 1\], found 1.5"):
        replace(combined, **{name: 1.5})


def test_a_combined_model_checks_its_experts_widths(model_doc, tmp_path):
    # Before the check moved into CombinedModel, a router fit on 10 of the 29
    # features, built in code, routed rows with no error.
    combined = _load_edited(model_doc, lambda t: None, tmp_path)
    rng = np.random.default_rng(4)
    narrow = fit_router(rng.normal(size=(200, 10)), (rng.random(200) < 0.3) * 1.0,
                        router_params())
    with pytest.raises(ConfigurationError, match=r"^the model's feature counts differ: "
                       r"\{'scaler': 29, 'primary': 29, 'router': 10, 'secondary': 29\}"):
        replace(combined, router=narrow)


def test_a_pipeline_checks_its_scaler_width(model_doc, tmp_path):
    # Before the width check ran where the model is built, a 28-column scaler
    # over 29-feature experts was built in code and failed only at its first
    # scoring.
    model = _load_edited(model_doc, lambda t: None, tmp_path)
    narrow = MinMaxScaler(low=model.scaler.low[:28], span=model.scaler.span[:28])
    with pytest.raises(ConfigurationError, match=r"^the model's feature counts differ: "
                       r"\{'scaler': 28, 'primary': 29, 'router': 29, 'secondary': 29\}"):
        replace(model, scaler=narrow)


def test_scoring_leaves_the_model_file_unchanged(model_doc, tmp_path):
    # A forest keeps the scoring plan of its first scoring, outside its
    # fields, so a scored pipeline saves the file of an unscored one.
    pipeline = _load_edited(model_doc, lambda t: None, tmp_path)
    unscored, scored = tmp_path / "unscored.json", tmp_path / "scored.json"
    save_model(pipeline, unscored)
    x, _, _ = synthesize(1000, 0.05, seed=22)
    for gamma in (1.0, 0.5, 1e-3):
        pipeline_predict(pipeline, x, gamma)
    save_model(pipeline, scored)
    assert scored.read_bytes() == unscored.read_bytes()


def test_pipeline_predict_is_batch_invariant(model_doc, tmp_path):
    # One call over a pool spanning several prediction blocks scores every
    # row exactly as calls on uneven slices of it do.
    pipeline = _load_edited(model_doc, lambda t: None, tmp_path)
    n_rows = 3 * errors._BLOCK_ROWS + 100
    x, _, _ = synthesize(n_rows, 0.05, seed=21)
    gate = pipeline.router.predict_proba(x)
    routing_gamma = float(np.quantile(gate, 0.95))
    cuts = [0, 1, 700, errors._BLOCK_ROWS + 3, 2 * errors._BLOCK_ROWS, n_rows - 5, n_rows]
    for gamma in (1.0, routing_gamma):
        whole = pipeline_predict(pipeline, x, gamma)
        parts = [pipeline_predict(pipeline, x[a:b], gamma) for a, b in zip(cuts, cuts[1:])]
        for name in ("probs", "labels", "routed"):
            joined = np.concatenate([getattr(part, name) for part in parts])
            got = getattr(whole, name)
            assert got.dtype == joined.dtype and got.tobytes() == joined.tobytes(), name
        assert whole.routed.any() == (gamma < 1.0)


def test_pipeline_predict_is_batch_invariant_at_the_paper_shape(model_doc, tmp_path):
    # The twin of the 2-qubit test above with the paper's 6-qubit hybrid as
    # the secondary: uneven slices, each routing a different number of
    # rows to it, score every row as one call over the pool does.
    pipeline = _load_edited(model_doc, lambda t: None, tmp_path)
    pipeline.secondary = fresh_hybrid(HybridConfig(), np.random.default_rng(5))
    n_rows = 3 * errors._BLOCK_ROWS + 100
    x, _, _ = synthesize(n_rows, 0.05, seed=23)
    gate = pipeline.router.predict_proba(x)
    gamma = float(np.quantile(gate, 0.9))
    cuts = [0, 1, 3, 700, errors._BLOCK_ROWS + 3, 2 * errors._BLOCK_ROWS, n_rows - 1, n_rows]
    whole = pipeline_predict(pipeline, x, gamma)
    assert whole.routed.sum() > 2 * hybrid._EVAL_CHUNK
    parts = [pipeline_predict(pipeline, x[a:b], gamma) for a, b in zip(cuts, cuts[1:])]
    for name in ("probs", "labels", "routed"):
        joined = np.concatenate([getattr(part, name) for part in parts])
        got = getattr(whole, name)
        assert got.dtype == joined.dtype and got.tobytes() == joined.tobytes(), name


def test_pipeline_predict_equals_the_whole_pool_oracle_at_the_paper_shape(model_doc, tmp_path):
    # The paper's 6-qubit hybrid is not batch-invariant, so block serving
    # must hand it the routed rows of every block in one call, as one
    # whole-pool scoring does; and it must hold O(block) memory.
    combined = _load_edited(model_doc, lambda t: None, tmp_path)
    combined.secondary = fresh_hybrid(HybridConfig(), np.random.default_rng(5))
    n_rows = 16 * errors._BLOCK_ROWS + 100
    x, _, _ = synthesize(n_rows, 0.05, seed=22)
    gate = combined.router.predict_proba(x)
    gamma = float(np.quantile(gate, 0.99))
    routed = gate > gamma
    assert np.unique(np.flatnonzero(routed) // errors._BLOCK_ROWS).size >= 2
    probs = apply_temperature(combined.primary_scaler, combined.primary.predict_proba(x))
    handed = combined.scaler.transform(x[routed])
    probs[routed] = apply_temperature(combined.secondary_scaler,
                                      combined.secondary.predict_proba(handed))
    labels = (probs > np.where(routed, combined.tau_secondary, combined.tau_primary))
    del gate, handed
    tracemalloc.start()
    try:
        out = pipeline_predict(combined, x, gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for name, want in (("probs", probs), ("labels", labels.astype(np.float64)),
                       ("routed", routed)):
        got = getattr(out, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert peak < x.nbytes / 4


@pytest.mark.parametrize("routed_share", [0.0, 0.01])
def test_a_whole_pool_call_holds_a_few_blocks(model_doc, tmp_path, routed_share):
    # Beyond its outputs (probs, the copy routing writes, labels and the
    # routed mask), a call holds one scaled block and what one block's
    # scoring needs; the transposed copies per forest and block are gone.
    pipeline = _load_edited(model_doc, lambda t: None, tmp_path)
    x, _, _ = synthesize(8 * errors._BLOCK_ROWS, 0.05, seed=23)
    gamma = 1.0
    if routed_share:
        gate = pipeline.router.predict_proba(x)
        gamma = float(np.quantile(gate, 1.0 - routed_share))
    pipeline_predict(pipeline, x[:10], gamma)  # each forest's plan is built before the trace
    tracemalloc.start()
    try:
        out = pipeline_predict(pipeline, x, gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.routed.any() == bool(routed_share)
    block = errors._BLOCK_ROWS * x.shape[1] * x.itemsize
    assert peak - 3 * out.probs.nbytes - out.routed.nbytes < 1.5 * block


def test_serving_saves_nothing_of_the_folded_forests(model_doc, tmp_path):
    # The forests read raw rows as fit, so serving folds nothing into them and
    # keeps nothing on the combined model: the model file keeps its bytes.
    pipeline = _load_edited(model_doc, lambda t: None, tmp_path)
    save_model(pipeline, tmp_path / "before.json")
    x, _, _ = synthesize(1000, 0.05, seed=23)
    assert pipeline_predict(pipeline, x, 0.5).routed.any()
    assert set(vars(pipeline)) == {f.name for f in fields(CombinedModel)}
    save_model(pipeline, tmp_path / "after.json")
    assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()


def test_pipeline_predict_rejects_non_finite_raw_rows(dataset, model_doc, tmp_path):
    pipeline = _load_edited(model_doc, lambda t: None, tmp_path)
    x = dataset[0][:50].copy()
    x[7, 3] = np.inf  # the scaler alone would clip this into range
    with pytest.raises(InputError, match=r"row indices \[7\]"):
        pipeline_predict(pipeline, x, 0.5)


def test_holdout_rows_influence_nothing_upstream(dataset, tmp_path):
    # Features only: split_eval stratifies on the held-out labels.
    x, y = dataset
    train_idx, heldout_idx = np.arange(0, len(y), 2), np.arange(1, len(y), 2)
    holdout = split_eval(y, heldout_idx, seed=_fold_seeds(CONFIG.seed, 0, 0)[0]).holdout
    moved = x.copy()
    moved[holdout] = np.random.default_rng(4).uniform(-50.0, 50.0, size=(holdout.size, x.shape[1]))
    models, baselines = [], []
    for rows in (x, moved):
        record, pipeline = fit_fold(CONFIG, rows, y, train_idx, heldout_idx, 0, 0)
        path = tmp_path / "model.json"
        save_model(pipeline, path)
        models.append(path.read_bytes())
        baselines.append(record.baseline)
    assert baselines[0] != baselines[1]  # the holdout was scored on the moved rows
    assert models[0] == models[1]


def test_fold_memory_scales_with_the_rows_it_reads():
    # The training split dwarfs the balanced set it is undersampled to, so a
    # fold that copied (or scaled) the split would hold at least one copy of
    # it at its peak. The peak here is the router fit on the analysis part.
    n = 100_000
    x, y, _ = synthesize(n, seed=2)
    desk = HybridConfig(n_features=29, encoder_hidden=(64, 32), n_qubits=3, n_layers=2,
                        head_hidden=8, recon_weight=0.5, batch_size=8, epochs=5,
                        learning_rate=0.01, patience=5, seed=0)
    tracemalloc.start()
    try:
        record, _ = fit_pipeline(x, y, RunConfig(hybrid=desk, seed=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    train_rows = record.sizes["train"]["rows"]
    assert record.sizes["balanced"]["rows"] < train_rows / 100
    assert peak < train_rows * x.shape[1] * x.itemsize


def test_fold_seeds_are_distinct_and_stable():
    a = _fold_seeds(7, 0, 0)
    b = _fold_seeds(7, 0, 0)
    c = _fold_seeds(7, 0, 1)
    d = _fold_seeds(7, 1, 0)
    assert a == b
    assert len({a, c, d}) == 3
    assert len(set(a)) == 3  # the three per-fold streams differ too


def test_degenerate_holdout_is_flagged_not_dropped():
    # Two positives cannot reach every sub-split: holdout gets none, the
    # fold keeps its entry with NaN ranking metrics and says why.
    rng = np.random.default_rng(0)
    x = rng.normal(size=(80, data.N_FEATURES))
    y = np.zeros(80)
    y[:2] = 1.0
    cfg = RunConfig(
        hybrid=HybridConfig(
            encoder_hidden=(4,), n_qubits=2, n_layers=1,
            head_hidden=2, batch_size=8, epochs=1, seed=0,
        ),
        expert=GBDTParams(n_estimators=5, max_depth=2),
        router=GBDTParams(n_estimators=5, max_depth=2),
        n_splits=2, n_repeats=1, seed=3,
    )
    train_idx = np.arange(0, 80, 2)
    heldout_idx = np.arange(1, 80, 2)
    record, _ = fit_fold(cfg, x, y, train_idx, heldout_idx, 0, 0)
    assert np.isnan(record.baseline["ap"])
    assert any("one class" in w or "no positive rows" in w for w in record.warnings)
    assert record.sentinel_equals_baseline
    assert set(record.combined) == {str(g) for g in cfg.gamma_grid} | {"1.0"}


def test_fit_fold_rejects_non_finite_holdout_rows(dataset):
    # The arms reuse one scoring of the holdout, so the fold checks it up front.
    x, y = dataset
    train_idx, heldout_idx = np.arange(0, len(y), 2), np.arange(1, len(y), 2)
    split_seed = _fold_seeds(CONFIG.seed, 0, 0)[0]
    holdout = split_eval(y, heldout_idx, seed=split_seed).holdout
    bad = x.copy()
    bad[holdout[3], 4] = np.nan
    with pytest.raises(InputError, match="finite"):
        fit_fold(CONFIG, bad, y, train_idx, heldout_idx, 0, 0)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("part", ["validation", "analysis", "holdout", "train"])
def test_fit_fold_names_the_non_finite_dataset_row(dataset, part, value):
    # Scaling clips an infinity into range, so the raw rows are checked
    # before it, in every part of the fold.
    x, y = dataset
    train_idx, heldout_idx = np.arange(0, len(y), 2), np.arange(1, len(y), 2)
    parts = split_eval(y, heldout_idx, seed=_fold_seeds(CONFIG.seed, 0, 0)[0])
    row = int((train_idx if part == "train" else getattr(parts, part))[5])
    bad = x.copy()
    bad[row, 7] = value
    with pytest.raises(InputError, match=rf"finite.*row indices \[{row}\]"):
        fit_fold(CONFIG, bad, y, train_idx, heldout_idx, 0, 0)


# cross_validate fits its folds on one worker per usable CPU, the process
# itself and forked children (patched here to 1, 2 and 3 workers over
# CONFIG's 6 folds, in contiguous ranges of 6, 3 and 2): the report and the
# errors are those of a serial run, and no child outlives the call.

WORKERS = (1, 2, 3)


def _report_bytes(dataset, out_dir):
    save_report(cross_validate(*dataset, CONFIG), out_dir)
    return (out_dir / "report.json").read_bytes()


@pytest.fixture(scope="module")
def serial_report_bytes(dataset, tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("qmoe.workers.usable_cpus", lambda: 1)
        return _report_bytes(dataset, tmp_path_factory.mktemp("serial"))


@pytest.mark.parametrize("workers", WORKERS)
def test_report_bytes_do_not_depend_on_the_workers(dataset, serial_report_bytes, tmp_path,
                                                   monkeypatch, workers):
    monkeypatch.setattr("qmoe.workers.usable_cpus", lambda: workers)
    assert _report_bytes(dataset, tmp_path) == serial_report_bytes
    _no_children_left()


@pytest.mark.parametrize("workers", WORKERS)
def test_a_refused_fork_fits_its_folds_in_the_process(dataset, serial_report_bytes, tmp_path,
                                                      monkeypatch, workers):
    import errno

    def refused():
        raise OSError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr("qmoe.workers.usable_cpus", lambda: workers)
    monkeypatch.setattr(os, "fork", refused)
    assert _report_bytes(dataset, tmp_path) == serial_report_bytes
    _no_children_left()


def _failing_at(monkeypatch, failing):
    """Make ``bench.fit_fold`` raise at the folds numbered ``failing``, in whichever
    process fits them; the others are fitted as usual."""
    real = bench.fit_fold

    def fit_fold(config, x, y, train_idx, heldout_idx, repeat, fold):
        i = repeat * config.n_splits + fold
        if i in failing:
            raise InputError(f"fold {i} refused")
        return real(config, x, y, train_idx, heldout_idx, repeat, fold)

    monkeypatch.setattr(bench, "fit_fold", fit_fold)


@pytest.mark.parametrize("workers", WORKERS)
def test_a_fold_failing_in_a_child_raises_as_the_serial_cv_does(dataset, capfd, monkeypatch,
                                                                workers):
    _failing_at(monkeypatch, {5})  # the last worker's last fold: a child's at 2 and 3 workers
    monkeypatch.setattr("qmoe.workers.usable_cpus", lambda: workers)
    with pytest.raises(InputError, match="^fold 5 refused$"):
        cross_validate(*dataset, CONFIG)
    _no_children_left()
    assert capfd.readouterr().err == ""  # the children wrote nothing


@pytest.mark.parametrize("workers", WORKERS)
def test_the_lowest_failing_fold_names_the_error(dataset, monkeypatch, workers):
    # Folds 3 and 5 fail: on one child at 2 workers, which stops at fold 3, and
    # on two children at 3 workers, where fold 3's worker is the lower one.
    # Either way the serial CV's first error is raised.
    _failing_at(monkeypatch, {3, 5})
    monkeypatch.setattr("qmoe.workers.usable_cpus", lambda: workers)
    with pytest.raises(InputError, match="^fold 3 refused$"):
        cross_validate(*dataset, CONFIG)
    _no_children_left()


@pytest.mark.parametrize("workers", WORKERS)
def test_an_interrupt_in_the_parents_fold_kills_the_children(dataset, monkeypatch, workers):
    import time

    parent = os.getpid()

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(30)  # a child that is not killed holds the test up

    monkeypatch.setattr(bench, "fit_fold", interrupted)
    monkeypatch.setattr("qmoe.workers.usable_cpus", lambda: workers)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        cross_validate(*dataset, CONFIG)
    _no_children_left()
    assert time.perf_counter() - start < 10
