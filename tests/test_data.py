"""Data-layer tests: CSV round trips, scaling, sampling, splits, synth."""

import csv
import itertools
import json
import os
import re
import warnings

import numpy as np
import pytest

from qmoe import data, workers
from qmoe.data import (
    CSV_HEADER,
    N_FEATURES,
    EvalSplit,
    MinMaxScaler,
    fit_minmax,
    load_csv,
    save_csv,
    split_eval,
    stratified_repeated_kfold,
    synthesize,
    undersample,
)
from qmoe.errors import (_BLOCK_ROWS, ConfigurationError, DataError, InputError,
                         require_finite_rows)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(20, N_FEATURES))
    y = (rng.random(20) < 0.3).astype(float)
    path = tmp_path / "txn.csv"
    save_csv(path, x, y)
    x2, y2 = load_csv(path)
    assert np.array_equal(x, x2)  # repr floats survive the trip exactly
    assert np.array_equal(y, y2)


def test_csv_header_is_the_card_layout(tmp_path):
    path = tmp_path / "txn.csv"
    save_csv(path, np.zeros((1, N_FEATURES)), np.zeros(1))
    first = path.read_text().splitlines()[0]
    assert first.split(",") == CSV_HEADER
    assert first.startswith("Time,V1,") and first.endswith("Amount,Class")


@pytest.mark.parametrize("label", [0.7, 2.0, np.nan])
def test_save_csv_refuses_a_label_load_csv_would_refuse_or_read_back_changed(tmp_path, label):
    # 0.7 was written as 0, 2.0 as a 2 load_csv refuses, and NaN raised a bare
    # ValueError after the header was written.
    path = tmp_path / "txn.csv"
    with pytest.raises(InputError, match="^Class labels must be 0 or 1; 1 are not"):
        save_csv(path, np.zeros((3, N_FEATURES)), np.array([0.0, label, 1.0]))
    assert not path.exists()


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DataError, match="header"):
        load_csv(path)


def test_csv_reports_bad_cell_position(tmp_path):
    path = tmp_path / "bad.csv"
    save_csv(path, np.zeros((2, N_FEATURES)), np.zeros(2))
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[3] = "oops"
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="line 3.*V3.*oops"):
        load_csv(path)


def test_csv_rejects_short_row_and_bad_class(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(CSV_HEADER) + "\n1,2\n")
    with pytest.raises(DataError, match="line 2 has 2 fields"):
        load_csv(path)
    row = ["0.0"] * (len(CSV_HEADER) - 1) + ["2"]
    path.write_text(",".join(CSV_HEADER) + "\n" + ",".join(row) + "\n")
    with pytest.raises(DataError, match="Class must be 0 or 1"):
        load_csv(path)


def test_minmax_maps_train_to_unit_box():
    rng = np.random.default_rng(2)
    x = rng.normal(0, 10, size=(50, 4))
    scaler = fit_minmax(x)
    out = scaler.transform(x)
    assert out.min() == 0.0 and out.max() == 1.0
    assert np.all((out >= 0) & (out <= 1))


def test_minmax_clips_unseen_range():
    scaler = fit_minmax([[0.0], [1.0]])
    out = scaler.transform([[-5.0], [0.25], [99.0]])
    assert out[:, 0] == pytest.approx([0.0, 0.25, 1.0])


def test_minmax_constant_column_maps_to_zero():
    scaler = fit_minmax([[3.0, 1.0], [3.0, 2.0]])
    out = scaler.transform([[3.0, 1.5], [7.0, 1.0]])
    assert out[:, 0] == pytest.approx([0.0, 0.0])
    assert out[:, 1] == pytest.approx([0.5, 0.0])


def test_a_scaler_checks_its_own_fields():
    # Before these checks a negative span was served as a span of 1, and a
    # ragged or 2-D scaler failed only at its first transform.
    with pytest.raises(ConfigurationError, match=re.escape(
            "span must not be negative, found -2.0 at index 1")):
        MinMaxScaler(low=np.zeros(3), span=np.array([1.0, -2.0, -1.0]))
    for low, span in ((np.zeros(3), np.ones(2)), (np.zeros((1, 3)), np.ones((1, 3))),
                      (np.zeros(()), np.ones(()))):
        with pytest.raises(ConfigurationError, match=re.escape(
                f"low and span must be 1-D of one length, found shapes {low.shape} and "
                f"{span.shape}")):
            MinMaxScaler(low=low, span=span)
    assert MinMaxScaler(low=np.ones(3), span=np.zeros(3)).n_features == 3  # constant columns


def test_undersample_keeps_minority_and_balances():
    y = np.r_[np.ones(30), np.zeros(270)]
    idx = undersample(y, majority_ratio=1.0, seed=5)
    assert (y[idx] == 1).sum() == 30
    assert (y[idx] == 0).sum() == 30
    assert np.all(np.diff(idx) > 0)  # original order, no duplicates
    assert set(np.nonzero(y == 1)[0]) <= set(idx.tolist())

    idx3 = undersample(y, majority_ratio=3.0, seed=5)
    assert (y[idx3] == 0).sum() == 90


@pytest.mark.parametrize("ratio", [1e300, 1e308, np.inf])  # 30 * 1e308 overflows to inf
def test_undersample_past_the_pool_keeps_every_row(ratio):
    y = np.r_[np.ones(30), np.zeros(270)]
    assert np.array_equal(undersample(y, majority_ratio=ratio, seed=5), np.arange(300))


def test_undersample_is_seeded():
    y = np.r_[np.ones(10), np.zeros(90)]
    a = undersample(y, seed=1)
    b = undersample(y, seed=1)
    c = undersample(y, seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("labels, named", [
    ([], "shape (0,)"),
    ([0.0, 2.0], "[2.0]"),  # no row of either class would be kept
    ([0.0, 1.0, np.nan, 0.0], "[nan]"),  # NaN is neither class, not a majority row
    ([[0.0, 1.0], [1.0, 0.0]], "shape (2, 2)"),
])
def test_undersample_refuses_labels_other_than_0_and_1(labels, named):
    with pytest.raises(InputError, match="undersampling (needs|labels must be 0 or 1)") as info:
        undersample(np.asarray(labels), seed=0)
    assert named in str(info.value)


def test_kfold_partitions_every_repeat():
    y = np.r_[np.ones(13), np.zeros(87)]
    splits = list(stratified_repeated_kfold(y, n_splits=5, n_repeats=3, seed=0))
    assert len(splits) == 15
    for r in range(3):
        covered = np.concatenate([t for _, t in splits[r * 5 : (r + 1) * 5]])
        assert np.array_equal(np.sort(covered), np.arange(100))
    for train, test in splits:
        assert np.array_equal(np.union1d(train, test), np.arange(100))
        assert np.intersect1d(train, test).size == 0
        # Round-robin dealing keeps per-fold class counts within one row.
        assert (y[test] == 1).sum() in (2, 3)
        assert test.size in (19, 20, 21)


def test_kfold_repeats_differ_and_seed_reproduces():
    y = np.r_[np.ones(10), np.zeros(40)]
    a = list(stratified_repeated_kfold(y, 5, 2, seed=9))
    b = list(stratified_repeated_kfold(y, 5, 2, seed=9))
    assert all(np.array_equal(ta, tb) for (_, ta), (_, tb) in zip(a, b))
    first, second = a[0][1], a[5][1]
    assert not np.array_equal(first, second)


@pytest.mark.parametrize("args, message", [
    ((1, 3), "n_splits must be >= 2"),
    ((5, 0), "n_repeats must be >= 1"),
    ((11, 1), "10 rows cannot fill 11 folds"),
])
def test_kfold_checks_its_arguments_when_called(args, message):
    # Raised at the call, before anything iterates the splits.
    with pytest.raises(InputError, match=message):
        stratified_repeated_kfold(np.r_[np.ones(2), np.zeros(8)], *args)


def test_kfold_yields_one_split_at_a_time():
    splits = stratified_repeated_kfold(np.r_[np.ones(12), np.zeros(88)], 4, 2, seed=3)
    assert iter(splits) is splits  # an iterator, not a list of every split
    assert len(list(splits)) == 8


def test_minmax_over_row_indices_equals_the_gathered_rows():
    # Rows span four blocks; in the selection, column 0's zeros sit either
    # side of the first block boundary (0.0 last in a block, -0.0 first in
    # the next) and column 1's the other way round, so the fold across
    # blocks must keep whichever zero a one-piece fit keeps.
    rng = np.random.default_rng(11)
    n = 4 * _BLOCK_ROWS
    x = rng.normal(size=(n, 4))
    rows = np.sort(rng.choice(n, size=3 * _BLOCK_ROWS + 77, replace=False))
    x[:, :2] = np.abs(x[:, :2]) + 1.0  # zero is each column's minimum
    x[:, 2] = -np.abs(x[:, 2]) - 1.0  # and its maximum
    before, after = rows[_BLOCK_ROWS - 1], rows[_BLOCK_ROWS]
    x[[before, after], 0] = 0.0, -0.0
    x[[before, after], 1] = -0.0, 0.0
    x[[before, after], 2] = 0.0, -0.0
    gathered = fit_minmax(x[rows])
    indexed = fit_minmax(x, rows)
    for name in ("low", "span"):
        assert getattr(indexed, name).tobytes() == getattr(gathered, name).tobytes(), name
    assert indexed.low.tobytes() == x[rows].min(axis=0).tobytes()
    high = x[rows].max(axis=0)
    assert indexed.span.tobytes() == (high - indexed.low).tobytes()
    assert fit_minmax(x).low.tobytes() == fit_minmax(x, np.arange(n)).low.tobytes()
    with pytest.raises(InputError, match="0 rows"):
        fit_minmax(x, rows[:0])


def test_require_finite_rows_names_global_rows_in_a_later_block():
    x = np.zeros((3 * _BLOCK_ROWS, 2))
    bad = [2 * _BLOCK_ROWS + 5, 2 * _BLOCK_ROWS + 9]
    x[bad[0], 1] = np.nan
    x[bad[1], 0] = -np.inf
    with pytest.raises(InputError, match=rf"2 rows.*row indices \[{bad[0]}, {bad[1]}\]"):
        require_finite_rows(x)
    require_finite_rows(np.zeros((0, 2)))  # nothing to check
    require_finite_rows(np.full(3, np.nan))  # not 2-D: the shape checks reject it


def test_split_eval_quotas():
    y = np.r_[np.ones(20), np.zeros(200)]
    split = split_eval(y, np.arange(220), seed=3)
    assert isinstance(split, EvalSplit)
    for rows, pos, neg in (
        (split.validation, 10, 100),
        (split.analysis, 5, 50),
        (split.holdout, 5, 50),
    ):
        assert (y[rows] == 1).sum() == pos
        assert (y[rows] == 0).sum() == neg
    combined = np.concatenate([split.validation, split.analysis, split.holdout])
    assert np.array_equal(np.sort(combined), np.arange(220))


def test_split_eval_residue_goes_to_validation_then_analysis():
    # 5 rows of one class: 2 + 1 + 1 with one leftover -> 3 / 1 / 1.
    y = np.r_[np.ones(5), np.zeros(7)]
    split = split_eval(y, np.arange(12), seed=0)
    assert (y[split.validation] == 1).sum() == 3
    assert (y[split.analysis] == 1).sum() == 1
    assert (y[split.holdout] == 1).sum() == 1
    # 7 rows: residue 2 -> 4 / 2 / 1.
    assert (y[split.validation] == 0).sum() == 4
    assert (y[split.analysis] == 0).sum() == 2
    assert (y[split.holdout] == 0).sum() == 1


def test_split_eval_warns_on_positive_free_part():
    y = np.r_[np.ones(2), np.zeros(40)]
    with pytest.warns(UserWarning, match="no positive rows"):
        split_eval(y, np.arange(42), seed=0)


def test_split_eval_respects_subset():
    y = np.r_[np.ones(30), np.zeros(30)]
    subset = np.arange(0, 60, 2)
    split = split_eval(y, subset, seed=1)
    combined = np.concatenate([split.validation, split.analysis, split.holdout])
    assert np.array_equal(np.sort(combined), subset)


def test_synthesize_shapes_counts_and_components():
    x, y, comp = synthesize(5000, fraud_rate=0.01, seed=7)
    assert x.shape == (5000, N_FEATURES)
    assert int(y.sum()) == 50
    assert np.array_equal(y == 1, comp > 0)
    assert (comp == 1).sum() == 25  # n_linear = (n_fraud + 1) // 2
    assert (comp == 2).sum() == 25
    assert np.all(x[:, N_FEATURES - 1] > 0)  # amounts are positive


def test_synthesize_fraud_geometry():
    x, y, comp = synthesize(20000, seed=11)
    lin = x[comp == 1]
    assert lin[:, 0].mean() > 3.5 and lin[:, 2].mean() < -2.5
    radius = np.hypot(x[:, 4], x[:, 5])
    assert np.all((radius[comp == 2] >= 4.2) & (radius[comp == 2] <= 5.0))
    # The annulus band should be dominated by fraud, not background.
    in_band = (radius >= 4.2) & (radius <= 5.0)
    purity = y[in_band].mean()
    assert purity > 0.7


def test_synthesize_is_seeded_and_validates():
    a = synthesize(1000, fraud_rate=0.01, seed=1)
    b = synthesize(1000, fraud_rate=0.01, seed=1)
    c = synthesize(1000, fraud_rate=0.01, seed=2)
    assert all(np.array_equal(u, v) for u, v in zip(a, b))
    assert not np.array_equal(a[0], c[0])
    with pytest.raises(InputError):
        synthesize(999)
    with pytest.raises(InputError):
        synthesize(1000, fraud_rate=0.0001)  # rounds below one per component
    with pytest.raises(InputError):
        synthesize(1000, fraud_rate=0.9)


def _synthesize_whole_table(n, fraud_rate, seed):
    """The generator as whole-table expressions: the noise drawn and added in
    one step and the rows shuffled by one gather, two copies of the table."""
    n_fraud = int(round(n * fraud_rate))
    n_linear = (n_fraud + 1) // 2
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    loadings = rng.normal(size=(6, N_FEATURES)) / np.sqrt(6.0)
    x = rng.normal(size=(n, 6)) @ loadings + 0.7 * rng.normal(size=(n, N_FEATURES))
    for col in (0, 2, 4, 5):
        x[:, col] = rng.normal(size=n)
    y = np.zeros(n)
    component = np.zeros(n, dtype=np.int64)
    x[:n_linear, 0] += 4.5
    x[:n_linear, 2] -= 3.5
    y[:n_fraud] = 1.0
    component[:n_linear], component[n_linear:n_fraud] = 1, 2
    radius = rng.uniform(4.2, 5.0, size=n_fraud - n_linear)
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n_fraud - n_linear)
    x[n_linear:n_fraud, 4] = radius * np.cos(angle)
    x[n_linear:n_fraud, 5] = radius * np.sin(angle)
    x[:, N_FEATURES - 1] = rng.lognormal(mean=3.0, sigma=1.2, size=n)
    order = rng.permutation(n)
    return x[order], y[order], component[order]


@pytest.mark.parametrize("n, fraud_rate, seed", [
    (1000, 0.01, 0),
    (_BLOCK_ROWS, 0.01, 1),  # exactly one noise block
    (2 * _BLOCK_ROWS + 1, 0.00172, 2),  # a last block of one row
    (20_000, 0.00172, 3),
    (50_000, 0.01, 4),
])
def test_synthesize_equals_the_whole_table_expression_byte_for_byte(n, fraud_rate, seed):
    got = synthesize(n, fraud_rate=fraud_rate, seed=seed)
    want = _synthesize_whole_table(n, fraud_rate, seed)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.flags.c_contiguous
        assert a.tobytes() == b.tobytes()


def test_synthesize_holds_one_table():
    import tracemalloc

    tracemalloc.start()
    try:
        x, _, _ = synthesize(100_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One table plus its row-block noise, the 8-column shuffle buffer and
    # three n-long vectors is 1.40 copies; the whole-table expression held
    # 2.17.
    assert peak < 1.5 * x.nbytes


def test_scaler_fits_train_only():
    # Guard against leakage: refitting with test rows must change the
    # transform, proving the original fit never saw them.
    train = np.array([[0.0], [1.0]])
    test = np.array([[2.0]])
    frozen = fit_minmax(train)
    assert frozen.transform(test)[0, 0] == 1.0  # clipped, not rescaled
    refit = fit_minmax(np.vstack([train, test]))
    assert refit.transform(test)[0, 0] == 1.0
    assert refit.transform([[1.0]])[0, 0] == 0.5


# The body is parsed by np.loadtxt, in parts and chunks of rows that keep a
# whole-file parse's bits; what it accepts and refuses, with the messages of
# the row-by-row re-scan that names a fault.

ROW = ",".join(["0.5"] * (len(CSV_HEADER) - 1)) + ",1"


def _write(tmp_path, text, name="txn.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_kaggle_quoted_file_loads_like_the_unquoted_one(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, N_FEATURES))
    y = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    plain = tmp_path / "plain.csv"
    save_csv(plain, x, y)
    lines = plain.read_text().splitlines()
    quoted = [",".join(f'"{c}"' for c in CSV_HEADER)]
    for line in lines[1:]:  # the Kaggle file quotes its header and every Class
        head, label = line.rsplit(",", 1)
        quoted.append(f'{head},"{label}"')
    quoted_path = _write(tmp_path, "\n".join(quoted) + "\n", "quoted.csv")
    for got, want in zip(load_csv(quoted_path), load_csv(plain)):
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(load_csv(plain)[0], x)


def test_nan_and_inf_tokens_still_load(tmp_path):
    fields = ROW.split(",")
    fields[1], fields[2], fields[3] = "nan", "inf", "-Infinity"
    x, _ = load_csv(_write(tmp_path, ",".join(CSV_HEADER) + "\n" + ",".join(fields) + "\n"))
    assert np.isnan(x[0, 0]) and x[0, 1] == np.inf and x[0, 2] == -np.inf


# Tokens where float() and numpy's reader part ways (underscores, non-ASCII
# digits) or both strip (non-ASCII spaces), and a few each refuses.
TOKENS = ["1_0", "1__0", "_1", "\u0661\u0662", "1\u0663", "\uff11", "\u00b2", "\u00bd",
          "\u00a01", "1\u00a0", "1\u00a02", "\u20031.5\u2003", "\u3000-2", "1\u20282",
          " 1 ", "1 2", "\t2\t", "inf", "-Infinity", "infinit", "nan", "-NaN", "nan(1)",
          "0x10", "0x1p3", "0b1", "1d5", "1e999", "1e", ".", "+-1", "", " "]


@pytest.mark.parametrize("token", TOKENS, ids=[ascii(t) for t in TOKENS])
def test_is_float_accepts_what_loadtxt_reads(token):
    try:
        np.loadtxt([f"0,{token}"], delimiter=",", quotechar='"', comments=None,
                   dtype=np.float64)
        reads = True
    except ValueError:
        reads = False
    assert data._is_float(token) == reads


def test_empty_lines_are_skipped(tmp_path):
    text = ",".join(CSV_HEADER) + "\n" + ROW + "\n\n" + ROW + "\r\n\n"
    x, y = load_csv(_write(tmp_path, text))
    assert x.shape == (2, N_FEATURES)
    assert np.array_equal(y, [1.0, 1.0])


def test_underscore_digits_are_refused_naming_the_path(tmp_path):
    path = _write(tmp_path, ",".join(CSV_HEADER) + "\n" + ROW.replace("0.5", "1_0", 1) + "\n")
    with pytest.raises(DataError, match=f"^{path}: .*'1_0'"):
        load_csv(path)


@pytest.mark.parametrize("body, message", [
    ((",".join(["0.5"] * 29) + ",0\n") * 3, "line 2 has 30 fields, expected 31"),
    (ROW + "\n   \n" + ROW + "\n", "line 3 has 1 fields, expected 31"),
    (ROW + "\n" + ROW.replace("0.5", "0#5", 1) + "\n", "line 3, column Time: cannot parse '0#5'"),
    (ROW + "#5\n", "line 2, column Class: cannot parse '1#5'"),  # not cut at the '#'
    (ROW + "\n\n" + ROW.replace("0.5", "x", 1) + "\n", "line 4, column Time: cannot parse 'x'"),
    (ROW + "\n" + ROW[:-1] + "0.5\n", "line 3: Class must be 0 or 1, got '0.5'"),
    (ROW + "\n" + ROW[:-1] + "nan\n", "line 3: Class must be 0 or 1, got 'nan'"),
    (ROW.replace("0.5", "1_0", 1) + "\n", "line 2, column Time: cannot parse '1_0'"),
    (ROW[:-1] + "1_0\n", "line 2, column Class: cannot parse '1_0'"),
], ids=["30 fields everywhere", "whitespace line", "hash in a field", "hash in Class",
        "fault after an empty line", "Class 0.5", "Class nan", "underscore in Time",
        "underscore in Class"])
def test_refused_bodies_keep_their_messages(tmp_path, body, message):
    path = _write(tmp_path, ",".join(CSV_HEADER) + "\n" + body)
    with pytest.raises(DataError, match=f"^{path}: {message}"):
        load_csv(path)


@pytest.mark.parametrize("text, message", [
    ("", "file is empty"),
    (",".join(CSV_HEADER) + "\n", "no data rows"),
    (",".join(CSV_HEADER) + "\n\n\n", "no data rows"),
], ids=["empty file", "header only", "header and empty lines"])
def test_empty_files_are_refused_without_a_warning(tmp_path, text, message):
    path = _write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=f"^{path}: {message}$"):
            load_csv(path)


def _undecodable(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"\xff" + ",".join(CSV_HEADER).encode() + b"\n")
    return path


def _undecodable_body(tmp_path):
    path = tmp_path / "latin-body.csv"
    path.write_bytes((",".join(CSV_HEADER) + "\n" + ROW + "\n").encode() + b"\xff" + ROW.encode())
    return path


@pytest.mark.parametrize("make", [
    lambda tmp_path: tmp_path / "absent.csv",
    lambda tmp_path: tmp_path,
    _undecodable,
    _undecodable_body,
], ids=["missing", "directory", "not utf-8", "body not utf-8"])
def test_unreadable_files_are_data_errors(tmp_path, make):
    path = make(tmp_path)
    with pytest.raises(DataError, match=f"^cannot read {path}: "):
        load_csv(path)


def test_unwritable_path_is_a_data_error(tmp_path):
    path = tmp_path / "no-such-dir" / "x.csv"
    with pytest.raises(DataError, match=f"^cannot write {path}: "):
        save_csv(path, np.zeros((1, N_FEATURES)), np.zeros(1))


# Every file qmoe writes goes through errors.replacing: a fault or an interrupt
# part way through the text leaves the target as it was and no temp file.

FAULTS = [OSError(28, "No space left on device"), KeyboardInterrupt()]


def fail_part_way(monkeypatch, writer: str, exc: BaseException, nth: int = 1) -> None:
    """Make the ``nth`` ``csv.writer`` (``writer="csv"``) or ``json.dump`` call
    (``"json"``) write part of its text, then raise ``exc``."""
    calls = itertools.count(1)
    if writer == "csv":
        real_writer = csv.writer

        class PartWay:
            def __init__(self, out):
                self.out, self.rows = out, 0

            def writerow(self, row):
                self.out.writerow(row)
                self.rows += 1
                if self.rows == 2:
                    raise exc

            def writerows(self, rows):
                for row in rows:
                    self.writerow(row)

        def faulty(fh, *args, **kwargs):
            out = real_writer(fh, *args, **kwargs)
            return PartWay(out) if next(calls) == nth else out

        monkeypatch.setattr(csv, "writer", faulty)
    else:
        real_dump = json.dump

        def faulty(doc, fh, **kwargs):
            if next(calls) != nth:
                return real_dump(doc, fh, **kwargs)
            fh.write(json.dumps(doc, **kwargs)[:200])
            raise exc

        monkeypatch.setattr(json, "dump", faulty)


def expect_kept(target, exc: BaseException, error, write) -> None:
    """``write()`` raises ``exc`` (an OSError as ``error`` naming ``target``) and
    leaves ``target``, whether it existed or not, and no temp file beside it."""
    before = target.read_bytes() if target.exists() else None
    if isinstance(exc, OSError):
        raises = pytest.raises(error, match=f"^cannot write {re.escape(str(target))}: ")
    else:
        raises = pytest.raises(type(exc))
    with raises:
        write()
    assert (target.read_bytes() if target.exists() else None) == before
    assert list(target.parent.glob("*.tmp")) == []


@pytest.mark.parametrize("exc", FAULTS, ids=["fault", "interrupt"])
@pytest.mark.parametrize("existing", [b"the old file\n", None], ids=["existing", "new"])
def test_save_csv_replaces_its_target_whole(tmp_path, monkeypatch, exc, existing):
    # Before, save_csv opened its target for writing: a fault part way left
    # the rows written so far in place of the old file.
    target = tmp_path / "txn.csv"
    if existing is not None:
        target.write_bytes(existing)
    fail_part_way(monkeypatch, "csv", exc)
    expect_kept(target, exc, DataError,
                lambda: save_csv(target, np.zeros((5, N_FEATURES)), np.zeros(5)))


def test_minmax_transform_matches_the_expression_and_leaves_its_input():
    rng = np.random.default_rng(6)
    scaler = fit_minmax(np.c_[rng.normal(size=(40, 3)), np.full(40, 2.0)])
    x = np.c_[rng.normal(0, 3, size=(200, 3)), rng.normal(size=200)]
    before = x.copy()
    safe_span = np.where(scaler.span > 0, scaler.span, 1.0)
    want = (x - scaler.low) / safe_span
    want[:, scaler.span == 0] = 0.0
    want = np.clip(want, 0.0, 1.0)
    got = scaler.transform(x)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(x, before)


@pytest.mark.parametrize("layout", ["rows", "transposed", "in place"])
def test_minmax_transform_into_out_holds_the_same_bits(layout):
    # Serving scales each block into the transpose of a (features, rows)
    # workspace, and the routed rows into their own gathered copy.
    rng = np.random.default_rng(7)
    scaler = fit_minmax(np.c_[rng.normal(size=(40, 3)), np.full(40, 2.0)])
    x = np.c_[rng.normal(0, 3, size=(200, 3)), rng.normal(size=200)]
    x[::7, 1] = -0.0
    want = scaler.transform(x)
    out = {"rows": np.full(x.shape, np.nan), "transposed": np.full(x.shape[::-1], np.nan).T,
           "in place": x.copy()}[layout]
    got = scaler.transform(out if layout == "in place" else x, out=out)
    assert got is out
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# load_csv sizes the table from a count of line ends; every line ending
# Python's universal newlines split on must be counted.

def _lines(tmp_path, rows=5):
    rng = np.random.default_rng(9)
    path = tmp_path / "saved.csv"
    save_csv(path, rng.normal(size=(rows, N_FEATURES)), (np.arange(rows) % 2).astype(float))
    return path.read_text().splitlines()


@pytest.mark.parametrize("ending, last", [("\r", "\r"), ("\r\n", "\r\n"), ("\n", "")],
                         ids=["CR only", "CRLF", "no trailing newline"])
def test_every_line_ending_loads_every_row(tmp_path, ending, last):
    lines = _lines(tmp_path)
    want = load_csv(_write(tmp_path, "\n".join(lines) + "\n", "lf.csv"))
    path = tmp_path / "ends.csv"
    path.write_bytes((ending.join(lines) + last).encode())
    got = load_csv(path)
    assert got[0].shape == (len(lines) - 1, N_FEATURES)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def _mapped_bytes(x):
    """The bytes of the shared mapping ``x`` is a view of."""
    base = x
    while isinstance(base, np.ndarray):
        base = base.base
    return base.nbytes


def test_a_file_of_empty_lines_is_not_sized_by_its_line_count(tmp_path, monkeypatch):
    import tracemalloc

    monkeypatch.setattr(data, "_MIN_PART_BYTES", 1)
    path = _write(tmp_path, ",".join(CSV_HEADER) + "\n" + ROW + "\n" + "\n" * 200_000)
    for cpus in (1, 2):
        monkeypatch.setattr("qmoe.workers.usable_cpus", lambda cpus=cpus: cpus)
        tracemalloc.start()  # sees the chunks; the rows are mapped
        try:
            x, y = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.shape == (1, N_FEATURES) and np.array_equal(y, [1.0])
        assert peak < 8e6
        assert _mapped_bytes(x) < 1e6  # a mapping of 200,001 rows would take 48 MB


def test_quoted_fields_spanning_a_line_break(tmp_path):
    rest = ROW.split(",", 1)[1]
    # A quoted Class or Time holding a line end parses: float() strips it.
    for ending in ("\n", "\r\n", "\r"):
        text = ",".join(CSV_HEADER) + ending + ROW + ending + ROW[:-1] + f'"1{ending}"' + ending
        text += f'"0.5{ending}",' + rest + ending
        path = tmp_path / "spans.csv"
        path.write_bytes(text.encode())
        x, y = load_csv(path)
        assert x.shape == (3, N_FEATURES)
        assert np.all(x == 0.5) and np.array_equal(y, [1.0, 1.0, 1.0])
    # Two numbers in one quoted field do not.
    path = _write(tmp_path, ",".join(CSV_HEADER) + '\n"0.5\n0.5",' + rest + "\n")
    with pytest.raises(DataError, match=rf"^{path}: line 2, column Time: cannot parse '0.5\\n0.5'"):
        load_csv(path)


# load_csv parses parts of the body in forked children (forced here by a
# small minimum part size): no child outlives the call, whatever happens.

def _pool(tmp_path, rows=40, name="pool.csv"):
    rng = np.random.default_rng(8)
    path = tmp_path / name
    save_csv(path, rng.normal(size=(rows, N_FEATURES)), (np.arange(rows) % 3 == 0) * 1.0)
    return path


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _row_bound(path, cpus):
    """``data._row_bound`` of the byte parts ``workers.parts`` cuts at ``cpus`` usable CPUs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("qmoe.workers.usable_cpus", lambda: cpus)
        return data._row_bound(path, workers.parts(os.path.getsize(path)))


def _count_parse_parts(monkeypatch) -> list:
    """The span count of each ``data._parse_parts`` call from here on."""
    calls, parse_parts = [], data._parse_parts
    monkeypatch.setattr(data, "_parse_parts",
                        lambda *args: calls.append(len(args[2])) or parse_parts(*args))
    return calls


@pytest.fixture
def three_parts(monkeypatch):
    monkeypatch.setattr("qmoe.workers.usable_cpus", lambda: 3)
    monkeypatch.setattr(data, "_MIN_PART_BYTES", 1)
    monkeypatch.setattr(data, "_CHUNK_ROWS", 4)


def test_parts_load_what_one_part_loads_and_leave_no_child(tmp_path, monkeypatch, three_parts):
    path = _pool(tmp_path)
    assert len(_row_bound(path, 3)) == 3
    several = load_csv(path)
    _no_children_left()
    monkeypatch.setattr("qmoe.workers.usable_cpus", lambda: 1)
    one = load_csv(path)
    for a, b in zip(several, one):
        assert a.flags.c_contiguous and a.tobytes() == b.tobytes()
    assert several[0].shape == (40, N_FEATURES)


def test_a_fault_in_a_child_part_is_named_as_one_parse_names_it(tmp_path, capfd, three_parts):
    path = _pool(tmp_path)
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].replace(",", ",x", 1)  # the last row: the last child's part
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"^{path}: line 41, column V1: cannot parse 'x"):
        load_csv(path)
    _no_children_left()
    assert capfd.readouterr().err == ""  # the children wrote nothing


def test_an_interrupt_in_part_0_kills_the_children(tmp_path, monkeypatch, three_parts):
    import time

    parent, loadtxt = os.getpid(), np.loadtxt

    def interrupted(*args, **kwargs):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(30)  # a child that is not killed holds the test up
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", interrupted)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        load_csv(_pool(tmp_path))
    _no_children_left()
    assert time.perf_counter() - start < 10


def test_a_refused_fork_parses_the_body_in_one_part(tmp_path, monkeypatch, three_parts):
    import errno

    path = _pool(tmp_path)
    monkeypatch.setattr("qmoe.workers.usable_cpus", lambda: 1)
    one = load_csv(path)
    monkeypatch.setattr("qmoe.workers.usable_cpus", lambda: 3)

    def refused():
        raise OSError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr(os, "fork", refused)
    got = load_csv(path)
    _no_children_left()
    for a, b in zip(got, one):
        assert a.flags.c_contiguous and a.tobytes() == b.tobytes()


def test_a_part_of_rows_ended_by_lone_cr_loads_as_its_lf_twin(tmp_path, monkeypatch, three_parts):
    lines = _pool(tmp_path).read_text().splitlines()
    want = load_csv(_write(tmp_path, "\n".join(lines) + "\n", "lf.csv"))
    path = tmp_path / "cr.csv"
    path.write_bytes(("\n".join(lines[:30]) + "\n" + "\r".join(lines[30:]) + "\n").encode())
    # Its rows outrun the last part's \n count, so that part faults.
    spans = _row_bound(path, 3)
    tail = path.read_bytes()[spans[-1][0]:].decode()
    assert len(spans) == 3 and spans[-1][2] < len(tail.splitlines())
    calls = _count_parse_parts(monkeypatch)
    got = load_csv(path)
    assert calls == [3, 1]  # then one span in the process
    _no_children_left()
    for a, b in zip(got, want):
        assert a.flags.c_contiguous and a.tobytes() == b.tobytes()


def _cr_tail(tmp_path, lines, name):
    """A file of ``lines`` whose rows from the 30th on end in a lone \r."""
    path = tmp_path / name
    path.write_bytes(("\n".join(lines[:30]) + "\n" + "\r".join(lines[30:]) + "\n").encode())
    return path


@pytest.mark.parametrize("cpus", [1, 3])
def test_rows_ended_by_lone_cr_are_parsed_again_without_the_row_scan(tmp_path, monkeypatch,
                                                                     three_parts, cpus):
    # Rows that outrun their part's \n count are not a refused row: the body
    # is parsed again as one span, and nothing re-reads it row by row.
    monkeypatch.setattr("qmoe.workers.usable_cpus", lambda: cpus)
    lines = _pool(tmp_path).read_text().splitlines()
    want = load_csv(_write(tmp_path, "\n".join(lines) + "\n", "lf.csv"))

    def unexpected(path):
        raise AssertionError("the body was re-read row by row")

    monkeypatch.setattr(data, "_first_fault", unexpected)
    got = load_csv(_cr_tail(tmp_path, lines, "cr.csv"))
    _no_children_left()
    for a, b in zip(got, want):
        assert a.flags.c_contiguous and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cpus", [1, 3])
def test_a_bad_token_among_rows_ended_by_lone_cr_is_named(tmp_path, monkeypatch, three_parts,
                                                          cpus):
    monkeypatch.setattr("qmoe.workers.usable_cpus", lambda: cpus)
    lines = _pool(tmp_path).read_text().splitlines()
    for at in (2, 35):  # a row ended by \n, and one ended by a lone \r
        bad = list(lines)
        bad[at] = bad[at].replace(",", ",x", 1)
        path = _cr_tail(tmp_path, bad, f"bad-{at}.csv")
        with pytest.raises(DataError, match=f"^{path}: line {at + 1}, column V1: cannot parse 'x"):
            load_csv(path)
        _no_children_left()


@pytest.fixture(scope="module")
def three_blocks(tmp_path_factory):
    return _pool(tmp_path_factory.mktemp("blocks"), rows=3 * _BLOCK_ROWS + 5)


@pytest.mark.parametrize("cpus", [1, 2])
def test_parsing_holds_one_chunk_at_a_time(three_blocks, monkeypatch, cpus):
    import tracemalloc

    monkeypatch.setattr("qmoe.workers.usable_cpus", lambda: cpus)
    monkeypatch.setattr(data, "_MIN_PART_BYTES", 1)
    path = three_blocks
    tracemalloc.start()  # the rows are mapped: what it sees is the call's own scratch
    try:
        x, y = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.shape == (3 * _BLOCK_ROWS + 5, N_FEATURES) and x.flags.c_contiguous
    # One chunk's table (1 MB): the parts write their rows in place, so no
    # copy of the features or labels is made.
    assert peak < x.nbytes / 2


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_refused_file_is_not_parsed_into_a_second_table(three_blocks, tmp_path, monkeypatch,
                                                          cpus):
    import tracemalloc

    monkeypatch.setattr("qmoe.workers.usable_cpus", lambda: cpus)
    monkeypatch.setattr(data, "_MIN_PART_BYTES", 1)
    lines = three_blocks.read_text().splitlines()
    lines[-1] = lines[-1].replace(",", ",x", 1)
    path = _write(tmp_path, "\n".join(lines) + "\n", "bad.csv")
    x_bytes = (len(lines) - 1) * N_FEATURES * 8
    tracemalloc.start()  # the parts' rows are mapped; a private whole-body table would show
    try:
        with pytest.raises(DataError, match=f"^{path}: line {len(lines)}, column V1: "):
            load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _no_children_left()
    assert peak < x_bytes / 2


def test_splits_fall_between_rows_of_quoted_line_ends(tmp_path, monkeypatch, three_parts):
    # Every Class is quoted around a line end, so about half the line ends
    # sit inside a quoted field; a split there would fault its part. Those
    # line ends also make part 0 parse fewer rows than its \n count, so the
    # body is parsed again as one span.
    ends = ("\n", "\r\n", "\r")
    rows = [ROW[:-1] + '"' + str(i % 2) + ends[i % 3] + '"' for i in range(30)]
    raw = (",".join(CSV_HEADER) + "\n" + "\n".join(rows) + "\n").encode()
    path = tmp_path / "spans.csv"
    path.write_bytes(raw)
    calls = _count_parse_parts(monkeypatch)
    for parts in range(2, 7):
        starts = [start for start, _, _ in _row_bound(path, parts)]
        assert len(starts) == parts
        for start in starts[1:]:
            assert raw[start - 1] == ord("\n") and raw[:start].count(b'"') % 2 == 0
        monkeypatch.setattr("qmoe.workers.usable_cpus", lambda parts=parts: parts)
        calls.clear()
        x, y = load_csv(path)
        assert calls == [parts, 1]
        assert x.shape == (30, N_FEATURES) and np.all(x == 0.5)
        assert np.array_equal(y, np.arange(30) % 2)


# A regular file (one row per line) is counted exactly, so its parts write
# the rows load_csv returns and the body is parsed once. A part before the
# last that parses fewer rows than its count sends the body through one span.

def test_a_regular_file_is_parsed_once_into_its_rows(tmp_path, monkeypatch, three_parts):
    path = _pool(tmp_path)
    calls = _count_parse_parts(monkeypatch)
    x, y = load_csv(path)
    assert calls == [3]
    assert x.shape == (40, N_FEATURES) and y.shape == (40,)
    assert x.flags.c_contiguous and y.flags.c_contiguous
    assert _mapped_bytes(x) == _mapped_bytes(y) == 40 * (N_FEATURES + 1) * 8
    _no_children_left()


@pytest.mark.parametrize("blank, made", [
    (lambda lines: lines[:3] + [""] + lines[3:], [3, 1]),
    (lambda lines: lines + ["", "", ""], [3]),
], ids=["in part 0: parsed again", "trailing, in the last part: parsed once"])
def test_blank_lines_send_the_body_through_one_span_only_before_the_last_part(
        tmp_path, monkeypatch, three_parts, blank, made):
    lines = _pool(tmp_path).read_text().splitlines()
    want = load_csv(_write(tmp_path, "\n".join(lines) + "\n", "clean.csv"))
    path = _write(tmp_path, "\n".join(blank(lines)) + "\n", "blank.csv")
    calls = _count_parse_parts(monkeypatch)
    got = load_csv(path)
    assert calls == made
    _no_children_left()
    for a, b in zip(got, want):
        assert a.flags.c_contiguous and a.tobytes() == b.tobytes()
