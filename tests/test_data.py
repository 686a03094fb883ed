"""Data-layer tests: CSV round trips, scaling, sampling, splits, synth."""

import warnings

import numpy as np
import pytest

from qmoe.data import (
    CSV_HEADER,
    N_FEATURES,
    EvalSplit,
    fit_minmax,
    load_csv,
    save_csv,
    split_eval,
    stratified_repeated_kfold,
    synthesize,
    undersample,
)
from qmoe.errors import DataError, InputError


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


def test_undersample_keeps_minority_and_balances():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(300, 2))
    y = np.r_[np.ones(30), np.zeros(270)]
    xs, ys, idx = undersample(x, y, majority_ratio=1.0, seed=5)
    assert (ys == 1).sum() == 30
    assert (ys == 0).sum() == 30
    assert np.all(np.diff(idx) > 0)  # original order, no duplicates
    assert set(np.nonzero(y == 1)[0]) <= set(idx.tolist())
    assert np.array_equal(xs, x[idx])

    _, ys3, _ = undersample(x, y, majority_ratio=3.0, seed=5)
    assert (ys3 == 0).sum() == 90


def test_undersample_is_seeded():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(100, 2))
    y = np.r_[np.ones(10), np.zeros(90)]
    _, _, a = undersample(x, y, seed=1)
    _, _, b = undersample(x, y, seed=1)
    _, _, c = undersample(x, y, seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_kfold_partitions_every_repeat():
    y = np.r_[np.ones(13), np.zeros(87)]
    splits = stratified_repeated_kfold(y, n_splits=5, n_repeats=3, seed=0)
    assert len(splits) == 15
    for r in range(3):
        covered = np.concatenate([t for _, t in splits[r * 5 : (r + 1) * 5]])
        assert np.array_equal(np.sort(covered), np.arange(100))
    for train, test in splits:
        assert np.intersect1d(train, test).size == 0
        # Round-robin dealing keeps per-fold class counts within one row.
        assert (y[test] == 1).sum() in (2, 3)
        assert test.size in (19, 20, 21)


def test_kfold_repeats_differ_and_seed_reproduces():
    y = np.r_[np.ones(10), np.zeros(40)]
    a = stratified_repeated_kfold(y, 5, 2, seed=9)
    b = stratified_repeated_kfold(y, 5, 2, seed=9)
    assert all(np.array_equal(ta, tb) for (_, ta), (_, tb) in zip(a, b))
    first, second = a[0][1], a[5][1]
    assert not np.array_equal(first, second)


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


# The body is parsed in one np.loadtxt call; what it accepts and refuses,
# with the messages of the row-by-row re-scan that names a fault.

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
], ids=["30 fields everywhere", "whitespace line", "hash in a field", "hash in Class",
        "fault after an empty line", "Class 0.5", "Class nan"])
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


@pytest.mark.parametrize("make", [
    lambda tmp_path: tmp_path / "absent.csv",
    lambda tmp_path: tmp_path,
    _undecodable,
], ids=["missing", "directory", "not utf-8"])
def test_unreadable_files_are_data_errors(tmp_path, make):
    path = make(tmp_path)
    with pytest.raises(DataError, match=f"^cannot read {path}: "):
        load_csv(path)


def test_unwritable_path_is_a_data_error(tmp_path):
    path = tmp_path / "no-such-dir" / "x.csv"
    with pytest.raises(DataError, match=f"^cannot write {path}: "):
        save_csv(path, np.zeros((1, N_FEATURES)), np.zeros(1))


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


def test_a_file_of_empty_lines_is_not_sized_by_its_line_count(tmp_path):
    import tracemalloc

    path = _write(tmp_path, ",".join(CSV_HEADER) + "\n" + ROW + "\n" + "\n" * 200_000)
    tracemalloc.start()
    try:
        x, y = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.shape == (1, N_FEATURES) and np.array_equal(y, [1.0])
    assert peak < 8e6  # a table of 200,001 rows would take 50 MB


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
