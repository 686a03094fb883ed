"""Dataset loading, scaling, resampling, splits, and a synthetic generator.

The CSV layout is the common card-transaction format: a Time column that
gets dropped, anonymized features V1..V28, an Amount column, and a 0/1
Class label. Everything downstream works on the resulting 29 feature
columns.

All randomized helpers take explicit seeds and derive independent streams
through numpy SeedSequence, so repeated runs reproduce byte-identical
splits and samples.
"""

from __future__ import annotations

import csv
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InputError
from .gbdt import _BLOCK_ROWS

__all__ = [
    "CSV_HEADER",
    "N_FEATURES",
    "load_csv",
    "save_csv",
    "MinMaxScaler",
    "fit_minmax",
    "undersample",
    "stratified_repeated_kfold",
    "EvalSplit",
    "split_eval",
    "synthesize",
]

CSV_HEADER = ["Time"] + [f"V{i}" for i in range(1, 29)] + ["Amount", "Class"]
N_FEATURES = 29  # V1..V28 plus Amount


def load_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a transaction CSV into (features, labels), dropping Time.

    The body is parsed in one ``np.loadtxt`` call; quoted fields (the
    Kaggle file quotes its header and Class) and empty lines are fine.
    Raises DataError with the offending row and column named, so a
    truncated download or a stray locale comma is diagnosable from the
    message alone, and names the path when the file cannot be read.

    The table is allocated once: ``max_rows`` is ``_row_bound``'s cap on
    the rows, which never undercounts, so ``loadtxt`` does not grow its
    buffer. The features are then packed at the front of that buffer, one
    row block after another; each block's destination starts at or before
    its source and ends before the next block's source, and numpy buffers
    the overlapping copy. ``x`` is a C-contiguous view of the table, so
    the pool is never held twice.
    """
    try:
        with open(path) as fh:
            first = fh.readline()
            if not first:
                raise DataError(f"{path}: file is empty")
            header = next(csv.reader([first]))
            if header != CSV_HEADER:
                raise DataError(
                    f"{path}: unexpected header; expected {CSV_HEADER[:3]}...{CSV_HEADER[-2:]}, "
                    f"got {header[:3]}...{header[-2:] if len(header) >= 2 else header}"
                )
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # an empty body
                    table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                                       ndmin=2, dtype=np.float64, max_rows=_row_bound(path))
            except UnicodeDecodeError:  # a ValueError, but a read fault
                raise
            except ValueError as exc:
                table, fault = None, str(exc)
        if table is not None:
            if table.shape[0] == 0:
                raise DataError(f"{path}: no data rows")
            labels = table[:, -1]
            if table.shape[1] == len(CSV_HEADER) and np.all((labels == 0.0) | (labels == 1.0)):
                labels, n = labels.copy(), table.shape[0]
                x = table.reshape(-1)[:n * N_FEATURES].reshape(n, N_FEATURES)
                for start in range(0, n, _BLOCK_ROWS):
                    rows = slice(start, start + _BLOCK_ROWS)
                    x[rows] = table[rows, 1:-1]
                return x, labels
            fault = f"rows are not {len(CSV_HEADER)} fields with a 0/1 Class"
        raise DataError(f"{path}: {_first_fault(path) or fault}")
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def _row_bound(path) -> int:
    """An upper bound on the rows of a text file as ``open`` splits its lines.

    Universal newlines end a line at every \\n and at every \\r not followed
    by \\n, so the count of both, less the \\r\\n pairs, plus one for an
    unterminated last line, bounds the lines. A valid row is at least 61
    bytes (31 one-character fields and 30 commas), which caps the bound
    at one row per 61 bytes, so a file of empty lines cannot make
    ``loadtxt`` preallocate a huge table.
    """
    cap = os.path.getsize(path) // (2 * len(CSV_HEADER) - 1) + 1
    buf = np.empty(1 << 19, dtype=np.uint8)  # reused: the count allocates O(buffer)
    lines, cr_last = 1, False
    with open(path, "rb", buffering=0) as raw:
        while lines <= cap and (n := raw.readinto(buf)):
            chunk = buf[:n]
            cr = np.flatnonzero(chunk == 13)
            pairs = np.count_nonzero(chunk[cr[cr < n - 1] + 1] == 10)
            pairs += bool(cr_last and chunk[0] == 10)  # a pair split across two reads
            lines += np.count_nonzero(chunk == 10) + cr.size - pairs
            cr_last = bool(chunk[n - 1] == 13)
    return min(int(lines), cap)


def _first_fault(path) -> str | None:
    """Re-read the body row by row for a message naming the bad line, column and token."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                return f"line {line_no} has {len(row)} fields, expected {len(CSV_HEADER)}"
            bad = next((i for i, v in enumerate(row) if not _is_float(v)), None)
            if bad is not None:
                return (f"line {line_no}, column {CSV_HEADER[bad]}: "
                        f"cannot parse {row[bad]!r} as a number")
            if float(row[-1]) not in (0.0, 1.0):
                return f"line {line_no}: Class must be 0 or 1, got {row[-1]!r}"
    return None


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def save_csv(path, x: np.ndarray, y: np.ndarray) -> None:
    """Write (features, labels) in the load_csv layout; Time is the row index."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[1] != N_FEATURES:
        raise InputError(f"expected (rows, {N_FEATURES}) features, got {x.shape}")
    if y.shape != (x.shape[0],):
        raise InputError(f"labels {y.shape} do not match {x.shape[0]} rows")
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for i in range(x.shape[0]):
                writer.writerow([float(i)] + [repr(float(v)) for v in x[i]] + [int(y[i])])
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


@dataclass(frozen=True)
class MinMaxScaler:
    """Per-column [0, 1] scaling frozen at fit time.

    Transform output is clipped, so feature values outside the fitted
    range (routine on held-out data) cannot leak past the unit box.
    Constant columns map to 0.
    """

    low: np.ndarray
    span: np.ndarray

    def transform(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.low.shape[0]:
            raise InputError(f"expected (rows, {self.low.shape[0]}), got {x.shape}")
        safe_span = np.where(self.span > 0, self.span, 1.0)
        out = x - self.low  # one buffer: no whole-array temporaries
        out /= safe_span
        out[:, self.span == 0] = 0.0
        return np.clip(out, 0.0, 1.0, out=out)


def fit_minmax(x) -> MinMaxScaler:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise InputError(f"expected a non-empty 2-D array, got shape {x.shape}")
    low = x.min(axis=0)
    return MinMaxScaler(low=low, span=x.max(axis=0) - low)


def undersample(x, y, majority_ratio: float = 1.0, seed: int = 0):
    """Keep every minority row; sample majority rows without replacement.

    majority_ratio is majority count per minority row, so 1.0 yields a
    balanced set. Row order follows the original dataset (indices are
    sorted after sampling).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if majority_ratio <= 0:
        raise InputError(f"majority_ratio must be positive, got {majority_ratio}")
    if y.min() == y.max():
        raise InputError("undersampling needs both classes present")
    counts = [(y == 0).sum(), (y == 1).sum()]
    minority = 1 if counts[1] <= counts[0] else 0
    keep = np.nonzero(y == minority)[0]
    pool = np.nonzero(y != minority)[0]
    want = min(pool.size, int(round(keep.size * majority_ratio)))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    picked = rng.choice(pool, size=want, replace=False)
    idx = np.sort(np.concatenate([keep, picked]))
    return x[idx], y[idx], idx


def stratified_repeated_kfold(y, n_splits: int, n_repeats: int, seed: int = 0):
    """Yield (train_indices, heldout_indices) for every repeat and fold.

    Each repeat reshuffles with an independent stream spawned from the
    seed, then deals every class round-robin across folds, so fold class
    counts differ by at most one row.
    """
    y = np.asarray(y)
    if n_splits < 2:
        raise InputError(f"n_splits must be >= 2, got {n_splits}")
    if n_repeats < 1:
        raise InputError(f"n_repeats must be >= 1, got {n_repeats}")
    if y.shape[0] < n_splits:
        raise InputError(f"{y.shape[0]} rows cannot fill {n_splits} folds")
    everything = np.arange(y.shape[0])
    splits = []
    for child in np.random.SeedSequence(seed).spawn(n_repeats):
        rng = np.random.default_rng(child)
        heldout = [[] for _ in range(n_splits)]
        for cls in np.unique(y):
            perm = rng.permutation(np.nonzero(y == cls)[0])
            for fold in range(n_splits):
                heldout[fold].append(perm[fold::n_splits])
        for fold in range(n_splits):
            test = np.sort(np.concatenate(heldout[fold]))
            train = np.setdiff1d(everything, test, assume_unique=True)
            splits.append((train, test))
    return splits


@dataclass(frozen=True)
class EvalSplit:
    """Held-out rows partitioned for calibration, routing, and scoring."""

    validation: np.ndarray
    analysis: np.ndarray
    holdout: np.ndarray


def split_eval(y, indices, seed: int = 0) -> EvalSplit:
    """Split held-out rows per class into validation / analysis / holdout.

    The per-class quota is n//2, n//4, n//4 with leftovers going to
    validation first, then analysis. Warns when any part ends up with no
    positive rows, since calibration and thresholding degrade there.
    """
    y = np.asarray(y)
    indices = np.asarray(indices)
    if indices.size == 0:
        raise InputError("cannot split an empty index set")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    parts = [[], [], []]
    for cls in np.unique(y[indices]):
        rows = rng.permutation(indices[y[indices] == cls])
        n = rows.size
        residue = n - n // 2 - 2 * (n // 4)  # 0, 1, or 2 leftover rows
        cut1 = n // 2 + (residue > 0)
        cut2 = cut1 + n // 4 + (residue > 1)
        parts[0].append(rows[:cut1])
        parts[1].append(rows[cut1:cut2])
        parts[2].append(rows[cut2:])
    out = EvalSplit(*[np.sort(np.concatenate(p)) for p in parts])
    for name, rows in (("validation", out.validation),
                       ("analysis", out.analysis),
                       ("holdout", out.holdout)):
        if not np.any(y[rows] == 1):
            warnings.warn(f"{name} split has no positive rows", stacklevel=2)
    return out


def synthesize(n: int, fraud_rate: float = 0.00172, seed: int = 0):
    """Generate a transaction-like dataset with two fraud mechanisms.

    Background rows draw from a 6-factor Gaussian plus noise; columns 0,
    2, 4, 5 are then overwritten with unit normals so the fraud signals
    below sit in clean axes. Fraud splits into a linear component (mean
    shifts on columns 0 and 2, separable by an axis-aligned box) and a
    ring component (an annulus of radius 4.2..5.0 in the 4/5 plane, which
    no axis-aligned split can isolate). Column 28 is a positive lognormal
    amount. Returns (x, y, component) where component is 0 background,
    1 linear fraud, 2 ring fraud.
    """
    if n < 1000:
        raise InputError(f"n must be >= 1000 to place any fraud at all, got {n}")
    if not 0.0 < fraud_rate <= 0.5:
        raise InputError(f"fraud_rate must be in (0, 0.5], got {fraud_rate}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    n_fraud = int(round(n * fraud_rate))
    if n_fraud < 2:
        raise InputError(
            f"n * fraud_rate rounds to {n_fraud}; need at least one row per component"
        )
    n_linear = (n_fraud + 1) // 2
    n_ring = n_fraud - n_linear

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    loadings = rng.normal(size=(6, N_FEATURES)) / np.sqrt(6.0)
    x = rng.normal(size=(n, 6)) @ loadings + 0.7 * rng.normal(size=(n, N_FEATURES))
    for col in (0, 2, 4, 5):
        x[:, col] = rng.normal(size=n)

    y = np.zeros(n)
    component = np.zeros(n, dtype=np.int64)
    lin = slice(0, n_linear)
    x[lin, 0] += 4.5
    x[lin, 2] -= 3.5
    y[lin] = 1.0
    component[lin] = 1

    ring = slice(n_linear, n_fraud)
    radius = rng.uniform(4.2, 5.0, size=n_ring)
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n_ring)
    x[ring, 4] = radius * np.cos(angle)
    x[ring, 5] = radius * np.sin(angle)
    y[ring] = 1.0
    component[ring] = 2

    x[:, N_FEATURES - 1] = rng.lognormal(mean=3.0, sigma=1.2, size=n)

    order = rng.permutation(n)
    return x[order], y[order], component[order]
