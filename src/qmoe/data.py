"""Dataset loading, scaling, resampling, splits, and a synthetic generator.

The CSV layout is the common card-transaction format: a Time column that
gets dropped, anonymized features V1..V28, an Amount column, and a 0/1
Class label. Everything downstream works on the resulting 29 feature
columns. load_csv has one body parser: it parses the byte parts of
``workers.parts`` through ``workers.fork_map`` (fork facts in ``workers``)
into the shared (x, y) it returns, each row with the bits of a whole-body
parse. A refused file is re-read row by row only to name its bad line.

All randomized helpers take explicit seeds and derive independent streams
through numpy SeedSequence, so repeated runs reproduce byte-identical
splits and samples.
"""

from __future__ import annotations

import csv
import io
import mmap
import os
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, DataError, InputError, binary_labels, feature_rows,
                     replacing, row_blocks)
from .workers import fork_map, parts

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
# Columns per step of synthesize's in-place shuffle: a step's gather holds
# 8 B per row per column, and 8 columns shuffle as fast as one whole-row
# gather did, where fewer columns per step cost up to a fifth more time.
_SHUFFLE_COLUMNS = 8
# Rows per np.loadtxt call in a part of load_csv: the call's own table is
# 1 MB, however large the part.
_CHUNK_ROWS = 4096
# The least body, in bytes, that earns a part of load_csv: forking and
# reaping a child took 3-8 ms in a 120 MB process, and a core parses about
# 30 MB/s, so a 2 MB part (about 70 ms) pays for its child about ten times.
_MIN_PART_BYTES = 1 << 21
# The shortest valid row, in bytes: 31 one-character fields and 30 commas.
_MIN_ROW_BYTES = 2 * len(CSV_HEADER) - 1
_OUTRUN = "a part's rows missed its count"  # what _parse_parts returns when they do


def load_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a transaction CSV into (features, labels), dropping Time.

    Quoted fields (the Kaggle file quotes its header and Class) and empty
    lines are fine. Raises DataError with the offending row and column
    named, so a truncated download or a stray locale comma is diagnosable
    from the message alone, and names the path when the file cannot be read.

    The body is parsed in the parts of ``workers.parts``, none under
    ``_MIN_PART_BYTES``. ``_row_bound`` moves each part's start to a row's
    start and counts its rows; ``_parse_parts`` parses each part into its
    rows of the (x, y) returned, C-contiguous views of one shared mapping
    laid out [x | y], each row with the bits of a whole-file parse (a part
    whose fork is refused, or whose child is lost, is parsed here). When a
    part's rows miss its count, the body is parsed again as one span in the
    process, counted by its bytes alone. After a refused row, in the parts
    or in that one span, ``_first_fault`` re-reads the body and names the
    bad line.
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
            size = os.path.getsize(path)
            loaded = _parse_parts(path, fh, _row_bound(path, parts(size, _MIN_PART_BYTES)))
            if loaded is _OUTRUN:
                loaded = _parse_parts(path, fh, [(0, size, size // _MIN_ROW_BYTES + 1)])
            if loaded is None and (fault := _first_fault(path)):
                raise DataError(f"{path}: {fault}")
        if loaded is None:
            raise DataError(f"{path}: rows are not {len(CSV_HEADER)} fields with a 0/1 Class")
        if not loaded[1].size:
            raise DataError(f"{path}: no data rows")
        return loaded
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def _parse_parts(path, fh, spans):
    """Parse span 0 here and every other span in a forked child (``fork_map``),
    each into its counted rows of one shared mapping laid out [x | y]: the
    (x, y) parsed; None after a refused row or a read fault in any span; or
    ``_OUTRUN`` when a span before the last parses fewer rows than its count
    (blank lines, quoted line ends) or any span more (lone \r line ends).
    Either drops the mapping with this call."""
    counts = [rows for *_, rows in spans]
    starts = np.cumsum([0] + counts).tolist()
    n = starts[-1]
    flat = np.frombuffer(mmap.mmap(-1, 8 * (N_FEATURES + 1) * max(n, 1)), np.float64)
    x, y = flat[:n * N_FEATURES].reshape(n, N_FEATURES), flat[n * N_FEATURES:][:n]
    jobs = [(span, x[a:b], y[a:b]) for span, a, b in zip(spans, starts, starts[1:])]
    try:
        parsed = fork_map(lambda job: _parse_part(path, fh, *job), jobs)
    except (OSError, ValueError):  # a row load_csv refuses, or a read fault
        return None
    if parsed[:-1] != counts[:-1] or parsed[-1] < 0:
        return _OUTRUN
    n -= counts[-1] - parsed[-1]  # the last span may end in lines that are not rows
    return x[:n], y[:n]


def _parse_part(path, fh, span, x, y) -> int:
    """Parse bytes [start, stop) of the file into the rows ``x`` and labels ``y``,
    ``_CHUNK_ROWS`` rows a call: the row count, ValueError at a row ``load_csv``
    refuses, or -1 once the rows outrun ``y``. A span counted by its bytes
    never does: each row that is not refused holds at least ``_MIN_ROW_BYTES``."""
    start, stop, _ = span
    with open(path, "rb") as raw, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty chunk
        raw.seek(start)
        text = io.TextIOWrapper(_Span(raw, stop - start), fh.encoding, fh.errors)
        if start == 0:
            text.readline()  # the header
        done, n = 0, _CHUNK_ROWS
        while n == _CHUNK_ROWS:
            chunk = np.loadtxt(text, delimiter=",", quotechar='"', comments=None,
                               ndmin=2, dtype=np.float64, max_rows=_CHUNK_ROWS)
            if not (n := chunk.shape[0]):
                break
            labels = chunk[:, -1]
            if chunk.shape[1] != len(CSV_HEADER) or not np.all((labels == 0.0) | (labels == 1.0)):
                raise ValueError("a row load_csv refuses")
            if done + n > len(y):
                return -1
            x[done:done + n] = chunk[:, 1:-1]
            y[done:done + n] = labels
            done += n
    return done


class _Span(io.RawIOBase):
    """The next ``size`` bytes of a binary file, as a stream of their own."""

    def __init__(self, file, size: int):
        self._file, self._left = file, size

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        n = self._file.readinto(memoryview(buf)[:self._left])
        self._left -= n
        return n


def _row_bound(path, spans: list) -> list:
    """The byte ``spans`` of a text file (contiguous slices from 0 to its size,
    as ``workers.parts`` cuts them) as [(start, stop, rows)], each start moved
    forward to a row's start, with each span's rows counted.

    A span starts right after the first \n byte at or past its slice's start
    with an even count of " bytes before it (the header holds an even count),
    so no span starts inside a quoted field or a \r\n pair. A slice with no
    such \n before the end of the file merges into the span before it, so a
    CR-only file is one span. A span's rows are its \n count, less the header
    in span 0, plus one in the last span if the file does not end in \n:
    exact when every line is one row. A valid row is at least
    ``_MIN_ROW_BYTES``, which caps the count, so a file of empty lines cannot
    make the mapping huge.
    """
    size = spans[-1].stop
    cuts, lines = [0], [-1]
    buf = bytearray(1 << 19)  # reused: the counts allocate O(buffer)
    pos = quotes = 0
    with open(path, "rb", buffering=0) as raw:
        while n := raw.readinto(buf):
            ends, at = np.frombuffer(buf, np.uint8, n) == 10, 0
            while len(cuts) < len(spans) and (i := max(spans[len(cuts)].start - pos, at)) < n:
                cut = _even_cut(buf, i, n, quotes)
                if cut < 0 or pos + cut >= size:
                    break
                lines[-1] += int(np.count_nonzero(ends[at:cut]))
                cuts.append(pos + cut)
                lines.append(0)
                at = cut
            lines[-1] += int(np.count_nonzero(ends[at:]))
            if buf.find(b'"', 0, n) >= 0:
                quotes += np.count_nonzero(np.frombuffer(buf, np.uint8, n) == 34)
            pos += n
    lines[-1] += int(not ends[-1])  # a last line with no line end
    return [(a, b, min(k, (b - a) // _MIN_ROW_BYTES + 1))
            for a, b, k in zip(cuts, cuts[1:] + [size], lines)]


def _even_cut(buf, i: int, n: int, quotes: int) -> int:
    """The offset just past the first \n of ``buf[i:n]`` with an even count of
    " bytes before it (``quotes`` of them before ``buf``), or -1."""
    odd = (quotes + buf.count(b'"', 0, i)) % 2
    while (j := buf.find(b"\n", i, n)) >= 0:
        odd ^= buf.count(b'"', i, j) % 2
        if not odd:
            return j + 1
        i = j + 1
    return -1


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
    """Whether ``np.loadtxt`` reads ``s`` as a float: Python's float grammar on
    the stripped token, in ASCII and without underscores (numpy parses with
    ``PyOS_string_to_double``, which takes neither; ``float()`` takes both)."""
    s = s.strip()
    if not s.isascii() or "_" in s:
        return False
    try:
        float(s)
        return True
    except ValueError:
        return False


def save_csv(path, x: np.ndarray, y: np.ndarray) -> None:
    """Write (features, labels) in the load_csv layout; Time is the row index.
    Labels other than 0 and 1 are an InputError, and no file is written. The
    rows stream through ``errors.replacing``, so a fault or an interrupt
    leaves a file already at ``path`` as it was."""
    x = feature_rows(x, N_FEATURES)
    y = binary_labels(y, "Class")  # before the file is opened: a refused label writes nothing
    if y.shape != (x.shape[0],):
        raise InputError(f"labels {y.shape} do not match {x.shape[0]} rows")
    with replacing(path, DataError) as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for i in range(x.shape[0]):
            writer.writerow([float(i)] + [repr(float(v)) for v in x[i]] + [int(y[i])])


@dataclass(frozen=True)
class MinMaxScaler:
    """Per-column [0, 1] scaling frozen at fit time.

    Transform output is clipped, so feature values outside the fitted
    range (routine on held-out data) cannot leak past the unit box.
    Constant columns map to 0. It is the hybrid secondary's input map
    alone: the forests are fit on raw rows, as exact greedy splits read
    only the order of each column's values. ``low`` and ``span`` are one
    1-D length, and no span is negative: fit_minmax's span is a max less a
    min, and ``transform`` would read a negative one as 1.
    """

    low: np.ndarray
    span: np.ndarray

    def __post_init__(self) -> None:
        if self.low.ndim != 1 or self.low.shape != self.span.shape:
            raise ConfigurationError(f"low and span must be 1-D of one length, found shapes "
                                     f"{self.low.shape} and {self.span.shape}")
        if (self.span < 0).any():
            bad = int(np.flatnonzero(self.span < 0)[0])
            raise ConfigurationError(f"span must not be negative, found {self.span[bad]} "
                                     f"at index {bad}")

    @property
    def n_features(self) -> int:
        return self.low.shape[0]

    def transform(self, x, out=None) -> np.ndarray:
        """The scaled rows, written into ``out`` (any array of x's shape, a
        transposed view included) when given."""
        x = feature_rows(x, self.n_features)
        safe_span = np.where(self.span > 0, self.span, 1.0)
        out = np.empty_like(x) if out is None else out  # one buffer: no whole-array temporaries
        np.subtract(x.T, self.low[:, None], out=out.T)  # column-wise: fast into a transpose too
        out /= safe_span
        out[:, self.span == 0] = 0.0
        return np.clip(out, 0.0, 1.0, out=out)


def fit_minmax(x, rows=None) -> MinMaxScaler:
    """The scaler of ``x[rows]``, for integer row indices ``rows`` (all of
    ``x`` when ``rows`` is None).

    Min and max are read one row block at a time and folded in row
    order, so the selected rows are never copied whole; both are exact,
    and ``fit_minmax(x, rows)`` equals ``fit_minmax(x[rows])`` bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    n = 0 if x.ndim != 2 else x.shape[0] if rows is None else len(rows)
    if n == 0:
        raise InputError(f"expected a non-empty 2-D array, got shape {x.shape}"
                         + ("" if rows is None else f" and {len(rows)} rows"))
    low = high = None
    for part in row_blocks(n):
        block = x[part] if rows is None else x[rows[part]]
        if low is None:
            low, high = block.min(axis=0), block.max(axis=0)
        else:
            np.minimum(low, block.min(axis=0), out=low)
            np.maximum(high, block.max(axis=0), out=high)
    return MinMaxScaler(low=low, span=high - low)


def undersample(y, majority_ratio: float = 1.0, seed: int = 0) -> np.ndarray:
    """Sorted indices of ``y``'s rows to keep: every minority row, and
    majority rows sampled without replacement.

    majority_ratio is majority count per minority row, so 1.0 yields a
    balanced set. Only the labels are read, so a caller gathers (and
    scales) just the kept rows. The labels must be a non-empty 1-D array
    of 0s and 1s holding both classes; anything else, NaN included, is an
    InputError that names the offending labels.
    """
    y = np.asarray(y)
    if not majority_ratio > 0:
        raise InputError(f"majority_ratio must be positive, got {majority_ratio}")
    if y.ndim != 1 or y.size == 0:
        raise InputError(f"undersampling needs a non-empty 1-D label array, got shape {y.shape}")
    y = binary_labels(y, "undersampling")
    if y.min() == y.max():
        raise InputError("undersampling needs both classes present")
    counts = [(y == 0).sum(), (y == 1).sum()]
    minority = 1 if counts[1] <= counts[0] else 0
    keep = np.nonzero(y == minority)[0]
    pool = np.nonzero(y != minority)[0]
    # min first: a product past the largest double is inf, which int() refuses.
    want = int(round(min(keep.size * majority_ratio, pool.size)))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    picked = rng.choice(pool, size=want, replace=False)
    return np.sort(np.concatenate([keep, picked]))


def stratified_repeated_kfold(y, n_splits: int, n_repeats: int,
                              seed: int = 0) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """An iterator of (train_indices, heldout_indices) for every repeat and fold.

    Each repeat reshuffles with an independent stream spawned from the
    seed, then deals every class round-robin across folds, so fold class
    counts differ by at most one row. The arguments are checked here, at
    the call; a split is built only when it is reached, so a caller that
    needs the first reads only the first.
    """
    y = np.asarray(y)
    if n_splits < 2:
        raise InputError(f"n_splits must be >= 2, got {n_splits}")
    if n_repeats < 1:
        raise InputError(f"n_repeats must be >= 1, got {n_repeats}")
    if y.shape[0] < n_splits:
        raise InputError(f"{y.shape[0]} rows cannot fill {n_splits} folds")
    return _kfold_splits(y, n_splits, n_repeats, seed)


def _kfold_splits(y, n_splits: int, n_repeats: int, seed: int):
    classes = [np.flatnonzero(y == cls) for cls in np.unique(y)]
    for child in np.random.SeedSequence(seed).spawn(n_repeats):
        rng = np.random.default_rng(child)
        perms = [rng.permutation(members) for members in classes]
        for fold in range(n_splits):
            test = np.sort(np.concatenate([perm[fold::n_splits] for perm in perms]))
            train = np.ones(y.shape[0], dtype=bool)
            train[test] = False
            yield np.flatnonzero(train), test


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

    The function holds one (n, 29) table plus O(block) scratch. The factor
    GEMM writes straight into the table, which is allocated before any
    scratch; the 0.7-scaled noise is drawn and added one row block at a
    time (a Generator's block draws equal one whole draw); and the
    final row shuffle runs in place, ``_SHUFFLE_COLUMNS`` columns per step,
    through a gathered (n, 8) buffer. The output equals the whole-table
    expression ``x = F @ L + 0.7 * N; x[order]`` byte for byte.
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
    x = np.empty((n, N_FEATURES))  # the one table, first, so it can take a freed table's place
    np.matmul(rng.normal(size=(n, 6)), loadings, out=x)
    for rows in row_blocks(n):
        noise = rng.normal(size=(rows.stop - rows.start, N_FEATURES))
        noise *= 0.7
        x[rows] += noise
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
    for col in range(0, N_FEATURES, _SHUFFLE_COLUMNS):
        # Each row's columns of this group, viewed as one opaque item, move as one copy.
        cols = x[:, col:col + _SHUFFLE_COLUMNS]
        items = cols.view(np.dtype((np.void, cols.itemsize * cols.shape[1])))[:, 0]
        items[:] = items[order]
    return x, y[order], component[order]
