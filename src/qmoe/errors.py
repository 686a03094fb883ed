"""Exception hierarchy shared by every module in the package, and the row
rules every fit and every scoring of raw rows applies: finite rows, 0/1
labels, the feature width, and passes that hold one row block at a time."""

import numpy as np

_BLOCK_ROWS = 8192  # rows per block wherever a pass over rows keeps its temporaries O(block)


class QmoeError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(QmoeError, ValueError):
    """Structurally invalid setup: bad dimensions, indices, or parameters."""


class InputError(QmoeError, ValueError):
    """Runtime data that violates an operation's contract."""


class DataError(QmoeError, ValueError):
    """Dataset ingestion problems: schema, parsing, missing values."""


class ModelIOError(QmoeError, RuntimeError):
    """Corrupt, truncated, or incompatible model or report files."""


def row_blocks(n: int):
    """Yield ``slice(start, min(start + _BLOCK_ROWS, n))`` over rows ``0..n``."""
    for start in range(0, n, _BLOCK_ROWS):
        yield slice(start, min(start + _BLOCK_ROWS, n))


def require_finite_rows(x: np.ndarray) -> None:
    """Raise InputError naming the first rows of 2-d ``x`` holding NaN or inf.

    The check reads one row block at a time, so it allocates O(block);
    only a fault builds the whole mask, to name rows of all of ``x``. Other
    shapes pass through; the experts' own shape checks reject them.
    """
    if x.ndim != 2 or all(np.isfinite(x[rows]).all() for rows in row_blocks(x.shape[0])):
        return
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    raise InputError(
        f"feature rows must be finite; {bad.size} rows hold NaN or infinity, "
        f"first at row indices {bad[:5].tolist()}"
    )


def feature_rows(x, width: int) -> np.ndarray:
    """``x`` as a float64 array of rows of ``width`` features, else an InputError."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise InputError(f"expected rows with {width} features, got shape {arr.shape}")
    return arr


def binary_labels(y, what: str = "") -> np.ndarray:
    """``y`` as float64 labels, each 0 or 1, else an InputError naming the others."""
    y = np.asarray(y)
    other = ~((y == 0) | (y == 1))
    if other.any():
        raise InputError(f"{what} labels must be 0 or 1; {other.sum()} are not, "
                         f"among them {np.unique(y[other])[:5].tolist()}".lstrip())
    return y.astype(np.float64, copy=False)


def labeled_rows(x, y, width=None, what: str = "training"):
    """``(x, y)`` as float64 arrays: at least one finite row of ``x`` (of
    ``width`` features, if given) per 0/1 label, else an InputError naming
    the ``what`` set."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise InputError(f"{what} features {x.shape} and labels {y.shape} do not align")
    if width is not None and x.shape[1] != width:
        raise InputError(f"{what} rows have {x.shape[1]} features, expected {width}")
    if x.shape[0] == 0:
        raise InputError(f"cannot fit on an empty {what} set")
    try:
        require_finite_rows(x)
    except InputError as exc:
        raise InputError(f"{what} {exc}") from None
    return x, binary_labels(y, what)
