"""Exception hierarchy shared by every module in the package."""


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
