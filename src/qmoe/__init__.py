"""Quantum-routed mixture of experts for highly imbalanced binary classification.

The package trains two experts on undersampled transaction data, a gradient
boosted tree ensemble and a hybrid network whose bottleneck is a small
variational circuit simulated densely on the CPU, then learns a router that
sends only contested inputs to the expensive expert. Everything is seeded
and bit-reproducible.
"""

from .errors import (
    ConfigurationError,
    DataError,
    InputError,
    ModelIOError,
    QmoeError,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "QmoeError",
    "ConfigurationError",
    "InputError",
    "DataError",
    "ModelIOError",
]
