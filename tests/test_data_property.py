"""Property test: save_csv then load_csv returns every finite float64 bit for bit.

Kept apart from test_data.py so that module still runs where the optional
``hypothesis`` dev dependency is missing; this one is skipped there.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from qmoe.data import N_FEATURES, load_csv, save_csv  # noqa: E402


@st.composite
def tables(draw):
    rows = draw(st.integers(1, 8))
    # Finite doubles of every kind: -0.0, subnormals and the largest double.
    x = draw(arrays(np.float64, (rows, N_FEATURES),
                    elements=st.floats(allow_nan=False, allow_infinity=False)))
    y = draw(arrays(np.float64, rows, elements=st.sampled_from([0.0, 1.0])))
    return x, y


@settings(max_examples=60, deadline=None)
@given(tables())
def test_csv_round_trip_is_bit_exact(table):
    x, y = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "txn.csv"
        save_csv(path, x, y)
        x2, y2 = load_csv(path)
    assert x2.shape == x.shape and x2.flags.c_contiguous
    assert np.array_equal(x2.view(np.int64), x.view(np.int64))
    assert np.array_equal(y2.view(np.int64), y.view(np.int64))
