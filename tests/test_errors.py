"""The row rules in qmoe.errors, and the modules that apply them."""

import numpy as np
import pytest

from qmoe.calibration import fit_temperature
from qmoe.data import undersample
from qmoe.errors import _BLOCK_ROWS, InputError, binary_labels, labeled_rows, row_blocks
from qmoe.metrics import pr_curve
from qmoe.moe import router_targets


@pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 1])
def test_row_blocks_cover_every_row_once_in_full_blocks(n):
    blocks = list(row_blocks(n))
    covered = [row for rows in blocks for row in range(n)[rows]]
    assert covered == list(range(n))
    assert [rows.stop - rows.start for rows in blocks[:-1]] == [_BLOCK_ROWS] * (len(blocks) - 1)
    assert all(rows.stop <= n for rows in blocks)  # a block's stop is a row count


def test_binary_labels_returns_float64_and_names_the_others():
    y = binary_labels(np.array([0, 1, 1], dtype=np.int8))
    assert y.dtype == np.float64 and y.tolist() == [0.0, 1.0, 1.0]
    with pytest.raises(InputError) as info:
        binary_labels([0.0, 2.0, np.nan, 2.0, -1.0], "validation")
    assert str(info.value) == ("validation labels must be 0 or 1; 4 are not, "
                               "among them [-1.0, 2.0, nan]")
    with pytest.raises(InputError, match=r"^labels must be 0 or 1; 2 are not"):
        binary_labels(np.array(["0", "1"]))  # text is not a label


def _rows(y):
    return np.zeros((len(y), 2))


# Every function that takes labels, with the prefix its message kept.
LABEL_TAKERS = {
    "labeled_rows": (lambda y: labeled_rows(_rows(y), y, what="validation"),
                     "validation labels must be 0 or 1"),
    "pr_curve": (lambda y: pr_curve(np.linspace(0, 1, len(y)), y), "labels must be 0 or 1"),
    "fit_temperature": (lambda y: fit_temperature(np.full(len(y), 0.5), y),
                        "labels must be 0 or 1"),
    "router_targets": (lambda y: router_targets(y, np.full(len(y), 0.5), np.full(len(y), 0.5),
                                                0.5, 0.5), "labels must be 0 or 1"),
    "undersample": (lambda y: undersample(y), "undersampling labels must be 0 or 1"),
}


@pytest.mark.parametrize("taker", LABEL_TAKERS)
def test_every_label_taker_names_the_labels_that_are_not_0_or_1(taker):
    call, prefix = LABEL_TAKERS[taker]
    with pytest.raises(InputError) as info:
        call(np.array([0.0, 1.0, 0.5, 1.0, 3.0]))
    assert str(info.value) == f"{prefix}; 2 are not, among them [0.5, 3.0]"
