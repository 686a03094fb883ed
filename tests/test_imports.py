"""Every module of the package reads each name it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qmoe"


def unread_imports(source: str) -> list:
    """The names ``source`` imports and never reads, sorted; ``__future__`` is skipped.

    An attribute chain such as ``np.linalg.norm`` reads its first name.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_the_scan_flags_unread_imports():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from .calibration import TemperatureScaler, fit_temperature\n"
              "from .errors import _BLOCK_ROWS, row_blocks\n"
              "for rows in row_blocks(3):\n"
              "    fit_temperature(np.arange(3)[rows])\n")
    assert unread_imports(source) == ["TemperatureScaler", "_BLOCK_ROWS"]


# __init__.py imports names only to re-export them.
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_reads_every_name_it_imports(module):
    assert unread_imports((PACKAGE / module).read_text()) == []
