"""The package imports nothing outside numpy, click and the standard library.

scipy and hypothesis are installed for the tests; this keeps them out of
``src/``.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "typedfisher"
ALLOWED = {"numpy", "click"} | set(sys.stdlib_module_names)


def top_level_imports(path):
    """The top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_imports_only_numpy_click_and_stdlib(path):
    outside = sorted(set(top_level_imports(path)) - ALLOWED)
    assert outside == [], f"{path.name} imports {outside}"


def test_the_check_sees_an_outside_import(tmp_path):
    path = tmp_path / "leaky.py"
    path.write_text("import os\nfrom scipy.linalg import lu\nfrom . import solver\n")
    assert sorted(set(top_level_imports(path)) - ALLOWED) == ["scipy"]
