"""Source hygiene: no module binds a top-level function or class name twice, so
no definition is silently replaced by a later one of the same name."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "ndtbound").glob("*.py"), *(ROOT / "tests").glob("*.py")])


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_module_binds_a_top_level_def_or_class_twice(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = Counter(
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    )
    assert [name for name, count in names.items() if count > 1] == []
