"""Source hygiene: no module binds a top-level function or class name twice, so
no definition is silently replaced by a later one of the same name; and each
package module imports only the sibling modules declared for it."""

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


PACKAGE = ROOT / "src" / "ndtbound"
# the sibling modules each module imports: the oracle checks the bounds with
# combinatorics alone, never with the module it checks
SIBLINGS = {
    "__init__": {"bounds", "combinatorics", "comparator", "demands", "oracle"},
    "__main__": {"cli"},
    "bounds": {"combinatorics", "demands"},
    "cli": {"bounds", "combinatorics", "comparator", "demands", "oracle"},
    "combinatorics": set(),
    "comparator": {"bounds", "combinatorics"},
    "demands": {"combinatorics"},
    "oracle": {"combinatorics"},
}


def _sibling_imports(path: Path) -> set[str]:
    """The package modules that ``path`` imports, relatively or by absolute name."""
    modules = {module.stem for module in PACKAGE.glob("*.py")}
    targets = []  # absolute dotted names: each module imported from, and each name imported
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            targets.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("ndtbound", node.module))) if node.level else node.module
            targets.extend([base, *(f"{base}.{alias.name}" for alias in node.names)])
    parts = (target.split(".") for target in targets)
    return {part[1] for part in parts if part[0] == "ndtbound" and len(part) > 1 and part[1] in modules}


def test_each_module_imports_only_its_declared_siblings():
    assert SIBLINGS.keys() == {path.stem for path in PACKAGE.glob("*.py")}
    assert {name: _sibling_imports(PACKAGE / f"{name}.py") for name in SIBLINGS} == SIBLINGS


def _imported_modules(path: Path) -> set[str]:
    """The top-level names of the absolute imports in ``path``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_only_combinatorics_imports_decimal():
    """Every int that may pass the int-to-str limit prints through
    ``combinatorics._digits``, so no other module needs ``decimal``."""
    importers = {path.stem for path in PACKAGE.glob("*.py") if "decimal" in _imported_modules(path)}
    assert importers == {"combinatorics"}
