"""hyperchi is stdlib-only: the package imports nothing else and declares
no runtime dependency."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "hyperchi").glob("*.py"))


def _absolute_imports(path: Path) -> list:
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_package_imports_only_the_standard_library():
    assert MODULES
    outside = [
        f"{path.name}: {name}"
        for path in MODULES
        for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_pyproject_lists_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project.get("dependencies", []) == []
    assert "dependencies" not in project.get("dynamic", [])
