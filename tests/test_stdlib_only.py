"""The ospoly package stays stdlib-only: every absolute import in
src/ospoly is a standard-library module, and pyproject.toml declares no
dependency.  Test-only packages (hypothesis, numpy, ...) belong in tests."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_src_imports_only_the_standard_library():
    outside = []
    for path in sorted((ROOT / "src" / "ospoly").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            top = {name.split(".")[0] for name in names}
            outside += [f"{path.name}: {m}" for m in sorted(top - sys.stdlib_module_names)]
    assert not outside


def test_pyproject_declares_no_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["dependencies"] == []
