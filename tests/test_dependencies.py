"""The package imports only the standard library and its declared
dependencies: numpy and scipy. networkx and the other dev tools are test
references only, never imported by src/. Every name the package exports
exists."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = {"numpy", "scipy"}  # [project] dependencies in pyproject.toml
ALLOWED = set(sys.stdlib_module_names) | DECLARED | {"commwalker"}


def test_declared_dependencies_match_pyproject():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = {spec.split(">")[0].split("=")[0].split("<")[0].strip() for spec in project["dependencies"]}
    assert names == DECLARED


def test_src_imports_only_stdlib_and_declared_dependencies():
    paths = sorted((ROOT / "src" / "commwalker").glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in ALLOWED, f"{path.name} imports {module}"


def test_every_exported_name_exists():
    # a stale __all__ entry makes `from commwalker import *` fail
    import commwalker

    missing = [name for name in commwalker.__all__ if not hasattr(commwalker, name)]
    assert missing == []
