"""The package imports only the standard library and its one declared
dependency, numpy. scipy, networkx and the other dev tools are test
references only, never imported by src/: detecting communities and
scoring their accuracy load no scipy module, and neither they nor a GML
read that collapses no duplicate edge import logging; detecting on an edge
list leaves the GML reader unloaded. Every name the package
exports exists, every error type it declares is raised by it, every
function, class and method it defines is named somewhere else in src/ or
exported (Graph.from_edges, the public constructor, counts as exported),
every module-level import is used (or, in __init__.py, exported), and
only graph.py knows how pairs are stored."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = {"numpy"}  # [project] dependencies in pyproject.toml
ALLOWED = set(sys.stdlib_module_names) | DECLARED | {"commwalker"}


def test_declared_dependencies_match_pyproject():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = {spec.split(">")[0].split("=")[0].split("<")[0].strip() for spec in project["dependencies"]}
    assert names == DECLARED


def test_src_imports_only_stdlib_and_declared_dependencies():
    for path, tree in src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in ALLOWED, f"{path.name} imports {module}"


def src_trees():
    paths = sorted((ROOT / "src" / "commwalker").glob("*.py"))
    assert paths
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def test_every_leaf_error_is_raised():
    # an error type nothing raises is dead API: callers catch what never comes
    errors = ast.parse((ROOT / "src" / "commwalker" / "errors.py").read_text())
    classes = [node for node in errors.body if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    leaves = {node.name for node in classes} - bases
    raised = set()
    for _, tree in src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert len(leaves) > 10
    assert sorted(leaves - raised) == []


def test_every_exported_name_exists():
    # a stale __all__ entry makes `from commwalker import *` fail
    import commwalker

    missing = [name for name in commwalker.__all__ if not hasattr(commwalker, name)]
    assert missing == []


DETECT_WITHOUT_SCIPY = """
import sys
from importlib.resources import files

from commwalker.cli import main
from commwalker.graph import Partition, load_gml
from commwalker import partition_accuracy

karate = str(files("commwalker") / "data" / "karate.edges")
assert main(["detect", "--input", karate]) == 0
predicted = Partition([0, 0, 1, 1, 2], 3)
truth = Partition([1, 1, 1, 0, 0], 2)
accuracy = partition_accuracy(predicted, truth)
loaded = sorted(key for key in sys.modules if key == "scipy" or key.startswith("scipy."))
assert not loaded, f"detect and scoring loaded {len(loaded)} scipy modules: {loaded[:3]} ..."
# the GML reader is loaded by the first load_gml call, not by an edge-list run
assert "commwalker.gml" not in sys.modules, "detect on an edge list or scoring loaded the GML reader"
# logging is imported only to report collapsed duplicate edges
g, _ = load_gml("graph [ node [ id 1 ] node [ id 2 ] node [ id 3 ] edge [ source 1 target 2 ] edge [ source 2 target 3 ] ]")
assert g.edge_count == 2
assert "commwalker.gml" in sys.modules, "load_gml read GML without the GML reader"
assert "logging" not in sys.modules, "detect or a duplicate-free load_gml imported logging"
print(accuracy, file=sys.stderr)
"""


def test_detect_does_not_load_scipy():
    # a fresh interpreter: this test process may have scipy or logging
    # loaded already
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", DETECT_WITHOUT_SCIPY],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # predicted 0 -> truth 1 (2 nodes), 1 or 2 -> truth 0 (1 node): 3 of 5
    assert float(done.stderr) == 0.6


def test_every_definition_is_used_or_exported():
    # a module-level function or class, or a method, that nothing in src/
    # names outside its own body and that the package does not export is
    # dead code: only tests would keep it alive
    import commwalker

    trees = [tree for _, tree in src_trees()]
    definitions = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                definitions += [
                    (f"{node.name}.{method.name}", method)
                    for method in node.body
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("__")
                ]

    def names(root):
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr

    # Graph.from_edges is the public constructor from id pairs that README's
    # library section documents; no reader in src/ needs its checks, so it
    # is kept for library callers like an export
    exported = set(commwalker.__all__) | {"Graph.from_edges"}
    counts = Counter(name for tree in trees for name in names(tree))
    unused = []
    for qualified, node in definitions:
        own = Counter(names(node))[node.name]
        if counts[node.name] == own and qualified not in exported:
            unused.append(qualified)
    assert unused == []


def test_every_module_level_import_is_used():
    # an import nothing reads is dead weight, a load on every start and a
    # false lead for the reader; the project runs no linter, so this is the
    # check. __init__.py imports what the package exports, and the
    # __future__ import is a compiler directive, not a name
    import commwalker

    unused = []
    for path, tree in src_trees():
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set(commwalker.__all__) if path.name == "__init__.py" else set()
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read | exported]
    assert unused == []


def test_exploration_reads_pairs_only_through_the_graph():
    # which pair table a graph has is graph.py's choice: the walk asks
    # Graph.slots_of and Graph.slot_counts, whatever the table, and no
    # other module names either table
    named = {
        path.name: re.findall(r"\b(?:slot_of_key|sorted_keys|slot_by_key)\b", path.read_text())
        for path in (ROOT / "src" / "commwalker").glob("*.py")
        if path.name != "graph.py"
    }
    assert "exploration.py" in named
    assert {name: found for name, found in named.items() if found} == {}
