"""The benchmark reaches the package by name: its tracer looks up each
entry of ``TRACED`` in ``perfbench/tracing.py`` by module and function
name, and its workloads and checks read module attributes such as
``detectors.random_effect_detector``.  Renaming or deleting any of them
breaks every benchmark run, so each must resolve."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _traced() -> list[tuple[str, str]]:
    """(module, function) of each entry of ``TRACED``, read without
    importing the benchmark."""
    tree = ast.parse(TRACING.read_text())
    (entries,) = [
        node.value.elts
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED"
    ]
    return [tuple(ast.literal_eval(part) for part in entry.elts[:2]) for entry in entries]


def _benchmark_reads() -> list[tuple[str, str]]:
    """(module, attribute) of each ``<module>.<attribute>`` that a
    ``perfbench/*.py`` file reads from the package or one of its modules,
    read as attribute nodes without importing the benchmark."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> module of the package
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update({alias.asname or alias.name: alias.name for alias in node.names
                                if alias.name == "bornverifier"})
            elif isinstance(node, ast.ImportFrom) and node.module == "bornverifier":
                modules.update({alias.asname or alias.name: f"bornverifier.{alias.name}" for alias in node.names})
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                found.add((modules[node.value.id], node.attr))
    return sorted(found)


def test_traced_list_is_read():
    assert ("circuits", "detector_measure") in _traced()


def test_benchmark_reads_are_read():
    reads = _benchmark_reads()
    for read in [("bornverifier.detectors", "random_effect_detector"), ("bornverifier.qcore", "random_bloch"),
                 ("bornverifier.counterexamples", "rule_by_name"), ("bornverifier.reporting", "ReportDocument"),
                 ("bornverifier", "__version__")]:
        assert read in reads


@pytest.mark.parametrize("module, function", _traced())
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"bornverifier.{module}"), function))


@pytest.mark.parametrize("module, attribute", _benchmark_reads())
def test_benchmark_read_resolves(module, attribute):
    assert hasattr(importlib.import_module(module), attribute)
