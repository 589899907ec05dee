"""The benchmark's tracer looks up each entry of ``TRACED`` in
``perfbench/tracing.py`` by module and function name, so renaming or
deleting one of those functions breaks the traced benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


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


def test_traced_list_is_read():
    assert ("circuits", "detector_measure") in _traced()


@pytest.mark.parametrize("module, function", _traced())
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"bornverifier.{module}"), function))
