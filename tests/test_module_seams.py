"""No module of the package reads another module's private names.

A module-level name that starts with ``_`` belongs to its module.  One
that another module needs gets a public name, so that every seam between
modules is visible in the names it crosses.  Module aliases such as
``detectors as _det`` and private class members such as
``StateVector._trusted`` are not module-level names of a sibling.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bornverifier"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _imported_from(node: ast.ImportFrom) -> str | None:
    """Where a ``from ... import`` reads from: "" for the package itself,
    a sibling module's name, or None for anything else."""
    name = node.module or ""
    if node.level == 0:
        if name != "bornverifier" and not name.startswith("bornverifier."):
            return None
        name = name.removeprefix("bornverifier").removeprefix(".")
    return name if node.level <= 1 else None


def private_reads(source: str) -> list[str]:
    """Each ``<sibling>._name`` the source reads or imports, as text."""
    tree = ast.parse(source)
    modules: dict[str, str] = {}  # local name -> sibling module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source_module = _imported_from(node)
            if source_module == "":  # from . import circuits, detectors as _det
                modules.update({alias.asname or alias.name: alias.name for alias in node.names})
            elif source_module is not None:
                found += [f"{source_module}.{alias.name}" for alias in node.names if _private(alias.name)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and _private(node.attr):
            if node.value.id in modules:
                found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_no_private_name_of_a_sibling(module):
    assert private_reads((PACKAGE / f"{module}.py").read_text(encoding="utf-8")) == []


def test_the_sentinel_sees_both_kinds_of_read():
    source = (
        "from . import circuits, detectors as _det\n"
        "from .qcore import StateVector, _checked\n"
        "from bornverifier import qcore\n"
        "from bornverifier.dsl import _Parser\n"
        "qcore._spin_first\n"
        "circuits._mass(x)\n"
        "_det._clicks\n"
        "_det.click_probabilities\n"
        "StateVector._trusted\n"
        "circuits.__name__\n"
    )
    assert sorted(private_reads(source)) == [
        "circuits._mass", "detectors._clicks", "dsl._Parser", "qcore._checked", "qcore._spin_first"
    ]
