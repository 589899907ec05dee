"""Every top-level function and class of the package is reached from one
of its users: the command line (``cli.py``), README's library example,
the acceptance suite and the benchmark (``perfbench/*.py``).  A
definition that only tests call does not belong in ``src/``; a test-side
helper can stand in for it.

Reach is followed by name.  A definition is reached when its name is an
identifier of a user, of a module's top-level statements (they run on
import; its imports do not count), or of the body of a reached
definition.  A string that is an identifier counts too, since the
benchmark's tracer looks functions up by name.  So a namesake may keep a
definition alive, but a definition that a user reaches is never flagged.
"""

import ast
from pathlib import Path

import bornverifier

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bornverifier"
README = ROOT / "README.md"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def identifiers(tree: ast.AST) -> set[str]:
    """Every name the tree reads, imports or spells as a string."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            found.add(node.value)
    return found


def unreached(modules: dict[str, str], users: list[str]) -> list[str]:
    """``<module>.<name>`` of each top-level definition of ``modules``
    (module name -> source) that no source of ``users`` reaches."""
    pending, names = {}, set()
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, DEFINITIONS):
                pending[f"{module}.{node.name}"] = node
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= identifiers(node)
    for source in users:
        names |= identifiers(ast.parse(source))
    while reached := [key for key in pending if key.partition(".")[2] in names]:
        for key in reached:
            names |= identifiers(pending.pop(key))
    return sorted(pending)


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_runs_on_the_package_exports():
    # The names the example imports from the package are exactly its
    # exports, and the example runs as printed.
    block = library_example()
    (imported,) = [node for node in ast.parse(block).body if isinstance(node, ast.ImportFrom)]
    assert imported.module == "bornverifier"
    assert sorted(alias.name for alias in imported.names) == sorted(bornverifier.__all__)
    exec(compile(block, "README.md", "exec"), {})


def test_every_definition_is_reached_from_a_user():
    modules = {
        path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py") if path.stem != "__init__"
    }
    users = [
        modules["cli"],
        library_example(),
        (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"),
        *(path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py"))),
    ]
    assert unreached(modules, users) == []


def test_the_sentinel_follows_bodies_and_strings():
    modules = {
        "a": "import os\nfrom .b import dead\nTABLE = {'k': kept}\ndef kept(): return chained()\n"
             "def chained(): pass\ndef traced(): pass\ndef dead(): pass\nclass Unused: pass\n",
        "b": "def dead(): return os.sep\ndef used(): pass\n",
    }
    users = ["from pkg import b\nb.used()\nNAMES = ('a', 'traced')\n"]
    assert unreached(modules, users) == ["a.Unused", "a.dead", "b.dead"]
