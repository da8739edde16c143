"""No module of the package imports a name it never uses (``__init__``
re-exports its imports, so it is left out), and every function, class and
method it defines is referenced in ``src/``, ``scripts/``, ``perfbench/``
or ``demos/``, or is exported.  Small ``ast`` and regex passes, since
pyflakes is not a dependency."""

import ast
import re
from pathlib import Path

import pytest

import subpower

SRC = Path(__file__).resolve().parent.parent / "src" / "subpower"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_the_check_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os\n"
              "import numpy as np\nimport os.path\n"
              "from a import b, c as d\n\n\ndef f():\n"
              "    from e import g\n    return np.zeros(b)\n")
    assert unused_imports(source) == ["d", "g", "os"]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    assert unused_imports((SRC / name).read_text()) == []



# defined in src/subpower with no reference in src/, scripts/, perfbench/
# or demos/, and not exported: only tests use them
UNREFERENCED = {"kernel_partition", "WreathSpec.l_part", "wreath_to_dict",
                "comprep_from_dict"}


def definitions(source: str) -> list:
    """Top-level functions and classes, then the methods of each class as
    ``Class.method``, dunder methods left out."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and not item.name.startswith("__")]
    return names


def unreferenced(package: list, callers: list, exported: set) -> set:
    """The definitions in the `package` sources, not `exported`, whose bare
    name occurs in `package` and `callers` no more often than it is
    defined there."""
    text = "\n".join(package + callers)
    found = set()
    for name in (n for source in package for n in definitions(source)):
        bare = name.rpartition(".")[2]
        uses = len(re.findall(rf"\b{bare}\b", text))
        defs = len(re.findall(rf"\b(?:def|class) {bare}\b", text))
        if name not in exported and uses <= defs:
            found.add(name)
    return found


def test_the_scan_finds_unreferenced_definitions():
    module = ("class A:\n    def used(self):\n        pass\n\n"
              "    def idle(self):\n        pass\n\n"
              "    def __len__(self):\n        return 0\n\n\n"
              "def lone():\n    pass\n\n\ndef shown():\n    pass\n")
    assert definitions(module) == ["A", "A.used", "A.idle", "lone", "shown"]
    assert unreferenced([module], ["A().used()\n"], {"shown"}) \
        == {"A.idle", "lone"}


def test_every_definition_has_a_caller_or_is_exported():
    root = SRC.parent.parent
    package = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    callers = [path.read_text() for folder in ("scripts", "perfbench", "demos")
               for path in sorted((root / folder).rglob("*.py"))]
    assert unreferenced(package, callers, set(subpower.__all__)) \
        == UNREFERENCED
