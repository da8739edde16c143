"""No module of the package imports a name it never uses.  ``__init__``
re-exports its imports, so it is left out.  A small ``ast`` pass, since
pyflakes is not a dependency."""

import ast
from pathlib import Path

import pytest

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
