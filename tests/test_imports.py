"""No module of the package imports a name it never uses (``__init__``
re-exports its imports, so it is left out), every function, class and
method it defines is referenced by code (not by a docstring or a comment)
in ``src/``, ``scripts/``, ``perfbench/`` or ``demos/``, or is exported,
only ``span_over`` makes an echelon, so no caller chooses its class, and
no code reaches into an object's ``__dict__``: a derived value is a
``functools.cached_property``.  Small ``ast`` passes, since pyflakes is
not a dependency."""

import ast
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
UNREFERENCED = {"wreath_to_dict", "comprep_from_dict"}


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


def references(source: str) -> set:
    """The names the code of `source` refers to: names, attributes,
    imported names, and string constants (``perfbench/tracing.py`` names
    what it wraps by string).  A name in a docstring or a comment does not
    count, and neither does a definition."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def unreferenced(package: list, callers: list, exported: set) -> set:
    """The definitions in the `package` sources, not `exported`, whose bare
    name no code in `package` or `callers` refers to."""
    used = set().union(*map(references, package + callers))
    return {name for source in package for name in definitions(source)
            if name not in exported and name.rpartition(".")[2] not in used}


def test_the_scan_finds_unreferenced_definitions():
    module = ("class A:\n    def used(self):\n        pass\n\n"
              "    def idle(self):\n        pass\n\n"
              "    def told(self):\n        pass\n\n"
              "    def named(self):\n        pass\n\n"
              "    def __len__(self):\n        return 0\n\n\n"
              "def lone():\n    \"\"\"Calls lone() and A.told().\"\"\"\n\n\n"
              "def shown():\n    pass\n")
    assert definitions(module) == ["A", "A.used", "A.idle", "A.told",
                                   "A.named", "lone", "shown"]
    caller = "# A().idle()\nA().used()\nwrap(A, 'named')\n"
    assert unreferenced([module], [caller], {"shown"}) \
        == {"A.idle", "A.told", "lone"}


def test_every_definition_has_a_caller_or_is_exported():
    root = SRC.parent.parent
    package = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    callers = [path.read_text() for folder in ("scripts", "perfbench", "demos")
               for path in sorted((root / folder).rglob("*.py"))]
    assert unreferenced(package, callers, set(subpower.__all__)) \
        == UNREFERENCED


# the only function that may make an echelon: span_over picks the class
# by the modulus
ECHELON_MAKERS = {"span_over"}


def echelon_calls(source: str) -> list:
    """(enclosing function, call) of every ``Echelon(...)`` or
    ``FieldEchelon(...)`` call, the function as a dotted path such as
    ``Class.method``, or "" at module level."""
    found = []

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                func = child.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                if name in ("Echelon", "FieldEchelon"):
                    found.append((scope, name))
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_the_scan_finds_echelon_calls():
    module = ("E = Echelon(2, 3)\n\n\nclass A:\n    def f(self):\n"
              "        return affine.FieldEchelon(3, 1)\n\n\n"
              "def span_over(m):\n    def g():\n"
              "        return FieldEchelon(m, 2)\n"
              "    return g(), Echelon(m, 1), EchelonLike(m)\n")
    assert echelon_calls(module) == [
        ("", "Echelon"), ("A.f", "FieldEchelon"),
        ("span_over.g", "FieldEchelon"), ("span_over", "Echelon")]


def test_every_echelon_is_made_by_span_over():
    calls = [(path.name, scope, name) for path in sorted(SRC.glob("*.py"))
             for scope, name in echelon_calls(path.read_text())]
    assert calls, "the scan found no echelon constructor at all"
    assert [c for c in calls if c[1] not in ECHELON_MAKERS] == []


def dict_accesses(source: str) -> list:
    """Line numbers of every ``__dict__`` in the code: an attribute, such
    as ``obj.__dict__``, or a bare name."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if (isinstance(node, ast.Attribute) and node.attr == "__dict__")
            or (isinstance(node, ast.Name) and node.id == "__dict__")]


def test_the_scan_finds_dict_accesses():
    module = ('"""Mentions __dict__ in a docstring."""\n'
              "x = spec.__dict__.get('a')\n"
              "def f(self):\n    self.__dict__['b'] = 1\n"
              "    return type(self).__dict__, __dict__\n")
    assert sorted(dict_accesses(module)) == [2, 4, 5, 5]


def test_no_code_touches_dict():
    found = [(path.name, line) for path in sorted(SRC.glob("*.py"))
             for line in dict_accesses(path.read_text())]
    assert found == []
