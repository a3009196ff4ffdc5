"""No module of qsing, nor the tests' oracle module, nor a script under
scripts/, imports a name it never uses (there is no linter in the
toolchain, so the standard library's ast does the check)."""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "qsing"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
MODULES.append(TESTS / "oracles.py")
MODULES += sorted((TESTS.parent / "scripts").glob("*.py"))


def unused_imports(source):
    """Names bound by an import statement and never read as a name;
    ``from __future__ import ...`` is exempt."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport math\nfrom fractions import Fraction as F\n"
              "def f(x: F):\n    return math.pi\n")
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []
