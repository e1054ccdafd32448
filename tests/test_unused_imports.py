"""No module of the package, and no test module, imports a name it never uses.

No linter ships with the project, so this walks each module's syntax tree
with the standard library: every name bound by an import must be read
somewhere in the module. `__init__.py` is skipped, since it imports to
re-export. The tests are walked too, so a name removed from the package
leaves no dangling import behind.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "mufield").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [(1, "os"), (2, "tau")]
