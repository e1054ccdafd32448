"""Each report type is built in the functions named for it, and nowhere else.

Every identity verdict comes from one of two constructors in `real_field`:
`_judged`, the one rule that passes a report exactly when its residual is
within eq_tol (a verdict decided by a search or a scan is judged on residual
0 or inf), and `_unmet`. Every bounds report, of a finite set
or of a sequence stream, comes from `bounds_report`. A report copied with
new fields by `dataclasses.replace` would be built by none of them, so that
call is refused everywhere. This walks each module's syntax tree with the standard
library and names every such call made outside those functions.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mufield"
MODULES = sorted(PACKAGE.glob("*.py"))

CONSTRUCTORS = {
    "IdentityCheckReport": {"_judged", "_unmet"},
    "BoundsReport": {"bounds_report"},
    "replace": set(),
}


def stray_constructions(source: str) -> list:
    """(line, report type, enclosing function) of each call outside its constructors."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name == "replace" and isinstance(f, ast.Attribute) and getattr(f.value, "id", None) != "dataclasses":
                name = None  # str.replace and the like
            if name in CONSTRUCTORS and func not in CONSTRUCTORS[name]:
                found.append((node.lineno, name, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_reports_come_from_their_constructors(path):
    assert stray_constructions(path.read_text()) == []


def test_guard_sees_a_stray_construction():
    source = (
        "def _judged():\n    return IdentityCheckReport()\n"
        "def _check_x():\n    def check():\n        return IdentityCheckReport()\n    return check\n"
        "def bounds_report():\n    return real_field.BoundsReport()\n"
        "def seq_bounds():\n    return BoundsReport()\n"
        "REPORT = IdentityCheckReport()\n"
        "def _judged():\n    return replace(REPORT), dataclasses.replace(REPORT), 'a'.replace('a', 'b')\n"
        "def check_monotone():\n    return IdentityCheckReport()\n"
    )
    assert stray_constructions(source) == [
        (5, "IdentityCheckReport", "check"),
        (10, "BoundsReport", "seq_bounds"),
        (11, "IdentityCheckReport", None),
        (13, "replace", "_judged"),
        (13, "replace", "_judged"),
        (15, "IdentityCheckReport", "check_monotone"),
    ]
