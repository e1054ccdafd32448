"""A family member is found through one lookup: the sorted member table.

`FamilyMatcher` evaluates its members once, in the builder of its member
table, and every lookup searches that table. A `ValueForm.invert`, or a
`self.form.terms` call anywhere else in `FamilyMatcher`, would bring back a
second way of finding a member. This walks the syntax trees of `forms.py`
and `membership.py` with the standard library and names every such place.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mufield"
TABLE_BUILDER = "_members"


def _methods(tree, cls_name: str) -> dict:
    classes = [c for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == cls_name]
    assert classes, f"{cls_name} is not defined"
    return {fn.name: fn for fn in classes[0].body if isinstance(fn, ast.FunctionDef)}


def second_lookups(forms_source: str, membership_source: str) -> list:
    """(where, line) of a ValueForm.invert, and of each self.form.terms call
    in a FamilyMatcher method other than the table builder."""
    found = []
    invert = _methods(ast.parse(forms_source), "ValueForm").get("invert")
    if invert is not None:
        found.append(("ValueForm.invert", invert.lineno))
    for name, fn in _methods(ast.parse(membership_source), "FamilyMatcher").items():
        if name == TABLE_BUILDER:
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Attribute) and node.attr == "terms"
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "form"
                    and isinstance(node.value.value, ast.Name) and node.value.value.id == "self"):
                found.append((f"FamilyMatcher.{name}", node.lineno))
    return sorted(found)


def test_families_have_one_lookup():
    assert second_lookups((SRC / "forms.py").read_text(), (SRC / "membership.py").read_text()) == []


def test_guard_sees_a_second_lookup():
    forms = (
        "class ValueForm:\n"
        "    def terms(self, n):\n"
        "        return n\n"
        "    def invert(self, v):\n"
        "        return v\n"
    )
    membership = (
        "class FamilyMatcher:\n"
        "    def _members(self):\n"
        "        return self.form.terms(1)\n"
        "    def match_indices(self, values):\n"
        "        return self.form.terms(self.form.invert(values))\n"
        "class Other:\n"
        "    def match_indices(self, values):\n"
        "        return self.form.terms(values)\n"
    )
    assert second_lookups(forms, membership) == [("FamilyMatcher.match_indices", 5), ("ValueForm.invert", 4)]
