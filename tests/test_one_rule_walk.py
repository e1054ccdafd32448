"""The scalar weight reads point and set rules only through its flat rows.

`MembershipFunction` compiles its point and set rules ahead of the first
family rule into one flat tuple of (point, tol, weight) rows when it is
built, and `weight` walks that tuple: one rule walk per path. A `weight` that
went back to `self.rules`, or asked a matcher's `hit`, would keep a second
walk of the same rules alive. This walks the syntax tree of
`membership.py` with the standard library and names every such read.
"""

import ast
from pathlib import Path

MEMBERSHIP = Path(__file__).resolve().parent.parent / "src" / "mufield" / "membership.py"


def second_walks(source: str) -> list:
    """(line, what) of each `self.rules` read or `.hit` call in MembershipFunction.weight."""
    weights = [fn for cls in ast.walk(ast.parse(source))
               if isinstance(cls, ast.ClassDef) and cls.name == "MembershipFunction"
               for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "weight"]
    assert weights, "MembershipFunction.weight is not defined"
    found = []
    for node in ast.walk(weights[0]):
        if (isinstance(node, ast.Attribute) and node.attr == "rules"
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            found.append((node.lineno, "self.rules"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "hit":
            found.append((node.lineno, ".hit"))
    return sorted(found)


def test_weight_walks_only_the_flat_rows():
    assert second_walks(MEMBERSHIP.read_text()) == []


def test_guard_sees_a_second_walk():
    source = (
        "class MembershipFunction:\n"
        "    def weight(self, v):\n"
        "        for rule in self.rules:\n"
        "            if rule.matcher.hit(v):\n"
        "                return rule.weight\n"
        "    def weight_many(self, values):\n"
        "        return [r.matcher.hit(v) for r in self.rules for v in values]\n"
        "class Other:\n"
        "    def weight(self, v):\n"
        "        return self.rules[0].matcher.hit(v)\n"
    )
    assert second_walks(source) == [(3, "self.rules"), (4, ".hit")]
