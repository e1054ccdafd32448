"""Every field of the spec and context dataclasses is read by the package.

A field that nothing reads is a setting the program accepts and then
ignores. No linter ships with the project, so this walks the syntax tree of
each module under `src/mufield/` with the standard library: each field of
the classes below must be read as an attribute (`x.field`) somewhere
outside its own class body, where `__post_init__` would only check it.
Reads are matched by attribute name, not by the type of `x`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mufield"
CLASSES = ("FieldContext", "ExperimentSpec", "SequenceSpec", "MembershipFunction")


def unread_fields(sources, classes) -> list:
    """(class, field) for each annotated field of classes read nowhere outside its class body."""
    trees = [ast.parse(s) for s in sources]
    fields, spans = {}, {}
    for t, tree in enumerate(trees):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in classes:
                fields[node.name] = [s.target.id for s in node.body
                                     if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
                spans[node.name] = (t, node.lineno, node.end_lineno)
    assert sorted(fields) == sorted(classes), "a guarded class is not defined"
    reads = [(t, node.lineno, node.attr) for t, tree in enumerate(trees) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]

    def read_outside(cls, name):
        t0, first, last = spans[cls]
        return any(attr == name and not (t == t0 and first <= line <= last) for t, line, attr in reads)

    return sorted((c, f) for c, names in fields.items() for f in names if not read_outside(c, f))


def test_every_field_is_read():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_fields(sources, CLASSES) == []


def test_guard_sees_an_unread_field():
    source = (
        "class C:\n"
        "    a: int\n"
        "    b: int\n"
        "    def __post_init__(self):\n"
        "        assert self.b\n"
        "def f(c):\n"
        "    return c.a\n"
    )
    assert unread_fields([source], ("C",)) == [("C", "b")]
