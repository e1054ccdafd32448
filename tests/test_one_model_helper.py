"""Each exact model is built in one place, and kept by the object it models.

`mufield.exact._model` builds every exact model on first use: a rational
sequence or weight form keeps its own, and a scan's stream keeps those of its
float weights. A `_Weight(` or `_Terms(` call anywhere else in `exact.py`
would build a second model of one source, and a `contextvars` import under
`src/mufield` would bring back a store of models scoped to a caller. This
walks the syntax trees with the standard library and names every such place.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mufield"
MODEL_HELPER = "_model"
MODELS = ("_Weight", "_Terms")


def second_builders(exact_source: str) -> list:
    """(where, line) of each _Weight or _Terms call outside the model helper; where is
    the dotted path of the classes and functions around the call."""
    found = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, f"{where}.{child.name}" if where else child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id in MODELS
                    and where != MODEL_HELPER):
                found.append((where or "<module>", child.lineno))
            walk(child, where)

    walk(ast.parse(exact_source), "")
    return sorted(found)


def store_imports(sources: dict) -> list:
    """(module, line) of each import of contextvars in {module: source}."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.partition(".")[0] == "contextvars" for n in names):
                found.append((module, node.lineno))
    return sorted(found)


def test_models_are_built_in_one_helper():
    assert second_builders((SRC / "exact.py").read_text()) == []


def test_no_module_keeps_a_scoped_store():
    assert store_imports({p.name: p.read_text() for p in SRC.glob("*.py")}) == []


def test_guard_sees_a_second_builder_and_a_store():
    exact = (
        "def _model(source):\n"
        "    return _Weight(source) if source.form == 'rational_poly' else _Terms(source)\n"
        "class RationalScan:\n"
        "    def __init__(self, seqs):\n"
        "        self.terms = [_Terms(s) for s in seqs]\n"
        "_ONE = _Weight(1.0)\n"
    )
    assert second_builders(exact) == [("<module>", 6), ("RationalScan.__init__", 5)]
    sources = {"a.py": "import contextvars\n", "b.py": "import os\nfrom contextvars import ContextVar\n",
               "c.py": "import contextlib\n"}
    assert store_imports(sources) == [("a.py", 1), ("b.py", 2)]
