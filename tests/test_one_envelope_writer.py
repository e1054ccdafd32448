"""Every `--json` envelope is written by one writer: `mufield.cli._json_text`.

A module under `src/mufield` that calls `json.dump` or `json.dumps`, takes
`dataclasses.asdict` or `astuple` copies, or uses the standard library's
encoder (`JSONEncoder`, `encode_basestring_ascii` and the like) outside the
writer would bring back a second serializer, and with it a second set of
layout rules. So would a function whose name says it makes JSON. This walks
the syntax trees with the standard library and names every such place.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mufield"
WRITER = ("cli.py", "_json_text")
# names that build JSON text or JSON-ready copies: none may appear outside the writer;
# dump and dumps as bare names or as json's (pickle.dumps is no JSON)
ENCODERS = {"JSONEncoder", "asdict", "astuple", "encode_basestring", "encode_basestring_ascii",
            "c_make_encoder", "_make_iterencode"}
DUMPS = {"dump", "dumps"}


def encoder_name(node):
    """The encoder name node uses, or None."""
    if isinstance(node, ast.Name):
        return node.id if node.id in ENCODERS | DUMPS else None
    if isinstance(node, ast.Attribute) and (node.attr in ENCODERS or node.attr in DUMPS and
                                            isinstance(node.value, ast.Name) and node.value.id == "json"):
        return node.attr
    return None


def serializers(sources: dict) -> list:
    """(module, top-level function or <module>, name) of each use of an encoder name in
    {module: source}, and of each function whose name holds "json"; imports are not uses."""
    found = set()

    def walk(node, module, top):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if "json" in child.name.lower():
                    found.add((module, top or child.name, child.name))
                walk(child, module, top or child.name)
                continue
            name = encoder_name(child)
            if name is not None:
                found.add((module, top or "<module>", name))
            walk(child, module, top)

    for module, source in sources.items():
        walk(ast.parse(source), module, None)
    return sorted(found)


def test_the_writer_is_the_one_serializer():
    found = serializers({p.name: p.read_text() for p in SRC.glob("*.py")})
    # the guard sees the writer itself: its name, and the string encoder it calls
    assert found == [(*WRITER, "_json_text"), (*WRITER, "encode_basestring_ascii")]


def test_guard_sees_a_second_serializer():
    sources = {
        "cli.py": (
            "import json\n"
            "from json.encoder import encode_basestring_ascii\n"
            "def _json_text(obj):\n"
            "    def walk(v):\n"
            "        return encode_basestring_ascii(v)\n"
            "    return walk(obj)\n"
            "def _emit(env):\n"
            "    print(json.dumps(env, indent=2))\n"
        ),
        "a.py": "import dataclasses\ndef report(r):\n    return dataclasses.asdict(r)\n",
        "b.py": "from json import dump\nclass Sink:\n    def save(self, f, obj):\n        dump(obj, f)\n",
        "c.py": "def _to_jsonable(obj):\n    return obj\n",
        "d.py": "import json\nQUOTE = json.encoder.encode_basestring_ascii\nTEXT = json.loads('[]')\n",
        "e.py": "import pickle\ndef send(obj):\n    return pickle.dumps(obj)\n",
    }
    assert serializers(sources) == [
        ("a.py", "report", "asdict"),
        ("b.py", "Sink", "dump"),
        ("c.py", "_to_jsonable", "_to_jsonable"),
        ("cli.py", "_emit", "dumps"),
        ("cli.py", "_json_text", "_json_text"),
        ("cli.py", "_json_text", "encode_basestring_ascii"),
        ("d.py", "<module>", "encode_basestring_ascii"),
    ]
