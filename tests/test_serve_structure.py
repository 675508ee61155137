"""``repro.serve`` has one wire front-end: ``transport.py``.

An AST walk, like ``test_layering.py``: a second frame parser, accept
loop or lifecycle growing back inside a server class shows up here as a
named line instead of as two diverging copies a year later.
"""

import ast
from pathlib import Path

import repro.serve

SERVE = Path(repro.serve.__file__).parent

#: what FrameServer owns; a server class supplies ``_dispatch`` (and may
#: extend ``stop`` / ``_send_reply``), never these
FRONT_END_METHODS = {
    "start", "serve_forever", "__enter__", "_accept_loop",
    "_serve_connection",
}


def _trees():
    for path in sorted(SERVE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), str(path))


def test_only_transport_touches_the_frame_prefix_or_listens():
    offences = []
    for name, tree in _trees():
        if name == "transport.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "create_server"):
                offences.append(f"{name}:{node.lineno} opens a "
                                "listening socket")
                continue
            else:
                continue
            for module in modules:
                if module.split(".")[0] in ("struct", "selectors"):
                    offences.append(
                        f"{name}:{node.lineno} imports {module}")
    assert not offences, "\n".join(offences)


def test_servers_are_frame_servers_without_front_end_code():
    classes = {
        node.name: node
        for _name, tree in _trees() for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    for name in ("InferenceServer", "RouterServer"):
        cls = classes[name]
        assert [ast.unparse(base) for base in cls.bases] == ["FrameServer"]
        methods = {node.name for node in cls.body
                   if isinstance(node, ast.FunctionDef)}
        assert "_dispatch" in methods
        assert not methods & FRONT_END_METHODS, (
            f"{name} re-implements {sorted(methods & FRONT_END_METHODS)}")
