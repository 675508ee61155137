"""``repro.serve`` has one wire front-end (``transport.py``), one
admission rule (the bounded queue) and one containment path (repack).

An AST walk, like ``test_layering.py``: a second frame parser, accept
loop, lifecycle, admission controller or containment path growing back
shows up here as a named line instead of as two diverging copies a year
later.
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


def test_one_admission_rule_and_one_containment_path():
    defined = {
        node.name: node
        for _name, tree in _trees() for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }
    gone = {"AdmissionController", "_bisect", "align_to_common_level",
            "tune_job_budget"}
    assert not gone & set(defined), sorted(gone & set(defined))
    (init,) = [node for node in defined["InferenceWorker"].body
               if isinstance(node, ast.FunctionDef)
               and node.name == "__init__"]
    params = [arg.arg for arg in init.args.args + init.args.kwonlyargs]
    assert not [p for p in params if p.startswith("shed_")], params
