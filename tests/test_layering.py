"""Imports point one way: ``polymath -> ckks -> backend -> ir/passes ->
compiler -> runtime -> serve``, with ``evalharness`` on top.

An AST walk over every module of the lower packages (function-local
imports included) — a pricer or helper that lives too high shows up
here as a named edge instead of as an import cycle months later.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent

_UPPER = ("compiler", "runtime", "serve", "evalharness")

#: package -> ``repro.*`` packages nothing inside it may import
FORBIDDEN = {
    "polymath": _UPPER, "ckks": _UPPER, "backend": _UPPER, "ir": _UPPER,
    "passes": _UPPER,
    "compiler": ("serve", "evalharness"),
}


def _imports(path: Path):
    """Every absolute ``repro.*`` module a file imports, with its line."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            if name == "repro" or name.startswith("repro."):
                yield name, node.lineno


def test_lower_layers_do_not_import_upper_layers():
    edges = []
    for package, banned in FORBIDDEN.items():
        for path in sorted((ROOT / package).rglob("*.py")):
            for name, lineno in _imports(path):
                parts = name.split(".")
                if len(parts) > 1 and parts[1] in banned:
                    edges.append(
                        f"{path.relative_to(ROOT)}:{lineno} imports {name}")
    assert not edges, "\n".join(edges)
