"""The runtime stays stdlib-only: every module of the package imports only
``__future__``, the package itself, or the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fermionant"


def _imported_roots(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import; relative imports
    stay inside the package and are reported as ``fermionant``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend((node.lineno, alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            root = "fermionant" if node.level else node.module.partition(".")[0]
            out.append((node.lineno, root))
    return out


def test_package_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules, SRC
    allowed = set(sys.stdlib_module_names) | {"__future__", "fermionant"}
    outside = [
        f"{path.name}:{line} imports {root}"
        for path in modules
        for line, root in _imported_roots(ast.parse(path.read_text(encoding="utf-8")))
        if root not in allowed
    ]
    assert not outside, outside
