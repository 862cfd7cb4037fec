"""Every name a library module imports must be used in that module.

``__init__.py`` is exempt: its imports are the package's re-exports.
"""
import ast
from pathlib import Path

import commvar


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside ``__future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used(ast.parse(ann.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((name, line) for name, line in _imported(tree).items() if name not in used)


def test_library_imports_only_what_it_uses():
    offenders = []
    for path in sorted(Path(commvar.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        offenders += [
            f"{path.name}:{line} {name}"
            for name, line in unused_imports(path.read_text(encoding="utf-8"))
        ]
    assert not offenders, offenders


def test_guard_sees_unused_and_quoted_uses():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Optional, Sequence\n"
        "from .matrices import Matrix as M, det\n"
        "def f(x: 'Optional[M]') -> int:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [("Sequence", 3), ("det", 4)]
