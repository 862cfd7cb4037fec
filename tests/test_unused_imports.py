"""Two guards against dead code in the library.

Every name a library module imports must be used in that module;
``__init__.py`` is exempt, since its imports are the package's re-exports.
Every function, method and class the library defines must be read, as a
name or an attribute, somewhere in the library, the tests or the demos;
dunder methods are exempt, since Python calls them.
"""
import ast
from pathlib import Path

import commvar

LIBRARY = Path(commvar.__file__).parent
READERS = [LIBRARY, Path(__file__).parent, Path(__file__).parent.parent / "demos"]


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
    for path in sorted(LIBRARY.glob("*.py")):
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


def _defined(tree: ast.Module) -> dict[str, int]:
    """Name -> line of every function, method and class, dunders aside."""
    return {
        node.name: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def _read(tree: ast.Module) -> set[str]:
    """Names and attribute names read anywhere."""
    return _used(tree) | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def unread_definitions(library: dict[str, str], readers: list[str]) -> list[str]:
    """``file:line name`` of each definition in ``library`` (file name ->
    source) that no source in ``readers`` reads."""
    read = set().union(*(_read(ast.parse(source)) for source in readers))
    return sorted(
        f"{name}:{line} {defined}"
        for name, source in library.items()
        for defined, line in _defined(ast.parse(source)).items()
        if defined not in read
    )


def test_library_defines_only_what_is_read():
    library = {p.name: p.read_text(encoding="utf-8") for p in sorted(LIBRARY.glob("*.py"))}
    readers = [p.read_text(encoding="utf-8") for d in READERS for p in sorted(d.glob("*.py"))]
    assert unread_definitions(library, readers) == []


def test_definition_guard_sees_unread_definitions():
    library = {
        "m.py": (
            "class Used:\n"
            "    def method(self): ...\n"
            "    def orphan(self): ...\n"
            "    def __eq__(self, other): ...\n"
            "def helper(): ...\n"
            "def dead(): ...\n"
            "class Quoted: ...\n"
        )
    }
    reader = "def f(x: 'Quoted') -> Used:\n    helper()\n    return x.method\n"
    assert unread_definitions(library, [reader]) == ["m.py:3 orphan", "m.py:6 dead"]
