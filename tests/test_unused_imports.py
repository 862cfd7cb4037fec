"""Two guards against dead code in the library.

Every name a library module imports must be used in that module;
``__init__.py`` is exempt, since its imports are the package's re-exports.
Every function and class the library defines must be read, as a name or
an attribute, somewhere in the library, the tests or the demos, and every
method must be read there as an attribute (``x.name``); dunder methods are
exempt, since Python calls them.
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


def _defined(tree: ast.Module) -> list[tuple[str, int, bool]]:
    """(name, line, is a method) of every function, method and class,
    dunders aside; a method is a function defined in a class body."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    methods = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, functions)
    }
    return [
        (node.name, node.lineno, id(node) in methods)
        for node in ast.walk(tree)
        if isinstance(node, (*functions, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def unread_definitions(library: dict[str, str], readers: list[str]) -> list[str]:
    """``file:line name`` of each definition in ``library`` (file name ->
    source) that no source in ``readers`` reads: a method as an attribute,
    anything else as a name or an attribute."""
    trees = [ast.parse(source) for source in readers]
    attributes = {
        node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }
    names = set().union(attributes, *map(_used, trees))
    return sorted(
        f"{name}:{line} {defined}"
        for name, source in library.items()
        for defined, line, method in _defined(ast.parse(source))
        if defined not in (attributes if method else names)
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
            "class Bare:\n"
            "    def spelled(self): ...\n"
        )
    }
    reader = (
        "def f(x: 'Quoted') -> Used:\n    helper()\n    return x.method\n"
        "def g(spelled: Bare):\n    return spelled\n"
    )
    assert unread_definitions(library, [reader]) == [
        "m.py:3 orphan", "m.py:6 dead", "m.py:9 spelled"
    ]
