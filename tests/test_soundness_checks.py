"""Soundness checks in the library must survive ``python -O``, which strips
``assert`` statements; they raise explicit errors instead."""
import ast
from pathlib import Path

import commvar


def test_library_has_no_assert_statements():
    offenders = []
    for path in sorted(Path(commvar.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not offenders, offenders
