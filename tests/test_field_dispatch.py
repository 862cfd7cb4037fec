"""A guard that the field, not its callers, picks the arithmetic.

The linear algebra modules run on int rows through the field's kernels
(``clear``, ``lift``, ``products``, ``dots``, ``eliminate``), so none of
them may read a field's ``characteristic``: a branch on it would pick F_p
arithmetic for any field of characteristic p.
"""
import ast
from pathlib import Path

import commvar

LIBRARY = Path(commvar.__file__).parent
FIELD_BLIND = ["matrices.py", "homs.py", "quot.py", "modules.py"]


def characteristic_reads(source: str) -> list[int]:
    """Lines of every read of an attribute named ``characteristic``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "characteristic"
    )


def test_linear_algebra_never_reads_the_characteristic():
    offenders = [
        f"{name}:{line}"
        for name in FIELD_BLIND
        for line in characteristic_reads((LIBRARY / name).read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_guard_sees_attribute_reads_only():
    source = (
        '"""the characteristic polynomial"""\n'
        "def f(m, characteristic):\n"
        "    p = m.field.characteristic\n"
        "    return getattr(m, 'characteristic'), characteristic, (\n"
        "        m.characteristic)\n"
    )
    assert characteristic_reads(source) == [3, 5]
