"""The JSON module document: the single input/output format of the CLI.

A document is {"field": "Q"|"Fp:<p>", "n": int, "d": int, "matrices":
d x n x n scalar strings, optional "frame": r x n scalar strings, optional
"metadata": {...}}.  Every scalar travels as a string ("-3/2", "4");
floating point never appears.  parse_document parses each scalar once into
a ModuleDocument of field, matrices and frame values; emit_document formats
each once, in canonical form, through format_matrix, the one writer of
matrices as text.  So parse(emit(doc)) == doc and emit is byte-deterministic.
write_json writes documents and CLI reports as json.dumps(indent=2,
ensure_ascii=False) would.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .errors import ParseError, ValidationError
from .fields import Field, Scalar, field_from_name, field_name
from .matrices import Matrix
from .modules import CommutingTuple, validate
from .quot import FramedModule


@dataclass(frozen=True)
class ModuleDocument:
    """A parsed document: the field, the d coordinate matrices (not checked
    for commutation) and the frame as parsed scalars.  n and d mirror the
    JSON keys that parse_document checks the matrices against."""

    field: Field
    n: int
    d: int
    matrices: tuple[Matrix, ...]
    frame: Optional[tuple[tuple[Scalar, ...], ...]] = None  # r vectors of n scalars
    metadata: Optional[dict] = None


def _parse_scalar_grid(field: Field, rows, n_rows: int, n_cols: int, what: str) -> list[Scalar]:
    """The scalars of an n_rows x n_cols grid of strings, row-major, parsed
    in one ``Field.parse_all``.  A bad row or entry is reported only after
    the scalars before it, as when the grid is read one scalar at a time."""
    if not isinstance(rows, list) or len(rows) != n_rows:
        raise ValidationError(f"{what} must be a list of {n_rows} rows", what=what)
    texts: list[str] = []
    for r in rows:
        if not isinstance(r, list) or len(r) != n_cols:
            field.parse_all(texts)
            raise ValidationError(f"{what} rows must have {n_cols} entries", what=what)
        for x in r:
            if not isinstance(x, str):
                field.parse_all(texts)
                raise ParseError(
                    f"scalars must be strings, got {type(x).__name__} in {what}", what=what
                )
            texts.append(x)
    return field.parse_all(texts)


def parse_document(text: str) -> ModuleDocument:
    """Parse a module document, each scalar once.

    Bad JSON or bad scalar syntax is PARSE_ERROR (with line/position for
    JSON problems); structural problems are VALIDATION_ERROR.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(
            f"bad JSON: {e.msg}", line=e.lineno, column=e.colno, position=e.pos
        )
    except ValueError as e:  # a JSON number past the interpreter's int digit limit
        raise ParseError(f"bad JSON: {e}")
    if not isinstance(raw, dict):
        raise ValidationError("document must be a JSON object")
    required = {"field", "n", "d", "matrices"}
    allowed = required | {"frame", "metadata"}
    missing = sorted(required - set(raw))
    if missing:
        raise ValidationError(f"missing keys: {', '.join(missing)}", missing=missing)
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ValidationError(f"unknown keys: {', '.join(unknown)}", unknown=unknown)
    if not isinstance(raw["field"], str):
        raise ValidationError("field must be a string tag")
    fieldobj = field_from_name(raw["field"])
    n, d = raw["n"], raw["d"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValidationError(f"n must be a nonnegative integer, got {n!r}")
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValidationError(f"d must be a positive integer, got {d!r}")
    mats_raw = raw["matrices"]
    if not isinstance(mats_raw, list) or len(mats_raw) != d:
        raise ValidationError(f"matrices must be a list of {d} matrices")
    matrices = tuple(
        Matrix(fieldobj, n, n, tuple(_parse_scalar_grid(fieldobj, m, n, n, f"matrix {i + 1}")))
        for i, m in enumerate(mats_raw)
    )
    frame = None
    if raw.get("frame") is not None:
        fr = raw["frame"]
        if not isinstance(fr, list):
            raise ValidationError("frame must be a list of vectors")
        values = _parse_scalar_grid(fieldobj, fr, len(fr), n, "frame")
        frame = tuple(tuple(values[k * n : (k + 1) * n]) for k in range(len(fr)))
    metadata = raw.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise ValidationError("metadata must be an object")
    return ModuleDocument(
        field=fieldobj,
        n=n,
        d=d,
        matrices=matrices,
        frame=frame,
        metadata=metadata,
    )


def write_json(obj) -> str:
    """json.dumps(obj, indent=2, ensure_ascii=False) byte for byte, for
    acyclic obj, without the standard library's pure-Python indent path:
    one recursion puts each piece on one list, strings go through json's C
    encoder and floats through json.dumps.  A string, bool or None inside a
    dict or a list is written in place, with no call of its own.

    Reports share matrices: the orbit census gives every orbit the same
    rows for the same matrix.  In a list of matrices (its first item a list
    of lists), an item list or tuple that comes up again, as the same
    object at the same indent, is written once more, and its text is kept
    and reused from then on.  Other lists pay only the test of their first
    item: a list of scalars is cheaper to write again than to look up.
    Every list met stays reachable from obj until the end, so no id is
    reused."""
    string = json.encoder.encode_basestring
    literal = {None: "null", True: "true", False: "false"}
    out: list[str] = []
    put = out.append
    seen: set[int] = set()
    texts: dict[tuple[int, str], str] = {}  # (id, indent) of an item seen twice -> its text

    def write(o, nl: str) -> None:
        inner = nl + "  "
        if isinstance(o, str):
            put(string(o))
        elif o is None or o is True or o is False:
            put(literal[o])
        elif isinstance(o, int):
            put(int.__repr__(o))
        elif isinstance(o, float):
            put(json.dumps(o))
        elif isinstance(o, dict):
            sep = "{" + inner
            for k, v in o.items():
                # a key that is no string gets json.dumps's own text, or its TypeError
                key = string(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]
                if isinstance(v, str):
                    put(sep + key + ": " + string(v))
                elif v is None or v is True or v is False:
                    put(sep + key + ": " + literal[v])
                else:
                    put(sep + key + ": ")
                    write(v, inner)
                sep = "," + inner
            put(nl + "}" if o else "{}")
        elif isinstance(o, (list, tuple)):
            sep = "[" + inner
            if o and isinstance(o[0], (list, tuple)) and o[0] and isinstance(o[0][0], (list, tuple)):
                for v in o:  # a list of matrices
                    put(sep)
                    sep = "," + inner
                    if not isinstance(v, (list, tuple)):
                        write(v, inner)
                    elif id(v) not in seen:
                        seen.add(id(v))
                        write(v, inner)
                    elif (id(v), inner) in texts:
                        put(texts[id(v), inner])
                    else:
                        start = len(out)
                        write(v, inner)
                        texts[id(v), inner] = "".join(out[start:])
            else:
                for v in o:
                    if isinstance(v, str):
                        put(sep + string(v))
                    elif v is None or v is True or v is False:
                        put(sep + literal[v])
                    else:
                        put(sep)
                        write(v, inner)
                    sep = "," + inner
            put(nl + "]" if o else "[]")
        else:
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")

    write(obj, "\n")
    return "".join(out)


def format_matrix(m: Matrix) -> list[list[str]]:
    """The rows of m as canonical scalar strings: how documents and CLI
    reports write a matrix."""
    F = m.field
    return [[F.format(x) for x in m.row(i)] for i in range(m.rows)]


def emit_document(doc: ModuleDocument) -> str:
    """Canonical serialization: fixed key order, 2-space indent, newline at
    end.  Byte-identical across runs for equal documents."""
    F = doc.field
    payload: dict = {
        "field": field_name(F),
        "n": doc.n,
        "d": doc.d,
        "matrices": [format_matrix(m) for m in doc.matrices],
    }
    if doc.frame is not None:
        payload["frame"] = [[F.format(x) for x in v] for v in doc.frame]
    if doc.metadata is not None:
        payload["metadata"] = doc.metadata
    return write_json(payload) + "\n"


def to_commuting_tuple(doc: ModuleDocument) -> CommutingTuple:
    """Validate the document's matrices into a commuting tuple
    (NOT_COMMUTING surfaces directly)."""
    return validate(doc.matrices)


def to_framed_module(doc: ModuleDocument) -> FramedModule:
    if doc.frame is None:
        raise ValidationError("document has no frame")
    return FramedModule(to_commuting_tuple(doc), doc.frame)


def from_commuting_tuple(t: CommutingTuple, metadata: Optional[dict] = None) -> ModuleDocument:
    return ModuleDocument(t.field, t.n, t.d, t.mats, None, metadata)


def from_framed_module(f: FramedModule, metadata: Optional[dict] = None) -> ModuleDocument:
    t = f.module
    return ModuleDocument(t.field, t.n, t.d, t.mats, f.frame, metadata)
