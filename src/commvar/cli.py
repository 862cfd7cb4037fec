"""Command-line interface.

Every subcommand reads module documents (JSON files, "-" for stdin) and
writes a JSON report to stdout.  Exit codes: 0 success, 1 domain error
(error JSON {"error": CODE, "detail": {...}}), 2 usage or parse error,
3 internal failure (a bug).  All numeric payloads that can grow without
bound travel as decimal strings; dimensions and multiplicities are ints.

Each argument is declared once, as a (name, add_argument keywords) spec in
``_COMMANDS`` or the global flag tables.  A plain argv is read straight from
the specs without argparse (``_read_argv``); help, usage errors and every
other form go to the argparse parser built from the same specs, so each help
and usage text is argparse's own.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import random
import sys
import time

from . import __version__
from .census import CensusRequest, burnside_count, enumerate_census, gl_order, orbit_census
from .config import DEFAULT_CONFIG, RunConfig, load_config
from .cycles import cycle, localize, partition_notation, stratum
from .documents import (
    ModuleDocument,
    emit_document,
    format_matrix,
    from_commuting_tuple,
    parse_document,
    to_commuting_tuple,
    to_framed_module,
    write_json,
)
from .errors import ArityMismatchError, CommvarError, NotMonicError, ParseError, SizeMismatchError
from .fields import GF, Field, field_from_name, field_name, int_to_decimal
from .homs import aut_dim, hom_dim, is_isomorphic, min_generators
from .matrices import Matrix
from .modules import (
    companion,
    conjugate,
    direct_sum,
    from_staircase,
    is_punctual,
    potential_gradient,
    staircase,
    tangent_space_dim,
    trace_potential,
    translate,
)
from .polynomials import UniPoly, format_multipoly, parse_multipoly
from .quot import is_atlas_point, is_generating, quot_equal
from .sampling import random_group_element, random_punctual_tuple, random_split_tuple


# ---------------------------------------------------------------------------
# Formatting helpers


def _point_strings(field: Field, point) -> list[str]:
    return [field.format(x) for x in point]


def _provenance(cfg: RunConfig) -> dict:
    return {
        "tool": "commvar",
        "version": __version__,
        "seed": cfg.seed,
        "config": {
            "seed": cfg.seed,
            "grid_budget": cfg.grid_budget,
            "census_budget": cfg.census_budget,
        },
    }


def _pretty(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.append(_pretty(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {json.dumps(v)}")
        return "\n".join(lines)
    if isinstance(obj, list):
        lines = []
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_pretty(v, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(v)}")
        return "\n".join(lines)
    return f"{pad}{json.dumps(obj)}"


# ---------------------------------------------------------------------------
# Input helpers


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}", path=path)
    except UnicodeDecodeError as e:
        raise ParseError(f"cannot read {path}: not UTF-8 ({e.reason} at byte {e.start})",
                         path=path)


def _load_doc(path: str) -> ModuleDocument:
    return parse_document(_read_text(path))


def _load_tuple(path: str):
    return to_commuting_tuple(_load_doc(path))


def _load_framed(path: str):
    return to_framed_module(_load_doc(path))


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns either a report dict (gets provenance
# appended and is rendered JSON or pretty) or a raw string (emitted as-is,
# used by the document-producing commands).


def _cmd_validate(args, cfg: RunConfig):
    t = _load_tuple(args.doc)
    return {
        "valid": True,
        "field": field_name(t.field),
        "n": t.n,
        "d": t.d,
        "punctual": is_punctual(t),
    }


def _cycle_payload(c) -> list[dict]:
    return [
        {"point": _point_strings(c.field, p), "mult": m} for p, m in c.entries
    ]


def _cmd_cycle(args, cfg: RunConfig):
    t = _load_tuple(args.doc)
    c = cycle(t)
    return {"cycle": _cycle_payload(c), "stratum": list(stratum(c))}


def _cmd_stratum(args, cfg: RunConfig):
    t = _load_tuple(args.doc)
    alpha = stratum(cycle(t))
    return {"stratum": list(alpha), "notation": partition_notation(alpha)}


def _cmd_localize(args, cfg: RunConfig):
    t = _load_tuple(args.doc)
    summands = localize(t)
    F = t.field
    payload = [
        {
            "point": _point_strings(F, s.point),
            "n": s.local_module.n,
            "matrices": [format_matrix(m) for m in s.local_module.mats],
        }
        for s in summands
    ]
    report = {"summands": payload}
    if summands:
        report["change_of_basis"] = format_matrix(summands[0].change_of_basis.matrix)
    else:
        report["change_of_basis"] = []
    return report


def _cmd_isom(args, cfg: RunConfig):
    s = _load_tuple(args.left)
    t = _load_tuple(args.right)
    g = is_isomorphic(s, t, cfg)
    return {
        "isomorphic": g is not None,
        "certificate": format_matrix(g.matrix) if g is not None else None,
    }


def _cmd_homdim(args, cfg: RunConfig):
    s = _load_tuple(args.left)
    t = _load_tuple(args.right)
    return {"hom_dim": hom_dim(s, t)}


def _cmd_autdim(args, cfg: RunConfig):
    return {"aut_dim": aut_dim(_load_tuple(args.doc))}


def _cmd_mingen(args, cfg: RunConfig):
    return {"min_generators": min_generators(_load_tuple(args.doc))}


def _cmd_tangent(args, cfg: RunConfig):
    t = _load_tuple(args.doc)
    return {"tangent_dim": tangent_space_dim(t), "ambient_dim": t.d * t.n * t.n}


def _cmd_nilpotent(args, cfg: RunConfig):
    return {"nilpotent": is_punctual(_load_tuple(args.doc))}


def _require_triple(doc: ModuleDocument) -> tuple[Matrix, ...]:
    if doc.d != 3:
        raise ArityMismatchError(f"needs exactly 3 coordinate matrices, got d = {doc.d}")
    return doc.matrices


def _cmd_potential(args, cfg: RunConfig):
    # the input need not commute: the whole point is to evaluate the
    # potential away from its critical locus too
    doc = _load_doc(args.doc)
    return {"potential": doc.field.format(trace_potential(_require_triple(doc)))}


def _cmd_gradient(args, cfg: RunConfig):
    grad = potential_gradient(_require_triple(_load_doc(args.doc)))
    return {
        "gradient": [format_matrix(g) for g in grad],
        "vanishes": all(g.is_zero() for g in grad),
    }


def _cmd_translate(args, cfg: RunConfig):
    t = _load_tuple(args.doc)
    if len(args.shift) != t.d:
        raise ArityMismatchError(
            f"expected {t.d} shift coordinates, got {len(args.shift)}"
        )
    F = t.field
    shifted = translate(t, [F.parse(s) for s in args.shift])
    return emit_document(from_commuting_tuple(shifted))


def _cmd_dsum(args, cfg: RunConfig):
    s = _load_tuple(args.left)
    t = _load_tuple(args.right)
    return emit_document(from_commuting_tuple(direct_sum(s, t)))


def _cmd_frame_check(args, cfg: RunConfig):
    return {"generating": is_generating(_load_framed(args.doc))}


def _cmd_atlas_check(args, cfg: RunConfig):
    return {"atlas_point": is_atlas_point(_load_framed(args.doc))}


def _cmd_quot_equal(args, cfg: RunConfig):
    f = _load_framed(args.left)
    g = _load_framed(args.right)
    h = quot_equal(f, g)
    return {
        "equal": h is not None,
        "certificate": format_matrix(h.matrix) if h is not None else None,
    }


def _census_filter(args, field: Field, d: int) -> tuple[dict, tuple]:
    rels = tuple(parse_multipoly(r, field, d) for r in (args.relation or []))
    payload = {
        "nilpotent": bool(args.nilpotent),
        "relations": [format_multipoly(r) for r in rels],
    }
    return payload, rels


def _require_at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ParseError(f"{flag} must be at least {least}, got {value}", flag=flag, value=value)


def _cmd_census(args, cfg: RunConfig):
    _require_at_least("--n", args.n, 0)
    F = GF(args.q)
    filter_payload, rels = _census_filter(args, F, args.d)
    req = CensusRequest(
        n=args.n,
        d=args.d,
        q=args.q,
        nilpotent=bool(args.nilpotent),
        per_stratum=bool(args.per_stratum),
        relations=rels,
    )
    t0 = time.monotonic()
    res = enumerate_census(req, cfg)
    elapsed_ms = int(round((time.monotonic() - t0) * 1000))
    per_stratum = None
    if res.per_stratum is not None:
        per_stratum = {
            partition_notation(alpha): str(count)
            for alpha, count in sorted(res.per_stratum.items())
        }
    return {
        "n": res.n,
        "d": res.d,
        "q": res.q,
        "filter": filter_payload,
        "raw_count": str(res.raw_count),
        "gl_order": str(res.gl_order),
        "groupoid_count": {
            "num": str(res.groupoid_count.numerator),
            "den": str(res.groupoid_count.denominator),
        },
        "per_stratum": per_stratum,
        "unsplit_count": None if res.unsplit_count is None else str(res.unsplit_count),
        "elapsed_ms": elapsed_ms,
    }


def _cmd_orbit_census(args, cfg: RunConfig):
    _require_at_least("--n", args.n, 0)
    t0 = time.monotonic()
    orbits = orbit_census(args.n, args.d, args.q, cfg)
    elapsed_ms = int(round((time.monotonic() - t0) * 1000))
    total = burnside_count(orbits)
    rows = functools.cache(format_matrix)  # each distinct matrix once
    return {
        "n": args.n,
        "d": args.d,
        "q": args.q,
        "orbit_count": len(orbits),
        "orbits": [
            {
                "matrices": [rows(m) for m in o.representative.mats],
                "orbit_size": str(o.orbit_size),
                "aut_order": str(o.aut_order),
                "nilpotent": o.nilpotent,
            }
            for o in orbits
        ],
        "gl_order": str(gl_order(args.n, args.q)),
        "groupoid_count": {"num": str(total.numerator), "den": str(total.denominator)},
        "elapsed_ms": elapsed_ms,
    }


def _parse_cells(text: str) -> list[tuple[int, int]]:
    cells = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ParseError(f"bad cell {chunk!r}: want i,j pairs separated by ';'")
        try:
            cells.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"bad cell {chunk!r}: coordinates must be integers")
    if not cells:
        raise ParseError("empty cell list")
    return cells


def _cmd_sample(args, cfg: RunConfig):
    F = field_from_name(args.field)
    rng = random.Random(cfg.seed)
    meta: dict = {"kind": args.kind, "seed": cfg.seed}
    d = 2 if args.d is None else args.d
    n = 3 if args.n is None else args.n
    fixed = {"staircase": 2, "companion": 1}.get(args.kind)
    if fixed is not None and args.d not in (None, fixed):
        raise ArityMismatchError(f"sample --kind {args.kind} has d = {fixed}, got --d {d}", d=d)
    if args.kind == "staircase":
        if not args.cells:
            raise ParseError("sample --kind staircase needs --cells \"i,j;i,j;...\"")
        cells = _parse_cells(args.cells)
        t = from_staircase(staircase(cells), F)
        meta["cells"] = [list(c) for c in sorted(cells)]
    elif args.kind == "companion":
        if not args.coeffs:
            raise ParseError(
                "sample --kind companion needs --coeffs \"c0,c1,...,1\" (ascending, monic)"
            )
        coeffs = [F.parse(c.strip()) for c in args.coeffs.split(",")]
        # the polynomial's degree is the number of coefficients given, less one
        if coeffs[-1] != F.one():
            raise NotMonicError(
                f"sample --kind companion needs a last coefficient of 1, got {F.format(coeffs[-1])}")
        t = companion(UniPoly.make(F, coeffs))
        meta["coeffs"] = [F.format(c) for c in coeffs]
    elif args.kind == "punctual":
        _require_at_least("--n", n, 0)
        t = random_punctual_tuple(F, d, n, rng)
    elif args.kind == "split":
        _require_at_least("--n", n, 1)
        _require_at_least("--pieces", args.pieces, 1)
        t, truth = random_split_tuple(
            F, d, rng, max_pieces=args.pieces, max_piece_size=n
        )
        meta["support"] = [
            {"point": _point_strings(F, p), "mult": m} for p, m in truth
        ]
    else:  # pragma: no cover - argparse choices guard this
        raise ParseError(f"unknown sample kind {args.kind!r}")
    if fixed is not None and args.n not in (None, t.n):
        raise SizeMismatchError(
            f"sample --kind {args.kind} has n = {t.n}, got --n {args.n}", n=args.n)
    if args.conjugate and args.kind != "split" and t.n > 0:
        t = conjugate(t, random_group_element(F, t.n, rng))
        meta["conjugated"] = True
    return emit_document(from_commuting_tuple(t, metadata=meta))


# Each argument is (name, add_argument keywords).  The full parser is built
# from these specs, and _read_argv reads plain argv from the same specs.
_ONE_DOC = (("doc", dict(help="module document path, or - for stdin")),)
_TWO_DOCS = (
    ("left", dict(help="first module document")),
    ("right", dict(help="second module document")),
)
_TRANSLATE_ARGS = _ONE_DOC + (
    ("shift", dict(nargs="+", help="d scalars (use -- before negatives)")),
)
_NQD_ARGS = (
    ("--n", dict(type=int, required=True)),
    ("--d", dict(type=int, required=True)),
    ("--q", dict(type=int, required=True, help="prime field size")),
)
_CENSUS_ARGS = _NQD_ARGS + (
    ("--nilpotent", dict(action="store_true", help="count punctual tuples only")),
    ("--per-stratum", dict(action="store_true", help="histogram counts by support stratum")),
    ("--relation", dict(action="append", metavar="POLY",
                        help="polynomial in x1..xd that must vanish on the tuple (repeatable)")),
)
_SAMPLE_ARGS = (
    ("--kind", dict(required=True, choices=["staircase", "companion", "punctual", "split"])),
    ("--field", dict(default="Q", help='"Q" or "Fp:<p>" (default Q)')),
    ("--n", dict(type=int, help="size (punctual) / max piece size (split): default 3; "
                 "staircase and companion: must match the cells or the degree")),
    ("--d", dict(type=int, help="number of coordinates (punctual, split: default 2)")),
    ("--cells", dict(help='staircase cells "i,j;i,j;..."')),
    ("--coeffs", dict(help="companion polynomial, ascending comma-separated")),
    ("--pieces", dict(type=int, default=3, help="max pieces (split)")),
    ("--conjugate", dict(action="store_true", help="conjugate by a seeded random element")),
)

# name -> (handler, help line, the subcommand's own arguments); the order is
# the order of the subcommands in the help text
_COMMANDS = {
    "validate": (_cmd_validate, "check a document parses into a commuting tuple", _ONE_DOC),
    "cycle": (_cmd_cycle, "support cycle with multiplicities, plus its stratum", _ONE_DOC),
    "stratum": (_cmd_stratum, "partition stratum of the support cycle", _ONE_DOC),
    "localize": (_cmd_localize, "split into local summands along the support", _ONE_DOC),
    "isom": (_cmd_isom, "decide simultaneous-conjugation equivalence", _TWO_DOCS),
    "homdim": (_cmd_homdim, "dimension of the intertwiner space", _TWO_DOCS),
    "autdim": (_cmd_autdim, "dimension of the endomorphism algebra", _ONE_DOC),
    "mingen": (_cmd_mingen, "minimal generator count of a punctual module", _ONE_DOC),
    "tangent": (_cmd_tangent, "tangent space dimension at a commuting tuple", _ONE_DOC),
    "nilpotent": (_cmd_nilpotent, "is every coordinate matrix nilpotent?", _ONE_DOC),
    "potential": (_cmd_potential, "trace potential Tr(A(BC - CB)) of a matrix triple", _ONE_DOC),
    "gradient": (
        _cmd_gradient, "gradient of the trace potential; vanishes iff commuting", _ONE_DOC),
    "translate": (_cmd_translate, "shift every coordinate by a scalar", _TRANSLATE_ARGS),
    "dsum": (_cmd_dsum, "direct sum of two modules", _TWO_DOCS),
    "frame-check": (_cmd_frame_check, "do the frame vectors generate the module?", _ONE_DOC),
    "atlas-check": (
        _cmd_atlas_check, "is the framed module an atlas chart point (r = n)?", _ONE_DOC),
    "quot-equal": (
        _cmd_quot_equal, "equality of framed modules as quotient-scheme points", _TWO_DOCS),
    "census": (_cmd_census, "count commuting tuples over a prime field", _CENSUS_ARGS),
    "orbit-census": (_cmd_orbit_census, "full orbit list with stabilizer orders", _NQD_ARGS),
    "sample": (_cmd_sample, "generate example module documents", _SAMPLE_ARGS),
}

# The global flags live on the root parser and on every subparser, so they may
# be written on either side of the subcommand; the format flags exclude each other.
_GLOBAL_FLAGS = (
    ("--config", dict(metavar="PATH", help="JSON run configuration file")),
    ("--seed", dict(type=int, help="override the configured seed")),
)
_FORMAT_FLAGS = (
    ("--json", dict(action="store_true", help="machine-readable JSON reports (default)")),
    ("--pretty", dict(action="store_true", help="human-readable text reports")),
)


# ---------------------------------------------------------------------------
# Parser


def _add_global_flags(p: argparse.ArgumentParser, **extra) -> None:
    for name, kwargs in _GLOBAL_FLAGS:
        p.add_argument(name, **kwargs, **extra)
    fmt = p.add_mutually_exclusive_group()
    for name, kwargs in _FORMAT_FLAGS:
        fmt.add_argument(name, **kwargs, **extra)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The full parser, built once per process: parse_args never mutates it."""
    p = argparse.ArgumentParser(
        prog="commvar",
        description="Exact computations with commuting matrix tuples: "
        "support cycles, isomorphism, framed modules, finite-field censuses.",
    )
    _add_global_flags(p)
    sub = p.add_subparsers(dest="command", metavar="SUBCOMMAND")
    for name, (_, help_, specs) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        # SUPPRESS: a flag not written after the subcommand keeps the root's value
        _add_global_flags(sp, default=argparse.SUPPRESS)
        for arg, kwargs in specs:
            sp.add_argument(arg, **kwargs)
    return p


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_") if name.startswith("-") else name


def _read_argv(argv: list[str]) -> argparse.Namespace | None:
    """The namespace the full parser returns for a plain argv, read from the
    argument specs; None for anything else.

    Plain means: exact option strings, each given once unless it appends;
    an option's value is the next token; no token starts with "-" but the
    options and a lone "-"; global flags on either side of the subcommand,
    its own options after it; no nargs, and ``--json`` and ``--pretty`` not
    both.  Help, usage errors, ``--opt=value``, abbreviations and ``--`` are
    left to the full parser, whose texts this never has to copy."""
    specs = _GLOBAL_FLAGS + _FORMAT_FLAGS
    known, waiting, values, command = dict(specs), [], {}, None
    tokens = iter(argv)
    for token in tokens:
        if token in known:
            name, kwargs = token, known[token]
            if kwargs.get("action") == "store_true":
                value = True
            elif (value := next(tokens, "-")).startswith("-"):  # or missing
                return None
        elif token.startswith("-") and token != "-":
            return None
        elif command is None:  # the subcommand
            if token not in _COMMANDS or any("nargs" in kw for _, kw in _COMMANDS[token][2]):
                return None
            command, own = token, _COMMANDS[token][2]
            specs += own
            known.update(arg for arg in own if arg[0].startswith("-"))
            waiting = [arg for arg in own if not arg[0].startswith("-")]
            continue
        elif waiting:
            (name, kwargs), value = waiting.pop(0), token
        else:  # one positional too many
            return None
        if value is not True:
            try:
                value = kwargs.get("type", str)(value)
            except ValueError:
                return None
            if value not in kwargs.get("choices", [value]):
                return None
        dest = _dest(name)
        if kwargs.get("action") == "append":
            values.setdefault(dest, []).append(value)
        elif dest in values:
            return None
        else:
            values[dest] = value
    if command is None or waiting or (values.get("json") and values.get("pretty")):
        return None
    for name, kwargs in specs:
        dest = _dest(name)
        if dest not in values:
            if kwargs.get("required"):
                return None
            store_true = kwargs.get("action") == "store_true"
            values[dest] = kwargs.get("default", False if store_true else None)
    return argparse.Namespace(command=command, **values)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    return _read_argv(argv) or _build_parser().parse_args(argv)


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else DEFAULT_CONFIG
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def run_command(argv=None) -> tuple[int, str]:
    """Dispatch one CLI invocation; returns (exit code, stdout text)."""
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:
        return (int(e.code) if e.code else 0), ""
    if not args.command:
        _build_parser().print_usage(sys.stderr)
        return 2, ""
    try:
        cfg = _resolve_config(args)
        result = _COMMANDS[args.command][0](args, cfg)
        if isinstance(result, str):
            return 0, result
        result["provenance"] = _provenance(cfg)
        if args.pretty:
            return 0, _pretty(result) + "\n"
        return 0, write_json(result) + "\n"
    except ParseError as e:
        return 2, _error_text(e)
    except CommvarError as e:
        return 1, _error_text(e)
    except Exception as e:  # noqa: BLE001 - closed taxonomy, anything else is a bug
        detail = {"message": f"{type(e).__name__}: {e}"}
        return 3, json.dumps({"error": "INTERNAL", "detail": detail}, default=str) + "\n"


def _error_text(e: CommvarError) -> str:
    detail: dict = {"message": str(e)}
    # an int past about 3,900 digits may exceed the interpreter's int -> str
    # limit, so it goes as a decimal string
    detail.update({k: int_to_decimal(v) if isinstance(v, int) and v.bit_length() > 13_000 else v
                   for k, v in e.detail.items()})
    return write_json({"error": e.code, "detail": detail}, ensure_ascii=True, default=str) + "\n"


def main(argv=None) -> int:
    code, out = run_command(argv)
    if out:
        sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
