"""Command-line interface.

Every subcommand reads module documents (JSON files, "-" for stdin) and
writes a JSON report to stdout.  Exit codes: 0 success, 1 domain error
(error JSON {"error": CODE, "detail": {...}}), 2 usage or parse error,
3 internal failure (a bug).  All numeric payloads that can grow without
bound travel as decimal strings; dimensions and multiplicities are ints.
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
from .errors import ArityMismatchError, CommvarError, ParseError, SizeMismatchError
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


def _one_doc(p: argparse.ArgumentParser) -> None:
    p.add_argument("doc", help="module document path, or - for stdin")


def _two_docs(p: argparse.ArgumentParser) -> None:
    p.add_argument("left", help="first module document")
    p.add_argument("right", help="second module document")


def _translate_args(p: argparse.ArgumentParser) -> None:
    _one_doc(p)
    p.add_argument("shift", nargs="+", help="d scalars (use -- before negatives)")


def _nqd_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True, help="prime field size")


def _census_args(p: argparse.ArgumentParser) -> None:
    _nqd_args(p)
    p.add_argument("--nilpotent", action="store_true", help="count punctual tuples only")
    p.add_argument(
        "--per-stratum", action="store_true", help="histogram counts by support stratum"
    )
    p.add_argument(
        "--relation",
        action="append",
        metavar="POLY",
        help="polynomial in x1..xd that must vanish on the tuple (repeatable)",
    )


def _sample_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--kind",
        required=True,
        choices=["staircase", "companion", "punctual", "split"],
    )
    p.add_argument("--field", default="Q", help='"Q" or "Fp:<p>" (default Q)')
    p.add_argument("--n", type=int, help="size (punctual) / max piece size (split): default 3; "
                   "staircase and companion: must match the cells or the degree")
    p.add_argument("--d", type=int, help="number of coordinates (punctual, split: default 2)")
    p.add_argument("--cells", help='staircase cells "i,j;i,j;..."')
    p.add_argument("--coeffs", help="companion polynomial, ascending comma-separated")
    p.add_argument("--pieces", type=int, default=3, help="max pieces (split)")
    p.add_argument(
        "--conjugate", action="store_true", help="conjugate by a seeded random element"
    )


# name -> (handler, help line, adds the subcommand's own arguments); the
# order is the order of the subcommands in the help text
_COMMANDS = {
    "validate": (_cmd_validate, "check a document parses into a commuting tuple", _one_doc),
    "cycle": (_cmd_cycle, "support cycle with multiplicities, plus its stratum", _one_doc),
    "stratum": (_cmd_stratum, "partition stratum of the support cycle", _one_doc),
    "localize": (_cmd_localize, "split into local summands along the support", _one_doc),
    "isom": (_cmd_isom, "decide simultaneous-conjugation equivalence", _two_docs),
    "homdim": (_cmd_homdim, "dimension of the intertwiner space", _two_docs),
    "autdim": (_cmd_autdim, "dimension of the endomorphism algebra", _one_doc),
    "mingen": (_cmd_mingen, "minimal generator count of a punctual module", _one_doc),
    "tangent": (_cmd_tangent, "tangent space dimension at a commuting tuple", _one_doc),
    "nilpotent": (_cmd_nilpotent, "is every coordinate matrix nilpotent?", _one_doc),
    "potential": (_cmd_potential, "trace potential Tr(A(BC - CB)) of a matrix triple", _one_doc),
    "gradient": (
        _cmd_gradient, "gradient of the trace potential; vanishes iff commuting", _one_doc),
    "translate": (_cmd_translate, "shift every coordinate by a scalar", _translate_args),
    "dsum": (_cmd_dsum, "direct sum of two modules", _two_docs),
    "frame-check": (_cmd_frame_check, "do the frame vectors generate the module?", _one_doc),
    "atlas-check": (
        _cmd_atlas_check, "is the framed module an atlas chart point (r = n)?", _one_doc),
    "quot-equal": (
        _cmd_quot_equal, "equality of framed modules as quotient-scheme points", _two_docs),
    "census": (_cmd_census, "count commuting tuples over a prime field", _census_args),
    "orbit-census": (_cmd_orbit_census, "full orbit list with stabilizer orders", _nqd_args),
    "sample": (_cmd_sample, "generate example module documents", _sample_args),
}


# ---------------------------------------------------------------------------
# Parser


def _add_global_flags(p: argparse.ArgumentParser, suppress: bool) -> None:
    # the same flags live on the root parser and on every subparser so they
    # may be written on either side of the subcommand; subparser copies
    # default to SUPPRESS so they never overwrite a value parsed earlier
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    p.add_argument("--config", metavar="PATH", help="JSON run configuration file", **kw)
    p.add_argument("--seed", type=int, help="override the configured seed", **kw)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument(
        "--json",
        action="store_true",
        help="machine-readable JSON reports (default)",
        **kw,
    )
    fmt.add_argument(
        "--pretty",
        action="store_true",
        help="human-readable text reports",
        **kw,
    )


class _NeedsFullParser(Exception):
    """A one-subcommand parser met help or a usage error."""


class _OneCommandParser(argparse.ArgumentParser):
    # prints nothing: help and usage errors are left to the full parser,
    # which alone knows every subcommand
    def print_help(self, file=None):
        raise _NeedsFullParser

    def error(self, message):
        raise _NeedsFullParser


@functools.lru_cache(maxsize=None)
def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or one that knows only ``command`` besides the
    global flags.  Built once per process: parse_args never mutates it."""
    p = (_OneCommandParser if command else argparse.ArgumentParser)(
        prog="commvar",
        description="Exact computations with commuting matrix tuples: "
        "support cycles, isomorphism, framed modules, finite-field censuses.",
    )
    _add_global_flags(p, suppress=False)
    sub = p.add_subparsers(dest="command", metavar="SUBCOMMAND")
    for name in [command] if command else _COMMANDS:
        _, help_, add_arguments = _COMMANDS[name]
        sp = sub.add_parser(name, help=help_)
        _add_global_flags(sp, suppress=True)
        add_arguments(sp)
    return p


def _parse_args(argv: list[str]) -> argparse.Namespace:
    # the first token naming a subcommand picks the parser; when that guess
    # is wrong (it may be an option's value) the narrow parse fails and the
    # full parser decides, so argparse's rules live in argparse alone
    command = next((a for a in argv if a in _COMMANDS), None)
    if command:
        try:
            return _build_parser(command).parse_args(argv)
        except _NeedsFullParser:
            pass
    return _build_parser().parse_args(argv)


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
