"""Run configuration: deterministic seeds and search budgets.

No environment variables are consulted; behavior is a function of inputs,
seed and config only.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace

from .errors import ParseError


@dataclass(frozen=True)
class RunConfig:
    seed: int = 1
    grid_budget: int = 8         # max Hom dimension for a full certificate grid
    census_budget: int = 2**32   # cap on q^(d n^2) enumeration size

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
                raise ParseError(f"config field {f.name} must be a positive integer, got {v!r}")


DEFAULT_CONFIG = RunConfig()


def load_config(path: str) -> RunConfig:
    """Read a JSON config file; unknown keys are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read config {path}: {e}")
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON in config {path}: {e}", line=e.lineno, column=e.colno)
    except ValueError as e:  # a JSON number past the interpreter's int digit limit
        raise ParseError(f"bad JSON in config {path}: {e}")
    if not isinstance(raw, dict):
        raise ParseError("config must be a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ParseError(f"unknown config keys: {', '.join(unknown)}")
    return replace(RunConfig(), **raw)
