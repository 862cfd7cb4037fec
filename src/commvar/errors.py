"""Error taxonomy shared by the library and the CLI.

Every domain failure raises a subclass of CommvarError carrying a stable
machine-readable ``code`` and a structured ``detail`` dict; the CLI
serializes both verbatim.  Anything else escaping to the CLI is a bug and
maps to exit code 3.
"""
from __future__ import annotations


class CommvarError(Exception):
    code = "INTERNAL"

    def __init__(self, message: str = "", **detail):
        super().__init__(message or self.code)
        self.detail = detail


class MixedFieldsError(CommvarError):
    """Operands live over different base fields."""

    code = "MIXED_FIELDS"


class NotSquareError(CommvarError):
    code = "NOT_SQUARE"


class ZeroPolyError(CommvarError):
    """Root extraction on the zero polynomial."""

    code = "ZERO_POLY"


class ArityMismatchError(CommvarError):
    """Wrong number of matrices/variables for the requested operation."""

    code = "ARITY_MISMATCH"


class SizeMismatchError(CommvarError):
    code = "SIZE_MISMATCH"


class NotCommutingError(CommvarError):
    """Some pair of coordinate matrices fails to commute.

    ``detail`` carries the 1-based offending pair and the commutator.
    """

    code = "NOT_COMMUTING"


class SingularGroupElementError(CommvarError):
    code = "SINGULAR_G"


class NotYoungDiagramError(CommvarError):
    code = "NOT_YOUNG_DIAGRAM"


class NotMonicError(CommvarError):
    code = "NOT_MONIC"


class NotSplitError(CommvarError):
    """Support contains a point that is not rational over the base field.

    ``detail["degrees"]`` lists the degrees of the offending irreducible
    cofactors encountered (never factored further).
    """

    code = "NOT_SPLIT"


class NotPunctualError(CommvarError):
    code = "NOT_PUNCTUAL"


class GridBudgetExceededError(CommvarError):
    """Certificate search space too large; refusing to answer unsoundly."""

    code = "GRID_BUDGET_EXCEEDED"


class NotSurjectiveError(CommvarError):
    """Frame vectors do not generate the module."""

    code = "NOT_SURJECTIVE"


class WrongFrameCountError(CommvarError):
    code = "WRONG_FRAME_COUNT"


class BudgetExceededError(CommvarError):
    """Work would exceed a fixed budget: a census larger than the configured
    budget (never truncated), or a field size too large to decide primality
    exactly."""

    code = "BUDGET_EXCEEDED"


class NonprimeQError(CommvarError):
    code = "NONPRIME_Q"


class ParseError(CommvarError):
    """Malformed input text (JSON, scalar, polynomial or config syntax)."""

    code = "PARSE_ERROR"


class ValidationError(CommvarError):
    """Structurally invalid document (shape, field tag, missing frame)."""

    code = "VALIDATION_ERROR"
