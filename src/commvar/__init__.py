"""commvar: exact computations with commuting matrix tuples.

A d-tuple of pairwise commuting n x n matrices over a field is the same
thing as an n-dimensional module over the polynomial ring in d variables.
This package works with those tuples exactly (rationals or prime fields,
never floats): support cycles and their partition strata, localization,
isomorphism testing with certificates, framed modules and quotient-scheme
charts, tangent-space dimensions, the trace potential, and exhaustive
finite-field censuses with groupoid-weighted counts.
"""

__version__ = "0.1.0"

from .census import (
    CensusRequest,
    CensusResult,
    Orbit,
    burnside_count,
    enumerate_census,
    gl_order,
    orbit_census,
)
from .config import DEFAULT_CONFIG, RunConfig, load_config
from .cycles import (
    Cycle,
    LocalSummand,
    cycle,
    det_pushforward,
    localize,
    partition_notation,
    stratum,
)
from .documents import (
    ModuleDocument,
    emit_document,
    from_commuting_tuple,
    from_framed_module,
    parse_document,
    to_commuting_tuple,
    to_framed_module,
)
from .errors import (
    ArityMismatchError,
    BudgetExceededError,
    CommvarError,
    GridBudgetExceededError,
    MixedFieldsError,
    NonprimeQError,
    NotCommutingError,
    NotMonicError,
    NotPunctualError,
    NotSplitError,
    NotSquareError,
    NotSurjectiveError,
    NotYoungDiagramError,
    ParseError,
    SingularGroupElementError,
    SizeMismatchError,
    ValidationError,
    WrongFrameCountError,
    ZeroPolyError,
)
from .fields import GF, QQ, Field, PrimeField, RationalField, field_from_name, field_name
from .homs import HomSpace, aut_dim, hom_basis, hom_dim, is_isomorphic, min_generators
from .matrices import Matrix, block_diag, char_poly, commutator, det, inverse, kernel_basis, rank, rref, solve
from .modules import (
    CommutingTuple,
    GroupElement,
    Staircase,
    companion,
    compose,
    conjugate,
    direct_sum,
    empty_tuple,
    from_staircase,
    group_element,
    identity_element,
    is_punctual,
    potential_gradient,
    staircase,
    tangent_space_dim,
    trace_potential,
    translate,
    validate,
)
from .polynomials import (
    MultiPoly,
    UniPoly,
    format_multipoly,
    parse_multipoly,
    roots_with_multiplicity,
)
from .quot import (
    FramedModule,
    forget_frame,
    gl_action_on_atlas,
    is_atlas_point,
    is_generating,
    quot_equal,
)
from .sampling import (
    random_punctual_tuple,
    random_split_tuple,
    sample_companion_of_roots,
)

__all__ = [
    "__version__",
    # fields and scalars
    "Field", "RationalField", "PrimeField", "QQ", "GF", "field_from_name", "field_name",
    # polynomials
    "UniPoly", "MultiPoly", "roots_with_multiplicity", "parse_multipoly", "format_multipoly",
    # matrices
    "Matrix", "det", "inverse", "rank", "rref", "solve", "kernel_basis", "char_poly",
    "commutator", "block_diag",
    # modules and the group action
    "CommutingTuple", "GroupElement", "Staircase", "validate", "empty_tuple",
    "group_element", "identity_element", "compose", "conjugate", "direct_sum",
    "translate", "is_punctual", "trace_potential", "potential_gradient",
    "tangent_space_dim", "staircase", "from_staircase", "companion",
    # cycles
    "Cycle", "LocalSummand", "cycle", "stratum", "partition_notation",
    "localize", "det_pushforward",
    # homs
    "HomSpace", "hom_basis", "hom_dim", "aut_dim", "is_isomorphic", "min_generators",
    # framed modules
    "FramedModule", "is_generating", "forget_frame", "is_atlas_point",
    "quot_equal", "gl_action_on_atlas",
    # census
    "CensusRequest", "CensusResult", "Orbit", "gl_order", "enumerate_census",
    "orbit_census", "burnside_count",
    # sampling
    "random_punctual_tuple", "random_split_tuple", "sample_companion_of_roots",
    # documents and config
    "ModuleDocument", "parse_document", "emit_document", "to_commuting_tuple",
    "to_framed_module", "from_commuting_tuple", "from_framed_module",
    "RunConfig", "DEFAULT_CONFIG", "load_config",
    # errors
    "CommvarError", "MixedFieldsError", "NotSquareError", "ZeroPolyError",
    "ArityMismatchError", "SizeMismatchError", "NotCommutingError",
    "SingularGroupElementError", "NotYoungDiagramError", "NotMonicError",
    "NotSplitError", "NotPunctualError",
    "GridBudgetExceededError", "NotSurjectiveError", "WrongFrameCountError",
    "BudgetExceededError", "NonprimeQError", "ParseError", "ValidationError",
]
