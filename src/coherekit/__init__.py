"""coherekit: exact coherence checking and prevision propagation for
conditional, conjoined, and iterated conditional bets."""

from .errors import (
    CapExceeded,
    CoherekitError,
    DimensionMismatch,
    EmptySupport,
    ExtensionSearchFailed,
    ImpossibleConditioningEvent,
    IncoherentPremises,
    InternalError,
    MissingSymbol,
    OutOfRange,
    ParseError,
    PreconditionFailed,
    UndeclaredAtom,
    UnknownAtom,
)
from .events import (
    FALSE,
    TRUE,
    AtomRegistry,
    Constituent,
    Event,
    constituents_of,
    enumerate_constituents,
    equivalent,
    evaluate,
    implies,
    is_impossible,
)
from .polynomials import Poly
from .crq import (
    ConditionalRandomQuantity,
    add,
    conditional_event,
    conditional_quantity,
    conjunction,
    given_event,
    iterated,
    iterated_simple,
    negate,
    payoff_at,
    reduce_nested,
    support,
)
from .coherence import (
    Assessment,
    CoherenceResult,
    DutchBook,
    PointTable,
    SigmaSolution,
    build_points,
    check_coherence,
    find_dutch_book,
    solve_sigma,
    subsets_by_size,
)
from .propagation import (
    ExtensionInterval,
    extension_interval,
    mp_bounds,
    mp_family,
    product_prevision,
    verify_decomposition,
)
from .dsl import AssessmentDocument, build, parse, parse_expression, serialize

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
