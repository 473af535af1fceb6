"""coherekit: exact coherence checking and prevision propagation for
conditional, conjoined, and iterated conditional bets."""

from types import ModuleType as _ModuleType

from .errors import (
    CapExceeded,
    CoherekitError,
    DimensionMismatch,
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
    check_coherence,
    find_dutch_book,
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

# The document parser loads on first use (PEP 562): a program that only
# builds families in Python does not pay for importing it.
_PARSER_NAMES = ("AssessmentDocument", "build", "parse", "parse_expression", "serialize")

# The submodules that the imports above bind are not part of it.
__all__ = sorted(
    [name for name in dir() if not (name[0] == "_" or isinstance(globals()[name], _ModuleType))]
    + list(_PARSER_NAMES)
)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "dsl" or name in _PARSER_NAMES:
        import importlib

        dsl = importlib.import_module(".dsl", __name__)
        value = globals()[name] = dsl if name == "dsl" else getattr(dsl, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
