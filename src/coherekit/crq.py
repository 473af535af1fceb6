"""Conditional random quantities (CRQs) in the betting interpretation.

A CRQ is a payoff table: a partition of the sure event into regions, each
paying a polynomial in prevision symbols.  A bet on the quantity at price
p (its own prevision symbol) is *called off* at the worlds in its off-set;
the `support` of the quantity is the mask (bit k = world k) of the
complementary set of worlds, where the bet stands.

Constructors cover: plain conditional events `A|H` (pays 1 on AH, 0 on
¬A·H, and its own prevision on ¬H), conjunctions `(A|H) ∧ (B|K)`,
iterated conditionals `(B|K)|(A|H)` and the event-consequent special case
`C|(A|H)`, negation, pointwise sums, and conditioning an existing
quantity on a further event.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .errors import (
    ImpossibleConditioningEvent,
    MissingSymbol,
    PreconditionFailed,
)
from .events import (
    AtomRegistry,
    Constituent,
    Event,
    implies,
    is_impossible,
)
from .polynomials import ONE, ZERO, Poly, Rational

Valuation = Mapping[str, Rational]


# -- provenance tags -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConditionalEventShape:
    """A|H for events A, H."""

    consequent: Event
    condition: Event


@dataclass(frozen=True, eq=False)
class PlainShape:
    """X|H for a finite random quantity X and event H."""

    condition: Event


@dataclass(frozen=True, eq=False)
class ConjunctionShape:
    left: "ConditionalRandomQuantity"
    right: "ConditionalRandomQuantity"


@dataclass(frozen=True, eq=False)
class IteratedShape:
    """(B|K)|(A|H): `inner` is A|H, `outer` is B|K."""

    inner: "ConditionalRandomQuantity"
    outer: "ConditionalRandomQuantity"


@dataclass(frozen=True, eq=False)
class IteratedEventShape:
    """C|(A|H): `inner` is A|H, consequent C is a plain event."""

    inner: "ConditionalRandomQuantity"
    consequent: Event


@dataclass(frozen=True, eq=False)
class NegationShape:
    operand: "ConditionalRandomQuantity"


@dataclass(frozen=True, eq=False)
class SumShape:
    left: "ConditionalRandomQuantity"
    right: "ConditionalRandomQuantity"


@dataclass(frozen=True, eq=False)
class NestedEventShape:
    """(X|H)|K: an existing quantity conditioned on a further event K."""

    inner: "ConditionalRandomQuantity"
    condition: Event


Shape = Union[
    ConditionalEventShape,
    PlainShape,
    ConjunctionShape,
    IteratedShape,
    IteratedEventShape,
    NegationShape,
    SumShape,
    NestedEventShape,
]


# -- the quantity itself ---------------------------------------------------


class ConditionalRandomQuantity:
    """Immutable payoff table with its own prevision symbol.

    `rows` is an ordered tuple of `(region event, payoff polynomial)` pairs
    whose regions partition the sure event.  `masks` holds each row's
    region as a world mask (bit k = world k, as in `Event.mask`), computed
    once, when the partition is checked; `payoff_poly`, `support`, `add`
    and `coherence.Assessment` read these, not the region events.
    `links` records symbols whose value is determined by other symbols
    (e.g. the negation of a quantity carries `new = 1 - old`).
    """

    __slots__ = ("rows", "masks", "own_symbol", "registry", "shape", "links")

    def __init__(
        self,
        rows: Sequence[tuple[Event, Union[Poly, Rational]]],
        own_symbol: str,
        registry: AtomRegistry,
        shape: Shape,
        links: Sequence[tuple[str, Poly]] = (),
    ):
        self.rows = tuple((event, Poly.coerce(poly)) for event, poly in rows)
        self.own_symbol = own_symbol
        self.registry = registry
        self.shape = shape
        self.links = tuple(links)
        self.masks: tuple[int, ...] = self._check_partition()

    def _check_partition(self) -> tuple[int, ...]:
        """The rows' world masks, once they are known to partition the
        worlds."""
        masks = tuple(event.mask(self.registry) for event, _ in self.rows)
        seen = 0
        for mask in masks:
            if mask & seen:
                raise PreconditionFailed("payoff rows overlap")
            seen |= mask
        if seen != self.registry.full_mask():
            raise PreconditionFailed("payoff rows do not cover every world")
        return masks

    # -- payoffs ------------------------------------------------------

    def payoff_poly(self, c: Constituent) -> Poly:
        """The payoff polynomial at one possible world."""
        for mask, (_, poly) in zip(self.masks, self.rows):
            if mask >> c.index & 1:
                return poly
        raise PreconditionFailed("no payoff row matched")  # pragma: no cover

    def symbols(self) -> set[str]:
        out = {self.own_symbol}
        for _, poly in self.rows:
            out |= poly.symbols()
        return out

    def __add__(self, other: "ConditionalRandomQuantity") -> "ConditionalRandomQuantity":
        return add(self, other)

    def condition_event(self) -> Optional[Event]:
        """The conditioning event, where the shape defines one."""
        shape = self.shape
        if isinstance(shape, (ConditionalEventShape, PlainShape)):
            return shape.condition
        if isinstance(shape, ConjunctionShape):
            left = shape.left.shape
            right = shape.right.shape
            return left.condition | right.condition  # type: ignore[union-attr]
        if isinstance(shape, NestedEventShape):
            return shape.condition
        if isinstance(shape, NegationShape):
            return shape.operand.condition_event()
        return None

    def describe(self) -> str:
        return f"<CRQ {self.own_symbol}: {len(self.rows)} rows>"

    __repr__ = describe


CRQ = ConditionalRandomQuantity


# -- constructors ----------------------------------------------------------


def _registry_for(*events: Event, registry: Optional[AtomRegistry] = None) -> AtomRegistry:
    reg = registry
    for e in events:
        found = e.registry()
        if found is not None:
            if reg is None:
                reg = found
            elif reg is not found:
                raise PreconditionFailed("events belong to different registries")
    if reg is None:
        raise PreconditionFailed(
            "cannot infer an atom registry from constant events; pass registry="
        )
    return reg


def _require_possible(h: Event, registry: AtomRegistry) -> None:
    if is_impossible(h, registry):
        raise ImpossibleConditioningEvent(f"conditioning event {h} is impossible")


def conditional_event(
    consequent: Event,
    condition: Event,
    symbol: str,
    *,
    registry: Optional[AtomRegistry] = None,
) -> CRQ:
    """A|H: pays 1 on AH, 0 on ¬A·H, and its own prevision on ¬H."""
    reg = _registry_for(consequent, condition, registry=registry)
    _require_possible(condition, reg)
    rows = [
        (consequent & condition, ONE),
        (~consequent & condition, ZERO),
        (~condition, Poly.sym(symbol)),
    ]
    return CRQ(rows, symbol, reg, ConditionalEventShape(consequent, condition))


def conditional_quantity(
    values: Sequence[tuple[Event, Union[Poly, Rational]]],
    condition: Event,
    symbol: str,
    *,
    registry: Optional[AtomRegistry] = None,
) -> CRQ:
    """X|H for a finite quantity X given as value regions partitioning H."""
    reg = _registry_for(condition, *(e for e, _ in values), registry=registry)
    _require_possible(condition, reg)
    rows = [(event & condition, poly) for event, poly in values]
    seen = 0
    for event, _ in rows:
        mask = event.mask(reg)
        if mask & seen:
            raise PreconditionFailed("value regions overlap inside the condition")
        seen |= mask
    if seen != condition.mask(reg):
        raise PreconditionFailed("value regions do not cover the condition")
    rows.append((~condition, Poly.sym(symbol)))
    return CRQ(rows, symbol, reg, PlainShape(condition))


def negate(q: CRQ, symbol: Optional[str] = None) -> CRQ:
    """1 - q, with a fresh own symbol linked to 1 minus q's symbol.

    Negating a plain conditional event A|H yields the conditional event
    ¬A|H, preserving the shape so that it can seed further constructions.
    """
    name = symbol if symbol is not None else f"not({q.own_symbol})"
    links = _merge_links(q.links, ((name, ONE - Poly.sym(q.own_symbol)),))
    if isinstance(q.shape, ConditionalEventShape):
        out = conditional_event(
            ~q.shape.consequent, q.shape.condition, name, registry=q.registry
        )
        return CRQ(out.rows, name, q.registry, out.shape, links)
    rows = [(event, ONE - poly) for event, poly in q.rows]
    return CRQ(rows, name, q.registry, NegationShape(q), links)


def conjunction(left: CRQ, right: CRQ, symbol: str) -> CRQ:
    """(A|H) ∧ (B|K): pays 1 on AHBK, x on ¬H·BK, y on AH·¬K, its own
    prevision on ¬H·¬K, and 0 elsewhere."""
    a, h, x = _conditional_parts(left)
    b, k, y = _conditional_parts(right)
    reg = _registry_for(a, h, b, k, registry=left.registry)
    _require_possible(h, reg)
    _require_possible(k, reg)
    ah, not_h, not_k = a & h, ~h, ~k
    certain = ah & b & k
    left_void = not_h & b & k
    right_void = ah & not_k
    both_void = not_h & not_k
    rows = [
        (certain, ONE),
        (left_void, Poly.sym(x)),
        (right_void, Poly.sym(y)),
        (both_void, Poly.sym(symbol)),
        (~(certain | left_void | right_void | both_void), ZERO),
    ]
    links = _merge_links(left.links, right.links)
    return CRQ(rows, symbol, reg, ConjunctionShape(left, right), links)


def iterated(inner: CRQ, outer: CRQ, symbol: str, conjunction_symbol: str) -> CRQ:
    """(B|K)|(A|H) for conditional events inner = A|H and outer = B|K.

    The quantity equals the conjunction (A|H) ∧ (B|K) plus its own
    prevision times ¬A|H, which spells out as the seven-region table
    below; `conjunction_symbol` names the prevision of the conjunction,
    which appears in the ¬H·¬K payoff.
    """
    a, h, x_sym = _conditional_parts(inner)
    b, k, y_sym = _conditional_parts(outer)
    reg = _registry_for(a, h, b, k, registry=inner.registry)
    _require_possible(h, reg)
    _require_possible(k, reg)
    x = Poly.sym(x_sym)
    y = Poly.sym(y_sym)
    mu = Poly.sym(symbol)
    z = Poly.sym(conjunction_symbol)
    hedge = mu * (ONE - x)
    ah, not_b, not_h, not_k = a & h, ~b, ~h, ~k
    rows = [
        (ah & b & k, ONE),
        (ah & not_b & k, ZERO),
        (ah & not_k, y),
        (~a & h, mu),
        (not_h & b & k, x + hedge),
        (not_h & not_b & k, hedge),
        (not_h & not_k, z + hedge),
    ]
    links = _merge_links(inner.links, outer.links)
    return CRQ(rows, symbol, reg, IteratedShape(inner, outer), links)


def iterated_simple(inner: CRQ, consequent: Event, symbol: str) -> CRQ:
    """C|(A|H) for a conditional event inner = A|H and plain event C."""
    a, h, x_sym = _conditional_parts(inner)
    reg = _registry_for(a, h, consequent, registry=inner.registry)
    _require_possible(h, reg)
    x = Poly.sym(x_sym)
    y = Poly.sym(symbol)
    hedge = y * (ONE - x)
    ah, not_c, not_h = a & h, ~consequent, ~h
    rows = [
        (ah & consequent, ONE),
        (ah & not_c, ZERO),
        (~a & h, y),
        (not_h & consequent, x + hedge),
        (not_h & not_c, hedge),
    ]
    return CRQ(rows, symbol, reg, IteratedEventShape(inner, consequent), inner.links)


def given_event(q: CRQ, condition: Event, symbol: str) -> CRQ:
    """(X|H)|K: condition an existing quantity on a further event K."""
    reg = _registry_for(condition, registry=q.registry)
    _require_possible(condition, reg)
    rows = [(event & condition, poly) for event, poly in q.rows]
    rows.append((~condition, Poly.sym(symbol)))
    return CRQ(rows, symbol, reg, NestedEventShape(q, condition), q.links)


def add(left: CRQ, right: CRQ, symbol: Optional[str] = None) -> CRQ:
    """Pointwise sum; its prevision is linked to the sum of previsions."""
    if left.registry is not right.registry:
        raise PreconditionFailed("summands belong to different registries")
    name = symbol if symbol is not None else f"({left.own_symbol}+{right.own_symbol})"
    rows = []
    for m1, (ev1, p1) in zip(left.masks, left.rows):
        for m2, (ev2, p2) in zip(right.masks, right.rows):
            if m1 & m2:
                rows.append((ev1 & ev2, p1 + p2))
    link = (name, Poly.sym(left.own_symbol) + Poly.sym(right.own_symbol))
    links = _merge_links(left.links, right.links) + (link,)
    return CRQ(rows, name, left.registry, SumShape(left, right), links)


def reduce_nested(q: CRQ, valuation: Optional[Valuation] = None) -> CRQ:
    """Collapse (X|H)|K to X|H when H implies K.

    With a valuation supplied, the pointwise identity of the two payoff
    tables is verified before returning.
    """
    if not isinstance(q.shape, NestedEventShape):
        raise PreconditionFailed("quantity is not of the (X|H)|K shape")
    inner = q.shape.inner
    h = inner.condition_event()
    if h is None:
        raise PreconditionFailed("inner quantity has no definite conditioning event")
    if not implies(h, q.shape.condition, q.registry):
        raise PreconditionFailed(
            "inner conditioning event does not imply the outer one"
        )
    if valuation is not None:
        for c in q.registry.constituents():
            if payoff_at(q, c, valuation) != payoff_at(inner, c, valuation):
                raise PreconditionFailed(
                    f"payoff mismatch at {c.label()} under the given valuation"
                )
    return inner


def _conditional_parts(q: CRQ) -> tuple[Event, Event, str]:
    if not isinstance(q.shape, ConditionalEventShape):
        raise PreconditionFailed(
            "expected a plain conditional event A|H, got " + q.describe()
        )
    return q.shape.consequent, q.shape.condition, q.own_symbol


def _merge_links(*link_groups: Sequence[tuple[str, Poly]]) -> tuple[tuple[str, Poly], ...]:
    seen: dict[str, Poly] = {}
    for group in link_groups:
        for name, poly in group:
            if name in seen and seen[name] != poly:
                raise PreconditionFailed(f"conflicting definitions for symbol {name}")
            seen[name] = poly
    return tuple(seen.items())


# -- support (called-off analysis) -----------------------------------------


def support(q: CRQ, valuation: Valuation) -> int:
    """The possible worlds at which a bet on `q` is *not* called off, as a
    world mask over `q.registry` (bit k = world k, as in `Event.mask`).

    Plain conditionals are live exactly on their conditioning event; a
    conjunction is live on H∨K.  An event-consequent iterated conditional
    C|(A|H) is live on AH when the inner prevision is 0 and on AH∨¬H
    otherwise.  A fully nested iterated conditional is live wherever its
    payoff, with every determined symbol substituted, is not identically
    its own prevision symbol.

    Every mask is read off masks already computed: the rows' own, or the
    cached masks of the events a shape names.
    """
    shape = q.shape
    if isinstance(shape, (ConditionalEventShape, PlainShape, NestedEventShape)):
        return shape.condition.mask(q.registry)
    if isinstance(shape, ConjunctionShape):
        left, right = shape.left.shape, shape.right.shape
        return left.condition.mask(q.registry) | right.condition.mask(q.registry)
    if isinstance(shape, NegationShape):
        return support(shape.operand, valuation)
    if isinstance(shape, SumShape):
        return support(shape.left, valuation) | support(shape.right, valuation)
    if isinstance(shape, IteratedEventShape):
        inner = shape.inner
        x = _inner_prevision(inner, valuation)
        h = inner.shape.condition.mask(q.registry)
        ah = inner.shape.consequent.mask(q.registry) & h
        return ah if x == 0 else ah | q.registry.full_mask() ^ h
    if isinstance(shape, IteratedShape):
        _inner_prevision(shape.inner, valuation)  # required to be determined
        subst = {name: v for name, v in valuation.items() if name != q.own_symbol}
        own = Poly.sym(q.own_symbol)
        mask = 0
        for region, (_, poly) in zip(q.masks, q.rows):
            if poly.substitute(subst) != own:
                mask |= region
        return mask
    raise PreconditionFailed(f"unknown shape {type(shape).__name__}")


def _inner_prevision(inner: CRQ, valuation: Valuation) -> Fraction:
    name = inner.own_symbol
    if name not in valuation:
        raise MissingSymbol(
            f"inner prevision {name} must be assessed or derivable to "
            "determine the called-off set of an iterated conditional"
        )
    return Fraction(valuation[name])


def payoff_at(q: CRQ, c: Constituent, valuation: Valuation) -> Fraction:
    """Exact payoff of the quantity at one world under a full valuation."""
    return q.payoff_poly(c).value(valuation)
