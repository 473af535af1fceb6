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
quantity on a further event.  Each payoff region is an (event, world
mask) pair, and a compound's regions are meets of its operands' regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
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
)
from .polynomials import ONE, ZERO, Poly, Rational

Valuation = Mapping[str, Rational]
Region = tuple[Event, int]  # an event and its world mask


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
    whose regions partition the sure event, and `masks` holds each row's
    region as a world mask (bit k = world k, as in `Event.mask`), in row
    order.  The constructors below pass each row as `((event, mask),
    payoff)`, a region being one (event, mask) pair made as the meet of
    its operands' regions, so that a region's formula and its mask are
    written together, once; `__init__` splits the pairs and checks that
    the masks partition the worlds.  `payoff_poly`, `support`, `add` and
    `coherence.Assessment` read the masks; the region events render the
    table.
    `links` records symbols whose value is determined by other symbols
    (e.g. the negation of a quantity carries `new = 1 - old`).
    """

    __slots__ = ("rows", "masks", "own_symbol", "registry", "shape", "links")

    def __init__(
        self,
        rows: Sequence[tuple[Region, Union[Poly, Rational]]],
        own_symbol: str,
        registry: AtomRegistry,
        shape: Shape,
        links: Sequence[tuple[str, Poly]] = (),
    ):
        self.rows = tuple([(event, Poly.coerce(poly)) for (event, _), poly in rows])
        self.masks: tuple[int, ...] = _partition([mask for (_, mask), _ in rows], registry)
        self.own_symbol = own_symbol
        self.registry = registry
        self.shape = shape
        self.links = tuple(links)

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


def _partition(masks: Sequence[int], registry: AtomRegistry) -> tuple[int, ...]:
    """`masks` as a tuple, once they are known to partition the worlds."""
    seen = 0
    for mask in masks:
        if mask & seen:
            raise PreconditionFailed("payoff rows overlap")
        seen |= mask
    if seen != registry.full_mask():
        raise PreconditionFailed("payoff rows do not cover every world")
    return tuple(masks)


def _table(q: CRQ) -> list[tuple[Region, Poly]]:
    """`q`'s payoff rows, each region as its (event, world mask) pair."""
    return [((event, mask), poly) for (event, poly), mask in zip(q.rows, q.masks)]


def _meet(r: Region, s: Region) -> Region:
    """The region where both `r` and `s` hold."""
    return r[0] & s[0], r[1] & s[1]


def _join(r: Region, s: Region) -> Region:
    """The region where `r` or `s` holds."""
    return r[0] | s[0], r[1] | s[1]


def _complement(r: Region, registry: AtomRegistry) -> Region:
    """The region where `r` fails."""
    return ~r[0], registry.full_mask() ^ r[1]


# -- constructors ----------------------------------------------------------


def _registry_for(*events: Event, registry: Optional[AtomRegistry] = None) -> AtomRegistry:
    """The registry that every atom of `events` belongs to, which must be
    `registry` when one is given.  The trees are walked without recursion,
    since a document's can be deep, and each shared node is visited once."""
    reg = registry
    stack, seen = list(events), set()
    while stack:
        e = stack.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        if e.kind != "atom":
            stack.extend(e.args)
        elif reg is None:
            reg = e.args[0].registry
        elif reg is not e.args[0].registry:
            raise PreconditionFailed("events belong to different registries")
    if reg is None:
        raise PreconditionFailed(
            "cannot infer an atom registry from constant events; pass registry="
        )
    return reg


def _shared_registry(left: CRQ, right: CRQ, operands: str = "events") -> AtomRegistry:
    """The registry of two operands, which must be one and the same."""
    if left.registry is not right.registry:
        raise PreconditionFailed(f"{operands} belong to different registries")
    return left.registry


def _condition_mask(h: Event, registry: AtomRegistry) -> int:
    """The world mask of a conditioning event, which must be possible."""
    mask = h.mask(registry)
    if not mask:
        raise ImpossibleConditioningEvent(f"conditioning event {h} is impossible")
    return mask


def conditional_event(
    consequent: Event,
    condition: Event,
    symbol: str,
    *,
    registry: Optional[AtomRegistry] = None,
) -> CRQ:
    """A|H: pays 1 on AH, 0 on ¬A·H, and its own prevision on ¬H."""
    reg = _registry_for(consequent, condition, registry=registry)
    h = (condition, _condition_mask(condition, reg))
    a = (consequent, consequent.mask(reg))
    rows = [
        (_meet(a, h), ONE),
        (_meet(_complement(a, reg), h), ZERO),
        (_complement(h, reg), Poly.sym(symbol)),
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
    h = (condition, _condition_mask(condition, reg))
    rows = []
    seen = 0
    for event, poly in values:
        region = _meet((event, event.mask(reg)), h)
        if region[1] & seen:
            raise PreconditionFailed("value regions overlap inside the condition")
        seen |= region[1]
        rows.append((region, poly))
    if seen != h[1]:
        raise PreconditionFailed("value regions do not cover the condition")
    rows.append((_complement(h, reg), Poly.sym(symbol)))
    return CRQ(rows, symbol, reg, PlainShape(condition))


def negate(q: CRQ, symbol: Optional[str] = None) -> CRQ:
    """1 - q, with a fresh own symbol linked to 1 minus q's symbol.

    Negating a plain conditional event A|H yields the conditional event
    ¬A|H, preserving the shape so that it can seed further constructions:
    its regions ¬A·H, AH and ¬H are those of A|H, reordered.
    """
    name = symbol if symbol is not None else f"not({q.own_symbol})"
    links = _merge_links(q.links, ((name, ONE - Poly.sym(q.own_symbol)),))
    shape = q.shape
    if isinstance(shape, ConditionalEventShape):
        ah, not_ah, not_h = _conditional_regions(q)
        rows = [(not_ah, ONE), (ah, ZERO), (not_h, Poly.sym(name))]
        shape = ConditionalEventShape(~shape.consequent, shape.condition)
    else:
        rows = [(region, ONE - poly) for region, poly in _table(q)]
        shape = NegationShape(q)
    return CRQ(rows, name, q.registry, shape, links)


def conjunction(left: CRQ, right: CRQ, symbol: str) -> CRQ:
    """(A|H) ∧ (B|K): pays 1 on AHBK, x on ¬H·BK, y on AH·¬K, its own
    prevision on ¬H·¬K, and 0 elsewhere."""
    ah, _, not_h = _conditional_regions(left)
    bk, _, not_k = _conditional_regions(right)
    reg = _shared_registry(left, right)
    rows = [
        (_meet(ah, bk), ONE),
        (_meet(not_h, bk), Poly.sym(left.own_symbol)),
        (_meet(ah, not_k), Poly.sym(right.own_symbol)),
        (_meet(not_h, not_k), Poly.sym(symbol)),
    ]
    paid = reduce(_join, [region for region, _ in rows])
    rows.append((_complement(paid, reg), ZERO))
    links = _merge_links(left.links, right.links)
    return CRQ(rows, symbol, reg, ConjunctionShape(left, right), links)


def iterated(inner: CRQ, outer: CRQ, symbol: str, conjunction_symbol: str) -> CRQ:
    """(B|K)|(A|H) for conditional events inner = A|H and outer = B|K.

    The quantity equals the conjunction (A|H) ∧ (B|K) plus its own
    prevision times ¬A|H, which spells out as the seven-region table
    below, each region the meet of one of AH, ¬A·H, ¬H with one of BK,
    ¬B·K, ¬K, or ¬A·H itself; `conjunction_symbol` names the prevision of
    the conjunction, which appears in the ¬H·¬K payoff.
    """
    ah, not_ah, not_h = _conditional_regions(inner)
    bk, not_bk, not_k = _conditional_regions(outer)
    reg = _shared_registry(inner, outer)
    x = Poly.sym(inner.own_symbol)
    mu = Poly.sym(symbol)
    hedge = mu * (ONE - x)
    rows = [
        (_meet(ah, bk), ONE),
        (_meet(ah, not_bk), ZERO),
        (_meet(ah, not_k), Poly.sym(outer.own_symbol)),
        (not_ah, mu),
        (_meet(not_h, bk), x + hedge),
        (_meet(not_h, not_bk), hedge),
        (_meet(not_h, not_k), Poly.sym(conjunction_symbol) + hedge),
    ]
    links = _merge_links(inner.links, outer.links)
    return CRQ(rows, symbol, reg, IteratedShape(inner, outer), links)


def iterated_simple(inner: CRQ, consequent: Event, symbol: str) -> CRQ:
    """C|(A|H) for a conditional event inner = A|H and plain event C."""
    ah, not_ah, not_h = _conditional_regions(inner)
    reg = _registry_for(consequent, registry=inner.registry)
    c = (consequent, consequent.mask(reg))
    not_c = _complement(c, reg)
    x = Poly.sym(inner.own_symbol)
    y = Poly.sym(symbol)
    hedge = y * (ONE - x)
    rows = [
        (_meet(ah, c), ONE),
        (_meet(ah, not_c), ZERO),
        (not_ah, y),
        (_meet(not_h, c), x + hedge),
        (_meet(not_h, not_c), hedge),
    ]
    return CRQ(rows, symbol, reg, IteratedEventShape(inner, consequent), inner.links)


def given_event(q: CRQ, condition: Event, symbol: str) -> CRQ:
    """(X|H)|K: condition an existing quantity on a further event K."""
    reg = _registry_for(condition, registry=q.registry)
    k = (condition, _condition_mask(condition, reg))
    rows = [(_meet(region, k), poly) for region, poly in _table(q)]
    rows.append((_complement(k, reg), Poly.sym(symbol)))
    return CRQ(rows, symbol, reg, NestedEventShape(q, condition), q.links)


def add(left: CRQ, right: CRQ, symbol: Optional[str] = None) -> CRQ:
    """Pointwise sum; its prevision is linked to the sum of previsions."""
    reg = _shared_registry(left, right, "summands")
    name = symbol if symbol is not None else f"({left.own_symbol}+{right.own_symbol})"
    rows = []
    for r1, p1 in _table(left):
        for r2, p2 in _table(right):
            if r1[1] & r2[1]:
                rows.append((_meet(r1, r2), p1 + p2))
    link = (name, Poly.sym(left.own_symbol) + Poly.sym(right.own_symbol))
    links = _merge_links(left.links, right.links) + (link,)
    return CRQ(rows, name, reg, SumShape(left, right), links)


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


def _conditional_regions(q: CRQ) -> list[Region]:
    """The regions AH, ¬A·H and ¬H of a plain conditional event A|H."""
    if not isinstance(q.shape, ConditionalEventShape):
        raise PreconditionFailed(
            "expected a plain conditional event A|H, got " + q.describe()
        )
    return [region for region, _ in _table(q)]


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
    its own prevision symbol: on every row that does not name that symbol,
    and on those rows that name it where the substitution leaves more.

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
        name = q.own_symbol
        at_zero, at_one = {**valuation, name: 0}, {**valuation, name: 1}
        mask = 0
        for region, (_, poly) in zip(q.masks, q.rows):
            if not poly.degree_in(name) or not _pays_own_prevision(poly, name, at_zero, at_one):
                mask |= region
        return mask
    raise PreconditionFailed(f"unknown shape {type(shape).__name__}")


def _pays_own_prevision(poly: Poly, name: str, at_zero: Valuation, at_one: Valuation) -> bool:
    """Whether `poly`, with every other symbol that a valuation assigns
    substituted, is the symbol `name` itself; `at_zero` and `at_one` are
    that valuation with `name` set to 0 and to 1.  When `poly` is affine in
    `name` and every other symbol is assigned, it is a + b*name with a its
    value at name = 0 and a + b at name = 1, so it is `name` exactly when
    those values are 0 and 1; otherwise the substitution decides."""
    if poly.degree_in(name) == 1:
        value = poly.ratio(at_zero)
        if value is not None:
            return value == (0, 1) and poly.ratio(at_one) == (1, 1)
    others = {sym: value for sym, value in at_zero.items() if sym != name}
    return poly.substitute(others) == Poly.sym(name)


def _inner_prevision(inner: CRQ, valuation: Valuation) -> Rational:
    name = inner.own_symbol
    if name not in valuation:
        raise MissingSymbol(
            f"inner prevision {name} must be assessed or derivable to "
            "determine the called-off set of an iterated conditional"
        )
    return valuation[name]


def payoff_at(q: CRQ, c: Constituent, valuation: Valuation) -> Fraction:
    """Exact payoff of the quantity at one world under a full valuation."""
    return q.payoff_poly(c).value(valuation)
