"""Propagation of prevision bounds from premises to a conclusion.

Two closed forms are implemented directly: the product rule
P[(B|K) ∧ (A|H)] = P[(B|K)|(A|H)] · P(A|H) forced by coherence, and the
nested modus ponens bounds [x·y, x·y + 1 - x] for the conclusion P(C)
from premises P(A|H) = x and P(C|(A|H)) = y.  The generic path computes
the set of coherent extensions of any premise assessment to a new target
quantity by exact rational bisection against the coherence oracle, then
certifies candidate exact endpoints.  The oracle decides premises +
(target = value) with the level algorithm of `coherence` on the combined
family, usually with one hull LP; when an unassessed symbol stops the
levels, the subset loop over the subfamilies that contain the target
decides, so the oracle answers or raises exactly as that loop would.
The closed forms are never substituted for the generic computation, so
each can audit the other.

The generic sweep relies on coherent extensions forming an interval; for
the families treated here that holds (the auxiliary prevision
t = P[C|(¬A|H)] sweeping the interval in the nested case is recovered
implicitly).  Should it ever fail, endpoint certification fails and an
error is raised instead of returning a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .coherence import (
    Assessment,
    _first_failure,
    _levels,
    check_coherence,
    family_cap,
    subsets_by_size,
)
from .crq import (
    CRQ,
    add,
    conditional_event,
    conjunction,
    iterated_simple,
    negate,
    payoff_at,
)
from .errors import (
    CapExceeded,
    ExtensionSearchFailed,
    IncoherentPremises,
    MissingSymbol,
    OutOfRange,
    PreconditionFailed,
)
from .events import TRUE, AtomRegistry, Event, is_impossible
from .polynomials import Rational

DEFAULT_TOLERANCE_EXPONENT = 20


@dataclass(frozen=True)
class ExtensionInterval:
    """Closed interval [lower, upper] of coherent extension values."""

    lower: Fraction
    upper: Fraction
    exactness: str

    def __contains__(self, value: Rational) -> bool:
        return self.lower <= Fraction(value) <= self.upper

    def as_tuple(self) -> tuple[Fraction, Fraction]:
        return (self.lower, self.upper)


def _check_unit(name: str, value: Fraction) -> Fraction:
    value = Fraction(value)
    if not 0 <= value <= 1:
        raise OutOfRange(f"{name} = {value} lies outside [0, 1]")
    return value


def mp_bounds(x: Rational, y: Rational) -> ExtensionInterval:
    """Bounds on the conclusion P(C) from P(A|H) = x and P(C|(A|H)) = y.

    The conclusion is coherent exactly on [x*y, x*y + 1 - x]; the same
    bounds govern the plain rule (H the sure event)."""
    xv = _check_unit("x", x)
    yv = _check_unit("y", y)
    return ExtensionInterval(xv * yv, xv * yv + 1 - xv, "closed-form")


def product_prevision(x: Rational, mu: Rational) -> Fraction:
    """The only coherent prevision for (B|K) ∧ (A|H) given P(A|H) = x and
    P[(B|K)|(A|H)] = mu."""
    xv = _check_unit("x", x)
    mv = _check_unit("mu", mu)
    return mv * xv


def mp_family(
    x: Rational, y: Rational, *, classical: bool = False
) -> tuple[Assessment, CRQ]:
    """Premises {A|H = x, C|(A|H) = y} over independent atoms, plus the
    conclusion quantity C; `classical` replaces H by the sure event."""
    registry = AtomRegistry(["A", "C", "H"])
    a, c = registry.atom("A"), registry.atom("C")
    h = TRUE if classical else registry.atom("H")
    ce_a = conditional_event(a, h, "x", registry=registry)
    premise = iterated_simple(ce_a, c, "y")
    target = conditional_event(c, TRUE, "z", registry=registry)
    premises = Assessment([(ce_a, Fraction(x)), (premise, Fraction(y))])
    return premises, target


def extension_interval(
    premises: Assessment,
    target: CRQ,
    *,
    tolerance_exponent: int = DEFAULT_TOLERANCE_EXPONENT,
    cap: Optional[int] = None,
) -> ExtensionInterval:
    """The interval of values v such that premises + (target = v) stays
    coherent.

    Both endpoints are located by bisection with the exact coherence
    oracle and then snapped to exact candidates (closed-form values and
    premise combinations) when a candidate passes certification: the
    endpoint itself is coherent and stepping one tolerance outside the
    interval is not.  Certified endpoints are exact; otherwise the
    endpoint carries a `bisection(2^-k)` tag and is coherent, within
    2^-k of the true bound.
    """
    if not check_coherence(premises, cap=cap).coherent:
        raise IncoherentPremises("the premise assessment is not coherent")
    limit = family_cap(cap)
    if len(premises) + 1 > limit:
        raise CapExceeded(
            f"family of size {len(premises) + 1} exceeds the cap of {limit}"
        )
    tol = Fraction(1, 2**tolerance_exponent)

    def oracle(value: Fraction) -> bool:
        return _coherent_with_target(premises, target, value)

    candidates = _endpoint_candidates(premises, target)
    seed = _find_coherent_seed(oracle, candidates)

    if oracle(Fraction(0)):
        lower = Fraction(0)
        lower_exact = "certified-by-LP"
    else:
        lo, hi = _bisect_down(oracle, Fraction(0), seed, tol)
        lower, lower_exact = _snap(oracle, candidates, lo, hi, tol, pick_low=True)
    if oracle(Fraction(1)):
        upper = Fraction(1)
        upper_exact = "certified-by-LP"
    else:
        lo, hi = _bisect_up(oracle, seed, Fraction(1), tol)
        upper, upper_exact = _snap(oracle, candidates, lo, hi, tol, pick_low=False)
    if lower > upper:  # pragma: no cover - would contradict the seed
        raise ExtensionSearchFailed("located endpoints crossed")
    exactness = (
        "certified-by-LP"
        if lower_exact == upper_exact == "certified-by-LP"
        else f"bisection(2^-{tolerance_exponent})"
    )
    return ExtensionInterval(lower, upper, exactness)


def _coherent_with_target(premises: Assessment, target: CRQ, value: Fraction) -> bool:
    """Coherence of premises + (target = value), decided by the levels of
    the combined family.  When its rows leave an unassessed symbol that
    cannot be eliminated, the subset loop decides instead, over the
    subfamilies that contain the target (the premises are coherent), and
    raises `MissingSymbol` only where it reaches such a subfamily."""
    combined = Assessment(tuple(premises.items) + ((target, value),))
    try:
        return _levels(combined) is not None
    except MissingSymbol:
        anchor = len(premises)
        subsets = (s for s in subsets_by_size(len(combined)) if anchor in s)
        return _first_failure(combined, subsets) is None


def _endpoint_candidates(premises: Assessment, target: CRQ) -> list[Fraction]:
    values = [value for _, value in premises.items]
    candidates = {Fraction(0), Fraction(1), Fraction(1, 2)}
    candidates.update(values)
    for a in values:
        for b in values:
            candidates.add(a * b)
            candidates.add(a * b + 1 - a)
    return sorted(v for v in candidates if 0 <= v <= 1)


def _find_coherent_seed(oracle, candidates: Sequence[Fraction]) -> Fraction:
    tried = set()
    for value in candidates:
        tried.add(value)
        if oracle(value):
            return value
    for depth in range(1, 7):
        step = Fraction(1, 2**depth)
        for k in range(1, 2**depth, 2):
            value = k * step
            if value not in tried:
                tried.add(value)
                if oracle(value):
                    return value
    raise ExtensionSearchFailed(
        "no coherent extension found among candidate and dyadic probes"
    )


def _bisect_down(oracle, lo: Fraction, hi: Fraction, tol: Fraction):
    """Shrink (lo, hi] with oracle(lo) false, oracle(hi) true."""
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if oracle(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _bisect_up(oracle, lo: Fraction, hi: Fraction, tol: Fraction):
    """Shrink [lo, hi) with oracle(lo) true, oracle(hi) false."""
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if oracle(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _snap(oracle, candidates, lo: Fraction, hi: Fraction, tol: Fraction, *, pick_low: bool):
    """Prefer an exact candidate endpoint inside the final bracket.

    For the lower endpoint the bracket is (lo, hi] and a candidate c is
    certified when it is coherent while c - tol is not (or lies outside
    [0, 1]); mirrored for the upper endpoint.  Without a certified
    candidate, the coherent bracket edge is returned."""
    if pick_low:
        inside = sorted(c for c in candidates if lo < c <= hi)
    else:
        inside = sorted((c for c in candidates if lo <= c < hi), reverse=True)
    for candidate in inside:
        if not oracle(candidate):
            continue
        outside = candidate - tol if pick_low else candidate + tol
        if not 0 <= outside <= 1 or not oracle(outside):
            return candidate, "certified-by-LP"
    return (hi if pick_low else lo), "bisection"


def verify_decomposition(
    a_event: Event,
    b_event: Event,
    h_event: Event,
    k_event: Event,
    x: Rational,
    y: Rational,
    z1: Rational,
    z2: Rational,
    *,
    registry: Optional[AtomRegistry] = None,
) -> bool:
    """Pointwise test of B|K = (A|H) ∧ (B|K) + (¬A|H) ∧ (B|K).

    Holds at every possible world exactly when z1 + z2 = y (the split
    previsions of the two conjunctions recombine to the prevision of
    B|K); logical relations among the events are allowed as long as both
    conditioning events are possible."""
    reg = registry
    for e in (a_event, b_event, h_event, k_event):
        reg = reg or e.registry()
    if reg is None:
        raise PreconditionFailed("cannot infer a registry from constant events")
    for name, e in (("H", h_event), ("K", k_event)):
        if is_impossible(e, reg):
            raise PreconditionFailed(f"conditioning event {name} is impossible")
    ce_a = conditional_event(a_event, h_event, "x", registry=reg)
    ce_na = negate(ce_a, "xn")
    ce_b = conditional_event(b_event, k_event, "y", registry=reg)
    left = add(
        conjunction(ce_a, ce_b, "z1"), conjunction(ce_na, ce_b, "z2"), "sum"
    )
    valuation = {
        "x": Fraction(x),
        "xn": 1 - Fraction(x),
        "y": Fraction(y),
        "z1": Fraction(z1),
        "z2": Fraction(z2),
        "sum": Fraction(z1) + Fraction(z2),
    }
    return all(
        payoff_at(left, c, valuation) == payoff_at(ce_b, c, valuation)
        for c in reg.constituents()
    )
