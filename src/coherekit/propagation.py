"""Propagation of prevision bounds from premises to a conclusion.

Two closed forms are implemented directly: the product rule
P[(B|K) ∧ (A|H)] = P[(B|K)|(A|H)] · P(A|H) forced by coherence, and the
nested modus ponens bounds [x·y, x·y + 1 - x] for the conclusion P(C)
from premises P(A|H) = x and P(C|(A|H)) = y.  The closed forms are never
substituted for the generic computation, so each can audit the other.

The generic path computes the set of coherent extensions of a coherent
premise assessment to a new target quantity T.  When T's payoff is
a + b·z in its own symbol z, with 0 <= b < 1 wherever its bet stands,
and z appears nowhere in the premises, T's row of the hull system reads
N(y) = z·D(y) with N and D linear in the world weights y.  Each endpoint
is then the optimum of a linear-fractional program over the hull,
which the Charnes-Cooper transformation (Naval Res. Logist. Q. 9, 1962)
turns into one exact LP: minimise or maximise N subject to the
homogeneous premise rows and D = 1.  When the premises can put all their
weight off T's support, T may keep weight zero, and the level step of
Biazzo & Gilio (IJAR 24, 2000), the one of `coherence` on the worlds off
T's support, repeats the LPs on the premises that one solution there
leaves at weight zero.
The two endpoint LPs share their rows, so they are one system: one
phase 1, then min N, then max N from the minimum's basis.  Both optima
are re-checked exactly with their LP multipliers (primal and dual
feasibility, equal objectives).  Their solutions are also solutions of
the premises' own hull system once restricted to the premises' live
worlds, so when no premise was dropped and together they weight every
premise, they prove the premises coherent at level 0 of Biazzo &
Gilio's algorithm, and the premises need no check of their own; in
every other case `check_coherence` decides them.

Targets outside that shape take the exact rational bisection search
against the coherence oracle, which then certifies candidate exact
endpoints: chiefly a target whose symbol sits in a premise's own
payoffs, such as the conjunction that (B|K)|(A|H) names, where the hull
system is bilinear in the weights and z; the search stays until that
case has a nonlinear treatment.  The oracle decides
premises + (target = value) by the decision of `check_coherence` on the
combined family, with no cap check of its own: the levels, and when
they fail or an unassessed symbol stops them, the subset loop over every
subfamily, which makes the value incoherent when one of them fails and
raises only when none fails and one cannot be decided.  The search relies
on the coherent extensions forming an interval; an endpoint that no
candidate certifies keeps a `bisection(2^-k)` tag, and a search that
finds no coherent probe raises instead of returning a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import or_
from typing import Optional, Sequence

from .coherence import (
    Assessment,
    _bits,
    _check_cap,
    _decide,
    _pieces,
    _unreleased,
    check_coherence,
    family_cap,
)
from .crq import (
    CRQ,
    add,
    conditional_event,
    conjunction,
    iterated_simple,
    negate,
    payoff_at,
    support,
)
from .errors import (
    ExtensionSearchFailed,
    IncoherentPremises,
    InternalError,
    MissingSymbol,
    OutOfRange,
    PreconditionFailed,
)
from .events import TRUE, AtomRegistry, Event, is_impossible
from .linprog import certified_minimum
from .polynomials import Rational

DEFAULT_TOLERANCE_EXPONENT = 20
# Bisection to 2^-K runs K steps on ever longer rationals: K is held to this.
MAX_TOLERANCE_EXPONENT = 256


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

    When the target is linear in its own symbol z (see `_linear_target`),
    each endpoint is the optimum of a Charnes-Cooper LP over the hull of
    the combined family's worlds, after the level step of `coherence` has
    dropped the premises that can hold all the weight off the target's
    support.  Both LPs share one system, with one phase 1; both optima
    are re-checked exactly with their LP multipliers, and the interval is
    `certified-by-LP`.  The premises' coherence is read off those two
    certified solutions when they give weight to every premise (see
    `_lp_interval`); otherwise `check_coherence` decides it, as it does
    when the system has no solution.  For other targets, such as the
    conjunction that the premise (B|K)|(A|H) names in its own payoffs (z
    inside a premise row makes the hull system bilinear in the weights
    and z), `check_coherence` runs first; the endpoints are then located
    by bisection to 2^-tolerance_exponent with the coherence oracle and
    snapped to exact candidates that pass certification: the endpoint is
    coherent and one tolerance step outside it is not.  A search endpoint
    that no candidate certifies is coherent, within the tolerance of the
    true bound, and the interval is tagged `bisection(2^-k)`.  A
    `tolerance_exponent` that is not an int, or lies outside 0..256,
    raises `OutOfRange` before anything else, whichever path the target
    takes.

    The premises and the combined family are both held to `cap` (by
    default COHERE_SUBSET_CAP): the premises first, then the combined
    family, once the premises are known coherent, so that incoherent
    premises at the cap raise `IncoherentPremises`, not `CapExceeded`.
    The endpoint system runs only when the combined family is within the
    cap, and no oracle call runs before both checks.
    """
    if not isinstance(tolerance_exponent, int):
        raise OutOfRange(
            f"tolerance exponent {tolerance_exponent!r} is not an integer in "
            f"0..{MAX_TOLERANCE_EXPONENT}"
        )
    if not 0 <= tolerance_exponent <= MAX_TOLERANCE_EXPONENT:
        raise OutOfRange(
            f"tolerance exponent {tolerance_exponent} lies outside 0..{MAX_TOLERANCE_EXPONENT}"
        )
    _check_cap(len(premises), cap)
    linear = _linear_target(premises, target) if len(premises) < family_cap(cap) else None
    if linear is not None:
        interval, released = _lp_interval(premises, *linear)
        if released == (1 << len(premises)) - 1:
            return interval
    if not check_coherence(premises, cap=cap).coherent:
        raise IncoherentPremises("the premise assessment is not coherent")
    if linear is None:
        _check_cap(len(premises) + 1, cap)
        return _search_interval(premises, target, tolerance_exponent)
    if interval is None:
        raise InternalError("the extension LP has no solution, yet the premises are coherent")
    return interval


def _linear_target(
    premises: Assessment, target: CRQ
) -> Optional[tuple[list[tuple[int, tuple[Fraction, Fraction]]], int]]:
    """The target's payoff a + b*z on each region of the worlds where it
    stands, the live worlds of one payoff row, as the region's mask and
    the pair (a, b), and the mask of those worlds, when the LP path covers
    the target; None otherwise.

    Covered: the target's own symbol z occurs in no premise row, link or
    valuation, neither the premises nor the target's rows leave an
    unassessed symbol, the target's links agree with the premises', and
    every live row has 0 <= b < 1, so that its weight in a hull solution
    is positive exactly when the denominator sum(weight * (1 - b)) is."""
    z = target.own_symbol
    if (
        target.registry is not premises.registry
        or premises.free_symbols
        or z in premises.valuation
        or z in premises.named_symbols
    ):
        return None
    links = premises.links
    if any(links.get(name, poly) != poly for name, poly in target.links):
        return None
    try:
        live = support(target, premises.valuation)
    except MissingSymbol:
        return None
    # A live row qualifies when its terms, once the premises' values are
    # substituted, are a constant a and a multiple b*z at most.
    linear = {(), ((z, 1),)}
    payoffs = []
    for mask, (_, poly) in zip(target.masks, target.rows):
        region = mask & live
        if not region:
            continue
        terms = poly.terms
        if not terms.keys() <= linear:
            terms = poly.substitute(premises.valuation).terms
            if not terms.keys() <= linear:
                return None
        a = terms.get((), 0)
        b = terms.get(((z, 1),), 0)
        if not 0 <= b < 1:
            return None
        payoffs.append((region, (a, b)))
    return (payoffs, live) if payoffs else None


def _lp_interval(
    premises: Assessment,
    payoffs: Sequence[tuple[int, tuple[Fraction, Fraction]]],
    target_live: int,
) -> tuple[Optional[ExtensionInterval], int]:
    """Both endpoints for a target with the given live payoffs a + b*z on
    the regions that partition the mask `target_live`, and the mask of
    the premises that the endpoints' solutions release; (None, 0) when
    the system has no solution, which coherent premises rule out.

    In a hull solution y of the combined family the target's row reads
    N(y) = z * D(y) with N = sum(y * a) and D = sum(y * (1 - b)), where a
    called-off world has a = 0 and b = 1.  If every solution of the
    premises' rows gives the target weight, D > 0 and, scaled to D = 1
    (Charnes & Cooper 1962), the coherent values are min N to max N over
    y >= 0, the homogeneous premise rows sum(y * (v_i - p_i)) = 0 and
    D = 1; the members left at weight zero by such a solution are
    premises alone, which are coherent.  If some solution puts all weight
    off the target's support, it solves the combined level-0 system for
    every value z, with the target at weight zero, and the values are
    those of the next level (Biazzo & Gilio 2000): the premises that
    stand at no world that one such solution weights, plus the target.
    Any one solution will do, since the levels decide coherence whichever
    solution each takes (`coherence`), so the coherent z are those of
    that zero set plus the target, whichever solution gave it.  That
    level's values contain this one's, since its family is a subfamily,
    and it has fewer premises, so the loop ends; with no premise left,
    D = 1 is feasible when the premises are coherent.

    Both objectives, min N and then max N from the minimum's basis, share
    one phase 1.  When no premise was dropped, the sum of the two
    solutions, restricted to the worlds where some premise stands and
    normalised, solves the premises' level-0 hull system (a world where
    none stands deviates by 0 in every premise row), and it releases
    every premise that stands at a world of a weighted column; columns
    merge equal worlds, which can trade weight.  If that is every
    premise, Gilio's algorithm stops at level 0: the premises are
    coherent."""
    members = (1 << len(premises)) - 1
    while members:
        zero = _unreleased(premises, members, target_live)
        if zero is None or zero == members:
            break
        members = zero
    # The premises leave no free symbol, so every cell is an int; premise
    # j's row and prevision are scaled by its denominator D_j, which
    # scales its row of the system and leaves the optima as they are.
    indices = tuple(_bits(members))
    previsions = [premises.scaled_previsions[j] for j in indices]
    # Scaled by the common denominator D_T of the target's payoffs, the
    # row D = 1 reads sum(y * D_T·(1 - b)) = D_T and the costs are D_T·a,
    # all ints, so the optima are D_T times the endpoints.  A world where
    # the target is called off has a = 0 and b = 1, so (0, 0).
    scale = lcm(*(v.denominator for _, pair in payoffs for v in pair))
    regions = (premises.registry.full_mask() & ~target_live, *(region for region, _ in payoffs))
    target_cells = ((0, 0),) + tuple(
        (a.numerator * (scale // a.denominator), scale - b.numerator * (scale // b.denominator))
        for _, (a, b) in payoffs
    )
    worlds = reduce(or_, (premises.live_masks[j] for j in indices), target_live)
    # One column per piece of the premises' and the target's regions;
    # columns merge by value, and each keeps the premises live at its
    # worlds.
    columns: dict[tuple, int] = {}
    for _, cells, live in _pieces(premises, indices, worlds, [(regions, target_cells)]):
        deviations = tuple(cell - prevision for cell, prevision in zip(cells, previsions))
        column = (deviations, *cells[-1])
        columns[column] = columns.get(column, 0) | live
    matrix = [[deviations[i] for deviations, _, _ in columns] for i in range(len(indices))]
    matrix.append([denominator for _, _, denominator in columns])
    rhs = [0] * len(indices) + [scale]
    costs = [a for _, a, _ in columns]
    certified = certified_minimum(matrix, rhs, costs, further=[[-a for a in costs]])
    if certified is None:
        return None, 0
    (lower, _, (least, _)), (upper, _, (most, _)) = certified
    released = 0
    for live, low, high in zip(columns.values(), least, most):
        if low or high:
            released |= live
    return ExtensionInterval(lower / scale, -upper / scale, "certified-by-LP"), released


def _search_interval(
    premises: Assessment, target: CRQ, tolerance_exponent: int
) -> ExtensionInterval:
    """Bisection against the coherence oracle, then endpoint snapping to
    exact candidates (see `extension_interval`)."""
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
    """Coherence of premises + (target = value), decided as
    `check_coherence` decides the combined family, with the cap left to
    `extension_interval`.  When its rows leave an unassessed symbol that
    stops the levels, the subset loop decides over every subfamily: a
    premise row that names the target's symbol pays its value once it is
    assessed, so a subfamily of premises alone can fail although the
    premises are coherent."""
    combined = Assessment(tuple(premises.items) + ((target, value),))
    return _decide(combined).coherent


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
