"""Coherence checking for prevision assessments on conditional random
quantities.

An assessment attaches an exact rational prevision to each quantity of a
finite family.  It is coherent when, for every nonempty subfamily, the
vector of assessed previsions lies in the convex hull of the payoff
points generated by the possible worlds where at least one bet of the
subfamily stands (the all-subfamilies characterization).  At a world
where a bet is called off its coordinate is its own prevision.

An `Assessment` builds its payoffs once, from the payoff rows of its
members: each row's polynomial is evaluated once (substituted when an
unassessed symbol is left) and holds on the member's live worlds in the
row's region, held as an int bitmask over the worlds.  The payoffs are
integer: member i's times one common denominator D_i.  No column is kept
per world.  A subfamily's points are read off its pieces: the
intersections of its members' regions, on each of which every member
pays one cell (`_pieces`).  One point per piece, pieces ordered by their
lowest worlds, meets each point first where it first occurs world by
world, so the hull systems see the points, deduplicated as int tuples,
in the order of a projection onto the members at the union of their live
worlds.  They enter the simplex as integer rows, with target D_i·p_i,
which scales row i of the hull system and leaves its solutions as they
are.  Only the stake LP spreads the points over their worlds again, as
integer deviations (`_world_entries`).

`check_coherence` decides this with Gilio's level algorithm (Biazzo &
Gilio, IJAR 24, 2000; Gilio & Sanfilippo, Studia Logica 102, 2014).
Level 0 takes one solution of the hull system of the whole family and
releases every member that stands at a world the solution weights; level
k + 1 solves the system of the members left at zero.  That step is one
function, `_unreleased`, on a member mask; the extension LP of
`propagation` runs it too, on the worlds off its target's support.  A
step solves its hull system factor by factor (`_factors`), the unsplit
system being one factor.  It splits when the input allows it: no
member's payoff holds an unassessed symbol, the step's worlds W are all
combinations of the atoms that vary on them, the members fall into
groups that depend on disjoint sets of those atoms, and two or more
groups each stand, by some member, at every world of W (a group that
does not is merged into the first that does).  Over W the payoff points,
with the members live at each, are then the Cartesian product of the
groups' own, and conv(P × Q) = conv(P) × conv(Q), so each group is
solved on its own: no solution when one group has none, else the union
of the groups' zero masks.
The decision, levels first and the subset loop for a witness, is `_decide`,
which `check_coherence` runs after its cap check and the extension
oracle runs on premises plus target.  The family is
coherent when every level is solvable and no member, or no live world,
is left.  This is the all-subfamilies test, whichever solution each
level takes: a level-k solution giving weight to a member of a
subfamily S of the level, restricted to S's worlds and renormalised, is
a hull witness for S, because at the other worlds every coordinate of S
is called off and deviates from its prevision by 0; every other
subfamily of the level lies in that solution's zero set, the next level;
and a coherent family solves each level, one of its subfamilies.  Each
solution weights some live world, so it releases a member: at most n
levels give the verdict.  The subset loop `_first_failure` runs only to
name an incoherent family's smallest failing subfamily as its witness.
When the whole family's level-0 system splits, it visits only the
subfamilies inside one factor, a subsequence of the sweep by size: a
subfamily that straddles factors fails only if one of its parts does
(`_witness_candidates`), so the least failing subfamilies lie inside
factors.  The witness is certified by an integer separator of its
integer points, re-checked on them and mapped back to the payoffs once,
as (s_i·D_i, t) divided by the gcd of its entries.  Only a subfamily of
three or more members takes an LP for it, whose Farkas numerators are
the separator.  A subfamily of one member needs no LP, in a level or in
the subset loop: the hull of scalars is the interval between the least
and the greatest, and a prevision outside it is separated at the nearer
end.  Nor does a subfamily of two in the subset loop: the hull of its
points is a polygon, a segment or a point of the plane, built by
Andrew's monotone chain on integers, and a prevision outside it is
separated by the outward normal of an edge it lies beyond, or, on the
line of a segment or a point, by the direction from the end it lies
beyond.  A sure-win
stake vector over a subfamily's live worlds exists exactly when its hull
membership fails (a point outside the hull of finitely many points is
strictly separable from them), so `find_dutch_book` places its stakes
on that witness.

Symbols appearing in payoffs but assessed nowhere (for instance the
prevision of B|K inside the table of (B|K)|(A|H) when B|K itself is not
part of the family) are treated as unknown previsions ranging over [0,1]
and eliminated exactly: each one may appear in only a single distinct
payoff row of a subfamily, affinely, in which case replacing that moving
row by its endpoint rows is an exact reformulation of the hull test.
When the rows of a level break that rule, the subset loop decides: it
skips the subfamilies whose rows break it, names the first of the others
that fails as the witness, and raises `MissingSymbol` only when none
fails.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, lcm
from operator import itemgetter, or_
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .crq import CRQ, support
from .linprog import best_uniform_gain, check_separator, convex_combination
from .errors import CapExceeded, InternalError, MissingSymbol, PreconditionFailed
from .events import AtomRegistry
from .polynomials import Poly, Rational

DEFAULT_FAMILY_CAP = 12
_CORNER_LIMIT = 3  # unknown symbols allowed per payoff row

# A payoff cell in integer form: an exact value times its member's
# denominator, or a polynomial in unassessed symbols.
Cell = Union[int, Poly]


def family_cap(override: Optional[int] = None) -> int:
    """Configured family-size cap; COHERE_SUBSET_CAP, a positive integer,
    overrides the default, and `override`, also a positive integer, both."""
    if override is not None:
        name, text, cap = "cap", override, override
    else:
        name = "COHERE_SUBSET_CAP"
        text = os.environ.get(name, str(DEFAULT_FAMILY_CAP))
        try:
            cap = int(text)
        except ValueError:
            cap = 0
    if cap < 1:
        raise PreconditionFailed(f"{name} must be a positive integer, got {text!r}")
    return cap


class Assessment:
    """An ordered family of quantities with exact assessed previsions.

    The valuation maps every determinable symbol to its value: each
    quantity's own symbol gets its assessed prevision, and linked symbols
    (negations, sums) are solved for in both directions.  Symbols left
    over are the free ones handled by exact elimination.  `links` holds
    each linked symbol's definition.  `named_symbols`, every symbol a row
    or link names, which `propagation` tests a target's symbol against,
    and `free_symbols`, the row symbols the valuation leaves, are read off
    the rows on first use.

    The payoffs are built once, here, region by region and in integer
    form, with no column per world: member i has one common denominator
    `scales[i]` = D_i, the lcm of the denominators of its prevision, of
    its constant payoffs and of the coefficients of its polynomial
    payoffs.  Sets of worlds and of members are int bitmasks:
    `live_masks[i]` has bit k set when member i's bet stands at world k
    (its `support`).  `cell_regions[i]` partitions the worlds into member
    i's called-off worlds, then the live worlds of each payoff row that
    has some, and `region_cells[i]` holds the payoff on each part: first
    `scaled_previsions[i]`, D_i times the prevision, where the bet is
    called off, then D_i times the row's payoff with the valuation
    substituted, an int, or the `Poly` itself when unassessed symbols
    remain (scaled once a corner substitutes its symbols; `symbolic[i]`
    masks those worlds).  A payoff row is read once: its region is the
    member's kept row mask (`CRQ.masks`), and its value the polynomial's
    direct evaluation as a numerator and denominator in lowest terms
    (`Poly.ratio`), scaled with integer lcm and division, with
    substitution only when a symbol is left.  Every subfamily's points are
    read off the intersections of its members' regions (`_pieces`).
    """

    def __init__(self, items: Sequence[tuple[CRQ, Rational]]):
        if not items:
            raise PreconditionFailed("assessment needs at least one quantity")
        self.items: tuple[tuple[CRQ, Fraction], ...] = tuple(
            (crq, value if type(value) is Fraction else Fraction(value)) for crq, value in items
        )
        registry = self.items[0][0].registry
        for crq, _ in self.items:
            if crq.registry is not registry:
                raise PreconditionFailed("family members use different registries")
        links: dict[str, Poly] = {}
        for crq, _ in self.items:
            for name, poly in crq.links:
                if links.setdefault(name, poly) != poly:
                    raise PreconditionFailed(
                        f"conflicting definitions for linked symbol {name}"
                    )
        self.registry: AtomRegistry = registry
        self.links: dict[str, Poly] = links
        valuation = self.valuation = self._derive_valuation()
        # Called-off analysis per member (fails fast when an inner
        # prevision needed by the support rule is not determined).
        self.live_masks: tuple[int, ...] = tuple(support(crq, valuation) for crq, _ in self.items)
        # The worlds are the 2^n bit patterns of the (frozen) registry;
        # none of them is materialised.
        if not registry.size:
            raise PreconditionFailed("registry has no atoms")
        # The payoff cells, built region by region: a payoff row's value is
        # read once and holds on the member's live worlds in its region
        # (the rows partition the worlds); called-off worlds hold the
        # prevision.  A row's integer value is taken once the member's
        # denominator is known.
        scales: list[int] = []
        scaled_previsions: list[int] = []
        symbolic: list[int] = []
        cell_regions: list[tuple[int, ...]] = []
        region_cells: list[tuple[Cell, ...]] = []
        full = registry.full_mask()
        for (crq, value), live in zip(self.items, self.live_masks):
            regions = [full ^ live]
            payoffs: list[Union[tuple[int, int], Poly]] = []
            scale = value.denominator
            polys = 0
            for mask, (_, poly) in zip(crq.masks, crq.rows):
                region = mask & live
                if not region:
                    continue
                payoff = poly.ratio(valuation)
                if payoff is None:
                    reduced = poly.substitute(valuation)
                    if reduced.is_constant():
                        payoff = reduced.ratio(valuation)
                    else:
                        polys |= region
                        scale = lcm(scale, *(c.denominator for c in reduced.terms.values()))
                        payoff = reduced
                if type(payoff) is tuple:
                    scale = lcm(scale, payoff[1])
                regions.append(region)
                payoffs.append(payoff)
            prevision = value.numerator * (scale // value.denominator)
            cells: list[Cell] = [prevision]
            for payoff in payoffs:
                cells.append(_scaled(payoff, scale) if type(payoff) is tuple else payoff)
            scales.append(scale)
            scaled_previsions.append(prevision)
            symbolic.append(polys)
            cell_regions.append(tuple(regions))
            region_cells.append(tuple(cells))
        self.scales: tuple[int, ...] = tuple(scales)
        self.scaled_previsions: tuple[int, ...] = tuple(scaled_previsions)
        self.symbolic: tuple[int, ...] = tuple(symbolic)
        self.cell_regions: tuple[tuple[int, ...], ...] = tuple(cell_regions)
        self.region_cells: tuple[tuple[Cell, ...], ...] = tuple(region_cells)

    @cached_property
    def _row_symbols(self) -> frozenset[str]:
        return frozenset(
            sym
            for crq, _ in self.items
            for _, poly in crq.rows
            for mono in poly.terms
            for sym, _ in mono
        )

    @cached_property
    def named_symbols(self) -> frozenset[str]:
        return self._row_symbols.union(
            self.links, *(poly.symbols() for poly in self.links.values())
        )

    @cached_property
    def free_symbols(self) -> frozenset[str]:
        return self._row_symbols.difference(self.valuation)

    @cached_property
    def _family_factors(self) -> list[tuple[int, ...]]:
        """The independent factors (`_factors`) of the whole family's
        level-0 hull system, found once: `_levels` solves level 0 on them,
        and `_witness_candidates` seeks the witness inside them."""
        return _factors(self, (1 << len(self.items)) - 1, reduce(or_, self.live_masks))

    def _derive_valuation(self) -> dict[str, Fraction]:
        values: dict[str, Fraction] = {}
        for crq, value in self.items:
            values.setdefault(crq.own_symbol, value)
        changed = True
        while changed:
            changed = False
            for name, poly in self.links.items():
                unknowns = poly.symbols() - values.keys()
                if name not in values and not unknowns:
                    values[name] = poly.evaluate(values)
                    changed = True
                elif name in values and len(unknowns) == 1:
                    solved = _solve_affine(poly, values, values[name])
                    if solved is not None:
                        sym, value = solved
                        values[sym] = value
                        changed = True
        return values

    @property
    def previsions(self) -> tuple[Fraction, ...]:
        return tuple(value for _, value in self.items)

    def __len__(self) -> int:
        return len(self.items)


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _solve_affine(
    poly: Poly, values: Mapping[str, Fraction], target: Fraction
) -> Optional[tuple[str, Fraction]]:
    """Solve target = poly for its single unknown symbol if affine."""
    reduced = poly.substitute(values)
    unknowns = reduced.symbols()
    if len(unknowns) != 1:
        return None
    (sym,) = unknowns
    if reduced.degree_in(sym) != 1:
        return None
    constant = Fraction(0)
    slope = Fraction(0)
    for mono, coef in reduced.terms.items():
        if mono == ():
            constant = coef
        elif mono == ((sym, 1),):
            slope = coef
        else:  # pragma: no cover - excluded by the degree check
            return None
    if slope == 0:
        return None
    return sym, (target - constant) / slope


@dataclass(frozen=True)
class DutchBook:
    """A sure-win combination of bets against an incoherent assessment."""

    subset: tuple[int, ...]
    stakes: tuple[Fraction, ...]
    guaranteed_gain: Fraction


Separator = tuple[tuple[Fraction, ...], Fraction]
IntegerSeparator = tuple[tuple[int, ...], int]


@dataclass(frozen=True)
class CoherenceResult:
    """The verdict; when incoherent, the witness subfamily and a separator
    (s, t) of its deduplicated payoff points p: s·p + t <= 0 at each of
    them and s·previsions + t > 0.  Its entries are coprime integers (the
    gcd of all of them is 1), held as `Fraction`s.  The separator is a
    certificate, not part of the verdict, so results compare equal
    without it."""

    coherent: bool
    witness: Optional[tuple[int, ...]] = None
    separator: Optional[Separator] = field(default=None, compare=False)

    def __bool__(self) -> bool:
        return self.coherent


# A piece: a nonempty set of worlds on which every member of a subfamily
# pays one cell, as its world mask, the members' cells in subfamily order,
# and the mask of the members whose bets stand there.
Piece = tuple[int, tuple[Cell, ...], int]

# A payoff point in integer form: the piece it comes from, the point with
# member j's payoff times its denominator D_j, and the endpoint assignment
# of the unknown symbols it was substituted at, or None.
IntegerEntry = tuple[Piece, tuple[int, ...], Optional[tuple[tuple[str, Fraction], ...]]]


def _lowest(piece: Piece) -> int:
    mask = piece[0]
    return mask & -mask


def _pieces(
    assessment: Assessment,
    subset: tuple[int, ...],
    worlds: int,
    extra: Iterable[tuple[tuple[int, ...], tuple]] = (),
) -> list[Piece]:
    """The pieces of `subset` on the mask `worlds`: the members' cell
    regions intersected in turn, then the partitions `extra` (regions and
    their cells, standing for no member), with empty intersections
    dropped, ordered by their lowest worlds.  Read once per piece in that
    order, the points meet each value first where it first occurs world by
    world."""
    partitions = [
        (1 << i, assessment.cell_regions[i], assessment.region_cells[i]) for i in subset
    ]
    partitions.extend((0, regions, cells) for regions, cells in extra)
    pieces: list[Piece] = [(worlds, (), 0)]
    for bit, regions, cells in partitions:
        # The regions that meet the worlds, each with the mask of the
        # members that stand on it: none on the first, the called-off one.
        parts = [
            (region, cell, bit if k else 0)
            for k, (region, cell) in enumerate(zip(regions, cells))
            if region & worlds
        ]
        split: list[Piece] = []
        for mask, vector, live in pieces:
            for region, cell, stands in parts:
                part = mask & region
                if part:
                    split.append((part, vector + (cell,), live | stands))
                    mask ^= part
                    if not mask:
                        break
        pieces = split
    pieces.sort(key=_lowest)
    return pieces


def _subset_entries(
    assessment: Assessment, subset: tuple[int, ...], worlds: int = -1
) -> list[IntegerEntry]:
    """The integer payoff points of `subset`'s members, one per piece
    (`_pieces`) of the worlds of the mask `worlds` (all by default) where
    one of them stands; unknown symbols are guarded and expanded to
    endpoint rows, scaled after substitution, once per piece that holds
    one."""
    live = 0
    symbolic = 0
    for i in subset:
        live |= assessment.live_masks[i]
        symbolic |= assessment.symbolic[i]
    live &= worlds
    pieces = _pieces(assessment, subset, live)
    symbolic &= live
    if not symbolic:
        return [(piece, piece[1], None) for piece in pieces]
    scales = [assessment.scales[i] for i in subset]
    owners: dict[str, tuple[Cell, ...]] = {}
    entries: list[IntegerEntry] = []
    for piece in pieces:
        mask, vec, _ = piece
        if not symbolic & mask:
            entries.append((piece, vec, None))
            continue
        polys = [cell for cell in vec if isinstance(cell, Poly)]
        # Guard the exact elimination of unknown symbols.
        frees = {sym for poly in polys for sym in poly.symbols()}
        names = sorted(frees)
        for sym in names:
            if sym in owners and owners[sym] != vec:
                raise MissingSymbol(
                    f"prevision symbol {sym} is not assessed and appears in "
                    "several distinct payoff rows; it cannot be eliminated"
                )
            owners.setdefault(sym, vec)
        if len(frees) > _CORNER_LIMIT:
            raise MissingSymbol(
                "too many unknown prevision symbols in one payoff row: " + ", ".join(names)
            )
        for poly in polys:
            if not poly.is_affine_in(frees):
                raise MissingSymbol(
                    "payoff is nonlinear in unknown prevision symbol(s) " + ", ".join(names)
                )
        for corner in itertools.product((Fraction(0), Fraction(1)), repeat=len(names)):
            corner_map = dict(zip(names, corner))
            # D_j clears the denominators of the coefficients, and a corner
            # sums some of them, so the value's denominator divides D_j.
            point = tuple(
                _scaled(cell.ratio(corner_map), scale) if isinstance(cell, Poly) else cell
                for cell, scale in zip(vec, scales)
            )
            entries.append((piece, point, tuple(sorted(corner_map.items()))))
    return entries


def _scaled(ratio: tuple[int, int], scale: int) -> int:
    """The value numerator / denominator times `scale`, which the
    denominator divides."""
    numerator, denominator = ratio
    return numerator * (scale // denominator)


def _world_entries(
    entries: Iterable[IntegerEntry],
) -> list[tuple[int, tuple[int, ...], Optional[tuple[tuple[str, Fraction], ...]]]]:
    """`entries` spread over the worlds of their pieces: the world index,
    the point and its corner, in world order, each world's corners in
    their order."""
    spread = [(k, point, corner) for (mask, _, _), point, corner in entries for k in _bits(mask)]
    spread.sort(key=itemgetter(0))
    return spread


def subsets_by_size(n: int) -> Iterator[tuple[int, ...]]:
    """All nonempty index subsets, smallest first, lexicographic within size."""
    for size in range(1, n + 1):
        yield from itertools.combinations(range(n), size)


def _check_cap(size: int, cap: Optional[int]) -> None:
    limit = family_cap(cap)
    if size > limit:
        raise CapExceeded(
            f"family of size {size} exceeds the cap of {limit} "
            "(set COHERE_SUBSET_CAP to raise it)"
        )


def _scalar_separator(
    points: Sequence[tuple[int, ...]], target: tuple[int, ...]
) -> Optional[IntegerSeparator]:
    """The hull of one member's scalar points is the interval from the
    least to the greatest, so no LP is needed.  None when the prevision
    lies in that interval, else the integer separator ((-1,), least)
    below it or ((1,), -greatest) above it."""
    (prevision,) = target
    least = min(value for value, in points)
    greatest = max(value for value, in points)
    if prevision < least:
        return (-1,), least
    if prevision > greatest:
        return (1,), -greatest
    return None


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return u[0] * v[0] + u[1] * v[1]


def _cross(o: Sequence[int], a: Sequence[int], b: Sequence[int]) -> int:
    """(a - o) × (b - o): positive when o, a, b turn counter-clockwise."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(points: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The vertices of the convex hull of integer plane points,
    counter-clockwise with no three collinear, by Andrew's monotone chain
    (A. M. Andrew, Inf. Process. Lett. 9, 1979): one point, or the two ends
    of a segment, when the hull is degenerate."""
    ordered = sorted(set(points))
    if len(ordered) < 3:
        return ordered

    def chain(sweep: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
        kept: list[tuple[int, ...]] = []
        for p in sweep:
            while len(kept) > 1 and _cross(kept[-2], kept[-1], p) <= 0:
                kept.pop()
            kept.append(p)
        return kept

    return chain(ordered)[:-1] + chain(reversed(ordered))[:-1]


def _planar_separator(
    points: Sequence[tuple[int, ...]], target: tuple[int, ...]
) -> Optional[IntegerSeparator]:
    """The hull of two members' points is a polygon, a segment or a point
    of the plane, so no LP is needed.  None when the prevision lies in the
    closed hull, else an integer separator: the outward normal of the
    first hull edge with the target strictly on its outer side, or, for a
    target on the line of a point or a segment, the direction from the
    end it lies beyond, away from the other end, to the target."""
    hull = _hull(points)
    for a, b in zip(hull, hull[1:] + hull[:1]):
        if _cross(a, b, target) < 0:
            normal, anchor = (b[1] - a[1], a[0] - b[0]), a
            break
    else:
        if len(hull) > 2:
            return None
        for end, other in ((hull[0], hull[-1]), (hull[-1], hull[0])):
            direction = (target[0] - end[0], target[1] - end[1])
            if any(direction) and _dot(direction, other) <= _dot(direction, end):
                normal, anchor = direction, end
                break
        else:
            return None
    return normal, -_dot(normal, anchor)


def _first_failure(
    assessment: Assessment, subsets: Iterable[tuple[int, ...]]
) -> Optional[CoherenceResult]:
    """The incoherent result for the first of `subsets` whose previsions
    lie outside the hull of its payoff points, with that hull's separator,
    or None.  Subfamilies whose bets are all called off at every world
    impose no constraint and are skipped.  So are those whose rows leave
    an unassessed symbol that cannot be eliminated, which decide nothing:
    the first one's `MissingSymbol` is raised only when no subfamily
    fails.  The hull test runs on the integer points: one or two members
    by their interval or planar hull, more by the hull LP.  Its integer
    separator (s, t) is re-checked on those points and their target, and
    maps back to the payoffs once, as (s_j·D_j, t) divided by the gcd of
    its entries, since s_j·D_j·(P_j / D_j) = s_j·P_j."""
    undecided: Optional[MissingSymbol] = None
    for subset in subsets:
        try:
            entries = _subset_entries(assessment, subset)
        except MissingSymbol as error:
            undecided = undecided or error
            continue
        if not entries:
            continue
        scales = [assessment.scales[i] for i in subset]
        target = tuple(assessment.scaled_previsions[i] for i in subset)
        points = list(dict.fromkeys(point for _, point, _ in entries))
        if len(subset) == 1:
            separator = _scalar_separator(points, target)
        elif len(subset) == 2:
            separator = _planar_separator(points, target)
        else:
            _, separator = convex_combination(points, target, separate=True)
        if separator is not None:
            check_separator(points, target, separator)
            slopes, offset = separator
            slopes = [s * scale for s, scale in zip(slopes, scales)]
            divisor = gcd(*slopes, offset)
            mapped = (tuple(Fraction(s // divisor) for s in slopes), Fraction(offset // divisor))
            return CoherenceResult(False, subset, mapped)
    if undecided is not None:
        raise undecided
    return None


def _unreleased(
    assessment: Assessment,
    members: int,
    outside: int = 0,
    factors: Optional[list[tuple[int, ...]]] = None,
) -> Optional[int]:
    """One level step: the mask of the members that stand at no weighted
    point of one solution of the hull system of `members` over their live
    worlds outside the mask `outside`, or None when it has none; `members`
    itself when no such world is left.  Any solution will do: Gilio's
    algorithm needs only that each level's solution weights some member of
    every subfamily it does not leave to the next level (module docstring).

    The system is solved factor by factor (`_factors`, or `factors` when
    they are given), the unsplit system being one factor: the step has no
    solution when some factor has none, and otherwise its zero mask is the
    union of theirs.  On the level's
    worlds W the payoff points of the members, with the set of members live
    at each, are the Cartesian product of the factors' (each combination
    repeated for every value of the atoms no member depends on), so their
    hull is the product of the factors' hulls, conv(P × Q) = conv(P) ×
    conv(Q): the marginals of a solution solve the factors, a product of
    the factors' solutions solves the whole, and member j's weight Phi_j
    depends only on the marginal of its factor.  Points merge by value and
    live members, since Phi_j sums the weights of the worlds where member
    j stands.  One member is decided by the interval of its points (0 or
    None), more by one hull LP, whose weights are re-checked nonnegative,
    so a member that stands at a point of nonzero weight has Phi > 0
    exactly."""
    worlds = reduce(or_, (assessment.live_masks[j] for j in _bits(members)), 0) & ~outside
    if not worlds:
        return members
    zero = 0
    if factors is None:
        factors = _factors(assessment, members, worlds)
    for factor in factors:
        entries = _subset_entries(assessment, factor, worlds)
        merged = dict.fromkeys((point, live) for (_, _, live), point, _ in entries)
        points = [point for point, _ in merged]
        target = tuple(assessment.scaled_previsions[j] for j in factor)
        if len(factor) == 1:
            if _scalar_separator(points, target):
                return None
            continue
        weights = convex_combination(points, target)
        if weights is None:
            return None
        weighted = reduce(or_, (live for w, (_, live) in zip(weights[0], merged) if w), 0)
        zero |= reduce(or_, (1 << j for j in factor)) & ~weighted
    return zero


def _factors(assessment: Assessment, members: int, worlds: int) -> list[tuple[int, ...]]:
    """The independent factors of the hull system of the mask `members`
    over the worlds W of the mask `worlds`, each as its members: one
    factor, all of them, when the system does not split.

    It splits when (1) there are two or more members, none of whose
    payoffs holds an unassessed symbol (the symbol guard reads a factor's
    rows together), (2) W is a subcube, the 2^m worlds of the m atoms that
    vary on it, (3) the members fall into groups that depend on disjoint sets of
    those atoms, and (4) two or more of the groups stand each at every
    world of W: a group that does not is merged into the first that
    does.  Member j depends on atom a when flipping a moves a part of
    `cell_regions[j]` within W; members that share an atom are grouped
    together.  On W a factor's points, and the members live at each,
    depend only on the atoms of its group."""
    indices = tuple(_bits(members))
    if len(indices) == 1 or any(assessment.symbolic[j] for j in indices):
        return [indices]
    registry = assessment.registry
    size = registry.size
    # Per varying atom: its bit in a set of them, the distance between two
    # worlds that differ only in it, and the worlds where it is true.
    varying = []
    for a in range(size):
        mask = registry.atom_mask(a)
        if worlds & mask and worlds & ~mask:
            varying.append((1 << len(varying), 1 << (size - 1 - a), mask))
    if worlds.bit_count() != 1 << len(varying):
        return [indices]
    # (atoms, members, live worlds) per group; the groups' sets of atoms
    # are disjoint.
    groups: list[tuple[int, int, int]] = []
    for j in indices:
        atoms = 0
        # The parts partition the worlds, so the last one moves when some
        # other one does.
        for part in assessment.cell_regions[j][:-1]:
            part &= worlds
            if part and part != worlds:
                for bit, shift, mask in varying:
                    if not atoms & bit:
                        high = part & mask
                        if high >> shift != part ^ high:
                            atoms |= bit
        group, live = 1 << j, assessment.live_masks[j]
        kept = []
        for other in groups:
            if other[0] & atoms:
                atoms |= other[0]
                group |= other[1]
                live |= other[2]
            else:
                kept.append(other)
        if group == members:
            return [indices]
        kept.append((atoms, group, live))
        groups = kept
    covering = [group for _, group, live in groups if not worlds & ~live]
    if len(covering) < 2:
        return [indices]
    covering[0] |= members ^ reduce(or_, covering)
    return sorted(tuple(_bits(group)) for group in covering)


def _levels(assessment: Assessment) -> Optional[list[tuple[int, ...]]]:
    """Gilio's levels I_0 ⊃ I_1 ⊃ ...: the member sets whose hull systems
    were solved, each by one `_unreleased` step, or None when one of them
    has no solution.  Level 0 is solved on the whole family's factors,
    which `_witness_candidates` reads too (`Assessment._family_factors`)."""
    members = (1 << len(assessment)) - 1
    levels: list[tuple[int, ...]] = []
    factors: Optional[list[tuple[int, ...]]] = assessment._family_factors
    while members:
        zero = _unreleased(assessment, members, factors=factors)
        factors = None
        if zero is None:
            return None
        if zero == members:
            break
        levels.append(tuple(_bits(members)))
        members = zero
    return levels


def _witness_candidates(assessment: Assessment) -> Iterator[tuple[int, ...]]:
    """The subfamilies among which the witness lies, in the order of
    `subsets_by_size`: those inside one factor of the whole family's
    level-0 system, all of them when it does not split.

    A subfamily S = S1 ∪ S2 with its parts in different factors fails
    only if a part does.  If weights λ on S1's live worlds hit S1's
    previsions, and μ on S2's hit S2's, then λ × μ, each pair of worlds
    read as the world of W with S1's atoms from the first and S2's from
    the second (W is a subcube, and each part's cells depend only on its
    own atoms), lies on worlds where both parts stand and hits both.  So
    every failing subfamily of least size lies inside one factor, and the
    first of them in this order is the first in `subsets_by_size`."""
    factors = assessment._family_factors
    for size in range(1, max(map(len, factors)) + 1):
        yield from sorted(
            inside for factor in factors for inside in itertools.combinations(factor, size)
        )


def _decide(assessment: Assessment) -> CoherenceResult:
    """The verdict of the levels; when they fail, or an unassessed symbol
    stops them, the witness of the subset loop, which raises the first
    `MissingSymbol` only when no subfamily fails.  Levels that fail while
    no subfamily does are a fault of the library: `InternalError`."""
    try:
        if _levels(assessment) is not None:
            return CoherenceResult(True)
    except MissingSymbol:
        pass  # the subset loop raises it too, unless some subfamily fails
    failure = _first_failure(assessment, _witness_candidates(assessment))
    if failure is None:
        raise InternalError("a level has no hull solution, yet no subfamily fails")
    return failure


def check_coherence(assessment: Assessment, cap: Optional[int] = None) -> CoherenceResult:
    """Decide coherence with Gilio's level algorithm.

    When incoherent, the witness is the first subfamily of least size
    (lexicographic within size) that is certified to fail, with the
    separator of its hull; subfamilies that cannot be decided because
    an unassessed symbol cannot be eliminated are skipped, and the first
    one's `MissingSymbol` is raised only when no subfamily fails.
    """
    _check_cap(len(assessment), cap)
    return _decide(assessment)


def find_dutch_book(assessment: Assessment, cap: Optional[int] = None) -> Optional[DutchBook]:
    """Sure-win stakes on the witness of `check_coherence`, None when the
    assessment is coherent: the stakes in [-1, 1] that maximize the
    worst-case gain over the witness's live worlds, read off the certified
    multipliers of one LP (`best_uniform_gain`), the witness's hull system
    with L1 slack, whose optimum is that gain.  Its rows are integer: the
    witness's integer points minus their targets, D_j·p_j - D_j·P_j, one
    per live world, in world order (`_world_entries`)."""
    witness = check_coherence(assessment, cap).witness
    if witness is None:
        return None
    target = [assessment.scaled_previsions[j] for j in witness]
    epsilon, stakes = best_uniform_gain(
        [
            tuple(v - p for v, p in zip(point, target))
            for _, point, _ in _world_entries(_subset_entries(assessment, witness))
        ],
        scales=[assessment.scales[j] for j in witness],
    )
    if epsilon <= 0:  # a point outside a finite hull is strictly separable
        raise InternalError("no sure-win stakes on a subfamily outside its hull")
    return DutchBook(witness, tuple(stakes), epsilon)
