"""Independent reference implementations the library is tested against.

`exhaustive_coherence` is the all-subfamilies test that `check_coherence`
ran before the level algorithm: solve the hull system of every
subfamily, smallest first, and report the first one outside its hull.
A subfamily whose table cannot be built for an unassessed symbol decides
nothing and is skipped; its error is raised only when none fails.
It is built from the world-by-world `point_table` and `convex_combination`
alone, so it never touches the level code or the pieces of cell regions.

`exhaustive_dutch_book` is the betting-scheme search that `find_dutch_book`
used before it solved one stake LP on the hull witness: for every
subfamily, smallest first, maximize the worst-case gain over its live
worlds (its `point_table`) subject to unit stake bounds, and report the
first subfamily with a strictly positive optimum.  Its stake LP is the
same `best_uniform_gain` that `find_dutch_book` solves, but it never
calls `convex_combination` or the level code, so its verdict is
independent of `check_coherence`; the epsilon of that LP is checked
against `primal_uniform_gain` on random deviation vectors in
`test_linprog.py`.

`primal_uniform_gain` is the stake LP as `best_uniform_gain` solved it
before it read the stakes off the multipliers of the hull system: the
primal over the stakes themselves, split into positive and negative
parts, with a surplus column per deviation vector and a slack per stake
bound.

`payoff_cells` is the payoff matrix as `Assessment` built it before it
went row by row: at every world where a member's bet stands, the payoff
polynomial looked up at that world with the valuation substituted, and
the prevision where it is called off.  `scaled_cells` is the same table
in the integer form `Assessment` kept before it went region by region,
each constant cell times its member's D_i, and `live_members` its
transpose of the live masks.  `subset_entries` is a subfamily's integer
points as `coherence._subset_entries` read them before they came from
pieces of cell regions: a projection of `scaled_cells` onto the
subfamily, one entry per live world, in world order, with the
unknown-symbol guard and the corner expansion run world by world.
`extension_columns` is the system of `propagation._lp_interval` built
the same way, one column per world, merged by value.  `point_table` is a
subfamily's payoff points as `Fraction`s, read off `payoff_cells` as the
point tables were before they became projections of the assessment's
own matrix: every cell coerced to `Poly`, the unknown-symbol guard run
over all live worlds, then one entry per world, or one per endpoint
corner where unknown symbols remain.

`assessment_fields` rebuilds every field of an `Assessment`'s payoff
matrix from scratch, world by world, with no kept row mask and no direct
evaluation: each member's payoff row found by walking its event formulas
at the world (`_truth`), its live worlds by the called-off rule of its
shape at that world, the payoff's value there as `payoff_at` computes it
(or, with unassessed symbols left, the substituted polynomial), the
prevision at called-off worlds, and D_i as the lcm of the denominators
of the prevision and of every cell.

`fraction_simplex` is the two-phase simplex that `simplex_minimize` ran
before it pivoted on an integer tableau: the same pivot rules (Dantzig's,
then Bland's after `DEGENERATE_LIMIT` degenerate pivots, and no
artificial re-entering in phase 1), but every entry a `Fraction`, each
row divided by its pivot, and the reduced costs recomputed from the
basis costs at every iteration.  The integer simplex must return exactly
its tuples, multipliers included, after the same pivots, once
`fraction_form` has read its integer numerators over their denominators
as `Fraction`s; `integer_form` turns such a result back.

`separate_extension_interval` is `extension_interval` as it ran before
its two endpoint LPs shared one system and the premises' coherence was
read off their solutions: `check_coherence` on the premises first, then
the cap check of the combined family, then the level step off the
target's support and one independent `certified_minimum` LP per
endpoint; targets outside the LP path take the bisection search.

`single_system_unreleased` is Gilio's level step as `coherence` ran it
before a level split into independent factors and took one solution per
factor: one hull system over all the members' live worlds outside
`outside`, read off `subset_entries`, with points merged by value and
live members, the first solution releasing every member whose points
hold weight and LPs maximising the weight on the points of the members
still at zero releasing the others, so that its zero mask is the least
of any solution's.  `released_by_one_solution` runs it on the points
whose live members lie in a given set, to check that one solution
releases exactly that set.  `single_system_levels` runs the levels on
it as `_levels` does.

`tokenize_line` is the document tokenizer as it ran before a line was
scanned once: at each position, one match of blanks, a comment or a
token, an error at the first position where none matches, and an `end`
token after the line.

`composed_substitute` is `Poly.substitute` as it was before it folded
numeric values into the coefficients: every term rebuilt as a product of
`Poly` factors, a numeric value coerced to a constant `Poly`, and the
terms summed `Poly` by `Poly`.
"""

import itertools
import re
import weakref
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Optional, Sequence

from coherekit.coherence import (
    _CORNER_LIMIT,
    Assessment,
    CoherenceResult,
    DutchBook,
    _bits,
    _check_cap,
    _scalar_separator,
    check_coherence,
    subsets_by_size,
)
from coherekit.crq import (
    CRQ,
    ConditionalEventShape,
    ConjunctionShape,
    IteratedEventShape,
    IteratedShape,
    NegationShape,
    NestedEventShape,
    PlainShape,
    SumShape,
)
from coherekit.dsl import Token
from coherekit.errors import (
    DimensionMismatch,
    IncoherentPremises,
    InternalError,
    MissingSymbol,
    ParseError,
)
from coherekit.linprog import (
    DEGENERATE_LIMIT,
    best_uniform_gain,
    certified_minimum,
    convex_combination,
    simplex_minimize,
)
from coherekit.propagation import ExtensionInterval, _linear_target, _search_interval
from coherekit.polynomials import Poly


def exhaustive_coherence(
    assessment: Assessment, subsets: Optional[Iterable[tuple[int, ...]]] = None
) -> CoherenceResult:
    """The first of `subsets` (default: all, smallest first) whose hull
    system has no solution, as the witness of an incoherent result.  A
    subfamily whose table cannot be built for an unassessed symbol decides
    nothing: the first such `MissingSymbol` is raised only when no
    subfamily fails."""
    if subsets is None:
        subsets = subsets_by_size(len(assessment))
    for subset, points, previsions in _decided_tables(assessment, subsets):
        if convex_combination(points, previsions) is None:
            return CoherenceResult(False, subset)
    return CoherenceResult(True)


def exhaustive_dutch_book(assessment: Assessment) -> Optional[DutchBook]:
    subsets = subsets_by_size(len(assessment))
    for subset, points, previsions in _decided_tables(assessment, subsets):
        deviations = [
            tuple(value - prevision for value, prevision in zip(point, previsions))
            for point in points
        ]
        epsilon, stakes = best_uniform_gain(deviations)
        if epsilon > 0:
            return DutchBook(subset, tuple(stakes), epsilon)
    return None


def _decided_tables(
    assessment: Assessment, subsets: Iterable[tuple[int, ...]]
) -> Iterator[tuple[tuple[int, ...], list, tuple[Fraction, ...]]]:
    """Each of `subsets` whose `point_table` can be built and is not
    empty, with its points and previsions; once they are exhausted, the
    first `MissingSymbol` met is raised.  A caller that stops at a failing
    subfamily never sees it."""
    cells = payoff_cells(assessment)
    undecided = None
    for subset in subsets:
        try:
            table = point_table(assessment, subset, cells)
        except MissingSymbol as error:
            undecided = undecided or error
            continue
        if table:
            previsions = tuple(assessment.items[i][1] for i in subset)
            yield subset, [values for _, values, _ in table], previsions
    if undecided is not None:
        raise undecided


def primal_uniform_gain(
    deviations: Sequence[Sequence[Fraction]],
) -> tuple[Fraction, list[Fraction]]:
    """Maximize e such that stakes·d_h >= e for every deviation vector d_h,
    with each stake in [-1, 1], over the stakes directly: m + 2n rows and
    4n + 1 + m columns."""
    n = len(deviations[0])
    m = len(deviations)
    # Columns: p_i (n), q_i (n), e (1), surplus t_h (m), slack u_i (n), slack v_i (n)
    cols = 2 * n + 1 + m + 2 * n
    matrix: list[list[Fraction]] = []
    for h in range(m):
        row = [Fraction(0)] * cols
        for i in range(n):
            row[i] = Fraction(deviations[h][i])
            row[n + i] = -Fraction(deviations[h][i])
        row[2 * n] = Fraction(-1)
        row[2 * n + 1 + h] = Fraction(-1)
        matrix.append(row)
    for i in range(n):
        for part in range(2):
            row = [Fraction(0)] * cols
            row[part * n + i] = Fraction(1)
            row[2 * n + 1 + m + part * n + i] = Fraction(1)
            matrix.append(row)
    rhs = [Fraction(0)] * m + [Fraction(1)] * (2 * n)
    costs = [Fraction(0)] * cols
    costs[2 * n] = Fraction(-1)  # maximize e
    status, solution, _ = fraction_form(simplex_minimize(matrix, rhs, costs))
    assert status == "optimal", status
    return solution[2 * n], [solution[i] - solution[n + i] for i in range(n)]


def payoff_cells(assessment: Assessment) -> list[list[Poly]]:
    """cells[i][k]: member i's payoff at world k, world by world."""
    worlds = assessment.registry.constituents()
    return [
        [
            crq.payoff_poly(c).substitute(assessment.valuation)
            if live >> c.index & 1
            else Poly.coerce(value)
            for c in worlds
        ]
        for (crq, value), live in zip(assessment.items, assessment.live_masks)
    ]


_SCALED: "weakref.WeakKeyDictionary[Assessment, tuple]" = weakref.WeakKeyDictionary()


def scaled_cells(assessment: Assessment) -> tuple[tuple, ...]:
    """cells[i][k]: D_i times member i's payoff at world k, an int, or the
    `Poly` itself when unassessed symbols remain; read off `payoff_cells`
    once per assessment."""
    cells = _SCALED.get(assessment)
    if cells is None:
        cells = tuple(
            tuple(
                int(cell.constant_value() * scale) if cell.is_constant() else cell
                for cell in row
            )
            for row, scale in zip(payoff_cells(assessment), assessment.scales)
        )
        _SCALED[assessment] = cells
    return cells


def live_members(assessment: Assessment) -> tuple[int, ...]:
    """Per world, the mask of the members whose bets stand there."""
    return tuple(
        sum(1 << i for i, live in enumerate(assessment.live_masks) if live >> k & 1)
        for k in range(len(assessment.registry.constituents()))
    )


def subset_entries(assessment: Assessment, subset: tuple[int, ...], worlds: int = -1) -> list:
    """The integer points of `subset`, one per world of the mask `worlds`
    (all by default) where one of its bets stands, as (world index, point,
    corner): `scaled_cells` projected onto the subfamily, with unknown
    symbols guarded and expanded to endpoint rows world by world."""
    cells = scaled_cells(assessment)
    live = 0
    symbolic = 0
    for i in subset:
        live |= assessment.live_masks[i]
        symbolic |= assessment.symbolic[i]
    live &= worlds
    columns = list(zip(*(cells[i] for i in subset)))
    symbolic &= live
    if not symbolic:
        return [(k, columns[k], None) for k in _bits(live)]
    scales = [assessment.scales[i] for i in subset]
    owners: dict = {}
    entries = []
    for k in _bits(live):
        vec = columns[k]
        if not symbolic >> k & 1:
            entries.append((k, vec, None))
            continue
        polys = [cell for cell in vec if isinstance(cell, Poly)]
        frees = {sym for poly in polys for sym in poly.symbols()}
        for sym in sorted(frees):
            if sym in owners and owners[sym] != vec:
                raise MissingSymbol(
                    f"prevision symbol {sym} is not assessed and appears in "
                    "several distinct payoff rows; it cannot be eliminated"
                )
            owners.setdefault(sym, vec)
        if len(frees) > _CORNER_LIMIT:
            raise MissingSymbol(
                "too many unknown prevision symbols in one payoff row: "
                + ", ".join(sorted(frees))
            )
        for poly in polys:
            if not poly.is_affine_in(frees):
                raise MissingSymbol(
                    "payoff is nonlinear in unknown prevision symbol(s) "
                    + ", ".join(sorted(frees))
                )
        names = sorted(frees)
        for corner in itertools.product((Fraction(0), Fraction(1)), repeat=len(names)):
            corner_map = dict(zip(names, corner))
            point = tuple(
                (cell.value(corner_map) * scale).numerator if isinstance(cell, Poly) else cell
                for cell, scale in zip(vec, scales)
            )
            entries.append((k, point, tuple(sorted(corner_map.items()))))
    return entries


def extension_columns(
    premises: Assessment, members: int, payoffs, target_live: int
) -> tuple[list[list[int]], list[int], list[int], list[int]]:
    """The endpoint system of `propagation._lp_interval` for the premises
    of the mask `members` and a target with the live payoffs `payoffs`
    (regions and their (a, b)) on `target_live`, built world by world:
    one column per world where the target or one of the premises stands,
    merged by value, each keeping the premises live at its worlds.
    Returns the matrix, rhs, costs and per-column live premises."""
    cells = scaled_cells(premises)
    previsions = premises.scaled_previsions
    scale = lcm(*(v.denominator for _, pair in payoffs for v in pair))
    target_cells = {
        k: (int(a * scale), int((1 - b) * scale))
        for region, (a, b) in payoffs
        for k in _bits(region)
    }
    indices = tuple(_bits(members))
    columns: dict = {}
    for k, live in enumerate(live_members(premises)):
        if k in target_cells or live & members:
            deviations = tuple(cells[j][k] - previsions[j] for j in indices)
            column = (deviations, *target_cells.get(k, (0, 0)))
            columns[column] = columns.get(column, 0) | live & members
    matrix = [[deviations[i] for deviations, _, _ in columns] for i in range(len(indices))]
    matrix.append([denominator for _, _, denominator in columns])
    rhs = [0] * len(indices) + [scale]
    return matrix, rhs, [a for _, a, _ in columns], list(columns.values())


def point_table(
    assessment: Assessment, subset: tuple[int, ...], cells: Sequence[Sequence[Poly]]
) -> list[tuple[int, tuple[Fraction, ...], Optional[tuple[tuple[str, Fraction], ...]]]]:
    """The payoff points of `subset` over the worlds where one of its bets
    stands, read off `cells`, as (world index, point, corner) in world
    order, each world's corners in their order; empty when there are no
    such worlds."""
    live = 0
    for i in subset:
        live |= assessment.live_masks[i]
    raw = [
        (c, tuple(cells[i][c.index] for i in subset))
        for c in assessment.registry.constituents()
        if live >> c.index & 1
    ]
    owners: dict[str, tuple[Poly, ...]] = {}
    for _, vec in raw:
        frees = {sym for poly in vec for sym in poly.symbols()}
        for sym in sorted(frees):
            if sym in owners and owners[sym] != vec:
                raise MissingSymbol(
                    f"prevision symbol {sym} is not assessed and appears in "
                    "several distinct payoff rows; it cannot be eliminated"
                )
            owners.setdefault(sym, vec)
        if len(frees) > _CORNER_LIMIT:
            raise MissingSymbol(
                "too many unknown prevision symbols in one payoff row: "
                + ", ".join(sorted(frees))
            )
        for poly in vec:
            if not poly.is_affine_in(frees):
                raise MissingSymbol(
                    "payoff is nonlinear in unknown prevision symbol(s) "
                    + ", ".join(sorted(frees))
                )
    entries = []
    for c, vec in raw:
        frees = sorted({sym for poly in vec for sym in poly.symbols()})
        if not frees:
            entries.append((c.index, tuple(poly.constant_value() for poly in vec), None))
            continue
        for corner in itertools.product((Fraction(0), Fraction(1)), repeat=len(frees)):
            corner_map = dict(zip(frees, corner))
            values = tuple(poly.value(corner_map) for poly in vec)
            entries.append((c.index, values, tuple(sorted(corner_map.items()))))
    return entries


def _truth(event, world) -> bool:
    """The event's truth at one world, by walking its formula."""
    if event.kind in ("true", "false"):
        return event.kind == "true"
    if event.kind == "atom":
        return world.bits[event.args[0].index]
    if event.kind == "not":
        return not _truth(event.args[0], world)
    if event.kind == "and":
        return _truth(event.args[0], world) and _truth(event.args[1], world)
    return _truth(event.args[0], world) or _truth(event.args[1], world)


def _row_poly(crq: CRQ, world) -> Poly:
    (poly,) = [poly for event, poly in crq.rows if _truth(event, world)]
    return poly


def _stands(crq: CRQ, world, valuation) -> bool:
    """Whether a bet on `crq` stands at `world`, by the called-off rule of
    its shape read at that world alone."""
    shape = crq.shape
    if isinstance(shape, (ConditionalEventShape, PlainShape, NestedEventShape)):
        return _truth(shape.condition, world)
    if isinstance(shape, (ConjunctionShape, SumShape)):
        return _stands(shape.left, world, valuation) or _stands(shape.right, world, valuation)
    if isinstance(shape, NegationShape):
        return _stands(shape.operand, world, valuation)
    if isinstance(shape, IteratedEventShape):
        a, h = shape.inner.shape.consequent, shape.inner.shape.condition
        if _truth(a, world) and _truth(h, world):
            return True
        return valuation[shape.inner.own_symbol] != 0 and not _truth(h, world)
    assert isinstance(shape, IteratedShape)
    others = {name: v for name, v in valuation.items() if name != crq.own_symbol}
    return _row_poly(crq, world).substitute(others) != Poly.sym(crq.own_symbol)


def assessment_fields(assessment: Assessment) -> dict:
    """`scales`, `scaled_previsions`, `live_masks`, `symbolic`,
    `cell_regions`, `region_cells` and `free_symbols`, rebuilt world by
    world from the members' events, payoffs and previsions: each region's
    cell is the one its worlds share."""
    valuation = assessment.valuation
    worlds = assessment.registry.constituents()
    free = frozenset(
        sym
        for crq, _ in assessment.items
        for _, poly in crq.rows
        for sym in poly.symbols()
        if sym not in valuation
    )
    live_masks = []
    scales, scaled_previsions, symbolic, cell_regions, region_cells = [], [], [], [], []
    for crq, prevision in assessment.items:
        stands = [_stands(crq, world, valuation) for world in worlds]
        rows = [
            next(r for r, (event, _) in enumerate(crq.rows) if _truth(event, world))
            for world in worlds
        ]
        parts = [
            sum(1 << w.index for w, live, r in zip(worlds, stands, rows) if live and r == row)
            for row in range(len(crq.rows))
        ]
        called_off = sum(1 << w.index for w, live in zip(worlds, stands) if not live)
        regions = (called_off, *(part for part in parts if part))
        cell_regions.append(regions)
        cells = []
        for world, live in zip(worlds, stands):
            if not live:
                cells.append(prevision)
                continue
            poly = _row_poly(crq, world)
            if poly.symbols() <= valuation.keys():
                cells.append(poly.value(valuation))
                continue
            reduced = poly.substitute(valuation)
            cells.append(reduced.constant_value() if reduced.is_constant() else reduced)
        denominators = [prevision.denominator]
        for cell in cells:
            if isinstance(cell, Poly):
                denominators.extend(c.denominator for c in cell.terms.values())
            else:
                denominators.append(cell.denominator)
        scale = lcm(*denominators)
        live_masks.append(sum(1 << w.index for w, live in zip(worlds, stands) if live))
        scales.append(scale)
        scaled = [cell if isinstance(cell, Poly) else int(cell * scale) for cell in cells]
        scaled_previsions.append(int(prevision * scale))
        # A region's cell, or every distinct cell of its worlds when they
        # differ; the called-off region holds the prevision even when it
        # is empty.
        shared = [
            {_typed_cell(scaled[w.index]) for w in worlds if region >> w.index & 1}
            for region in regions
        ]
        shared[0].add(_typed_cell(int(prevision * scale)))
        region_cells.append(
            tuple(next(iter(found))[1] if len(found) == 1 else tuple(found) for found in shared)
        )
        symbolic.append(
            sum(1 << w.index for w, cell in zip(worlds, cells) if isinstance(cell, Poly))
        )
    return {
        "scales": tuple(scales),
        "scaled_previsions": tuple(scaled_previsions),
        "live_masks": tuple(live_masks),
        "symbolic": tuple(symbolic),
        "cell_regions": tuple(cell_regions),
        "region_cells": tuple(region_cells),
        "free_symbols": free,
    }


def _typed_cell(cell):
    """An int or `Poly` cell tagged by its type, so that an int never
    merges with a constant `Poly`."""
    return (type(cell), cell)


def _fraction_pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    pivot = tableau[row][col]
    tableau[row] = [v / pivot for v in tableau[row]]
    for i, current in enumerate(tableau):
        if i != row and current[col] != 0:
            factor = current[col]
            pivot_row = tableau[row]
            tableau[i] = [a - factor * b for a, b in zip(current, pivot_row)]
    basis[row] = col


def _fraction_iterate(
    tableau: list[list[Fraction]], basis: list[int], costs: list[Fraction], allowed: int
) -> str:
    """Dantzig's rule (the most negative reduced cost, the smallest index
    among ties) until `DEGENERATE_LIMIT` pivots at a zero ratio, Bland's
    rule (the smallest entering index with a negative reduced cost) from
    then on; the smallest basis index among the rows that tie the ratio
    test under either."""
    m = len(tableau)
    degenerate = 0
    while True:
        basis_costs = [costs[basis[i]] for i in range(m)]
        entering = -1
        least = Fraction(0)
        for j in range(allowed):
            reduced = costs[j] - sum(
                basis_costs[i] * tableau[i][j] for i in range(m) if tableau[i][j]
            )
            if reduced < least:
                entering, least = j, reduced
                if degenerate >= DEGENERATE_LIMIT:
                    break
        if entering < 0:
            return "optimal"
        leaving = -1
        best: Optional[Fraction] = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return "unbounded"
        if best == 0:
            degenerate += 1
        _fraction_pivot(tableau, basis, leaving, entering)


def _fraction_multipliers(
    tableau: list[list[Fraction]], basis: list[int], costs: list[Fraction], signs: list[int]
) -> list[Fraction]:
    """pi = c_B B^-1, with B^-1 read from the artificial columns, mapped
    back to the rows as given (un-negated)."""
    m, n = len(basis), len(costs) - len(basis)
    return [
        signs[i] * sum(costs[basis[k]] * tableau[k][n + i] for k in range(m) if tableau[k][n + i])
        for i in range(m)
    ]


def fraction_simplex(
    matrix: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    costs: Sequence[Fraction],
    *,
    multipliers: bool = False,
) -> tuple:
    """`simplex_minimize` on a dense `Fraction` tableau: minimize costs·x
    subject to matrix·x = rhs, x >= 0, with the same return values."""
    m = len(matrix)
    n = len(costs)
    tableau: list[list[Fraction]] = []
    signs: list[int] = []  # -1 on the rows negated to make rhs >= 0
    for i in range(m):
        row = [Fraction(v) for v in matrix[i]]
        if len(row) != n:
            raise DimensionMismatch("matrix row length does not match costs")
        value = Fraction(rhs[i])
        signs.append(-1 if value < 0 else 1)
        if value < 0:
            row = [-v for v in row]
            value = -value
        tableau.append(row + [Fraction(0)] * m + [value])
    for i in range(m):
        tableau[i][n + i] = Fraction(1)
    basis = list(range(n, n + m))
    phase1 = [Fraction(0)] * n + [Fraction(1)] * m

    def result(status, solution=None, objective=None, pi=None):
        return (status, solution, objective, pi) if multipliers else (status, solution, objective)

    # An artificial that leaves the basis never re-enters.
    status = _fraction_iterate(tableau, basis, phase1, n)
    if status != "optimal":  # pragma: no cover - phase 1 is bounded below
        return result("unbounded")
    if sum(tableau[i][-1] for i in range(m) if basis[i] >= n) > 0:
        farkas = _fraction_multipliers(tableau, basis, phase1, signs) if multipliers else None
        return result("infeasible", pi=farkas)
    # Drive remaining zero-value artificials out of the basis when possible.
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if tableau[i][j] != 0:
                    _fraction_pivot(tableau, basis, i, j)
                    break
    phase2 = [Fraction(v) for v in costs] + [Fraction(0)] * m
    if _fraction_iterate(tableau, basis, phase2, n) == "unbounded":
        return result("unbounded")
    solution = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            solution[basis[i]] = tableau[i][-1]
    objective = sum(Fraction(costs[j]) * solution[j] for j in range(n))
    duals = _fraction_multipliers(tableau, basis, phase2, signs) if multipliers else None
    return result("optimal", solution, objective, duals)


def fraction_form(result: tuple) -> tuple:
    """A result of `simplex_minimize` in the form of `fraction_simplex`:
    each (numerators, denominator) pair read as a list of `Fraction`s, or
    as one `Fraction` for the objective; every other entry as it is."""

    def fractions(part):
        if not isinstance(part, tuple):
            return part
        numerators, denominator = part
        if isinstance(numerators, list):
            return [Fraction(v, denominator) for v in numerators]
        return Fraction(numerators, denominator)

    return tuple(map(fractions, result))


def integer_form(result: tuple) -> tuple:
    """The reverse of `fraction_form`: a list of rationals as its
    numerators over the lcm of their denominators, one rational as its
    numerator and denominator; the status and None as they are."""

    def integers(part):
        if part is None or isinstance(part, str):
            return part
        if not isinstance(part, list):
            value = Fraction(part)
            return value.numerator, value.denominator
        values = [Fraction(v) for v in part]
        scale = lcm(*(v.denominator for v in values))
        return [v.numerator * (scale // v.denominator) for v in values], scale

    return tuple(map(integers, result))


def separate_extension_interval(
    premises: Assessment, target: CRQ, *, cap: Optional[int] = None
) -> ExtensionInterval:
    """The coherent extensions of `premises` to `target`, with the
    premises checked on their own before any endpoint LP, and each
    endpoint from a system of its own."""
    if not check_coherence(premises, cap=cap).coherent:
        raise IncoherentPremises("the premise assessment is not coherent")
    _check_cap(len(premises) + 1, cap)
    linear = _linear_target(premises, target)
    if linear is None:
        return _search_interval(premises, target, 20)
    payoffs, target_live = linear
    members = (1 << len(premises)) - 1
    while members:
        zero = single_system_unreleased(premises, members, target_live)
        if zero is None or zero == members:
            break
        members = zero
    matrix, rhs, costs, _ = extension_columns(premises, members, payoffs, target_live)
    scale = rhs[-1]
    endpoints = []
    for sign in (1, -1):
        certified = certified_minimum(matrix, rhs, [sign * a for a in costs])
        if certified is None:
            raise InternalError("an LP with a known optimum ended infeasible")
        endpoints.append(sign * certified[0][0] / scale)
    return ExtensionInterval(*endpoints, "certified-by-LP")


def single_system_unreleased(
    assessment: Assessment, members: int, outside: int = 0, *, within: int = -1
) -> Optional[int]:
    """The mask of the members whose live points get zero weight in every
    solution of the one hull system of `members` over their live worlds
    outside the mask `outside`, or None when it has none; `members`
    itself when no such world is left.  With `within`, the system keeps
    only the points whose live members all lie in that mask.  Each LP
    after the first maximises the total weight on the points of the
    members still at zero, through `certified_minimum` at cost -1 on them."""
    indices = tuple(_bits(members))
    worlds = 0
    for j in indices:
        worlds |= assessment.live_masks[j]
    if not worlds & ~outside:
        return members
    lives = live_members(assessment)
    merged = dict.fromkeys(
        (point, lives[k] & members)
        for k, point, _ in subset_entries(assessment, indices)
        if not outside >> k & 1 and not lives[k] & members & ~within
    )
    points, lives = [point for point, _ in merged], [live for _, live in merged]
    target = tuple(assessment.scaled_previsions[j] for j in indices)
    if len(indices) == 1:
        return None if not points or _scalar_separator(points, target) else 0
    matrix = [*zip(*points), [1] * len(points)]
    zero = members
    favoured = 0
    while zero:
        costs = [-1 if live & favoured else 0 for live in lives]
        certified = certified_minimum(matrix, [*target, 1], costs) if points else None
        if certified is None:
            return None
        [(_, _, (weights, _))] = certified
        released = 0
        for weight, live in zip(weights, lives):
            if weight:
                released |= live & zero
        if not released:
            break
        zero ^= released
        favoured = zero
    return zero


def released_by_one_solution(
    assessment: Assessment, members: int, outside: int, released: int
) -> bool:
    """Whether one solution of the one hull system of `members` over their
    live worlds outside `outside` gives weight to exactly the members of
    `released`: restricted to the points whose live members lie in
    `released`, the system has a solution and releases each of them (the
    mean of solutions that release each one releases all)."""
    return single_system_unreleased(assessment, members, outside, within=released) == (
        members & ~released
    )


def single_system_levels(assessment: Assessment) -> Optional[list[tuple[int, ...]]]:
    """The member sets of Gilio's levels, each solved as one system by
    `single_system_unreleased`, or None when one of them has no
    solution."""
    members = (1 << len(assessment)) - 1
    levels: list[tuple[int, ...]] = []
    while members:
        zero = single_system_unreleased(assessment, members)
        if zero is None:
            return None
        if zero == members:
            break
        levels.append(tuple(_bits(members)))
        members = zero
    return levels


def composed_substitute(poly: Poly, valuation) -> Poly:
    out = Poly.const(0)
    for mono, coef in poly.terms.items():
        term = Poly.const(coef)
        for sym, power in mono:
            base = Poly.coerce(valuation[sym]) if sym in valuation else Poly.sym(sym)
            for _ in range(power):
                term = term * base
        out = out + term
    return out


_LINE_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t]+)
      | (?P<comment>\#[^\n]*)
      | (?P<number>-?\d+(?:/\d+|\.\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>[()=!&|])
    """,
    re.VERBOSE,
)


def tokenize_line(text: str, line_no: int) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _LINE_TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        pos = match.end()
        if match.lastgroup in ("ws", "comment"):
            continue
        tokens.append(Token(match.lastgroup, match.group(), line_no, match.start() + 1))
    tokens.append(Token("end", "", line_no, len(text) + 1))
    return tokens
