"""Exact linear programming over rationals.

A small two-phase simplex, sized for the systems this package produces
(tens of rows, up to a few thousand columns).  It enters on the most
negative reduced cost (Dantzig's rule) and switches to Bland's rule for
the rest of a phase after `DEGENERATE_LIMIT` degenerate pivots, so that
it terminates.  Feasibility verdicts here decide coherence, and
coherence is sensitive to exact boundary cases, so floating point is
never used.  Inputs are `Fraction`s or ints.  Pivots run fraction-free
on an integer tableau with one common denominator (Bareiss's
integer-preserving elimination), which is exact and spares the gcd of
every `Fraction` operation; a row of ints, such as the integer-scaled
payoff points of `coherence`, enters it as it is.  Outputs are integer
numerators over one denominator read off the final tableau: the
solution, the objective and the row multipliers, which certify what the
simplex reports (duals for an optimum, a Farkas vector for an infeasible
system).  The callers re-check them exactly on those integers and build
a `Fraction` only for a public result: `certified_minimum`'s objectives
and `best_uniform_gain`'s stakes.  One call solves one system: further
cost vectors over the same rows share its phase 1, each starting its
phase 2 from the basis where the one before it ended, and each optimum
comes with its own multipliers and re-check.  The Dutch-book stake
problem is solved as its dual, a hull system with L1 slack, through
`certified_minimum`: the stakes are its multipliers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .errors import DimensionMismatch, InternalError

Vector = Sequence[Fraction]
# Integer numerators over one positive denominator.
Scaled = tuple[list[int], int]

# Degenerate pivots after which `_iterate` trades Dantzig's rule for Bland's.
DEGENERATE_LIMIT = 50


def _pivot(tableau: list[list[int]], basis: list[int], row: int, col: int) -> None:
    """Pivot an integer tableau on (row, col).  The tableau stands for its
    entries divided by one common denominator d > 0, which is the entry of
    every constraint row in its own basic column.  With p the pivot and f
    a row's entry in the pivot column, every other row becomes
    (a·p - f·b) / d, an exact division by Sylvester's identity (E. H.
    Bareiss, Math. Comp. 22, 1968), and p is the new denominator; all rows
    are negated when p < 0, so that it stays positive."""
    denominator = tableau[row][basis[row]]
    pivot_row = tableau[row]
    pivot = pivot_row[col]
    for i, current in enumerate(tableau):
        factor = current[col]
        if i == row or (not factor and pivot == denominator):
            continue
        if factor:
            tableau[i] = [
                (a * pivot - factor * b) // denominator for a, b in zip(current, pivot_row)
            ]
        else:
            tableau[i] = [a * pivot // denominator for a in current]
    if pivot < 0:
        tableau[:] = [[-a for a in current] for current in tableau]
    basis[row] = col


def _denominator(tableau: list[list[int]], basis: list[int]) -> int:
    return tableau[0][basis[0]] if basis else 1


def _cost_row(tableau: list[list[int]], basis: list[int], costs: list[int]) -> list[int]:
    """The reduced costs d·c - c_B·M of integer `costs` (one per column) on
    the constraint rows M, and -d·(c_B·x_B) in the rhs column."""
    reduced = [_denominator(tableau, basis) * c for c in costs] + [0]
    for current, column in zip(tableau, basis):
        cost = costs[column]
        if cost:
            reduced = [r - cost * a for r, a in zip(reduced, current)]
    return reduced


def _iterate(tableau: list[list[int]], basis: list[int], allowed: int) -> str:
    """Run simplex to optimality on the constraint rows and the reduced-cost
    row last in `tableau`; entering columns restricted to j < allowed.

    Dantzig's rule enters on the most negative reduced cost, the smallest
    index among ties.  A degenerate pivot (a zero ratio) leaves the
    objective where it was, so Dantzig's rule can cycle; after
    `DEGENERATE_LIMIT` of them the run switches for good to Bland's rule
    (the smallest eligible entering index), which terminates.  Both leave
    on the least ratio, the smallest basis index among ties.  Reduced costs
    and ratios share the denominator d, so they compare as integers, the
    ratios by cross-multiplication.
    """
    rows = range(len(basis))
    degenerate = 0
    while True:
        reduced = tableau[-1]
        if degenerate < DEGENERATE_LIMIT:
            least = min(reduced[:allowed], default=0)
            entering = reduced.index(least) if least < 0 else -1
        else:
            entering = next((j for j in range(allowed) if reduced[j] < 0), -1)
        if entering < 0:
            return "optimal"
        leaving = -1
        for i in rows:
            coeff = tableau[i][entering]
            if coeff > 0:
                if leaving < 0:
                    leaving = i
                    continue
                here = tableau[i][-1] * tableau[leaving][entering]
                best = tableau[leaving][-1] * coeff
                if here < best or (here == best and basis[i] < basis[leaving]):
                    leaving = i
        if leaving < 0:
            return "unbounded"
        if not tableau[leaving][-1]:
            degenerate += 1
        _pivot(tableau, basis, leaving, entering)


def _integers(values: Sequence, sign: int = 1) -> tuple[int, list[int]]:
    """(s, sign·s·values): s = 1 for ints, else the lcm of the denominators."""
    if set(map(type, values)) == {int}:
        return 1, list(values) if sign > 0 else [-v for v in values]
    scale = lcm(*(v.denominator for v in values))
    return scale, [sign * v.numerator * (scale // v.denominator) for v in values]


def simplex_minimize(
    matrix: Sequence[Vector],
    rhs: Vector,
    costs: Vector,
    *,
    multipliers: bool = False,
    further: Sequence[Vector] = (),
) -> tuple:
    """Minimize costs·x subject to matrix·x = rhs, x >= 0, over entries that
    are `Fraction`s or ints.

    Returns (status, solution, objective) with status one of
    `optimal`, `infeasible`, `unbounded`.  With `multipliers`, a fourth
    entry holds one multiplier pi_i per row: at an optimum the duals
    (costs_j - pi·A_j >= 0 for every column j, and pi·rhs equals the
    objective); when infeasible a Farkas vector (pi·A_j <= 0 for every
    column j, and pi·rhs > 0); None when unbounded.  Each is in integer
    form, over the final tableau's denominator d: the solution (X, d)
    with x_j = X_j / d, the objective (T, d·c) with c the lcm of the
    costs' denominators, the duals (P, d·c), a Farkas vector (P, d·L).

    `further` holds more cost vectors over the same rows.  With it, the
    result is a list of such tuples, one per objective, `costs` first:
    phase 1 runs once, and each further objective starts its phase 2
    from the basis where the one before it ended.  An infeasible system
    gives its one result for every objective.

    Row i is negated when its rhs is negative (sign_i = -1) and scaled to
    integers by s_i, the lcm of its denominators (1 for a row of ints);
    the artificial columns stay the identity and artificial i costs L / s_i
    in phase 1, with L the lcm of all s_i.  That is the LP of unscaled
    artificials at cost 1 up to positive row, column and cost scalings, so
    the multipliers scale back exactly.  Artificial i's reduced cost scales
    by 1 / s_i, every other column's by the same factor, and Dantzig's
    choice depends on that; so an artificial that leaves the basis never
    re-enters (phase 1 enters original columns only, which still ends at
    a zero minimum exactly when the system is feasible).  The rules then
    choose the same pivots as on the unscaled LP.
    """
    m = len(matrix)
    n = len(costs)
    if any(len(other) != n for other in further):
        raise DimensionMismatch("cost vectors differ in length")
    tableau: list[list[int]] = []
    signs: list[int] = []
    scales: list[int] = []
    for i in range(m):
        row = [*matrix[i], rhs[i]]
        if len(row) != n + 1:
            raise DimensionMismatch("matrix row length does not match costs")
        sign = -1 if rhs[i] < 0 else 1
        scale, integers = _integers(row, sign)
        tableau.append(integers[:n] + [0] * m + integers[n:])
        tableau[i][n + i] = 1
        signs.append(sign)
        scales.append(scale)
    basis = list(range(n, n + m))
    common = lcm(*scales)
    weights = [common // s for s in scales]
    tableau.append(_cost_row(tableau, basis, [0] * n + weights))

    def result(status, solution=None, objective=None, pi=None):
        return (status, solution, objective, pi) if multipliers else (status, solution, objective)

    def row_multipliers(cost_scale: int, artificial_costs) -> Scaled:
        """pi_i = sign_i·s_i·(c'_{n+i} - r'_{n+i}) / cost_scale, from the
        reduced costs r' of the scaled artificial columns, over d·cost_scale."""
        denominator = _denominator(tableau, basis)
        reduced = tableau[-1]
        return [
            sign * scale * (cost * denominator - reduced[n + i])
            for i, (sign, scale, cost) in enumerate(zip(signs, scales, artificial_costs))
        ], denominator * cost_scale

    status = _iterate(tableau, basis, n)
    if status != "optimal":  # pragma: no cover - phase 1 is bounded below
        return result("unbounded")
    if any(tableau[i][-1] for i in range(m) if basis[i] >= n):
        farkas = row_multipliers(common, weights) if multipliers else None
        infeasible = result("infeasible", pi=farkas)
        return [infeasible] * (1 + len(further)) if further else infeasible
    tableau.pop()
    # Drive remaining zero-value artificials out of the basis when possible.
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if tableau[i][j] != 0:
                    _pivot(tableau, basis, i, j)
                    break
    results = []
    for objective_costs in (costs, *further):
        cost_scale, scaled_costs = _integers(objective_costs)
        tableau.append(_cost_row(tableau, basis, scaled_costs + [0] * m))
        if _iterate(tableau, basis, n) == "unbounded":
            results.append(result("unbounded"))
        else:
            denominator = _denominator(tableau, basis)
            solution = [0] * n
            for i in range(m):
                if basis[i] < n:
                    solution[basis[i]] = tableau[i][-1]
            objective = (-tableau[-1][-1], denominator * cost_scale)
            duals = row_multipliers(cost_scale, [0] * m) if multipliers else None
            results.append(result("optimal", (solution, denominator), objective, duals))
        tableau.pop()
    return results if further else results[0]


def certified_minimum(
    matrix: Sequence[Vector], rhs: Vector, costs: Vector, *, further: Sequence[Vector] = ()
) -> list[tuple[Fraction, Scaled, Scaled]] | None:
    """The minimum of costs·x over matrix·x = rhs, x >= 0, and of each
    cost vector of `further` over the same rows, for an LP known to have
    one when it is feasible: one (objective, multipliers, solution) per
    objective, `costs` first, with the row multipliers pi as (P, e) and
    the solution as (X, d); None when the rows have no solution.  The
    objectives share one `simplex_minimize` system.  Each optimum is
    re-checked exactly with its own multipliers: the solution is feasible
    and attains the objective, every reduced cost costs_j - pi·A_j is
    >= 0, and pi·rhs equals the objective, so no feasible x does better.
    Anything else raises `InternalError`.

    The checks run on integers: the simplex's numerators as they come, and
    each row with its rhs, and the costs, times the lcm of their own."""
    results = simplex_minimize(matrix, rhs, costs, multipliers=True, further=further)
    if not further:
        results = [results]
    if results[0][0] == "infeasible":
        return None
    n = len(costs)
    rows = [_integers([*row, b]) for row, b in zip(matrix, rhs)]
    # Dual: pi = P / pi_scale; row i enters the combination as
    # P_i·(common / s_i) times its integer form, which is
    # pi_scale·common·(pi·A_j) in column j and pi_scale·common·(pi·rhs)
    # in the rhs column.
    common = lcm(*(scale for scale, _ in rows))
    certified = []
    for objective_costs, (status, solution, objective, pi) in zip((costs, *further), results):
        if status != "optimal":
            raise InternalError(f"an LP with a known optimum ended {status}")
        cost_scale, integer_costs = _integers(objective_costs)
        (x, x_scale), (value, value_scale), (duals, pi_scale) = solution, objective, pi
        # Primal: x = X / x_scale, with only the nonzero entries of X.
        support = [(j, v) for j, v in enumerate(x) if v]
        combination = [0] * (n + 1)
        for numerator, (scale, row) in zip(duals, rows):
            if numerator:
                factor = numerator * (common // scale)
                combination = [c + factor * a for c, a in zip(combination, row)]
        dual_scale = pi_scale * common
        if (
            min(x_scale, value_scale, pi_scale) <= 0
            or any(v < 0 for _, v in support)
            or any(sum(row[j] * v for j, v in support) != row[n] * x_scale for _, row in rows)
            or sum(integer_costs[j] * v for j, v in support) * value_scale
            != value * cost_scale * x_scale
            or any(dual_scale * c < cost_scale * v for c, v in zip(integer_costs, combination))
            or combination[n] * value_scale != value * dual_scale
        ):
            raise InternalError("an LP optimum fails its exact re-check")
        certified.append((Fraction(value, value_scale), pi, solution))
    return certified


def convex_combination(points: Sequence[Vector], target: Vector, *, separate: bool = False):
    """Weights expressing `target` as a convex combination of `points`,
    as (W, d) with weight h equal to W_h / d, or None when `target` lies
    outside their convex hull.  Exact.

    With `separate`, the result is a pair (weights, separator) of which
    one is None: a target outside the hull comes with the integer pair
    (s, t), s·p + t <= 0 at every point p and s·target + t > 0, the
    numerators of the Farkas vector of the same LP.  Weights and separator
    are re-checked exactly, on those integers."""
    if not points:
        return (None, ((0,) * len(target), 1)) if separate else None
    dim = len(target)
    if set(map(len, points)) != {dim}:
        raise DimensionMismatch("point dimension does not match target")
    count = len(points)
    matrix = [*zip(*points), [1] * count]
    rhs = [*target, 1]
    costs = [0] * count
    if separate:
        status, solution, _, pi = simplex_minimize(matrix, rhs, costs, multipliers=True)
    else:
        status, solution, _ = simplex_minimize(matrix, rhs, costs)
    if status != "optimal":  # infeasible: the hull LP is bounded
        if not separate:
            return None
        # Farkas: P·(p, 1) <= 0 at every point and P·(target, 1) > 0.
        farkas, _ = pi
        separator = (tuple(farkas[:dim]), farkas[dim])
        check_separator(points, target, separator)
        return None, separator
    # Exact re-verification of the certificate; the zero weights add
    # nothing to the sum or to the target.
    weights, scale = solution
    weighted = [(w, p) for w, p in zip(weights, points) if w]
    if (
        scale <= 0
        or any(w < 0 for w, _ in weighted)
        or sum(w for w, _ in weighted) != scale
        or any(sum(w * p[d] for w, p in weighted) != scale * target[d] for d in range(dim))
    ):
        raise InternalError("hull weights fail their exact re-check")
    return (solution, None) if separate else solution


def check_separator(
    points: Sequence[Vector], target: Vector, separator: tuple[Vector, Fraction]
) -> None:
    """Re-check a separator (s, t) of `target` from `points` exactly, in
    ints or `Fraction`s: s·p + t <= 0 at every point and s·target + t > 0;
    `InternalError` otherwise."""
    slopes, offset = separator
    if any(sum(map(mul, slopes, p)) + offset > 0 for p in points) or (
        sum(map(mul, slopes, target)) + offset <= 0
    ):
        raise InternalError("the separator of an infeasible hull fails its exact re-check")


def best_uniform_gain(
    deviations: Sequence[Vector], *, scales: Sequence[int] = ()
) -> tuple[Fraction, list[Fraction]]:
    """The largest e such that stakes·d_h >= e for every deviation vector
    d_h, with each stake in [-1, 1], and stakes that attain it.  With
    `scales`, the deviations are integer vectors: coordinate i holds the
    deviation times scales[i] = D_i.

    Solved as its LP dual, the hull system with L1 slack: weights l_h >= 0
    summing to 1 and slacks r+, r- >= 0 with sum_h l_h·d_h + r+ - r- = 0,
    minimizing sum(r+ + r-), i.e. the L1 distance from the origin to the
    hull of the d_h.  Every row is taken times L, the lcm of the D_i (1
    without `scales`), so integer deviations enter as the integers
    (L / D_i)·D_i·d_h,i, and the system is L times the one in the
    deviations' own units: the same LP up to one positive factor, which
    takes the same pivots.  Its n + 1 row multipliers pi = P / e are
    re-checked by `certified_minimum`; the stakes are -L·pi over the n
    member rows, re-checked as -L·P over e and returned as `Fraction`s.
    Dual feasibility is exactly the unit stake bounds and stakes·d_h >= e,
    and pi·rhs = e proves that no stakes do better.  The optimum is >= 0;
    it is strictly positive exactly when the origin lies outside the hull,
    i.e. when no convex combination of the underlying points reproduces
    the assessment.
    """
    if not deviations:
        raise DimensionMismatch("no deviation vectors")
    n = len(deviations[0])
    m = len(deviations)
    common = lcm(*scales) if scales else 1
    if scales:
        factors = [common // s for s in scales]
        deviations = [[f * v for f, v in zip(factors, d)] for d in deviations]
    # Columns: l_h (m), r+_i (n), r-_i (n).  Rows: one per member, then sum l = 1.
    matrix = [
        [d[i] for d in deviations]
        + [common * (k == i) for k in range(n)]
        + [-common * (k == i) for k in range(n)]
        for i in range(n)
    ]
    matrix.append([common] * m + [0] * (2 * n))
    rhs = [0] * n + [common]
    costs = [0] * m + [1] * (2 * n)
    # Feasible: any weights, with their slacks, solve the rows.
    [(epsilon, (duals, scale), _)] = certified_minimum(matrix, rhs, costs)
    # Exact re-verification of the certificate, on integers: the stakes
    # -L·P over e, and each row's deviations L·d_h times the lcm of their
    # denominators.
    stakes = [-common * p for p in duals[:n]]
    if any(abs(s) > scale for s in stakes) or any(
        sum(map(mul, stakes, d)) * epsilon.denominator
        < epsilon.numerator * scale * common * d_scale
        for d_scale, d in map(_integers, deviations)
    ):
        raise InternalError("stakes fail their exact re-check")
    return epsilon, [Fraction(s, scale) for s in stakes]
