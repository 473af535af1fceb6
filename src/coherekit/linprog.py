"""Exact linear programming over rationals.

A small two-phase simplex with Bland's rule, sized for the tiny systems
this package produces (tens of variables).  Everything is `Fraction`:
feasibility verdicts here decide coherence, and coherence is sensitive to
exact boundary cases, so floating point is never used.  The row
multipliers read off the final tableau certify what the simplex reports:
duals for an optimum, a Farkas vector for an infeasible system; both are
re-checked exactly by the callers that rely on them.  The Dutch-book stake
problem is solved as its dual, a hull system with L1 slack, through
`certified_minimum`: the stakes are its multipliers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import DimensionMismatch, InternalError

Vector = Sequence[Fraction]


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    pivot = tableau[row][col]
    tableau[row] = [v / pivot for v in tableau[row]]
    for i, current in enumerate(tableau):
        if i != row and current[col] != 0:
            factor = current[col]
            pivot_row = tableau[row]
            tableau[i] = [a - factor * b for a, b in zip(current, pivot_row)]
    basis[row] = col


def _iterate(
    tableau: list[list[Fraction]],
    basis: list[int],
    costs: list[Fraction],
    allowed: int,
) -> str:
    """Run simplex to optimality; entering columns restricted to j < allowed.

    Bland's rule (smallest eligible entering index, smallest basis index on
    ratio ties) guarantees termination on degenerate tableaus.
    """
    m = len(tableau)
    while True:
        basis_costs = [costs[basis[i]] for i in range(m)]
        entering = -1
        for j in range(allowed):
            reduced = costs[j] - sum(
                basis_costs[i] * tableau[i][j] for i in range(m) if tableau[i][j]
            )
            if reduced < 0:
                entering = j
                break
        if entering < 0:
            return "optimal"
        leaving = -1
        best: Optional[Fraction] = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leaving])
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return "unbounded"
        _pivot(tableau, basis, leaving, entering)


def _row_multipliers(
    tableau: list[list[Fraction]], basis: list[int], costs: list[Fraction], signs: list[int]
) -> list[Fraction]:
    """pi = c_B B^-1, with B^-1 read from the artificial columns of the
    tableau, mapped back to the rows as given (un-negated)."""
    m, n = len(basis), len(costs) - len(basis)
    return [
        signs[i] * sum(costs[basis[k]] * tableau[k][n + i] for k in range(m) if tableau[k][n + i])
        for i in range(m)
    ]


def simplex_minimize(
    matrix: Sequence[Vector], rhs: Vector, costs: Vector, *, multipliers: bool = False
) -> tuple:
    """Minimize costs·x subject to matrix·x = rhs, x >= 0.

    Returns (status, solution, objective) with status one of
    `optimal`, `infeasible`, `unbounded`.  With `multipliers`, a fourth
    entry holds one multiplier pi_i per row: at an optimum the duals
    (costs_j - pi·A_j >= 0 for every column j, and pi·rhs equals the
    objective); when infeasible a Farkas vector (pi·A_j <= 0 for every
    column j, and pi·rhs > 0); None when unbounded.
    """
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

    status = _iterate(tableau, basis, phase1, n + m)
    if status != "optimal":  # pragma: no cover - phase 1 is bounded below
        return result("unbounded")
    infeasibility = sum(
        tableau[i][-1] for i in range(m) if basis[i] >= n
    )
    if infeasibility > 0:
        farkas = _row_multipliers(tableau, basis, phase1, signs) if multipliers else None
        return result("infeasible", pi=farkas)
    # Drive remaining zero-value artificials out of the basis when possible.
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if tableau[i][j] != 0:
                    _pivot(tableau, basis, i, j)
                    break
    phase2 = [Fraction(v) for v in costs] + [Fraction(0)] * m
    status = _iterate(tableau, basis, phase2, n)
    if status == "unbounded":
        return result("unbounded")
    solution = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            solution[basis[i]] = tableau[i][-1]
    objective = sum(Fraction(costs[j]) * solution[j] for j in range(n))
    duals = _row_multipliers(tableau, basis, phase2, signs) if multipliers else None
    return result("optimal", solution, objective, duals)


def certified_minimum(
    matrix: Sequence[Vector], rhs: Vector, costs: Vector
) -> tuple[Fraction, list[Fraction]]:
    """The minimum of costs·x over matrix·x = rhs, x >= 0, for an LP known
    to have one, and its row multipliers pi.  The optimum is re-checked
    exactly with them: the solution is feasible and attains the objective,
    every reduced cost costs_j - pi·A_j is >= 0, and pi·rhs equals the
    objective, so no feasible x does better.  Anything else raises
    `InternalError`."""
    status, solution, objective, pi = simplex_minimize(matrix, rhs, costs, multipliers=True)
    if status != "optimal":
        raise InternalError(f"an LP with a known optimum ended {status}")
    columns = range(len(costs))
    if (
        any(x < 0 for x in solution)
        or any(sum(row[j] * solution[j] for j in columns) != b for row, b in zip(matrix, rhs))
        or sum(costs[j] * solution[j] for j in columns) != objective
        or any(costs[j] - sum(p * row[j] for p, row in zip(pi, matrix)) < 0 for j in columns)
        or sum(p * b for p, b in zip(pi, rhs)) != objective
    ):
        raise InternalError("an LP optimum fails its exact re-check")
    return objective, pi


def convex_combination(
    points: Sequence[Vector],
    target: Vector,
    favoured: Sequence[int] = (),
    *,
    separate: bool = False,
):
    """Weights expressing `target` as a convex combination of `points`,
    or None when `target` lies outside their convex hull.  Exact.  Among
    all such weights, those returned maximise the total weight on the
    points indexed by `favoured`.

    With `separate`, the result is a pair (weights, separator) of which
    one is None: a target outside the hull comes with the pair (s, t),
    s·p + t <= 0 at every point p and s·target + t > 0, read off phase 1
    of the same LP.  Weights and separator are re-checked exactly."""
    if not points:
        return (None, ((Fraction(0),) * len(target), Fraction(1))) if separate else None
    dim = len(target)
    for p in points:
        if len(p) != dim:
            raise DimensionMismatch("point dimension does not match target")
    count = len(points)
    matrix = [[Fraction(points[h][d]) for h in range(count)] for d in range(dim)]
    matrix.append([Fraction(1)] * count)
    rhs = [Fraction(v) for v in target] + [Fraction(1)]
    costs = [Fraction(0)] * count
    for h in favoured:
        costs[h] = Fraction(-1)
    if separate:
        status, solution, _, pi = simplex_minimize(matrix, rhs, costs, multipliers=True)
    else:
        status, solution, _ = simplex_minimize(matrix, rhs, costs)
    if status != "optimal":  # infeasible: the hull LP is bounded
        if not separate:
            return None
        # Farkas: pi·(p, 1) <= 0 at every point and pi·(target, 1) > 0.
        slopes, offset = tuple(pi[:dim]), pi[dim]
        if any(sum(s * Fraction(v) for s, v in zip(slopes, p)) + offset > 0 for p in points) or (
            sum(s * v for s, v in zip(slopes, rhs)) + offset <= 0
        ):
            raise InternalError("the separator of an infeasible hull fails its exact re-check")
        return None, (slopes, offset)
    # Exact re-verification of the certificate.
    if solution is None or any(w < 0 for w in solution) or sum(solution) != 1 or any(
        sum(w * Fraction(p[d]) for w, p in zip(solution, points)) != Fraction(target[d])
        for d in range(dim)
    ):
        raise InternalError("hull weights fail their exact re-check")
    return (solution, None) if separate else solution


def best_uniform_gain(
    deviations: Sequence[Vector],
) -> tuple[Fraction, list[Fraction]]:
    """The largest e such that stakes·d_h >= e for every deviation vector
    d_h, with each stake in [-1, 1], and stakes that attain it.

    Solved as its LP dual, the hull system with L1 slack: weights l_h >= 0
    summing to 1 and slacks r+, r- >= 0 with sum_h l_h·d_h + r+ - r- = 0,
    minimizing sum(r+ + r-), i.e. the L1 distance from the origin to the
    hull of the d_h.  Its n + 1 row multipliers pi are re-checked by
    `certified_minimum`; the stakes are -pi over the n member rows.  Dual
    feasibility is exactly the unit stake bounds and stakes·d_h >= e, and
    pi·rhs = e proves that no stakes do better.  The optimum is >= 0; it
    is strictly positive exactly when the origin lies outside the hull,
    i.e. when no convex combination of the underlying points reproduces
    the assessment.
    """
    if not deviations:
        raise DimensionMismatch("no deviation vectors")
    n = len(deviations[0])
    m = len(deviations)
    # Columns: l_h (m), r+_i (n), r-_i (n).  Rows: one per member, then sum l = 1.
    matrix = [
        [Fraction(d[i]) for d in deviations]
        + [Fraction(int(k == i)) for k in range(n)]
        + [Fraction(-int(k == i)) for k in range(n)]
        for i in range(n)
    ]
    matrix.append([Fraction(1)] * m + [Fraction(0)] * (2 * n))
    rhs = [Fraction(0)] * n + [Fraction(1)]
    costs = [Fraction(0)] * m + [Fraction(1)] * (2 * n)
    epsilon, pi = certified_minimum(matrix, rhs, costs)
    stakes = [-p for p in pi[:n]]
    # Exact re-verification of the certificate.
    if any(not -1 <= s <= 1 for s in stakes) or any(
        sum(s * Fraction(d[i]) for i, s in enumerate(stakes)) < epsilon for d in deviations
    ):
        raise InternalError("stakes fail their exact re-check")
    return epsilon, stakes
