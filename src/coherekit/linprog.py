"""Exact linear programming over rationals.

A small two-phase simplex with Bland's rule, sized for the tiny systems
this package produces (tens of variables).  Everything is `Fraction`:
feasibility verdicts here decide coherence, and coherence is sensitive to
exact boundary cases, so floating point is never used.
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


def simplex_minimize(
    matrix: Sequence[Vector], rhs: Vector, costs: Vector
) -> tuple[str, Optional[list[Fraction]], Optional[Fraction]]:
    """Minimize costs·x subject to matrix·x = rhs, x >= 0.

    Returns (status, solution, objective) with status one of
    `optimal`, `infeasible`, `unbounded`.
    """
    m = len(matrix)
    n = len(costs)
    tableau: list[list[Fraction]] = []
    for i in range(m):
        row = [Fraction(v) for v in matrix[i]]
        if len(row) != n:
            raise DimensionMismatch("matrix row length does not match costs")
        value = Fraction(rhs[i])
        if value < 0:
            row = [-v for v in row]
            value = -value
        tableau.append(row + [Fraction(0)] * m + [value])
    for i in range(m):
        tableau[i][n + i] = Fraction(1)
    basis = list(range(n, n + m))
    phase1 = [Fraction(0)] * n + [Fraction(1)] * m
    status = _iterate(tableau, basis, phase1, n + m)
    if status != "optimal":  # pragma: no cover - phase 1 is bounded below
        return ("unbounded", None, None)
    infeasibility = sum(
        tableau[i][-1] for i in range(m) if basis[i] >= n
    )
    if infeasibility > 0:
        return ("infeasible", None, None)
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
        return ("unbounded", None, None)
    solution = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            solution[basis[i]] = tableau[i][-1]
    objective = sum(Fraction(costs[j]) * solution[j] for j in range(n))
    return ("optimal", solution, objective)


def convex_combination(
    points: Sequence[Vector], target: Vector, favoured: Sequence[int] = ()
) -> Optional[list[Fraction]]:
    """Weights expressing `target` as a convex combination of `points`,
    or None when `target` lies outside their convex hull.  Exact.  Among
    all such weights, those returned maximise the total weight on the
    points indexed by `favoured`."""
    if not points:
        return None
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
    status, solution, _ = simplex_minimize(matrix, rhs, costs)
    if status != "optimal":
        return None
    # Exact re-verification of the certificate.
    if solution is None or any(w < 0 for w in solution) or sum(solution) != 1 or any(
        sum(w * Fraction(p[d]) for w, p in zip(solution, points)) != Fraction(target[d])
        for d in range(dim)
    ):
        raise InternalError("hull weights fail their exact re-check")
    return solution


def best_uniform_gain(
    deviations: Sequence[Vector],
) -> tuple[Fraction, list[Fraction]]:
    """Maximize e such that stakes·d_h >= e for every deviation vector d_h,
    with each stake in [-1, 1].

    The optimum is always >= 0 (zero stakes give zero gain); it is strictly
    positive exactly when the origin-side target is separable from the
    deviation vectors, i.e. when no convex combination of the underlying
    points reproduces the assessment.
    """
    if not deviations:
        raise DimensionMismatch("no deviation vectors")
    n = len(deviations[0])
    m = len(deviations)
    # Columns: p_i (n), q_i (n), e (1), surplus t_h (m), slack u_i (n), slack v_i (n)
    cols = 2 * n + 1 + m + 2 * n
    matrix: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for h in range(m):
        row = [Fraction(0)] * cols
        for i in range(n):
            row[i] = Fraction(deviations[h][i])
            row[n + i] = -Fraction(deviations[h][i])
        row[2 * n] = Fraction(-1)
        row[2 * n + 1 + h] = Fraction(-1)
        matrix.append(row)
        rhs.append(Fraction(0))
    for i in range(n):
        row = [Fraction(0)] * cols
        row[i] = Fraction(1)
        row[2 * n + 1 + m + i] = Fraction(1)
        matrix.append(row)
        rhs.append(Fraction(1))
        row = [Fraction(0)] * cols
        row[n + i] = Fraction(1)
        row[2 * n + 1 + m + n + i] = Fraction(1)
        matrix.append(row)
        rhs.append(Fraction(1))
    costs = [Fraction(0)] * cols
    costs[2 * n] = Fraction(-1)  # maximize e
    status, solution, _ = simplex_minimize(matrix, rhs, costs)
    if status != "optimal" or solution is None:  # pragma: no cover - bounded and feasible
        raise InternalError(f"stake search ended with status {status}")
    stakes = [solution[i] - solution[n + i] for i in range(n)]
    epsilon = solution[2 * n]
    # Exact re-verification of the certificate.
    if any(not -1 <= s <= 1 for s in stakes) or any(
        sum(stakes[i] * Fraction(deviations[h][i]) for i in range(n)) < epsilon
        for h in range(m)
    ):
        raise InternalError("stakes fail their exact re-check")
    return epsilon, stakes
