"""Independent reference implementations the library is tested against.

`exhaustive_coherence` is the all-subfamilies test that `check_coherence`
ran before the level algorithm: solve the hull system of every
subfamily, smallest first, and report the first one outside its hull.
It is built from `build_points` and `solve_sigma` alone, so it never
touches the level code.

`exhaustive_dutch_book` is the betting-scheme search that `find_dutch_book`
used before it solved one stake LP on the hull witness: for every
subfamily, smallest first, maximize the worst-case gain over its live
worlds subject to unit stake bounds, and report the first subfamily with
a strictly positive optimum.  Its stake LP is the same `best_uniform_gain`
that `find_dutch_book` solves, but it never calls `convex_combination` or
the level code, so its verdict is independent of `check_coherence`; the
epsilon of that LP is checked against `primal_uniform_gain` on random
deviation vectors in `test_linprog.py`.

`primal_uniform_gain` is the stake LP as `best_uniform_gain` solved it
before it read the stakes off the multipliers of the hull system: the
primal over the stakes themselves, split into positive and negative
parts, with a surplus column per deviation vector and a slack per stake
bound.
"""

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from coherekit.coherence import (
    Assessment,
    CoherenceResult,
    DutchBook,
    build_points,
    solve_sigma,
    subsets_by_size,
)
from coherekit.errors import EmptySupport
from coherekit.linprog import best_uniform_gain, simplex_minimize


def exhaustive_coherence(
    assessment: Assessment, subsets: Optional[Iterable[tuple[int, ...]]] = None
) -> CoherenceResult:
    """The first of `subsets` (default: all, smallest first) whose hull
    system has no solution, as the witness of an incoherent result."""
    if subsets is None:
        subsets = subsets_by_size(len(assessment))
    for subset in subsets:
        try:
            table = build_points(assessment, subset)
        except EmptySupport:
            continue
        if solve_sigma(table) is None:
            return CoherenceResult(False, subset)
    return CoherenceResult(True)


def exhaustive_dutch_book(assessment: Assessment) -> Optional[DutchBook]:
    for subset in subsets_by_size(len(assessment)):
        try:
            table = build_points(assessment, subset)
        except EmptySupport:
            continue
        deviations = [
            tuple(value - prevision for value, prevision in zip(point, table.previsions))
            for point in table.points
        ]
        epsilon, stakes = best_uniform_gain(deviations)
        if epsilon > 0:
            return DutchBook(subset, tuple(stakes), epsilon)
    return None


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
    status, solution, _ = simplex_minimize(matrix, rhs, costs)
    assert status == "optimal", status
    return solution[2 * n], [solution[i] - solution[n + i] for i in range(n)]
