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
a strictly positive optimum.  It never consults a hull system, so its
verdict is independent of `check_coherence`.
"""

from typing import Iterable, Optional

from coherekit.coherence import (
    Assessment,
    CoherenceResult,
    DutchBook,
    build_points,
    solve_sigma,
    subsets_by_size,
)
from coherekit.errors import EmptySupport
from coherekit.linprog import best_uniform_gain


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
