"""Exact simplex: feasibility, optimization, and hull/separation duality."""

import random
from fractions import Fraction

import pytest

from coherekit import linprog
from coherekit.errors import DimensionMismatch, InternalError
from coherekit.linprog import (
    best_uniform_gain,
    certified_minimum,
    convex_combination,
    simplex_minimize,
)
import oracles
from oracles import fraction_form, fraction_simplex, integer_form, primal_uniform_gain

F = Fraction


def test_simplex_basic_minimum():
    # min x + y  s.t.  x + 2y = 4, 3x + 2y = 8, x,y >= 0  -> (2,1), obj 3
    status, sol, obj = fraction_form(
        simplex_minimize([[F(1), F(2)], [F(3), F(2)]], [F(4), F(8)], [F(1), F(1)])
    )
    assert status == "optimal"
    assert sol == [F(2), F(1)]
    assert obj == 3


def test_simplex_infeasible():
    # x = 1 and x = 2 cannot both hold
    status, _, _ = simplex_minimize([[F(1)], [F(1)]], [F(1), F(2)], [F(0)])
    assert status == "infeasible"


def test_simplex_negative_rhs_normalized():
    # -x = -3 -> x = 3
    status, sol, _ = fraction_form(simplex_minimize([[F(-1)]], [F(-3)], [F(1)]))
    assert status == "optimal"
    assert sol == [F(3)]


def test_simplex_unbounded():
    # min -x s.t. x - y = 0 (x = y can grow without bound)
    status, _, _ = simplex_minimize([[F(1), F(-1)]], [F(0)], [F(-1), F(0)])
    assert status == "unbounded"


def test_rank_deficient_rows_drive_out_on_a_negative_pivot(monkeypatch):
    """x + y = 1 twice and negated, x - y = 1: rank 2 in four rows, so
    artificials stay basic at zero after phase 1, and one is driven out on
    a negative pivot, after which the tableau is negated to keep its
    denominator positive."""
    matrix = [[F(1), F(1)], [F(1), F(1)], [F(-1), F(-1)], [F(1), F(-1)]]
    rhs = [F(1), F(1), F(-1), F(1)]
    costs = [F(1), F(1)]
    positive = []
    pivot = linprog._pivot

    def recording(tableau, basis, row, col):
        positive.append(tableau[row][col] > 0)
        pivot(tableau, basis, row, col)

    monkeypatch.setattr(linprog, "_pivot", recording)
    result = fraction_form(simplex_minimize(matrix, rhs, costs, multipliers=True))
    assert False in positive
    assert result == fraction_simplex(matrix, rhs, costs, multipliers=True)
    status, solution, objective, _ = result
    assert (status, solution, objective) == ("optimal", [F(1), F(0)], F(1))
    assert all(sum(a * x for a, x in zip(row, solution)) == b for row, b in zip(matrix, rhs))
    assert certified_minimum(matrix, rhs, costs)[0][0] == objective


def test_large_prime_denominators_match_the_fraction_tableau():
    """Row scales near 10^18 and a common denominator across three of them."""
    matrix = [
        [F(1, 999983), F(2, 999979), F(-3, 999961), F(1, 3)],
        [F(1), F(1), F(1), F(1)],
        [F(5, 7), F(-1, 999983), F(1, 2), F(0)],
    ]
    rhs = [F(1, 999961), F(1), F(1, 3)]
    costs = [F(1, 999979), F(-1, 3), F(2, 999983), F(-1, 999961)]
    result = simplex_minimize(matrix, rhs, costs, multipliers=True)
    assert result[0] == "optimal"
    assert fraction_form(result) == fraction_simplex(matrix, rhs, costs, multipliers=True)
    expected = [(fraction_form(result)[2], result[3], result[1])]
    assert certified_minimum(matrix, rhs, costs) == expected


# Beale's LP (Math. Programming, 1955), on which Dantzig's rule cycles,
# embedded so that phase 2 starts in its cycling basis: the first three
# columns are Beale's slacks; the fourth row, at rhs 0, turns the phase-1
# reduced costs into Beale's costs, and the last column keeps the system
# feasible.  Columns x1..x8, rows:
#   x1 + x4/4 - 8 x5 - x6 + 9 x7 - 2 x8 = 0
#   x2 + x4/2 - 12 x5 - x6/2 + 3 x7 - 2 x8 = 0
#   2 x3 + 2 x6 = 2
#   -x1 - x2 - 2 x3 - 18 x7 + 2 x8 = 0
BEALE = (
    [
        [F(1), F(0), F(0), F(1, 4), F(-8), F(-1), F(9), F(-2)],
        [F(0), F(1), F(0), F(1, 2), F(-12), F(-1, 2), F(3), F(-2)],
        [F(0), F(0), F(2), F(0), F(0), F(2), F(0), F(0)],
        [F(-1), F(-1), F(-2), F(0), F(0), F(0), F(-18), F(2)],
    ],
    [F(0), F(0), F(2), F(0)],
    [F(0), F(0), F(0), F(-3, 4), F(20), F(-1, 2), F(6), F(5)],
)


def _pivots(monkeypatch, lp, limit=None):
    """simplex_minimize's result on `lp` and its pivots (row, column), or
    None for the result when they pass 100 (a cycle)."""
    if limit is not None:
        monkeypatch.setattr(linprog, "DEGENERATE_LIMIT", limit)
    path = []
    pivot = linprog._pivot

    class Cycled(Exception):
        pass

    def recording(tableau, basis, row, col):
        path.append((row, col))
        if len(path) > 100:
            raise Cycled
        pivot(tableau, basis, row, col)

    monkeypatch.setattr(linprog, "_pivot", recording)
    try:
        return fraction_form(simplex_minimize(*lp, multipliers=True)), path
    except Cycled:
        return None, path


def test_dantzig_rule_cycles_on_beale_without_the_fallback(monkeypatch):
    result, path = _pivots(monkeypatch, BEALE, limit=10**9)
    assert result is None
    assert path[6:12] == path[:6]  # x4, x5, x6, x7, x1, x2 enter, and again


def test_bland_fallback_ends_beale_at_its_optimum(monkeypatch):
    """After DEGENERATE_LIMIT degenerate pivots the rule switches to
    Bland's and ends at the optimum 1/4, certified by its duals; the
    `Fraction` tableau takes the same path."""
    result, path = _pivots(monkeypatch, BEALE)
    assert linprog.DEGENERATE_LIMIT < len(path) <= 100
    status, solution, objective, _ = result
    assert (status, objective) == ("optimal", F(1, 4))
    assert solution == [F(3, 2), 0, 0, 4, 0, 1, 0, F(3, 4)]
    monkeypatch.undo()
    assert certified_minimum(*BEALE)[0][0] == objective
    oracle_path = []
    pivot = oracles._fraction_pivot

    def recording(tableau, basis, row, col):
        oracle_path.append((row, col))
        pivot(tableau, basis, row, col)

    monkeypatch.setattr(oracles, "_fraction_pivot", recording)
    assert result == fraction_simplex(*BEALE, multipliers=True)
    assert oracle_path == path


def test_convex_combination_inside_triangle():
    points = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
    weights, scale = convex_combination(points, (F(1, 4), F(1, 4)))
    assert sum(weights) == scale


def test_convex_combination_on_vertex_and_edge():
    points = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
    assert convex_combination(points, (F(1), F(0))) is not None
    assert convex_combination(points, (F(1, 2), F(1, 2))) is not None


def test_convex_combination_outside():
    points = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
    assert convex_combination(points, (F(1), F(1))) is None
    assert convex_combination(points, (F(-1, 1000), F(0))) is None


def test_convex_combination_single_point():
    assert convex_combination([(F(3, 7),)], (F(3, 7),)) is not None
    assert convex_combination([(F(3, 7),)], (F(3, 7) + F(1, 10**9),)) is None


def test_hull_weights_that_miss_the_target_fail_the_recheck(monkeypatch):
    """Weights that are nonnegative and sum to 1 but put their mass on the
    wrong points do not reproduce the target."""
    real = linprog.simplex_minimize

    def reversed_weights(matrix, rhs, costs):
        status, solution, objective = fraction_form(real(matrix, rhs, costs))
        return integer_form((status, solution[::-1], objective))

    monkeypatch.setattr(linprog, "simplex_minimize", reversed_weights)
    with pytest.raises(InternalError):
        convex_combination([(F(0),), (F(1),)], (F(1, 4),))


def test_convex_combination_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        convex_combination([(F(1), F(2))], (F(1),))


def test_best_uniform_gain_simple():
    # Deviations from pricing an indicator at 2: payoffs {1,0} minus 2.
    epsilon, stakes = best_uniform_gain([(F(-1),), (F(-2),)])
    assert epsilon == 1
    assert stakes == [F(-1)]


def test_best_uniform_gain_zero_when_hull_contains_target():
    # payoffs {1, 0} priced at 1/2: no sure win
    epsilon, _ = best_uniform_gain([(F(1, 2),), (F(-1, 2),)])
    assert epsilon == 0


def test_hull_membership_and_separation_are_dual():
    """Randomized: target in hull  <=>  no uniformly positive gain."""
    rng = random.Random(7)
    for _ in range(120):
        dim = rng.randint(1, 3)
        count = rng.randint(1, 5)
        points = [
            tuple(F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(dim))
            for _ in range(count)
        ]
        target = tuple(F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(dim))
        weights = convex_combination(points, target)
        deviations = [
            tuple(p[d] - target[d] for d in range(dim)) for p in points
        ]
        epsilon, _ = best_uniform_gain(deviations)
        if weights is None:
            assert epsilon > 0
        else:
            assert epsilon == 0


def test_stakes_from_hull_duals_match_the_primal():
    """Randomized: the gain read off the hull system's optimum is the
    primal stake LP's, and the stakes read off its multipliers are bounded
    by 1 and attain it on every deviation vector."""
    rng = random.Random(8)
    for _ in range(120):
        dim = rng.randint(1, 4)
        count = rng.randint(1, 9)
        deviations = [
            tuple(F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(dim))
            for _ in range(count)
        ]
        epsilon, stakes = best_uniform_gain(deviations)
        assert epsilon == primal_uniform_gain(deviations)[0]
        assert all(abs(s) <= 1 for s in stakes)
        assert all(sum(s * v for s, v in zip(stakes, d)) >= epsilon for d in deviations)


def test_stake_lp_is_the_hull_system(monkeypatch):
    """n + 1 rows (one per member and the weights' sum) and m + 2n columns
    (one weight per deviation vector and two L1 slacks per member)."""
    shapes = []
    solve = linprog.simplex_minimize

    def recording(matrix, rhs, costs, **options):
        shapes.append((len(matrix), len(costs)))
        return solve(matrix, rhs, costs, **options)

    monkeypatch.setattr(linprog, "simplex_minimize", recording)
    best_uniform_gain([(F(-1), F(1, 2), F(0))] * 4 + [(F(1, 3), F(-2), F(1))])
    assert shapes == [(3 + 1, 5 + 2 * 3)]


# min x1/2 + x2/2 s.t. x1/2 - x2/2 = 0, x1/3 + x2/3 = 2/3: the optimum is
# x = (1, 1) with objective 1 and duals (0, 3/2).
SCALED_LP = ([[F(1, 2), F(-1, 2)], [F(1, 3), F(1, 3)]], [F(0), F(2, 3)], [F(1, 2), F(1, 2)])
# min 0 s.t. x1/2 + x2/2 = 1/2: every x on the segment is optimal, duals 0.
FLAT_LP = ([[F(1, 2), F(1, 2)]], [F(1, 2)], [F(0), F(0)])


def _tamper(monkeypatch, name, change):
    """Replace `linprog.<name>` by the real function with `change` applied
    to its result."""
    real = getattr(linprog, name)
    monkeypatch.setattr(linprog, name, lambda *args, **options: change(real(*args, **options)))


@pytest.mark.parametrize(
    "lp, change",
    [
        # (2, 0) keeps the objective and the second row but not the first.
        (SCALED_LP, lambda x, obj, pi: ([x[0] + 1, x[1] - 1], obj, pi)),
        # (2, -1) keeps the row and the objective.
        (FLAT_LP, lambda x, obj, pi: ([x[0] + x[1] + 1, F(-1)], obj, pi)),
        (SCALED_LP, lambda x, obj, pi: (x, obj + F(1, 5), pi)),
        # Objective 1/2 and duals (0, 3/4) that prove it; x costs 1.
        (SCALED_LP, lambda x, obj, pi: (x, obj - F(1, 2), [pi[0], pi[1] - F(3, 4)])),
        # pi = (1, 3/2) keeps pi·rhs; x1's reduced cost is -1/2.
        (SCALED_LP, lambda x, obj, pi: (x, obj, [pi[0] + 1, pi[1]])),
        # pi = (0, 3/4) keeps every reduced cost >= 0; pi·rhs = 1/2.
        (SCALED_LP, lambda x, obj, pi: (x, obj, [pi[0], pi[1] - F(3, 4)])),
    ],
    ids=[
        "infeasible-solution",
        "negative-solution",
        "objective",
        "objective-and-duals",
        "reduced-cost",
        "dual-objective",
    ],
)
def test_each_tampered_quantity_fails_the_integer_recheck(monkeypatch, lp, change):
    """`certified_minimum` re-checks the solution, the objective and the
    duals of an LP with fractional rows and costs; corrupting any one of
    them is an internal error."""
    certified_minimum(*lp)

    def tampered(result):
        status, solution, objective, pi = fraction_form(result)
        return integer_form((status, *change(solution, objective, pi)))

    _tamper(monkeypatch, "simplex_minimize", tampered)
    with pytest.raises(InternalError):
        certified_minimum(*lp)


def test_zero_denominators_fail_the_integer_recheck(monkeypatch):
    """Numerators all 0 over the denominator 0 satisfy every equation of a
    re-check once it is multiplied out, so denominators must be positive:
    such an LP solution, or such hull weights, are internal errors."""

    def zero(result):
        status, (numerators, _), *rest = result
        return (status, ([0] * len(numerators), 0), *rest)

    _tamper(monkeypatch, "simplex_minimize", zero)
    with pytest.raises(InternalError):
        certified_minimum(*SCALED_LP)
    with pytest.raises(InternalError):
        convex_combination([(F(0),), (F(1),)], (F(1, 4),))


def test_integer_deviations_give_the_fraction_stakes():
    """Randomized: deviations given as integers D_i·d_h,i with their
    scales D_i give the gain and the stakes of the same deviations as
    `Fraction`s, whose LP is the same up to one positive factor."""
    rng = random.Random(9)
    for _ in range(120):
        dim = rng.randint(1, 4)
        scales = [rng.choice([1, 2, 3, 4, 6, 8, 12]) for _ in range(dim)]
        integers = [
            tuple(rng.randint(-2 * s, 2 * s) for s in scales) for _ in range(rng.randint(1, 9))
        ]
        fractions = [tuple(F(v, s) for v, s in zip(d, scales)) for d in integers]
        assert best_uniform_gain(integers, scales=scales) == best_uniform_gain(fractions)


@pytest.mark.parametrize(
    "multiplier",
    [F(3, 2), F(1, 2)],
    ids=["stake-beyond-one", "stake-below-the-gain"],
)
def test_tampered_stake_fails_the_integer_recheck(monkeypatch, multiplier):
    """Against deviations -1/3 and -2/3 the best stake is -1, with gain
    1/3.  A certified optimum that reports the stake -3/2 breaks its unit
    bound, and one that reports -1/2 wins only 1/6 on the first vector:
    both are internal errors."""
    deviations = [(F(-1, 3),), (F(-2, 3),)]
    assert best_uniform_gain(deviations) == (F(1, 3), [F(-1)])

    def tampered(result):
        [(objective, pi, solution)] = result
        _, pi = fraction_form((objective, pi))
        return [(objective, integer_form((objective, [multiplier, *pi[1:]]))[1], solution)]

    _tamper(monkeypatch, "certified_minimum", tampered)
    with pytest.raises(InternalError):
        best_uniform_gain(deviations)
