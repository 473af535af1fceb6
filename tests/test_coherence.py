"""Coherence engine: payoff points, hull systems, Dutch books.

Expected Q-point vectors and the explicit hull weights for the
three-member nested family {A|H, C|(A|H), C|(¬A|H)} are frozen from the
published derivation and asserted symbolically, and on the engine's own
integer points (`_subset_entries`) read as `Fraction`s.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from coherekit import coherence, linprog
from coherekit.coherence import (
    Assessment,
    CoherenceResult,
    _subset_entries,
    _world_entries,
    check_coherence,
    find_dutch_book,
    subsets_by_size,
)
from coherekit.crq import (
    CRQ,
    conditional_event,
    conjunction,
    iterated,
    iterated_simple,
    negate,
)
from coherekit.errors import (
    CapExceeded,
    CoherekitError,
    InternalError,
    MissingSymbol,
    PreconditionFailed,
)
from coherekit.events import FALSE, TRUE, AtomRegistry
from coherekit.linprog import check_separator, convex_combination
from coherekit.polynomials import ONE, Poly
from oracles import exhaustive_dutch_book

F = Fraction
x, y, z = Poly.sym("x"), Poly.sym("y"), Poly.sym("z")


def world_points(assessment, subset):
    """The payoff points of `subset` as (world index, point, corner), one
    per live world (one per corner where unknown symbols remain), in world
    order: the integer points of `_subset_entries`, spread over their
    worlds, over the members' denominators `Assessment.scales`."""
    scales = [assessment.scales[i] for i in subset]
    return [
        (k, tuple(F(v, scale) for v, scale in zip(point, scales)), corner)
        for k, point, corner in _world_entries(_subset_entries(assessment, subset))
    ]


def points_of(assessment, subset):
    return [point for _, point, _ in world_points(assessment, subset)]


def previsions_of(assessment, subset):
    return tuple(assessment.items[i][1] for i in subset)


def hull_weights(assessment, subset):
    """Weights, as `Fraction`s, that put the previsions of `subset` in the
    hull of its points (`convex_combination`), or None when they lie
    outside it."""
    weights = convex_combination(points_of(assessment, subset), previsions_of(assessment, subset))
    if weights is None:
        return None
    numerators, scale = weights
    return [F(w, scale) for w in numerators]


def fits(assessment, subset):
    """Whether `subset` passes its hull test: its previsions lie in the
    hull of its points, or it has none (every bet is called off
    everywhere, so it imposes nothing)."""
    return not _subset_entries(assessment, subset) or hull_weights(assessment, subset) is not None


def nested_triple(reg=None):
    """{A|H, C|(A|H), C|(¬A|H)} over three independent atoms."""
    reg = reg or AtomRegistry(["A", "C", "H"])
    a, c, h = reg.atom("A"), reg.atom("C"), reg.atom("H")
    ce_a = conditional_event(a, h, "x")
    q2 = iterated_simple(ce_a, c, "y")
    q3 = iterated_simple(negate(ce_a, "xn"), c, "z")
    return reg, ce_a, q2, q3


def product_triple():
    """{A|H, (B|K)|(A|H), (A|H)∧(B|K)} over four independent atoms."""
    reg = AtomRegistry(["A", "B", "H", "K"])
    a, b, h, k = reg.atoms("A", "B", "H", "K")
    ce_a = conditional_event(a, h, "x")
    ce_b = conditional_event(b, k, "y")
    it = iterated(ce_a, ce_b, "mu", "zc")
    cj = conjunction(ce_a, ce_b, "zc")
    return reg, ce_a, it, cj


# -- symbolic point geometry --------------------------------------------------


def test_nested_triple_symbolic_points():
    """The six Q-vectors of the full family, as polynomials in (x, y, z)."""
    reg, ce_a, q2, q3 = nested_triple()
    link = {"xn": ONE - x}
    expected = {
        # (A, C, H) pattern -> (Q for A|H, C|(A|H), C|(!A|H))
        (True, True, True): (ONE, ONE, z),
        (False, True, True): (Poly.coerce(0), y, ONE),
        (True, False, True): (ONE, Poly.coerce(0), z),
        (False, False, True): (Poly.coerce(0), y, Poly.coerce(0)),
        (None, True, False): (x, x + y * (ONE - x), (ONE - x) + x * z),
        (None, False, False): (x, y * (ONE - x), x * z),
    }
    for c in reg.constituents():
        key = (c.truth("A"), c.truth("C"), c.truth("H"))
        if not c.truth("H"):
            key = (None, c.truth("C"), False)
        want = expected[key]
        got = tuple(q.payoff_poly(c).substitute(link) for q in (ce_a, q2, q3))
        assert got == want, c.label()


def test_nested_triple_interior_points_are_convex_combinations():
    """The two void-antecedent points lie on segments of the other four:
    Q5 = x*Q1 + (1-x)*Q2 and Q6 = x*Q3 + (1-x)*Q4, symbolically."""
    reg, ce_a, q2, q3 = nested_triple()
    link = {"xn": ONE - x}

    def point(pattern):
        c = next(w for w in reg.constituents() if w.bits == pattern)
        return tuple(q.payoff_poly(c).substitute(link) for q in (ce_a, q2, q3))

    # bits are (A, C, H)
    q1 = point((True, True, True))
    q2v = point((False, True, True))
    q3v = point((True, False, True))
    q4 = point((False, False, True))
    q5 = point((True, True, False))
    q6 = point((True, False, False))
    assert q5 == tuple(x * p + (ONE - x) * q for p, q in zip(q1, q2v))
    assert q6 == tuple(x * p + (ONE - x) * q for p, q in zip(q3v, q4))


def test_build_points_numeric_full_family():
    """The six Q-vectors at x = y = z = 1/2, on the engine's points."""
    reg, ce_a, q2, q3 = nested_triple()
    a = Assessment([(ce_a, F(1, 2)), (q2, F(1, 2)), (q3, F(1, 2))])
    table = world_points(a, (0, 1, 2))
    # all eight worlds are live (support union is the sure event)
    assert [k for k, _, _ in table] == list(range(8))
    got = {point for _, point, _ in table}
    assert got == {
        (F(1), F(1), F(1, 2)),
        (F(0), F(1, 2), F(1)),
        (F(1), F(0), F(1, 2)),
        (F(0), F(1, 2), F(0)),
        (F(1, 2), F(3, 4), F(3, 4)),
        (F(1, 2), F(1, 4), F(1, 4)),
    }


def test_build_points_pair_at_vanishing_inner_prevision():
    """With P(A|H) = 0 the nested bet is live only on AH, and the pair
    family's table collapses onto the worlds of H."""
    reg, ce_a, q2, q3 = nested_triple()
    a = Assessment([(ce_a, 0), (q2, F(2, 5))])
    table = world_points(a, (0, 1))
    worlds = reg.constituents()
    assert {worlds[k].truth("H") for k, _, _ in table} == {True}
    assert len(table) == 4
    assert {point for _, point, _ in table} == {
        (F(1), F(1)),
        (F(0), F(2, 5)),
        (F(1), F(0)),
    }


def test_build_points_single_conditional():
    reg = AtomRegistry(["A", "H"])
    ce = conditional_event(reg.atom("A"), reg.atom("H"), "x")
    assert set(points_of(Assessment([(ce, F(1, 3))]), (0,))) == {(F(1),), (F(0),)}


def test_solve_sigma_accepts_published_weights():
    """lambda = (xy, z(1-x), (1-y)x, (1-x)(1-z)) on the four corner points
    solves the full system; at (1/2,1/2,1/2) each weight is 1/4."""
    reg, ce_a, q2, q3 = nested_triple()
    xv = yv = zv = F(1, 2)
    a = Assessment([(ce_a, xv), (q2, yv), (q3, zv)])
    lambdas = hull_weights(a, (0, 1, 2))
    assert lambdas is not None
    assert all(w >= 0 for w in lambdas) and sum(lambdas) == 1
    points = points_of(a, (0, 1, 2))
    assert tuple(sum(w * p[d] for w, p in zip(lambdas, points)) for d in range(3)) == (xv, yv, zv)
    corners = {
        (F(1), F(1), zv): xv * yv,
        (F(0), yv, F(1)): zv * (1 - xv),
        (F(1), F(0), zv): (1 - yv) * xv,
        (F(0), yv, F(0)): (1 - xv) * (1 - zv),
    }
    assert set(corners) <= set(points)
    assert set(corners.values()) == {F(1, 4)}
    target = (xv, yv, zv)
    combo = [F(0)] * 3
    for point, weight in corners.items():
        combo = [acc + weight * coord for acc, coord in zip(combo, point)]
    assert tuple(combo) == target


def test_solve_sigma_pair_segment():
    """(y, z) = y*(1, z) + (1-y)*(0, z) for the pair {C|(A|H), C|(¬A|H)}."""
    reg, ce_a, q2, q3 = nested_triple()
    yv, zv = F(1, 3), F(2, 7)
    a = Assessment([(ce_a, F(1, 2)), (q2, yv), (q3, zv)])
    assert hull_weights(a, (1, 2)) is not None
    assert yv * F(1) + (1 - yv) * F(0) == yv
    assert yv * zv + (1 - yv) * zv == zv


def test_solve_sigma_rejects_outside_target():
    reg = AtomRegistry(["A", "H"])
    ce = conditional_event(reg.atom("A"), reg.atom("H"), "x")
    assert hull_weights(Assessment([(ce, F(3, 2))]), (0,)) is None


# -- coherence verdicts ------------------------------------------------------


@pytest.mark.parametrize(
    "point",
    [
        (F(0), F(0), F(0)),
        (F(1), F(1), F(1)),
        (F(1, 2), F(1, 2), F(1, 2)),
        (F(0), F(1), F(1, 4)),
        (F(1), F(0), F(3, 4)),
        (F(1, 4), F(3, 4), F(1)),
    ],
)
def test_nested_triple_coherent_inside_unit_cube(point):
    reg, ce_a, q2, q3 = nested_triple()
    a = Assessment(list(zip((ce_a, q2, q3), point)))
    assert check_coherence(a).coherent


@pytest.mark.parametrize(
    "point",
    [
        (F(-1, 4), F(1, 2), F(1, 2)),
        (F(1, 2), F(5, 4), F(1, 2)),
        (F(1, 2), F(1, 2), F(-1, 4)),
        (F(5, 4), F(5, 4), F(5, 4)),
    ],
)
def test_nested_triple_incoherent_outside_unit_cube(point):
    reg, ce_a, q2, q3 = nested_triple()
    a = Assessment(list(zip((ce_a, q2, q3), point)))
    assert not check_coherence(a).coherent


def test_single_conditional_bounds():
    reg = AtomRegistry(["A", "H"])
    ce = conditional_event(reg.atom("A"), reg.atom("H"), "x")
    assert check_coherence(Assessment([(ce, F(1, 2))])).coherent
    result = check_coherence(Assessment([(ce, F(3, 2))]))
    assert not result.coherent
    assert result.witness == (0,)


def test_product_family_coherent_exactly_on_product():
    """(x, mu, z) on {A|H, (B|K)|(A|H), (A|H)∧(B|K)} is coherent at
    z = mu*x and incoherent off the product, independently of the
    unassessed prevision of B|K."""
    for xv, mv in [(F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)), (F(1), F(1, 3)), (F(0), F(1))]:
        reg, ce_a, it, cj = product_triple()
        good = Assessment([(ce_a, xv), (it, mv), (cj, mv * xv)])
        assert check_coherence(good).coherent, (xv, mv)
    for xv, mv, zv in [
        (F(1, 2), F(1, 2), F(1, 2)),
        (F(1, 2), F(1, 2), F(7, 20)),
        (F(1), F(1, 3), F(2, 3)),
        (F(0), F(1), F(1, 10)),
    ]:
        reg, ce_a, it, cj = product_triple()
        bad = Assessment([(ce_a, xv), (it, mv), (cj, zv)])
        result = check_coherence(bad)
        assert not result.coherent, (xv, mv, zv)


def test_negation_link_enforced():
    reg = AtomRegistry(["A", "H"])
    ce = conditional_event(reg.atom("A"), reg.atom("H"), "x")
    nce = negate(ce, "xn")
    ok = Assessment([(ce, F(1, 3)), (nce, F(2, 3))])
    assert check_coherence(ok).coherent
    bad = Assessment([(ce, F(1, 3)), (nce, F(1, 3))])
    result = check_coherence(bad)
    assert not result.coherent
    assert result.witness == (0, 1)


def test_witness_is_smallest_failing_subset():
    """Tie-break: the witness is the first failing subset in size-then-
    lexicographic order, here the overpriced single member."""
    reg = AtomRegistry(["A", "C", "H"])
    a_, c, h = reg.atoms("A", "C", "H")
    ce = conditional_event(a_, h, "x")
    other = conditional_event(c, TRUE, "pc")
    result = check_coherence(Assessment([(ce, F(3, 2)), (other, F(1, 2))]))
    assert not result.coherent
    assert result.witness == (0,)


def test_witness_full_family_when_only_joint_system_fails():
    """Premises x = y = 1/2 with the conclusion priced at 9/10: every
    proper subfamily is fine, only the full hull system is unsolvable."""
    reg, ce_a, q2, q3 = nested_triple()
    conclusion = conditional_event(reg.atom("C"), TRUE, "pc")
    a = Assessment([(ce_a, F(1, 2)), (q2, F(1, 2)), (conclusion, F(9, 10))])
    result = check_coherence(a)
    assert not result.coherent
    assert result.witness == (0, 1, 2)
    for subset in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
        assert hull_weights(a, subset) is not None, subset


def test_duplicate_quantity_with_conflicting_prevision_is_incoherent():
    reg = AtomRegistry(["A", "H"])
    ce = conditional_event(reg.atom("A"), reg.atom("H"), "x")
    bad = Assessment([(ce, F(1, 3)), (ce, F(1, 2))])
    assert not check_coherence(bad).coherent


def test_family_cap():
    reg = AtomRegistry(["A", "H"])
    ce = conditional_event(reg.atom("A"), reg.atom("H"), "x")
    a = Assessment([(ce, F(1, 2))] * 4)
    with pytest.raises(CapExceeded):
        check_coherence(a, cap=3)


def test_cap_env_override(monkeypatch):
    reg = AtomRegistry(["A", "H"])
    ce = conditional_event(reg.atom("A"), reg.atom("H"), "x")
    a = Assessment([(ce, F(1, 2))] * 3)
    monkeypatch.setenv("COHERE_SUBSET_CAP", "2")
    with pytest.raises(CapExceeded):
        check_coherence(a)
    monkeypatch.setenv("COHERE_SUBSET_CAP", "5")
    assert check_coherence(a).coherent


def test_missing_inner_prevision_raises():
    reg = AtomRegistry(["A", "C", "H"])
    a_, c, h = reg.atoms("A", "C", "H")
    nested = iterated_simple(conditional_event(a_, h, "x"), c, "y")
    with pytest.raises(MissingSymbol):
        Assessment([(nested, F(1, 2))])


def test_vacuous_family_member_and_empty_support():
    """A nested conditional whose inner antecedent can never hold is live
    nowhere once its inner prevision vanishes: its singleton table is
    empty, and coherence checking treats that subfamily as vacuous."""
    reg = AtomRegistry(["C", "H"])
    c, h = reg.atom("C"), reg.atom("H")
    impossible = c & ~c
    inner = conditional_event(impossible, h, "x")
    nested = iterated_simple(inner, c, "y")
    a = Assessment([(inner, 0), (nested, F(1, 3))])
    assert _subset_entries(a, (1,)) == []
    assert check_coherence(a).coherent


def test_unknown_symbol_in_two_distinct_rows_rejected():
    reg = AtomRegistry(["A", "C", "B", "H", "K"])
    a_, c, b, h, k = reg.atoms("A", "C", "B", "H", "K")
    ce_b = conditional_event(b, k, "y")
    q1 = conjunction(conditional_event(a_, h, "x1"), ce_b, "z1")
    q2 = conjunction(conditional_event(c, h, "x2"), ce_b, "z2")
    a = Assessment([(q1, F(1, 4)), (q2, F(1, 4))])
    with pytest.raises(MissingSymbol):
        check_coherence(a)


TWO_FREE_CONJUNCTIONS = """
from fractions import Fraction as F
from coherekit.coherence import Assessment, _subset_entries
from coherekit.crq import conditional_event, iterated
from coherekit.errors import MissingSymbol
from coherekit.events import AtomRegistry

reg = AtomRegistry(["A", "B", "C", "D", "E"])
A, B, C, D, E = reg.atoms("A", "B", "C", "D", "E")
x0 = conditional_event(C, D, "x0")
x1 = conditional_event(E & B, D | ~A, "x1")
a = Assessment([
    (x0, F(1, 2)),
    (x1, F(1, 3)),
    (iterated(x0, conditional_event(C, E | ~C, "y0"), "it0", "cj0"), F(1, 8)),
    (iterated(x1, conditional_event(~B, E, "y1"), "it1", "cj1"), F(3, 8)),
])
try:
    _subset_entries(a, (2, 3))
except MissingSymbol as error:
    print(error)
"""


@pytest.mark.parametrize("seed", ["0", "3"])
def test_missing_symbol_names_the_least_symbol_under_any_hash_seed(seed):
    """The two iterated conditionals leave cj0 and cj1 unassessed, and a
    payoff row of the pair holds both, each in several distinct rows.  The
    guard names the least of them, cj0, whatever order the string hash
    gives a set of symbols (under these seeds a set yields cj1 first)."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", TWO_FREE_CONJUNCTIONS],
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.startswith("prevision symbol cj0 is not assessed")


# -- Dutch books -------------------------------------------------------------


def test_dutch_book_against_overpriced_conditional():
    reg = AtomRegistry(["A", "H"])
    ce = conditional_event(reg.atom("A"), reg.atom("H"), "x")
    book = find_dutch_book(Assessment([(ce, F(2))]))
    assert book is not None
    assert book.subset == (0,)
    assert book.stakes == (F(-1),)
    assert book.guaranteed_gain == 1


def test_no_dutch_book_against_coherent_triple():
    reg, ce_a, q2, q3 = nested_triple()
    a = Assessment([(ce_a, F(1, 2)), (q2, F(1, 2)), (q3, F(1, 2))])
    assert find_dutch_book(a) is None


def test_dutch_book_when_conclusion_underpriced():
    """P(A|H) = 1 and P(C|(A|H)) = 1 force P(C) >= 1; pricing C at 0 is
    exploitable."""
    reg, ce_a, q2, q3 = nested_triple()
    c_event = conditional_event(reg.atom("C"), TRUE, "pc")
    a = Assessment([(ce_a, 1), (q2, 1), (c_event, 0)])
    assert not check_coherence(a).coherent
    book = find_dutch_book(a)
    assert book is not None
    assert book.guaranteed_gain > 0


def test_oracles_agree_on_random_families():
    rng = random.Random(20240831)
    reg = AtomRegistry(["A", "C", "H"])
    a_, c, h = reg.atoms("A", "C", "H")
    ce = conditional_event(a_, h, "x")
    pool = [
        ce,
        negate(ce, "xn"),
        iterated_simple(ce, c, "w"),
        conditional_event(c, a_ | h, "v"),
        conjunction(ce, conditional_event(c, h, "u"), "zc"),
    ]
    for _ in range(40):
        size = rng.randint(1, 3)
        members = rng.sample(pool, size)
        if any(m is not ce for m in members) and ce not in members:
            members.append(ce)  # keep inner previsions determined
        if any(m.own_symbol == "zc" for m in members):
            members = [m for m in members if m.own_symbol != "zc"]
            members += [q for q in pool if q.own_symbol in ("zc", "u")]
        items = [
            (m, F(rng.randint(-2, 6), 4))
            for m in members
        ]
        a = Assessment(items)
        expected = exhaustive_dutch_book(a)
        context = [(m.own_symbol, str(v)) for m, v in items]
        assert check_coherence(a).coherent == (expected is None), context
        assert find_dutch_book(a) == expected, context


def _hull_lps(monkeypatch, assessment):
    """check_coherence's verdict and the number of hull LPs it solved."""
    real = coherence.convex_combination
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(coherence, "convex_combination", counting)
    return check_coherence(assessment), calls


def _independent_given(count, condition_names):
    """{A_i | H_i = k/(k+2)}, k = i + 1, on independent atoms A_i and
    conditioning atoms H_i named by condition_names[i]."""
    reg = AtomRegistry([f"A{i}" for i in range(count)] + sorted(set(condition_names)))
    return [
        (
            conditional_event(reg.atom(f"A{i}"), reg.atom(condition_names[i]), f"p{i}"),
            F(i + 1, i + 3),
        )
        for i in range(count)
    ]


def _sweep_family():
    """Five A_i|H and (A0|H) ∧ (A1|H) over 64 worlds."""
    items = _independent_given(5, ["H"] * 5)
    both = conjunction(items[0][0], items[1][0], "z")
    return items + [(both, F(1, 5))]


def test_coherent_six_member_family_takes_one_hull_lp(monkeypatch):
    """Five A_i|H and (A0|H) ∧ (A1|H) inside its Fréchet bounds: 63
    subfamilies, decided by the whole family's system alone."""
    result, lps = _hull_lps(monkeypatch, Assessment(_sweep_family()))
    assert result.coherent
    assert lps == 1


@pytest.mark.parametrize(
    "count, conditions",
    [(7, ["H"] * 7), (5, [f"H{i}" for i in range(5)])],
    ids=["seven-sharing-H", "five-distinct-H"],
)
def test_coherent_independent_families_take_at_most_n_hull_lps(monkeypatch, count, conditions):
    """127 and 31 subfamilies; at most one hull LP per member."""
    result, lps = _hull_lps(monkeypatch, Assessment(_independent_given(count, conditions)))
    assert result.coherent
    assert lps <= count


def test_assessment_substitutes_each_payoff_row_at_most_once(monkeypatch):
    """The payoff matrix is built row by row: one substitution per member
    and payoff row (none for a row where the bet is called off), never one
    per world."""
    items = _sweep_family()
    real = Poly.substitute
    calls = 0

    def counting(self, valuation):
        nonlocal calls
        calls += 1
        return real(self, valuation)

    def per_world(self, world):
        raise AssertionError("payoff looked up world by world")

    monkeypatch.setattr(Poly, "substitute", counting)
    monkeypatch.setattr(CRQ, "payoff_poly", per_world)
    assessment = Assessment(items)
    assert len(assessment.registry.constituents()) == 64
    assert calls <= sum(len(crq.rows) for crq, _ in items)


@pytest.mark.parametrize(
    "prevision, separator",
    [(F(3, 2), ((F(1),), F(-1))), (F(-1, 2), ((F(-1),), F(0)))],
    ids=["above", "below"],
)
def test_one_member_witness_takes_no_hull_lp(monkeypatch, prevision, separator):
    """A one-member subfamily's hull is the interval of its payoffs, so its
    separator needs no LP, in the levels or in the witness sweep."""
    reg = AtomRegistry(["A", "H"])
    a, h = reg.atoms("A", "H")
    assessment = Assessment([(conditional_event(a, h, "p"), prevision)])

    def no_lp(*args, **kwargs):
        raise AssertionError("hull LP on one member")

    monkeypatch.setattr(coherence, "convex_combination", no_lp)
    result = check_coherence(assessment)
    assert result.witness == (0,)
    assert result.separator == separator
    check_separator(points_of(assessment, (0,)), assessment.previsions, separator)


def test_two_member_witness_takes_no_hull_lp(monkeypatch):
    """A|H = ¬A|H = 3/4: the level LP fails, and the witness sweep decides
    its pairs on the planar hull of their points, with no separating LP.
    The separator comes from the violated edge of the segment from (1, 0)
    to (0, 1), divided by the gcd of its integer entries."""
    reg = AtomRegistry(["A", "H"])
    a, h = reg.atoms("A", "H")
    assessment = Assessment(
        [(conditional_event(a, h, "a"), F(3, 4)), (conditional_event(~a, h, "na"), F(3, 4))]
    )
    real = coherence.convex_combination
    separating = 0

    def counting(*args, separate=False, **kwargs):
        nonlocal separating
        separating += separate
        return real(*args, separate=separate, **kwargs)

    monkeypatch.setattr(coherence, "convex_combination", counting)
    result = check_coherence(assessment)
    assert result.witness == (0, 1)
    assert separating == 0
    assert result.separator == ((1, 1), -1)
    check_separator(points_of(assessment, (0, 1)), assessment.previsions, result.separator)


def test_assessment_enumerates_no_worlds(monkeypatch):
    """The assessment and the coherence test work on world masks alone:
    neither materialises the constituents."""
    coherent = _sweep_family()
    incoherent = coherent[:5] + [(coherent[5][0], F(4, 5))]

    def enumerate_worlds(self):
        raise AssertionError("constituents enumerated")

    monkeypatch.setattr(AtomRegistry, "constituents", enumerate_worlds)
    assert check_coherence(Assessment(coherent)).coherent
    assert check_coherence(Assessment(incoherent)).witness == (0, 5)
    # A registry with no atoms has no worlds to bet on.
    sure = conditional_event(TRUE, TRUE, "p", registry=AtomRegistry())
    with pytest.raises(PreconditionFailed):
        Assessment([(sure, F(1))])


# The intended verdicts of two families whose compound pays a prevision
# that no member assesses.  Today that prevision is relaxed to any value
# in [0, 1] at each payoff row, which calls both coherent.


@pytest.mark.xfail(strict=True, reason="an unassessed conjunction prevision is relaxed to [0, 1]")
def test_coupled_iterated_conditional_is_incoherent():
    """P(A|H) = 1/2, P(B|K) = 1/4, P((B|K)|(A|H)) = 3/4: the compound
    prevision theorem forces P((A|H) ∧ (B|K)) = 3/4 · 1/2 = 3/8, above
    min(1/2, 1/4)."""
    reg = AtomRegistry(["A", "B", "H", "K"])
    a, b, h, k = reg.atoms("A", "B", "H", "K")
    inner, outer = conditional_event(a, h, "x"), conditional_event(b, k, "y")
    family = [(inner, F(1, 2)), (outer, F(1, 4)), (iterated(inner, outer, "mu", "zc"), F(3, 4))]
    assert not check_coherence(Assessment(family)).coherent


@pytest.mark.xfail(strict=True, reason="an unassessed conjunct prevision is relaxed to [0, 1]")
def test_conjunction_with_an_impossible_conjunct_is_incoherent():
    """A|B = 1/8 and (A|B) ∧ (⊥|¬A) = 1/8: the only coherent prevision of
    ⊥|¬A is 0, which bounds the conjunction by 0."""
    reg = AtomRegistry(["A", "B"])
    a, b = reg.atoms("A", "B")
    rule = conditional_event(a, b, "x")
    never = conditional_event(FALSE, ~a, "pb", registry=reg)
    family = [(rule, F(1, 8)), (conjunction(rule, never, "z"), F(1, 8))]
    assert not check_coherence(Assessment(family)).coherent


def test_eight_independent_conditionals_sharing_h():
    """A level LP over 257 distinct payoff points (every 0/1 pattern of the
    A_i on H, and the previsions themselves on ¬H) decides the family
    coherent; with one prevision above 1 that member alone is the witness."""
    items = _independent_given(8, ["H"] * 8)
    assert check_coherence(Assessment(items)).coherent
    items[3] = (items[3][0], F(5, 4))
    result = check_coherence(Assessment(items))
    assert not result.coherent
    assert result.witness == (3,)


def test_ten_independent_conditionals_take_few_pivots(monkeypatch):
    """The hull system of ten A_i|H on independent atoms, over its 1024
    distinct payoff points and 11 rows: Bland's rule took 502 pivots on
    it, Dantzig's takes a few per row.  `check_coherence` solves no such
    LP: on H the system splits into ten one-member factors, each decided
    by the interval of its points."""
    real = linprog._pivot
    pivots = 0

    def counting(*args):
        nonlocal pivots
        pivots += 1
        real(*args)

    assessment = Assessment(_independent_given(10, ["H"] * 10))
    members = tuple(range(10))
    points = list(dict.fromkeys(point for _, point, _ in _subset_entries(assessment, members)))
    assert len(points) == 1024
    monkeypatch.setattr(linprog, "_pivot", counting)
    assert linprog.convex_combination(points, assessment.scaled_previsions) is not None
    assert pivots <= 30
    result, lps = _hull_lps(monkeypatch, assessment)
    assert result.coherent
    assert lps == 0


def test_unbacked_incoherent_level_is_an_internal_error(monkeypatch):
    """An incoherent level verdict needs a failing subfamily; without one
    the library is at fault, and says so with no verdict."""
    assert not issubclass(InternalError, CoherekitError)
    monkeypatch.setattr(coherence, "_levels", lambda assessment: None)
    with pytest.raises(InternalError):
        check_coherence(Assessment([(nested_triple()[1], F(1, 2))]))
