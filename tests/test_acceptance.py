"""Acceptance suite.

One test per criterion; each prints a PASS line with its runtime when it
completes.  All comparisons are exact (Fraction equality, zero
tolerance); runtimes are asserted against the stated budgets.

Criteria:
 1. unit-cube coherence of {A|H, C|(A|H), C|(¬A|H)} on the 5^3 grid,
    incoherence at every out-of-range grid point          (exact, < 30 s)
 2. extension interval for the nested rule premises equals
    [x*y, x*y + 1 - x] certified, on the 5x5 grid         (exact, < 2 min)
 3. the same with the antecedent conditioned on the sure event
 4. {A|H, (B|K)|(A|H), (A|H)∧(B|K)} coherent exactly at z = mu*x
 5. the conditional decomposition identity pointwise, with and without
    logical relations, holding iff z1 + z2 = y
 6. symbolic fidelity of the 7-row and 5-row payoff tables and of the
    called-off sets
 7. on 200 randomized assessments, the hull-system check agrees with the
    exhaustive stake search of tests/oracles.py, and find_dutch_book
    returns exactly its subset, stakes and gain             (< 5 min)
 8. (A|H)|(H∨K) reduces to A|H pointwise
"""

import random
import time
from fractions import Fraction

from coherekit.coherence import Assessment, check_coherence, find_dutch_book
from coherekit.crq import (
    add,
    conditional_event,
    conjunction,
    given_event,
    iterated,
    iterated_simple,
    negate,
    payoff_at,
    reduce_nested,
    support,
)
from coherekit.events import TRUE, AtomRegistry
from coherekit.polynomials import ONE, ZERO, Poly
from coherekit.propagation import (
    extension_interval,
    mp_bounds,
    mp_family,
    verify_decomposition,
)
from oracles import exhaustive_dutch_book

F = Fraction
GRID = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
OFF_GRID = GRID + (F(-1, 4), F(5, 4))


def _report(number: int, description: str, started: float) -> None:
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number}: PASS - {description} [{elapsed:.1f}s]")


def nested_triple_family():
    registry = AtomRegistry(["A", "C", "H"])
    a, c, h = registry.atom("A"), registry.atom("C"), registry.atom("H")
    ce_a = conditional_event(a, h, "x")
    return (
        ce_a,
        iterated_simple(ce_a, c, "y"),
        iterated_simple(negate(ce_a, "xn"), c, "z"),
    )


def test_acceptance_1_unit_cube():
    started = time.monotonic()
    members = nested_triple_family()
    checked = 0
    for xv in OFF_GRID:
        for yv in OFF_GRID:
            for zv in OFF_GRID:
                inside = all(0 <= v <= 1 for v in (xv, yv, zv))
                verdict = check_coherence(
                    Assessment(list(zip(members, (xv, yv, zv))))
                )
                assert verdict.coherent == inside, (xv, yv, zv)
                checked += 1
    elapsed = time.monotonic() - started
    assert checked == 343
    assert elapsed < 30, f"budget exceeded: {elapsed:.1f}s"
    _report(1, f"unit-cube coherence on {checked} grid points", started)


def test_acceptance_2_nested_rule_bounds():
    started = time.monotonic()
    for xv in GRID:
        for yv in GRID:
            premises, target = mp_family(xv, yv)
            interval = extension_interval(premises, target)
            closed = mp_bounds(xv, yv)
            assert interval.as_tuple() == (xv * yv, xv * yv + 1 - xv), (xv, yv)
            assert interval.as_tuple() == closed.as_tuple()
            assert interval.exactness == "certified-by-LP", (xv, yv)
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"budget exceeded: {elapsed:.1f}s"
    _report(2, "extension interval equals [x*y, x*y + 1 - x] on the 5x5 grid", started)


def test_acceptance_3_classical_reduction():
    started = time.monotonic()
    for xv in GRID:
        for yv in GRID:
            nested = extension_interval(*mp_family(xv, yv))
            classical = extension_interval(*mp_family(xv, yv, classical=True))
            assert nested.as_tuple() == classical.as_tuple(), (xv, yv)
            assert classical.exactness == "certified-by-LP"
    _report(3, "sure-event antecedent yields identical intervals", started)


def test_acceptance_4_product_rule():
    started = time.monotonic()
    registry = AtomRegistry(["A", "B", "H", "K"])
    a, b, h, k = registry.atoms("A", "B", "H", "K")
    ce_a = conditional_event(a, h, "x")
    ce_b = conditional_event(b, k, "y")
    nested = iterated(ce_a, ce_b, "mu", "zc")
    conj = conjunction(ce_a, ce_b, "zc")
    for xv in GRID:
        for mv in GRID:
            product = mv * xv
            good = Assessment([(ce_a, xv), (nested, mv), (conj, product)])
            assert check_coherence(good).coherent, (xv, mv)
            for offset in (F(-1, 10), F(1, 10)):
                zv = product + offset
                if not 0 <= zv <= 1:
                    continue
                bad = Assessment([(ce_a, xv), (nested, mv), (conj, zv)])
                assert not check_coherence(bad).coherent, (xv, mv, zv)
    _report(4, "conjunction prevision coherent exactly at mu*x on the grid", started)


def test_acceptance_5_decomposition():
    started = time.monotonic()
    registry = AtomRegistry(["A", "B", "H", "K"])
    a, b, h, k = registry.atoms("A", "B", "H", "K")
    rng = random.Random(1234)
    # independent events, twenty random valuations with z1 + z2 = y
    for _ in range(20):
        xv = F(rng.randint(0, 16), 16)
        yv = F(rng.randint(0, 16), 16)
        z1 = yv * F(rng.randint(0, 8), 8)
        assert verify_decomposition(a, b, h, k, xv, yv, z1, yv - z1)
    # violated split fails (a fully-void world exists for these events)
    assert not verify_decomposition(
        a, b, h, k, F(1, 2), F(1, 2), F(1, 4), F(1, 2)
    )
    assert not verify_decomposition(a, b, h, k, F(0), F(1), F(0), F(1, 100))
    # three configurations with logical relations among the events
    related = [
        (a, b, h, b | k),      # consequent implies conditioning event
        (a, b, h, h),          # shared conditioning event
        (a, a & b, h, k),      # nested consequents
    ]
    for ev_a, ev_b, ev_h, ev_k in related:
        for _ in range(5):
            xv = F(rng.randint(0, 8), 8)
            yv = F(rng.randint(0, 8), 8)
            z1 = yv * F(rng.randint(0, 4), 4)
            assert verify_decomposition(ev_a, ev_b, ev_h, ev_k, xv, yv, z1, yv - z1)
    _report(5, "decomposition identity holds pointwise iff z1 + z2 = y", started)


def test_acceptance_6_table_fidelity():
    started = time.monotonic()
    registry = AtomRegistry(["A", "B", "H", "K"])
    a, b, h, k = registry.atoms("A", "B", "H", "K")
    x, y, mu, z = (Poly.sym(s) for s in ("x", "y", "mu", "z"))
    nested = iterated(
        conditional_event(a, h, "x"), conditional_event(b, k, "y"), "mu", "z"
    )
    hedge = mu * (ONE - x)
    expected7 = [
        (a & h & b & k, ONE),
        (a & h & ~b & k, ZERO),
        (a & h & ~k, y),
        (~a & h, mu),
        (~h & b & k, x + hedge),
        (~h & ~b & k, hedge),
        (~h & ~k, z + hedge),
    ]
    assert len(nested.rows) == 7
    for (got_event, got_poly), (want_event, want_poly) in zip(nested.rows, expected7):
        assert got_event == want_event
        assert got_poly == want_poly
    simple_reg = AtomRegistry(["A", "C", "H"])
    sa, sc, sh = simple_reg.atoms("A", "C", "H")
    simple = iterated_simple(conditional_event(sa, sh, "x"), sc, "y")
    hedge5 = y * (ONE - x)
    expected5 = [
        (sa & sh & sc, ONE),
        (sa & sh & ~sc, ZERO),
        (~sa & sh, y),
        (~sh & sc, x + hedge5),
        (~sh & ~sc, hedge5),
    ]
    assert len(simple.rows) == 5
    for (got_event, got_poly), (want_event, want_poly) in zip(simple.rows, expected5):
        assert got_event == want_event
        assert got_poly == want_poly
    for xv in (F(1, 4), F(1, 2), F(1)):
        assert support(simple, {"x": xv}) == ((sa & sh) | ~sh).mask(simple_reg)
    assert support(simple, {"x": F(0)}) == (sa & sh).mask(simple_reg)
    _report(6, "payoff tables and called-off sets match symbolically", started)


def _random_event(rng, atoms):
    kind = rng.randrange(6)
    if kind == 0:
        return atoms[rng.randrange(len(atoms))]
    if kind == 1:
        return ~atoms[rng.randrange(len(atoms))]
    first, second = rng.sample(atoms, 2)
    if kind == 2:
        return first & second
    if kind == 3:
        return first | second
    if kind == 4:
        return first & ~second
    return first | ~second


def _random_family(rng, registry, atoms):
    """A family of at most three members whose inner previsions are all
    assessed, mixing every constructor shape."""
    base_a = conditional_event(_random_event(rng, atoms), _possible(rng, registry, atoms), "pa")
    base_b = conditional_event(_random_event(rng, atoms), _possible(rng, registry, atoms), "pb")
    roll = rng.randrange(6)
    if roll == 0:
        return [base_a]
    if roll == 1:
        return [base_a, negate(base_a, "na")]
    if roll == 2:
        return [base_a, iterated_simple(base_a, _random_event(rng, atoms), "it")]
    if roll == 3:
        return [base_a, base_b, conjunction(base_a, base_b, "cj")]
    if roll == 4:
        return [base_a, iterated(base_a, base_b, "mu", "cj")]
    return [
        base_a,
        base_b,
        iterated_simple(negate(base_a, "na"), _random_event(rng, atoms), "it"),
    ]


def _possible(rng, registry, atoms):
    while True:
        event = _random_event(rng, atoms)
        if event.mask(registry) != 0:
            return event


def test_acceptance_7_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(97531)
    registry = AtomRegistry(["A", "C", "H"])
    atoms = [registry.atom(n) for n in ("A", "C", "H")]
    for _ in range(200):
        members = _random_family(rng, registry, atoms)
        items = [(m, F(rng.randint(-4, 12), 8)) for m in members]
        assessment = Assessment(items)
        context = [(m.own_symbol, str(v)) for m, v in items]
        expected = exhaustive_dutch_book(assessment)
        verdict = check_coherence(assessment)
        assert verdict.coherent == (expected is None), context
        book = find_dutch_book(assessment)
        assert book == expected, context
        if book is not None:
            assert verdict.witness == book.subset, context
            assert book.guaranteed_gain > 0
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"budget exceeded: {elapsed:.1f}s"
    _report(7, "hull check and Dutch book match the stake oracle on 200 families", started)


def test_acceptance_8_nested_reduction():
    started = time.monotonic()
    registry = AtomRegistry(["A", "H", "K"])
    a, h, k = registry.atoms("A", "H", "K")
    ce = conditional_event(a, h, "x")
    nested = given_event(ce, h | k, "t")
    reduced = reduce_nested(nested)
    assert reduced is ce
    valuation = {"x": F(2, 5), "t": F(2, 5)}
    for c in registry.constituents():
        assert payoff_at(nested, c, valuation) == payoff_at(ce, c, valuation)
    _report(8, "(A|H)|(H or K) reduces to A|H pointwise", started)
