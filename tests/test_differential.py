"""Differential tests of the coherence engine against the exhaustive
hull sweep and stake search of `oracles.py`, on random families over
three atoms, of the witness search inside a family's independent factors
against the sweep of every subfamily, of the assessment's region cells,
the points read off their pieces, point tables and extension systems
against their world-by-world construction, of the integer simplex
against the `Fraction` tableau it replaced, on random linear programs,
and of polynomial substitution against its product-by-product form, on
random polynomials.

Events are random formulas, so the atoms of a family stand in logical
relations (implication, incompatibility, equivalence).  Previsions are
eighths that may fall outside [0, 1].
"""

import itertools
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from coherekit import coherence, linprog, propagation
from coherekit.cli import main
from coherekit.coherence import (
    Assessment,
    CoherenceResult,
    _bits,
    _levels,
    _planar_separator,
    _subset_entries,
    _world_entries,
    check_coherence,
    find_dutch_book,
    subsets_by_size,
)
from coherekit.crq import (
    conditional_event,
    conditional_quantity,
    conjunction,
    iterated,
    iterated_simple,
    negate,
    payoff_at,
    support,
)
from coherekit.errors import (
    CapExceeded,
    CoherekitError,
    IncoherentPremises,
    InternalError,
    MissingSymbol,
)
from coherekit.events import TRUE, AtomRegistry
from coherekit.polynomials import Poly
from coherekit.propagation import (
    _coherent_with_target,
    _linear_target,
    _search_interval,
    extension_interval,
    mp_family,
)
import oracles
from oracles import exhaustive_coherence, exhaustive_dutch_book, fraction_form, fraction_simplex
from test_cli import MP_DOC, _corrupted_multipliers
from test_coherence import fits, points_of, previsions_of, world_points
from test_propagation import _counted

REGISTRY = AtomRegistry(["A", "B", "C"])
ATOMS = REGISTRY.atoms("A", "B", "C")
MAX_MEMBERS = 4

formulas = st.recursive(
    st.sampled_from(ATOMS),
    lambda inner: st.one_of(
        inner.map(lambda e: ~e),
        st.tuples(inner, inner).map(lambda pair: pair[0] & pair[1]),
        st.tuples(inner, inner).map(lambda pair: pair[0] | pair[1]),
    ),
    max_leaves=4,
)
possible = formulas.filter(lambda e: e.mask(REGISTRY) != 0)
# Mostly inside [0, 1], so that larger families are coherent too.
eighths = st.one_of(st.integers(0, 8), st.integers(-2, 10)).map(lambda k: Fraction(k, 8))

# Member kinds and the kinds whose previsions they need assessed: the
# inner prevision of an iterated conditional decides its called-off set.
REQUIRES = {
    "a": (),
    "b": (),
    "not_a": (),
    "conj": ("a", "b"),
    "not_conj": ("a", "b"),
    "c_given_a": ("a",),
    "c_given_not_a": ("not_a",),
    "b_given_a": ("a",),
}


@st.composite
def member_lists(draw, free_inner=False):
    """Members and previsions; with `free_inner`, (B|K)|(A|H) is always
    present and the prevision of B|K, inside its payoffs, never assessed."""
    base_a = conditional_event(draw(formulas), draw(possible), "pa", registry=REGISTRY)
    base_b = conditional_event(draw(formulas), draw(possible), "pb", registry=REGISTRY)
    not_a = negate(base_a, "na")
    conj = conjunction(base_a, base_b, "cj")
    build = {
        "a": lambda: base_a,
        "b": lambda: base_b,
        "not_a": lambda: not_a,
        "conj": lambda: conj,
        "not_conj": lambda: negate(conj, "ncj"),
        "c_given_a": lambda: iterated_simple(base_a, draw(formulas), "ca"),
        "c_given_not_a": lambda: iterated_simple(not_a, draw(formulas), "cna"),
        "b_given_a": lambda: iterated(base_a, base_b, "mu", "cj"),
    }
    allowed = sorted(REQUIRES)
    if free_inner:
        allowed = [kind for kind in allowed if kind not in ("b", "conj", "not_conj")]
    kinds = draw(st.sets(st.sampled_from(allowed), min_size=1, max_size=3))
    if free_inner:
        kinds.add("b_given_a")
    kinds |= {need for kind in kinds for need in REQUIRES[kind]}
    assume(len(kinds) <= MAX_MEMBERS)
    order = draw(st.permutations(sorted(kinds)))
    return [(build[kind](), draw(eighths)) for kind in order]


def families():
    return member_lists().map(Assessment)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CoherekitError as error:
        return type(error)


def _outcome_with_message(fn, *args):
    try:
        return fn(*args)
    except CoherekitError as error:
        return type(error), str(error)


def _assert_sure_win(assessment, book):
    """The stakes win at least the book's gain at every live world of its
    subfamily, whatever value an unassessed prevision takes in [0, 1]
    (payoffs are affine in those, so the corners suffice)."""
    assert book.guaranteed_gain > 0
    live = 0
    for i in book.subset:
        live |= assessment.live_masks[i]
    assert live
    for world in assessment.registry.constituents():
        if not live >> world.index & 1:
            continue
        rows = []
        for i in book.subset:
            quantity, prevision = assessment.items[i]
            if assessment.live_masks[i] >> world.index & 1:
                rows.append(quantity.payoff_poly(world).substitute(assessment.valuation))
            else:  # called off: the bet is refunded
                rows.append(Poly.coerce(prevision))
        free = sorted(set().union(*(poly.symbols() for poly in rows)))
        for corner in itertools.product((Fraction(0), Fraction(1)), repeat=len(free)):
            values = dict(zip(free, corner))
            gain = sum(
                stake * (poly.value(values) - assessment.items[i][1])
                for stake, poly, i in zip(book.stakes, rows, book.subset)
            )
            assert gain >= book.guaranteed_gain


@settings(deadline=None, max_examples=150)
@given(families())
def test_engine_matches_exhaustive_stake_search(assessment):
    expected = _outcome(exhaustive_dutch_book, assessment)
    verdict = _outcome(check_coherence, assessment)
    if isinstance(expected, type):
        assert verdict is expected
        return
    assert verdict.coherent == (expected is None)
    assert find_dutch_book(assessment) == expected
    if expected is not None:
        assert verdict.witness == expected.subset
        _assert_sure_win(assessment, expected)
        return
    for subset in subsets_by_size(len(assessment)):
        assert fits(assessment, subset), subset


@settings(deadline=None, max_examples=150)
@given(families())
def test_levels_match_exhaustive_hull_sweep(assessment):
    assert _outcome(check_coherence, assessment) == _outcome(exhaustive_coherence, assessment)


@settings(deadline=None, max_examples=150)
@given(st.one_of(member_lists(), member_lists(free_inner=True)).map(Assessment))
def test_payoff_matrix_matches_world_by_world_oracle(assessment):
    """The region cells, spread over their regions and divided by the
    member's denominator D_i, equal the world-by-world payoffs; D_i is
    the lcm of the denominators in the member's prevision and payoffs,
    and its constant cells are ints.  The integer points of every
    subfamily, spread over their worlds and divided by the D_i, are the
    oracle's points read off its cells, world by world and corner rows
    included, and so is every `MissingSymbol` message; a subfamily has no
    points where the oracle's table is empty."""
    cells = oracles.payoff_cells(assessment)
    scales = assessment.scales
    spread = []
    for regions, region_cells in zip(assessment.cell_regions, assessment.region_cells):
        row = [None] * len(assessment.registry.constituents())
        for region, cell in zip(regions, region_cells):
            for k in _bits(region):
                row[k] = cell
        spread.append(row)
    assert [
        [cell if isinstance(cell, Poly) else Poly.const(Fraction(cell, scale)) for cell in row]
        for row, scale in zip(spread, scales)
    ] == cells
    assert all(
        type(cell) is int or not cell.is_constant()
        for region_cells in assessment.region_cells
        for cell in region_cells
    )
    for row, (_, prevision), scale, scaled_prevision in zip(
        cells, assessment.items, scales, assessment.scaled_previsions
    ):
        denominators = [c.denominator for poly in row for c in poly.terms.values()]
        assert scale == lcm(prevision.denominator, *denominators)
        assert scaled_prevision == prevision * scale
    for subset in subsets_by_size(len(assessment)):
        expected = _outcome_with_message(oracles.point_table, assessment, subset, cells)
        assert _outcome_with_message(world_points, assessment, subset) == expected
        if isinstance(expected, list):
            entries = _subset_entries(assessment, subset)
            assert all(type(v) is int for _, point, _ in entries for v in point)


@st.composite
def layered_families(draw):
    """Conditional events beside unconditional ones assessed at 0 or 1, so
    that conditioning events often get no weight and the levels go deeper
    than the first (about one family in six over three atoms)."""
    items = []
    for i in range(draw(st.integers(2, 4))):
        if draw(st.booleans()):
            member = conditional_event(draw(possible), TRUE, f"u{i}", registry=REGISTRY)
            value = draw(st.sampled_from([Fraction(0), Fraction(1)]))
        else:
            member = conditional_event(draw(formulas), draw(possible), f"c{i}", registry=REGISTRY)
            value = Fraction(draw(st.integers(-1, 5)), 4)
        items.append((member, value))
    return Assessment(items)


@settings(deadline=None, max_examples=200)
@given(layered_families())
def test_deeper_levels_match_exhaustive_hull_sweep(assessment):
    assert check_coherence(assessment) == exhaustive_coherence(assessment)


@settings(deadline=None, max_examples=100)
@given(member_lists(free_inner=True))
def test_free_inner_symbols_give_the_sweeps_answer_or_error(items):
    """A level system over the whole family may meet an unassessed symbol
    that the sweep meets only later, or never, because it stops at a
    smaller witness first; the verdict or error must still be the sweep's."""
    assessment = Assessment(items)
    assert assessment.free_symbols
    assert _outcome_with_message(check_coherence, assessment) == _outcome_with_message(
        exhaustive_coherence, assessment
    )


@st.composite
def extensions(draw):
    """Coherent premises, a target quantity and a value for it: the target
    is a member of a random family that no other member needs."""
    items = draw(member_lists())
    assume(len(items) >= 2)
    for k in reversed(range(len(items))):
        try:
            premises = Assessment(items[:k] + items[k + 1 :])
            coherent = exhaustive_coherence(premises).coherent
        except CoherekitError:
            continue
        assume(coherent)
        return premises, items[k][0], draw(eighths)
    assume(False)


@settings(deadline=None, max_examples=100, suppress_health_check=[HealthCheck.filter_too_much])
@given(extensions())
def test_extension_oracle_matches_combined_family_sweep(case):
    """`_coherent_with_target` against the sweep of every subfamily of the
    combined family, premises alone included, since assessing the target
    can change what a premise pays: incoherent when one fails its hull
    test; a subfamily that cannot be decided is raised only when none
    fails."""

    def sweep(premises, target, value):
        combined = Assessment(tuple(premises.items) + ((target, value),))
        return exhaustive_coherence(combined).coherent

    assert _outcome_with_message(_coherent_with_target, *case) == (
        _outcome_with_message(sweep, *case)
    )


def test_assessed_target_can_make_a_premise_incoherent():
    """P((A|¬C)|(A|C)) = 0 and P(A|C) = 0 are coherent, with the prevision
    pb of A|¬C unassessed.  With the target A|¬C at 1/8, the first premise
    pays pb = 1/8 at its only live worlds (A∧C), so it alone fails: the
    combined family is incoherent with witness (0,), although every
    subfamily that contains the target passes."""
    a = conditional_event(ATOMS[0], ATOMS[2], "pa", registry=REGISTRY)
    b = conditional_event(ATOMS[0], ~ATOMS[2], "pb", registry=REGISTRY)
    premises = Assessment([(iterated(a, b, "mu", "cj"), Fraction(0)), (a, Fraction(0))])
    assert check_coherence(premises).coherent
    value = Fraction(1, 8)
    combined = Assessment(tuple(premises.items) + ((b, value),))
    assert exhaustive_coherence(combined).witness == (0,)
    with_target = (s for s in subsets_by_size(3) if 2 in s)
    assert exhaustive_coherence(combined, with_target).coherent
    assert not _coherent_with_target(premises, b, value)


def _undecidable_pair_premises():
    """Premises C|(¬(C|B)) = 7/8 (inner ¬(C|B)), C|B = 1 and
    ((A∨B)|B)|(C|B) = 0, with the conjunction prevision cj unassessed,
    and the quantity ¬(C|B)."""
    a = conditional_event(ATOMS[2], ATOMS[1], "pa", registry=REGISTRY)
    not_a = negate(a, "na")
    b = conditional_event(ATOMS[0] | ATOMS[1], ATOMS[1], "pb", registry=REGISTRY)
    premises = Assessment(
        [
            (iterated_simple(not_a, ATOMS[0], "cna"), Fraction(7, 8)),
            (a, Fraction(1)),
            (iterated(a, b, "mu", "cj"), Fraction(0)),
        ]
    )
    return premises, not_a


def test_undecidable_premise_subfamily_leaves_the_failing_pair_to_decide():
    """The negation link fixes ¬(C|B) at 0.  Assessed at 5/8 instead, it
    moves the first premise's payoffs, and cj then appears in two distinct
    rows of a premise pair, which cannot be decided.  The pair {C|B,
    ¬(C|B)} fails all the same, so the value is incoherent and the
    extension interval is [0, 0]."""
    premises, not_a = _undecidable_pair_premises()
    combined = Assessment(tuple(premises.items) + ((not_a, Fraction(5, 8)),))
    with pytest.raises(MissingSymbol):
        _subset_entries(combined, (0, 2))
    assert not _coherent_with_target(premises, not_a, Fraction(5, 8))
    interval = extension_interval(premises, not_a)
    assert (interval.as_tuple(), interval.exactness) == ((0, 0), "certified-by-LP")


def test_witness_skips_the_undecidable_subfamilies():
    """The same family with ¬(C|B) = 5/8 as its fourth member.  The
    subfamilies (0,2), (0,1,2), (0,2,3) and (0,1,2,3) cannot be decided;
    of the others only (1,3) = {C|B = 1, ¬(C|B) = 5/8} fails its hull
    test.  The witness is the first subfamily of least size certified to
    fail, so it is (1,3), with a separator re-checked on its points, and
    the Dutch book stands on it."""
    premises, not_a = _undecidable_pair_premises()
    combined = Assessment(tuple(premises.items) + ((not_a, Fraction(5, 8)),))
    undecidable = {(0, 2), (0, 1, 2), (0, 2, 3), (0, 1, 2, 3)}
    for subset in subsets_by_size(4):
        if subset in undecidable:
            with pytest.raises(MissingSymbol):
                _subset_entries(combined, subset)
        else:
            assert fits(combined, subset) == (subset != (1, 3)), subset
    result = check_coherence(combined)
    assert result == exhaustive_coherence(combined) == CoherenceResult(False, (1, 3))
    assert result.separator == ((1, 1), -1)
    linprog.check_separator(
        points_of(combined, (1, 3)), previsions_of(combined, (1, 3)), result.separator
    )
    book = find_dutch_book(combined)
    assert book.subset == (1, 3) and book == exhaustive_dutch_book(combined)
    _assert_sure_win(combined, book)


def _zero_antecedent(p):
    """{P(H) = 0, P(A|H) = p}: the bet on A|H stands only where H has no
    weight, so it is decided on a second level."""
    registry = AtomRegistry(["A", "H"])
    a, h = registry.atoms("A", "H")
    return Assessment(
        [
            (conditional_event(h, TRUE, "h", registry=registry), Fraction(0)),
            (conditional_event(a, h, "ah", registry=registry), Fraction(p)),
        ]
    )


@pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 2), Fraction(1)])
def test_two_level_family_is_coherent(p):
    assessment = _zero_antecedent(p)
    assert _levels(assessment) == [(0, 1), (1,)]
    assert check_coherence(assessment).coherent


def test_two_level_family_incoherent_at_second_level():
    assessment = _zero_antecedent(Fraction(3, 2))
    assert _levels(assessment) is None
    assert check_coherence(assessment).witness == (1,)
    assert exhaustive_coherence(assessment).witness == (1,)


SPLIT_REGISTRY = AtomRegistry(["A0", "A1", "A2", "A3", "H", "K"])
SPLIT_ATOMS = SPLIT_REGISTRY.atoms("A0", "A1", "A2", "A3")
SPLIT_H = SPLIT_REGISTRY.atom("H")
SPLIT_CONTROLS = ("uncovered", "shared", "symbol")


def _formulas_over(atoms):
    return st.recursive(
        st.sampled_from(atoms),
        lambda inner: st.one_of(
            inner.map(lambda e: ~e),
            st.tuples(inner, inner).map(lambda pair: pair[0] & pair[1]),
            st.tuples(inner, inner).map(lambda pair: pair[0] | pair[1]),
        ),
        max_leaves=3,
    )


@st.composite
def split_families(draw, controls=True):
    """Groups of members over disjoint atoms that share the conditioning
    event H: per group, L|H with L a conjunction of literals of all the
    group's atoms, then conditional events A|(H ∧ C) or the conjunction
    of two members before it, with A and C formulas over the group's
    atoms.  Every member that depends on an atom of its group shares it
    with L|H, and one that depends on none stands on all of H or nowhere
    on it.  So, unless a control is drawn, the level-0 system of two or
    more groups splits, into one factor per group and one per constant
    member.  The controls break that: the first member stands on H ∧ C
    only (its factor may not cover H), a member depends on atoms of two
    groups, or a member pays an unassessed symbol.

    The previsions are those of weights on the worlds (1, 0 on a drawn
    event, 2 on another), so most families are coherent; a member whose
    live worlds weigh nothing gets a quarter in [0, 1], which the next
    level decides, and one member in eight draws takes an arbitrary
    eighth instead.  Returns the assessment, an `outside` mask as
    `_lp_interval` passes it (a target's support, or none; none for a
    family with an unassessed symbol, which it never sees), and whether
    the whole family's level-0 system must split.  Without `controls`,
    none is drawn, and there are two or three groups."""
    sizes = draw(st.lists(st.integers(1, 2), min_size=1 if controls else 2, max_size=3))
    assume(sum(sizes) <= len(SPLIT_ATOMS))
    control = draw(st.sampled_from((None,) + SPLIT_CONTROLS)) if controls else None
    members, groups, start = [], [], 0
    for g, size in enumerate(sizes):
        atoms = SPLIT_ATOMS[start : start + size]
        start += size
        groups.append(atoms)
        formulas_here = _formulas_over(atoms)
        events = []
        for i in range(draw(st.integers(1, 3))):
            name = f"g{g}m{i}"
            if len(events) > 1 and draw(st.booleans()):
                members.append(conjunction(events[0], events[1], name))
                continue
            condition = SPLIT_H
            if i or (control == "uncovered" and g == 0):
                condition = SPLIT_H & draw(formulas_here)
                assume(condition.mask(SPLIT_REGISTRY))
            if i:
                consequent = draw(formulas_here)
            else:
                literals = [atom if draw(st.booleans()) else ~atom for atom in atoms]
                consequent = reduce(lambda x, y: x & y, literals)
            events.append(conditional_event(consequent, condition, name))
            members.append(events[-1])
    if control == "shared":
        assume(len(groups) > 1)
        mixed = draw(_formulas_over(groups[0])) | draw(_formulas_over(groups[1]))
        members.append(conditional_event(mixed, SPLIT_H, "shared"))
    elif control == "symbol":
        atom = draw(st.sampled_from(groups[-1]))
        values = [(atom, Poly.sym("unassessed")), (~atom, Fraction(0))]
        members.append(conditional_quantity(values, SPLIT_H, "symbol"))
    assume(len(members) <= 5)
    worlds = SPLIT_REGISTRY.constituents()
    # Weight 1 at every world, 0 on a drawn event and 2 on another.
    masks = _formulas_over(SPLIT_ATOMS).map(lambda e: e.mask(SPLIT_REGISTRY))
    nothing, double = draw(st.one_of(st.just(0), masks)), draw(st.one_of(st.just(0), masks))
    weights = [0 if nothing >> k & 1 else 2 if double >> k & 1 else 1 for k in range(len(worlds))]
    valuation: dict[str, Fraction] = {}
    items = []
    for member in members:
        live = [] if member.own_symbol == "symbol" else list(_bits(support(member, valuation)))
        total = sum(weights[k] for k in live)
        if total and draw(st.integers(0, 7)) < 7:
            value = sum(weights[k] * payoff_at(member, worlds[k], valuation) for k in live) / total
        elif total:
            value = draw(eighths)
        else:
            value = Fraction(draw(st.integers(0, 4)), 4)
        valuation[member.own_symbol] = value
        items.append((member, value))
    outside = 0
    if control != "symbol" and draw(st.booleans()):
        outside = draw(_formulas_over(SPLIT_REGISTRY.atoms("A0", "A1", "A2", "A3", "H", "K")))
        outside = outside.mask(SPLIT_REGISTRY)
    return Assessment(items), outside, control is None and len(groups) > 1


def _split_case(items, outside=0, splits=False):
    return Assessment(items), outside, splits


SWEEP_REGISTRY = AtomRegistry(["A0", "A1", "A2", "A3", "A4", "H"])
SWEEP_A = SWEEP_REGISTRY.atoms("A0", "A1", "A2", "A3", "A4")
SWEEP_H = SWEEP_REGISTRY.atom("H")
SWEEP_MEMBERS = [
    conditional_event(a, SWEEP_H, f"p{i}", registry=SWEEP_REGISTRY) for i, a in enumerate(SWEEP_A)
]
# The family_sweep shape: five A_i|H and (A0|H) ∧ (A1|H).
SWEEP_ITEMS = list(zip(SWEEP_MEMBERS, map(Fraction, ("1/3", "1/2", "1/5", "3/4", "2/7"))))
SWEEP_CONJUNCTION = conjunction(SWEEP_MEMBERS[0], SWEEP_MEMBERS[1], "z")


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.filter_too_much])
@given(split_families())
# The family_sweep shape, coherent and below its Fréchet bound 0.
@example(_split_case(SWEEP_ITEMS + [(SWEEP_CONJUNCTION, Fraction(1, 4))], splits=True))
@example(_split_case(SWEEP_ITEMS + [(SWEEP_CONJUNCTION, Fraction(1, 2))], splits=True))
# Off the worlds where A0 holds, the conjunction is a factor of its own.
@example(
    _split_case(
        SWEEP_ITEMS + [(SWEEP_CONJUNCTION, Fraction(1, 4))],
        (SWEEP_A[0] & SWEEP_H).mask(SWEEP_REGISTRY),
    )
)
# A0|H = 0 leaves the members on H ∧ A0 to level 1, which splits again.
@example(
    _split_case(
        [
            (conditional_event(SPLIT_ATOMS[0], SPLIT_H, "a"), Fraction(0)),
            (conditional_event(SPLIT_ATOMS[3], SPLIT_H, "d"), Fraction(1, 3)),
            (conditional_event(SPLIT_ATOMS[1], SPLIT_H & SPLIT_ATOMS[0], "b"), Fraction(1, 2)),
            (conditional_event(SPLIT_ATOMS[2], SPLIT_H & SPLIT_ATOMS[0], "c"), Fraction(1, 4)),
        ],
        splits=True,
    )
)
# (1) An unassessed symbol on H.
@example(
    _split_case(
        SWEEP_ITEMS[:2]
        + [
            (
                conditional_quantity(
                    [(SWEEP_A[2], Poly.sym("s")), (~SWEEP_A[2], Fraction(0))], SWEEP_H, "q"
                ),
                Fraction(1, 3),
            )
        ]
    )
)
# (2) Off a target's support H ∧ ¬A0 ∧ ¬A1, the worlds H ∧ (A0 ∨ A1)
# are no subcube: (1/2, 1/2) lies on the segment from (1, 0) to (0, 1),
# while A1|H, with A0 fixed false, would pay 1 alone.
@example(
    _split_case(
        [
            (conditional_event(SPLIT_ATOMS[0], SPLIT_H, "a"), Fraction(1, 2)),
            (conditional_event(SPLIT_ATOMS[1], SPLIT_H, "b"), Fraction(1, 2)),
        ],
        (SPLIT_H & ~SPLIT_ATOMS[0] & ~SPLIT_ATOMS[1]).mask(SPLIT_REGISTRY),
    )
)
# (3) Every member shares an atom with another.
@example(
    _split_case(
        [
            (conditional_event(SPLIT_ATOMS[0], SPLIT_H, "a"), Fraction(1, 2)),
            (conditional_event(SPLIT_ATOMS[1], SPLIT_H, "b"), Fraction(1, 3)),
            (conditional_event(SPLIT_ATOMS[0] & SPLIT_ATOMS[1], SPLIT_H, "ab"), Fraction(1, 4)),
        ]
    )
)
# (4) The factor of A1|(H ∧ A2) stands only where A2 holds.
@example(
    _split_case(
        [
            (conditional_event(SPLIT_ATOMS[0], SPLIT_H, "a"), Fraction(1, 2)),
            (conditional_event(SPLIT_ATOMS[1], SPLIT_H & SPLIT_ATOMS[2], "b"), Fraction(1, 3)),
        ]
    )
)
# (4) merged: A3|(H ∧ A3) stands only where A3 holds, so its group joins
# the first group that stands on all of H, and the groups on A0, on A1
# and A2, and of (A3 ∧ ¬A3)|H, which pays 0 on all of H, still split.
@example(
    _split_case(
        [
            (conditional_event(SPLIT_ATOMS[0], SPLIT_H, "a"), Fraction(1, 2)),
            (conditional_event(SPLIT_ATOMS[1] & SPLIT_ATOMS[2], SPLIT_H, "bc"), Fraction(1, 3)),
            (conditional_event(SPLIT_ATOMS[3] & ~SPLIT_ATOMS[3], SPLIT_H, "never"), Fraction(0)),
            (conditional_event(SPLIT_ATOMS[3], SPLIT_H & SPLIT_ATOMS[3], "sure"), Fraction(1)),
        ],
        splits=True,
    )
)
def test_split_level_step_matches_the_single_system(case):
    """The level step, one solution per independent factor, agrees with
    the single system's maximal step for every member mask, with and
    without the `outside` mask (`_assert_level_step`); Gilio's levels
    fail exactly when the single system's do, and the verdict is the
    exhaustive sweep's."""
    assessment, outside, splits = case
    full = (1 << len(assessment)) - 1
    if splits:
        worlds = reduce(or_, assessment.live_masks)
        assert len(coherence._factors(assessment, full, worlds)) > 1
    for members in range(1, full + 1):
        for mask in {0, outside}:
            _assert_level_step(assessment, members, mask)
    levels = _outcome(_levels, assessment)
    assert (levels is None) == (_outcome(oracles.single_system_levels, assessment) is None)
    assert _outcome(check_coherence, assessment) == _outcome(exhaustive_coherence, assessment)


def _assert_level_step(assessment, members, outside):
    """`_unreleased` on `members` off the worlds of `outside` gives None,
    or the same error, exactly when the single system's maximal step
    does.  Otherwise its zero mask contains the maximal step's, it
    releases a member when some world is left, and one solution of the
    single system gives weight to exactly the members it releases."""
    got = _outcome_with_message(coherence._unreleased, assessment, members, outside)
    least = _outcome_with_message(oracles.single_system_unreleased, assessment, members, outside)
    if not isinstance(got, int) or not isinstance(least, int):
        assert got == least
        return
    assert got & least == least
    assert (got == members) == (least == members)
    released = members & ~got
    if released:
        assert oracles.released_by_one_solution(assessment, members, outside, released)


ZERO_REGISTRY = AtomRegistry(["A", "C", "H"])
A, C, H = ZERO_REGISTRY.atoms("A", "C", "H")


def _event(event, condition, symbol):
    return conditional_event(event, condition, symbol, registry=ZERO_REGISTRY)


# A|C = A|H = 1/4: the level-0 LP's solution lies on H ∧ ¬C, where A|C is
# called off, so the step leaves A|C to level 1, though other solutions
# weight it.
ONE_SOLUTION_PAIR = [(_event(A, C, "ac"), Fraction(1, 4)), (_event(A, H, "ah"), Fraction(1, 4))]


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.filter_too_much])
@given(split_families())
@example(_split_case(ONE_SOLUTION_PAIR))
@example(_split_case(SWEEP_ITEMS + [(SWEEP_CONJUNCTION, Fraction(1, 4))], splits=True))
def test_level_step_takes_one_lp_per_factor(case):
    """A level step solves each factor of two or more members by one hull
    LP, and a factor of one member by none; the LPs stop at the first
    factor with no solution."""
    assessment, outside, _ = case
    full = (1 << len(assessment)) - 1
    worlds = reduce(or_, assessment.live_masks) & ~outside
    assume(worlds)
    factors = coherence._factors(assessment, full, worlds)
    with pytest.MonkeyPatch.context() as patch:
        calls = _counted(patch, coherence, "convex_combination")
        zero = _outcome(coherence._unreleased, assessment, full, outside)
    lps = sum(len(factor) > 1 for factor in factors)
    if isinstance(zero, int):
        assert len(calls) == lps
    else:
        assert len(calls) <= lps


def test_one_solution_leaves_a_member_to_the_next_level(monkeypatch):
    """The one solution of the pair's level 0 leaves A|C at zero weight,
    where the single system's maximal step releases both; level 1 then
    decides A|C by the interval of its points.  The verdict is the same,
    from one LP."""
    assessment = Assessment(ONE_SOLUTION_PAIR)
    assert oracles.single_system_levels(assessment) == [(0, 1)]
    lps = _counted(monkeypatch, linprog, "simplex_minimize")
    assert _levels(assessment) == [(0, 1), (0,)]
    assert len(lps) == 1
    assert check_coherence(assessment) == exhaustive_coherence(assessment) == CoherenceResult(True)


# A|H = C|H = 3/4 with (A∧C)|H = 1/4, below the Fréchet bound 1/2: every
# pair is coherent, so the witness is the whole family, decided by an LP.
BELOW_FRECHET = [
    (_event(A, H, "a"), Fraction(3, 4)),
    (_event(C, H, "c"), Fraction(3, 4)),
    (_event(A & C, H, "ac"), Fraction(1, 4)),
]


@settings(deadline=None, max_examples=150)
@given(families())
@example(Assessment(BELOW_FRECHET))  # a three-member witness, separated by its LP
def test_incoherent_verdicts_carry_a_checked_separator(assessment):
    """The witness's separator, re-checked here over every payoff point of
    the witness (duplicates included); its entries are coprime integers."""
    try:
        result = check_coherence(assessment)
    except CoherekitError:
        return
    if result.coherent:
        assert result.separator is None
        return
    slopes, offset = result.separator
    points = points_of(assessment, result.witness)
    previsions = previsions_of(assessment, result.witness)
    assert len(slopes) == len(result.witness)
    assert all(sum(s * v for s, v in zip(slopes, point)) + offset <= 0 for point in points)
    assert sum(s * v for s, v in zip(slopes, previsions)) + offset > 0
    assert all(v.denominator == 1 for v in (*slopes, offset))
    assert gcd(*(v.numerator for v in (*slopes, offset))) == 1


# -- extension intervals -----------------------------------------------------

EPSILON = Fraction(1, 2**30)


@st.composite
def separable_extensions(draw, any_premises=False):
    """Coherent premises over three atoms, none with an unassessed symbol,
    and a target whose own symbol no premise mentions: a conditional
    event, an unconditional event, the conjunction of two premises, or
    C|(A|H) on a premise A|H.  With `any_premises`, the premises may be
    incoherent, and their previsions are 0 or 1 more often."""
    base_a = conditional_event(draw(formulas), draw(possible), "pa", registry=REGISTRY)
    base_b = conditional_event(draw(formulas), draw(possible), "pb", registry=REGISTRY)
    pool = {
        "a": base_a,
        "b": base_b,
        "not_a": negate(base_a, "na"),
        "conj": conjunction(base_a, base_b, "cj"),
        "c_given_a": iterated_simple(base_a, draw(formulas), "ca"),
        "b_given_a": iterated(base_a, base_b, "mu", "cj"),
        "other": conditional_event(draw(formulas), draw(possible), "po", registry=REGISTRY),
    }
    # Every premise symbol is assessed: (B|K)|(A|H) pays the conjunction's.
    needs = {"conj": {"a", "b"}, "c_given_a": {"a"}, "b_given_a": {"a", "b", "conj"}}
    kinds = draw(st.sets(st.sampled_from(sorted(pool)), min_size=1, max_size=3))
    kinds |= {need for kind in kinds for need in needs.get(kind, ())}
    kind = draw(st.sampled_from(["conditional", "unconditional", "conjunction", "c_given_a"]))
    if kind == "conjunction":
        kinds |= {"a", "b"}
        target = conjunction(base_a, base_b, "t")
    elif kind == "c_given_a":
        kinds.add("a")
        target = iterated_simple(base_a, draw(formulas), "t")
    else:
        condition = draw(possible) if kind == "conditional" else TRUE
        target = conditional_event(draw(formulas), condition, "t", registry=REGISTRY)
    # Mostly interior, so that intervals are often proper.
    quarters = st.one_of(st.integers(1, 3), st.integers(0, 4)).map(lambda k: Fraction(k, 4))
    if any_premises:
        quarters = st.one_of(quarters, st.sampled_from([Fraction(0), Fraction(1)]), eighths)
    premises = Assessment([(pool[k], draw(quarters)) for k in draw(st.permutations(sorted(kinds)))])
    assume(any_premises or exhaustive_coherence(premises).coherent)
    # A target called off at every world is left to the search.
    assume(support(target, premises.valuation))
    return premises, target


@settings(deadline=None, max_examples=120, suppress_health_check=[HealthCheck.filter_too_much])
@given(separable_extensions())
def test_lp_endpoints_are_tight(case):
    """Both LP endpoints are coherent extensions and 2^-30 beyond either
    one (inside [0, 1]) is not; where the bisection search certifies its
    endpoints, they are the same."""
    premises, target = case
    assert _linear_target(premises, target) is not None
    interval = extension_interval(premises, target)
    assert interval.exactness == "certified-by-LP"
    assert interval.lower <= interval.upper
    for endpoint in interval.as_tuple():
        assert _coherent_with_target(premises, target, endpoint)
    for outside in (interval.lower - EPSILON, interval.upper + EPSILON):
        if 0 <= outside <= 1:
            assert not _coherent_with_target(premises, target, outside)
    try:
        searched = _search_interval(premises, target, 20)
    except CoherekitError:
        return
    if searched.exactness == "certified-by-LP":
        assert searched.as_tuple() == interval.as_tuple()


@st.composite
def free_symbol_extensions(draw):
    """Premises with an unassessed symbol and a target over their atoms: a
    conditional or unconditional event, or C|(A|H) on the premises' A|H."""
    premises = draw(st.one_of(member_lists(), member_lists(free_inner=True)).map(Assessment))
    assume(premises.free_symbols)
    bases = [crq for crq, _ in premises.items if crq.own_symbol == "pa"]
    kind = draw(st.sampled_from(["conditional", "unconditional"] + ["c_given_a"] * len(bases)))
    if kind == "c_given_a":
        return premises, iterated_simple(bases[0], draw(formulas), "t")
    condition = draw(possible) if kind == "conditional" else TRUE
    return premises, conditional_event(draw(formulas), condition, "t", registry=REGISTRY)


@settings(deadline=None, max_examples=100, suppress_health_check=[HealthCheck.filter_too_much])
@given(free_symbol_extensions())
def test_no_lp_target_over_premises_with_an_unassessed_symbol(case):
    """Premises that leave a symbol unassessed never take the extension
    LP, so its level step, the only one with an `outside` mask, reads no
    symbolic cell."""
    premises, target = case
    assert _linear_target(premises, target) is None


# A|H = 1/2 and ¬A|H = 3/4 over-commit to H; the target C is unrelated.
OVERCOMMITTED_HALF = [(_event(A, H, "a"), Fraction(1, 2)), (_event(~A, H, "na"), Fraction(3, 4))]
COHERENT_PAIR = [(_event(A, H, "a"), Fraction(1, 2)), (_event(~A, H, "na"), Fraction(1, 2))]


@settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.filter_too_much])
@given(separable_extensions(any_premises=True), st.one_of(st.none(), st.integers(1, 5)))
@example(mp_family(0, Fraction(1, 2)), None)  # C|(A|H) needs level 1: the fallback
@example((Assessment(OVERCOMMITTED_HALF), _event(C, TRUE, "t")), None)
@example((Assessment(OVERCOMMITTED_HALF), _event(C, TRUE, "t")), 2)
@example((Assessment(COHERENT_PAIR), _event(C, TRUE, "t")), 2)
def test_folded_premise_check_matches_the_separate_one(case, cap):
    """Reading the premises' coherence off the endpoint solutions, with
    both endpoints from one system, gives the interval and exactness tag,
    or the exception type and message, of the separate premise check and
    endpoint LPs, caps and incoherent premises included."""
    premises, target = case
    folded = _outcome_with_message(lambda: extension_interval(premises, target, cap=cap))
    separate = oracles.separate_extension_interval
    assert folded == _outcome_with_message(lambda: separate(premises, target, cap=cap))


@pytest.mark.parametrize(
    "items, cap, error",
    [
        (OVERCOMMITTED_HALF, None, IncoherentPremises),
        (OVERCOMMITTED_HALF, 2, IncoherentPremises),
        (COHERENT_PAIR, 2, CapExceeded),
    ],
    ids=["incoherent", "incoherent-at-the-cap", "coherent-at-the-cap"],
)
def test_incoherent_premises_raise_before_the_cap_of_the_combined_family(items, cap, error):
    """Premises at the cap leave no room for the target: incoherent ones
    still raise `IncoherentPremises`, coherent ones `CapExceeded`."""
    with pytest.raises(error):
        extension_interval(Assessment(items), _event(C, TRUE, "t"), cap=cap)


@pytest.mark.parametrize(
    "premises, target, expected, lps",
    [
        ([(_event(H, TRUE, "h"), 0)], _event(A, H, "t"), (0, 1), 1),
        (
            [(_event(H, TRUE, "h"), 0), (_event(A, H, "ah"), Fraction(1, 3))],
            _event(A & C, H, "t"),
            (0, Fraction(1, 3)),
            3,
        ),
        # D = 1 is feasible (all weight on ¬A·H), yet all weight may also
        # lie on ¬H, where A|H is called off: no bound follows.
        ([(_event(A & H, TRUE, "ah"), 0)], _event(A, H, "t"), (0, 1), 1),
    ],
    ids=["P(H)=0", "P(H)=0,P(A|H)=1/3", "P(AH)=0"],
)
def test_zero_denominator_takes_the_next_level(monkeypatch, premises, target, expected, lps):
    """A one-premise level off the target's support is decided by the
    interval of its points, so only the one system of both endpoints
    remains.  The level step drops a premise in every case, so the
    premises' own check runs as well: it takes no LP for one premise.
    Two premises take one LP in each of those two level-0 steps, whose
    one solution leaves A|H, called off there, at weight zero."""
    calls = 0
    real = linprog.simplex_minimize

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(linprog, "simplex_minimize", counting)
    interval = extension_interval(Assessment(premises), target)
    assert interval.as_tuple() == tuple(Fraction(v) for v in expected)
    assert interval.exactness == "certified-by-LP"
    assert calls == lps


# A|H = ¬A|H = 3/4: a two-member witness.
OVERCOMMITTED_PAIR = [(_event(A, H, "a"), Fraction(3, 4)), (_event(~A, H, "na"), Fraction(3, 4))]


def test_corrupted_multipliers_are_internal_errors(monkeypatch, tmp_path, capsys):
    """An LP endpoint, separator or stake vector whose multipliers fail the
    exact re-check is a fault of the library, never an interval, a verdict
    or a Dutch book.  One- and two-member witnesses' separators come from
    the interval or the planar hull of their points, with no LP
    multipliers to corrupt, so the separator tampered with is a
    three-member witness's."""
    assert check_coherence(Assessment(BELOW_FRECHET)).witness == (0, 1, 2)
    doc = tmp_path / "mp.cohere"
    doc.write_text(MP_DOC, encoding="utf-8")
    real = linprog.simplex_minimize
    # Both endpoints share one system: its first objective, then its second.
    for objective in (0, 1):
        monkeypatch.setattr(linprog, "simplex_minimize", _corrupted_multipliers(real, objective))
        with pytest.raises(InternalError):
            extension_interval(Assessment([(_event(H, TRUE, "h"), 0)]), _event(A, H, "t"))
        assert main(["extend", str(doc)]) == 4
        assert capsys.readouterr().err.startswith("internal error:")
    monkeypatch.setattr(linprog, "simplex_minimize", _corrupted_multipliers(real))
    assert check_coherence(_zero_antecedent(Fraction(3, 2))).separator == ((1,), -1)
    assert check_coherence(Assessment(OVERCOMMITTED_PAIR)).witness == (0, 1)
    with pytest.raises(InternalError):
        check_coherence(Assessment(BELOW_FRECHET))
    with pytest.raises(InternalError):
        linprog.best_uniform_gain([(Fraction(-1),), (Fraction(-2),)])


def test_level_and_witness_lps_build_no_fraction(monkeypatch):
    """The level LP of a coherent three-member family and the separating
    LP of a three-member witness run on integers from the payoff matrix
    to the re-checked certificate: `linprog` builds no `Fraction`."""
    real = linprog.simplex_minimize
    lps = 0

    def counting(*args, **kwargs):
        nonlocal lps
        lps += 1
        return real(*args, **kwargs)

    def no_fraction(*args):
        raise AssertionError("linprog built a Fraction")

    monkeypatch.setattr(linprog, "simplex_minimize", counting)
    monkeypatch.setattr(linprog, "Fraction", no_fraction)
    at_the_bound = BELOW_FRECHET[:2] + [(BELOW_FRECHET[2][0], Fraction(1, 2))]
    assert check_coherence(Assessment(at_the_bound)).coherent
    assert lps
    lps = 0
    assert check_coherence(Assessment(BELOW_FRECHET)).witness == (0, 1, 2)
    assert lps


def test_dutch_book_reads_no_payoff_as_a_fraction():
    """The stake LP's rows are the witness's integer points minus their
    integer targets, one per live world; its book is the exhaustive stake
    search's, whose rows are the world-by-world payoffs as `Fraction`s."""
    expected = exhaustive_dutch_book(Assessment(BELOW_FRECHET))
    assert find_dutch_book(Assessment(BELOW_FRECHET)) == expected
    assert expected.subset == (0, 1, 2)


def test_wrong_planar_separator_is_an_internal_error(monkeypatch):
    """A two-member witness's separator is re-checked on its integer
    points like any other; a wrong one is a fault of the library."""
    monkeypatch.setattr(coherence, "_planar_separator", lambda points, target: ((-1, -1), 1))
    with pytest.raises(InternalError):
        check_coherence(Assessment(OVERCOMMITTED_PAIR))


@st.composite
def planar_hulls(draw):
    """Integer points of the plane, times 4, and a target: a free cloud of
    one to seven points, a single point (perhaps repeated), or points on
    one line; the target anywhere, on a point, on the segment between two
    points, or on the line of a collinear set, beyond its ends too."""
    coordinate = st.integers(-3, 3)
    plane = st.tuples(coordinate, coordinate)
    shape = draw(st.sampled_from(["cloud", "point", "line"]))
    if shape == "cloud":
        points = draw(st.lists(plane, min_size=1, max_size=7))
    elif shape == "point":
        points = [draw(plane)] * draw(st.integers(1, 3))
    else:
        (ox, oy), (dx, dy) = draw(plane), draw(plane.filter(any))
        steps = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=5))
        points = [(ox + k * dx, oy + k * dy) for k in steps]
    points = [(4 * x, 4 * y) for x, y in points]
    where = draw(st.sampled_from(["anywhere", "point", "segment", "line"]))
    if where == "point":
        target = draw(st.sampled_from(points))
    elif where == "segment":
        (ax, ay), (bx, by) = draw(st.sampled_from(points)), draw(st.sampled_from(points))
        k = draw(st.integers(0, 4))
        target = (ax + k * (bx - ax) // 4, ay + k * (by - ay) // 4)
    elif where == "line" and shape == "line":
        k = draw(st.integers(-16, 16))
        target = (4 * ox + k * dx, 4 * oy + k * dy)
    else:
        target = draw(st.tuples(st.integers(-16, 16), st.integers(-16, 16)))
    return points, target


@settings(deadline=None, max_examples=400)
@given(planar_hulls())
@example(([(0, 0)] * 2, (0, 0)))  # on a repeated point
@example(([(0, 0), (4, 4)], (8, 8)))  # beyond a segment's end
@example(([(0, 0), (4, 4)], (-4, -4)))  # beyond the other end
@example(([(0, 0), (4, 4), (8, 8)], (4, 4)))  # inside a collinear set
@example(([(0, 0), (8, 0), (0, 8)], (4, 4)))  # on an edge
def test_planar_hull_matches_the_hull_lp(case):
    """Inside or outside as the hull LP says, and every separator, like
    the LP's, is a pair of ints that passes its exact re-check on the
    integer points."""
    points, target = case
    separator = _planar_separator(points, target)
    _, lp_separator = linprog.convex_combination(points, target, separate=True)
    assert (separator is None) == (lp_separator is None)
    if separator is not None:
        linprog.check_separator(points, target, separator)
        (s1, s2), t = separator
        assert all(type(v) is int for v in (s1, s2, t, *lp_separator[0], lp_separator[1]))


# Zero in a third of the draws, else small numerators over mixed and
# large prime denominators.
lp_entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 12, 999983])),
)


@st.composite
def linear_programs(draw):
    """1-5 rows, 1-8 columns; right-hand sides of either sign; in half of
    the systems with two or more rows, the last row repeats or negates the
    first, so artificials can stay basic at zero after phase 1."""
    rows = draw(st.integers(1, 5))
    columns = draw(st.integers(1, 8))
    vectors = st.lists(lp_entries, min_size=columns, max_size=columns)
    matrix = [draw(vectors) for _ in range(rows)]
    rhs = draw(st.lists(lp_entries, min_size=rows, max_size=rows))
    if rows > 1 and draw(st.booleans()):
        sign = draw(st.sampled_from([1, -1]))
        matrix[-1] = [sign * v for v in matrix[0]]
        rhs[-1] = sign * rhs[0]
    return matrix, rhs, draw(vectors)


def _solve_recording_pivots(solve, module, name, lp, **options):
    pivots = []
    pivot = getattr(module, name)

    def recording(tableau, basis, row, col):
        pivots.append((row, col))
        pivot(tableau, basis, row, col)

    setattr(module, name, recording)
    try:
        return solve(*lp, **options), pivots
    finally:
        setattr(module, name, pivot)


def _ints(*rows):
    return [[Fraction(v) for v in row] for row in rows]


@settings(deadline=None, max_examples=300)
@given(linear_programs())
@example((_ints([1], [1]), [Fraction(1), Fraction(2)], [Fraction(0)]))  # infeasible
@example((_ints([1, -1]), [Fraction(0)], [Fraction(-1), Fraction(0)]))  # unbounded
@example(  # a negative rhs
    (_ints([-1, 2], [1, 1]), [Fraction(-3), Fraction(5)], [Fraction(1), Fraction(2)])
)
@example(  # mixed denominators
    (
        [[Fraction(1, 3), Fraction(2, 999983)], [Fraction(1, 2), Fraction(5, 12)]],
        [Fraction(1, 5), Fraction(1)],
        [Fraction(1, 12), Fraction(-1)],
    )
)
def test_integer_simplex_matches_the_fraction_tableau(lp):
    """Status, solution, objective and multipliers (duals, or the Farkas
    vector of an infeasible system), read as `Fraction`s, are the
    `Fraction` tableau's, and so is every pivot."""
    got, path = _solve_recording_pivots(
        linprog.simplex_minimize, linprog, "_pivot", lp, multipliers=True
    )
    expected, oracle_path = _solve_recording_pivots(
        fraction_simplex, oracles, "_fraction_pivot", lp, multipliers=True
    )
    assert fraction_form(got) == expected
    assert path == oracle_path
    assert fraction_form(linprog.simplex_minimize(*lp)) == expected[:3]


@settings(deadline=None, max_examples=300)
@given(linear_programs(), st.data())
def test_further_objectives_match_fresh_systems(lp, data):
    """Further cost vectors over the same rows reach the optimum, or the
    unboundedness, of a fresh system for each; the first objective keeps
    the pivots and the result it has alone, and phase 1 runs once: the
    first objective repeated takes no further pivot from its optimum.  `certified_minimum`
    re-checks every optimum and gives each one's value."""
    matrix, rhs, costs = lp
    further = data.draw(
        st.lists(st.lists(lp_entries, min_size=len(costs), max_size=len(costs)), max_size=3)
    )
    objectives = [costs, *further]
    alone, path = _solve_recording_pivots(
        linprog.simplex_minimize, linprog, "_pivot", lp, multipliers=True
    )
    results, shared_path = _solve_recording_pivots(
        linprog.simplex_minimize, linprog, "_pivot", lp, multipliers=True, further=[*further, costs]
    )
    assert len(results) == len(objectives) + 1
    assert results[0] == alone
    assert shared_path[: len(path)] == path
    fresh = [linprog.simplex_minimize(matrix, rhs, c, multipliers=True) for c in objectives]
    for got, expected in zip(results, fresh):
        assert got[0] == expected[0]
        if expected[0] == "optimal":
            assert fraction_form(got)[2] == fraction_form(expected)[2]
        elif expected[0] == "infeasible":
            assert got == expected
    repeated, repeated_path = _solve_recording_pivots(
        linprog.simplex_minimize, linprog, "_pivot", lp, further=[costs]
    )
    assert fraction_form(repeated[1]) == fraction_form(repeated[0])
    if alone[0] != "unbounded":
        assert repeated_path == path
    if all(result[0] == "optimal" for result in fresh):
        certified = linprog.certified_minimum(matrix, rhs, costs, further=further)
        assert [value for value, _, _ in certified] == [fraction_form(r)[2] for r in fresh]
    elif fresh[0][0] == "infeasible":
        assert linprog.certified_minimum(matrix, rhs, costs, further=further) is None


SYMBOLS = ("x", "y", "z", "w")
coefficients = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 7, 12]))
monomials = st.dictionaries(st.sampled_from(SYMBOLS), st.integers(1, 3), max_size=3).map(
    lambda powers: tuple(sorted(powers.items()))
)
polynomials = st.dictionaries(monomials, coefficients, max_size=5).map(Poly)
# A value is a `Fraction`, an int, a float read exactly as `Poly.const`
# reads it, or a `Poly`, such as a link xn = 1 - x.
values = st.one_of(coefficients, st.integers(-3, 3), st.sampled_from([0.5, -1.25]), polynomials)


@settings(deadline=None, max_examples=300)
@given(
    polynomials,
    st.one_of(
        st.dictionaries(st.sampled_from(SYMBOLS), coefficients),
        st.fixed_dictionaries({sym: coefficients for sym in SYMBOLS}),
        st.dictionaries(st.sampled_from(SYMBOLS + ("v",)), values),
    ),
)
@example(Poly.sym("x") * Poly.sym("y") + 1, {"x": Poly.const(1) - Poly.sym("x")})
@example(Poly.sym("x") * Poly.sym("x"), {"x": Fraction(1, 2), "y": 0})
@example(Poly.sym("x") * 3, {"x": 0.5})
def test_substitution_matches_the_composed_products(poly, valuation):
    """Partial, full and `Poly`-valued valuations give the polynomial of
    the term-by-term product construction, with `Fraction` coefficients."""
    got = poly.substitute(valuation)
    assert got == oracles.composed_substitute(poly, valuation)
    assert all(type(c) is Fraction for c in got.terms.values())


@settings(deadline=None, max_examples=300)
@given(
    polynomials,
    st.one_of(
        st.fixed_dictionaries({sym: coefficients for sym in SYMBOLS}),
        st.dictionaries(st.sampled_from(SYMBOLS + ("v",)), st.one_of(coefficients, st.integers(-3, 3))),
    ),
)
@example(Poly.const(0), {})
@example(Poly.sym("x") * Poly.sym("x") * 3 - 1, {"x": Fraction(-2, 3)})
def test_direct_evaluation_matches_the_composed_products(poly, valuation):
    """`Poly.evaluate` is the constant of the term-by-term substitution, a
    `Fraction`, when the valuation assigns every symbol, and None when it
    leaves one."""
    got = poly.evaluate(valuation)
    if poly.symbols() <= valuation.keys():
        assert type(got) is Fraction
        assert got == oracles.composed_substitute(poly, valuation).constant_value()
    else:
        assert got is None


def _typed(value):
    """A field with each int or `Poly` cell tagged by its type, so that an
    int cell never equals a constant `Poly`."""
    if isinstance(value, tuple):
        return tuple(_typed(v) for v in value)
    return (type(value), value)


@settings(deadline=None, max_examples=150)
@given(
    st.one_of(
        member_lists().map(Assessment),
        member_lists(free_inner=True).map(Assessment),
        layered_families(),
    )
)
def test_assessment_fields_match_their_world_by_world_rebuild(assessment):
    """Every field of the payoff matrix, built from the kept row masks and
    direct evaluations, equals its rebuild world by world from the events,
    payoffs and previsions, bit for bit: the same ints, the same `Poly`
    cells, the same masks and the same D_i.  A change of D_i would change
    the rows the simplex sees, and with them `find_dutch_book`'s stakes."""
    expected = oracles.assessment_fields(assessment)
    for name, value in expected.items():
        assert _typed(getattr(assessment, name)) == _typed(value), name


def _sweep_case(ps, z):
    """The family_sweep shape with A_i|H = ps[i] and (A0|H) ∧ (A1|H) = z."""
    return Assessment(list(zip(SWEEP_MEMBERS, map(Fraction, ps))) + [(SWEEP_CONJUNCTION, z)])


# The three witness shapes of family_sweep: z above p0, z above p1 < p0,
# and z below the Fréchet bound p0 + p1 - 1.
SWEEP_WITNESS_0N = _sweep_case(("1/3", "1/2", "1/5", "3/4", "2/7"), Fraction(1, 2))
SWEEP_WITNESS_1N = _sweep_case(("1/2", "1/3", "1/5", "3/4", "2/7"), Fraction(2, 5))
SWEEP_WITNESS_01N = _sweep_case(("3/4", "1/2", "1/5", "3/4", "2/7"), Fraction(1, 8))


@st.composite
def factorable_incoherent_families(draw):
    """A family of `split_families` with no control, whose level-0 system
    splits, in a drawn order, so that the factors interleave, with the
    previsions of one to three members redrawn as arbitrary eighths, kept
    when the family is incoherent."""
    assessment, _, _ = draw(split_families(controls=False))
    items = draw(st.permutations(assessment.items))
    for i in draw(st.sets(st.integers(0, len(items) - 1), min_size=1, max_size=3)):
        items[i] = (items[i][0], draw(eighths))
    assessment = Assessment(items)
    full = (1 << len(assessment)) - 1
    assume(len(coherence._factors(assessment, full, reduce(or_, assessment.live_masks))) > 1)
    assume(not check_coherence(assessment).coherent)
    return assessment


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.filter_too_much])
@given(factorable_incoherent_families())
@example(SWEEP_WITNESS_0N)
@example(SWEEP_WITNESS_1N)
@example(SWEEP_WITNESS_01N)
def test_witness_inside_factors_matches_the_full_sweep(assessment):
    """Sought only among the subfamilies inside one factor of the whole
    family's level-0 system, the witness and its separator are those of
    the subset loop over every subfamily, and the witness is the
    exhaustive sweep's."""
    full = (1 << len(assessment)) - 1
    assert len(coherence._factors(assessment, full, reduce(or_, assessment.live_masks))) > 1
    result = check_coherence(assessment)
    swept = coherence._first_failure(assessment, subsets_by_size(len(assessment)))
    assert not result.coherent
    assert (result.witness, result.separator) == (swept.witness, swept.separator)
    assert result == exhaustive_coherence(assessment)


@pytest.mark.parametrize(
    "assessment, witness, projections, hull_lps",
    [
        (SWEEP_WITNESS_0N, (0, 5), 9, 1),
        (SWEEP_WITNESS_1N, (1, 5), 10, 1),
        (SWEEP_WITNESS_01N, (0, 1, 5), 11, 2),
    ],
    ids=["0n", "1n", "01n"],
)
def test_sweep_witnesses_take_few_projections(
    monkeypatch, assessment, witness, projections, hull_lps
):
    """The family_sweep factors are {0, 1, 5}, {2}, {3} and {4}: level 0
    fails at the first, and the sweep visits the six members, then the
    pairs and the triple inside it, up to the witness; only the level
    system and the triple take a hull LP."""
    counts = {"_subset_entries": 0, "convex_combination": 0}

    def counted(name):
        real = getattr(coherence, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(coherence, name, counted(name))
    assert check_coherence(assessment).witness == witness
    assert counts == {"_subset_entries": projections, "convex_combination": hull_lps}


# A world mask over the three atoms, or none.
outside_masks = st.one_of(st.just(0), possible.map(lambda e: e.mask(REGISTRY)))


@settings(deadline=None, max_examples=150)
@given(st.one_of(member_lists(), member_lists(free_inner=True)).map(Assessment), outside_masks)
def test_pieces_match_the_world_by_world_points(assessment, outside):
    """The points read off pieces of cell regions, spread over their
    worlds, are the world-by-world projection's bit for bit, corners
    included, with and without a mask of worlds; merged by value, and by
    value and live members, they come in the same order; an unassessed
    symbol that cannot be eliminated raises the same `MissingSymbol`; and
    every level step agrees with the single system's maximal step
    (`_assert_level_step`), with an `outside` mask too when no symbol is
    left unassessed."""
    lives = oracles.live_members(assessment)
    for subset in subsets_by_size(len(assessment)):
        members = reduce(or_, (1 << i for i in subset))
        for worlds in {-1, ~outside}:
            expected = _outcome_with_message(oracles.subset_entries, assessment, subset, worlds)
            got = _outcome_with_message(_subset_entries, assessment, subset, worlds)
            if not isinstance(expected, list):
                assert got == expected
                continue
            assert _world_entries(got) == expected
            assert list(dict.fromkeys(point for _, point, _ in got)) == list(
                dict.fromkeys(point for _, point, _ in expected)
            )
            assert list(dict.fromkeys((point, live) for (_, _, live), point, _ in got)) == list(
                dict.fromkeys((point, lives[k] & members) for k, point, _ in expected)
            )
        # The extension LP passes an `outside` mask only for premises with
        # no unassessed symbol (`_linear_target`).
        for mask in {0} if assessment.free_symbols else {0, outside}:
            _assert_level_step(assessment, members, mask)


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.filter_too_much])
@given(separable_extensions(any_premises=True))
@example(mp_family(0, Fraction(1, 2)))
def test_extension_columns_match_the_world_by_world_system(case):
    """The endpoint system built from pieces of the premises' and the
    target's regions has the matrix, rhs and costs of the one built world
    by world, and releases the premises that the world-by-world columns
    release."""
    premises, target = case
    linear = _linear_target(premises, target)
    assume(linear is not None)
    payoffs, target_live = linear
    members = (1 << len(premises)) - 1
    while members:
        zero = oracles.single_system_unreleased(premises, members, target_live)
        if zero is None or zero == members:
            break
        members = zero
    matrix, rhs, costs, lives = oracles.extension_columns(premises, members, payoffs, target_live)
    systems = []
    real = propagation.certified_minimum

    def recorded(*args, **kwargs):
        systems.append((args, kwargs))
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(propagation, "certified_minimum", recorded)
        interval, released = propagation._lp_interval(premises, payoffs, target_live)
    assert systems == [((matrix, rhs, costs), {"further": [[-a for a in costs]]})]
    certified = real(matrix, rhs, costs, further=[[-a for a in costs]])
    if certified is None:
        assert (interval, released) == (None, 0)
        return
    (_, _, (least, _)), (_, _, (most, _)) = certified
    assert released == reduce(
        or_, (live for live, low, high in zip(lives, least, most) if low or high), 0
    )
