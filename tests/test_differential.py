"""Differential tests of the coherence engine against the exhaustive
stake search of `oracles.py`, on random families over three atoms.

Events are random formulas, so the atoms of a family stand in logical
relations (implication, incompatibility, equivalence).  Previsions are
eighths that may fall outside [0, 1].
"""

import itertools
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from coherekit.coherence import (
    Assessment,
    build_points,
    check_coherence,
    find_dutch_book,
    solve_sigma,
    subsets_by_size,
)
from coherekit.crq import conditional_event, conjunction, iterated, iterated_simple, negate
from coherekit.errors import CoherekitError, EmptySupport
from coherekit.events import AtomRegistry
from coherekit.polynomials import Poly
from oracles import exhaustive_dutch_book

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
def families(draw):
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
    kinds = draw(st.sets(st.sampled_from(sorted(REQUIRES)), min_size=1, max_size=3))
    kinds |= {need for kind in kinds for need in REQUIRES[kind]}
    assume(len(kinds) <= MAX_MEMBERS)
    order = draw(st.permutations(sorted(kinds)))
    return Assessment([(build[kind](), draw(eighths)) for kind in order])


def _outcome(fn, assessment):
    try:
        return fn(assessment)
    except CoherekitError as error:
        return type(error)


def _assert_sure_win(assessment, book):
    """The stakes win at least the book's gain at every live world of its
    subfamily, whatever value an unassessed prevision takes in [0, 1]
    (payoffs are affine in those, so the corners suffice)."""
    assert book.guaranteed_gain > 0
    live = frozenset().union(*(assessment.supports[i] for i in book.subset))
    assert live
    for world in live:
        rows = []
        for i in book.subset:
            quantity, prevision = assessment.items[i]
            if world in assessment.supports[i]:
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
        try:
            table = build_points(assessment, subset)
        except EmptySupport:
            continue
        assert solve_sigma(table) is not None, subset

