"""Payoff tables of conditional random quantities.

The constructed tables are compared region-by-region against the payoff
tables that define each notion, with symbolic (polynomial) entries.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from coherekit.errors import (
    ImpossibleConditioningEvent,
    MissingSymbol,
    PreconditionFailed,
)
from coherekit.events import FALSE, TRUE, AtomRegistry, equivalent
from coherekit.polynomials import ONE, ZERO, Poly
from coherekit.crq import (
    add,
    conditional_event,
    conditional_quantity,
    conjunction,
    given_event,
    iterated,
    iterated_simple,
    negate,
    payoff_at,
    reduce_nested,
    support,
)

x, y, mu, z = Poly.sym("x"), Poly.sym("y"), Poly.sym("mu"), Poly.sym("z")


def worlds_of(event, registry):
    """The set of possible worlds at which the event is true."""
    mask = event.mask(registry)
    return frozenset(c for c in registry.constituents() if mask >> c.index & 1)


def rows_as_dict(q):
    """Map each payoff region (by constituent set) to its polynomial."""
    return {worlds_of(event, q.registry): poly for event, poly in q.rows}


def assert_table(q, expected):
    """`expected`: list of (event, poly); compared semantically region-wise."""
    got = rows_as_dict(q)
    want = {
        worlds_of(event, q.registry): Poly.coerce(poly)
        for event, poly in expected
    }
    assert got == want


# -- conditional events ----------------------------------------------------


def test_conditional_event_table():
    reg = AtomRegistry(["A", "H"])
    a, h = reg.atom("A"), reg.atom("H")
    q = conditional_event(a, h, "x")
    assert_table(q, [(a & h, ONE), (~a & h, ZERO), (~h, x)])


def test_conditional_event_values():
    reg = AtomRegistry(["A", "H"])
    a, h = reg.atom("A"), reg.atom("H")
    q = conditional_event(a, h, "x")
    val = {"x": Fraction(1, 3)}
    for c in reg.constituents():
        if c.truth("A") and c.truth("H"):
            assert payoff_at(q, c, val) == 1
        elif c.truth("H"):
            assert payoff_at(q, c, val) == 0
        else:
            assert payoff_at(q, c, val) == Fraction(1, 3)


def test_impossible_conditioning_event_rejected():
    reg = AtomRegistry(["A"])
    a = reg.atom("A")
    with pytest.raises(ImpossibleConditioningEvent):
        conditional_event(a, FALSE, "x", registry=reg)
    with pytest.raises(ImpossibleConditioningEvent):
        conditional_event(a, a & ~a, "x")


# -- negation ---------------------------------------------------------------


def test_negation_of_conditional_event():
    reg = AtomRegistry(["A", "H"])
    a, h = reg.atom("A"), reg.atom("H")
    q = negate(conditional_event(a, h, "x"), "xn")
    assert_table(q, [(a & h, ZERO), (~a & h, ONE), (~h, Poly.sym("xn"))])
    assert dict(q.links)["xn"] == ONE - x


def test_negation_involution_pointwise():
    reg = AtomRegistry(["A", "H"])
    a, h = reg.atom("A"), reg.atom("H")
    q = conditional_event(a, h, "x")
    qnn = negate(negate(q))
    links = dict(qnn.links)
    for c in reg.constituents():
        assert qnn.payoff_poly(c).substitute(links).substitute(links) == q.payoff_poly(c)


def test_negation_of_general_quantity():
    reg = AtomRegistry(["A", "B", "H", "K"])
    a, b, h, k = reg.atoms("A", "B", "H", "K")
    conj = conjunction(
        conditional_event(a, h, "x"), conditional_event(b, k, "y"), "z"
    )
    neg = negate(conj, "zn")
    for c in reg.constituents():
        assert neg.payoff_poly(c) == ONE - conj.payoff_poly(c)
    assert support(neg, {"x": 1, "y": 1}) == support(conj, {"x": 1, "y": 1})


# -- conjunction ------------------------------------------------------------


def test_conjunction_table():
    reg = AtomRegistry(["A", "B", "H", "K"])
    a, b, h, k = reg.atoms("A", "B", "H", "K")
    q = conjunction(conditional_event(a, h, "x"), conditional_event(b, k, "y"), "z")
    assert_table(
        q,
        [
            (a & h & b & k, ONE),
            (~h & b & k, x),
            (a & h & ~k, y),
            (~h & ~k, z),
            ((~a & h & k) | (a & h & ~b & k) | (~h & ~b & k) | (~a & h & ~k), ZERO),
        ],
    )


def test_conjunction_symmetry():
    reg = AtomRegistry(["A", "B", "H", "K"])
    a, b, h, k = reg.atoms("A", "B", "H", "K")
    q1 = conjunction(conditional_event(a, h, "x"), conditional_event(b, k, "y"), "z")
    q2 = conjunction(conditional_event(b, k, "y"), conditional_event(a, h, "x"), "z")
    assert rows_as_dict(q1) == rows_as_dict(q2)


def test_conjunction_support_is_union_of_conditions():
    reg = AtomRegistry(["A", "B", "H", "K"])
    a, b, h, k = reg.atoms("A", "B", "H", "K")
    q = conjunction(conditional_event(a, h, "x"), conditional_event(b, k, "y"), "z")
    assert support(q, {}) == (h | k).mask(reg)


def test_conjunction_sample_values():
    reg = AtomRegistry(["A", "B", "H", "K"])
    a, b, h, k = reg.atoms("A", "B", "H", "K")
    q = conjunction(conditional_event(a, h, "x"), conditional_event(b, k, "y"), "z")
    val = {"x": Fraction(1, 3), "y": Fraction(2, 3), "z": Fraction(1, 5)}
    pick = lambda **kw: next(
        c for c in reg.constituents() if all(c.truth(n) == v for n, v in kw.items())
    )
    assert payoff_at(q, pick(A=True, H=True, B=True, K=True), val) == 1
    assert payoff_at(q, pick(A=False, H=False, B=True, K=True), val) == Fraction(1, 3)
    assert payoff_at(q, pick(A=True, H=False, B=False, K=False), val) == Fraction(1, 5)


# -- iterated conditionals ---------------------------------------------------


def test_iterated_seven_row_table():
    reg = AtomRegistry(["A", "B", "H", "K"])
    a, b, h, k = reg.atoms("A", "B", "H", "K")
    q = iterated(
        conditional_event(a, h, "x"), conditional_event(b, k, "y"), "mu", "z"
    )
    hedge = mu * (ONE - x)
    assert_table(
        q,
        [
            (a & h & b & k, ONE),
            (a & h & ~b & k, ZERO),
            (a & h & ~k, y),
            (~a & h, mu),
            (~h & b & k, x + hedge),
            (~h & ~b & k, hedge),
            (~h & ~k, z + hedge),
        ],
    )


def test_iterated_sample_values():
    reg = AtomRegistry(["A", "B", "H", "K"])
    a, b, h, k = reg.atoms("A", "B", "H", "K")
    q = iterated(
        conditional_event(a, h, "x"), conditional_event(b, k, "y"), "mu", "z"
    )
    val = {"x": Fraction(1, 2), "y": Fraction(1, 4), "mu": Fraction(1, 2), "z": Fraction(1, 4)}
    pick = lambda **kw: next(
        c for c in reg.constituents() if all(c.truth(n) == v for n, v in kw.items())
    )
    # x + mu*(1-x) at 1/2, 1/2 -> 3/4
    assert payoff_at(q, pick(A=False, H=False, B=True, K=True), val) == Fraction(3, 4)
    assert payoff_at(q, pick(A=True, H=True, B=False, K=True), val) == 0
    assert payoff_at(q, pick(A=False, H=True, B=True, K=True), val) == Fraction(1, 2)
    # z + mu*(1-x) at the all-void region
    assert payoff_at(q, pick(A=True, H=False, B=True, K=False), val) == Fraction(1, 2)


def test_iterated_simple_five_row_table():
    reg = AtomRegistry(["A", "C", "H"])
    a, c, h = reg.atoms("A", "C", "H")
    q = iterated_simple(conditional_event(a, h, "x"), c, "y")
    hedge = y * (ONE - x)
    assert_table(
        q,
        [
            (a & h & c, ONE),
            (a & h & ~c, ZERO),
            (~a & h, y),
            (~h & c, x + hedge),
            (~h & ~c, hedge),
        ],
    )


def test_iterated_simple_support_dichotomy():
    reg = AtomRegistry(["A", "C", "H"])
    a, c, h = reg.atoms("A", "C", "H")
    q = iterated_simple(conditional_event(a, h, "x"), c, "y")
    live_pos = support(q, {"x": Fraction(1, 2)})
    assert live_pos == ((a & h) | ~h).mask(reg)
    live_zero = support(q, {"x": 0})
    assert live_zero == (a & h).mask(reg)
    with pytest.raises(MissingSymbol):
        support(q, {})


def test_iterated_simple_x_zero_reduces_to_conditional_on_ah():
    """With a vanishing inner prevision the quantity behaves as C|AH."""
    reg = AtomRegistry(["A", "C", "H"])
    a, c, h = reg.atoms("A", "C", "H")
    q = iterated_simple(conditional_event(a, h, "x"), c, "y")
    plain = conditional_event(c, a & h, "y")
    val = {"x": Fraction(0), "y": Fraction(2, 5)}
    for w in reg.constituents():
        assert payoff_at(q, w, val) == payoff_at(plain, w, val)


def test_general_iterated_support_matches_event_consequent_case():
    """With K = TOP the nested rule agrees with the event-consequent rule."""
    reg = AtomRegistry(["A", "C", "H"])
    a, c, h = reg.atoms("A", "C", "H")
    simple = iterated_simple(conditional_event(a, h, "x"), c, "y")
    nested = iterated(
        conditional_event(a, h, "x"), conditional_event(c, TRUE, "yc"), "y", "zc"
    )
    for xv in (Fraction(0), Fraction(1, 2), Fraction(1)):
        val = {"x": xv, "yc": Fraction(1, 3), "zc": Fraction(1, 4)}
        assert support(nested, val) == support(simple, val)


def test_off_support_payoff_equals_own_prevision():
    """Brute force: at every called-off world each quantity pays its own
    prevision under any valuation consistent with its links."""
    reg = AtomRegistry(["A", "B", "H", "K"])
    a, b, h, k = reg.atoms("A", "B", "H", "K")
    ce_a = conditional_event(a, h, "x")
    ce_b = conditional_event(b, k, "y")
    quantities = [
        ce_a,
        negate(ce_a, "xn"),
        conjunction(ce_a, ce_b, "zc"),
        iterated(ce_a, ce_b, "mu", "zc"),
        iterated_simple(ce_a, b, "w"),
        given_event(ce_a, h | k, "t"),
        add(ce_a, ce_b, "s"),
    ]
    base = {
        "x": Fraction(1, 3),
        "y": Fraction(1, 4),
        "zc": Fraction(1, 12),
        "mu": Fraction(1, 4),
        "w": Fraction(2, 5),
        "t": Fraction(1, 3),
    }
    for q in quantities:
        val = dict(base)
        for name, poly in q.links:
            val[name] = poly.value(val)
        live = support(q, val)
        own = val[q.own_symbol]
        for c in reg.constituents():
            if not live >> c.index & 1:
                assert payoff_at(q, c, val) == own, (q.describe(), c.label())


# -- nesting and reduction ---------------------------------------------------


def test_reduce_nested_collapses():
    reg = AtomRegistry(["A", "H", "K"])
    a, h, k = reg.atoms("A", "H", "K")
    ce = conditional_event(a, h, "x")
    nested = given_event(ce, h | k, "t")
    assert reduce_nested(nested) is ce
    assert reduce_nested(given_event(ce, h, "t2")) is ce


def test_reduce_nested_pointwise_identity():
    reg = AtomRegistry(["A", "H", "K"])
    a, h, k = reg.atoms("A", "H", "K")
    ce = conditional_event(a, h, "x")
    nested = given_event(ce, h | k, "t")
    val = {"x": Fraction(2, 7), "t": Fraction(2, 7)}
    assert reduce_nested(nested, val) is ce
    for c in reg.constituents():
        assert payoff_at(nested, c, val) == payoff_at(ce, c, val)


def test_reduce_nested_requires_implication():
    reg = AtomRegistry(["A", "H", "K"])
    a, h, k = reg.atoms("A", "H", "K")
    ce = conditional_event(a, h, "x")
    with pytest.raises(PreconditionFailed):
        reduce_nested(given_event(ce, k, "t"))


# -- sums and the decomposition identity -------------------------------------


def test_sum_pointwise():
    reg = AtomRegistry(["A", "B", "H"])
    a, b, h = reg.atoms("A", "B", "H")
    ce_a = conditional_event(a, h, "x")
    ce_b = conditional_event(b, h, "y")
    total = ce_a + ce_b
    for c in reg.constituents():
        assert total.payoff_poly(c) == ce_a.payoff_poly(c) + ce_b.payoff_poly(c)
    assert dict(total.links)[total.own_symbol] == x + y


def test_sum_with_zero_quantity():
    reg = AtomRegistry(["A", "H"])
    a, h = reg.atoms("A", "H")
    ce = conditional_event(a, h, "x")
    zero = conditional_quantity([(TRUE, ZERO)], TRUE, "o", registry=reg)
    total = add(ce, zero)
    for c in reg.constituents():
        assert total.payoff_poly(c) == ce.payoff_poly(c)


def test_event_consequent_decomposition_identity():
    """(A|H) ∧ B + (¬A|H) ∧ B has the payoff table of the plain event B."""
    reg = AtomRegistry(["A", "B", "H"])
    a, b, h = reg.atoms("A", "B", "H")
    ce_a = conditional_event(a, h, "x")
    ce_na = negate(ce_a, "xn")
    ce_b = conditional_event(b, TRUE, "y")
    lhs = add(conjunction(ce_a, ce_b, "z1"), conjunction(ce_na, ce_b, "z2"))
    links = {"xn": ONE - x}
    for c in reg.constituents():
        want = ONE if c.truth("B") else ZERO
        assert lhs.payoff_poly(c).substitute(links) == want


def test_two_conditional_sum_at_fully_void_region():
    """The two conjunctions of the decomposition pay z1 + z2 on ¬H¬K."""
    reg = AtomRegistry(["A", "B", "H", "K"])
    a, b, h, k = reg.atoms("A", "B", "H", "K")
    ce_a = conditional_event(a, h, "x")
    ce_na = negate(ce_a, "xn")
    ce_b = conditional_event(b, k, "y")
    total = add(conjunction(ce_a, ce_b, "z1"), conjunction(ce_na, ce_b, "z2"))
    void = next(c for c in reg.constituents() if not c.truth("H") and not c.truth("K"))
    assert total.payoff_poly(void) == Poly.sym("z1") + Poly.sym("z2")


# -- range property -----------------------------------------------------------


unit = st.fractions(min_value=0, max_value=1, max_denominator=16)


@settings(max_examples=60)
@given(unit, unit, unit)
def test_payoffs_stay_in_unit_interval(xv, yv, mv):
    """Conditional events, conjunctions, and iterated conditionals pay
    within [0,1] whenever symbols are in [0,1] and the conjunction
    prevision obeys the product constraint forced by coherence."""
    reg = AtomRegistry(["A", "B", "H", "K"])
    a, b, h, k = reg.atoms("A", "B", "H", "K")
    ce_a = conditional_event(a, h, "x")
    ce_b = conditional_event(b, k, "y")
    val = {"x": xv, "y": yv, "mu": mv, "z": mv * xv}
    for q in (
        ce_a,
        conjunction(ce_a, ce_b, "z"),
        iterated(ce_a, ce_b, "mu", "z"),
        iterated_simple(ce_a, b, "mu"),
    ):
        for c in reg.constituents():
            value = payoff_at(q, c, val)
            assert 0 <= value <= 1


def _every_constructor(reg, a, b, c, h, k):
    """One quantity of each constructor over the events a, b, c and the
    possible conditions h and k: rows built from shared sub-events, from
    an operand's rows (`negate`, `given_event`), from the nonempty
    overlaps of two operands' kept masks (`add`), and a conditional event
    on the sure event."""
    ah = conditional_event(a, h, "x", registry=reg)
    bk = conditional_event(b, k, "y", registry=reg)
    quantity = conditional_quantity([(c, Poly.const(2)), (~c, x)], h, "q", registry=reg)
    return [
        ah,
        bk,
        conditional_event(c, TRUE, "z", registry=reg),
        quantity,
        negate(ah, "nx"),
        negate(quantity, "nq"),
        conjunction(ah, bk, "cj"),
        iterated(ah, bk, "mu", "cj"),
        iterated_simple(ah, c, "w"),
        iterated_simple(negate(ah, "nx"), c & b, "nw"),
        given_event(quantity, k, "g"),
        add(ah, bk, "s"),
        add(quantity, conjunction(ah, bk, "cj"), "t"),
    ]


def test_every_constructor_keeps_its_row_masks():
    """Each quantity keeps one world mask per payoff row, in row order,
    equal to its region event's own mask, also over events in logical
    relations (A implies A or B, H and K overlap)."""
    reg = AtomRegistry(["A", "B", "C", "H", "K"])
    a, b, c, h, k = reg.atoms("A", "B", "C", "H", "K")
    for q in _every_constructor(reg, a, b | a, c, h, k | h):
        assert q.masks == tuple(event.mask(q.registry) for event, _ in q.rows)


MASK_REGISTRY = AtomRegistry(["A", "B", "C"])
mask_formulas = st.recursive(
    st.sampled_from(MASK_REGISTRY.atoms("A", "B", "C") + (TRUE, FALSE)),
    lambda sub: st.one_of(
        sub.map(lambda e: ~e),
        st.tuples(sub, sub).map(lambda pair: pair[0] & pair[1]),
        st.tuples(sub, sub).map(lambda pair: pair[0] | pair[1]),
    ),
    max_leaves=5,
)


@settings(deadline=None, max_examples=200)
@given(mask_formulas, mask_formulas, mask_formulas, mask_formulas, mask_formulas)
def test_constructor_masks_are_their_region_events_masks(a, b, c, h, k):
    """The masks every constructor reads off its operands' masks with int
    operations are the region events' own masks, on random formulas:
    constants, equal, nested, implied and incompatible events included."""
    reg = MASK_REGISTRY
    assume(h.mask(reg) and k.mask(reg))
    for q in _every_constructor(reg, a, b, c, h, k):
        assert q.masks == tuple(event.mask(reg) for event, _ in q.rows)
