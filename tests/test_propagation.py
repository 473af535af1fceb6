"""Bound propagation: closed forms, generic extension sweep, decomposition."""

import random
import re
from fractions import Fraction

import pytest

from coherekit import coherence, linprog, propagation
from coherekit.coherence import Assessment, check_coherence
from coherekit.crq import conditional_event, conjunction, iterated, iterated_simple
from coherekit.errors import (
    CapExceeded,
    IncoherentPremises,
    InternalError,
    OutOfRange,
    PreconditionFailed,
)
from coherekit.events import FALSE, TRUE, AtomRegistry
from coherekit.propagation import (
    ExtensionInterval,
    extension_interval,
    mp_bounds,
    mp_family,
    product_prevision,
    verify_decomposition,
)

F = Fraction


# -- closed forms -------------------------------------------------------------


def test_mp_bounds_samples():
    assert mp_bounds(1, 1).as_tuple() == (F(1), F(1))
    assert mp_bounds(F(1, 2), F(1, 2)).as_tuple() == (F(1, 4), F(3, 4))
    assert mp_bounds(0, F(2, 3)).as_tuple() == (F(0), F(1))
    assert mp_bounds(F(1, 2), F(1, 2)).exactness == "closed-form"


def test_mp_bounds_out_of_range():
    with pytest.raises(OutOfRange):
        mp_bounds(F(3, 2), F(1, 2))
    with pytest.raises(OutOfRange):
        mp_bounds(F(1, 2), F(-1, 10))


def test_product_prevision_samples():
    assert product_prevision(F(1, 2), F(1, 3)) == F(1, 6)
    assert product_prevision(0, F(9, 10)) == 0
    assert product_prevision(1, F(9, 10)) == F(9, 10)
    with pytest.raises(OutOfRange):
        product_prevision(2, F(1, 2))


# -- generic extension sweep ---------------------------------------------------


def test_extension_matches_closed_form_at_half_half():
    premises, target = mp_family(F(1, 2), F(1, 2))
    interval = extension_interval(premises, target)
    assert interval.as_tuple() == (F(1, 4), F(3, 4))
    assert interval.exactness == "certified-by-LP"


def test_extension_classical_reduction():
    nested = extension_interval(*mp_family(F(1, 2), F(1, 2)))
    classical = extension_interval(*mp_family(F(1, 2), F(1, 2), classical=True))
    assert nested.as_tuple() == classical.as_tuple()


def test_extension_point_interval_for_conjunction_target():
    """Premises {A|H = x, (B|K)|(A|H) = mu}; the only coherent prevision
    for the conjunction is the product mu*x."""
    reg = AtomRegistry(["A", "B", "H", "K"])
    a, b, h, k = reg.atoms("A", "B", "H", "K")
    ce_a = conditional_event(a, h, "x")
    ce_b = conditional_event(b, k, "y")
    premise = iterated(ce_a, ce_b, "mu", "zc")
    target = conjunction(ce_a, ce_b, "zc")
    premises = Assessment([(ce_a, F(1, 2)), (premise, F(1, 3))])
    interval = extension_interval(premises, target)
    assert interval.as_tuple() == (F(1, 6), F(1, 6))
    assert interval.exactness == "certified-by-LP"


def test_extension_interval_sandwich():
    premises, target = mp_family(F(1, 2), F(3, 4))
    interval = extension_interval(premises, target)
    low, high = interval.as_tuple()
    assert (low, high) == (F(3, 8), F(7, 8))
    mid = (low + high) / 2
    assert check_coherence(
        Assessment(tuple(premises.items) + ((target, mid),))
    ).coherent
    for outside in (low - F(1, 1000), high + F(1, 1000)):
        if 0 <= outside <= 1:
            assert not check_coherence(
                Assessment(tuple(premises.items) + ((target, outside),))
            ).coherent


def test_extension_requires_coherent_premises():
    premises, target = mp_family(F(1, 2), F(1, 2))
    bad = Assessment(tuple(premises.items) + ((target, F(99, 100)),))
    with pytest.raises(IncoherentPremises):
        extension_interval(bad, conditional_event(target.registry.atom("A"), TRUE, "w"))


def test_extension_rejects_a_target_from_another_registry():
    premises, _ = mp_family(F(1, 2), F(1, 2))
    other = AtomRegistry(["A", "C", "H"])
    with pytest.raises(PreconditionFailed):
        extension_interval(premises, conditional_event(other.atom("C"), TRUE, "z", registry=other))


def test_extension_grid_agrees_with_closed_form():
    grid = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    for xv in grid:
        for yv in (F(0), F(1, 2), F(1)):
            premises, target = mp_family(xv, yv)
            interval = extension_interval(premises, target)
            closed = mp_bounds(xv, yv)
            assert interval.as_tuple() == closed.as_tuple(), (xv, yv)
            assert interval.exactness == "certified-by-LP"


def _two_premises(first, second, second_value):
    """{P(first) = 1/7, P(second) = second_value} over atoms A, B, and the
    target P(A)."""
    reg = AtomRegistry(["A", "B"])
    a, b = reg.atoms("A", "B")
    events = {"AB": a & b, "A!B": a & ~b, "B": b}
    premises = Assessment(
        [
            (conditional_event(events[first], TRUE, "p", registry=reg), F(1, 7)),
            (conditional_event(events[second], TRUE, "q", registry=reg), second_value),
        ]
    )
    return premises, conditional_event(a, TRUE, "z", registry=reg)


def test_extension_point_interval_from_a_partition():
    """P(A) = P(AB) + P(A¬B) exactly; the bisection search found no
    coherent probe for it and gave up."""
    interval = extension_interval(*_two_premises("AB", "A!B", F(1, 7)))
    assert interval.as_tuple() == (F(2, 7), F(2, 7))
    assert interval.exactness == "certified-by-LP"


def test_extension_upper_endpoint_is_exact():
    """P(A) ranges over [P(AB), P(AB) + 1 - P(B)]; the bisection search
    returned a dyadic upper endpoint within 2^-20 of 5/7."""
    interval = extension_interval(*_two_premises("AB", "B", F(3, 7)))
    assert interval.as_tuple() == (F(1, 7), F(5, 7))
    assert interval.exactness == "certified-by-LP"


def _counted(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_mp_grid_intervals_take_at_most_four_lps(monkeypatch):
    """Each interval: one system for both endpoints, whose solutions
    prove the premises coherent, and no oracle call.  At x = 0, C|(A|H)
    stands only at AH, which every premise hull solution leaves at weight
    zero, so the premises' own check runs and adds its level-0 LP.
    Machine-independent, unlike a timing."""
    oracle = _counted(monkeypatch, propagation, "_coherent_with_target")
    lps = _counted(monkeypatch, linprog, "simplex_minimize")
    decisions = _counted(monkeypatch, propagation, "check_coherence")
    grid = [F(k, 4) for k in range(5)]
    for xv in grid:
        for yv in grid:
            for classical in (False, True):
                lps.clear()
                decisions.clear()
                interval = extension_interval(*mp_family(xv, yv, classical=classical))
                assert interval.as_tuple() == mp_bounds(xv, yv).as_tuple()
                assert len(lps) == (1 if xv else 2), (xv, yv, classical, len(lps))
                assert len(decisions) == (0 if xv else 1)
    assert oracle == []


def _product_rule_family():
    """Premises A|H = 1/2 and (B|K)|(A|H) = 1/3, and the conjunction
    (A|H) ∧ (B|K) whose symbol zc the second premise names."""
    reg = AtomRegistry(["A", "B", "H", "K"])
    a, b, h, k = reg.atoms("A", "B", "H", "K")
    ce_a = conditional_event(a, h, "x")
    ce_b = conditional_event(b, k, "y")
    premises = Assessment([(ce_a, F(1, 2)), (iterated(ce_a, ce_b, "mu", "zc"), F(1, 3))])
    return premises, conjunction(ce_a, ce_b, "zc")


@pytest.mark.parametrize("exponent", [-1, 257, 10**6])
@pytest.mark.parametrize("family", [_product_rule_family, lambda: mp_family(0, F(1, 2))])
def test_tolerance_exponent_outside_0_to_256_is_out_of_range(monkeypatch, family, exponent):
    """Checked first, before any LP or oracle call, on the search path and
    on the LP path alike."""
    lps = _counted(monkeypatch, linprog, "simplex_minimize")
    with pytest.raises(OutOfRange, match=f"tolerance exponent {exponent} lies outside 0..256"):
        extension_interval(*family(), tolerance_exponent=exponent)
    assert lps == []


@pytest.mark.parametrize("exponent", [20.5, 20.0, F(20), "20"])
@pytest.mark.parametrize("family", [_product_rule_family, lambda: mp_family(0, F(1, 2))])
def test_tolerance_exponent_that_is_no_int_is_out_of_range(monkeypatch, family, exponent):
    """A non-integer exponent is refused with the typed error, before any
    LP or oracle call, on the search path (the product-rule family) and on
    the LP path (the MP family) alike; neither path raises a bare
    `TypeError`."""
    lps = _counted(monkeypatch, linprog, "simplex_minimize")
    message = re.escape(f"tolerance exponent {exponent!r} is not an integer")
    with pytest.raises(OutOfRange, match=message):
        extension_interval(*family(), tolerance_exponent=exponent)
    assert lps == []


def test_product_rule_target_still_takes_the_search(monkeypatch):
    """The conjunction's symbol sits in the premise's own payoff rows, so
    the LP would be bilinear; the search answers, exactly."""
    oracle = _counted(monkeypatch, propagation, "_coherent_with_target")
    interval = extension_interval(*_product_rule_family())
    assert interval.as_tuple() == (F(1, 6), F(1, 6))
    assert interval.exactness == "certified-by-LP"
    assert oracle


def test_oracle_decides_as_check_coherence_does(monkeypatch):
    """The oracle takes the decision of `check_coherence`: levels that fail
    while no subfamily does are a fault of the library, never a verdict."""
    real = coherence._levels
    monkeypatch.setattr(
        coherence, "_levels", lambda assessment: None if len(assessment) == 3 else real(assessment)
    )
    with pytest.raises(InternalError):
        extension_interval(*_product_rule_family())


def test_caller_cap_reaches_the_oracle(monkeypatch):
    """The combined family of premises and target is held to the caller's
    cap, which overrides COHERE_SUBSET_CAP, also inside the oracle."""
    monkeypatch.setenv("COHERE_SUBSET_CAP", "2")
    with pytest.raises(CapExceeded):
        extension_interval(*_product_rule_family())
    interval = extension_interval(*_product_rule_family(), cap=3)
    assert interval.as_tuple() == (F(1, 6), F(1, 6))


@pytest.mark.parametrize("cap", [0, -3])
def test_cap_argument_below_one_is_invalid(cap):
    """A cap argument below 1 is invalid input, as COHERE_SUBSET_CAP below
    1 is, not a family that exceeds the cap: no environment value could
    raise it, since the argument overrides the variable."""
    premises, target = _product_rule_family()
    with pytest.raises(PreconditionFailed, match="cap must be a positive integer"):
        check_coherence(premises, cap=cap)
    with pytest.raises(PreconditionFailed, match="cap must be a positive integer"):
        extension_interval(premises, target, cap=cap)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: the unassessed conjunction prevision zc is relaxed to [0, 1]",
)
def test_self_iterated_conditional_is_sure():
    """(A|H) ∧ (A|H) = A|H, so P((A|H)|(A|H))·x = x forces the prevision 1
    when x = 1/2; with zc unassessed the engine gives [0, 1]."""
    reg = AtomRegistry(["A", "H"])
    ce = conditional_event(reg.atom("A"), reg.atom("H"), "x")
    interval = extension_interval(Assessment([(ce, F(1, 2))]), iterated(ce, ce, "mu", "zc"))
    assert interval.as_tuple() == (F(1), F(1))


def test_self_iterated_conditional_with_its_conjunction_assessed():
    reg = AtomRegistry(["A", "H"])
    ce = conditional_event(reg.atom("A"), reg.atom("H"), "x")
    premises = Assessment([(ce, F(1, 2)), (conjunction(ce, ce, "zc"), F(1, 2))])
    interval = extension_interval(premises, iterated(ce, ce, "mu", "zc"))
    assert interval.as_tuple() == (F(1), F(1))


# -- decomposition --------------------------------------------------------------


def independent_events():
    reg = AtomRegistry(["A", "B", "H", "K"])
    return reg.atoms("A", "B", "H", "K")


def test_decomposition_independent_events():
    a, b, h, k = independent_events()
    assert verify_decomposition(
        a, b, h, k, F(1, 2), F(1, 2), F(1, 4), F(1, 4)
    )


def test_decomposition_fails_off_the_split():
    a, b, h, k = independent_events()
    assert not verify_decomposition(
        a, b, h, k, F(1, 2), F(1, 2), F(1, 4), F(1, 3)
    )


def test_decomposition_random_splits():
    rng = random.Random(11)
    a, b, h, k = independent_events()
    for _ in range(20):
        xv = F(rng.randint(0, 8), 8)
        yv = F(rng.randint(0, 8), 8)
        z1 = yv * F(rng.randint(0, 4), 4)
        z2 = yv - z1
        assert verify_decomposition(a, b, h, k, xv, yv, z1, z2)


def test_decomposition_with_logical_relations():
    reg = AtomRegistry(["A", "B", "D", "H"])
    a, b, d, h = reg.atoms("A", "B", "D", "H")
    cases = [
        (a, b, h, b | d),  # consequent implies its conditioning event
        (a, b, h, h),      # both conditionals share one conditioning event
        (a, a & b, h, d),  # consequents overlap
    ]
    for ev_a, ev_b, ev_h, ev_k in cases:
        assert verify_decomposition(
            ev_a, ev_b, ev_h, ev_k, F(1, 3), F(2, 5), F(1, 5), F(1, 5)
        )


def test_decomposition_sure_conditioning_event():
    """With K the sure event the identity needs no split constraint."""
    reg = AtomRegistry(["A", "B", "H"])
    a, b, h = reg.atoms("A", "B", "H")
    assert verify_decomposition(
        a, b, h, TRUE, F(1, 2), F(1, 2), F(1, 8), F(1, 2) - F(1, 8), registry=reg
    )
    # even an inconsistent split is invisible: no world has both bets void
    assert verify_decomposition(
        a, b, h, TRUE, F(1, 2), F(1, 2), F(0), F(1, 7), registry=reg
    )


def test_decomposition_rejects_impossible_conditioning():
    a, b, h, k = independent_events()
    with pytest.raises(PreconditionFailed):
        verify_decomposition(a, b, h & ~h, k, F(1, 2), F(1, 2), F(1, 4), F(1, 4))
