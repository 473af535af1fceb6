"""Event algebra: constituents, evaluation, implication, impossibility."""

import gc
import weakref

import pytest
from hypothesis import given, strategies as st

from coherekit.errors import CapExceeded, PreconditionFailed, UnknownAtom
from coherekit.events import (
    FALSE,
    TRUE,
    AtomRegistry,
    equivalent,
    evaluate,
    implies,
    is_impossible,
)


def test_single_atom_constituents_in_order():
    reg = AtomRegistry(["A"])
    worlds = reg.constituents()
    assert len(worlds) == 2
    assert [c.bits for c in worlds] == [(False,), (True,)]


def test_three_atoms_give_eight_worlds():
    reg = AtomRegistry(["A", "C", "H"])
    assert len(reg.constituents()) == 8


def test_four_atoms_give_sixteen_worlds():
    reg = AtomRegistry(["A", "B", "H", "K"])
    worlds = reg.constituents()
    assert len(worlds) == 16
    assert len(set(c.bits for c in worlds)) == 16


def test_cap_exceeded():
    reg = AtomRegistry([f"X{i}" for i in range(5)], cap=4)
    with pytest.raises(CapExceeded):
        reg.constituents()


def test_cap_exceeded_by_masks():
    reg = AtomRegistry([f"X{i}" for i in range(5)], cap=4)
    a = reg.atom("X0")
    with pytest.raises(CapExceeded):
        is_impossible(a & ~a)
    with pytest.raises(CapExceeded):
        a.mask(reg)
    with pytest.raises(CapExceeded):
        reg.atom_mask(0)
    with pytest.raises(CapExceeded):
        reg.full_mask()


def test_empty_registry_rejected():
    with pytest.raises(PreconditionFailed):
        AtomRegistry([]).constituents()


def test_evaluate_basics():
    reg = AtomRegistry(["A", "H"])
    a, h = reg.atom("A"), reg.atom("H")
    both = next(c for c in reg.constituents() if c.truth("A") and c.truth("H"))
    assert evaluate(a & h, both) is True
    assert evaluate(~a, both) is False
    assert evaluate(FALSE, both) is False
    assert evaluate(TRUE, both) is True


def test_unknown_atom_across_registries():
    reg1 = AtomRegistry(["A"])
    reg2 = AtomRegistry(["A"])
    a1 = reg1.atom("A")
    world = reg2.constituents()[0]
    with pytest.raises(UnknownAtom):
        evaluate(a1, world)


def test_implies():
    reg = AtomRegistry(["A", "H"])
    a, h = reg.atom("A"), reg.atom("H")
    assert implies(a & h, h)
    assert not implies(h, a & h)
    assert implies(FALSE, a)
    assert implies(FALSE, FALSE)


def test_is_impossible():
    reg = AtomRegistry(["A"])
    a = reg.atom("A")
    assert is_impossible(a & ~a)
    assert not is_impossible(a | ~a)
    assert not is_impossible(a)


def test_semantic_equality():
    reg = AtomRegistry(["A", "B"])
    a, b = reg.atom("A"), reg.atom("B")
    assert a & b == b & a
    assert a | ~a == TRUE
    assert ~(a & b) == ~a | ~b
    assert a != b
    # mutual implication is equality
    assert implies(a & b, b & a) and implies(b & a, a & b)


@given(st.integers(0, 255), st.integers(0, 255))
def test_de_morgan_randomized(mask_a, mask_b):
    """De Morgan holds at every world for random events over 3 atoms."""
    reg = AtomRegistry(["P", "Q", "R"])
    worlds = reg.constituents()

    def from_mask(mask):
        # build an event true exactly on the worlds selected by the mask
        terms = []
        for c in worlds:
            if mask >> c.index & 1:
                term = TRUE
                for name, value in zip(reg.names, c.bits):
                    lit = reg.atom(name) if value else ~reg.atom(name)
                    term = term & lit
                terms.append(term)
        out = FALSE
        for t in terms:
            out = out | t
        return out

    ea, eb = from_mask(mask_a), from_mask(mask_b)
    for c in worlds:
        assert evaluate(~(ea & eb), c) == evaluate(~ea | ~eb, c)
        assert evaluate(~(ea | eb), c) == evaluate(~ea & ~eb, c)


def test_constituent_labels():
    reg = AtomRegistry(["A", "H"])
    worlds = reg.constituents()
    assert worlds[0].label() == "!A !H"
    assert worlds[-1].label() == "A H"


def test_formula_rendering():
    reg = AtomRegistry(["A", "B", "C"])
    a, b, c = reg.atom("A"), reg.atom("B"), reg.atom("C")
    assert str(a & b | c) == "A & B | C"
    assert str(a & (b | c)) == "A & (B | C)"
    assert str(~(a | b)) == "!(A | B)"
    assert str(~a & b) == "!A & B"


def test_atom_mask_on_fresh_registry():
    reg = AtomRegistry(["A", "B"])
    # worlds 0..3 are !A!B, !AB, A!B, AB: A holds at worlds 2 and 3
    assert reg.atom_mask(0) == 0b1100
    assert reg.atom_mask(0) == 0b1100
    assert reg.atom_mask(1) == 0b1010


@pytest.mark.parametrize("size", range(1, 13))
def test_atom_mask_matches_world_by_world_bits(size):
    """Each atom's mask sets bit k exactly where the atom is true at world
    k (`bits[index]` of the k-th constituent); the first mask freezes the
    registry."""
    reg = AtomRegistry([f"X{i}" for i in range(size)])
    masks = [reg.atom_mask(index) for index in range(size)]
    with pytest.raises(PreconditionFailed):
        reg.atom("Y")
    worlds = reg.constituents()
    for index, mask in enumerate(masks):
        assert mask == sum(1 << c.index for c in worlds if c.bits[index])


def test_registry_frozen_after_first_mask():
    reg = AtomRegistry(["A"])
    a = reg.atom("A")
    a.mask(reg)
    with pytest.raises(PreconditionFailed):
        reg.atom("B")
    assert reg.names == ("A",)


def test_registry_frozen_after_full_mask():
    reg = AtomRegistry(["A"])
    reg.full_mask()
    with pytest.raises(PreconditionFailed):
        reg.atom("B")


def test_existing_atom_after_freeze():
    reg = AtomRegistry(["A"])
    a = reg.atom("A")
    a.mask(reg)
    again = reg.atom("A")
    assert again == a
    assert again.mask(reg) == 0b10


def test_mask_cache_is_keyed_by_registry():
    """An event reuses its last mask only for the registry it was computed
    for: constants differ in width, atoms belong to one registry, and a
    cached mask equals the mask of a freshly built formula.  The shared
    constants keep no registry alive."""
    small, large = AtomRegistry(["A"]), AtomRegistry(["A", "B", "C"])
    everywhere = ~FALSE
    for event in (TRUE, everywhere):
        assert event.mask(small) == 0b11
        assert event.mask(large) == (1 << 8) - 1
        assert event.mask(small) == 0b11
    last = AtomRegistry(["A", "B"])
    assert (TRUE.mask(last), FALSE.mask(last)) == (0b1111, 0)
    gone = weakref.ref(last)
    del last
    gc.collect()
    assert gone() is None
    reg1, reg2 = AtomRegistry(["A", "B"]), AtomRegistry(["A", "B"])
    a = reg1.atom("A")
    assert a.mask(reg1) == 0b1100
    with pytest.raises(UnknownAtom):
        a.mask(reg2)
    assert a.mask(reg1) == 0b1100

    def formula():
        return (reg1.atom("A") & ~reg1.atom("B")) | FALSE

    cached = formula()
    first = cached.mask(reg1)
    assert cached.mask(reg1) == first == formula().mask(reg1) == 0b0100


def test_over_cap_registry_raises_on_every_full_mask():
    """The full mask is kept only once the registry has frozen; a registry
    over its cap never freezes, so every call checks the cap again."""
    reg = AtomRegistry([f"X{i}" for i in range(5)], cap=4)
    for _ in range(3):
        with pytest.raises(CapExceeded):
            reg.full_mask()
    with pytest.raises(CapExceeded):
        TRUE.mask(reg)


def test_kept_full_mask_and_atom_events_after_freeze():
    """Once frozen, `full_mask` returns its kept value, `atom` returns the
    one event of each existing atom, and a new name is still refused."""
    reg = AtomRegistry(["A", "B"])
    a = reg.atom("A")
    assert reg.atom("A") is a
    assert reg.full_mask() == reg.full_mask() == 0b1111
    for _ in range(2):
        with pytest.raises(PreconditionFailed):
            reg.atom("C")
    assert reg.atom("A") is a
    assert a.mask(reg) == 0b1100
    assert reg.names == ("A", "B")
