"""Conditional events as bets.

A bet on "A given H" at price x pays 1 when A and H both hold, 0 when H
holds without A, and hands the price x back when H fails (the bet is
called off).  That three-valued reading makes the quantity A|H equal to
the indicator of AH plus x times the indicator of !H - which is exactly
the payoff table this library builds.
"""

from fractions import Fraction

from coherekit import AtomRegistry, conditional_event, negate, payoff_at, support

registry = AtomRegistry(["A", "H"])
a, h = registry.atom("A"), registry.atom("H")

bet = conditional_event(a, h, "x")
print("payoff table of A given H (symbolic):")
for region, payoff in bet.rows:
    print(f"   {str(region):<8} -> {payoff}")

price = Fraction(1, 3)
print(f"\nwith x = {price}:")
for world in registry.constituents():
    value = payoff_at(bet, world, {"x": price})
    tag = "" if support(bet, {"x": price}) >> world.index & 1 else "   (called off)"
    print(f"   {world.label():<8} pays {value}{tag}")

opposite = negate(bet, "xn")
print("\nits negation is the conditional event !A given H:")
for region, payoff in opposite.rows:
    print(f"   {str(region):<8} -> {payoff}")
print("linked prevision:", dict(opposite.links)["xn"], "(the engine derives xn = 1 - x)")
