"""Events over named atoms and the possible worlds they generate.

Every quantity in this library lives on a finite partition of possible
worlds: one truth assignment per registered atom.  This script builds a
three-atom registry, walks its eight worlds, and checks a few logical
relations the way the engine does - by exhaustive evaluation.
"""

from coherekit import AtomRegistry, equivalent, evaluate, implies, is_impossible

registry = AtomRegistry(["A", "C", "H"])
a, c, h = registry.atom("A"), registry.atom("C"), registry.atom("H")

print("atoms:", ", ".join(registry.names))
worlds = registry.constituents()
print(f"{len(worlds)} possible worlds (lexicographic bit order):")
for world in worlds:
    print("  ", world.label())

rule = ~a | c  # the material conditional "if A then C"
print("\nevaluating", rule, "world by world:")
for world in worlds:
    print(f"   {world.label():<10} -> {evaluate(rule, world)}")

print("\nlogical relations, decided by exhaustive evaluation:")
print("   A & H implies H:          ", implies(a & h, h))
print("   H implies A & H:          ", implies(h, a & h))
print("   A & !A is impossible:     ", is_impossible(a & ~a))
print("   !(A & C) same as !A | !C: ", equivalent(~(a & c), ~a | ~c))
