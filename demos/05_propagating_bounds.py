"""Propagating prevision bounds from premises to a conclusion.

From P(A|H) = x and P(C|(A|H)) = y, the coherent values for P(C) form
exactly the interval [x*y, x*y + 1 - x].  The closed form and the
generic engine are computed independently and must agree.  The engine
solves two exact LPs, the Charnes-Cooper form of minimising and
maximising P(C) over the hull of the premises' payoff points, and
re-checks both optima with their LP multipliers (a target named inside a
premise's own payoffs would take the bisection search instead).  The
same bounds come out when the antecedent is conditioned on the sure
event, recovering the classical rule.
"""

from fractions import Fraction

from coherekit import extension_interval, mp_bounds, mp_family

x, y = Fraction(1, 2), Fraction(1, 2)

closed = mp_bounds(x, y)
print(f"premises P(A|H) = {x}, P(C|(A|H)) = {y}")
print(f"closed-form conclusion bounds: [{closed.lower}, {closed.upper}]")

premises, conclusion = mp_family(x, y)
engine = extension_interval(premises, conclusion)
print(f"generic engine:                [{engine.lower}, {engine.upper}]"
      f"  ({engine.exactness})")

classical = extension_interval(*mp_family(x, y, classical=True))
print(f"sure-event antecedent:         [{classical.lower}, {classical.upper}]")

print("\nhow the interval moves with the premises:")
for xv in (Fraction(1), Fraction(3, 4), Fraction(1, 2), Fraction(1, 4), Fraction(0)):
    bounds = mp_bounds(xv, y)
    print(f"   x = {str(xv):<4} -> [{bounds.lower}, {bounds.upper}]")
print("a weaker antecedent prevision widens the conclusion interval,")
print("reaching the vacuous [0, 1] at x = 0.")
