"""The rule table of coherence-based probability logic.

Each row names a rule's premises, its target, the closed form of the
target's interval of coherent extensions and the source of that form.
Premises and target are written as assessment-document expressions, so a
row runs the parser, the payoff-table constructors and the extension LP
end to end.  Every row is checked at every point of the grid, 0 and 1
included; the points where the engine misses a closed form today are a
strict `xfail`.
"""

from fractions import Fraction

import pytest

from coherekit.dsl import build, parse, parse_expression
from coherekit.propagation import extension_interval

F = Fraction
GRID = [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)]
CONDITIONAL_MP = "MP, conditional conclusion"
SYSTEM_P = "Gilio, Probabilistic reasoning under coherence in System P, Ann. Math. AI 34 (2002)"


def _cautious_monotonicity(x, y):
    if x == 0:
        return F(0), F(1)
    return max(F(0), (x + y - 1) / x), min(F(1), y / x)


def _or(x, y):
    # Each form is 0/0 at one corner: the lower at x = y = 0, where the
    # engine gives 0, and the upper at x = y = 1, where it gives 1.
    lower = x * y / (x + y - x * y) if x + y else F(0)
    upper = (x + y - 2 * x * y) / (1 - x * y) if x * y != 1 else F(1)
    return lower, upper


def _modus_tollens(x, y):
    if x + y > 1:
        return (x + y - 1) / x, F(1)
    if x + y < 1:
        return (1 - x - y) / (1 - x), F(1)
    return F(0), F(1)


# name: (atoms, premises at x and y, target, closed form, source)
RULES = {
    "And": (
        "A B C",
        ("B given A", "C given A"),
        "B & C given A",
        lambda x, y: (max(F(0), x + y - 1), min(x, y)),
        SYSTEM_P,
    ),
    "Cut": (
        "A B C",
        ("C given A & B", "B given A"),
        "C given A",
        lambda x, y: (x * y, x * y + 1 - y),
        SYSTEM_P,
    ),
    "Cautious Monotonicity": (
        "A B C",
        ("B given A", "C given A"),
        "C given A & B",
        _cautious_monotonicity,
        SYSTEM_P,
    ),
    "Or": ("A B C", ("C given A", "C given B"), "C given A | B", _or, SYSTEM_P),
    "Modus tollens": (
        "A C",
        ("C given A", "!C"),
        "!A",
        _modus_tollens,
        "Wagner, Modus tollens probabilized, BJPS 55 (2004)",
    ),
    # P((A|H) and (C|K)) = xy by the compound prevision theorem, and the
    # Frechet bounds on that conjunction confine P(C|K).
    CONDITIONAL_MP: (
        "A C H K",
        ("A given H", "(C given K) given (A given H)"),
        "C given K",
        lambda x, y: (x * y, x * y + 1 - x),
        "Gilio & Sanfilippo, Studia Logica 102 (2014), with the Frechet bounds",
    ),
}


def _interval(rule, x, y):
    """The engine's interval for the rule's target, its premises at x, y."""
    atoms, premises, target, _, _ = RULES[rule]
    lines = [f"atoms {atoms}"]
    lines += [f"assess P({p}) = {v}" for p, v in zip(premises, (x, y))]
    built = build(parse("\n".join(lines) + "\n"))
    return extension_interval(built.assessment, built.builder.crq(parse_expression(target)))


def _check_grid(rule, points):
    closed_form = RULES[rule][3]
    for x, y in points:
        interval = _interval(rule, x, y)
        assert interval.as_tuple() == closed_form(x, y), (rule, x, y)
        assert interval.exactness == "certified-by-LP", (rule, x, y)


@pytest.mark.parametrize("rule", [name for name in RULES if name != CONDITIONAL_MP])
def test_rule_matches_its_closed_form(rule):
    _check_grid(rule, [(x, y) for x in GRID for y in GRID])


def test_conditional_conclusion_mp_at_zero_antecedent():
    """At x = 0 the conclusion may take any value."""
    _check_grid(CONDITIONAL_MP, [(F(0), y) for y in GRID])


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: the unassessed conjunction prevision is relaxed to [0, 1]",
)
def test_conditional_conclusion_mp():
    """Every point with x > 0 reads [0, 1] today, wider than [xy, xy + 1 - x]."""
    _check_grid(CONDITIONAL_MP, [(x, y) for x in GRID[1:] for y in GRID])
