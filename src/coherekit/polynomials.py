"""Multivariate polynomials over prevision symbols with exact rational
coefficients.

Payoff entries of conditional random quantities are small polynomials in
named prevision symbols (strings).  Degrees stay tiny, so terms are kept
as a dict mapping a sorted monomial tuple `((symbol, power), ...)` to a
`Fraction` coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Union

from .errors import MissingSymbol

Rational = Union[Fraction, int]
_EMPTY: tuple = ()
_ZERO = Fraction(0)
_UNIT = Fraction(1)


class Poly:
    """Immutable polynomial; build with `Poly.const` / `Poly.sym` and
    combine with `+`, `-`, `*`."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, Fraction]):
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def const(cls, value: Rational) -> "Poly":
        value = Fraction(value)
        return cls({_EMPTY: value} if value else {})

    @classmethod
    def sym(cls, name: str) -> "Poly":
        return cls({((name, 1),): _UNIT})

    @classmethod
    def coerce(cls, value: Union["Poly", Rational]) -> "Poly":
        if isinstance(value, Poly):
            return value
        return cls.const(value)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: Union["Poly", Rational]) -> "Poly":
        other = Poly.coerce(other)
        terms = dict(self.terms)
        for mono, coef in other.terms.items():
            terms[mono] = terms[mono] + coef if mono in terms else coef
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Union["Poly", Rational]) -> "Poly":
        return self + (-Poly.coerce(other))

    def __rsub__(self, other: Union["Poly", Rational]) -> "Poly":
        return Poly.coerce(other) + (-self)

    def __mul__(self, other: Union["Poly", Rational]) -> "Poly":
        other = Poly.coerce(other)
        terms: dict[tuple, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _merge(m1, m2)
                coef = c1 * c2
                terms[mono] = terms[mono] + coef if mono in terms else coef
        return Poly(terms)

    __rmul__ = __mul__

    # -- queries ------------------------------------------------------

    def symbols(self) -> set[str]:
        return {name for mono in self.terms for name, _ in mono}

    def is_constant(self) -> bool:
        return all(m == _EMPTY for m in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise MissingSymbol(f"polynomial {self} is not constant")
        return self.terms.get(_EMPTY, _ZERO)

    def degree_in(self, name: str) -> int:
        best = 0
        for mono in self.terms:
            for sym, power in mono:
                if sym == name:
                    best = max(best, power)
        return best

    def is_affine_in(self, names: set[str]) -> bool:
        """Total degree at most 1 in the given symbols, jointly."""
        for mono in self.terms:
            total = sum(power for sym, power in mono if sym in names)
            if total > 1:
                return False
        return True

    # -- evaluation ---------------------------------------------------

    def substitute(self, valuation: Mapping[str, Union["Poly", Rational]]) -> "Poly":
        """Replace assigned symbols; unassigned symbols stay symbolic.

        A numeric value is folded into its term's coefficient, and the
        terms are summed in one dict; a term with a `Poly`-valued symbol
        is expanded as a product of polynomials."""
        terms: dict[tuple, Fraction] = {}
        for mono, coef in self.terms.items():
            if type(coef) is not Fraction:
                coef = Fraction(coef)
            kept = []
            factors = []
            for sym, power in mono:
                if sym not in valuation:
                    kept.append((sym, power))
                    continue
                value = valuation[sym]
                if isinstance(value, Poly):
                    factors.extend([value] * power)
                    continue
                if type(value) is not Fraction and type(value) is not int:
                    value = Fraction(value)  # as `Poly.const` reads it
                coef *= value if power == 1 else value**power
            kept_mono = tuple(kept)
            if factors:
                product = Poly({kept_mono: coef})
                for factor in factors:
                    product = product * factor
                expanded = product.terms.items()
            else:
                expanded = ((kept_mono, coef),)
            for key, coefficient in expanded:
                terms[key] = terms[key] + coefficient if key in terms else coefficient
        return Poly(terms)

    def evaluate(self, valuation: Mapping[str, Rational]) -> Optional[Fraction]:
        """The exact value when `valuation` assigns every symbol, else None.

        The values are `Fraction`s or ints.  A constant is its own
        coefficient; otherwise the terms are summed as one integer
        numerator over one integer denominator, normalised once, and
        nothing is built when a symbol is missing."""
        if not any(self.terms):
            return self.terms.get(_EMPTY, _ZERO)
        num, den = 0, 1
        for mono, coef in self.terms.items():
            n, d = coef.numerator, coef.denominator
            for sym, power in mono:
                value = valuation.get(sym)
                if value is None:
                    return None
                n *= value.numerator**power
                d *= value.denominator**power
            num, den = num * d + n * den, den * d
        return Fraction(num, den)

    def value(self, valuation: Mapping[str, Rational]) -> Fraction:
        """Exact rational evaluation; every symbol must be assigned."""
        result = self.substitute(valuation)
        missing = result.symbols()
        if missing:
            raise MissingSymbol(
                "no value assigned for symbol(s): " + ", ".join(sorted(missing))
            )
        return result.constant_value()

    # -- comparison / rendering ----------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Poly({self.render()})"

    def render(self, aliases: Mapping[str, str] | None = None) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coef in sorted(self.terms.items(), key=_term_order):
            factors = []
            for sym, power in mono:
                name = aliases.get(sym, sym) if aliases else sym
                factors.append(name if power == 1 else f"{name}^{power}")
            body = "*".join(factors)
            if not body:
                piece = str(coef)
            elif coef == 1:
                piece = body
            elif coef == -1:
                piece = f"-{body}"
            else:
                piece = f"{coef}*{body}"
            parts.append(piece)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def _merge(m1: tuple, m2: tuple) -> tuple:
    powers: dict[str, int] = {}
    for sym, power in m1 + m2:
        powers[sym] = powers.get(sym, 0) + power
    return tuple(sorted(powers.items()))


def _term_order(item: tuple) -> tuple:
    mono, _ = item
    total_degree = sum(power for _, power in mono)
    return (total_degree, mono)


ZERO = Poly.const(0)
ONE = Poly.const(1)
