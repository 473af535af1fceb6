"""Multivariate polynomials over prevision symbols with exact rational
coefficients.

Payoff entries of conditional random quantities are small polynomials in
named prevision symbols (strings).  Degrees stay tiny, so terms are kept
as a dict mapping a sorted monomial tuple `((symbol, power), ...)` to a
nonzero coefficient in one exact form: an `int` when it is integral, else
a `Fraction`.  The payoff tables are built from small integers (`1 - x`,
`y*(1 - x)`), which this keeps in int arithmetic.  `value`,
`constant_value` and `evaluate` return `Fraction`s; `ratio` returns the
value as an integer numerator and denominator in lowest terms, for callers
that scale it to an integer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Optional, Union

from .errors import MissingSymbol

Rational = Union[Fraction, int]
_EMPTY: tuple = ()
_ZERO = Fraction(0)


def _exact(value: Rational) -> Rational:
    """`value` in coefficient form: an int when it is integral, else a
    `Fraction`."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _poly(terms: dict) -> "Poly":
    """A `Poly` on `terms`, whose coefficients are nonzero and exact."""
    poly = object.__new__(Poly)
    poly.terms = terms
    return poly


class Poly:
    """Immutable polynomial; build with `Poly.const` / `Poly.sym` and
    combine with `+`, `-`, `*`."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, Rational]):
        self.terms = {m: c if type(c) is int else _exact(c) for m, c in terms.items() if c}

    @classmethod
    def const(cls, value: Rational) -> "Poly":
        value = _exact(value)
        return _poly({_EMPTY: value} if value else {})

    @classmethod
    def sym(cls, name: str) -> "Poly":
        return _poly({((name, 1),): 1})

    @classmethod
    def coerce(cls, value: Union["Poly", Rational]) -> "Poly":
        if isinstance(value, Poly):
            return value
        return cls.const(value)

    # -- arithmetic ---------------------------------------------------

    def _combine(self, other: Union["Poly", Rational], sign: int) -> "Poly":
        """self + sign * other, for sign 1 or -1."""
        if not isinstance(other, Poly):
            other = Poly.const(other)
        terms = dict(self.terms)
        for mono, coef in other.terms.items():
            if mono in terms:
                coef = terms[mono] + sign * coef
                if not coef:
                    del terms[mono]
                    continue
                if type(coef) is not int:
                    coef = _exact(coef)
            elif sign < 0:
                coef = -coef
            terms[mono] = coef
        return _poly(terms)

    def __add__(self, other: Union["Poly", Rational]) -> "Poly":
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Union["Poly", Rational]) -> "Poly":
        return self._combine(other, -1)

    def __rsub__(self, other: Union["Poly", Rational]) -> "Poly":
        return Poly.coerce(other)._combine(self, -1)

    def __mul__(self, other: Union["Poly", Rational]) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(other)
        terms: dict[tuple, Rational] = {}
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
        return not any(self.terms)

    def constant_value(self) -> Fraction:
        if any(self.terms):
            raise MissingSymbol(f"polynomial {self} is not constant")
        value = self.terms.get(_EMPTY)
        return _ZERO if value is None else Fraction(value)

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
        terms: dict[tuple, Rational] = {}
        for mono, coef in self.terms.items():
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

    def ratio(self, valuation: Mapping[str, Rational]) -> Optional[tuple[int, int]]:
        """The exact value as an integer numerator and a positive
        denominator in lowest terms when `valuation` assigns every symbol,
        else None.

        The values are `Fraction`s or ints.  The terms are summed as one
        numerator over one denominator and reduced once; nothing is built
        when a symbol is missing."""
        num, den = 0, 1
        for mono, coef in self.terms.items():
            if type(coef) is int:
                n, d = coef, 1
            else:
                n, d = coef.numerator, coef.denominator
            for sym, power in mono:
                value = valuation.get(sym)
                if value is None:
                    return None
                if power == 1:
                    n *= value.numerator
                    d *= value.denominator
                else:
                    n *= value.numerator**power
                    d *= value.denominator**power
            if d == den:
                num += n
            else:
                num, den = num * d + n * den, den * d
        divisor = gcd(num, den)
        return num // divisor, den // divisor

    def evaluate(self, valuation: Mapping[str, Rational]) -> Optional[Fraction]:
        """The exact value when `valuation` assigns every symbol, else None
        (`ratio` as a `Fraction`)."""
        ratio = self.ratio(valuation)
        return None if ratio is None else Fraction(*ratio)

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
    if not m1:
        return m2
    if not m2:
        return m1
    powers = dict(m1)
    for sym, power in m2:
        powers[sym] = powers.get(sym, 0) + power
    return tuple(sorted(powers.items()))


def _term_order(item: tuple) -> tuple:
    mono, _ = item
    total_degree = sum(power for _, power in mono)
    return (total_degree, mono)


ZERO = Poly.const(0)
ONE = Poly.const(1)
