"""Closed-form checks of coherekit's outputs, computed apart from the program.

Every expected value here is derived in `Fraction` from the inputs alone,
never from a saved copy of earlier output.  Each checker returns True when
the output is right; the runner counts a False as a failed operation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


def mp_interval(x: Fraction, y: Fraction) -> tuple[Fraction, Fraction]:
    """Coherent conclusions P(C) from P(A|H) = x and P(C|(A|H)) = y."""
    return x * y, x * y + 1 - x


def check_interval(x: Fraction, y: Fraction, lower: Fraction, upper: Fraction) -> bool:
    """The extension interval equals [x*y, x*y + 1 - x] exactly.  The
    `exactness` label is deliberately not checked."""
    return (lower, upper) == mp_interval(x, y)


def frechet(p: Fraction, q: Fraction) -> tuple[Fraction, Fraction]:
    """Fréchet bounds on the prevision of a conjunction of A|H and B|H."""
    return max(Fraction(0), p + q - 1), min(p, q)


def family_verdict(
    ps: Sequence[Fraction], z: Fraction, conjunction_index: int
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Verdict and smallest failing subfamily of {A_i|H = p_i} plus
    (A0 ∧ A1)|H = z on logically independent atoms."""
    lo, hi = frechet(ps[0], ps[1])
    n = conjunction_index
    if lo <= z <= hi:
        return True, None
    if z > ps[0]:
        return False, (0, n)
    if z > ps[1]:
        return False, (1, n)
    return False, (0, 1, n)


def check_family(
    ps: Sequence[Fraction],
    z: Fraction,
    conjunction_index: int,
    coherent: bool,
    witness: Optional[Sequence[int]],
) -> bool:
    found = (coherent, None if witness is None else tuple(witness))
    return found == family_verdict(ps, z, conjunction_index)


def document_coherent(template: str, values: Sequence[Fraction]) -> bool:
    """Closed-form verdict for the assessment document templates."""
    if template == "nested":
        return all(0 <= v <= 1 for v in values)
    if template == "product":
        x, mu, z = values
        return z == mu * x
    if template == "frechet":
        p, q, z = values
        lo, hi = frechet(p, q)
        return lo <= z <= hi
    if template == "mp":
        return all(0 <= v <= 1 for v in values)
    raise ValueError(f"unknown template {template!r}")


def check_command(
    template: str,
    values: Sequence[Fraction],
    command: str,
    code: int,
    payload: Optional[dict],
) -> bool:
    """Check one `cohere <command> FILE --json` result against the closed
    forms: exit code, verdict, Dutch-book properties and MP endpoints."""
    if payload is None:
        return False
    coherent = document_coherent(template, values)
    if command == "check":
        return code == (0 if coherent else 1) and payload.get("coherent") is coherent
    if command == "dutchbook":
        book = payload.get("dutch_book", False)
        if coherent:
            return code == 0 and book is None
        if code != 1 or not isinstance(book, dict):
            return False
        stakes = [Fraction(s) for s in book["stakes"]]
        return (
            Fraction(book["epsilon"]) > 0
            and bool(stakes)
            and all(-1 <= s <= 1 for s in stakes)
            and len(stakes) == len(book["subset"])
        )
    if command == "extend":
        if template != "mp" or code != 0:
            return False
        x, y = values
        return check_interval(
            x, y, Fraction(payload["lower"]), Fraction(payload["upper"])
        )
    raise ValueError(f"unknown command {command!r}")
