"""The `cohere` command line front end.

Subcommands:

* ``cohere check FILE [--json]`` - coherence verdict for the assessments
  in FILE (exit 0 coherent, 1 incoherent).
* ``cohere extend FILE [--target EXPR] [--tol 2^-K] [--json]`` - interval
  of coherent previsions for a new target quantity, by default the file's
  ``query extend`` target; ``--tol`` is read only by the bisection search
  that targets outside the exact LP path take, but a K outside 0..256
  exits 2 whatever the target.
* ``cohere mp --x P/Q --y P/Q [--classical] [--json]`` - closed-form
  conclusion bounds from premises x and y, cross-checked against the
  generic engine; the command fails loudly if the two disagree.
* ``cohere dutchbook FILE [--json]`` - sure-win stakes against an
  incoherent assessment, or "none".
* ``cohere table FILE [--target EXPR] [--json]`` - payoff tables: the
  target's symbolic rows, or the world-by-member matrix of the file's
  assessment.

Exit codes: 0 success/coherent, 1 incoherent or Dutch book found,
2 parse/validation error (input nested too deeply included), 3 cap
exceeded, 4 internal error (a failed certificate re-check or a bug: never
a verdict).  The environment variable COHERE_SUBSET_CAP overrides the
family-size cap; a value that is not an integer, or is below 1, exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .coherence import Assessment, DutchBook, check_coherence, find_dutch_book
from .dsl import BuiltDocument, build, parse, parse_expression, parse_value
from .errors import CapExceeded, CoherekitError, InternalError, ParseError
from .propagation import extension_interval, mp_bounds, mp_family

EXIT_OK = 0
EXIT_INCOHERENT = 1
EXIT_INVALID = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CapExceeded as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_CAP
    except CoherekitError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_INVALID
    except RecursionError:  # only expressions, events and definitions nest
        print("error: the input is nested too deeply", file=sys.stderr)
        return EXIT_INVALID
    except Exception as error:  # InternalError, or a bug: not a verdict
        kind = "" if isinstance(error, InternalError) else f"{type(error).__name__}: "
        print(f"internal error: {kind}{error}", file=sys.stderr)
        return EXIT_INTERNAL


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and kept for the
    process: parsing leaves it as it was, and each call of `main` gets a
    fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="cohere",
        description="Coherence checking and prevision propagation for "
        "conditional bets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide coherence of an assessment file")
    check.add_argument("file")
    check.add_argument("--json", action="store_true")
    check.set_defaults(handler=_cmd_check)

    extend = sub.add_parser(
        "extend", help="interval of coherent previsions for a target"
    )
    extend.add_argument("file")
    extend.add_argument("--target", help="conditional expression (defaults to the file's query)")
    extend.add_argument(
        "--tol",
        default="2^-20",
        help="bisection tolerance 2^-K, K in 0..256, e.g. 2^-20; read only for targets that "
        "the exact LP path does not cover (such as a target named inside a premise's payoffs)",
    )
    extend.add_argument("--json", action="store_true")
    extend.set_defaults(handler=_cmd_extend)

    mp = sub.add_parser("mp", help="conclusion bounds from premises x and y")
    mp.add_argument("--x", required=True, help="prevision of the rule antecedent, e.g. 1/2")
    mp.add_argument("--y", required=True, help="prevision of the nested conditional")
    mp.add_argument(
        "--classical",
        action="store_true",
        help="condition the antecedent on the sure event",
    )
    mp.add_argument("--json", action="store_true")
    mp.set_defaults(handler=_cmd_mp)

    dutch = sub.add_parser("dutchbook", help="search for sure-win stakes")
    dutch.add_argument("file")
    dutch.add_argument("--json", action="store_true")
    dutch.set_defaults(handler=_cmd_dutchbook)

    table = sub.add_parser("table", help="payoff tables")
    table.add_argument("file")
    table.add_argument("--target", help="render this expression's payoff rows")
    table.add_argument("--json", action="store_true")
    table.set_defaults(handler=_cmd_table)
    return parser


def _load(path: str) -> BuiltDocument:
    # The bytes are decoded in one piece: `parse` splits the lines itself,
    # so text mode's newline translation has nothing to add.  The path is
    # opened as a `Path`, whose normal form an error message names.
    with open(Path(path), "rb") as file:
        data = file.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as error:
        reason = f"{error.reason} at byte {error.start}"
        raise ParseError(f"{path} is not UTF-8 text: {reason}") from None
    return build(parse(text))


def _require_assessment(built: BuiltDocument) -> Assessment:
    if built.assessment is None:
        raise ParseError("the document contains no assess statements")
    return built.assessment


def _member_names(built: BuiltDocument) -> list[str]:
    return [crq.own_symbol for crq in built.members]


# -- commands ----------------------------------------------------------------


def _cmd_check(args) -> int:
    built = _load(args.file)
    assessment = _require_assessment(built)
    result = check_coherence(assessment)
    names = _member_names(built)
    if args.json:
        payload = {"coherent": result.coherent}
        if result.witness is not None:
            payload["witness"] = {
                "subset": list(result.witness),
                "members": [names[i] for i in result.witness],
            }
        print(json.dumps(payload, indent=2))
    elif result.coherent:
        print("coherent")
    else:
        members = ", ".join(names[i] for i in result.witness)
        print("incoherent")
        print(f"witness subset: {{{members}}} (indices {list(result.witness)})")
    return EXIT_OK if result.coherent else EXIT_INCOHERENT


def _cmd_dutchbook(args) -> int:
    built = _load(args.file)
    assessment = _require_assessment(built)
    book = find_dutch_book(assessment)
    names = _member_names(built)
    if args.json:
        print(json.dumps(_book_payload(book, names), indent=2))
    elif book is None:
        print("none (the assessment is coherent)")
    else:
        print("dutch book found")
        for index, stake in zip(book.subset, book.stakes):
            print(f"  stake {_text(stake)} on {names[index]}")
        print(f"  guaranteed gain: {_text(book.guaranteed_gain)}")
    return EXIT_OK if book is None else EXIT_INCOHERENT


def _book_payload(book: Optional[DutchBook], names: list[str]) -> dict:
    if book is None:
        return {"dutch_book": None}
    return {
        "dutch_book": {
            "subset": list(book.subset),
            "members": [names[i] for i in book.subset],
            "stakes": [_text(s) for s in book.stakes],
            "epsilon": _text(book.guaranteed_gain),
        }
    }


def _cmd_extend(args) -> int:
    built = _load(args.file)
    assessment = _require_assessment(built)
    expr = None
    if args.target is not None:
        expr = parse_expression(args.target)
    elif built.document.query and built.document.query.kind == "extend":
        expr = built.document.query.target
    if expr is None:
        raise ParseError("no target: pass --target or put 'query extend TARGET' in the file")
    target = built.builder.crq(expr)
    interval = extension_interval(
        assessment, target, tolerance_exponent=_parse_tolerance(args.tol)
    )
    if args.json:
        print(
            json.dumps(
                {
                    "target": target.own_symbol,
                    "lower": _text(interval.lower),
                    "upper": _text(interval.upper),
                    "exactness": interval.exactness,
                },
                indent=2,
            )
        )
    else:
        print(f"target {target.own_symbol}")
        print(f"lower {_text(interval.lower)}")
        print(f"upper {_text(interval.upper)}")
        print(f"exactness {interval.exactness}")
    return EXIT_OK


def _cmd_mp(args) -> int:
    x = parse_value(args.x)
    y = parse_value(args.y)
    closed = mp_bounds(x, y)
    premises, target = mp_family(x, y, classical=args.classical)
    engine = extension_interval(premises, target)
    agreed = (
        engine.as_tuple() == closed.as_tuple()
        and engine.exactness == "certified-by-LP"
    )
    if not agreed:
        print(
            "error: closed-form bounds "
            f"[{_text(closed.lower)}, {_text(closed.upper)}] disagree with the engine "
            f"[{_text(engine.lower)}, {_text(engine.upper)}] ({engine.exactness})",
            file=sys.stderr,
        )
        return EXIT_INVALID
    if args.json:
        print(
            json.dumps(
                {
                    "x": _text(x),
                    "y": _text(y),
                    "classical": args.classical,
                    "lower": _text(closed.lower),
                    "upper": _text(closed.upper),
                    "exactness": closed.exactness,
                    "engine_cross_check": "agreed",
                },
                indent=2,
            )
        )
    else:
        print(f"conclusion bounds: [{_text(closed.lower)}, {_text(closed.upper)}]")
        print("engine cross-check: agreed (certified-by-LP)")
    return EXIT_OK


def _cmd_table(args) -> int:
    built = _load(args.file)
    if args.target is not None:
        expr = parse_expression(args.target)
    elif built.document.query and built.document.query.kind == "table":
        expr = built.document.query.target
    else:
        expr = None
    if expr is not None:
        return _print_target_table(built, expr, args.json)
    return _print_family_table(built, args.json)


def _print_target_table(built: BuiltDocument, expr, as_json: bool) -> int:
    target = built.builder.crq(expr)
    aliases = _aliases(target.symbols())
    rows = [
        {"region": str(event), "payoff": poly.render(aliases)}
        for event, poly in target.rows
    ]
    if as_json:
        print(
            json.dumps(
                {
                    "target": target.own_symbol,
                    "legend": {alias: name for name, alias in aliases.items()},
                    "rows": rows,
                },
                indent=2,
            )
        )
        return EXIT_OK
    print(f"payoff table of {target.own_symbol}")
    for name, alias in aliases.items():
        print(f"  {alias} = {name}")
    width = max(len(r["region"]) for r in rows)
    for row in rows:
        print(f"  {row['region']:<{width}}  ->  {row['payoff']}")
    return EXIT_OK


def _print_family_table(built: BuiltDocument, as_json: bool) -> int:
    assessment = _require_assessment(built)
    names = _member_names(built)
    aliases = _aliases(
        name for crq in built.members for name in crq.symbols()
    )
    worlds = assessment.registry.constituents()
    cells = []
    for c in worlds:
        row = []
        for (crq, _), live in zip(assessment.items, assessment.live_masks):
            poly = crq.payoff_poly(c).substitute(assessment.valuation)
            text = poly.render(aliases)
            if not live >> c.index & 1:
                text += " *"
            row.append(text)
        cells.append(row)
    if as_json:
        print(
            json.dumps(
                {
                    "members": names,
                    "legend": {alias: name for name, alias in aliases.items()},
                    "worlds": [c.label() for c in worlds],
                    "cells": cells,
                    "called_off_marker": "*",
                },
                indent=2,
            )
        )
        return EXIT_OK
    for name, alias in aliases.items():
        print(f"{alias} = {name}")
    headers = [aliases.get(n, n) for n in names]
    label_width = max(len(c.label()) for c in worlds)
    col_widths = [
        max(len(headers[i]), max(len(row[i]) for row in cells))
        for i in range(len(headers))
    ]
    header = " " * label_width + "  " + "  ".join(
        h.ljust(w) for h, w in zip(headers, col_widths)
    )
    print(header)
    for c, row in zip(worlds, cells):
        line = c.label().ljust(label_width) + "  " + "  ".join(
            v.ljust(w) for v, w in zip(row, col_widths)
        )
        print(line.rstrip())
    print("(* bet called off at this world)")
    return EXIT_OK


def _aliases(symbols) -> dict[str, str]:
    ordered: list[str] = []
    for name in symbols:
        if name not in ordered:
            ordered.append(name)
    ordered.sort()
    return {name: f"x{i + 1}" for i, name in enumerate(ordered)}


def _parse_tolerance(text: str) -> int:
    match = re.fullmatch(r"(?:2\^-)?(\d+)", text.strip())
    if not match:
        raise ParseError(f"cannot parse tolerance {text!r}; use the form 2^-20")
    try:
        return int(match.group(1))
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
        digits = len(match.group(1))
        raise ParseError(f"tolerance exponent has too many digits ({digits})") from None


# Digits per conversion in `_text`, well below the interpreter's default
# limit of 4300 on one int-to-str conversion.
_BLOCK_DIGITS = 1000
_BLOCK = 10**_BLOCK_DIGITS


def _text(value: Fraction) -> str:
    """`str(value)`, also when a numerator or denominator has more digits
    than one int-to-str conversion allows (`sys.get_int_max_str_digits`):
    products of long input values print in full."""
    if value.denominator == 1:
        return _digits(value.numerator)
    return f"{_digits(value.numerator)}/{_digits(value.denominator)}"


def _digits(number: int) -> str:
    """The decimal digits of `number`, converted `_BLOCK_DIGITS` at a time."""
    if number < 0:
        return "-" + _digits(-number)
    blocks = []
    while number >= _BLOCK:
        number, low = divmod(number, _BLOCK)
        blocks.append(str(low).zfill(_BLOCK_DIGITS))
    blocks.append(str(number))
    return "".join(reversed(blocks))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
