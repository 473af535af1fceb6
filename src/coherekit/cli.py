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
  generic engine; if the two disagree, that is an internal error (exit 4).
* ``cohere dutchbook FILE [--json]`` - sure-win stakes against an
  incoherent assessment, or "none".
* ``cohere table FILE [--target EXPR] [--json]`` - payoff tables: the
  target's symbolic rows, empty regions left out, or the world-by-member
  matrix of the file's assessment.

Each command builds one payload, a JSON object, and `main` prints it:
``--json`` prints the object itself, and the text form is rendered from
it, so the two forms show the same result.

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
from typing import Callable, Optional

from .coherence import Assessment, check_coherence, find_dutch_book
from .dsl import BuiltDocument, Expr, build, parse, parse_expression, parse_value
from .errors import CapExceeded, CoherekitError, InternalError, ParseError
from .propagation import extension_interval, mp_bounds, mp_family

EXIT_OK = 0
EXIT_INCOHERENT = 1
EXIT_INVALID = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4

# A command returns its exit code, its payload and the renderer of the
# payload's text form, which gives the lines to print.
Result = tuple[int, dict, Callable[[dict], list[str]]]


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, payload, text = args.handler(args)
        print(json.dumps(payload, indent=2) if args.json else "\n".join(text(payload)))
        return code
    except (CoherekitError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_CAP if isinstance(error, CapExceeded) else EXIT_INVALID
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
    extend.set_defaults(handler=_cmd_extend)

    mp = sub.add_parser("mp", help="conclusion bounds from premises x and y")
    mp.add_argument("--x", required=True, help="prevision of the rule antecedent, e.g. 1/2")
    mp.add_argument("--y", required=True, help="prevision of the nested conditional")
    mp.add_argument(
        "--classical",
        action="store_true",
        help="condition the antecedent on the sure event",
    )
    mp.set_defaults(handler=_cmd_mp)

    dutch = sub.add_parser("dutchbook", help="search for sure-win stakes")
    dutch.add_argument("file")
    dutch.set_defaults(handler=_cmd_dutchbook)

    table = sub.add_parser("table", help="payoff tables")
    table.add_argument("file")
    table.add_argument("--target", help="render this expression's payoff rows")
    table.set_defaults(handler=_cmd_table)

    for command in sub.choices.values():
        command.add_argument("--json", action="store_true")
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


def _subfamily(built: BuiltDocument, subset) -> dict:
    """Members of the document's assessment, by index and by name."""
    return {"subset": list(subset), "members": [built.members[i].own_symbol for i in subset]}


def _target_expr(args, built: BuiltDocument, kind: str) -> Optional[Expr]:
    """The `--target` expression, else the file's `query KIND` target, else None."""
    if args.target is not None:
        return parse_expression(args.target)
    query = built.document.query
    return query.target if query and query.kind == kind else None


# -- commands ----------------------------------------------------------------


def _cmd_check(args) -> Result:
    built = _load(args.file)
    result = check_coherence(_require_assessment(built))
    payload = {"coherent": result.coherent}
    if result.witness is not None:
        payload["witness"] = _subfamily(built, result.witness)
    return (EXIT_OK if result.coherent else EXIT_INCOHERENT), payload, _check_text


def _check_text(payload: dict) -> list[str]:
    if payload["coherent"]:
        return ["coherent"]
    witness = payload["witness"]
    members = ", ".join(witness["members"])
    return ["incoherent", f"witness subset: {{{members}}} (indices {witness['subset']})"]


def _cmd_dutchbook(args) -> Result:
    built = _load(args.file)
    book = find_dutch_book(_require_assessment(built))
    if book is None:
        return EXIT_OK, {"dutch_book": None}, _dutchbook_text
    payload = {
        **_subfamily(built, book.subset),
        "stakes": [_text(s) for s in book.stakes],
        "epsilon": _text(book.guaranteed_gain),
    }
    return EXIT_INCOHERENT, {"dutch_book": payload}, _dutchbook_text


def _dutchbook_text(payload: dict) -> list[str]:
    book = payload["dutch_book"]
    if book is None:
        return ["none (the assessment is coherent)"]
    return [
        "dutch book found",
        *(f"  stake {s} on {m}" for s, m in zip(book["stakes"], book["members"])),
        f"  guaranteed gain: {book['epsilon']}",
    ]


def _cmd_extend(args) -> Result:
    built = _load(args.file)
    assessment = _require_assessment(built)
    expr = _target_expr(args, built, "extend")
    if expr is None:
        raise ParseError("no target: pass --target or put 'query extend TARGET' in the file")
    target = built.builder.crq(expr)
    interval = extension_interval(
        assessment, target, tolerance_exponent=_parse_tolerance(args.tol)
    )
    payload = {
        "target": target.own_symbol,
        "lower": _text(interval.lower),
        "upper": _text(interval.upper),
        "exactness": interval.exactness,
    }
    return EXIT_OK, payload, _extend_text


def _extend_text(payload: dict) -> list[str]:
    return [f"{key} {value}" for key, value in payload.items()]


def _cmd_mp(args) -> Result:
    x = parse_value(args.x)
    y = parse_value(args.y)
    closed = mp_bounds(x, y)
    premises, target = mp_family(x, y, classical=args.classical)
    engine = extension_interval(premises, target)
    if engine.as_tuple() != closed.as_tuple() or engine.exactness != "certified-by-LP":
        raise InternalError(
            f"closed-form bounds [{_text(closed.lower)}, {_text(closed.upper)}] disagree "
            f"with the engine [{_text(engine.lower)}, {_text(engine.upper)}] ({engine.exactness})"
        )
    payload = {
        "x": _text(x),
        "y": _text(y),
        "classical": args.classical,
        "lower": _text(closed.lower),
        "upper": _text(closed.upper),
        "exactness": closed.exactness,
        "engine_cross_check": "agreed",
    }
    return EXIT_OK, payload, _mp_text


def _mp_text(payload: dict) -> list[str]:
    return [
        f"conclusion bounds: [{payload['lower']}, {payload['upper']}]",
        f"engine cross-check: {payload['engine_cross_check']} (certified-by-LP)",
    ]


def _cmd_table(args) -> Result:
    built = _load(args.file)
    expr = _target_expr(args, built, "table")
    if expr is not None:
        return EXIT_OK, _target_table(built, expr), _target_table_text
    return EXIT_OK, _family_table(built), _family_table_text


def _target_table(built: BuiltDocument, expr: Expr) -> dict:
    """The target's payoff rows; a row over no world (the `!TOP` of an
    unconditional event) is left out."""
    target = built.builder.crq(expr)
    aliases = _aliases(target.symbols())
    return {
        "target": target.own_symbol,
        "legend": {alias: name for name, alias in aliases.items()},
        "rows": [
            {"region": str(event), "payoff": poly.render(aliases)}
            for (event, poly), mask in zip(target.rows, target.masks)
            if mask
        ],
    }


def _target_table_text(payload: dict) -> list[str]:
    width = max(len(row["region"]) for row in payload["rows"])
    return [
        f"payoff table of {payload['target']}",
        *(f"  {alias} = {name}" for alias, name in payload["legend"].items()),
        *(f"  {row['region']:<{width}}  ->  {row['payoff']}" for row in payload["rows"]),
    ]


def _family_table(built: BuiltDocument) -> dict:
    assessment = _require_assessment(built)
    aliases = _aliases(name for crq in built.members for name in crq.symbols())
    worlds = assessment.registry.constituents()
    cells = [
        [
            crq.payoff_poly(c).substitute(assessment.valuation).render(aliases)
            + ("" if live >> c.index & 1 else " *")
            for (crq, _), live in zip(assessment.items, assessment.live_masks)
        ]
        for c in worlds
    ]
    return {
        "members": [crq.own_symbol for crq in built.members],
        "legend": {alias: name for name, alias in aliases.items()},
        "worlds": [c.label() for c in worlds],
        "cells": cells,
        "called_off_marker": "*",
    }


def _family_table_text(payload: dict) -> list[str]:
    aliases = {name: alias for alias, name in payload["legend"].items()}
    headers = [aliases[name] for name in payload["members"]]
    rows = [("", headers), *zip(payload["worlds"], payload["cells"])]
    label_width = max(len(label) for label, _ in rows)
    widths = [max(map(len, column)) for column in zip(*(row for _, row in rows))]
    lines = [
        label.ljust(label_width) + "  " + "  ".join(v.ljust(w) for v, w in zip(row, widths))
        for label, row in rows
    ]
    return [
        *(f"{alias} = {name}" for alias, name in payload["legend"].items()),
        lines[0],  # the header line keeps its padding
        *(line.rstrip() for line in lines[1:]),
        f"({payload['called_off_marker']} bet called off at this world)",
    ]


def _aliases(symbols) -> dict[str, str]:
    return {name: f"x{i + 1}" for i, name in enumerate(sorted(set(symbols)))}


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
