"""Assessment document language.

A document declares atoms, optionally names event formulas, assesses
previsions on conditional expressions, and may end with a query::

    # conditional bets on three atoms
    atoms A C H
    define D = A & !C
    assess P(A given H) = 1/2
    assess P(C given (A given H)) = 0.5
    query extend C

Event grammar: identifiers, `!` (not), `&` (and), `|` (or), literals
`TOP` / `BOT`, parentheses; `&` binds tighter than `|`, `!` tightest.
Conditional expressions combine event expressions with `given` (one
nesting level on either side) and `and` (conjunction of two
conditionals); chains must be parenthesized.  Values are exact: integers,
fractions `p/q`, or decimals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .coherence import Assessment
from .crq import (
    CRQ,
    ConditionalEventShape,
    conditional_event,
    conjunction,
    given_event,
    iterated,
    iterated_simple,
    negate,
)
from .errors import ParseError, PreconditionFailed, UndeclaredAtom
from .events import TRUE, FALSE, AtomRegistry, Event, equivalent

QUERY_KINDS = ("check", "extend", "mp", "dutchbook", "table")


# -- expression AST ----------------------------------------------------------


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Const:
    value: bool


@dataclass(frozen=True)
class Not:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # "&" or "|"
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Given:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class CondAnd:
    left: "Expr"
    right: "Expr"


Expr = Union[Name, Const, Not, BinOp, Given, CondAnd]

_PRECEDENCE = {"|": 1, "&": 2}


def render_expr(expr: Expr, parent_level: int = 0) -> str:
    """Canonical text of an expression (used for symbol naming too)."""
    if isinstance(expr, Name):
        return expr.ident
    if isinstance(expr, Const):
        return "TOP" if expr.value else "BOT"
    if isinstance(expr, Not):
        return "!" + render_expr(expr.operand, 3)
    if isinstance(expr, BinOp):
        level = _PRECEDENCE[expr.op]
        text = (
            render_expr(expr.left, level)
            + f" {expr.op} "
            + render_expr(expr.right, level)
        )
        return f"({text})" if level < parent_level else text
    if isinstance(expr, Given):
        return f"({render_expr(expr.left)} given {render_expr(expr.right)})"
    if isinstance(expr, CondAnd):
        parts = sorted((render_expr(expr.left), render_expr(expr.right)))
        return f"({parts[0]} and {parts[1]})"
    raise TypeError(f"not an expression: {expr!r}")


def is_conditional(expr: Expr) -> bool:
    return isinstance(expr, (Given, CondAnd))


# -- document model ----------------------------------------------------------


@dataclass(frozen=True)
class Statement:
    target: Expr
    value: Fraction


@dataclass(frozen=True)
class Query:
    kind: str
    target: Optional[Expr] = None


@dataclass(frozen=True)
class AssessmentDocument:
    atoms: tuple[str, ...]
    definitions: tuple[tuple[str, Expr], ...]
    statements: tuple[Statement, ...]
    query: Optional[Query] = None


def serialize(document: AssessmentDocument) -> str:
    lines = []
    if document.atoms:
        lines.append("atoms " + " ".join(document.atoms))
    for name, expr in document.definitions:
        lines.append(f"define {name} = {render_expr(expr)}")
    for statement in document.statements:
        target = render_expr(statement.target)
        if is_conditional(statement.target):
            target = target[1:-1]  # P(...) supplies the parentheses
        lines.append(f"assess P({target}) = {statement.value}")
    if document.query is not None:
        if document.query.target is None:
            lines.append(f"query {document.query.kind}")
        else:
            lines.append(
                f"query {document.query.kind} {render_expr(document.query.target)}"
            )
    return "\n".join(lines) + "\n"


# -- tokenizer ----------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # ident | number | punct | end
    text: str
    line: int
    column: int


_NUMBER = r"-?\d+(?:/\d+|\.\d+)?"
_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t]+)
      | (?P<comment>\#[^\n]*)
      | (?P<number>""" + _NUMBER + r""")
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>[()=!&|])
    """,
    re.VERBOSE,
)


def _tokenize_line(text: str, line_no: int) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        pos = match.end()
        if match.lastgroup in ("ws", "comment"):
            continue
        tokens.append(
            Token(match.lastgroup, match.group(), line_no, match.start() + 1)
        )
    tokens.append(Token("end", "", line_no, len(text) + 1))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "end":
            self.pos += 1
        return token

    def expect(self, text: str) -> Token:
        token = self.peek()
        if token.text != text:
            raise ParseError(
                f"expected {text!r}, found {token.text or 'end of line'!r}",
                token.line,
                token.column,
            )
        return self.next()

    def at_end(self) -> bool:
        return self.peek().kind == "end"

    def require_end(self) -> None:
        token = self.peek()
        if token.kind != "end":
            raise ParseError(
                f"unexpected trailing {token.text!r}", token.line, token.column
            )


# -- expression parsing --------------------------------------------------------


def _parse_mixed(cur: _Cursor) -> Expr:
    left = _parse_or(cur)
    token = cur.peek()
    if token.kind == "ident" and token.text in ("given", "and"):
        cur.next()
        right = _parse_or(cur)
        follow = cur.peek()
        if follow.kind == "ident" and follow.text in ("given", "and"):
            raise ParseError(
                "parenthesize nested conditional expressions",
                follow.line,
                follow.column,
            )
        if token.text == "given":
            return Given(left, right)
        first, second = sorted((left, right), key=render_expr)
        return CondAnd(first, second)
    return left


def _parse_or(cur: _Cursor) -> Expr:
    left = _parse_and(cur)
    while cur.peek().text == "|":
        cur.next()
        right = _parse_and(cur)
        left = _event_binop("|", left, right, cur)
    return left


def _parse_and(cur: _Cursor) -> Expr:
    left = _parse_unary(cur)
    while cur.peek().text == "&":
        cur.next()
        right = _parse_unary(cur)
        left = _event_binop("&", left, right, cur)
    return left


def _event_binop(op: str, left: Expr, right: Expr, cur: _Cursor) -> Expr:
    for side in (left, right):
        if is_conditional(side):
            token = cur.peek()
            raise ParseError(
                f"conditional expressions cannot be combined with {op!r}; "
                "use 'and' between conditionals",
                token.line,
                token.column,
            )
    return BinOp(op, left, right)


def _parse_unary(cur: _Cursor) -> Expr:
    token = cur.peek()
    if token.text == "!":
        cur.next()
        operand = _parse_unary(cur)
        if is_conditional(operand):
            raise ParseError(
                "'!' applies to events, not conditional expressions",
                token.line,
                token.column,
            )
        return Not(operand)
    return _parse_primary(cur)


def _parse_primary(cur: _Cursor) -> Expr:
    token = cur.peek()
    if token.text == "(":
        cur.next()
        inner = _parse_mixed(cur)
        cur.expect(")")
        return inner
    if token.kind == "ident":
        if token.text in ("given", "and") or token.text in QUERY_KINDS:
            raise ParseError(
                f"unexpected keyword {token.text!r}", token.line, token.column
            )
        cur.next()
        if token.text == "TOP":
            return Const(True)
        if token.text == "BOT":
            return Const(False)
        return Name(token.text)
    raise ParseError(
        f"expected an expression, found {token.text or 'end of line'!r}",
        token.line,
        token.column,
    )


def parse_value(text: str, line_no: int = 0, column: int = 0) -> Fraction:
    """A rational in document syntax: an integer, P/Q or a decimal."""
    if not re.fullmatch(_NUMBER, text):
        raise ParseError(f"expected a rational value, found {text!r}", line_no, column)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}", line_no, column) from None
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
        raise ParseError(
            f"value has too many digits ({len(text)} characters)", line_no, column
        ) from None


def parse_expression(text: str, line_no: int = 1) -> Expr:
    cur = _Cursor(_tokenize_line(text, line_no))
    expr = _parse_mixed(cur)
    cur.require_end()
    return expr


# -- document parsing -----------------------------------------------------------


def parse(text: str) -> AssessmentDocument:
    """Parse a document; diagnostics carry line and column positions."""
    atoms: list[str] = []
    definitions: list[tuple[str, Expr]] = []
    statements: list[Statement] = []
    query: Optional[Query] = None
    declared: set[str] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, line_no)
        cur = _Cursor(tokens)
        if cur.at_end():
            continue
        head = cur.next()
        if head.kind != "ident":
            raise ParseError(
                f"expected a directive, found {head.text!r}", line_no, head.column
            )
        if head.text == "atoms":
            while not cur.at_end():
                token = cur.next()
                if token.kind != "ident":
                    raise ParseError(
                        f"atom names must be identifiers, found {token.text!r}",
                        line_no,
                        token.column,
                    )
                if token.text in declared:
                    raise ParseError(
                        f"name {token.text!r} declared twice", line_no, token.column
                    )
                atoms.append(token.text)
                declared.add(token.text)
        elif head.text == "define":
            token = cur.next()
            if token.kind != "ident":
                raise ParseError("expected a name after 'define'", line_no, token.column)
            if token.text in declared:
                raise ParseError(
                    f"name {token.text!r} declared twice", line_no, token.column
                )
            cur.expect("=")
            expr = _parse_mixed(cur)
            cur.require_end()
            if is_conditional(expr):
                raise ParseError(
                    "definitions name events, not conditional expressions", line_no, 1
                )
            _check_declared(expr, declared, line_no)
            definitions.append((token.text, expr))
            declared.add(token.text)
        elif head.text == "assess":
            token = cur.peek()
            if token.text != "P":
                raise ParseError("expected P(...) after 'assess'", line_no, token.column)
            cur.next()
            cur.expect("(")
            expr = _parse_mixed(cur)
            cur.expect(")")
            cur.expect("=")
            token = cur.next()
            value = parse_value(token.text, line_no, token.column)
            cur.require_end()
            _check_declared(expr, declared, line_no)
            statements.append(Statement(expr, value))
        elif head.text == "query":
            if query is not None:
                raise ParseError("only one query per document", line_no, head.column)
            token = cur.next()
            if token.kind != "ident" or token.text not in QUERY_KINDS:
                raise ParseError(
                    "query kind must be one of " + ", ".join(QUERY_KINDS),
                    line_no,
                    token.column,
                )
            kind = token.text
            target: Optional[Expr] = None
            if not cur.at_end():
                target = _parse_mixed(cur)
                cur.require_end()
                _check_declared(target, declared, line_no)
            query = Query(kind, target)
        else:
            raise ParseError(
                f"unknown directive {head.text!r} (expected atoms, define, "
                "assess, or query)",
                line_no,
                head.column,
            )
    return AssessmentDocument(
        tuple(atoms), tuple(definitions), tuple(statements), query
    )


def _check_declared(expr: Expr, declared: set[str], line_no: int) -> None:
    for name in _names_in(expr):
        if name not in declared:
            raise UndeclaredAtom(f"undeclared name {name!r}", line_no)


def _names_in(expr: Expr) -> set[str]:
    if isinstance(expr, Name):
        return {expr.ident}
    if isinstance(expr, Const):
        return set()
    if isinstance(expr, Not):
        return _names_in(expr.operand)
    if isinstance(expr, (BinOp, Given, CondAnd)):
        return _names_in(expr.left) | _names_in(expr.right)
    raise TypeError(f"not an expression: {expr!r}")


# -- building quantities --------------------------------------------------------


class QuantityBuilder:
    """Resolves expressions to events and conditional random quantities.

    Prevision symbols are canonical: the same expression (after expanding
    definitions and sorting conjunction operands) always maps to the same
    symbol, so a quantity assessed in one statement and referenced inside
    another shares one prevision.  Conditional events whose consequents
    are complementary over the same conditioning event are linked so the
    engine can derive one prevision from the other.
    """

    def __init__(self, registry: AtomRegistry, definitions: Sequence[tuple[str, Expr]] = ()):
        self.registry = registry
        self.definitions = dict(definitions)
        self._cache: dict[str, CRQ] = {}

    def event(self, expr: Expr) -> Event:
        if isinstance(expr, Name):
            if expr.ident in self.definitions:
                return self.event(self.definitions[expr.ident])
            if expr.ident not in self.registry.names:
                raise UndeclaredAtom(f"undeclared name {expr.ident!r}")
            return self.registry.atom(expr.ident)
        if isinstance(expr, Const):
            return TRUE if expr.value else FALSE
        if isinstance(expr, Not):
            return ~self.event(expr.operand)
        if isinstance(expr, BinOp):
            left, right = self.event(expr.left), self.event(expr.right)
            return left & right if expr.op == "&" else left | right
        raise PreconditionFailed(
            f"expected an event, got the conditional expression {render_expr(expr)}"
        )

    def symbol(self, expr: Expr) -> str:
        text = render_expr(expr)
        if is_conditional(expr):
            text = text[1:-1]
        return f"P({text})"

    def crq(self, expr: Expr) -> CRQ:
        key = render_expr(expr)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._build(expr)
            self._cache[key] = cached
        return cached

    def _build(self, expr: Expr) -> CRQ:
        symbol = self.symbol(expr)
        if not is_conditional(expr):
            return self._conditional_event(self.event(expr), TRUE, symbol)
        if isinstance(expr, CondAnd):
            left, right = self._two_conditionals(expr.left, expr.right)
            return conjunction(left, right, symbol)
        assert isinstance(expr, Given)
        antecedent_cond = is_conditional(expr.right)
        consequent_cond = is_conditional(expr.left)
        if not antecedent_cond and not consequent_cond:
            return self._conditional_event(
                self.event(expr.left), self.event(expr.right), symbol
            )
        if antecedent_cond and not consequent_cond:
            inner = self.crq(expr.right)
            if not isinstance(inner.shape, ConditionalEventShape):
                raise PreconditionFailed(
                    "the antecedent of a nested conditional must be an event "
                    "or a plain conditional event"
                )
            return iterated_simple(inner, self.event(expr.left), symbol)
        if antecedent_cond and consequent_cond:
            inner, outer = self._two_conditionals(expr.right, expr.left)
            return iterated(
                inner, outer, symbol, self.symbol(CondAnd(expr.right, expr.left))
            )
        # conditional consequent over a plain event: (X|H) given K
        inner = self.crq(expr.left)
        return given_event(inner, self.event(expr.right), symbol)

    def _two_conditionals(self, left: Expr, right: Expr) -> tuple[CRQ, CRQ]:
        out = []
        for expr in (left, right):
            crq = self.crq(expr)
            if not isinstance(crq.shape, ConditionalEventShape):
                raise PreconditionFailed(
                    "only plain conditional events can be combined here, got "
                    + render_expr(expr)
                )
            out.append(crq)
        return out[0], out[1]

    def _conditional_event(self, consequent: Event, condition: Event, symbol: str) -> CRQ:
        for built in self._cache.values():
            shape = built.shape
            if not isinstance(shape, ConditionalEventShape):
                continue
            if equivalent(shape.condition, condition, self.registry) and equivalent(
                shape.consequent, ~consequent, self.registry
            ):
                return negate(built, symbol)
        return conditional_event(consequent, condition, symbol, registry=self.registry)


@dataclass(frozen=True)
class BuiltDocument:
    document: AssessmentDocument
    registry: AtomRegistry
    builder: QuantityBuilder
    assessment: Optional[Assessment]
    members: tuple[CRQ, ...]


def build(document: AssessmentDocument) -> BuiltDocument:
    """Resolve a parsed document into engine objects.

    Raises the engine's construction errors (impossible conditioning
    events, missing symbols) unchanged.
    """
    registry = AtomRegistry(document.atoms)
    builder = QuantityBuilder(registry, document.definitions)
    members = tuple(builder.crq(statement.target) for statement in document.statements)
    assessment = None
    if members:
        assessment = Assessment(
            [
                (crq, statement.value)
                for crq, statement in zip(members, document.statements)
            ]
        )
    return BuiltDocument(document, registry, builder, assessment, members)
