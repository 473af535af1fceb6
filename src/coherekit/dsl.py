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
import string
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

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
from .events import TRUE, FALSE, AtomRegistry, Event

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
        return _conjoined(render_expr(expr.left), render_expr(expr.right))
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


class Token(NamedTuple):
    kind: str  # ident | number | punct | end
    text: str
    line: int
    column: int


_NUMBER = r"-?\d+(?:/\d+|\.\d+)?"
_NUMBER_RE = re.compile(_NUMBER)
# One scan finds a line's tokens: the scan skips blanks and tabs, a comment
# runs to the end of the line, and every other character that starts no
# token is a token of its own, an unexpected one.  No two branches match
# on the same first character, so a token's first character gives its
# kind (`_KINDS`, `_kind`).
_TOKEN_RE = re.compile(
    r"""[A-Za-z_][A-Za-z0-9_]*     # ident
      | [()=!&|]                  # punct
      | """ + _NUMBER + r"""      # number
      | \#.*                      # comment
      | [^ \t]                    # unexpected
    """,
    re.VERBOSE,
)
_KINDS = {
    **dict.fromkeys("()=!&|", "punct"),
    **dict.fromkeys(string.ascii_letters + "_", "ident"),
    **dict.fromkeys(string.digits, "number"),
    "#": "comment",
}
_CONNECTIVES = ("given", "and")
_RESERVED = frozenset(_CONNECTIVES + QUERY_KINDS)


def _kind(text: str) -> str:
    """The kind of a token whose first character `_KINDS` does not list:
    a number that starts with a minus sign or with a decimal digit beyond
    ASCII, else an unexpected character (one character long)."""
    return "number" if len(text) > 1 or text.isdecimal() else "error"


class _Cursor:
    """The tokens of one line and a position in them.

    The line is scanned once (`_TOKEN_RE.findall`) into the tokens' texts
    and kinds, ending with an `end` token; an unexpected character raises
    before any token is read.  `kind` and `text` are the current token's.
    Columns are found only for a diagnostic, by a second scan that keeps
    each token's start."""

    __slots__ = ("kinds", "texts", "source", "starts", "line", "pos", "kind", "text")

    def __init__(self, text: str, line: int):
        texts = self.texts = _TOKEN_RE.findall(text)
        kinds = self.kinds = [_KINDS.get(token[0]) or _kind(token) for token in texts]
        self.source = text
        self.starts: Optional[list[int]] = None
        self.line = line
        self.pos = 0
        if "error" in kinds:
            pos = kinds.index("error")
            raise ParseError(f"unexpected character {texts[pos]!r}", line, self.column(pos))
        if kinds and kinds[-1] == "comment":
            kinds.pop()
            texts.pop()
        kinds.append("end")
        texts.append("")
        self.kind = kinds[0]
        self.text = texts[0]

    def column(self, pos: Optional[int] = None) -> int:
        """The column of the token at `pos`, the current one by default;
        the end token's is the one after the line."""
        if self.starts is None:
            self.starts = [match.start() + 1 for match in _TOKEN_RE.finditer(self.source)]
        if pos is None:
            pos = self.pos
        return self.starts[pos] if self.kinds[pos] != "end" else len(self.source) + 1

    def tokens(self) -> list[Token]:
        return [
            Token(kind, text, self.line, self.column(pos))
            for pos, (kind, text) in enumerate(zip(self.kinds, self.texts))
        ]

    def advance(self) -> str:
        """The current token's text; moves past the token unless it is the
        end."""
        text = self.text
        if self.kind != "end":
            self.pos += 1
            self.kind = self.kinds[self.pos]
            self.text = self.texts[self.pos]
        return text

    def error(self, message: str) -> ParseError:
        """A diagnostic at the current token."""
        return ParseError(message, self.line, self.column())

    def expect(self, text: str) -> None:
        if self.text != text:
            raise self.error(f"expected {text!r}, found {self.text or 'end of line'!r}")
        self.advance()

    def require_end(self) -> None:
        if self.kind != "end":
            raise self.error(f"unexpected trailing {self.text!r}")


# -- expression parsing --------------------------------------------------------


def _parse_mixed(cur: _Cursor) -> Expr:
    left = _parse_or(cur)
    if cur.kind == "ident" and cur.text in _CONNECTIVES:
        word = cur.advance()
        right = _parse_or(cur)
        if cur.kind == "ident" and cur.text in _CONNECTIVES:
            raise cur.error("parenthesize nested conditional expressions")
        if word == "given":
            return Given(left, right)
        first, second = sorted((left, right), key=render_expr)
        return CondAnd(first, second)
    return left


def _parse_or(cur: _Cursor) -> Expr:
    left = _parse_and(cur)
    while cur.text == "|":
        cur.advance()
        right = _parse_and(cur)
        left = _event_binop("|", left, right, cur)
    return left


def _parse_and(cur: _Cursor) -> Expr:
    left = _parse_unary(cur)
    while cur.text == "&":
        cur.advance()
        right = _parse_unary(cur)
        left = _event_binop("&", left, right, cur)
    return left


def _event_binop(op: str, left: Expr, right: Expr, cur: _Cursor) -> Expr:
    if is_conditional(left) or is_conditional(right):
        raise cur.error(
            f"conditional expressions cannot be combined with {op!r}; "
            "use 'and' between conditionals"
        )
    return BinOp(op, left, right)


def _parse_unary(cur: _Cursor) -> Expr:
    if cur.text == "!":
        pos = cur.pos
        cur.advance()
        operand = _parse_unary(cur)
        if is_conditional(operand):
            raise ParseError(
                "'!' applies to events, not conditional expressions", cur.line, cur.column(pos)
            )
        return Not(operand)
    return _parse_primary(cur)


def _parse_primary(cur: _Cursor) -> Expr:
    if cur.text == "(":
        cur.advance()
        inner = _parse_mixed(cur)
        cur.expect(")")
        return inner
    if cur.kind == "ident":
        if cur.text in _RESERVED:
            raise cur.error(f"unexpected keyword {cur.text!r}")
        text = cur.advance()
        if text == "TOP":
            return Const(True)
        if text == "BOT":
            return Const(False)
        return Name(text)
    raise cur.error(f"expected an expression, found {cur.text or 'end of line'!r}")


def parse_value(text: str, line_no: int = 0, column: int = 0) -> Fraction:
    """A rational in document syntax: an integer, P/Q or a decimal."""
    if not _NUMBER_RE.fullmatch(text):
        raise ParseError(f"expected a rational value, found {text!r}", line_no, column)
    try:
        return _number(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}", line_no, column) from None
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
        raise ParseError(
            f"value has too many digits ({len(text)} characters)", line_no, column
        ) from None


def _number(text: str) -> Fraction:
    """The value of `text`, which has the number syntax: an integer or P/Q
    from its ints, a decimal as `Fraction` reads it."""
    numerator, slash, denominator = text.partition("/")
    if slash:
        return Fraction(int(numerator), int(denominator))
    if "." in text:
        return Fraction(text)
    return Fraction(int(text))


def _parse_value(cur: _Cursor) -> Fraction:
    """The value of the current token, which it moves past; otherwise the
    diagnostic of `parse_value`, whose column is found only then."""
    if cur.kind == "number":
        try:
            value = _number(cur.text)
        except (ZeroDivisionError, ValueError):
            pass
        else:
            cur.advance()
            return value
    return parse_value(cur.text, cur.line, cur.column())  # raises


def parse_expression(text: str, line_no: int = 1) -> Expr:
    cur = _Cursor(text, line_no)
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
        cur = _Cursor(raw, line_no)
        if cur.kind == "end":
            continue
        if cur.kind != "ident":
            raise cur.error(f"expected a directive, found {cur.text!r}")
        head = cur.advance()
        if head == "atoms":
            while cur.kind != "end":
                if cur.kind != "ident":
                    raise cur.error(f"atom names must be identifiers, found {cur.text!r}")
                if cur.text in declared:
                    raise cur.error(f"name {cur.text!r} declared twice")
                declared.add(cur.text)
                atoms.append(cur.advance())
        elif head == "define":
            if cur.kind != "ident":
                raise cur.error("expected a name after 'define'")
            if cur.text in declared:
                raise cur.error(f"name {cur.text!r} declared twice")
            name = cur.advance()
            cur.expect("=")
            expr = _parse_mixed(cur)
            cur.require_end()
            if is_conditional(expr):
                raise ParseError(
                    "definitions name events, not conditional expressions", line_no, 1
                )
            _check_declared(expr, declared, line_no)
            definitions.append((name, expr))
            declared.add(name)
        elif head == "assess":
            if cur.text != "P":
                raise cur.error("expected P(...) after 'assess'")
            cur.advance()
            cur.expect("(")
            expr = _parse_mixed(cur)
            cur.expect(")")
            cur.expect("=")
            value = _parse_value(cur)
            cur.require_end()
            _check_declared(expr, declared, line_no)
            statements.append(Statement(expr, value))
        elif head == "query":
            if query is not None:
                raise ParseError("only one query per document", line_no, cur.column(0))
            if cur.kind != "ident" or cur.text not in QUERY_KINDS:
                raise cur.error("query kind must be one of " + ", ".join(QUERY_KINDS))
            kind = cur.advance()
            target: Optional[Expr] = None
            if cur.kind != "end":
                target = _parse_mixed(cur)
                cur.require_end()
                _check_declared(target, declared, line_no)
            query = Query(kind, target)
        else:
            raise ParseError(
                f"unknown directive {head!r} (expected atoms, define, "
                "assess, or query)",
                line_no,
                cur.column(0),
            )
    return AssessmentDocument(
        tuple(atoms), tuple(definitions), tuple(statements), query
    )


def _check_declared(expr: Expr, declared: set[str], line_no: int) -> None:
    """Raise for the leftmost name in `expr` that is not declared."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Name):
            if node.ident not in declared:
                raise UndeclaredAtom(f"undeclared name {node.ident!r}", line_no)
        elif isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, (BinOp, Given, CondAnd)):
            stack.append(node.right)
            stack.append(node.left)


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
            if expr.ident not in self.registry:
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

    def crq(self, expr: Expr) -> CRQ:
        texts: dict[int, str] = {}
        _render_parts(expr, texts)
        return self._crq(expr, texts)

    def _crq(self, expr: Expr, texts: dict[int, str]) -> CRQ:
        """The quantity of `expr`, keyed by its canonical text; `texts`
        holds the texts of `expr` and its parts by their ids
        (`_render_parts`)."""
        key = texts[id(expr)]
        cached = self._cache.get(key)
        if cached is None:
            cached = self._build(expr, key, texts)
            self._cache[key] = cached
        return cached

    def _build(self, expr: Expr, key: str, texts: dict[int, str]) -> CRQ:
        symbol = _symbol(key, is_conditional(expr))
        if not is_conditional(expr):
            return self._conditional_event(self.event(expr), TRUE, symbol)
        if isinstance(expr, CondAnd):
            left, right = self._two_conditionals(expr.left, expr.right, texts)
            return conjunction(left, right, symbol)
        assert isinstance(expr, Given)
        antecedent_cond = is_conditional(expr.right)
        consequent_cond = is_conditional(expr.left)
        if not antecedent_cond and not consequent_cond:
            return self._conditional_event(
                self.event(expr.left), self.event(expr.right), symbol
            )
        if antecedent_cond and not consequent_cond:
            inner = self._crq(expr.right, texts)
            if not isinstance(inner.shape, ConditionalEventShape):
                raise PreconditionFailed(
                    "the antecedent of a nested conditional must be an event "
                    "or a plain conditional event"
                )
            return iterated_simple(inner, self.event(expr.left), symbol)
        if antecedent_cond and consequent_cond:
            inner, outer = self._two_conditionals(expr.right, expr.left, texts)
            both = _conjoined(texts[id(expr.right)], texts[id(expr.left)])
            return iterated(inner, outer, symbol, _symbol(both, True))
        # conditional consequent over a plain event: (X|H) given K
        inner = self._crq(expr.left, texts)
        return given_event(inner, self.event(expr.right), symbol)

    def _two_conditionals(
        self, left: Expr, right: Expr, texts: dict[int, str]
    ) -> tuple[CRQ, CRQ]:
        out = []
        for expr in (left, right):
            crq = self._crq(expr, texts)
            if not isinstance(crq.shape, ConditionalEventShape):
                raise PreconditionFailed(
                    "only plain conditional events can be combined here, got " + texts[id(expr)]
                )
            out.append(crq)
        return out[0], out[1]

    def _conditional_event(self, consequent: Event, condition: Event, symbol: str) -> CRQ:
        """`consequent|condition`, or the negation of a conditional event
        already built over the same condition with the complementary
        consequent."""
        masks = None
        for built in self._cache.values():
            shape = built.shape
            if not isinstance(shape, ConditionalEventShape):
                continue
            if masks is None:
                full = self.registry.full_mask()
                masks = condition.mask(self.registry), full ^ consequent.mask(self.registry)
            if (
                shape.condition.mask(self.registry) == masks[0]
                and shape.consequent.mask(self.registry) == masks[1]
            ):
                return negate(built, symbol)
        return conditional_event(consequent, condition, symbol, registry=self.registry)


def _render_parts(expr: Expr, texts: dict[int, str]) -> str:
    """`render_expr(expr)`, rendering each node once and recording the
    text of `expr` and of the operands of its conditionals in `texts` by
    their ids."""
    if isinstance(expr, Given):
        left = _render_parts(expr.left, texts)
        text = f"({left} given {_render_parts(expr.right, texts)})"
    elif isinstance(expr, CondAnd):
        text = _conjoined(_render_parts(expr.left, texts), _render_parts(expr.right, texts))
    else:
        text = render_expr(expr)
    texts[id(expr)] = text
    return text


def _conjoined(left: str, right: str) -> str:
    """The text of the conjunction of two conditionals with these texts."""
    first, second = sorted((left, right))
    return f"({first} and {second})"


def _symbol(text: str, conditional: bool) -> str:
    """The prevision symbol of an expression with canonical text `text`;
    a conditional's text drops its outer parentheses, which P(...)
    supplies."""
    return f"P({text[1:-1]})" if conditional else f"P({text})"


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
