"""Document language: parsing, diagnostics, canonical building."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coherekit.coherence import check_coherence
from coherekit.crq import ConditionalEventShape, IteratedShape
from coherekit.dsl import (
    CondAnd,
    Given,
    Name,
    QuantityBuilder,
    Statement,
    build,
    parse,
    parse_expression,
    render_expr,
    serialize,
)
from coherekit.errors import (
    CoherekitError,
    ImpossibleConditioningEvent,
    ParseError,
    UndeclaredAtom,
)

F = Fraction

MP_DOC = """\
atoms A C H
assess P(A given H) = 1/2
assess P(C given (A given H)) = 1/2
query extend C
"""


def test_parse_mp_document():
    doc = parse(MP_DOC)
    assert doc.atoms == ("A", "C", "H")
    assert len(doc.statements) == 2
    assert doc.statements[0] == Statement(Given(Name("A"), Name("H")), F(1, 2))
    assert doc.query is not None and doc.query.kind == "extend"
    assert doc.query.target == Name("C")


def test_decimals_parse_exactly():
    doc = parse("atoms A\nassess P(A) = 0.25\n")
    assert doc.statements[0].value == F(1, 4)


def test_comments_and_blank_lines():
    doc = parse("# intro\natoms A H\n\nassess P(A given H) = 1 # sure\n")
    assert len(doc.statements) == 1


def test_roundtrip_serialize_parse():
    samples = [
        MP_DOC,
        "atoms A B H K\nassess P((A given H) and (B given K)) = 1/4\n",
        "atoms A B H K\nassess P((B given K) given (A given H)) = 1/3\nquery check\n",
        "atoms A B\ndefine D = A & !B\nassess P(D) = 2/3\nquery table (A given D)\n",
    ]
    for text in samples:
        doc = parse(text)
        again = parse(serialize(doc))
        assert again == doc, text


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse("atoms A\nassess P(A = 1/2\n")
    assert err.value.line == 2


def test_unknown_directive():
    with pytest.raises(ParseError):
        parse("atom A\n")


def test_undeclared_name():
    with pytest.raises(UndeclaredAtom):
        parse("atoms A\nassess P(B) = 1/2\n")


def test_duplicate_declaration_rejected():
    with pytest.raises(ParseError):
        parse("atoms A A\n")
    with pytest.raises(ParseError):
        parse("atoms A\ndefine A = TOP\n")


def test_conditionals_cannot_mix_with_event_operators():
    with pytest.raises(ParseError):
        parse_expression("(A given H) & B")
    with pytest.raises(ParseError):
        parse_expression("!(A given H)")
    with pytest.raises(ParseError):
        parse_expression("A given H given K")


def test_conjunction_operands_are_canonicalized():
    left = parse_expression("(B given K) and (A given H)")
    right = parse_expression("(A given H) and (B given K)")
    assert left == right
    assert render_expr(left) == "((A given H) and (B given K))"


def test_impossible_conditioning_event_reported_at_build():
    doc = parse("atoms A\nassess P(A given BOT) = 1\n")
    with pytest.raises(ImpossibleConditioningEvent):
        build(doc)


def test_build_mp_document_is_coherent():
    built = build(parse(MP_DOC))
    assert built.assessment is not None
    assert check_coherence(built.assessment).coherent
    assert [crq.own_symbol for crq in built.members] == [
        "P(A given H)",
        "P(C given (A given H))",
    ]


def test_builder_unifies_shared_subexpressions():
    doc = parse(
        "atoms A B H K\n"
        "assess P(A given H) = 1/2\n"
        "assess P((B given K) given (A given H)) = 1/3\n"
        "assess P((A given H) and (B given K)) = 1/6\n"
    )
    built = build(doc)
    nested = built.members[1]
    assert isinstance(nested.shape, IteratedShape)
    # the conjunction prevision inside the nested table is the symbol of
    # the separately assessed conjunction
    assert built.members[2].own_symbol in nested.symbols()
    assert check_coherence(built.assessment).coherent


def test_builder_links_complementary_conditionals():
    doc = parse(
        "atoms A C H\n"
        "assess P(A given H) = 1/2\n"
        "assess P(C given (A given H)) = 1/2\n"
        "assess P(C given (!A given H)) = 1/2\n"
    )
    built = build(doc)
    assert built.assessment is not None
    assert built.assessment.valuation["P(!A given H)"] == F(1, 2)
    assert check_coherence(built.assessment).coherent


def test_builder_caches_canonical_quantities():
    doc = parse("atoms A H\n")
    built = build(doc)
    one = built.builder.crq(parse_expression("A given H"))
    two = built.builder.crq(parse_expression("A given H"))
    assert one is two
    assert isinstance(one.shape, ConditionalEventShape)


def test_nested_conditional_on_event():
    """(X|H) given K builds the nested-event shape used by reduction."""
    doc = parse("atoms A H K\n")
    built = build(doc)
    crq = built.builder.crq(parse_expression("(A given H) given (H | K)"))
    assert crq.own_symbol == "P((A given H) given H | K)"


def test_definitions_expand():
    doc = parse(
        "atoms A B H\ndefine D = A & !B\nassess P(D given H) = 1/3\n"
    )
    built = build(doc)
    assert built.members[0].own_symbol == "P(D given H)"
    assert check_coherence(built.assessment).coherent


def test_zero_denominator_is_a_parse_error():
    with pytest.raises(ParseError) as info:
        parse("atoms A\nassess P(A) = 1/0\n")
    assert (info.value.line, info.value.column) == (2, 15)


FUZZ_TOKENS = (
    "atoms", "define", "assess", "query", "P", "given", "and", "TOP", "BOT",
    "check", "extend", "mp", "dutchbook", "table", "A", "B", "C", "D", "X",
    "0", "1", "-1", "1/2", "3/4", "1/0", "0.25", "(", ")", "=", "!", "&", "|",
    "#",
)
FUZZ_VALUES = ("0", "1", "-1", "1/2", "3/4", "1/0", "0.25", "2")

# Token soup fails in the parser, so each document is well-formed lines
# over the same tokens with at most one line of soup among them.
_soup = st.lists(st.sampled_from(FUZZ_TOKENS), max_size=8).map(" ".join)
_event = st.recursive(
    st.sampled_from(("A", "B", "C", "D", "X", "TOP", "BOT")),
    lambda inner: st.one_of(
        inner.map("!{}".format),
        st.tuples(inner, st.sampled_from("&|"), inner).map("({0[0]} {0[1]} {0[2]})".format),
    ),
    max_leaves=4,
)
_conditional = st.recursive(
    _event,
    lambda inner: st.tuples(inner, st.sampled_from(("given", "and")), inner).map(
        "({0[0]} {0[1]} {0[2]})".format
    ),
    max_leaves=3,
)
_line = st.one_of(
    st.tuples(_conditional, st.sampled_from(FUZZ_VALUES)).map("assess P({0[0]}) = {0[1]}".format),
    _event.map("define D = {}".format),
    _conditional.map("query extend {}".format),
)


@settings(deadline=None, max_examples=200)
@given(st.lists(_line, max_size=4), st.one_of(st.just(None), _soup), st.integers(0, 4))
def test_fuzzed_documents_build_or_raise_package_errors(lines, soup, at):
    if soup is not None:
        lines.insert(at, soup)
    text = "atoms A B C\n" + "\n".join(lines)
    try:
        build(parse(text))
    except CoherekitError:
        pass
