import copy
import pickle

import pytest

from ssdkb.terms import BlankNode, Iri, Literal
from ssdkb.turtle import Triple


def test_kinds_with_the_same_text_are_distinct():
    iri, blank, literal = Iri("x"), BlankNode("x"), Literal("x", "string")
    assert iri != blank and iri != literal and blank != literal
    assert len({iri, blank, literal}) == 3


def test_equal_terms_built_apart_are_equal_and_hash_equal():
    for a, b in [
        (Iri("http://e.org/a"), Iri("http://e.org/" + "a")),
        (BlankNode("b1"), BlankNode("b" + "1")),
        (Literal("42", "integer"), Literal(str(42), "integer")),
        (
            Triple(Iri("s"), Iri("p"), Literal("1.5", "decimal")),
            Triple(Iri("s"), Iri("p"), Literal("1.5", "decimal")),
        ),
    ]:
        assert a is not b
        assert a == b and hash(a) == hash(b)
    assert Literal("1", "integer") != Literal("1", "decimal")


def test_sort_order_is_iris_then_blank_nodes_then_literals():
    mixed = [
        Literal("b", "string"),
        BlankNode("z"),
        Literal("10", "integer"),
        Iri("http://e.org/b"),
        Literal("2", "decimal"),
        BlankNode("a"),
        Literal("a", "string"),
        Iri("http://e.org/a"),
        Literal("9", "integer"),
    ]
    assert sorted(mixed) == [
        Iri("http://e.org/a"),
        Iri("http://e.org/b"),
        BlankNode("a"),
        BlankNode("z"),
        # literals by datatype, then lexical form (not numeric value)
        Literal("2", "decimal"),
        Literal("10", "integer"),
        Literal("9", "integer"),
        Literal("a", "string"),
        Literal("b", "string"),
    ]


def test_attributes_and_text_forms():
    literal = Literal('say "hi"', "string")
    assert (literal.lexical, literal.datatype) == ('say "hi"', "string")
    assert str(literal) == '"say \\"hi\\""'
    assert Literal("-3", "integer").as_int() == -3
    assert str(Iri("http://e.org/a")) == "<http://e.org/a>"
    assert str(BlankNode("b1")) == "_:b1"
    assert repr(Iri("x")) == "Iri(value='x')"
    assert repr(Literal("1", "integer")) == "Literal(lexical='1', datatype='integer')"
    t = Triple(BlankNode("b"), Iri("p"), Iri("o"))
    assert (t.subject, t.predicate, t.object) == (BlankNode("b"), Iri("p"), Iri("o"))
    assert repr(t) == "Triple(subject=BlankNode(label='b'), predicate=Iri(value='p'), object=Iri(value='o'))"


def test_constructors_check_their_arguments():
    with pytest.raises(ValueError, match="unknown literal datatype"):
        Literal("1", "float")
    with pytest.raises(ValueError, match="predicate must be an IRI"):
        Triple(Iri("s"), BlankNode("p"), Iri("o"))
    with pytest.raises(ValueError, match="predicate must be an IRI"):
        Triple(Iri("s"), Literal("p", "string"), Iri("o"))


def test_terms_have_no_instance_dict():
    for term in (Iri("x"), BlankNode("x"), Literal("x", "string"), Triple(Iri("s"), Iri("p"), Iri("o"))):
        with pytest.raises(AttributeError):
            term.extra = 1


@pytest.mark.parametrize(
    "value",
    [
        Iri("http://e.org/a"),
        BlankNode("b1"),
        Literal("4.5", "decimal"),
        Triple(BlankNode("b1"), Iri("http://e.org/p"), Literal("x", "string")),
    ],
    ids=["iri", "blank", "literal", "triple"],
)
def test_copy_and_pickle_round_trip(value):
    for again in (
        copy.copy(value),
        copy.deepcopy(value),
        *(pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    ):
        assert again == value and hash(again) == hash(value)
        assert type(again) is type(value)
        assert repr(again) == repr(value)
    # every protocol rebuilds through the constructor and its checks
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert value.__reduce_ex__(protocol)[0] is type(value)
