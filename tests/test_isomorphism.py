from hypothesis import given
from hypothesis import strategies as st

from isomorphism import isomorphic
from ssdkb.generate import GenProfile, generate_graph
from ssdkb.terms import BlankNode, Iri, Literal
from ssdkb.turtle import Triple, parse_turtle, serialize_turtle


def iri(s):
    return Iri(f"http://e.org/#{s}")


def t(s, p, o):
    return Triple(s, p, o)


def test_identical_ground_graphs():
    g = {t(iri("a"), iri("p"), iri("b"))}
    assert isomorphic(g, set(g))


def test_blank_relabeling_is_isomorphic():
    a = {t(BlankNode("x"), iri("p"), iri("v1")), t(BlankNode("y"), iri("p"), iri("v2"))}
    b = {t(BlankNode("m"), iri("p"), iri("v1")), t(BlankNode("n"), iri("p"), iri("v2"))}
    assert isomorphic(a, b)


def test_non_bijective_mapping_rejected():
    # one blank node playing two roles vs two distinct nodes
    a = {
        t(BlankNode("x"), iri("p"), iri("v1")),
        t(BlankNode("x"), iri("p"), iri("v2")),
    }
    b = {
        t(BlankNode("m"), iri("p"), iri("v1")),
        t(BlankNode("n"), iri("p"), iri("v2")),
    }
    assert not isomorphic(a, b)


def test_differing_ground_triples_rejected():
    a = {t(iri("a"), iri("p"), iri("b"))}
    b = {t(iri("a"), iri("p"), iri("c"))}
    assert not isomorphic(a, b)


def test_symmetric_blank_chain():
    # two interchangeable blank nodes
    a = {
        t(BlankNode("x"), iri("p"), BlankNode("y")),
        t(BlankNode("y"), iri("p"), BlankNode("x")),
    }
    b = {
        t(BlankNode("u"), iri("p"), BlankNode("v")),
        t(BlankNode("v"), iri("p"), BlankNode("u")),
    }
    assert isomorphic(a, b)


def test_cycle_length_mismatch():
    a = {
        t(BlankNode("x"), iri("p"), BlankNode("y")),
        t(BlankNode("y"), iri("p"), BlankNode("x")),
    }
    b = {
        t(BlankNode("u"), iri("p"), BlankNode("u")),
        t(BlankNode("v"), iri("p"), BlankNode("v")),
    }
    assert not isomorphic(a, b)


_label = st.from_regex(r"[a-z][a-z0-9]{0,4}", fullmatch=True)
_node = st.one_of(_label.map(iri), _label.map(BlankNode))
_graphs = st.sets(
    st.tuples(
        _node,
        _label.map(iri),
        st.one_of(_node, st.integers(0, 99).map(lambda i: Literal(str(i), "integer"))),
    ).map(lambda x: Triple(*x)),
    max_size=20,
)


@given(_graphs, st.randoms())
def test_relabeling_preserves_isomorphism(graph, rng):
    labels = set()
    for tri in graph:
        for term in (tri.subject, tri.object):
            if isinstance(term, BlankNode):
                labels.add(term.label)
    shuffled = sorted(labels)
    rng.shuffle(shuffled)
    mapping = dict(zip(sorted(labels), (f"fresh{i}" for i in range(len(shuffled)))))
    rng.shuffle(shuffled)

    def sub(term):
        if isinstance(term, BlankNode):
            return BlankNode(mapping[term.label])
        return term

    relabeled = {Triple(sub(x.subject), x.predicate, sub(x.object)) for x in graph}
    assert isomorphic(graph, relabeled)


def test_generated_graph_with_a_thousand_blank_nodes():
    # 40 studies hold 992 blank nodes: once more than the interpreter's
    # default recursion limit allows one stack frame per label
    generated = generate_graph(40, GenProfile(seed=1))
    parsed = parse_turtle(serialize_turtle(generated))
    assert isomorphic(generated, parsed)
    assert isomorphic(parsed, generated)
    # swap the objects of two triples on different blank nodes: same size,
    # same nodes and degrees, but no longer the same graph
    a, b = sorted(
        (x for x in parsed.triples if isinstance(x.subject, BlankNode) and isinstance(x.object, Literal)),
    )[:2]
    assert a.subject != b.subject and a.object != b.object
    swapped = parsed.triples.keys() - {a, b} | {
        Triple(a.subject, a.predicate, b.object),
        Triple(b.subject, b.predicate, a.object),
    }
    assert not isomorphic(generated, swapped)
