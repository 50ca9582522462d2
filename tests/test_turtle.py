import itertools
import re
from operator import itemgetter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIXTURES
from isomorphism import isomorphic
from ssdkb import scan, turtle
from ssdkb.generate import GenProfile, generate_graph
from ssdkb.kb import graph_to_kb
from ssdkb.terms import BlankNode, Iri, Literal, RDF_TYPE, SSD_NS, Term, aut, ssd, unescape
from ssdkb.turtle import (
    Triple,
    TripleGraph,
    TurtleSyntaxError,
    display_names,
    parse_turtle,
    serialize_turtle,
)

PAUL_BLOCK = """
@prefix ssd: <http://bdi.si.ehu.es/bdi/ontologies/SSDOnt/SSDOnt#> .

ssd:paul a ssd:Participant ;
    ssd:hasCondition ssd:autism ;
    ssd:hasGender ssd:male ;
    ssd:hasAge _:age01 ;
    ssd:diagnosedAtAge _:age02 .
"""


def test_paul_block_yields_five_triples():
    graph = parse_turtle(PAUL_BLOCK)
    assert len(graph) == 5
    assert Triple(ssd("paul"), RDF_TYPE, ssd("Participant")) in graph.triples
    assert Triple(ssd("paul"), ssd("hasCondition"), ssd("autism")) in graph.triples
    assert Triple(ssd("paul"), ssd("hasAge"), BlankNode("age01")) in graph.triples


def test_prefix_only_document_is_empty_graph():
    graph = parse_turtle(
        "@prefix ssd: <http://example.org/a#> .\n@prefix aut: <http://example.org/b#> .\n"
    )
    assert len(graph) == 0
    assert graph.prefix_table["ssd"] == "http://example.org/a#"


def test_missing_terminator_is_syntax_error():
    with pytest.raises(TurtleSyntaxError):
        parse_turtle(
            "@prefix ssd: <http://example.org/#> .\nssd:paul ssd:hasGender ssd:male"
        )


def test_unresolvable_prefix():
    with pytest.raises(TurtleSyntaxError, match="unresolvable prefix"):
        parse_turtle("nope:x nope:y nope:z .")


def test_error_carries_line_and_column():
    try:
        parse_turtle("@prefix ssd: <http://e.org/#> .\nssd:a ssd:b @bad .")
    except TurtleSyntaxError as exc:
        assert exc.line == 2
        assert exc.column > 1
    else:
        pytest.fail("expected a syntax error")


def test_literals_and_comments():
    graph = parse_turtle(
        "@prefix s: <http://e.org/#> .\n"
        "# a comment\n"
        's:x s:int 7 ; s:dec 10.1 ; s:str "hi \\"there\\"" . # trailing\n'
    )
    objs = {t.object for t in graph.triples}
    assert Literal("7", "integer") in objs
    assert Literal("10.1", "decimal") in objs
    assert Literal('hi "there"', "string") in objs


def test_absolute_iris():
    graph = parse_turtle("<http://e.org/s> <http://e.org/p> <http://e.org/o> .")
    assert Triple(Iri("http://e.org/s"), Iri("http://e.org/p"), Iri("http://e.org/o")) in graph.triples


def test_statement_order_and_whitespace_insensitive():
    a = parse_turtle("@prefix s: <http://e.org/#> .\ns:a s:p s:b .\ns:c s:p s:d .")
    b = parse_turtle(
        "@prefix s: <http://e.org/#> .\n\n\ns:c   s:p\n\ts:d .\ns:a s:p s:b ."
    )
    assert a.triples == b.triples


def test_duplicate_statements_collapse():
    graph = parse_turtle("@prefix s: <http://e.org/#> .\ns:a s:p s:b .\ns:a s:p s:b .")
    assert len(graph) == 1


# --- reference serializer ---
# The canonical form computed the plain way: one sort of every triple, a
# separate pass that numbers the blank nodes, then rendering. The serializer
# must match it byte for byte. It shares no helper with `ssdkb.turtle`.


def _reference_prefix_map(prefix_table: dict[str, str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for label in sorted(prefix_table):
        ns = prefix_table[label]
        if ns not in out:
            out[ns] = label
    return out


_REFERENCE_LOCAL_RX = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*$")


def _reference_render(term: Term, ns_to_label: dict[str, str], bnode_map: dict[str, str]) -> str:
    if isinstance(term, Iri):
        for ns, label in ns_to_label.items():
            if term.value.startswith(ns):
                local = term.value[len(ns):]
                if _REFERENCE_LOCAL_RX.fullmatch(local):
                    return f"{label}:{local}"
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{bnode_map[term.label]}"
    return str(term)


def reference_serialize(graph: TripleGraph) -> str:
    ns_to_label = _reference_prefix_map(graph.prefix_table)

    # rdf:type first within a subject block
    ordered = sorted(graph.triples, key=lambda t: (t.subject, t.predicate != RDF_TYPE, t))
    bnode_map: dict[str, str] = {}
    for t in ordered:
        for term in (t.subject, t.object):
            if isinstance(term, BlankNode) and term.label not in bnode_map:
                bnode_map[term.label] = f"b{len(bnode_map) + 1}"

    lines = [
        f"@prefix {label}: <{graph.prefix_table[label]}> ."
        for label in sorted(graph.prefix_table)
    ]

    # each distinct term is rendered once per call
    rendered: dict[Term, str] = {}

    def render(term: Term) -> str:
        text = rendered.get(term)
        if text is None:
            text = rendered[term] = _reference_render(term, ns_to_label, bnode_map)
        return text

    blocks = []
    for subject, group in itertools.groupby(ordered, key=itemgetter(0)):
        parts = [
            f"{'a' if t.predicate == RDF_TYPE else render(t.predicate)} {render(t.object)}"
            for t in group
        ]
        blocks.append(f"{render(subject)} " + " ;\n    ".join(parts) + " .")

    text = "\n".join(lines)
    if blocks:
        text += "\n\n" + "\n\n".join(blocks)
    return text + "\n"


def assert_same_text(text: str, expected: str) -> None:
    """Byte equality, reported at the first line that differs: pytest's own
    diff of two corpus-sized texts would run for minutes."""
    if text != expected:
        pairs = itertools.zip_longest(text.split("\n"), expected.split("\n"))
        line, (got, want) = next((i, p) for i, p in enumerate(pairs, 1) if p[0] != p[1])
        pytest.fail(f"line {line}: {got!r} != {want!r}")


@pytest.mark.parametrize("name", sorted(path.name for path in FIXTURES.glob("*.ttl")))
def test_fixture_round_trip(name):
    graph = parse_turtle((FIXTURES / name).read_text())
    text = serialize_turtle(graph)
    assert_same_text(text, reference_serialize(graph))
    again = parse_turtle(text)
    assert isomorphic(graph, again)
    # canonical output is a fixpoint
    assert serialize_turtle(again) == serialize_turtle(parse_turtle(serialize_turtle(again)))


def test_round_trip_at_corpus_scale():
    generated = generate_graph(1000, GenProfile(seed=7))
    text = serialize_turtle(parse_turtle(serialize_turtle(generated)))
    parsed = parse_turtle(text)
    assert_same_text(serialize_turtle(parsed), text)
    assert len(parsed) == len(generated)
    assert isomorphic(parsed, generated)
    assert graph_to_kb(parsed).studies == graph_to_kb(generated).studies


def test_serializer_matches_reference_on_generated_corpus():
    graph = generate_graph(200, GenProfile(seed=3))
    assert_same_text(serialize_turtle(graph), reference_serialize(graph))


def test_serializer_canonical_shape():
    graph = parse_turtle((FIXTURES / "fig3.ttl").read_text())
    text = serialize_turtle(graph)
    assert "ssd:hasPosition 1" in text
    lines = text.splitlines()
    prefix_lines = [l for l in lines if l.startswith("@prefix")]
    assert prefix_lines == sorted(prefix_lines)
    assert "_:b1" in text


def test_empty_graph_serializes_to_prefixes_only():
    text = serialize_turtle(TripleGraph())
    assert "@prefix" in text
    assert parse_turtle(text).triples == {}


def test_display_names_keep_iris_that_share_a_local_name_apart():
    # a local name that one IRI alone has stays bare; where IRIs share one,
    # each is a prefixed name with the smallest label of its namespace, or
    # whole outside the known namespaces or without a plain local part. A
    # local name that reads as a prefixed name is never bare.
    terms = [
        ssd("x"), aut("x"), Iri("http://example.org/x"), ssd("y"),
        Iri("http://example.org/a#ssd:x"),
        ssd("1z"), aut("1z"), BlankNode("x"), Literal("x", "string"), Literal("7", "integer"),
    ]
    assert display_names(terms + terms[:2]) == {
        ssd("x"): "ssd:x",
        aut("x"): "aut:x",
        Iri("http://example.org/x"): "<http://example.org/x>",
        ssd("y"): "y",
        Iri("http://example.org/a#ssd:x"): "<http://example.org/a#ssd:x>",
        ssd("1z"): f"<{SSD_NS}1z>",
        aut("1z"): f"<{aut('1z').value}>",
        BlankNode("x"): "_:x",
        Literal("x", "string"): "x",
        Literal("7", "integer"): "7",
    }


@given(st.text())
def test_unescape_inverts_literal_quoting(text):
    assert unescape(str(Literal(text, "string"))[1:-1]) == text


def test_line_breaks_in_a_string_literal_are_escaped():
    # W3C Turtle allows no raw line break inside "…"
    literal = Literal("two\nlines\r", "string")
    graph = TripleGraph()
    graph.add(ssd("s"), ssd("p"), literal)
    text = serialize_turtle(graph)
    assert 'ssd:s ssd:p "two\\nlines\\r" .' in text.splitlines()
    assert parse_turtle(text).triples == graph.triples


_local = st.from_regex(r"[a-z][a-z0-9]{0,6}", fullmatch=True)
# A few fixed names recur, so that subjects get several triples, several
# rdf:type objects, and blank nodes used more than once.
_iri = st.one_of(
    st.sampled_from([ssd("s1"), ssd("s2"), ssd("C1"), ssd("C2")]),
    _local.map(lambda s: Iri(SSD_NS + s)),
    # outside every prefix, and in a prefix but not a valid local name
    _local.map(lambda s: Iri("http://other.example/" + s)),
    _local.map(lambda s: Iri(SSD_NS + "1" + s)),
)
_bnode = st.one_of(st.sampled_from([BlankNode("n1"), BlankNode("n2")]), _local.map(BlankNode))
_term = st.one_of(
    _iri,
    _bnode,
    st.just(RDF_TYPE),
    st.integers(-999, 999).map(lambda i: Literal(str(i), "integer")),
    st.builds(lambda i, f: Literal(f"{i}.{f}", "decimal"), st.integers(-99, 99), st.integers(0, 99)),
    st.text('ab"\\\n', max_size=6).map(lambda s: Literal(s, "string")),
)
_triples = st.sets(
    st.tuples(
        st.one_of(_iri, _bnode),
        st.one_of(st.just(RDF_TYPE), _iri),
        _term,
    ).map(lambda t: Triple(*t)),
    max_size=25,
)


@given(_triples)
def test_round_trip_random_graphs(triples):
    graph = TripleGraph(triples=dict.fromkeys(triples))
    text = serialize_turtle(graph)
    assert_same_text(text, reference_serialize(graph))
    again = parse_turtle(text)
    assert isomorphic(graph, again)


_S = "@prefix s: <http://e.org/#> .\n"
_EX = "@prefix ex: <http://e.org/#> .\n"


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("# c\n\n   \t ^", "unexpected character '^'", 3, 6),
        (_S + "s:a s:p s:b ; s:q s:c ; s:r s:d", "unterminated statement", 2, 32),
        (_S + 's:a s:p "x\\q" .', "bad string escape", 2, 9),
        ('"lit" s:p s:o .', "subject cannot be a literal", 1, 1),
        (_S + "s:a ;; .", "predicate must be an IRI, found ';'", 2, 5),
        (_S + "s:a s:p s:o ;", "predicate must be an IRI, found ''", 2, 14),
        (_S + "s:a s:p .", "unexpected token '.'", 2, 9),
        (_S + "s:a s:p s:b s:a", "expected ';' or '.', found 's:a'", 2, 13),
        (_S + "@prefix t: s:a .", "expected IRIREF, found PNAME 's:a'", 2, 12),
        ("<a> <b> <c> .\n\n  @prefix s: <x>", "expected DOT, found EOF ''", 3, 17),
        ("@prefix t: <x> s:a", "expected DOT, found PNAME 's:a'", 1, 16),
        ("@prefix", "expected PNAME, found EOF ''", 1, 8),
        ("@prefix s:x <http://e.org/#> .", "prefix declaration label must end with ':'", 1, 9),
        ("nope:x nope:y nope:z .", "unresolvable prefix 'nope'", 1, 1),
        (_S + "s:a s:p _: .", "unexpected character '_'", 2, 9),
        # W3C Turtle allows no raw line break inside "…"
        (_S + 's:a s:p "two\nlines" .', "unexpected character '\"'", 2, 9),
        (_S + 's:a s:p s:b ; s:q "cr\r" .', "unexpected character '\"'", 2, 19),
        # a long string is refused where it starts, not at its second quote pair
        (_EX + 'ex:a ex:p """x""" .', "unexpected character '\"'", 2, 11),
        (_S + 's:a s:p "x""" .', "unexpected character '\"'", 2, 9),
        # The first unexpected character wins over an earlier grammar error.
        ('"lit" s:p s:o .\n  ^', "unexpected character '^'", 2, 3),
    ],
)
def test_error_message_line_and_column(text, message, line, column):
    with pytest.raises(TurtleSyntaxError) as info:
        parse_turtle(text)
    assert str(info.value) == f"{message} (line {line}, column {column})"
    assert (info.value.line, info.value.column) == (line, column)


def test_empty_string_literal():
    graph = parse_turtle(_S + 's:a s:p "" .')
    assert [t.object for t in graph.triples] == [Literal("", "string")]


def test_redefined_prefix_applies_to_later_names():
    graph = parse_turtle(
        "@prefix s: <http://e.org/a#> .\ns:x s:p s:y .\n"
        "@prefix s: <http://e.org/b#> .\ns:x s:p s:y .\n"
    )

    def s(ns, local):
        return Iri(f"http://e.org/{ns}#{local}")

    assert list(graph.triples) == [
        Triple(s("a", "x"), s("a", "p"), s("a", "y")),
        Triple(s("b", "x"), s("b", "p"), s("b", "y")),
    ]
    assert graph.prefix_table == {"s": "http://e.org/b#"}


# Turtle-significant characters plus a few whole tokens, so that some
# inputs get past the first statement.
# `\xa0`, `\x85`, `\x1c` and `\u2028` are whitespace both to `str.split()`,
# which the line reader splits a line with, and to the scanner's `\s`; these
# pieces keep the two in step.
_TURTLE_PIECES = list('@prefix:_ab01.;"\\#<>\n \t-+^é\xa0\x85\x1c\u2028') + [
    "@prefix s: <x> .",
    "s:a ",
    "<x> ",
]
_turtle_text = st.lists(st.sampled_from(_TURTLE_PIECES), max_size=40).map("".join)


@given(_turtle_text)
def test_parse_turtle_is_total(text):
    try:
        graph = parse_turtle(text)
    except TurtleSyntaxError:
        return
    assert isinstance(graph, TripleGraph)


# --- reference reader ---
# The token-loop reader as it was before any faster path: one Python step
# per token. `parse_turtle` must give the same graph, or the same error at
# the same line and column, on every text.

# After any whitespace and `#` comments. The first alternative that matches
# wins, so `a:` is a prefixed name and `a` alone the keyword. The kinds are
# what error messages print.
_REFERENCE_TOKEN_RX = scan.language(
    scan.SKIP,
    IRIREF=scan.IRIREF,
    PREFIX_DIRECTIVE=r"@prefix\b",
    BLANK=r"_:[A-Za-z0-9][A-Za-z0-9_\-]*",
    # Local part may be empty (`ssd:` alone is valid but unused here).
    PNAME=r"(?:[A-Za-z][A-Za-z0-9_\-]*)?:(?:[A-Za-z_][A-Za-z0-9_\-]*)?",
    DECIMAL=scan.DECIMAL,
    INTEGER=scan.INTEGER,
    # not followed by a quote, so a long string is refused where it starts
    STRING=scan.STRING + '(?!")',
    A=r"a(?![A-Za-z0-9_\-:])",
    SEMI=";",
    DOT=r"\.",
)


class ReferenceReader:
    """One pass over a document. The statement loop pulls each token from
    the scanner when it needs it."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _REFERENCE_TOKEN_RX.finditer(text)
        self.graph = TripleGraph(prefix_table={})
        # token text -> the one term instance shared by all its occurrences
        self.terms: dict[str, Term] = {}

    def read(self) -> TripleGraph:
        m = next(self.tokens)
        while m.lastgroup != "EOF":
            if m.lastgroup == "PREFIX_DIRECTIVE":
                self.read_prefix()
            else:
                self.read_statement(m)
            m = next(self.tokens)
        return self.graph

    def read_statement(self, m: re.Match) -> None:
        tokens = self.tokens
        triples = self.graph.triples
        subject = self.term(m)
        if isinstance(subject, Literal):
            raise self.error("subject cannot be a literal", m)
        m = next(tokens)
        while True:
            predicate = self.predicate(m)
            triples[Triple(subject, predicate, self.term(next(tokens)))] = None
            m = next(tokens)
            kind = m.lastgroup
            if kind == "SEMI":
                # Permit a trailing `;` before the `.`
                m = next(tokens)
                if m.lastgroup != "DOT":
                    continue
            elif kind == "EOF":
                raise self.error("unterminated statement", m)
            elif kind != "DOT":
                raise self.error(f"expected ';' or '.', found {m[kind]!r}", m)
            return

    def read_prefix(self) -> None:
        m = next(self.tokens)
        label = self.expect(m, "PNAME")
        if not label.endswith(":"):
            raise self.error("prefix declaration label must end with ':'", m)
        iri = self.expect(next(self.tokens), "IRIREF")
        self.expect(next(self.tokens), "DOT")
        self.graph.prefix_table[label[:-1]] = iri[1:-1]
        # Cached prefixed names may resolve differently under the new prefix.
        self.terms.clear()

    def expect(self, m: re.Match, kind: str) -> str:
        if m.lastgroup != kind:
            raise self.error(f"expected {kind}, found {m.lastgroup} {m[m.lastgroup]!r}", m)
        return m[kind]

    def predicate(self, m: re.Match) -> Iri:
        kind = m.lastgroup
        if kind == "A":
            return RDF_TYPE
        if kind != "PNAME" and kind != "IRIREF":
            raise self.error(f"predicate must be an IRI, found {m[kind]!r}", m)
        return self.term(m)  # type: ignore[return-value]

    def term(self, m: re.Match) -> Term:
        kind = m.lastgroup
        text = m[kind]
        term = self.terms.get(text)
        if term is not None:
            return term
        if kind == "PNAME":
            label, _, local = text.partition(":")
            ns = self.graph.prefix_table.get(label)
            if ns is None:
                raise self.error(f"unresolvable prefix {label!r}", m)
            term = Iri(ns + local)
        elif kind == "IRIREF":
            term = Iri(text[1:-1])
        elif kind == "BLANK":
            term = BlankNode(text[2:])
        elif kind == "INTEGER" or kind == "DECIMAL":
            term = Literal(text, kind.lower())
        elif kind == "STRING":
            try:
                term = Literal(unescape(text[1:-1]), "string")
            except ValueError:
                raise self.error("bad string escape", m) from None
        else:
            raise self.error(f"unexpected token {text!r}", m)
        self.terms[text] = term
        return term

    def error(self, message: str, m: re.Match) -> TurtleSyntaxError:
        """The error for token `m`, or for the first unexpected character
        from `m` on if there is one."""
        bad = scan.first_unexpected(itertools.chain((m,), self.tokens))
        if bad is not None:
            m, message = bad, f"unexpected character {bad['ERROR']!r}"
        pos = m.start(m.lastgroup)
        line = self.text.count("\n", 0, pos) + 1
        return TurtleSyntaxError(message, line, pos - self.text.rfind("\n", 0, pos))


def reference_parse_turtle(text: str) -> TripleGraph:
    return ReferenceReader(text).read()


def outcome(parse, text: str):
    """What `parse` makes of `text`: the triples in the order of the graph
    and the prefixes, or the error."""
    try:
        graph = parse(text)
    except TurtleSyntaxError as exc:
        return str(exc), exc.line, exc.column
    return list(graph.triples), graph.prefix_table


def assert_reads_like_reference(text: str) -> None:
    assert outcome(parse_turtle, text) == outcome(reference_parse_turtle, text)


@pytest.mark.parametrize(
    "text",
    [
        _S + "s:a s:p 1.5x .",
        _S + "s:a s:p 1. ",
        _S + "s:a s:p 1.5 s:q .",
        _S + "s:a s:p 1.;",
        _S + "s:a a:b c:d .",
        "@prefix a: <http://e.org/a#> .\n@prefix c: <http://e.org/c#> .\na:a a:b c:d .",
        _S + "s:a s:p s:o ; .",
        _S + "s:a s:p s:o ;\n  # a comment\n  . s:b s:p s:o .",
        _S + '"lit" s:p s:o .',
        _S + "1 s:p s:o .",
        _S + "s:a s:p .",
        _S + "s:a s:p s:o #. \n",
        _S + "s:a s:p s:o #.\n.",
        _S + "s:a:b s:c .",
        _S + "s:a s:p s:1 .",
        _S + "s:a s:p s: .",
        _S + "s:a s:p _:b1 ; s:q _:b1x-y .",
        _S + "_:xa s:o .",
        _S + "s:a s:p a .",
        _S + "a s:p s:o .",
        _S + "s:a a s:C;s:p -1;s:q +2.50;s:r <http://e.org/o>.",
        _S + 's:a s:p "x\\q" ; s:q s:o .',
        _S + 's:a s:p "x\\"y" .',
        _S + "s:a s:p s:o .\n@prefix s: <http://e.org/b#> .\ns:a s:p s:o .",
        _S + "s:a s:p s:o . nope:a s:p s:o .",
        _S + "s:a s:p s:o . s:b s:p s:o ; s:q",
        # separators glued to a token
        _S + "s:a s:p s:o;s:p 1 .",
        _S + "s:a s:p 1.",
        _S + "s:a s:p s:o.",
        _S + "s:a s:p s:o;\n  s:q 1.5;\n  s:r _:b.\ns:b a s:C;.",
        _S + "s:a s:p 1..",
        _S + "s:a s:p s:o.;",
        _S + "s:a s:p ;",
        _S + "s:a s:p. s:o .",
        _S + "s:a s:p\n.",
        _S + 's:a s:p "x";s:q <http://e.org/o>.',
        # a comment right after a whole token, mid-statement
        _S + "s:a # c\n s:p s:o .",
        _S + "s:a s:p # c\n s:o .",
        _S + "s:a s:p s:o # c ; .\n ; s:q s:o .",
        _S + "s:a s:p s:o ; # c\n .",
        _S + "s:a s:p s:o#c\n .",
        _S + "s:a s:p s:o .#c\ns:b s:p s:o .",
        # a statement that starts mid-line after another statement's `.`
        _S + "s:a s:p s:o . s:b s:p s:o .\n",
        _S + "s:a s:p s:o.s:b s:p s:o .",
        _S + 's:a s:p s:o . s:b s:p "x y" . s:c s:p s:o .\ns:d s:p s:o .',
        _S + "s:a s:p s:o . s:b s:p s:o ; s:q s:o2 . s:c s:p s:o s:d .",
        _S + "s:a s:p s:o . s:b s:p s:o;. s:c a s:p .",
        _S + "s:a s:p s:o . s:b s:p s:o . @prefix s: <http://e.org/b#> . s:c s:p s:o .",
        # `@prefix` redefined mid-document, and written without spaces
        _S + "s:a s:p s:o .\n@prefix s:<http://e.org/c#>.\ns:a s:p s:o .",
        "@prefix s:<http://e.org/a#>.s:a s:p s:o .\n@prefix s:<http://e.org/b#>. s:a s:p s:o .",
        _S + "s:a s:p s:o ;\n@prefix s: <http://e.org/b#> .",
        # strings that hold spaces or `#`
        _S + 's:a s:p "x y" ; s:q "a # b" ; s:r "#" ; s:t "# c" .',
        _S + 's:a s:p "x #y" .\ns:b s:p "a;b." .',
        _S + 's:a s:p "x\\" y" .',
        # an empty string, and long strings
        _S + 's:a s:p "" ; s:q "";.',
        _S + 's:a s:p """x""" .',
        _S + 's:a s:p "x""" ; s:q """" .',
        # whitespace that is not a space between tokens, and in a comment
        _S + "s:a\xa0s:p\x85s:o\x1c;\u2028s:q\ts:o\r\n.",
        _S + "\xa0s:a s:p s:o\u2028.\x85",
        _S + "s:a s:p s:o . # c\u2028s:b s:p s:o .\ns:c s:p s:o .",
        _S + "s:a s:p s:o # c\u2028.\n.",
    ],
)
def test_reader_matches_reference(text):
    assert_reads_like_reference(text)


_CORPUS_20 = serialize_turtle(generate_graph(20, GenProfile(seed=5)))


@st.composite
def _edited_corpus(draw):
    """The 20-study corpus with 1-3 slices of up to 4 characters each
    replaced by up to 3 pieces of `_turtle_text`'s alphabet."""
    text = _CORPUS_20
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        n = draw(st.integers(0, 4))
        new = "".join(draw(st.lists(st.sampled_from(_TURTLE_PIECES), max_size=3)))
        text = text[:i] + new + text[i + n:]
    return text


@given(_edited_corpus())
def test_reader_matches_reference_on_edited_corpus(text):
    assert_reads_like_reference(text)


@given(_turtle_text)
def test_reader_matches_reference_on_short_texts(text):
    assert_reads_like_reference(text)


def _token_loop_starts(monkeypatch, text: str) -> tuple[list[int], TripleGraph]:
    """Where the token loop starts to read `text`, and the graph read."""
    starts = []
    read_tokens = turtle._Reader.read_tokens

    def counted(self, pos):
        starts.append(pos)
        return read_tokens(self, pos)

    monkeypatch.setattr(turtle._Reader, "read_tokens", counted)
    return starts, parse_turtle(text)


# a comment after every statement
_COMMENTED_20 = _CORPUS_20.replace(" .\n", " . # a statement ends here\n")
# `str.split` cuts the string in two, so the line reader refuses this
_REFUSED = 'ssd:x ssd:note "two words" .'


@pytest.mark.parametrize(
    "text",
    [
        _CORPUS_20,
        _COMMENTED_20,
        _COMMENTED_20.replace("\n\n", f"\n\n{_REFUSED}\n", 3),
        # a refused statement after another on its line
        _COMMENTED_20.replace("\n\n", f"\n\nssd:x ssd:note 1 . {_REFUSED} # c\n", 3),
    ],
    ids=["corpus", "commented", "refused", "refused-mid-line"],
)
def test_token_loop_reads_only_what_the_line_reader_refuses(monkeypatch, text):
    # the directives, each statement the line reader refuses, and the end
    # of the text
    refused = re.finditer(f"@prefix|{re.escape(_REFUSED)}", text)
    starts, graph = _token_loop_starts(monkeypatch, text)
    assert starts == [m.start() for m in refused] + [len(text)]
    assert list(graph.triples) == list(reference_parse_turtle(text).triples)
