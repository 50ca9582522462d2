import json
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import QUERIES, edited_queries
from ssdkb.sparql import (
    SparqlQuery,
    SparqlSyntaxError,
    TriplePattern,
    Var,
    eval_sparql,
    parse_sparql,
)
from ssdkb.classify import materialize_types
from ssdkb.kb import empty_kb, graph_to_kb
from ssdkb.terms import Literal, aut, local_name, ssd
from ssdkb.turtle import parse_turtle
from ssdkb.vocab import AB_DESIGN

BEST_RESULT = (QUERIES / "sparql_best_result.rq").read_text()


def test_parse_best_result_query():
    query = parse_sparql(BEST_RESULT)
    assert query.select_vars == ("study", "interType", "val")
    assert len(query.patterns) == 8
    assert query.order_by == ("val", "DESC")
    assert query.limit == 1
    assert TriplePattern(Var("study"), ssd("hasPhase"), Var("ph")) in query.patterns
    # `a` expands to rdf:type
    from ssdkb.terms import RDF_TYPE

    assert TriplePattern(Var("study"), RDF_TYPE, AB_DESIGN) in query.patterns


def test_parse_minimal_query():
    query = parse_sparql(
        "PREFIX s: <http://e.org/#> SELECT ?x WHERE { ?x s:p s:o }"
    )
    assert query.select_vars == ("x",)
    assert query.order_by is None
    assert query.limit is None


def test_keywords_are_case_insensitive():
    query = parse_sparql(
        "prefix s: <http://e.org/#> select ?x where { ?x s:p ?y } "
        "order by desc(?y) limit 3"
    )
    assert query.order_by == ("y", "DESC")
    assert query.limit == 3


@pytest.mark.parametrize(
    "text",
    [
        "SELECT ?x WHERE { ?y <http://e.org/p> <http://e.org/o> }",
        "SELECT ?x WHERE { ?x <http://e.org/p> ?y } order by ASC(?z)",
        "SELECT ?x WHERE ?x <http://e.org/p> ?y",
        "SELECT WHERE { ?x <http://e.org/p> ?y }",
        "SELECT ?x WHERE { ?x nope:p ?y }",
        "SELECT ?x WHERE { ?x <http://e.org/p> ?y } LIMIT nope",
        'SELECT ?x WHERE { ?x <http://e.org/p> "\\q" }',
    ],
)
def test_syntax_and_scope_errors(text):
    with pytest.raises(SparqlSyntaxError):
        parse_sparql(text)


_Q = "SELECT ?x WHERE { ?x <http://e.org/p> ?y }"


@pytest.mark.parametrize(
    "text, message, position",
    [
        # an unknown token is reported from the end of the previous token
        ("SELECT  $", "unknown token near '  $'", 6),
        (
            "SELECT ?x WHERE { ?x a ?y } $ and a longer tail",
            "unknown token near ' $ and a lon'",
            27,
        ),
        ("SELECT ?x WHERE { ?x a ?y $ }", "unknown token near ' $ }'", 25),
        # the first unknown token wins over an earlier grammar error
        ("SELECT ?x WHERE { ?x nope:p ?y } $", "unknown token near ' $'", 32),
        (_Q + " LIMIT 0 $", "unknown token near ' $'", 50),
        # end of input
        ("", "expected 'select', found ''", 0),
        ("   ", "expected 'select', found ''", 3),
        ("SELECT", "SELECT needs at least one variable", 6),
        ("select ?x", "expected 'where', found ''", 9),
        ("SELECT ?x WHERE", "expected '{', found ''", 15),
        ("SELECT ?x WHERE {", "expected a term, found ''", 17),
        ("SELECT ?x WHERE { ?x", "predicate must be an IRI, found ''", 20),
        ("SELECT ?x WHERE { ?x <http://e.org/p>", "expected a term, found ''", 37),
        ("SELECT ?x WHERE { ?x <http://e.org/p> ?y", "unterminated pattern group", 40),
        ("PREFIX s:", "expected an IRI, found ''", 9),
        ("SELECT ?x WHERE { ?x a ?y } ORDER BY ASC(?y", "expected ')', found ''", 43),
        (_Q + " LIMIT", "LIMIT needs a positive integer, found ''", 48),
        # LIMIT
        (_Q + " LIMIT 0", "LIMIT needs a positive integer, found '0'", 49),
        (_Q + " LIMIT -1", "LIMIT needs a positive integer, found '-1'", 49),
        (_Q + " LIMIT 1.5", "LIMIT needs a positive integer, found '1.5'", 49),
        (_Q + " LIMIT nope", "LIMIT needs a positive integer, found 'nope'", 49),
        # terms
        ('SELECT ?x WHERE { ?x <http://e.org/p> "\\q" }', "bad string escape", 38),
        ("SELECT ?x WHERE { ?x nope:p ?y }", "unresolved prefix 'nope'", 21),
        ("SELECT ?x WHERE { bare a ?y }", "bare name 'bare' is not a term", 18),
        ("SELECT ?x WHERE { ?x 5 ?y }", "predicate must be an IRI, found '5'", 21),
        ("SELECT ?x WHERE { ?x a ?y ; }", "predicate must be an IRI, found '}'", 28),
        ("SELECT ?x WHERE { ?x ?p }", "expected a term, found '}'", 24),
        # variables that no pattern binds
        (
            "SELECT ?x WHERE { ?y <http://e.org/p> <http://e.org/o> }",
            "select variable ?x not bound in patterns",
            0,
        ),
        (_Q + " order by ASC(?z)", "order variable ?z not bound in patterns", 0),
        # keywords and punctuation
        ("WHERE { ?x <http://e.org/p> ?y }", "expected 'select', found 'WHERE'", 0),
        ("SELECT WHERE { ?x <http://e.org/p> ?y }", "SELECT needs at least one variable", 7),
        ("SELECT ?x WHERE ?x <http://e.org/p> ?y", "expected '{', found '?x'", 16),
        ("PREFIX s <x> SELECT", "expected a prefix label, found 's'", 7),
        ("PREFIX s: x SELECT", "expected an IRI, found 'x'", 10),
        ("SELECT ?x WHERE { ?x a ?y } ORDER ?y", "expected 'by', found '?y'", 34),
        ("SELECT ?x WHERE { ?x a ?y } ORDER BY UP(?y)", "expected ASC or DESC, found 'UP'", 37),
        ("SELECT ?x WHERE { ?x a ?y } ORDER BY ASC ?y", "expected '(', found '?y'", 41),
        ("SELECT ?x WHERE { ?x a ?y } ORDER BY ASC(y)", "expected a variable, found 'y'", 41),
        ("SELECT ?x WHERE { ?x a ?y } extra", "unexpected trailing input 'extra'", 28),
    ],
)
def test_error_message_and_position(text, message, position):
    with pytest.raises(SparqlSyntaxError) as info:
        parse_sparql(text)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


@pytest.mark.parametrize(
    "text",
    [
        "SELECT ?x # c\nWHERE { ?x a ?y }",
        "SELECT ?x WHERE { ?x a ?y } # note",
        "  # lead\nSELECT ?x WHERE { ?x a ?y }",
        "SELECT ?x WHERE { ?x a ?y }\n# end",
    ],
)
def test_comments_after_whitespace(text):
    assert parse_sparql(text) == parse_sparql("SELECT ?x WHERE { ?x a ?y }")


def test_unknown_token_after_a_comment():
    # reported from the end of the previous token, as after whitespace
    with pytest.raises(SparqlSyntaxError) as info:
        parse_sparql("SELECT ?x # c\n$")
    assert str(info.value) == "unknown token near ' # c\\n$' (at position 9)"


def test_commented_query_answers_the_same(ab_mat):
    commented = "# the best result\n" + BEST_RESULT.replace("\n", "  # a note\n")
    query = parse_sparql(commented)
    assert query == parse_sparql(BEST_RESULT)
    assert eval_sparql(query, ab_mat).rows == eval_sparql(parse_sparql(BEST_RESULT), ab_mat).rows


def test_best_result_on_ab_fixture(ab_mat):
    table = eval_sparql(parse_sparql(BEST_RESULT), ab_mat)
    assert table.header == ("study", "interType", "val")
    assert len(table.rows) == 1
    study, inter, val = table.rows[0]
    assert study == ssd("ab01")
    assert inter == aut("weekendInterview")
    assert val == Literal("20.4", "decimal")


def test_order_limit_agrees_with_linear_scan(ab_mat):
    query = parse_sparql(BEST_RESULT)
    unlimited = parse_sparql(BEST_RESULT.replace("LIMIT 1", ""))
    rows = eval_sparql(unlimited, ab_mat).rows
    assert rows, "fixture should produce result rows"
    best = max(rows, key=lambda r: Decimal(r[2].lexical))
    assert eval_sparql(query, ab_mat).rows[0][2] == best[2]
    # DESC ordering over the full table
    values = [Decimal(r[2].lexical) for r in rows]
    assert values == sorted(values, reverse=True)


def test_ascending_order(ab_mat):
    text = BEST_RESULT.replace("DESC", "ASC").replace("LIMIT 1", "")
    values = [
        Decimal(r[2].lexical) for r in eval_sparql(parse_sparql(text), ab_mat).rows
    ]
    assert values == sorted(values)


def test_type_listing_query(fig3_mat):
    text = (QUERIES / "cq_type_of_study.rq").read_text()
    table = eval_sparql(parse_sparql(text), fig3_mat)
    types = {local_name(t) for s, t in table.rows if s == ssd("ssd01")}
    assert types == {"ABAB_Design", "WithdrawalDesign", "SingleSubjectDesign"}


def test_empty_kb_yields_no_rows():
    kb = materialize_types(empty_kb())
    table = eval_sparql(parse_sparql(BEST_RESULT), kb)
    assert table.rows == []


def test_unmatched_pattern_yields_no_rows(fig3_mat):
    query = parse_sparql(
        "PREFIX ssid: <http://bdi.si.ehu.es/bdi/ontologies/SSDOnt/SSDOnt#> "
        "SELECT ?x WHERE { ?x ssid:hasCondition ssid:adhd }"
    )
    assert eval_sparql(query, fig3_mat).rows == []


def test_tsv_and_json_output(ab_mat):
    table = eval_sparql(parse_sparql(BEST_RESULT), ab_mat)
    tsv = table.to_tsv()
    assert tsv.splitlines()[0] == "?study\t?interType\t?val"
    assert tsv.splitlines()[1] == "ab01\tweekendInterview\t20.4"
    rows = json.loads(table.to_json())
    assert rows == [{"study": "ab01", "interType": "weekendInterview", "val": "20.4"}]


def test_deterministic_row_order(fig3_mat):
    text = (QUERIES / "cq_type_of_study.rq").read_text()
    query = parse_sparql(text)
    first = eval_sparql(query, fig3_mat).rows
    for _ in range(5):
        assert eval_sparql(query, fig3_mat).rows == first


def test_escaped_string_literal_matches_turtle_literal():
    kb = graph_to_kb(
        parse_turtle(
            "@prefix ssd: <http://bdi.si.ehu.es/bdi/ontologies/SSDOnt/SSDOnt#> .\n"
            'ssd:x ssd:hasGender "a\\"b\\\\c" .\n'
        )
    )
    query = parse_sparql('SELECT ?s WHERE { ?s ssid:hasGender "a\\"b\\\\c" }')
    assert query.patterns[0].object == Literal('a"b\\c', "string")
    assert eval_sparql(query, kb).rows == [(ssd("x"),)]


@given(st.one_of(st.text(), edited_queries(".rq")))
def test_parse_sparql_is_total(text):
    try:
        query = parse_sparql(text)
    except SparqlSyntaxError:
        return
    assert isinstance(query, SparqlQuery)
