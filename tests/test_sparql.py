import json
from collections import defaultdict
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import QUERIES, edited_queries
from ssdkb.sparql import (
    SparqlQuery,
    SparqlSyntaxError,
    TriplePattern,
    Var,
    eval_sparql,
    join,
    join_order,
    parse_sparql,
)
from ssdkb.classify import materialize_types
from ssdkb.generate import GenProfile, generate_studies
from ssdkb.kb import KnowledgeBase, TripleIndex, empty_kb, graph_to_kb
from ssdkb.sparql import BindingTable
from ssdkb.terms import RDF_TYPE, Iri, Literal, Term, aut, local_name, ssd
from ssdkb.turtle import parse_turtle
from ssdkb.vocab import AB_DESIGN, SINGLE_SUBJECT_DESIGN

BEST_RESULT = (QUERIES / "sparql_best_result.rq").read_text()


def test_parse_best_result_query():
    query = parse_sparql(BEST_RESULT)
    assert query.select_vars == ("study", "interType", "val")
    assert len(query.patterns) == 8
    assert query.order_by == ("val", "DESC")
    assert query.limit == 1
    assert TriplePattern(Var("study"), ssd("hasPhase"), Var("ph")) in query.patterns
    # `a` expands to rdf:type
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
        # as in SPARQL's STRING_LITERAL2, no raw line break inside "…"
        ('SELECT ?x WHERE { ?x <http://e.org/p> "a\nb" }', "unknown token near ' \"a\\nb\" }'", 37),
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
        ("SELECT ?x ?y ?x WHERE { ?x <http://e.org/p> ?y }", "select variable ?x repeated", 13),
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


def test_tsv_escapes_tabs_line_breaks_and_backslashes():
    # each row stays one line of two cells; JSON keeps the text as it is
    kb = graph_to_kb(
        parse_turtle(
            "@prefix ssd: <http://bdi.si.ehu.es/bdi/ontologies/SSDOnt/SSDOnt#> .\n"
            'ssd:a ssd:note "x\\ty" . ssd:b ssd:note "two\\nlines" .\n'
            'ssd:c ssd:note "back\\\\slash\\r" .\n'
        )
    )
    table = eval_sparql(parse_sparql("SELECT ?s ?o WHERE { ?s ssid:note ?o }"), kb)
    assert table.to_tsv().splitlines() == [
        "?s\t?o",
        "a\tx\\ty",
        "b\ttwo\\nlines",
        "c\tback\\\\slash\\r",
    ]
    assert [row["o"] for row in json.loads(table.to_json())] == [
        "x\ty",
        "two\nlines",
        "back\\slash\r",
    ]


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


# --- the evaluator against the seed's dict-per-row join ---


def _reference_resolved(pattern: TriplePattern, binding: dict):
    def resolve(x):
        if isinstance(x, Var):
            return binding.get(x.name)
        return x

    return resolve(pattern.subject), resolve(pattern.predicate), resolve(pattern.object)


def _reference_sort_key_for(term: Term) -> tuple:
    if isinstance(term, Literal) and term.datatype in ("integer", "decimal"):
        return (0, term.as_decimal())
    return (1, term)


def reference_eval_sparql(query: SparqlQuery, kb: KnowledgeBase) -> BindingTable:
    """The seed's evaluator, kept verbatim: one dict per row, each pattern
    resolved against every binding, and a paired double sort for ORDER BY."""
    index = kb.store

    # greedy most-selective-first join order, re-estimated against a
    # representative binding at each step; semantics are order-independent
    remaining = list(query.patterns)
    bindings: list[dict[str, Term]] = [{}]
    while remaining:
        rep = bindings[0] if bindings else {}
        pattern = min(
            remaining, key=lambda p: len(index.candidates(*_reference_resolved(p, rep)))
        )
        remaining.remove(pattern)
        slots = (pattern.subject, pattern.predicate, pattern.object)
        next_bindings = []
        for binding in bindings:
            for t in index.candidates(*_reference_resolved(pattern, binding)):
                extended = dict(binding)
                ok = True
                for slot, value in zip(slots, t):
                    if isinstance(slot, Var):
                        bound = extended.get(slot.name)
                        if bound is None:
                            extended[slot.name] = value
                        elif bound != value:
                            ok = False
                            break
                if ok:
                    next_bindings.append(extended)
        bindings = next_bindings
        if not bindings:
            break

    rows = [tuple(b[v] for v in query.select_vars) for b in bindings]

    if query.order_by is not None:
        var, direction = query.order_by
        reverse = direction == "DESC"

        def key(row_binding):
            row, binding = row_binding
            return _reference_sort_key_for(binding[var])

        paired = sorted(
            zip(rows, bindings),
            key=lambda rb: (key(rb), rb[0]),
        )
        if reverse:
            # reverse only the order key, keep the lexicographic tiebreak stable
            paired = sorted(
                paired,
                key=lambda rb: key(rb),
                reverse=True,
            )
        rows = [row for row, _ in paired]
    else:
        rows.sort()

    if query.limit is not None:
        rows = rows[: query.limit]
    return BindingTable(header=query.select_vars, rows=rows)


_SMALL = materialize_types(generate_studies(200, GenProfile(seed=1)))
_TRIPLES = sorted(_SMALL.all_triples())
# node -> the triples it is the subject or object of
_TOUCHING = defaultdict(list)
for _t in _TRIPLES:
    _TOUCHING[_t.subject].append(_t)
    if _t.object != _t.subject:
        _TOUCHING[_t.object].append(_t)
# a walk joins only through nodes with at most this many triples, so that no
# drawn query joins two patterns on a class or another hub
_MAX_LINK_DEGREE = 60


@st.composite
def connected_bgps(draw):
    """A query of 1-4 patterns taken from a walk over the corpus's triples,
    so most have rows. Each pattern after the first shares a node with an
    earlier one, and that node becomes a variable. Any other node is a
    constant or a variable, which sometimes reuses an earlier name, but at
    most one pattern has no constant subject or object, so that no query
    takes the product of two whole predicates. A pattern sometimes repeats
    its subject variable as its object, and at most one predicate is a
    variable: in a pattern whose subject is a constant of low degree or a
    variable that an earlier pattern binds."""
    walk = [draw(st.sampled_from(_TRIPLES))]
    links = set()
    for _ in range(draw(st.integers(0, 3))):
        nodes = sorted(
            n
            for n in {x for t in walk for x in (t.subject, t.object)}
            if len(_TOUCHING[n]) <= _MAX_LINK_DEGREE
            and not any(({t.subject, t.object} - {n}) & links for t in walk if n in (t.subject, t.object))
        )
        if not nodes:
            break
        node = draw(st.sampled_from(nodes))
        links.add(node)
        walk.append(draw(st.sampled_from(_TOUCHING[node])))

    mapped = {node: Var(f"v{i}") for i, node in enumerate(sorted(links))}
    bare = 0
    patterns = []
    for t in walk:
        for node, other in ((t.subject, t.object), (t.object, t.subject)):
            if node in mapped:
                continue
            mapped[node] = node
            if draw(st.booleans()) and (bare == 0 or not isinstance(mapped.get(other), Var)):
                names = sorted({v.name for v in mapped.values() if isinstance(v, Var)})
                if names and draw(st.integers(0, 5)) == 0:
                    mapped[node] = Var(draw(st.sampled_from(names)))
                else:
                    mapped[node] = Var(f"v{len(mapped)}")
        subject, predicate, obj = mapped[t.subject], t.predicate, mapped[t.object]
        bound = {x.name for p in patterns for x in (p.subject, p.object) if isinstance(x, Var)}
        if isinstance(subject, Var) and isinstance(obj, Var):
            bare += 1
        elif isinstance(subject, Var) and draw(st.integers(0, 7)) == 0:
            obj = subject
        if (
            not any(isinstance(p.predicate, Var) for p in patterns)
            and (
                subject.name in bound
                if isinstance(subject, Var)
                else len(_TOUCHING[subject]) <= _MAX_LINK_DEGREE
            )
            and draw(st.integers(0, 2)) == 0
        ):
            predicate = Var("p")
        patterns.append(TriplePattern(subject, predicate, obj))

    names = sorted(
        {x.name for p in patterns for x in (p.subject, p.predicate, p.object) if isinstance(x, Var)}
    )
    if not names:
        return draw(connected_bgps())
    select_vars = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    order_by = draw(st.none() | st.tuples(st.sampled_from(names), st.sampled_from(["ASC", "DESC"])))
    limit = draw(st.none() | st.integers(1, 5))
    return SparqlQuery(tuple(select_vars), tuple(patterns), order_by, limit)


def _row_count(patterns, store):
    return join(patterns, store)[0]


def _rows_after_each_step(order):
    return [_row_count(order[: i + 1], _SMALL.store) for i in range(len(order))]


@pytest.mark.parametrize(
    "name, order, rows",
    [
        # the query's own order
        ("cq_type_of_study", [0, 1], [200, 578]),
        # the outcome first, then each pattern that shares a variable
        ("sparql_best_result", [1, 0, 2, 3, 4, 5, 6, 7], [30, 2, 4, 2, 2, 2, 12, 12]),
    ],
)
def test_join_order_and_rows_after_each_step(name, order, rows):
    query = parse_sparql((QUERIES / f"{name}.rq").read_text())
    planned = join_order(query.patterns, _SMALL.store)
    assert planned == [query.patterns[i] for i in order]
    assert _rows_after_each_step(planned) == rows
    assert eval_sparql(query, _SMALL).rows == reference_eval_sparql(query, _SMALL).rows


def test_type_listing_rows_leave_the_join_sorted():
    # the store keeps its lists in term order, so the join emits the rows
    # of this query in the order that `eval_sparql`'s final sort wants
    query = parse_sparql((QUERIES / "cq_type_of_study.rq").read_text())
    _, columns = join(join_order(query.patterns, _SMALL.store), _SMALL.store)
    rows = list(zip(columns["study"], columns["type"]))
    assert len(rows) == 578
    assert rows == sorted(rows)


def test_type_listing_reads_the_type_subject_table():
    # the second step looks each study's types up in the subject table of
    # rdf:type, and a store that has answered nothing builds that table alone
    query = parse_sparql((QUERIES / "cq_type_of_study.rq").read_text())
    store = TripleIndex(_SMALL.store.all)
    first, second = join_order(query.patterns, store)
    assert first == TriplePattern(Var("study"), RDF_TYPE, SINGLE_SUBJECT_DESIGN)
    assert second == TriplePattern(Var("study"), RDF_TYPE, Var("type"))
    assert _row_count([first, second], store) == 578
    assert list(store._subjects) == [RDF_TYPE]


def test_best_result_joins_no_cross_product():
    query = parse_sparql(BEST_RESULT)
    (outcome,) = [p for p in query.patterns if p.predicate == ssd("hasOutcome")]
    alone = len(_SMALL.store.candidates(None, outcome.predicate, outcome.object))
    assert max(_rows_after_each_step(join_order(query.patterns, _SMALL.store))) <= alone


@settings(max_examples=100, deadline=None)
@given(connected_bgps())
def test_eval_sparql_matches_the_reference(query):
    assert eval_sparql(query, _SMALL).rows == reference_eval_sparql(query, _SMALL).rows


_EX = "http://e.org/#"
_EX_KB = graph_to_kb(
    parse_turtle(
        f"@prefix ex: <{_EX}> .\n"
        "ex:a ex:p ex:a ; ex:p ex:b .\n"
        "ex:b ex:p ex:c .\n"
        "ex:a ex:score 2 ; ex:label \"x\" .\n"
        "ex:b ex:score 2 ; ex:label \"y\" .\n"
        "ex:c ex:score 1.5 ; ex:label \"x\" .\n"
        "ex:d ex:score 2 ; ex:age _:n .\n"
    )
)


def _ex(name):
    return Iri(_EX + name)


@pytest.mark.parametrize(
    "where, expected",
    [
        # a triple whose subject is its object
        ("SELECT ?x WHERE { ?x ex:p ?x }", [("a",)]),
        ("SELECT ?x ?y WHERE { ?x ex:p ?y . ?y ex:p ?y }", [("a", "a")]),
        # a variable predicate
        (
            "SELECT ?p ?o WHERE { ex:a ?p ?o }",
            [("label", "x"), ("p", "a"), ("p", "b"), ("score", "2")],
        ),
        ("SELECT ?s WHERE { ?s ?p ex:b }", [("a",)]),
        # a predicate bound by an earlier pattern, then looked up by subject
        ("SELECT ?p ?o WHERE { ex:a ?p ex:b . ex:a ?p ?o }", [("p", "a"), ("p", "b")]),
        # a variable bound to a literal, then reused
        ("SELECT ?y WHERE { ex:c ex:label ?l . ?y ex:label ?l }", [("a",), ("c",)]),
        ("SELECT ?s ?t WHERE { ?s ex:score ?v . ?t ex:score ?v . ?s ex:p ?t }", [("a", "a"), ("a", "b")]),
        # DESC reverses only the key; ties keep the whole row ascending
        (
            "SELECT ?s ?v WHERE { ?s ex:score ?v } ORDER BY DESC(?v)",
            [("a", "2"), ("b", "2"), ("d", "2"), ("c", "1.5")],
        ),
        ("SELECT ?s WHERE { ?s ex:score ?v } ORDER BY DESC(?v)", [("a",), ("b",), ("d",), ("c",)]),
        (
            "SELECT ?l ?s WHERE { ?s ex:label ?l } ORDER BY DESC(?l)",
            [("y", "b"), ("x", "a"), ("x", "c")],
        ),
        # LIMIT applies after ORDER BY
        ("SELECT ?s ?v WHERE { ?s ex:score ?v } ORDER BY ASC(?v) LIMIT 2", [("c", "1.5"), ("a", "2")]),
        ("SELECT ?s WHERE { ?s ex:score ?v } ORDER BY DESC(?v) LIMIT 1", [("a",)]),
        # a numeric constant object matches its own datatype
        ("SELECT ?s WHERE { ?s ex:score 1.5 }", [("c",)]),
        ("SELECT ?s WHERE { ?s ex:score 2 }", [("a",), ("b",), ("d",)]),
        # a blank node answer
        ("SELECT ?s ?n WHERE { ?s ex:age ?n }", [("d", "_:n")]),
        # an all-constant pattern gives each row no column, once per match
        ("SELECT ?s WHERE { ex:a ex:p ex:b . ?s ex:label \"x\" }", [("a",), ("c",)]),
        ("SELECT ?s WHERE { ex:a ex:p ex:d . ?s ex:label \"x\" }", []),
        # a variable predicate whose subject and object are both bound
        ("SELECT ?x ?y ?p WHERE { ?x ex:p ?y . ?x ?p ?y }", [("a", "a", "p"), ("a", "b", "p"), ("b", "c", "p")]),
        # an object-table probe that also tests a constant subject
        ("SELECT ?y WHERE { ?y ex:label \"x\" . ex:a ex:p ?y }", [("a",)]),
        # a step that leaves no rows before the last one
        ("SELECT ?x ?v WHERE { ?x ex:label \"y\" . ?x ex:p ?x . ?x ex:score ?v }", []),
        # two bound variables on one step keyed by the subject
        ("SELECT ?x ?y WHERE { ?x ex:p ?y . ?y ex:p ?x }", [("a", "a")]),
    ],
)
def test_join_and_order_cases(where, expected):
    query = parse_sparql(f"PREFIX ex: <{_EX}> " + where)
    table = eval_sparql(query, _EX_KB)
    assert table.rows == reference_eval_sparql(query, _EX_KB).rows
    assert table.to_tsv().splitlines()[1:] == ["\t".join(row) for row in expected]


def test_join_order_takes_a_disconnected_pattern_only_when_no_connected_one_is_left():
    # ?z's two rows per row are fewer than ?x's three ex:b objects, but
    # ?z shares no variable with the rest, so it comes last
    lines = [
        f"ex:x{i} ex:a ex:k ; ex:d ex:v{i} ; ex:b ex:y{i}a ; ex:b ex:y{i}b ; ex:b ex:y{i}c ."
        for i in range(10)
    ]
    lines += ["ex:z0 ex:c ex:k .", "ex:z1 ex:c ex:k ."]
    kb = graph_to_kb(parse_turtle(f"@prefix ex: <{_EX}> .\n" + "\n".join(lines)))
    query = parse_sparql(
        f"PREFIX ex: <{_EX}> SELECT ?x ?y ?z "
        "WHERE { ?x ex:a ex:k . ?x ex:b ?y . ?z ex:c ex:k . ?x ex:d ex:v0 }"
    )
    order = join_order(query.patterns, kb.store)
    assert order == [query.patterns[i] for i in (3, 0, 1, 2)]
    assert [_row_count(order[: i + 1], kb.store) for i in range(4)] == [1, 1, 3, 6]
    assert eval_sparql(query, kb).rows == reference_eval_sparql(query, kb).rows
