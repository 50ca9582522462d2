import random
from collections import Counter
from decimal import Decimal
from itertools import groupby
from operator import itemgetter
from types import SimpleNamespace

import pytest

from conftest import FIXTURES, load_graph, load_kb
from ssdkb import vocab
from ssdkb.classify import materialize_types
from ssdkb.cli import main
from ssdkb.generate import GenProfile, generate_graph, generate_studies
from ssdkb.kb import (
    KbStats,
    SchemaError,
    TripleIndex,
    empty_kb,
    graph_to_kb,
    kb_stats,
    kb_to_graph,
    validate_kb,
)
from ssdkb.model import PhaseKind, age_in_months
from ssdkb.taxonomy import core_taxonomy
from ssdkb.terms import RDF_TYPE, BlankNode, Iri, Literal, aut, local_name, ssd
from ssdkb.turtle import Triple, parse_turtle, serialize_turtle


def test_fig3_lifts_to_typed_model(fig3_kb):
    assert validate_kb(fig3_kb) == []
    (study,) = fig3_kb.studies
    assert study.id == ssd("ssd01")
    assert study.asserted_class == vocab.ABAB_DESIGN

    (paul,) = study.participants
    assert paul.id == ssd("paul")
    assert paul.condition == ssd("autism")
    assert age_in_months(paul.age) == 88
    assert age_in_months(paul.diagnosed_at_age) == 36

    kinds = [p.kind for p in study.phases]
    assert kinds == [
        PhaseKind.BASELINE,
        PhaseKind.SIMPLE_INTERVENTION,
        PhaseKind.BASELINE,
        PhaseKind.SIMPLE_INTERVENTION,
    ]
    assert study.phases[1].intervention_types == (aut("weekendInterview"),)

    by_name = {local_name(r.id): r for r in study.results}
    assert by_name["res01"].value == Decimal("10.1")
    assert by_name["res01"].instant == 1
    assert by_name["res02"].value == Decimal("10.1")
    assert by_name["res02"].instant == 2
    assert by_name["res04"].value == Decimal("20.4")
    assert by_name["res04"].instant == 4
    assert by_name["res04"].intervention_type == aut("weekendInterview")
    assert by_name["res04"].phase_ref == ssd("ph02")


def test_non_integer_position_is_type_clash():
    text = (
        "@prefix ssd: <http://bdi.si.ehu.es/bdi/ontologies/SSDOnt/SSDOnt#> .\n"
        "ssd:s a ssd:AB_Design ; ssd:hasPhase ssd:ph02 .\n"
        'ssd:ph02 a ssd:SimpleInterventionPhase ; ssd:hasPosition "two" .\n'
    )
    with pytest.raises(SchemaError) as err:
        graph_to_kb(parse_turtle(text))
    assert err.value.subject == ssd("ph02")


def test_dangling_result_phase_reference():
    text = (
        "@prefix ssd: <http://bdi.si.ehu.es/bdi/ontologies/SSDOnt/SSDOnt#> .\n"
        "ssd:r a ssd:Result ; ssd:hasValue 1.0 ; ssd:occursIn _:i ;"
        " ssd:isResultOfPhase ssd:ghost .\n"
        "_:i a ssd:Instant ; ssd:hasValue 1 .\n"
    )
    with pytest.raises(SchemaError):
        graph_to_kb(parse_turtle(text))


# one node each that the lift cannot read: (its statements, the error's
# message, the subject it names)
_SCHEMA_ERRORS = [
    ('ssd:r a ssd:Result ; ssd:hasValue "ten" .', "hasValue must be numeric", "r"),
    (
        "ssd:s a ssd:AB_Design ; ssd:hasParticipant ssd:p .\n"
        "ssd:p a ssd:Participant ; ssd:hasAge ssd:age .\n"
        "ssd:age a ssd:AgeDescription ; ssd:months 4 .",
        "age description lacks a years value",
        "age",
    ),
    (
        "ssd:s a ssd:AB_Design ; ssd:hasPhase ssd:ph .\nssd:ph ssd:hasPosition 1 .",
        "phase node has no recognized phase type",
        "ph",
    ),
    (
        "ssd:s a ssd:AB_Design ; ssd:hasPhase ssd:ph .\nssd:ph a ssd:BaselinePhase .",
        "phase lacks a hasPosition value",
        "ph",
    ),
    ("ssd:r a ssd:Result ; ssd:occursIn ssd:i .", "result lacks a hasValue", "r"),
    ("ssd:r a ssd:Result ; ssd:hasValue 1.0 .", "result lacks an occursIn instant", "r"),
    (
        "ssd:r a ssd:Result ; ssd:hasValue 1.0 ; ssd:occursIn ssd:i .\nssd:i a ssd:Instant .",
        "instant lacks a hasValue",
        "i",
    ),
    (
        "ssd:r a ssd:Result ; ssd:hasValue 1.0 ; ssd:occursIn ssd:i .\nssd:i ssd:hasValue 1 .",
        "result lacks isResultOfPhase",
        "r",
    ),
    ("ssd:s a ssd:AB_Design ; ssd:hasMBDItemType 3 .", "hasMBDItemType must name a class", "s"),
]
_SSD_PREFIX = "@prefix ssd: <http://bdi.si.ehu.es/bdi/ontologies/SSDOnt/SSDOnt#> .\n"


@pytest.mark.parametrize("statements, message, subject", _SCHEMA_ERRORS)
def test_lift_names_the_node_it_cannot_read(statements, message, subject):
    with pytest.raises(SchemaError, match=message) as err:
        graph_to_kb(parse_turtle(_SSD_PREFIX + statements + "\n"))
    assert err.value.subject == ssd(subject)


def test_validate_exits_two_on_a_node_it_cannot_read(tmp_path, capsys):
    path = tmp_path / "bad.ttl"
    path.write_text(_SSD_PREFIX + _SCHEMA_ERRORS[0][0] + "\n")
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: hasValue must be numeric")


def test_empty_graph_gives_empty_kb():
    kb = graph_to_kb(parse_turtle(""))
    assert kb.studies == ()
    assert kb.all_triples() == set()


def test_unknown_predicates_survive(fig3_kb):
    text = (
        "@prefix ssd: <http://bdi.si.ehu.es/bdi/ontologies/SSDOnt/SSDOnt#> .\n"
        "ssd:paul a ssd:Participant ; ssd:likes ssd:trains .\n"
    )
    kb = graph_to_kb(parse_turtle(text))
    assert Triple(ssd("paul"), ssd("likes"), ssd("trains")) in kb.graph.triples
    again = kb_to_graph(kb)
    assert Triple(ssd("paul"), ssd("likes"), ssd("trains")) in again.triples


@pytest.mark.parametrize("reverse", [False, True])
def test_lift_takes_the_least_of_several_values(reverse):
    # `hasCondition` is single-valued. With two values the lift takes the
    # least in term order, in whichever order the graph's triples come:
    # they go in as a list, and the store puts them in term order.
    graph = load_graph("fig3.ttl")
    triples = graph.triples.keys() | {Triple(ssd("paul"), vocab.HAS_CONDITION, ssd("adhd"))}
    graph.triples = sorted(triples, reverse=reverse)
    kb = graph_to_kb(graph)
    values = [t.object for t in kb.store.subjects(vocab.HAS_CONDITION)[ssd("paul")]]
    assert values == [ssd("adhd"), ssd("autism")]
    (study,) = kb.studies
    (paul,) = study.participants
    assert paul.condition == ssd("adhd")


def _subject_lists(store):
    return [found for p in store.by_p for found in store.subjects(p).values()]


def _object_lists(store):
    return [found for p in store.by_p for found in store.objects(p).values()]


def _lists(store):
    return [*store.by_p.values(), *_object_lists(store), *_subject_lists(store)]


@pytest.mark.parametrize("shuffled", [True, False])
def test_lift_builds_the_store_in_term_order(shuffled):
    # the graph's triples come as a list, shuffled or in reverse term order
    graph = generate_graph(30, GenProfile(seed=5))
    graph.triples = sorted(graph.triples, reverse=True)
    if shuffled:
        random.Random(5).shuffle(graph.triples)
    store = graph_to_kb(graph).store
    assert Counter(store.all) == Counter(graph.triples)
    assert store.all == sorted(store.all)
    assert all(found == sorted(found) for found in _lists(store))


def _split_blocks(text: str) -> str:
    """`text`, a canonical corpus, with the last pair of each subject's
    block moved into a statement of its own at the end."""
    prefixes, *blocks = text.split("\n\n")
    heads, tails = [], []
    for block in blocks:
        rest, sep, last = block.rpartition(" ;\n    ")
        if sep:
            heads.append(rest + " .")
            tails.append(f"{block.split(' ', 1)[0]} {last.rstrip()}")
        else:
            heads.append(block.rstrip())
    return "\n\n".join([prefixes, *heads, *tails]) + "\n"


def test_lift_does_not_depend_on_the_order_of_the_triples():
    # in the text's order, shuffled, and with each subject's triples in two
    # statements apart: two runs that the lift must join
    text = serialize_turtle(generate_graph(30, GenProfile(seed=5)))
    kb = graph_to_kb(parse_turtle(text))
    shuffled = parse_turtle(text)
    order = list(shuffled.triples)
    random.Random(5).shuffle(order)
    shuffled.triples = dict.fromkeys(order)
    split = parse_turtle(_split_blocks(text))
    runs = sum(1 for _ in groupby(split.triples, itemgetter(0)))
    assert runs > len({t[0] for t in split.triples})
    for graph in (shuffled, split):
        again = graph_to_kb(graph)
        assert again.studies == kb.studies
        assert again.store.all == kb.store.all


def test_materialized_store_appends_its_triples_in_term_order():
    kb = graph_to_kb(generate_graph(30, GenProfile(seed=5)))
    mat = materialize_types(kb)
    assert all(found == sorted(found) for found in _subject_lists(mat.store))
    # each list of `by_p` and of each object table: the parent's run, then
    # the added run
    tables = [(mat.store.by_p, kb.store.by_p)]
    tables += [(mat.store.objects(p), kb.store.objects(p)) for p in mat.store.by_p]
    for table, parent in tables:
        for key, found in table.items():
            old = parent.get(key, [])
            added = found[len(old):]
            assert found[: len(old)] == old == sorted(old)
            assert added == sorted(added) and set(added) <= mat.inferred


def test_phases_are_read_by_position_not_by_name():
    # a study's and an MBD item's phases, named so that term order is the
    # reverse of position order
    text = (
        "@prefix ssd: <http://bdi.si.ehu.es/bdi/ontologies/SSDOnt/SSDOnt#> .\n"
        "ssd:s a ssd:AcrossSettingMBD ; ssd:hasPhase ssd:b ; ssd:hasPhase ssd:a ;"
        " ssd:hasMBDItem ssd:i .\n"
        "ssd:i a ssd:MBDItem ; ssd:hasPhase ssd:d ; ssd:hasPhase ssd:c .\n"
        "ssd:a a ssd:SimpleInterventionPhase ; ssd:hasPosition 2 .\n"
        "ssd:b a ssd:BaselinePhase ; ssd:hasPosition 1 .\n"
        "ssd:c a ssd:SimpleInterventionPhase ; ssd:hasPosition 2 .\n"
        "ssd:d a ssd:BaselinePhase ; ssd:hasPosition 1 .\n"
    )
    (study,) = graph_to_kb(parse_turtle(text)).studies
    assert [ph.id for ph in study.phases] == [ssd("b"), ssd("a")]
    (item,) = study.mbd_items
    assert [ph.id for ph in item.phases] == [ssd("d"), ssd("c")]


def test_kb_to_graph_asserted_only_until_materialized(fig3_kb):
    graph = kb_to_graph(fig3_kb)
    assert graph.triples == fig3_kb.graph.triples
    assert Triple(ssd("ssd01"), RDF_TYPE, vocab.ABAB_DESIGN) in graph.triples
    assert Triple(ssd("ssd01"), RDF_TYPE, vocab.WITHDRAWAL_DESIGN) not in graph.triples

    mat = materialize_types(fig3_kb)
    graph = kb_to_graph(mat)
    assert Triple(ssd("ssd01"), RDF_TYPE, vocab.WITHDRAWAL_DESIGN) in graph.triples
    # re-lifting reproduces the typed content
    again = graph_to_kb(graph)
    assert [s.id for s in again.studies] == [s.id for s in mat.studies]
    assert again.studies[0].phases == mat.studies[0].phases
    assert again.studies[0].results == mat.studies[0].results


def _tables(store):
    """Every table of a store, the subject and object tables of each
    predicate and the members of each class among them, with each list
    compared as a multiset."""
    by_key = [store.subjects, store.objects]
    return (
        Counter(store.all),
        {p: Counter(found) for p, found in store.by_p.items()},
        [
            {p: {key: Counter(found) for key, found in table(p).items()} for p in store.by_p}
            for table in by_key
        ],
        {cls: store.members(cls) for cls in store.objects(RDF_TYPE) if isinstance(cls, Iri)},
    )


def test_materialize_extends_the_store_and_leaves_the_parent():
    kb = generate_studies(30, GenProfile(seed=3))
    asserted = _tables(TripleIndex(kb.graph.triples))
    assert _tables(kb.store) == asserted

    mat = materialize_types(kb)
    assert mat.inferred
    assert Counter(kb.store.all) == Counter(kb.graph.triples.keys())
    assert _tables(kb.store) == asserted
    union = kb.graph.triples.keys() | mat.inferred
    assert Counter(mat.store.all) == Counter(union)
    assert _tables(mat.store) == _tables(TripleIndex(union))
    assert mat.index() is mat.store
    assert _tables(materialize_types(mat).store) == _tables(mat.store)


def reference_store(triples):
    """A store's tables, the subject and object tables of every predicate
    and the members of every class among them, built at once in one pass
    over the triples."""
    by_ps: dict = {}
    by_po: dict = {}
    typed: dict = {}
    store = SimpleNamespace(
        all=list(triples),
        by_p={},
        subjects=by_ps.__getitem__,
        objects=by_po.__getitem__,
        members=typed.__getitem__,
    )
    for t in store.all:
        s, p, o = t
        store.by_p.setdefault(p, []).append(t)
        by_ps.setdefault(p, {}).setdefault(s, []).append(t)
        by_po.setdefault(p, {}).setdefault(o, []).append(t)
        if p == RDF_TYPE and isinstance(o, Iri):
            typed.setdefault(o, set()).add(s)
    return store


def test_loading_builds_no_subject_table():
    kb = graph_to_kb(generate_graph(20, GenProfile(seed=4)))
    assert validate_kb(kb) == []
    mat = materialize_types(kb)
    kb_stats(kb)
    kb_stats(mat)
    assert kb.store._subjects == mat.store._subjects == {}
    # the lift, `materialize_types` and `kb_stats` read the object table of
    # rdf:type alone
    assert list(kb.store._objects) == list(mat.store._objects) == [RDF_TYPE]


@pytest.mark.parametrize("parent_first", [True, False])
def test_subject_table_built_at_first_lookup_matches_an_eager_build(parent_first):
    # the parent's subject and object tables built before or after
    # `extended`: either way the new store builds its own from its `by_p`
    graph = generate_graph(30, GenProfile(seed=3))
    kb = graph_to_kb(graph)
    if parent_first:
        assert _tables(kb.store) == _tables(reference_store(graph.triples))
    mat = materialize_types(kb)
    assert _tables(kb.store) == _tables(reference_store(graph.triples))
    union = graph.triples.keys() | mat.inferred
    assert _tables(mat.store) == _tables(reference_store(union))
    again = materialize_types(mat)
    assert _tables(again.store) == _tables(reference_store(union | again.inferred))


_NUMBERS_TTL = """@prefix ex: <http://e.org/#> .
ex:a ex:n 3 ; ex:n 1.5 ; ex:n "7" ; ex:m ex:b .
ex:b ex:n -2 ; ex:n 3.0 .
ex:c ex:n ex:a .
"""


def _counted(triples):
    """The number of triples, distinct subjects and distinct objects, each
    counted by building a set."""
    return len(triples), len({t[0] for t in triples}), len({t[2] for t in triples})


def _built(store):
    """The predicates and classes whose tables `store` has built, and
    whether it has built its set of nodes and its whole-store counts."""
    return (
        store._subjects.keys(), store._objects.keys(), store._members.keys(),
        store._numbers.keys(), store._nodes is not None, store._whole is not None,
    )


def _assert_counted_from_tables(store):
    # the lift reads the object table of rdf:type
    lifted = set(store._objects)
    assert _built(store) == (set(), lifted, set(), set(), False, False)
    counted = set()
    for p in [*store.by_p, Iri("http://e.org/#nope")]:
        assert store.stats(p) == _counted(store.by_p.get(p, []))
        counted.add(p)
        assert _built(store) == (counted, lifted | counted, set(), set(), False, False)
    assert store.stats(None) == _counted(store.all)
    assert store.stats(None) is store.stats(None)
    assert _built(store) == (counted, lifted | counted, set(), set(), False, True)


def test_statistics_are_built_per_predicate_at_first_use():
    """A predicate's statistics are the sizes of its list and of its
    subject and object tables: counting it builds those two tables and
    nothing else. The whole store's are counted once and build no table."""
    ex = lambda name: Iri("http://e.org/#" + name)
    store = graph_to_kb(parse_turtle(_NUMBERS_TTL)).store
    _assert_counted_from_tables(store)
    assert store.stats(ex("n")) == (6, 3, 6)
    assert store.stats(None) == (7, 3, 7)
    _assert_counted_from_tables(materialize_types(generate_studies(200, GenProfile(seed=1))).store)
    # a store that extends a counted one counts its own triples afresh
    more = store.extended({Triple(ex("c"), ex("n"), Literal("0", "integer"))})
    _assert_counted_from_tables(more)
    assert more.stats(ex("n")) == (7, 3, 7)


def test_numbers_are_built_per_predicate_at_first_use():
    ex = lambda name: Iri("http://e.org/#" + name)
    store = graph_to_kb(parse_turtle(_NUMBERS_TTL)).store
    # strings and IRIs are skipped; equal values keep both subjects
    values, subjects = store.numbers(ex("n"))
    assert values == [-2, Decimal("1.5"), 3, Decimal("3.0")]
    assert subjects[:2] == [ex("b"), ex("a")] and set(subjects[2:]) == {ex("a"), ex("b")}
    assert store.numbers(ex("m")) == ([], [])
    assert store.numbers(ex("n")) is store.numbers(ex("n"))
    assert store._numbers.keys() == {ex("n"), ex("m")}
    # a store that extends this one sorts its own numbers afresh
    more = store.extended({Triple(ex("c"), ex("n"), Literal("0", "integer"))})
    assert more._numbers == {}
    assert more.numbers(ex("n"))[0][:2] == [-2, 0]


def test_candidates_with_a_variable_predicate_match_a_scan():
    kb = materialize_types(generate_studies(10, GenProfile(seed=2)))
    store = kb.store
    nodes = sorted({t.subject for t in store.all} | {t.object for t in store.all})[::7]
    for node in nodes + [None]:
        for subject, obj in ((node, None), (None, node), (node, node)):
            expected = [
                t for t in store.all
                if (subject is None or t.subject == subject) and (obj is None or t.object == obj)
            ]
            assert Counter(store.candidates(subject, None, obj)) == Counter(expected)


def test_fig3_stats(fig3_kb):
    stats = kb_stats(fig3_kb)
    assert stats.study_count == 1
    assert stats.triple_count == len(fig3_kb.graph.triples)
    # ssd01 + paul + 4 phases + 6 results + 6 instants + 2 ages + the
    # outcome, weekendInterview, autism, male and percentage = 25
    assert stats.individual_count == 25
    assert stats.per_class_counts["Result"] == 6
    assert stats.per_class_counts["Instant"] == 6
    assert stats.per_class_counts["AgeDescription"] == 2


def test_empty_kb_stats():
    stats = kb_stats(empty_kb())
    assert (stats.study_count, stats.triple_count, stats.individual_count) == (0, 0, 0)


def reference_kb_stats(kb):
    """kb_stats as it was before it read the per-class counts from the
    store's type_index: one pass over the triples, field by field."""
    individuals = set()
    per_class = {}
    for t in kb.store.all:
        if isinstance(t.subject, (Iri, BlankNode)):
            individuals.add(t.subject)
        if t.predicate == RDF_TYPE:
            if isinstance(t.object, Iri):
                name = local_name(t.object)
                per_class[name] = per_class.get(name, 0) + 1
        elif isinstance(t.object, (Iri, BlankNode)):
            if not (isinstance(t.object, Iri) and kb.taxonomy.contains(t.object)):
                individuals.add(t.object)
    return KbStats(
        study_count=len(kb.studies),
        triple_count=len(kb.store.all),
        individual_count=len(individuals),
        per_class_counts=dict(sorted(per_class.items())),
    )


def _stats_cases():
    scripting = core_taxonomy().register(aut("ScriptingIntervention"), {vocab.INTERVENTION_TYPE})
    for path in sorted(FIXTURES.glob("*.ttl")):
        yield load_kb(path.name)
        if path.name == "cookbook.ttl":
            yield load_kb(path.name, scripting)
    yield generate_studies(200, GenProfile(seed=7))


def test_stats_match_the_reference_before_and_after_materializing():
    for kb in _stats_cases():
        assert kb_stats(kb) == reference_kb_stats(kb)
        if not validate_kb(kb):
            mat = materialize_types(kb)
            assert kb_stats(mat) == reference_kb_stats(mat)
            assert kb_stats(mat).per_class_counts != kb_stats(kb).per_class_counts


def test_stats_additive_over_disjoint_kbs():
    a = load_kb("fig3.ttl")
    b = load_kb("ab_study.ttl")
    merged = parse_turtle("")
    merged.triples = set(a.graph.triples) | set(b.graph.triples)
    merged.prefix_table.update(a.graph.prefix_table)
    both = graph_to_kb(merged)
    sa, sb, sm = kb_stats(a), kb_stats(b), kb_stats(both)
    # fixtures share paul, the outcome and the intervention individual;
    # build genuinely disjoint inputs instead
    assert sm.study_count == sa.study_count + sb.study_count

    from ssdkb.generate import GenProfile, generate_graph

    g1 = generate_graph(3, GenProfile(seed=1))
    g2 = generate_graph(3, GenProfile(seed=2))
    # shared pool individuals break disjointness; rename one side
    from ssdkb.terms import Iri

    def shift(term):
        if isinstance(term, Iri):
            return Iri(term.value.replace("#", "#other_"))
        from ssdkb.terms import BlankNode

        if isinstance(term, BlankNode):
            return BlankNode("other_" + term.label)
        return term

    shifted = {
        Triple(shift(t.subject), t.predicate, shift(t.object) if t.predicate != RDF_TYPE else t.object)
        for t in g2.triples
    }
    union = parse_turtle("")
    union.triples = set(g1.triples) | shifted
    k1 = graph_to_kb(g1)
    shifted_graph = parse_turtle("")
    shifted_graph.triples = shifted
    k2 = graph_to_kb(shifted_graph)
    ku = graph_to_kb(union)
    s1, s2, su = kb_stats(k1), kb_stats(k2), kb_stats(ku)
    assert su.triple_count == s1.triple_count + s2.triple_count
    assert su.individual_count == s1.individual_count + s2.individual_count
    assert su.study_count == s1.study_count + s2.study_count
