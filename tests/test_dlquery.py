import functools
import operator
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, QUERIES, edited_queries, load_kb
from ssdkb import vocab
from ssdkb.classify import materialize_types
from ssdkb.dlquery import (
    And,
    DataSome,
    DlEvalError,
    DlEvaluator,
    DlSyntaxError,
    MAX_DEPTH,
    NamedClass,
    OneOf,
    Some,
    Value,
    eval_dl_query,
    parse_dl_query,
)
from ssdkb.generate import GenProfile, generate_studies
from ssdkb.kb import TripleIndex, empty_kb, graph_to_kb
from ssdkb.terms import (
    AUT_NS,
    DEFAULT_PREFIXES,
    RDF_TYPE,
    SSD_NS,
    BlankNode,
    Iri,
    Literal,
    aut,
    local_name,
    ssd,
)
from ssdkb.turtle import parse_turtle


def names(result):
    return {local_name(term) for term in result}


def test_parse_results_of_phase_query():
    expr = parse_dl_query("Result and isResultOfPhase some {ph01}")
    assert expr == And(
        NamedClass("Result"),
        Some("isResultOfPhase", OneOf(("ph01",))),
    )


def test_parse_nested_query_with_facet():
    expr = parse_dl_query(
        "AcrossSettingMBD and hasParticipant some "
        "(Participant and hasAge some (years some xsd:int[<10]))"
    )
    assert expr == And(
        NamedClass("AcrossSettingMBD"),
        Some(
            "hasParticipant",
            And(
                NamedClass("Participant"),
                Some("hasAge", DataSome("years", "<", 10)),
            ),
        ),
    )


def test_parse_value_restriction():
    expr = parse_dl_query("hasCondition value autism")
    assert expr == Value("hasCondition", "autism")


def test_parse_facet_operators():
    assert parse_dl_query("years some xsd:int[>=3]") == DataSome("years", ">=", 3)
    assert parse_dl_query("months some xsd:int[=0]") == DataSome("months", "=", 0)


@pytest.mark.parametrize(
    "text",
    [
        "Result and",
        "and Result",
        "isResultOfPhase some",
        "Result and isResultOfPhase some {ph01",
        "years some xsd:int[<]",
        "(Result",
        "",
        pytest.param("(" * 3000 + "Result" + ")" * 3000, id="parens-3000-deep"),
        pytest.param("hasPhase some (" * 3000 + "Phase" + ")" * 3000, id="some-3000-deep"),
    ],
)
def test_syntax_errors(text):
    with pytest.raises(DlSyntaxError):
        parse_dl_query(text)


@pytest.mark.parametrize(
    "text, message, position",
    [
        # an unknown token is reported from the end of the previous token
        ("Result  $", "unknown token near '  $'", 6),
        ("Result $ and a longer tail", "unknown token near ' $ and a l'", 6),
        ("-5", "unknown token near '-5'", 0),
        ("Résultat", "unknown token near 'ésultat'", 1),
        # DL takes no `#` comments
        ("Result\n\t#", "unknown token near '\\n\\t#'", 6),
        ("p some xsd:int[< -3]", "unknown token near ' -3]'", 16),
        # the first unknown token wins over an earlier grammar error
        ("Result and $ and (", "unknown token near ' $ and ('", 10),
        ("Result and (Foo $", "unknown token near ' $'", 15),
        ("(" * 101 + "A $", "unknown token near ' $'", 102),
        # end of input
        ("", "expected a name, found ''", 0),
        ("   ", "expected a name, found ''", 3),
        ("Result and", "expected a name, found ''", 10),
        ("(Result", "expected rpar, found ''", 7),
        ("(Result and Foo", "expected rpar, found ''", 15),
        ("isResultOfPhase some", "expected a filler, found ''", 20),
        ("years some xsd:int[<5", "expected rbrack, found ''", 21),
        ("{ph01", "expected rbrace, found ''", 5),
        ("p value", "expected name, found ''", 7),
        # grammar errors
        ("and Result", "dangling 'and' connective", 0),
        ("Result and and", "dangling 'and' connective", 11),
        ("Result)", "unexpected trailing input ')'", 6),
        ("Result AND Foo", "unexpected trailing input 'AND'", 7),
        ("isResultOfPhase some ,", "expected a filler, found ','", 21),
        ("years some xsd:int[<]", "expected int, found ']'", 20),
        ("years some xsd:int[5]", "expected op, found '5'", 19),
        ("years some xsd:int <5]", "expected lbrack, found '<'", 19),
        ("{ph01,}", "expected name, found '}'", 6),
        ("p value (", "expected name, found '('", 8),
        ("(" * 101 + "A" + ")" * 101, f"expression nested deeper than {MAX_DEPTH} levels", 101),
    ],
)
def test_error_message_and_position(text, message, position):
    with pytest.raises(DlSyntaxError) as info:
        parse_dl_query(text)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


def test_nesting_depth_limit(fig3_mat):
    def nested(levels):
        return "hasPhase some (" * levels + "Phase" + ")" * levels

    assert eval_dl_query(parse_dl_query(nested(MAX_DEPTH)), fig3_mat) == set()
    assert names(eval_dl_query(parse_dl_query(nested(1)), fig3_mat)) == {"ssd01"}
    with pytest.raises(DlSyntaxError, match=f"nested deeper than {MAX_DEPTH} levels"):
        parse_dl_query(nested(MAX_DEPTH + 1))
    # a flat conjunction is not nesting, however long
    chain = " and ".join(["Result"] * 3000)
    assert len(eval_dl_query(parse_dl_query(chain), fig3_mat)) == 6
    inner = " and ".join(["Result"] * 3000)
    assert len(eval_dl_query(parse_dl_query(f"Result and ({inner})"), fig3_mat)) == 6


def test_eval_results_of_phase(fig3_mat):
    expr = parse_dl_query("Result and isResultOfPhase some {ph01}")
    assert names(eval_dl_query(expr, fig3_mat)) == {"res01", "res02"}


def test_eval_named_class_uses_closure(fig3_mat):
    expr = parse_dl_query("WithdrawalDesign")
    assert names(eval_dl_query(expr, fig3_mat)) == {"ssd01"}
    expr = parse_dl_query("InterventionPhase")
    assert names(eval_dl_query(expr, fig3_mat)) == {"ph02", "ph04"}


def test_eval_value_restriction(fig3_mat):
    expr = parse_dl_query(
        "SingleSubjectDesign and hasParticipant some (hasCondition value autism)"
    )
    assert names(eval_dl_query(expr, fig3_mat)) == {"ssd01"}
    expr = parse_dl_query(
        "SingleSubjectDesign and hasParticipant some (hasCondition value adhd)"
    )
    assert eval_dl_query(expr, fig3_mat) == set()


def test_eval_age_facets(fig3_mat):
    young = parse_dl_query(
        "Participant and hasAge some (years some xsd:int[<10])"
    )
    assert names(eval_dl_query(young, fig3_mat)) == {"paul"}
    old = parse_dl_query("Participant and hasAge some (years some xsd:int[>10])")
    assert eval_dl_query(old, fig3_mat) == set()


def test_eval_complex_across_setting_query(mbd_mat):
    text = (QUERIES / "dl_across_setting_complex.dl").read_text()
    expr = parse_dl_query(text)
    assert names(eval_dl_query(expr, mbd_mat)) == {"mbd01"}


def test_eval_one_of(fig3_mat):
    expr = parse_dl_query("{paul, ssd01}")
    assert eval_dl_query(expr, fig3_mat) == {ssd("paul"), ssd("ssd01")}


def test_eval_on_empty_kb():
    kb = materialize_types(empty_kb())
    expr = parse_dl_query("Result and isResultOfPhase some {ph01}")
    assert eval_dl_query(expr, kb) == set()


def test_unknown_class_is_eval_error(fig3_mat):
    with pytest.raises(DlEvalError):
        eval_dl_query(parse_dl_query("NoSuchClass"), fig3_mat)


def test_unknown_property_is_eval_error(fig3_mat):
    with pytest.raises(DlEvalError):
        eval_dl_query(parse_dl_query("hasNoSuchProp some Result"), fig3_mat)


@pytest.mark.parametrize(
    "text",
    [
        "Result and NoSuchClass",
        "hasCondition value adhd and NoSuchClass",
        "hasCondition value adhd and Result and hasNoSuchProp some Result",
        "years some xsd:int[<0] and hasNoSuchProp value autism",
        "hasCondition value adhd and (Result and hasPhase some NoSuchClass)",
        # the seed is empty, so no `some` conjunct after it is evaluated
        "hasCondition value adhd and hasPhase some NoSuchClass",
        "Result and hasCondition value adhd and hasPhase some (hasOutcome some (hasNoSuchProp value autism))",
    ],
)
def test_unknown_name_in_any_conjunct_is_eval_error(fig3_mat, text):
    # the conjuncts before the unknown name are non-empty in the first case
    # and empty in the others
    with pytest.raises(DlEvalError):
        eval_dl_query(parse_dl_query(text), fig3_mat)


def test_results_are_the_callers_own():
    kb = materialize_types(load_kb("fig3.ttl"))
    # a named class alone, and a chain whose smallest conjunct is one
    for text, expected in [
        ("InterventionPhase", {"ph02", "ph04"}),
        ("InterventionPhase and Phase and {ph01, ph02, ph04}", {"ph02", "ph04"}),
    ]:
        first = eval_dl_query(parse_dl_query(text), kb)
        second = eval_dl_query(parse_dl_query(text), kb)
        assert first is not second
        first.update({ssd("intruder"), aut("intruder")})
        assert names(second) == expected
        assert names(eval_dl_query(parse_dl_query(text), kb)) == expected
    # the class members that the queries read are as a fresh store builds them
    fresh = TripleIndex(kb.all_triples())
    assert kb.store._members
    assert all(found == fresh.members(cls) for cls, found in kb.store._members.items())


def test_prefixed_names_resolve(fig3_mat):
    assert names(eval_dl_query(parse_dl_query("ssd:Result"), fig3_mat)) == names(
        eval_dl_query(parse_dl_query("Result"), fig3_mat)
    )
    expr = parse_dl_query("hasOutcome value aut:correct_answers_wh")
    assert names(eval_dl_query(expr, fig3_mat)) == {"ssd01"}


_CLASS_ATOMS = st.sampled_from(
    [
        "Result",
        "Participant",
        "SingleSubjectDesign",
        "BaselinePhase",
        "InterventionPhase",
        "Instant",
        "hasParticipant some Participant",
        "isResultOfPhase some BaselinePhase",
        "hasCondition value autism",
        "hasAge some (years some xsd:int[<10])",
    ]
)


_FIG3 = materialize_types(load_kb("fig3.ttl"))


@given(_CLASS_ATOMS, _CLASS_ATOMS)
def test_conjunction_is_intersection(left, right):
    both = eval_dl_query(parse_dl_query(f"({left}) and ({right})"), _FIG3)
    l = eval_dl_query(parse_dl_query(left), _FIG3)
    r = eval_dl_query(parse_dl_query(right), _FIG3)
    assert both == l & r


@given(st.one_of(st.text(), edited_queries(".dl")))
def test_parse_dl_query_is_total(text):
    try:
        expr = parse_dl_query(text)
    except DlSyntaxError:
        return
    assert isinstance(expr, (NamedClass, And, Some, Value, OneOf, DataSome))


# --- the index-driven evaluator against a scan-only reference ---

_CORPUS = materialize_types(generate_studies(200, GenProfile(seed=1)))


def reference_members(kb):
    """The scan-only evaluator: every `some`, `value` and facet scans all of
    the property's triples, taken from `kb.all_triples()` rather than the
    store. Names resolve as in `DlEvaluator`."""
    names = DlEvaluator(kb)
    by_p = defaultdict(list)
    for t in kb.all_triples():
        by_p[t.predicate].append(t)
    ops = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "=": operator.eq}

    def members(expr):
        if isinstance(expr, NamedClass):
            cls = names.resolve_class(expr.name)
            return {t.subject for t in by_p[RDF_TYPE] if t.object == cls}
        if isinstance(expr, And):
            return members(expr.left) & members(expr.right)
        if isinstance(expr, OneOf):
            return {names.resolve_individual(name) for name in expr.individuals}
        prop = names.resolve_property(expr.prop)
        if isinstance(expr, Some):
            filler = members(expr.filler)
            return {t.subject for t in by_p[prop] if t.object in filler}
        if isinstance(expr, Value):
            individual = names.resolve_individual(expr.individual)
            return {t.subject for t in by_p[prop] if t.object == individual}
        return {
            t.subject
            for t in by_p[prop]
            if isinstance(t.object, Literal)
            and t.object.datatype != "string"
            and ops[expr.op](t.object.as_decimal(), expr.bound)
        }

    return members


_REFERENCE = reference_members(_CORPUS)

# What the generated corpus holds, so that many drawn expressions have
# members: kind -> (its classes, some of its individuals, properties to
# other kinds, numeric properties)
_SCHEMA = {
    "SingleSubjectDesign": (
        ["SingleSubjectDesign", "AB_Design", "WithdrawalDesign", "AcrossSettingMBD",
         "AlternatingTreatmentDesign"],
        ["study00005", "study00117"],
        [("hasPhase", "Phase"), ("hasParticipant", "Participant"),
         ("hasOutcome", "Outcome"), ("hasMBDItem", "MBDItem")],
        [],
    ),
    "MBDItem": (
        ["MBDItem", "AcrossSettingMBDItem", "AcrossOutcomeMBDItem"],
        ["study00117_item2"],
        [("hasPhase", "Phase"), ("hasSetting", "Setting")],
        [],
    ),
    "Phase": (
        ["Phase", "BaselinePhase", "InterventionPhase", "SimpleInterventionPhase"],
        ["study00005_ph2", "study00117_item2_ph1"],
        [("hasInterventionType", "InterventionType")],
        ["hasPosition"],
    ),
    "Result": (["Result"], [], [("isResultOfPhase", "Phase"), ("occursIn", "Instant")], ["hasValue"]),
    "Instant": (["Instant"], [], [], ["hasValue"]),
    "Participant": (
        ["Participant"],
        ["study00117_p1", "study00121_p1"],
        [("hasAge", "AgeDescription"), ("diagnosedAtAge", "AgeDescription"),
         ("hasCondition", "Condition"), ("hasGender", "Gender")],
        [],
    ),
    "AgeDescription": (["AgeDescription"], [], [], ["years", "months"]),
    "InterventionType": (["InterventionType", "aut:Peer-mediatedIntervention"], ["intv007", "intv011"], [], []),
    "Outcome": (["Outcome", "aut:CommunicationOutcome"], ["aut:outcome007", "aut:correct_answers_wh"], [], []),
    "Condition": ([], ["autism", "adhd"], [], []),
    "Setting": ([], ["school", "home"], [], []),
    "Gender": ([], ["female"], [], []),
}


@functools.cache
def _expressions(kind, depth):
    """`and` chains of 1-4 atoms about `kind`; a `some` filler is a chain
    about the property's kind, nested up to `depth` more levels. `nobody`
    is in no triple and no value is below 0, so some conjuncts are empty."""
    classes, individuals, edges, facets = _SCHEMA[kind]
    one_of = st.lists(st.sampled_from(individuals + ["nobody"]), min_size=1, max_size=3)
    atoms = [one_of.map(lambda chosen: OneOf(tuple(chosen)))]
    if classes:
        atoms.append(st.sampled_from(classes).map(NamedClass))
    if facets:
        ops = st.sampled_from(["<", "<=", ">", ">=", "="])
        atoms.append(st.builds(DataSome, st.sampled_from(facets), ops, st.integers(-1, 12)))
    for prop, target in edges:
        objects = _SCHEMA[target][1] + ["nobody"]
        atoms.append(st.builds(Value, st.just(prop), st.sampled_from(objects)))
        if depth > 0:
            atoms.append(st.builds(Some, st.just(prop), _expressions(target, depth - 1)))
    chains = st.lists(st.one_of(atoms), min_size=1, max_size=4)
    return chains.map(lambda conjuncts: functools.reduce(And, conjuncts))


def _uses_lookup(text):
    """Whether the index-driven evaluator answers the top `some` of `text`
    from its property's object table: its filler has fewer members than the
    property has triples."""
    expr = parse_dl_query(text)
    evaluator = DlEvaluator(_CORPUS)
    triples = _CORPUS.store.by_p[evaluator.resolve_property(expr.prop)]
    return len(evaluator.eval(expr.filler)) < len(triples)


@pytest.mark.parametrize(
    "text, lookup",
    [
        ("isResultOfPhase some Phase", True),
        ("hasInterventionType some aut:Peer-mediatedIntervention", True),
        ("hasParticipant some {study00117_p1, study00121_p1}", True),
        ("hasParticipant some (hasAge some (years some xsd:int[<20]))", True),
        ("hasAge some AgeDescription", False),
        ("hasPhase some Phase", False),
        ("hasPhase some (hasPosition some xsd:int[>=1])", False),
        ("hasAge some (years some xsd:int[<20])", False),
    ],
)
def test_some_lookup_and_scan_agree_with_reference(text, lookup):
    assert _uses_lookup(text) == lookup
    expr = parse_dl_query(text)
    assert eval_dl_query(expr, _CORPUS) == _REFERENCE(expr) != set()


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(sorted(_SCHEMA)).flatmap(lambda kind: _expressions(kind, 3)))
@example(And(Value("hasCondition", "nobody"), NamedClass("Participant")))
@example(And(And(NamedClass("Result"), DataSome("years", "<", 0)), Some("isResultOfPhase", NamedClass("Phase"))))
def test_eval_matches_scan_only_reference(expr):
    assert eval_dl_query(expr, _CORPUS) == _REFERENCE(expr)


_NUMBERS = graph_to_kb(
    parse_turtle(
        "@prefix ssd: <http://bdi.si.ehu.es/bdi/ontologies/SSDOnt/SSDOnt#> .\n"
        "ssd:r1 ssd:hasValue 3 .\n"
        "ssd:r2 ssd:hasValue 1.5 .\n"
        "ssd:r3 ssd:hasValue 7 ; ssd:hasValue -2 .\n"
        "ssd:r4 ssd:hasValue 3.0 .\n"
        'ssd:r5 ssd:hasValue "5" .\n'
    )
)


@pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "="])
@pytest.mark.parametrize("bound", [-3, -2, 2, 3, 5, 7, 8])
def test_facet_range_matches_reference(op, bound):
    # bounds below the smallest value, equal to the smallest, between two,
    # equal to an integer and a decimal, equal to a string's text only,
    # equal to the largest, and above it
    expr = DataSome("hasValue", op, bound)
    found = eval_dl_query(expr, _NUMBERS)
    assert found == reference_members(_NUMBERS)(expr)
    assert ssd("r5") not in found


def test_facet_range_examples():
    def members(op, bound):
        return names(eval_dl_query(DataSome("hasValue", op, bound), _NUMBERS))

    assert members("<", -2) == set()
    assert members("<=", -2) == {"r3"}
    assert members("=", 3) == {"r1", "r4"}
    assert members(">", 2) == {"r1", "r3", "r4"}
    assert members(">=", 8) == set()


@pytest.mark.parametrize(
    "name, paths",
    [
        ("cq_across_outcome", []),
        ("cq_age_range", [("hasParticipant", "bottom-up"), ("hasAge", "bottom-up")]),
        ("cq_by_condition", [("hasParticipant", "bottom-up")]),
        ("cq_by_intervention", [("hasPhase", "top-down")]),
        ("dl_across_setting_complex", [("hasParticipant", "top-down"), ("hasMBDItem", "bottom-up")]),
        ("dl_results_of_phase", [("isResultOfPhase", "bottom-up")]),
    ],
)
def test_path_of_each_some_conjunct(name, paths):
    """Which way each `some` conjunct of an `and` goes on the 200-study
    corpus; a conjunct inside a filter that runs top-down takes no path."""
    expr = parse_dl_query((QUERIES / f"{name}.dl").read_text())
    evaluator = DlEvaluator(_CORPUS)
    found = evaluator.eval(expr)
    assert [(some.prop, path) for some, path in evaluator.paths] == paths
    assert found == _REFERENCE(expr) != set()


def test_top_down_builds_only_the_subject_tables_it_reads():
    """`cq_by_intervention` tests its `hasPhase` conjunct top-down, through
    the subject tables of `hasPhase` and of `hasInterventionType` alone."""
    kb = materialize_types(generate_studies(30, GenProfile(seed=3)))
    expr = parse_dl_query((QUERIES / "cq_by_intervention.dl").read_text())
    evaluator = DlEvaluator(kb)
    assert evaluator.eval(expr) == reference_members(kb)(expr)
    assert [(some.prop, path) for some, path in evaluator.paths] == [("hasPhase", "top-down")]
    assert kb.store._subjects.keys() == {vocab.HAS_PHASE, vocab.HAS_INTERVENTION_TYPE}


def test_bottom_up_builds_only_the_object_tables_it_reads():
    """`cq_by_condition` seeds with the members of `SingleSubjectDesign`
    (the object table of rdf:type), and joins its `hasParticipant` conjunct
    bottom-up from the `hasCondition value autism` triples, looking each
    participant up in the object table of `hasParticipant`."""
    kb = materialize_types(generate_studies(30, GenProfile(seed=3)))
    expr = parse_dl_query((QUERIES / "cq_by_condition.dl").read_text())
    evaluator = DlEvaluator(kb)
    assert evaluator.eval(expr) == reference_members(kb)(expr)
    assert [(some.prop, path) for some, path in evaluator.paths] == [("hasParticipant", "bottom-up")]
    assert kb.store._objects.keys() == {RDF_TYPE, vocab.HAS_CONDITION, vocab.HAS_PARTICIPANT}
    assert kb.store._members.keys() == {vocab.SINGLE_SUBJECT_DESIGN}
    assert kb.store._subjects == {}


# --- name resolution by role against the earlier one-rule resolution ---


def reference_resolve(kb):
    """The earlier rule, kept as it was but for its IRI set, which is built
    here from `kb.all_triples()`: a bare name takes the first namespace,
    core then extension, in which it is a class or a node of the kb,
    whatever its role, and the core one if neither; only then is the role
    checked. Returns `resolve(name, role)`."""
    triples = kb.all_triples()
    individuals = {term.value for t in triples for term in (t.subject, t.object) if isinstance(term, Iri)}
    predicates = {t.predicate for t in triples}

    def resolve_name(name):
        if ":" in name:
            prefix, local = name.split(":", 1)
            ns = DEFAULT_PREFIXES.get(prefix)
            return Iri(ns + local) if ns else None
        core = None
        for ns in (SSD_NS, AUT_NS):
            candidate = ns + name
            iri = Iri(candidate)
            if kb.taxonomy.contains(iri) or candidate in individuals:
                return iri
            core = core or iri
        # default to the core namespace for names the kb has not seen
        return core

    def resolve(name, role):
        iri = resolve_name(name)
        if role == "class" and (iri is None or not kb.taxonomy.contains(iri)):
            raise DlEvalError(f"unknown class name: {name}")
        if role == "property":
            if iri is None:
                raise DlEvalError(f"unknown property name: {name}")
            if iri not in vocab.PROPERTIES and iri not in predicates:
                raise DlEvalError(f"unknown property name: {name}")
        if iri is None:
            raise DlEvalError(f"unknown individual name: {name}")
        return iri

    return resolve


_ROLES = ("class", "property", "individual")


def _resolved(resolve, name, role):
    """`resolve(name, role)`, or the message of the DlEvalError it raises."""
    try:
        return resolve(name, role)
    except DlEvalError as error:
        return str(error)


def _evaluator_resolve(kb):
    evaluator = DlEvaluator(kb)
    return lambda name, role: getattr(evaluator, f"resolve_{role}")(name)


_KBS = {"_CORPUS": _CORPUS, **{path.name: load_kb(path.name) for path in sorted(FIXTURES.glob("*.ttl"))}}


def _names(kbs):
    """The local and prefixed forms of every IRI of `kbs`, plus a name in no
    kb and a name with an unknown prefix."""
    found = {"nobody", "zz:q"}
    for kb in kbs:
        for t in kb.all_triples():
            for term in t:
                if not isinstance(term, Iri):
                    continue
                found.add(local_name(term))
                for prefix, ns in DEFAULT_PREFIXES.items():
                    if term.value.startswith(ns):
                        found.add(f"{prefix}:{term.value[len(ns):]}")
    return sorted(found)


_NAMES = _names(_KBS.values())


@pytest.mark.parametrize("kb_name", list(_KBS))
def test_resolution_matches_reference(kb_name):
    """Every (name, role) pair of the 200-study corpus and the fixtures
    resolves to the same IRI, or raises the same message, as under the
    earlier rule, in each of those kbs; the shadowed names that differ are
    pinned by `test_resolution_by_role`."""
    kb = _KBS[kb_name]
    resolve, reference = _evaluator_resolve(kb), reference_resolve(kb)
    differ = [
        (name, role)
        for name in _NAMES
        for role in _ROLES
        if _resolved(resolve, name, role) != _resolved(reference, name, role)
    ]
    assert differ == []


_SHADOWS = "@prefix ssd: <%s> .\n@prefix aut: <%s> .\n" % (SSD_NS, AUT_NS)


@pytest.mark.parametrize(
    "turtle, name, role, expected, changed",
    [
        # a bare class whose core IRI is a node of the kb and whose extension
        # IRI is a class
        ("ssd:x ssd:hasOutcome ssd:CommunicationOutcome .", "CommunicationOutcome", "class",
         aut("CommunicationOutcome"), True),
        # a bare property that is a store predicate in the extension namespace only
        ("ssd:x aut:hasTherapist ssd:y .", "hasTherapist", "property", aut("hasTherapist"), True),
        # ... or in the core namespace only, while its extension IRI is a node
        ("ssd:x ssd:hasTherapist aut:hasTherapist .", "hasTherapist", "property",
         ssd("hasTherapist"), True),
        # a bare property whose core IRI is a vocabulary property, while its
        # extension IRI is both a node and a predicate of the kb
        ("ssd:x aut:hasPhase aut:hasPhase .", "hasPhase", "property", ssd("hasPhase"), True),
        # a node's name is no class and no property
        ("ssd:x ssd:hasOutcome ssd:Nonexistent .", "Nonexistent", "class",
         "unknown class name: Nonexistent", False),
        ("ssd:x ssd:hasOutcome ssd:hasTherapist .", "hasTherapist", "property",
         "unknown property name: hasTherapist", False),
        # classes by local name, core namespace first
        ("", "Result", "class", vocab.RESULT, False),
        ("", "Peer-mediatedIntervention", "class", vocab.PEER_MEDIATED_INTERVENTION, False),
        ("", "Nonexistent", "class", "unknown class name: Nonexistent", False),
        # an individual is a class or a node in one namespace, or else the core IRI
        ("", "Peer-mediatedIntervention", "individual", vocab.PEER_MEDIATED_INTERVENTION, False),
        ("ssd:x ssd:hasTherapist aut:y .", "y", "individual", aut("y"), False),
        ("ssd:x ssd:hasTherapist aut:y .", "z", "individual", ssd("z"), False),
        ("ssd:x ssd:hasTherapist aut:y .", "hasTherapist", "individual", ssd("hasTherapist"), False),
        # a prefixed name keeps its one IRI, and an unknown prefix is unknown
        ("ssd:x ssd:hasTherapist aut:y .", "ssd:y", "individual", ssd("y"), False),
        ("", "aut:Result", "class", "unknown class name: aut:Result", False),
        ("", "zz:q", "individual", "unknown individual name: zz:q", False),
        ("", "zz:q", "property", "unknown property name: zz:q", False),
    ],
)
def test_resolution_by_role(turtle, name, role, expected, changed):
    """How a name resolves in a kb of at most one triple, and whether the
    earlier rule resolved it differently."""
    kb = graph_to_kb(parse_turtle(_SHADOWS + turtle))
    assert _resolved(_evaluator_resolve(kb), name, role) == expected
    assert (_resolved(reference_resolve(kb), name, role) != expected) == changed


def test_holds_matches_a_scan():
    store = _CORPUS.store
    nodes = {term for t in store.all for term in (t.subject, t.object)}
    absent = [ssd("nobody"), aut("nobody"), BlankNode("nobody"), Literal("nobody", "string")]
    terms = {term for t in store.all for term in t} | set(absent)
    assert {BlankNode, Literal} <= {type(term) for term in nodes}
    for term in terms:
        assert store.holds(term) == (term in nodes), term
    assert not any(map(store.holds, absent))


def test_holds_builds_no_subject_or_object_table():
    store = TripleIndex(_CORPUS.store.all)
    assert store.holds(store.all[0].object)
    assert not store.holds(aut("nobody"))
    assert store._subjects == store._objects == {}
