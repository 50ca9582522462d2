"""The DL and SPARQL engines agree on the fragment both can express, over
one generated, materialized kb: the members of DL `A and p some B` are the
?x that SPARQL `?x a A ; p ?y . ?y a B` binds, and the members of
`A and p value c` or `A and p some {c1, c2}` are the ?x that
`?x a A ; p c` binds for some listed c."""

import pytest

from ssdkb.classify import materialize_types
from ssdkb.dlquery import eval_dl_query, parse_dl_query
from ssdkb.generate import GenProfile, generate_studies
from ssdkb.sparql import eval_sparql, parse_sparql

# (A, p, B) as DL names; unprefixed names are in the core namespace
NON_EMPTY = [
    ("Result", "isResultOfPhase", "BaselinePhase"),
    ("Result", "isResultOfPhase", "InterventionPhase"),
    ("Result", "hasInterventionType", "aut:Peer-mediatedIntervention"),
    ("SingleSubjectDesign", "hasPhase", "FollowUpPhase"),
    ("WithdrawalDesign", "hasPhase", "SimpleInterventionPhase"),
    ("MultipleBaselineDesign", "hasMBDItem", "AcrossSettingMBDItem"),
    ("MBDItem", "hasPhase", "BaselinePhase"),
    ("Participant", "hasAge", "AgeDescription"),
    ("AlternatingTreatmentDesign", "hasOutcome", "aut:CommunicationOutcome"),
]
EMPTY = [
    ("AB_Design", "hasMBDItem", "MBDItem"),
    ("Phase", "hasPhase", "Phase"),
]
# (A, p, objects): one object asks `p value c`, more ask `p some {c1, c2}`
CONSTANTS = [
    ("Participant", "hasCondition", ("autism",)),
    ("AcrossSettingMBDItem", "hasSetting", ("school",)),
    ("InterventionPhase", "hasInterventionType", ("aut:intv011",)),
    ("SingleSubjectDesign", "hasOutcome", ("aut:outcome007",)),
    ("Participant", "hasCondition", ("autism", "adhd")),
    ("Phase", "hasInterventionType", ("aut:intv007", "aut:intv008")),
    ("Result", "isResultOfPhase", ("study00005_ph2", "study00072_ph4")),
    ("AB_Design", "hasOutcome", ("aut:outcome007", "aut:outcome012")),
]
EMPTY_CONSTANTS = [
    ("BaselinePhase", "hasInterventionType", ("aut:intv007",)),
    ("Participant", "hasCondition", ("school",)),
    ("MBDItem", "hasSetting", ("autism", "adhd")),
]


@pytest.fixture(scope="module")
def corpus():
    return materialize_types(generate_studies(200, GenProfile(seed=1)))


def _sparql_name(name):
    return name if ":" in name else f"ssid:{name}"


def _both(kb, a, p, b):
    dl = eval_dl_query(parse_dl_query(f"{a} and {p} some {b}"), kb)
    a, p, b = (_sparql_name(n) for n in (a, p, b))
    table = eval_sparql(parse_sparql(f"SELECT ?x WHERE {{ ?x a {a} ; {p} ?y . ?y a {b} }}"), kb)
    return dl, {x for (x,) in table.rows}


@pytest.mark.parametrize("a, p, b", NON_EMPTY)
def test_dl_some_equals_sparql_join(corpus, a, p, b):
    dl, sparql = _both(corpus, a, p, b)
    assert dl
    assert dl == sparql


@pytest.mark.parametrize("a, p, b", EMPTY)
def test_dl_some_equals_sparql_join_when_empty(corpus, a, p, b):
    assert _both(corpus, a, p, b) == (set(), set())


def _both_constants(kb, a, p, objects):
    if len(objects) == 1:
        dl_text = f"{a} and {p} value {objects[0]}"
    else:
        dl_text = f"{a} and {p} some {{{', '.join(objects)}}}"
    dl = eval_dl_query(parse_dl_query(dl_text), kb)
    a, p = _sparql_name(a), _sparql_name(p)
    sparql = set()
    for c in objects:
        query = f"SELECT ?x WHERE {{ ?x a {a} ; {p} {_sparql_name(c)} }}"
        sparql |= {x for (x,) in eval_sparql(parse_sparql(query), kb).rows}
    return dl, sparql


@pytest.mark.parametrize("a, p, objects", CONSTANTS)
def test_dl_value_and_one_of_equal_sparql_constants(corpus, a, p, objects):
    dl, sparql = _both_constants(corpus, a, p, objects)
    assert dl
    assert dl == sparql


@pytest.mark.parametrize("a, p, objects", EMPTY_CONSTANTS)
def test_dl_value_and_one_of_equal_sparql_constants_when_empty(corpus, a, p, objects):
    assert _both_constants(corpus, a, p, objects) == (set(), set())
