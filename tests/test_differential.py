"""The DL and SPARQL engines agree on the fragment both can express: the
members of DL `A and p some B` are the ?x that SPARQL
`?x a A ; p ?y . ?y a B` binds, over one generated, materialized kb."""

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
