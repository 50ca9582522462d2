"""End-to-end acceptance checks. Each test prints a single pass line so
`pytest -s tests/test_acceptance.py` reads as a checklist."""

import re
import statistics
import time
from decimal import Decimal
from itertools import product

from conftest import FIXTURES, QUERIES, load_kb
from isomorphism import isomorphic
from ssdkb import vocab
from ssdkb.classify import classify_design, materialize_types
from ssdkb.dlquery import eval_dl_query, parse_dl_query
from ssdkb.generate import GenProfile, generate_graph, generate_studies
from ssdkb.kb import graph_to_kb, kb_stats, validate_kb
from ssdkb.model import Phase, PhaseKind, Study, age_in_months
from ssdkb.sparql import eval_sparql, parse_sparql
from ssdkb.taxonomy import core_taxonomy
from ssdkb.terms import aut, local_name, ssd
from ssdkb.turtle import parse_turtle, serialize_turtle

TAX = core_taxonomy()

REFERENCE_TRIPLES = 186_679
REFERENCE_INDIVIDUALS = 51_508
SCALE_TOLERANCE = 0.20
MATERIALIZE_BUDGET_MS = 38_000
QUERY_BUDGET_MS = 1_000


def _ok(n, label):
    print(f"criterion {n} ({label}): PASS")


def test_criterion_1_reference_study_lifts_cleanly(fig3_kb):
    assert validate_kb(fig3_kb) == []
    (study,) = fig3_kb.studies
    names = {local_name(c) for c in classify_design(study, fig3_kb.taxonomy)}
    assert names == {"ABAB_Design", "WithdrawalDesign", "SingleSubjectDesign"}
    (paul,) = study.participants
    assert age_in_months(paul.age) == 88
    _ok(1, "reference study validates and classifies")


def test_criterion_2_dl_queries(fig3_mat, mbd_mat):
    expr = parse_dl_query("Result and isResultOfPhase some {ph01}")
    members = {local_name(t) for t in eval_dl_query(expr, fig3_mat)}
    assert members == {"res01", "res02"}
    complex_expr = parse_dl_query(
        (QUERIES / "dl_across_setting_complex.dl").read_text()
    )
    assert {local_name(t) for t in eval_dl_query(complex_expr, mbd_mat)} == {"mbd01"}
    _ok(2, "class-expression queries return exact answer sets")


def test_criterion_3_sparql_matches_linear_scan(ab_mat):
    text = (QUERIES / "sparql_best_result.rq").read_text()
    table = eval_sparql(parse_sparql(text), ab_mat)
    # oracle: scan every result triple directly
    values = [
        Decimal(t.object.lexical)
        for t in ab_mat.all_triples()
        if t.predicate == vocab.HAS_VALUE and t.object.datatype == "decimal"
    ]
    assert len(table.rows) == 1
    assert Decimal(table.rows[0][2].lexical) == max(values)
    assert table.rows[0][0] == ssd("ab01")
    _ok(3, "ranked tabular query agrees with linear-scan oracle")


_KIND = {
    "B": PhaseKind.BASELINE,
    "I": PhaseKind.SIMPLE_INTERVENTION,
    "A": PhaseKind.ALTERNATING_INTERVENTION,
    "F": PhaseKind.FOLLOW_UP,
}
_TYPES = {"B": (), "I": (aut("t1"),), "A": (aut("t1"), aut("t2")), "F": ()}


def _study(sig):
    phases = tuple(
        Phase(id=ssd(f"p{i}"), kind=_KIND[c], position=i + 1, intervention_types=_TYPES[c])
        for i, c in enumerate(sig)
    )
    return Study(id=ssd("s"), phases=phases)


def _oracle(sig):
    names = {"SingleSubjectDesign"}
    if re.fullmatch(r"BIF?", sig):
        names |= {"AB_Design", "SimpleDesign"}
    if re.fullmatch(r"BIBIF?", sig):
        names |= {"ABAB_Design", "WithdrawalDesign"}
    if re.fullmatch(r"B(IB)+I?F?", sig) and len(sig.rstrip("F")) >= 3:
        names.add("WithdrawalDesign")
    if re.fullmatch(r"BAF?", sig):
        names.add("AlternatingTreatmentDesign")
    if re.fullmatch(r"BI+F?", sig):
        names.add("SimpleDesign")
    return names


def test_criterion_4_exhaustive_signature_classification():
    checked = 0
    for length in range(1, 7):
        for follow_up in (False, True):
            body_len = length - 1 if follow_up else length
            if body_len == 0:
                continue
            for body in product("BIA", repeat=body_len):
                sig = "".join(body) + ("F" if follow_up else "")
                got = {local_name(c) for c in classify_design(_study(sig), TAX)}
                assert got == _oracle(sig), sig
                checked += 1
    assert checked > 1000
    _ok(4, f"all {checked} phase signatures up to length 6 match the oracle")


def test_criterion_5_round_trip_over_100_kbs():
    for seed in range(1, 101):
        graph = generate_graph(10, GenProfile(seed=seed))
        again = parse_turtle(serialize_turtle(graph))
        assert isomorphic(graph, again), seed
        kb_a = graph_to_kb(graph, TAX)
        kb_b = graph_to_kb(again, TAX)
        assert kb_a.studies == kb_b.studies, seed
    _ok(5, "100 generated kbs round-trip through text form")


def test_criterion_6_scale_and_latency():
    kb = generate_studies(1000, GenProfile(seed=1))

    start = time.perf_counter()
    kb = materialize_types(kb)
    materialize_ms = (time.perf_counter() - start) * 1000
    assert materialize_ms <= MATERIALIZE_BUDGET_MS

    stats = kb_stats(kb)
    for got, reference in (
        (stats.triple_count, REFERENCE_TRIPLES),
        (stats.individual_count, REFERENCE_INDIVIDUALS),
    ):
        low = reference * (1 - SCALE_TOLERANCE)
        high = reference * (1 + SCALE_TOLERANCE)
        assert low <= got <= high, (got, reference)

    for name, parse, evaluate in (
        ("dl_across_setting_complex.dl", parse_dl_query, eval_dl_query),
        ("dl_results_of_phase.dl", parse_dl_query, eval_dl_query),
        ("sparql_best_result.rq", parse_sparql, eval_sparql),
    ):
        query = parse((QUERIES / name).read_text())
        times = []
        for _ in range(5):
            start = time.perf_counter()
            evaluate(query, kb)
            times.append((time.perf_counter() - start) * 1000)
        assert statistics.median(times) <= QUERY_BUDGET_MS, name
    _ok(
        6,
        f"1000 studies: {stats.triple_count} triples, "
        f"{stats.individual_count} individuals, "
        f"materialize {materialize_ms:.0f} ms, query medians under budget",
    )


def test_criterion_7_cookbook_answers():
    taxonomy = TAX.register(aut("ScriptingIntervention"), {vocab.INTERVENTION_TYPE})
    graph = parse_turtle((FIXTURES / "cookbook.ttl").read_text())
    kb = materialize_types(graph_to_kb(graph, taxonomy))

    def ask(text):
        return {local_name(t) for t in eval_dl_query(parse_dl_query(text), kb)}

    assert ask((QUERIES / "cq_by_condition.dl").read_text()) == {"cb01", "cb03"}
    assert ask((QUERIES / "cq_by_intervention.dl").read_text()) == {"cb01"}
    assert ask((QUERIES / "cq_age_range.dl").read_text()) == {"cb01"}
    assert ask((QUERIES / "cq_across_subject.dl").read_text()) == {"cb03"}
    assert ask((QUERIES / "cq_across_setting.dl").read_text()) == set()
    table = eval_sparql(
        parse_sparql(
            "PREFIX ssid: <http://bdi.si.ehu.es/bdi/ontologies/SSDOnt/SSDOnt#>\n"
            "SELECT ?who ?years WHERE {\n"
            "  ?study a ssid:WithdrawalDesign ; ssid:hasParticipant ?who .\n"
            "  ?who ssid:hasAge ?age . ?age ssid:years ?years }"
        ),
        kb,
    )
    assert [(local_name(w), y.lexical) for w, y in table.rows] == [("anna", "2")]
    _ok(7, "competency questions answered exactly")


def test_criterion_8_generator_determinism():
    profile = GenProfile(seed=2026)
    a = serialize_turtle(generate_graph(50, profile))
    b = serialize_turtle(generate_graph(50, profile))
    assert a == b
    _ok(8, "generation is byte-identical for identical inputs")
