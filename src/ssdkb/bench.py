"""Benchmark harness: generate a kb, time load + materialization + query
evaluation, and emit a human-readable report plus a machine-readable
key-value copy.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from dataclasses import dataclass, field

from .classify import materialize_types
from .dlquery import eval_dl_query, parse_dl_query
from .generate import GenProfile, generate_graph
from .kb import KbStats, graph_to_kb, kb_stats
from .sparql import eval_sparql, parse_sparql
from .turtle import parse_turtle, serialize_turtle

# the published example queries, which `run_bench` times unless it is
# given queries of its own
DEFAULT_DL_QUERIES = {
    "dl_results_of_phase": "Result and isResultOfPhase some {study00000_ph1}",
    "dl_across_setting": (
        "AcrossSettingMBD and hasParticipant some (Participant and hasAge some "
        "(years some xsd:int[<10])) and hasMBDItem some (AcrossSettingMBDItem "
        "and hasSetting value school)"
    ),
}

DEFAULT_SPARQL_QUERIES = {
    "sparql_best_result": """
PREFIX ssid: <http://bdi.si.ehu.es/bdi/ontologies/SSDOnt/SSDOnt#>
PREFIX aut: <http://bdi.si.ehu.es/bdi/ontologies/SSDOnt/SSDOntAutism#>
SELECT ?study ?interType ?val
WHERE {
  ?study a ssid:AB_Design ; ssid:hasOutcome aut:correct_answers_wh ; ssid:hasPhase ?ph .
  ?ph a ssid:SimpleInterventionPhase ; ssid:hasInterventionType ?interType .
  ?interType a aut:Peer-mediatedIntervention .
  ?res ssid:isResultOfPhase ?ph ; ssid:hasValue ?val
} order by DESC(?val) LIMIT 1
""",
}


@dataclass
class QueryTiming:
    name: str
    kind: str  # "dl" | "sparql"
    cold_ms: float
    warm_median_ms: float
    result_size: int


@dataclass
class BenchReport:
    study_count: int
    load_ms: float
    materialize_ms: float
    stats: KbStats
    queries: list[QueryTiming] = field(default_factory=list)
    machine_note: str = field(default_factory=lambda: platform.platform())

    def to_text(self) -> str:
        lines = [
            f"machine: {self.machine_note}",
            f"studies: {self.study_count}",
            f"triples: {self.stats.triple_count}",
            f"individuals: {self.stats.individual_count}",
            f"load_ms: {self.load_ms:.1f}",
            f"materialize_ms: {self.materialize_ms:.1f}",
        ]
        for q in self.queries:
            lines.append(
                f"query {q.name} [{q.kind}]: cold {q.cold_ms:.1f} ms, "
                f"warm median {q.warm_median_ms:.1f} ms, {q.result_size} result(s)"
            )
        return "\n".join(lines) + "\n"

    def to_kv(self) -> str:
        lines = [
            f"machine={self.machine_note}",
            f"studies={self.study_count}",
            f"triples={self.stats.triple_count}",
            f"individuals={self.stats.individual_count}",
            f"load_ms={self.load_ms:.3f}",
            f"materialize_ms={self.materialize_ms:.3f}",
        ]
        for q in self.queries:
            lines.append(f"query.{q.name}.kind={q.kind}")
            lines.append(f"query.{q.name}.cold_ms={q.cold_ms:.3f}")
            lines.append(f"query.{q.name}.warm_median_ms={q.warm_median_ms:.3f}")
            lines.append(f"query.{q.name}.results={q.result_size}")
        return "\n".join(lines) + "\n"


def _time_query(run) -> tuple[float, float, int]:
    """The cold time, the median of five warm times, and the result size."""
    start = time.perf_counter()
    result = run()
    cold = (time.perf_counter() - start) * 1000.0
    warm = []
    for _ in range(5):
        start = time.perf_counter()
        result = run()
        warm.append((time.perf_counter() - start) * 1000.0)
    size = len(result.rows) if hasattr(result, "rows") else len(result)
    return cold, statistics.median(warm), size


def load_query_dir(path: str) -> tuple[dict[str, str], dict[str, str]]:
    """*.dl files are DL queries, *.rq files are SPARQL queries."""
    dl: dict[str, str] = {}
    sparql: dict[str, str] = {}
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if name.endswith(".dl"):
            with open(full, encoding="utf-8") as handle:
                dl[name[:-3]] = handle.read()
        elif name.endswith(".rq"):
            with open(full, encoding="utf-8") as handle:
                sparql[name[:-3]] = handle.read()
    return dl, sparql


def run_bench(
    n: int,
    profile: GenProfile | None = None,
    dl_queries: dict[str, str] | None = None,
    sparql_queries: dict[str, str] | None = None,
) -> BenchReport:
    if n < 1:
        raise ValueError("bench needs at least one study")
    dl_queries = DEFAULT_DL_QUERIES if dl_queries is None else dl_queries
    sparql_queries = DEFAULT_SPARQL_QUERIES if sparql_queries is None else sparql_queries

    text = serialize_turtle(generate_graph(n, profile))

    start = time.perf_counter()
    graph = parse_turtle(text)
    kb = graph_to_kb(graph)
    load_ms = (time.perf_counter() - start) * 1000.0

    start = time.perf_counter()
    kb = materialize_types(kb)
    materialize_ms = (time.perf_counter() - start) * 1000.0

    report = BenchReport(
        study_count=n,
        load_ms=load_ms,
        materialize_ms=materialize_ms,
        stats=kb_stats(kb),
    )

    for name, text in sorted(dl_queries.items()):
        expr = parse_dl_query(text)
        cold, warm, size = _time_query(lambda: eval_dl_query(expr, kb))
        report.queries.append(QueryTiming(name, "dl", cold, warm, size))
    for name, text in sorted(sparql_queries.items()):
        query = parse_sparql(text)
        cold, warm, size = _time_query(lambda: eval_sparql(query, kb))
        report.queries.append(QueryTiming(name, "sparql", cold, warm, size))
    return report
