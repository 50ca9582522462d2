"""`ssdkb bench`: time each layer of the load path and each query file on
generated corpora of the given sizes, and report it as one JSON document.

Each size's load chain runs three times and each layer reports its
median, so that one slow sample does not set a growth ratio. The chains
run in rounds, each round over every size, so that a change in the
machine's speed reaches every size alike rather than landing in a growth
ratio whole. The layer names are those of BENCHMARK.json.
`classify.materialize_s` includes the validation pass that
`materialize_types` runs itself. `kb.index_build_s` builds every table
that the store builds at its first use (`_build_tables`), which no load
layer builds but for `kb_stats`'s object table of `rdf:type`: otherwise
the first query that reads a table would pay for it, and its `cold_ms`
would include that build. The collector is paused for the whole build,
so it scans none of the load's containers there. `gc.collect_s` is one
full collection after the build: without it, the first older-generation
scan of the fresh kb's containers and tables is charged to whichever
query happens to trigger it.
Each size's queries run on its first-round kb, and its `peak_rss_mb`,
the process's high-water mark so far, is read right after them; so the
first round runs the sizes in ascending order. `load_peak_rss_mb` is the
same mark read in the first round after `kb_stats` and before the table
build, so it shows what a load holds, which the tables and the queries
would hide. Each size also keeps every chain's layer seconds, in the
order run, under `"chains"`, so that a slow chain behind a median or a
growth ratio can be told. `control_ms` times a fixed pure-Python loop,
which no change to the program touches, before the first round and after
the last: when it moves between two reports, so did the machine.
"""

from __future__ import annotations

import gc
import platform
import resource
import statistics
import time
from functools import partial
from pathlib import Path

from .classify import materialize_types
from .dlquery import eval_dl_query, parse_dl_query
from .generate import GenProfile, generate_graph
from .kb import KnowledgeBase, TripleIndex, graph_to_kb, kb_stats, validate_kb
from .sparql import eval_sparql, parse_sparql
from .terms import RDF_TYPE, gc_paused
from .turtle import parse_turtle, serialize_turtle

LAYERS = (
    "generate.graph_s", "turtle.serialize_s", "turtle.parse_s", "kb.lift_s",
    "model.validate_s", "classify.materialize_s", "kb.stats_s", "kb.index_build_s",
    "gc.collect_s",
)
LOAD_RUNS = 3
WARM_RUNS = 5
CONTROL_STEPS = 500_000
# a query file's suffix picks its parser and evaluator; each evaluator
# returns the answer's rows
ENGINES = {
    ".dl": (parse_dl_query, eval_dl_query),
    ".rq": (parse_sparql, lambda query, kb: eval_sparql(query, kb).rows),
}


def load_queries(paths: list[str]) -> dict:
    """`query.<stem>` to a function of the kb that answers that file's
    query. Every file is parsed here, so that a syntax error ends the run
    before any corpus is built."""
    queries = {}
    for path in map(Path, paths):
        parse, evaluate = ENGINES[path.suffix]
        queries[f"query.{path.stem}"] = partial(evaluate, parse(path.read_text(encoding="utf-8")))
    return queries


def _timed(out: dict, layer: str, fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    out[layer] = round(time.perf_counter() - start, 6)
    return result


def _answer(run, kb: KnowledgeBase) -> dict:
    """One query's first run, the median of the next `WARM_RUNS`, in
    milliseconds, and its rows."""
    ms = []
    for _ in range(WARM_RUNS + 1):
        start = time.perf_counter()
        rows = run(kb)
        ms.append(round((time.perf_counter() - start) * 1000.0, 3))
    return {"cold_ms": ms[0], "warm_ms": statistics.median(ms[1:]), "rows": len(rows)}


def _peak_rss_mb() -> float:
    """The process's high-water mark of resident memory so far, in MB."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def _control_ms() -> float:
    """The milliseconds of a fixed loop of integer, string and dict steps."""
    start = time.perf_counter()
    seen: dict[str, int] = {}
    for i in range(CONTROL_STEPS):
        seen[str(i % 1000)] = i
    return round((time.perf_counter() - start) * 1000.0, 3)


@gc_paused()
def _build_tables(store: TripleIndex) -> None:
    """Each predicate's subject and object tables, each class's members,
    and the set of nodes that `holds` probes."""
    for p in store.by_p:
        store.subjects(p)
        store.objects(p)
    for cls in store.objects(RDF_TYPE):
        store.members(cls)
    store.holds(None)


def _load(n: int) -> tuple[dict, KnowledgeBase, float]:
    """One load chain's layer seconds, the kb it built, and the peak RSS
    before its table build."""
    out: dict = {}
    graph = _timed(out, "generate.graph_s", generate_graph, n, GenProfile())
    text = _timed(out, "turtle.serialize_s", serialize_turtle, graph)
    # the generated graph and the text go as soon as they are read, so
    # that peak_rss_mb counts what a command that loads a corpus holds
    del graph
    kb = _timed(out, "kb.lift_s", graph_to_kb, _timed(out, "turtle.parse_s", parse_turtle, text))
    del text
    _timed(out, "model.validate_s", validate_kb, kb)
    kb = _timed(out, "classify.materialize_s", materialize_types, kb)
    _timed(out, "kb.stats_s", kb_stats, kb)
    load_peak_mb = _peak_rss_mb()
    _timed(out, "kb.index_build_s", _build_tables, kb.store)
    _timed(out, "gc.collect_s", gc.collect)
    return out, kb, load_peak_mb


def bench_sizes(sizes: list[int], queries: dict) -> dict:
    """Per size, as a string: every layer's median seconds over `LOAD_RUNS`
    load chains, every query's timings on the size's first kb, the peak
    RSS after them and after its first load, and each chain's layer
    seconds. Each round runs one chain per size, in the order given."""
    chains: dict[int, list[dict]] = {n: [] for n in sizes}
    answers = {}
    for i in range(LOAD_RUNS):
        for n in sizes:
            kb = None  # the previous chain's kb goes before the next is built
            layers, kb, load_peak_mb = _load(n)
            chains[n].append(layers)
            if i == 0:
                answers[n] = {name: _answer(run, kb) for name, run in queries.items()}
                answers[n]["load_peak_rss_mb"] = load_peak_mb
                answers[n]["peak_rss_mb"] = _peak_rss_mb()
    return {
        str(n): {
            **{layer: statistics.median(c[layer] for c in chains[n]) for layer in LAYERS},
            **answers[n],
            "chains": chains[n],
        }
        for n in sizes
    }


def run_bench(sizes: list[int], queries: dict) -> dict:
    """The report: `bench_sizes` over the sizes, smallest first, between
    two timings of the control loop."""
    sizes = sorted(set(sizes))
    control_before = _control_ms()
    report = {
        "schema": 1,
        "python": platform.python_version(),
        "machine": platform.platform(),
        "seed": GenProfile().seed,
        "sizes": sizes,
        "runs": bench_sizes(sizes, queries),
        "control_ms": {"before": control_before, "after": _control_ms()},
    }
    if len(sizes) > 1:
        first, last = report["runs"][str(sizes[0])], report["runs"][str(sizes[-1])]
        report["growth"] = {layer: round(last[layer] / first[layer], 2) for layer in LAYERS}
    return report
