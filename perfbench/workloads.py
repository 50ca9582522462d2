"""The three workloads and the pipeline steps they share.

Each workload is a single-client closed loop: the runner asks it for the
next operation, times that operation, then checks its output off the
clock. A workload has four steps:

- `set_up()`: timed, repeated, reported as the median in `setup_s`;
- `start()`: off the clock, once, before the timed loop;
- `next_op()`: returns `(name, run, check)`; `run()` is timed and its
  result goes to `check(result) -> bool` off the clock;
- `finish()`: off the clock, after the loop; returns the number of
  operations that its whole-run checks found wrong.

The program sees only the Turtle or query text the benchmark generates
from the seed.

Before each set-up, and before each operation of a workload whose
`collect_before_op` is set, the runner runs a full garbage collection off
the clock. Each such operation then starts from the collector state of a
fresh `ssdkb` process, which is how the CLI loads or generates a corpus;
otherwise whether the next full collection falls inside an operation
depends on the operations before it. Queries run in a long-lived process
that holds the kb, so the query-mix keeps the collector's state.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain

from ssdkb.classify import materialize_types
from ssdkb.generate import DESIGN_CLASS, GenProfile, generate_graph, generated_design
from ssdkb.kb import graph_to_kb, kb_stats, validate_kb
from ssdkb.terms import RDF_TYPE, ssd
from ssdkb.turtle import parse_turtle, serialize_turtle

from queries import TEMPLATES, Answers, QueryMix, row_count, run_query

INGEST_STUDIES = 1000
QUERY_STUDIES = 1000
GEN_STUDIES = 1000
WARMUP_STUDIES = 100


def export(tracer, studies: int, seed: int):
    """Synthetic corpus to Turtle text: the `ssdkb gen` path."""
    graph = tracer.call("generate.graph", generate_graph, studies, GenProfile(seed=seed))
    return graph, tracer.call("turtle.serialize", serialize_turtle, graph)


def load(tracer, text: str, counts: dict):
    """Turtle text to a queryable kb: the path every CLI command pays."""
    counts["turtle.chars"] = len(text)
    graph = tracer.call("turtle.parse", parse_turtle, text)
    counts["turtle.triples"] = len(graph.triples)
    kb = tracer.call("kb.lift", graph_to_kb, graph)
    kb = tracer.call("classify.materialize", materialize_types, kb)
    tracer.call("kb.index_build", kb.index)
    stats = tracer.call("kb.stats", kb_stats, kb)
    counts["kb.studies"] = len(kb.studies)
    counts["classify.inferred_triples"] = len(kb.inferred)
    counts["kb.materialized_per_asserted"] = stats.triple_count / len(kb.graph.triples)
    return kb


def warm_up(tracer, seed: int, counts: dict, rows: dict) -> bool:
    """Every layer once on a small corpus, before anything is timed: lazy
    set-up in the program finishes here, and a layer that a workload never
    calls still gets a measured figure in the traced run."""
    with tracer.op("warmup", "warmup"):
        _, text = export(tracer, WARMUP_STUDIES, seed)
        kb = load(tracer, text, counts)
        valid = tracer.call("model.validate", validate_kb, kb) == []
        mix = QueryMix(kb, seed)
        answers = Answers()
        for template in TEMPLATES:
            template, constants, query = mix.draw(template)
            with tracer.op(f"query.{template.name}", None):
                output = run_query(tracer, template, query, kb)
            rows[template.name] = row_count(output)
            answers.record(template, constants, query, output)
        return valid and answers.verify(kb) == 0


def _design_classes_ok(kb, profile: GenProfile, studies: int) -> bool:
    """Each study is typed (asserted or inferred) with the class its
    generated design label implies, and with all of that class's
    superclasses."""
    types = defaultdict(set)
    for t in chain(kb.graph.triples, kb.inferred):
        if t.predicate == RDF_TYPE:
            types[t.subject].add(t.object)
    for index in range(studies):
        implied = DESIGN_CLASS[generated_design(index, profile)]
        if not kb.taxonomy.superclasses(implied) <= types[ssd(f"study{index:05d}")]:
            return False
    return True


class Ingest:
    """Set-up makes the corpus text; each operation turns it into a
    queryable kb."""

    name = "ingest"
    op_kinds = 1
    collect_before_op = True

    def __init__(self, seed, tracer, counts, rows):
        self.seed, self.tracer, self.counts = seed, tracer, counts
        self.graph = self.text = None

    def set_up(self):
        self.graph = self.text = None
        self.graph, self.text = export(self.tracer, INGEST_STUDIES, self.seed)

    def start(self):
        with self.tracer.op("check", "check"):
            reference = self.tracer.call("kb.lift", graph_to_kb, self.graph)
        self.expected_triples = len(self.graph.triples)
        self.expected_studies = reference.studies
        self.graph = None

    def next_op(self):
        return self.name, lambda: load(self.tracer, self.text, self.counts), self.check

    def check(self, kb) -> bool:
        return (
            len(kb.graph.triples) == self.expected_triples
            and kb.studies == self.expected_studies
            and self.tracer.call("model.validate", validate_kb, kb) == []
            and _design_classes_ok(kb, GenProfile(seed=self.seed), INGEST_STUDIES)
        )

    def finish(self) -> int:
        return 0


class QueryMixLoad:
    """Set-up turns the corpus text into a queryable kb; each operation is
    one query of the seeded mix, from text to answer."""

    name = "query-mix"
    op_kinds = len(TEMPLATES)
    collect_before_op = False

    def __init__(self, seed, tracer, counts, rows):
        self.seed, self.tracer, self.counts, self.rows = seed, tracer, counts, rows
        with tracer.op("input", "input"):
            _, self.text = export(tracer, QUERY_STUDIES, seed)
        self.kb = None

    def set_up(self):
        self.kb = None
        self.kb = load(self.tracer, self.text, self.counts)

    def start(self):
        self.mix = QueryMix(self.kb, self.seed)
        self.answers = Answers()
        self.first_rows = {}

    def next_op(self):
        template, constants, text = self.mix.draw()

        def check(output) -> bool:
            self.first_rows.setdefault(template.name, row_count(output))
            return self.answers.record(template, constants, text, output)

        return f"query.{template.name}", lambda: run_query(self.tracer, template, text, self.kb), check

    def finish(self) -> int:
        self.rows.update(self.first_rows)
        with self.tracer.op("check", "check"):
            valid = self.tracer.call("model.validate", validate_kb, self.kb) == []
        wrong = self.answers.verify(self.kb)
        asked = sum(entry[3] for entry in self.answers.seen.values())
        return asked if not valid else wrong


class GenExport:
    """No set-up beyond importing the program; each operation generates
    and serializes a corpus from its own sub-seed."""

    name = "gen-export"
    op_kinds = 1
    collect_before_op = True

    def __init__(self, seed, tracer, counts, rows):
        self.seed, self.tracer, self.counts = seed, tracer, counts
        self.ops = 0
        self.first = None

    def set_up(self):
        pass

    def start(self):
        pass

    def next_op(self):
        sub_seed = self.seed * 1000 + self.ops
        self.ops += 1

        def check(output) -> bool:
            graph, text = output
            if self.first is None:
                self.first = (sub_seed, text, len(graph.triples))
            # one blank-line-separated block per subject, after the prefixes
            return text.count("\n\n") == len({t.subject for t in graph.triples})

        return self.name, lambda: export(self.tracer, GEN_STUDIES, sub_seed), check

    def finish(self) -> int:
        """Regenerating the first operation's sub-seed gives the same bytes,
        and re-parsing its text gives its graph's triple count."""
        if self.first is None:  # the first operation raised; it counts already
            return 0
        sub_seed, text, triples = self.first
        with self.tracer.op("check", "check"):
            _, again = export(self.tracer, GEN_STUDIES, sub_seed)
            parsed = self.tracer.call("turtle.parse", parse_turtle, text)
        self.counts["turtle.chars"] = len(text)
        self.counts["turtle.triples"] = len(parsed.triples)
        return int(again != text or len(parsed.triples) != triples)


WORKLOADS = {w.name: w for w in (Ingest, QueryMixLoad, GenExport)}
