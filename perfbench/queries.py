"""The query-mix: ten DL and SPARQL templates, constants drawn from the
corpus, and a naive evaluator that checks every distinct query instance.

The templates copy the competency questions and published examples kept
in the repository's `queries/` directory, with their constants (age
bounds, condition, setting, phase id, outcome) turned into parameters.
The copy is deliberate: the benchmark must keep measuring the same
queries if that directory changes.

The weights keep the median and the 90th percentile of the mix's latency
away from the edge between a fast band and a slow one, where a small
shift in the shares drawn would move them. On the seed commit at 1000
studies, dl_results_of_phase (about 18 ms) spans the 35th to 65th
percentiles. cq_type_of_study and cq_by_intervention (about 28-32 ms)
span the 65th to 96th.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable

from ssdkb import vocab
from ssdkb.dlquery import eval_dl_query, parse_dl_query
from ssdkb.sparql import eval_sparql, parse_sparql
from ssdkb.terms import RDF_TYPE, aut, local_name, ssd

SPARQL_PREFIXES = """PREFIX ssid: <http://bdi.si.ehu.es/bdi/ontologies/SSDOnt/SSDOnt#>
PREFIX aut: <http://bdi.si.ehu.es/bdi/ontologies/SSDOnt/SSDOntAutism#>
"""


class Facts:
    """Plain lookups over a kb's asserted plus inferred triples, built
    without the program's own index, for the oracles below."""

    def __init__(self, triples):
        self.members: dict = defaultdict(set)  # class -> subjects
        self.types: dict = defaultdict(set)  # subject -> classes
        self.out: dict = defaultdict(list)  # (subject, predicate) -> objects
        self.pairs: dict = defaultdict(list)  # predicate -> [(subject, object)]
        for t in triples:
            if t.predicate == RDF_TYPE:
                self.members[t.object].add(t.subject)
                self.types[t.subject].add(t.object)
            self.out[(t.subject, t.predicate)].append(t.object)
            self.pairs[t.predicate].append((t.subject, t.object))

    def subjects(self, predicate, objects) -> set:
        return {s for s, o in self.pairs[predicate] if o in objects}

    def years(self, accept: Callable[[int], bool]) -> set:
        return {a for a, y in self.pairs[vocab.YEARS] if accept(int(y.lexical))}

    def participants_aged(self, ages: set) -> set:
        people = self.subjects(vocab.HAS_AGE, ages) & self.members[vocab.PARTICIPANT]
        return self.subjects(vocab.HAS_PARTICIPANT, people)


def _age_range(f: Facts, lo, hi):
    ages = f.years(lambda y: y >= lo) & f.years(lambda y: y <= hi)
    return f.participants_aged(ages) & f.members[vocab.SINGLE_SUBJECT_DESIGN]


def _by_condition(f: Facts, condition):
    people = f.subjects(vocab.HAS_CONDITION, {ssd(condition)})
    return f.subjects(vocab.HAS_PARTICIPANT, people) & f.members[vocab.SINGLE_SUBJECT_DESIGN]


def _by_intervention(f: Facts):
    phases = f.subjects(vocab.HAS_INTERVENTION_TYPE, f.members[vocab.PEER_MEDIATED_INTERVENTION])
    return f.subjects(vocab.HAS_PHASE, phases) & f.members[vocab.SINGLE_SUBJECT_DESIGN]


def _type_of_study(f: Facts):
    return Counter(
        (s, t) for s in f.members[vocab.SINGLE_SUBJECT_DESIGN] for t in f.types[s]
    )


def _across_setting_complex(f: Facts, age, setting):
    young = f.participants_aged(f.years(lambda y: y < age))
    items = f.subjects(vocab.HAS_SETTING, {ssd(setting)}) & f.members[vocab.ACROSS_SETTING_MBD_ITEM]
    with_item = f.subjects(vocab.HAS_MBD_ITEM, items)
    return f.members[vocab.ACROSS_SETTING_MBD] & young & with_item


def _results_of_phase(f: Facts, phase):
    return f.subjects(vocab.IS_RESULT_OF_PHASE, {ssd(phase)}) & f.members[vocab.RESULT]


def _best_result(f: Facts, outcome):
    """Every row that may come first under ORDER BY DESC(?val); ties may
    come in any order."""
    results_of = defaultdict(list)
    for res, ph in f.pairs[vocab.IS_RESULT_OF_PHASE]:
        results_of[ph].append(res)
    rows = []
    for study in f.members[vocab.AB_DESIGN]:
        if aut(outcome) not in f.out[(study, vocab.HAS_OUTCOME)]:
            continue
        for ph in f.out[(study, vocab.HAS_PHASE)]:
            if vocab.SIMPLE_INTERVENTION_PHASE not in f.types[ph]:
                continue
            for kind in f.out[(ph, vocab.HAS_INTERVENTION_TYPE)]:
                if vocab.PEER_MEDIATED_INTERVENTION not in f.types[kind]:
                    continue
                for res in results_of[ph]:
                    rows.extend((study, kind, val) for val in f.out[(res, vocab.HAS_VALUE)])
    if not rows:
        return set()
    best = max(Decimal(val.lexical) for _, _, val in rows)
    return {row for row in rows if Decimal(row[2].lexical) == best}


@dataclass(frozen=True)
class Template:
    name: str
    language: str  # "dl" | "sparql"
    text: str  # str.format pattern over the drawn constants
    weight: float
    draw: Callable  # (rng, Pools) -> dict of constants
    oracle: Callable  # (Facts, **constants) -> expected answer
    answer: str = "set"  # "set" | "rows" (a bag) | "top1" (one best row)


class Pools:
    """Candidates for each constant, taken from the kb's studies so that
    every drawn query has answers."""

    def __init__(self, kb):
        self.participants = [p for s in kb.studies for p in s.participants if p.age is not None]
        self.across_setting = [
            s for s in kb.studies if s.asserted_class == vocab.ACROSS_SETTING_MBD
        ]
        self.ab = [s for s in kb.studies if s.asserted_class == vocab.AB_DESIGN]
        self.phases = [ph.id for s in kb.studies for ph in s.all_phases()]


def _draw_age_range(rng, pools):
    years = rng.choice(pools.participants).age.years
    return {"lo": years - rng.randint(0, 2), "hi": years + rng.randint(0, 2)}


def _draw_condition(rng, pools):
    return {"condition": local_name(rng.choice(pools.participants).condition)}


def _draw_across_setting(rng, pools):
    study = rng.choice(pools.across_setting)
    person = rng.choice(study.participants)
    item = rng.choice(study.mbd_items)
    return {"age": person.age.years + rng.randint(1, 3), "setting": local_name(item.setting)}


def _draw_phase(rng, pools):
    return {"phase": local_name(rng.choice(pools.phases))}


def _draw_outcome(rng, pools):
    return {"outcome": local_name(rng.choice(pools.ab).outcomes[0])}


def _fixed(rng, pools):
    return {}


def _named_class(cls):
    return lambda f: set(f.members[cls])


TEMPLATES = (
    Template("cq_across_outcome", "dl", "AcrossOutcomeMBD", 0.05, _fixed,
             _named_class(vocab.ACROSS_OUTCOME_MBD)),
    Template("cq_across_setting", "dl", "AcrossSettingMBD", 0.05, _fixed,
             _named_class(vocab.ACROSS_SETTING_MBD)),
    Template("cq_across_subject", "dl", "AcrossSubjectMBD", 0.05, _fixed,
             _named_class(vocab.ACROSS_SUBJECT_MBD)),
    Template(
        "cq_age_range", "dl",
        "SingleSubjectDesign and hasParticipant some (Participant and hasAge some "
        "(years some xsd:int[>={lo}] and years some xsd:int[<={hi}]))",
        0.075, _draw_age_range, _age_range,
    ),
    Template(
        "cq_by_condition", "dl",
        "SingleSubjectDesign and hasParticipant some (hasCondition value {condition})",
        0.05, _draw_condition, _by_condition,
    ),
    Template(
        "cq_by_intervention", "dl",
        "SingleSubjectDesign and hasPhase some (hasInterventionType some "
        "Peer-mediatedIntervention)",
        0.16, _fixed, _by_intervention,
    ),
    Template(
        "cq_type_of_study", "sparql",
        SPARQL_PREFIXES + "SELECT ?study ?type\n"
        "WHERE {{ ?study a ssid:SingleSubjectDesign ; a ?type }}\n",
        0.15, _fixed, _type_of_study, "rows",
    ),
    Template(
        "dl_across_setting_complex", "dl",
        "AcrossSettingMBD and hasParticipant some (Participant and hasAge some "
        "(years some xsd:int[<{age}])) and hasMBDItem some (AcrossSettingMBDItem "
        "and hasSetting value {setting})",
        0.075, _draw_across_setting, _across_setting_complex,
    ),
    Template(
        "dl_results_of_phase", "dl",
        "Result and isResultOfPhase some {{{phase}}}",
        0.30, _draw_phase, _results_of_phase,
    ),
    Template(
        "sparql_best_result", "sparql",
        SPARQL_PREFIXES + "SELECT ?study ?interType ?val\nWHERE {{\n"
        "  ?study a ssid:AB_Design ; ssid:hasOutcome aut:{outcome} ; ssid:hasPhase ?ph .\n"
        "  ?ph a ssid:SimpleInterventionPhase ; ssid:hasInterventionType ?interType .\n"
        "  ?interType a aut:Peer-mediatedIntervention .\n"
        "  ?res ssid:isResultOfPhase ?ph ; ssid:hasValue ?val\n"
        "}} order by DESC(?val) LIMIT 1\n",
        0.04, _draw_outcome, _best_result, "top1",
    ),
)


class QueryMix:
    """Seeded draws of (template, constants, query text)."""

    def __init__(self, kb, seed):
        self.rng = random.Random(f"query-mix:{seed}")
        self.pools = Pools(kb)
        self.weights = [t.weight for t in TEMPLATES]

    def draw(self, template: Template | None = None):
        if template is None:
            template = self.rng.choices(TEMPLATES, weights=self.weights)[0]
        constants = template.draw(self.rng, self.pools)
        return template, constants, template.text.format(**constants)


def run_query(tracer, template: Template, text: str, kb):
    """Text in, answer out: the timed part of one query operation."""
    if template.language == "dl":
        expr = tracer.call("dlquery.parse", parse_dl_query, text)
        return tracer.call("dlquery.eval", eval_dl_query, expr, kb)
    query = tracer.call("sparql.parse", parse_sparql, text)
    return tracer.call("sparql.eval", eval_sparql, query, kb)


def row_count(output) -> int:
    return len(output.rows) if hasattr(output, "rows") else len(output)


def _normalize(template: Template, output):
    if template.answer == "set":
        return frozenset(output)
    if template.answer == "rows":
        return Counter(output.rows)
    return tuple(output.rows)


def _matches(template: Template, answer, expected) -> bool:
    if template.answer == "top1":
        return len(answer) == 1 and answer[0] in expected
    return bool(expected) and answer == expected


class Answers:
    """The first answer to each distinct query text, how many operations
    asked it, and whether later answers agreed with the first."""

    def __init__(self):
        self.seen: dict[str, list] = {}  # text -> [template, constants, answer, asked]

    def record(self, template: Template, constants: dict, text: str, output) -> bool:
        answer = _normalize(template, output)
        entry = self.seen.get(text)
        if entry is None:
            self.seen[text] = [template, constants, answer, 1]
            return True
        entry[3] += 1
        return entry[2] == answer

    def verify(self, kb) -> int:
        """Operations whose query text the naive evaluator answers
        differently (or with nothing: every drawn query has answers)."""
        facts = Facts(kb.all_triples())
        wrong = 0
        for template, constants, answer, asked in self.seen.values():
            if not _matches(template, answer, template.oracle(facts, **constants)):
                wrong += asked
        return wrong
