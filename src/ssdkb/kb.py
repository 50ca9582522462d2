"""Knowledge base: typed studies, the raw triple graph they came from, and
the one triple store over it that every later layer reads.

graph_to_kb builds the store and lifts the graph into the typed model through
it; kb_to_graph is its inverse and additionally emits inferred type triples
once the kb has been materialized. Unknown predicates survive untouched.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from decimal import Decimal, InvalidOperation
from itertools import chain
from operator import itemgetter

from . import vocab
from .model import (
    AgeDescription,
    MBDItem,
    Participant,
    Phase,
    PhaseKind,
    Result,
    Study,
    Violation,
    KIND_TO_PHASE_CLASS,
    PHASE_CLASS_TO_KIND,
    validate_study,
)
from .taxonomy import Taxonomy, core_taxonomy
from .terms import (
    BlankNode,
    Iri,
    Literal,
    RDF_TYPE,
    Term,
    gc_paused,
    integer,
    local_name,
)
from .turtle import Triple, TripleGraph


class SchemaError(Exception):
    """The graph does not fit the annotation schema (type clash or
    dangling reference); carries the offending subject term."""

    def __init__(self, message: str, subject: Term):
        super().__init__(f"{message} (subject {subject})")
        self.subject = subject


# a numeric literal's value, by its datatype (`Literal` is `(2, datatype, lexical)`)
NUMBER = {"integer": int, "decimal": Decimal}


class TripleIndex:
    """The triple store that every layer after the reader uses: the triples
    in `all` and, in `by_p`, each predicate's triples. A store is not
    changed once built; `extended` makes a new one. Every other table is
    built per key at its first use, from `by_p`, and kept: each
    predicate's subject table (`subjects`) and object table (`objects`),
    each class's members (`members`), and the sorted `numbers` that a DL
    facet reads. The planners' `stats` are the sizes of a predicate's
    tables, so counting a predicate builds them. A load pays for `by_p`
    alone, and a query for the tables of the predicates and classes it
    reads or counts.

    The lists keep the order of `all`, which is the order given:
    `graph_to_kb` gives term order and `extended` appends its triples in
    term order, so each list of `by_p` and of an object table is one or
    two sorted runs, and each subject table sorts its lists. A join then
    emits rows nearly in the order `eval_sparql` sorts them into. Order
    changes speed, never an answer."""

    def __init__(self, triples):
        self._whole: tuple[int, int, int] | None = None
        self._numbers: dict[Iri, tuple[list, list[Term]]] = {}
        self._subjects: dict[Iri, dict[Term, list[Triple]]] = {}
        self._objects: dict[Iri, dict[Term, list[Triple]]] = {}
        self._members: dict[Iri, set[Term]] = {}
        self._nodes: set[Term] | None = None
        self.all = list(triples)
        self.by_p: dict[Iri, list[Triple]] = {}
        for t in self.all:
            self.by_p.setdefault(t[1], []).append(t)

    def extended(self, triples) -> "TripleIndex":
        """A store over this store's triples plus `triples`, none of which
        this store holds. Only the predicates that `triples` touch are
        merged, into a copy of `by_p`, so this store stays as it was: each
        merged list is this store's run followed by the added triples' run,
        in term order. The new store builds its own other tables."""
        added = TripleIndex(sorted(triples))
        store = TripleIndex(())
        store.all = self.all + added.all
        store.by_p = dict(self.by_p)
        for p, found in added.by_p.items():
            store.by_p[p] = self.by_p[p] + found if p in self.by_p else found
        return store

    def holds(self, term: Term) -> bool:
        """Whether `term` is the subject or the object of a stored triple:
        one probe of the set of both, built from `all` at the first call."""
        if self._nodes is None:
            self._nodes = set(map(itemgetter(0), self.all))
            self._nodes.update(map(itemgetter(2), self.all))
        return term in self._nodes

    def candidates(self, subject, predicate, obj) -> list[Triple]:
        """Triples matching the given constants (None = wildcard). The list
        may be one of the store's own; callers must not change it."""
        if predicate is None:
            if subject is None and obj is None:
                return self.all
            # one lookup per predicate of the store, not a scan of it
            if subject is None:
                return [t for p in self.by_p for t in self.objects(p).get(obj, ())]
            found = [t for p in self.by_p for t in self.subjects(p).get(subject, ())]
            return found if obj is None else [t for t in found if t.object == obj]
        if subject is None:
            if obj is None:
                return self.by_p.get(predicate, [])
            return self.objects(predicate).get(obj, [])
        found = self.subjects(predicate).get(subject, [])
        return found if obj is None else [t for t in found if t.object == obj]

    def subjects(self, predicate: Iri) -> dict[Term, list[Triple]]:
        """Each subject's triples of `predicate`, in term order, built from
        `by_p` at the first call for `predicate`. A caller that looks many
        subjects up reads the table once; the list under a subject is the
        store's own, which callers must not change."""
        found = self._subjects.get(predicate)
        if found is None:
            found = self._subjects[predicate] = _grouped(self.by_p.get(predicate, ()), 0)
            # after an extension a subject's type triples come in two runs;
            # sorting the lists that hold more than one triple costs less
            # than sorting `all`, and copies nothing
            for rows in found.values():
                if len(rows) > 1:
                    rows.sort()
        return found

    def objects(self, predicate: Iri) -> dict[Term, list[Triple]]:
        """Each object's triples of `predicate`, in the order of `by_p`,
        built at the first call for `predicate`. The lists are the store's
        own, which callers must not change."""
        found = self._objects.get(predicate)
        if found is None:
            found = self._objects[predicate] = _grouped(self.by_p.get(predicate, ()), 2)
        return found

    def members(self, cls: Iri) -> set[Term]:
        """The subjects typed `cls`, from the object table of `rdf:type`,
        built at the first call for `cls`: a set that callers must not
        change."""
        found = self._members.get(cls)
        if found is None:
            typed = self.objects(RDF_TYPE).get(cls, ())
            found = self._members[cls] = set(map(itemgetter(0), typed))
        return found

    def stats(self, predicate: Iri | None) -> tuple[int, int, int]:
        """The number of triples, distinct subjects and distinct objects of
        `predicate`: the sizes of its list and of its subject and object
        tables. For None, those of the whole store, counted once."""
        if predicate is not None:
            found = self.by_p.get(predicate, ())
            return len(found), len(self.subjects(predicate)), len(self.objects(predicate))
        if self._whole is None:
            every = self.all
            self._whole = (len(every), len({t[0] for t in every}), len({t[2] for t in every}))
        return self._whole

    def numbers(self, predicate: Iri) -> tuple[list, list[Term]]:
        """The integer and decimal objects of `predicate` as numbers, in
        ascending order, and their subjects in a parallel list. Other
        objects are skipped."""
        found = self._numbers.get(predicate)
        if found is None:
            pairs = sorted(
                (
                    (NUMBER[o[1]](o[2]), s)
                    for s, _, o in self.by_p.get(predicate, ())
                    if isinstance(o, Literal) and o[1] in NUMBER
                ),
                key=itemgetter(0),
            )
            found = self._numbers[predicate] = ([v for v, _ in pairs], [s for _, s in pairs])
        return found


@gc_paused()
def _grouped(triples: list[Triple], position: int) -> dict[Term, list[Triple]]:
    """`triples` grouped by their term at `position`, each list in the
    order of `triples`."""
    table: dict[Term, list[Triple]] = {}
    for t in triples:
        table.setdefault(t[position], []).append(t)
    return table


@dataclass(frozen=True)
class KnowledgeBase:
    graph: TripleGraph
    taxonomy: Taxonomy
    # asserted plus inferred triples: built by graph_to_kb, extended by
    # with_inferred
    store: TripleIndex = field(repr=False, compare=False)
    studies: tuple[Study, ...] = ()
    inferred: frozenset[Triple] = frozenset()
    materialized: bool = False

    def all_triples(self) -> set[Triple]:
        # from the graph, not the store: reference evaluators read this as an
        # input that does not depend on TripleIndex
        return set(self.graph.triples) | self.inferred

    def index(self) -> TripleIndex:
        """The kb's triple store. Only perfbench calls this: its `ingest`
        workload times the call as `kb.index_build`."""
        return self.store

    def with_inferred(self, new: set[Triple]) -> "KnowledgeBase":
        """This kb, materialized, plus the inferred triples `new`, which it lacks."""
        store = self.store.extended(new)
        return replace(self, store=store, inferred=self.inferred | new, materialized=True)


def empty_kb(taxonomy: Taxonomy | None = None) -> KnowledgeBase:
    return graph_to_kb(TripleGraph(), taxonomy)


# --- graph -> typed model ---


def _require_int(value: Term | None, subject: Term, what: str) -> int | None:
    if value is None:
        return None
    if not isinstance(value, Literal) or value.datatype != "integer":
        raise SchemaError(f"{what} must be an integer, got {value}", subject)
    return value.as_int()


def _require_decimal(value: Term | None, subject: Term, what: str) -> Decimal | None:
    if value is None:
        return None
    if not isinstance(value, Literal) or value.datatype not in ("integer", "decimal"):
        raise SchemaError(f"{what} must be numeric, got {value}", subject)
    try:
        return value.as_decimal()
    except InvalidOperation:
        raise SchemaError(f"{what} is not a finite number: {value}", subject)


def _one(rows: list[Triple], predicate: Iri) -> Term | None:
    """The least object of `predicate` among a node's triples `rows` in
    term order, or None if there is none. `rows` are sorted, so that is
    the first."""
    for _, p, o in rows:
        if p == predicate:
            return o
    return None


def _objects(rows: list[Triple], predicate: Iri) -> list[Term]:
    """The objects of `predicate` among a node's sorted triples `rows`,
    in term order."""
    return [o for _, p, o in rows if p == predicate]


def _read_age(node: Term | None, rows: list[Triple]) -> AgeDescription | None:
    if node is None:
        return None
    years = _require_int(_one(rows, vocab.YEARS), node, "years")
    months = _require_int(_one(rows, vocab.MONTHS), node, "months")
    if years is None:
        raise SchemaError("age description lacks a years value", node)
    return AgeDescription(years=years, months=months)


def _read_participant(node: Term, rows: list[Triple], by_s: defaultdict) -> Participant:
    age = _one(rows, vocab.HAS_AGE)
    diagnosed = _one(rows, vocab.DIAGNOSED_AT_AGE)
    return Participant(
        id=node,
        condition=_one(rows, vocab.HAS_CONDITION),
        gender=_one(rows, vocab.HAS_GENDER),
        age=_read_age(age, by_s[age]),
        diagnosed_at_age=_read_age(diagnosed, by_s[diagnosed]),
    )


def _read_phase(node: Term, rows: list[Triple]) -> Phase:
    kind: PhaseKind | None = None
    for typ in _objects(rows, RDF_TYPE):
        if isinstance(typ, Iri) and typ in PHASE_CLASS_TO_KIND:
            kind = PHASE_CLASS_TO_KIND[typ]
        elif isinstance(typ, Iri) and typ == vocab.INTERVENTION_PHASE:
            kind = kind or PhaseKind.SIMPLE_INTERVENTION
    if kind is None:
        raise SchemaError("phase node has no recognized phase type", node)
    position = _require_int(_one(rows, vocab.HAS_POSITION), node, "hasPosition")
    if position is None:
        raise SchemaError("phase lacks a hasPosition value", node)
    return Phase(
        id=node,
        kind=kind,
        position=position,
        intervention_types=tuple(_objects(rows, vocab.HAS_INTERVENTION_TYPE)),
    )


def _read_result(node: Term, rows: list[Triple], by_s: defaultdict) -> Result:
    value = _require_decimal(_one(rows, vocab.HAS_VALUE), node, "hasValue")
    if value is None:
        raise SchemaError("result lacks a hasValue", node)
    instant_node = _one(rows, vocab.OCCURS_IN)
    if instant_node is None:
        raise SchemaError("result lacks an occursIn instant", node)
    instant_value = _one(by_s[instant_node], vocab.HAS_VALUE)
    instant = _require_int(instant_value, instant_node, "instant hasValue")
    if instant is None:
        raise SchemaError("instant lacks a hasValue", instant_node)
    phase_ref = _one(rows, vocab.IS_RESULT_OF_PHASE)
    if phase_ref is None:
        raise SchemaError("result lacks isResultOfPhase", node)
    return Result(
        id=node,
        value=value,
        instant=instant,
        phase_ref=phase_ref,
        intervention_type=_one(rows, vocab.HAS_INTERVENTION_TYPE),
    )


def _asserted_design(rows: list[Triple], taxonomy: Taxonomy) -> Iri | None:
    designs = [
        t
        for t in _objects(rows, RDF_TYPE)
        if isinstance(t, Iri)
        and taxonomy.contains(t)
        and taxonomy.is_subclass_of(t, vocab.SINGLE_SUBJECT_DESIGN)
    ]
    if not designs:
        return None
    # most specific asserted design class
    designs.sort(key=lambda c: (-taxonomy.depth(c), c.value))
    return designs[0]


@gc_paused()
def graph_to_kb(graph: TripleGraph, taxonomy: Taxonomy | None = None) -> KnowledgeBase:
    """Lift a triple graph to typed studies. Raises SchemaError on type
    clashes and dangling references; structural problems beyond that are
    left for validate_study. Each node is read from its own triples,
    grouped by subject for this call only, so the kb keeps no such table.
    The grouping probes its table once per run of triples that share one
    subject instance, and a subject's later runs extend its group: a graph
    in the text's order, as `parse_turtle` gives it, costs one probe per
    statement, and any order of the same triples gives the same kb."""
    taxonomy = taxonomy or core_taxonomy()
    by_s: defaultdict[Term, list[Triple]] = defaultdict(list)
    last = None
    for t in graph.triples:
        if t[0] is not last:
            last = t[0]
            rows = by_s[last]
        rows.append(t)
    for rows in by_s.values():
        rows.sort()
    # the store takes the sorted groups in (kind, text) order of their
    # subjects, which is term order for IRIs and blank nodes; two sorts on
    # plain keys cost less than comparing terms. A literal subject (only
    # `TripleGraph.add` makes one) lands outside term order, which can slow
    # a query but changes no answer.
    subjects = sorted(by_s, key=itemgetter(1))
    subjects.sort(key=itemgetter(0))
    store = TripleIndex(chain.from_iterable(map(by_s.__getitem__, subjects)))
    typed = store.objects(RDF_TYPE)

    study_nodes = sorted(
        {
            node
            for cls, triples in typed.items()
            if taxonomy.contains(cls)
            and taxonomy.is_subclass_of(cls, vocab.SINGLE_SUBJECT_DESIGN)
            for node, _, _ in triples
        }
    )

    def phases_of(rows: list[Triple]) -> tuple[Phase, ...]:
        """The phases of a study or an MBD item, by position."""
        phases = (_read_phase(p, by_s[p]) for p in _objects(rows, vocab.HAS_PHASE))
        return tuple(sorted(phases, key=lambda ph: ph.position))

    # results grouped by the phase they reference
    results_by_phase: dict[Term, list[Result]] = {}
    for node, _, _ in typed.get(vocab.RESULT, ()):
        result = _read_result(node, by_s[node], by_s)
        results_by_phase.setdefault(result.phase_ref, []).append(result)

    phase_nodes = {node for cls in PHASE_CLASS_TO_KIND for node, _, _ in typed.get(cls, ())}
    for phase_ref in results_by_phase:
        if phase_ref not in phase_nodes:
            raise SchemaError("result references a phase that does not exist", phase_ref)

    studies = []
    for node in study_nodes:
        rows = by_s[node]
        participants = tuple(
            _read_participant(p, by_s[p], by_s) for p in _objects(rows, vocab.HAS_PARTICIPANT)
        )
        outcomes = tuple(_objects(rows, vocab.HAS_OUTCOME))
        phases = phases_of(rows)
        items = [
            MBDItem(
                id=item,
                subject=_one(by_s[item], vocab.HAS_PARTICIPANT),
                setting=_one(by_s[item], vocab.HAS_SETTING),
                outcome=_one(by_s[item], vocab.HAS_OUTCOME),
                phases=phases_of(by_s[item]),
            )
            for item in _objects(rows, vocab.HAS_MBD_ITEM)
        ]
        item_type = _one(rows, vocab.HAS_MBD_ITEM_TYPE)
        if item_type is not None and not isinstance(item_type, Iri):
            raise SchemaError("hasMBDItemType must name a class", node)
        results = tuple(
            sorted(
                (
                    r
                    for phase in (phases + tuple(p for it in items for p in it.phases))
                    for r in results_by_phase.get(phase.id, [])
                ),
                key=lambda r: (r.instant, r.id),
            )
        )
        studies.append(
            Study(
                id=node,
                participants=participants,
                outcomes=outcomes,
                phases=phases,
                mbd_items=tuple(items),
                mbd_item_type=item_type,
                results=results,
                asserted_class=_asserted_design(rows, taxonomy),
            )
        )
    return KnowledgeBase(graph=graph, taxonomy=taxonomy, store=store, studies=tuple(studies))


def validate_kb(kb: KnowledgeBase) -> list[Violation]:
    out: list[Violation] = []
    for study in kb.studies:
        out.extend(validate_study(study))
    return out


# --- typed model -> graph ---


def kb_to_graph(kb: KnowledgeBase) -> TripleGraph:
    """Asserted triples, plus inferred type triples when materialized."""
    triples = dict.fromkeys(chain(kb.graph.triples, kb.inferred))
    return TripleGraph(prefix_table=dict(kb.graph.prefix_table), triples=triples)


def study_to_triples(study: Study) -> dict[Triple, None]:
    """Triples asserting one typed study (used by the generator), as an
    ordered set."""
    triples: dict[Triple, None] = {}

    def add(s: Term, p: Iri, o: Term) -> None:
        triples[Triple(s, p, o)] = None

    asserted = study.asserted_class or vocab.SINGLE_SUBJECT_DESIGN
    add(study.id, RDF_TYPE, asserted)
    for participant in study.participants:
        add(study.id, vocab.HAS_PARTICIPANT, participant.id)
        add(participant.id, RDF_TYPE, vocab.PARTICIPANT)
        if participant.condition is not None:
            add(participant.id, vocab.HAS_CONDITION, participant.condition)
        if participant.gender is not None:
            add(participant.id, vocab.HAS_GENDER, participant.gender)
        for prop, age in (
            (vocab.HAS_AGE, participant.age),
            (vocab.DIAGNOSED_AT_AGE, participant.diagnosed_at_age),
        ):
            if age is None:
                continue
            node = BlankNode(f"{local_name(participant.id)}_{local_name(prop)}")
            add(participant.id, prop, node)
            add(node, RDF_TYPE, vocab.AGE_DESCRIPTION)
            add(node, vocab.YEARS, integer(age.years))
            if age.months is not None:
                add(node, vocab.MONTHS, integer(age.months))
    for outcome in study.outcomes:
        add(study.id, vocab.HAS_OUTCOME, outcome)

    def emit_phase(owner: Term, phase: Phase) -> None:
        add(owner, vocab.HAS_PHASE, phase.id)
        add(phase.id, RDF_TYPE, KIND_TO_PHASE_CLASS[phase.kind])
        add(phase.id, vocab.HAS_POSITION, integer(phase.position))
        for it in phase.intervention_types:
            add(phase.id, vocab.HAS_INTERVENTION_TYPE, it)

    for phase in study.phases:
        emit_phase(study.id, phase)
    if study.mbd_item_type is not None:
        add(study.id, vocab.HAS_MBD_ITEM_TYPE, study.mbd_item_type)
    for item in study.mbd_items:
        add(study.id, vocab.HAS_MBD_ITEM, item.id)
        add(item.id, RDF_TYPE, vocab.MBD_ITEM)
        if item.subject is not None:
            add(item.id, vocab.HAS_PARTICIPANT, item.subject)
        if item.setting is not None:
            add(item.id, vocab.HAS_SETTING, item.setting)
        if item.outcome is not None:
            add(item.id, vocab.HAS_OUTCOME, item.outcome)
        for phase in item.phases:
            emit_phase(item.id, phase)

    for result in study.results:
        add(result.id, RDF_TYPE, vocab.RESULT)
        add(result.id, vocab.HAS_VALUE, Literal(str(result.value), "decimal"))
        instant_node = BlankNode(f"{local_name(result.id)}_inst")
        add(result.id, vocab.OCCURS_IN, instant_node)
        add(instant_node, RDF_TYPE, vocab.INSTANT)
        add(instant_node, vocab.HAS_VALUE, integer(result.instant))
        add(result.id, vocab.IS_RESULT_OF_PHASE, result.phase_ref)
        if result.intervention_type is not None:
            add(result.id, vocab.HAS_INTERVENTION_TYPE, result.intervention_type)
    return triples


# --- stats ---


@dataclass(frozen=True)
class KbStats:
    study_count: int
    triple_count: int
    individual_count: int
    per_class_counts: dict[str, int] = field(default_factory=dict)


def kb_stats(kb: KnowledgeBase) -> KbStats:
    """Exact counts over the kb's asserted and inferred triples.
    Individuals are IRI/blank nodes occurring in individual positions:
    subjects, plus non-class objects of non-type triples. Each kind test
    runs once per distinct subject and once per distinct object of the
    non-type triples; the class counts come from the object table of
    `rdf:type`, the only one this builds."""
    store = kb.store
    is_class = kb.taxonomy.contains
    subjects = set(map(itemgetter(0), store.all))
    individuals = {s for s in subjects if isinstance(s, (Iri, BlankNode))}
    objects: set[Term] = set()
    for p, triples in store.by_p.items():
        if p != RDF_TYPE:
            objects.update(map(itemgetter(2), triples))
    # hasMBDItemType points at a class, not an individual
    individuals.update(
        o for o in objects if isinstance(o, BlankNode) or isinstance(o, Iri) and not is_class(o)
    )
    # the store's triples are distinct, so each class has one type triple
    # per member
    per_class: dict[str, int] = {}
    for cls, triples in store.objects(RDF_TYPE).items():
        if isinstance(cls, Iri):
            name = local_name(cls)
            per_class[name] = per_class.get(name, 0) + len(triples)
    return KbStats(
        study_count=len(kb.studies),
        triple_count=len(store.all),
        individual_count=len(individuals),
        per_class_counts=dict(sorted(per_class.items())),
    )
