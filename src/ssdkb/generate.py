"""Deterministic synthetic-study generator.

The seed is its only setting; every study has the same fixed shape. Designs
are drawn by the shares in `DESIGN_MIX`, each phase has 4-7 results, each
study 1-2 participants (more for an across-subject design), and the
interventions and outcomes come from pools of 20 and 12 individuals.
Per-study sub-seeds derive from (seed, study index), so generation is
reproducible and order-independent. Result values come from
phase-dependent normal distributions (baseline mean 10, intervention mean
20, follow-up mean 18, sd 2) so best-result queries are non-degenerate.

The generator adds each study's triples to the graph as it draws them; it
builds no typed study. The order of the draws is part of the output: each
value comes from the study's one random stream, so drawing anything in
another order (a non-multiple-baseline study's outcome comes after its
results, for one) changes the corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import vocab
from .kb import KnowledgeBase, graph_to_kb
from .terms import RDF_TYPE, BlankNode, Iri, Literal, Term, aut, gc_paused, integer, ssd
from .turtle import TripleGraph

BASELINE_MEAN = 10.0
INTERVENTION_MEAN = 20.0
FOLLOW_UP_MEAN = 18.0
VALUE_SD = 2.0

CONDITIONS = ("autism", "adhd", "anxiety", "aphasia", "dyslexia")
GENDERS = ("male", "female")
SETTINGS = ("home", "school", "playground", "clinic", "workplace")

# the designs the generator draws, each with the class its studies assert
DESIGN_CLASS = {
    "AB": vocab.AB_DESIGN,
    "ABAB": vocab.ABAB_DESIGN,
    "ABAB_F": vocab.ABAB_DESIGN,
    "AlternatingTreatment": vocab.ALTERNATING_TREATMENT_DESIGN,
    "AcrossSettingMBD": vocab.ACROSS_SETTING_MBD,
    "AcrossSubjectMBD": vocab.ACROSS_SUBJECT_MBD,
    "AcrossOutcomeMBD": vocab.ACROSS_OUTCOME_MBD,
}
# each design's share of the studies
DESIGN_MIX = {
    "AB": 0.30,
    "ABAB": 0.20,
    "ABAB_F": 0.10,
    "AlternatingTreatment": 0.10,
    "AcrossSettingMBD": 0.10,
    "AcrossSubjectMBD": 0.10,
    "AcrossOutcomeMBD": 0.10,
}
_DESIGNS = sorted(DESIGN_MIX)
_WEIGHTS = [DESIGN_MIX[name] for name in _DESIGNS]
RESULTS_PER_PHASE = (4, 7)
PARTICIPANTS_PER_STUDY = (1, 2)
INTERVENTIONS = tuple(aut(f"intv{i:03d}") for i in range(1, 21))
# keep the attested outcome individual in the pool so the published example
# queries are answerable over generated data
OUTCOMES = (aut("correct_answers_wh"),) + tuple(aut(f"outcome{i:03d}") for i in range(2, 13))


@dataclass(frozen=True)
class GenProfile:
    """The generator's one setting."""

    seed: int = 1


# each phase letter's class, and the mean of its results' values
_PHASES = {
    "B": (vocab.BASELINE_PHASE, BASELINE_MEAN),
    "I": (vocab.SIMPLE_INTERVENTION_PHASE, INTERVENTION_MEAN),
    "A": (vocab.ALTERNATING_INTERVENTION_PHASE, INTERVENTION_MEAN),
    "F": (vocab.FOLLOW_UP_PHASE, FOLLOW_UP_MEAN),
}
# the phase letters of each single-sequence design
_SIGNATURE = {"AB": "BI", "ABAB": "BIBI", "ABAB_F": "BIBIF", "AlternatingTreatment": "BA"}
# what a phase's results need of it: its id, their mean and its intervention types
_Phase = tuple[Iri, float, tuple[Term, ...]]


def _add_phases(
    graph: TripleGraph, rng: random.Random, owner: Iri, sig: str, prefix: str
) -> list[_Phase]:
    """Adds `owner`'s phases, in the order of the letters of `sig`."""
    phases = []
    for pos, letter in enumerate(sig, start=1):
        phase = ssd(f"{prefix}_ph{pos}")
        if letter == "I":
            types: tuple[Term, ...] = (rng.choice(INTERVENTIONS),)
        elif letter == "A":
            types = tuple(rng.sample(INTERVENTIONS, 2))
        else:
            types = ()
        graph.add(owner, vocab.HAS_PHASE, phase)
        phase_class, mean = _PHASES[letter]
        graph.add(phase, RDF_TYPE, phase_class)
        graph.add(phase, vocab.HAS_POSITION, integer(pos))
        for itype in types:
            graph.add(phase, vocab.HAS_INTERVENTION_TYPE, itype)
        phases.append((phase, mean, types))
    return phases


def _add_results(
    graph: TripleGraph, rng: random.Random, phases: list[_Phase], prefix: str, instant: int = 1
) -> int:
    """Adds each phase's results, numbered from `instant` on; returns the
    next instant."""
    counter = 1
    for phase, mean, types in phases:
        for _ in range(rng.randint(*RESULTS_PER_PHASE)):
            itype = rng.choice(types) if types else None
            value = max(0.0, rng.gauss(mean, VALUE_SD))
            result = ssd(f"{prefix}_res{counter:03d}")
            node = BlankNode(f"{prefix}_res{counter:03d}_inst")
            graph.add(result, RDF_TYPE, vocab.RESULT)
            graph.add(result, vocab.HAS_VALUE, Literal(f"{value:.1f}", "decimal"))
            graph.add(result, vocab.OCCURS_IN, node)
            graph.add(node, RDF_TYPE, vocab.INSTANT)
            graph.add(node, vocab.HAS_VALUE, integer(instant))
            graph.add(result, vocab.IS_RESULT_OF_PHASE, phase)
            if itype is not None:
                graph.add(result, vocab.HAS_INTERVENTION_TYPE, itype)
            counter += 1
            instant += 1
    return instant


def _add_participant(
    graph: TripleGraph, rng: random.Random, study: Iri, prefix: str, index: int
) -> Iri:
    years = rng.randint(2, 16)
    months = rng.randint(0, 11)
    diag_years = rng.randint(1, years)
    participant = ssd(f"{prefix}_p{index}")
    graph.add(study, vocab.HAS_PARTICIPANT, participant)
    graph.add(participant, RDF_TYPE, vocab.PARTICIPANT)
    graph.add(participant, vocab.HAS_CONDITION, ssd(rng.choice(CONDITIONS)))
    graph.add(participant, vocab.HAS_GENDER, ssd(rng.choice(GENDERS)))
    age = BlankNode(f"{prefix}_p{index}_hasAge")
    graph.add(participant, vocab.HAS_AGE, age)
    graph.add(age, RDF_TYPE, vocab.AGE_DESCRIPTION)
    graph.add(age, vocab.YEARS, integer(years))
    graph.add(age, vocab.MONTHS, integer(months))
    diagnosed = BlankNode(f"{prefix}_p{index}_diagnosedAtAge")
    graph.add(participant, vocab.DIAGNOSED_AT_AGE, diagnosed)
    graph.add(diagnosed, RDF_TYPE, vocab.AGE_DESCRIPTION)
    graph.add(diagnosed, vocab.YEARS, integer(diag_years))
    return participant


def _draw_design(index: int, profile: GenProfile) -> tuple[str, random.Random]:
    """Study `index`'s design label, and its random stream after that draw."""
    rng = random.Random(profile.seed * 1_000_003 + index)
    return rng.choices(_DESIGNS, weights=_WEIGHTS, k=1)[0], rng


def _add_study(graph: TripleGraph, index: int, profile: GenProfile) -> None:
    design, rng = _draw_design(index, profile)
    prefix = f"study{index:05d}"
    study = ssd(prefix)
    graph.add(study, RDF_TYPE, DESIGN_CLASS[design])
    participants = [
        _add_participant(graph, rng, study, prefix, i)
        for i in range(1, rng.randint(*PARTICIPANTS_PER_STUDY) + 1)
    ]

    if design in _SIGNATURE:
        phases = _add_phases(graph, rng, study, _SIGNATURE[design], prefix)
        _add_results(graph, rng, phases, prefix)
        # the outcome is drawn after the results
        graph.add(study, vocab.HAS_OUTCOME, rng.choice(OUTCOMES))
        return

    # multiple-baseline designs: 2-3 parallel items, varying in one dimension
    n_items = rng.randint(2, 3)
    base_outcome = rng.choice(OUTCOMES)
    base_setting = ssd(rng.choice(SETTINGS))
    graph.add(study, vocab.HAS_OUTCOME, base_outcome)
    graph.add(study, vocab.HAS_MBD_ITEM_TYPE, vocab.SIMPLE_DESIGN)
    base_subject = participants[0]
    if design == "AcrossSettingMBD":
        dims = [(base_subject, ssd(s), base_outcome) for s in rng.sample(SETTINGS, n_items)]
    elif design == "AcrossSubjectMBD":
        # one participant per item
        participants += [
            _add_participant(graph, rng, study, prefix, i)
            for i in range(len(participants) + 1, n_items + 1)
        ]
        dims = [(subject, base_setting, base_outcome) for subject in participants[:n_items]]
    else:  # AcrossOutcomeMBD
        dims = [(base_subject, base_setting, o) for o in rng.sample(OUTCOMES, n_items)]

    instant = 1
    for i, (subject, setting, outcome) in enumerate(dims, start=1):
        item_prefix = f"{prefix}_item{i}"
        item = ssd(item_prefix)
        graph.add(study, vocab.HAS_MBD_ITEM, item)
        graph.add(item, RDF_TYPE, vocab.MBD_ITEM)
        graph.add(item, vocab.HAS_PARTICIPANT, subject)
        graph.add(item, vocab.HAS_SETTING, setting)
        graph.add(item, vocab.HAS_OUTCOME, outcome)
        phases = _add_phases(graph, rng, item, "BI", item_prefix)
        instant = _add_results(graph, rng, phases, item_prefix, instant)


def generated_design(index: int, profile: GenProfile) -> str:
    """The design label sampled for study `index` (for label-vs-classifier
    checks)."""
    return _draw_design(index, profile)[0]


@gc_paused()
def generate_graph(n: int, profile: GenProfile | None = None) -> TripleGraph:
    if n < 0:
        raise ValueError(f"study count must be non-negative, got {n}")
    profile = profile or GenProfile()
    graph = TripleGraph()
    if n > 0:
        for iri in INTERVENTIONS:
            graph.add(iri, RDF_TYPE, vocab.PEER_MEDIATED_INTERVENTION)
        for iri in OUTCOMES:
            graph.add(iri, RDF_TYPE, vocab.COMMUNICATION_OUTCOME)
            graph.add(iri, vocab.IN_FORM_OF, ssd("percentage"))
    for index in range(n):
        _add_study(graph, index, profile)
    return graph


def generate_studies(n: int, profile: GenProfile | None = None) -> KnowledgeBase:
    """A valid knowledge base of `n` synthetic studies; identical inputs
    produce identical kbs."""
    return graph_to_kb(generate_graph(n, profile))
