"""Deterministic synthetic-study generator.

The seed is its only setting; every study has the same fixed shape. Designs
are drawn by the shares in `DESIGN_MIX`, each phase has 4-7 results, each
study 1-2 participants (more for an across-subject design), and the
interventions and outcomes come from pools of 20 and 12 individuals.
Per-study sub-seeds derive from (seed, study index), so generation is
reproducible and order-independent. Result values come from
phase-dependent normal distributions (baseline mean 10, intervention mean
20, follow-up mean 18, sd 2) so best-result queries are non-degenerate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from decimal import Decimal

from . import vocab
from .kb import KnowledgeBase, graph_to_kb, study_to_triples
from .model import AgeDescription, MBDItem, Participant, Phase, PhaseKind, Result, Study
from .terms import RDF_TYPE, Term, aut, gc_paused, ssd
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


def _value(rng: random.Random, kind: PhaseKind) -> Decimal:
    mean = {
        PhaseKind.BASELINE: BASELINE_MEAN,
        PhaseKind.SIMPLE_INTERVENTION: INTERVENTION_MEAN,
        PhaseKind.ALTERNATING_INTERVENTION: INTERVENTION_MEAN,
        PhaseKind.FOLLOW_UP: FOLLOW_UP_MEAN,
    }[kind]
    return Decimal(f"{max(0.0, rng.gauss(mean, VALUE_SD)):.1f}")


def _signature_for(design: str) -> str:
    return {
        "AB": "BI",
        "ABAB": "BIBI",
        "ABAB_F": "BIBIF",
        "AlternatingTreatment": "BA",
    }[design]


def _make_phases(rng: random.Random, sig: str, prefix: str) -> list[Phase]:
    phases = []
    for pos, letter in enumerate(sig, start=1):
        kind = PhaseKind(letter)
        if kind is PhaseKind.SIMPLE_INTERVENTION:
            types: tuple[Term, ...] = (rng.choice(INTERVENTIONS),)
        elif kind is PhaseKind.ALTERNATING_INTERVENTION:
            types = tuple(rng.sample(INTERVENTIONS, 2))
        else:
            types = ()
        phases.append(
            Phase(id=ssd(f"{prefix}_ph{pos}"), kind=kind, position=pos, intervention_types=types)
        )
    return phases


def _make_results(
    rng: random.Random,
    phases: list[Phase],
    prefix: str,
    start_instant: int = 1,
) -> tuple[list[Result], int]:
    results = []
    instant = start_instant
    counter = 1
    for phase in phases:
        for _ in range(rng.randint(*RESULTS_PER_PHASE)):
            if phase.kind in (PhaseKind.SIMPLE_INTERVENTION, PhaseKind.ALTERNATING_INTERVENTION):
                itype = rng.choice(phase.intervention_types)
            else:
                itype = None
            results.append(
                Result(
                    id=ssd(f"{prefix}_res{counter:03d}"),
                    value=_value(rng, phase.kind),
                    instant=instant,
                    phase_ref=phase.id,
                    intervention_type=itype,
                )
            )
            counter += 1
            instant += 1
    return results, instant


def _make_participant(rng: random.Random, prefix: str, index: int) -> Participant:
    years = rng.randint(2, 16)
    months = rng.randint(0, 11)
    diag_years = rng.randint(1, years)
    return Participant(
        id=ssd(f"{prefix}_p{index}"),
        condition=ssd(rng.choice(CONDITIONS)),
        gender=ssd(rng.choice(GENDERS)),
        age=AgeDescription(years=years, months=months),
        diagnosed_at_age=AgeDescription(years=diag_years),
    )


def _draw_design(index: int, profile: GenProfile) -> tuple[str, random.Random]:
    """Study `index`'s design label, and its random stream after that draw."""
    rng = random.Random(profile.seed * 1_000_003 + index)
    return rng.choices(_DESIGNS, weights=_WEIGHTS, k=1)[0], rng


def _generate_study(index: int, profile: GenProfile) -> Study:
    design, rng = _draw_design(index, profile)
    prefix = f"study{index:05d}"
    study_id = ssd(prefix)

    n_participants = rng.randint(*PARTICIPANTS_PER_STUDY)
    participants = tuple(
        _make_participant(rng, prefix, i + 1) for i in range(n_participants)
    )

    if design in ("AB", "ABAB", "ABAB_F", "AlternatingTreatment"):
        phases = _make_phases(rng, _signature_for(design), prefix)
        results, _ = _make_results(rng, phases, prefix)
        return Study(
            id=study_id,
            participants=participants,
            outcomes=(rng.choice(OUTCOMES),),
            phases=tuple(phases),
            results=tuple(results),
            asserted_class=DESIGN_CLASS[design],
        )

    # multiple-baseline designs: 2-3 parallel items, varying in one dimension
    n_items = rng.randint(2, 3)
    base_outcome = rng.choice(OUTCOMES)
    base_setting = ssd(rng.choice(SETTINGS))
    base_subject = participants[0].id
    if design == "AcrossSettingMBD":
        settings = [ssd(s) for s in rng.sample(SETTINGS, n_items)]
        dims = [(base_subject, settings[i], base_outcome) for i in range(n_items)]
    elif design == "AcrossSubjectMBD":
        while len(participants) < n_items:
            participants = participants + (
                _make_participant(rng, prefix, len(participants) + 1),
            )
        dims = [(participants[i].id, base_setting, base_outcome) for i in range(n_items)]
    else:  # AcrossOutcomeMBD
        item_outcomes = rng.sample(OUTCOMES, n_items)
        dims = [(base_subject, base_setting, item_outcomes[i]) for i in range(n_items)]

    items = []
    all_results = []
    instant = 1
    for i, (subject, setting, outcome) in enumerate(dims, start=1):
        item_prefix = f"{prefix}_item{i}"
        phases = _make_phases(rng, "BI", item_prefix)
        results, instant = _make_results(rng, phases, item_prefix, instant)
        all_results.extend(results)
        items.append(
            MBDItem(
                id=ssd(item_prefix),
                subject=subject,
                setting=setting,
                outcome=outcome,
                phases=tuple(phases),
            )
        )
    return Study(
        id=study_id,
        participants=participants,
        outcomes=(base_outcome,),
        mbd_items=tuple(items),
        mbd_item_type=vocab.SIMPLE_DESIGN,
        results=tuple(all_results),
        asserted_class=DESIGN_CLASS[design],
    )


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
        study = _generate_study(index, profile)
        graph.triples.update(study_to_triples(study))
    return graph


def generate_studies(n: int, profile: GenProfile | None = None) -> KnowledgeBase:
    """A valid knowledge base of `n` synthetic studies; identical inputs
    produce identical kbs."""
    return graph_to_kb(generate_graph(n, profile))
