"""Typed domain model for single-subject design studies, plus structural
validation producing a closed list of violation codes (see README)."""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from typing import Optional

from . import vocab
from .terms import Iri, Term


class PhaseKind(Enum):
    BASELINE = "B"
    SIMPLE_INTERVENTION = "I"
    ALTERNATING_INTERVENTION = "A"
    FOLLOW_UP = "F"


PHASE_CLASS_TO_KIND = {
    vocab.BASELINE_PHASE: PhaseKind.BASELINE,
    vocab.SIMPLE_INTERVENTION_PHASE: PhaseKind.SIMPLE_INTERVENTION,
    vocab.ALTERNATING_INTERVENTION_PHASE: PhaseKind.ALTERNATING_INTERVENTION,
    vocab.FOLLOW_UP_PHASE: PhaseKind.FOLLOW_UP,
}


@dataclass(frozen=True)
class AgeDescription:
    years: int
    months: Optional[int] = None


def age_in_months(age: AgeDescription) -> int:
    """Total age in months; an absent months field counts as zero."""
    return age.years * 12 + (age.months or 0)


@dataclass(frozen=True)
class Participant:
    id: Term
    condition: Optional[Term] = None
    gender: Optional[Term] = None
    age: Optional[AgeDescription] = None
    diagnosed_at_age: Optional[AgeDescription] = None


@dataclass(frozen=True)
class Phase:
    id: Term
    kind: PhaseKind
    position: int
    intervention_types: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Result:
    id: Term
    value: Decimal
    instant: int
    phase_ref: Term
    intervention_type: Optional[Term] = None


@dataclass(frozen=True)
class MBDItem:
    id: Term
    subject: Optional[Term] = None
    setting: Optional[Term] = None
    outcome: Optional[Term] = None
    phases: tuple[Phase, ...] = ()


@dataclass(frozen=True)
class Study:
    id: Term
    participants: tuple[Participant, ...] = ()
    outcomes: tuple[Term, ...] = ()
    phases: tuple[Phase, ...] = ()
    mbd_items: tuple[MBDItem, ...] = ()
    mbd_item_type: Optional[Iri] = None  # WithdrawalDesign | AlternatingTreatmentDesign | SimpleDesign
    results: tuple[Result, ...] = ()
    asserted_class: Optional[Iri] = None

    @property
    def is_mbd(self) -> bool:
        return bool(self.mbd_items)

    def all_phases(self) -> tuple[Phase, ...]:
        if self.is_mbd:
            return tuple(p for item in self.mbd_items for p in item.phases)
        return self.phases


@dataclass(frozen=True)
class Violation:
    code: str
    subject: Term
    message: str

    def __str__(self) -> str:
        return f"{self.code} {self.subject} {self.message}"


def _check_phases(phases: tuple[Phase, ...], owner: Term, out: list[Violation]) -> None:
    positions = sorted(p.position for p in phases)
    if positions != list(range(1, len(phases) + 1)):
        out.append(
            Violation(
                "PhasePositionsNotContiguous",
                owner,
                f"phase positions {positions} are not exactly 1..{len(phases)}",
            )
        )
    ordered = sorted(phases, key=lambda p: p.position)
    for i, phase in enumerate(ordered):
        if phase.kind is PhaseKind.FOLLOW_UP and i != len(ordered) - 1:
            out.append(
                Violation(
                    "FollowUpNotFinal", phase.id, "follow-up phase is not the last phase"
                )
            )
    for phase in phases:
        n = len(phase.intervention_types)
        if phase.kind is PhaseKind.BASELINE and n > 0:
            out.append(
                Violation(
                    "BaselineHasTreatment", phase.id, "baseline phase carries interventions"
                )
            )
        elif phase.kind is PhaseKind.FOLLOW_UP and n > 0:
            out.append(
                Violation(
                    "FollowUpHasTreatment", phase.id, "follow-up phase carries interventions"
                )
            )
        elif phase.kind is PhaseKind.SIMPLE_INTERVENTION and n != 1:
            out.append(
                Violation(
                    "SimpleNeedsOneTreatment",
                    phase.id,
                    f"simple intervention phase has {n} intervention types, needs exactly 1",
                )
            )
        elif phase.kind is PhaseKind.ALTERNATING_INTERVENTION and len(set(phase.intervention_types)) < 2:
            out.append(
                Violation(
                    "AlternatingNeedsTwoTreatments",
                    phase.id,
                    "alternating intervention phase needs at least two distinct treatments",
                )
            )


def _check_age(age: AgeDescription, subject: Term, out: list[Violation]) -> None:
    if age.months is not None and not 0 <= age.months <= 11:
        out.append(
            Violation("MonthsOutOfRange", subject, f"months {age.months} outside [0,11]")
        )
    if age.years < 0:
        out.append(Violation("MonthsOutOfRange", subject, f"negative years {age.years}"))


def validate_study(study: Study) -> list[Violation]:
    """All structural violations of the study, sorted for determinism.
    An empty list means the study satisfies every model invariant."""
    out: list[Violation] = []

    if study.phases and study.mbd_items:
        out.append(
            Violation(
                "PhasesAndItemsBothPresent",
                study.id,
                "study has both direct phases and MBD items",
            )
        )
    if not study.phases and not study.mbd_items:
        out.append(Violation("EmptyStudy", study.id, "study has neither phases nor MBD items"))

    if study.phases:
        _check_phases(study.phases, study.id, out)

    if study.mbd_items:
        if len(study.mbd_items) < 2:
            out.append(
                Violation(
                    "MBDNeedsTwoItems",
                    study.id,
                    f"multiple-baseline study has {len(study.mbd_items)} item, needs at least 2",
                )
            )
        if study.mbd_item_type is None:
            out.append(
                Violation("MBDMissingItemType", study.id, "MBD study lacks an item type")
            )
        for item in study.mbd_items:
            _check_phases(item.phases, item.id, out)

    for participant in study.participants:
        if participant.age is not None:
            _check_age(participant.age, participant.id, out)
        if participant.diagnosed_at_age is not None:
            _check_age(participant.diagnosed_at_age, participant.id, out)
        if (
            participant.age is not None
            and participant.diagnosed_at_age is not None
            and age_in_months(participant.diagnosed_at_age) > age_in_months(participant.age)
        ):
            out.append(
                Violation(
                    "DiagnosedAfterCurrentAge",
                    participant.id,
                    "diagnosis age exceeds current age",
                )
            )

    # each id's first phase, as a search in phase order would find it
    phases = {phase.id: phase for phase in reversed(study.all_phases())}
    for result in study.results:
        phase = phases.get(result.phase_ref)
        if phase is None:
            out.append(
                Violation(
                    "ResultPhaseDangling",
                    result.id,
                    f"result references phase {result.phase_ref} not in this study",
                )
            )
            continue
        if phase.kind in (PhaseKind.BASELINE, PhaseKind.FOLLOW_UP):
            if result.intervention_type is not None:
                out.append(
                    Violation(
                        "BaselineResultHasTreatment",
                        result.id,
                        "result in a non-intervention phase carries an intervention type",
                    )
                )
        elif result.intervention_type is not None:
            if result.intervention_type not in phase.intervention_types:
                out.append(
                    Violation(
                        "ResultTreatmentMismatch",
                        result.id,
                        f"intervention type {result.intervention_type} not among the phase's types",
                    )
                )

    out.sort(key=lambda v: (v.code, v.subject, v.message))
    return out
