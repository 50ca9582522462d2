"""Structural design classification from phase signatures, and forward
materialization of inferred type assertions."""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import vocab
from .kb import KnowledgeBase, validate_kb
from .model import MBDItem, Study, Violation
from .taxonomy import Taxonomy
from .terms import Iri, RDF_TYPE, gc_paused
from .turtle import Triple


class ClassificationError(Exception):
    pass


# warning code attached when a valid study fits no specific pattern
UNRECOGNIZED_DESIGN = "UnrecognizedDesign"


def phase_signature(study: Study) -> str:
    """Letters over {B,I,A,F} following phase kinds in position order.
    MBD studies have no study-level signature; use item_signature."""
    if study.is_mbd:
        raise ClassificationError(
            f"study {study.id} is multiple-baseline; signatures apply per item"
        )
    return item_signature(study)


def item_signature(item: MBDItem | Study) -> str:
    """`phase_signature` for an MBD item, or for a study without its MBD check."""
    return "".join(p.kind.value for p in sorted(item.phases, key=lambda p: p.position))


# design class -> the phase signatures it takes, most specific entries
# included: B baseline, I simple intervention, A alternating intervention,
# F an optional closing follow-up. A withdrawal design withdraws the
# intervention at least once; a simple design has one intervention episode.
PATTERN_TABLE: dict[Iri, re.Pattern] = {
    vocab.AB_DESIGN: re.compile("BIF?"),
    vocab.ABAB_DESIGN: re.compile("BIBIF?"),
    vocab.WITHDRAWAL_DESIGN: re.compile("B(?:IB)+I?F?"),
    vocab.ALTERNATING_TREATMENT_DESIGN: re.compile("BAF?"),
    vocab.SIMPLE_DESIGN: re.compile("BI+F?"),
}


@dataclass(frozen=True)
class Classification:
    classes: frozenset[Iri]
    warnings: tuple[Violation, ...] = ()


def _close_upward(classes: set[Iri], taxonomy: Taxonomy) -> frozenset[Iri]:
    closed: set[Iri] = set()
    for cls in classes:
        closed |= taxonomy.superclasses(cls)
    return frozenset(closed)


def classify_study(study: Study, taxonomy: Taxonomy) -> Classification:
    """All design classes the study satisfies, upward-closed. Valid studies
    matching no specific pattern classify as SingleSubjectDesign only,
    with a warning."""
    if study.is_mbd:
        outcome = classify_mbd(study)
        if isinstance(outcome, Violation):
            return Classification(
                classes=_close_upward({vocab.MULTIPLE_BASELINE_DESIGN}, taxonomy),
                warnings=(outcome,),
            )
        return Classification(classes=_close_upward({outcome}, taxonomy))

    sig = phase_signature(study)
    matched = {cls for cls, pattern in PATTERN_TABLE.items() if pattern.fullmatch(sig)}
    if not matched:
        return Classification(
            classes=frozenset({vocab.SINGLE_SUBJECT_DESIGN}),
            warnings=(
                Violation(
                    UNRECOGNIZED_DESIGN,
                    study.id,
                    f"signature {sig!r} matches no specific design pattern",
                ),
            ),
        )
    return Classification(classes=_close_upward(matched, taxonomy))


def classify_design(study: Study, taxonomy: Taxonomy) -> frozenset[Iri]:
    return classify_study(study, taxonomy).classes


_ITEM_TYPE_PATTERNS = {
    cls: PATTERN_TABLE[cls]
    for cls in (vocab.SIMPLE_DESIGN, vocab.WITHDRAWAL_DESIGN, vocab.ALTERNATING_TREATMENT_DESIGN)
}

_MBD_DIMENSION_CLASS = {
    "outcome": vocab.ACROSS_OUTCOME_MBD,
    "setting": vocab.ACROSS_SETTING_MBD,
    "subject": vocab.ACROSS_SUBJECT_MBD,
}

MBD_ITEM_CLASS_FOR_STUDY = {
    vocab.ACROSS_OUTCOME_MBD: vocab.ACROSS_OUTCOME_MBD_ITEM,
    vocab.ACROSS_SETTING_MBD: vocab.ACROSS_SETTING_MBD_ITEM,
    vocab.ACROSS_SUBJECT_MBD: vocab.ACROSS_SUBJECT_MBD_ITEM,
}


def classify_mbd(study: Study) -> Iri | Violation:
    """Across-X class when exactly one of {outcome, setting, subject}
    varies over the items (all items pairwise distinct in it); otherwise
    a violation. Baseline lengths are free to differ."""
    if len(study.mbd_items) < 2:
        return Violation("MBDNeedsTwoItems", study.id, "fewer than two MBD items")

    item_type = study.mbd_item_type
    if item_type is not None:
        pattern = _ITEM_TYPE_PATTERNS.get(item_type)
        if pattern is None:
            return Violation(
                "MBDUnknownItemType", study.id, f"unsupported item type {item_type}"
            )
        for item in study.mbd_items:
            sig = item_signature(item)
            if not pattern.fullmatch(sig):
                return Violation(
                    "MBDItemSignatureMismatch",
                    item.id,
                    f"item signature {sig!r} does not match item type {item_type}",
                )

    dims = {
        "outcome": [item.outcome for item in study.mbd_items],
        "setting": [item.setting for item in study.mbd_items],
        "subject": [item.subject for item in study.mbd_items],
    }
    varying = []
    for name, vals in dims.items():
        distinct = set(vals)
        if len(distinct) == 1:
            continue
        if len(distinct) != len(vals):
            return Violation(
                "MBDDimensionPartiallyVaries",
                study.id,
                f"dimension {name} varies but items are not pairwise distinct",
            )
        varying.append(name)
    if not varying:
        return Violation(
            "MBDNoVaryingDimension", study.id, "no dimension varies across items"
        )
    if len(varying) > 1:
        return Violation(
            "MBDMultipleDimensions",
            study.id,
            f"dimensions {sorted(varying)} all vary; exactly one may",
        )
    return _MBD_DIMENSION_CLASS[varying[0]]


# --- materialization ---


@gc_paused()
def materialize_types(kb: KnowledgeBase) -> KnowledgeBase:
    """Forward closure: subclass-closure types for every typed individual,
    design classes for every study, across-X item types for MBD items.
    Idempotent and monotone."""
    violations = validate_kb(kb)
    if violations:
        ids = sorted({str(v.subject) for v in violations})
        raise ClassificationError(
            f"kb fails validation; offending subjects: {', '.join(ids)}"
        )

    taxonomy = kb.taxonomy
    inferred: set[Triple] = set()

    # `superclasses` includes the class itself, whose triples the store holds
    for cls, triples in kb.store.objects(RDF_TYPE).items():
        if taxonomy.contains(cls):
            for sup in taxonomy.superclasses(cls):
                if sup != cls:
                    inferred.update(Triple(node, RDF_TYPE, sup) for node, _, _ in triples)

    for study in kb.studies:
        classification = classify_study(study, taxonomy)
        for cls in classification.classes:
            inferred.add(Triple(study.id, RDF_TYPE, cls))
        item_class = None
        for cls in classification.classes:
            item_class = MBD_ITEM_CLASS_FOR_STUDY.get(cls) or item_class
        if item_class is not None:
            for item in study.mbd_items:
                for sup in taxonomy.superclasses(item_class):
                    inferred.add(Triple(item.id, RDF_TYPE, sup))

    # a set's difference with an exact dict probes it with the stored hashes
    return kb.with_inferred(inferred.difference(kb.graph.triples, kb.inferred))
