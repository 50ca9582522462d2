import re
from itertools import product

import pytest

from conftest import load_kb
from ssdkb import vocab
from ssdkb.classify import (
    PATTERN_TABLE,
    ClassificationError,
    classify_design,
    classify_mbd,
    classify_study,
    item_signature,
    materialize_types,
    phase_signature,
)
from ssdkb.kb import kb_to_graph
from ssdkb.model import MBDItem, Phase, PhaseKind, Study, Violation, validate_study
from ssdkb.taxonomy import core_taxonomy
from ssdkb.terms import RDF_TYPE, aut, ssd
from ssdkb.turtle import Triple

TAX = core_taxonomy()

_KIND = {
    "B": PhaseKind.BASELINE,
    "I": PhaseKind.SIMPLE_INTERVENTION,
    "A": PhaseKind.ALTERNATING_INTERVENTION,
    "F": PhaseKind.FOLLOW_UP,
}
_TYPES = {
    "B": (),
    "I": (aut("t1"),),
    "A": (aut("t1"), aut("t2")),
    "F": (),
}


def study_from_signature(sig):
    phases = tuple(
        Phase(
            id=ssd(f"p{i + 1}"),
            kind=_KIND[letter],
            position=i + 1,
            intervention_types=_TYPES[letter],
        )
        for i, letter in enumerate(sig)
    )
    return Study(id=ssd("s"), phases=phases)


def test_phase_signature_examples():
    assert phase_signature(study_from_signature("BIBI")) == "BIBI"
    assert phase_signature(study_from_signature("BAF")) == "BAF"
    assert phase_signature(study_from_signature("B")) == "B"


def test_signature_reads_positions_not_tuple_order():
    phases = (
        Phase(id=ssd("p2"), kind=PhaseKind.SIMPLE_INTERVENTION, position=2,
              intervention_types=(aut("t1"),)),
        Phase(id=ssd("p1"), kind=PhaseKind.BASELINE, position=1),
    )
    assert phase_signature(Study(id=ssd("s"), phases=phases)) == "BI"


def test_signature_rejects_mbd_studies():
    item = MBDItem(id=ssd("i"), subject=ssd("x"), setting=None, outcome=None, phases=())
    with pytest.raises(ClassificationError):
        phase_signature(Study(id=ssd("m"), mbd_items=(item, item)))


@pytest.mark.parametrize(
    "sig,expected",
    [
        ("BI", {"AB_Design", "SimpleDesign", "SingleSubjectDesign"}),
        ("BIF", {"AB_Design", "SimpleDesign", "SingleSubjectDesign"}),
        ("BIBI", {"ABAB_Design", "WithdrawalDesign", "SingleSubjectDesign"}),
        ("BIBIF", {"ABAB_Design", "WithdrawalDesign", "SingleSubjectDesign"}),
        ("BIB", {"WithdrawalDesign", "SingleSubjectDesign"}),
        ("BA", {"AlternatingTreatmentDesign", "SingleSubjectDesign"}),
        ("BAF", {"AlternatingTreatmentDesign", "SingleSubjectDesign"}),
        ("BII", {"SimpleDesign", "SingleSubjectDesign"}),
        ("B", {"SingleSubjectDesign"}),
        ("BBI", {"SingleSubjectDesign"}),
        ("BAB", {"SingleSubjectDesign"}),
    ],
)
def test_classify_design_examples(sig, expected):
    classes = classify_design(study_from_signature(sig), TAX)
    assert {c.value.rsplit("#", 1)[1] for c in classes} == expected


def _oracle(sig):
    """Independent pattern oracle, written directly as regexes."""
    names = set()
    if re.fullmatch(r"BIF?", sig):
        names.add("AB_Design")
    if re.fullmatch(r"BIBIF?", sig):
        names.add("ABAB_Design")
    if re.fullmatch(r"B(IB)+I?F?", sig) and len(sig.rstrip("F")) >= 3:
        names.add("WithdrawalDesign")
    if re.fullmatch(r"BAF?", sig):
        names.add("AlternatingTreatmentDesign")
    if re.fullmatch(r"BI+F?", sig):
        names.add("SimpleDesign")
    closure = {
        "AB_Design": {"SimpleDesign"},
        "ABAB_Design": {"WithdrawalDesign"},
    }
    for name in list(names):
        names |= closure.get(name, set())
    names.add("SingleSubjectDesign")
    return names


def _all_signatures(max_len):
    for length in range(1, max_len + 1):
        for body in product("BIA", repeat=length):
            yield "".join(body)
        for body in product("BIA", repeat=length - 1):
            yield "".join(body) + "F"


def test_exhaustive_signatures_match_oracle():
    count = 0
    for sig in _all_signatures(6):
        classes = classify_design(study_from_signature(sig), TAX)
        got = {c.value.rsplit("#", 1)[1] for c in classes}
        assert got == _oracle(sig), sig
        count += 1
    assert count > 1000


# the signature predicates that the pattern table replaced, kept as its reference


def _strip_follow_up(sig: str) -> str:
    return sig[:-1] if sig.endswith("F") else sig


def _is_ab(sig: str) -> bool:
    return _strip_follow_up(sig) == "BI"


def _is_abab(sig: str) -> bool:
    return _strip_follow_up(sig) == "BIBI"


def _is_withdrawal(sig: str) -> bool:
    core = _strip_follow_up(sig)
    if len(core) < 3 or "A" in core or "F" in core:
        return False
    for i, letter in enumerate(core):
        expected = "B" if i % 2 == 0 else "I"
        if letter != expected:
            return False
    return True


def _is_alternating(sig: str) -> bool:
    return _strip_follow_up(sig) == "BA"


def _is_simple(sig: str) -> bool:
    core = _strip_follow_up(sig)
    return len(core) >= 2 and core[0] == "B" and set(core[1:]) == {"I"}


_REFERENCE_PREDICATES = {
    vocab.AB_DESIGN: _is_ab,
    vocab.ABAB_DESIGN: _is_abab,
    vocab.WITHDRAWAL_DESIGN: _is_withdrawal,
    vocab.ALTERNATING_TREATMENT_DESIGN: _is_alternating,
    vocab.SIMPLE_DESIGN: _is_simple,
}


def test_pattern_table_equals_the_reference_predicates():
    assert PATTERN_TABLE.keys() == _REFERENCE_PREDICATES.keys()
    count = 0
    for length in range(9):
        for letters in product("BIAF", repeat=length):
            sig = "".join(letters)
            for cls, pattern in PATTERN_TABLE.items():
                assert (pattern.fullmatch(sig) is not None) == _REFERENCE_PREDICATES[cls](sig), (cls, sig)
            count += 1
    assert count == (4**9 - 1) // 3  # every signature of length 0 to 8


def test_family_exclusivity():
    families = ("SimpleDesign", "WithdrawalDesign", "AlternatingTreatmentDesign")
    for sig in _all_signatures(6):
        classes = classify_design(study_from_signature(sig), TAX)
        names = {c.value.rsplit("#", 1)[1] for c in classes}
        assert len(names & set(families)) <= 1, sig


def test_unrecognized_design_warns():
    outcome = classify_study(study_from_signature("BBI"), TAX)
    assert [w.code for w in outcome.warnings] == ["UnrecognizedDesign"]
    assert outcome.classes == frozenset({vocab.SINGLE_SUBJECT_DESIGN})


def _item(n, subject, setting, outcome, sig="BI"):
    return MBDItem(
        id=ssd(f"item{n}"),
        subject=subject,
        setting=setting,
        outcome=outcome,
        phases=study_from_signature(sig).phases,
    )


def _mbd(items, item_type=vocab.SIMPLE_DESIGN):
    return Study(id=ssd("m"), mbd_items=tuple(items), mbd_item_type=item_type)


def test_mbd_across_setting():
    items = [
        _item(i, ssd("paul"), ssd(place), aut("caw"))
        for i, place in enumerate(["home", "school", "playground"])
    ]
    assert classify_mbd(_mbd(items)) == vocab.ACROSS_SETTING_MBD


def test_mbd_across_subject():
    items = [
        _item(i, ssd(kid), ssd("home"), aut("caw"))
        for i, kid in enumerate(["paul", "mary"])
    ]
    assert classify_mbd(_mbd(items)) == vocab.ACROSS_SUBJECT_MBD


def test_mbd_across_outcome():
    items = [
        _item(i, ssd("paul"), ssd("home"), aut(o))
        for i, o in enumerate(["caw", "eye_contact"])
    ]
    assert classify_mbd(_mbd(items)) == vocab.ACROSS_OUTCOME_MBD


def test_mbd_two_dimensions_vary():
    items = [
        _item(0, ssd("paul"), ssd("home"), aut("caw")),
        _item(1, ssd("mary"), ssd("school"), aut("caw")),
    ]
    outcome = classify_mbd(_mbd(items))
    assert isinstance(outcome, Violation)
    assert outcome.code == "MBDMultipleDimensions"


def test_mbd_no_dimension_varies():
    items = [
        _item(0, ssd("paul"), ssd("home"), aut("caw")),
        _item(1, ssd("paul"), ssd("home"), aut("caw")),
    ]
    assert classify_mbd(_mbd(items)).code == "MBDNoVaryingDimension"


def test_mbd_partially_varying_dimension():
    items = [
        _item(0, ssd("paul"), ssd("home"), aut("caw")),
        _item(1, ssd("paul"), ssd("school"), aut("caw")),
        _item(2, ssd("paul"), ssd("home"), aut("caw")),
    ]
    assert classify_mbd(_mbd(items)).code == "MBDDimensionPartiallyVaries"


def test_mbd_item_signature_mismatch():
    items = [
        _item(0, ssd("paul"), ssd("home"), aut("caw"), sig="BA"),
        _item(1, ssd("paul"), ssd("school"), aut("caw")),
    ]
    assert classify_mbd(_mbd(items)).code == "MBDItemSignatureMismatch"


def test_mbd_study_classification_closes_upward():
    items = [
        _item(i, ssd("paul"), ssd(place), aut("caw"))
        for i, place in enumerate(["home", "school"])
    ]
    classes = classify_design(_mbd(items), TAX)
    assert vocab.ACROSS_SETTING_MBD in classes
    assert vocab.MULTIPLE_BASELINE_DESIGN in classes
    assert vocab.SINGLE_SUBJECT_DESIGN in classes


@pytest.mark.parametrize(
    "setting, item_type, code",
    [
        ("school", vocab.SIMPLE_DESIGN, "MBDMultipleDimensions"),
        ("home", vocab.ABAB_DESIGN, "MBDUnknownItemType"),
    ],
)
def test_valid_mbd_study_of_no_across_class_warns(setting, item_type, code):
    # a study that validates but fits no across-X class is a multiple
    # baseline design, with the reason as a warning
    items = [
        _item(0, ssd("paul"), ssd("home"), aut("caw")),
        _item(1, ssd("mary"), ssd(setting), aut("caw")),
    ]
    study = _mbd(items, item_type)
    assert validate_study(study) == []
    outcome = classify_study(study, TAX)
    assert outcome.classes == {vocab.MULTIPLE_BASELINE_DESIGN, vocab.SINGLE_SUBJECT_DESIGN}
    assert [w.code for w in outcome.warnings] == [code]


# --- materialization ---


def test_materialize_fig3(fig3_kb):
    mat = materialize_types(fig3_kb)
    inferred = mat.inferred
    assert Triple(ssd("ssd01"), RDF_TYPE, vocab.WITHDRAWAL_DESIGN) in inferred
    assert Triple(ssd("ssd01"), RDF_TYPE, vocab.SINGLE_SUBJECT_DESIGN) in inferred
    # intervention pool instances pick up their superclass
    assert Triple(aut("weekendInterview"), RDF_TYPE, vocab.INTERVENTION_TYPE) in inferred
    # asserted triples are never duplicated into the inferred set
    assert inferred.isdisjoint(fig3_kb.graph.triples)


def test_materialize_idempotent(fig3_kb):
    once = materialize_types(fig3_kb)
    twice = materialize_types(once)
    assert twice.inferred == once.inferred
    assert kb_to_graph(twice).triples == kb_to_graph(once).triples


def test_materialize_monotone(fig3_kb):
    mat = materialize_types(fig3_kb)
    assert fig3_kb.graph.triples.keys() <= kb_to_graph(mat).triples.keys()


def test_materialize_infers_mbd_item_types(mbd_mat):
    assert Triple(ssd("mbd01"), RDF_TYPE, vocab.ACROSS_SETTING_MBD) in mbd_mat.inferred
    item_types = {
        t.subject
        for t in mbd_mat.inferred
        if t.predicate == RDF_TYPE and t.object == vocab.ACROSS_SETTING_MBD_ITEM
    }
    assert ssd("item01a") in item_types or len(item_types) >= 2


def test_materialize_rejects_invalid_kb():
    kb = load_kb("broken_alternating.ttl")
    with pytest.raises(ClassificationError) as err:
        materialize_types(kb)
    assert "bad01" in str(err.value)


def test_materialize_empty_kb():
    from ssdkb.kb import empty_kb

    kb = materialize_types(empty_kb())
    assert kb.inferred == frozenset()
