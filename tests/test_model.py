from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssdkb import vocab
from ssdkb.model import (
    AgeDescription,
    MBDItem,
    Participant,
    Phase,
    PhaseKind,
    Result,
    Study,
    Violation,
    age_in_months,
    validate_study,
)
from ssdkb.terms import aut, ssd


def phase(n, kind, types=()):
    return Phase(id=ssd(f"p{n}"), kind=kind, position=n, intervention_types=tuple(types))


def simple_ab(**overrides):
    fields = dict(
        id=ssd("s1"),
        phases=(
            phase(1, PhaseKind.BASELINE),
            phase(2, PhaseKind.SIMPLE_INTERVENTION, [aut("weekendInterview")]),
        ),
    )
    fields.update(overrides)
    return Study(**fields)


@pytest.mark.parametrize(
    "age,expected",
    [
        (AgeDescription(years=7, months=4), 88),
        (AgeDescription(years=3), 36),
        (AgeDescription(years=0, months=0), 0),
    ],
)
def test_age_in_months(age, expected):
    assert age_in_months(age) == expected


def test_valid_ab_study_has_no_violations():
    assert validate_study(simple_ab()) == []


def test_alternating_phase_needs_two_treatments():
    study = simple_ab(
        phases=(
            phase(1, PhaseKind.BASELINE),
            phase(2, PhaseKind.ALTERNATING_INTERVENTION, [aut("weekendInterview")]),
        )
    )
    codes = [v.code for v in validate_study(study)]
    assert codes == ["AlternatingNeedsTwoTreatments"]


def _item(name, setting):
    return MBDItem(
        id=ssd(name),
        subject=ssd("paul"),
        setting=ssd(setting),
        outcome=aut("correct_answers_wh"),
        phases=(
            phase(1, PhaseKind.BASELINE),
            phase(2, PhaseKind.SIMPLE_INTERVENTION, [aut("weekendInterview")]),
        ),
    )


def test_mbd_needs_two_items():
    item = _item("i1", "home")
    study = Study(id=ssd("m1"), mbd_items=(item,), mbd_item_type=vocab.SIMPLE_DESIGN)
    codes = [v.code for v in validate_study(study)]
    assert "MBDNeedsTwoItems" in codes


def test_mbd_needs_an_item_type():
    study = Study(id=ssd("m1"), mbd_items=(_item("i1", "home"), _item("i2", "school")))
    assert validate_study(study) == [
        Violation("MBDMissingItemType", ssd("m1"), "MBD study lacks an item type")
    ]


def test_phases_and_items_both_present():
    study = simple_ab(
        mbd_items=(_item("i1", "home"), _item("i2", "school")),
        mbd_item_type=vocab.SIMPLE_DESIGN,
    )
    assert [v.code for v in validate_study(study)] == ["PhasesAndItemsBothPresent"]


def test_position_gaps_flagged():
    study = simple_ab(
        phases=(
            phase(1, PhaseKind.BASELINE),
            Phase(
                id=ssd("p3"),
                kind=PhaseKind.SIMPLE_INTERVENTION,
                position=3,
                intervention_types=(aut("weekendInterview"),),
            ),
        )
    )
    codes = [v.code for v in validate_study(study)]
    assert codes == ["PhasePositionsNotContiguous"]


def test_follow_up_must_be_last():
    study = simple_ab(
        phases=(
            phase(1, PhaseKind.FOLLOW_UP),
            phase(2, PhaseKind.SIMPLE_INTERVENTION, [aut("weekendInterview")]),
        )
    )
    codes = [v.code for v in validate_study(study)]
    assert "FollowUpNotFinal" in codes


def test_baseline_phase_with_treatment():
    study = simple_ab(
        phases=(
            phase(1, PhaseKind.BASELINE, [aut("weekendInterview")]),
            phase(2, PhaseKind.SIMPLE_INTERVENTION, [aut("weekendInterview")]),
        )
    )
    codes = [v.code for v in validate_study(study)]
    assert codes == ["BaselineHasTreatment"]


def test_empty_study_flagged():
    study = Study(id=ssd("s0"))
    codes = [v.code for v in validate_study(study)]
    assert codes == ["EmptyStudy"]


def test_diagnosis_after_current_age():
    participant = Participant(
        id=ssd("kid"),
        age=AgeDescription(years=4),
        diagnosed_at_age=AgeDescription(years=5),
    )
    study = simple_ab(participants=(participant,))
    codes = [v.code for v in validate_study(study)]
    assert codes == ["DiagnosedAfterCurrentAge"]


def test_months_out_of_range():
    participant = Participant(id=ssd("kid"), age=AgeDescription(years=4, months=14))
    study = simple_ab(participants=(participant,))
    codes = [v.code for v in validate_study(study)]
    assert codes == ["MonthsOutOfRange"]


def test_negative_years():
    participant = Participant(id=ssd("kid"), diagnosed_at_age=AgeDescription(years=-1))
    study = simple_ab(participants=(participant,))
    assert validate_study(study) == [
        Violation("MonthsOutOfRange", ssd("kid"), "negative years -1")
    ]


def _result(n, phase_ref, itype=None):
    return Result(
        id=ssd(f"r{n}"),
        value=Decimal("10.0"),
        instant=n,
        phase_ref=phase_ref,
        intervention_type=itype,
    )


def test_result_constraints():
    study = simple_ab(
        results=(
            _result(1, ssd("p1")),
            _result(2, ssd("p2"), aut("weekendInterview")),
        )
    )
    assert validate_study(study) == []

    dangling = simple_ab(results=(_result(1, ssd("missing")),))
    assert [v.code for v in validate_study(dangling)] == ["ResultPhaseDangling"]

    on_baseline = simple_ab(results=(_result(1, ssd("p1"), aut("weekendInterview")),))
    assert [v.code for v in validate_study(on_baseline)] == [
        "BaselineResultHasTreatment"
    ]

    mismatched = simple_ab(results=(_result(1, ssd("p2"), aut("otherThing")),))
    assert [v.code for v in validate_study(mismatched)] == [
        "ResultTreatmentMismatch"
    ]


def test_result_on_alternating_phase_accepts_any_of_its_types():
    study = simple_ab(
        phases=(
            phase(1, PhaseKind.BASELINE),
            phase(2, PhaseKind.ALTERNATING_INTERVENTION, [aut("t1"), aut("t2")]),
        ),
        results=(_result(1, ssd("p2"), aut("t2")),),
    )
    assert validate_study(study) == []


# order-independence: permuting phase and result insertion order must not
# change the violation multiset

_kinds = st.sampled_from(list(PhaseKind))


@st.composite
def _random_study(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    kinds = draw(st.lists(_kinds, min_size=n, max_size=n))
    positions = draw(st.permutations(list(range(1, n + 1))))
    phases = []
    for pos, kind in zip(positions, kinds):
        n_types = draw(st.integers(min_value=0, max_value=3))
        types = tuple(aut(f"t{i}") for i in range(n_types))
        phases.append(Phase(id=ssd(f"p{pos}"), kind=kind, position=pos, intervention_types=types))
    results = []
    for i in range(draw(st.integers(min_value=0, max_value=4))):
        ref = draw(st.sampled_from([p.id for p in phases] + [ssd("nowhere")]))
        itype = draw(st.sampled_from([None, aut("t0"), aut("tX")]))
        results.append(_result(i + 1, ref, itype))
    return phases, results


@given(_random_study(), st.randoms())
def test_validation_order_independent(study_parts, rng):
    phases, results = study_parts
    study_a = Study(id=ssd("s"), phases=tuple(phases), results=tuple(results))
    shuffled_phases = list(phases)
    shuffled_results = list(results)
    rng.shuffle(shuffled_phases)
    rng.shuffle(shuffled_results)
    study_b = Study(id=ssd("s"), phases=tuple(shuffled_phases), results=tuple(shuffled_results))
    assert validate_study(study_a) == validate_study(study_b)


@given(_random_study())
def test_valid_studies_have_contiguous_positions(study_parts):
    phases, results = study_parts
    study = Study(id=ssd("s"), phases=tuple(phases), results=tuple(results))
    if not validate_study(study):
        assert sorted(p.position for p in study.phases) == list(
            range(1, len(study.phases) + 1)
        )
