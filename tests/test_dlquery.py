import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import QUERIES, edited_queries, load_kb
from ssdkb.classify import materialize_types
from ssdkb.dlquery import (
    And,
    DataSome,
    DlEvalError,
    DlSyntaxError,
    MAX_DEPTH,
    NamedClass,
    OneOf,
    Some,
    Value,
    eval_dl_query,
    parse_dl_query,
)
from ssdkb.kb import empty_kb
from ssdkb.terms import aut, local_name, ssd


def names(result):
    return {local_name(term) for term in result}


def test_parse_results_of_phase_query():
    expr = parse_dl_query("Result and isResultOfPhase some {ph01}")
    assert expr == And(
        NamedClass("Result"),
        Some("isResultOfPhase", OneOf(("ph01",))),
    )


def test_parse_nested_query_with_facet():
    expr = parse_dl_query(
        "AcrossSettingMBD and hasParticipant some "
        "(Participant and hasAge some (years some xsd:int[<10]))"
    )
    assert expr == And(
        NamedClass("AcrossSettingMBD"),
        Some(
            "hasParticipant",
            And(
                NamedClass("Participant"),
                Some("hasAge", DataSome("years", "<", 10)),
            ),
        ),
    )


def test_parse_value_restriction():
    expr = parse_dl_query("hasCondition value autism")
    assert expr == Value("hasCondition", "autism")


def test_parse_facet_operators():
    assert parse_dl_query("years some xsd:int[>=3]") == DataSome("years", ">=", 3)
    assert parse_dl_query("months some xsd:int[=0]") == DataSome("months", "=", 0)


@pytest.mark.parametrize(
    "text",
    [
        "Result and",
        "and Result",
        "isResultOfPhase some",
        "Result and isResultOfPhase some {ph01",
        "years some xsd:int[<]",
        "(Result",
        "",
        pytest.param("(" * 3000 + "Result" + ")" * 3000, id="parens-3000-deep"),
        pytest.param("hasPhase some (" * 3000 + "Phase" + ")" * 3000, id="some-3000-deep"),
    ],
)
def test_syntax_errors(text):
    with pytest.raises(DlSyntaxError):
        parse_dl_query(text)


def test_nesting_depth_limit(fig3_mat):
    def nested(levels):
        return "hasPhase some (" * levels + "Phase" + ")" * levels

    assert eval_dl_query(parse_dl_query(nested(MAX_DEPTH)), fig3_mat) == set()
    assert names(eval_dl_query(parse_dl_query(nested(1)), fig3_mat)) == {"ssd01"}
    with pytest.raises(DlSyntaxError, match=f"nested deeper than {MAX_DEPTH} levels"):
        parse_dl_query(nested(MAX_DEPTH + 1))
    # a flat conjunction is not nesting, however long
    chain = " and ".join(["Result"] * 3000)
    assert len(eval_dl_query(parse_dl_query(chain), fig3_mat)) == 6
    inner = " and ".join(["Result"] * 3000)
    assert len(eval_dl_query(parse_dl_query(f"Result and ({inner})"), fig3_mat)) == 6


def test_eval_results_of_phase(fig3_mat):
    expr = parse_dl_query("Result and isResultOfPhase some {ph01}")
    assert names(eval_dl_query(expr, fig3_mat)) == {"res01", "res02"}


def test_eval_named_class_uses_closure(fig3_mat):
    expr = parse_dl_query("WithdrawalDesign")
    assert names(eval_dl_query(expr, fig3_mat)) == {"ssd01"}
    expr = parse_dl_query("InterventionPhase")
    assert names(eval_dl_query(expr, fig3_mat)) == {"ph02", "ph04"}


def test_eval_value_restriction(fig3_mat):
    expr = parse_dl_query(
        "SingleSubjectDesign and hasParticipant some (hasCondition value autism)"
    )
    assert names(eval_dl_query(expr, fig3_mat)) == {"ssd01"}
    expr = parse_dl_query(
        "SingleSubjectDesign and hasParticipant some (hasCondition value adhd)"
    )
    assert eval_dl_query(expr, fig3_mat) == set()


def test_eval_age_facets(fig3_mat):
    young = parse_dl_query(
        "Participant and hasAge some (years some xsd:int[<10])"
    )
    assert names(eval_dl_query(young, fig3_mat)) == {"paul"}
    old = parse_dl_query("Participant and hasAge some (years some xsd:int[>10])")
    assert eval_dl_query(old, fig3_mat) == set()


def test_eval_complex_across_setting_query(mbd_mat):
    text = (QUERIES / "dl_across_setting_complex.dl").read_text()
    expr = parse_dl_query(text)
    assert names(eval_dl_query(expr, mbd_mat)) == {"mbd01"}


def test_eval_one_of(fig3_mat):
    expr = parse_dl_query("{paul, ssd01}")
    assert eval_dl_query(expr, fig3_mat) == {ssd("paul"), ssd("ssd01")}


def test_eval_on_empty_kb():
    kb = materialize_types(empty_kb())
    expr = parse_dl_query("Result and isResultOfPhase some {ph01}")
    assert eval_dl_query(expr, kb) == set()


def test_unknown_class_is_eval_error(fig3_mat):
    with pytest.raises(DlEvalError):
        eval_dl_query(parse_dl_query("NoSuchClass"), fig3_mat)


def test_unknown_property_is_eval_error(fig3_mat):
    with pytest.raises(DlEvalError):
        eval_dl_query(parse_dl_query("hasNoSuchProp some Result"), fig3_mat)


def test_prefixed_names_resolve(fig3_mat):
    assert names(eval_dl_query(parse_dl_query("ssd:Result"), fig3_mat)) == names(
        eval_dl_query(parse_dl_query("Result"), fig3_mat)
    )
    expr = parse_dl_query("hasOutcome value aut:correct_answers_wh")
    assert names(eval_dl_query(expr, fig3_mat)) == {"ssd01"}


_CLASS_ATOMS = st.sampled_from(
    [
        "Result",
        "Participant",
        "SingleSubjectDesign",
        "BaselinePhase",
        "InterventionPhase",
        "Instant",
        "hasParticipant some Participant",
        "isResultOfPhase some BaselinePhase",
        "hasCondition value autism",
        "hasAge some (years some xsd:int[<10])",
    ]
)


_FIG3 = materialize_types(load_kb("fig3.ttl"))


@given(_CLASS_ATOMS, _CLASS_ATOMS)
def test_conjunction_is_intersection(left, right):
    both = eval_dl_query(parse_dl_query(f"({left}) and ({right})"), _FIG3)
    l = eval_dl_query(parse_dl_query(left), _FIG3)
    r = eval_dl_query(parse_dl_query(right), _FIG3)
    assert both == l & r


@given(st.one_of(st.text(), edited_queries(".dl")))
def test_parse_dl_query_is_total(text):
    try:
        expr = parse_dl_query(text)
    except DlSyntaxError:
        return
    assert isinstance(expr, (NamedClass, And, Some, Value, OneOf, DataSome))
