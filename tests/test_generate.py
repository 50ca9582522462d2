import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isomorphism import isomorphic
from ssdkb import vocab
from ssdkb.classify import classify_design, materialize_types
from ssdkb.generate import (
    DESIGN_CLASS,
    GenProfile,
    ProfileError,
    generate_graph,
    generate_studies,
    generated_design,
)
from ssdkb.kb import kb_stats, validate_kb
from ssdkb.taxonomy import core_taxonomy
from ssdkb.turtle import parse_turtle, serialize_turtle

TAX = core_taxonomy()


def test_same_seed_gives_identical_serialization():
    a = serialize_turtle(generate_graph(8, GenProfile(seed=42)))
    b = serialize_turtle(generate_graph(8, GenProfile(seed=42)))
    assert a == b


def test_different_seeds_differ():
    a = serialize_turtle(generate_graph(8, GenProfile(seed=1)))
    b = serialize_turtle(generate_graph(8, GenProfile(seed=2)))
    assert a != b


def test_zero_studies_is_empty():
    graph = generate_graph(0)
    assert len(graph) == 0
    kb = generate_studies(0)
    assert kb_stats(kb).study_count == 0


def test_negative_count_rejected():
    with pytest.raises(ProfileError):
        generate_graph(-1)


def test_generated_kb_is_valid_and_counts_match():
    kb = generate_studies(10, GenProfile(seed=7))
    assert validate_kb(kb) == []
    assert kb_stats(kb).study_count == 10


def test_label_agrees_with_classifier():
    profile = GenProfile(seed=11)
    kb = generate_studies(25, profile)
    for index, study in enumerate(kb.studies):
        label = generated_design(index, profile)
        assert DESIGN_CLASS[label] in classify_design(study, TAX), (index, label)


def test_round_trip_is_isomorphic():
    graph = generate_graph(6, GenProfile(seed=3))
    again = parse_turtle(serialize_turtle(graph))
    assert isomorphic(graph, again)


def test_materialization_succeeds_on_generated_kbs():
    kb = generate_studies(12, GenProfile(seed=5))
    mat = materialize_types(kb)
    assert mat.inferred
    # every study ends up typed as SingleSubjectDesign
    from ssdkb.terms import RDF_TYPE
    from ssdkb.turtle import Triple

    for study in kb.studies:
        assert Triple(study.id, RDF_TYPE, vocab.SINGLE_SUBJECT_DESIGN) in mat.inferred


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 12), st.integers(1, 10_000))
def test_determinism_property(n, seed):
    profile = GenProfile(seed=seed)
    assert serialize_turtle(generate_graph(n, profile)) == serialize_turtle(
        generate_graph(n, profile)
    )


def test_prefix_independence():
    # regenerating a longer run reproduces the shorter run's studies
    short = generate_studies(4, GenProfile(seed=9))
    long = generate_studies(8, GenProfile(seed=9))
    assert long.studies[:4] == short.studies


def test_profile_from_file(tmp_path):
    path = tmp_path / "profile.txt"
    path.write_text(
        "# comment\n"
        "seed = 99\n"
        "mix.AB = 1.0\n"
        "mix.ABAB = 0.0\n"
        "mix.ABAB_F = 0\n"
        "mix.AlternatingTreatment = 0\n"
        "mix.AcrossSettingMBD = 0\n"
        "mix.AcrossSubjectMBD = 0\n"
        "mix.AcrossOutcomeMBD = 0\n"
        "results_min = 2\n"
        "results_max = 3\n"
        "participants_min = 1\n"
        "participants_max = 1\n"
        "intervention_pool = 5\n"
        "outcome_pool = 4\n"
    )
    profile = GenProfile.from_file(str(path))
    assert profile.seed == 99
    assert profile.design_mix["AB"] == 1.0
    assert profile.results_per_phase == (2, 3)
    kb = generate_studies(5, profile)
    for study in kb.studies:
        assert vocab.AB_DESIGN in classify_design(study, TAX)


@pytest.mark.parametrize(
    "line",
    [
        "mix.NoSuchDesign = 1.0",
        "results_min = 9\nresults_max = 2",
        "intervention_pool = 1",
        "mix.AB = -2",
        "nonsense_key = 1",
        "seed 99",
    ],
)
def test_bad_profiles_rejected(tmp_path, line):
    path = tmp_path / "bad.txt"
    path.write_text(line + "\n")
    with pytest.raises(ProfileError):
        profile = GenProfile.from_file(str(path))
        profile.check()


def test_all_zero_mix_rejected():
    mix = {name: 0.0 for name in DESIGN_CLASS}
    with pytest.raises(ProfileError):
        generate_graph(1, GenProfile(design_mix=mix))
