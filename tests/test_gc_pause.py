"""The corpus-sized builders pause the cyclic garbage collector. That is
safe only if they leave no reference cycles behind, and only if the
collector comes back on exactly when it was on before the call."""

import gc
from contextlib import nullcontext

import pytest

from ssdkb.classify import materialize_types
from ssdkb.generate import GenProfile, generate_graph
from ssdkb.kb import SchemaError, TripleIndex, graph_to_kb
from ssdkb.terms import RDF_TYPE, gc_paused
from ssdkb.turtle import TurtleSyntaxError, parse_turtle, serialize_turtle


@pytest.fixture(autouse=True)
def restore_collector():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def test_collector_back_on_after_return():
    gc.enable()
    with gc_paused():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_collector_back_on_after_an_exception():
    gc.enable()
    with pytest.raises(ValueError):
        with gc_paused():
            raise ValueError("inside")
    assert gc.isenabled()


def test_decorator_pauses_each_call():
    @gc_paused()
    def state(fail: bool) -> bool:
        if fail:
            raise ValueError("inside")
        return gc.isenabled()

    gc.enable()
    assert state(False) is False
    assert gc.isenabled()
    with pytest.raises(ValueError):
        state(True)
    assert gc.isenabled()
    assert state(False) is False


def test_nested_pauses():
    gc.enable()
    with gc_paused():
        with gc_paused():
            assert not gc.isenabled()
        # the inner pause found the collector off, so leaves it off
        assert not gc.isenabled()
    assert gc.isenabled()


def test_collector_stays_off_if_it_was_off():
    gc.disable()
    with gc_paused():
        with gc_paused():
            pass
    assert not gc.isenabled()
    with pytest.raises(ValueError):
        with gc_paused():
            raise ValueError("inside")
    assert not gc.isenabled()


# --- the builders ---


@pytest.fixture(scope="module")
def corpus():
    graph = generate_graph(200, GenProfile(seed=5))
    text = serialize_turtle(graph)
    kb = graph_to_kb(parse_turtle(text))
    # a syntax error after the last statement, and a result that refers to
    # a phase that does not exist: both raise once the whole input is read
    bad_text = text + "ssd:late ssd:hasValue .\n"
    dangling = parse_turtle(
        text
        + "ssd:r a ssd:Result ; ssd:hasValue 1.0 ; ssd:occursIn _:late ;"
        " ssd:isResultOfPhase ssd:ghost .\n_:late a ssd:Instant ; ssd:hasValue 1 .\n"
    )
    return {"graph": graph, "text": text, "kb": kb, "bad_text": bad_text, "dangling": dangling}


BUILDS = {
    "generate_graph": (lambda c: generate_graph(200, GenProfile(seed=5)), None),
    "serialize_turtle": (lambda c: serialize_turtle(c["graph"]), None),
    "parse_turtle": (lambda c: parse_turtle(c["text"]), None),
    "parse_turtle, bad input": (lambda c: parse_turtle(c["bad_text"]), TurtleSyntaxError),
    "graph_to_kb": (lambda c: graph_to_kb(c["graph"]), None),
    "graph_to_kb, dangling reference": (lambda c: graph_to_kb(c["dangling"]), SchemaError),
    "materialize_types": (lambda c: materialize_types(c["kb"]), None),
    "TripleIndex.subjects": (lambda c: TripleIndex(c["kb"].store.all).subjects(RDF_TYPE), None),
    "TripleIndex.objects": (lambda c: TripleIndex(c["kb"].store.all).objects(RDF_TYPE), None),
}


def _build(corpus, name):
    call, error = BUILDS[name]
    with pytest.raises(error) if error else nullcontext():
        call(corpus)


@pytest.mark.parametrize("name", BUILDS)
def test_builder_leaves_no_cyclic_garbage(corpus, name):
    # a full collection from a clean heap, with the collector off during
    # the call, finds nothing unreachable; the result is dropped first, so a
    # cycle inside it would count too
    gc.collect()
    gc.disable()
    _build(corpus, name)
    assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("name", BUILDS)
def test_builder_restores_the_collector_state(corpus, name, enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()
    _build(corpus, name)
    assert gc.isenabled() is enabled
