import pathlib

import pytest
from hypothesis import strategies as st

from ssdkb.classify import materialize_types
from ssdkb.kb import graph_to_kb
from ssdkb.turtle import parse_turtle

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
QUERIES = pathlib.Path(__file__).resolve().parent.parent / "queries"


def edited_queries(suffix: str):
    """Texts near the queries in `queries/` whose names end in `suffix`: one
    of them with a slice of up to 8 characters replaced by up to 3 random
    ones, so that some still parse and others fail deep inside a query."""
    texts = sorted(path.read_text() for path in QUERIES.glob(f"*{suffix}"))
    return st.sampled_from(texts).flatmap(
        lambda text: st.builds(
            lambda i, n, new: text[:i] + new + text[i + n:],
            st.integers(0, len(text)),
            st.integers(0, 8),
            st.text(max_size=3),
        )
    )


def load_graph(name: str):
    return parse_turtle((FIXTURES / name).read_text())


def load_kb(name: str, taxonomy=None):
    return graph_to_kb(load_graph(name), taxonomy)


@pytest.fixture(scope="session")
def fig3_kb():
    return load_kb("fig3.ttl")


@pytest.fixture(scope="session")
def fig3_mat():
    return materialize_types(load_kb("fig3.ttl"))


@pytest.fixture(scope="session")
def mbd_mat():
    return materialize_types(load_kb("mbd_setting.ttl"))


@pytest.fixture(scope="session")
def ab_mat():
    return materialize_types(load_kb("ab_study.ttl"))
