"""RDF-style terms: IRIs, blank nodes and typed literals."""

from __future__ import annotations

import gc
import re
from contextlib import contextmanager
from decimal import Decimal
from operator import itemgetter
from typing import Union

SSD_NS = "http://bdi.si.ehu.es/bdi/ontologies/SSDOnt/SSDOnt#"
AUT_NS = "http://bdi.si.ehu.es/bdi/ontologies/SSDOnt/SSDOntAutism#"
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"

# Both `ssd:` and `ssid:` label the core namespace: annotation examples use
# the former, SPARQL prefixes the latter.
DEFAULT_PREFIXES: dict[str, str] = {
    "ssd": SSD_NS,
    "ssid": SSD_NS,
    "aut": AUT_NS,
}


class _Tagged(tuple):
    """Base of the term and triple types: tuples, so hashing, equality and
    ordering run in C. A term's leading kind tag keeps the types apart and
    makes tuple order the total order over terms: IRIs, then blank nodes,
    then literals by datatype and then lexical form. `_fields` names the
    constructor's arguments; copy and pickle rebuild through it."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"


class Iri(_Tagged):
    __slots__ = ()
    _fields = ("value",)
    value = property(itemgetter(1))

    def __new__(cls, value: str):
        return tuple.__new__(cls, (0, value))

    def __str__(self) -> str:
        return f"<{self.value}>"


class BlankNode(_Tagged):
    __slots__ = ()
    _fields = ("label",)
    label = property(itemgetter(1))

    def __new__(cls, label: str):
        return tuple.__new__(cls, (1, label))

    def __str__(self) -> str:
        return f"_:{self.label}"


class Literal(_Tagged):
    """A literal with its lexical form and a coarse datatype tag."""

    __slots__ = ()
    _fields = ("lexical", "datatype")
    datatype = property(itemgetter(1))  # "integer" | "decimal" | "string"
    lexical = property(itemgetter(2))

    def __new__(cls, lexical: str, datatype: str):
        if datatype not in ("integer", "decimal", "string"):
            raise ValueError(f"unknown literal datatype: {datatype}")
        return tuple.__new__(cls, (2, datatype, lexical))

    def as_int(self) -> int:
        return int(self.lexical)

    def as_decimal(self) -> Decimal:
        return Decimal(self.lexical)

    def __str__(self) -> str:
        if self.datatype == "string":
            return f'"{self.lexical.translate(_QUOTED)}"'
        return self.lexical


# what a quoted literal escapes, and how; W3C Turtle allows no raw line
# break inside "…"
_QUOTED = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"})
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_ESCAPE_RX = re.compile(r"\\(.?)", re.DOTALL)


def unescape(raw: str) -> str:
    """The text of a quoted string literal, given what lies between the
    quotes: the inverse of `Literal.__str__`. Raises ValueError on an escape
    other than \\\\, \\", \\n, \\t or \\r."""
    try:
        return _ESCAPE_RX.sub(lambda m: _ESCAPES[m[1]], raw)
    except KeyError:
        raise ValueError(f"bad string escape in {raw!r}") from None


Term = Union[Iri, BlankNode, Literal]

RDF_TYPE = Iri(RDF_NS + "type")


def integer(value: int) -> Literal:
    return Literal(str(int(value)), "integer")


def ssd(local: str) -> Iri:
    return Iri(SSD_NS + local)


def aut(local: str) -> Iri:
    return Iri(AUT_NS + local)


@contextmanager
def gc_paused():
    """Pause Python's cyclic garbage collector for the body; as a decorator,
    `@gc_paused()`, for each call. The corpus-sized builders allocate
    hundreds of thousands of containers that form no cycles, so reference
    counting frees them and the collector would only rescan them. On exit,
    also by an exception, the collector is enabled again if it was on."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def local_name(iri: Iri) -> str:
    """The fragment after the namespace separator, for display."""
    value = iri.value
    for sep in ("#", "/"):
        if sep in value:
            return value.rsplit(sep, 1)[1]
    return value

