"""RDF-style terms: IRIs, blank nodes and typed literals."""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
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


@dataclass(frozen=True)
class Iri:
    value: str

    def __str__(self) -> str:
        return f"<{self.value}>"


@dataclass(frozen=True)
class BlankNode:
    label: str

    def __str__(self) -> str:
        return f"_:{self.label}"


@dataclass(frozen=True)
class Literal:
    """A literal with its lexical form and a coarse datatype tag."""

    lexical: str
    datatype: str  # "integer" | "decimal" | "string"

    def __post_init__(self) -> None:
        if self.datatype not in ("integer", "decimal", "string"):
            raise ValueError(f"unknown literal datatype: {self.datatype}")

    def as_int(self) -> int:
        return int(self.lexical)

    def as_decimal(self) -> Decimal:
        return Decimal(self.lexical)

    def __str__(self) -> str:
        if self.datatype == "string":
            escaped = self.lexical.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        return self.lexical


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


def decimal(value) -> Literal:
    return Literal(str(value), "decimal")


def ssd(local: str) -> Iri:
    return Iri(SSD_NS + local)


def aut(local: str) -> Iri:
    return Iri(AUT_NS + local)


def local_name(iri: Iri) -> str:
    """The fragment after the namespace separator, for display."""
    value = iri.value
    for sep in ("#", "/"):
        if sep in value:
            return value.rsplit(sep, 1)[1]
    return value


def term_sort_key(term: Term) -> tuple:
    """Total order over terms: IRIs, then blank nodes, then literals."""
    if isinstance(term, Iri):
        return (0, term.value)
    if isinstance(term, BlankNode):
        return (1, term.label)
    return (2, term.datatype, term.lexical)
