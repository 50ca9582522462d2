"""SPARQL subset: PREFIX declarations, SELECT over conjunctive triple
patterns (with `;` lists and `a`), ORDER BY ASC|DESC(?v), LIMIT n, and
`#` comments.

Evaluation is bag-semantics join over asserted plus inferred triples;
rows are ordered by the ORDER BY key (numeric when values are numeric)
with a lexicographic tiebreak over the whole row, so output is
deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Union

from . import scan
from .kb import KnowledgeBase
from .terms import (
    DEFAULT_PREFIXES,
    BlankNode,
    Iri,
    Literal,
    RDF_TYPE,
    Term,
    local_name,
    unescape,
)


class SparqlSyntaxError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


PatternTerm = Union[Term, Var]


@dataclass(frozen=True)
class TriplePattern:
    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm


@dataclass(frozen=True)
class SparqlQuery:
    select_vars: tuple[str, ...]
    patterns: tuple[TriplePattern, ...]
    order_by: Optional[tuple[str, str]] = None  # (variable, "ASC"|"DESC")
    limit: Optional[int] = None


@dataclass
class BindingTable:
    header: tuple[str, ...]
    rows: list[tuple[Term, ...]] = field(default_factory=list)

    def to_tsv(self) -> str:
        lines = ["\t".join(f"?{v}" for v in self.header)]
        for row in self.rows:
            lines.append("\t".join(_term_text(t) for t in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        out = [
            {var: _term_text(term) for var, term in zip(self.header, row)}
            for row in self.rows
        ]
        return json.dumps(out, indent=2) + "\n"


def _term_text(term: Term) -> str:
    if isinstance(term, Iri):
        return local_name(term)
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    return term.lexical


# --- parser ---

_TOKEN_RX = scan.language(
    scan.SKIP,
    iriref=scan.IRIREF,
    var=r"\?[A-Za-z_][A-Za-z0-9_]*",
    decimal=scan.DECIMAL,
    integer=scan.INTEGER,
    string=scan.STRING,
    punct=r"[{}();.,]",
    name=r"[A-Za-z_][A-Za-z0-9_\-]*:[A-Za-z_][A-Za-z0-9_\-]*|[A-Za-z_][A-Za-z0-9_\-]*:?",
)


class _SparqlParser(scan.Cursor):
    rx = _TOKEN_RX
    Error = SparqlSyntaxError
    near = 12

    def __init__(self, text: str):
        super().__init__(text)
        self.prefixes = dict(DEFAULT_PREFIXES)

    def parse(self) -> SparqlQuery:
        while self.at("name", "prefix"):
            self.next()
            label_tok = self.next()
            if label_tok[0] != "name" or not label_tok[1].endswith(":"):
                raise self.error(f"expected a prefix label, found {label_tok[1]!r}", label_tok[2])
            iri_tok = self.next()
            if iri_tok[0] != "iriref":
                raise self.error(f"expected an IRI, found {iri_tok[1]!r}", iri_tok[2])
            self.prefixes[label_tok[1][:-1]] = iri_tok[1][1:-1]

        self.expect("name", "select")
        select_vars = []
        while self.at("var"):
            select_vars.append(self.next()[1][1:])
        if not select_vars:
            raise self.error("SELECT needs at least one variable", self.peek()[2])

        self.expect("name", "where")
        self.expect("punct", "{")
        patterns = self.parse_patterns()
        self.expect("punct", "}")

        order_by = None
        if self.at("name", "order"):
            self.next()
            self.expect("name", "by")
            direction_tok = self.next()
            if direction_tok[0] != "name" or direction_tok[1].upper() not in ("ASC", "DESC"):
                raise self.error(
                    f"expected ASC or DESC, found {direction_tok[1]!r}", direction_tok[2]
                )
            self.expect("punct", "(")
            var_tok = self.next()
            if var_tok[0] != "var":
                raise self.error(f"expected a variable, found {var_tok[1]!r}", var_tok[2])
            self.expect("punct", ")")
            order_by = (var_tok[1][1:], direction_tok[1].upper())

        limit = None
        if self.at("name", "limit"):
            self.next()
            tok = self.next()
            if tok[0] != "integer" or int(tok[1]) <= 0:
                raise self.error(f"LIMIT needs a positive integer, found {tok[1]!r}", tok[2])
            limit = int(tok[1])

        tok = self.peek()
        if tok[0] != "EOF":
            raise self.error(f"unexpected trailing input {tok[1]!r}", tok[2])

        pattern_vars = {
            t.name
            for p in patterns
            for t in (p.subject, p.predicate, p.object)
            if isinstance(t, Var)
        }
        for var in select_vars:
            if var not in pattern_vars:
                raise SparqlSyntaxError(f"select variable ?{var} not bound in patterns", 0)
        if order_by is not None and order_by[0] not in pattern_vars:
            raise SparqlSyntaxError(f"order variable ?{order_by[0]} not bound in patterns", 0)

        return SparqlQuery(
            select_vars=tuple(select_vars),
            patterns=tuple(patterns),
            order_by=order_by,
            limit=limit,
        )

    def parse_term(self, *, as_predicate: bool = False) -> PatternTerm:
        tok = self.next()
        if tok[0] == "var":
            return Var(tok[1][1:])
        if tok[0] == "iriref":
            return Iri(tok[1][1:-1])
        if tok[0] == "name":
            if tok[1] == "a" and as_predicate:
                return RDF_TYPE
            if ":" in tok[1]:
                prefix, local = tok[1].split(":", 1)
                ns = self.prefixes.get(prefix)
                if ns is None:
                    raise self.error(f"unresolved prefix {prefix!r}", tok[2])
                return Iri(ns + local)
            raise self.error(f"bare name {tok[1]!r} is not a term", tok[2])
        if as_predicate:
            raise self.error(f"predicate must be an IRI, found {tok[1]!r}", tok[2])
        if tok[0] == "integer":
            return Literal(tok[1], "integer")
        if tok[0] == "decimal":
            return Literal(tok[1], "decimal")
        if tok[0] == "string":
            try:
                return Literal(unescape(tok[1][1:-1]), "string")
            except ValueError:
                raise self.error("bad string escape", tok[2]) from None
        raise self.error(f"expected a term, found {tok[1]!r}", tok[2])

    def parse_patterns(self) -> list[TriplePattern]:
        patterns: list[TriplePattern] = []
        while not self.at("punct", "}"):
            subject = self.parse_term()
            while True:
                predicate = self.parse_term(as_predicate=True)
                obj = self.parse_term()
                patterns.append(TriplePattern(subject, predicate, obj))
                if self.at("punct", ";"):
                    self.next()
                    continue
                if self.at("punct", "."):
                    self.next()
                break
            if self.at("EOF"):
                raise self.error("unterminated pattern group", self.peek()[2])
        return patterns


def parse_sparql(text: str) -> SparqlQuery:
    return _SparqlParser(text).parse()


# --- evaluation ---


def _resolved(pattern: TriplePattern, binding: dict):
    def resolve(x):
        if isinstance(x, Var):
            return binding.get(x.name)
        return x

    return resolve(pattern.subject), resolve(pattern.predicate), resolve(pattern.object)


def _sort_key_for(term: Term) -> tuple:
    if isinstance(term, Literal) and term.datatype in ("integer", "decimal"):
        return (0, term.as_decimal())
    return (1, term)


def eval_sparql(query: SparqlQuery, kb: KnowledgeBase) -> BindingTable:
    index = kb.index()

    # greedy most-selective-first join order, re-estimated against a
    # representative binding at each step; semantics are order-independent
    remaining = list(query.patterns)
    bindings: list[dict[str, Term]] = [{}]
    while remaining:
        rep = bindings[0] if bindings else {}
        pattern = min(
            remaining, key=lambda p: len(index.candidates(*_resolved(p, rep)))
        )
        remaining.remove(pattern)
        slots = (pattern.subject, pattern.predicate, pattern.object)
        next_bindings = []
        for binding in bindings:
            for t in index.candidates(*_resolved(pattern, binding)):
                extended = dict(binding)
                ok = True
                for slot, value in zip(slots, t):
                    if isinstance(slot, Var):
                        bound = extended.get(slot.name)
                        if bound is None:
                            extended[slot.name] = value
                        elif bound != value:
                            ok = False
                            break
                if ok:
                    next_bindings.append(extended)
        bindings = next_bindings
        if not bindings:
            break

    rows = [tuple(b[v] for v in query.select_vars) for b in bindings]

    if query.order_by is not None:
        var, direction = query.order_by
        reverse = direction == "DESC"

        def key(row_binding):
            row, binding = row_binding
            return _sort_key_for(binding[var])

        paired = sorted(
            zip(rows, bindings),
            key=lambda rb: (key(rb), rb[0]),
        )
        if reverse:
            # reverse only the order key, keep the lexicographic tiebreak stable
            paired = sorted(
                paired,
                key=lambda rb: key(rb),
                reverse=True,
            )
        rows = [row for row, _ in paired]
    else:
        rows.sort()

    if query.limit is not None:
        rows = rows[: query.limit]
    return BindingTable(header=query.select_vars, rows=rows)
