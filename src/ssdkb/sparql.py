"""SPARQL subset: PREFIX declarations, SELECT over conjunctive triple
patterns (with `;` lists and `a`), ORDER BY ASC|DESC(?v), LIMIT n, and
`#` comments.

Queries run over asserted plus inferred triples, with bag semantics. The
patterns are joined in an order planned once per query (`join_order`)
from the store's per-predicate statistics, the sizes of the tables that
the store builds at the first query that needs them: connected patterns
first, fewest estimated rows first. Rows are ordered by the ORDER BY
key, numerically for numbers, with ties broken by the whole selected
row ascending; DESC reverses only the key. Without ORDER BY, rows are
sorted, so the join order never shows in the output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional, Sequence, Union

from . import scan
from .kb import KnowledgeBase, TripleIndex
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
            tok = self.next()
            if tok[1][1:] in select_vars:
                # JSON keys a row by variable, so it could not hold both
                raise self.error(f"select variable {tok[1]} repeated", tok[2])
            select_vars.append(tok[1][1:])
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


def _sort_key_for(term: Term) -> tuple:
    if isinstance(term, Literal) and term.datatype in ("integer", "decimal"):
        return (0, term.as_decimal())
    return (1, term)


class _Step:
    """`pattern` as the join's next step, over rows that hold each variable
    bound so far at its place in `column`."""

    def __init__(self, pattern: TriplePattern, column: dict[str, int]):
        slots = (pattern.subject, pattern.predicate, pattern.object)
        # `get(row + terms)` gives `candidates` each constant from `terms`,
        # each bound variable from the row, and None for a new variable
        self.terms = tuple(None if isinstance(t, Var) else t for t in slots)
        width = len(column)
        self.get = itemgetter(*(
            column.get(t.name, width + j) if isinstance(t, Var) else width + j
            for j, t in enumerate(slots)
        ))
        # each new variable's first position in a triple, and the pairs of
        # positions that one new variable fills (`?x p ?x`)
        self.new: dict[str, int] = {}
        self.repeats: list[tuple[int, int]] = []
        for j, t in enumerate(slots):
            if isinstance(t, Var) and t.name not in column:
                first = self.new.setdefault(t.name, j)
                if first != j:
                    self.repeats.append((first, j))
        self.pick = _tuple_getter(list(self.new.values()))
        # the predicate is a constant and every row binds the subject: one
        # lookup in that predicate's subject table per row
        self.keyed = not isinstance(slots[1], Var) and (
            not isinstance(slots[0], Var) or slots[0].name in column
        )


def _keyed_candidates(table: dict):
    """`TripleIndex.candidates` for a given subject and the constant
    predicate whose subject table `table` is, read once, not once per call."""

    def candidates(subject, predicate, obj):
        found = table.get(subject, ())
        return found if obj is None else [t for t in found if t[2] == obj]

    return candidates


def _tuple_getter(places: list[int]):
    """`itemgetter(*places)`, but one that gives a tuple for one place or none."""
    if len(places) > 1:
        return itemgetter(*places)
    return itemgetter(slice(places[0], places[0] + 1) if places else slice(0))


def join_order(patterns: Sequence[TriplePattern], index: TripleIndex) -> list[TriplePattern]:
    """The order in which `eval_sparql` joins `patterns`, planned from the
    store's statistics. A pattern's rows per input row are the triples that
    match its constants, divided, for each variable bound by an earlier
    pattern, by the distinct terms of the predicate at that place. From each
    start, the order grows by the connected pattern with the fewest rows,
    and by a disconnected one only when no connected one is left. The order
    whose rows after each step sum lowest wins; the first on a tie."""
    # per pattern: the triples that match its constants, and a divisor for
    # each of its variables
    estimates = []
    for p in patterns:
        slots = (p.subject, p.predicate, p.object)
        constants = [None if isinstance(t, Var) else t for t in slots]
        _, subjects, objects = index.stats(constants[1])
        divisors = (subjects, len(index.by_p), objects)
        estimates.append((
            len(index.candidates(*constants)),
            [(t.name, max(d, 1)) for t, d in zip(slots, divisors) if isinstance(t, Var)],
        ))

    def rows_per_row(i, bound):
        matches, divisors = estimates[i]
        for name, divisor in divisors:
            if name in bound:
                matches /= divisor
        return matches

    best, best_cost = list(range(len(patterns))), float("inf")
    for start in range(len(patterns)):
        order, rows, cost = [], 1.0, 0.0
        bound: set[str] = set()
        left = list(range(len(patterns)))
        i = start
        while True:
            rows *= rows_per_row(i, bound)
            cost += rows
            if cost >= best_cost:
                break
            order.append(i)
            left.remove(i)
            bound.update(name for name, _ in estimates[i][1])
            if not left:
                best, best_cost = order, cost
                break
            connected = [j for j in left if any(name in bound for name, _ in estimates[j][1])]
            i = min(connected or left, key=lambda j: rows_per_row(j, bound))
    return [patterns[i] for i in best]


def join(
    patterns: Sequence[TriplePattern], index: TripleIndex
) -> tuple[dict[str, int], list[tuple[Term, ...]]]:
    """The rows that join `patterns` in the given order, and each variable's
    place in a row. The join stops at the first step that leaves no rows."""
    column: dict[str, int] = {}
    rows: list[tuple[Term, ...]] = [()]
    for pattern in patterns:
        if not rows:
            break
        step = _Step(pattern, column)
        # `candidates` matched the constants and the bound variables, so a
        # row only takes the new variables' values
        get, terms, pick, repeats = step.get, step.terms, step.pick, step.repeats
        candidates = _keyed_candidates(index.subjects(terms[1])) if step.keyed else index.candidates
        rows = [
            row + pick(t)
            for row in rows
            for t in candidates(*get(row + terms))
            if not repeats or all(t[i] == t[j] for i, j in repeats)
        ]
        for name in step.new:
            column[name] = len(column)
    return column, rows


def eval_sparql(query: SparqlQuery, kb: KnowledgeBase) -> BindingTable:
    index = kb.store
    column, rows = join(join_order(query.patterns, index), index)
    if not rows:  # the patterns left unjoined gave their variables no column
        return BindingTable(header=query.select_vars)

    picked = [column[v] for v in query.select_vars]
    selected = rows if picked == list(range(len(column))) else list(map(_tuple_getter(picked), rows))
    if query.order_by is None:
        selected.sort()
    else:
        var, direction = query.order_by
        keyed = sorted(zip([_sort_key_for(row[column[var]]) for row in rows], selected))
        if direction == "DESC":
            keyed.sort(key=itemgetter(0), reverse=True)  # stable: ties stay ascending
        selected = [row for _, row in keyed]
    if query.limit is not None:
        selected = selected[: query.limit]
    return BindingTable(header=query.select_vars, rows=selected)
