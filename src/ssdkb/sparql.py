"""SPARQL subset: PREFIX declarations, SELECT over conjunctive triple
patterns (with `;` lists and `a`), ORDER BY ASC|DESC(?v), LIMIT n, and
`#` comments.

Queries run over asserted plus inferred triples, with bag semantics. The
patterns are joined in an order planned once per query (`join_order`)
from the store's per-predicate statistics, the sizes of the tables that
the store builds at the first query that needs them: connected patterns
first, fewest estimated rows first. The join (`join`) holds its rows a
column at a time and matches each pattern against all of them in a few
passes of C builtins, so no Python bytecode runs per row but a variable
predicate's lookups; the rows are built once, from the selected columns.
They are ordered by the ORDER BY key, numerically for numbers, with ties
broken by the whole selected row ascending; DESC reverses only the key.
Without ORDER BY, rows are sorted, so the join order never shows in the
output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import eq, itemgetter
from typing import Optional, Sequence, Union

from . import scan
from .kb import KnowledgeBase, TripleIndex
from .terms import (
    DEFAULT_PREFIXES,
    Iri,
    Literal,
    RDF_TYPE,
    Term,
    unescape,
)
from .turtle import display_names


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
        names = display_names(chain.from_iterable(self.rows))
        lines = ["\t".join(f"?{v}" for v in self.header)]
        for row in self.rows:
            lines.append("\t".join(names[t].translate(_TSV_ESCAPES) for t in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        names = display_names(chain.from_iterable(self.rows))
        out = [{var: names[term] for var, term in zip(self.header, row)} for row in self.rows]
        return json.dumps(out, indent=2) + "\n"


# what a TSV cell escapes, as SPARQL 1.1's TSV results do inside literals,
# so a cell never holds a raw tab or line break
_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})


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


# a triple's term at each place: subject, predicate, object
_PLACE = (itemgetter(0), itemgetter(1), itemgetter(2))


def _sort_key_for(term: Term) -> tuple:
    if isinstance(term, Literal) and term.datatype in ("integer", "decimal"):
        return (0, term.as_decimal())
    return (1, term)


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
) -> tuple[int, dict[str, list[Term]]]:
    """The rows that join `patterns` in the given order, held a column at
    a time: the number of rows, and each variable's column, one entry per
    row. Each step matches all the rows at once, in passes over whole
    columns. A step that binds no variable the rows hold reads the store
    once and pairs every row with every match. Otherwise it looks every
    row up: in the subject table of its constant predicate if its subject
    is bound, else in the object table, or through
    `TripleIndex.candidates` if its predicate is a variable. A variable
    that the lookup matched is read off the matches, and every other old
    column is repeated once per match of its row. The tests the lookup
    left (a constant or a second bound variable beside the key, or a new
    variable that fills two places) then filter all the columns together.
    Rows come out in the order of a row-at-a-time nested loop. The join
    stops at the first step that leaves no rows."""
    count, columns = 1, {}
    for pattern in patterns:
        if not count:
            break
        slots = (pattern.subject, pattern.predicate, pattern.object)
        bound = [isinstance(t, Var) and t.name in columns for t in slots]
        constants = [None if isinstance(t, Var) else t for t in slots]
        # each row's matches, and the places whose term the lookup matched
        checked = (True, True, True)
        if not any(bound):
            found = [index.candidates(*constants)] * count
        elif constants[1] is None:
            found = list(map(index.candidates, *(
                columns[t.name] if b else repeat(c) for t, b, c in zip(slots, bound, constants)
            )))
        else:
            key = 0 if bound[0] else 2
            table = index.subjects(slots[1]) if key == 0 else index.objects(slots[1])
            found = list(map(table.get, columns[slots[key].name], repeat(())))
            checked = (key == 0, True, key == 2)
        matches = list(chain.from_iterable(found))
        repeats = list(map(len, found))
        # the old columns, one entry per match
        read = {t.name: place for place, t in enumerate(slots) if bound[place] and checked[place]}
        columns = {
            name: list(map(_PLACE[read[name]], matches))
            if name in read
            else list(chain.from_iterable(map(repeat, column, repeats)))
            for name, column in columns.items()
        }
        # each new variable's first place, and the tests left for each match
        new: dict[str, int] = {}
        wanted = []
        for place, term in enumerate(slots):
            if isinstance(term, Var) and term.name not in columns:
                if term.name in new:
                    wanted.append((place, map(_PLACE[new[term.name]], matches)))
                else:
                    new[term.name] = place
            elif not checked[place]:
                wanted.append((place, columns[term.name] if bound[place] else repeat(term)))
        if wanted:
            keep = list(map(all, zip(*(
                map(eq, map(_PLACE[place], matches), values) for place, values in wanted
            ))))
            matches = list(compress(matches, keep))
            columns = {name: list(compress(column, keep)) for name, column in columns.items()}
        for name, place in new.items():
            columns[name] = list(map(_PLACE[place], matches))
        count = len(matches)
    return count, columns


def eval_sparql(query: SparqlQuery, kb: KnowledgeBase) -> BindingTable:
    index = kb.store
    count, columns = join(join_order(query.patterns, index), index)
    if not count:  # the patterns left unjoined gave their variables no column
        return BindingTable(header=query.select_vars)

    selected = list(zip(*(columns[v] for v in query.select_vars)))
    if query.order_by is None:
        selected.sort()
    else:
        var, direction = query.order_by
        keyed = sorted(zip(map(_sort_key_for, columns[var]), selected))
        if direction == "DESC":
            keyed.sort(key=itemgetter(0), reverse=True)  # stable: ties stay ascending
        selected = [row for _, row in keyed]
    if query.limit is not None:
        selected = selected[: query.limit]
    return BindingTable(header=query.select_vars, rows=selected)
