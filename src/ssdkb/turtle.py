"""Turtle subset parser and canonical serializer.

Supported grammar: `@prefix` directives, prefixed names, absolute IRIs in
angle brackets, the `a` keyword, `;` predicate lists, `.` terminators,
`_:label` blank nodes, integer/decimal/quoted-string literals, and
`#` comments. Collections, language tags and numeric exponents are out of
scope.

The reader makes one pass over the text. It reads a statement with two
regexes built from `scan`'s token fragments: one matches the subject and
the first predicate-object pair, the other each later pair, each match
ending at the `;` or `.` after its object. So it takes one Python step per
pair, not per token. Where neither matches, or a term does not resolve, it
reads that statement again from its start with the token loop: `scan`'s
regex and error rule, one token at a time, calling `next` on `finditer`
itself rather than going through `scan.Cursor`. The token loop also reads
every `@prefix` directive and the end of the text, and it raises every
syntax error, so messages and positions are those of a token-by-token read.

Within one document, every distinct IRI, prefixed name, blank-node label
and literal token is turned into a term once, and all its occurrences share
that instance; the term's kind is read from the token's first character.
Sharing is safe because terms are frozen. An `@prefix` directive empties
the cache, since it can change what a prefixed name means.
"""

from __future__ import annotations

import itertools
import re
from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter

from . import scan
from .terms import (
    DEFAULT_PREFIXES,
    BlankNode,
    Iri,
    Literal,
    RDF_TYPE,
    Term,
    _Tagged,
    gc_paused,
    unescape,
)


class TurtleSyntaxError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class Triple(_Tagged):
    __slots__ = ()
    _fields = ("subject", "predicate", "object")
    subject = property(itemgetter(0))
    predicate = property(itemgetter(1))
    object = property(itemgetter(2))

    def __new__(cls, subject: Term, predicate: Iri, object: Term):
        if not isinstance(predicate, Iri):
            raise ValueError(f"predicate must be an IRI, got {predicate!r}")
        return tuple.__new__(cls, (subject, predicate, object))


@dataclass
class TripleGraph:
    prefix_table: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_PREFIXES))
    triples: set[Triple] = field(default_factory=set)

    def add(self, subject: Term, predicate: Iri, obj: Term) -> None:
        self.triples.add(Triple(subject, predicate, obj))

    def __len__(self) -> int:
        return len(self.triples)


# --- reader ---

_BLANK = r"_:[A-Za-z0-9][A-Za-z0-9_\-]*"
# Local part may be empty (`ssd:` alone is valid but unused here).
_PNAME = r"(?:[A-Za-z][A-Za-z0-9_\-]*)?:(?:[A-Za-z_][A-Za-z0-9_\-]*)?"
_A = r"a(?![A-Za-z0-9_\-:])"

# After any whitespace and `#` comments. The first alternative that matches
# wins, so `a:` is a prefixed name and `a` alone the keyword. The kinds are
# what error messages print.
_TOKEN_RX = scan.language(
    scan.SKIP,
    IRIREF=scan.IRIREF,
    PREFIX_DIRECTIVE=r"@prefix\b",
    BLANK=_BLANK,
    PNAME=_PNAME,
    DECIMAL=scan.DECIMAL,
    INTEGER=scan.INTEGER,
    STRING=scan.STRING,
    A=_A,
    SEMI=";",
    DOT=r"\.",
)
_TERM_KINDS = frozenset(("IRIREF", "BLANK", "PNAME", "DECIMAL", "INTEGER", "STRING"))

# The pair regexes. Each piece matches only where the scanner reads a token
# of its kind, and only the whole token, so backtracking cannot split a
# token the way a plain concatenation would (`s:a s:p .` read as
# `s: a s:p .`). So a name is not followed by a name character, an integer
# not by a digit or by the `.5` that makes it a decimal, and a comment runs
# to the end of its line. A decimal needs no guard: only `;` or `.` may
# follow it.
_SKIP = r"\s*(?:#[^\n]*(?![^\n])\s*)*"
_NAME_END = r"(?![A-Za-z0-9_\-])"
_NODE = rf"{scan.IRIREF}|{_BLANK}{_NAME_END}|{_PNAME}{_NAME_END}"
_PAIR = (
    rf"({_A}|{_PNAME}{_NAME_END}|{scan.IRIREF}){_SKIP}"
    rf"({_NODE}|{scan.DECIMAL}|{scan.INTEGER}(?!\.?[0-9])|{scan.STRING})"
    rf"{_SKIP}([;.])"
)
# a statement's subject and first pair: (subject, predicate, object, ";" or ".")
_HEAD_RX = re.compile(rf"{_SKIP}({_NODE}){_SKIP}{_PAIR}")
# a later pair, or the "." after a trailing ";": (predicate, object, ";" or ".")
_TAIL_RX = re.compile(rf"{_SKIP}(?:\.|{_PAIR})")


class _Reader:
    """One pass over a document. Most statements are read by the pair
    regexes, one match per predicate-object pair. Where they do not match,
    or a term does not resolve, the token loop reads that statement again
    from its start, one token at a time: it alone reads directives and the
    end of the text, and it alone raises syntax errors."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_RX.finditer(text)
        self.graph = TripleGraph(prefix_table={})
        # token text -> the one term instance shared by all its occurrences
        self.terms: dict[str, Term] = {}

    def read(self) -> TripleGraph:
        pos: int | None = 0
        while pos is not None:
            end = self.read_pairs(pos)
            pos = self.read_tokens(pos) if end is None else end
        return self.graph

    def read_pairs(self, pos: int) -> int | None:
        """The end of the statement at `pos`, read by the pair regexes; None
        if they cannot read all of it."""
        text, terms, resolve = self.text, self.terms, self.resolve
        add = self.graph.triples.add
        # The pattern admits only IRIs and `a` as predicates, so the check
        # in `Triple.__new__` cannot fail here.
        new = tuple.__new__
        m = _HEAD_RX.match(text, pos)
        if m is None:
            return None
        s, p, o, sep = m.groups()
        subject = terms.get(s) or resolve(s)
        if subject is None:
            return None
        while True:
            predicate = terms.get(p) or (RDF_TYPE if p == "a" else resolve(p))
            obj = terms.get(o) or resolve(o)
            if predicate is None or obj is None:
                return None
            add(new(Triple, (subject, predicate, obj)))
            if sep == ".":
                return m.end()
            m = _TAIL_RX.match(text, m.end())
            if m is None:
                return None
            p, o, sep = m.groups()
            if p is None:  # a trailing `;` before the `.`
                return m.end()

    def read_tokens(self, pos: int) -> int | None:
        """The end of the directive or statement at `pos`, read by the token
        loop; None at the end of the text."""
        self.tokens = _TOKEN_RX.finditer(self.text, pos)
        m = next(self.tokens)
        if m.lastgroup == "EOF":
            return None
        if m.lastgroup == "PREFIX_DIRECTIVE":
            return self.read_prefix()
        return self.read_statement(m)

    def read_statement(self, m: re.Match) -> int:
        tokens = self.tokens
        triples = self.graph.triples
        subject = self.term(m)
        if isinstance(subject, Literal):
            raise self.error("subject cannot be a literal", m)
        m = next(tokens)
        while True:
            predicate = self.predicate(m)
            triples.add(Triple(subject, predicate, self.term(next(tokens))))
            m = next(tokens)
            kind = m.lastgroup
            if kind == "SEMI":
                # Permit a trailing `;` before the `.`
                m = next(tokens)
                if m.lastgroup != "DOT":
                    continue
            elif kind == "EOF":
                raise self.error("unterminated statement", m)
            elif kind != "DOT":
                raise self.error(f"expected ';' or '.', found {m[kind]!r}", m)
            return m.end()

    def read_prefix(self) -> int:
        m = next(self.tokens)
        label = self.expect(m, "PNAME")
        if not label.endswith(":"):
            raise self.error("prefix declaration label must end with ':'", m)
        iri = self.expect(next(self.tokens), "IRIREF")
        m = next(self.tokens)
        self.expect(m, "DOT")
        self.graph.prefix_table[label[:-1]] = iri[1:-1]
        # Cached prefixed names may resolve differently under the new prefix.
        self.terms.clear()
        return m.end()

    def expect(self, m: re.Match, kind: str) -> str:
        if m.lastgroup != kind:
            raise self.error(f"expected {kind}, found {m.lastgroup} {m[m.lastgroup]!r}", m)
        return m[kind]

    def predicate(self, m: re.Match) -> Iri:
        kind = m.lastgroup
        if kind == "A":
            return RDF_TYPE
        if kind != "PNAME" and kind != "IRIREF":
            raise self.error(f"predicate must be an IRI, found {m[kind]!r}", m)
        return self.term(m)  # type: ignore[return-value]

    def term(self, m: re.Match) -> Term:
        kind = m.lastgroup
        text = m[kind]
        if kind not in _TERM_KINDS:
            raise self.error(f"unexpected token {text!r}", m)
        term = self.terms.get(text) or self.resolve(text)
        if term is None:
            if kind == "STRING":
                raise self.error("bad string escape", m)
            raise self.error(f"unresolvable prefix {text.partition(':')[0]!r}", m)
        return term

    def resolve(self, text: str) -> Term | None:
        """The term a term token's text stands for, now cached; None for a
        prefix that is not declared or a bad string escape. The first
        character tells the kind."""
        first = text[0]
        if first == "<":
            term: Term = Iri(text[1:-1])
        elif first == "_":
            term = BlankNode(text[2:])
        elif first == '"':
            try:
                term = Literal(unescape(text[1:-1]), "string")
            except ValueError:
                return None
        elif first in "+-0123456789":
            term = Literal(text, "decimal" if "." in text else "integer")
        else:
            label, _, local = text.partition(":")
            ns = self.graph.prefix_table.get(label)
            if ns is None:
                return None
            term = Iri(ns + local)
        self.terms[text] = term
        return term

    def error(self, message: str, m: re.Match) -> TurtleSyntaxError:
        """The error for token `m`, or for the first unexpected character
        from `m` on if there is one."""
        bad = scan.first_unexpected(itertools.chain((m,), self.tokens))
        if bad is not None:
            m, message = bad, f"unexpected character {bad['ERROR']!r}"
        pos = m.start(m.lastgroup)
        line = self.text.count("\n", 0, pos) + 1
        return TurtleSyntaxError(message, line, pos - self.text.rfind("\n", 0, pos))


@gc_paused()
def parse_turtle(text: str) -> TripleGraph:
    """Parse a document in the supported Turtle subset."""
    return _Reader(text).read()


# --- serializer ---


def _prefix_map(prefix_table: dict[str, str]) -> dict[str, str]:
    """namespace -> label; the lexicographically smallest label wins."""
    out: dict[str, str] = {}
    for label in sorted(prefix_table):
        ns = prefix_table[label]
        if ns not in out:
            out[ns] = label
    return out


_LOCAL_RX = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*$")


def _render(term: Iri | Literal, ns_to_label: dict[str, str]) -> str:
    if isinstance(term, Iri):
        for ns, label in ns_to_label.items():
            if term.value.startswith(ns):
                local = term.value[len(ns):]
                if _LOCAL_RX.fullmatch(local):
                    return f"{label}:{local}"
        return f"<{term.value}>"
    return str(term)


def _block_order(t: Triple) -> tuple:
    """Sort key within one subject's block: rdf:type first, then by
    predicate and object."""
    return t[1] != RDF_TYPE, t


@gc_paused()
def serialize_turtle(graph: TripleGraph) -> str:
    """Canonical text form, which re-parses to an isomorphic graph:

    - `@prefix` lines sorted by label; an IRI is written with the smallest
      label whose namespace it starts with, if the rest is a plain local
      name, and in angle brackets otherwise;
    - one block per subject, subjects in term order (IRIs before blank
      nodes, each kind by its text);
    - within a block, `;`-separated: the rdf:type triples first, written
      `a`, then by predicate and then by object in term order;
    - blank nodes renumbered `_:b1`, `_:b2`, ... in the order the text
      first uses them."""
    ns_to_label = _prefix_map(graph.prefix_table)
    lines = [
        f"@prefix {label}: <{graph.prefix_table[label]}> ."
        for label in sorted(graph.prefix_table)
    ]

    # Sorting the subjects and then each short block costs far less than
    # one sort of every triple on nested keys, and gives the same order.
    by_subject: defaultdict[Term, list[Triple]] = defaultdict(list)
    for t in graph.triples:
        by_subject[t[0]].append(t)

    # Each distinct term is rendered once per call. Rendering meets terms
    # in the order of the text, so a blank node takes the next number there.
    rendered: dict[Term, str] = {}
    bnode_numbers = itertools.count(1)

    def render(term: Term) -> str:
        text = rendered.get(term)
        if text is None:
            if isinstance(term, BlankNode):
                text = f"_:b{next(bnode_numbers)}"
            else:
                text = _render(term, ns_to_label)
            rendered[term] = text
        return text

    blocks = []
    for subject in sorted(by_subject):
        block = by_subject[subject]
        block.sort(key=_block_order)
        head = render(subject)  # before its objects, as the text reads
        parts = [f"{'a' if p == RDF_TYPE else render(p)} {render(o)}" for _, p, o in block]
        blocks.append(f"{head} " + " ;\n    ".join(parts) + " .")

    text = "\n".join(lines)
    if blocks:
        text += "\n\n" + "\n\n".join(blocks)
    return text + "\n"
