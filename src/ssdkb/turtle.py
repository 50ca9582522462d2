"""Turtle subset parser and canonical serializer.

Supported grammar: `@prefix` directives, prefixed names, absolute IRIs in
angle brackets, the `a` keyword, `;` predicate lists, `.` terminators,
`_:label` blank nodes, integer/decimal/short quoted-string literals, and
`#` comments. Every other form is a syntax error: `,` object lists, `[ … ]`
blank-node property lists, `( … )` collections, typed literals,
language-tagged strings, long strings, `PREFIX`, `BASE` and `@base`, the
booleans and doubles (README, "Reading Turtle", lists them with examples).

The reader makes one pass over the text. Its line reader splits each line
at `\n` (where a `#` comment ends) and the line at whitespace, and reads
the tokens with a small state machine, so it takes one Python step per
token and no regex. The first time a token's text is seen, `scan`'s regex
must read all of it as one term token before the text enters the term
cache; a `;` or `.` glued to the end of an object is split off. Where the
line reader cannot read a statement, it hands the statement's start to the
token loop: `scan`'s regex and error rule, one token at a time, calling
`next` on `finditer` itself rather than going through `scan.Cursor`. The
token loop reads that statement, every `@prefix` directive and the end of
the text, and it raises every syntax error, so messages and positions are
those of a token-by-token read. The line reader takes over again at the
next line, so it reads each line at most once, and the token loop each
statement. The graph keeps its triples in the order of the text.

Within one document, every distinct IRI, prefixed name, blank-node label
and literal token is turned into a term once, and all its occurrences share
that instance; the term's kind is read from the token's first character.
Sharing is safe because terms are frozen. An `@prefix` directive empties
the cache, since it can change what a prefixed name means.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
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
    local_name,
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


@gc_paused()
def grouped(triples, position: int) -> dict[Term, list[Triple]]:
    """`triples` grouped by their term at `position`, each list in the
    order of `triples`: the one grouping that the store's tables, the lift
    and the serializer share."""
    table: dict[Term, list[Triple]] = {}
    for t in triples:
        table.setdefault(t[position], []).append(t)
    return table


@dataclass
class TripleGraph:
    """A prefix table and a set of triples. `triples` is a dict used as an
    ordered set: it keeps the triples in the order they were added, which
    for a parsed graph is the order of the text."""

    prefix_table: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_PREFIXES))
    triples: dict[Triple, None] = field(default_factory=dict)

    def add(self, subject: Term, predicate: Iri, obj: Term) -> None:
        self.triples[Triple(subject, predicate, obj)] = None

    def __len__(self) -> int:
        return len(self.triples)


# --- reader ---

_BLANK = r"_:[A-Za-z0-9][A-Za-z0-9_\-]*"
# Local part may be empty (`ssd:` alone is valid but unused here).
_PNAME = r"(?:[A-Za-z][A-Za-z0-9_\-]*)?:(?:[A-Za-z_][A-Za-z0-9_\-]*)?"
_A = r"a(?![A-Za-z0-9_\-:])"

# After any whitespace and `#` comments. The first alternative that matches
# wins, so `a:` is a prefixed name and `a` alone the keyword. The kinds are
# what error messages print. A string may not be followed by a quote, so a
# long string `"""…"""` is an unexpected `"` where it starts, not `""` and
# then a grammar error.
_TOKEN_RX = scan.language(
    scan.SKIP,
    IRIREF=scan.IRIREF,
    PREFIX_DIRECTIVE=r"@prefix\b",
    BLANK=_BLANK,
    PNAME=_PNAME,
    DECIMAL=scan.DECIMAL,
    INTEGER=scan.INTEGER,
    STRING=scan.STRING + '(?!")',
    A=_A,
    SEMI=";",
    DOT=r"\.",
)
_TERM_KINDS = frozenset(("IRIREF", "BLANK", "PNAME", "DECIMAL", "INTEGER", "STRING"))

# what the line reader takes next: `_NEXT` is a predicate or the `.` after
# a trailing `;`
_SUBJECT, _PREDICATE, _OBJECT, _END, _NEXT = range(5)
# the rest of a line after the token loop's last statement, if it is blank
# or a comment
_LINE_END = re.compile(r"[^\S\n]*(?:#[^\n]*)?\n")
# The line reader splits the text into lines a block at a time. A block
# starts at 256 characters and doubles up to this size, so the lines it
# splits but does not read before handing a statement to the token loop
# are never more than it read, and the lines held at once stay few.
_BLOCK = 1 << 16


def _start(line_pos: int, line: str, ends: int) -> int:
    """The offset of the statement that follows `ends` statement ends on
    the line at `line_pos`. The line reader read each token of the line
    before it, so each token there that ends in `.` ends a statement."""
    k = 0
    if ends:
        k = [i for i, tok in enumerate(line.split()) if tok[-1] == "."][ends - 1] + 1
    return line_pos + len(line) - len(line.split(None, k)[k])


class _Reader:
    """One pass over a document. The line reader reads most statements,
    one whitespace-split token per step. Where it cannot read a statement,
    the token loop reads it from its start, one scanner token at a time: it
    alone reads directives and the end of the text, and it alone raises
    syntax errors."""

    def __init__(self, text: str):
        self.text = text
        self.graph = TripleGraph(prefix_table={})
        # token text -> the one term instance shared by all its occurrences;
        # `predicates` holds the IRIs among them and the keyword `a`
        self.terms: dict[str, Term] = {}
        self.predicates: dict[str, Iri] = {"a": RDF_TYPE}

    def read(self) -> TripleGraph:
        pos: int | None = 0
        while pos is not None:
            pos = self.read_tokens(self.read_lines(pos))
        return self.graph

    def read_lines(self, pos: int) -> int:
        """Read whole lines from the one after `pos`, where the token loop
        stopped, or from the start of the text. Return the start of the
        first statement or directive the line reader cannot read, or the end
        of the text; `pos` itself if more of its line is left."""
        text = self.text
        if pos:
            m = _LINE_END.match(text, pos)
            if m is None:
                return pos
            pos = m.end()
        terms, predicates, term_of = self.terms, self.predicates, self.term_of
        triples = self.graph.triples
        # Only IRIs and `a` enter `predicates`, so the check in
        # `Triple.__new__` cannot fail here.
        new = tuple.__new__
        want = _SUBJECT
        size = 256
        while pos <= len(text):
            block_end = text.find("\n", pos + size)
            if block_end < 0:
                block_end = len(text)
            size = min(2 * size, _BLOCK)
            for line in text[pos:block_end].split("\n"):
                ends = 0  # statements that ended on this line
                for tok in line.split():
                    if want == _OBJECT:
                        o = terms.get(tok)
                        if o is None:
                            if tok[0] == "#":
                                break
                            # No term token ends in `;` or `.`, so such a token
                            # is an object with its separator glued on.
                            end = tok[-1]
                            if end != ";" and end != ".":
                                o = term_of(tok)
                                if o is None:
                                    return _start(*start)
                            else:
                                o = terms.get(tok[:-1]) or term_of(tok[:-1])
                                if o is None:
                                    return _start(*start)
                                triples[new(Triple, (s, p, o))] = None
                                if end == ";":
                                    want = _NEXT
                                else:
                                    want = _SUBJECT
                                    ends += 1
                                continue
                        triples[new(Triple, (s, p, o))] = None
                        want = _END
                    elif want == _END:
                        if tok == ";":
                            want = _NEXT
                        elif tok == ".":
                            want = _SUBJECT
                            ends += 1
                        elif tok[0] == "#":
                            break
                        else:
                            return _start(*start)
                    elif want == _SUBJECT:
                        s = terms.get(tok)
                        if s is None:
                            if tok[0] == "#":
                                break
                            s = term_of(tok)
                        start = (pos, line, ends)  # where the token loop would start
                        if s is None or isinstance(s, Literal):
                            return _start(*start)
                        want = _PREDICATE
                    else:
                        p = predicates.get(tok)
                        if p is None:
                            if tok == "." and want == _NEXT:
                                want = _SUBJECT
                                ends += 1
                                continue
                            if tok[0] == "#":
                                break
                            p = term_of(tok)
                            if not isinstance(p, Iri):
                                return _start(*start)
                            predicates[tok] = p
                        want = _OBJECT
                pos += len(line) + 1
        return len(text) if want == _SUBJECT else _start(*start)

    def term_of(self, tok: str) -> Term | None:
        """The term that `tok` stands for, now cached, if the scanner reads
        all of it as one term token; None otherwise, or if it does not
        resolve."""
        m = _TOKEN_RX.match(tok)
        if m.end() != len(tok) or m.lastgroup not in _TERM_KINDS:
            return None
        return self.resolve(tok)

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
        add = self.graph.add
        subject = self.term(m)
        if isinstance(subject, Literal):
            raise self.error("subject cannot be a literal", m)
        m = next(tokens)
        while True:
            predicate = self.predicate(m)
            add(subject, predicate, self.term(next(tokens)))
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
        self.predicates = {"a": RDF_TYPE}
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


def display_names(terms) -> dict[Term, str]:
    """The text of each of `terms`, the terms of one answer, as a command
    prints it: an IRI as its local name, a blank node as `_:label` and a
    literal as its lexical form. Where two IRIs of the answer share a local
    name, or a local name holds a `:` and so could read as a prefixed name,
    each is written as a prefixed name over `DEFAULT_PREFIXES` instead, or
    whole as `<…>` in no known namespace. So no two IRIs read the same."""
    names = {
        t: local_name(t) if isinstance(t, Iri) else t.lexical if isinstance(t, Literal) else str(t)
        for t in set(terms)
    }
    shared = Counter(name for t, name in names.items() if isinstance(t, Iri))
    ns_to_label = _prefix_map(DEFAULT_PREFIXES)
    for t, name in names.items():
        if (shared[name] > 1 or ":" in name) and isinstance(t, Iri):
            names[t] = _render(t, ns_to_label)
    return names


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

    # Grouping by subject, then sorting the subjects and each short block,
    # costs far less than one sort of every triple on nested keys, and
    # gives the same order.
    by_subject = grouped(graph.triples, 0)

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
