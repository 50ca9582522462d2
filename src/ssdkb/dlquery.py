"""DL-style class expression parser and evaluator.

Grammar (left-associative `and`):
    Expr  := Atom ('and' Atom)*
    Atom  := ClassName
           | prop 'some' '(' Expr ')'
           | prop 'some' '{' Ind (',' Ind)* '}'
           | prop 'some' 'xsd:int' '[' op INT ']'
           | prop 'value' Ind
           | '{' Ind (',' Ind)* '}'
           | '(' Expr ')'

Evaluation resolves every name first, so an unknown name raises even
where an empty conjunct makes the rest moot. A value restriction
resolves to a set, as a named class does: the subjects that reach its
individual through the property. A facet is a range of the store's
sorted numeric table for the property, and a top-down test compares
values with its bound without building that set. An `and` evaluates
its other conjuncts bottom-up into a seed, then takes each `some`
conjunct either bottom-up (build the filler's members, join them
through the property, intersect) or top-down (test each seed member
through its subject lookups), whichever the store's per-predicate
statistics say visits fewer nodes. Those statistics are the sizes of
the property's subject and object tables, so estimating a `some`
conjunct builds both, at the first query that needs them.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import itemgetter
from typing import Callable, Union

from . import scan, vocab
from .kb import NUMBER, KnowledgeBase
from .terms import AUT_NS, DEFAULT_PREFIXES, SSD_NS, Iri, Literal, Term


class DlSyntaxError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DlEvalError(Exception):
    """Unknown class or property name; distinct from an empty result."""


# --- AST ---


@dataclass(frozen=True)
class NamedClass:
    name: str  # surface name, possibly prefixed


@dataclass(frozen=True)
class And:
    left: "ClassExpr"
    right: "ClassExpr"


@dataclass(frozen=True)
class Some:
    prop: str
    filler: "ClassExpr"


@dataclass(frozen=True)
class Value:
    prop: str
    individual: str


@dataclass(frozen=True)
class OneOf:
    individuals: tuple[str, ...]


@dataclass(frozen=True)
class DataSome:
    prop: str
    op: str  # < <= > >= =
    bound: int


ClassExpr = Union[NamedClass, And, Some, Value, OneOf, DataSome]


# --- parser ---

_TOKEN_RX = scan.language(
    r"\s*",  # no comments
    lpar=r"\(", rpar=r"\)", lbrace=r"\{", rbrace=r"\}", lbrack=r"\[", rbrack=r"\]", comma=",",
    op="<=|>=|≤|≥|<|>|=",
    int="[0-9]+",
    name=r"[A-Za-z_][A-Za-z0-9_\-]*(?::[A-Za-z_][A-Za-z0-9_\-]*)?",
)

# Deepest expression accepted. A parenthesis and a `some` filler are one level
# each of the tree that evaluation recurses over; `and` chains are walked in a loop.
MAX_DEPTH = 100


class _DlParser(scan.Cursor):
    rx = _TOKEN_RX
    Error = DlSyntaxError

    def parse(self) -> ClassExpr:
        expr = self.parse_expr(0)
        tok = self.peek()
        if tok[0] != "EOF":
            raise self.error(f"unexpected trailing input {tok[1]!r}", tok[2])
        return expr

    def parse_expr(self, depth: int) -> ClassExpr:
        expr = self.parse_atom(depth)
        while self.peek()[:2] == ("name", "and"):
            self.next()
            expr = And(expr, self.parse_atom(depth))
        return expr

    def parse_one_of(self) -> OneOf:
        self.expect("lbrace")
        individuals = [self.expect("name")]
        while self.at("comma"):
            self.next()
            individuals.append(self.expect("name"))
        self.expect("rbrace")
        return OneOf(tuple(individuals))

    def parse_atom(self, depth: int) -> ClassExpr:
        tok = self.peek()
        if depth > MAX_DEPTH:
            raise self.error(f"expression nested deeper than {MAX_DEPTH} levels", tok[2])
        if tok[0] == "lpar":
            self.next()
            expr = self.parse_expr(depth + 1)
            self.expect("rpar")
            return expr
        if tok[0] == "lbrace":
            return self.parse_one_of()
        if tok[0] != "name":
            raise self.error(f"expected a name, found {tok[1]!r}", tok[2])
        name = self.next()[1]
        if name == "and":
            raise self.error("dangling 'and' connective", tok[2])
        following = self.peek()[:2]
        if following == ("name", "some"):
            self.next()
            return self.parse_some(name, depth + 1)
        if following == ("name", "value"):
            self.next()
            return Value(name, self.expect("name"))
        return NamedClass(name)

    def parse_some(self, prop: str, depth: int) -> ClassExpr:
        """The restriction `prop some ...`, after the `some`."""
        tok = self.peek()
        if tok[0] == "lpar":
            self.next()
            expr = self.parse_expr(depth)
            self.expect("rpar")
            return Some(prop, expr)
        if tok[0] == "lbrace":
            return Some(prop, self.parse_one_of())
        if tok[0] == "name" and tok[1] in ("xsd:int", "xsd:integer"):
            self.next()
            self.expect("lbrack")
            op = self.expect("op")
            bound = int(self.expect("int"))
            self.expect("rbrack")
            return DataSome(prop, {"≤": "<=", "≥": ">="}.get(op, op), bound)
        if tok[0] == "name":
            return Some(prop, NamedClass(self.next()[1]))
        raise self.error(f"expected a filler, found {tok[1]!r}", tok[2])


def parse_dl_query(text: str) -> ClassExpr:
    return _DlParser(text).parse()


# --- evaluation ---

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "=": operator.eq}
# the slice of an ascending list `v` whose values satisfy `op b`
_RANGES = {
    "<": lambda v, b: (0, bisect_left(v, b)),
    "<=": lambda v, b: (0, bisect_right(v, b)),
    ">": lambda v, b: (bisect_right(v, b), len(v)),
    ">=": lambda v, b: (bisect_left(v, b), len(v)),
    "=": lambda v, b: (bisect_left(v, b), bisect_right(v, b)),
}
_SUBJECT = itemgetter(0)
_OBJECT = itemgetter(2)
# What one node visited top-down (a lookup or a test through a compiled
# closure) costs, in members touched bottom-up (a set insert).
TOP_DOWN_COST = 2.0


class DlEvaluator:
    """Evaluates class expressions against a kb's triple store (`kb.store`),
    asserted plus any inferred triples. `eval` reads the store's tables and
    may return one of the store's own sets; `eval_dl_query` copies it.
    `paths` records each `some` conjunct of an `and` that was evaluated,
    and whether it went "bottom-up" or "top-down"."""

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        self.store = index = kb.store
        self.by_predicate = index.by_p
        self.paths: list[tuple[Some, str]] = []

    def resolve_class(self, name: str) -> Iri:
        return self._resolve_name(name, "class", self.kb.taxonomy.contains)

    def resolve_property(self, name: str) -> Iri:
        return self._resolve_name(
            name, "property", lambda iri: iri in vocab.PROPERTIES or iri in self.by_predicate
        )

    def resolve_individual(self, name: str) -> Term:
        return self._resolve_name(
            name, "individual", lambda iri: self.kb.taxonomy.contains(iri) or self.store.holds(iri)
        )

    def _resolve_name(self, name: str, role: str, known: Callable[[Iri], bool]) -> Iri:
        """A prefixed name's one IRI; a bare name's core-namespace IRI if
        `known` accepts it, else its extension IRI if `known` accepts that.
        An individual need not be known: a bare one the kb has not seen
        takes the core IRI."""
        if ":" in name:
            prefix, local = name.split(":", 1)
            ns = DEFAULT_PREFIXES.get(prefix)
            iris = [Iri(ns + local)] if ns else []
        else:
            iris = [Iri(SSD_NS + name), Iri(AUT_NS + name)]
        for iri in iris:
            if known(iri):
                return iri
        if role == "individual" and iris:
            return iris[0]
        raise DlEvalError(f"unknown {role} name: {name}")

    def eval(self, expr: ClassExpr) -> set[Term]:
        """The members of `expr`: a set that callers must not change."""
        return self._members(self._resolve(expr))

    def _resolve(self, expr: ClassExpr) -> tuple:
        """`expr` with every name resolved, once, so that an unknown name
        raises before anything is evaluated. A node is ("set", members),
        which a named class, `{a, b}` and `p value c` all become, ("range",
        prop, op, bound, subjects in range), ("some", prop, filler, expr) or
        ("and", conjuncts)."""
        kind = type(expr)
        if kind is And:
            # a conjunction chain leans left, and a bracketed one may lean
            # right; walk them with a stack, not the call stack
            conjuncts, stack = [], [expr]
            while stack:
                e = stack.pop()
                if type(e) is And:
                    stack += (e.right, e.left)
                else:
                    conjuncts.append(self._resolve(e))
            return ("and", conjuncts)
        if kind is NamedClass:
            return ("set", self.store.members(self.resolve_class(expr.name)))
        if kind is OneOf:
            return ("set", {self.resolve_individual(name) for name in expr.individuals})
        prop = self.resolve_property(expr.prop)
        if kind is Some:
            return ("some", prop, self._resolve(expr.filler), expr)
        if kind is Value:
            triples = self.store.objects(prop).get(self.resolve_individual(expr.individual), ())
            return ("set", {s for s, _, _ in triples})
        if kind is DataSome:
            values, subjects = self.store.numbers(prop)
            start, stop = _RANGES[expr.op](values, expr.bound)
            return ("range", prop, expr.op, expr.bound, subjects[start:stop])
        raise TypeError(f"not a class expression: {expr!r}")

    def _members(self, node: tuple) -> set[Term]:
        """`node`'s members, evaluated bottom-up but for the `some`
        conjuncts of an `and` that are cheaper to test on its other
        conjuncts' members."""
        kind = node[0]
        if kind == "set":
            return node[1]
        if kind == "range":
            return set(node[4])
        if kind == "some":
            prop, filler = node[1], node[2]
            members = filler[1] if filler[0] == "set" else self._members(filler)
            triples = self.by_predicate.get(prop, ())
            # one lookup per filler member, or one pass over the property's
            # triples, whichever touches fewer
            if len(members) < len(triples):
                triples_of = self.store.objects(prop).get
                return set(map(_SUBJECT, chain.from_iterable(map(triples_of, members, repeat(())))))
            return set(compress(map(_SUBJECT, triples), map(members.__contains__, map(_OBJECT, triples))))
        # "and": the other conjuncts give the seed (with none, the `some`
        # conjunct that is cheapest bottom-up does); each `some` conjunct then
        # joins it bottom-up, or filters it top-down if that visits fewer nodes
        found, somes = [], []
        for c in node[1]:
            if c[0] == "some":
                somes.append(c)
            else:
                found.append(c[1] if c[0] == "set" else self._members(c))
        if not found:
            first = min(somes, key=lambda c: self._estimate(c)[0])
            somes.remove(first)
            self.paths.append((first[3], "bottom-up"))
            found.append(self._members(first))
        smallest = min(map(len, found))
        down = []
        for some in somes:
            if not smallest:
                break
            top_down = self._top_down(some, smallest)
            self.paths.append((some[3], "top-down" if top_down else "bottom-up"))
            if top_down:
                down.append(some)
            else:
                found.append(self._members(some))
                smallest = min(smallest, len(found[-1]))
        members = found[0].intersection(*found[1:]) if len(found) > 1 else found[0]
        for some in down:
            members = set(filter(self._test(some), members))
        return members

    def _top_down(self, some: tuple, seed_size: int) -> bool:
        """Whether testing `seed_size` members top-down against `some` is
        estimated to visit fewer nodes than building its members."""
        if some[2][0] == "set" and TOP_DOWN_COST * seed_size >= len(self.by_predicate.get(some[1], ())):
            # building it touches at most the property's triples, and a
            # test visits at least one node: no estimate needed
            return False
        work, _, probe = self._estimate(some)
        return TOP_DOWN_COST * seed_size * probe < work

    def _estimate(self, node: tuple) -> tuple[float, float, float]:
        """From the store's statistics: the members that evaluating `node`
        bottom-up touches, its members, and the nodes that testing one
        individual top-down visits."""
        kind = node[0]
        if kind == "set":
            return 0, len(node[1]), 1
        if kind == "range":
            return len(node[4]), len(node[4]), 1
        if kind == "some":
            work, size, probe = self._estimate(node[2])
            count, subjects, objects = self.store.stats(node[1])
            objects = objects or 1
            return (
                work + min(size * (1 + count / objects), count),
                min(subjects, size * subjects / objects),
                1 + probe * count / (subjects or 1),
            )
        # an `and`, as `_members` plans it with the seed's estimated size;
        # an estimate here is (is a `some`, work, size, probe)
        estimates = [(c[0] == "some", *self._estimate(c)) for c in node[1]]
        seeds = [e for e in estimates if not e[0]] or [min(estimates, key=itemgetter(1))]
        seed_size = min(e[2] for e in seeds)
        work = sum(
            min(e[1], TOP_DOWN_COST * seed_size * e[3]) if e[0] and e is not seeds[0] else e[1]
            for e in estimates
        )
        return work, min(e[2] for e in estimates), sum(e[3] for e in estimates)

    def _test(self, node: tuple) -> Callable[[Term], bool]:
        """Whether one individual is a member of `node`, evaluated top-down
        through the subject lookups; `any` and `all` stop at the first
        match or miss."""
        kind = node[0]
        if kind == "set":
            return node[1].__contains__
        if kind == "and":
            tests = [self._test(c) for c in node[1]]
            return lambda x: all(test(x) for test in tests)
        triples_of = self.store.subjects(node[1]).get
        if kind == "some":
            if node[2][0] == "set":
                isdisjoint = node[2][1].isdisjoint
                return lambda x: not isdisjoint(map(_OBJECT, triples_of(x, ())))
            inner = self._test(node[2])
            return lambda x: any(map(inner, map(_OBJECT, triples_of(x, ()))))
        compare, bound = _OPS[node[2]], node[3]
        return lambda x: any(
            compare(NUMBER[o[1]](o[2]), bound)
            for _, _, o in triples_of(x, ())
            if isinstance(o, Literal) and o[1] in NUMBER
        )


def eval_dl_query(expr: ClassExpr, kb: KnowledgeBase) -> set[Term]:
    """The members of `expr` in `kb`, as a new set the caller owns."""
    return set(DlEvaluator(kb).eval(expr))
