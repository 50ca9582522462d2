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
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from decimal import Decimal
from typing import Union

from . import scan, vocab
from .kb import KnowledgeBase
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
# a literal's value, by its datatype (`Literal` is `(2, datatype, lexical)`)
_NUMBER = {"integer": int, "decimal": Decimal}


class DlEvaluator:
    """Evaluates class expressions against a kb's triple store (`kb.index()`),
    asserted plus any inferred triples. `eval` reads the store's tables and
    may return one of the store's own sets; `eval_dl_query` copies it."""

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        index = kb.index()
        self.by_predicate = index.by_p
        self.by_po = index.by_po
        self.type_index = index.type_index
        self.individuals = index.individual_iris

    def resolve_class(self, name: str) -> Iri:
        iri = self._resolve_name(name)
        if iri is None or not self.kb.taxonomy.contains(iri):
            raise DlEvalError(f"unknown class name: {name}")
        return iri

    def resolve_property(self, name: str) -> Iri:
        iri = self._resolve_name(name)
        if iri is None:
            raise DlEvalError(f"unknown property name: {name}")
        if iri not in vocab.PROPERTIES and iri not in self.by_predicate:
            raise DlEvalError(f"unknown property name: {name}")
        return iri

    def resolve_individual(self, name: str) -> Term:
        iri = self._resolve_name(name)
        if iri is None:
            raise DlEvalError(f"unknown individual name: {name}")
        return iri

    def _resolve_name(self, name: str) -> Iri | None:
        if ":" in name:
            prefix, local = name.split(":", 1)
            ns = DEFAULT_PREFIXES.get(prefix)
            return Iri(ns + local) if ns else None
        for ns in (SSD_NS, AUT_NS):
            candidate = ns + name
            if candidate in self.individuals or self.kb.taxonomy.contains(Iri(candidate)):
                return Iri(candidate)
        # default to the core namespace for names the kb has not seen
        return Iri(SSD_NS + name)

    def eval(self, expr: ClassExpr) -> set[Term]:
        """The members of `expr`: a set that callers must not change."""
        if isinstance(expr, NamedClass):
            return self.type_index.get(self.resolve_class(expr.name), set())
        if isinstance(expr, And):
            # a conjunction chain leans left; walk its spine, not the stack.
            # Every conjunct is evaluated, so a bad name raises even after an
            # empty one; intersecting smallest first touches the fewest members.
            conjuncts = []
            while isinstance(expr, And):
                conjuncts.append(expr.right)
                expr = expr.left
            conjuncts.append(expr)
            sets = sorted((self.eval(c) for c in reversed(conjuncts)), key=len)
            return sets[0].intersection(*sets[1:])
        if isinstance(expr, Some):
            prop = self.resolve_property(expr.prop)
            members = self.eval(expr.filler)
            triples = self.by_predicate.get(prop, ())
            # one lookup per filler member, or one pass over the property's
            # triples, whichever touches fewer
            if len(members) < len(triples):
                by_po = self.by_po
                return {s for m in members for s, _, _ in by_po.get((prop, m), ())}
            return {s for s, _, o in triples if o in members}
        if isinstance(expr, Value):
            prop = self.resolve_property(expr.prop)
            individual = self.resolve_individual(expr.individual)
            return {s for s, _, _ in self.by_po.get((prop, individual), ())}
        if isinstance(expr, OneOf):
            return {self.resolve_individual(name) for name in expr.individuals}
        if isinstance(expr, DataSome):
            prop = self.resolve_property(expr.prop)
            compare, bound = _OPS[expr.op], expr.bound
            out = set()
            for s, _, o in self.by_predicate.get(prop, ()):
                number = _NUMBER.get(o[1]) if isinstance(o, Literal) else None
                if number is not None and compare(number(o[2]), bound):
                    out.add(s)
            return out
        raise TypeError(f"not a class expression: {expr!r}")


def eval_dl_query(expr: ClassExpr, kb: KnowledgeBase) -> set[Term]:
    """The members of `expr` in `kb`, as a new set the caller owns."""
    return set(DlEvaluator(kb).eval(expr))
