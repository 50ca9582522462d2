"""Subclass taxonomy: an acyclic class hierarchy with reachability queries."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import vocab
from .terms import Iri


class TaxonomyError(Exception):
    pass


class UnknownClassError(TaxonomyError):
    pass


class CycleError(TaxonomyError):
    pass


@dataclass(frozen=True)
class Taxonomy:
    """Immutable DAG of class IRIs with (child, parent) subclass edges."""

    classes: frozenset[Iri]
    edges: frozenset[tuple[Iri, Iri]]
    _parents: dict[Iri, frozenset[Iri]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _depth: dict[Iri, int] = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        parents: dict[Iri, set[Iri]] = {c: set() for c in self.classes}
        for child, parent in self.edges:
            if child not in self.classes or parent not in self.classes:
                raise UnknownClassError(f"edge over unknown class: {child} -> {parent}")
            parents[child].add(parent)
        object.__setattr__(
            self, "_parents", {c: frozenset(ps) for c, ps in parents.items()}
        )
        object.__setattr__(self, "_depth", self._depths())

    def _depths(self) -> dict[Iri, int]:
        """Each class's depth, found in the post-order of a depth-first walk
        that raises `CycleError` on a cycle."""
        # an explicit stack, so a chain of any length is walked without recursion
        depth: dict[Iri, int] = {}  # -1 while on the stack
        for cls in self.classes:
            if cls in depth:
                continue
            depth[cls] = -1
            stack = [(cls, iter(self._parents[cls]))]
            while stack:
                node, parents = stack[-1]
                for parent in parents:
                    state = depth.get(parent)
                    if state == -1:
                        raise CycleError(f"subclass cycle through {parent}")
                    if state is None:
                        depth[parent] = -1
                        stack.append((parent, iter(self._parents[parent])))
                        break
                else:
                    depth[node] = max((depth[p] + 1 for p in self._parents[node]), default=0)
                    stack.pop()
        return depth

    def register(self, name: Iri, parents: set[Iri] | frozenset[Iri]) -> "Taxonomy":
        """Return a taxonomy extended with `name` as a subclass of `parents`."""
        for parent in parents:
            if parent not in self.classes:
                raise UnknownClassError(f"unknown parent class: {parent}")
        new_edges = {(name, p) for p in parents}
        return Taxonomy(self.classes | {name}, self.edges | new_edges)

    def contains(self, name: Iri) -> bool:
        return name in self.classes

    def superclasses(self, name: Iri) -> frozenset[Iri]:
        """Reflexive-transitive superclass closure of `name`."""
        if name not in self.classes:
            raise UnknownClassError(f"unknown class: {name}")
        closure: set[Iri] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            if current in closure:
                continue
            closure.add(current)
            frontier.extend(self._parents[current])
        return frozenset(closure)

    def is_subclass_of(self, a: Iri, b: Iri) -> bool:
        if b not in self.classes:
            raise UnknownClassError(f"unknown class: {b}")
        return b in self.superclasses(a)

    def depth(self, name: Iri) -> int:
        """Longest upward path length; roots have depth 0."""
        if name not in self.classes:
            raise UnknownClassError(f"unknown class: {name}")
        return self._depth[name]


def core_taxonomy() -> Taxonomy:
    """The shipped hierarchy: core design/phase/component classes plus the
    autism extension classes named in the annotation vocabulary."""
    v = vocab
    edges = [
        (v.SIMPLE_DESIGN, v.SINGLE_SUBJECT_DESIGN),
        (v.WITHDRAWAL_DESIGN, v.SINGLE_SUBJECT_DESIGN),
        (v.MULTIPLE_BASELINE_DESIGN, v.SINGLE_SUBJECT_DESIGN),
        (v.ALTERNATING_TREATMENT_DESIGN, v.SINGLE_SUBJECT_DESIGN),
        (v.AB_DESIGN, v.SIMPLE_DESIGN),
        (v.ABAB_DESIGN, v.WITHDRAWAL_DESIGN),
        (v.ACROSS_OUTCOME_MBD, v.MULTIPLE_BASELINE_DESIGN),
        (v.ACROSS_SETTING_MBD, v.MULTIPLE_BASELINE_DESIGN),
        (v.ACROSS_SUBJECT_MBD, v.MULTIPLE_BASELINE_DESIGN),
        (v.BASELINE_PHASE, v.PHASE),
        (v.INTERVENTION_PHASE, v.PHASE),
        (v.FOLLOW_UP_PHASE, v.PHASE),
        (v.SIMPLE_INTERVENTION_PHASE, v.INTERVENTION_PHASE),
        (v.ALTERNATING_INTERVENTION_PHASE, v.INTERVENTION_PHASE),
        (v.ACROSS_OUTCOME_MBD_ITEM, v.MBD_ITEM),
        (v.ACROSS_SETTING_MBD_ITEM, v.MBD_ITEM),
        (v.ACROSS_SUBJECT_MBD_ITEM, v.MBD_ITEM),
        (v.PEER_MEDIATED_INTERVENTION, v.INTERVENTION_TYPE),
        (v.COMMUNICATION_OUTCOME, v.OUTCOME),
    ]
    classes = {c for edge in edges for c in edge} | {
        v.INTERVENTION_TYPE,
        v.OUTCOME,
        v.RESULT,
        v.INSTANT,
        v.PARTICIPANT,
        v.AGE_DESCRIPTION,
    }
    return Taxonomy(frozenset(classes), frozenset(edges))
