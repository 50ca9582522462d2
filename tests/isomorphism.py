"""Graph isomorphism for triple sets: equality up to a bijection of
blank-node labels. Color refinement narrows candidates; a depth-first search
with an explicit stack, not one frame per label, settles symmetric leftovers."""

from __future__ import annotations

from ssdkb.terms import BlankNode
from ssdkb.turtle import Triple, TripleGraph


def _split(triples: set[Triple]) -> tuple[set[Triple], dict[str, list[tuple]]]:
    """The ground triples, and each blank label's edges as
    (direction, predicate, neighbor is blank, neighbor label or term)."""
    ground: set[Triple] = set()
    adjacency: dict[str, list[tuple]] = {}
    for t in triples:
        s, p, o = t
        s_blank, o_blank = isinstance(s, BlankNode), isinstance(o, BlankNode)
        if s_blank:
            adjacency.setdefault(s.label, []).append(("out", p, o_blank, o.label if o_blank else o))
        if o_blank:
            adjacency.setdefault(o.label, []).append(("in", p, s_blank, s.label if s_blank else s))
        if not s_blank and not o_blank:
            ground.add(t)
    return ground, adjacency


def _refine_colors(adjacency: dict[str, list[tuple]]) -> dict[str, int]:
    """Colors refined until the partition into color classes stops
    splitting. A round only splits classes, so one that keeps their number
    keeps the partition."""
    colors = {label: 0 for label in adjacency}
    classes = 1
    while True:
        new_colors = {
            label: hash(
                tuple(
                    sorted(
                        (direction, pred, ("b", colors[other]) if is_blank else ("g", other))
                        for direction, pred, is_blank, other in edges
                    )
                )
            )
            for label, edges in adjacency.items()
        }
        new_classes = len(set(new_colors.values()))
        if new_classes == classes:
            return colors
        colors, classes = new_colors, new_classes


def isomorphic(a: TripleGraph | set[Triple], b: TripleGraph | set[Triple]) -> bool:
    """True iff the two triple sets are equal under some blank-node bijection."""
    ta = a.triples if isinstance(a, TripleGraph) else a
    tb = b.triples if isinstance(b, TripleGraph) else b
    if len(ta) != len(tb):
        return False

    ground_a, adjacency = _split(ta)
    ground_b, adjacency_b = _split(tb)
    if ground_a != ground_b or len(adjacency) != len(adjacency_b):
        return False
    if not adjacency:
        return True

    colors_a = _refine_colors(adjacency)
    colors_b = _refine_colors(adjacency_b)
    if sorted(colors_a.values()) != sorted(colors_b.values()):
        return False

    by_color_b: dict[int, list[str]] = {}
    for label, color in colors_b.items():
        by_color_b.setdefault(color, []).append(label)

    # singleton classes first: their one candidate is mapped directly
    order = sorted(adjacency, key=lambda l: (len(by_color_b[colors_a[l]]), l))
    mapping: dict[str, str] = {}

    def consistent(label: str) -> bool:
        """Each edge of `label` to a ground term or a mapped label maps into `tb`."""
        node = BlankNode(mapping[label])
        for direction, pred, is_blank, other in adjacency[label]:
            if is_blank:
                if other not in mapping:
                    continue
                other = BlankNode(mapping[other])
            image = Triple(node, pred, other) if direction == "out" else Triple(other, pred, node)
            if image not in tb:
                return False
        return True

    # stack[i] holds order[i]'s untried candidates. A full mapping has checked
    # each triple of `ta` with its last blank node, so it maps `ta` onto `tb`.
    used: set[str] = set()
    stack = [iter(by_color_b[colors_a[order[0]]])]
    while stack:
        label = order[len(stack) - 1]
        used.discard(mapping.pop(label, None))
        for candidate in stack[-1]:
            if candidate not in used:
                mapping[label] = candidate
                if consistent(label):
                    used.add(candidate)
                    break
                del mapping[label]
        else:
            stack.pop()
            continue
        if len(stack) == len(order):
            return True
        stack.append(iter(by_color_b[colors_a[order[len(stack)]]]))
    return False
