import pytest

from ssdkb import vocab
from ssdkb.kb import graph_to_kb
from ssdkb.taxonomy import CycleError, Taxonomy, UnknownClassError, core_taxonomy
from ssdkb.terms import aut, ssd
from ssdkb.turtle import parse_turtle


@pytest.fixture(scope="module")
def core():
    return core_taxonomy()


def test_core_hierarchy_members(core):
    assert core.contains(vocab.SINGLE_SUBJECT_DESIGN)
    assert core.is_subclass_of(vocab.ABAB_DESIGN, vocab.WITHDRAWAL_DESIGN)
    assert core.is_subclass_of(vocab.AB_DESIGN, vocab.SIMPLE_DESIGN)
    assert core.is_subclass_of(vocab.ACROSS_SETTING_MBD, vocab.MULTIPLE_BASELINE_DESIGN)
    assert core.is_subclass_of(
        vocab.ALTERNATING_INTERVENTION_PHASE, vocab.INTERVENTION_PHASE
    )
    assert core.is_subclass_of(vocab.PEER_MEDIATED_INTERVENTION, vocab.INTERVENTION_TYPE)
    assert core.is_subclass_of(vocab.COMMUNICATION_OUTCOME, vocab.OUTCOME)


def test_reflexivity(core):
    assert core.is_subclass_of(vocab.WITHDRAWAL_DESIGN, vocab.WITHDRAWAL_DESIGN)


def test_antisymmetry_on_distinct_nodes(core):
    assert core.is_subclass_of(vocab.ABAB_DESIGN, vocab.WITHDRAWAL_DESIGN)
    assert not core.is_subclass_of(vocab.WITHDRAWAL_DESIGN, vocab.ABAB_DESIGN)


def test_register_new_withdrawal_variant(core):
    extended = core.register(ssd("ABABABAB_Design"), {vocab.WITHDRAWAL_DESIGN})
    assert extended.is_subclass_of(ssd("ABABABAB_Design"), vocab.WITHDRAWAL_DESIGN)
    assert extended.is_subclass_of(ssd("ABABABAB_Design"), vocab.SINGLE_SUBJECT_DESIGN)
    # original is untouched
    assert not core.contains(ssd("ABABABAB_Design"))


def test_register_autism_style_extension(core):
    extended = core.register(aut("ScriptingIntervention"), {vocab.INTERVENTION_TYPE})
    assert extended.is_subclass_of(aut("ScriptingIntervention"), vocab.INTERVENTION_TYPE)


def test_register_self_loop_is_cycle(core):
    with pytest.raises(CycleError):
        core.register(vocab.WITHDRAWAL_DESIGN, {vocab.WITHDRAWAL_DESIGN})


def test_register_unknown_parent(core):
    with pytest.raises(UnknownClassError):
        core.register(ssd("Whatever"), {ssd("NoSuchClass")})


def test_edge_over_unknown_class():
    with pytest.raises(UnknownClassError, match="edge over unknown class"):
        Taxonomy(frozenset({ssd("A")}), frozenset({(ssd("A"), ssd("B"))}))


def test_two_step_cycle_rejected(core):
    t = core.register(ssd("X"), {vocab.SINGLE_SUBJECT_DESIGN})
    t = t.register(ssd("Y"), {ssd("X")})
    with pytest.raises(CycleError):
        t.register(ssd("X"), {ssd("Y")})


def test_unknown_class_queries(core):
    with pytest.raises(UnknownClassError):
        core.is_subclass_of(ssd("NoSuchClass"), vocab.OUTCOME)
    with pytest.raises(UnknownClassError):
        core.is_subclass_of(vocab.OUTCOME, ssd("NoSuchClass"))


def _brute_force_reachable(taxonomy: Taxonomy, a, b) -> bool:
    """Independent oracle: DFS over raw edges, no closure machinery."""
    edges = {}
    for child, parent in taxonomy.edges:
        edges.setdefault(child, set()).add(parent)
    stack, seen = [a], set()
    while stack:
        node = stack.pop()
        if node == b:
            return True
        if node in seen:
            continue
        seen.add(node)
        stack.extend(edges.get(node, ()))
    return False


def test_closure_matches_brute_force_oracle(core):
    for a in core.classes:
        for b in core.classes:
            assert core.is_subclass_of(a, b) == _brute_force_reachable(core, a, b), (a, b)


def _chain(n: int):
    """Classes c0 .. c(n-1), each a subclass of the one before."""
    classes = [ssd(f"c{i}") for i in range(n)]
    return classes, {(classes[i + 1], classes[i]) for i in range(n - 1)}


def test_chain_deeper_than_the_recursion_limit():
    classes, edges = _chain(4999)
    chain = Taxonomy(frozenset(classes), frozenset(edges))
    leaf = ssd("c4999")
    chain = chain.register(leaf, {classes[-1]})
    assert chain.superclasses(leaf) == frozenset(classes) | {leaf}
    assert len(chain.superclasses(leaf)) == 5000
    assert chain.is_subclass_of(leaf, classes[0])


@pytest.mark.parametrize("child, parent", [(0, 4999), (2500, 2501), (4998, 4999), (4999, 4999)])
def test_cycle_anywhere_in_a_long_chain(child, parent):
    classes, edges = _chain(5000)
    edges.add((classes[child], classes[parent]))
    with pytest.raises(CycleError):
        Taxonomy(frozenset(classes), frozenset(edges))


def test_register_closes_a_cycle_through_a_long_chain():
    classes, edges = _chain(5000)
    chain = Taxonomy(frozenset(classes), frozenset(edges))
    with pytest.raises(CycleError):
        chain.register(classes[0], {classes[-1]})


def _longest_path_up(taxonomy: Taxonomy, name) -> int:
    parents = {p for c, p in taxonomy.edges if c == name}
    return max((_longest_path_up(taxonomy, p) + 1 for p in parents), default=0)


def test_depth_is_the_longest_upward_path(core):
    extended = core.register(ssd("ShortcutDesign"), {vocab.ABAB_DESIGN, vocab.SINGLE_SUBJECT_DESIGN})
    for taxonomy in (core, extended):
        for cls in taxonomy.classes:
            assert taxonomy.depth(cls) == _longest_path_up(taxonomy, cls)
    assert extended.depth(ssd("ShortcutDesign")) == 3
    with pytest.raises(UnknownClassError):
        core.depth(ssd("Nonexistent"))


def test_lift_a_study_typed_with_the_leaf_of_a_long_chain():
    classes, edges = _chain(5000)
    core = core_taxonomy()
    taxonomy = Taxonomy(
        core.classes | frozenset(classes),
        core.edges | edges | {(classes[0], vocab.AB_DESIGN)},
    )
    graph = parse_turtle(
        "@prefix ssd: <http://bdi.si.ehu.es/bdi/ontologies/SSDOnt/SSDOnt#> .\n"
        "ssd:s1 a ssd:AB_Design ; a ssd:c4999 .\n"
    )
    kb = graph_to_kb(graph, taxonomy)
    assert [study.asserted_class for study in kb.studies] == [classes[-1]]
    assert taxonomy.depth(classes[-1]) == 5002
