"""Tests for DAG traversal and substitution."""

from repro.algebra.dag import (
    count_operators, find_first, iter_nodes, node_count, operator_histogram,
    parents_map, pushout, reaches, replace_node, shared_nodes, substitute,
)
from repro.algebra.operators import Attach, Cross, Distinct, DocTable, Project, Select, Serialize
from repro.algebra.render import render_plan
from repro.algebra.predicates import ColumnRef, Comparison, Literal, Predicate


def _sample_plan():
    doc = DocTable()
    left = Project(doc, [("a", "pre")])
    right = Project(doc, [("b", "pre")])
    top = Attach(Project(left, [("a", "a")]), "c", 1)
    return doc, left, right, top


def test_iter_nodes_visits_each_once():
    doc, left, right, top = _sample_plan()
    nodes = list(iter_nodes(top))
    assert len(nodes) == len({id(n) for n in nodes})
    assert nodes[-1] is top


def test_parents_and_shared_nodes():
    doc = DocTable()
    a = Project(doc, [("a", "pre")])
    b = Project(doc, [("b", "pre")])
    from repro.algebra.operators import Cross
    top = Cross(a, b)
    assert shared_nodes(top) == [doc]
    assert len(parents_map(top)[id(doc)]) == 2


def test_reaches():
    doc, left, right, top = _sample_plan()
    assert reaches(top, doc)
    assert not reaches(left, top)


def test_replace_node_preserves_sharing():
    doc = DocTable()
    a = Project(doc, [("a", "pre")])
    b = Project(doc, [("b", "pre")])
    from repro.algebra.operators import Cross
    top = Cross(a, b)
    new_doc = DocTable("doc2")
    new_top = replace_node(top, doc, new_doc)
    assert shared_nodes(new_top) == [new_doc]
    assert node_count(new_top) == node_count(top)


def test_substitute_allows_wrapping_replacement():
    doc = DocTable()
    select = Select(doc, Predicate.of(Comparison(ColumnRef("kind"), "=", Literal("ELEM"))))
    wrapped = Distinct(select)
    new_root = substitute(select, {id(select): wrapped})
    assert isinstance(new_root, Distinct) and new_root.child is select


def test_histogram_and_counts():
    doc, left, right, top = _sample_plan()
    histogram = operator_histogram(top)
    assert histogram["Project"] == 2
    assert count_operators(top, Project) == 2
    assert find_first(top, lambda n: isinstance(n, DocTable)) is doc


def test_deep_plan_iteration_is_iterative():
    node = DocTable()
    plan = node
    for i in range(3000):
        plan = Attach(plan, f"c{i}", i)
    assert node_count(plan) == 3001


def test_substitute_rewrites_inside_other_replacements():
    """Regression: substitute() spliced replacement subtrees verbatim, so a
    replacement that still referenced the *old* version of another replaced
    node left the plan with two divergent copies of a shared operator —
    which silently broke every rewrite premise relying on shared anchors
    (the key-join collapse's ``left_origin is right_origin``)."""
    from repro.algebra.operators import Cross, RowId

    doc = DocTable()
    rowid = RowId(Project(doc, [("a", "pre")]), "rid")
    consumer_one = Project(rowid, [("x", "rid")])
    consumer_two = Project(rowid, [("y", "rid")])
    top = Cross(consumer_one, consumer_two)

    widened_rowid = RowId(Project(doc, [("a", "pre"), ("carry", "size")]), "rid")
    # One replacement's subtree (the rebuilt consumer) still references the
    # OLD rowid; the map also replaces the rowid itself.
    replacements = {
        id(rowid): widened_rowid,
        id(consumer_one): Project(rowid, [("x", "rid")]),
    }
    new_top = substitute(top, replacements)
    rowids = [node for node in iter_nodes(new_top) if isinstance(node, RowId)]
    # Exactly ONE RowId object survives — the widened copy — referenced by
    # both consumers.
    assert len(rowids) == 1
    assert rowids[0] is widened_rowid


def test_substitute_self_reference_still_allowed_in_multi_maps():
    """A replacement wrapping its own target composes with other entries."""
    from repro.algebra.operators import Cross

    doc = DocTable()
    select = Select(doc, Predicate.of(Comparison(ColumnRef("kind"), "=", Literal("ELEM"))))
    other = Project(doc, [("a", "pre")])
    top = Cross(Project(select, [("k", "kind")]), other)
    replacements = {
        id(select): Distinct(select),  # wraps itself
        id(other): Project(doc, [("a", "pre"), ("b", "size")]),
    }
    new_top = substitute(top, replacements)
    distincts = [n for n in iter_nodes(new_top) if isinstance(n, Distinct)]
    assert len(distincts) == 1
    assert distincts[0].child is select  # the self-reference was not re-replaced


def test_pushout_cone_fast_path_matches_generic_path():
    """Given the target's ancestors in post-order, the fast path rebuilds
    exactly the generic path's graph: same shape, same sharing, same
    mechanical-rebuild map."""
    doc = DocTable()
    a = Project(doc, [("a", "pre")])
    b = Project(doc, [("b", "pre")])
    top = Serialize(Attach(Cross(Project(a, [("a", "a")]), b), "c", 1))
    replacement = Project(doc, [("a", "size")])
    cone = [node for node in iter_nodes(top) if node is not a and reaches(node, a)]
    generic = pushout(top, {id(a): replacement})
    fast = pushout(top, {id(a): replacement}, cone=cone)
    assert render_plan(fast.root) == render_plan(generic.root)
    assert set(fast.rebuilt) == set(generic.rebuilt) == {id(node) for node in cone}
    assert fast.glued == generic.glued == {id(a): replacement}
    cross = fast.root.child.child
    assert cross.right is b and cross.left.child is replacement
