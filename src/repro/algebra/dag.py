"""Traversal and reconstruction utilities for plan DAGs.

Plan operators are immutable and shared, so "modifying" a plan means
rebuilding the spine from the changed node up to the root while preserving
sharing everywhere else.  The helpers here implement exactly that, plus the
reachability relation ``⇛`` the rewrite rules of Fig. 5 consult.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional, Type

from repro.algebra.operators import Operator


def iter_nodes(root: Operator) -> Iterator[Operator]:
    """Yield every distinct node of the DAG rooted at ``root`` (post-order).

    Implemented iteratively so that very deep (pathological) plans cannot hit
    Python's recursion limit.
    """
    seen: set[int] = set()
    stack: list[tuple[Operator, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in reversed(node.children):
            if id(child) not in seen:
                stack.append((child, False))


def topological_order(root: Operator) -> list[Operator]:
    """All distinct nodes, children before parents."""
    return list(iter_nodes(root))


def node_count(root: Operator) -> int:
    """Number of distinct operators in the plan."""
    return sum(1 for _ in iter_nodes(root))


def count_operators(root: Operator, operator_type: Type[Operator]) -> int:
    """Number of distinct operators of the given type in the plan."""
    return sum(1 for node in iter_nodes(root) if isinstance(node, operator_type))


def operator_histogram(root: Operator) -> dict[str, int]:
    """Histogram of operator class names — used by the plan-shape experiments."""
    histogram: dict[str, int] = {}
    for node in iter_nodes(root):
        name = type(node).__name__
        histogram[name] = histogram.get(name, 0) + 1
    return histogram


def parents_map(root: Operator) -> dict[int, list[Operator]]:
    """Map ``id(node) -> list of parent nodes`` for the DAG rooted at ``root``."""
    parents: dict[int, list[Operator]] = {id(node): [] for node in iter_nodes(root)}
    for node in iter_nodes(root):
        for child in node.children:
            parents[id(child)].append(node)
    return parents


def reaches(source: Operator, target: Operator) -> bool:
    """The reachability relation ``source ⇛ target`` (true also when identical)."""
    if source is target:
        return True
    return any(target is node for node in iter_nodes(source))


@dataclass
class Pushout:
    """The result of gluing replacement subplans into a plan DAG.

    Named after the double-pushout reading of a rewrite step (cf. chyp /
    ReGraph): the *preserved part* is everything the substitution map does
    not mention, and it embeds into both the old plan and the new one.
    ``root`` is the rebuilt plan; ``glued`` maps ``id(old node)`` to the
    object that took its place at the top-level gluing context — the
    replacement identities a provenance trace records, and the seed of the
    rewrite driver's dirty-node worklist.

    ``rebuilt`` maps ``id(old node) -> new node`` for every *mechanical*
    rebuild: an ancestor of a replacement that was re-created by
    ``with_children`` with all of its own fields intact.  Unlike ``glued``
    entries (whose shape the replacement dictates), a rebuilt node is
    field-for-field the old operator over new inputs — the equivalence the
    rewrite driver's plan index uses to carry property values over to the
    rebuild instead of recomputing the whole ancestor cone.  A node
    rebuilt into *different* objects under different gluing contexts is
    omitted (no single counterpart exists).
    """

    root: Operator
    glued: dict[int, Operator] = field(default_factory=dict)
    rebuilt: dict[int, Operator] = field(default_factory=dict)


def pushout(
    root: Operator,
    replacements: Mapping[int, Operator],
    cone: Optional[list[Operator]] = None,
) -> Pushout:
    """Rebuild the DAG with ``replacements`` (keyed by ``id`` of the old node).

    Sharing is preserved *by construction*: the preserved part — every node
    the map does not mention — is reused as-is (object identity), and every
    reference to a replaced node resolves to one single replacement object,
    *including* references buried inside other replacement subtrees.  A
    replacement may legitimately contain the very node it replaces (rules
    such as (8) wrap the matched operator); that occurrence belongs to the
    preserved part — the ``p → lhs`` / ``p → rhs`` inclusions of a pushout
    complement — and is kept verbatim instead of being replaced again, which
    is what the ``banned`` set tracks.

    Rewriting inside replacements matters for multi-node substitution maps
    (the key-join collapse returns one): a replacement that still references
    the *old* version of another replaced node must see its new version, or
    the plan ends up with two divergent copies of a shared operator — which
    silently breaks every rewrite premise that relies on shared anchors
    (``left_origin[0] is right_origin[0]``).

    ``cone`` optionally lists the ancestors of the one replaced node,
    children before parents, in the plan's post-order.  A caller that
    indexes its plan (the worklist rewrite driver's
    :class:`~repro.core.properties.PlanIndex`) enables the
    single-replacement fast path with it: only the cone is rebuilt, so the
    substitution costs O(cone) instead of a full-plan pass.  The resulting
    graph, and the order of the operator constructor calls (hence which
    invariant a rejected rewrite trips first), are identical to the
    generic path's.
    """
    if cone is not None and len(replacements) == 1:
        ((target_id, replacement),) = tuple(replacements.items())
        return _pushout_cone(root, target_id, replacement, cone)
    #: ``reach(node)`` = the replacement keys reachable from ``node``.  Memo
    #: keys below pair a node id with the *relevant* slice of the banned set
    #: (``banned & reach``), so a node rebuilt in unrelated contexts still
    #: resolves to one single object.
    reach_memo: dict[int, frozenset[int]] = {}

    def reach(node: Operator) -> frozenset[int]:
        cached = reach_memo.get(id(node))
        if cached is not None:
            return cached
        acc: frozenset[int] = frozenset()
        for child in node.children:
            acc |= reach(child)
        if id(node) in replacements:
            acc |= frozenset((id(node),))
        reach_memo[id(node)] = acc
        return acc

    memo: dict[tuple[int, frozenset[int]], Operator] = {}
    glued: dict[int, Operator] = {}
    rebuilt: dict[int, Operator] = {}
    ambiguous: set[int] = set()

    def rebuild(node: Operator, banned: frozenset[int]) -> Operator:
        reachable = reach(node)
        if not reachable:
            return node  # nothing below is replaced
        effective = banned & reachable
        key = (id(node), effective)
        if key in memo:
            return memo[key]
        if id(node) in replacements and id(node) not in banned:
            result = rebuild(replacements[id(node)], banned | frozenset((id(node),)))
            # Record the top-level gluing only (first context reaching the
            # node): deeper banned contexts rebuild preserved occurrences.
            glued.setdefault(id(node), result)
        else:
            new_children = [rebuild(child, effective) for child in node.children]
            if all(new is old for new, old in zip(new_children, node.children)):
                result = node
            else:
                result = node.with_children(new_children)
                previous = rebuilt.setdefault(id(node), result)
                if previous is not result:
                    # Rebuilt differently under two gluing contexts: there
                    # is no single counterpart to hand index entries to.
                    ambiguous.add(id(node))
        memo[key] = result
        return result

    new_root = rebuild(root, frozenset())
    for node_id in ambiguous:
        del rebuilt[node_id]
    return Pushout(root=new_root, glued=glued, rebuilt=rebuilt)


def _pushout_cone(
    root: Operator, target_id: int, replacement: Operator, cone: list[Operator]
) -> Pushout:
    """The fast path of :func:`pushout` for one replacement and its known cone.

    Only the ancestors of the target can change; everything else — the
    target's own subtree, the replacement's internals (where a preserved
    occurrence of the target legitimately lives, cf. the banned set of the
    generic path), and all unrelated nodes — is spliced in by identity.
    The cone is rebuilt in post-order, children before parents, which is
    the order in which the generic path's recursion reaches its nodes.
    """
    mapped: dict[int, Operator] = {target_id: replacement}
    rebuilt: dict[int, Operator] = {}
    for node in cone:
        new_children = [mapped.get(id(child), child) for child in node.children]
        if tuple(new_children) == node.children:  # operators compare by identity
            result = node
        else:
            result = node.with_children(new_children)
            rebuilt[id(node)] = result
        mapped[id(node)] = result
    return Pushout(
        root=mapped.get(id(root), root), glued={target_id: replacement}, rebuilt=rebuilt
    )


def substitute(root: Operator, replacements: Mapping[int, Operator]) -> Operator:
    """Rebuild the DAG with ``replacements`` — see :func:`pushout`."""
    return pushout(root, replacements).root


def replace_node(root: Operator, old: Operator, new: Operator) -> Operator:
    """Replace one node of the DAG (all references to it) and return the new root."""
    return substitute(root, {id(old): new})


def find_nodes(root: Operator, match: Callable[[Operator], bool]) -> list[Operator]:
    """All distinct nodes satisfying ``match``, in post-order."""
    return [node for node in iter_nodes(root) if match(node)]


def find_first(root: Operator, match: Callable[[Operator], bool]) -> Optional[Operator]:
    """The first node (post-order) satisfying ``match``, or ``None``."""
    for node in iter_nodes(root):
        if match(node):
            return node
    return None


def shared_nodes(root: Operator) -> list[Operator]:
    """All nodes referenced by more than one parent (the DAG's sharing points)."""
    parents = parents_map(root)
    return [node for node in iter_nodes(root) if len(parents[id(node)]) > 1]
