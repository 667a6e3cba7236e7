"""Plan property inference (Tables II-V of the paper).

For every operator of a plan DAG four properties are inferred:

``icols``
    The set of input columns strictly required by the operator's upstream
    plan (top-down, seeded with ``{pos, item}`` at the serialization point,
    accumulated over all parents).

``const``
    The set of ``column = constant`` facts that hold for every output row
    (bottom-up).

``key``
    The set of candidate keys of the operator's output (bottom-up).

``set``
    Whether the operator's output rows are subject to duplicate elimination
    further up on *every* path to the root (top-down, seeded ``False`` at
    the root, conjunctively accumulated).

The rewrite rules of :mod:`repro.core.rewrite.rules` consult these
properties through their rule context, which reads them from one of two
sources:

* :func:`infer_properties` computes a :class:`PlanProperties` snapshot from
  scratch.  The legacy rewrite driver calls it after every step, and it is
  the reference the incremental source is tested against.
* :class:`PlanIndex` is the worklist driver's incremental source.  It is
  built once per isolation run, together with the parent lists, the
  post-order and the σ/⋈ set.  Each rewrite step then updates only the
  region its pushout changed.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Optional

from repro.algebra.dag import Pushout, topological_order
from repro.algebra.operators import (
    Attach,
    Cross,
    Distinct,
    DocTable,
    GroupAggregate,
    Join,
    LiteralTable,
    Operator,
    Project,
    RowId,
    RowRank,
    Select,
    Serialize,
)

#: Seed of ``icols`` at the serialization point: the two columns needed to
#: represent and serialize the resulting XML node sequence.
SERIALIZE_ICOLS = frozenset({"pos", "item"})


#: The one empty-refs object: seeds and recomputations share it, so an
#: empty value keeps its identity across rewrite steps.
_NO_REFS: frozenset[str] = frozenset()


class PlanProperties:
    """A property snapshot for every operator of one plan DAG.

    Filled from scratch by :func:`infer_properties`; the worklist driver's
    :class:`PlanIndex` answers the same queries incrementally.
    """

    def __init__(self, root: Operator):
        self.root = root
        self._icols: dict[int, frozenset[str]] = {}
        self._const: dict[int, dict[str, object]] = {}
        self._keys: dict[int, frozenset[frozenset[str]]] = {}
        self._set: dict[int, bool] = {}

    # -- public accessors --------------------------------------------------------

    def icols(self, node: Operator) -> frozenset[str]:
        return self._icols[id(node)]

    def const(self, node: Operator) -> dict[str, object]:
        return self._const[id(node)]

    def keys(self, node: Operator) -> frozenset[frozenset[str]]:
        return self._keys[id(node)]

    def is_set(self, node: Operator) -> bool:
        return self._set[id(node)]

    def has_key_within(self, node: Operator, columns: frozenset[str]) -> bool:
        """True when some candidate key of ``node`` is contained in ``columns``."""
        return any(key <= columns for key in self.keys(node))

    # -- from-scratch inference ---------------------------------------------------

    def _infer(self, order: list[Operator]) -> None:
        const_by, keys_by = self._const, self._keys
        # Bottom-up: const and key.
        for node in order:
            const_by[id(node)] = _infer_const(node, const_by)
            keys_by[id(node)] = _infer_keys(node, keys_by)
        # Top-down: icols and set.  Parents appear after children in the
        # topological order, so walk it in reverse.
        icols_by, set_by = self._icols, self._set
        for node in order:
            icols_by[id(node)] = frozenset()
            set_by[id(node)] = True
        icols_by[id(self.root)] = _root_icols(self.root)
        set_by[id(self.root)] = False
        for node in reversed(order):
            self._propagate_down(node)

    def _propagate_down(self, node: Operator) -> None:
        icols_by, set_by = self._icols, self._set
        node_icols = icols_by[id(node)]
        node_set = set_by[id(node)]
        for position, child in enumerate(node.children):
            child_id = id(child)
            icols_by[child_id] = icols_by[child_id] | _child_icols(
                node, position, child, node_icols
            )
            set_by[child_id] = set_by[child_id] and _child_set(
                node, position, node_set
            )


def infer_properties(root: Operator) -> PlanProperties:
    """Infer all four plan properties for the DAG rooted at ``root``.

    The from-scratch reference: the legacy rewrite driver calls it after
    every step, and the worklist driver's :class:`PlanIndex` must agree
    with it after every step.
    """
    properties = PlanProperties(root)
    properties._infer(topological_order(root))
    return properties


def _root_icols(root: Operator) -> frozenset[str]:
    """``icols`` seed of the plan root (the serialization point's columns)."""
    if isinstance(root, Serialize):
        return SERIALIZE_ICOLS & frozenset(root.columns) or frozenset(root.columns)
    return frozenset(root.columns)


# ---------------------------------------------------------------------------
# The delta-maintained plan index of the worklist rewrite driver
# ---------------------------------------------------------------------------


@dataclass
class PlanDelta:
    """What one rewrite step changed, as :meth:`PlanIndex.apply` found it."""

    #: Nodes that left the plan.
    retired: list[Operator]
    #: Surviving nodes whose parent multiset changed other than by a
    #: parent's mechanical rebuild (see :attr:`~repro.algebra.dag.Pushout.rebuilt`).
    reparented: list[Operator]
    #: Whether a σ or ⋈ entered or left the plan (a rebuilt one counts).
    predicates_changed: bool


class Slot:
    """One place of the plan: the node there now and what is indexed about it.

    A slot outlives its node's *mechanical rebuilds* (same fields over new
    inputs): the rebuild takes over the slot, and with it the parent list —
    which holds slots, so an edge whose endpoints were both rebuilt is
    untouched — and the property values, which stay valid unless an input
    changed.
    """

    __slots__ = ("node", "parents", "const", "keys", "icols", "is_set", "refs")

    def __init__(self, node: Operator):
        self.node = node
        #: One entry per child position of a parent that references ``node``.
        self.parents: list[Slot] = []
        self.const: dict[str, object] = {}
        self.keys: frozenset[frozenset[str]] = frozenset()
        self.icols: frozenset[str] = frozenset()
        self.is_set = True
        self.refs: frozenset[str] = _NO_REFS


class _SlotField:
    """``id(node) -> value`` of one slot attribute (for the ``_infer_*`` helpers)."""

    __slots__ = ("_slots", "_name")

    def __init__(self, slots: dict[int, Slot], name: str):
        self._slots, self._name = slots, name

    def __getitem__(self, node_id: int):
        return getattr(self._slots[node_id], self._name)


class ParentView:
    """``id(node) -> [parent, ...]`` over a :class:`PlanIndex`.

    The parent-map lookup rule guards use (``ctx.parents.get``).
    """

    __slots__ = ("_slots",)

    def __init__(self, slots: dict[int, Slot]):
        self._slots = slots

    def get(self, node_id: int, default=None):
        slot = self._slots.get(node_id)
        if slot is None:
            return default
        return [parent.node for parent in slot.parents]


class PlanIndex:
    """Structure and properties of one plan, maintained across rewrite steps.

    For every node of the current plan the index holds a :class:`Slot`:
    its parents, its ``const`` / ``keys`` / ``icols`` / ``set`` / upstream
    refs.  It also holds the post-order (:attr:`order`, :attr:`position`)
    and the σ/⋈ nodes (:attr:`predicates`).  It answers the same queries
    as :class:`PlanProperties` plus :meth:`refs`, and :attr:`parents` is a
    parent map.  Built once per isolation run; afterwards :meth:`apply`
    folds in each pushout, touching only what it changed:

    * the post-order is recomputed by one DFS (its exact ``iter_nodes``
      order decides which match a step applies); the nodes it meets that
      are not indexed yet are the step's *new* nodes, and the old nodes it
      no longer reaches are *retired*;
    * a retired node's mechanical rebuild takes over its slot; every other
      new node gets a fresh slot, every other retired node's slot is
      dropped, and only the edges that are not mirrored by a rebuild are
      added or removed;
    * bottom-up values are recomputed child-first only for fresh slots and
      for rebuilds below which an edge, value or schema changed;
    * top-down values are recomputed parents-first only for fresh slots,
      nodes whose parent multiset or schema changed, and the children of
      nodes whose value changed — the cascade stops at the first node whose
      value did not.

    Recomputed-but-equal values keep the previous value *object*, so the
    worklist driver's failure memo can compare values by identity.
    """

    def __init__(self, root: Operator):
        self.root = root
        #: ``id(node) -> Slot`` for every node of the current plan.
        self.slots: dict[int, Slot] = {}
        #: The σ/⋈ nodes of the plan (the operands of ``compared_origins``).
        self.predicates: dict[int, Operator] = {}
        self.order: list[Operator] = []
        self.position: dict[int, int] = {}
        self.parents = ParentView(self.slots)
        new, _ = self._traverse(root)
        slots, fresh = self.slots, {}
        for node in new:
            fresh[id(node)] = slots[id(node)] = Slot(node)
            if isinstance(node, (Select, Join)):
                self.predicates[id(node)] = node
        for node in new:
            for child in node.children:
                slots[id(child)].parents.append(slots[id(node)])
        self._refresh({}, fresh, set(), set())

    # -- PlanProperties-compatible queries ----------------------------------------

    def icols(self, node: Operator) -> frozenset[str]:
        return self.slots[id(node)].icols

    def const(self, node: Operator) -> dict[str, object]:
        return self.slots[id(node)].const

    def keys(self, node: Operator) -> frozenset[frozenset[str]]:
        return self.slots[id(node)].keys

    def is_set(self, node: Operator) -> bool:
        return self.slots[id(node)].is_set

    def refs(self, node: Operator) -> frozenset[str]:
        """``node``'s upstream refs (cf. ``RuleContext.upstream_refs``)."""
        return self.slots[id(node)].refs

    def has_key_within(self, node: Operator, columns: frozenset[str]) -> bool:
        """True when some candidate key of ``node`` is contained in ``columns``."""
        return any(key <= columns for key in self.keys(node))

    def ancestors(self, nodes: list[Operator]) -> list[Operator]:
        """All proper ancestors of ``nodes``, children before parents."""
        found: dict[int, Operator] = {}
        stack = [self.slots[id(node)] for node in nodes]
        while stack:
            for parent in stack.pop().parents:
                parent_id = id(parent.node)
                if parent_id not in found:
                    found[parent_id] = parent.node
                    stack.append(parent)
        position = self.position
        return [found[node_id] for node_id in sorted(found, key=position.__getitem__)]

    # -- one rewrite step ---------------------------------------------------------

    def apply(self, result: Pushout) -> PlanDelta:
        """Fold one pushout into the index and report what changed."""
        slots, predicates = self.slots, self.predicates
        old_root = self.root
        self.root = result.root
        new, reached = self._traverse(result.root)
        retired = self._unreached(old_root, reached)
        rebuilt = result.rebuilt
        predicates_changed = False
        # Retire the old nodes.  A retired node's mechanical rebuild takes
        # over its slot (the old node is the rebuild's *counterpart*); the
        # other retired slots are dropped.
        old_slots: dict[int, Slot] = {}
        counterpart: dict[int, Operator] = {}
        dropped: list[Slot] = []
        for node in retired:
            node_id = id(node)
            slot = old_slots[node_id] = slots.pop(node_id)
            if predicates.pop(node_id, None) is not None:
                predicates_changed = True
            rebuild = rebuilt.get(node_id)
            if rebuild is not None and id(rebuild) in reached and id(rebuild) not in slots:
                counterpart[id(rebuild)] = node
                slot.node = rebuild
                slots[id(rebuild)] = slot
            else:
                dropped.append(slot)
        # A slot that gains or loses a parent is ``dirty``; a rebuild whose
        # child at some position moved to another slot is ``stale``
        # bottom-up.  An edge whose child took over its old child's slot is
        # mirrored and needs nothing.
        fresh: dict[int, Slot] = {}
        dirty: set[Slot] = set()
        stale: set[Slot] = set()
        for slot in dropped:
            for child in slot.node.children:
                child_slot = slots.get(id(child)) or old_slots[id(child)]
                child_slot.parents.remove(slot)
                dirty.add(child_slot)
        for node in new:
            node_id = id(node)
            if isinstance(node, (Select, Join)):
                predicates[node_id] = node
                predicates_changed = True
            old = counterpart.get(node_id)
            if old is None:
                slot = slots[node_id] = fresh[node_id] = Slot(node)
                for child in node.children:
                    child_slot = slots[id(child)]
                    child_slot.parents.append(slot)
                    dirty.add(child_slot)
                continue
            for child, old_child in zip(node.children, old.children):
                if child is old_child or counterpart.get(id(child)) is old_child:
                    continue  # mirrored
                slot = slots[node_id]
                child_slot = slots[id(child)]
                old_child_slot = slots.get(id(old_child)) or old_slots[id(old_child)]
                child_slot.parents.append(slot)
                old_child_slot.parents.remove(slot)
                dirty.add(child_slot)
                dirty.add(old_child_slot)
                stale.add(slot)
        reparented = [
            slot.node
            for slot in dirty
            if slots.get(id(slot.node)) is slot
            and id(slot.node) not in counterpart
            and id(slot.node) not in fresh
        ]
        self._refresh(counterpart, fresh, dirty, stale)
        return PlanDelta(
            retired=retired,
            reparented=reparented,
            predicates_changed=predicates_changed,
        )

    # -- structure ---------------------------------------------------------------

    def _traverse(self, root: Operator) -> tuple[list[Operator], set[int]]:
        """Recompute the post-order; return its not-yet-indexed nodes and all ids.

        The post-order DFS of ``iter_nodes`` (same order), inlined: a
        ``None`` on the walk stack marks where the top of ``expanded`` is
        complete and gets emitted.
        """
        indexed = self.slots
        order: list[Operator] = []
        position: dict[int, int] = {}
        new: list[Operator] = []
        seen: set[int] = set()
        expanded: list[Operator] = []
        walk: list[Optional[Operator]] = [root]
        pop, push, mark = walk.pop, walk.append, seen.add
        while walk:
            node = pop()
            if node is None:
                node = expanded.pop()
                node_id = id(node)
                position[node_id] = len(order)
                order.append(node)
                if node_id not in indexed:
                    new.append(node)
                continue
            node_id = id(node)
            if node_id in seen:
                continue
            mark(node_id)
            expanded.append(node)
            push(None)
            for child in reversed(node.children):
                if id(child) not in seen:
                    push(child)
        self.order, self.position = order, position
        return new, seen

    @staticmethod
    def _unreached(old_root: Operator, reached: set[int]) -> list[Operator]:
        """The old nodes the new plan no longer reaches (their parents all left)."""
        if id(old_root) in reached:
            return []
        retired = [old_root]
        marked = {id(old_root)}
        for node in retired:  # grows while iterating
            for child in node.children:
                child_id = id(child)
                if child_id not in reached and child_id not in marked:
                    marked.add(child_id)
                    retired.append(child)
        return retired

    # -- properties --------------------------------------------------------------

    def _refresh(
        self,
        counterpart: dict[int, Operator],
        fresh: dict[int, Slot],
        dirty: set[Slot],
        stale: set[Slot],
    ) -> None:
        """Recompute the values one step may have changed (see the class doc).

        Both passes are worklists ordered by post-order position: bottom-up
        pops the lowest position first (children before parents), top-down
        the highest (parents before children).
        """
        slots, position, root = self.slots, self.position, self.root
        const_of = _SlotField(slots, "const")
        keys_of = _SlotField(slots, "keys")
        # Bottom-up: fresh slots and stale rebuilds; a changed value or
        # schema makes the parents stale.
        schema_changed: set[Slot] = set()
        heap = [(position[id(slot.node)], id(slot.node), slot) for slot in stale]
        heap.extend((position[node_id], node_id, slot) for node_id, slot in fresh.items())
        heapq.heapify(heap)
        done: set[int] = set()
        while heap:
            _, node_id, slot = heapq.heappop(heap)
            if node_id in done:
                continue
            done.add(node_id)
            node = slot.node
            const = _infer_const(node, const_of)
            keys = _infer_keys(node, keys_of)
            old = counterpart.get(node_id)
            if old is not None:
                if const == slot.const:
                    const = slot.const
                if keys == slot.keys:
                    keys = slot.keys
                if node.columns != old.columns:
                    schema_changed.add(slot)
                elif const is slot.const and keys is slot.keys:
                    continue
            slot.const, slot.keys = const, keys
            for parent in slot.parents:
                heapq.heappush(heap, (position[id(parent.node)], id(parent.node), parent))
        # Top-down: fresh slots, changed parent multisets or schemas, and
        # the children of changed values.
        pending = [
            (-position[id(slot.node)], id(slot.node), slot)
            for slot in itertools.chain(dirty, schema_changed)
            if slots.get(id(slot.node)) is slot
        ]
        pending.extend((-position[node_id], node_id, slot) for node_id, slot in fresh.items())
        heapq.heapify(pending)
        done.clear()
        while pending:
            _, node_id, slot = heapq.heappop(pending)
            if node_id in done:
                continue
            done.add(node_id)
            node = slot.node
            if node is root:
                icols, is_set, refs = _root_icols(node), False, _NO_REFS
            else:
                icols, is_set, refs = self._pull(slot)
            if node_id not in fresh:
                if icols == slot.icols:
                    icols = slot.icols
                if refs == slot.refs:
                    refs = slot.refs
                if icols is slot.icols and refs is slot.refs and is_set == slot.is_set:
                    continue
            slot.icols, slot.is_set, slot.refs = icols, is_set, refs
            for child in node.children:
                heapq.heappush(pending, (-position[id(child)], id(child), slots[id(child)]))

    @staticmethod
    def _pull(slot: Slot) -> tuple[frozenset[str], bool, frozenset[str]]:
        """The top-down values of ``slot``'s node: its parents' contributions.

        The same unions (``icols``, refs) and conjunction (``set``) as the
        push-based ``_propagate_down`` pass and the rule context's lazy
        ``upstream_refs`` recursion, computed per node instead of per edge.
        """
        node = slot.node
        icols: frozenset[str] = frozenset()
        is_set = True
        refs: set[str] = set()
        for parent_slot in slot.parents:
            parent = parent_slot.node
            for position, child in enumerate(parent.children):
                if child is node:
                    icols = icols | _child_icols(parent, position, node, parent_slot.icols)
                    is_set = is_set and _child_set(parent, position, parent_slot.is_set)
            refs |= _parent_refs(parent, node, parent_slot.refs)
        return icols, is_set, frozenset(refs) if refs else _NO_REFS


# ---------------------------------------------------------------------------
# const (Table III)
# ---------------------------------------------------------------------------


def _infer_const(
    node: Operator, const_by: dict[int, dict[str, object]]
) -> dict[str, object]:
    if isinstance(node, DocTable):
        return {}
    if isinstance(node, LiteralTable):
        constants: dict[str, object] = {}
        for index, column in enumerate(node.columns):
            values = {row[index] for row in node.rows}
            if len(values) == 1:
                constants[column] = next(iter(values))
        return constants
    if isinstance(node, (Serialize, Select, Distinct, RowId, RowRank)):
        return dict(const_by[id(node.children[0])])
    if isinstance(node, Project):
        child_const = const_by[id(node.child)]
        return {new: child_const[old] for new, old in node.items if old in child_const}
    if isinstance(node, Attach):
        constants = dict(const_by[id(node.child)])
        constants[node.column] = node.value
        return constants
    if isinstance(node, (Join, Cross)):
        combined = dict(const_by[id(node.children[0])])
        combined.update(const_by[id(node.children[1])])
        return combined
    if isinstance(node, GroupAggregate):
        # Loop columns pass through untouched; the aggregate value does not.
        return dict(const_by[id(node.loop)])
    return {}


# ---------------------------------------------------------------------------
# key (Table IV)
# ---------------------------------------------------------------------------


def _infer_keys(
    node: Operator, keys_by: dict[int, frozenset[frozenset[str]]]
) -> frozenset[frozenset[str]]:
    if isinstance(node, DocTable):
        return frozenset({frozenset({"pre"})})
    if isinstance(node, LiteralTable):
        return _literal_table_keys(node)
    if isinstance(node, (Serialize, Select)):
        return keys_by[id(node.children[0])]
    if isinstance(node, Project):
        return _project_keys(node, keys_by[id(node.child)])
    if isinstance(node, Distinct):
        return keys_by[id(node.child)] | frozenset({frozenset(node.child.columns)})
    if isinstance(node, Attach):
        return keys_by[id(node.child)]
    if isinstance(node, RowId):
        return keys_by[id(node.child)] | frozenset({frozenset({node.column})})
    if isinstance(node, RowRank):
        return _rank_keys(node, keys_by[id(node.child)])
    if isinstance(node, Join):
        return _join_keys(node, keys_by)
    if isinstance(node, Cross):
        left = keys_by[id(node.children[0])]
        right = keys_by[id(node.children[1])]
        return frozenset({k1 | k2 for k1 in left for k2 in right})
    if isinstance(node, GroupAggregate):
        # At most one output row per loop row, loop column names unchanged.
        return keys_by[id(node.loop)]
    return frozenset()


def _literal_table_keys(node: LiteralTable) -> frozenset[frozenset[str]]:
    keys: set[frozenset[str]] = set()
    for index, column in enumerate(node.columns):
        values = [row[index] for row in node.rows]
        if len(values) == len(set(values)):
            keys.add(frozenset({column}))
    if len(node.rows) == len(set(node.rows)):
        keys.add(frozenset(node.columns))
    return frozenset(keys)


def _project_keys(
    node: Project, child_keys: frozenset[frozenset[str]]
) -> frozenset[frozenset[str]]:
    source_columns = frozenset(old for _new, old in node.items)
    keys: set[frozenset[str]] = set()
    for key in child_keys:
        if key <= source_columns:
            keys.add(frozenset(new for new, old in node.items if old in key))
    return frozenset(keys)


def _rank_keys(node: RowRank, child_keys: frozenset[frozenset[str]]) -> frozenset[frozenset[str]]:
    order_columns = frozenset(node.order_by)
    partition_columns = frozenset(node.partition_by)
    keys: set[frozenset[str]] = set(child_keys)
    for key in child_keys:
        if key & order_columns:
            # The rank is only unique within one partition, so the derived
            # key must carry the partition columns alongside the rank.
            keys.add(frozenset({node.column}) | (key - order_columns) | partition_columns)
    return frozenset(keys)


def _join_keys(
    node: Join, keys_by: dict[int, frozenset[frozenset[str]]]
) -> frozenset[frozenset[str]]:
    left, right = node.children
    left_keys = keys_by[id(left)]
    right_keys = keys_by[id(right)]
    keys: set[frozenset[str]] = set()
    predicate = node.predicate
    if predicate.is_single_column_equality():
        (a, b) = predicate.column_equalities()[0]
        # Normalise so that ``a`` belongs to the left input and ``b`` to the right.
        if a in right.columns and b in left.columns:
            a, b = b, a
        right_has_key_b = frozenset({b}) in right_keys
        left_has_key_a = frozenset({a}) in left_keys
        if right_has_key_b:
            keys |= set(left_keys)
            keys |= {(k1 - {a}) | k2 for k1 in left_keys for k2 in right_keys}
        if left_has_key_a:
            keys |= set(right_keys)
            keys |= {k1 | (k2 - {b}) for k1 in left_keys for k2 in right_keys}
        if not keys:
            keys = {k1 | k2 for k1 in left_keys for k2 in right_keys}
        return frozenset(keys)
    return frozenset({k1 | k2 for k1 in left_keys for k2 in right_keys})


# ---------------------------------------------------------------------------
# upstream refs: structural references of one parent into one child
# ---------------------------------------------------------------------------


def _parent_refs(
    parent: Operator, child: Operator, parent_refs: frozenset[str]
) -> set[str]:
    """Columns of ``child`` that ``parent`` structurally references.

    ``parent_refs`` is the parent's own (already computed) upstream refs —
    pass-through operators forward them.  This is the per-edge contribution
    behind :meth:`~repro.core.rewrite.context.RuleContext.upstream_refs`:
    the rule context's lazy recursion and the eager memoized pass above
    both sum exactly these sets.
    """
    child_columns = set(child.columns)
    refs: set[str] = set()
    if isinstance(parent, Project):
        refs |= {old for _new, old in parent.items} & child_columns
        return refs
    if isinstance(parent, Select):
        refs |= set(parent.predicate.columns()) & child_columns
    elif isinstance(parent, Join):
        refs |= set(parent.predicate.columns()) & child_columns
    elif isinstance(parent, RowRank):
        refs |= (set(parent.order_by) | set(parent.partition_by)) & child_columns
    elif isinstance(parent, GroupAggregate):
        structural = {parent.group_column, parent.unit_column}
        if parent.value_column is not None:
            structural.add(parent.value_column)
        refs |= structural & child_columns
    # Pass-through parents forward their own upstream references.
    if isinstance(
        parent,
        (Select, Join, Cross, Distinct, Attach, RowId, RowRank, GroupAggregate, Serialize),
    ):
        refs |= parent_refs & child_columns
    return refs


# ---------------------------------------------------------------------------
# icols (Table II) and set (Table V): contribution of a parent to one child
# ---------------------------------------------------------------------------


def _child_icols(
    node: Operator, position: int, child: Operator, icols: frozenset[str]
) -> frozenset[str]:
    if isinstance(node, Serialize):
        return SERIALIZE_ICOLS & frozenset(child.columns) or frozenset(child.columns)
    if isinstance(node, Project):
        needed = icols & frozenset(node.columns)
        return frozenset(old for new, old in node.items if new in needed)
    if isinstance(node, Select):
        return (icols | node.predicate.columns()) & frozenset(child.columns)
    if isinstance(node, Join):
        return (icols | node.predicate.columns()) & frozenset(child.columns)
    if isinstance(node, Cross):
        return icols & frozenset(child.columns)
    if isinstance(node, Distinct):
        return icols & frozenset(child.columns)
    if isinstance(node, Attach):
        return (icols - {node.column}) & frozenset(child.columns)
    if isinstance(node, RowId):
        return (icols - {node.column}) & frozenset(child.columns)
    if isinstance(node, RowRank):
        return (
            (icols - {node.column})
            | frozenset(node.order_by)
            | frozenset(node.partition_by)
        ) & frozenset(child.columns)
    if isinstance(node, GroupAggregate):
        if position == 0:  # the aggregated input
            needed = {node.group_column, node.unit_column}
            if node.value_column is not None:
                needed.add(node.value_column)
            return frozenset(needed)
        # The loop: everything upstream needs except the aggregate value,
        # plus the group column the aggregation itself keys on.
        return ((icols - {node.item_column}) | {node.group_column}) & frozenset(child.columns)
    return icols & frozenset(child.columns)


def _child_set(node: Operator, position: int, node_set: bool) -> bool:
    if isinstance(node, Distinct):
        return True
    if isinstance(node, Serialize):
        return False
    if isinstance(node, GroupAggregate):
        # The aggregation itself deduplicates its *argument* on
        # (group, unit, value) — every column it keeps — so a δ below the
        # child is redundant and removable.  The loop input's multiplicity
        # is observed verbatim (one output row per loop row).
        return position == 0
    return node_set
