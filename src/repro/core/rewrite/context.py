"""Premise-evaluation context shared by all rewrite rules for one step.

The :class:`RuleContext` is what a rule's *guard* sees: the plan root, the
inferred :class:`~repro.core.properties.PlanProperties`, the parent map,
column provenance, the conservative ``upstream_refs`` superset of
``icols``, and the global ``rank_compared_upstream`` premise.

Guards must evaluate their premises exclusively through this interface —
that closed surface is what lets the worklist driver prove that a failed
match cannot have become applicable while a node and its context
fingerprint are unchanged (see :mod:`repro.core.rewrite.engine`).

``provenance_memo`` is the cross-step memo hook: provenance paths depend
only on a node's subtree, and subtrees are identified by object identity
(operators are immutable), so the worklist driver threads one memo dict
through every step of an isolation run and drops a node's entry when the
node leaves the plan.  Each entry holds the node reference alongside its
cached paths, which both validates the entry and pins the object so its
``id`` cannot be recycled while the entry lives.

The property source is either a from-scratch
:class:`~repro.core.properties.PlanProperties` (the legacy driver; parents
and upstream refs are then derived here) or the worklist driver's
:class:`~repro.core.properties.PlanIndex`, which also supplies the parent
map, the upstream refs and the plan's σ/⋈ nodes without a plan traversal.
"""

from __future__ import annotations

import itertools
from typing import Optional, Union

from repro.algebra.dag import iter_nodes, parents_map
from repro.algebra.operators import (
    Attach,
    Cross,
    Distinct,
    GroupAggregate,
    Join,
    Operator,
    Project,
    RowId,
    RowRank,
    Select,
    Serialize,
)
from repro.core.properties import PlanIndex, PlanProperties, _parent_refs

#: One provenance path: ``[(node, column), ..., (origin, origin_column)]``.
ProvenancePath = list
#: Cross-step provenance memo: ``id(node) -> (node, {column: path})``.
ProvenanceMemo = dict


class RuleContext:
    """Premise-evaluation context shared by all rules for one rewrite step."""

    def __init__(
        self,
        root: Operator,
        properties: Union[PlanProperties, PlanIndex],
        provenance_memo: Optional[ProvenanceMemo] = None,
    ):
        self.root = root
        self.properties = properties
        self._index = properties if isinstance(properties, PlanIndex) else None
        self.parents = (
            self._index.parents if self._index is not None else parents_map(root)
        )
        self._upstream_refs_memo: dict[int, frozenset[str]] = {}
        self._compared_origins: Optional[set[tuple[int, str]]] = None
        self._provenance_memo: ProvenanceMemo = (
            provenance_memo if provenance_memo is not None else {}
        )

    # -- fresh names -------------------------------------------------------------

    #: Process-wide counter: rule contexts are rebuilt after every rewrite
    #: step, so a per-context counter would re-issue the same "fresh" names
    #: step after step — and two widenings of one shared spine would then
    #: collide on identical carry columns.
    _fresh_columns = itertools.count(1)

    def fresh_column(self, hint: str = "carry") -> str:
        return f"{hint}_w{next(self._fresh_columns)}"

    # -- column provenance ---------------------------------------------------------

    def provenance(self, node: Operator, column: str) -> list[tuple[Operator, str]]:
        """The provenance path of ``column``: ``[(node, name), ..., (origin, name)]``.

        The path follows projections through their renamings, passes through
        row-preserving unary operators and descends into the join/cross input
        that provides the column.  It ends at the operator that *introduced*
        the column (a leaf, ``@``, ``#`` or ``ϱ``).  Paths depend only on the
        subtree below ``node``, so they are memoized by object identity —
        across rewrite steps when the driver shares the memo.
        """
        entry = self._provenance_memo.get(id(node))
        if entry is None or entry[0] is not node:
            entry = self._provenance_memo[id(node)] = (node, {})
        cached = entry[1].get(column)
        if cached is not None:
            return cached
        path: list[tuple[Operator, str]] = []
        current, name = node, column
        while True:
            path.append((current, name))
            if isinstance(current, Project):
                name = current.renaming()[name]
                current = current.child
                continue
            if isinstance(current, (Select, Distinct, Serialize)):
                current = current.children[0]
                continue
            if isinstance(current, (Attach, RowId, RowRank)):
                if name == current.column:
                    break
                current = current.child
                continue
            if isinstance(current, GroupAggregate):
                if name == current.item_column:
                    break  # the aggregate value is introduced here
                current = current.loop  # loop columns pass through untouched
                continue
            if isinstance(current, (Join, Cross)):
                left, right = current.children
                current = left if name in left.columns else right
                continue
            break  # leaf (doc or literal table)
        entry[1][column] = path
        return path

    def origin(self, node: Operator, column: str) -> tuple[Operator, str]:
        """The introducing operator and column name of ``column`` of ``node``."""
        path = self.provenance(node, column)
        return path[-1]

    # -- structural references -------------------------------------------------------

    def upstream_refs(self, node: Operator) -> frozenset[str]:
        """Column names of ``node``'s output referenced structurally upstream.

        This is a conservative superset of ``icols`` used to keep rewrites
        that narrow an operator's output schema from breaking parents that
        still *mention* a column (e.g. a dead projection item) even though
        the column is not strictly required.
        """
        if self._index is not None:
            return self._index.refs(node)
        cached = self._upstream_refs_memo.get(id(node))
        if cached is not None:
            return cached
        refs: set[str] = set()
        for parent in self.parents.get(id(node), []):  # direct parents
            refs |= _parent_refs(parent, node, self.upstream_refs(parent))
        result = frozenset(refs)
        self._upstream_refs_memo[id(node)] = result
        return result

    def needed_columns(self, node: Operator) -> frozenset[str]:
        """``icols`` widened by structural upstream references."""
        return self.properties.icols(node) | self.upstream_refs(node)

    # -- global premises --------------------------------------------------------------

    def compared_origins(self) -> frozenset[tuple[int, str]]:
        """Origins ``(id(op), column)`` compared by any σ/⋈ predicate in the plan.

        Computed once per rewrite step (memoized on the context); the
        worklist driver additionally fingerprints the whole set as an epoch
        so ``rank_compared_upstream``-guarded rules are re-tried exactly
        when the set changes.
        """
        if self._compared_origins is None:
            compared: set[tuple[int, str]] = set()
            index = self._index
            for node in (
                iter_nodes(self.root) if index is None else index.predicates.values()
            ):
                if isinstance(node, Select):
                    bases = [node.child]
                elif isinstance(node, Join):
                    bases = list(node.children)
                else:
                    continue
                for column in node.predicate.columns():
                    base = next(b for b in bases if column in b.columns)
                    origin_node, origin_column = self.origin(base, column)
                    compared.add((id(origin_node), origin_column))
            self._compared_origins = compared
        return frozenset(self._compared_origins)

    def rank_compared_upstream(self, rank: "RowRank") -> bool:
        """Does any σ/⋈ predicate in the plan compare this rank's column?

        Positional predicates (``E[n]``) compile into a selection on the
        sequence-position rank; for such a plan the rank is *not* a pure
        ordering column, and rewrites that replace it by its ordering source
        (rule (12)) would silently change which rows the selection keeps.
        """
        return (id(rank), rank.column) in self.compared_origins()
