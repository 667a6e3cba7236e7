"""The isolation drivers: pattern-indexed worklist vs. restart-from-root.

Both drivers execute the same declarative rule groups with identical
observable behaviour — the same applications in the same order, the same
rejected applications, the same step accounting (pinned by the XMark
histogram tests).  They differ only in how much work one rewrite step
costs:

:class:`LegacyDriver`
    The faithful re-implementation of the pre-declarative engine: after
    every application it re-infers all plan properties from scratch and
    re-scans the plan from the root, trying every rule of the phase at
    every node.  One step is O(nodes × rules) guard evaluations; kept as
    the benchmark baseline (``benchmarks/bench_rewrite.py``).

:class:`WorklistDriver`
    The production driver.  Rule dispatch is pattern-indexed (only rules
    whose declared root class covers a node's class are consulted), and a
    *failure memo* turns the restart-scan into a worklist of dirty nodes:
    a node whose whole rule bucket failed is skipped on later steps while
    every premise input the bucket's guards can observe is provably
    unchanged (all rules tried at a node in one visit share one property
    snapshot, so the per-node entry loses nothing).  Everything the scan
    and the guards read — parents, post-order, σ/⋈ nodes, ``const`` /
    ``keys`` / ``icols`` / ``set`` / upstream refs — lives in one
    :class:`~repro.core.properties.PlanIndex` that lasts the whole run and
    folds in each pushout's delta, so a step costs the region it changed
    (plus one DFS for the scan order), not the whole plan.

Why skipping is sound — every input a guard can observe is covered by one
of four channels, and each channel conservatively clears the memo:

* **subtree** (the matched node's structure, its children's ``const`` /
  ``keys``, column provenance): operators are immutable, so the memo key —
  the node *object* — changing is the only way these change.  Entries pin
  their node, so a hit implies the identical subtree.
* **local top-down state** (``icols``, ``set``, ``needed_columns`` of the
  matched node): the entry stores the property value *objects* observed at
  failure time and is re-checked by identity on revisit — sound because
  the index keeps the previous value object whenever a recomputed value
  is equal to it.
* **sharing** (parents of the node or of its descendants, consulted by
  projection fusion and the key-join collapse's spine widening): each
  step's delta names the surviving nodes whose parent multiset changed,
  and the driver clears the memo for them *and all their ancestors* — an
  ancestor's guard may have looked at this node's parents.  A parent
  replaced by its *mechanical rebuild* (the pushout's
  :attr:`~repro.algebra.dag.Pushout.rebuilt` map: same operator, same
  fields, ``with_children`` over new inputs) does not count as a change:
  every field a guard can observe on that parent is intact.
* **global predicate comparisons** (``rank_compared_upstream``): the set
  of compared column origins is fingerprinted into an *epoch*, bumped
  whenever a σ/⋈ enters or leaves the plan (a rebuilt one included);
  entries of the two epoch-sensitive rules ((12) and (14)) are only
  trusted within the epoch they were recorded in.

Failure-memo entries never carry over to a rebuild (a guard may have
observed the rebuilt node's changed children, so a rebuilt node is always
re-tried), and the entries of nodes that leave the plan are dropped with
them.

Rejected applications — rules whose replacement failed the *global*
premise while being glued in (an ``AlgebraError`` from the pushout) — are
never memoized: the legacy driver re-encounters them on every scan, and
the global premise lives outside the guard's observable surface, so the
worklist retries them exactly as often.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.errors import AlgebraError, RewriteError
from repro.algebra.dag import iter_nodes, pushout
from repro.algebra.operators import Operator, Serialize
from repro.core.properties import PlanDelta, PlanIndex, infer_properties
from repro.core.rewrite.context import RuleContext
from repro.core.rewrite.rule import PatternIndex, Rule
from repro.core.rewrite.trace import RejectedApplication, RewriteStep

#: One phase of the goal sequence: a display name plus its rule group.
Phase = tuple[str, tuple[Rule, ...]]

#: Rules whose guard consults the global ``rank_compared_upstream`` premise;
#: their memo entries are scoped to the compared-origins epoch.
_EPOCH_SENSITIVE = frozenset({"rank_to_project(12)", "rank_pull_up(14)"})


class _DriverBase:
    """Shared bookkeeping: step accounting and the provenance trace."""

    name = "base"

    def __init__(self, max_steps: int):
        self.max_steps = max_steps
        self.steps: list[RewriteStep] = []
        self.rejections: list[RejectedApplication] = []
        self.converged = True

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def _record(
        self,
        rule: Rule,
        node: Operator,
        replacement_label: str,
        replacement_id: int,
        phase: str,
    ) -> None:
        self.steps.append(
            RewriteStep(
                rule=rule.name,
                target=node.label(),
                replacement=replacement_label,
                index=self.step_count,
                phase=phase,
                target_id=id(node),
                replacement_id=replacement_id,
            )
        )

    def _reject(self, rule: Rule, node: Operator, error: Exception, phase: str) -> None:
        self.rejections.append(
            RejectedApplication(
                rule=rule.name,
                target=node.label(),
                error=str(error),
                step=self.step_count,
                phase=phase,
                target_id=id(node),
            )
        )

    def run(self, plan: Operator, phases: list[Phase]) -> Operator:
        raise NotImplementedError


class LegacyDriver(_DriverBase):
    """Restart-from-root: full re-inference and a full scan after every step."""

    name = "legacy"

    def run(self, plan: Operator, phases: list[Phase]) -> Operator:
        for phase_name, rules in phases:
            if not rules:
                continue
            while True:
                if self.step_count >= self.max_steps:
                    self.converged = False
                    return plan
                rewritten = self._apply_first(plan, rules, phase_name)
                if rewritten is None:
                    break
                plan = rewritten
        return plan

    def _apply_first(
        self, plan: Operator, rules: tuple[Rule, ...], phase: str
    ) -> Optional[Operator]:
        ctx = RuleContext(plan, infer_properties(plan))
        for node in iter_nodes(plan):
            if isinstance(node, Serialize):
                continue
            for rule in rules:
                result = rule.apply(node, ctx)
                if result is None:
                    continue
                replacements = result if isinstance(result, dict) else {id(node): result}
                replacement_label = replacements[id(node)].label()
                try:
                    glued = pushout(plan, replacements)
                except AlgebraError as error:
                    # The rewrite is locally sound but globally inapplicable:
                    # rebuilding the DAG tripped an operator invariant (e.g.
                    # a widened shared spine makes a far-away join's inputs
                    # overlap).  The constructor checks are the exact global
                    # premise — record the refusal and keep scanning; the
                    # plan is unchanged.
                    self._reject(rule, node, error, phase)
                    continue
                new_at_target = glued.glued.get(id(node))
                self._record(
                    rule,
                    node,
                    replacement_label,
                    id(new_at_target) if new_at_target is not None else 0,
                    phase,
                )
                return glued.root
        return None


class WorklistDriver(_DriverBase):
    """Pattern-indexed dispatch over a delta-maintained plan index."""

    name = "worklist"

    def __init__(self, max_steps: int):
        super().__init__(max_steps)
        #: ``id(node) -> (node, icols, set, refs, epoch)`` recording that
        #: *every* rule of the node's dispatch bucket failed to match while
        #: the node held exactly these property values; the values are
        #: compared by *object identity* on revisit (see the module
        #: docstring).  One entry per node suffices because all rules tried
        #: at a node within one step observe the same property snapshot.
        #: Entries are phase-scoped (cleared at every phase transition,
        #: since the bucket they quantify over changes with the phase),
        #: dropped when their node leaves the plan, and never written on a
        #: visit that saw a global-premise rejection (the rejected rule
        #: must be retried on every later scan).
        self._fail: dict[int, tuple[Operator, frozenset, bool, frozenset, int]] = {}
        #: Cross-step provenance memo (see :mod:`repro.core.rewrite.context`).
        self._provenance: dict = {}
        self._epoch = 0

    def run(self, plan: Operator, phases: list[Phase]) -> Operator:
        index = PlanIndex(plan)
        for phase_name, rules in phases:
            if not rules:
                continue
            patterns = PatternIndex(rules, sensitive=_EPOCH_SENSITIVE)
            # Failure entries quantify over the *current phase's* buckets.
            self._fail.clear()
            while True:
                if self.step_count >= self.max_steps:
                    self.converged = False
                    return index.root
                if not self._step(index, patterns, phase_name):
                    break
        return index.root

    # -- one step -----------------------------------------------------------------

    def _step(self, index: PlanIndex, patterns: PatternIndex, phase: str) -> bool:
        """Apply the first match in scan order; False when nothing matches."""
        plan = index.root
        ctx = RuleContext(plan, index, provenance_memo=self._provenance)
        epoch = self._epoch
        fail = self._fail
        slots = index.slots
        for_node = patterns.for_node
        epoch_blind = patterns.epoch_blind
        for node in index.order:
            if isinstance(node, Serialize):
                continue
            bucket = for_node(node)
            if not bucket:
                continue
            node_id = id(node)
            slot = slots[node_id]
            icols = slot.icols
            is_set = slot.is_set
            refs = slot.refs
            entry = fail.get(node_id)
            if (
                entry is not None
                and entry[0] is node
                and entry[1] is icols
                and entry[2] == is_set
                and entry[3] is refs
                and (entry[4] == epoch or epoch_blind(node))
            ):
                continue  # premises provably unchanged: every rule still fails
            rejected = False
            for rule in bucket:
                result = rule.apply(node, ctx)
                if result is None:
                    continue
                replacements = result if isinstance(result, dict) else {node_id: result}
                replacement_label = replacements[node_id].label()
                try:
                    glued = pushout(
                        plan,
                        replacements,
                        cone=index.ancestors([node]) if len(replacements) == 1 else None,
                    )
                except AlgebraError as error:
                    # Global-premise rejection: never memoized (see module
                    # docstring) — the pair is retried on every later scan.
                    self._reject(rule, node, error, phase)
                    rejected = True
                    continue
                new_at_target = glued.glued.get(node_id)
                self._record(
                    rule,
                    node,
                    replacement_label,
                    id(new_at_target) if new_at_target is not None else 0,
                    phase,
                )
                self._absorb(index, index.apply(glued))
                return True
            if not rejected:
                fail[node_id] = (node, icols, is_set, refs, epoch)
        return False

    # -- memo maintenance ---------------------------------------------------------

    def _absorb(self, index: PlanIndex, delta: PlanDelta) -> None:
        """Update the failure and provenance memos from one step's delta."""
        fail = self._fail
        for node in delta.retired:
            fail.pop(id(node), None)
            self._provenance.pop(id(node), None)
        # Epoch: ``rank_compared_upstream`` is a function of the plan's σ/⋈
        # operators (each predicate column's origin is determined by the —
        # immutable — operator object it hangs off), so an unchanged σ/⋈
        # identity-set implies an unchanged compared-origins set.  A
        # mechanically rebuilt σ/⋈ is a new object and bumps the epoch: its
        # subtree changed, so its columns may resolve to new origins.
        if delta.predicates_changed:
            self._epoch += 1
        # Sharing: a node whose parents changed (other than by mechanical
        # rebuilds) is dirty, and so are all its ancestors — their guards
        # may consult this node's parents.
        if delta.reparented and fail:
            for ancestor in itertools.chain(
                delta.reparented, index.ancestors(delta.reparented)
            ):
                fail.pop(id(ancestor), None)


#: Driver name → class, the dispatch table behind ``JoinGraphIsolation.driver``.
DRIVERS: dict[str, type[_DriverBase]] = {
    LegacyDriver.name: LegacyDriver,
    WorklistDriver.name: WorklistDriver,
}


def run_phases(
    plan: Operator,
    phases: list[Phase],
    max_steps: int = 5000,
    driver: str = "worklist",
) -> tuple[Operator, _DriverBase]:
    """Run the goal sequence with the named driver; the driver carries the trace."""
    try:
        driver_class = DRIVERS[driver]
    except KeyError:
        raise RewriteError(
            f"unknown rewrite driver {driver!r} (expected one of {sorted(DRIVERS)})"
        ) from None
    engine = driver_class(max_steps)
    return engine.run(plan, phases), engine
