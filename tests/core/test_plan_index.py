"""The worklist driver's delta-maintained plan index against its oracles.

After every rewrite step of every runnable XMark isolation, the
:class:`~repro.core.properties.PlanIndex` must hold exactly what a
from-scratch computation over the current plan yields: the parent map
(as multisets), the ``iter_nodes`` post-order, the σ/⋈ set,
``infer_properties`` (``const`` / ``keys`` / ``icols`` / ``set``) and the
rule context's lazily computed ``upstream_refs``.  The step's reported
``reparented`` nodes — the failure memo's sharing channel — must be
exactly the survivors whose parent multiset changed other than by a
parent's mechanical rebuild, and the nodes it reports retired must have
left the index and the driver's memos.
"""

import pytest

from repro.algebra.dag import iter_nodes, parents_map
from repro.algebra.operators import Join, Select
from repro.bench.xmark import XMARK_SUITE
from repro.core.properties import PlanIndex, infer_properties
from repro.core.rewrite import RuleContext, WorklistDriver
from repro.core.rewrite import engine
from repro.core.rewriter import JoinGraphIsolation
from repro.xquery.compiler import CompilerSettings, compile_query

SETTINGS = CompilerSettings(default_document="auction.xml")

RUNNABLE = tuple(case for case in XMARK_SUITE if case.refusal is None)


def assert_matches_oracle(index: PlanIndex) -> None:
    plan = index.root
    order = list(iter_nodes(plan))
    assert [id(node) for node in index.order] == [id(node) for node in order]
    assert index.position == {id(node): i for i, node in enumerate(order)}
    parents = parents_map(plan)
    assert set(index.slots) == set(parents)
    for node_id, expected in parents.items():
        assert sorted(map(id, index.parents.get(node_id))) == sorted(map(id, expected))
    assert set(index.predicates) == {
        id(node) for node in order if isinstance(node, (Select, Join))
    }
    oracle = infer_properties(plan)
    context = RuleContext(plan, oracle)
    for node in order:
        label = f"{type(node).__name__} {node.label()}"
        assert index.slots[id(node)].node is node, label
        assert index.const(node) == oracle.const(node), label
        assert index.keys(node) == oracle.keys(node), label
        assert index.icols(node) == oracle.icols(node), label
        assert index.is_set(node) == oracle.is_set(node), label
        assert index.refs(node) == context.upstream_refs(node), label


def expected_reparented(before, after, rebuilt) -> set[int]:
    """Survivors whose parent multiset changed other than by rebuilds.

    ``before`` / ``after`` are the plans around one step and ``rebuilt``
    is its pushout's mechanical-rebuild map; an old parent that left the
    plan counts as its rebuild.
    """
    old_parents, new_parents = parents_map(before), parents_map(after)
    changed = set()
    for node_id, parents in new_parents.items():
        if node_id not in old_parents:
            continue  # new node
        mapped = [
            id(rebuilt[id(parent)])
            if id(parent) in rebuilt and id(parent) not in new_parents
            else id(parent)
            for parent in old_parents[node_id]
        ]
        if sorted(mapped) != sorted(map(id, parents)):
            changed.add(node_id)
    return changed


@pytest.mark.parametrize("case", RUNNABLE, ids=lambda case: case.name)
def test_index_matches_oracle_after_every_step(case, monkeypatch):
    glued = []
    original = engine.pushout

    def recording_pushout(*args, **kwargs):
        glued.append(original(*args, **kwargs))
        return glued[-1]

    monkeypatch.setattr(engine, "pushout", recording_pushout)

    class CheckedDriver(WorklistDriver):
        checked = 0
        previous = None

        def _absorb(self, index, delta):
            super()._absorb(index, delta)
            assert_matches_oracle(index)
            for node in delta.retired:  # left the index and the memos
                assert id(node) not in index.slots
                assert id(node) not in self._fail
                assert id(node) not in self._provenance
            assert {id(node) for node in delta.reparented} == expected_reparented(
                self.previous, index.root, glued[-1].rebuilt
            )
            self.previous = index.root
            self.checked += 1

    plan = compile_query(case.xquery, SETTINGS)
    assert_matches_oracle(PlanIndex(plan))
    driver = CheckedDriver(max_steps=5000)
    driver.previous = plan
    driver.run(plan, JoinGraphIsolation()._phases())
    assert driver.converged
    assert driver.checked == driver.step_count > 0

