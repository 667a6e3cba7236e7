"""Driver equivalence, pinned XMark histograms, ablations, and provenance.

The worklist driver must be an *optimisation only*: on every runnable
XMark query, and on a seeded slice of generated queries, it has to apply
the identical rule sequence, record the identical rejections, and produce
the identical plan as the legacy restart-from-root driver.  The histograms below are additionally **pinned**
— a change to any count is a behaviour change of the rewrite system and
must be deliberate, not incidental.

Also covered here: cleanup-phase rules never reject (their premises are
purely local, so the global operator invariants cannot trip), the
non-convergence ``RewriteError`` message is diagnosable (histogram + last
applications), each ``enable_*`` ablation knob produces its documented
degraded plan shape, and ``CompilationResult.rewrite_trace`` surfaces the
full provenance.
"""

import itertools
import re

import pytest

from repro.errors import RewriteError
from repro.algebra.dag import count_operators, node_count
from repro.algebra.operators import Distinct, DocTable, Join, Project, RowRank, Select, Serialize
from repro.algebra.predicates import ColumnRef, Comparison, Literal, Predicate
from repro.algebra.render import render_plan
from repro.bench.xmark import XMARK_SUITE
from repro.core.rewrite import CLEANUP_GROUP, RANK_GROUP, Rule, RuleContext, run_phases
from repro.core.rewrite.rule import MATCHED, pattern
from repro.core.rewriter import JoinGraphIsolation, isolate
from repro.errors import ReproError
from repro.testing.queries import QueryGenerator
from repro.xquery.compiler import CompilerSettings, compile_query

SETTINGS = CompilerSettings(default_document="auction.xml")

RUNNABLE = tuple(case for case in XMARK_SUITE if case.refusal is None)

CLEANUP_RULE_NAMES = frozenset(rule.name for rule in CLEANUP_GROUP)

#: ``rules_fired()`` for every runnable XMark query — identical for both
#: drivers, pinned so histogram drift is a deliberate act, not an accident.
PINNED_HISTOGRAMS = {
    "Q1": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 9,
        "project_const_source": 16,
        "project_fuse": 20,
        "prune_attach(3)": 21,
        "prune_project(4)": 19,
        "prune_rank(2)": 8,
        "prune_rowid(1)": 1,
        "rank_prune_const(13)": 1,
        "rank_to_project(12)": 1,
        "remove_distinct(6)": 3,
    },
    "Q2": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 7,
        "project_const_source": 9,
        "project_fuse": 17,
        "prune_attach(3)": 13,
        "prune_project(4)": 13,
        "prune_rank(2)": 6,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 2,
        "remove_distinct(6)": 2,
    },
    "Q3": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 14,
        "project_const_source": 9,
        "project_fuse": 31,
        "prune_attach(3)": 16,
        "prune_project(4)": 33,
        "prune_rank(2)": 10,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 2,
        "remove_distinct(6)": 5,
    },
    "Q4": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 12,
        "project_const_source": 10,
        "project_fuse": 30,
        "prune_attach(3)": 16,
        "prune_project(4)": 40,
        "prune_rank(2)": 9,
        "prune_rowid(1)": 2,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 2,
        "remove_distinct(6)": 5,
    },
    "Q5": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 8,
        "project_const_source": 11,
        "project_fuse": 19,
        "prune_attach(3)": 15,
        "prune_project(4)": 21,
        "prune_rank(2)": 8,
        "prune_rowid(1)": 1,
        "remove_distinct(6)": 4,
    },
    "Q6": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 4,
        "project_const_source": 7,
        "project_fuse": 12,
        "prune_attach(3)": 11,
        "prune_project(4)": 10,
        "prune_rank(2)": 4,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 2,
        "remove_distinct(6)": 1,
    },
    "Q8": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 15,
        "project_const_source": 10,
        "project_fuse": 35,
        "prune_attach(3)": 18,
        "prune_project(4)": 36,
        "prune_rank(2)": 11,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 2,
        "remove_distinct(6)": 3,
    },
    "Q9": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 29,
        "project_const_source": 12,
        "project_fuse": 60,
        "prune_attach(3)": 23,
        "prune_project(4)": 83,
        "prune_rank(2)": 17,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 4,
        "remove_distinct(6)": 7,
    },
    "Q10": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 17,
        "project_const_source": 9,
        "project_fuse": 39,
        "prune_attach(3)": 16,
        "prune_project(4)": 45,
        "prune_rank(2)": 11,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 3,
        "remove_distinct(6)": 4,
    },
    "Q11": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 16,
        "project_const_source": 10,
        "project_fuse": 37,
        "prune_attach(3)": 17,
        "prune_project(4)": 42,
        "prune_rank(2)": 10,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 3,
        "remove_distinct(6)": 4,
    },
    "Q12": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 19,
        "project_const_source": 11,
        "project_fuse": 42,
        "prune_attach(3)": 20,
        "prune_project(4)": 43,
        "prune_rank(2)": 12,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 3,
        "remove_distinct(6)": 6,
    },
    "Q13": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 5,
        "project_const_source": 12,
        "project_fuse": 11,
        "prune_attach(3)": 14,
        "prune_project(4)": 6,
        "prune_rank(2)": 5,
        "rank_prune_const(13)": 1,
        "rank_to_project(12)": 1,
    },
    "Q15": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 7,
        "project_const_source": 16,
        "project_fuse": 15,
        "prune_attach(3)": 18,
        "prune_project(4)": 8,
        "prune_rank(2)": 7,
        "rank_prune_const(13)": 1,
        "rank_to_project(12)": 1,
    },
    "Q16": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 10,
        "project_const_source": 9,
        "project_fuse": 25,
        "prune_attach(3)": 12,
        "prune_project(4)": 28,
        "prune_rank(2)": 9,
        "prune_rowid(1)": 1,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 2,
        "remove_distinct(6)": 3,
    },
    "Q17": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 7,
        "project_const_source": 9,
        "project_fuse": 19,
        "prune_attach(3)": 15,
        "prune_project(4)": 18,
        "prune_rank(2)": 6,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 2,
        "remove_distinct(6)": 3,
    },
    "Q19": {
        "cross_to_attach(5)": 1,
        "introduce_distinct(8)": 1,
        "key_join_collapse(9*)": 8,
        "project_const_source": 9,
        "project_fuse": 18,
        "prune_attach(3)": 12,
        "prune_project(4)": 13,
        "prune_rank(2)": 7,
        "rank_prune_const(13)": 2,
        "rank_to_project(12)": 2,
        "remove_distinct(6)": 2,
    },
    "Q20": {
        "cross_to_attach(5)": 1,
        "key_join_collapse(9*)": 8,
        "project_const_source": 12,
        "project_fuse": 18,
        "prune_attach(3)": 16,
        "prune_project(4)": 18,
        "prune_rank(2)": 7,
        "prune_rowid(1)": 1,
        "remove_distinct(6)": 3,
    },
}


def _normalize(text: str) -> str:
    """Erase the process-wide fresh-column numbering for comparison."""
    return re.sub(r"_w\d+", "_wN", text)


def _isolate_with(driver: str, plan):
    RuleContext._fresh_columns = itertools.count(1)
    isolated, report = JoinGraphIsolation(driver=driver).isolate(plan)
    applications = [
        (step.rule, _normalize(step.target), _normalize(step.replacement))
        for step in report.applications
    ]
    rejections = [
        (rejection.rule, _normalize(rejection.target), rejection.error)
        for rejection in report.rejections
    ]
    return isolated, report, applications, rejections


# -- driver differential + pinned histograms ----------------------------------------


@pytest.mark.parametrize("case", RUNNABLE, ids=lambda case: case.name)
def test_drivers_agree_and_histograms_are_pinned(case):
    plan = compile_query(case.xquery, SETTINGS)
    legacy_plan, legacy_report, legacy_apps, legacy_rejs = _isolate_with("legacy", plan)
    work_plan, work_report, work_apps, work_rejs = _isolate_with("worklist", plan)

    # The worklist driver is an optimisation only: identical applications,
    # identical rejections, identical isolated plan.
    assert legacy_apps == work_apps
    assert legacy_rejs == work_rejs
    assert _normalize(render_plan(legacy_plan)) == _normalize(render_plan(work_plan))
    assert legacy_report.converged and work_report.converged

    # Pinned counts: a drifted histogram is a behaviour change.
    assert work_report.rules_fired() == PINNED_HISTOGRAMS[case.name]

    # Cleanup rules only ever shrink what is already there — their
    # premises are local, so the global operator invariants cannot trip.
    for rejection in work_report.rejections:
        assert rejection.rule not in CLEANUP_RULE_NAMES, (
            f"cleanup rule {rejection.rule!r} rejected on {case.name}"
        )


#: A seeded slice of the property-sweep corpus: shapes the XMark suite does
#: not have (quantifiers, positionals, aggregates in ``where``, ...).
GENERATED = QueryGenerator(seed=20091).corpus(50)


@pytest.mark.parametrize("start", range(0, len(GENERATED), 10))
def test_drivers_agree_on_generated_queries(start):
    for query in GENERATED[start : start + 10]:
        plan = compile_query(query.source, CompilerSettings())
        legacy_plan, legacy_report, legacy_apps, legacy_rejs = _isolate_with(
            "legacy", plan
        )
        work_plan, work_report, work_apps, work_rejs = _isolate_with("worklist", plan)
        where = f"generated case {query.index} of seed {query.seed}: {query.source}"
        assert legacy_apps == work_apps, where
        assert legacy_rejs == work_rejs, where
        assert _normalize(render_plan(legacy_plan)) == _normalize(
            render_plan(work_plan)
        ), where
        assert legacy_report.converged and work_report.converged, where


def test_rejected_rewrites_match_across_drivers():
    """A locally matching rewrite whose gluing trips an operator check in
    the rebuilt cone is recorded as a rejection, leaves the plan as it
    was, and is reported identically by both drivers."""
    doc = DocTable()
    narrowed = Project(doc, [("a", "pre"), ("b", "size")])
    select = Select(narrowed, Predicate.of(Comparison(ColumnRef("a"), ">", Literal(1))))
    plan = Serialize(Project(select, [("pos", "b"), ("item", "b")]))
    drop_first = Rule(
        name="drop_first_item",
        pattern=pattern(Project, DocTable),
        guard=lambda node, ctx: MATCHED if len(node.items) > 1 else None,
        build=lambda node, match, ctx: Project(node.child, node.items[1:]),
    )
    rejections = {}
    for driver in ("legacy", "worklist"):
        rewritten, engine = run_phases(plan, [("only", (drop_first,))], driver=driver)
        assert rewritten is plan and not engine.steps
        rejections[driver] = [(r.rule, r.target, r.error) for r in engine.rejections]
    assert rejections["legacy"] == rejections["worklist"]
    ((rule, _target, error),) = rejections["worklist"]
    assert rule == "drop_first_item" and error.startswith("σ: unknown column(s) ['a']")


def test_unknown_driver_is_a_typed_error():
    plan = compile_query(RUNNABLE[0].xquery, SETTINGS)
    with pytest.raises(RewriteError, match="unknown rewrite driver 'fastest'") as excinfo:
        JoinGraphIsolation(driver="fastest").isolate(plan)
    assert isinstance(excinfo.value, ReproError)
    assert "legacy" in str(excinfo.value) and "worklist" in str(excinfo.value)


# -- non-convergence diagnostics ----------------------------------------------------


def test_divergence_error_includes_histogram_and_tail():
    plan = compile_query(RUNNABLE[0].xquery, SETTINGS)
    with pytest.raises(RewriteError) as excinfo:
        isolate(plan, JoinGraphIsolation(max_steps=3))
    message = str(excinfo.value)
    assert "did not converge within 3 steps" in message
    assert "rules fired:" in message
    assert "last" in message and "applications:" in message
    # The histogram names actual rules, not an empty placeholder.
    assert re.search(r"\w+.*×\d+", message)


# -- ablation knobs -----------------------------------------------------------------


@pytest.fixture(scope="module")
def q1_plan():
    return compile_query('doc("auction.xml")/descendant::open_auction[bidder]', SETTINGS)


@pytest.fixture(scope="module")
def q1_full(q1_plan):
    return JoinGraphIsolation().isolate(q1_plan)


def test_ablation_no_cleanup_fires_no_cleanup_rules(q1_plan, q1_full):
    full_plan, _ = q1_full
    partial, report = JoinGraphIsolation(enable_cleanup=False).isolate(q1_plan)
    assert report.converged
    assert not set(report.rules_fired()) & CLEANUP_RULE_NAMES
    # Without house cleaning the dead operators stay in the plan.
    assert node_count(partial) > node_count(full_plan)


def test_ablation_no_rank_goal_leaves_ranks_in_place(q1_plan, q1_full):
    full_plan, _ = q1_full
    partial, report = JoinGraphIsolation(enable_rank_goal=False).isolate(q1_plan)
    assert report.converged
    rank_rules = {rule.name for rule in RANK_GROUP}
    assert not set(report.rules_fired()) & rank_rules
    assert count_operators(partial, RowRank) >= count_operators(full_plan, RowRank)


def test_ablation_no_distinct_goal_fires_no_distinct_rules(q1_plan):
    partial, report = JoinGraphIsolation(enable_distinct_goal=False).isolate(q1_plan)
    assert report.converged
    assert not any("distinct" in rule for rule in report.rules_fired())


def test_ablation_no_join_goals_keeps_the_join_bundle(q1_plan, q1_full):
    full_plan, _ = q1_full
    partial, report = JoinGraphIsolation(
        enable_join_goal=False, enable_distinct_goal=False
    ).isolate(q1_plan)
    assert report.converged
    assert count_operators(partial, Join) > count_operators(full_plan, Join)
    assert "key_join_collapse(9*)" not in report.rules_fired()


def test_ablation_all_goals_off_still_converges(q1_plan):
    config = JoinGraphIsolation(
        enable_cleanup=False,
        enable_rank_goal=False,
        enable_distinct_goal=False,
        enable_join_goal=False,
    )
    partial, report = config.isolate(q1_plan)
    assert report.converged
    assert report.applications == []
    assert node_count(partial) == node_count(q1_plan)


def test_ablation_no_distinct_goal_may_leave_extra_distincts(q1_plan, q1_full):
    full_plan, _ = q1_full
    partial, _report = JoinGraphIsolation(
        enable_distinct_goal=False, enable_join_goal=False
    ).isolate(q1_plan)
    assert count_operators(partial, Distinct) >= count_operators(full_plan, Distinct)


# -- provenance surface -------------------------------------------------------------


def test_compilation_result_exposes_rewrite_trace(small_processor):
    result = small_processor.compile(
        'doc("auction.xml")/descendant::open_auction[bidder]'
    )
    trace = result.rewrite_trace
    assert trace.steps == tuple(result.isolation_report.applications)
    assert trace.rejections == tuple(result.isolation_report.rejections)
    assert trace.rules_fired() == result.isolation_report.rules_fired()
    assert trace.converged
    rendered = trace.render()
    assert rendered.startswith("isolation:")
    assert "worklist driver" in rendered
    # Every applied step appears in the rendering, in order.
    for step in trace.steps:
        assert step.rule in rendered


def test_trace_records_node_identities(small_processor):
    trace = small_processor.compile(
        'doc("auction.xml")//open_auction/child::bidder'
    ).rewrite_trace
    assert trace.steps
    for position, step in enumerate(trace.steps):
        assert step.index == position
        assert step.target_id != 0
        assert step.replacement_id != 0
    # A later step may rewrite an earlier step's replacement; identities
    # make that correlation observable.
    replacement_ids = {step.replacement_id for step in trace.steps}
    assert any(step.target_id in replacement_ids for step in trace.steps[1:])
