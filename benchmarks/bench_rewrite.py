"""Rewrite-driver benchmark: worklist vs legacy restart-from-root isolation.

The legacy driver re-infers every plan property and restarts a full-DAG
scan from the root after *every* rule application — O(steps × nodes ×
rules).  The worklist driver replaces that with pattern-indexed dispatch,
a plan index that folds in each pushout's delta (parents, post-order and
properties of only the changed region), and a failure memo over unchanged
nodes, so each step costs roughly the region the previous application
changed.

This benchmark times **isolation only** (compile-time work; no document is
needed) on the join-heavy XMark queries Q8-Q12 — the deepest join chains
of the suite, where the legacy driver's per-step restart hurts the most.
Before timing, both drivers are asserted to produce the identical plan,
the identical application sequence, and the identical ``rules_fired()``
histogram (modulo fresh-column numbering); the speedup gate is meaningless
if the fast driver does different work.

Isolation timings are noisy (single runs vary ~2x on shared machines), so
each driver is timed best-of-``--repeats`` per query and the ≥ 2x gate is
applied to the *aggregate* over all five queries; per-query speedups are
reported informationally.

Usage::

    python benchmarks/bench_rewrite.py [--repeats 3] [--output BENCH_rewrite.json]
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import re
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.algebra.render import render_plan
from repro.bench.xmark import XMARK_SUITE
from repro.core.rewrite.context import RuleContext
from repro.core.rewriter import JoinGraphIsolation
from repro.xquery.compiler import CompilerSettings, compile_query

#: The join-heavy slice: the deepest join chains of XMark (Q8-Q10 carry
#: the suite's ``join_heavy`` flag; Q11/Q12 add the value-join shapes).
QUERY_NAMES = ("Q8", "Q9", "Q10", "Q11", "Q12")

SETTINGS = CompilerSettings(default_document="auction.xml")


def _normalize(text: str) -> str:
    """Erase the process-wide fresh-column numbering for comparison."""
    return re.sub(r"_w\d+", "_wN", text)


def _isolate(driver: str, plan):
    # The fresh-column counter is process-wide; reset it so both drivers
    # issue identical carry-column names and renderings compare equal.
    RuleContext._fresh_columns = itertools.count(1)
    return JoinGraphIsolation(driver=driver).isolate(plan)


def _assert_identical(name: str, plan) -> dict:
    legacy_plan, legacy_report = _isolate("legacy", plan)
    work_plan, work_report = _isolate("worklist", plan)
    legacy_apps = [
        (s.rule, _normalize(s.target), _normalize(s.replacement))
        for s in legacy_report.applications
    ]
    work_apps = [
        (s.rule, _normalize(s.target), _normalize(s.replacement))
        for s in work_report.applications
    ]
    identical = (
        legacy_apps == work_apps
        and _normalize(render_plan(legacy_plan)) == _normalize(render_plan(work_plan))
        and legacy_report.rules_fired() == work_report.rules_fired()
        and legacy_report.converged
        and work_report.converged
    )
    if not identical:
        raise AssertionError(f"{name}: drivers disagree; refusing to time")
    return {
        "steps": len(work_report.applications),
        "rejections": len(work_report.rejections),
        "rules_fired": work_report.rules_fired(),
    }


def _best_of(repeats: int, run) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def bench_query(case, repeats: int) -> dict:
    plan = compile_query(case.xquery, SETTINGS)
    provenance = _assert_identical(case.name, plan)
    legacy = _best_of(repeats, lambda: _isolate("legacy", plan))
    worklist = _best_of(repeats, lambda: _isolate("worklist", plan))
    return {
        "name": case.name,
        "identical_results": True,
        "steps": provenance["steps"],
        "rejections": provenance["rejections"],
        "legacy_seconds": legacy,
        "worklist_seconds": worklist,
        "speedup": legacy / worklist if worklist > 0 else float("inf"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3, help="best-of repetitions")
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent / "BENCH_rewrite.json",
    )
    args = parser.parse_args(argv)

    cases = {case.name: case for case in XMARK_SUITE}
    queries = [bench_query(cases[name], args.repeats) for name in QUERY_NAMES]

    legacy_total = sum(q["legacy_seconds"] for q in queries)
    worklist_total = sum(q["worklist_seconds"] for q in queries)
    aggregate = legacy_total / worklist_total if worklist_total > 0 else float("inf")
    report = {
        "benchmark": "rewrite_driver",
        "queries_timed": list(QUERY_NAMES),
        "repeats": args.repeats,
        "min_speedup": 2.0,
        "queries": queries,
        "legacy_total_seconds": legacy_total,
        "worklist_total_seconds": worklist_total,
        "aggregate_speedup": aggregate,
        "pass": aggregate >= 2.0 and all(q["identical_results"] for q in queries),
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    for query in queries:
        print(
            f"  {query['name']}: legacy {query['legacy_seconds']:.4f}s"
            f" worklist {query['worklist_seconds']:.4f}s"
            f" -> {query['speedup']:.2f}x ({query['steps']} steps)"
        )
    print(
        f"  aggregate: legacy {legacy_total:.4f}s worklist {worklist_total:.4f}s"
        f" -> {aggregate:.2f}x (gate >= 2x)"
    )
    print(f"wrote {args.output} (pass={report['pass']})")
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
