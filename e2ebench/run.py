"""End-to-end benchmark of the XQuery-on-RDBMS stack, with a traced breakdown.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload cold --seed 1 --seconds 30 --trace 0

Workloads (``workloads.py``): ``cold`` and ``warm``, both over one XMark
document at scale 0.5, with requests drawn from ``--seed``.

An untraced run is made of ``PARTS`` parts, run one after another, each in
a fresh process with its own hash seed (see ``hash_seed``).  A part sets up
once, computes reference answers on the ``stacked`` oracle and
cross-checks them against pureXML, then runs the workload's closed loop
for its share of ``--seconds``.  Every answer is checked; a wrong answer
counts as a failed operation.  End-to-end times are scaled to reference
machine speed (``calibrate.py``).  A traced run is one part.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the per-layer ones, from spans
the benchmark records around each public stage call.  The full result,
with the environment stamp, the raw samples, the per-query report and
(traced) the spans, is written to
``e2ebench/out/<workload>-seed<seed>-trace<0|1>.json``; ``compare.py``
compares two such files.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pathlib
import platform
import resource
import sqlite3
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
if not (SOURCE / "repro").is_dir():
    sys.exit(f"no program to benchmark: {SOURCE / 'repro'} is missing")
sys.path.insert(0, str(SOURCE))

import calibrate  # noqa: E402
from spans import UNATTRIBUTED, Tracer  # noqa: E402
from workloads import SCALE, WORKLOADS, cross_check, reference_answers  # noqa: E402

OUT = HERE / "out"

#: Parts of an untraced run; ``setup_s`` is the median of their set-ups.
PARTS = 3
#: Untraced reads a run makes at least, so that ``latency_p95_ms`` has ten
#: samples beyond it.
MIN_READS = 200
#: Calibration samples taken before and after a set-up.
SETUP_CALIBRATION = 20
#: Calibration samples on each side of an operation that scale its latency.
WINDOW = 4

#: Per-layer metrics: span names report self milliseconds per traced
#: operation, counters report their total per traced operation.
LAYER_TIMES = (
    "xquery.parse",
    "xquery.normalize",
    "xquery.compile",
    "rewrite.isolate",
    "joingraph.extract",
    "pipeline.lookup",
    "pipeline.bind",
    "pipeline.decode",
    "relational.plan",
    "relational.execute",
    "algebra.execute",
    "sqlbackend.sync",
    "sqlbackend.execute",
    "sqlbackend.decode",
    "xmldb.register",
    "session.rebuild",
)
#: Counts that must repeat exactly between two traced runs of one seed.
REPEATABLE_COUNTS = (
    "rewrite.steps",
    "rewrite.rejections",
    "rewrite.ops_in",
    "rewrite.ops_out",
    "relational.rows_scanned",
    "relational.index_probes",
    "algebra.rows_materialised",
    "sqlbackend.rows",
)


def hash_seed(seed: int, part: int) -> int:
    """``PYTHONHASHSEED`` of one part.

    The relational engine's physical plans (Q9, Q10, Q12) depend on string
    hash order, which Python randomizes per process.  Drawing the hash
    seed from ``--seed`` makes a run repeatable, counts included, while
    different seeds and parts still see different plans, so each untraced
    run averages over ``PARTS`` of them.
    """
    return (seed * PARTS + part) % 2**32


def environment(seed: int) -> dict:
    """The stamp two results must share to be compared."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "repro_no_numpy": bool(os.environ.get("REPRO_NO_NUMPY")),
        "sqlite": sqlite3.sqlite_version,
        "cores": len(os.sched_getaffinity(0)),
        "scale": SCALE,
        "seed": seed,
    }


def p50_ms(samples: list) -> float:
    return statistics.median(samples) * 1000.0


def p95_ms(samples: list) -> float:
    return statistics.quantiles(samples, n=20, method="inclusive")[18] * 1000.0


def end_to_end(parts: list[dict]) -> dict:
    """Pool the parts' samples, each time scaled to reference speed.

    An operation's slowdown comes from the ``2 * WINDOW + 1`` calibration
    samples around it, as the machine's speed changes within seconds.  A
    part's loop time is scaled as its operations' times were, in total.
    """
    latencies = []
    operations = 0
    elapsed = 0.0
    for part in parts:
        samples = part["calibration"]
        unscaled = scaled = 0.0
        for index, (case, seconds) in enumerate(part["operations"]):
            nearby = samples[max(0, index - WINDOW): index + WINDOW + 1]
            at_reference = seconds / calibrate.slowdown(nearby)
            unscaled += seconds
            scaled += at_reference
            if case != "write":
                latencies.append(at_reference)
        operations += len(part["operations"])
        elapsed += part["elapsed"] * scaled / unscaled
    return {
        "latency_p50_ms": (p50_ms(latencies), "ms"),
        "latency_p95_ms": (p95_ms(latencies), "ms"),
        "throughput_qps": (operations / elapsed, "1/s"),
        "setup_s": (statistics.median(part["setup_s"] / part["setup_slowdown"] for part in parts), "s"),
        "peak_rss_mb": (max(part["peak_rss_mb"] for part in parts), "MB"),
    }


def per_layer(measurement, tracer: Tracer) -> dict:
    seconds, counts = tracer.layer_totals()
    operations = len(tracer.requests)
    metrics = {
        f"{name}_ms": (seconds.get(name, 0.0) * 1000.0 / operations, "ms")
        for name in LAYER_TIMES
    }
    for name in REPEATABLE_COUNTS:
        metrics[name] = (counts.get(name, 0) / operations, "count")
    lookups = measurement.cache_hits + measurement.cache_misses
    metrics["pipeline.plan_cache_hit_ratio"] = (
        measurement.cache_hits / lookups if lookups else 0.0, "ratio"
    )
    metrics["service.overhead_ms"] = (seconds.get("service", 0.0) * 1000.0 / operations, "ms")
    metrics["service.retries"] = (measurement.retries, "count")
    metrics["service.fallbacks"] = (measurement.fallbacks, "count")
    writes = [trace.wall for trace in tracer.requests if trace.case == "write"]
    metrics["write_p50_ms"] = (p50_ms(writes) if writes else 0.0, "ms")
    metrics["trace.unattributed_ms"] = (
        seconds.get(UNATTRIBUTED, 0.0) * 1000.0 / operations, "ms"
    )
    metrics["trace.overhead_ms"] = (
        p50_ms(measurement.traced_latencies) - p50_ms(measurement.latencies), "ms"
    )
    return metrics


def per_query(workload, measurement, tracer: Tracer) -> list[dict]:
    """One row per request case: p50 untraced and traced, and the dominant layer."""
    untraced: dict[str, list] = {}
    for case, seconds in measurement.per_case:
        untraced.setdefault(case, []).append(seconds)
    traced: dict[str, list] = {}
    layers: dict[str, dict] = {}
    for trace in tracer.requests:
        traced.setdefault(trace.case, []).append(trace.wall)
        totals = layers.setdefault(trace.case, {})
        for name, value in trace.self_times().items():
            totals[name] = totals.get(name, 0.0) + value
    order = {request.case: index for index, request in enumerate(workload.requests)}
    return [
        {
            "case": case,
            "workload": workload.name,
            "p50_ms": p50_ms(untraced[case]) if case in untraced else None,
            "traced_p50_ms": p50_ms(samples),
            "dominant_layer": max(layers[case], key=layers[case].get),
        }
        for case, samples in sorted(traced.items(), key=lambda item: order.get(item[0], len(order)))
    ]


def run_part(args) -> dict:
    """One part, in this process: set up, check the references, time the loop."""
    workload = WORKLOADS[args.workload](args.seed)
    calibration = [calibrate.sample() for _ in range(SETUP_CALIBRATION)]
    gc.collect()
    started = time.perf_counter()
    state = workload.setup()
    setup_seconds = time.perf_counter() - started
    calibration += [calibrate.sample() for _ in range(SETUP_CALIBRATION)]

    references = workload.reference_requests()
    answers = reference_answers(state.session, references)
    problems = cross_check(state.document, references, answers)
    if hasattr(workload, "growth_answers"):
        growth = workload.growth_answers(state)
        problems += workload.growth_cross_check(state, growth)
        answers.update(growth)

    tracer = Tracer() if args.trace else None
    # Like a long-running service after loading, keep the set-up's objects
    # out of the collector's full passes.
    gc.collect()
    gc.freeze()
    try:
        measurement = workload.run(state, answers, args.seconds, tracer, args.min_reads)
    finally:
        workload.teardown(state)
    if tracer is not None and tracer.uncovered():
        problems.append(
            f"{len(tracer.uncovered())} traced requests' spans miss more than the tolerance"
        )

    part = {
        "hash_seed": int(os.environ["PYTHONHASHSEED"]),
        "setup_s": setup_seconds,
        "setup_slowdown": calibrate.slowdown(calibration),
        # [case, seconds] of every untraced operation, in order, unscaled,
        # and the calibration loop's thread CPU seconds after each.
        "operations": measurement.per_case,
        "calibration": measurement.calibration,
        "elapsed": measurement.elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "problems": problems,
        "errors": measurement.errors,
        "traced_requests": len(measurement.traced_latencies),
        "writes": len(measurement.writes),
    }
    if tracer is not None:
        part["metrics"] = per_layer(measurement, tracer)
        part["per_query"] = per_query(workload, measurement, tracer)
        part["spans"] = tracer.dump()
    return part


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one part and write it to this file.
    parser.add_argument("--part-file", help=argparse.SUPPRESS)
    parser.add_argument("--min-reads", type=int, default=MIN_READS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.part_file:
        pathlib.Path(args.part_file).write_text(json.dumps(run_part(args)))
        return 0

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    count = 1 if args.trace else PARTS
    parts = []
    for index in range(count):
        part_file = OUT / f"{name}.part{index}.json"
        subprocess.run(
            [
                sys.executable, str(pathlib.Path(__file__).resolve()),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", repr(args.seconds / count),
                "--trace", str(args.trace),
                "--min-reads", str(math.ceil(MIN_READS / count)),
                "--part-file", str(part_file),
            ],
            env={**os.environ, "PYTHONHASHSEED": str(hash_seed(args.seed, index))},
            check=True,
        )
        parts.append(json.loads(part_file.read_text()))
        part_file.unlink()

    problems = [problem for part in parts for problem in part["problems"]]
    errors = [error for part in parts for error in part["errors"]]
    failed = sum(part["failed"] for part in parts)
    if args.trace:
        metrics = parts[0]["metrics"]
        rows = parts[0]["per_query"]
    else:
        metrics = end_to_end(parts)
        rows = []
    result = {
        "correct": failed == 0 and not problems,
        "attempted": sum(part["attempted"] for part in parts),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }

    stamp = environment(args.seed)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": stamp,
        "result": result,
        "parts": [
            {
                key: part[key]
                for key in (
                    "hash_seed", "setup_s", "setup_slowdown", "elapsed",
                    "traced_requests", "writes", "peak_rss_mb", "operations", "calibration",
                )
            }
            for part in parts
        ],
        "problems": problems,
        "errors": errors,
        "per_query": rows,
        "spans": parts[0].get("spans", []),
    }
    (OUT / f"{name}.json").write_text(json.dumps(report, indent=1))

    print(f"environment: {json.dumps(stamp)}", file=sys.stderr)
    for problem in problems + errors:
        print(f"problem: {problem}", file=sys.stderr)
    for row in rows:
        print(
            f"{row['workload']:>15} {row['case']:>18} p50 {row['p50_ms'] or 0:9.2f} ms"
            f"  traced {row['traced_p50_ms']:9.2f} ms  dominant {row['dominant_layer']}",
            file=sys.stderr,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
