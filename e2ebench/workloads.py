"""The two workloads: seeded inputs, set-up, and the timed closed loops.

Both workloads are closed loops of one client, which sends its next
request only after the previous one returned.  The client works in
*rounds* (``warm``) or *epochs* (``cold``), each a seeded shuffle of the
workload's fixed request list, and stops at the first boundary after the
run's time is up, so every run executes whole rounds and the count
metrics of a traced run are exact.

In a traced ``warm`` run, each request runs twice back to back, untraced
and traced (see ``_modes``); ``cold``, whose writes cannot repeat,
alternates whole epochs instead.  Untraced requests go through the public
entry points (``Session.execute``, ``QueryService``); traced ones are
composed by this module from the public stage calls, one span per call
(see ``spans.py``).
Both are checked against the same reference answers.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.algebra.interpreter import PlanInterpreter
from repro.bench.xmark import XMARK_SUITE
from repro.core.rewriter import IsolationReport
from repro.core.session import Session
from repro.core.stages import CompilationResult, run_stacked, sql_backend_sql
from repro.purexml.engine import PureXMLEngine
from repro.purexml.storage import XMLColumnStore
from repro.service import FallbackPolicy, QueryService, RetryPolicy
from repro.sqlbackend.decode import first_occurrence_items, ordered_items, sequence_items
from repro.xmldb.generators.xmark import XMarkConfig, generate_xmark_document
from repro.xmldb.infoset import NodeKind, XMLNode
from repro.xquery.ast import check_bindings

import calibrate
from spans import UNATTRIBUTED, RequestTrace, Tracer

#: The queried document: XMark at scale 0.5 (5,620 nodes).  Like XMark's
#: own generator, it is one fixed document per scale; ``--seed`` varies the
#: requests (order, bindings) and the documents ``cold`` writes.
SCALE = 0.5
URI = "auction.xml"
BASE = XMarkConfig(scale=SCALE, uri=URI)
#: ``cold``: documents written per epoch, and their XMark scale
#: (about 560 nodes each).
GROWTH_WRITES = 2
GROWTH_SCALE = 0.05

#: The 17 XMark cases inside the fragment (Q7, Q14 and Q18 are refusals).
CASES = tuple(case for case in XMARK_SUITE if case.refusal is None)

_PEOPLE = BASE.scaled(BASE.people)

#: Prepared variants for ``warm``: case -> (source, variable, binding draw).
#: One binding is drawn per variant and seed, so every round repeats.  The
#: Q12 variant costs more than the rest of a round together, so it appears
#: once per round and leaves room for the others in the measured work.
PREPARED = {
    "Q1": (
        "declare variable $id as xs:string external; "
        "/site/people/person[@id = $id]/name/text()",
        "id",
        lambda rng: f"person{rng.randrange(_PEOPLE)}",
    ),
    "Q5": (
        "declare variable $p as xs:decimal external; "
        "fn:count(for $i in /site/closed_auctions/closed_auction "
        "where $i/price > $p return $i/price)",
        "p",
        lambda rng: round(rng.uniform(1.0, 500.0), 2),
    ),
    "Q12": (
        "declare variable $lo as xs:decimal external; "
        "for $p in /site/people/person for $o in /site/open_auctions/open_auction "
        "where $p/profile/@income > $o/initial and $p/profile/@income > $lo "
        "return $p/name",
        "lo",
        lambda rng: round(rng.uniform(10000.0, 100000.0), 2),
    ),
    "Q20": (
        "declare variable $lo as xs:decimal external; "
        "fn:count(/site/people/person[profile/@income > $lo])",
        "lo",
        lambda rng: round(rng.uniform(10000.0, 100000.0), 2),
    ),
}

#: ``ExecutionOutcome.timings`` stage -> layer span name.
STAGE_LAYERS = {
    "parse": "xquery.parse",
    "normalize": "xquery.normalize",
    "compile": "xquery.compile",
    "isolate": "rewrite.isolate",
    "extract": "joingraph.extract",
    "sync": "sqlbackend.sync",
    "render": "relational.plan",
    "bind": "pipeline.bind",
    "execute": "sqlbackend.execute",
    "decode": "sqlbackend.decode",
}


@dataclass(frozen=True)
class Request:
    """One read request; the reference answer is keyed on ``key``."""

    case: str
    source: str
    configuration: str = "sql"
    #: Sorted ``(name, value)`` pairs of a prepared request's bindings.
    bindings: tuple = ()
    prepared: bool = False

    @property
    def key(self) -> tuple:
        return (self.source, self.bindings)

    def binding_map(self) -> Optional[dict]:
        return dict(self.bindings) or None


@dataclass
class State:
    """What one set-up built: the session and the workload's own objects."""

    session: Session
    document: XMLNode
    service: Optional[QueryService] = None
    prepared: dict = field(default_factory=dict)
    growth_docs: list = field(default_factory=list)


@dataclass
class Measurement:
    """What one timed loop observed."""

    #: Untraced reads the loop makes at least, even past its time.
    min_reads: int
    latencies: list = field(default_factory=list)
    traced_latencies: list = field(default_factory=list)
    writes: list = field(default_factory=list)
    #: (case, seconds) of every untraced operation, in order.
    per_case: list = field(default_factory=list)
    elapsed: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    retries: int = 0
    fallbacks: int = 0
    #: Thread CPU seconds of the calibration loop, once after every untraced
    #: operation, and the wall time those samples took (not in ``elapsed``).
    calibration: list = field(default_factory=list)
    paused: float = 0.0

    def more(self, started: float, seconds: float, traced_run: bool) -> bool:
        """Whether a client starts another round."""
        if time.perf_counter() - started < seconds:
            return True
        if traced_run:
            # cold traces only every other epoch.
            return not self.traced_latencies
        return len(self.latencies) < self.min_reads

    def calibrate(self) -> None:
        begun = time.perf_counter()
        self.calibration.append(calibrate.sample())
        self.paused += time.perf_counter() - begun

    def record(self, ok: bool, message: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(message)


# -- the correctness oracle -------------------------------------------------------------


@dataclass(frozen=True)
class _NoIsolation:
    """Isolate stage of the reference pipeline: the stacked plan, untouched."""

    def run(self, stacked):
        return stacked, IsolationReport()


@dataclass(frozen=True)
class _NoExtraction:
    def run(self, plan):
        return None, None, "the reference pipeline extracts no join graph"


def reference_answers(session: Session, requests) -> dict:
    """Items of every request on the ``stacked`` oracle, keyed by request key.

    The stacked plan needs no isolation, so the reference pipeline skips
    it (and join-graph extraction) and leaves the plan cache alone.
    """
    processor = session.processor
    pipeline = replace(
        processor.pipeline(), isolate=_NoIsolation(), extract=_NoExtraction()
    )
    answers = {}
    for request in requests:
        if request.key not in answers:
            compilation = pipeline.compile_source(request.source)
            answers[request.key] = run_stacked(
                compilation, processor.context, bindings=request.binding_map()
            ).items
    return answers


def cross_check(document: XMLNode, requests, answers: dict) -> list[str]:
    """Disagreements of the pureXML navigational engine with the references.

    pureXML returns the aggregate values a query computes and one node per
    binding tuple, so it is compared on values and on distinct node counts.
    """
    engine = PureXMLEngine(XMLColumnStore.whole(document))
    mismatches = []
    for request in {request.key: request for request in requests}.values():
        expected = answers[request.key]
        result = engine.execute(request.source, bindings=request.binding_map())
        if result.values:
            agree = result.values == expected
        else:
            agree = len({id(node) for node in result.nodes}) == len(expected)
        if not agree:
            mismatches.append(f"pureXML disagrees with the stacked oracle on {request.case}")
    return mismatches


def _count_items(document: XMLNode) -> int:
    return sum(
        1
        for node in document.iter_descendants()
        if node.kind is NodeKind.ELEM and node.name == "item"
    )


# -- traced compositions of one request ---------------------------------------------------


def compile_traced(session: Session, source: str, trace: RequestTrace) -> CompilationResult:
    """A cold compilation, one span per pipeline stage."""
    pipeline = session.processor.pipeline()
    traced = replace(
        pipeline,
        parse=_SpanStage(pipeline.parse, "xquery.parse", trace),
        normalize=_SpanStage(pipeline.normalize, "xquery.normalize", trace),
        compile=_SpanStage(pipeline.compile, "xquery.compile", trace),
        isolate=_SpanStage(pipeline.isolate, "rewrite.isolate", trace),
        extract=_SpanStage(pipeline.extract, "joingraph.extract", trace),
    )
    compilation = traced.compile_source(source)
    report = compilation.isolation_report
    trace.count("rewrite.steps", report.steps)
    trace.count("rewrite.rejections", len(report.rejections))
    trace.count("rewrite.ops_in", report.initial_operator_count)
    trace.count("rewrite.ops_out", report.final_operator_count)
    return compilation


@dataclass(frozen=True)
class _SpanStage:
    stage: object
    name: str
    trace: RequestTrace

    def run(self, *args):
        with self.trace.span(self.name):
            return self.stage.run(*args)


def lookup_traced(session: Session, request: Request, trace: RequestTrace, state: State):
    """A warm plan: the prepared handle's, or a plan-cache hit."""
    if request.prepared:
        return state.prepared[request.case].compilation
    with trace.span("pipeline.lookup"):
        return session.processor.compile(request.source)


def sql_traced(session: Session, compilation, request: Request, trace: RequestTrace) -> list:
    """The ``sql`` configuration, one span per stage call."""
    processor = session.processor
    backend = session.sql_backend
    with trace.span("sqlbackend.sync"):
        backend.sync(processor.encoding)
    with trace.span("relational.plan"):
        sql = sql_backend_sql(compilation, processor.context)
    with trace.span("pipeline.bind"):
        values = check_bindings(compilation.external_variables, request.binding_map())
    with trace.span("sqlbackend.execute"):
        result = backend.execute(sql, bindings=values or None)
    with trace.span("sqlbackend.decode"):
        items = ordered_items(
            result.columns,
            result.rows,
            distinct=not compilation.value_result,
            column_data=result.column_data,
        )
    trace.count("sqlbackend.rows", result.row_count)
    return items


def join_graph_traced(session: Session, compilation, request: Request, trace: RequestTrace) -> list:
    """The ``join-graph`` configuration: the in-tree relational engine."""
    processor = session.processor
    with trace.span("pipeline.bind"):
        values = check_bindings(compilation.external_variables, request.binding_map())
    with trace.span("relational.execute"):
        result = processor.engine.execute(compilation.join_graph, bindings=values or None)
    with trace.span("pipeline.decode"):
        items = first_occurrence_items(result.items(), distinct=not compilation.value_result)
    trace.count("relational.rows_scanned", result.rows_scanned)
    trace.count("relational.index_probes", result.index_probes)
    return items


def isolated_traced(session: Session, compilation, request: Request, trace: RequestTrace) -> list:
    """The ``isolated`` configuration: the algebra interpreter."""
    processor = session.processor
    with trace.span("pipeline.bind"):
        values = check_bindings(compilation.external_variables, request.binding_map())
    with trace.span("algebra.execute"):
        interpreter = PlanInterpreter(
            processor.doc_table,
            parameters=values or None,
            columnar=processor.settings.columnar_execution,
        )
        table = interpreter.evaluate(compilation.isolated_plan)
        trace.count("algebra.rows_materialised", interpreter.rows_materialised)
        # Freeing the intermediate results is part of the layer's cost.
        del interpreter
    with trace.span("pipeline.decode"):
        items = sequence_items(table.columns, table.rows, distinct=not compilation.value_result)
    return items


_EXECUTE_TRACED = {
    "sql": sql_traced,
    "join-graph": join_graph_traced,
    "isolated": isolated_traced,
}


# -- the workloads ---------------------------------------------------------------------------


class Workload:
    """Seeded inputs, set-up and a loop of rounds; subclasses supply the
    requests and the warm-up (``cold`` also its own loop)."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.requests: list[Request] = self.make_requests(random.Random(seed))

    def make_requests(self, rng: random.Random) -> list[Request]:
        return [Request(case.name, case.xquery) for case in CASES]

    def reference_requests(self) -> list[Request]:
        return self.requests

    # -- set-up ------------------------------------------------------------------------

    def setup(self) -> State:
        """Generate, register, build, sync, warm up: what ``setup_s`` times."""
        document = generate_xmark_document(BASE)
        session = Session(default_document=URI)
        make_queryable(session, document)
        state = State(session, document)
        self.warm_up(state)
        return state

    def teardown(self, state: State) -> None:
        if state.service is not None:
            state.service.close()
        state.session.sql_backend.close()

    # -- the timed loop ------------------------------------------------------------------

    def run(
        self, state: State, answers: dict, seconds: float, tracer: Optional[Tracer], min_reads: int
    ) -> Measurement:
        """One client, whole rounds until ``seconds`` have passed."""
        measurement = Measurement(min_reads)
        session = state.session
        rng = random.Random(self.seed + 1)
        before = session.cache_stats()
        started = time.perf_counter()
        round_no = 0
        while measurement.more(started, seconds, tracer is not None):
            for request in rng.sample(self.requests, len(self.requests)):
                for traced in _modes(tracer, round_no):
                    if traced:
                        with tracer.request(request.case, root=self.trace_root(request)) as trace:
                            items = _attempt(measurement, lambda: self.traced(state, request, trace))
                        measurement.traced_latencies.append(trace.wall)
                    else:
                        begun = time.perf_counter()
                        items = _attempt(measurement, lambda: self.untraced(state, request))
                        latency = time.perf_counter() - begun
                        measurement.latencies.append(latency)
                        measurement.per_case.append((request.case, latency))
                        measurement.calibrate()
                    _check(measurement, request, items, answers)
            round_no += 1
        measurement.elapsed = time.perf_counter() - started - measurement.paused
        after = session.cache_stats()
        measurement.cache_hits = after["hits"] - before["hits"]
        measurement.cache_misses = after["misses"] - before["misses"]
        return measurement

    def trace_root(self, request: Request) -> str:
        """Root span name of a traced request (see ``Tracer.request``)."""
        return UNATTRIBUTED

    def untraced(self, state: State, request: Request) -> list:
        return state.session.execute(request.source, configuration=request.configuration).items

    def traced(self, state: State, request: Request, trace: RequestTrace) -> list:
        compilation = lookup_traced(state.session, request, trace, state)
        return _EXECUTE_TRACED[request.configuration](state.session, compilation, request, trace)


def make_queryable(session: Session, document: XMLNode) -> None:
    """A write: register, rebuild the processor, sync the SQLite mirror."""
    session.register_document(document)
    session.processor
    session.sql_backend.sync(session.store.encoding)


def _modes(tracer: Optional[Tracer], round_no: int) -> tuple:
    """Whether each run of one request is traced, in order.

    In a traced run a request runs twice back to back, untraced and traced,
    the untraced one first on even rounds and second on odd ones.  Both
    runs then see the same machine conditions, so the tracing overhead is a
    paired difference, and every round traces every request once.
    """
    if tracer is None:
        return (False,)
    return (False, True) if round_no % 2 == 0 else (True, False)


def _attempt(measurement: Measurement, call: Callable[[], list]) -> Optional[list]:
    try:
        return call()
    except Exception as error:  # a failed request is counted, not fatal
        measurement.record(False, f"{type(error).__name__}: {error}")
        return None


def _check(measurement: Measurement, request: Request, items, answers: dict) -> None:
    if items is None:
        return  # already counted as failed
    expected = answers[request.key]
    measurement.record(items == expected, f"wrong answer for {request.case}")


class Cold(Workload):
    """Document writes, each followed by a batch of cold ``sql`` reads.

    A write (registration, processor rebuild, mirror sync) lasts until the
    document can be queried.  The plan cache is cleared before every read,
    so each read parses, normalizes, compiles, isolates and extracts its
    query and renders its SQL against the catalog as it stands.
    Compilation and isolation dominate the reads, and the working set
    exceeds any plan cache.
    """

    name = "cold"

    def make_requests(self, rng: random.Random) -> list[Request]:
        return super().make_requests(rng) + [
            Request("verify", _verify_source(index)) for index in range(GROWTH_WRITES)
        ]

    def reference_requests(self) -> list[Request]:
        return self.requests[: len(CASES)]

    def setup(self) -> State:
        state = super().setup()
        state.growth_docs = [
            generate_xmark_document(
                XMarkConfig(scale=GROWTH_SCALE, seed=self.seed * 100 + index, uri=_growth_uri(index))
            )
            for index in range(GROWTH_WRITES)
        ]
        return state

    def warm_up(self, state: State) -> None:
        # Only the SQLite reader connection; plans stay cold.
        state.session.execute(self.requests[0].source, configuration="sql")
        state.session.plan_cache.clear()

    def growth_answers(self, state: State) -> dict:
        """References of the verification reads: item counts of each tree."""
        return {
            Request("verify", _verify_source(index)).key: [_count_items(document)]
            for index, document in enumerate(state.growth_docs)
        }

    def growth_cross_check(self, state: State, answers: dict) -> list[str]:
        mismatches = []
        for index, document in enumerate(state.growth_docs):
            engine = PureXMLEngine(XMLColumnStore.whole(document))
            values = engine.execute("fn:count(/site/descendant::item)").values
            if values != answers[(_verify_source(index), ())]:
                mismatches.append(f"pureXML disagrees on the item count of {_growth_uri(index)}")
        return mismatches

    def run(
        self, state: State, answers: dict, seconds: float, tracer: Optional[Tracer], min_reads: int
    ) -> Measurement:
        """Epochs of ``GROWTH_WRITES`` writes, each followed by a batch of reads.

        Every epoch starts from a fresh session holding only the queried
        document (not timed), so each epoch repeats the same catalog sizes.
        In a traced run, whole epochs alternate between untraced and traced.
        """
        measurement = Measurement(min_reads)
        reads = self.requests[: len(CASES)]
        rng = random.Random(self.seed + 1)
        session = state.session
        started = time.perf_counter()
        epoch = 0
        while measurement.more(started, seconds, tracer is not None):
            if epoch:
                reset = time.perf_counter()
                # Free the retired session before building the next one, so
                # that memory never holds two, and outside the timed steps.
                session.sql_backend.close()
                session = epoch_state = state.session = None
                gc.unfreeze()
                gc.collect()
                session = Session(default_document=URI)
                make_queryable(session, state.document)
                gc.collect()
                gc.freeze()
                started += time.perf_counter() - reset
            traced = tracer is not None and epoch % 2 == 1
            epoch_state = replace(state, session=session)
            for index, document in enumerate(state.growth_docs):
                self._write(epoch_state, document, tracer if traced else None, measurement)
                batch = [self.requests[len(CASES) + index]] + rng.sample(reads, len(reads))
                for request in batch:
                    self._read(epoch_state, request, answers, tracer if traced else None, measurement)
            epoch += 1
        measurement.elapsed = time.perf_counter() - started - measurement.paused
        state.session = session
        return measurement

    def _write(self, state: State, document: XMLNode, tracer, measurement: Measurement) -> None:
        session = state.session
        if tracer is None:
            begun = time.perf_counter()
            ok = _attempt(measurement, lambda: make_queryable(session, document) or [])
            latency = time.perf_counter() - begun
            measurement.writes.append(latency)
            measurement.per_case.append(("write", latency))
            measurement.calibrate()
        else:
            with tracer.request("write") as trace:
                def write():
                    with trace.span("xmldb.register"):
                        session.register_document(document)
                    with trace.span("session.rebuild"):
                        session.processor
                    with trace.span("sqlbackend.sync"):
                        session.sql_backend.sync(session.store.encoding)
                    return []
                ok = _attempt(measurement, write)
        if ok is not None:
            measurement.record(True)

    def _read(self, state, request, answers, tracer, measurement) -> None:
        session = state.session
        session.plan_cache.clear()
        if tracer is None:
            begun = time.perf_counter()
            items = _attempt(measurement, lambda: self.untraced(state, request))
            latency = time.perf_counter() - begun
            measurement.latencies.append(latency)
            measurement.per_case.append((request.case, latency))
            measurement.calibrate()
        else:
            with tracer.request(request.case) as trace:
                items = _attempt(measurement, lambda: self.traced(state, request, trace))
            measurement.traced_latencies.append(trace.wall)
        # clear() reset the counters, so they hold this read's lookups.
        stats = session.cache_stats()
        measurement.cache_hits += stats["hits"]
        measurement.cache_misses += stats["misses"]
        _check(measurement, request, items, answers)

    def traced(self, state: State, request: Request, trace: RequestTrace) -> list:
        compilation = compile_traced(state.session, request.source, trace)
        return sql_traced(state.session, compilation, request, trace)


class Warm(Workload):
    """Warm plans on every engine, one client.

    ``sql`` requests go through ``QueryService``, with seeded bindings of
    prepared variants: SQLite execute and decode and the service layer.
    ``join-graph`` and ``isolated`` requests run in process: the relational
    operators and the algebra interpreter.  Nothing is compiled.
    """

    name = "warm"

    def make_requests(self, rng: random.Random) -> list[Request]:
        return (
            super().make_requests(rng)
            + [
                Request(f"{case}p", source, bindings=((variable, draw(rng)),), prepared=True)
                for case, (source, variable, draw) in PREPARED.items()
            ]
            + [
                Request(f"{case.name}/{configuration}", case.xquery, configuration)
                for configuration in ("join-graph", "isolated")
                for case in CASES
            ]
        )

    def warm_up(self, state: State) -> None:
        session = state.session
        for case, (source, _, _) in PREPARED.items():
            state.prepared[f"{case}p"] = session.prepare(source)
        state.service = QueryService(
            session, max_workers=1, retry=RetryPolicy(), fallback=FallbackPolicy()
        )
        for request in self.requests:
            self.untraced(state, request)

    def run(
        self, state: State, answers: dict, seconds: float, tracer: Optional[Tracer], min_reads: int
    ) -> Measurement:
        measurement = super().run(state, answers, seconds, tracer, min_reads)
        resilience = state.service.service_stats()["resilience"]
        measurement.retries = resilience["retries"]
        measurement.fallbacks = resilience["fallbacks"]
        return measurement

    def trace_root(self, request: Request) -> str:
        return "service" if request.configuration == "sql" else super().trace_root(request)

    def untraced(self, state: State, request: Request) -> list:
        if request.configuration != "sql":
            return super().untraced(state, request)
        return self._served(state, request).items

    def traced(self, state: State, request: Request, trace: RequestTrace) -> list:
        if request.configuration != "sql":
            return super().traced(state, request, trace)
        outcome = self._served(state, request)
        _add_stage_spans(trace, outcome)
        return outcome.items

    def _served(self, state: State, request: Request):
        outcome = state.service.submit(
            source=None if request.prepared else request.source,
            prepared=state.prepared.get(request.case) if request.prepared else None,
            bindings=request.binding_map(),
            configuration=request.configuration,
        ).result()
        if outcome.degraded_from is not None:
            raise RuntimeError(f"served by {outcome.configuration}, not {outcome.degraded_from}")
        return outcome


def _add_stage_spans(trace: RequestTrace, outcome) -> None:
    """Lay the stage times the outcome reports out as the request's children.

    The service ran the stages on a worker thread, so only their durations
    are known; they are placed back to back from the request's start.
    """
    cursor = trace.spans[0].start
    for stage, seconds in outcome.timings.items():
        trace.add(STAGE_LAYERS[stage], cursor, cursor + seconds)
        cursor += seconds
    trace.count("sqlbackend.rows", outcome.details.row_count)


def _growth_uri(index: int) -> str:
    return f"growth-{index}.xml"


def _verify_source(index: int) -> str:
    return f'fn:count(doc("{_growth_uri(index)}")/descendant::item)'


WORKLOADS = {workload.name: workload for workload in (Cold, Warm)}
