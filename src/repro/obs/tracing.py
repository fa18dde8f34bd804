"""Procedure tracing for the simulated Magma stack.

Distributed tracing in the style of OpenTelemetry/Dapper, adapted to the
discrete-event kernel: a :class:`Tracer` mints spans whose timestamps come
from the virtual clock (``sim.now``) and whose ids come from named RNG
streams, so traces are fully deterministic and replayable (REPRO201/202).

Context propagation is *ambient*: the kernel carries the active
:class:`SpanContext` across ``schedule()`` hops and generator resumes
(``Simulator.ctx``), and the RPC layer ships it inside request payloads, so
a single attach trace nests UE -> eNodeB -> MME -> sessiond -> pipelined
without any of those components passing trace arguments around.

Cost model: with no tracer installed (``sim.tracer is None``) instrumented
code does one attribute read and a no-op method call per span site; with a
tracer installed but ``sample_rate=0`` every root span is the shared
:data:`NOOP_SPAN` and no child spans are created downstream.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional

from . import profiler as _profiler


class SpanContext(NamedTuple):
    """The propagated part of a span: enough to parent children to it."""

    trace_id: int
    span_id: int


class _Activation:
    """Context manager that makes a span ambient without ending it."""

    __slots__ = ("span", "_prev")

    def __init__(self, span: "Span"):
        self.span = span
        self._prev = None

    def __enter__(self) -> "Span":
        sim = self.span.tracer.sim
        self._prev = sim.ctx
        sim.ctx = self.span.context
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.tracer.sim.ctx = self._prev
        return False


class Span:
    """One timed operation within a trace.

    Spans are recorded on the tracer at creation and closed by
    :meth:`end` (directly, via the context-manager protocol, or deferred
    with :meth:`end_on`).  ``start``/``end_time`` are virtual-clock
    seconds; ``end_time`` is None while the span is open.
    """

    __slots__ = ("tracer", "trace_id", "span_id", "parent_id", "name",
                 "component", "node", "start", "end_time", "tags", "status",
                 "_prev_ctx")

    recording = True

    def __init__(self, tracer: "Tracer", trace_id: int, span_id: int,
                 parent_id: Optional[int], name: str, component: str,
                 node: str, tags: Optional[Dict[str, Any]] = None):
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.component = component
        self.node = node
        self.start = tracer.sim.now
        self.end_time: Optional[float] = None
        self.tags: Dict[str, Any] = dict(tags) if tags else {}
        self.status = "open"
        self._prev_ctx = None

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    @property
    def duration(self) -> float:
        if self.end_time is None:
            return 0.0
        return self.end_time - self.start

    @property
    def finished(self) -> bool:
        return self.end_time is not None

    def set_tag(self, key: str, value: Any) -> "Span":
        self.tags[key] = value
        return self

    def end(self, status: str = "ok") -> None:
        """Close the span at the current virtual time (idempotent)."""
        if self.end_time is not None:
            return
        self.end_time = self.tracer.sim.now
        self.status = status

    def end_on(self, event: Any) -> "Span":
        """Close the span when ``event`` triggers (ok/error by outcome)."""
        event.add_callback(
            lambda ev: self.end("ok" if ev.ok else "error"))
        return self

    def active(self) -> _Activation:
        """``with span.active():`` - ambient activation without ending."""
        return _Activation(self)

    # ``with span:`` activates the span and ends it on exit.

    def __enter__(self) -> "Span":
        sim = self.tracer.sim
        self._prev_ctx = sim.ctx
        sim.ctx = self.context
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.tracer.sim.ctx = self._prev_ctx
        self.end("error" if exc_type is not None else "ok")
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration:.4f}s" if self.finished else "open"
        return f"<Span {self.name!r} {self.component} {state}>"


class NoopSpan:
    """Shared do-nothing span: the unsampled / tracing-off fast path.

    Its ``context`` is None, so children of an unsampled root are
    themselves no-ops and nothing propagates downstream.
    """

    __slots__ = ()

    recording = False
    context = None
    trace_id = None
    span_id = None
    parent_id = None
    name = ""
    component = ""
    node = ""
    start = 0.0
    end_time = None
    duration = 0.0
    finished = False
    status = "noop"
    tags: Dict[str, Any] = {}

    def set_tag(self, key: str, value: Any) -> "NoopSpan":
        return self

    def end(self, status: str = "ok") -> None:
        pass

    def end_on(self, event: Any) -> "NoopSpan":
        return self

    def active(self) -> "NoopSpan":
        return self

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = NoopSpan()


class Tracer:
    """Mints, samples, and records spans for one simulation.

    ``sample_rate`` is the fraction of *root* spans recorded (head-based
    sampling: the decision is made once per trace and inherited by every
    child through context propagation).  Ids come from the registry's
    ``obs.span_ids`` / ``obs.sampling`` streams, timestamps from
    ``sim.now`` - two runs with the same seed produce identical traces.
    """

    def __init__(self, sim: Any, rng: Any, sample_rate: float = 1.0,
                 max_spans: int = 200_000, install: bool = True):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate out of range: {sample_rate}")
        self.sim = sim
        self.sample_rate = sample_rate
        self.max_spans = max_spans
        self._ids = rng.stream("obs.span_ids")
        self._sampler = rng.stream("obs.sampling")
        self.spans: List[Span] = []
        self.stats = {"traces_started": 0, "traces_sampled": 0,
                      "spans": 0, "spans_dropped": 0}
        if install:
            sim.tracer = self

    # -- span creation -----------------------------------------------------

    def start_trace(self, name: str, component: str = "", node: str = "",
                    tags: Optional[Dict[str, Any]] = None):
        """Start a new root span, applying the sampling decision."""
        self.stats["traces_started"] += 1
        if self.sample_rate <= 0.0:
            return NOOP_SPAN
        if self.sample_rate < 1.0 and \
                self._sampler.random() >= self.sample_rate:
            return NOOP_SPAN
        self.stats["traces_sampled"] += 1
        trace_id = self._new_id()
        span = Span(self, trace_id, self._new_id(), None, name,
                    component, node, tags)
        self._record(span)
        return span

    def start_span(self, name: str, parent: Optional[SpanContext],
                   component: str = "", node: str = "",
                   tags: Optional[Dict[str, Any]] = None):
        """Child span of an explicit parent context (None -> no-op)."""
        if parent is None:
            return NOOP_SPAN
        span = Span(self, parent.trace_id, self._new_id(), parent.span_id,
                    name, component, node, tags)
        self._record(span)
        return span

    def child(self, name: str, component: str = "", node: str = "",
              tags: Optional[Dict[str, Any]] = None):
        """Child of the ambient context; no-op when none is active."""
        return self.start_span(name, self.sim.ctx, component=component,
                               node=node, tags=tags)

    def begin(self, name: str, component: str = "", node: str = "",
              tags: Optional[Dict[str, Any]] = None):
        """Child of the ambient context if present, else a new root.

        The right call for procedure entry points that can be either
        user-initiated (a fresh trace) or network-initiated mid-trace
        (e.g. a service request triggered by paging).
        """
        if self.sim.ctx is not None:
            return self.start_span(name, self.sim.ctx, component=component,
                                   node=node, tags=tags)
        return self.start_trace(name, component=component, node=node,
                                tags=tags)

    def activate(self, span: Any) -> None:
        """Make ``span`` the ambient context (sticks across yields)."""
        if span.recording:
            self.sim.ctx = span.context

    # -- accessors ---------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        return [s for s in self.spans if s.finished]

    def clear(self) -> None:
        self.spans = []

    # -- internals ---------------------------------------------------------

    def _new_id(self) -> int:
        # 48 bits: unique enough for any run, exactly representable in JSON.
        return self._ids.getrandbits(48)

    def _record(self, span: Span) -> None:
        prof = _profiler.ACTIVE
        if prof is None:
            self._record_span(span)
        else:
            prof.call("obs.tracer", self._record_span, span)

    def _record_span(self, span: Span) -> None:
        if len(self.spans) >= self.max_spans:
            self.stats["spans_dropped"] += 1
            return
        self.spans.append(span)
        self.stats["spans"] += 1


class NoopTracer:
    """Stands in when no tracer is installed; every span is NOOP_SPAN."""

    __slots__ = ()

    recording = False
    sample_rate = 0.0
    spans: List[Span] = []

    def start_trace(self, name: str, component: str = "", node: str = "",
                    tags: Optional[Dict[str, Any]] = None) -> NoopSpan:
        return NOOP_SPAN

    def start_span(self, name: str, parent: Optional[SpanContext] = None,
                   component: str = "", node: str = "",
                   tags: Optional[Dict[str, Any]] = None) -> NoopSpan:
        return NOOP_SPAN

    def child(self, name: str, component: str = "", node: str = "",
              tags: Optional[Dict[str, Any]] = None) -> NoopSpan:
        return NOOP_SPAN

    def begin(self, name: str, component: str = "", node: str = "",
              tags: Optional[Dict[str, Any]] = None) -> NoopSpan:
        return NOOP_SPAN

    def activate(self, span: Any) -> None:
        pass

    def finished_spans(self) -> List[Span]:
        return []


NOOP_TRACER = NoopTracer()


def tracer_of(sim: Any):
    """The simulation's tracer, or the shared no-op when none installed."""
    tracer = getattr(sim, "tracer", None)
    return tracer if tracer is not None else NOOP_TRACER
