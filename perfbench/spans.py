"""Per-layer span tracing for the benchmark's traced run.

Everything here works from outside the program: no file under ``src/``
knows it exists.  Three seams place spans around the program's layers:

- :func:`instrument` wraps the public functions and methods listed in
  :data:`INSTRUMENTED` (the entry points of each layer) and restores them
  when the traced run ends;
- :class:`TracedSimulator` is a kernel whose public ``schedule``,
  ``call_later``, ``schedule_periodic`` and ``spawn`` wrap every callable
  or coroutine handed to them in a span named after the module of the
  callable's owner (:data:`LAYER_OF_MODULE`), so CPU quanta, fleet ticks,
  datagram deliveries and coroutine steps are attributed to their layer;
- ``TracedSimulator.run`` is itself a ``sim.kernel`` span, so the kernel's
  own bookkeeping is what remains of it once its child spans are removed.

Spans are aggregated in memory per ``(layer, function)`` as a call count
and a self time (span time minus the time its child spans cover), and are
read out when the run ends.  Nothing is written during the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.sim import Simulator

# Module prefix -> layer; the longest matching prefix wins.  Modules under
# no prefix land in "other".
LAYER_OF_MODULE = {
    "repro.sim.kernel": "sim.kernel",
    "repro.sim.cpu": "sim.cpu",
    "repro.sim.fairshare": "sim.fairshare",
    "repro.sim.monitor": "sim.monitor",
    "repro.dataplane.flowtable": "dataplane.flowtable",
    "repro.dataplane.matcher": "dataplane.flowtable",
    "repro.dataplane": "dataplane.switch",
    "repro.net.rpc": "net.rpc",
    "repro.net": "net.simnet",
    "repro.core.orchestrator.statesync": "core.orchestrator.statesync",
    "repro.core.orchestrator.config_store": "core.orchestrator.config_store",
    "repro.core.sync": "core.sync",
    "repro.core.agw.mme": "core.agw.mme",
    # Magma's MME terminates S1AP itself; the frontend is its RAN side.
    "repro.core.agw.s1ap_frontend": "core.agw.mme",
    "repro.core.agw.sessiond": "core.agw.sessiond",
    "repro.core.agw.pipelined": "core.agw.pipelined",
    "repro.core.agw": "core.agw.other",
    "repro.lte": "lte",
    "repro.workloads.fleet": "workloads.fleet",
}

# (layer, module, attribute): a class (every public method it defines is
# wrapped) or a module-level function (rebound in every repro module that
# imported it by name).  These are the layers' entry points; helpers they
# call internally are charged to them.
INSTRUMENTED = [
    ("sim.cpu", "repro.sim.cpu", "CpuModel"),
    ("sim.fairshare", "repro.sim.fairshare", "max_min_share"),
    ("sim.monitor", "repro.sim.monitor", "Monitor"),
    ("sim.monitor", "repro.sim.monitor", "Series"),
    ("dataplane.flowtable", "repro.dataplane.flowtable", "FlowTable"),
    ("dataplane.switch", "repro.dataplane.switch", "SoftwareSwitch"),
    ("dataplane.switch", "repro.dataplane.meter", "TokenBucketMeter"),
    ("net.rpc", "repro.net.rpc", "RpcServer"),
    ("net.rpc", "repro.net.rpc", "RpcChannel"),
    ("net.rpc", "repro.net.rpc", "payload_bytes"),
    ("net.simnet", "repro.net.simnet", "Network"),
    ("core.orchestrator.statesync", "repro.core.orchestrator.statesync",
     "StateSync"),
    ("core.orchestrator.config_store",
     "repro.core.orchestrator.config_store", "ConfigStore"),
    ("core.sync", "repro.core.sync.digest", "DigestIndex"),
    ("core.sync", "repro.core.sync.reconcile", "ReconcileServer"),
    ("core.sync.client", "repro.core.sync.reconcile", "ReconcileClient"),
    ("core.sync.client", "repro.core.sync.reconcile", "DigestMirror"),
    ("core.agw.mme", "repro.core.agw.mme", "AccessManagement"),
    ("core.agw.mme", "repro.core.agw.s1ap_frontend", "S1apFrontend"),
    ("core.agw.sessiond", "repro.core.agw.sessiond", "Sessiond"),
    ("core.agw.pipelined", "repro.core.agw.pipelined", "Pipelined"),
    ("lte", "repro.lte.ue", "Ue"),
    ("lte", "repro.lte.enodeb", "Enodeb"),
    ("workloads.fleet", "repro.workloads.fleet", "UeFleet"),
    ("workloads.fleet", "repro.workloads.fleet", "AgwFleetAdapter"),
]

# FlowTable methods that remove rules and return how many they removed.
_REMOVALS = ("remove_by_cookie", "remove_matching", "remove_rule")


def layer_of(module: str) -> str:
    best = ""
    for prefix in LAYER_OF_MODULE:
        if (module == prefix or module.startswith(prefix + ".")) \
                and len(prefix) > len(best):
            best = prefix
    return LAYER_OF_MODULE[best] if best else "other"


class Tracer:
    """In-memory span aggregation: ``(layer, name) -> [calls, self_s]``."""

    def __init__(self):
        self.spans: Dict[Tuple[str, str], List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.top_s = 0.0           # time covered by outermost spans
        self._stack: List[List[float]] = []   # child time of open spans
        self._layers: Dict[Any, Tuple[str, str]] = {}
        self.rpc_channels: set = set()

    def runner(self, layer: str, name: str) -> Callable:
        """``run(fn, *args)``: call ``fn`` inside a span of ``layer``."""
        acc = self.spans.setdefault((layer, name), [0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def run(fn, *args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                acc[0] += 1
                acc[1] += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.top_s += elapsed
        return run

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        run = self.runner(layer, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return run(fn, *args, **kwargs)
        return traced

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- kernel-dispatched callables -------------------------------------------

    def _describe(self, fn: Any) -> Tuple[str, str]:
        fn = getattr(fn, "func", fn)          # functools.partial
        owner = getattr(fn, "__self__", None)
        if owner is not None and not inspect.ismodule(owner):
            key = (type(owner), getattr(fn, "__name__", "?"))
        else:
            key = getattr(fn, "__code__", None) or fn
        found = self._layers.get(key)
        if found is None:
            if isinstance(key, tuple):
                cls, attr = key
                found = (layer_of(cls.__module__), f"{cls.__name__}.{attr}")
            else:
                found = (layer_of(getattr(fn, "__module__", None) or ""),
                         getattr(fn, "__qualname__", type(fn).__name__))
            self._layers[key] = found
        return found

    def dispatched(self, fn: Callable) -> Callable:
        layer, name = self._describe(fn)
        run = self.runner(layer, name)
        return functools.partial(run, fn)

    def coroutine(self, generator: Any) -> "_TracedCoroutine":
        frame = getattr(generator, "gi_frame", None)
        module = frame.f_globals.get("__name__", "") if frame else ""
        name = getattr(generator, "__qualname__", "coroutine")
        return _TracedCoroutine(generator,
                                self.runner(layer_of(module), name))

    # -- read-out ------------------------------------------------------------------

    def calls(self, layer: str, *names: str) -> int:
        return sum(int(acc[0]) for (lay, name), acc in self.spans.items()
                   if lay == layer and (not names or name in names))

    def self_s(self, layer: str, *names: str) -> float:
        return sum(acc[1] for (lay, name), acc in self.spans.items()
                   if lay == layer and (not names or name in names))


class _TracedCoroutine:
    """Generator proxy: every resume of the wrapped coroutine is a span.

    ``Process`` drives its generator only through ``send`` and ``throw``.
    """

    __slots__ = ("_gen", "_run")

    def __init__(self, gen: Any, run: Callable):
        self._gen = gen
        self._run = run

    def send(self, value: Any) -> Any:
        return self._run(self._gen.send, value)

    def throw(self, exc: BaseException) -> Any:
        return self._run(self._gen.throw, exc)


class TracedSimulator(Simulator):
    """The program's kernel with traced public scheduling entry points.

    Event ordering is untouched: each override hands the base kernel the
    same delay and arguments, only with the callable wrapped in a span.
    """

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.bench_tracer = tracer
        self.queue_high_water = 0

    def schedule(self, delay, fn, *args):
        handle = Simulator.schedule(self, delay,
                                    self.bench_tracer.dispatched(fn), *args)
        self._note_depth()
        return handle

    def call_later(self, delay, fn, *args):
        Simulator.call_later(self, delay, self.bench_tracer.dispatched(fn),
                             *args)
        self._note_depth()

    def schedule_periodic(self, period, fn, *args):
        return Simulator.schedule_periodic(
            self, period, self.bench_tracer.dispatched(fn), *args)

    def spawn(self, generator, name="", ctx=None):
        name = name or getattr(generator, "__name__", "process")
        return Simulator.spawn(self, self.bench_tracer.coroutine(generator),
                               name, ctx)

    def run(self, until=None):
        run = self.bench_tracer.runner("sim.kernel", "Simulator.run")
        return run(Simulator.run, self, until)

    def _note_depth(self) -> None:
        # Sampled at public schedules only: the kernel's own pooled entries
        # (timeouts, process resumes) add to the depth between samples.
        depth = self.queue_depth()
        if depth > self.queue_high_water:
            self.queue_high_water = depth


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap every entry point in :data:`INSTRUMENTED`; returns the undo."""
    undo: List[Tuple[Any, str, Any]] = []
    for layer, module_name, attr in INSTRUMENTED:
        module = sys.modules.get(module_name)
        if module is None:
            __import__(module_name)
            module = sys.modules[module_name]
        target = getattr(module, attr)
        if inspect.isclass(target):
            for name, fn in list(vars(target).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                wrapped = _wrap_method(tracer, target, name, fn, layer)
                undo.append((target, name, fn))
                setattr(target, name, wrapped)
        else:
            wrapped = tracer.wrap(target, layer, attr)
            # Rebind in every module that imported the function by name.
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "repro" or mod_name.startswith("repro.")) \
                        and getattr(mod, attr, None) is target:
                    undo.append((mod, attr, target))
                    setattr(mod, attr, wrapped)

    def restore() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
    return restore


def _wrap_method(tracer: Tracer, cls: type, name: str, fn: Callable,
                 layer: str) -> Callable:
    qualname = f"{cls.__name__}.{name}"
    run = tracer.runner(layer, qualname)
    if cls.__name__ == "FlowTable" and name in _REMOVALS:
        @functools.wraps(fn)
        def traced(table, *args, **kwargs):
            tracer.count("dataplane.flowtable.rules_seen", len(table))
            removed = run(fn, table, *args, **kwargs)
            tracer.count("dataplane.flowtable.removals", int(removed))
            return removed
        return traced
    if cls.__name__ == "FlowTable" and name in ("add", "add_batch"):
        @functools.wraps(fn)
        def traced(table, *args, **kwargs):
            result = run(fn, table, *args, **kwargs)
            tracer.count("dataplane.flowtable.adds",
                         1 if name == "add" else int(result))
            return result
        return traced
    if cls.__name__ == "RpcChannel" and name == "call":
        @functools.wraps(fn)
        def traced(channel, *args, **kwargs):
            tracer.rpc_channels.add(channel)
            return run(fn, channel, *args, **kwargs)
        return traced
    return tracer.wrap(fn, layer, qualname)
