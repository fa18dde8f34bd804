"""Wall-clock self-profiler: attribute host CPU time to layers.

"As fast as the hardware allows" is a claim until it is a breakdown.
This module turns a run into flame-style per-layer shares of host
wall-clock time — event kernel vs. CPU model vs. AGW services vs. RPC
serialization vs. digest hashing vs. fleet ticks vs. tracer overhead —
committed with each change as ``BENCH_profile.json`` so regressions show
up as a share shift, not a vibe.

Two integration layers:

- **Kernel**: :func:`install` registers a :class:`Profiler` as a hook on
  the kernel's one instrumentation seam, beside SimSan if one is
  installed.  It charges each ``run()`` loop to ``sim.kernel`` and each
  dispatched callback to the layer that owns it
  (:meth:`Profiler.layer_of`): ``CpuModel._tick`` is ``sim.cpu``, an MME
  procedure process is ``core.agw.mme``.  The plain ``Simulator`` class
  is untouched, so the profiler-off path is byte-identical to today's
  kernel — the bench canaries prove it.
- **Within one callback** (RPC serialize/call, digest sync, tracer, and
  the RPC server's handler): module-level hooks read
  ``profiler.ACTIVE`` and scope their work with :meth:`Profiler.call`;
  when it is ``None`` (the default) the cost is one global load and an
  ``is None`` test.

Accounting is *self-time*: entering a child scope charges the elapsed
slice to the parent, so a scope's number is time spent in its own code,
and flame paths (``sim.kernel;net.simnet;core.orchestrator.orchestrator``)
preserve the nesting.  The profiler deliberately reads the host clock
(``time.perf_counter``) — it measures the simulator, it does not run
inside it, and nothing in simulation behaviour may depend on its
readings.  Those calls carry ``reprolint`` pragmas for exactly that
reason.

Only one profiler can be active per process (the ``ACTIVE`` global is
how zero-touch subsystem hooks find it); :func:`detach` removes its hook
from the simulator and clears the global.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Dict, List, Optional

from ..sim.kernel import PeriodicCall, Process, Simulator

# The process-wide active profiler; subsystem hooks poll this.  None when
# profiling is off, which must stay the cheap path.
ACTIVE: Optional["Profiler"] = None


#: Layer of a dispatched callable whose owner has no module.
UNATTRIBUTED = "unattributed"


class Profiler:
    """Scoped self-time counters keyed by flame path."""

    __slots__ = ("self_s", "calls", "_stack", "_mark", "_layers")

    def __init__(self):
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._stack: List[str] = []
        self._mark = 0.0
        # Layer names cached per owner class or code object.
        self._layers: Dict[Any, str] = {}

    # The two perf_counter() reads below are the profiler's entire contact
    # with the host clock.  They are exempt from the no-wallclock rule by
    # design: the profiler measures the simulator from outside, and no
    # simulated behaviour may depend on its readings (the byte-identical
    # disabled-path canaries in BENCH_profile.json enforce that).

    def push(self, key: str) -> None:
        """Enter scope ``key``; charges the elapsed slice to the parent."""
        now = time.perf_counter()  # reprolint: disable=no-wallclock
        stack = self._stack
        if stack:
            parent = stack[-1]
            self.self_s[parent] = \
                self.self_s.get(parent, 0.0) + (now - self._mark)
            path = parent + ";" + key
        else:
            path = key
        stack.append(path)
        self.calls[path] = self.calls.get(path, 0) + 1
        self._mark = now

    def pop(self) -> None:
        """Leave the current scope; charges the elapsed slice to it."""
        now = time.perf_counter()  # reprolint: disable=no-wallclock
        path = self._stack.pop()
        self.self_s[path] = self.self_s.get(path, 0.0) + (now - self._mark)
        self._mark = now

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        del self._stack[:]
        self._mark = 0.0

    def call(self, key: str, fn: Any, *args: Any) -> Any:
        """``fn(*args)`` inside scope ``key``: the hook for a subsystem
        that splits one dispatched callback internally."""
        self.push(key)
        try:
            return fn(*args)
        finally:
            self.pop()

    # -- layers ----------------------------------------------------------------

    def layer_of(self, fn: Any) -> str:
        """The layer that owns callable ``fn``, named by its module with the
        leading ``repro.`` stripped: the owner's module for a bound method,
        the generator's module for a :class:`Process`, and the function's
        own module otherwise; :class:`PeriodicCall` and
        ``functools.partial`` are seen through to what they wrap."""
        while True:
            while isinstance(fn, functools.partial):
                fn = fn.func
            owner = getattr(fn, "__self__", None)
            if not isinstance(owner, PeriodicCall):
                break
            fn = owner.fn
        if isinstance(owner, Process):
            key = getattr(owner.generator, "gi_code", None)
        elif owner is not None:
            key = type(owner)
        else:
            key = getattr(fn, "__code__", None) or type(fn)
        layer = self._layers.get(key)
        if layer is None:
            if isinstance(owner, Process):
                frame = getattr(owner.generator, "gi_frame", None)
                module = frame.f_globals.get("__name__") if frame else None
            elif owner is not None:
                module = key.__module__
            else:
                module = getattr(fn, "__module__", None)
            if not module:
                # A finished generator has no frame to read; leave it
                # uncached so a live resume of the same code can name it.
                return UNATTRIBUTED
            layer = module[6:] if module.startswith("repro.") else module
            self._layers[key] = layer
        return layer

    # -- kernel hooks ----------------------------------------------------------

    def on_schedule(self, handle: Any) -> Any:
        return handle

    def before_execute(self, entry: Any) -> None:
        self.push(self.layer_of(entry.fn))

    def after_execute(self) -> None:
        self.pop()

    def on_run(self) -> None:
        # The loop itself, wheel flushes included, is kernel bookkeeping,
        # like the Timeout/Event fan-out callbacks the kernel module owns.
        self.push("sim.kernel")

    def on_drain(self, sim: Simulator) -> None:
        self.pop()

    # -- reporting -------------------------------------------------------------

    def subsystems(self) -> Dict[str, Dict[str, float]]:
        """Self-time aggregated by leaf scope key (last flame segment)."""
        agg: Dict[str, Dict[str, float]] = {}
        for path, secs in self.self_s.items():
            leaf = path.rsplit(";", 1)[-1]
            row = agg.get(leaf)
            if row is None:
                row = agg.setdefault(leaf, {"self_s": 0.0, "calls": 0})
            row["self_s"] += secs
            row["calls"] += self.calls.get(path, 0)
        return agg

    def report(self) -> Dict[str, Any]:
        """Shares per subsystem plus the raw flame rows, largest first."""
        total = sum(self.self_s.values())
        subsystems = {}
        for leaf, row in sorted(self.subsystems().items(),
                                key=lambda kv: -kv[1]["self_s"]):
            subsystems[leaf] = {
                "self_s": row["self_s"],
                "share": row["self_s"] / total if total > 0 else 0.0,
                "calls": row["calls"],
            }
        flame = [{"path": path, "self_s": secs,
                  "calls": self.calls.get(path, 0)}
                 for path, secs in sorted(self.self_s.items(),
                                          key=lambda kv: -kv[1])]
        return {"total_s": total, "subsystems": subsystems, "flame": flame}


def install(sim: Simulator, profiler: Optional[Profiler] = None) -> Profiler:
    """Attach a (new, by default) profiler to ``sim``; returns it."""
    global ACTIVE
    if profiler is None:
        profiler = Profiler()
    if ACTIVE is not None and ACTIVE is not profiler:
        raise ValueError("another profiler is already active in this process")
    sim.add_hook(profiler)
    ACTIVE = profiler
    return profiler


def detach(sim: Simulator) -> Optional[Profiler]:
    """Undo :func:`install`: remove the profiler's hook (other hooks stay
    installed) and clear ACTIVE.  Returns the profiler, or None."""
    global ACTIVE
    for hook in sim._hooks:
        if isinstance(hook, Profiler):
            sim.remove_hook(hook)
            if ACTIVE is hook:
                ACTIVE = None
            return hook
    return None
