"""Quantized multi-core CPU model.

The paper's performance results (Figs. 5-8) are all about contention between
*control-plane* work (discrete tasks: processing an attach request, including
authentication crypto) and *user-plane* work (a fluid load: forwarding UE
traffic) on a small number of commodity cores.  This module models exactly
that contention.

Model
-----
- The CPU has ``cores`` cores and serves work on a grid of fixed quanta
  (default 50 ms).
- **Discrete tasks** (:meth:`CpuModel.submit`) carry a service demand in
  core-seconds and belong to a named class (e.g. ``"cp"``).  Tasks are served
  FIFO within their class; at most one core serves a task at a time (an
  attach cannot be parallelized), so a class with *n* cores serves at most
  *n* tasks concurrently.
- **Fluid demand** (:meth:`CpuModel.set_fluid_demand`) models packet
  forwarding: a continuous work *rate* in core-seconds per second.  The model
  reports how much of that rate was actually served each quantum, from which
  the caller derives achieved throughput.
- **Scheduling**: with ``partition=None`` (the "flexible" kernel scheduler of
  Figs. 7-8), all classes share every core and contend via processor sharing.
  With a static partition (``{"up": 3, "cp": 1}``), each class may only use
  its own cores and excess capacity in one pool is *not* available to the
  other - reproducing the trade-off the paper measures.

Event-driven quanta
-------------------
The model ticks (one kernel event per quantum) only while discrete tasks
are queued.  While it holds only fluid load, every quantum serves the same
demands, so it schedules nothing and keeps its place on the quantum grid as
one float, the time of the next quantum.  The skipped quanta are settled
lazily, as one batch, at the next :meth:`~CpuModel.submit`,
:meth:`~CpuModel.set_fluid_demand`, served-rate read, :meth:`~CpuModel.stop`
or read of its utilization series.  The batch walks the grid with the same
float additions a tick chain would make, so task completions, served rates
and utilization samples equal those of a model that polls every quantum
(the first quantum of simulated time always ticks for real; see
``CpuModel._must_tick``).  When neither tasks nor fluid remain, one last
tick runs at the next grid point and the grid ends there; the next piece
of work starts a new grid one quantum after it arrives.

Ties are the one exception.  A skipped quantum due exactly at ``sim.now``
(the same float) counts as already run.  A polling model scheduled that
quantum's tick while serving the one before it, so an operation landing on
the same float from an event scheduled *earlier* than that ran before the
tick: for example ``call_later(0.1, cpu.submit, ...)`` issued at t=0 with
fluid load set, where the grid is 0.05, 0.1, ...  Here such an operation
takes effect one quantum later than under polling.  An operation scheduled
after the preceding quantum was served ties the same way in both models.
The kernel keeps no record of when an event was scheduled, so the model
cannot tell the two apart; the figure experiments and the benchmark
workloads contain no such tie (DESIGN.md §6.4).

Utilization per quantum is recorded into an optional
:class:`~repro.sim.monitor.Monitor` as ``cpu.<name>.util`` (total, fraction
of all cores) and ``cpu.<name>.util.<class>``; the model registers its
batch settling as the catch-up for those series, so a reader sees every
sample up to ``sim.now``.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from .fairshare import max_min_share
from .kernel import Event, Simulator
from .monitor import Monitor

DEFAULT_QUANTUM = 0.05


class CpuTask:
    """A queued discrete task; ``done`` triggers when fully served."""

    __slots__ = ("cls", "demand", "remaining", "enqueued_at", "done")

    def __init__(self, cls: str, demand: float, enqueued_at: float, done: Event):
        self.cls = cls
        self.demand = demand
        self.remaining = demand
        self.enqueued_at = enqueued_at
        self.done = done


class _Pool:
    """A set of cores serving one or more classes."""

    __slots__ = ("cores", "classes")

    def __init__(self, cores: float, classes: Tuple[str, ...]):
        self.cores = cores
        self.classes = classes


class CpuModel:
    """A quantized processor-sharing model of a small multi-core CPU."""

    def __init__(
        self,
        sim: Simulator,
        cores: float,
        quantum: float = DEFAULT_QUANTUM,
        partition: Optional[Dict[str, float]] = None,
        monitor: Optional[Monitor] = None,
        name: str = "cpu",
    ):
        if cores <= 0:
            raise ValueError("cores must be positive")
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        if partition is not None:
            total = sum(partition.values())
            if total - cores > 1e-9:
                raise ValueError(f"partition uses {total} cores but CPU has {cores}")
            if any(v < 0 for v in partition.values()):
                raise ValueError("partition core counts must be >= 0")
        self.sim = sim
        self.cores = float(cores)
        self.quantum = quantum
        self.partition = dict(partition) if partition else None
        self.monitor = monitor
        self.name = name
        self._queues: Dict[str, Deque[CpuTask]] = {}
        self._fluid: Dict[str, Dict[str, float]] = {}  # cls -> source -> rate
        self._fluid_served_rate: Dict[str, float] = {}  # cls -> core-sec/s last quantum
        self._queued_work: Dict[str, float] = {}
        # The quantum grid: ``_next`` is the time of the next quantum to
        # serve, None while idle.  With ``_armed`` a real ``_tick`` is
        # scheduled at ``_next``; without it the CPU holds only fluid load
        # and ``_settle`` serves the due quanta in one batch.
        self._next: Optional[float] = None
        self._armed = False
        self._stopped = False
        if monitor is not None:
            monitor.add_catch_up(f"cpu.{name}.util", self._settle)

    # -- public API ---------------------------------------------------------

    def submit(self, cls: str, demand: float) -> Event:
        """Enqueue a discrete task; the returned event fires on completion.

        The event value is the task's total sojourn time (queueing +
        service), which experiments use to detect deadline misses.
        """
        if demand <= 0:
            raise ValueError("task demand must be positive")
        self._settle()
        done = self.sim.event(f"{self.name}.task.{cls}")
        task = CpuTask(cls, demand, self.sim.now, done)
        self._queues.setdefault(cls, deque()).append(task)
        self._queued_work[cls] = self._queued_work.get(cls, 0.0) + demand
        self._wake()
        return done

    def set_fluid_demand(self, cls: str, source: str, rate: float) -> None:
        """Set the continuous work rate (core-sec/s) offered by ``source``."""
        if rate < 0:
            raise ValueError("fluid rate must be >= 0")
        self._settle()
        per_source = self._fluid.setdefault(cls, {})
        if rate == 0.0:
            per_source.pop(source, None)
        else:
            per_source[source] = rate
        self._wake()

    def fluid_demand(self, cls: str) -> float:
        return sum(self._fluid.get(cls, {}).values())

    def fluid_served_rate(self, cls: str) -> float:
        """Core-sec/s actually delivered to ``cls`` fluid in the last quantum."""
        self._settle()
        return self._fluid_served_rate.get(cls, 0.0)

    def fluid_service_fraction(self, cls: str) -> float:
        """Fraction of offered fluid demand served in the last quantum."""
        demand = self.fluid_demand(cls)
        if demand <= 0:
            return 1.0
        return min(1.0, self.fluid_served_rate(cls) / demand)

    def queue_depth(self, cls: str) -> int:
        return len(self._queues.get(cls, ()))

    def queued_work(self, cls: str) -> float:
        """Outstanding core-seconds of discrete work for ``cls``."""
        return self._queued_work.get(cls, 0.0)

    def stop(self) -> None:
        """Stop ticking and drop the monitor catch-up (used when tearing
        down an experiment)."""
        self._settle()
        self._stopped = True
        if not self._armed:
            self._next = None
        if self.monitor is not None:
            self.monitor.remove_catch_up(f"cpu.{self.name}.util", self._settle)

    # -- internals -----------------------------------------------------------

    def _has_tasks(self) -> bool:
        return any(self._queues.values())

    def _has_fluid(self) -> bool:
        return any(self._fluid.values())

    def _must_tick(self, now: float) -> bool:
        """Whether the quantum after ``now`` needs a real tick.

        Tasks need one, and so does the last, idle-detecting quantum once
        no fluid is left.  Fluid alone goes dormant, but only from one
        quantum of simulated time on: then ``now >= _next / 2`` at every
        later wake-up, so ``_next - now`` is exact (Sterbenz) and the woken
        tick lands on the grid float itself.
        """
        return self._has_tasks() or not self._has_fluid() or now < self.quantum

    def _wake(self) -> None:
        if self._stopped or self._armed:
            return
        now = self.sim.now
        if self._next is None:
            self._next = now + self.quantum
            delay = self.quantum
        else:
            delay = self._next - now
        if self._must_tick(now):
            self._armed = True
            self.sim.call_later(delay, self._tick)

    def _pools(self) -> Iterable[_Pool]:
        if self.partition is None:
            classes = set(self._queues) | set(self._fluid)
            yield _Pool(self.cores, tuple(sorted(classes)))
        else:
            for cls, cores in self.partition.items():
                yield _Pool(cores, (cls,))

    def _tick(self) -> None:
        # ``_armed`` stays set while the quantum is served, so a reader
        # running inside it finds nothing to settle.
        if self._stopped:
            self._armed = False
            self._next = None
            return
        now = self.sim.now
        self._record(self._serve(), (now,))
        dt = self.quantum
        if not (self._has_tasks() or self._has_fluid()):
            self._armed = False
            self._next = None
            self._fluid_served_rate.clear()
            return
        self._next = now + dt
        if self._must_tick(now):
            self.sim.call_later(dt, self._tick)
        else:
            self._armed = False

    def _settle(self) -> None:
        """Serve the fluid-only quanta due by ``sim.now`` in one batch.

        Dormant means no tasks and constant fluid demand, so every due
        quantum serves the same amounts: one evaluation covers the batch.
        """
        nxt = self._next
        if self._armed or nxt is None:
            return
        now = self.sim.now
        if nxt > now:
            return
        dt = self.quantum
        times: List[float] = []
        # ``<=``: a quantum due at ``now`` counts as already run (the tie
        # rule in the module docstring).
        while nxt <= now:
            times.append(nxt)
            nxt += dt
        self._next = nxt
        self._record(self._serve(), times)

    def _serve(self) -> Dict[str, float]:
        """Serve one quantum; returns the core-seconds served per class."""
        served_by_class: Dict[str, float] = {}
        for pool in self._pools():
            self._serve_pool(pool, self.quantum, served_by_class)
        return served_by_class

    def _record(self, served_by_class: Dict[str, float],
                times: Sequence[float]) -> None:
        monitor = self.monitor
        if monitor is None:
            return
        capacity = self.cores * self.quantum
        samples = [(f"cpu.{self.name}.util",
                    sum(served_by_class.values()) / capacity)]
        samples.extend((f"cpu.{self.name}.util.{cls}", served / capacity)
                       for cls, served in served_by_class.items())
        for name, value in samples:
            for t in times:
                monitor.record(name, t, value)

    def _serve_pool(self, pool: _Pool, dt: float, served_by_class: Dict[str, float]) -> None:
        capacity = pool.cores * dt
        if capacity <= 0:
            for cls in pool.classes:
                if self._fluid.get(cls):
                    self._fluid_served_rate[cls] = 0.0
            return
        max_parallel = max(1, int(pool.cores))
        # Gather demands: per class, discrete task slice + fluid slice.
        slices: Dict[str, float] = {}
        runnable: Dict[str, list] = {}
        fluid_need: Dict[str, float] = {}
        for cls in pool.classes:
            queue = self._queues.get(cls)
            tasks = list(islice(queue, max_parallel)) if queue else []
            runnable[cls] = tasks
            discrete_need = sum(min(t.remaining, dt) for t in tasks)
            fneed = self.fluid_demand(cls) * dt
            fluid_need[cls] = fneed
            slices[cls] = discrete_need + fneed
        total_need = sum(slices.values())
        if total_need <= 0:
            for cls in pool.classes:
                if self._fluid.get(cls):
                    self._fluid_served_rate[cls] = 0.0
            return
        # Between classes: max-min fair (a work-conserving kernel scheduler
        # gives a light class its full demand; heavy classes split the rest).
        # Within a class: proportional among runnable tasks and fluid load.
        grants = max_min_share(slices, capacity)
        for cls in pool.classes:
            need = slices[cls]
            scale = min(1.0, grants.get(cls, 0.0) / need) if need > 0 else 0.0
            served_cls = 0.0
            # Discrete tasks: each runnable task receives its scaled slice.
            queue = self._queues.get(cls)
            for task in runnable[cls]:
                grant = min(task.remaining, dt) * scale
                task.remaining -= grant
                served_cls += grant
                self._queued_work[cls] = max(0.0, self._queued_work.get(cls, 0.0) - grant)
                if task.remaining <= 1e-12:
                    queue.remove(task)
                    if not task.done.triggered:
                        sojourn = self.sim.now + dt - task.enqueued_at
                        task.done.succeed(sojourn)
            # Fluid load.
            fgrant = fluid_need[cls] * scale
            served_cls += fgrant
            if self._fluid.get(cls) or fluid_need[cls] > 0:
                self._fluid_served_rate[cls] = fgrant / dt
            served_by_class[cls] = served_by_class.get(cls, 0.0) + served_cls

