"""Reference CPU model for differential tests: ticks every quantum.

A verbatim copy of the quantum loop :class:`repro.sim.cpu.CpuModel` ran
before it became event-driven: one kernel event per quantum whenever any
task or fluid load is set.  The event-driven model must match it in every
task completion, served-rate read and utilization sample, apart from the
grid ties that the sim/cpu.py docstring describes
(tests/test_sim_cpu_lazy.py drives both through the same scenarios).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, Optional

from repro.sim import Event, Monitor, Simulator
from repro.sim.cpu import DEFAULT_QUANTUM, CpuTask, _Pool
from repro.sim.fairshare import max_min_share


class PollingCpuModel:
    """The polling oracle; same public API as ``CpuModel``."""

    def __init__(self, sim: Simulator, cores: float,
                 quantum: float = DEFAULT_QUANTUM,
                 partition: Optional[Dict[str, float]] = None,
                 monitor: Optional[Monitor] = None, name: str = "cpu"):
        self.sim = sim
        self.cores = float(cores)
        self.quantum = quantum
        self.partition = dict(partition) if partition else None
        self.monitor = monitor
        self.name = name
        self._queues: Dict[str, Deque[CpuTask]] = {}
        self._fluid: Dict[str, Dict[str, float]] = {}
        self._fluid_served_rate: Dict[str, float] = {}
        self._queued_work: Dict[str, float] = {}
        self._ticking = False
        self._stopped = False

    def submit(self, cls: str, demand: float) -> Event:
        done = self.sim.event(f"{self.name}.task.{cls}")
        task = CpuTask(cls, demand, self.sim.now, done)
        self._queues.setdefault(cls, deque()).append(task)
        self._queued_work[cls] = self._queued_work.get(cls, 0.0) + demand
        self._ensure_ticking()
        return done

    def set_fluid_demand(self, cls: str, source: str, rate: float) -> None:
        per_source = self._fluid.setdefault(cls, {})
        if rate == 0.0:
            per_source.pop(source, None)
        else:
            per_source[source] = rate
        self._ensure_ticking()

    def fluid_demand(self, cls: str) -> float:
        return sum(self._fluid.get(cls, {}).values())

    def fluid_served_rate(self, cls: str) -> float:
        return self._fluid_served_rate.get(cls, 0.0)

    def fluid_service_fraction(self, cls: str) -> float:
        demand = self.fluid_demand(cls)
        if demand <= 0:
            return 1.0
        return min(1.0, self.fluid_served_rate(cls) / demand)

    def queue_depth(self, cls: str) -> int:
        return len(self._queues.get(cls, ()))

    def queued_work(self, cls: str) -> float:
        return self._queued_work.get(cls, 0.0)

    def stop(self) -> None:
        self._stopped = True

    def _ensure_ticking(self) -> None:
        if not self._ticking and not self._stopped:
            self._ticking = True
            self.sim.call_later(self.quantum, self._tick)

    def _pools(self) -> Iterable[_Pool]:
        if self.partition is None:
            classes = set(self._queues) | set(self._fluid)
            yield _Pool(self.cores, tuple(sorted(classes)))
        else:
            for cls, cores in self.partition.items():
                yield _Pool(cores, (cls,))

    def _tick(self) -> None:
        if self._stopped:
            self._ticking = False
            return
        dt = self.quantum
        served_by_class: Dict[str, float] = {}
        for pool in self._pools():
            self._serve_pool(pool, dt, served_by_class)
        total_served = sum(served_by_class.values())
        if self.monitor is not None:
            self.monitor.record(f"cpu.{self.name}.util", self.sim.now,
                                total_served / (self.cores * dt))
            for cls, served in served_by_class.items():
                self.monitor.record(f"cpu.{self.name}.util.{cls}", self.sim.now,
                                    served / (self.cores * dt))
        if any(self._queues.get(c) for c in self._queues) or any(
            self._fluid.get(c) for c in self._fluid
        ):
            self.sim.call_later(dt, self._tick)
        else:
            self._ticking = False
            self._fluid_served_rate.clear()

    def _serve_pool(self, pool: _Pool, dt: float,
                    served_by_class: Dict[str, float]) -> None:
        capacity = pool.cores * dt
        if capacity <= 0:
            for cls in pool.classes:
                if self._fluid.get(cls):
                    self._fluid_served_rate[cls] = 0.0
            return
        max_parallel = max(1, int(pool.cores))
        slices: Dict[str, float] = {}
        runnable: Dict[str, list] = {}
        fluid_need: Dict[str, float] = {}
        for cls in pool.classes:
            queue = self._queues.get(cls)
            tasks = []
            if queue:
                for task in list(queue)[:max_parallel]:
                    tasks.append(task)
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
        grants = max_min_share(slices, capacity)
        for cls in pool.classes:
            need = slices[cls]
            scale = min(1.0, grants.get(cls, 0.0) / need) if need > 0 else 0.0
            served_cls = 0.0
            queue = self._queues.get(cls)
            for task in runnable[cls]:
                grant = min(task.remaining, dt) * scale
                task.remaining -= grant
                served_cls += grant
                self._queued_work[cls] = max(
                    0.0, self._queued_work.get(cls, 0.0) - grant)
                if task.remaining <= 1e-12:
                    queue.remove(task)
                    if not task.done.triggered:
                        sojourn = self.sim.now + dt - task.enqueued_at
                        task.done.succeed(sojourn)
            fgrant = fluid_need[cls] * scale
            served_cls += fgrant
            if self._fluid.get(cls) or fluid_need[cls] > 0:
                self._fluid_served_rate[cls] = fgrant / dt
            served_by_class[cls] = served_by_class.get(cls, 0.0) + served_cls
