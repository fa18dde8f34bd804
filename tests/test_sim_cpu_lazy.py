"""The event-driven CPU model against the polling reference model.

``CpuModel`` ticks only while discrete tasks are queued and settles
fluid-only quanta in lazy batches; ``PollingCpuModel`` (polling_cpu.py)
ticks every quantum.  Seeded random scenarios drive both through the same
operations and must give identical task completions, served-rate reads
and utilization series, float for float.  Random times never land on the
quantum grid; the grid-tie tests at the end cover operations that do.
"""

import random

import pytest
from helpers import build_site
from polling_cpu import PollingCpuModel

from repro.sim import CpuModel, Monitor, Simulator

CLASSES = ("cp", "up", "bg")
PARTITIONS = (None, {"cp": 1, "up": 1, "bg": 0.5}, {"cp": 1, "up": 2.5, "bg": 0})


def _series_dump(monitor):
    return {name: (list(monitor.series(name).times),
                   list(monitor.series(name).values),
                   monitor.series(name).count,
                   monitor.series(name).total())
            for name in sorted(monitor.names())}


def _plan(seed):
    """A random scenario: CPU shape plus timed operations."""
    rng = random.Random(seed)
    shape = {"cores": rng.choice((1, 2, 4)) if seed % 3 == 0 else 4,
             "quantum": rng.choice((0.05, 0.1, 0.03)),
             "partition": PARTITIONS[seed % 3]}
    q = shape["quantum"]
    ops = []
    t = rng.uniform(0.0, 0.2)
    stop_at = rng.uniform(2.0, 5.0) if seed % 4 == 3 else None
    while t < 6.0:
        kind = rng.choices(("submit", "fluid", "pulse", "read", "monitor",
                            "gap"), weights=(3, 3, 2, 3, 2, 1))[0]
        cls = rng.choice(CLASSES)
        if kind == "submit":
            if shape["partition"] and not shape["partition"][cls]:
                cls = "cp"  # a class without cores would never drain
            for _ in range(rng.randint(1, 3)):
                ops.append((t, "submit", cls, rng.uniform(0.005, 0.3)))
        elif kind == "fluid":
            rate = 0.0 if rng.random() < 0.3 else rng.uniform(0.05, 3.0)
            ops.append((t, "fluid", cls, rng.choice("ab"), rate))
        elif kind == "pulse":
            # Set and cleared again inside one quantum.
            source = rng.choice("ab")
            ops.append((t, "fluid", cls, source, rng.uniform(0.05, 3.0)))
            ops.append((t + rng.uniform(0.0, 0.9 * q), "fluid", cls,
                        source, 0.0))
        elif kind == "read":
            ops.append((t, "read", cls))
        elif kind == "monitor":
            ops.append((t, "monitor"))
        else:
            t += rng.uniform(1.0, 3.0)  # a long quiet spell
        t += rng.expovariate(4.0)
    if stop_at is not None:
        ops.append((stop_at, "stop"))
    # Clear every fluid source at the end, so a drain ends at the grid
    # point where the model goes idle.
    ops.extend((6.5, "fluid", cls, source, 0.0)
               for cls in CLASSES for source in "ab")
    return shape, sorted(ops, key=lambda op: op[0])


def _drive(model_cls, shape, ops):
    sim = Simulator()
    monitor = Monitor()
    cpu = model_cls(sim, monitor=monitor, name="x", **shape)
    log = []

    def run_op(op):
        kind = op[1]
        if kind == "submit":
            done = cpu.submit(op[2], op[3])
            tag = len(log)
            done.add_callback(
                lambda ev, tag=tag: log.append(("done", tag, sim.now,
                                                ev.value)))
            log.append(("submitted", sim.now))
        elif kind == "fluid":
            cpu.set_fluid_demand(op[2], op[3], op[4])
        elif kind == "read":
            cls = op[2]
            log.append(("read", sim.now, cpu.fluid_served_rate(cls),
                        cpu.fluid_service_fraction(cls), cpu.queue_depth(cls),
                        cpu.queued_work(cls)))
        elif kind == "monitor":
            log.append(("monitor", sim.now, sorted(monitor.names()),
                        [(len(monitor.series(n)), monitor.series(n).last())
                         for n in sorted(monitor.names())
                         if monitor.series(n).count]))
        elif kind == "stop":
            cpu.stop()

    for op in ops:
        sim.call_later(op[0], run_op, op)
    sim.run(until=3.3)          # a read between grid points, mid-run
    log.append(("mid", _series_dump(monitor)))
    sim.run()
    return log, _series_dump(monitor), sim.now


@pytest.mark.parametrize("seed", range(48))
def test_event_driven_model_matches_polling_model(seed):
    shape, ops = _plan(seed)
    assert _drive(CpuModel, shape, ops) == _drive(PollingCpuModel, shape, ops)


def _pair(**shape):
    models = []
    for cls in (CpuModel, PollingCpuModel):
        sim = Simulator()
        monitor = Monitor()
        models.append((sim, monitor, cls(sim, monitor=monitor, name="x",
                                         **shape)))
    return models


def test_fluid_only_load_schedules_no_events():
    sim = Simulator()
    cpu = CpuModel(sim, cores=2, quantum=0.05, monitor=Monitor())
    # The first quantum of simulated time always ticks (see _must_tick).
    cpu.set_fluid_demand("up", "traffic", 1.5)
    assert sim.pending == 1
    sim.run(until=0.07)
    assert sim.pending == 0
    cpu.set_fluid_demand("up", "traffic", 1.2)
    assert sim.pending == 0
    sim.run(until=30.0)
    assert sim.pending == 0
    assert cpu.fluid_served_rate("up") == pytest.approx(1.2)
    # A task wakes the tick chain; once it is served the chain stops again.
    cpu.submit("cp", 0.2)
    assert sim.pending == 1
    sim.run(until=31.0)
    assert sim.pending == 0


def test_stop_while_dormant_ends_the_grid():
    results = []
    for sim, monitor, cpu in _pair(cores=2, quantum=0.05):
        cpu.set_fluid_demand("up", "traffic", 1.0)
        sim.run(until=1.234)
        cpu.stop()
        sim.run(until=5.0)
        cpu.set_fluid_demand("up", "traffic", 0.5)
        done = cpu.submit("cp", 0.1)
        sim.run(until=6.0)
        results.append((_series_dump(monitor), done.triggered,
                        cpu.fluid_served_rate("up"), sim.pending))
    assert results[0] == results[1]
    assert results[0][0]["cpu.x.util"][0][-1] < 1.234
    assert not results[0][1]


def test_stop_drops_the_monitor_catch_up():
    monitor = Monitor()
    cpu = CpuModel(Simulator(), cores=1, monitor=monitor, name="x")
    assert monitor._catch_ups == {"cpu.x.util": [cpu._settle]}
    cpu.stop()
    cpu.stop()
    assert monitor._catch_ups == {}


def test_cleared_fluid_drains_at_the_idle_grid_point():
    ends = []
    for sim, monitor, cpu in _pair(cores=1, quantum=0.05):
        cpu.set_fluid_demand("up", "traffic", 0.7)
        sim.call_later(2.0123, cpu.set_fluid_demand, "up", "traffic", 0.0)
        ends.append((sim.run(), _series_dump(monitor)))
    assert ends[0] == ends[1]
    assert ends[0][1]["cpu.x.util"][1][-1] == 0.0


def test_gateway_cpu_util_during_fluid_only_interval():
    """``metrics_summary()["cpu_util"]`` feeds magmad check-ins and the
    health engine's CPU headroom; it must read the quanta settled up to
    ``sim.now`` while the AGW CPU holds only fluid load."""
    site = build_site(num_enbs=1, num_ues=0)
    sim = site.sim
    cpu = site.agw.context.cpu
    sim.run(until=sim.now + 5.0)     # let set-up work drain
    oracle_sim = Simulator()
    oracle_monitor = Monitor()
    oracle = PollingCpuModel(oracle_sim, cores=cpu.cores,
                             quantum=cpu.quantum, partition=cpu.partition,
                             monitor=oracle_monitor, name="x")
    cpu.set_fluid_demand("up", "bench", 1.3)
    oracle.set_fluid_demand("up", "bench", 1.3)
    start = sim.now
    sim.run(until=start + 2.0 + 0.3 * cpu.quantum)
    oracle_sim.run(until=2.0 + 0.3 * cpu.quantum)
    expected = oracle_monitor.series("cpu.x.util").last()
    assert expected > 0.0
    assert site.agw.metrics_summary()["cpu_util"] == expected
    util = site.monitor.series(f"cpu.{site.agw.node}.util")
    assert sim.now - cpu.quantum < util.times[-1] <= sim.now
    assert site.agw.context.cpu.fluid_served_rate("up") \
        == oracle.fluid_served_rate("up")


def _grid_step_log(model_cls, seed):
    """A process that acts exactly on the quantum grid, every quantum."""
    rng = random.Random(seed)
    sim = Simulator()
    monitor = Monitor()
    cpu = model_cls(sim, cores=2, quantum=0.05, monitor=monitor, name="x")
    log = []

    def step():
        kind = rng.choice(("submit", "fluid", "read", "none"))
        if kind == "submit":
            done = cpu.submit("cp", rng.uniform(0.005, 0.12))
            done.add_callback(lambda ev: log.append(("done", sim.now,
                                                     ev.value)))
        elif kind == "fluid":
            cpu.set_fluid_demand("up", "a", rng.choice((0.0, 0.6, 1.7)))
        elif kind == "read":
            log.append(("read", sim.now, cpu.fluid_served_rate("up"),
                        monitor.series("cpu.x.util").last()))
        if sim.now < 4.0:
            sim.call_later(0.05, step)

    cpu.set_fluid_demand("up", "a", 0.8)
    # Scheduled after the first quantum's tick, so at every grid point the
    # step runs after that quantum's tick under polling.
    sim.call_later(0.05, step)
    sim.run(until=4.5)
    cpu.set_fluid_demand("up", "a", 0.0)
    sim.run()
    return log, _series_dump(monitor), sim.now


@pytest.mark.parametrize("seed", range(6))
def test_grid_ties_scheduled_after_the_previous_quantum_match_polling(seed):
    assert _grid_step_log(CpuModel, seed) \
        == _grid_step_log(PollingCpuModel, seed)


def test_grid_tie_scheduled_earlier_takes_effect_one_quantum_later():
    """The one documented divergence (module docstring of sim/cpu.py): an
    operation landing exactly on a skipped grid point, from an event
    scheduled before the quantum preceding it was served, runs before that
    quantum under polling and after it in the event-driven model."""
    results = []
    for sim, monitor, cpu in _pair(cores=2, quantum=0.05):
        cpu.set_fluid_demand("up", "a", 0.5)
        done = []
        # 0.05 + 0.05 == 0.1: the second grid point, scheduled at t=0.
        sim.call_later(0.1, lambda: cpu.submit("cp", 0.01).add_callback(
            lambda ev: done.append((sim.now, ev.value))))
        sim.run(until=1.0)
        results.append(done)
    event_driven, polling = results
    assert polling == [(0.1, pytest.approx(0.05))]
    assert event_driven == [(0.15000000000000002, pytest.approx(0.1))]
