"""Self-profiler: accounting, layer naming, hook wiring, and parity.

The profiler may never perturb the simulation: a profiled run must
observe the exact same event order and final clock as a plain one, and
the disabled path must leave the Simulator class untouched.
"""

import functools

import pytest

from repro.core.agw import AccessGateway, AgwConfig
from repro.core.orchestrator import Orchestrator
from repro.net import Network, backhaul
from repro.net.rpc import payload_bytes
from repro.obs import profiler
from repro.obs.flightrec import FlightRecorder
from repro.obs.profiler import Profiler, detach, install
from repro.sim import CpuModel, RngRegistry, SimSan, Simulator
from repro.sim.kernel import HookedSimulator

from helpers import build_site


@pytest.fixture(autouse=True)
def _no_leaked_active():
    assert profiler.ACTIVE is None
    yield
    profiler.ACTIVE = None


def churn(sim, fired, n=200):
    """A deterministic workload touching near and far timers."""
    for i in range(n):
        sim.call_later(0.01 * i, fired.append, i)
        sim.call_later(50.0 + 0.01 * i, fired.append, n + i)
    sim.run()
    return sim.now


# -- accounting --------------------------------------------------------------------


def test_self_time_and_flame_paths():
    prof = Profiler()
    prof.push("sim.kernel")
    prof.push("net.simnet")
    prof.push("rpc.call")
    prof.pop()
    prof.pop()
    prof.pop()
    assert set(prof.self_s) == {
        "sim.kernel", "sim.kernel;net.simnet",
        "sim.kernel;net.simnet;rpc.call"}
    assert prof.calls["sim.kernel;net.simnet;rpc.call"] == 1
    report = prof.report()
    assert set(report["subsystems"]) == \
        {"sim.kernel", "net.simnet", "rpc.call"}
    shares = sum(row["share"] for row in report["subsystems"].values())
    assert shares == pytest.approx(1.0)
    assert all(row["self_s"] >= 0.0
               for row in report["subsystems"].values())


def test_subsystems_aggregate_by_leaf_across_parents():
    prof = Profiler()
    for parent in ("net.simnet", "workloads.fleet"):
        prof.push(parent)
        prof.push("rpc.serialize")
        prof.pop()
        prof.pop()
    agg = prof.subsystems()
    assert agg["rpc.serialize"]["calls"] == 2


def test_reset_clears_everything():
    prof = Profiler()
    prof.push("a")
    prof.pop()
    prof.reset()
    assert prof.self_s == {} and prof.calls == {}
    assert prof.report()["total_s"] == 0.0


# -- layer naming ------------------------------------------------------------------


def _plain_callback():
    pass


def _procedure(sim):
    yield sim.timeout(1.0)


def test_layer_of_names_the_owner_module():
    sim = Simulator()
    prof = Profiler()
    cpu = CpuModel(sim, cores=1)
    assert prof.layer_of(cpu._tick) == "sim.cpu"
    periodic = sim.schedule_periodic(1.0, cpu._tick)
    assert prof.layer_of(periodic._fire) == "sim.cpu"
    assert prof.layer_of(functools.partial(cpu._tick)) == "sim.cpu"
    assert prof.layer_of(sim.timeout(1.0)._fire) == "sim.kernel"
    proc = sim.spawn(_procedure(sim))
    assert prof.layer_of(proc._resume) == __name__
    assert prof.layer_of(_plain_callback) == __name__

    def moduleless():
        pass

    moduleless.__module__ = None
    assert prof.layer_of(moduleless) == "unattributed"


# -- install/detach wiring ---------------------------------------------------------


def test_install_swaps_class_and_detach_restores():
    sim = Simulator()
    prof = install(sim)
    assert type(sim) is HookedSimulator
    assert profiler.ACTIVE is prof
    assert detach(sim) is prof
    assert type(sim) is Simulator
    assert profiler.ACTIVE is None
    assert detach(sim) is None  # idempotent on a plain sim


def test_install_refuses_second_profiler():
    sim = Simulator()
    install(sim)
    try:
        with pytest.raises(ValueError):
            install(Simulator())
    finally:
        detach(sim)


def test_detach_keeps_the_sanitizer_installed():
    san = SimSan()
    sim = Simulator(sanitizer=san)
    prof = install(sim)
    assert sim._hooks == (san, prof)
    assert detach(sim) is prof
    assert type(sim) is HookedSimulator
    assert sim._hooks == (san,)
    handle = sim.schedule(1.0, lambda: None)
    handle.release()
    handle.release()
    assert not san.ok  # still checking


def test_disabled_path_leaves_class_untouched():
    sim = Simulator()
    fired = []
    churn(sim, fired, n=20)
    assert type(sim) is Simulator
    assert profiler.ACTIVE is None


# -- parity ------------------------------------------------------------------------


def test_profiled_run_observes_identical_event_order():
    plain_fired, prof_fired = [], []
    plain_end = churn(Simulator(), plain_fired)
    sim = Simulator()
    prof = install(sim)
    try:
        prof_end = churn(sim, prof_fired)
    finally:
        detach(sim)
    assert prof_fired == plain_fired
    assert prof_end == plain_end
    report = prof.report()
    assert "sim.kernel" in report["subsystems"]
    # Every callback is ``list.append``, whose owner's module is builtins.
    assert report["subsystems"]["builtins"]["calls"] == 400


def _attach_storm(sanitizer=None, tools=False):
    site = build_site(num_enbs=2, num_ues=8, seed=5, sanitizer=sanitizer)
    sim = site.sim
    recorder = FlightRecorder(sim) if tools else None
    prof = install(sim) if tools else None
    log = []
    try:
        for i, ue in enumerate(site.ues):
            ue.attach().add_callback(
                lambda ev, i=i: log.append((i, sim.now, ev.value.success)))
        sim.run(until=sim.now + 30.0)
        hooked = type(sim) is HookedSimulator
    finally:
        if prof is not None:
            detach(sim)
    return sim, log, prof, recorder, hooked


def test_sanitizer_profiler_and_recorder_run_together():
    plain, plain_log, _, _, hooked = _attach_storm()
    assert not hooked
    san = SimSan()
    sim, log, prof, recorder, hooked = _attach_storm(san, tools=True)
    assert hooked
    assert log == plain_log
    assert len(log) == 8 and all(success for _, _, success in log)
    assert sim.now == plain.now
    assert san.ok
    assert recorder.stats["records"] > 0  # SimSan's schedule breadcrumbs
    subsystems = prof.report()["subsystems"]
    # MME procedures run as spawned processes, named by their generator.
    assert subsystems["core.agw.mme"]["calls"] > 0
    assert "rpc.call" in subsystems


# -- subsystem hooks ---------------------------------------------------------------


def test_rpc_handler_work_is_charged_to_its_owner():
    sim = Simulator()
    rng = RngRegistry(1)
    network = Network(sim, rng)
    Orchestrator(sim, network, "orc")
    network.connect("agw-1", "orc", backhaul.by_name("fiber"))
    agw = AccessGateway(sim, network, "agw-1",
                        config=AgwConfig(checkin_interval=5.0),
                        orchestrator_node="orc", rng=rng)
    agw.start()
    prof = install(sim)
    try:
        sim.run(until=12.0)
    finally:
        detach(sim)
    assert agw.magmad.stats["checkins_ok"] >= 1
    # The check-in handler runs inside the datagram delivery callback but
    # is charged to the orchestrator that registered it.
    handler = "sim.kernel;net.simnet;core.orchestrator.orchestrator"
    assert prof.calls[handler] >= 1


def test_rpc_serialize_hook_counts_only_when_active():
    message = {"imsi": "001010000000001", "bearers": [1, 2, 3]}
    baseline = payload_bytes(message)
    prof = Profiler()
    profiler.ACTIVE = prof
    try:
        assert payload_bytes(message) == baseline
    finally:
        profiler.ACTIVE = None
    assert prof.subsystems()["rpc.serialize"]["calls"] == 1
    # And with the profiler gone the hook goes quiet again.
    payload_bytes(message)
    assert prof.subsystems()["rpc.serialize"]["calls"] == 1


def test_digest_hash_hook_attributes_to_sync():
    from repro.core.sync.digest import entry_digest

    value = {"imsi": "001010000000001", "state": "ACTIVE"}
    baseline = entry_digest("k", value)
    prof = Profiler()
    profiler.ACTIVE = prof
    try:
        assert entry_digest("k", value) == baseline
    finally:
        profiler.ACTIVE = None
    assert prof.subsystems()["sync.digest_hash"]["calls"] == 1
