"""The benchmark's three workloads, driven through the program's public API.

Each workload function runs one *repetition*: it builds its inputs from
the seed (set-up), runs a fixed amount of closed-loop work from a single
caller (the timed phase), then checks the program's outputs.  A
repetition is deterministic for a given seed and size, so its canaries
must repeat exactly, however many repetitions a run makes.

``make_sim`` builds the kernel: the plain ``Simulator`` for the measured
runs, or ``spans.TracedSimulator`` for the traced run.
"""

from __future__ import annotations

import gc
import random
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.core.agw import (
    VIRTUAL_8VCPU,
    AccessGateway,
    AgwConfig,
    AgwContext,
    Pipelined,
    SubscriberProfile,
)
from repro.core.orchestrator import ConfigStore
from repro.core.orchestrator.statesync import StateSync
from repro.core.sync import DigestIndex, DigestMirror, ReconcileClient
from repro.dataplane.packet import GtpuHeader, ip_packet
from repro.experiments.common import subscriber_keys
from repro.lte import Enodeb, Ue, make_imsi
from repro.net import Network, backhaul
from repro.sim import Monitor, RngRegistry, Simulator
from repro.workloads.fleet import AgwFleetAdapter, CohortSpec, UeFleet

# Per-UE dynamics of the committed fleet bench leg (per-second rates).
ATTACH_RATE = 0.01
DETACH_RATE = 0.002
IDLE_RATE = 0.005
RESUME_RATE = 0.02
TRAFFIC_MBPS = 0.01
FLEET_TICK = 1.0
AGW_CONFIG = AgwConfig(hardware=VIRTUAL_8VCPU)
UES_PER_ENB = 96
# Host time is sampled once per STEP of simulated time (one CPU-model
# quantum); after the timed phase the fleet stops and DRAIN_S lets
# in-flight procedures (attach guard timer 15 s) finish, so every attempt
# has an outcome to check.
STEP = 0.05
DRAIN_S = 30.0

SIZES = {
    "full": {
        # 100 AGWs / 100k subscribers / 500 sampled UEs as in the fleet leg;
        # 30 sim-s instead of 300 keeps a repetition near 1 s while the
        # CPU model's 50 ms fluid polling still dominates.
        "fleet_cohort": {"agws": 100, "subscribers": 100_000,
                         "sampled": 500, "sim_s": 30.0},
        # The store is provisioned once per repetition and the storm
        # replayed 8 times over it; 200 check-ins leave ten beyond the
        # 95th percentile.
        "checkin_storm": {"subscribers": 20_000, "gateways": 200,
                          "edits": 20, "storms": 8},
        "datapath_forward": {"sessions": 2_000, "churn_sessions": 50,
                             "packets": 40_000},
    },
    "small": {
        "fleet_cohort": {"agws": 4, "subscribers": 2_000, "sampled": 20,
                         "sim_s": 10.0},
        "checkin_storm": {"subscribers": 2_000, "gateways": 20, "edits": 5,
                          "storms": 2},
        "datapath_forward": {"sessions": 200, "churn_sessions": 10,
                             "packets": 2_000},
    },
}


@dataclass
class Rep:
    """One repetition's measurements, outcome counts and checks."""

    setup_s: float = 0.0
    work: float = 0.0                  # operations in one replay
    # Host time per step of each replay of the timed phase; arrays keep the
    # benchmark's own memory small.
    replays: List[array] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    canaries: Dict[str, Any] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    # Per-layer figures read from the program's public state at the end.
    probes: Dict[str, float] = field(default_factory=dict)

    def replay(self) -> array:
        """Step times of one more replay: host time inside the program's
        calls, without the benchmark's own input generation and checks."""
        self.replays.append(array("d"))
        return self.replays[-1]

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def _events(sim: Simulator) -> int:
    """Entries ever scheduled: the kernel's sequence counter."""
    probe = Simulator.schedule(sim, 0.0, _noop)
    seq = probe.seq
    probe.release()
    return seq


def _noop():
    pass


def _retained(monitor: Monitor) -> int:
    return sum(monitor.series(name).retained for name in list(monitor.names()))


def _latency_percentiles(monitor: Monitor, name: str) -> Dict[str, float]:
    if not monitor.has_series(name) or not len(monitor.series(name)):
        return {"sample_attach_latency_p50_s": None,
                "sample_attach_latency_p99_s": None}
    series = monitor.series(name)
    return {"sample_attach_latency_p50_s": series.percentile(50.0),
            "sample_attach_latency_p99_s": series.percentile(99.0)}


# -- fleet_cohort: a simulated fleet of AGWs ---------------------------------


def _cohort(size: int) -> CohortSpec:
    return CohortSpec("subs", size=size, attach_rate=ATTACH_RATE,
                      detach_rate=DETACH_RATE, idle_rate=IDLE_RATE,
                      resume_rate=RESUME_RATE, traffic_mbps=TRAFFIC_MBPS)


def fleet_cohort(rep: Rep, make_sim, seed: int, agws: int, subscribers: int,
                 sampled: int, sim_s: float) -> None:
    """AGW 0 serves ``sampled`` coroutine UEs through real eNodeBs; a
    ``UeFleet`` spreads a cohort of ``subscribers`` aggregated subscribers
    over every AGW."""
    t0 = time.perf_counter()
    sim = make_sim()
    rng = RngRegistry(seed)
    monitor = Monitor()
    network = Network(sim, rng)
    gateways = [AccessGateway(sim, network, f"agw-{i}", config=AGW_CONFIG,
                              monitor=monitor, rng=rng)
                for i in range(agws)]
    home = gateways[0]
    enbs = []
    for i in range((sampled + UES_PER_ENB - 1) // UES_PER_ENB):
        enb_id = f"enb-{i + 1}"
        network.connect(enb_id, home.node, backhaul.lan(f"lan-{enb_id}"))
        enbs.append(Enodeb(sim, network, enb_id, home.node))
    ues = []
    for i in range(sampled):
        imsi = make_imsi(i + 1)
        k, opc = subscriber_keys(i + 1)
        home.subscriberdb.upsert(SubscriberProfile(imsi=imsi, k=k, opc=opc))
        ues.append(Ue(sim, imsi, k, opc, enbs[i % len(enbs)]))
    for gateway in gateways:
        gateway.start()
    for enb in enbs:
        enb.s1_setup()
    sim.run(until=1.0)
    rep.check(all(enb.s1_ready for enb in enbs), "S1 setup failed")
    fleet = UeFleet(sim, rng, [AgwFleetAdapter(g) for g in gateways],
                    [_cohort(subscribers)], monitor=monitor, tick=FLEET_TICK,
                    name="bench")
    fleet.add_sample_ues("subs", ues)
    fleet.start()
    gc.collect()
    rep.setup_s = time.perf_counter() - t0

    events_before = _events(sim)
    start = sim.now
    steps = int(round(sim_s / STEP))
    times = rep.replay()
    clock = time.perf_counter
    for k in range(1, steps + 1):
        t_step = clock()
        sim.run(until=start + k * STEP)
        times.append(clock() - t_step)
    events = _events(sim) - events_before
    rep.work = (subscribers + sampled) * sim_s

    fleet.stop()
    sim.run(until=sim.now + DRAIN_S)
    c = fleet.counters
    rep.attempted = c["attach_attempts"] + c["sample_attach_attempts"]
    rep.failed = c["attach_rejected"] + c["sample_attach_failures"]
    rep.check(c["attach_attempts"] == c["attach_accepted"]
              + c["attach_rejected"],
              "cohort attach attempts != accepted + rejected")
    rep.check(c["sample_attach_attempts"] == c["sample_attach_successes"]
              + c["sample_attach_failures"],
              "sampled attach attempts != successes + failures")
    attached = fleet.attached()
    sample_attached = fleet.sample_attached()
    sessions = sum(g.sessiond.session_count() for g in gateways)
    rep.check(sessions == attached + sample_attached,
              f"sessiond holds {sessions} sessions for "
              f"{attached + sample_attached} attached subscribers")
    rep.check(home.pipelined.session_count() == sample_attached,
              f"pipelined holds {home.pipelined.session_count()} sessions "
              f"for {sample_attached} attached coroutine UEs")
    rep.check(all(g.pipelined.session_count() == 0 for g in gateways[1:]),
              "a fleet-only AGW holds per-UE datapath sessions")
    rep.check(attached <= subscribers, "more subscribers attached than exist")
    rep.canaries = {
        "attached_at_end": attached,
        "sample_attached_at_end": sample_attached,
        "attach_accepted": c["attach_accepted"],
        "sample_attach_successes": c["sample_attach_successes"],
        "sessions_at_end": sessions,
        "rules_at_end": sum(len(t) for t in home.pipelined.switch.tables),
        **_latency_percentiles(monitor, "bench.sample.attach_latency"),
    }
    rep.probes = {
        "sim.kernel.events": events,
        "sim.monitor.retained_samples": _retained(monitor),
        **_switch_probes([g.pipelined for g in gateways]),
    }


def _switch_probes(pipelineds: List[Pipelined]) -> Dict[str, float]:
    hits = misses = invalidations = 0
    for pipelined in pipelineds:
        microflow = pipelined.datapath_stats()["microflow"]
        hits += microflow["hits"]
        misses += microflow["misses"]
        invalidations += microflow["invalidations"]
    return {"dataplane.switch.microflow_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
            "dataplane.switch.invalidations": invalidations}


# -- checkin_storm: desired-state sync without the event kernel -----------------

SYNC_NAMESPACES = ("subscribers", "policies", "ran")
NETWORK = "default"


def _subscriber(imsi: str, rnd: random.Random) -> Dict[str, Any]:
    return {"imsi": imsi, "policy_id": rnd.choice(("default", "gold", "iot")),
            "apn": rnd.choice(("internet", "ims")), "sub_profile": "max",
            "state": "ACTIVE"}


# Check-ins served after set-up and before timing: the first ~100 after
# provisioning the store run slower while the allocator settles.
WARMUP_CHECKINS = 100


def checkin_storm(rep: Rep, make_sim, seed: int, subscribers: int,
                  gateways: int, edits: int, storms: int) -> None:
    """Every gateway holds a mirror of the provisioned store; ``edits``
    keys then change and each gateway checks in and walks the digest tree
    until converged, one gateway after another.  The store is provisioned
    once and the storm replayed ``storms`` times, each time against a
    fresh ``StateSync``: the store is only read, so every replay does the
    same work check-in for check-in."""
    rnd = random.Random(seed)
    t0 = time.perf_counter()
    store = ConfigStore()
    digests = DigestIndex(store)
    for namespace in SYNC_NAMESPACES:
        digests.root(namespace)       # build now: every put below is indexed
    imsis = [make_imsi(i + 1) for i in range(subscribers)]
    for imsi in imsis:
        store.put("subscribers", imsi, _subscriber(imsi, rnd))
    for policy, rate in (("default", 0.0), ("gold", 100.0), ("iot", 1.0)):
        store.put("policies", policy, {"id": policy, "rate_mbps": rate})
    base = DigestMirror()
    for namespace in SYNC_NAMESPACES:
        base.rebuild(namespace, store.namespace(namespace))
    stale_version = store.version
    changed = {}
    for imsi in rnd.sample(imsis, edits):
        changed[imsi] = dict(store.get("subscribers", imsi), state="SUSPENDED")
        store.put("subscribers", imsi, changed[imsi])
    sim = make_sim()
    roots = base.roots()
    target = {ns: digests.root(ns) for ns in SYNC_NAMESPACES}
    received: Dict[str, Any] = {}

    def apply_delta(label, upserts, deletes, version):
        received.update(upserts)
        received.update(dict.fromkeys(deletes))

    def storm(statesync: StateSync, count: int, steps=None) -> Dict[str, int]:
        outcome = dict.fromkeys(
            ("converged", "rounds", "wrong_delta", "wrong_roots"), 0)
        clock = time.perf_counter
        for i in range(count):
            t_checkin = clock()
            gateway_id = f"agw-{i}"
            received.clear()
            mirror = base.overlay()
            response = statesync.handle_checkin({
                "gateway_id": gateway_id, "network_id": NETWORK,
                "config_version": stale_version, "digest_roots": roots})
            client = ReconcileClient(mirror, apply_delta, NETWORK, gateway_id)
            request = client.start(response)
            while request is not None:
                request = client.feed(statesync.handle_reconcile(request))
            result = client.result()
            if steps is not None:
                steps.append(clock() - t_checkin)
            outcome["converged"] += result.converged
            outcome["rounds"] += result.rounds
            outcome["wrong_delta"] += received != changed
            outcome["wrong_roots"] += mirror.roots() != target
        return outcome

    storm(StateSync(sim, store, digests=digests), WARMUP_CHECKINS)
    gc.collect()
    rep.setup_s = time.perf_counter() - t0

    rep.work = gateways
    per_storm = []
    for _ in range(storms):
        statesync = StateSync(sim, store, digests=digests, monitor=Monitor())
        outcome = storm(statesync, gateways, rep.replay())
        per_storm.append(dict(outcome, **statesync.stats))
    stats = per_storm[0]

    rep.attempted = gateways * storms
    rep.failed = sum(gateways - o["converged"] for o in per_storm)
    rep.check(all(o == stats for o in per_storm),
              "replays of one storm did not repeat each other")
    rep.check(stats["converged"] == gateways,
              f"{gateways - stats['converged']} gateways did not converge")
    rep.check(stats["wrong_roots"] == 0, f"{stats['wrong_roots']} gateways "
              "ended with roots unequal to the store's")
    rep.check(stats["wrong_delta"] == 0, f"{stats['wrong_delta']} gateways "
              "received a delta other than the edits")
    rep.check(stats["checkins"] == gateways
              and stats["digest_syncs"] == gateways,
              "not every check-in opened a digest walk")
    rep.canaries = {
        "converged": stats["converged"],
        "reconcile_rounds": stats["rounds"],
        "reconcile_upserts": stats["reconcile_upserts"],
        "tx_bytes": stats["tx_bytes"],
        "rx_bytes": stats["rx_bytes"],
        "subscribers_root": f"{target['subscribers']:032x}",
    }
    rep.probes = {
        "core.orchestrator.statesync.tx_bytes_per_checkin":
            stats["tx_bytes"] / gateways,
        "core.sync.rounds_per_checkin": stats["rounds"] / gateways,
        "sim.monitor.retained_samples": _retained(statesync.monitor),
    }


# -- datapath_forward: the per-packet path ---------------------------------------

METER_MBPS = 100.0
PACKET_RATE = 10_000.0   # simulated packets per second, all flows together
BURST = 10               # packets arriving at one simulated instant
CHURN_EVERY = 250        # packets between session remove + install (a
                         # multiple of BURST)
ZIPF_S = 1.1


def _ue_ip(i: int) -> str:
    return f"10.{128 + (i >> 16)}.{(i >> 8) & 0xFF}.{i & 0xFF}"


def datapath_forward(rep: Rep, make_sim, seed: int, sessions: int,
                     churn_sessions: int, packets: int) -> None:
    """Downlink packets to ``sessions`` UEs with Zipf-skewed popularity;
    every CHURN_EVERY packets one of ``churn_sessions`` idle sessions is
    removed and a fresh one installed.  The clock advances through the
    kernel so meters refill; the hottest flow carries ~1/6 of PACKET_RATE,
    ~20 Mbps against its 100 Mbps meter."""
    rnd = random.Random(seed)
    t0 = time.perf_counter()
    sim = make_sim()
    pipelined = Pipelined(AgwContext(sim, Network(sim), "agw-dp"))
    teid_of: Dict[str, int] = {}

    def install(index: int) -> str:
        imsi = make_imsi(index + 1)
        ip = _ue_ip(index)
        pipelined.install_session(imsi, ip, 0x1000 + index, METER_MBPS)
        pipelined.set_enb_tunnel(imsi, 0x80000 + index, "enb-1")
        teid_of[ip] = 0x80000 + index
        return imsi

    with pipelined.batch():
        for index in range(sessions):
            install(index)
        churn = [install(sessions + j) for j in range(churn_sessions)]
    serial = sessions + churn_sessions
    delivered = [0, 0]      # packets, wrong tunnel

    def deliver(pkt):
        delivered[0] += 1
        if pkt.find(GtpuHeader).teid != teid_of[pkt.inner_ip().dst]:
            delivered[1] += 1

    pipelined.set_port_delivery(pipelined.ran_port, deliver)
    # Popularity: rank r carries weight r^-s; the seed decides which
    # session holds which rank and the packet order.
    ranked = list(range(sessions))
    rnd.shuffle(ranked)
    weights = [(r + 1) ** -ZIPF_S for r in range(sessions)]
    destinations = [_ue_ip(ranked[r]) for r in
                    rnd.choices(range(sessions), weights, k=packets)]
    switch = pipelined.switch
    port = pipelined.sgi_port
    gc.collect()
    rep.setup_s = time.perf_counter() - t0

    clock = time.perf_counter
    inject = switch.inject
    times = rep.replay()
    start = sim.now
    for first in range(0, packets, BURST):
        sim.run(until=start + first / PACKET_RATE)
        if first and first % CHURN_EVERY == 0:
            pipelined.remove_session(churn.pop(0))
            churn.append(install(serial))
            serial += 1
        burst = [ip_packet("8.8.8.8", dst, dport=80)
                 for dst in destinations[first:first + BURST]]
        t_burst = clock()
        for pkt in burst:
            inject(pkt, port)
        times.append(clock() - t_burst)
    rep.work = packets

    stats = switch.stats
    rep.attempted = packets
    rep.failed = packets - delivered[0]
    rep.check(delivered[0] + stats["meter_dropped"] == packets,
              f"{packets - delivered[0] - stats['meter_dropped']} packets "
              "neither delivered nor dropped by a meter")
    rep.check(delivered[1] == 0,
              f"{delivered[1]} packets left in the wrong GTP tunnel")
    rep.check(stats["to_controller"] == 0, "packets missed the flow tables")
    rules = sum(len(t) for t in switch.tables)
    rep.check(rules == 5 * (sessions + churn_sessions),
              f"{rules} rules for {sessions + churn_sessions} sessions")
    microflow = pipelined.datapath_stats()["microflow"]
    rep.canaries = {
        "delivered": delivered[0],
        "meter_dropped": stats["meter_dropped"],
        "microflow_hits": microflow["hits"],
        "microflow_misses": microflow["misses"],
        "invalidations": microflow["invalidations"],
        "rules_at_end": rules,
        "sessions_installed": pipelined.stats["sessions_installed"],
    }
    rep.probes = {
        "sim.monitor.retained_samples":
            _retained(pipelined.context.monitor),
        **_switch_probes([pipelined]),
    }


# What one operation (counted by ops_per_s) and one step (timed for the
# step percentiles) are in each workload.
WORK_UNITS = {
    "fleet_cohort": ("subscriber-simulated-second", f"{STEP} s simulated"),
    "checkin_storm": ("check-in with its reconcile walk", "one check-in"),
    "datapath_forward": ("packet", f"a burst of {BURST} packets"),
}

WORKLOADS = {
    "fleet_cohort": fleet_cohort,
    "checkin_storm": checkin_storm,
    "datapath_forward": datapath_forward,
}
