"""Cohort-aggregated UE fleets: the million-UE scale-out abstraction.

Every subscriber being an individual kernel coroutine caps a run near 10⁴
UEs — each attach is ~30 scheduled events, each idle/resume cycle a handful
more.  The paper's deployments (§4.3) run five-digit gateway counts with
six-digit subscriber populations, so the next order of magnitude has to
come from aggregating the *population*, not from making each coroutine
cheaper (the PR 6 timer wheel already did that).

A :class:`UeFleet` models a large population as table-driven cohort state
machines.  Each :class:`CohortSpec` carries a size, per-UE transition
rates (attach / detach / idle / resume), an offered-traffic figure, and a
RAT label; the fleet partitions the cohort across its AGW hosts and keeps
only three integers per (cohort, host) bucket — detached / connected /
idle counts.  One batched periodic timer (``Simulator.schedule_periodic``,
the pooled zero-allocation path) advances *every* bucket per tick: the
number of UEs making each transition is drawn from seeded binomial
streams (one named RNG stream per bucket, so results are independent of
host iteration order), and the resulting aggregate load is injected
through batched AGW entry points — ``AccessManagement.bulk_attach``,
``Sessiond.bulk_create_fleet``/``bulk_terminate_fleet``,
``Pipelined.set_fleet_load`` — instead of per-UE NAS dialogues.

**Fidelity boundary.**  Aggregation keeps *counts* honest (admission
follows the same calibrated attach capacity the coroutine path saturates,
CPU telemetry sees the same fluid demand) but erases *per-procedure
dynamics* — there are no latency distributions, no traces, no retry
interleavings inside a bucket.  To keep those honest, a configurable
sampled sub-population rides along as real coroutine :class:`~repro.lte.ue.Ue`
objects threaded through real eNodeBs: the fleet drives them with the
same per-tick transition probabilities (Bernoulli per sampled UE, from
the cohort's dedicated sample stream), so their latency percentiles and
spans are an unbiased probe of the load the aggregate supplies.

A fleet with ``size=0`` cohorts and a 100% sample population degenerates
to a pure coroutine run driven by identical tick dynamics — which is
exactly how ``tests/test_fleet_calibration.py`` checks that the aggregate
and coroutine populations agree, and how ``benchmarks/bench_fleet.py``
measures the speedup between the two modes in one session.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..lte.ue import Ue, UeState
from ..sim.kernel import PeriodicCall, Simulator
from ..sim.monitor import Monitor
from ..sim.rng import RngRegistry

KNOWN_RATS = ("lte", "wifi", "nr")

# Bounded-buffer size for fleet metric series: at one sample per tick per
# metric a 10⁶-tick run would otherwise hold 10⁶-entry lists per metric.
FLEET_METRIC_SAMPLES = 4096


def binomial(rng, n: int, p: float) -> int:
    """Deterministic Binomial(n, p) draw from a seeded ``random.Random``.

    Chooses the sampler by regime so a 10⁶-UE bucket costs microseconds:

    - mean and anti-mean both large: normal approximation (one gaussian),
      rounded and clamped — the error is far below cohort-level noise;
    - small p: geometric gap-skipping, O(successes) instead of O(n);
    - large p: mirrored small-p draw on the failures.

    All randomness comes from the caller's named stream, so replays are
    bit-identical for a fixed seed.
    """
    if n <= 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    mean = n * p
    if mean >= 32.0 and n - mean >= 32.0:
        draw = int(rng.normalvariate(mean, math.sqrt(mean * (1.0 - p))) + 0.5)
        return 0 if draw < 0 else (n if draw > n else draw)
    if p > 0.5:
        return n - binomial(rng, n, 1.0 - p)
    # Gap-skipping: successive success indices are geometric with
    # parameter p; count how many land inside [1, n].
    log_q = math.log1p(-p)
    successes = 0
    i = 0
    while True:
        u = rng.random()
        # u == 0.0 cannot happen (random() is in [0, 1)), log(u) safe via
        # max with a subnormal guard anyway.
        i += int(math.log(u if u > 0.0 else 5e-324) / log_q) + 1
        if i > n:
            return successes
        successes += 1


@dataclass(frozen=True)
class CohortSpec:
    """One homogeneous slice of the subscriber population.

    Rates are per-UE exponential rates (per second) for the state the UE
    is currently in: ``attach_rate`` applies to detached UEs,
    ``detach_rate`` and ``idle_rate`` to connected ones, ``resume_rate``
    to ECM-idle ones.  ``traffic_mbps`` is the offered downlink per
    *connected* UE, injected as fluid user-plane demand.
    """

    name: str
    size: int
    attach_rate: float = 0.01
    detach_rate: float = 0.0
    idle_rate: float = 0.0
    resume_rate: float = 0.0
    traffic_mbps: float = 0.0
    rat: str = "lte"

    def __post_init__(self):
        if self.size < 0:
            raise ValueError(f"cohort {self.name!r}: size must be >= 0")
        for rate_name in ("attach_rate", "detach_rate", "idle_rate",
                          "resume_rate", "traffic_mbps"):
            if getattr(self, rate_name) < 0:
                raise ValueError(
                    f"cohort {self.name!r}: {rate_name} must be >= 0")
        if self.rat not in KNOWN_RATS:
            raise ValueError(f"cohort {self.name!r}: unknown RAT {self.rat!r}")


class _TickProbs:
    """Per-tick transition probabilities for one cohort (precomputed)."""

    __slots__ = ("attach", "detach", "idle", "resume")

    def __init__(self, spec: CohortSpec, dt: float):
        # P(at least one arrival in dt) for an exponential rate.
        self.attach = -math.expm1(-spec.attach_rate * dt)
        self.detach = -math.expm1(-spec.detach_rate * dt)
        self.idle = -math.expm1(-spec.idle_rate * dt)
        self.resume = -math.expm1(-spec.resume_rate * dt)


class CohortBucket:
    """Aggregate state of one cohort's share on one host: three integers."""

    __slots__ = ("spec", "probs", "rng", "detached", "connected", "idle")

    def __init__(self, spec: CohortSpec, probs: _TickProbs, rng,
                 size: int):
        self.spec = spec
        self.probs = probs
        self.rng = rng
        self.detached = size
        self.connected = 0
        self.idle = 0

    @property
    def attached(self) -> int:
        return self.connected + self.idle

    @property
    def size(self) -> int:
        return self.detached + self.connected + self.idle


class AgwFleetAdapter:
    """Fleet host backed by a real :class:`~repro.core.agw.AccessGateway`.

    Routes the fleet's batched transitions into the AGW's MME / sessiond /
    pipelined entry points, so aggregated load shows up in the same stats,
    session counts, CPU model, and check-in telemetry as coroutine UEs.
    """

    def __init__(self, agw: Any):
        self.agw = agw
        self.node = agw.node

    def fleet_attach(self, n: int, dt: float) -> int:
        return self.agw.mme.bulk_attach(n, dt)

    def fleet_detach(self, n: int) -> int:
        return self.agw.mme.bulk_detach(n)

    def fleet_set_load(self, offered_mbps: float) -> None:
        self.agw.pipelined.set_fleet_load(offered_mbps)

    def fleet_session_count(self) -> int:
        return self.agw.sessiond.session_count()


class _SampledUe:
    """A full-fidelity coroutine UE riding inside a cohort."""

    __slots__ = ("ue", "busy")

    def __init__(self, ue: Ue):
        self.ue = ue
        self.busy = False     # a procedure (attach/resume) is in flight


class _SampleGroup:
    """The sampled sub-population of one cohort (fleet-wide, not per-host)."""

    __slots__ = ("spec", "probs", "rng", "members")

    def __init__(self, spec: CohortSpec, probs: _TickProbs, rng,
                 members: List[_SampledUe]):
        self.spec = spec
        self.probs = probs
        self.rng = rng
        self.members = members


class UeFleet:
    """A cohort-aggregated UE population across one or more AGW hosts.

    ``hosts`` are :class:`AgwFleetAdapter`-shaped objects (anything with
    ``fleet_attach`` / ``fleet_detach`` / ``fleet_set_load`` and a ``node``
    name).  Each cohort is split evenly across hosts; all buckets advance
    on one batched periodic timer.  Call :meth:`start` before running the
    simulation and :meth:`stop` to end the ticking (or let the run window
    close around it).
    """

    def __init__(self, sim: Simulator, rng: RngRegistry, hosts: Sequence[Any],
                 cohorts: Sequence[CohortSpec], monitor: Optional[Monitor] = None,
                 tick: float = 1.0, name: str = "fleet",
                 metric_samples: int = FLEET_METRIC_SAMPLES):
        if not hosts:
            raise ValueError("fleet needs at least one host")
        if tick <= 0:
            raise ValueError("fleet tick must be positive")
        names = [spec.name for spec in cohorts]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate cohort names: {names}")
        self.sim = sim
        self.rng = rng
        self.monitor = monitor
        self.tick = tick
        self.name = name
        self.cohorts: Tuple[CohortSpec, ...] = tuple(cohorts)
        self._hosts = list(hosts)
        self._probs: Dict[str, _TickProbs] = {
            spec.name: _TickProbs(spec, tick) for spec in self.cohorts}
        # Host-major bucket layout: one fleet_attach/fleet_set_load call
        # per host per tick, covering all of its cohorts.
        self._by_host: List[Tuple[Any, List[CohortBucket]]] = []
        num_hosts = len(self._hosts)
        for host_index, host in enumerate(self._hosts):
            buckets = []
            for spec in self.cohorts:
                share = spec.size // num_hosts
                if host_index < spec.size % num_hosts:
                    share += 1
                buckets.append(CohortBucket(
                    spec, self._probs[spec.name],
                    rng.stream(f"fleet.{name}.{spec.name}.{host.node}"),
                    share))
            self._by_host.append((host, buckets))
        self._samples: List[_SampleGroup] = []
        self._ticker: Optional[PeriodicCall] = None
        self.ticks = 0
        self.counters = {
            "attach_attempts": 0, "attach_accepted": 0, "attach_rejected": 0,
            "detaches": 0, "idles": 0, "resumes": 0,
            "sample_attach_attempts": 0, "sample_attach_successes": 0,
            "sample_attach_failures": 0, "sample_detaches": 0,
            "sample_idles": 0, "sample_resumes": 0,
        }
        if monitor is not None:
            bounded = monitor.bounded_series
            self._s_attached = bounded(f"{name}.attached", metric_samples)
            self._s_connected = bounded(f"{name}.connected", metric_samples)
            self._s_offered = bounded(f"{name}.offered_mbps", metric_samples)
            self._s_attach_ok = bounded(f"{name}.attach_accepted",
                                        metric_samples)
            self._s_latency = bounded(f"{name}.sample.attach_latency",
                                      metric_samples)
        else:
            self._s_attached = self._s_connected = None
            self._s_offered = self._s_attach_ok = self._s_latency = None

    # -- population wiring -------------------------------------------------------

    def add_sample_ues(self, cohort_name: str, ues: Sequence[Ue]) -> None:
        """Attach full-fidelity sampled UEs to a cohort.

        The sampled UEs are *additional* population (size them as e.g. 1%
        of the cohort's aggregate size); they are driven by the cohort's
        tick probabilities through the real per-UE procedures.
        """
        for spec in self.cohorts:
            if spec.name == cohort_name:
                self._samples.append(_SampleGroup(
                    spec, self._probs[cohort_name],
                    self.rng.stream(f"fleet.{self.name}.{cohort_name}.sample"),
                    [_SampledUe(ue) for ue in ues]))
                return
        raise ValueError(f"no cohort named {cohort_name!r}")

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        if self._ticker is not None and self._ticker.active:
            raise RuntimeError("fleet already started")
        self._ticker = self.sim.schedule_periodic(self.tick, self._advance)

    def stop(self) -> None:
        if self._ticker is not None:
            self._ticker.cancel()
        # Clear standing fluid demand so a stopped fleet costs nothing.
        for host, _buckets in self._by_host:
            host.fleet_set_load(0.0)
            host.fleet_attach(0, self.tick)

    # -- the batched tick --------------------------------------------------------

    def _advance(self) -> None:
        self.ticks += 1
        dt = self.tick
        counters = self.counters
        total_attached = 0
        total_connected = 0
        total_offered = 0.0
        total_accepted = 0
        for host, buckets in self._by_host:
            attempts_per_bucket = []
            host_attempts = 0
            host_detaches = 0
            host_offered = 0.0
            for bucket in buckets:
                probs = bucket.probs
                rng = bucket.rng
                # Connected-state exits first (detach beats idle on ties,
                # a fixed deterministic order), then idle resumes, then
                # new attach arrivals from the detached pool.
                detaches = binomial(rng, bucket.connected, probs.detach)
                bucket.connected -= detaches
                bucket.detached += detaches
                host_detaches += detaches
                idles = binomial(rng, bucket.connected, probs.idle)
                bucket.connected -= idles
                bucket.idle += idles
                resumes = binomial(rng, bucket.idle, probs.resume)
                bucket.idle -= resumes
                bucket.connected += resumes
                attempts = binomial(rng, bucket.detached, probs.attach)
                attempts_per_bucket.append(attempts)
                host_attempts += attempts
                counters["idles"] += idles
                counters["resumes"] += resumes
            counters["detaches"] += host_detaches
            counters["attach_attempts"] += host_attempts
            if host_detaches:
                host.fleet_detach(host_detaches)
            # One batched admission call per host per tick (also refreshes
            # the host's control-plane fluid demand when zero).
            accepted = host.fleet_attach(host_attempts, dt)
            counters["attach_accepted"] += accepted
            counters["attach_rejected"] += host_attempts - accepted
            total_accepted += accepted
            # Distribute accepted attaches across this host's buckets
            # first-come-first-served, rotating the starting cohort each
            # tick — deterministic, conserving, and no cohort is starved
            # forever when admission is the bottleneck.
            remaining = accepted
            nb = len(buckets)
            first = self.ticks % nb
            for offset in range(nb):
                j = (first + offset) % nb
                bucket = buckets[j]
                attempts = attempts_per_bucket[j]
                granted = attempts if attempts <= remaining else remaining
                bucket.detached -= granted
                bucket.connected += granted
                remaining -= granted
            for bucket in buckets:
                host_offered += bucket.connected * bucket.spec.traffic_mbps
                total_attached += bucket.attached
                total_connected += bucket.connected
            host.fleet_set_load(host_offered)
            total_offered += host_offered
        self._advance_samples()
        if self._s_attached is not None:
            now = self.sim.now
            self._s_attached.record(now, float(total_attached))
            self._s_connected.record(now, float(total_connected))
            self._s_offered.record(now, total_offered)
            self._s_attach_ok.record(now, float(total_accepted))

    def _advance_samples(self) -> None:
        counters = self.counters
        for group in self._samples:
            probs = group.probs
            rng = group.rng
            for member in group.members:
                if member.busy:
                    continue
                state = member.ue.state
                if state == UeState.DEREGISTERED:
                    if rng.random() < probs.attach:
                        self._sample_attach(member)
                elif state == UeState.REGISTERED:
                    # Same fixed precedence as the aggregate tick.
                    if rng.random() < probs.detach:
                        counters["sample_detaches"] += 1
                        member.ue.detach(switch_off=True)
                    elif rng.random() < probs.idle:
                        counters["sample_idles"] += 1
                        member.ue.go_idle()
                elif state == UeState.IDLE:
                    if rng.random() < probs.resume:
                        self._sample_resume(member)

    def _sample_attach(self, member: _SampledUe) -> None:
        counters = self.counters
        counters["sample_attach_attempts"] += 1
        member.busy = True

        def on_done(ev):
            member.busy = False
            outcome = ev.value
            if outcome.success:
                counters["sample_attach_successes"] += 1
                if self._s_latency is not None:
                    self._s_latency.record(self.sim.now, outcome.latency)
            else:
                counters["sample_attach_failures"] += 1

        member.ue.attach().add_callback(on_done)

    def _sample_resume(self, member: _SampledUe) -> None:
        self.counters["sample_resumes"] += 1
        member.busy = True

        def on_done(_ev):
            member.busy = False

        member.ue.service_request().add_callback(on_done)

    # -- reporting ---------------------------------------------------------------

    def population(self) -> int:
        """Aggregated subscribers (sampled UEs not included)."""
        return sum(bucket.size for _host, buckets in self._by_host
                   for bucket in buckets)

    def sample_population(self) -> int:
        return sum(len(group.members) for group in self._samples)

    def attached(self) -> int:
        return sum(bucket.attached for _host, buckets in self._by_host
                   for bucket in buckets)

    def connected(self) -> int:
        return sum(bucket.connected for _host, buckets in self._by_host
                   for bucket in buckets)

    def sample_attached(self) -> int:
        return sum(1 for group in self._samples for member in group.members
                   if member.ue.state in (UeState.REGISTERED, UeState.IDLE))

    def per_rat(self) -> Dict[str, int]:
        """Attached subscribers by RAT label (the cohort mix, aggregated)."""
        mix: Dict[str, int] = {}
        for _host, buckets in self._by_host:
            for bucket in buckets:
                mix[bucket.spec.rat] = (mix.get(bucket.spec.rat, 0)
                                        + bucket.attached)
        return mix

    def summary(self) -> Dict[str, Any]:
        return {
            "population": self.population(),
            "sample_population": self.sample_population(),
            "hosts": len(self._hosts),
            "cohorts": len(self.cohorts),
            "ticks": self.ticks,
            "attached": self.attached(),
            "connected": self.connected(),
            "sample_attached": self.sample_attached(),
            "per_rat": self.per_rat(),
            "counters": dict(self.counters),
        }
