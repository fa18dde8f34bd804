"""Self-profiler harness: per-layer wall-clock shares, parity-gated.

Emits ``BENCH_profile.json`` — the committed per-layer breakdown of
host CPU time (event kernel vs. CPU model vs. AGW services vs. RPC vs.
digest sync vs. fleet ticks) — by replaying the repo's own bench legs
under ``repro.obs.profiler``:

- **kernel churn** and **attach storm**: ``bench_kernel``'s smoke legs;
- **fleet**: ``bench_fleet``'s smoke fleet leg;
- **sync**: a ``bench_sync``-shaped digest check-in storm (direct-call,
  so only the subsystem hooks fire — digest hashing, reconcile rounds,
  and payload sizing).

Every leg runs twice in the same process: once with the profiler off and
once with it on.  The deterministic canaries of the two runs must match
each other (*parity* — profiling may never perturb simulated behaviour)
and the disabled run's canaries must match the committed
``BENCH_kernel.json``/``BENCH_fleet.json`` snapshots byte-for-byte — that
equality is the hard overhead ceiling for the disabled path: the hooks
are always compiled in, so the canary check proves they cost no
behaviour.  Shares themselves are machine-bound: recorded, printed,
never gated; ``--check`` gates canaries, the *presence* of each leg's
expected layers, and an ``unattributed`` share below
``MAX_UNATTRIBUTED`` on every leg.

Usage::

    PYTHONPATH=src python benchmarks/bench_profile.py --smoke \
        --out BENCH_profile.json
    PYTHONPATH=src python benchmarks/bench_profile.py --smoke \
        --out BENCH_profile.fresh.json --check BENCH_profile.json
    PYTHONPATH=src python benchmarks/bench_profile.py --flightrec-dump \
        flightrec.jsonl
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_fleet import SIZES as FLEET_SIZES  # noqa: E402
from bench_fleet import fleet_leg  # noqa: E402
from bench_kernel import attach_storm, timer_churn  # noqa: E402
from bench_sync import build_store, synced_mirror  # noqa: E402

from repro.core.orchestrator.statesync import StateSync  # noqa: E402
from repro.core.sync import DigestIndex, ReconcileClient  # noqa: E402
from repro.obs.profiler import (UNATTRIBUTED, Profiler, detach,  # noqa: E402
                                install)
from repro.sim.kernel import Simulator  # noqa: E402

SIZES = {
    # mode: (churn calls, storm UEs, sync gateways)
    "smoke": (20_000, 120, 1_000),
    "full": (100_000, 300, 5_000),
}

#: Canary fields per leg: exact for a fixed seed/workload, so profiled
#: and disabled runs (and fresh vs committed snapshots) must agree.
CANARIES = {
    "kernel_churn": ("n_calls", "heap_high_water", "drained_at"),
    "kernel_storm": ("n_ues", "successes", "queue_high_water",
                     "pending_after_drain"),
    "fleet": ("agws", "subscribers", "sample_ues", "sim_duration",
              "attach_accepted", "attached_at_end", "sessions_at_end",
              "sample_attach_successes", "events"),
    "sync": ("gateways", "tx_bytes", "rx_bytes", "reconcile_rounds",
             "converged"),
}

#: Layers each profiled leg must attribute time to; absence means a
#: hook was lost (a refactor dropped the kernel seam or a push/pop site).
#: ``core.agw.s1ap_frontend`` is the storm's busiest RPC handler.
EXPECTED_SUBSYSTEMS = {
    "kernel_churn": ("sim.kernel",),
    "kernel_storm": ("sim.kernel", "core.agw.s1ap_frontend"),
    "fleet": ("sim.kernel", "workloads.fleet"),
    "sync": ("sync.digest_hash", "sync.reconcile", "rpc.serialize"),
}

#: Largest share of a leg's profiled time that may go to dispatched
#: callables no layer owns; above it the breakdown stops explaining the leg.
MAX_UNATTRIBUTED = 0.10

NETWORK = "default"


def sync_leg(n: int, profiler=None) -> dict:
    """A digest check-in storm (``bench_sync``'s digest leg shape),
    direct-call so the measured work is digest hashing + reconcile."""
    store = build_store()
    base = synced_mirror(store)
    stale_version = store.version
    store.put("subscribers", "001019999999999", {
        "imsi": "001019999999999", "policy_id": "default",
        "apn": "internet", "sub_profile": "max", "state": "ACTIVE"})
    sim = Simulator()
    if profiler is not None:
        install(sim, profiler)
    statesync = StateSync(sim, store, digest_sync=True,
                          digests=DigestIndex(store))
    roots = base.roots()
    converged = 0
    rounds = 0
    gc.collect()
    t0 = time.perf_counter()
    try:
        for i in range(n):
            gateway_id = f"agw-{i}"
            response = statesync.handle_checkin({
                "gateway_id": gateway_id, "network_id": NETWORK,
                "config_version": stale_version, "digest_roots": roots})
            assert response["config"] is None and response.get("sync")
            mirror = base.overlay()
            client = ReconcileClient(mirror, _discard_delta, NETWORK,
                                     gateway_id)
            request = client.start(response)
            while request is not None:
                request = client.feed(statesync.handle_reconcile(request))
            result = client.result()
            converged += result.converged
            rounds += result.rounds
    finally:
        if profiler is not None:
            detach(sim)
    wall = time.perf_counter() - t0
    return {
        "gateways": n,
        "tx_bytes": statesync.stats["tx_bytes"],
        "rx_bytes": statesync.stats["rx_bytes"],
        "reconcile_rounds": rounds,
        "converged": converged,
        "wall_seconds": round(wall, 4),
    }


def _discard_delta(label, upserts, deletes, version):
    """The leg measures subsystem time, not gateway-local stores."""


def _legs(mode: str):
    """(leg name, callable(profiler=...)) pairs for one mode."""
    n_calls, n_ues, n_sync = SIZES[mode]
    agws, subscribers, sample_ues, _coroutine_ues, duration = \
        FLEET_SIZES[mode]
    return [
        ("kernel_churn", lambda profiler=None:
            timer_churn(n_calls, profiler=profiler)),
        ("kernel_storm", lambda profiler=None:
            attach_storm(n_ues, profiler=profiler)),
        ("fleet", lambda profiler=None:
            fleet_leg(agws, subscribers, sample_ues, duration,
                      profiler=profiler)),
        ("sync", lambda profiler=None: sync_leg(n_sync, profiler=profiler)),
    ]


def _canaries(leg: str, result: dict) -> dict:
    return {key: result[key] for key in CANARIES[leg]}


def run_mode(mode: str) -> tuple:
    """Run every leg disabled then profiled; returns (section, failures).

    Parity failures (profiled run diverging from the disabled run) are
    fatal regardless of ``--check`` — they mean profiling perturbed the
    simulation.
    """
    section = {}
    failures = []
    for leg, measure in _legs(mode):
        gc.collect()
        disabled = measure()
        profiler = Profiler()
        gc.collect()
        profiled = measure(profiler=profiler)
        off = _canaries(leg, disabled)
        on = _canaries(leg, profiled)
        for key in CANARIES[leg]:
            if on[key] != off[key]:
                failures.append(
                    f"{leg}: parity broken for {key!r}: profiled {on[key]} "
                    f"vs disabled {off[key]} (profiler perturbed the sim)")
        report = profiler.report()
        section[leg] = {
            "canaries": off,
            "disabled_wall_seconds": disabled["wall_seconds"],
            "profiled_wall_seconds": profiled["wall_seconds"],
            "profiled_overhead_x": round(
                profiled["wall_seconds"]
                / max(disabled["wall_seconds"], 1e-9), 2),
            "profiled_total_s": round(report["total_s"], 4),
            "subsystems": {
                name: {"share": round(row["share"], 4),
                       "self_s": round(row["self_s"], 4),
                       "calls": row["calls"]}
                for name, row in report["subsystems"].items()},
            "flame_top": [
                {"path": row["path"], "self_s": round(row["self_s"], 4)}
                for row in report["flame"][:8]],
        }
    return section, failures


def check(fresh: dict, committed: dict, mode: str) -> list:
    """Fresh canaries vs the committed profile snapshot + hook presence."""
    failures = []
    new = fresh.get(mode)
    old = committed.get(mode)
    if old is None:
        return [f"committed snapshot has no {mode!r} section"]
    for leg in CANARIES:
        if leg not in new or leg not in old:
            failures.append(f"{mode}: missing leg {leg!r}")
            continue
        for key in CANARIES[leg]:
            if new[leg]["canaries"][key] != old[leg]["canaries"][key]:
                failures.append(
                    f"{leg} canary {key!r} changed: "
                    f"{new[leg]['canaries'][key]} vs committed "
                    f"{old[leg]['canaries'][key]}")
        present = new[leg]["subsystems"]
        for subsystem in EXPECTED_SUBSYSTEMS[leg]:
            if subsystem not in present:
                failures.append(
                    f"{leg}: subsystem {subsystem!r} missing from the "
                    "profiled breakdown (hook lost?)")
        unattributed = present.get(UNATTRIBUTED, {}).get("share", 0.0)
        if unattributed >= MAX_UNATTRIBUTED:
            failures.append(
                f"{leg}: {UNATTRIBUTED!r} share {unattributed} is not below "
                f"{MAX_UNATTRIBUTED}")
    return failures


def cross_check(fresh: dict, mode: str, kernel_path: str,
                fleet_path: str) -> list:
    """Disabled-path canaries vs the committed kernel/fleet benches.

    This is the byte-identical guarantee: the always-compiled-in hooks
    (and the profiled-class machinery) must reproduce the exact event
    order the pre-profiler benches committed.
    """
    failures = []
    new = fresh.get(mode, {})
    if os.path.exists(kernel_path):
        with open(kernel_path) as fh:
            kernel = json.load(fh).get(mode, {})
        pairs = [("kernel_churn", kernel.get("timer_churn", {}),
                  ("n_calls", "heap_high_water", "drained_at")),
                 ("kernel_storm", kernel.get("attach_storm", {}),
                  ("n_ues", "successes", "queue_high_water",
                   "pending_after_drain"))]
        for leg, old, keys in pairs:
            for key in keys:
                if key in old and new[leg]["canaries"][key] != old[key]:
                    failures.append(
                        f"{leg} diverges from {kernel_path} {key!r}: "
                        f"{new[leg]['canaries'][key]} vs {old[key]}")
    if os.path.exists(fleet_path):
        with open(fleet_path) as fh:
            fleet = json.load(fh).get(mode, {}).get("fleet", {})
        for key in CANARIES["fleet"]:
            if key in fleet and new["fleet"]["canaries"][key] != fleet[key]:
                failures.append(
                    f"fleet diverges from {fleet_path} {key!r}: "
                    f"{new['fleet']['canaries'][key]} vs {fleet[key]}")
    return failures


def dump_flightrec(path: str) -> int:
    """A short crash/restore run whose flight-recorder ring is dumped:
    the CI artifact showing what a post-mortem dump looks like."""
    from repro.experiments.common import build_emulated_site
    from repro.obs.flightrec import FlightRecorder

    site = build_emulated_site(num_enbs=2, num_ues=6, seed=11)
    recorder = FlightRecorder(site.sim)
    for ue in site.ues:
        ue.attach()
    site.sim.run(until=site.sim.now + 15.0)
    site.agw.crash()
    site.sim.run(until=site.sim.now + 5.0)
    site.agw.recover()
    site.sim.run(until=site.sim.now + 15.0)
    return recorder.dump_jsonl(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI (writes the 'smoke' section)")
    parser.add_argument("--out", default=None,
                        help="write the fresh snapshot JSON here")
    parser.add_argument("--check", default=None, metavar="SNAPSHOT",
                        help="compare against a committed snapshot; exit 1 "
                             "on canary divergence or a lost hook")
    parser.add_argument("--kernel-snapshot", default=None,
                        help="committed BENCH_kernel.json for the "
                             "byte-identical cross-check")
    parser.add_argument("--fleet-snapshot", default=None,
                        help="committed BENCH_fleet.json for the "
                             "byte-identical cross-check")
    parser.add_argument("--flightrec-dump", default=None, metavar="PATH",
                        help="also run a crash/restore scenario and dump "
                             "its flight recorder (JSONL) here")
    args = parser.parse_args(argv)

    repo = os.path.join(os.path.dirname(__file__), "..")
    kernel_path = args.kernel_snapshot or os.path.join(
        repo, "BENCH_kernel.json")
    fleet_path = args.fleet_snapshot or os.path.join(repo, "BENCH_fleet.json")

    mode = "smoke" if args.smoke else "full"
    snapshot = {"schema": 1}
    print(f"== {mode} ==")
    snapshot[mode], parity_failures = run_mode(mode)
    for leg, row in snapshot[mode].items():
        top = sorted(row["subsystems"].items(),
                     key=lambda kv: -kv[1]["share"])[:4]
        shares = ", ".join(f"{name} {entry['share'] * 100:.1f}%"
                           for name, entry in top)
        print(f"  {leg:<13}: {row['profiled_total_s']}s profiled "
              f"({row['profiled_overhead_x']}x of disabled "
              f"{row['disabled_wall_seconds']}s)  [{shares}]")

    if args.flightrec_dump:
        lines = dump_flightrec(args.flightrec_dump)
        print(f"wrote {lines} flight-recorder lines to "
              f"{args.flightrec_dump}")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")

    failures = list(parity_failures)
    failures.extend(cross_check(snapshot, mode, kernel_path, fleet_path))
    if args.check:
        with open(args.check) as fh:
            committed = json.load(fh)
        failures.extend(check(snapshot, committed, mode))
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("parity + byte-identical disabled path green"
          + (f"; checked vs {args.check}" if args.check else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
