"""The repo benchmark: three closed-loop workloads, measured end to end and
split by layer in a separate traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_cohort --seed 1 --seconds 20
    python3 perfbench/run.py --workload checkin_storm --trace 1
    python3 perfbench/run.py --workload all          # each in its own process

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``fleet_cohort``: 100 AGWs with a 100k-subscriber ``UeFleet`` cohort and
  500 sampled coroutine UEs; one *op* is a subscriber-simulated-second.
- ``checkin_storm``: gateways check in one after another against a
  20k-subscriber store with 20 edited keys, each walking the digest tree
  until converged; one op is a check-in with its reconcile walk.
- ``datapath_forward``: Zipf-skewed downlink packets, in bursts of ten,
  through a ~10k-rule ``Pipelined`` switch with session churn; one op is
  a packet.

A run repeats its workload (set-up, timed phase, checks) as long as
another repetition still ends within ``--seconds`` of wall time, at least
three times.  The timed phase is a deterministic *replay* of a sequence
of steps -- one check-in, one burst of packets, or one CPU quantum
(0.05 s) of simulated time -- so each step does the same work in every
replay; ``checkin_storm`` replays its storm several times per set-up.
The fastest replay of each step is its cost.  With ``--trace 0`` a run
prints the end-to-end metrics: the median set-up time, peak RSS, ops per
second over the summed step costs, and the median and 95th percentile of
the step costs.

With ``--trace 1`` it runs the workload once untraced and twice traced
(``spans.py``) and prints the per-layer metrics: each layer's span count
and self time, plus counts read from the program's public state.  It
checks that the traced canaries equal the untraced ones, that span
counts repeat exactly across the two traced repetitions, and that the
layers' self times plus the unattributed time add up to the traced wall.

Every repetition checks the program's outputs; a failed check makes the
run incorrect and counts all its operations as failed.  For the default
seed at full size the canaries must also equal ``canaries.json``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 1
MIN_REPS = 3
# Stop repeating after this much wall time, so a run always exits well
# inside its time limit on a slow host.
MAX_WALL_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_p95_ms": "ms",
}

_COUNT, _SECONDS = "count", "s"
PER_LAYER_UNITS = {
    "sim.kernel.events": _COUNT,
    "sim.kernel.queue_high_water": _COUNT,
    "sim.kernel.self_s": _SECONDS,
    "sim.cpu.quanta": _COUNT,
    "sim.cpu.tasks": _COUNT,
    "sim.cpu.busy_s": _SECONDS,
    "sim.fairshare.calls": _COUNT,
    "sim.fairshare.busy_s": _SECONDS,
    "sim.monitor.records": _COUNT,
    "sim.monitor.busy_s": _SECONDS,
    "sim.monitor.retained_samples": _COUNT,
    "dataplane.flowtable.adds": _COUNT,
    "dataplane.flowtable.removals": _COUNT,
    "dataplane.flowtable.remove_busy_s": _SECONDS,
    "dataplane.flowtable.rules_at_removal": _COUNT,
    "dataplane.flowtable.busy_s": _SECONDS,
    "dataplane.switch.packets": _COUNT,
    "dataplane.switch.busy_s": _SECONDS,
    "dataplane.switch.microflow_hit_ratio": "ratio",
    "dataplane.switch.invalidations": _COUNT,
    "net.rpc.calls": _COUNT,
    "net.rpc.errors": _COUNT,
    "net.rpc.busy_s": _SECONDS,
    "net.simnet.datagrams": _COUNT,
    "net.simnet.busy_s": _SECONDS,
    "core.orchestrator.statesync.checkins": _COUNT,
    "core.orchestrator.statesync.reconciles": _COUNT,
    "core.orchestrator.statesync.busy_s": _SECONDS,
    "core.orchestrator.statesync.tx_bytes_per_checkin": "B",
    "core.sync.busy_s": _SECONDS,
    "core.sync.client_busy_s": _SECONDS,
    "core.sync.rounds_per_checkin": _COUNT,
    "core.orchestrator.config_store.puts": _COUNT,
    "core.orchestrator.config_store.busy_s": _SECONDS,
    "core.agw.mme.calls": _COUNT,
    "core.agw.mme.busy_s": _SECONDS,
    "core.agw.sessiond.calls": _COUNT,
    "core.agw.sessiond.busy_s": _SECONDS,
    "core.agw.pipelined.calls": _COUNT,
    "core.agw.pipelined.busy_s": _SECONDS,
    "core.agw.other.busy_s": _SECONDS,
    "lte.calls": _COUNT,
    "lte.busy_s": _SECONDS,
    "workloads.fleet.ticks": _COUNT,
    "workloads.fleet.busy_s": _SECONDS,
    "other.busy_s": _SECONDS,
    "unattributed_share": "ratio",
    "obs.trace_overhead_s": _SECONDS,
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_rep(workload, make_sim, seed, params):
    from scenarios import Rep, WORKLOADS
    gc.collect()
    rep = Rep()
    t0 = time.perf_counter()
    WORKLOADS[workload](rep, make_sim, seed, **params)
    return rep, time.perf_counter() - t0


def _pinned_canaries(workload, seed, size):
    if seed != DEFAULT_SEED or size != "full":
        return None
    with open(os.path.join(HERE, "canaries.json")) as fh:
        return json.load(fh).get(workload, {})


def _canary_problems(reps, pinned):
    problems = []
    first = reps[0].canaries
    if any(rep.canaries != first for rep in reps[1:]):
        problems.append("canaries differ between repetitions of one seed")
    if pinned is not None and first != pinned:
        problems.append(f"canaries {first} differ from pinned {pinned}")
    return problems


def measure(workload, seed, seconds, size):
    """Untraced repetitions -> (end-to-end metrics, reps, problems, info)."""
    from repro.sim import Simulator
    from scenarios import SIZES
    params = SIZES[size][workload]
    reps = []
    started = time.perf_counter()
    longest = 0.0
    # Repeat while another repetition as long as the longest so far still
    # ends within --seconds, so a run's wall time tracks --seconds.
    while len(reps) < MIN_REPS or \
            time.perf_counter() - started + longest <= seconds:
        rep, wall = _run_rep(workload, Simulator, seed, params)
        reps.append(rep)
        longest = max(longest, wall)
        if time.perf_counter() - started > MAX_WALL_S:
            break
    # Every replay repeats identical work step for step.  Shared hosts
    # alternate between fast and slow spells of seconds to minutes, so the
    # fastest of a step's replays is its cost without the host's
    # contention.  On a 2-vCPU shared host, ten 30 s runs of 2,000 UEs
    # churning on one AGW spread 0.08 in ops_per_s this way against 0.23
    # with per-step medians, which follow the slow spells.
    replays = [times for rep in reps for times in rep.replays]
    steps_ms = array("d", sorted(
        min(per_step) * 1e3 for per_step in zip(*replays)))
    metrics = {
        "setup_s": statistics.median(r.setup_s for r in reps),
        "peak_rss_mb": _peak_rss_mb(),
        "ops_per_s": reps[0].work / (sum(steps_ms) / 1e3),
        "step_p50_ms": statistics.median(steps_ms),
        "step_p95_ms": _percentile(steps_ms, 95.0),
    }
    problems = [p for r in reps for p in r.problems]
    if len({len(times) for times in replays}) != 1:
        problems.append("replays of one seed ran different step counts")
    problems += _canary_problems(reps, _pinned_canaries(workload, seed, size))
    info = {"repetitions": len(reps), "replays": len(replays),
            "steps": len(steps_ms),
            "canaries": reps[0].canaries}
    return metrics, reps, problems, info


def _percentile(ordered, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[rank - 1]


def trace(workload, seed, size):
    """One untraced and two traced repetitions -> (per-layer metrics,
    reps, problems, info)."""
    from repro.sim import Simulator
    from scenarios import SIZES
    from spans import TracedSimulator, Tracer, instrument
    params = SIZES[size][workload]
    untraced, untraced_wall = _run_rep(workload, Simulator, seed, params)
    runs = []
    for _ in range(2):
        tracer = Tracer()
        sims = []

        def make_sim():
            sims.append(TracedSimulator(tracer))
            return sims[-1]

        restore = instrument(tracer)
        try:
            rep, wall = _run_rep(workload, make_sim, seed, params)
        finally:
            restore()
        runs.append((tracer, sims, rep, wall))
    problems = [p for _t, _s, rep, _w in runs for p in rep.problems]
    problems += untraced.problems
    problems += _canary_problems([untraced] + [r[2] for r in runs],
                                 _pinned_canaries(workload, seed, size))
    if untraced.probes.get("sim.kernel.events") != \
            runs[0][2].probes.get("sim.kernel.events"):
        problems.append("tracing changed the number of kernel events")
    layers = [_layer_metrics(t, s, rep, wall, untraced_wall)
              for t, s, rep, wall in runs]
    for name, unit in PER_LAYER_UNITS.items():
        if unit == _COUNT and layers[0][name] != layers[1][name]:
            problems.append(f"{name} differs between two traced runs: "
                            f"{layers[0][name]} vs {layers[1][name]}")
    # Self times partition the time inside outermost spans and the rest of
    # the traced wall is unattributed, so the two add up to the wall unless
    # the tracer lost a span's time or counted it twice.
    tracer, _sims, _rep, wall = runs[0]
    total_self = sum(acc[1] for acc in tracer.spans.values())
    unattributed = wall - tracer.top_s
    if abs(total_self + unattributed - wall) > 1e-6 + 1e-9 * wall:
        problems.append(f"layer self times {total_self:.6f} s + unattributed "
                        f"{unattributed:.6f} s != traced wall {wall:.6f} s")
    info = {"traced_wall_s": wall, "untraced_wall_s": untraced_wall,
            "canaries": untraced.canaries}
    return layers[0], [untraced] + [r[2] for r in runs], problems, info


def _layer_metrics(tracer, sims, rep, wall, untraced_wall):
    calls, busy, probes = tracer.calls, tracer.self_s, rep.probes
    removals = ("FlowTable.remove_by_cookie", "FlowTable.remove_matching",
                "FlowTable.remove_rule")
    removal_calls = calls("dataplane.flowtable", *removals)
    rpc_errors = sum(ch.stats["errors"] + ch.stats["deadline_exceeded"]
                     for ch in tracer.rpc_channels)
    return {
        "sim.kernel.events": probes.get("sim.kernel.events", 0),
        "sim.kernel.queue_high_water":
            max((s.queue_high_water for s in sims), default=0),
        "sim.kernel.self_s": busy("sim.kernel"),
        "sim.cpu.quanta": calls("sim.cpu", "CpuModel._tick"),
        "sim.cpu.tasks": calls("sim.cpu", "CpuModel.submit"),
        "sim.cpu.busy_s": busy("sim.cpu"),
        "sim.fairshare.calls": calls("sim.fairshare"),
        "sim.fairshare.busy_s": busy("sim.fairshare"),
        "sim.monitor.records": calls("sim.monitor", "Series.record"),
        "sim.monitor.busy_s": busy("sim.monitor"),
        "sim.monitor.retained_samples":
            probes.get("sim.monitor.retained_samples", 0),
        "dataplane.flowtable.adds":
            int(tracer.counters.get("dataplane.flowtable.adds", 0)),
        "dataplane.flowtable.removals":
            int(tracer.counters.get("dataplane.flowtable.removals", 0)),
        "dataplane.flowtable.remove_busy_s":
            busy("dataplane.flowtable", *removals),
        "dataplane.flowtable.rules_at_removal": round(
            tracer.counters.get("dataplane.flowtable.rules_seen", 0)
            / removal_calls) if removal_calls else 0,
        "dataplane.flowtable.busy_s": busy("dataplane.flowtable"),
        "dataplane.switch.packets":
            calls("dataplane.switch", "SoftwareSwitch.inject"),
        "dataplane.switch.busy_s": busy("dataplane.switch"),
        "dataplane.switch.microflow_hit_ratio":
            probes.get("dataplane.switch.microflow_hit_ratio", 0.0),
        "dataplane.switch.invalidations":
            probes.get("dataplane.switch.invalidations", 0),
        "net.rpc.calls": calls("net.rpc", "RpcChannel.call"),
        "net.rpc.errors": rpc_errors,
        "net.rpc.busy_s": busy("net.rpc"),
        "net.simnet.datagrams": calls("net.simnet", "Network.send",
                                      "Network.send_local"),
        "net.simnet.busy_s": busy("net.simnet"),
        "core.orchestrator.statesync.checkins": calls(
            "core.orchestrator.statesync", "StateSync.handle_checkin"),
        "core.orchestrator.statesync.reconciles": calls(
            "core.orchestrator.statesync", "StateSync.handle_reconcile"),
        "core.orchestrator.statesync.busy_s":
            busy("core.orchestrator.statesync"),
        "core.orchestrator.statesync.tx_bytes_per_checkin":
            probes.get("core.orchestrator.statesync.tx_bytes_per_checkin", 0),
        "core.sync.busy_s": busy("core.sync"),
        "core.sync.client_busy_s": busy("core.sync.client"),
        "core.sync.rounds_per_checkin":
            probes.get("core.sync.rounds_per_checkin", 0),
        "core.orchestrator.config_store.puts": calls(
            "core.orchestrator.config_store", "ConfigStore.put"),
        "core.orchestrator.config_store.busy_s":
            busy("core.orchestrator.config_store"),
        "core.agw.mme.calls": calls("core.agw.mme"),
        "core.agw.mme.busy_s": busy("core.agw.mme"),
        "core.agw.sessiond.calls": calls("core.agw.sessiond"),
        "core.agw.sessiond.busy_s": busy("core.agw.sessiond"),
        "core.agw.pipelined.calls": calls("core.agw.pipelined"),
        "core.agw.pipelined.busy_s": busy("core.agw.pipelined"),
        "core.agw.other.busy_s": busy("core.agw.other"),
        "lte.calls": calls("lte"),
        "lte.busy_s": busy("lte"),
        "workloads.fleet.ticks": calls("workloads.fleet", "UeFleet._advance"),
        "workloads.fleet.busy_s": busy("workloads.fleet"),
        "other.busy_s": busy("other"),
        "unattributed_share": (wall - tracer.top_s) / wall,
        "obs.trace_overhead_s": wall - untraced_wall,
    }


def run_one(args) -> int:
    if args.trace:
        values, reps, problems, info = trace(args.workload, args.seed,
                                             args.size)
        units = PER_LAYER_UNITS
    else:
        values, reps, problems, info = measure(args.workload, args.seed,
                                               args.seconds, args.size)
        units = END_TO_END_UNITS
    attempted = sum(rep.attempted for rep in reps)
    failed = attempted if problems else sum(rep.failed for rep in reps)
    from scenarios import WORK_UNITS
    op, step = WORK_UNITS[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}  (op: {op}; step: {step})")
    for key, value in info.items():
        print(f"  {key}: {value}")
    for name, unit in units.items():
        print(f"  {name:<50} {values[name]:>16.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    ok = True
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        ok = ok and proc.returncode == 0 and bool(lines) \
            and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


WORKLOAD_NAMES = ("fleet_cohort", "checkin_storm", "datapath_forward")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (or all) and print metrics.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small runs every workload at toy size "
                             "(the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    # scenarios.py and spans.py import the program, so the functions above
    # import them only once its sources are found and on the path.
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
