"""The layers the benchmark attributes time to, and what each should move.

``WRAPPED`` names the public entry points the traced run wraps, each
with the layer (a ``repro`` module) its time belongs to.  Untraced runs
wrap none of the program's classes: they only shadow ``try_submit``
(the decision timer) and ``advance_to`` (the calibration bursts) on the
one fleet instance, so the end-to-end numbers come from the unwrapped
program.

``MOVES`` is the map, written down before any measurement, from each
per-layer metric to the end-to-end metrics a change in that layer should
move, and on which workloads.  Layer times are seconds of the traced
run (``trace.run_s``), except for the four layers that only the faulted
workload exercises: their times are shares of ``trace.run_s``, because
on the other two workloads they are exactly zero, and a time that reads
the same on every run looks like a stuck timer.  Names, units and
directions come from ``BENCHMARK.json``, whose fixed schema has no room
for the map, so the map lives here and is printed by
``python3 perfbench/run.py --layers``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

#: The benchmark's definition, at the root of the repository.
SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")

#: The driver: whatever the replay or churn loop does outside every
#: wrapped layer call (heap bookkeeping, report scoring, sampling loops).
DRIVER = "driver"

#: (layer, module, class or None for a module function, attribute).
#: Only attributes a class defines itself are wrapped, so an override
#: and its base are each timed once, never twice through inheritance.
WRAPPED: List[Tuple[str, str, Optional[str], str]] = [
    ("fleet.scheduler", "repro.fleet.cluster", "Fleet", "try_submit"),
    ("fleet.scheduler", "repro.fleet.cluster", "Fleet", "release"),
    ("fleet.scheduler", "repro.fleet.scheduler", "ClusterScheduler",
     "submit"),
    ("fleet.scheduler", "repro.fleet.scheduler", "ClusterScheduler",
     "place"),
    ("fleet.scheduler", "repro.fleet.scheduler", "ClusterScheduler",
     "release"),
    ("fleet.placement", "repro.fleet.placement", "FirstFitPolicy",
     "rank_matrix"),
    ("fleet.placement", "repro.fleet.placement", "BestFitHeadroomPolicy",
     "rank_matrix"),
    ("fleet.placement", "repro.fleet.placement", "SpreadByTenantPolicy",
     "rank_matrix"),
    ("fleet.telemetry", "repro.fleet.telemetry", "FleetTelemetry",
     "matrix"),
    ("fleet.telemetry", "repro.fleet.telemetry", "FleetTelemetry",
     "headrooms"),
    ("fleet.telemetry", "repro.fleet.telemetry", "FleetTelemetry",
     "headroom"),
    ("fleet.clock", "repro.fleet.cluster", "Fleet", "advance_to"),
    ("fleet.clock", "repro.fleet.clock", "LockstepFleetClock",
     "advance_to"),
    ("fleet.clock", "repro.fleet.clock", "EventDrivenFleetClock",
     "advance_to"),
    ("fleet.clock", "repro.fleet.clock", "FleetClock", "wake"),
    ("fleet.clock", "repro.fleet.clock", "EventDrivenFleetClock", "wake"),
    ("sim.engine", "repro.sim.engine", "Engine", "step"),
    ("core.manager", "repro.core.manager", "HostNetworkManager",
     "try_submit"),
    ("core.manager", "repro.core.manager", "HostNetworkManager", "release"),
    ("core.arbiter", "repro.core.arbiter", "DynamicArbiter", "adjust_once"),
    ("core.arbiter", "repro.core.arbiter", None, "compute_caps"),
    ("sim.network", "repro.sim.network", "FabricNetwork",
     "set_tenant_link_cap"),
    ("sim.network", "repro.sim.network", "FabricNetwork",
     "clear_tenant_link_cap"),
    ("sim.network", "repro.sim.network", "FabricNetwork",
     "link_utilizations"),
    ("slo", "repro.slo.monitor", "FleetSloMonitor", "ingest"),
    ("slo", "repro.slo.monitor", "FleetSloMonitor", "evaluate"),
    ("fleet.faults", "repro.fleet.faults", "FleetFaultInjector",
     "advance_to"),
    ("fleet.recovery", "repro.fleet.recovery", "FleetRecoveryController",
     "process"),
    ("fleet.recovery", "repro.fleet.recovery", "FleetRecoveryController",
     "evacuate_host"),
    ("fleet.migration", "repro.fleet.migration", "MigrationPlanner",
     "migrate"),
]

#: Per-layer metric -> the end-to-end metrics it should move, and where.
#: Units and directions are read from ``BENCHMARK.json``.
MOVES: Dict[str, str] = {
    **dict.fromkeys([
        "core.arbiter.rounds", "core.arbiter.compute_caps_calls",
        "core.arbiter.cap_writes", "core.arbiter.cap_writes_per_submit",
        "core.arbiter.busy_s", "core.arbiter.self_s",
    ], "run_s, decide_p50_us on replay-64; near-flat on faults-slo-16"),
    **dict.fromkeys([
        "fleet.telemetry.matrix_calls", "fleet.telemetry.headroom_calls",
        "fleet.telemetry.headroom_per_decision", "fleet.telemetry.busy_s",
        "fleet.telemetry.self_s", "fleet.placement.rank_calls",
        "fleet.placement.busy_s", "fleet.placement.self_s",
    ], "decide_p50_us, decide_p99_us on churn-256; small on replay-64"),
    **dict.fromkeys([
        "fleet.scheduler.decisions", "fleet.scheduler.probes",
        "fleet.scheduler.probe_hit_ratio", "fleet.scheduler.releases",
        "fleet.scheduler.self_s", "core.manager.submits",
        "core.manager.releases", "core.manager.busy_s",
        "core.manager.self_s",
    ], "decide_* on all three workloads"),
    **dict.fromkeys([
        "sim.network.recomputes", "sim.network.util_snapshots",
        "sim.network.busy_s", "sim.network.self_s",
    ], "run_s on all three workloads"),
    **dict.fromkeys([
        "fleet.clock.advances", "fleet.clock.self_s", "sim.engine.events",
        "sim.engine.busy_s", "sim.engine.self_s",
    ], "run_s on faults-slo-16; small on replay-64"),
    **dict.fromkeys([
        "slo.samples", "slo.evaluations", "slo.alerts", "slo.busy_frac",
        "slo.self_frac",
    ], "run_s on faults-slo-16 only"),
    **dict.fromkeys([
        "fleet.faults.actions", "fleet.faults.self_frac",
        "fleet.recovery.evacuated", "fleet.recovery.retries",
        "fleet.recovery.shed", "fleet.recovery.busy_frac",
        "fleet.recovery.self_frac", "fleet.migration.attempts",
        "fleet.migration.committed_ratio", "fleet.migration.busy_frac",
        "fleet.migration.self_frac",
    ], "run_s, availability on faults-slo-16 only"),
    "driver.self_s": "run_s on every workload",
    "driver.trace_events": "run_s on every workload",
    "trace.run_s": "nothing: the traced run's own run_s",
    "trace.overhead_frac":
        "nothing: the cost of watching, traced run_s over untraced run_s - 1",
}


def spec() -> dict:
    """``BENCHMARK.json``: the metric catalogue, its units and bounds."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def units(kind: str) -> Dict[str, str]:
    """Metric name -> unit for ``kind`` ``"end_to_end"`` or
    ``"per_layer"``, in the order of ``BENCHMARK.json``."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


def describe() -> str:
    """The metric-to-metric map as a plain table."""
    per_layer = units("per_layer")
    width = max(len(name) for name in MOVES)
    lines = [f"{'per-layer metric':<{width}}  unit      should move"]
    for name, unit in per_layer.items():
        lines.append(f"{name:<{width}}  {unit:<8}  {MOVES[name]}")
    return "\n".join(lines)
