"""One timed repetition of one workload, in a process of its own.

``run.py`` starts this script once per repetition, so every repetition
starts with cold process-wide state: the shared route caches of
``HostTopology`` are empty (the enumeration every CLI user pays for is
paid again) and ``ru_maxrss`` is this repetition's own high-water mark.

It prints one JSON object on standard output: the timings, the exact
work counters, the correctness problems found and, when traced, the
per-layer metrics.  Run it from the root of the repository::

    PYTHONPATH=src python3 perfbench/rep.py --workload replay-64 --seed 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter
from typing import Dict, List, Tuple

from calibrate import Calibrator
from layers import units
from provenance import provenance
from spans import (OUT_DIR, SpanRecorder, format_table, layer_table,
                   span_problems, write_chrome_trace)
from workloads import WORKLOADS, Outcome, State, check

#: Calibration bursts before and after set-up, and before and after a
#: traced drive.
SETUP_BURSTS = 5


def time_decisions(fleet) -> List[float]:
    """Time every ``try_submit`` on one fleet instance; returns the list
    the times are appended to.

    The timer shadows the bound method on the instance only, so the
    program's classes stay unwrapped.
    """
    samples: List[float] = []
    inner = fleet.try_submit
    append = samples.append

    def try_submit(intent):
        start = perf_counter()
        placed = inner(intent)
        append(perf_counter() - start)
        return placed

    fleet.try_submit = try_submit
    return samples


def calibrate_during(fleet, calibrator: Calibrator) -> None:
    """Time a kernel burst between fleet advances when one is due.

    The driver advances the fleet before every event it handles, so the
    bursts sample the machine's speed throughout the run, on the same
    core, between calls into the program rather than inside them.
    """
    inner = fleet.advance_to
    due = calibrator.due

    def advance_to(t):
        due()
        return inner(t)

    fleet.advance_to = advance_to


def counters(state: State, outcome: Outcome) -> Dict[str, int]:
    """Work counts read from public attributes; exact for a seed."""
    fleet = state.fleet
    hosts = [host for _hid, host in fleet.hosts()]
    scheduler = fleet.scheduler
    return {
        "decisions": outcome.expected_decisions,
        "probes": scheduler.probe_count,
        "releases": scheduler.released_count,
        "arbiter_rounds": sum(h.manager.arbiter.adjustments for h in hosts),
        "recomputes": sum(h.network.recompute_count for h in hosts),
        "host_events": sum(h.engine.events_processed for h in hosts),
        "evacuations": (state.recovery.evacuated
                        if state.recovery is not None else 0),
        "slo_alerts": len(fleet.slo.alerts) if fleet.slo is not None else 0,
        "trace_events": outcome.trace_events,
    }


def layer_metrics(rec: SpanRecorder, state: State, outcome: Outcome,
                  base: Dict[str, int], run_s: float
                  ) -> Tuple[Dict[str, float], Dict[str, dict]]:
    """Every per-layer metric of one traced run except
    ``trace.overhead_frac``, which needs the untraced run; and the
    per-layer time table they were read from."""
    calls = rec.calls()
    hits = dict(zip(rec.names, rec.hits))
    items = dict(zip(rec.names, rec.items))
    table = layer_table(rec, run_s)
    decisions = calls["Fleet.try_submit"]
    probes = base["probes"]
    migrations = calls["MigrationPlanner.migrate"]
    recovery = (state.recovery.counters() if state.recovery is not None
                else {"evacuated": 0, "retries": 0, "shed": 0})
    m: Dict[str, float] = {
        "core.arbiter.rounds": calls["DynamicArbiter.adjust_once"],
        "core.arbiter.compute_caps_calls": calls["compute_caps"],
        "core.arbiter.cap_writes": calls["FabricNetwork.set_tenant_link_cap"],
        "fleet.telemetry.matrix_calls": calls["FleetTelemetry.matrix"],
        "fleet.telemetry.headroom_calls": calls["FleetTelemetry.headroom"],
        "fleet.placement.rank_calls": sum(
            n for name, n in calls.items() if name.endswith(".rank_matrix")),
        "fleet.scheduler.decisions": decisions,
        "fleet.scheduler.probes": probes,
        "fleet.scheduler.probe_hit_ratio": (
            (hits["Fleet.try_submit"] + hits["ClusterScheduler.place"])
            / probes if probes else 0.0),
        "fleet.scheduler.releases": base["releases"],
        "core.manager.submits": calls["HostNetworkManager.try_submit"],
        "core.manager.releases": calls["HostNetworkManager.release"],
        "sim.network.recomputes": base["recomputes"],
        "sim.network.util_snapshots":
            calls["FabricNetwork.link_utilizations"],
        "fleet.clock.advances": calls["Fleet.advance_to"],
        "sim.engine.events": base["host_events"],
        "slo.samples": items["FleetSloMonitor.ingest"],
        "slo.evaluations": calls["FleetSloMonitor.evaluate"],
        "slo.alerts": base["slo_alerts"],
        "fleet.faults.actions": outcome.fault_actions,
        "fleet.recovery.evacuated": recovery["evacuated"],
        "fleet.recovery.retries": recovery["retries"],
        "fleet.recovery.shed": recovery["shed"],
        "fleet.migration.attempts": migrations,
        "fleet.migration.committed_ratio": (
            hits["MigrationPlanner.migrate"] / migrations
            if migrations else 0.0),
        "driver.trace_events": outcome.trace_events,
    }
    m["core.arbiter.cap_writes_per_submit"] = (
        m["core.arbiter.cap_writes"] / decisions)
    m["fleet.telemetry.headroom_per_decision"] = (
        m["fleet.telemetry.headroom_calls"] / decisions)
    m["trace.run_s"] = run_s
    wanted = units("per_layer")
    for layer, row in table.items():
        for key in ("self", "busy"):
            if f"{layer}.{key}_s" in wanted:
                m[f"{layer}.{key}_s"] = row[f"{key}_s"]
            if f"{layer}.{key}_frac" in wanted:
                m[f"{layer}.{key}_frac"] = row[f"{key}_s"] / run_s
    return m, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    setup, drive = WORKLOADS[args.workload]

    rec = None
    if args.trace:
        rec = SpanRecorder()
        rec.install()
    setup_cal = Calibrator()
    for _ in range(SETUP_BURSTS):
        setup_cal.burst()
    start = perf_counter()
    state = setup(args.seed)
    setup_s = perf_counter() - start
    for _ in range(SETUP_BURSTS):
        setup_cal.burst()

    run_cal = Calibrator()
    decide_s = None
    if rec:
        # Bursts would land inside spans, so a traced run samples the
        # machine's speed just before and just after the drive.
        for _ in range(SETUP_BURSTS):
            run_cal.burst()
        rec.active = True
    else:
        run_cal.burst()
        decide_s = time_decisions(state.fleet)
        calibrate_during(state.fleet, run_cal)
    before = run_cal.spent
    start = perf_counter()
    outcome = drive(state)
    end = perf_counter()
    run_s = end - start - (run_cal.spent - before)
    if rec:
        rec.active = False
        for _ in range(SETUP_BURSTS):
            run_cal.burst()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    base = counters(state, outcome)
    problems = check(state, outcome)
    result = {
        "workload": args.workload, "seed": args.seed, "traced": bool(rec),
        "setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb,
        "setup_speed": setup_cal.speed(), "run_speed": run_cal.speed(),
        "bursts": len(run_cal.samples),
        "submitted": outcome.submitted, "admitted": outcome.admitted,
        "rejected": outcome.rejected, "released": outcome.released,
        "rejection_rate": outcome.rejection_rate,
        "slo_attainment": outcome.slo_attainment,
        "availability": outcome.availability, "shed": outcome.shed,
        "digest": outcome.digest, "counters": base,
    }
    if decide_s is not None:
        result["decide_s"] = decide_s
        if len(decide_s) != outcome.expected_decisions:
            problems.append(
                f"timed {len(decide_s)} decisions, driver made "
                f"{outcome.expected_decisions}")
    if rec:
        metrics, table = layer_metrics(rec, state, outcome, base,
                                       run_s)
        problems.extend(span_problems(rec, start, end))
        if metrics["fleet.scheduler.decisions"] != base["decisions"]:
            problems.append("traced decision count differs from driver's")
        if metrics["core.arbiter.rounds"] != base["arbiter_rounds"]:
            problems.append("wrapped adjust_once calls differ from the "
                            "arbiters' own round counters")
        result["layers"] = metrics
        result["spans"] = len(rec.name_ids)
        os.makedirs(OUT_DIR, exist_ok=True)
        stem = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}")
        meta = dict(provenance(args.seed), workload=args.workload,
                    run_s=run_s, spans=len(rec.name_ids))
        result["chrome_spans"] = write_chrome_trace(
            rec, stem + "-trace.json", start, meta)
        with open(stem + "-layers.txt", "w", encoding="utf-8") as out:
            out.write(f"# {json.dumps(meta, sort_keys=True)}\n"
                      f"{format_table(table, run_s)}\n")
        rec.uninstall()
    state.fleet.shutdown()
    result["problems"] = problems
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
