"""The benchmark's three seeded fleet workloads.

Each workload is three steps.  ``setup`` makes the inputs from the seed
(a synthesized trace, churn events, a fault schedule) and builds the
fleet; the benchmark times it as ``setup_s``.  ``drive`` feeds the inputs
to the fleet from one closed-loop driver, which handles the next
simulated event only after the previous call returns; it is timed as
``run_s``.  ``check`` returns every violated correctness condition.

All fleets are serial and in-process (no ``parallel=``), and the driver
calls only the fleet's current surface: ``try_submit``, ``release``,
``advance_to`` and the workload drivers ``replay_trace`` /
``generate_events``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.fleet import (
    Fleet,
    FleetChurnConfig,
    FleetFaultConfig,
    FleetHealth,
    FleetRecoveryConfig,
    FleetRecoveryController,
    check_fleet_invariants,
    generate_fault_schedule,
)
from repro.fleet.workload import generate_events
from repro.workloads.cluster_traces import (
    ReplayConfig,
    SynthTraceConfig,
    replay_trace,
    synthesize_trace,
)

PRESET = "cascade_lake_2s"


@dataclass
class State:
    """One built workload: the fleet plus the inputs it will be fed."""

    fleet: Fleet
    inputs: Dict[str, object]
    recovery: Optional[FleetRecoveryController] = None


@dataclass
class Outcome:
    """What one drive produced.

    Attributes:
        submitted / admitted / rejected / released: Task counters.
        expected_decisions: ``Fleet.try_submit`` calls the driver made
            (arrivals plus retries), for checking the decision timer.
        trace_events: Events the driver handled.
        rejection_rate / slo_attainment / availability: The
            program's own figures (``ReplayReport``'s properties):
            final rejections over submitted tasks, tasks meeting their
            stretch SLO over submitted tasks, and admitted sessions not
            lost to host failures over admitted ones.
        shed: Admitted tasks lost to host failures.
        fault_actions: Fault-injector actions applied.
        live: Sessions still placed when the drive ended.
        drained: Whether every task had completed by then (replays run
            until the last completion; churn stops at its horizon).
        digest: SHA-256 over the canonical outcome (the report's
            ``outcome_json`` for replays, the counters and final
            placements for churn).  Two runs of one seed must agree.
    """

    submitted: int
    admitted: int
    rejected: int
    released: int
    expected_decisions: int
    trace_events: int
    rejection_rate: float
    slo_attainment: float
    availability: float
    shed: int = 0
    fault_actions: int = 0
    live: int = 0
    drained: bool = False
    digest: str = ""


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _placements(fleet: Fleet) -> List[List[str]]:
    return sorted([p.intent_id, p.host_id] for p in fleet.placements())


# -- replay-64 and faults-slo-16 ---------------------------------------------

def _replay_outcome(state: State, report) -> Outcome:
    placements = _placements(state.fleet)
    faults = report.fault_summary or {}
    injector = faults.get("injector", {})
    actions = sum(injector.get(k, 0) for k in (
        "crashes", "recoveries", "degrades", "restores", "partitions",
        "heals"))
    return Outcome(
        submitted=report.submitted, admitted=report.admitted,
        rejected=report.rejected, released=report.released,
        expected_decisions=report.submitted + report.retries,
        trace_events=report.trace_events,
        rejection_rate=report.rejection_rate,
        slo_attainment=report.slo_attainment,
        availability=report.availability, shed=report.sessions_shed,
        fault_actions=actions, live=len(placements), drained=True,
        digest=_sha(report.outcome_json() + json.dumps(placements)),
    )


def setup_replay64(seed: int) -> State:
    trace = synthesize_trace(SynthTraceConfig(
        seed=seed, tasks=2_000, tenants=96, horizon=8.0))
    fleet = Fleet(PRESET, hosts=64, policy="best-fit", max_attempts=8)
    return State(fleet=fleet, inputs={"trace": trace})


def drive_replay64(state: State) -> Outcome:
    report = replay_trace(state.fleet, state.inputs["trace"],
                          ReplayConfig())
    return _replay_outcome(state, report)


FAULT_HOSTS = 16
FAULT_DOMAINS = 4


def setup_faults16(seed: int) -> State:
    trace = synthesize_trace(SynthTraceConfig(
        seed=seed, tasks=1_000, tenants=96, horizon=16.0))
    health = FleetHealth([f"host{i:02d}" for i in range(FAULT_HOSTS)],
                         domains=FAULT_DOMAINS)
    schedule = generate_fault_schedule(
        FleetFaultConfig(seed=seed, faults=12, horizon=trace.horizon),
        health)
    fleet = Fleet(PRESET, hosts=FAULT_HOSTS, policy="best-fit",
                  max_attempts=8, failure_domains=FAULT_DOMAINS, slo=True)
    recovery = FleetRecoveryController(
        fleet, FleetRecoveryConfig.for_horizon(trace.horizon))
    return State(fleet=fleet, inputs={"trace": trace, "faults": schedule},
                 recovery=recovery)


def drive_faults16(state: State) -> Outcome:
    report = replay_trace(state.fleet, state.inputs["trace"],
                          ReplayConfig(), faults=state.inputs["faults"],
                          recovery=state.recovery)
    return _replay_outcome(state, report)


# -- churn-256 ---------------------------------------------------------------

CHURN_HOSTS = 256


def setup_churn256(seed: int) -> State:
    config = FleetChurnConfig(seed=seed, horizon=0.2, arrival_rate=8000.0,
                              mean_holding=0.03)
    fleet = Fleet(PRESET, hosts=CHURN_HOSTS, policy="best-fit",
                  max_attempts=4)
    return State(fleet=fleet, inputs={
        "events": generate_events(config, fleet),
        "horizon": config.horizon})


def drive_churn256(state: State) -> Outcome:
    """The loop of ``repro.fleet.workload.run_churn`` over pre-generated
    events: rejections are final, departures release what is placed."""
    fleet = state.fleet
    events = state.inputs["events"]
    submitted = admitted = rejected = released = 0
    for time, _seq, kind, payload in events:
        fleet.advance_to(time)
        if kind == "arrive":
            submitted += 1
            if fleet.try_submit(payload) is not None:
                admitted += 1
            else:
                rejected += 1
        elif fleet.scheduler.has_intent(payload):
            fleet.release(payload)
            released += 1
    fleet.advance_to(state.inputs["horizon"])
    placements = _placements(fleet)
    counts = [submitted, admitted, rejected, released]
    return Outcome(
        submitted=submitted, admitted=admitted, rejected=rejected,
        released=released, expected_decisions=submitted,
        trace_events=len(events),
        rejection_rate=rejected / submitted,
        # No retries: every admitted session runs exactly its holding
        # time, so it meets any stretch SLO; rejections miss it.  No
        # faults: no admitted session is lost.
        slo_attainment=admitted / submitted, availability=1.0,
        live=len(placements),
        digest=_sha(json.dumps([counts, placements])),
    )


# -- checks -------------------------------------------------------------------

def check(state: State, outcome: Outcome) -> List[str]:
    """Every violated correctness condition of one run (empty = pass)."""
    problems = [f"invariant {v.name}: {v.detail}" for v in
                check_fleet_invariants(state.fleet, recovery=state.recovery)]
    o = outcome
    if o.submitted != o.admitted + o.rejected:
        problems.append(f"submitted {o.submitted} != admitted {o.admitted}"
                        f" + rejected {o.rejected}")
    recovery = state.recovery
    parked = (recovery.cancelled + recovery.pending_replacements
              if recovery is not None else 0)
    if o.admitted != o.released + o.live + o.shed + parked:
        problems.append(
            f"admitted {o.admitted} != released {o.released} + live "
            f"{o.live} + shed {o.shed} + cancelled or parked {parked}")
    if o.drained and o.live:
        problems.append(f"{o.live} sessions still placed after every "
                        f"task completed")
    scheduler = state.fleet.scheduler
    if scheduler.admitted_count != o.admitted or (
            scheduler.admitted_count + scheduler.rejected_count
            != o.expected_decisions):
        problems.append(
            f"scheduler admitted {scheduler.admitted_count} and rejected "
            f"{scheduler.rejected_count}; driver admitted {o.admitted} "
            f"in {o.expected_decisions} decisions")
    return problems


#: Workload name -> (setup, drive).  Why each was chosen is recorded in
#: BENCHMARK.json.
WORKLOADS: Dict[str, Tuple[Callable[[int], State],
                           Callable[[State], Outcome]]] = {
    "replay-64": (setup_replay64, drive_replay64),
    "churn-256": (setup_churn256, drive_churn256),
    "faults-slo-16": (setup_faults16, drive_faults16),
}
