"""Trace replay against the fleet: determinism, clocks, and policy gaps.

Three layers of the replay contract:

* **replay mechanics** — arrivals become intents, completions release on
  time, JCT ≥ duration with equality iff the task never waited, retries
  follow the deterministic backoff schedule;
* **cross-clock equivalence** — the event-driven and lockstep clocks
  produce *bit-identical* outcome reports (``outcome_json`` string
  equality) on the same trace;
* **the headline experiment** — on byte-identical synthesized load,
  best-fit's rejection rate beats first-fit's decisively, which is the
  paper's fleet-scale argument for headroom-aware placement.
"""

import json

import pytest

from repro.errors import WorkloadError
from repro.fleet import Fleet
from repro.units import Gbps
from repro.workloads.cluster_traces import (
    ClusterTask,
    ClusterTrace,
    PolicyComparison,
    ReplayConfig,
    SynthTraceConfig,
    compare_policies,
    replay_trace,
    synthesize_trace,
)
from repro.workloads.cluster_traces.replay import REPORT_VERSION, task_intent

from .test_cluster_traces import FIXTURE


def fresh_fleet(**kwargs):
    kwargs.setdefault("hosts", 4)
    kwargs.setdefault("policy", "best-fit")
    kwargs.setdefault("max_attempts", 8)
    return Fleet("cascade_lake_2s", **kwargs)


def replay(trace, config=None, **fleet_kwargs):
    fleet = fresh_fleet(**fleet_kwargs)
    try:
        return replay_trace(fleet, trace, config)
    finally:
        fleet.shutdown()


def tiny_trace(n=8, bandwidth=Gbps(10), spacing=0.1, duration=0.3):
    return ClusterTrace(
        tasks=[
            ClusterTask(f"task{i:02d}", f"job{i % 3}", f"ten{i % 2}",
                        arrival=i * spacing, duration=duration,
                        bandwidth=bandwidth)
            for i in range(n)
        ],
        name="tiny",
    )


# -- replay mechanics --------------------------------------------------------


def test_uncontended_replay_admits_everything_with_no_wait():
    report = replay(tiny_trace())
    assert report.submitted == 8
    assert report.admitted == 8
    assert report.rejected == 0
    assert report.retries == 0
    assert report.released == 8
    assert report.slo_attainment == 1.0
    # No contention: JCT == duration exactly, wait == 0.
    assert report.jcts == pytest.approx([0.3] * 8)
    assert report.waits == pytest.approx([0.0] * 8)


def test_jct_never_below_duration_under_contention():
    trace = synthesize_trace(SynthTraceConfig(seed=9, tasks=300,
                                              tenants=24, horizon=2.5))
    report = replay(trace, hosts=2)
    by_id = {t.task_id: t for t in trace}
    assert report.admitted > 0
    assert len(report.jcts) == report.admitted
    durations = sorted(t.duration for t in by_id.values())
    assert min(report.jcts) >= durations[0] - 1e-12
    for wait in report.waits:
        assert wait >= -1e-12


def test_retry_lands_tasks_a_no_retry_run_loses():
    trace = synthesize_trace(SynthTraceConfig(seed=9, tasks=300,
                                              tenants=24, horizon=2.5))
    with_retry = replay(trace, ReplayConfig(retry=True), hosts=2)
    without = replay(trace, ReplayConfig(retry=False), hosts=2)
    assert with_retry.retries > 0
    assert without.retries == 0
    # Every first-attempt bounce is final without retry.
    assert without.rejected == without.first_attempt_rejections
    assert with_retry.rejected < without.rejected
    # Retried admissions are the ones with nonzero wait.
    assert any(w > 0 for w in with_retry.waits)


def test_task_intent_endpoints_are_stable_and_in_vocabulary():
    sources = ["nic0", "nic1", "gpu0"]
    sinks = ["dimm0-0", "dimm1-0"]
    task = ClusterTask("j/t1", "j", "ten", arrival=0.0, duration=1.0,
                       bandwidth=Gbps(20), bidirectional=True)
    intent = task_intent(task, sources, sinks)
    assert intent == task_intent(task, sources, sinks)  # pure function
    assert intent.intent_id == "j/t1"
    assert intent.tenant_id == "ten"
    assert intent.bidirectional


def test_report_json_is_canonical_and_versioned():
    report = replay(tiny_trace())
    payload = json.loads(report.to_json())
    assert payload["schema"] == REPORT_VERSION
    assert payload["counts"]["admitted"] == 8
    assert payload["fleet"] == {"policy": "best-fit", "hosts": 4,
                                "max_attempts": 8}
    assert len(payload["trace"]["digest"]) == 64
    # Every field is outcome: nothing names the clock.
    assert report.outcome_json() == report.to_json()


def test_utilization_samples_cover_hosts_times_samples():
    config = ReplayConfig(samples=10)
    report = replay(tiny_trace(), config, hosts=3)
    assert len(report.utilization_samples) == 10 * 3
    assert all(0.0 <= u <= 1.0 for u in report.utilization_samples)


def test_replay_config_validation():
    with pytest.raises(WorkloadError, match="slo_stretch"):
        ReplayConfig(slo_stretch=0.5)
    with pytest.raises(WorkloadError, match="retry_backoff_fraction"):
        ReplayConfig(retry_backoff_fraction=0.0)
    with pytest.raises(WorkloadError, match="retry_backoff_growth"):
        ReplayConfig(retry_backoff_growth=0.9)
    with pytest.raises(WorkloadError, match="samples"):
        ReplayConfig(samples=-1)


@pytest.mark.parametrize("field, value", [
    ("slo_stretch", float("nan")), ("slo_stretch", float("inf")),
    ("max_wait_fraction", -0.5), ("max_wait_fraction", float("nan")),
    ("max_wait_fraction", float("inf")),
])
def test_replay_config_rejects_non_finite_and_negative(field, value):
    with pytest.raises(WorkloadError, match=field):
        ReplayConfig(**{field: value})


def test_replay_config_accepts_zero_wait():
    assert ReplayConfig(max_wait_fraction=0.0).max_wait_fraction == 0.0


# -- cross-clock equivalence -------------------------------------------------


@pytest.mark.parametrize("seed", [3, 11])
def test_event_and_lockstep_replays_are_bit_identical(seed, lockstep_oracle):
    trace = synthesize_trace(SynthTraceConfig(seed=seed, tasks=250,
                                              tenants=20, horizon=2.0))
    event = replay(trace)
    with lockstep_oracle():
        lockstep = replay(trace)
    assert event.outcome_json() == lockstep.outcome_json()


def test_same_trace_same_report_byte_identical():
    trace = synthesize_trace(SynthTraceConfig(seed=4, tasks=200,
                                              tenants=16, horizon=2.0))
    assert replay(trace).to_json() == replay(trace).to_json()


# -- the fixture round trip --------------------------------------------------


def test_fixture_round_trips_ingest_normalize_replay():
    from repro.workloads.cluster_traces import IngestConfig, load_trace

    trace = load_trace(FIXTURE, IngestConfig(time_scale=0.05))
    report = replay(trace, hosts=4)
    assert report.submitted == len(trace) == 33
    assert report.admitted + report.rejected == report.submitted
    assert report.released == report.admitted  # all completions land
    # The digest ties the report to this exact normalized trace.
    import hashlib
    expected = hashlib.sha256(trace.to_json().encode()).hexdigest()
    assert report.trace_digest == expected


# -- the policy comparison ---------------------------------------------------


def test_best_fit_beats_first_fit_on_identical_load():
    """The headline fleet experiment, in-suite: headroom-aware packing
    admits decisively more of a contended trace than blind first-fit."""
    trace = synthesize_trace(SynthTraceConfig(seed=0, tasks=800,
                                              tenants=48, horizon=6.0))
    comparison = compare_policies(trace, ("first-fit", "best-fit"),
                                  hosts=8, max_attempts=2)
    first = comparison.reports["first-fit"]
    best = comparison.reports["best-fit"]
    assert first.trace_digest == best.trace_digest  # byte-identical load
    assert best.rejection_rate < first.rejection_rate / 2
    assert best.slo_attainment > first.slo_attainment
    table = comparison.describe()
    assert "first-fit" in table and "best-fit" in table


def test_comparison_rejects_mismatched_digests():
    a = replay(tiny_trace())
    b = replay(synthesize_trace(SynthTraceConfig(seed=1, tasks=20,
                                                 horizon=1.0)))
    with pytest.raises(WorkloadError, match="byte-identical"):
        PolicyComparison(trace_name="x", trace_digest=a.trace_digest,
                         reports={"best-fit": b})


def test_comparison_serializes_per_policy_reports():
    trace = tiny_trace()
    comparison = compare_policies(trace, ("first-fit", "spread"), hosts=2)
    payload = json.loads(comparison.to_json())
    assert sorted(payload["policies"]) == ["first-fit", "spread"]
    assert payload["trace"]["digest"] == comparison.trace_digest


# -- replay under failures (schema v2) --------------------------------------


def fault_schedule(hosts=4, seed=5, faults=4, horizon=2.0, domains=2):
    from repro.fleet import (
        FleetFaultConfig,
        FleetHealth,
        generate_fault_schedule,
    )

    health = FleetHealth([f"host{i:02d}" for i in range(hosts)],
                         domains=domains)
    return generate_fault_schedule(
        FleetFaultConfig(seed=seed, faults=faults, horizon=horizon), health)


def test_v2_report_carries_failure_counters():
    report = replay(tiny_trace())
    assert REPORT_VERSION.endswith("/v2")
    payload = json.loads(report.to_json())
    assert payload["counts"]["retries_exhausted"] == 0
    assert payload["counts"]["sessions_shed"] == 0
    assert payload["availability"] == 1.0
    assert payload["faults"] is None  # no schedule injected
    assert report.availability == 1.0


def test_faulted_replay_populates_fault_summary():
    trace = synthesize_trace(SynthTraceConfig(seed=4, tasks=200,
                                              tenants=12, horizon=1.0))
    schedule = fault_schedule(horizon=trace.horizon)
    fleet = fresh_fleet(failure_domains=2)
    try:
        report = replay_trace(fleet, trace, ReplayConfig(samples=4),
                              faults=schedule)
    finally:
        fleet.shutdown()
    assert report.fault_summary is not None
    assert report.fault_summary["schedule_events"] == len(schedule)
    assert report.fault_summary["injector"]["crashes"] >= 1
    assert 0.0 <= report.availability <= 1.0
    assert report.sessions_shed == report.fault_summary["recovery"]["shed"]
    payload = json.loads(report.to_json())
    assert payload["faults"]["schedule_seed"] == schedule.seed
    assert "availability" in report.describe()


@pytest.mark.parametrize("seed", range(4))
def test_faulted_replays_are_bit_identical_across_clocks(seed,
                                                        lockstep_oracle):
    trace = synthesize_trace(SynthTraceConfig(seed=seed, tasks=150,
                                              tenants=8, horizon=1.0))
    schedule = fault_schedule(seed=seed, horizon=trace.horizon)
    outcomes = []
    for oracle in (False, True):
        with lockstep_oracle(oracle):
            fleet = fresh_fleet(failure_domains=2)
        try:
            report = replay_trace(fleet, trace, ReplayConfig(samples=4),
                                  faults=schedule)
        finally:
            fleet.shutdown()
        outcomes.append(report.outcome_json())
    assert outcomes[0] == outcomes[1]


def test_comparison_table_grows_failure_columns():
    trace = synthesize_trace(SynthTraceConfig(seed=2, tasks=120,
                                              tenants=8, horizon=1.0))
    schedule = fault_schedule(seed=2, horizon=trace.horizon)
    comparison = compare_policies(
        trace, ("first-fit", "best-fit"), hosts=4, max_attempts=8,
        config=ReplayConfig(samples=4), faults=schedule,
        failure_domains=2,
    )
    table = comparison.describe()
    assert "avail" in table and "shed" in table
    for report in comparison.reports.values():
        assert report.fault_summary is not None
