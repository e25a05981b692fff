"""Fleet fault handling: the cost of chaos campaigns and evacuation.

Timed hot paths feeding the regression gate (``compare_benchmarks.py``):

* a seeded 16-host chaos campaign — churn + crashes/degrades/partitions
  + self-healing evacuation + per-fault invariant audits — the macro
  cost of the whole fault layer;
* one crash-evacuation burst in isolation — wake, release, forget,
  re-place for every session on a loaded host — the micro cost the
  recovery controller pays per host failure.
"""

from repro.core import pipe
from repro.fleet import (
    Fleet,
    FleetChaosConfig,
    FleetFaultEvent,
    FleetFaultInjector,
    FleetFaultSchedule,
    FleetRecoveryController,
    run_fleet_campaign,
)
from repro.units import Gbps

CAMPAIGN_HOSTS = 16
CAMPAIGN = dict(hosts=CAMPAIGN_HOSTS, horizon=0.15, arrival_rate=1200.0,
                tenants=8, faults=8, deep_audits=False)


def chaos_outcome():
    report = run_fleet_campaign(FleetChaosConfig(seed=0, **CAMPAIGN))
    assert report.passed, "\n".join(report.violations[:5])
    assert report.submitted > 100  # the campaign actually ran
    return report.outcome_json


def test_fleet_chaos_16_hosts_event(benchmark):
    benchmark.pedantic(chaos_outcome, rounds=2, iterations=1)


def crash_evacuation_burst():
    """Crash one host holding 12 sessions; every one must land alive."""
    fleet = Fleet("cascade_lake_2s", hosts=8, policy="best-fit",
                  max_attempts=4, failure_domains=4)
    recovery = FleetRecoveryController(fleet)
    try:
        for i in range(12):
            fleet.submit(pipe(f"s{i:02d}", f"t{i % 4}", src="nic0",
                              dst="dimm0-0", bandwidth=Gbps(8)))
        schedule = FleetFaultSchedule(seed=0, events=(
            FleetFaultEvent(time=0.001, kind="crash", targets=("host00",),
                            duration=0.01),
        ))
        injector = FleetFaultInjector(fleet, schedule, recovery=recovery)
        injector.advance_to(0.002)
        assert recovery.shed == 0
        return recovery.evacuated
    finally:
        fleet.shutdown()


def test_crash_evacuation_burst(benchmark):
    evacuated = benchmark.pedantic(crash_evacuation_burst, rounds=3,
                                   iterations=1)
    assert evacuated >= 1
