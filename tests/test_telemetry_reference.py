"""Fleet telemetry against a from-scratch rollup, after every fleet operation.

Seeded churn (with link failures inside the hosts' engines), replay and
faulted-replay runs drive small fleets through their public drivers.
After every fleet operation (submit, release, advance, migration,
fault-injector step), every host's
:meth:`FleetTelemetry.headroom` must agree field by field — all but
``updated_at`` — with a rollup recomputed from the host's ground truth:
its ledger, its links, its live utilizations, its monitor's latest
verdict and the fleet's fault mark.  The rollup's push subscriptions are
the only thing that keeps a summary fresh, so a signal that fails to
dirty a host shows up here as a stale field.
"""

import math
import random

import pytest

from repro.fleet import (
    Fleet,
    FleetChurnConfig,
    FleetFaultConfig,
    FleetHealth,
    FleetRecoveryConfig,
    FleetRecoveryController,
    generate_fault_schedule,
    run_churn,
)
from repro.fleet.faults import FleetFaultInjector
from repro.fleet.migration import MigrationPlanner
from repro.fleet.telemetry import canonical_device_keys
from repro.monitor import FailureInjector
from repro.sim.network import FORWARD, REVERSE
from repro.topology.elements import LinkClass
from repro.workloads.cluster_traces import (
    ReplayConfig,
    SynthTraceConfig,
    replay_trace,
    synthesize_trace,
)


def reference_headroom(fleet, host_id, verdicts):
    """One host's summary fields, recomputed from ground truth."""
    host = fleet.host(host_id)
    manager = host.manager
    reserved = manager.ledger.reserved_map
    links = list(host.topology.links())
    fracs, lows, highs, frees, peaks = [], [], [], [], []
    link_free = {}
    for link in links:
        if (link.link_class is LinkClass.INTER_HOST or link.capacity <= 0
                or not link.up):
            continue
        budget = link.capacity * manager.admission.headroom
        free = [budget - reserved.get((link.link_id, d), 0.0)
                for d in (FORWARD, REVERSE)]
        fracs += [f / link.capacity for f in free]
        lows.append(min(free))
        highs.append(max(free))
        frees += [f for f in free if f > 0.0]
        peaks.append(max(reserved.get((link.link_id, d), 0.0)
                         for d in (FORWARD, REVERSE)) / link.capacity)
        link_free[link.link_id] = min(free)
    keys = canonical_device_keys(host.topology)
    attach_free = {}
    for device in host.topology.endpoints():
        attached = [link_free[link.link_id] for link in
                    host.topology.incident_links(device.device_id)
                    if link.link_id in link_free]
        if attached:
            attach_free[keys[device.device_id]] = max(attached)
    return {
        "host_id": host_id,
        "free_fraction_min": min(fracs) if fracs else 0.0,
        "free_fraction_mean": sum(fracs) / len(fracs) if fracs else 0.0,
        "free_capacity_total": sum(frees),
        "free_capacity_max_directed": max(highs, default=0.0),
        "free_capacity_min_directed": min(lows) if lows else 0.0,
        "reserved_peak": max(peaks, default=0.0),
        "utilization_peak": max(
            host.network.link_utilizations().values(), default=0.0),
        "placements": len(manager.placements()),
        "down_links": sum(1 for link in links if not link.up),
        "degraded_links": sum(
            1 for link in links
            if link.up and link.effective_capacity < link.capacity),
        "healthy": (verdicts.get(host_id, True)
                    and not fleet.telemetry.is_faulted(host_id)),
        "attach_free": attach_free,
    }


def assert_matches_reference(fleet, host_id, verdicts):
    summary = fleet.telemetry.headroom(host_id)
    for name, want in reference_headroom(fleet, host_id, verdicts).items():
        got = getattr(summary, name)
        if isinstance(want, float):
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-3), (
                host_id, name, got, want)
        elif isinstance(want, dict):
            assert got.keys() == want.keys(), (host_id, name)
            for key in want:
                assert math.isclose(got[key], want[key], rel_tol=1e-9,
                                    abs_tol=1e-3), (host_id, name, key)
        else:
            assert got == want, (host_id, name, got, want)


class ReferenceChecker:
    """Checks every host of one fleet after each wrapped operation."""

    def __init__(self, fleet, monkeypatch):
        self.fleet = fleet
        self.checks = 0
        # The monitors' latest verdicts, captured independently of the
        # telemetry's own subscription.
        self.verdicts = {}
        for host_id, host in fleet.hosts():
            if host.monitor is not None:
                host.monitor.on_report(
                    lambda report, hid=host_id:
                        self.verdicts.__setitem__(hid, report.healthy))
        for cls, name, fleet_of in (
                (Fleet, "try_submit", lambda obj: obj),
                (Fleet, "release", lambda obj: obj),
                (Fleet, "advance_to", lambda obj: obj),
                (MigrationPlanner, "migrate", lambda obj: obj.fleet),
                (FleetFaultInjector, "advance_to", lambda obj: obj.fleet)):
            self._wrap(monkeypatch, cls, name, fleet_of)

    def _wrap(self, monkeypatch, cls, name, fleet_of):
        inner = getattr(cls, name)

        def checked(obj, *args, **kwargs):
            try:
                return inner(obj, *args, **kwargs)
            finally:
                if fleet_of(obj) is self.fleet:
                    self.check()

        monkeypatch.setattr(cls, name, checked)

    def check(self):
        self.checks += 1
        for host_id in self.fleet.host_ids():
            assert_matches_reference(self.fleet, host_id, self.verdicts)


@pytest.mark.parametrize("seed", [0, 1])
def test_churn_headrooms_match_reference(seed, monkeypatch):
    fleet = Fleet("cascade_lake_2s", hosts=6, resilience=True,
                  rebalance_threshold=0.3)
    # Link failures inside the hosts' own engines reach the rollup only
    # through the fabric's re-solve signal.
    rng = random.Random(seed)
    for host_id in rng.sample(fleet.host_ids(), 3):
        injector = FailureInjector(fleet.host(host_id).network)
        injector.schedule(lambda inj: inj.fail_link("pcie-nic0"),
                          at=rng.uniform(0.005, 0.03), clear_after=0.01)
        injector.schedule(lambda inj: inj.degrade_link("pcie-nic1", 0.5),
                          at=rng.uniform(0.005, 0.03), clear_after=0.01)
    checker = ReferenceChecker(fleet, monkeypatch)
    report = run_churn(fleet, FleetChurnConfig(
        seed=seed, horizon=0.05, arrival_rate=4000.0, mean_holding=0.02))
    assert report.admitted and report.released
    assert checker.checks > 2 * report.submitted


@pytest.mark.parametrize("seed", [0, 1])
def test_replay_headrooms_match_reference(seed, monkeypatch):
    trace = synthesize_trace(SynthTraceConfig(
        seed=seed, tasks=120, tenants=24, horizon=2.0))
    fleet = Fleet("cascade_lake_2s", hosts=6, policy="best-fit",
                  max_attempts=4)
    checker = ReferenceChecker(fleet, monkeypatch)
    report = replay_trace(fleet, trace, ReplayConfig())
    assert report.admitted and report.released
    assert checker.checks > report.submitted


@pytest.mark.parametrize("seed", [0, 1])
def test_faulted_replay_headrooms_match_reference(seed, monkeypatch):
    trace = synthesize_trace(SynthTraceConfig(
        seed=seed, tasks=150, tenants=24, horizon=4.0))
    fleet = Fleet("cascade_lake_2s", hosts=8, policy="best-fit",
                  max_attempts=4, failure_domains=4, slo=True)
    schedule = generate_fault_schedule(
        FleetFaultConfig(seed=seed, faults=8, horizon=trace.horizon),
        FleetHealth(fleet.host_ids(), domains=4))
    recovery = FleetRecoveryController(
        fleet, FleetRecoveryConfig.for_horizon(trace.horizon))
    checker = ReferenceChecker(fleet, monkeypatch)
    report = replay_trace(fleet, trace, ReplayConfig(), faults=schedule,
                          recovery=recovery)
    injector = report.fault_summary["injector"]
    assert injector["crashes"] + injector["degrades"] > 0
    assert checker.checks > report.submitted
