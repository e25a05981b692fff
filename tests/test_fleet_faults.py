"""Fleet faults: health/domains, schedules, injector, recovery, retries."""

import pytest

from repro.errors import FleetError, MigrationError, UnknownHostError
from repro.core import pipe
from repro.fleet import (
    Fleet,
    FleetFaultConfig,
    FleetFaultEvent,
    FleetFaultInjector,
    FleetFaultSchedule,
    FleetHealth,
    FleetRecoveryConfig,
    FleetRecoveryController,
    check_fleet_invariants,
    generate_fault_schedule,
)
from repro.resilience.invariants import diff_snapshots, snapshot_fabric
from repro.units import Gbps


def kv(intent_id, tenant="tA", bandwidth=Gbps(50)):
    return pipe(intent_id, tenant, src="nic0", dst="dimm0-0",
                bandwidth=bandwidth)


def make_fleet(hosts=3, domains=3, policy="best-fit", **kwargs):
    return Fleet("cascade_lake_2s", hosts=hosts, policy=policy,
                 failure_domains=domains, **kwargs)


def schedule_of(*events, seed=0):
    return FleetFaultSchedule(seed=seed, events=tuple(events))


# -- FleetHealth ------------------------------------------------------------


def test_health_domains_round_robin():
    health = FleetHealth(["h0", "h1", "h2", "h3", "h4"], domains=2)
    assert health.domain_of("h0") == 0
    assert health.domain_of("h1") == 1
    assert health.domain_of("h2") == 0
    assert health.domain_members(0) == ["h0", "h2", "h4"]
    assert health.domain_members(1) == ["h1", "h3"]


def test_health_domains_clamped_to_host_count():
    health = FleetHealth(["h0", "h1"], domains=8)
    assert {health.domain_of("h0"), health.domain_of("h1")} == {0, 1}


def test_health_fault_state_and_avoid_set():
    health = FleetHealth(["h0", "h1", "h2", "h3"], domains=2)
    assert health.avoid_hosts() == frozenset()
    health.crash("h0")
    assert health.is_crashed("h0")
    assert health.crashed == frozenset({"h0"})
    # h0 is in domain 0 with h2: the whole domain becomes avoid-listed.
    assert health.faulted_domains() == frozenset({0})
    assert health.avoid_hosts() == frozenset({"h0", "h2"})
    health.recover("h0")
    assert health.avoid_hosts() == frozenset()

    health.degrade("h1", factor=0.3)
    assert health.is_degraded("h1")
    assert health.degrade_factor("h1") == pytest.approx(0.3)
    assert health.avoid_hosts() == frozenset({"h1", "h3"})
    health.restore("h1")
    assert health.degraded == frozenset()


def test_health_rejects_unknown_hosts_and_bad_factors():
    health = FleetHealth(["h0", "h1"])
    with pytest.raises(UnknownHostError):
        health.crash("ghost")
    with pytest.raises(UnknownHostError):
        health.degrade("ghost", factor=0.5)
    with pytest.raises(FleetError):
        health.degrade("h0", factor=0.0)
    with pytest.raises(FleetError):
        health.degrade("h0", factor=1.5)
    # State ops are idempotent: the injector's skip logic sits above.
    health.crash("h0")
    health.crash("h0")
    assert health.crashed == frozenset({"h0"})
    health.recover("h0")
    health.recover("h0")
    assert health.crashed == frozenset()


def test_health_partition_blocks_reachability():
    health = FleetHealth(["h0", "h1", "h2", "h3"])
    assert health.reachable("h0", "h3")
    token = health.partition(["h0", "h1"])
    assert health.reachable("h0", "h1")  # same side
    assert health.reachable("h2", "h3")  # same side
    assert not health.reachable("h0", "h2")  # crosses the cut
    assert not health.reachable("h3", "h1")
    assert health.partitions == [frozenset({"h0", "h1"})]
    health.heal(token)
    assert health.reachable("h0", "h2")
    health.heal(token)  # idempotent


# -- schedule generation ----------------------------------------------------


def test_generate_schedule_is_deterministic_and_pure():
    health = FleetHealth([f"h{i}" for i in range(8)], domains=4)
    config = FleetFaultConfig(seed=7, faults=12, horizon=1.0)
    first = generate_fault_schedule(config, health)
    second = generate_fault_schedule(config, health)
    assert first == second
    assert generate_fault_schedule(
        FleetFaultConfig(seed=8, faults=12, horizon=1.0), health) != first
    # Pure: generating a schedule never mutates the health it reads.
    assert health.crashed == frozenset()
    assert health.avoid_hosts() == frozenset()


def test_generate_schedule_covers_kinds_and_respects_bounds():
    health = FleetHealth([f"h{i}" for i in range(8)], domains=4)
    config = FleetFaultConfig(seed=3, faults=10, horizon=2.0)
    schedule = generate_fault_schedule(config, health)
    kinds = {e.kind for e in schedule.events}
    assert kinds == {"crash", "degrade", "partition"}
    lo = config.start_fraction * config.horizon
    for event in schedule.events:
        assert lo <= event.time < config.horizon
        assert event.duration > 0
        assert set(event.targets) <= set(health.host_ids())
        if event.kind == "degrade":
            assert (config.degrade_factor[0] <= event.factor
                    <= config.degrade_factor[1])
        if event.kind == "partition":
            # Partitions cut a whole failure domain off.
            domain = health.domain_of(event.targets[0])
            assert list(event.targets) == health.domain_members(domain)
    assert schedule.end_time == max(e.clear_time for e in schedule.events)


def test_generate_schedule_caps_concurrent_downtime():
    health = FleetHealth(["h0", "h1", "h2", "h3"])
    config = FleetFaultConfig(seed=1, faults=40, horizon=1.0,
                              outage_fraction=(0.5, 0.9),
                              max_down_fraction=0.25)
    schedule = generate_fault_schedule(config, health)
    # Sweep the timeline: never more than 1 of 4 hosts down at once.
    marks = sorted({e.time for e in schedule.events})
    for t in marks:
        down = set()
        for e in schedule.events:
            if e.kind in ("crash", "degrade") and e.time <= t < e.clear_time:
                down.update(e.targets)
        assert len(down) <= 1


# -- telemetry fault marks --------------------------------------------------


def test_telemetry_set_fault_marks_unhealthy():
    fleet = make_fleet(hosts=2, domains=1)
    try:
        assert fleet.telemetry.headroom("host00").healthy
        fleet.telemetry.set_fault("host00", True)
        assert not fleet.telemetry.headroom("host00").healthy
        assert fleet.telemetry.is_faulted("host00")
        fleet.telemetry.set_fault("host00", False)
        assert fleet.telemetry.headroom("host00").healthy
        with pytest.raises(UnknownHostError):
            fleet.telemetry.set_fault("ghost", True)
    finally:
        fleet.shutdown()


# -- crash / recover through the injector -----------------------------------


@pytest.mark.parametrize("clock", ["event", "lockstep"])
def test_crash_evacuates_and_recovery_reactivates(clock, lockstep_oracle):
    with lockstep_oracle(clock == "lockstep"):
        fleet = make_fleet(hosts=3, domains=3)
    recovery = FleetRecoveryController(fleet)
    schedule = schedule_of(
        FleetFaultEvent(time=0.01, kind="crash", targets=("host00",),
                        duration=0.05))
    injector = FleetFaultInjector(fleet, schedule, recovery=recovery)
    try:
        placed = fleet.submit(kv("a"))
        assert placed.host_id == "host00"
        injector.advance_to(0.02)
        # Evacuated off the dead host, still placed somewhere alive.
        assert fleet.health.is_crashed("host00")
        assert fleet.scheduler.host_of("a") != "host00"
        assert not fleet.host("host00").manager.placements()
        assert recovery.evacuated == 1
        assert not fleet.clock.is_active("host00")
        assert check_fleet_invariants(fleet, recovery=recovery) == []

        injector.advance_to(0.1)
        assert not fleet.health.is_crashed("host00")
        assert fleet.clock.is_active("host00")
        # The recovered host admits new work again.
        fresh = fleet.submit(kv("b", tenant="tB"))
        assert fresh.host_id in {"host00", "host01", "host02"}
        assert check_fleet_invariants(fleet, recovery=recovery) == []
        assert injector.counters()["crashes"] == 1
        assert injector.counters()["recoveries"] == 1
    finally:
        fleet.shutdown()


def test_crash_without_recovery_drops_placements():
    fleet = make_fleet(hosts=2, domains=1)
    schedule = schedule_of(
        FleetFaultEvent(time=0.01, kind="crash", targets=("host00",),
                        duration=0.02))
    injector = FleetFaultInjector(fleet, schedule)
    try:
        fleet.submit(kv("a"))
        injector.advance_to(0.015)
        # No controller attached: the sessions die with the host.
        assert not fleet.scheduler.has_intent("a")
        assert injector.counters()["sessions_dropped"] == 1
        assert check_fleet_invariants(fleet) == []
    finally:
        fleet.shutdown()


def test_event_clock_never_wakes_a_crashed_host():
    fleet = make_fleet(hosts=2, domains=1)
    schedule = schedule_of(
        FleetFaultEvent(time=0.01, kind="crash", targets=("host00",),
                        duration=1.0))
    injector = FleetFaultInjector(fleet, schedule,
                                  recovery=FleetRecoveryController(fleet))
    try:
        fleet.submit(kv("a"))
        injector.advance_to(0.02)
        frozen_at = fleet.host("host00").engine.now
        assert fleet.clock.wake("host00") == 0
        injector.advance_to(0.5)
        assert fleet.host("host00").engine.now == frozen_at
    finally:
        fleet.shutdown()


# -- degrade: live migration + bit-exact restore ----------------------------


def test_degrade_live_migrates_and_restores_bit_exact():
    fleet = make_fleet(hosts=2, domains=2)
    recovery = FleetRecoveryController(fleet)
    schedule = schedule_of(
        FleetFaultEvent(time=0.01, kind="degrade", targets=("host00",),
                        duration=0.05, factor=0.3))
    injector = FleetFaultInjector(fleet, schedule, recovery=recovery)
    try:
        fleet.submit(kv("a"))
        before = snapshot_fabric(fleet.host("host00").network)
        injector.advance_to(0.02)
        assert fleet.health.is_degraded("host00")
        # Live migration: the session moved without ever being released.
        assert fleet.scheduler.host_of("a") == "host01"
        assert recovery.evacuated == 1
        assert [r.kind for r in fleet.planner.records if r.ok] \
            == ["evacuate"]
        assert not fleet.telemetry.headroom("host00").healthy
        injector.advance_to(0.1)
        # Repair restores every link spec bit-exact.
        assert diff_snapshots(
            before, snapshot_fabric(fleet.host("host00").network)) == []
        assert fleet.telemetry.headroom("host00").healthy
        assert check_fleet_invariants(fleet, recovery=recovery) == []
    finally:
        fleet.shutdown()


def test_degrade_respects_evacuate_degraded_off():
    fleet = make_fleet(hosts=2, domains=2)
    recovery = FleetRecoveryController(
        fleet, FleetRecoveryConfig(evacuate_degraded=False))
    schedule = schedule_of(
        FleetFaultEvent(time=0.01, kind="degrade", targets=("host00",),
                        duration=0.02, factor=0.5))
    injector = FleetFaultInjector(fleet, schedule, recovery=recovery)
    try:
        fleet.submit(kv("a"))
        injector.advance_to(0.015)
        # Stays put: degraded hosts keep serving when evacuation is off.
        assert fleet.scheduler.host_of("a") == "host00"
        assert recovery.evacuated == 0
    finally:
        fleet.shutdown()


# -- partitions -------------------------------------------------------------


def test_partition_blocks_migration_but_not_admission():
    fleet = make_fleet(hosts=4, domains=2)
    try:
        fleet.submit(kv("a"))
        assert fleet.scheduler.host_of("a") == "host00"
        fleet.health.partition(["host00", "host02"])
        # Migration legs across the cut fail fast, pre-flight.
        with pytest.raises(MigrationError, match="partition"):
            fleet.migrate("a", "host01")
        # Within a side it still works.
        moved = fleet.migrate("a", "host02")
        assert moved.host_id == "host02"
        # Fresh admission is not a migration leg: any host may take it.
        assert fleet.try_submit(kv("b", tenant="tB")) is not None
    finally:
        fleet.shutdown()


# -- placement avoid-sets ---------------------------------------------------


def test_best_fit_avoids_faulted_domain_when_possible():
    fleet = make_fleet(hosts=4, domains=4, policy="best-fit")
    try:
        fleet.health.degrade("host00", factor=0.5)
        placed = fleet.submit(kv("a"))
        assert placed.host_id != "host00"
        # Soft signal: when every other host is avoided too, a fitting
        # avoided host still beats rejection.
        for h in ("host01", "host02", "host03"):
            fleet.health.degrade(h, factor=0.5)
        assert fleet.try_submit(kv("b", tenant="tB")) is not None
    finally:
        fleet.shutdown()


def test_scheduler_hard_filters_crashed_hosts():
    fleet = make_fleet(hosts=2, domains=1, policy="first-fit")
    try:
        fleet.health.crash("host00")
        placed = fleet.submit(kv("a"))
        assert placed.host_id == "host01"
    finally:
        fleet.shutdown()


# -- the retry pump ---------------------------------------------------------


def full_fleet_with_crash(max_retries=2, timeout=10.0):
    """A 2-host fleet where host01 is too full to absorb host00."""
    fleet = make_fleet(hosts=2, domains=1)
    recovery = FleetRecoveryController(
        fleet, FleetRecoveryConfig(max_retries=max_retries,
                                   retry_backoff=0.005,
                                   backoff_growth=2.0,
                                   retry_timeout=timeout))
    fleet.submit(kv("victim", bandwidth=Gbps(100)))
    if fleet.scheduler.host_of("victim") != "host00":
        fleet.migrate("victim", "host00")
    for blocker in ("blocker1", "blocker2"):
        fleet.submit(kv(blocker, tenant="tB", bandwidth=Gbps(115)))
        if fleet.scheduler.host_of(blocker) != "host01":
            fleet.migrate(blocker, "host01")
    assert fleet.scheduler.host_of("victim") == "host00"
    assert fleet.scheduler.host_of("blocker1") == "host01"
    assert fleet.scheduler.host_of("blocker2") == "host01"
    return fleet, recovery


def test_retry_backoff_then_success_when_headroom_returns():
    fleet, recovery = full_fleet_with_crash(max_retries=8)
    schedule = schedule_of(
        FleetFaultEvent(time=0.01, kind="crash", targets=("host00",),
                        duration=1.0))
    injector = FleetFaultInjector(fleet, schedule, recovery=recovery)
    try:
        injector.advance_to(0.012)
        # Nowhere to go: parked, exponential backoff from the crash time.
        assert recovery.is_pending("victim")
        assert recovery.pending_replacements == 1
        first_due = recovery.next_due()
        assert first_due == pytest.approx(0.01 + 0.005, abs=1e-9)
        injector.advance_to(first_due + 0.001)
        assert recovery.retries == 1
        assert recovery.is_pending("victim")  # still full; re-parked
        assert recovery.next_due() == pytest.approx(first_due + 0.01,
                                                    abs=1e-9)
        # Free the destination: the next retry lands the evacuee.
        fleet.release("blocker1")
        injector.advance_to(recovery.next_due() + 0.001)
        assert not recovery.is_pending("victim")
        assert fleet.scheduler.host_of("victim") == "host01"
        assert recovery.evacuated == 1
        assert recovery.shed == 0
        assert check_fleet_invariants(fleet, recovery=recovery) == []
    finally:
        fleet.shutdown()


def test_retry_budget_exhaustion_sheds_lowest_value_last():
    fleet, recovery = full_fleet_with_crash(max_retries=2)
    shed_ids = []
    recovery.on_shed(lambda intent: shed_ids.append(intent.intent_id))
    schedule = schedule_of(
        FleetFaultEvent(time=0.01, kind="crash", targets=("host00",),
                        duration=1.0))
    injector = FleetFaultInjector(fleet, schedule, recovery=recovery)
    try:
        injector.advance_to(0.5)
        assert shed_ids == ["victim"]
        assert recovery.shed == 1
        assert recovery.retries_exhausted == 1
        assert recovery.retries == 2  # bounded by max_retries
        assert recovery.next_due() is None
        assert check_fleet_invariants(fleet, recovery=recovery) == []
    finally:
        fleet.shutdown()


def test_retry_timeout_sheds_before_budget():
    fleet, recovery = full_fleet_with_crash(max_retries=50, timeout=0.02)
    schedule = schedule_of(
        FleetFaultEvent(time=0.01, kind="crash", targets=("host00",),
                        duration=1.0))
    injector = FleetFaultInjector(fleet, schedule, recovery=recovery)
    try:
        injector.advance_to(0.5)
        assert recovery.shed == 1
        assert recovery.retries < 50
    finally:
        fleet.shutdown()


def test_cancel_drops_a_parked_session():
    fleet, recovery = full_fleet_with_crash()
    schedule = schedule_of(
        FleetFaultEvent(time=0.01, kind="crash", targets=("host00",),
                        duration=1.0))
    injector = FleetFaultInjector(fleet, schedule, recovery=recovery)
    try:
        injector.advance_to(0.02)
        assert recovery.is_pending("victim")
        assert recovery.cancel("victim")
        assert not recovery.cancel("victim")  # idempotent
        assert recovery.cancelled == 1
        injector.advance_to(0.5)
        assert recovery.shed == 0  # cancelled, not lost
        assert check_fleet_invariants(fleet, recovery=recovery) == []
    finally:
        fleet.shutdown()


def test_degrade_heals_in_place_when_restore_beats_retry():
    fleet = make_fleet(hosts=2, domains=1)
    recovery = FleetRecoveryController(
        fleet, FleetRecoveryConfig(retry_backoff=0.05, max_retries=8))
    # Degrade ends at 0.03, before the first retry fires at ~0.06.
    schedule = schedule_of(
        FleetFaultEvent(time=0.01, kind="degrade", targets=("host00",),
                        duration=0.02, factor=0.5))
    injector = FleetFaultInjector(fleet, schedule, recovery=recovery)
    try:
        fleet.submit(kv("victim", bandwidth=Gbps(100)))
        fleet.submit(kv("blocker1", tenant="tB", bandwidth=Gbps(115)))
        fleet.submit(kv("blocker2", tenant="tB", bandwidth=Gbps(115)))
        injector.advance_to(0.2)
        assert recovery.healed_in_place == 1
        assert fleet.scheduler.host_of("victim") == "host00"
        assert check_fleet_invariants(fleet, recovery=recovery) == []
    finally:
        fleet.shutdown()
