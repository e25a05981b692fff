"""The event-driven fleet clock: equivalence, invalidation, quiescence.

The event clock's contract is that it is an *optimization*, never a
semantic change: a seeded churn run must produce bit-identical placements,
rejections, and reservation ledgers on it and on the lockstep oracle —
also when fleet control runs as boundary steps (escalations from
host-local recovery, an armed rebalance threshold), where every planner
record must match too — and waking hosts in any order must never affect
what the fleet has promised.  The same bargain is asserted for the other
incremental layers this rests on — the vectorized headroom matrix vs the
scalar rollup, the self-parking arbiter vs recomputing every round, and
the shared route cache vs per-host enumeration.
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MigrationError
from repro.fleet import (
    Fleet,
    FleetChurnConfig,
    generate_events,
    make_policy,
    run_churn,
)
from repro.core import pipe
from repro.monitor import FailureInjector
from repro.topology.elements import LinkClass
from repro.topology.graph import HostTopology
from repro.topology.routing import k_shortest_paths
from repro.units import Gbps

from .test_telemetry_reference import assert_matches_reference

CONFIG = FleetChurnConfig(seed=11, horizon=0.08, arrival_rate=1500.0)


def kv(intent_id, tenant="tA", bandwidth=Gbps(50), src="nic0",
       dst="dimm0-0"):
    return pipe(intent_id, tenant, src=src, dst=dst, bandwidth=bandwidth)


def ledger_signature(fleet):
    """Reserved bytes/s per (host, link, direction) — the ground truth
    the event clock and the lockstep oracle must agree on exactly."""
    return {
        host_id: tuple(sorted(host.manager.ledger.reserved_map.items()))
        for host_id, host in fleet.hosts()
    }


def churn_under(seed):
    fleet = Fleet("cascade_lake_2s", hosts=4, policy="best-fit",
                  max_attempts=3)
    config = FleetChurnConfig(seed=seed, horizon=0.08, arrival_rate=1500.0)
    report = run_churn(fleet, config)
    signature = (
        report.placements,
        report.admitted,
        report.rejected,
        report.released,
        ledger_signature(fleet),
    )
    fleet.shutdown()
    return signature


# -- event/lockstep equivalence ----------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_event_clock_matches_lockstep_exactly(seed, lockstep_oracle):
    event = churn_under(seed)
    with lockstep_oracle():
        lockstep = churn_under(seed)
    assert event == lockstep


def test_event_clock_is_self_deterministic():
    assert churn_under(99) == churn_under(99)


# -- control as boundary steps: escalation and rebalance ---------------------


CONTROL_HOSTS = 4


def controlled_churn(seed, failure_bursts=0, surface_failures=0,
                     **fleet_kwargs):
    """Seeded churn on a fleet whose planner has boundary work.

    Each of *failure_bursts* fails a NIC uplink on two seeded hosts a
    fraction of a quantum apart, inside the hosts' own engines, and
    repairs it later — so escalations from different hosts land in one
    quantum in either host order.  Each of *surface_failures* fails one
    between two advances, through the fleet surface (wake, fail,
    notify), so its escalation is already queued when the next advance
    starts.  Returns placements, ledger signatures and every planner
    record; the records carry each control decision's time, so a control
    pass at the wrong boundary, or escalations drained in the wrong
    order, shows.
    """
    fleet = Fleet("cascade_lake_2s", hosts=CONTROL_HOSTS, **fleet_kwargs)
    config = FleetChurnConfig(seed=seed, horizon=0.05, arrival_rate=1500.0)
    rng = random.Random(seed)
    for _ in range(failure_bursts):
        at = rng.uniform(0.005, config.horizon)
        for host_id in rng.sample(fleet.host_ids(), 2):
            link_id = f"pcie-nic{rng.randrange(2)}"
            FailureInjector(fleet.host(host_id).network).schedule(
                lambda injector, link_id=link_id: injector.fail_link(link_id),
                at=at + rng.uniform(0.0, 0.001),
                clear_after=rng.uniform(0.005, 0.02))
    surface = sorted(
        (rng.uniform(0.0, config.horizon),
         f"host{rng.randrange(CONTROL_HOSTS):02d}",
         f"pcie-nic{rng.randrange(2)}")
        for _ in range(surface_failures))
    for time, _seq, kind, payload in generate_events(config, fleet):
        while surface and surface[0][0] <= time:
            at, host_id, link_id = surface.pop(0)
            fleet.advance_to(at)
            fleet.wake(host_id)
            FailureInjector(fleet.host(host_id).network).fail_link(link_id)
            fleet.notify(host_id)
        fleet.advance_to(time)
        if kind == "arrive":
            fleet.try_submit(payload)
        elif fleet.scheduler.has_intent(payload):
            fleet.release(payload)
    fleet.advance_to(config.horizon)
    outcome = (
        sorted((p.intent_id, p.host_id) for p in fleet.placements()),
        fleet.ledger_signatures(),
        [(r.time, r.kind, r.intent_id, r.src, r.dst, r.ok)
         for r in fleet.planner.records],
    )
    fleet.shutdown()
    return outcome


#: Host-local recovery escalating placements whose NIC uplink died.
ESCALATING = dict(failure_bursts=3, surface_failures=1, policy="best-fit",
                  max_attempts=3, resilience=True)
#: First-fit piling load on one host, so an armed rebalance moves it.
REBALANCING = dict(policy="first-fit", max_attempts=1,
                   rebalance_threshold=0.3)


@functools.lru_cache(maxsize=None)
def event_outcome(seed, **kwargs):
    """:func:`controlled_churn` on the event clock (deterministic, so
    the equivalence and activity tests share one run per seed)."""
    return controlled_churn(seed, **kwargs)


def assert_matches_oracle(lockstep_oracle, seed, **kwargs):
    event = event_outcome(seed, **kwargs)
    with lockstep_oracle():
        lockstep = controlled_churn(seed, **kwargs)
    assert event[0] == lockstep[0]  # placements
    assert event[1] == lockstep[1]  # ledger signatures
    assert event[2] == lockstep[2]  # every planner record


@pytest.mark.parametrize("seed", range(20))
def test_escalations_drain_at_the_oracle_boundaries(seed, lockstep_oracle):
    assert_matches_oracle(lockstep_oracle, seed, **ESCALATING)


@pytest.mark.parametrize("seed", range(20))
def test_rebalance_runs_at_the_oracle_boundaries(seed, lockstep_oracle):
    assert_matches_oracle(lockstep_oracle, seed, **REBALANCING)


@pytest.mark.parametrize("kwargs, kind", [(ESCALATING, "escalate"),
                                          (REBALANCING, "rebalance")])
def test_control_decisions_occur_in_most_seeds(kwargs, kind):
    """The equivalence suites above exercise the boundary path: most of
    their seeds record escalations (or rebalance moves)."""
    active = [seed for seed in range(20)
              if any(r[1] == kind for r in event_outcome(seed, **kwargs)[2])]
    assert len(active) >= 15, active


# -- waking order is irrelevant to conservation ------------------------------


HOSTS = ["host00", "host01", "host02", "host03"]


def _run_with_wakes(wake_order):
    fleet = Fleet("cascade_lake_2s", hosts=4, policy="best-fit")
    fleet.submit(kv("a", tenant="t0", bandwidth=Gbps(80)))
    fleet.submit(kv("b", tenant="t1", bandwidth=Gbps(40), src="nic1"))
    fleet.advance_to(0.005)
    for host_id in wake_order:
        fleet.wake(host_id)
    fleet.submit(kv("c", tenant="t0", bandwidth=Gbps(20),
                    dst="dimm1-0"))
    fleet.advance_to(0.01)
    for host_id in reversed(wake_order):
        fleet.wake(host_id)
    signature = ledger_signature(fleet)
    clocks = [host.now for _hid, host in fleet.hosts()]
    fleet.shutdown()
    return signature, clocks


@settings(max_examples=20, deadline=None)
@given(order=st.permutations(HOSTS))
def test_waking_order_never_affects_conservation(order):
    shuffled, clocks = _run_with_wakes(list(order))
    reference, _ = _run_with_wakes(HOSTS)
    assert shuffled == reference
    # And every woken host landed exactly on fleet time.
    assert clocks == [pytest.approx(0.01)] * len(HOSTS)


# -- matrix vs scalar rollup --------------------------------------------------


def test_matrix_excludes_inter_host_links_exactly_like_scalar():
    fleet = Fleet("cascade_lake_2s", hosts=2)
    fleet.submit(kv("a", bandwidth=Gbps(60)))
    host = fleet.host("host00")
    wires = host.topology.links(LinkClass.INTER_HOST)
    assert wires, "preset is expected to model the external wire"

    rooms = fleet.telemetry.headrooms()
    matrix = fleet.telemetry.matrix()
    for i, room in enumerate(rooms):
        assert matrix.host_ids[i] == room.host_id
        assert matrix.free_capacity_total[i] == room.free_capacity_total
        assert (matrix.free_capacity_min_directed[i]
                == room.free_capacity_min_directed)
        assert bool(matrix.available[i]) == room.available

    # Degrading the wire must not move any headroom capacity figure (it
    # is not placement fabric), in either representation.
    before = fleet.telemetry.headroom("host00")
    FailureInjector(host.network).degrade_link(wires[0].link_id,
                                               capacity_factor=0.5)
    fleet.telemetry.invalidate("host00")
    after = fleet.telemetry.headroom("host00")
    assert after.free_capacity_total == before.free_capacity_total
    assert after.degraded_links == before.degraded_links + 1
    matrix_after = fleet.telemetry.matrix()
    idx = matrix_after.host_ids.index("host00")
    assert (matrix_after.free_capacity_total[idx]
            == after.free_capacity_total)


@pytest.mark.parametrize("name", ["first-fit", "best-fit", "spread"])
def test_rank_matrix_agrees_with_scalar_rank(name):
    fleet = Fleet("cascade_lake_2s", hosts=5)
    # Asymmetric load so the ranking is non-trivial.
    fleet.submit(kv("a", tenant="t0", bandwidth=Gbps(150)))
    fleet.submit(kv("b", tenant="t0", bandwidth=Gbps(80), src="nic1"))
    fleet.submit(kv("c", tenant="t1", bandwidth=Gbps(40)))
    policy = make_policy(name)
    request = fleet.scheduler.request_for(kv("probe", tenant="t0",
                                             bandwidth=Gbps(60)))
    rooms = fleet.telemetry.headrooms()
    matrix = fleet.telemetry.matrix()
    assert policy.rank_matrix(request, matrix) == policy.rank(request, rooms)


# -- invalidation protocol ----------------------------------------------------


def test_failed_migration_invalidates_src_and_dst_summaries():
    fleet = Fleet("cascade_lake_2s", hosts=2, policy="first-fit")
    fleet.submit(kv("moving", bandwidth=Gbps(150)))   # -> host00
    fleet.submit(kv("blocker", bandwidth=Gbps(150)))  # -> host01
    fleet.telemetry.headrooms()  # warm both summaries
    before = fleet.telemetry.headroom("host00")

    with pytest.raises(MigrationError, match="rejected"):
        fleet.migrate("moving", "host01")

    # Rollback moved the source ledger (release, then reinstate), so the
    # source's summary is rebuilt; the rejected destination's ledger
    # never moved.  Both must read exactly what a from-scratch rollup
    # of their ground truth says.
    assert fleet.telemetry.headroom("host00") is not before
    for host_id in ("host00", "host01"):
        assert_matches_reference(fleet, host_id, verdicts={})
    assert fleet.scheduler.host_of("moving") == "host00"


# -- arbiter quiescence -------------------------------------------------------


def test_arbiter_parks_when_quiesced_and_reacts_to_perturbation():
    fleet = Fleet("cascade_lake_2s", hosts=2)
    placed = fleet.submit(kv("a", tenant="t0", bandwidth=Gbps(100)))
    fleet.advance_to(0.02)  # long enough for many idle arbiter periods
    host = fleet.host(placed.host_id)
    arbiter = host.manager.arbiter
    assert arbiter.skipped_adjustments > 0
    # Parked: far fewer rounds than periods elapsed (0.02s / 1ms = 20
    # periods minimum under a metronome; quiesced rounds self-cancel).
    assert arbiter.adjustments < 20

    # A perturbation (new floors) re-arms enforcement: the new tenant
    # ends up capped on every link its intent reserved.
    rounds = arbiter.adjustments
    fleet.submit(kv("b", tenant="t1", bandwidth=Gbps(50), src="nic1",
                    dst="dimm1-0"))
    fleet.advance_to(0.03)
    assert arbiter.adjustments + sum(
        h.manager.arbiter.adjustments for _i, h in fleet.hosts()
        if h is not host
    ) > rounds
    dst_host = fleet.host(fleet.scheduler.host_of("b"))
    demands = dst_host.manager.ledger.demands_of("b")
    assert demands
    for demand in demands:
        cap = dst_host.network.tenant_link_cap("t1", demand.link_id,
                                               direction=demand.direction)
        assert cap is not None and cap >= demand.bandwidth - 1e-6


# -- the shared route cache ---------------------------------------------------


def test_route_cache_shared_between_identical_hosts_but_state_isolated():
    fleet = Fleet("cascade_lake_2s", hosts=2)
    h0 = fleet.host("host00")
    h1 = fleet.host("host01")
    paths0 = k_shortest_paths(h0.topology, "nic0", "dimm0-0")
    paths1 = k_shortest_paths(h1.topology, "nic0", "dimm0-0")
    assert [p.links for p in paths0] == [p.links for p in paths1]
    # Identical structure and link state hash to one shared cache...
    assert h0.topology._route_cache is h1.topology._route_cache
    assert any(HostTopology._SHARED_ROUTE_CACHES)

    # ...but divergent link state splits them: degradation on host00
    # must never leak into host01's enumerations.
    degraded_link = paths0[0].links[0]
    FailureInjector(h0.network).degrade_link(degraded_link,
                                             capacity_factor=0.25)
    after0 = k_shortest_paths(h0.topology, "nic0", "dimm0-0")
    after1 = k_shortest_paths(h1.topology, "nic0", "dimm0-0")
    assert h0.topology._route_cache is not h1.topology._route_cache
    assert (min(p.bottleneck_capacity for p in after0)
            < min(p.bottleneck_capacity for p in after1))
    assert [p.links for p in after1] == [p.links for p in paths1]
