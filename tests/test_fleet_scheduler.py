"""Cluster scheduling: placement policies, probing, and telemetry rollups."""

import pytest

from repro.errors import AdmissionError, FleetError
from repro.fleet import (
    BestFitHeadroomPolicy,
    FirstFitPolicy,
    Fleet,
    SpreadByTenantPolicy,
    make_policy,
)
from repro.fleet.placement import PlacementRequest
from repro.fleet.telemetry import HostHeadroom
from repro.core import pipe
from repro.units import Gbps


def kv(intent_id, tenant="tA", bandwidth=Gbps(50), src="nic0",
       dst="dimm0-0"):
    return pipe(intent_id, tenant, src=src, dst=dst, bandwidth=bandwidth)


def headroom(host_id, free_total=100.0, free_max=50.0, free_min=50.0,
             healthy=True, down=0, attach_free=None):
    return HostHeadroom(
        host_id=host_id, updated_at=0.0,
        free_fraction_min=0.5, free_fraction_mean=0.5,
        free_capacity_total=free_total,
        free_capacity_max_directed=free_max,
        free_capacity_min_directed=free_min,
        reserved_peak=0.0, utilization_peak=0.0, placements=0,
        down_links=down, degraded_links=0, healthy=healthy,
        attach_free=attach_free or {},
    )


def request(bandwidth=10.0, src_key=None, dst_key=None, tenant_hosts=()):
    return PlacementRequest(
        intent=kv("i0", bandwidth=bandwidth),
        src_key=src_key, dst_key=dst_key,
        tenant_hosts=frozenset(tenant_hosts),
    )


# -- the policies, as pure ranking functions ---------------------------------


def test_first_fit_is_blind_stable_id_order():
    rooms = [headroom("b", free_total=999.0), headroom("a", free_total=1.0)]
    assert FirstFitPolicy().rank(request(), rooms) == ["a", "b"]


def test_best_fit_prefers_fullest_viable_host():
    rooms = [
        headroom("empty", free_total=300.0),
        headroom("busy", free_total=100.0),
        headroom("packed", free_total=20.0),
    ]
    order = BestFitHeadroomPolicy().rank(request(bandwidth=10.0), rooms)
    assert order == ["packed", "busy", "empty"]


def test_best_fit_sends_nonviable_hosts_to_the_back():
    rooms = [
        headroom("full", free_total=5.0, free_max=5.0),  # cannot fit
        headroom("open", free_total=200.0),
    ]
    order = BestFitHeadroomPolicy().rank(request(bandwidth=10.0), rooms)
    assert order == ["open", "full"]


def test_best_fit_prefers_hosts_with_path_slack():
    # Both can fit on some link, but "hot" has a congested shared link.
    rooms = [
        headroom("hot", free_total=50.0, free_min=2.0),
        headroom("calm", free_total=80.0, free_min=40.0),
    ]
    order = BestFitHeadroomPolicy().rank(request(bandwidth=10.0), rooms)
    assert order == ["calm", "hot"]


def test_best_fit_respects_attach_keys():
    # Plenty free overall, but this intent's source NIC is exhausted.
    rooms = [
        headroom("a", free_total=50.0,
                 attach_free={"nic:0": 1.0, "dimm:0": 100.0}),
        headroom("b", free_total=300.0,
                 attach_free={"nic:0": 100.0, "dimm:0": 100.0}),
    ]
    order = BestFitHeadroomPolicy().rank(
        request(bandwidth=10.0, src_key="nic:0", dst_key="dimm:0"), rooms
    )
    assert order == ["b", "a"]


def test_best_fit_demotes_unhealthy_hosts():
    rooms = [
        headroom("sick", free_total=10.0, healthy=False),
        headroom("ok", free_total=200.0),
    ]
    order = BestFitHeadroomPolicy().rank(request(bandwidth=1.0), rooms)
    assert order == ["ok", "sick"]


def test_spread_avoids_tenant_hosts_and_levels():
    rooms = [
        headroom("mine", free_total=300.0),
        headroom("other-full", free_total=10.0),
        headroom("other-empty", free_total=200.0),
    ]
    order = SpreadByTenantPolicy().rank(
        request(bandwidth=1.0, tenant_hosts={"mine"}), rooms
    )
    assert order == ["other-empty", "other-full", "mine"]


def test_make_policy_resolution():
    assert make_policy("first-fit").name == "first-fit"
    instance = BestFitHeadroomPolicy()
    assert make_policy(instance) is instance
    with pytest.raises(FleetError, match="unknown placement policy"):
        make_policy("worst-fit")


# -- scheduler bookkeeping ---------------------------------------------------


def test_submit_binds_and_release_unbinds():
    fleet = Fleet("cascade_lake_2s", hosts=2)
    fleet.submit(kv("a", tenant="t1"))
    fleet.submit(kv("b", tenant="t1", src="nic1"))
    sched = fleet.scheduler
    assert sched.has_intent("a") and sched.has_intent("b")
    assert sched.tenant_hosts("t1") != set()
    assert sched.admitted_count == 2
    host_a = sched.host_of("a")
    assert [p.intent_id for p in sched.placements_on(host_a)] >= ["a"]
    fleet.release("a")
    fleet.release("b")
    assert not sched.has_intent("a")
    assert sched.tenant_hosts("t1") == set()
    assert sched.released_count == 2


def test_duplicate_submit_and_unknown_release_raise():
    fleet = Fleet("cascade_lake_2s", hosts=2)
    fleet.submit(kv("a"))
    with pytest.raises(AdmissionError, match="already placed"):
        fleet.submit(kv("a"))
    with pytest.raises(AdmissionError, match="not placed"):
        fleet.release("ghost")


def test_fleet_wide_rejection_reports_policy_and_counts():
    fleet = Fleet("cascade_lake_2s", hosts=2)
    # nic0 attach budget is 230.4 Gbps per host; two 150G pipes fill both.
    fleet.submit(kv("a", bandwidth=Gbps(150)))
    fleet.submit(kv("b", bandwidth=Gbps(150)))
    with pytest.raises(AdmissionError, match="no host admitted"):
        fleet.submit(kv("c", bandwidth=Gbps(150)))
    assert fleet.try_submit(kv("d", bandwidth=Gbps(150))) is None
    assert fleet.scheduler.rejected_count == 2
    assert 0.0 < fleet.scheduler.rejection_rate < 1.0


def test_max_attempts_bounds_probing():
    bounded = Fleet("cascade_lake_2s", hosts=2, policy="first-fit",
                    max_attempts=1)
    bounded.submit(kv("a", bandwidth=Gbps(150)))
    # host00's nic0 is now tight; with one probe the fleet gives up even
    # though host01 would admit it.
    assert bounded.try_submit(kv("b", bandwidth=Gbps(150))) is None

    unbounded = Fleet("cascade_lake_2s", hosts=2, policy="first-fit")
    unbounded.submit(kv("a", bandwidth=Gbps(150)))
    placed = unbounded.submit(kv("b", bandwidth=Gbps(150)))
    assert placed.host_id == "host01"


@pytest.mark.parametrize("bad", [0, -1, True, 1.5])
def test_max_attempts_must_be_none_or_positive_int(bad):
    # Each would otherwise fail silently: 0 rejects every intent and -1
    # slices the lowest-ranked host off every ranking.
    with pytest.raises(FleetError, match="max_attempts"):
        Fleet("minimal", hosts=2, max_attempts=bad)


# -- telemetry rollups -------------------------------------------------------


def test_headroom_attach_free_tracks_reservations():
    fleet = Fleet("cascade_lake_2s", hosts=1)
    before = fleet.telemetry.headroom("host00")
    assert before.attach_free["nic:0"] == pytest.approx(Gbps(230.4))
    fleet.submit(kv("a", bandwidth=Gbps(200)))
    after = fleet.telemetry.headroom("host00")
    assert after.attach_free["nic:0"] == pytest.approx(Gbps(30.4))
    assert after.can_fit(Gbps(100), src_key="nic:1")
    assert not after.can_fit(Gbps(100), src_key="nic:0")
    assert after.placements == 1


def test_headroom_cache_serves_until_invalidated():
    fleet = Fleet("cascade_lake_2s", hosts=1)
    fleet.telemetry.headroom("host00")
    count = fleet.telemetry.refresh_count
    fleet.telemetry.headroom("host00")
    assert fleet.telemetry.refresh_count == count  # served from cache
    fleet.telemetry.invalidate("host00")
    fleet.telemetry.headroom("host00")
    assert fleet.telemetry.refresh_count == count + 1


def test_headroom_cache_invalidated_by_reservation_change():
    fleet = Fleet("cascade_lake_2s", hosts=1)
    fleet.telemetry.headroom("host00")
    count = fleet.telemetry.refresh_count
    # Submit/release change the ledger; the manager's change listener
    # must dirty the summary without anyone calling invalidate().
    fleet.host("host00").manager.submit(kv("direct", bandwidth=Gbps(10)))
    after = fleet.telemetry.headroom("host00")
    assert fleet.telemetry.refresh_count == count + 1
    assert after.placements == 1


def test_down_link_marks_host_unavailable():
    from repro.monitor import FailureInjector

    fleet = Fleet("cascade_lake_2s", hosts=2)
    FailureInjector(fleet.host("host00").network).fail_link("pcie-nic0")
    fleet.telemetry.invalidate()
    rooms = {h.host_id: h for h in fleet.telemetry.headrooms()}
    assert rooms["host00"].down_links == 1
    assert not rooms["host00"].available
    assert rooms["host01"].available
