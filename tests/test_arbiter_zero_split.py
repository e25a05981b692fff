"""The arbiter's zero-usage split is bit-identical to the water-fill rule.

On a fabric with no flows every sensed usage is zero, and a
work-conserving, demand-aware round skips the scalar water-fill and
hands out two values per link: ``floor + share`` per floor holder
and one shared ``max(share, allowance)`` per best-effort-only tenant.
The cap-write counters are exact, so the split must equal
:func:`compute_caps` over all-zero usages with ``==``, not approximately:
a one-ulp drift would re-send a cap.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DynamicArbiter, compute_caps
from repro.sim import Engine, FabricNetwork
from repro.topology import minimal_host

LINK = "pcie-nic0"


def equal_split(capacity, floors, best_effort, ceiling, lend):
    """The all-idle rule written tenant by tenant, as the scalar
    function first stated it."""
    reserved = sum(floors.values())
    spare = max(capacity * ceiling - reserved, 0.0)
    if lend:
        spare += reserved
    tenants = set(floors) | set(best_effort)
    share = spare / len(tenants)
    caps = {tenant: floors.get(tenant, 0.0) + share for tenant in tenants}
    for tenant in best_effort:
        caps[tenant] = max(caps[tenant], capacity * 0.02)
    return caps


@st.composite
def idle_links(draw):
    count = draw(st.integers(1, 60))
    tenants = [f"t{i}" for i in range(count)]
    floored = draw(st.lists(st.sampled_from(tenants), min_size=1,
                            unique=True))
    floors = {tenant: draw(st.floats(1e3, 4e10, allow_nan=False))
              for tenant in floored}
    best_effort = set(draw(st.lists(st.sampled_from(tenants), unique=True)))
    capacity_factor = draw(st.one_of(st.none(), st.floats(0.01, 1.0)))
    ceiling = draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
    lend = draw(st.booleans())
    direction = draw(st.sampled_from(["fwd", "rev"]))
    return floors, best_effort, capacity_factor, ceiling, lend, direction


@settings(max_examples=150, deadline=None)
@given(idle_links())
def test_round_caps_equal_compute_caps_over_zero_usages(case):
    floors, best_effort, capacity_factor, ceiling, lend, direction = case
    network = FabricNetwork(minimal_host(), Engine())
    link = network.topology.link(LINK)
    if capacity_factor is not None:
        network.degrade_link(LINK, link.capacity * capacity_factor)
    arbiter = DynamicArbiter(network, decision_latency=0.0,
                             lend_parked_floors=lend,
                             degradation_aware=True)
    for tenant, floor in floors.items():
        arbiter.add_floor(tenant, LINK, floor, direction=direction)
    for tenant in sorted(best_effort):
        arbiter.register_best_effort(tenant)
    if ceiling < 1.0:
        arbiter.set_utilization_ceiling("slo", LINK, ceiling)

    [allocation] = arbiter.adjust_once()

    capacity = link.effective_capacity
    held = arbiter.floors_on(LINK, direction)
    be_only = {tenant for tenant in best_effort if tenant not in held}
    expected = compute_caps(
        capacity=capacity, floors=held,
        usages=dict.fromkeys(set(held) | be_only, 0.0),
        best_effort=be_only, work_conserving=True,
        utilization_ceiling=ceiling, lend_parked_floors=lend,
    )
    assert allocation.caps == expected
    assert expected == equal_split(capacity, held, be_only, ceiling, lend)
    assert set(allocation.usages.values()) == {0.0}
    for tenant, cap in allocation.caps.items():
        assert network.tenant_link_cap(tenant, LINK, direction) == cap


@settings(max_examples=150, deadline=None)
@given(idle_links())
def test_compute_caps_zero_usage_keeps_overlapping_best_effort(case):
    """Called directly, ``compute_caps`` may list a floor holder as
    best-effort too; that tenant keeps at least the ramp allowance."""
    floors, best_effort, capacity_factor, ceiling, lend, _direction = case
    capacity = 2e10 * (capacity_factor or 1.0)
    caps = compute_caps(capacity, floors,
                        dict.fromkeys(set(floors) | best_effort, 0.0),
                        best_effort, True, utilization_ceiling=ceiling,
                        lend_parked_floors=lend)
    assert caps == equal_split(capacity, floors, best_effort, ceiling, lend)
