"""The arbiter's incremental per-link state against a from-scratch reference.

Hypothesis drives random sequences of floor adds and removes, ceiling sets
and clears, best-effort (un)registration, link degrades and restores, flow
starts and stops, and mode flips against one :class:`DynamicArbiter`,
with an adjustment round after every step.  Each reported
:class:`LinkAllocation` must equal :func:`compute_caps` evaluated from
scratch over the arbiter's public view of its inputs (``floors_on``, the
link's current capacity, ``ceiling_on``) and the per-tenant rates the
round sensed, and once the enforcement batch has applied, the fabric must
carry exactly those caps.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import DynamicArbiter, compute_caps
from repro.sim import Engine, FabricNetwork
from repro.topology import minimal_host, shortest_path
from repro.units import Gbps, us

TENANTS = ["g0", "g1", "b0", "b1"]
LINKS = ["pcie-nic0", "pcie-nvme0", "mesh0-0", "membus0-0"]
DIRECTIONS = ["fwd", "rev", None]
ENDPOINT_PAIRS = [("nic0", "dimm0-0"), ("dimm0-0", "nic0"),
                  ("nvme0", "dimm0-0"), ("nic0", "nvme0")]
FLOORS = [Gbps(1), Gbps(4), Gbps(10)]
MODES = ["work_conserving", "lend_parked_floors", "demand_aware",
         "degradation_aware"]


class ArbiterMachine(RuleBasedStateMachine):
    @initialize(latency=st.sampled_from([0.0, us(10)]))
    def setup(self, latency):
        self.network = FabricNetwork(minimal_host(), Engine())
        self.arbiter = DynamicArbiter(self.network, decision_latency=latency)
        self.floors = []  # (tenant, link, bandwidth, direction) held
        self.best_effort = set()
        self.flow_ids = []

    # -- configuration -----------------------------------------------------

    @rule(tenant=st.sampled_from(TENANTS), link=st.sampled_from(LINKS),
          bandwidth=st.sampled_from(FLOORS),
          direction=st.sampled_from(DIRECTIONS))
    def add_floor(self, tenant, link, bandwidth, direction):
        self.arbiter.add_floor(tenant, link, bandwidth, direction=direction)
        self.floors.append((tenant, link, bandwidth, direction))

    @precondition(lambda self: self.floors)
    @rule(data=st.data())
    def remove_floor(self, data):
        index = data.draw(st.integers(0, len(self.floors) - 1))
        tenant, link, bandwidth, direction = self.floors.pop(index)
        self.arbiter.remove_floor(tenant, link, bandwidth,
                                  direction=direction)
        # As the manager does on release: a link the arbiter no longer
        # manages gets its caps lifted.
        if link not in self.arbiter.managed_links():
            self.arbiter.lift_link_caps(link)

    @rule(owner=st.sampled_from(["i0", "i1"]), link=st.sampled_from(LINKS),
          ceiling=st.sampled_from([0.5, 0.8, 1.0]))
    def set_ceiling(self, owner, link, ceiling):
        self.arbiter.set_utilization_ceiling(owner, link, ceiling)

    @rule(owner=st.sampled_from(["i0", "i1"]), link=st.sampled_from(LINKS))
    def clear_ceiling(self, owner, link):
        self.arbiter.clear_utilization_ceiling(owner, link)

    @rule(tenant=st.sampled_from(TENANTS))
    def register_best_effort(self, tenant):
        self.arbiter.register_best_effort(tenant)
        self.best_effort.add(tenant)

    @rule(tenant=st.sampled_from(TENANTS))
    def unregister_best_effort(self, tenant):
        self.arbiter.unregister_best_effort(tenant)
        self.best_effort.discard(tenant)

    @rule(mode=st.sampled_from(MODES))
    def flip_mode(self, mode):
        setattr(self.arbiter, mode, not getattr(self.arbiter, mode))

    # -- the fabric --------------------------------------------------------

    @rule(link=st.sampled_from(LINKS),
          factor=st.sampled_from([0.25, 0.5, None]))
    def degrade_or_restore(self, link, factor):
        capacity = self.network.topology.link(link).capacity
        self.network.degrade_link(
            link, None if factor is None else capacity * factor)

    @rule(pair=st.sampled_from(ENDPOINT_PAIRS),
          tenant=st.sampled_from(TENANTS),
          demand_gbps=st.sampled_from([2.0, 20.0, 200.0]))
    def start_flow(self, pair, tenant, demand_gbps):
        path = shortest_path(self.network.topology, *pair)
        flow = self.network.start_transfer(tenant, path,
                                           demand=Gbps(demand_gbps))
        self.flow_ids.append(flow.flow_id)

    @precondition(lambda self: self.flow_ids)
    @rule(data=st.data())
    def stop_flow(self, data):
        index = data.draw(st.integers(0, len(self.flow_ids) - 1))
        self.network.cancel_flow(self.flow_ids.pop(index))

    # -- the round and its reference ---------------------------------------

    def _sensed_usages(self):
        """Per directed link, the rates a round started now senses."""
        sensed = {}
        for link in LINKS:
            for direction in ("fwd", "rev"):
                floors = self.arbiter.floors_on(link, direction)
                if floors:
                    sensed[f"{link}|{direction}"] = {
                        tenant: self.network.tenant_link_rate(
                            tenant, link, direction)
                        for tenant in set(floors) | self.best_effort}
        return sensed

    @invariant()
    def adjust(self):
        sensed = self._sensed_usages()
        allocations = self.arbiter.adjust_once()
        self.network.engine.run_until(self.network.engine.now
                                      + self.arbiter.decision_latency)
        assert sorted(a.link_id for a in allocations) == sorted(sensed)
        arbiter = self.arbiter
        for allocation in allocations:
            link_id, direction = allocation.link_id.split("|")
            link = self.network.topology.link(link_id)
            capacity = (link.effective_capacity if arbiter.degradation_aware
                        else link.capacity)
            floors = arbiter.floors_on(link_id, direction)
            usages = sensed[allocation.link_id]
            expected = compute_caps(
                capacity=capacity, floors=floors, usages=usages,
                best_effort={t for t in self.best_effort
                             if t not in floors},
                work_conserving=arbiter.work_conserving,
                utilization_ceiling=arbiter.ceiling_on(link_id),
                lend_parked_floors=arbiter.lend_parked_floors,
                demand_aware=arbiter.demand_aware,
            )
            assert allocation.capacity == capacity
            assert allocation.floors == floors
            assert allocation.usages == usages
            assert allocation.caps == pytest.approx(expected, rel=1e-12)
            for tenant, cap in allocation.caps.items():
                assert self.network.tenant_link_cap(
                    tenant, link_id, direction) == cap


ArbiterMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None)
TestArbiterAgainstReference = ArbiterMachine.TestCase
