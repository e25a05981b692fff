"""The dynamic arbiter: allocation rule and runtime enforcement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DynamicArbiter, compute_caps
from repro.errors import ArbiterError
from repro.topology import shortest_path
from repro.units import Gbps, us


class TestComputeCaps:
    def test_floors_guaranteed_when_reserved(self):
        caps = compute_caps(
            capacity=100.0, floors={"a": 40.0}, usages={"a": 40.0, "b": 60.0},
            best_effort={"b"}, work_conserving=False,
        )
        assert caps["a"] == pytest.approx(40.0)

    def test_non_work_conserving_pins_at_floor(self):
        caps = compute_caps(
            capacity=100.0, floors={"a": 40.0}, usages={"a": 0.0},
            best_effort=set(), work_conserving=False,
        )
        assert caps["a"] == pytest.approx(40.0)

    def test_work_conserving_spare_follows_demand(self):
        caps = compute_caps(
            capacity=100.0, floors={"a": 40.0}, usages={"a": 40.0, "b": 60.0},
            best_effort={"b"}, work_conserving=True,
        )
        # spare = 60; a sits at its floor (tiny estimate), b is pushing
        # hard, so water-filling hands b nearly all the spare
        assert caps["a"] == pytest.approx(42.0)
        assert caps["b"] == pytest.approx(58.0)
        assert caps["a"] + caps["b"] == pytest.approx(100.0)

    def test_idle_guarantee_spare_goes_to_demander(self):
        caps = compute_caps(
            capacity=100.0, floors={"a": 40.0}, usages={"a": 0.0, "b": 50.0},
            best_effort={"b"}, work_conserving=True,
        )
        # a idle: its floor stays reserved (hard guarantee), but the spare
        # goes to b, whose cap exceeds its current usage so it can grow
        assert caps["a"] >= 40.0
        assert caps["b"] > 50.0

    def test_best_effort_gets_ramp_allowance_when_idle(self):
        caps = compute_caps(
            capacity=100.0, floors={"a": 90.0}, usages={"a": 90.0, "b": 0.0},
            best_effort={"b"}, work_conserving=True,
        )
        assert caps["b"] >= 2.0  # the 2% ramp allowance

    def test_sum_of_floors_never_violated_by_guarantees(self):
        caps = compute_caps(
            capacity=100.0, floors={"a": 30.0, "b": 30.0},
            usages={"a": 30.0, "b": 30.0}, best_effort=set(),
            work_conserving=False,
        )
        assert caps["a"] + caps["b"] <= 100.0

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.floats(min_value=10.0, max_value=1000.0),
        floor_values=st.lists(st.floats(min_value=1.0, max_value=100.0),
                              min_size=0, max_size=4),
        be_usages=st.lists(st.floats(min_value=0.0, max_value=500.0),
                           min_size=0, max_size=3),
        work_conserving=st.booleans(),
    )
    def test_caps_invariants(self, capacity, floor_values, be_usages,
                             work_conserving):
        """Every guaranteed tenant's cap >= its floor (when reservations fit);
        caps are non-negative; and in non-work-conserving mode guaranteed
        caps equal floors exactly."""
        floors = {f"g{i}": v for i, v in enumerate(floor_values)}
        if sum(floors.values()) > capacity:
            return  # admission would never commit this
        usages = {t: f for t, f in floors.items()}
        best_effort = set()
        for i, usage in enumerate(be_usages):
            tenant = f"b{i}"
            best_effort.add(tenant)
            usages[tenant] = usage
        caps = compute_caps(capacity, floors, usages, best_effort,
                            work_conserving)
        for tenant, floor in floors.items():
            assert caps[tenant] >= floor - 1e-9
            if not work_conserving:
                assert caps[tenant] == pytest.approx(floor)
        assert all(c >= 0 for c in caps.values())


class TestDynamicArbiter:
    def test_floor_protects_guaranteed_tenant(self, cascade_net):
        net = cascade_net
        arbiter = DynamicArbiter(net, period=0.001, decision_latency=0.0)
        path = shortest_path(net.topology, "nic0", "dimm0-0")
        for link_id in path.links:
            arbiter.add_floor("victim", link_id, Gbps(100))
        arbiter.register_best_effort("bully")
        arbiter.start()

        victim = net.start_transfer("victim", path, demand=Gbps(100))
        for i in range(8):
            net.start_transfer("bully", path)
        net.engine.run_until(0.05)
        assert victim.current_rate >= Gbps(100) * 0.99

    def test_work_conserving_lets_bully_use_spare(self, cascade_net):
        net = cascade_net
        arbiter = DynamicArbiter(net, period=0.001, decision_latency=0.0,
                                 work_conserving=True)
        path = shortest_path(net.topology, "nic0", "dimm0-0")
        for link_id in path.links:
            arbiter.add_floor("victim", link_id, Gbps(100))
        arbiter.register_best_effort("bully")
        arbiter.start()
        bully = net.start_transfer("bully", path)  # victim idle
        net.engine.run_until(0.05)
        assert bully.current_rate > Gbps(120)

    def test_reserved_mode_wastes_spare(self, cascade_net):
        net = cascade_net
        arbiter = DynamicArbiter(net, period=0.001, decision_latency=0.0,
                                 work_conserving=False)
        path = shortest_path(net.topology, "nic0", "dimm0-0")
        for link_id in path.links:
            arbiter.add_floor("victim", link_id, Gbps(100))
        arbiter.register_best_effort("bully")
        arbiter.start()
        bully = net.start_transfer("bully", path)
        net.engine.run_until(0.05)
        # bully limited to capacity - floor on the PCIe bottleneck
        assert bully.current_rate <= Gbps(256) - Gbps(100) + Gbps(1)

    def test_decision_latency_delays_enforcement(self, cascade_net):
        net = cascade_net
        arbiter = DynamicArbiter(net, period=0.01,
                                 decision_latency=us(5000))  # 5 ms
        path = shortest_path(net.topology, "nic0", "dimm0-0")
        arbiter.add_floor("victim", path.links[0], Gbps(100))
        arbiter.register_best_effort("bully")
        bully = net.start_transfer("bully", path)
        arbiter.adjust_once()
        # immediately after the decision, no cap applied yet
        assert bully.current_rate == pytest.approx(Gbps(256), rel=1e-6)
        net.engine.run_until(0.006)
        assert bully.current_rate < Gbps(256)

    def test_floor_bookkeeping(self, cascade_net):
        arbiter = DynamicArbiter(cascade_net)
        arbiter.add_floor("t", "pcie-nic0", Gbps(10))
        arbiter.add_floor("t", "pcie-nic0", Gbps(5))
        assert arbiter.floors_on("pcie-nic0")["t"] == pytest.approx(Gbps(15))
        arbiter.remove_floor("t", "pcie-nic0", Gbps(15))
        assert arbiter.managed_links() == []

    def test_remove_unknown_floor_rejected(self, cascade_net):
        arbiter = DynamicArbiter(cascade_net)
        with pytest.raises(ArbiterError):
            arbiter.remove_floor("t", "pcie-nic0", 1.0)

    def test_stop_lifts_caps(self, cascade_net):
        net = cascade_net
        arbiter = DynamicArbiter(net, period=0.001, decision_latency=0.0)
        path = shortest_path(net.topology, "nic0", "dimm0-0")
        arbiter.add_floor("victim", path.links[0], Gbps(100))
        arbiter.register_best_effort("bully")
        arbiter.start()
        bully = net.start_transfer("bully", path)
        net.engine.run_until(0.01)
        assert bully.current_rate < Gbps(256)
        arbiter.stop(lift_caps=True)
        assert bully.current_rate == pytest.approx(Gbps(256), rel=1e-6)

    def test_invalid_params(self, cascade_net):
        with pytest.raises(ArbiterError):
            DynamicArbiter(cascade_net, period=0.0)
        with pytest.raises(ArbiterError):
            DynamicArbiter(cascade_net, decision_latency=-1.0)
        arbiter = DynamicArbiter(cascade_net)
        with pytest.raises(ArbiterError):
            arbiter.add_floor("t", "pcie-nic0", 0.0)

    def test_allocations_introspection(self, cascade_net):
        arbiter = DynamicArbiter(cascade_net, decision_latency=0.0)
        arbiter.add_floor("t", "pcie-nic0", Gbps(10))
        allocations = arbiter.adjust_once()
        # a direction-less floor manages both directions independently
        assert {a.link_id for a in allocations} == \
            {"pcie-nic0|fwd", "pcie-nic0|rev"}
        assert all("t" in a.caps for a in allocations)

    def test_zero_latency_round_senses_its_own_enforcement(self,
                                                           cascade_net):
        # Caps applied synchronously re-solve the live fabric; the next
        # round must sense the new rates instead of skipping as quiesced.
        net = cascade_net
        arbiter = DynamicArbiter(net, decision_latency=0.0,
                                 work_conserving=False)
        path = shortest_path(net.topology, "nic0", "dimm0-0")
        net.start_transfer("t", path, demand=Gbps(200))
        arbiter.add_floor("t", path.links[0], Gbps(100))
        arbiter.adjust_once()  # pins t at its floor
        for allocation in arbiter.adjust_once():
            link_id, direction = allocation.link_id.split("|")
            assert allocation.usages["t"] == net.tenant_link_rate(
                "t", link_id, direction)
        assert arbiter.skipped_adjustments == 0

    def test_directional_floor_manages_one_direction(self, cascade_net):
        arbiter = DynamicArbiter(cascade_net, decision_latency=0.0)
        arbiter.add_floor("t", "pcie-nic0", Gbps(10), direction="fwd")
        allocations = arbiter.adjust_once()
        assert [a.link_id for a in allocations] == ["pcie-nic0|fwd"]
        assert arbiter.floors_on("pcie-nic0", "rev") == {}
        assert arbiter.floors_on("pcie-nic0")["t"] == pytest.approx(Gbps(10))


class TestInflightEnforcement:
    """Enforcement batches still in flight when caps are lifted."""

    @staticmethod
    def _arbiter_mid_batch(net):
        # Period 1 ms, latency 100 us: the round at 1 ms decides caps that
        # land at 1.1 ms; the lifts below happen at 1.05 ms, in between.
        arbiter = DynamicArbiter(net, period=0.001,
                                 decision_latency=us(100))
        path = shortest_path(net.topology, "nic0", "dimm0-0")
        arbiter.add_floor("victim", "pcie-nic0", Gbps(100))
        arbiter.register_best_effort("bully")
        arbiter.start()
        net.start_transfer("bully", path)
        net.engine.run_until(0.00105)
        # Decided, not yet applied.
        assert net.tenant_link_cap("bully", "pcie-nic0", "fwd") is None
        return arbiter

    def test_stop_cancels_batches_in_flight(self, cascade_net):
        arbiter = self._arbiter_mid_batch(cascade_net)
        arbiter.stop(lift_caps=True)
        cascade_net.engine.run_until(0.01)
        for tenant in ("victim", "bully"):
            for direction in ("fwd", "rev"):
                assert cascade_net.tenant_link_cap(
                    tenant, "pcie-nic0", direction) is None

    def test_lift_drops_lifted_caps_from_batches_in_flight(self,
                                                           cascade_net):
        arbiter = self._arbiter_mid_batch(cascade_net)
        arbiter.unregister_best_effort("bully")
        cascade_net.engine.run_until(0.01)
        for direction in ("fwd", "rev"):
            assert cascade_net.tenant_link_cap(
                "bully", "pcie-nic0", direction) is None
        # The rest of the batch still applied: the victim stays capped.
        assert cascade_net.tenant_link_cap(
            "victim", "pcie-nic0", "fwd") is not None
