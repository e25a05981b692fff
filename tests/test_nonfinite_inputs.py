"""Non-finite rates, periods and weights are rejected, not installed.

Each entry point raises the exception type its negative-value case
raises.  A NaN floor used to install NaN caps while ``floors_on``
reported 0.0, and a NaN flow demand let a 10 Gbps flow run at the full
link rate.
"""

import math

import pytest

from repro.core import DynamicArbiter
from repro.errors import ArbiterError
from repro.sim import Engine, FabricNetwork
from repro.topology import minimal_host, shortest_path
from repro.units import Gbps

NAN = math.nan
INF = math.inf


@pytest.fixture
def network():
    return FabricNetwork(minimal_host(), Engine())


@pytest.fixture
def flow(network):
    path = shortest_path(network.topology, "nic0", "dimm0-0")
    return network.start_transfer("t", path, demand=Gbps(10))


@pytest.mark.parametrize("kwargs", [
    {"period": NAN}, {"period": INF},
    {"decision_latency": NAN}, {"decision_latency": INF},
])
def test_arbiter_rejects_non_finite_timing(network, kwargs):
    with pytest.raises(ArbiterError):
        DynamicArbiter(network, **kwargs)


@pytest.mark.parametrize("bandwidth", [NAN, INF, -INF])
def test_add_floor_rejects_non_finite_bandwidth(network, bandwidth):
    arbiter = DynamicArbiter(network)
    with pytest.raises(ArbiterError):
        arbiter.add_floor("t", "pcie-nic0", bandwidth)
    assert arbiter.floors_on("pcie-nic0") == {}
    assert arbiter.adjust_once() == []


@pytest.mark.parametrize("bandwidth", [NAN, INF, -1.0])
def test_remove_floor_rejects_non_finite_bandwidth(network, bandwidth):
    arbiter = DynamicArbiter(network)
    arbiter.add_floor("t", "pcie-nic0", Gbps(10))
    with pytest.raises(ArbiterError):
        arbiter.remove_floor("t", "pcie-nic0", bandwidth)
    assert arbiter.floors_on("pcie-nic0") == {"t": Gbps(10)}


def test_set_tenant_link_cap_rejects_nan(network):
    with pytest.raises(ValueError):
        network.set_tenant_link_cap("t", "pcie-nic0", NAN)
    assert network.tenant_link_cap("t", "pcie-nic0") is None


@pytest.mark.parametrize("weight", [NAN, INF])
def test_set_tenant_weight_rejects_non_finite(network, weight):
    with pytest.raises(ValueError):
        network.set_tenant_weight("t", weight)


def test_set_flow_demand_rejects_nan(network, flow):
    with pytest.raises(ValueError):
        network.set_flow_demand(flow.flow_id, NAN)
    assert flow.demand == Gbps(10)
    assert flow.current_rate == pytest.approx(Gbps(10))


def test_set_flow_rate_cap_rejects_nan(network, flow):
    with pytest.raises(ValueError):
        network.set_flow_rate_cap(flow.flow_id, NAN)
    assert flow.current_rate == pytest.approx(Gbps(10))


def test_infinite_demand_and_rate_cap_stay_valid(network, flow):
    network.set_flow_demand(flow.flow_id, INF)
    network.set_flow_rate_cap(flow.flow_id, INF)
    assert flow.current_rate > Gbps(10)
