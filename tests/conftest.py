"""Shared fixtures for the hostnet test suite."""

from __future__ import annotations

import contextlib

import pytest

from repro.fleet import LockstepFleetClock, cluster
from repro.sim import Engine, FabricNetwork
from repro.topology import cascade_lake_2s, dgx_like, minimal_host
from repro.trace import TRACER, TraceConfig


@pytest.fixture(autouse=True)
def _tracer_hygiene():
    """Keep the process-wide tracer quiescent across tests.

    Any test may enable or reconfigure tracing (Host(trace=True), the
    CLI trace scenario, a tiny-capacity TraceConfig); this guarantees
    the next test starts with it disabled, empty, and on the default
    config, so timing-sensitive tests never pay for a leaked tracer and
    ring-capacity changes never bleed across tests.
    """
    yield
    if TRACER.enabled or len(TRACER):
        TRACER.disable()
        TRACER.clear()
    if TRACER.config != TraceConfig():
        TRACER.configure()


@pytest.fixture
def lockstep_oracle(monkeypatch):
    """Build fleets on the lockstep reference clock.

    Returns a context manager: every :class:`~repro.fleet.Fleet`
    constructed inside ``with lockstep_oracle():`` advances on
    :class:`LockstepFleetClock` (every host, every quantum, control at
    every boundary) instead of the event-driven clock, so one test can
    run the same workload on both and compare.  ``lockstep_oracle(False)``
    is a no-op, for tests parametrized over the two.
    """

    @contextlib.contextmanager
    def oracle(enabled: bool = True):
        with monkeypatch.context() as patch:
            if enabled:
                patch.setattr(cluster, "EventDrivenFleetClock",
                              LockstepFleetClock)
            yield

    return oracle


@pytest.fixture
def engine():
    """A fresh discrete-event engine at t=0."""
    return Engine()


@pytest.fixture
def minimal_net(engine):
    """A FabricNetwork over the minimal single-socket preset."""
    return FabricNetwork(minimal_host(), engine)


@pytest.fixture
def cascade_net(engine):
    """A FabricNetwork over the dual-socket Cascade-Lake-like preset."""
    return FabricNetwork(cascade_lake_2s(), engine)


@pytest.fixture
def dgx_net(engine):
    """A FabricNetwork over the 8-GPU/8-NIC DGX-like preset."""
    return FabricNetwork(dgx_like(), engine)


def run_for(network: FabricNetwork, duration: float) -> None:
    """Advance a network's engine by *duration* seconds."""
    network.engine.run_until(network.engine.now + duration)
