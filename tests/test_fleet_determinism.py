"""Fleet determinism and migration conservation.

Two halves of the same trust story: the same seed must reproduce the same
fleet (placements and all), and no sequence of cross-host migrations may
create, destroy, or resize a tenant's allocation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FleetError, MigrationError
from repro.fleet import Fleet, FleetChurnConfig, generate_events, run_churn
from repro.core import pipe
from repro.units import Gbps

CONFIG = FleetChurnConfig(seed=11, horizon=0.08, arrival_rate=1500.0)


@pytest.mark.parametrize("field", ["horizon", "arrival_rate",
                                   "mean_holding"])
@pytest.mark.parametrize("bad", [0.0, -5.0, float("inf"), float("nan")])
def test_churn_config_rejects_non_positive_knobs(field, bad):
    # Unchecked, a negative arrival rate never reaches the horizon in
    # generate_events and a zero one divides by zero.
    with pytest.raises(FleetError, match=field):
        FleetChurnConfig(**{field: bad})


def fresh_fleet(**kwargs):
    kwargs.setdefault("hosts", 4)
    kwargs.setdefault("policy", "best-fit")
    kwargs.setdefault("max_attempts", 3)
    return Fleet("cascade_lake_2s", **kwargs)


def churn_signature(config):
    fleet = fresh_fleet()
    report = run_churn(fleet, config)
    fleet.shutdown()
    return (report.placements, report.admitted, report.rejected,
            report.released)


# -- seeded determinism ------------------------------------------------------


def test_same_seed_same_fleet_placements():
    assert churn_signature(CONFIG) == churn_signature(CONFIG)


def test_event_generation_is_pure():
    fleet = fresh_fleet()
    a = generate_events(CONFIG, fleet)
    b = generate_events(CONFIG, fleet)
    fleet.shutdown()
    assert [(t, s, k) for t, s, k, _ in a] == [(t, s, k) for t, s, k, _ in b]
    assert len(a) > 0


def test_different_seeds_diverge():
    other = FleetChurnConfig(seed=12, horizon=0.08, arrival_rate=1500.0)
    assert churn_signature(CONFIG) != churn_signature(other)


def test_rebalancing_fleet_is_still_deterministic():
    def signature():
        fleet = fresh_fleet(policy="first-fit", max_attempts=1,
                            rebalance_threshold=0.3)
        report = run_churn(fleet, CONFIG)
        moves = [(r.time, r.kind, r.intent_id, r.src, r.dst, r.ok)
                 for r in fleet.planner.records]
        fleet.shutdown()
        return report.placements, moves

    first, second = signature(), signature()
    assert first == second
    assert first[1], "expected at least one rebalance move"


# -- drain mode --------------------------------------------------------------


def test_drain_releases_every_live_session_at_horizon():
    fleet = fresh_fleet()
    report = run_churn(fleet, FleetChurnConfig(
        seed=11, horizon=0.08, arrival_rate=1500.0, drain=True))
    assert report.released == report.admitted
    assert not report.placements
    assert not fleet.placements()
    fleet.shutdown()


def test_drain_does_not_perturb_admission_decisions():
    """Drained and undrained same-seed runs admit and reject identically:
    the extra departures all land at the horizon, after every admission
    decision has been made."""
    undrained = run_churn(fresh_fleet(), CONFIG)
    drained_config = FleetChurnConfig(
        seed=CONFIG.seed, horizon=CONFIG.horizon,
        arrival_rate=CONFIG.arrival_rate, drain=True)
    drained = run_churn(fresh_fleet(), drained_config)
    assert drained.submitted == undrained.submitted
    assert drained.admitted == undrained.admitted
    assert drained.rejected == undrained.rejected
    # Undrained keeps sessions past the horizon; drain releases them.
    assert undrained.released < undrained.admitted
    assert drained.released == drained.admitted


def test_drain_event_stream_is_superset_clamped_to_horizon():
    fleet = fresh_fleet()
    base = generate_events(CONFIG, fleet)
    drained = generate_events(
        FleetChurnConfig(seed=CONFIG.seed, horizon=CONFIG.horizon,
                         arrival_rate=CONFIG.arrival_rate, drain=True),
        fleet)
    fleet.shutdown()
    assert len(drained) > len(base)
    extra = drained[len(base):]
    # Shared prefix is event-for-event identical...
    assert [(t, k) for t, _s, k, _p in drained[:len(base)]] \
        == [(t, k) for t, _s, k, _p in base]
    # ...and every extra event is a depart pinned at the horizon.
    assert all(k == "depart" and t == CONFIG.horizon
               for t, _s, k, _p in extra)


# -- migration conserves intents and allocated bandwidth ---------------------


def reserved_by_intent(fleet):
    """intent_id -> total reserved bytes/s across the whole fleet."""
    totals = {}
    for fp in fleet.placements():
        ledger = fleet.host(fp.host_id).manager.ledger
        totals[fp.intent_id] = sum(
            demand.bandwidth for demand in ledger.demands_of(fp.intent_id)
        )
    return totals


SOURCES = ["nic0", "nic1", "gpu0", "gpu1"]
SINKS = ["dimm0-0", "dimm0-1", "dimm1-0", "dimm1-1"]


@st.composite
def fleet_and_moves(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    intents = [
        pipe(
            f"i{i}",
            f"t{draw(st.integers(min_value=0, max_value=2))}",
            src=draw(st.sampled_from(SOURCES)),
            dst=draw(st.sampled_from(SINKS)),
            bandwidth=Gbps(draw(st.sampled_from([10, 40, 80, 150]))),
            bidirectional=draw(st.booleans()),
        )
        for i in range(n)
    ]
    moves = [
        (f"i{draw(st.integers(min_value=0, max_value=n - 1))}",
         f"host{draw(st.integers(min_value=0, max_value=2)):02d}")
        for _ in range(draw(st.integers(min_value=1, max_value=6)))
    ]
    return intents, moves


@settings(max_examples=25, deadline=None)
@given(case=fleet_and_moves())
def test_migrations_conserve_intents_and_bandwidth(case):
    intents, moves = case
    fleet = Fleet("cascade_lake_2s", hosts=3, policy="best-fit")
    admitted = {i.intent_id for i in intents
                if fleet.try_submit(i) is not None}
    before = reserved_by_intent(fleet)
    assert set(before) == admitted

    for intent_id, dst_host in moves:
        if intent_id not in admitted:
            continue
        try:
            fleet.migrate(intent_id, dst_host)
        except MigrationError:
            pass  # rejected or no-op moves must also conserve state

    after = reserved_by_intent(fleet)
    assert set(after) == admitted  # no intent created or destroyed
    for intent_id in admitted:
        assert after[intent_id] == pytest.approx(before[intent_id])
