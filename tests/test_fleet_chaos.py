"""Fleet chaos campaigns: the oracle stays green, clocks agree bit-exact."""

import json

import pytest

from repro.errors import FleetError
from repro.fleet import (
    FleetChaosConfig,
    FleetFaultConfig,
    run_fleet_campaign,
)

#: Seeds for the wide oracle-green property sweep (ISSUE: >= 50 seeds).
ORACLE_SEEDS = list(range(50))
#: Seeds for the event-clock vs lockstep-oracle bit-identical sweep (>= 20).
EQUIVALENCE_SEEDS = list(range(20))


def small_config(seed, **overrides):
    """A 16-host campaign kept small enough for a seed sweep."""
    defaults = dict(
        seed=seed, hosts=16, horizon=0.2,
        arrival_rate=800.0, tenants=8, faults=6, deep_audits=False,
    )
    defaults.update(overrides)
    return FleetChaosConfig(**defaults)


def test_config_validation():
    with pytest.raises(FleetError, match=">= 2 hosts"):
        FleetChaosConfig(hosts=1)
    with pytest.raises(FleetError, match="horizon"):
        FleetChaosConfig(horizon=0.0)


def test_campaign_report_shape():
    report = run_fleet_campaign(small_config(0))
    assert report.passed
    assert report.submitted == report.admitted + report.rejected
    assert report.audits > 0
    assert report.fault_counters["crashes"] >= 1
    assert "PASS" in report.describe()
    outcome = json.loads(report.outcome_json)
    assert outcome["seed"] == 0
    assert "clock" not in outcome  # the equivalence key is clock-free
    assert outcome["recovery"]["pending_replacements"] == 0


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_oracle_green_across_seeds(seed):
    """The fleet invariant oracle holds on every audited interleaving."""
    report = run_fleet_campaign(small_config(seed))
    assert report.passed, "\n".join(report.violations[:10])


@pytest.mark.parametrize("seed", EQUIVALENCE_SEEDS)
def test_event_and_lockstep_clocks_agree_bit_exact(seed, lockstep_oracle):
    """Same seed, same storm: the event clock and the lockstep oracle
    reach the same admissions, evacuations, sheds, and final placements,
    bit-identical."""
    event = run_fleet_campaign(small_config(seed))
    with lockstep_oracle():
        lockstep = run_fleet_campaign(small_config(seed))
    assert event.passed and lockstep.passed
    assert event.outcome_json == lockstep.outcome_json


def test_no_session_lost_when_headroom_suffices():
    """With the concurrent-downtime cap low enough that the surviving
    hosts always hold the displaced load, nothing is ever shed."""
    for seed in range(8):
        config = small_config(
            seed, arrival_rate=400.0,
            fault_config=FleetFaultConfig(seed=seed, faults=6,
                                          horizon=0.2,
                                          max_down_fraction=0.25),
        )
        report = run_fleet_campaign(config)
        assert report.passed
        assert report.sessions_lost == 0, (
            f"seed {seed} shed {report.sessions_lost} sessions despite "
            f"ample aggregate headroom")


def test_deep_audits_also_green():
    """The full per-host fabric oracle inside every per-fault audit."""
    report = run_fleet_campaign(small_config(0, hosts=8,
                                             deep_audits=True))
    assert report.passed, "\n".join(report.violations[:10])
