"""Tests of the benchmark's own machinery.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

import ast
import json
import os
import re
import subprocess
import sys
from time import perf_counter

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from calibrate import NOMINAL_S, Calibrator, kernel  # noqa: E402
from layers import MOVES, WRAPPED, spec, units  # noqa: E402
from spans import (  # noqa: E402
    SpanRecorder, layer_table, layer_times, span_problems)
from stats import (  # noqa: E402
    median, samples_beyond, tail_percentile, valid_name)
from workloads import WORKLOADS, drive_churn256, setup_churn256  # noqa: E402


def test_p99_needs_ten_samples_beyond_it():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(2276, 99) == 22
    assert tail_percentile(list(range(1, 1001)), 99) == 990
    with pytest.raises(ValueError):
        tail_percentile(list(range(999)), 99)
    assert tail_percentile([3.0, 1.0, 2.0], 50, min_beyond=1) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_calibration_scales_to_the_nominal_kernel_time():
    assert kernel(500) == kernel(500)
    cal = Calibrator()
    cal.burst()
    assert len(cal.samples) == 1 and cal.spent == cal.samples[0] > 0
    # One stalled and one lucky burst in ten are trimmed away.
    cal.samples = [2 * NOMINAL_S] * 8 + [50 * NOMINAL_S, 0.1 * NOMINAL_S]
    assert cal.speed() == pytest.approx(0.5)


def test_self_time_partitions_a_span_tree():
    # A(0)[0,10] > B(1)[1,4] > C(0)[2,3];  A > D(1)[5,9];  E(1)[11,12]
    layer_ids = np.array([0, 1, 0, 1, 1])
    parents = np.array([-1, 0, 1, 0, -1])
    starts = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
    ends = np.array([10.0, 4.0, 3.0, 9.0, 12.0])
    self_time, busy, root_total = layer_times(layer_ids, parents, starts,
                                              ends, 2)
    assert self_time.tolist() == [3.0 + 1.0, 2.0 + 4.0 + 1.0]
    # C is nested inside A, so layer 0 was busy for A's 10 s only.
    assert busy.tolist() == [10.0, 3.0 + 4.0 + 1.0]
    assert root_total == 11.0
    assert self_time.sum() == root_total


def test_recorder_accounts_for_the_whole_run():
    rec = SpanRecorder()

    def leaf(x):
        return x + 1

    leaf_w = rec.wrap(leaf, "leaf", "inner")

    def outer(n):
        return [leaf_w(i) for i in range(n)]

    outer_w = rec.wrap(outer, "outer", "outer")
    outer_w(3)  # inactive: not recorded
    rec.active = True
    start = perf_counter()
    outer_w(5)
    leaf_w(0)
    run_s = perf_counter() - start
    rec.active = False
    assert rec.calls() == {"leaf": 6, "outer": 1}
    assert rec.hits == [6, 1]
    table = layer_table(rec, run_s)
    assert set(table) == {"driver", "inner", "outer"}
    total = sum(row["self_s"] for row in table.values())
    assert total == pytest.approx(run_s, rel=1e-9)
    assert (table["outer"]["calls"], table["inner"]["calls"]) == (1, 6)
    assert table["outer"]["busy_s"] >= table["outer"]["self_s"] > 0
    assert span_problems(rec, start, start + run_s) == []


def _recorder(parents, starts, ends):
    rec = SpanRecorder()
    rec._register("span", "layer")
    rec.name_ids.extend([0] * len(parents))
    rec.parents.extend(parents)
    rec.starts.extend(starts)
    rec.ends.extend(ends)
    return rec


def test_span_problems_catch_spans_that_do_not_nest():
    # A[0,10] > B[1,4], A > C[5,9], D[11,12]: a clean partition of [0,12].
    good = _recorder([-1, 0, 0, -1], [0, 1, 5, 11], [10, 4, 9, 12])
    assert span_problems(good, 0.0, 12.0) == []
    # D starts before A ends.
    assert span_problems(_recorder([-1, -1], [0, 5], [6, 8]), 0.0, 9.0) \
        == ["root spans overlap"]
    # The roots run past the end of the timed run.
    assert span_problems(good, 0.0, 11.5) == [
        "root spans reach outside the timed run"]
    # B and C overlap inside A, so A's children outlast it.
    crowded = _recorder([-1, 0, 0], [0, 1, 2], [4, 3.5, 3.9])
    assert span_problems(crowded, 0.0, 4.0) == [
        "1 spans have negative self time"]
    # B ends after its parent.
    assert span_problems(_recorder([-1, 0], [0, 1], [2, 3]), 0.0, 4.0) \
        == ["1 spans lie outside their parent span"]


def test_every_wrapped_entry_point_exists_and_is_restored():
    import repro.core.arbiter as arbiter
    from repro.fleet import Fleet

    before = (Fleet.try_submit, arbiter.compute_caps)
    rec = SpanRecorder()
    rec.install()
    try:
        assert Fleet.try_submit is not before[0]
        assert arbiter.compute_caps is not before[1]
    finally:
        rec.uninstall()
    assert (Fleet.try_submit, arbiter.compute_caps) == before
    assert set(rec.layers) == {layer for layer, *_ in WRAPPED}


def test_metric_and_workload_names_are_valid_and_mapped():
    benchmark = spec()
    names = (list(units("end_to_end")) + list(units("per_layer"))
             + list(WORKLOADS))
    assert all(valid_name(n) for n in names)
    assert len(set(names)) == len(names)
    assert not valid_name("bad name") and not valid_name("-lead")
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    # Every per-layer metric says which end-to-end metric it should move.
    assert list(MOVES) == list(units("per_layer"))
    for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])


def _inputs_key(state):
    inputs = state.inputs
    if "trace" in inputs:
        key = inputs["trace"].to_json()
        if "faults" in inputs:
            key += repr(inputs["faults"].events)
        return key
    return repr([(t, kind, getattr(p, "intent_id", p),
                  getattr(p, "bandwidth", None))
                 for t, _seq, kind, p in inputs["events"]])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_decides_the_generated_input(name):
    setup, _drive = WORKLOADS[name]
    states = [setup(0), setup(0), setup(1)]
    try:
        keys = [_inputs_key(s) for s in states]
    finally:
        for s in states:
            s.fleet.shutdown()
    assert keys[0] == keys[1]
    assert keys[0] != keys[2]


def test_churn_driver_matches_run_churn():
    from repro.fleet import Fleet, FleetChurnConfig, run_churn

    state = setup_churn256(4)
    outcome = drive_churn256(state)
    placements = sorted((p.intent_id, p.host_id)
                        for p in state.fleet.placements())
    state.fleet.shutdown()
    fleet = Fleet("cascade_lake_2s", hosts=256, policy="best-fit",
                  max_attempts=4)
    report = run_churn(fleet, FleetChurnConfig(
        seed=4, horizon=0.2, arrival_rate=8000.0, mean_holding=0.03))
    fleet.shutdown()
    assert (outcome.submitted, outcome.admitted, outcome.rejected,
            outcome.released) == (report.submitted, report.admitted,
                                  report.rejected, report.released)
    assert placements == sorted(report.placements)


def test_benchmark_avoids_surfaces_slated_for_removal():
    """Fleet(parallel=), Fleet.run_until, MigrationPlanner.tick,
    FleetTelemetry.refresh and the max_age arguments are due to be
    deleted; the benchmark must not depend on any of them."""
    keywords = {"parallel", "max_age", "telemetry_max_age"}
    attributes = {"run_until", "tick", "refresh"}
    for name in sorted(os.listdir(HERE)):
        if not name.endswith(".py") or name == "test_perfbench.py":
            continue
        with open(os.path.join(HERE, name), encoding="utf-8") as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.keyword):
                assert node.arg not in keywords, f"{name}:{node.lineno}"
            if isinstance(node, ast.Attribute):
                assert node.attr not in attributes, f"{name}:{node.lineno}"


def test_replay64_seed0_matches_the_profiled_work_counts():
    """The traced counts reproduce the cProfile call counts of the
    gated 64-host replay: 538,780 cap writes and 147,712 headroom
    reads for 2,276 decisions."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "rep.py"), "--workload",
         "replay-64", "--seed", "0", "--trace", "1"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
        check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["problems"] == []
    layers = result["layers"]
    assert layers["fleet.scheduler.decisions"] == 2276
    assert layers["core.arbiter.cap_writes"] == 538780
    assert layers["fleet.telemetry.headroom_calls"] == 147712
