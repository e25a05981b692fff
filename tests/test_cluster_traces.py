"""The normalized cluster-trace schema, ingestion, and synthesizer.

The trust story the subsystem sells is "byte-identical load": two
policies or two clock disciplines are only comparable because they were
fed the same normalized trace, decidable by string equality of the
canonical JSON.  These tests pin the schema round-trip, the Alibaba-style
CSV/JSON ingestion (including its filtering and dedup rules), and the
synthesizer's seeded determinism.
"""

import json
import os

import pytest

from repro.errors import WorkloadError
from repro.units import Gbps
from repro.workloads.cluster_traces import (
    ClusterTask,
    ClusterTrace,
    IngestConfig,
    SynthTraceConfig,
    ingest_csv,
    ingest_json,
    load_trace,
    synthesize_trace,
)
from repro.workloads.cluster_traces.ingest import ColumnMap
from repro.workloads.cluster_traces.schema import (
    SCHEMA_VERSION,
    rebase_and_scale,
    trace_summary,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "alibaba_batch_task_sample.csv")


def small_trace():
    return ClusterTrace(
        tasks=[
            ClusterTask("b", "j1", "t0", arrival=1.0, duration=2.0,
                        bandwidth=Gbps(10)),
            ClusterTask("a", "j1", "t0", arrival=1.0, duration=1.0,
                        bandwidth=Gbps(20), cpu=2.0, memory=0.5,
                        bidirectional=True),
            ClusterTask("c", "j2", "t1", arrival=0.5, duration=4.0,
                        bandwidth=Gbps(40)),
        ],
        name="tiny",
    )


# -- schema -----------------------------------------------------------------


def test_tasks_sort_by_arrival_then_id():
    trace = small_trace()
    assert [t.task_id for t in trace] == ["c", "a", "b"]


def test_task_validation():
    with pytest.raises(WorkloadError, match="arrival"):
        ClusterTask("x", "j", "t", arrival=-1.0, duration=1.0,
                    bandwidth=Gbps(1))
    with pytest.raises(WorkloadError, match="duration"):
        ClusterTask("x", "j", "t", arrival=0.0, duration=0.0,
                    bandwidth=Gbps(1))
    with pytest.raises(WorkloadError, match="bandwidth"):
        ClusterTask("x", "j", "t", arrival=0.0, duration=1.0,
                    bandwidth=0.0)


def test_duplicate_task_ids_rejected():
    task = ClusterTask("a", "j", "t", arrival=0.0, duration=1.0,
                       bandwidth=Gbps(1))
    with pytest.raises(WorkloadError, match="duplicate"):
        ClusterTrace(tasks=[task, task])


def test_trace_shape_accessors():
    trace = small_trace()
    assert trace.horizon == pytest.approx(4.5)  # c: 0.5 + 4.0
    assert trace.tenants() == ["t0", "t1"]
    assert trace.jobs() == ["j1", "j2"]
    assert trace.concurrent_at(1.5) == 3
    assert trace.concurrent_at(4.0) == 1
    summary = trace_summary(trace)
    assert summary["tasks"] == 3
    assert summary["mean_duration"] == pytest.approx(7.0 / 3.0)


def test_json_round_trip_is_canonical_and_lossless():
    trace = small_trace()
    text = trace.to_json()
    again = ClusterTrace.from_json(text)
    assert again.to_json() == text  # canonical: fixed point
    assert again.name == "tiny"
    assert again.tasks == trace.tasks  # cpu/mem/bidirectional survive


def test_from_json_rejects_unknown_schema():
    payload = json.loads(small_trace().to_json())
    payload["schema"] = "repro.cluster-trace/v999"
    with pytest.raises(WorkloadError, match="v999"):
        ClusterTrace.from_json(json.dumps(payload))
    with pytest.raises(WorkloadError, match="schema"):
        ClusterTrace.from_json("[1,2,3]")
    with pytest.raises(WorkloadError, match="not a cluster trace"):
        ClusterTrace.from_json("{nope")


def test_rebase_and_scale_preserves_load_shape():
    trace = small_trace()
    scaled = ClusterTrace(rebase_and_scale(list(trace), time_scale=0.5),
                          name="scaled")
    assert min(t.arrival for t in scaled) == 0.0
    # Horizon rebases (base = 0.5) then scales: (4.5 - 0.5) * 0.5.
    assert scaled.horizon == pytest.approx(2.0)
    # Concurrency profile is identical at scaled times: original time t
    # maps to (t - base) * time_scale with base = 0.5.
    assert scaled.concurrent_at(0.5) == trace.concurrent_at(1.5)
    with pytest.raises(WorkloadError, match="time_scale"):
        rebase_and_scale(list(trace), time_scale=0.0)


# -- ingestion ---------------------------------------------------------------


def test_fixture_ingests_with_expected_filtering():
    trace = load_trace(FIXTURE)
    # 36 data rows: one Failed and one Running filtered by status, one
    # zero-duration row skipped, one (job, task) repeat deduped with #1.
    assert len(trace) == 33
    assert "j_2762/task_M1#1" in {t.task_id for t in trace}
    assert min(t.arrival for t in trace) == 0.0  # rebased
    for task in trace:
        assert Gbps(5) <= task.bandwidth <= Gbps(200)  # clamped
        assert task.duration > 0
    # Tenants synthesized from job-id hash (no user column): stable names.
    assert all(t.tenant_id.startswith("u") for t in trace)


def test_fixture_ingest_is_deterministic():
    assert load_trace(FIXTURE).to_json() == load_trace(FIXTURE).to_json()


def test_ingest_time_scale_compresses():
    full = load_trace(FIXTURE)
    compressed = load_trace(FIXTURE, IngestConfig(time_scale=0.05))
    assert compressed.horizon == pytest.approx(0.05 * full.horizon)
    assert len(compressed) == len(full)


def test_ingest_csv_requires_columns():
    with pytest.raises(WorkloadError, match="required columns"):
        ingest_csv("foo,bar\n1,2\n")
    with pytest.raises(WorkloadError, match="empty CSV"):
        ingest_csv("")


def test_ingest_csv_rejects_non_numeric_fields():
    text = ("task_name,job_name,start_time,end_time,plan_cpu,plan_mem\n"
            "t1,j1,abc,20,100,1\n")
    with pytest.raises(WorkloadError, match="not numeric"):
        ingest_csv(text)


def test_ingest_csv_all_rows_filtered_raises():
    text = ("task_name,job_name,status,start_time,end_time\n"
            "t1,j1,Failed,0,10\n")
    with pytest.raises(WorkloadError, match="no usable rows"):
        ingest_csv(text)


def test_ingest_json_rows_and_schema_passthrough():
    rows = [
        {"task_name": "t1", "job_name": "j1", "start_time": 0,
         "end_time": 10, "plan_cpu": 200, "plan_mem": 1.0},
        {"task_name": "t2", "job_name": "j1", "start_time": 5,
         "end_time": 30, "plan_cpu": 400, "plan_mem": 2.0},
    ]
    trace = ingest_json(json.dumps(rows))
    assert len(trace) == 2
    assert trace.tasks[0].cpu == pytest.approx(2.0)  # centi-cores / 100
    # Our own schema object passes through verbatim (already normalized).
    again = ingest_json(trace.to_json())
    assert again.to_json() == trace.to_json()
    with pytest.raises(WorkloadError, match="not JSON"):
        ingest_json("{nope")
    with pytest.raises(WorkloadError, match="expected a schema object"):
        ingest_json('"just a string"')


def test_ingest_custom_column_map():
    text = ("tid,jid,begin,finish,owner\n"
            "a,j1,0,5,alice\n"
            "b,j1,1,9,alice\n")
    config = IngestConfig(columns=ColumnMap(
        task="tid", job="jid", start="begin", end="finish", user="owner"))
    trace = ingest_csv(text, config)
    assert len(trace) == 2
    assert trace.tenants() == ["alice"]


def test_bandwidth_projection_clamps():
    config = IngestConfig()
    assert config.project_bandwidth(0.0, 0.0) == config.min_bandwidth
    assert config.project_bandwidth(1000.0, 0.0) == config.max_bandwidth


def test_load_trace_unknown_format():
    with pytest.raises(WorkloadError, match="unknown trace format"):
        load_trace(FIXTURE, fmt="parquet")


# -- synthesizer -------------------------------------------------------------


def test_synth_is_byte_deterministic():
    config = SynthTraceConfig(seed=7, tasks=400, tenants=32, horizon=4.0)
    assert (synthesize_trace(config).to_json()
            == synthesize_trace(config).to_json())


def test_synth_seeds_diverge():
    a = synthesize_trace(SynthTraceConfig(seed=1, tasks=200, horizon=4.0))
    b = synthesize_trace(SynthTraceConfig(seed=2, tasks=200, horizon=4.0))
    assert a.to_json() != b.to_json()


def test_synth_honors_config_shape():
    config = SynthTraceConfig(seed=3, tasks=500, tenants=16, horizon=5.0)
    trace = synthesize_trace(config)
    assert len(trace) == 500
    assert len(trace.tenants()) <= 16
    for task in trace:
        assert 0.0 <= task.arrival
        assert task.duration > 0
        lo = min(config.small_bandwidth[0], config.large_bandwidth[0])
        hi = max(config.small_bandwidth[1], config.large_bandwidth[1])
        assert lo <= task.bandwidth <= hi
    # Emitted version tag matches the schema the readers enforce.
    assert json.loads(trace.to_json())["schema"] == SCHEMA_VERSION


def test_synth_round_trips_through_schema():
    trace = synthesize_trace(SynthTraceConfig(seed=5, tasks=150,
                                              horizon=3.0))
    assert ClusterTrace.from_json(trace.to_json()).to_json() \
        == trace.to_json()


NAN = float("nan")


@pytest.mark.parametrize("field, value", [
    ("horizon", NAN), ("horizon", float("inf")), ("horizon", 0.0),
    ("horizon", -1.0),
    ("mean_job_size", 0.0), ("mean_job_size", -2.0),
    ("mean_job_size", NAN), ("mean_job_size", float("inf")),
    ("large_fraction", 2.0), ("large_fraction", -0.1),
    ("large_fraction", NAN),
    ("bidirectional_fraction", 1.5), ("bidirectional_fraction", NAN),
])
def test_synth_rejects_bad_values(field, value):
    knobs = dict(seed=0, tasks=20, tenants=4, horizon=1.0)
    knobs[field] = value
    config = SynthTraceConfig(**knobs)
    with pytest.raises(WorkloadError, match=field):
        synthesize_trace(config)


def test_synth_accepts_fraction_bounds():
    trace = synthesize_trace(SynthTraceConfig(
        seed=0, tasks=20, tenants=4, horizon=1.0, large_fraction=1.0,
        bidirectional_fraction=0.0, mean_job_size=0.5))
    assert len(trace) == 20
