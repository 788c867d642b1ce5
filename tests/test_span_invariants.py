"""Span invariants over traced runs of every benchmark app.

For each Table 2 app we trace a small GPU-path local job and assert the
structural invariants (everything closed, clean nesting) plus the
timing contract: per-task ``phase`` spans tile the task span, and the
task spans' durations are exactly the simulated seconds the pipeline
reported. The CPU path and the cluster simulator get the same checks.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.apps import all_apps, get_app
from repro.config import CLUSTER1
from repro.hadoop import ClusterSimulator, JobConf
from repro.hadoop.local import LocalJobRunner
from repro.minic.interpreter import use_engine
from repro.scenarios import records_for
from repro.scheduling import TailPolicy

from .span_invariants import (
    assert_phase_spans_identical,
    assert_phase_sums,
    assert_standard_invariants,
    phase_children,
)

APP_TAGS = [app.short for app in all_apps()]


def _traced_local_run(short: str, use_gpu: bool):
    # Registry "small" counts: enough for a few map tasks each.
    app = get_app(short)
    text = app.generate(records_for(short, "small"), seed=7)
    runner = LocalJobRunner(app, use_gpu=use_gpu, split_bytes=4 * 1024)
    with obs.use_recorder(obs.TraceRecorder()) as rec:
        result = runner.run(text)
    return rec, result


@pytest.mark.parametrize("short", APP_TAGS)
def test_gpu_job_span_invariants(short):
    rec, result = _traced_local_run(short, use_gpu=True)
    assert_standard_invariants(rec)
    assert_phase_sums(
        rec, "gpu-task",
        expected_seconds=result.task_seconds(),
    )
    assert obs.validate_trace(obs.export_chrome(rec)) == []


# BS/KM vectorize, WC takes the whole-kernel fallback — the invariants
# and the phase parity must hold on both sides of the eligibility fence.
@pytest.mark.parametrize("short", ["WC", "BS", "KM"])
def test_vector_engine_span_invariants_and_phase_parity(short):
    with use_engine("vector"):
        rec_v, result_v = _traced_local_run(short, use_gpu=True)
    assert_standard_invariants(rec_v)
    assert_phase_sums(
        rec_v, "gpu-task",
        expected_seconds=result_v.task_seconds(),
    )
    assert obs.validate_trace(obs.export_chrome(rec_v)) == []
    with use_engine("compiled"):
        rec_c, _result_c = _traced_local_run(short, use_gpu=True)
    assert_phase_spans_identical(rec_c, rec_v)


def test_gpu_map_task_phase_spans_equal_its_breakdown():
    """Fig. 6 reads a GPU task's returned ``TaskBreakdown``; the
    ``phase`` spans the traced task tiles must carry exactly the same
    stages, in the same order, with the same seconds."""
    for short in ("WC", "BS", "KM"):
        app = get_app(short)
        split = app.generate(records_for(short, "small"), seed=7).encode()
        with obs.use_recorder(obs.TraceRecorder()) as rec:
            task = LocalJobRunner(app, use_gpu=True).map_task(0, split)
        assert [(s.name, s.dur) for s in rec.spans("phase")] == \
            list(task.breakdown.as_dict().items()), short


def test_gpu_task_spans_break_down_by_fig6_categories():
    rec, _result = _traced_local_run("WC", use_gpu=True)
    task = rec.spans("gpu-task")[0]
    names = [c.name for c in phase_children(rec, task)]
    assert names == ["input_read", "record_count", "map", "aggregate",
                     "sort", "combine", "output_write"]


def test_cpu_job_span_invariants():
    rec, result = _traced_local_run("WC", use_gpu=False)
    assert_standard_invariants(rec)
    assert_phase_sums(
        rec, "cpu-task",
        expected_seconds=result.task_seconds(),
    )


def test_job_span_covers_map_critical_path():
    # The job span's extent is the map phase's *makespan* at this run's
    # worker count (the summed task seconds at one worker) plus the
    # reduce phase's — at every worker count.
    rec, result = _traced_local_run("WC", use_gpu=True)
    (job_span,) = rec.spans("job")
    assert job_span.dur == pytest.approx(
        result.map_critical_path_seconds
        + result.reduce_critical_path_seconds)
    assert job_span.args["map_tasks"] == result.map_tasks


def test_simulator_attempt_spans_match_job_result():
    job = JobConf(
        name="WC", num_map_tasks=60, num_reduce_tasks=4, cluster=CLUSTER1,
        cpu_task_seconds=60.0, gpu_task_seconds=10.0,
    )
    with obs.use_recorder(obs.TraceRecorder()) as rec:
        result = ClusterSimulator(job, TailPolicy()).run()
    assert_standard_invariants(rec)
    attempts = rec.spans("attempt")
    counters = rec.metrics.snapshot()["counters"]
    assert len(attempts) == counters["sim.attempts"]
    completed = [s for s in attempts if s.args.get("outcome") == "completed"]
    assert len(completed) == result.cpu_tasks + result.gpu_tasks
    (job_span,) = rec.spans("job")
    assert job_span.end == pytest.approx(result.job_seconds)
    # every attempt lies inside the job's wall-clock extent
    assert all(s.end <= job_span.end + 1e-9 for s in attempts)
    # reduce phases tile the gap between map end and job end
    reduce_spans = rec.spans("reduce-phase")
    assert sum(s.dur for s in reduce_spans) == pytest.approx(
        result.reduce_phase_seconds
    )
    assert obs.validate_trace(obs.export_chrome(rec)) == []


def test_simulator_attempt_lanes_never_overlap_per_slot():
    # High task count over few nodes exercises lane reuse heavily;
    # assert_standard_invariants would fail on any slot-lane collision.
    job = JobConf(
        name="WC", num_map_tasks=120, num_reduce_tasks=4, cluster=CLUSTER1,
        cpu_task_seconds=30.0, gpu_task_seconds=4.0,
    )
    with obs.use_recorder(obs.TraceRecorder()) as rec:
        ClusterSimulator(job, TailPolicy()).run()
    assert_standard_invariants(rec)
    # lanes are per-slot: a node's cpu lanes stay within its slot count
    cpu_lanes = {
        (s.pid, s.tid) for s in rec.spans("attempt") if "cpu" in s.tid
    }
    per_node: dict[str, int] = {}
    for pid, _tid in cpu_lanes:
        per_node[pid] = per_node.get(pid, 0) + 1
    assert max(per_node.values()) <= CLUSTER1.max_map_slots_per_node
