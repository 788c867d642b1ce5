"""Unit tests for the tracing + metrics substrate (repro.obs)."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.errors import ReproError


# -- metrics ----------------------------------------------------------------


def test_metrics_counters_and_gauges():
    m = obs.MetricsRegistry()
    m.inc("a")
    m.inc("a", 2.5)
    m.gauge("g", 4.0)
    m.gauge("g", 7.0)
    assert m.count("a") == 3.5
    assert m.count("missing") == 0.0
    assert m.gauges["g"] == 7.0
    snap = m.snapshot()
    assert snap == {"counters": {"a": 3.5}, "gauges": {"g": 7.0}}


def test_metrics_counters_reject_negative_increments():
    m = obs.MetricsRegistry()
    with pytest.raises(ReproError):
        m.inc("a", -1.0)


def test_metrics_merge():
    a = obs.MetricsRegistry()
    b = obs.MetricsRegistry()
    a.inc("x", 2)
    b.inc("x", 3)
    b.gauge("g", 1.5)
    a.merge(b)
    assert a.count("x") == 5
    assert a.gauges["g"] == 1.5


# -- recorder ---------------------------------------------------------------


def test_null_recorder_is_disabled_and_inert():
    rec = obs.NULL_RECORDER
    assert rec.enabled is False
    assert rec.begin("a", "c", "p", "t") is None
    assert rec.complete("a", "c", "p", "t", 1.0) is None
    with rec.span("a", "c", "p", "t"):
        pass


def test_active_recorder_swaps_and_restores():
    assert obs.active() is obs.NULL_RECORDER
    rec = obs.TraceRecorder()
    with obs.use_recorder(rec) as handle:
        assert handle is rec
        assert obs.active() is rec
    assert obs.active() is obs.NULL_RECORDER


def test_cursor_mode_lays_spans_sequentially():
    rec = obs.TraceRecorder()
    rec.complete("a", "phase", "p", "t", 1.5)
    rec.complete("b", "phase", "p", "t", 0.5)
    spans = rec.spans()
    assert (spans[0].ts, spans[0].end) == (0.0, 1.5)
    assert (spans[1].ts, spans[1].end) == (1.5, 2.0)
    assert rec.cursor("p", "t") == 2.0


def test_begin_end_nests_children_inside_parent():
    rec = obs.TraceRecorder()
    parent = rec.begin("parent", "job", "p", "t")
    rec.complete("child1", "phase", "p", "t", 1.0)
    rec.complete("child2", "phase", "p", "t", 2.0)
    rec.end(parent)
    assert parent.ts == 0.0
    assert parent.dur == 3.0  # covers both children
    assert not rec.open_spans()


def test_end_rejects_out_of_order_close():
    rec = obs.TraceRecorder()
    outer = rec.begin("outer", "c", "p", "t")
    rec.begin("inner", "c", "p", "t")
    with pytest.raises(ReproError, match="out of order"):
        rec.end(outer)


def test_end_rejects_double_close_and_backwards_time():
    rec = obs.TraceRecorder()
    span = rec.begin("s", "c", "p", "t", ts=5.0)
    rec.end(span, ts=6.0)
    with pytest.raises(ReproError, match="not open"):
        rec.end(span)
    other = rec.begin("o", "c", "p", "t", ts=7.0)
    with pytest.raises(ReproError, match="before it starts"):
        rec.end(other, ts=3.0)


def test_complete_rejects_negative_duration():
    rec = obs.TraceRecorder()
    with pytest.raises(ReproError, match="negative duration"):
        rec.complete("s", "c", "p", "t", -0.5)


def test_span_context_manager_closes_on_exception():
    rec = obs.TraceRecorder()
    with pytest.raises(ValueError):
        with rec.span("s", "c", "p", "t"):
            raise ValueError("boom")
    assert not rec.open_spans()
    assert rec.spans()[0].dur is not None


def test_wall_clock_is_opt_in():
    silent = obs.TraceRecorder()
    with silent.span("s", "c", "p", "t"):
        pass
    assert silent.spans()[0].wall_dur is None

    timed = obs.TraceRecorder(record_wall=True)
    with timed.span("s", "c", "p", "t"):
        pass
    assert timed.spans()[0].wall_dur >= 0.0


# -- export -----------------------------------------------------------------


def _small_recorder() -> obs.TraceRecorder:
    rec = obs.TraceRecorder()
    job = rec.begin("job", "job", "proc", "lane")
    rec.complete("work", "phase", "proc", "lane", 1.0)
    rec.end(job)
    rec.instant("tick", "sched", "proc", "lane", ts=0.5)
    rec.counter("progress", "proc", {"done": 1.0}, ts=1.0)
    rec.inc("things", 3)
    rec.gauge("level", 0.25)
    return rec


def test_export_chrome_is_schema_valid():
    trace = obs.export_chrome(_small_recorder())
    assert obs.validate_trace(trace) == []
    obs.check_trace(trace)  # must not raise


def test_export_rejects_open_spans():
    rec = obs.TraceRecorder()
    rec.begin("still-open", "c", "p", "t")
    with pytest.raises(ReproError, match="open spans"):
        obs.export_chrome(rec)


def test_export_uses_integer_ids_and_metadata_names():
    trace = obs.export_chrome(_small_recorder())
    events = trace["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    assert {m["name"] for m in meta} == {"process_name", "thread_name"}
    assert all(isinstance(e["pid"], int) for e in events)
    spans = [e for e in events if e["ph"] == "X"]
    # microseconds: the 1.0 s phase is 1e6 us
    assert any(e["dur"] == 1_000_000 for e in spans)


def test_export_embeds_metrics_snapshot():
    trace = obs.export_chrome(_small_recorder())
    assert trace["otherData"]["metrics"] == {
        "counters": {"things": 3.0}, "gauges": {"level": 0.25}
    }


def test_dumps_is_canonical_bytes():
    trace = obs.export_chrome(_small_recorder())
    text = obs.dumps(trace)
    assert text.endswith("\n")
    assert text == obs.dumps(json.loads(text))  # round-trip stable
    assert ": " not in text.split('"generator"')[0]  # compact separators


def test_wall_durations_never_enter_canonical_export():
    rec = obs.TraceRecorder(record_wall=True)
    with rec.span("s", "c", "p", "t"):
        pass
    plain = obs.export_chrome(rec)
    assert all("wall_ms" not in e.get("args", {})
               for e in plain["traceEvents"])
    with_wall = obs.export_chrome(rec, include_wall=True)
    spans = [e for e in with_wall["traceEvents"] if e["ph"] == "X"]
    assert all("wall_ms" in e["args"] for e in spans)


# -- validator --------------------------------------------------------------


def test_validate_trace_flags_malformed_events():
    assert obs.validate_trace([]) != []
    assert obs.validate_trace({"traceEvents": "nope"}) != []
    bad_ph = {"traceEvents": [
        {"name": "x", "ph": "Z", "pid": 1, "tid": 1, "ts": 0}
    ]}
    assert any("bad ph" in p for p in obs.validate_trace(bad_ph))
    unnamed_pid = {"traceEvents": [
        {"name": "x", "cat": "c", "ph": "X", "pid": 9, "tid": 1,
         "ts": 0, "dur": 1}
    ]}
    problems = obs.validate_trace(unnamed_pid)
    assert any("no process_name" in p for p in problems)
    with pytest.raises(obs.TraceSchemaError):
        obs.check_trace(bad_ph)


def test_validate_trace_checks_counter_args():
    trace = {"traceEvents": [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "p"}},
        {"name": "c", "ph": "C", "pid": 1, "tid": 0, "ts": 0.0,
         "args": {"v": "not-a-number"}},
    ]}
    assert any("numbers" in p for p in obs.validate_trace(trace))
