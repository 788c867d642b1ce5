"""Golden trace-replay tests.

The canonical trace — Wordcount on Cluster1 under tail scheduling at
``--task-scale 0.02`` — is committed at
``tests/golden/wc_cluster1_tail.trace.json``. Re-running the exact CLI
invocation must reproduce it **byte for byte**: every simulated
timestamp, every scheduling decision, every counter, and the canonical
JSON layout. Any diff means either nondeterminism crept into the
simulator/tracer or a deliberate behaviour change (regenerate with
``python -m repro trace WC --mode simulate --policy tail \\
--task-scale 0.02 -o tests/golden/wc_cluster1_tail.trace.json``).

The schema sweep then validates traces from every Table 2 app on both
execution paths against the Chrome trace-event rules.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import cli, obs
from repro.apps import all_apps, get_app
from repro.hadoop.local import LocalJobRunner
from repro.minic.interpreter import use_engine
from repro.scenarios import records_for

GOLDEN = Path(__file__).resolve().parent / "golden" / "wc_cluster1_tail.trace.json"
GOLDEN_ARGS = ["trace", "WC", "--mode", "simulate", "--policy", "tail",
               "--task-scale", "0.02", "--cluster", "1"]

APP_TAGS = [app.short for app in all_apps()]


def _cli_trace_bytes(tmp_path: Path, name: str, extra_args: list[str]) -> bytes:
    out = tmp_path / name
    rc = cli.main([*extra_args, "-o", str(out)])
    assert rc == 0
    return out.read_bytes()


def test_golden_trace_reproduces_byte_for_byte(tmp_path):
    got = _cli_trace_bytes(tmp_path, "replay.json", GOLDEN_ARGS)
    want = GOLDEN.read_bytes()
    if got != want:  # a real diff: fail with a useful summary
        got_trace = json.loads(got)
        want_trace = json.loads(want)
        assert len(got_trace["traceEvents"]) == len(want_trace["traceEvents"]), (
            "event count diverged"
        )
        for i, (g, w) in enumerate(
            zip(got_trace["traceEvents"], want_trace["traceEvents"])
        ):
            assert g == w, f"first divergent event at traceEvents[{i}]"
        pytest.fail("traces differ outside traceEvents (metrics/otherData?)")


def test_golden_trace_replays_identically_twice(tmp_path):
    first = _cli_trace_bytes(tmp_path, "one.json", GOLDEN_ARGS)
    second = _cli_trace_bytes(tmp_path, "two.json", GOLDEN_ARGS)
    assert first == second


def test_golden_trace_byte_identical_under_explicit_compiled_engine(tmp_path):
    """Pinning the fallback: with the compiled lane engine forced on
    every region the canonical trace reproduces byte for byte — the
    shipped vector engine and its per-lane fallback emit one trace."""
    with use_engine("compiled"):
        got = _cli_trace_bytes(tmp_path, "compiled.json", GOLDEN_ARGS)
    assert got == GOLDEN.read_bytes()


def test_local_wc_trace_under_vector_differs_only_in_vector_metrics():
    """A local GPU job traced under the vector engine emits exactly the
    compiled engine's trace events; the only deltas live in the
    ``gpu.vector.*`` metric counters."""
    app = get_app("WC")
    text = app.generate(records_for("WC", "small"), seed=7)

    def traced(engine):
        with use_engine(engine), \
                obs.use_recorder(obs.TraceRecorder()) as rec:
            LocalJobRunner(app, use_gpu=True, split_bytes=4 * 1024).run(text)
        return obs.export_chrome(rec)

    compiled = traced("compiled")
    vector = traced("vector")
    assert vector["traceEvents"] == compiled["traceEvents"]
    vector_counters = dict(vector["otherData"]["metrics"]["counters"])
    extras = {k: vector_counters.pop(k)
              for k in list(vector_counters) if k.startswith("gpu.vector.")}
    assert extras, "vector run recorded no gpu.vector.* counters"
    assert vector_counters == compiled["otherData"]["metrics"]["counters"]


# Local (functional-runner) traces are byte-deterministic too; pinned
# serial because pooled track names carry worker pids. Generated with
# ``python -m repro trace WC --records 120 --workers 1 [--cpu-only]``
# before the map-task result became one shape for both devices, so they
# hold that refactor (and the next) to the spans, args, counters and
# timestamps both paths emitted then.
LOCAL_GOLDENS = {
    "wc_local_gpu.trace.json": (
        [], "gpu-task", ["input_read", "record_count", "map", "aggregate",
                         "sort", "combine", "output_write"]),
    "wc_local_cpu.trace.json": (
        ["--cpu-only"], "cpu-task", ["input_read", "map", "sort", "combine",
                                     "output_write"]),
}


@pytest.mark.parametrize("name", sorted(LOCAL_GOLDENS))
def test_local_golden_trace_reproduces_byte_for_byte(tmp_path, name):
    extra, task_cat, phases = LOCAL_GOLDENS[name]
    golden = GOLDEN.with_name(name)
    got = _cli_trace_bytes(
        tmp_path, name,
        ["trace", "WC", "--records", "120", "--workers", "1", *extra])
    assert got == golden.read_bytes()

    # What the bytes pin, spelled out: each map-task span is followed
    # by its Fig. 6 phase children, in pipeline order.
    events = [e for e in json.loads(got)["traceEvents"] if e["ph"] == "X"]
    tasks = [i for i, e in enumerate(events) if e["cat"] == task_cat]
    assert tasks
    for i in tasks:
        children = events[i + 1:i + 1 + len(phases)]
        assert [c["name"] for c in children] == phases
        assert {c["cat"] for c in children} == {"phase"}
        assert events[i + 1 + len(phases)]["cat"] != "phase"


def test_golden_trace_is_schema_valid():
    trace = json.loads(GOLDEN.read_text())
    assert obs.validate_trace(trace) == []
    meta = trace["otherData"]
    assert meta["clock"] == "simulated-seconds"
    counters = meta["metrics"]["counters"]
    assert counters["sim.attempts"] >= counters["sim.tasks.gpu"]


@pytest.mark.parametrize("short", APP_TAGS)
def test_every_app_emits_a_schema_valid_trace(short):
    app = get_app(short)
    text = app.generate(records_for(short, "small"), seed=7)
    with obs.use_recorder(obs.TraceRecorder()) as rec:
        LocalJobRunner(app, use_gpu=True, split_bytes=4 * 1024).run(text)
    trace = obs.export_chrome(rec)
    assert obs.validate_trace(trace) == []
    # canonical serialization round-trips
    assert obs.dumps(trace) == obs.dumps(json.loads(obs.dumps(trace)))


def test_trace_cli_stdout_matches_file_output(tmp_path, capsys):
    # Pinned serial: two pooled runs assign map batches to workers
    # by greedy dispatch, so their traces are not byte-stable run to
    # run — and this test is about the stdout/file plumbing, which a
    # serial trace pins exactly even under ambient REPRO_WORKERS.
    args = ["trace", "WC", "--records", "120", "--workers", "1"]
    rc = cli.main(args)
    assert rc == 0
    stdout = capsys.readouterr().out
    via_file = _cli_trace_bytes(tmp_path, "f.json", args)
    assert stdout.encode() == via_file
