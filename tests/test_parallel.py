"""Parallel map-task execution: pool mechanics and serial equivalence.

The contract under test is the one ``repro.parallel`` documents: a job
run with ``workers=N`` is *observably identical* to the serial run —
same output dict, same per-task simulated seconds (in task order), same
counters, same job span — with only wall clock and the reported
``workers`` differing. The differential sweep below checks that for
every Table 2 app on both execution paths at 2 and 4 workers.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro import obs
from repro.apps import all_apps, get_app
from repro.config import CLUSTER1
from repro.costmodel.io import IoModel
from repro.errors import ConfigError, HadoopError
from repro.fuzz import runner as fuzz_runner
from repro.fuzz.gen import generate_case
from repro.fuzz.oracle import Divergence
from repro.fuzz.runner import run_campaign
from repro.gpu.device import GpuDevice
from repro.hadoop.local import LocalJobRunner
from repro.hadoop.shuffle import flatten_run
from repro.minic.interpreter import current_engine, use_engine
from repro.obs.export import WORKER_PID_MARKER
from repro.parallel import get_pool, in_worker, resolve_workers
from repro.runtime.gpu_task import GpuTaskRunner
from repro.scenarios import records_for

from .span_invariants import assert_standard_invariants

APP_TAGS = [app.short for app in all_apps()]
WORKERS_ENV = "REPRO_WORKERS"


# -- worker-count resolution ------------------------------------------------


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 1

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers(3) == 3

    def test_env_applies_when_unspecified(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert resolve_workers() == 4

    def test_zero_means_cpu_count(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(0) == (os.cpu_count() or 1)
        monkeypatch.setenv(WORKERS_ENV, "0")
        assert resolve_workers() == (os.cpu_count() or 1)

    def test_task_count_caps_fanout(self):
        assert resolve_workers(8, tasks=3) == 3
        assert resolve_workers(8, tasks=1) == 1
        assert resolve_workers(2, tasks=0) == 1  # degenerate: no tasks

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            resolve_workers(-1)

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "lots")
        with pytest.raises(ConfigError):
            resolve_workers()
        monkeypatch.setenv(WORKERS_ENV, "-2")
        with pytest.raises(ConfigError):
            resolve_workers()


# -- pools ------------------------------------------------------------------


def _probe(_x):
    """What a pool task observes about its own process."""
    return (os.getpid(), in_worker(), resolve_workers(8),
            os.environ.get(WORKERS_ENV))


class TestPools:
    def test_workers_are_leaves(self):
        probes = list(get_pool().imap_job(2, _probe, list(range(8)),
                                         batch_size=1))
        pids = {pid for pid, _w, _f, _e in probes}
        assert os.getpid() not in pids
        assert not in_worker()
        for _pid, worker, fanout, env in probes:
            assert worker  # in_worker() is True inside the pool
            assert fanout == 1  # resolve_workers(8) refuses to nest
            assert env == "1"  # env-reading code sees serial too


# -- serial/parallel job equivalence ----------------------------------------


def _run_job(app, use_gpu: bool, workers: int):
    # Registry "small" sizes (generation is the cheap part; these keep
    # each job small while still yielding several splits).
    text = app.generate(records_for(app.short, "small"), seed=7)
    # ~6 splits regardless of the app's record size, so every app
    # genuinely fans out
    split_bytes = max(256, len(text.encode()) // 6)
    runner = LocalJobRunner(app, use_gpu=use_gpu, split_bytes=split_bytes,
                            workers=workers)
    return runner.run(text)


@pytest.mark.parametrize("short", APP_TAGS)
@pytest.mark.parametrize("use_gpu", [False, True], ids=["cpu", "gpu"])
def test_parallel_job_identical_to_serial(short, use_gpu):
    app = get_app(short)
    serial = _run_job(app, use_gpu, workers=1)
    assert serial.map_tasks >= 2, "need fan-out to exercise the pool"
    assert serial.workers == 1
    for workers in (2, 4):
        par = _run_job(app, use_gpu, workers=workers)
        assert par.workers == min(workers, serial.map_tasks)
        # byte-identical output: same pairs in the same insertion order
        assert list(par.output.items()) == list(serial.output.items())
        assert par.map_tasks == serial.map_tasks
        assert par.map_output_pairs == serial.map_output_pairs
        assert par.shuffle_bytes == serial.shuffle_bytes
        # simulated per-task seconds are equal as exact floats, in order
        assert par.task_seconds() == serial.task_seconds()
        assert par.total_map_seconds == serial.total_map_seconds
        # ... and so are the reduce tasks' simulated seconds
        assert par.reduce_task_timings == serial.reduce_task_timings
        assert par.total_reduce_seconds == serial.total_reduce_seconds
        # ... and so are the simulated phases, which the worker count
        # never shapes: one slot each, the summed work, bit for bit.
        assert par.map_critical_path_seconds == \
            serial.map_critical_path_seconds == serial.total_map_seconds
        assert par.reduce_critical_path_seconds == \
            serial.reduce_critical_path_seconds == serial.total_reduce_seconds


@pytest.mark.parametrize("use_gpu", [False, True], ids=["cpu", "gpu"])
def test_parallel_counters_match_serial(use_gpu):
    app = get_app("WC")
    results, snapshots = [], []
    for workers in (1, 2):
        with obs.use_recorder(obs.TraceRecorder()) as rec:
            results.append(_run_job(app, use_gpu, workers=workers))
        snapshots.append(rec.metrics.snapshot())
    serial, par = snapshots
    # The two runs are the same task bodies, so every counter the tasks
    # and the fold record matches exactly — reduce.* included. Only the
    # pool's own (deterministic) dispatch counters are extra, and the
    # inline run never touches the pool.
    core = {k: v for k, v in par["counters"].items()
            if not k.startswith("pool.")}
    assert core == serial["counters"]
    assert not any(k.startswith("pool.") for k in serial["counters"])
    # One pool job, for the map phase: reduce tasks run in the driver.
    assert par["counters"]["pool.jobs"] == 1.0
    assert par["counters"]["pool.tasks"] >= par["counters"]["pool.batches"]
    # The reduce.* tallies are deterministic job facts, not scheduling
    # artifacts: one task per partition, run counts from the merge.
    par_result = results[1]
    assert par["counters"]["reduce.tasks"] == len(
        par_result.reduce_task_timings
    )
    assert par["counters"]["reduce.merge_runs"] == sum(
        t.merge_runs for t in par_result.reduce_task_timings
    )
    assert par["counters"]["reduce.pairs"] == sum(
        t.input_pairs for t in par_result.reduce_task_timings
    )
    assert set(par["gauges"]) == set(serial["gauges"])


def test_pinned_gpu_engine_reaches_pool_workers():
    """The engine switch is process-wide state, so the pool ships the
    driver's engine with every job's setup and each worker applies it
    for that job: a ``use_engine("tree")`` job runs the tree engine in
    the workers too, and the next, unpinned job on the same warm workers
    is back on vector."""
    app = get_app("KM")  # vectorizes, so the engines are tellable apart
    runs = {}
    with use_engine("tree"):
        for workers in (1, 2):
            with obs.use_recorder(obs.TraceRecorder()) as rec:
                result = _run_job(app, True, workers=workers)
            runs[workers] = (result, rec.metrics.snapshot()["counters"])
    (inline, inline_counters), (pooled, pooled_counters) = runs[1], runs[2]
    assert pooled.workers == 2
    assert list(pooled.output.items()) == list(inline.output.items())
    assert pooled.task_seconds() == inline.task_seconds()
    assert {k: v for k, v in pooled_counters.items()
            if not k.startswith("pool.")} == inline_counters
    # A worker left on the default engine would have counted regions.
    assert not any(k.startswith("gpu.vector.") for k in pooled_counters)
    with obs.use_recorder(obs.TraceRecorder()) as rec:
        unpinned = _run_job(app, True, workers=2)
    assert rec.metrics.count("gpu.vector.regions") > 0
    assert unpinned.task_seconds() == inline.task_seconds()


def _worker_engine(_payload):
    return os.getpid(), current_engine()


def _engine_probe(payload):
    """A campaign work item that reports its worker's engine as the
    case's divergence check instead of running the oracle."""
    seed, index, kinds = payload
    case = generate_case(seed, index, kinds=kinds)
    return case, Divergence(case, f"engine:{current_engine()}", "")


def test_pool_jobs_after_a_pinned_job_run_the_drivers_engine(
        monkeypatch, tmp_path):
    """A worker never keeps the engine an earlier job left behind: after
    a ``use_engine("tree")`` pooled job, an init-less pool job and a
    pooled fuzz campaign (which submits init-less jobs) both see the
    driver's engine in every worker."""
    with use_engine("tree"):
        _run_job(get_app("WC"), False, workers=2)
    driver = current_engine()
    seen = list(get_pool().imap_job(2, _worker_engine, list(range(4))))
    assert len({pid for pid, _engine in seen}) == 2
    assert {engine for _pid, engine in seen} == {driver}
    monkeypatch.setattr(fuzz_runner, "_oracle_task", _engine_probe)
    result = run_campaign(seed=0, count=4, workers=2, shrink=False,
                          corpus_dir=tmp_path)
    assert result.executed == 4
    assert {d.check for _case, d, _min in result.divergences} == \
        {f"engine:{driver}"}


def _generated_code_probe(_payload):
    """Which of the last job's programs carry generated code here."""
    from repro.parallel.maptask import worker_state

    app = worker_state["runner"].app
    programs = (app.map_program(), app.combine_program(),
                app.reduce_program())
    return os.getpid(), ["_repro_compiled" in p.__dict__ for p in programs]


@pytest.mark.parametrize("engine, generated", [("tree", False),
                                               ("compiled", True)])
def test_pool_workers_build_generated_code_only_for_engines_that_run_it(
        engine, generated):
    """A worker builds generated code only for what it runs: ``"tree"``
    runs none, and no worker runs the reduce program (reduce tasks run
    in the driver)."""
    from repro.parallel import shutdown_pool

    wc = get_app("WC")
    # Sources no earlier test parsed, so no program (and no forked
    # copy of one) can carry units from before this job. WC's combiner
    # and reducer share one text, so the reducer gets its own marker.
    marker = f"\n// pool codegen probe under {engine}\n"
    app = dataclasses.replace(
        wc, map_source=wc.map_source + marker,
        combine_source=wc.combine_source + marker,
        reduce_source=wc.reduce_source + marker + "// reducer\n")
    shutdown_pool()
    try:
        with use_engine(engine):
            _run_job(app, False, workers=2)
        seen = list(get_pool().imap_job(2, _generated_code_probe,
                                        list(range(4))))
    finally:
        shutdown_pool()
    assert len({pid for pid, _flags in seen}) == 2
    assert {tuple(flags) for _pid, flags in seen} == \
        {(generated, generated, False)}


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_start_method_results_identical(start_method, monkeypatch):
    """The spawn fallback must produce byte-identical job results.

    ``fork`` workers inherit warm caches; ``spawn`` workers rebuild
    everything from the job's setup — if the two ever disagree, the
    setup is missing ambient state (the engine, say) that fork was
    smuggling through.
    """
    from repro.parallel import shutdown_pool

    app = get_app("WC")
    baseline = _run_job(app, use_gpu=False, workers=1)
    monkeypatch.setenv("REPRO_POOL_START", start_method)
    shutdown_pool()
    try:
        par = _run_job(app, use_gpu=False, workers=2)
    finally:
        shutdown_pool()
    assert par.output == baseline.output
    assert par.map_output_pairs == baseline.map_output_pairs
    assert par.shuffle_bytes == baseline.shuffle_bytes
    assert par.task_seconds() == baseline.task_seconds()


def test_pickled_runner_leaves_its_gpu_device_behind():
    """The pool ships the driver's runner to its workers: the copy
    carries the job's configuration but no GPU task runner or device,
    and its first map task rebuilds the same task the original runs."""
    import pickle

    app = get_app("WC")
    text = app.generate(records_for("WC", "small"), seed=7)
    runner = LocalJobRunner(app, use_gpu=True, split_bytes=4 * 1024,
                            workers=1)
    runner.run(text)
    assert isinstance(runner._gpu_runner, GpuTaskRunner)
    blob = pickle.dumps(runner)
    assert b"GpuTaskRunner" not in blob and b"GpuDevice" not in blob
    copy = pickle.loads(blob)
    assert copy._gpu_runner is None
    split = runner.make_splits(text)[0]
    original, shipped = runner.map_task(0, split), copy.map_task(0, split)
    assert shipped.seconds == original.seconds
    assert shipped.parts == original.parts
    assert shipped.map_pairs == original.map_pairs


def test_pickled_runner_leaves_its_cached_key_length_behind():
    import pickle

    app = get_app("WC")
    runner = LocalJobRunner(app, use_gpu=False, workers=1)
    runner.run(app.generate(40, seed=7))
    assert "_cpu_key_length" in vars(runner)
    assert "_cpu_key_length" not in vars(pickle.loads(pickle.dumps(runner)))


def test_ii_map_task_envelope_is_smaller_than_its_output():
    """A pooled map task ships its runs as they are. II has no combiner
    and few repeated lines, so its runs pickle smaller than the text
    they stand for only if pairs share their value's record; the pooled
    job still equals the inline one."""
    import pickle

    app = get_app("II")
    text = app.generate(10_000, seed=7)
    runner = LocalJobRunner(app, use_gpu=False, workers=1)
    task = runner.map_task(0, runner.make_splits(text)[0])
    assert len(pickle.dumps(task.parts)) < task.output_bytes
    serial = runner.run(text)
    pooled = LocalJobRunner(app, use_gpu=False, workers=2).run(text)
    assert pooled.workers == 2
    assert list(pooled.output.items()) == list(serial.output.items())
    assert pooled.shuffle_bytes == serial.shuffle_bytes


def test_env_workers_reaches_the_job_runner(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "2")
    app = get_app("WC")
    text = app.generate(150, seed=7)
    result = LocalJobRunner(app, split_bytes=2 * 1024).run(text)
    assert result.workers == 2


def test_single_split_job_stays_serial():
    from repro.parallel import pool_metrics, shutdown_pool

    app = get_app("WC")
    text = app.generate(40, seed=7)
    shutdown_pool()  # a cold pool: a fork would count as a spawn
    spawned = pool_metrics().count("pool.spawned")
    result = LocalJobRunner(app, workers=4).run(text)  # default 64 KiB split
    assert result.map_tasks == 1
    assert result.workers == 1
    # Its reduce phase runs in the driver too: no pool worker is forked.
    assert pool_metrics().count("pool.spawned") == spawned


# -- construction-time validation -------------------------------------------


class TestRunnerConfigValidation:
    def test_split_bytes_must_be_positive(self):
        app = get_app("WC")
        with pytest.raises(ConfigError, match="split_bytes"):
            LocalJobRunner(app, split_bytes=0)
        with pytest.raises(ConfigError, match="split_bytes"):
            LocalJobRunner(app, split_bytes=-4096)

    def test_negative_reducers_rejected(self):
        app = get_app("WC")
        with pytest.raises(ConfigError, match="num_reducers"):
            LocalJobRunner(app, num_reducers=-1)

    # Runners take no engine: the one place a name enters is the
    # use_engine/set_engine switch, which rejects an unknown one before
    # a runner can be constructed under it — at any worker count, never
    # at first launch inside a pool worker.

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "workers2"])
    def test_unknown_gpu_engine_rejected_at_construction(self, workers):
        with pytest.raises(ConfigError, match="unknown engine") as exc:
            with use_engine("warp9"):
                LocalJobRunner(get_app("WC"), workers=workers)
        for name in ("vector", "compiled", "tree"):
            assert name in str(exc.value)
        assert current_engine() == "vector"

    def test_unknown_task_runner_engine_rejected_at_construction(
            self, cluster1_io):
        app = get_app("WC")
        with pytest.raises(ConfigError, match="unknown engine"):
            with use_engine("warp9"):
                GpuTaskRunner(app.translate_map(), app.translate_combine(),
                              GpuDevice(CLUSTER1.gpu), cluster1_io,
                              num_reducers=4)

    @pytest.mark.parametrize("use_gpu", [False, True], ids=["cpu", "gpu"])
    def test_negative_workers_rejected_at_construction(self, use_gpu):
        with pytest.raises(ConfigError, match="workers must be >= 0"):
            LocalJobRunner(get_app("WC"), use_gpu=use_gpu, workers=-2)

    def test_zero_reducers_means_map_only(self):
        # 0 is a legal Hadoop setting (map-only job), not an error
        runner = LocalJobRunner(get_app("WC"), num_reducers=0)
        assert runner.num_reducers == 0


# -- duplicate-key diagnosis -------------------------------------------------


def _constant_key_reduce(key, values):
    # module-level so the app still pickles into pooled map workers
    # (with the runner)
    return [("dup", sum(values))]


def _dup_key_app():
    """WC with its reducer swapped for one that emits a constant key
    from every partition — the second partition to fold must trip the
    driver's duplicate-key check."""
    from dataclasses import replace

    return replace(get_app("WC"), name="DupRed", reduce_source=None,
                   reduce_py=_constant_key_reduce)


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pooled"])
def test_duplicate_key_error_names_app_and_partition(workers):
    app = _dup_key_app()
    text = app.generate(120, seed=7)
    runner = LocalJobRunner(app, split_bytes=1024, workers=workers)
    with pytest.raises(
        HadoopError,
        match=r"DupRed reducer emitted duplicate key 'dup' in partition \d+",
    ):
        runner.run(text)


# -- map-only jobs ------------------------------------------------------------


def _no_reducer(*_args):
    raise AssertionError("a map-only job ran a reducer")


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pooled"])
@pytest.mark.parametrize("use_gpu", [False, True], ids=["cpu", "gpu"])
def test_map_only_job_output_is_the_map_output(use_gpu, workers,
                                               monkeypatch):
    """Zero reducers (Hadoop's map-only job): the map output is the job
    output and no reducer runs. II's reducer counts each word's distinct
    documents; its map emits ``word -> document``, and that is what a
    map-only II job returns."""
    from repro.apps.base import Application

    monkeypatch.setattr(Application, "cpu_reduce", _no_reducer)
    monkeypatch.setattr(Application, "reduce", _no_reducer)
    text = "7 alpha beta\n9 gamma\n3 delta\n"
    result = LocalJobRunner(get_app("II"), use_gpu=use_gpu, num_reducers=0,
                            split_bytes=8, workers=workers).run(text)
    assert result.map_tasks == 2
    assert result.output == {"alpha": 7, "beta": 7, "delta": 3, "gamma": 9}
    assert result.reduce_task_timings == []
    assert result.total_reduce_seconds == 0.0


@pytest.mark.parametrize("use_gpu", [False, True], ids=["cpu", "gpu"])
def test_map_only_task_runs_no_combiner_and_writes_to_hdfs(use_gpu,
                                                          monkeypatch):
    """The runner's reducer count, not the app's Table 2 flag, makes a
    job map-only, on both devices: WC at zero reducers runs no combiner
    (its task output is the raw map pairs) and charges its output write
    to HDFS, as Hadoop's zero-reduce job does (paper §2.2, Fig. 1)."""
    hdfs_writes = []
    hdfs_write_s = IoModel.hdfs_write_s

    def recording_hdfs_write_s(self, nbytes, replication):
        hdfs_writes.append(nbytes)
        return hdfs_write_s(self, nbytes, replication)

    monkeypatch.setattr(IoModel, "hdfs_write_s", recording_hdfs_write_s)
    runner = LocalJobRunner(get_app("WC"), use_gpu=use_gpu, num_reducers=0)
    task = runner.map_task(0, b"a b a\nb a c\n")
    assert list(task.parts) == [0]
    assert [(k, v) for k, v, _line in flatten_run(task.parts[0])] == \
        [("a", 1)] * 3 + [("b", 1)] * 2 + [("c", 1)]
    assert task.breakdown.combine == 0
    assert len(hdfs_writes) == 1 and hdfs_writes[0] > 0


@pytest.mark.parametrize("use_gpu", [False, True], ids=["cpu", "gpu"])
def test_map_only_job_rejects_a_key_emitted_twice(use_gpu):
    runner = LocalJobRunner(get_app("II"), use_gpu=use_gpu, num_reducers=0)
    with pytest.raises(HadoopError, match=(
            r"^inverted_index map-only job: map tasks emitted duplicate "
            r"key 'alpha'$")):
        runner.run("7 alpha beta\n9 alpha\n")


# -- malformed map output -----------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pooled"])
def test_malformed_map_output_names_app_task_and_line(workers):
    """A mapper that forgets the tab on one word: the error names the
    app, the map task and the 1-based line of that task's output — the
    same message inline and from a pool worker."""
    from dataclasses import replace

    wc = get_app("WC")
    emit = r'printf("%s\t%d\n", word, one);'
    assert emit in wc.map_source
    app = replace(wc, name="NoTab", map_source=wc.map_source.replace(
        emit, r'if (word[0] == 122) printf("%s%d\n", word, one); else ' + emit))
    line = "alpha beta gamma delta\n"
    text = line * 3 + "alpha beta zulu delta\n" + line * 2
    # 2 lines per split: the bad word is the 7th output line of task 1.
    runner = LocalJobRunner(app, use_gpu=False, split_bytes=len(line) + 1,
                            workers=workers)
    with pytest.raises(HadoopError) as err:
        runner.run(text)
    assert str(err.value) == \
        "NoTab map task 1: malformed KV line 'zulu1' at output line 7"


# -- trace splicing ---------------------------------------------------------


def test_parallel_trace_merges_worker_tracks():
    app = get_app("WC")
    text = app.generate(400, seed=7)
    with obs.use_recorder(obs.TraceRecorder()) as rec:
        result = LocalJobRunner(app, use_gpu=True, split_bytes=1024,
                                workers=3).run(text)
    assert result.workers == 3
    assert result.map_tasks >= 8
    assert_standard_invariants(rec)

    worker_tracks = {s.pid for s in rec.spans() if WORKER_PID_MARKER in s.pid}
    # distinct per-worker tracks for the map phase
    os_pids = {t.rsplit(WORKER_PID_MARKER, 1)[1] for t in worker_tracks}
    assert 2 <= len(os_pids) <= 3
    task_spans = rec.spans("gpu-task")
    assert len(task_spans) == result.map_tasks
    assert {s.pid for s in task_spans} <= worker_tracks

    trace = obs.export_chrome(rec)
    assert obs.validate_trace(trace) == []
    sort_meta = [e for e in trace["traceEvents"]
                 if e.get("name") == "process_sort_index"]
    assert len(sort_meta) == len(worker_tracks)


def test_parallel_trace_has_reduce_task_spans():
    app = get_app("WC")
    text = app.generate(400, seed=7)
    with obs.use_recorder(obs.TraceRecorder()) as rec:
        result = LocalJobRunner(app, use_gpu=False, split_bytes=1024,
                                workers=3).run(text)
    assert result.workers == 3
    assert_standard_invariants(rec)

    task_spans = rec.spans("reduce-task")
    assert len(task_spans) == len(result.reduce_task_timings)
    # every reduce task ran in the driver, on its reduce track
    assert {s.pid for s in task_spans} == {"reduce"}
    # span args carry the task's deterministic facts
    by_part = {t.partition: t for t in result.reduce_task_timings}
    for span in task_spans:
        timing = by_part[int(span.name.split("#")[1].split()[0])]
        assert span.args["merge_runs"] == timing.merge_runs
        assert span.args["input_pairs"] == timing.input_pairs
    assert rec.metrics.count("reduce.tasks") == len(task_spans)
    trace = obs.export_chrome(rec)
    assert obs.validate_trace(trace) == []


def _spans(rec, *cats):
    """A traced job's spans of the given categories as a sorted
    multiset, track names stripped of their ``@w<pid>`` suffix
    (timestamps are per-track cursors and legitimately differ)."""
    return sorted(
        (s.cat, s.pid.split(WORKER_PID_MARKER)[0], s.tid, s.name,
         sorted(s.args.items()), s.dur)
        for s in rec.spans() if s.cat in cats
    )


def _trace_shape(app, use_gpu: bool, workers: int):
    """What a traced job's trace must keep at every worker count."""
    with obs.use_recorder(obs.TraceRecorder()) as rec:
        result = _run_job(app, use_gpu, workers=workers)
    assert_standard_invariants(rec)
    (job_span,) = rec.spans("job")
    assert job_span.dur == (result.map_critical_path_seconds
                            + result.reduce_critical_path_seconds)
    assert job_span.args["workers"] == result.workers
    assert len(rec.spans("reduce-task")) == \
        len(result.reduce_task_timings) == job_span.args["reduce_tasks"]
    job = (job_span.name, job_span.ts, job_span.dur,
           sorted((k, v) for k, v in job_span.args.items() if k != "workers"))
    counters = {k: v for k, v in rec.metrics.snapshot()["counters"].items()
                if not k.startswith("pool.")}
    reduce_spans = [(s.pid, s.tid, s.name, s.ts, s.dur,
                     sorted(s.args.items()))
                    for s in rec.spans("reduce-task")]
    return (job, _spans(rec, "phase"), counters, reduce_spans,
            _spans(rec, "cpu-task", "gpu-task"))


@pytest.mark.parametrize("short", APP_TAGS)
@pytest.mark.parametrize("use_gpu", [False, True], ids=["cpu", "gpu"])
def test_trace_shape_is_worker_count_invariant(short, use_gpu, monkeypatch):
    """One trace shape: inline and pooled runs of a job record the same
    job span (start, duration and every arg but ``workers``), the same
    task / phase / reduce-task spans (names carry job-wide indices) and
    the same counters. The job span is the map phase, then the reduce
    phase, each on one modelled slot, so the host's worker count never
    reaches it. Reduce tasks run in the driver at every worker count,
    so their spans are exactly equal: track, start, duration and args.
    WC also runs on 4 workers and on a spawned pool."""
    from repro.parallel import shutdown_pool

    app = get_app(short)
    shapes = [_trace_shape(app, use_gpu, workers) for workers in (1, 2)]
    if short == "WC":
        shapes.append(_trace_shape(app, use_gpu, 4))
        monkeypatch.setenv("REPRO_POOL_START", "spawn")
        shutdown_pool()
        try:
            shapes.append(_trace_shape(app, use_gpu, 2))
        finally:
            shutdown_pool()
    (job1, phases1, counters1, reduce1, tasks1), *pooled = shapes
    for job, phases, counters, reduce_spans, tasks in pooled:
        assert job == job1
        # Phase durations are the charged seconds themselves: exact.
        assert phases == phases1
        assert counters == counters1
        assert reduce_spans == reduce1
        # A task span's duration is its track cursor's advance, so it
        # carries the rounding of wherever the track stood.
        assert [t[:-1] for t in tasks] == [t[:-1] for t in tasks1]
        assert [t[-1] for t in tasks] == pytest.approx(
            [t[-1] for t in tasks1], rel=1e-9)


@pytest.mark.parametrize("short", APP_TAGS)
def test_cpu_and_gpu_paths_run_the_same_reduce_tasks(short):
    """Hadoop starts every configured reducer: a partition that got no
    data still costs a reduce task, on either path, even on empty
    input (map-only jobs charge none)."""
    app = get_app(short)
    for text in ("", app.generate(40, seed=7)):
        cpu = LocalJobRunner(app, use_gpu=False).run(text)
        gpu = LocalJobRunner(app, use_gpu=True).run(text)
        runner = LocalJobRunner(app)
        assert [t.partition for t in cpu.reduce_task_timings] \
            == [t.partition for t in gpu.reduce_task_timings] \
            == list(range(runner.num_reducers))


def test_serial_trace_has_no_worker_tracks():
    app = get_app("WC")
    text = app.generate(200, seed=7)
    with obs.use_recorder(obs.TraceRecorder()) as rec:
        LocalJobRunner(app, use_gpu=True, split_bytes=2 * 1024,
                       workers=1).run(text)
    assert all(WORKER_PID_MARKER not in s.pid for s in rec.spans())
    trace = obs.export_chrome(rec)
    assert not any(e.get("name") == "process_sort_index"
                   for e in trace["traceEvents"])


# -- fuzz campaign driver ---------------------------------------------------


def test_fuzz_digest_is_worker_count_invariant(tmp_path):
    serial = run_campaign(seed=3, count=6, shrink=False,
                          corpus_dir=tmp_path / "serial", workers=1)
    par = run_campaign(seed=3, count=6, shrink=False,
                       corpus_dir=tmp_path / "par", workers=2)
    assert serial.executed == par.executed == 6
    assert par.digest == serial.digest
    assert par.kind_counts == serial.kind_counts
