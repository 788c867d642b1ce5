"""Metric declarations, the layer-wrap table, and the span tracer.

Everything the benchmark reports is declared here as a frozen row (the
idiom ``repro.scenarios.registry`` uses for workloads): the end-to-end
metrics with their regression bounds, the per-layer metrics with the
module they belong to, and the public entry points the traced pass
wraps. ``BENCHMARK.json`` is generated from these rows (``run.py
--manifest``) and ``run.py`` refuses to measure when the two drift.

The tracer lives in the benchmark, not in the program: the traced pass
rebinds each wrapped entry point to a timing wrapper, runs one
operation, and restores the originals. A layer's ``*_s`` is **self
time** — its spans' duration minus the part their child spans cover —
so the layers of one operation sum to that operation's wall.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable


@dataclass(frozen=True, slots=True)
class Metric:
    """One reported number. ``bound`` is the share of the parent's
    median by which an end-to-end metric may worsen (None: per-layer,
    read beside the timings, never gated)."""

    name: str
    unit: str
    better: str  # "lower" | "higher"
    what: str
    bound: float | None = None


#: Timings are in reference-host seconds (``run.Clock``). The bounds are
#: what this host's run-to-run spread allows (perf/README.md, "Bounds"):
#: the issue asked for 10% throughout, the measured spread of ten runs
#: is 5-12% on the timings, and the driver wants it under the bound.
END_TO_END: tuple[Metric, ...] = (
    Metric("job_wall_s", "s", "lower",
           "median calibrated wall of one warm operation, tracing off", 0.20),
    Metric("work_per_s", "1/s", "higher",
           "the workload's work units / job_wall_s", 0.20),
    # One cold process per sample and three samples a run: the widest bound.
    Metric("setup_s", "s", "lower",
           "fresh interpreter: process start to first cold result in hand, "
           "median calibrated wall of the set-up samples", 0.25),
    Metric("peak_rss_mb", "MiB", "lower",
           "ru_maxrss of that fresh process (plus the largest pool "
           "worker on wc_pool2)", 0.10),
)


def _m(name: str, unit: str, what: str, better: str = "lower") -> Metric:
    return Metric(name, unit, better, what)


#: Simulated seconds get their own unit: they are the paper's quantity,
#: produced by the cost model, and must repeat exactly for one seed.
_SIM = "sim_s"

PER_LAYER: tuple[Metric, ...] = (
    # apps
    _m("apps.datagen_s", "s", "cold Application.generate"),
    _m("apps.input_bytes", "count", "UTF-8 bytes of the generated input"),
    _m("apps.input_records", "count", "records asked of datagen"),
    # minic
    _m("minic.parse_s", "s", "cold minic.parse of the app's sources"),
    _m("minic.compile_s", "s", "cold cache.warm_program of those programs"),
    _m("minic.map_filter_s", "s", "self time in Application.cpu_map"),
    _m("minic.map_filter_calls", "count", "cpu_map invocations"),
    _m("minic.combine_filter_s", "s", "self time in Application.cpu_combine"),
    _m("minic.combine_filter_calls", "count", "cpu_combine invocations"),
    _m("minic.reduce_filter_s", "s", "self time in Application.cpu_reduce"),
    _m("minic.reduce_filter_calls", "count", "cpu_reduce invocations"),
    _m("minic.map_ops", "count", "summed ExecCounters.total_work of cpu_map"),
    _m("minic.combine_ops", "count",
       "summed ExecCounters.total_work of cpu_combine"),
    # compiler (+directives)
    _m("compiler.translate_s", "s",
       "cold translate_map (+ translate_combine on the GPU path)"),
    _m("compiler.kernels", "count", "kernels those translations produced"),
    # gpu
    _m("gpu.map_kernel_s", "s", "self time in run_map_kernel"),
    _m("gpu.map_kernel_launches", "count", "run_map_kernel calls"),
    _m("gpu.combine_kernel_s", "s", "self time in run_combine_kernel"),
    _m("gpu.combine_kernel_launches", "count", "run_combine_kernel calls"),
    _m("gpu.sort_partition_s", "s", "self time in gpu.sort.sort_partition"),
    _m("gpu.sort_partition_calls", "count", "sort_partition calls"),
    _m("gpu.warps", "count", "warps launched (TraceRecorder gpu.warps)"),
    _m("gpu.vector_regions", "count", "regions run vectorized", "higher"),
    _m("gpu.vector_fallbacks", "count", "regions that fell back per lane"),
    _m("gpu.vector_hit_ratio", "ratio",
       "regions / (regions + fallbacks); 0 when neither", "higher"),
    # runtime
    _m("runtime.gpu_task_s", "s", "self time in GpuTaskRunner.run"),
    _m("runtime.locate_records_s", "s", "self time in locate_records"),
    _m("runtime.rendered_runs_s", "s",
       "self time in GpuTaskResult.rendered_runs"),
    _m("runtime.seqfile_s", "s", "self time in SequenceFileWriter"),
    # kvstore
    _m("kvstore.parse_kv_line_s", "s", "self time in parse_kv_line"),
    _m("kvstore.parse_kv_line_calls", "count", "parse_kv_line calls"),
    _m("kvstore.kv_line_s", "s", "self time in kv_line"),
    _m("kvstore.kv_line_calls", "count", "kv_line calls"),
    _m("kvstore.coerce_pair_s", "s", "self time in coerce_pair"),
    _m("kvstore.aggregate_s", "s", "self time in kvstore aggregate"),
    # hadoop.shuffle
    _m("shuffle.sort_kv_run_s", "s", "self time in sort_kv_run"),
    _m("shuffle.decorate_kv_run_s", "s", "self time in decorate_kv_run"),
    _m("shuffle.merge_sorted_runs_s", "s", "self time in merge_sorted_runs"),
    _m("shuffle.merged_pairs", "count", "pairs the reduce-side merges saw"),
    # hadoop.local
    _m("local.split_s", "s", "self time in LocalJobRunner.split_ranges"),
    _m("local.reduce_partition_s", "s",
       "self time in LocalJobRunner.reduce_partition"),
    _m("local.run_self_s", "s",
       "operation wall minus every wrapped layer: the runner's own glue"),
    _m("local.map_tasks", "count", "map tasks of the job"),
    _m("local.reduce_tasks", "count", "charged reduce tasks of the job"),
    _m("local.map_output_pairs", "count", "pairs the map phase emitted"),
    _m("local.shuffle_bytes", "count", "bytes crossing the shuffle"),
    # parallel
    _m("parallel.pool_spawn_s", "s", "cold get_pool().ensure(workers)"),
    _m("parallel.map_phase_s", "s", "driver wall in run_map_tasks"),
    _m("parallel.reduce_phase_s", "s", "driver wall in run_reduce_tasks"),
    _m("parallel.batches", "count", "pool batches of one job"),
    _m("parallel.tasks", "count", "pool tasks of one job"),
    _m("parallel.respawned", "count", "workers respawned mid-job, whole run"),
    _m("parallel.driver_cpu_s", "s",
       "driver process_time during one pooled job (busy, not waiting)"),
    _m("parallel.wall_speedup", "ratio",
       "serial wall / pooled wall, one job each back to back", "higher"),
    # hadoop.simulate / scheduling / hdfs
    _m("simulate.build_s", "s", "build_simulator for the traced operation"),
    _m("simulate.run_s", "s", "ClusterSimulator.run of the traced operation"),
    _m("simulate.attempts", "count", "task attempts (TraceRecorder)"),
    _m("simulate.heartbeats", "count", "heartbeats answered (TraceRecorder)"),
    _m("simulate.grants", "count", "tasks granted on heartbeats"),
    _m("simulate.attempts_per_s", "1/s",
       "attempts / untraced median job_wall_s", "higher"),
    _m("scheduling.forced_gpu_tasks", "count", "tail-forced GPU placements"),
    _m("hdfs.data_local_fraction", "ratio", "data-local map tasks", "higher"),
    # costmodel: simulated seconds, bit-identical for one seed
    _m("costmodel.sim_map_s", _SIM, "simulated map-phase critical path"),
    _m("costmodel.sim_reduce_s", _SIM, "simulated reduce-phase critical path"),
    _m("costmodel.sim_job_s", _SIM, "simulated job seconds"),
    # obs
    _m("obs.recorder_overhead_pct", "%",
       "one operation under a TraceRecorder vs the untraced median"),
    _m("obs.events", "count", "events that recorder captured"),
    # the harness itself
    _m("bench.traced_wall_s", "s",
       "raw wall of the traced operation: the layers' *_s sum to it"),
    _m("bench.wrap_overhead_pct", "%",
       "traced-pass wall vs the untraced median: this tracer's cost"),
    _m("host.job_wall_raw_s", "s",
       "median raw wall of the timed operations, before calibration"),
    _m("host.spin_s", "s",
       "the clock's calibration loop, median over the run"),
    _m("host.spin_spread_pct", "%",
       "quartile spread of that loop over the run: how unsteady the host was"),
    _m("setup.import_s", "s", "cold `import repro` (+ apps, runner)"),
    _m("setup.cold_job_s", "s", "first operation of the fresh process"),
    _m("host_cpus", "count", "os.cpu_count()", "higher"),
)


@dataclass(frozen=True, slots=True)
class Wrap:
    """One public entry point the traced pass times.

    ``attr`` is a module global (``parse_kv_line``) or a class attribute
    (``Application.cpu_map``) of ``module``. A module global is rebound
    in every loaded ``repro.*`` module that imported it by name, so the
    call sites in ``hadoop.local`` and ``runtime.gpu_task`` are covered
    without listing them. ``spans=False`` marks per-pair leaves that
    call nothing wrapped: their time and calls are summed but no span
    is stored per call (:meth:`Tracer.wrap_leaf`).
    """

    metric: str            # self time lands in "<metric>_s"
    module: str
    attr: str
    calls: str = ""        # name of the call-count metric, if declared
    spans: bool = True
    #: Metric summing ``ExecCounters.total_work`` over the ``(stdout,
    #: counters)`` each call returns (the mini-C filters).
    ops: str = ""


WRAPS: tuple[Wrap, ...] = (
    Wrap("minic.map_filter", "repro.apps.base", "Application.cpu_map",
         calls="minic.map_filter_calls", ops="minic.map_ops"),
    Wrap("minic.combine_filter", "repro.apps.base", "Application.cpu_combine",
         calls="minic.combine_filter_calls", ops="minic.combine_ops"),
    Wrap("minic.reduce_filter", "repro.apps.base", "Application.cpu_reduce",
         calls="minic.reduce_filter_calls"),
    Wrap("kvstore.parse_kv_line", "repro.kvstore.coerce", "parse_kv_line",
         calls="kvstore.parse_kv_line_calls", spans=False),
    Wrap("kvstore.kv_line", "repro.kvstore.coerce", "kv_line",
         calls="kvstore.kv_line_calls", spans=False),
    Wrap("kvstore.coerce_pair", "repro.kvstore.coerce", "coerce_pair",
         spans=False),
    Wrap("kvstore.aggregate", "repro.kvstore.aggregation", "aggregate"),
    Wrap("shuffle.sort_kv_run", "repro.hadoop.shuffle", "sort_kv_run"),
    Wrap("shuffle.decorate_kv_run", "repro.hadoop.shuffle",
         "decorate_kv_run"),
    Wrap("shuffle.merge_sorted_runs", "repro.hadoop.shuffle",
         "merge_sorted_runs"),
    Wrap("gpu.map_kernel", "repro.gpu.executor", "run_map_kernel",
         calls="gpu.map_kernel_launches"),
    Wrap("gpu.combine_kernel", "repro.gpu.executor", "run_combine_kernel",
         calls="gpu.combine_kernel_launches"),
    Wrap("gpu.sort_partition", "repro.gpu.sort", "sort_partition",
         calls="gpu.sort_partition_calls"),
    Wrap("runtime.locate_records", "repro.runtime.records",
         "locate_records"),
    Wrap("runtime.seqfile", "repro.runtime.seqfile",
         "SequenceFileWriter.extend"),
    Wrap("runtime.seqfile", "repro.runtime.seqfile",
         "SequenceFileWriter.finish"),
    Wrap("runtime.gpu_task", "repro.runtime.gpu_task", "GpuTaskRunner.run"),
    Wrap("runtime.rendered_runs", "repro.runtime.gpu_task",
         "GpuTaskResult.rendered_runs"),
    Wrap("local.split", "repro.hadoop.local", "LocalJobRunner.split_ranges"),
    Wrap("local.reduce_partition", "repro.hadoop.local",
         "LocalJobRunner.reduce_partition"),
    Wrap("parallel.map_phase", "repro.parallel.maptask", "run_map_tasks"),
    Wrap("parallel.reduce_phase", "repro.parallel.reducetask",
         "run_reduce_tasks"),
)


class Tracer:
    """In-memory span recorder behind the timing wrappers.

    ``spans`` holds ``(name, start, end, parent)`` with ``parent`` an
    index into the same list (-1 for the root); ``self_s``/``calls``/
    ``ops`` hold the per-layer sums. One tracer serves one traced
    operation.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.ops: dict[str, float] = {}
        # Open frames, innermost last: [child seconds, span index].
        self._stack: list[list] = []

    def wrap(self, name: str, fn: Callable, ops: str = "") -> Callable:
        """A wrapper that stores one span per call of ``fn``."""
        stack, records = self._stack, self.spans
        self_s, calls, op_sums = self.self_s, self.calls, self.ops

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1][1] if stack else -1
            index = len(records)
            records.append((name, 0.0, 0.0, parent))
            frame = [0.0, index]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                wall = end - start
                self_s[name] = self_s.get(name, 0.0) + wall - frame[0]
                calls[name] = calls.get(name, 0) + 1
                if stack:
                    stack[-1][0] += wall
                records[index] = (name, start, end, parent)
            if ops:
                op_sums[ops] = op_sums.get(ops, 0.0) + result[1].total_work
            return result

        return traced

    def wrap_leaf(self, name: str, fn: Callable) -> Callable:
        """The per-pair form: ``fn`` calls nothing wrapped and runs
        ~10^5 times per job, so it opens no frame and stores no span —
        only its summed time and calls, charged to the enclosing span
        as child time. Kept this lean because its own cost is most of
        ``bench.wrap_overhead_pct``."""
        stack, self_s, calls = self._stack, self.self_s, self.calls
        self_s[name], calls[name] = 0.0, 0

        def traced(*args: Any) -> Any:
            start = perf_counter()
            result = fn(*args)
            wall = perf_counter() - start
            self_s[name] += wall
            calls[name] += 1
            stack[-1][0] += wall
            return result

        return traced

    def as_json(self) -> dict[str, Any]:
        """What ``perf/out/<workload>.spans.json`` holds: every stored
        span plus the per-layer sums (per-pair leaves appear only in
        the sums)."""
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans
            ],
            "self_s": self.self_s,
            "calls": self.calls,
        }


def _resolve(wrap: Wrap) -> tuple[Any, str, Any]:
    """(owner object, attribute name, original callable) of a wrap row."""
    owner: Any = importlib.import_module(wrap.module)
    *path, attr = wrap.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def install(tracer: Tracer) -> list[tuple[Any, str, Any]]:
    """Rebind every :data:`WRAPS` entry point to a tracer wrapper.

    Returns the ``(owner, attribute, original)`` triples to hand to
    :func:`restore`. A module-level function is rebound wherever a
    loaded ``repro`` module holds that same object under that name.
    """
    undo: list[tuple[Any, str, Any]] = []
    for wrap in WRAPS:
        owner, attr, original = _resolve(wrap)
        traced = tracer.wrap(wrap.metric, original, wrap.ops) if wrap.spans \
            else tracer.wrap_leaf(wrap.metric, original)
        owners = [owner]
        if "." not in wrap.attr:
            owners += [
                mod for name, mod in list(sys.modules.items())
                if name.startswith("repro.") and mod is not owner
                and getattr(mod, "__dict__", {}).get(attr) is original
            ]
        for target in owners:
            setattr(target, attr, traced)
            undo.append((target, attr, original))
    return undo


def restore(undo: list[tuple[Any, str, Any]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
