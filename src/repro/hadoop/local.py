"""Functional single-process job runner (Hadoop's LocalJobRunner).

Executes a complete MapReduce job over real bytes: input splitting,
map tasks on the CPU path (Hadoop Streaming filters) or the GPU path
(translated kernels on the simulated device), hash partitioning, the
shuffle, per-reducer merge sort, and the reduce function. This is the
correctness backbone: CPU output, GPU output, and the app's pure-Python
reference must all agree after reduce — including under the combiner's
§4.2 relaxation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

from ..apps.base import Application
from ..config import CLUSTER1, ClusterConfig, OptimizationFlags
from ..costmodel.cpu import CpuTaskModel, CpuTaskTiming
from ..costmodel.io import IoModel
from ..errors import ConfigError, HadoopError
from ..gpu.device import GpuDevice
from ..gpu.engine import check_gpu_engine
from ..kvstore import Partitioner
from ..kvstore.coerce import kv_line, parse_kv_line, utf8_len
from ..obs import trace as obs
from ..parallel.pool import list_schedule_makespan, resolve_workers
from ..runtime.gpu_task import GpuTaskResult, GpuTaskRunner
from .shuffle import (
    ReduceTaskTiming,
    decorate_kv_run,
    merge_sorted_runs,
    reduce_task_timing,
    sort_kv_run,
    streaming_sort_key,
)

__all__ = ["LocalJobResult", "LocalJobRunner", "parse_kv_line"]

# Backwards-compatible alias; the shared definition (and the
# decorate-sort that avoids calling it O(n log n) times) lives in
# hadoop.shuffle.
_sort_key = streaming_sort_key


@dataclass
class LocalJobResult:
    """Functional + timing outcome of one local job."""

    output: dict[Any, Any] = field(default_factory=dict)
    map_tasks: int = 0
    gpu_task_results: list[GpuTaskResult] = field(default_factory=list)
    cpu_task_timings: list[CpuTaskTiming] = field(default_factory=list)
    map_output_pairs: int = 0
    shuffle_bytes: int = 0
    #: Worker processes the map phase ran on (1 = serial).
    workers: int = 1
    #: Worker processes the reduce phase ran on (1 = serial).
    reduce_workers: int = 1
    #: Per-reduce-task timings in partition order (empty for map-only
    #: jobs, whose output is written by the map tasks themselves).
    reduce_task_timings: list[ReduceTaskTiming] = field(default_factory=list)

    def task_seconds(self) -> list[float]:
        """Per-map-task simulated seconds, in task-index order."""
        return [r.seconds for r in self.gpu_task_results] + [
            t.total for t in self.cpu_task_timings
        ]

    @property
    def total_map_seconds(self) -> float:
        """Summed per-task map seconds (total device/core *work*).

        This is the Fig. 6-style resource-consumption figure and is
        independent of ``workers`` — N tasks cost the same work whether
        they overlapped or not. For the wall-clock-equivalent duration
        of the map phase, use :attr:`map_critical_path_seconds`.
        """
        return sum(r.seconds for r in self.gpu_task_results) + sum(
            t.total for t in self.cpu_task_timings
        )

    def critical_path_seconds(self, workers: int) -> float:
        """Map-phase makespan if tasks ran on ``workers`` slots (greedy
        in-order list schedule, the pool's own dispatch order)."""
        return list_schedule_makespan(self.task_seconds(), workers)

    @property
    def map_critical_path_seconds(self) -> float:
        """Wall-clock-equivalent map-phase seconds at this run's
        ``workers`` (equals :attr:`total_map_seconds` when serial)."""
        return self.critical_path_seconds(self.workers)

    def reduce_seconds(self) -> list[float]:
        """Per-reduce-task simulated seconds, in partition order."""
        return [t.total for t in self.reduce_task_timings]

    @property
    def total_reduce_seconds(self) -> float:
        """Summed per-reduce-task seconds (total core *work*), the
        reduce-phase analogue of :attr:`total_map_seconds`."""
        return sum(t.total for t in self.reduce_task_timings)

    def reduce_critical_path(self, workers: int) -> float:
        """Reduce-phase makespan if its tasks ran on ``workers`` slots
        (same greedy in-order list schedule as the map phase)."""
        return list_schedule_makespan(self.reduce_seconds(), workers)

    @property
    def reduce_critical_path_seconds(self) -> float:
        """Wall-clock-equivalent reduce-phase seconds at this run's
        ``reduce_workers``."""
        return self.reduce_critical_path(self.reduce_workers)


class LocalJobRunner:
    """Run a full job for one application in-process.

    Parameters
    ----------
    app:
        The benchmark application.
    cluster:
        Supplies the GPU spec, IO rates, and replication factor.
    use_gpu:
        True → map tasks run through the translated kernels on the
        simulated device; False → plain Hadoop Streaming on the CPU path.
    split_bytes:
        fileSplit size for input splitting (tests use small splits; the
        real 256 MB default would make functional runs needlessly slow).
    gpu_engine:
        Test seam; jobs leave it None and run the shipped ``"vector"``
        lane engine. ``"compiled"`` forces vector's per-lane fallback
        everywhere, ``"tree"`` runs the reference harness; anything
        else raises :class:`~repro.errors.ConfigError` here.
    workers:
        Worker processes for the map phase, and for the reduce phase
        capped by its partition count. None defers to the
        ``REPRO_WORKERS`` environment variable (default 1 = serial); 0
        means one worker per CPU core. Parallel runs produce
        byte-identical output, counters, and simulated seconds — see
        :mod:`repro.parallel`.
    """

    def __init__(
        self,
        app: Application,
        cluster: ClusterConfig = CLUSTER1,
        use_gpu: bool = True,
        opt: OptimizationFlags | None = None,
        num_reducers: int | None = None,
        split_bytes: int = 64 * 1024,
        gpu_engine: str | None = None,
        workers: int | None = None,
    ):
        if split_bytes <= 0:
            raise ConfigError(
                f"split_bytes must be positive, got {split_bytes}"
            )
        if num_reducers is not None and num_reducers < 0:
            raise ConfigError(
                f"num_reducers must be >= 0, got {num_reducers}"
            )
        if gpu_engine is not None:
            check_gpu_engine(gpu_engine)
        self.app = app
        self.cluster = cluster
        self.use_gpu = use_gpu
        self.opt = opt if opt is not None else OptimizationFlags.all_on()
        figures = app.cluster1 if cluster.name == "Cluster1" else app.cluster2
        default_reducers = figures.reduce_tasks if figures else 1
        self.num_reducers = (
            num_reducers if num_reducers is not None else default_reducers
        )
        self.split_bytes = split_bytes
        self.gpu_engine = gpu_engine
        self.workers = workers
        self.io = IoModel.for_cluster(cluster)
        self.partitioner = Partitioner(max(self.num_reducers, 1))
        if not use_gpu:
            # Resolved once per job, not per task: the CPU cost model only
            # needs the translated key length (translate_map is memoized,
            # but CPU-only runs shouldn't touch the translator per split).
            self._cpu_key_length = (
                app.translate_map().map_kernel.key_length
                if app.map_source else 16
            )

    # -- input splitting ---------------------------------------------------------

    def split_ranges(self, data: bytes) -> list[tuple[int, int]]:
        """Split boundaries as ``(start, stop)`` byte ranges at
        ~split_bytes, never inside a record (LineRecordReader's
        behaviour). Ranges — not copies — are what the parallel path
        ships to workers; the serial loop slices them locally."""
        ranges: list[tuple[int, int]] = []
        start = 0
        while start < len(data):
            end = min(start + self.split_bytes, len(data))
            if end < len(data):
                nl = data.find(b"\n", end)
                end = len(data) if nl == -1 else nl + 1
            ranges.append((start, end))
            start = end
        return ranges or [(0, 0)]

    def make_splits(self, input_text: str) -> list[bytes]:
        """The split ranges materialized as byte strings."""
        data = input_text.encode("utf-8")
        return [data[a:b] for a, b in self.split_ranges(data)]

    # -- map side ------------------------------------------------------------------

    def _make_gpu_runner(self, device: GpuDevice) -> GpuTaskRunner:
        """One GpuTaskRunner per job: translations are resolved once
        (memoized — see translate_cached) and the host snapshots the
        runner computes are reused by every map task."""
        return GpuTaskRunner(
            self.app.translate_map(self.opt),
            self.app.translate_combine(self.opt),
            device,
            self.io,
            num_reducers=self.num_reducers,
            replication=self.cluster.hdfs_replication,
            min_gpu_mem=self.app.min_gpu_mem,
            engine=self.gpu_engine,
        )

    # Map tasks return partition → decorated runs: streaming-sorted
    # ``(sort_key, (key, value, line))`` entries where ``line`` is the
    # pair's streaming rendering (kv_line). Both the rendering and the
    # sort key are computed exactly once per pair, map-side, and reused
    # for shuffle/output byte accounting, as reducer stdin, and by the
    # reduce merge (which never recomputes keys or re-encodes).

    def _run_gpu_map_task(
        self, split: bytes, runner: GpuTaskRunner, result: LocalJobResult
    ) -> dict[int, list]:
        task = runner.run(split)
        result.gpu_task_results.append(task)
        result.map_output_pairs += task.emitted_pairs
        return task.rendered_runs()

    def _run_cpu_map_task(
        self, split: bytes, result: LocalJobResult,
        task_index: int | None = None,
    ) -> dict[int, list]:
        text = split.decode("utf-8", errors="replace")
        map_out, map_counters = self.app.cpu_map(text)
        pairs = [parse_kv_line(ln) for ln in map_out.splitlines() if ln]
        result.map_output_pairs += len(pairs)

        # Partition, sort each partition, then run the combiner filter.
        parts: dict[int, list[tuple[Any, Any]]] = defaultdict(list)
        for k, v in pairs:
            parts[self.partitioner.partition(k)].append((k, v))
        combined: dict[int, list] = {}
        combine_counters = None
        output_bytes = 0
        for part, kvs in parts.items():
            if self.app.has_combiner:
                kvs = sort_kv_run(kvs)
                text_in = "".join(kv_line(k, v) for k, v in kvs)
                out, counters = self.app.cpu_combine(text_in)
                combine_counters = counters if combine_counters is None \
                    else combine_counters.merged(counters)
                triples = []
                for ln in out.splitlines():
                    if not ln:
                        continue
                    k, v = parse_kv_line(ln)
                    triples.append((k, v, kv_line(k, v)))
                combined[part] = decorate_kv_run(triples)
            else:
                # The decorate-sort below orders the run, so the
                # separate pre-sort pass is only needed to feed the
                # combiner sorted text.
                combined[part] = decorate_kv_run(
                    [(k, v, kv_line(k, v)) for k, v in kvs]
                )
            output_bytes += sum(utf8_len(e[1][2]) for e in combined[part])

        model = CpuTaskModel(self.cluster.cpu, self.io)
        timing = model.task_timing(
            split_bytes=len(split),
            map_counters=map_counters,
            map_kv_pairs=len(pairs),
            key_length=self._cpu_key_length,
            combine_counters=combine_counters,
            output_bytes=output_bytes,
            map_only=self.app.map_only,
            replication=self.cluster.hdfs_replication,
        )
        result.cpu_task_timings.append(timing)

        rec = obs.active()
        if rec.enabled:
            self._record_cpu_task_trace(rec, timing, len(split), len(pairs),
                                        task_index)
        return combined

    def _record_cpu_task_trace(self, rec: obs.TraceRecorder,
                               timing: CpuTaskTiming, split_bytes: int,
                               map_pairs: int,
                               task_index: int | None = None) -> None:
        """One CPU task span tiled by its Fig. 6-style phase children.

        ``task_index`` defaults to this process's running task count;
        pool workers pass the job-wide index so spliced traces number
        tasks as the serial run would.
        """
        pid, tid = "cpu-streaming", "tasks"
        index = task_index if task_index is not None \
            else int(rec.metrics.count("cpu.tasks"))
        task = rec.begin(
            f"cpu-task#{index} {self.app.name}", "cpu-task", pid, tid,
            args={"split_bytes": split_bytes, "map_pairs": map_pairs},
        )
        phases = {
            "input_read": timing.input_read,
            "map": timing.map,
            "sort": timing.sort,
            "combine": timing.combine,
            "output_write": timing.output_write,
        }
        for phase, seconds in phases.items():
            rec.complete(phase, "phase", pid, tid, seconds)
        rec.end(task)
        rec.inc("cpu.tasks")
        rec.inc("cpu.map_pairs", map_pairs)

    # -- reduce side ---------------------------------------------------------------

    def reduce_partition(self, partition: int,
                         runs: list[list]) -> tuple[list, ReduceTaskTiming]:
        """Run one reduce task: k-way merge of the partition's sorted
        runs, then the reduce function — preferably the app's mini-C
        Streaming reducer (reducers always run on CPUs, paper §3.1),
        else the Python one. Returns the reduced pairs plus the task's
        deterministic simulated timing.

        Pure with respect to the job: pool workers call this through
        :mod:`repro.parallel.reducetask` and the driver folds the
        returned pairs in partition order, so serial and pooled reduce
        phases are byte-identical.
        """
        merged = merge_sorted_runs(runs)
        input_pairs = len(merged)
        input_bytes = sum(utf8_len(t[2]) for t in merged)
        if self.app.reduce_source is not None:
            text_in = "".join(t[2] for t in merged)
            out_text, _counters = self.app.cpu_reduce(text_in)
            reduced = [parse_kv_line(ln)
                       for ln in out_text.splitlines() if ln]
            output_bytes = utf8_len(out_text)
        else:
            grouped: dict[Any, list[Any]] = defaultdict(list)
            for k, v, _ln in merged:
                grouped[k].append(v)
            reduced = [
                pair
                for key, values in grouped.items()
                for pair in self.app.reduce(key, values)
            ]
            output_bytes = sum(utf8_len(kv_line(k, v)) for k, v in reduced)
        timing = reduce_task_timing(
            partition=partition,
            merge_runs=len(runs),
            input_pairs=input_pairs,
            input_bytes=input_bytes,
            output_pairs=len(reduced),
            output_bytes=output_bytes,
            io=self.io,
            replication=self.cluster.hdfs_replication,
        )
        return reduced, timing

    def _fold_reduced(self, output: dict[Any, Any], partition: int,
                      reduced: list) -> None:
        """Fold one partition's reduce output into the job output dict
        — always in the driver, always in partition order, so the
        insertion order and the duplicate-key check are identical under
        serial and pooled reduce phases."""
        for out_k, out_v in reduced:
            if out_k in output:
                raise HadoopError(
                    f"{self.app.name} reducer emitted duplicate key "
                    f"{out_k!r} in partition {partition}"
                )
            output[out_k] = out_v

    # -- full job --------------------------------------------------------------------

    def run(self, input_text: str) -> LocalJobResult:
        result = LocalJobResult()
        data = input_text.encode("utf-8")
        ranges = self.split_ranges(data)
        result.map_tasks = len(ranges)
        nworkers = resolve_workers(self.workers, tasks=len(ranges))
        result.workers = nworkers

        rec = obs.active()
        job_span = None
        if rec.enabled:
            span_args = {
                "cluster": self.cluster.name,
                "path": "gpu" if self.use_gpu else "cpu",
                "map_tasks": len(ranges),
                "reducers": self.num_reducers,
            }
            if nworkers > 1:  # serial spans stay byte-identical
                span_args["workers"] = nworkers
            job_span = rec.begin(
                f"job {self.app.name}", "job", "local-job", "driver",
                args=span_args,
            )

        # Map phase → shuffle inputs grouped by reduce partition, kept
        # as per-task *runs* (streaming-sorted by the map task, with
        # one-time renderings and sort keys — see the map task helpers)
        # so the reduce side can k-way merge instead of re-sorting.
        shuffle: dict[int, list[list]] = defaultdict(list)
        if nworkers > 1:
            parts_per_task = self._run_map_phase_parallel(
                data, ranges, nworkers, result, rec
            )
        else:
            device = GpuDevice(self.cluster.gpu) if self.use_gpu else None
            gpu_runner = self._make_gpu_runner(device) if self.use_gpu \
                else None
            parts_per_task = (
                self._run_gpu_map_task(data[a:b], gpu_runner, result)
                if self.use_gpu
                else self._run_cpu_map_task(data[a:b], result)
                for a, b in ranges
            )
        for parts in parts_per_task:
            for part, run in parts.items():
                shuffle[part].append(run)
                result.shuffle_bytes += sum(utf8_len(e[1][2]) for e in run)

        # Reduce phase: one reduce task per partition, serial in the
        # driver or fanned across the daemon pool; either way the
        # reduced pairs fold into the output dict in partition order.
        reduce_parts = sorted(shuffle)
        reduce_workers = resolve_workers(self.workers,
                                         tasks=len(reduce_parts))
        result.reduce_workers = reduce_workers
        # Map-only jobs (num_reducers == 0) write output at the map
        # tasks; their identity fold through this phase is free, like
        # estimate_reduce_phase's zero-cost map-only answer.
        charge_reduce = self.num_reducers > 0
        output: dict[Any, Any] = {}
        if reduce_workers > 1:
            reduced_per_part = self._run_reduce_phase_parallel(
                reduce_parts, shuffle, reduce_workers, result, rec,
                charge_reduce,
            )
            for part, reduced in zip(reduce_parts, reduced_per_part):
                self._fold_reduced(output, part, reduced)
        else:
            for part in reduce_parts:
                reduced, timing = self.reduce_partition(part, shuffle[part])
                if charge_reduce:
                    result.reduce_task_timings.append(timing)
                self._fold_reduced(output, part, reduced)
        result.output = output

        if rec.enabled and job_span is not None:
            # The job span covers the map phase's wall-clock-equivalent
            # duration: with one worker that is the task-seconds sum
            # (bit-identical to the pre-parallel behaviour); with N it
            # is the overlapped critical path. A pooled reduce phase
            # extends the span by its own critical path (serial reduce
            # keeps the historical span end, byte for byte).
            map_end = job_span.ts + result.map_critical_path_seconds
            rec.counter(
                "shuffle", "local-job",
                {"bytes": result.shuffle_bytes,
                 "pairs": result.map_output_pairs},
                ts=map_end,
            )
            rec.inc("shuffle.bytes", result.shuffle_bytes)
            rec.inc("job.map_output_pairs", result.map_output_pairs)
            rec.inc("jobs")
            end_ts = map_end
            end_args = {"output_keys": len(output),
                        "shuffle_bytes": result.shuffle_bytes}
            if reduce_workers > 1:  # serial spans stay byte-identical
                end_ts = map_end + result.reduce_critical_path_seconds
                end_args["reduce_workers"] = reduce_workers
                end_args["reduce_tasks"] = len(reduce_parts)
            rec.end(job_span, ts=end_ts, args=end_args)
        return result

    def _run_map_phase_parallel(self, data: bytes,
                                ranges: list[tuple[int, int]],
                                nworkers: int, result: LocalJobResult,
                                rec: Any) -> list[dict]:
        """Fan the map phase across the daemon pool and fold the
        envelopes exactly as the serial loop would have.

        Envelopes arrive in task-index order (the pool reassembles its
        batches that way), so every accumulation below — task-result
        lists, pair counts, float timing sums, shuffle extension order —
        replays the serial fold and the job result is byte-identical to
        ``workers=1``.
        """
        from ..parallel.maptask import run_map_tasks

        envelopes = run_map_tasks(self, data, ranges, nworkers)
        parts_per_task: list[dict] = []
        for envelope in envelopes:
            if envelope.gpu_result is not None:
                task = envelope.gpu_result
                result.gpu_task_results.append(task)
                result.map_output_pairs += task.emitted_pairs
            else:
                assert envelope.cpu_timing is not None
                result.cpu_task_timings.append(envelope.cpu_timing)
                result.map_output_pairs += envelope.map_pairs
            # Both paths ship ready-to-merge rendered runs: the worker
            # already sorted, decorated, and encoded every pair (the
            # driver used to re-encode the GPU path's pairs here).
            parts_per_task.append(envelope.parts or {})
            if rec.enabled and envelope.events is not None:
                rec.splice(envelope.events,
                           pid_suffix=f"@w{envelope.worker_pid}")
                if envelope.metrics is not None:
                    rec.metrics.merge(envelope.metrics)
        return parts_per_task

    def _run_reduce_phase_parallel(self, parts: list[int],
                                   shuffle: dict[int, list[list]],
                                   nworkers: int, result: LocalJobResult,
                                   rec: Any, charge_reduce: bool) -> list[list]:
        """Fan the reduce phase across the daemon pool.

        Envelopes arrive in partition order (the pool reassembles by
        submission index), so timing accumulation and the driver-side
        output fold replay the serial loop exactly — reduce tasks are
        pure, and the duplicate-key check still fires in the driver at
        the same fold step it would serially.
        """
        from ..parallel.reducetask import run_reduce_tasks

        envelopes = run_reduce_tasks(self, parts, shuffle, nworkers)
        reduced_per_part: list[list] = []
        for envelope in envelopes:
            if charge_reduce:
                result.reduce_task_timings.append(envelope.timing)
            reduced_per_part.append(envelope.reduced)
            if rec.enabled and envelope.events is not None:
                rec.splice(envelope.events,
                           pid_suffix=f"@w{envelope.worker_pid}")
                if envelope.metrics is not None:
                    rec.metrics.merge(envelope.metrics)
        return reduced_per_part
