"""Shuffle / sort / reduce phase model (paper §2.2).

The paper's GPU contribution ends at map+combine output; reduce always
runs on CPUs, identically under every scheduler — Table 2's '%Exec. Time
Map+Combine Active' column quantifies how much the common reduce tail
dampens end-to-end speedups. We model the phase analytically:

* shuffle: each reducer fetches its partition from every map output;
  fetches overlap map execution after the slowstart point, so only the
  *last wave* of map outputs remains to move when maps finish;
* sort: the reducer's multi-way merge over its fetched runs;
* reduce + HDFS write: compute plus replicated output write.

Reducers round-robin over nodes and share each node's reduce slots.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, TypeVar

from ..config import ClusterConfig
from ..costmodel.cpu import STREAMING_OVERHEAD_S_PER_KV
from ..costmodel.io import IoModel
from ..errors import ConfigError, HadoopError
from ..kvstore.coerce import coerce_key, coerce_value, kv_line, utf8_len
from .job import JobConf

_KV = TypeVar("_KV", bound=tuple)

#: A decorated run entry: the precomputed streaming sort key plus the
#: record it orders. Runs of these are what map tasks ship to the
#: reduce-side merge, which reuses the keys (:func:`merge_sorted_runs`).
DecoratedEntry = tuple[tuple[int, Any], _KV]


def streaming_sort_key(key: Any) -> tuple[int, Any]:
    """Hadoop Streaming's shuffle ordering for one key.

    Numeric keys sort before text keys, numerically; everything else
    sorts by its string rendering. Shared by the map-side per-partition
    sort, the reduce-side merge, and calibration replays — the three
    must agree or reducers see differently-grouped runs.
    """
    if isinstance(key, (int, float)):
        return (0, float(key))
    return (1, str(key))


def decorate_kv_run(items: Iterable[_KV]) -> list[DecoratedEntry]:
    """Stably sort a run of KV records (``(key, ...)`` tuples) by
    streaming key order, keeping each ``(sort_key, record)`` decoration
    for the reduce-side merge to reuse.

    ``streaming_sort_key`` runs once per record (not O(n log n) times);
    the enumeration index breaks ties by arrival order and keeps the
    comparison from ever reaching the record payload.
    """
    decorated = [(streaming_sort_key(item[0]), i, item)
                 for i, item in enumerate(items)]
    decorated.sort()
    return [(key, item) for key, _i, item in decorated]


def sort_kv_run(items: Iterable[_KV]) -> list[_KV]:
    """:func:`decorate_kv_run` without the decoration: the plain stable
    sort :func:`spill_runs` is tested against."""
    return [item for _key, item in decorate_kv_run(items)]


def spill_runs(lines: list[str], partition: Callable[[Any], int],
               where: str) -> dict[int, list[DecoratedEntry]]:
    """A map task's output lines as one decorated run of rendered
    ``(key, value, line)`` records per partition, partitions in
    first-arrival order — what parsing every line, partitioning the
    pairs and :func:`decorate_kv_run` per partition gives, in one pass.

    A stable sort's output is its equal-sort-key groups, each in
    arrival order, concatenated in key order: pairs are appended to
    their group and only the distinct sort keys are sorted. The memo on
    the line makes a repeated line (most of WC's) a lookup and an
    append; the one on the key text types, partitions and keys each
    distinct key once (II's lines rarely repeat, its keys do).
    docs/performance.md, "The map-side spill is one pass".
    """
    by_line: dict[str, tuple[list, DecoratedEntry]] = {}
    by_key: dict[str, tuple[Any, tuple[int, Any], list]] = {}
    groups: dict[int, dict[tuple[int, Any], list]] = {}
    for line in lines:
        hit = by_line.get(line)
        if hit is None:
            if not line:
                continue
            key_text, tab, value_text = line.partition("\t")
            if not tab:
                raise HadoopError(f"{where}: malformed KV line {line!r} at "
                                  f"output line {lines.index(line) + 1}")
            known = by_key.get(key_text)
            if known is None:
                key = coerce_key(key_text)
                sort_key = streaming_sort_key(key)
                known = by_key[key_text] = key, sort_key, groups.setdefault(
                    partition(key), {}).setdefault(sort_key, [])
            key, sort_key, group = known
            value = coerce_value(value_text)
            hit = by_line[line] = group, (
                sort_key, (key, value, kv_line(key, value)))
        hit[0].append(hit[1])
    return {part: [entry for sort_key in sorted(by_sort_key)
                   for entry in by_sort_key[sort_key]]
            for part, by_sort_key in groups.items()}


def render_run(pairs: Iterable[tuple[Any, Any]]) -> list[DecoratedEntry]:
    """Typed ``(key, value)`` pairs as one decorated run of rendered
    ``(key, value, line)`` records — the form :func:`spill_runs` builds
    from map-output text, for pairs that are already typed (a combine
    filter's parsed output, a GPU task's partition)."""
    return decorate_kv_run([(k, v, kv_line(k, v)) for k, v in pairs])


def run_text(run: list[DecoratedEntry]) -> str:
    """A decorated run's rendered lines, concatenated: filter stdin."""
    return "".join([entry[1][2] for entry in run])


def run_bytes(run: list[DecoratedEntry]) -> int:
    """UTF-8 bytes of a decorated run's rendered lines."""
    return sum(utf8_len(entry[1][2]) for entry in run)


def merge_sorted_runs(runs: Iterable[list[DecoratedEntry]]) -> list[_KV]:
    """K-way merge of stably-sorted decorated runs, byte-identical to
    ``sort_kv_run`` of the runs' concatenation.

    The identity holds because every run arrives stably sorted
    (:func:`decorate_kv_run`) and the merge is a *stable* sort keyed on
    the precomputed decoration only: records with equal streaming keys
    keep concatenation order — run order first, then each run's
    arrival order — which is exactly the tie-break the full re-sort's
    enumeration index produced. Payloads are never compared.

    Implementation note: this is timsort over the concatenation rather
    than ``heapq.merge``. CPython's sort detects the presorted runs
    and gallops across them, and measured on the high-key-count apps'
    real shuffle data (TS/II/PR/RJ) it beats the heap merge by 2.5-4x
    and the decorate-and-fully-re-sort baseline by 2.6-9.5x; the heap
    merge only managed ~1.0-1.6x on the wide-key apps (TS, RJ).
    """
    merged: list[DecoratedEntry] = []
    for run in runs:
        merged.extend(run)
    merged.sort(key=operator.itemgetter(0))  # stable ⇒ ties keep run order
    return [item for _key, item in merged]


#: Fraction of total map output still unfetched when the last map ends
#: (the final map wave; earlier waves shuffled concurrently with maps).
_LAST_WAVE_FRACTION = 0.15

#: Merge cost per byte per log2(runs) on one core, in seconds.
_MERGE_S_PER_BYTE = 2.0e-9


@dataclass
class ReducePhaseEstimate:
    shuffle_seconds: float
    merge_seconds: float
    reduce_seconds: float
    write_seconds: float

    @property
    def total(self) -> float:
        return (self.shuffle_seconds + self.merge_seconds
                + self.reduce_seconds + self.write_seconds)


def estimate_reduce_phase(job: JobConf, io: IoModel) -> ReducePhaseEstimate:
    """Seconds from the last map completion to job completion."""
    if job.map_only:
        return ReducePhaseEstimate(0.0, 0.0, 0.0, 0.0)
    if job.num_reduce_tasks <= 0:
        raise ConfigError("reduce phase on a map-only job")
    cluster = job.cluster
    total_map_output = job.map_output_bytes * job.num_map_tasks
    per_reducer = total_map_output / job.num_reduce_tasks

    # Reducers run in waves over the cluster's reduce slots.
    reduce_slots = cluster.num_slaves * cluster.max_reduce_slots_per_node
    waves = math.ceil(job.num_reduce_tasks / reduce_slots)

    shuffle = io.shuffle_s(int(per_reducer * _LAST_WAVE_FRACTION))
    merge = per_reducer * _MERGE_S_PER_BYTE * max(
        1.0, math.log2(max(job.num_map_tasks, 2))
    )
    reduce_s = job.reduce_compute_seconds
    write = io.hdfs_write_s(int(per_reducer), cluster.hdfs_replication)
    return ReducePhaseEstimate(
        shuffle_seconds=shuffle * waves,
        merge_seconds=merge * waves,
        reduce_seconds=reduce_s * waves,
        write_seconds=write * waves,
    )


@dataclass(frozen=True)
class ReduceTaskTiming:
    """Simulated seconds for one functional reduce task.

    Computed from byte/pair/run counts only — no wall clock — so a
    pooled reduce task reports the same floats as the serial fold and
    the parallel job result stays byte-identical to ``workers=1``.
    """

    partition: int
    merge_runs: int
    input_pairs: int
    input_bytes: int
    output_pairs: int
    output_bytes: int
    merge: float
    reduce: float
    output_write: float

    @property
    def total(self) -> float:
        return self.merge + self.reduce + self.output_write


def reduce_task_timing(*, partition: int, merge_runs: int, input_pairs: int,
                       input_bytes: int, output_pairs: int, output_bytes: int,
                       io: IoModel, replication: int) -> ReduceTaskTiming:
    """Charge one reduce task: k-way merge over its fetched runs, the
    streaming reduce pass, and the replicated HDFS output write — the
    per-task analogue of :func:`estimate_reduce_phase`'s per-wave model,
    sharing its merge constant."""
    merge = input_bytes * _MERGE_S_PER_BYTE * max(
        1.0, math.log2(max(merge_runs, 2))
    )
    reduce_s = input_pairs * STREAMING_OVERHEAD_S_PER_KV
    write = io.hdfs_write_s(output_bytes, replication)
    return ReduceTaskTiming(
        partition=partition,
        merge_runs=merge_runs,
        input_pairs=input_pairs,
        input_bytes=input_bytes,
        output_pairs=output_pairs,
        output_bytes=output_bytes,
        merge=merge,
        reduce=reduce_s,
        output_write=write,
    )
