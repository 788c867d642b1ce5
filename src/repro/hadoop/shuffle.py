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

from ..costmodel.cpu import STREAMING_OVERHEAD_S_PER_KV
from ..costmodel.io import IoModel
from ..errors import ConfigError, HadoopError
from ..kvstore.coerce import coerce_key, coerce_value, kv_text, utf8_len
from .job import JobConf

_KV = TypeVar("_KV", bound=tuple)

#: One pair of a key group: ``(value, value_text, value_bytes)`` — the
#: typed value, its canonical rendering and that rendering's UTF-8 size.
#: The spill builds one per distinct value text and appends that same
#: object for every pair that carries it, under any key.
Record = tuple[Any, str, int]

#: One key's pairs in a run: ``(sort_key, key, key_text, records,
#: nbytes)`` — records in arrival order, ``nbytes`` the UTF-8 size of
#: their lines ``key_text<TAB>value_text<NL>``: the records' summed
#: ``value_bytes`` plus the key's fixed bytes (its text, tab and
#: newline) once per record. A run is a list of groups in
#: streaming-sort order, one per distinct key (a merged run may hold
#: one key's groups from several runs, adjacent). Only this module
#: builds or reads the layout.
Group = tuple[tuple[int, Any], Any, str, list[Record], int]

_SORT_KEY = operator.itemgetter(0)
_VALUE_BYTES = operator.itemgetter(2)


def streaming_sort_key(key: Any) -> tuple[int, Any]:
    """Hadoop Streaming's shuffle ordering for one key.

    Numeric keys sort before text keys, numerically; everything else
    sorts by its string rendering. Shared by the map-side per-partition
    sort, the reduce-side merge, and calibration replays — the three
    must agree or reducers see differently-grouped runs.

    Numbers stay as they are: Python compares ``int`` and ``float``
    exactly, so ``3`` ties with ``3.0`` while distinct ints above 2^53
    keep distinct sort keys. Keys are only ever ``int`` or ``str``
    (:func:`~repro.kvstore.coerce.coerce_key`), so a sort key names
    exactly one key.
    """
    if isinstance(key, (int, float)):
        return (0, key)
    return (1, str(key))


def decorate_kv_run(items: Iterable[_KV]) -> list[tuple[tuple[int, Any], _KV]]:
    """Stably sort a run of KV records (``(key, ...)`` tuples) by
    streaming key order, keeping each ``(sort_key, record)`` decoration.

    The per-pair reference the grouped runs are tested against.
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
    sort a flattened run (:func:`flatten_run`) is tested against."""
    return [item for _key, item in decorate_kv_run(items)]


def _sorted_groups(groups: dict[tuple[int, Any],
                                tuple[Any, str, list[Record]]]
                   ) -> list[Group]:
    """A partition's ``{sort_key: (key, key_text, records)}`` as a run.

    A stable sort's output is its equal-sort-key groups, each in
    arrival order, concatenated in key order — so only the distinct
    sort keys are sorted, never the pairs."""
    return [(sort_key, key, key_text, records,
             sum(map(_VALUE_BYTES, records))
             + len(records) * (utf8_len(key_text) + 2))
            for sort_key, (key, key_text, records)
            in sorted(groups.items(), key=_SORT_KEY)]


def spill_runs(lines: list[str], partition: Callable[[Any], int],
               where: str) -> dict[int, list[Group]]:
    """A filter's output lines as one run per partition, partitions in
    first-arrival order — what parsing every line, partitioning the
    pairs and :func:`sort_kv_run` per partition gives, grouped by key,
    in one pass.

    Three memos leave only the work per *distinct* thing: the one on
    the line makes a repeated line (most of WC's) a lookup and an
    append; the one on the key text types, partitions and sorts each
    distinct key once (II's lines rarely repeat, its keys do); the one
    on the value text types and renders each distinct value once, and
    its entry is the record every pair with that value shares. Values
    canonicalize on the way through (``"007"`` → ``7`` → ``"7"``); a
    key's text is already its rendering, since :func:`coerce_key`
    types only canonical ints.
    docs/performance.md, "The map-side spill is one pass".
    """
    by_line: dict[str, tuple[list[Record], Record]] = {}
    by_key: dict[str, list[Record]] = {}
    by_value: dict[str, Record] = {}
    groups: dict[int, dict[tuple[int, Any],
                           tuple[Any, str, list[Record]]]] = {}
    for line in lines:
        hit = by_line.get(line)
        if hit is None:
            if not line:
                continue
            key_text, tab, value_text = line.partition("\t")
            if not tab:
                raise HadoopError(f"{where}: malformed KV line {line!r} at "
                                  f"output line {lines.index(line) + 1}")
            records = by_key.get(key_text)
            if records is None:
                key = coerce_key(key_text)
                records = by_key[key_text] = []
                groups.setdefault(partition(key), {})[
                    streaming_sort_key(key)] = key, key_text, records
            value = by_value.get(value_text)
            if value is None:
                typed = coerce_value(value_text)
                text = kv_text(typed)
                value = by_value[value_text] = typed, text, utf8_len(text)
            hit = by_line[line] = records, value
        hit[0].append(hit[1])
    return {part: _sorted_groups(by_sort_key)
            for part, by_sort_key in groups.items()}


def render_run(pairs: Iterable[tuple[Any, Any]]) -> list[Group]:
    """Typed ``(key, value)`` pairs — a GPU task's partition, keys
    ``int`` or ``str`` — as one run: the groups :func:`spill_runs`
    builds from text."""
    groups: dict[tuple[int, Any], tuple[Any, str, list[Record]]] = {}
    for key, value in pairs:
        sort_key = streaming_sort_key(key)
        group = groups.get(sort_key)
        if group is None:
            group = groups[sort_key] = key, kv_text(key), []
        text = kv_text(value)
        group[2].append((value, text, utf8_len(text)))
    return _sorted_groups(groups)


def run_text(run: list[Group]) -> str:
    """A run's lines, concatenated: filter stdin. Built with one
    ``join`` per group — the only place a pair's line is rendered — or,
    for the one-pair groups of post-combine runs, one format."""
    return "".join([
        f"{key_text}\t{records[0][1]}\n" if len(records) == 1 else
        f"{key_text}\t" + f"\n{key_text}\t".join([r[1] for r in records])
        + "\n"
        for _sort_key, _key, key_text, records, _nbytes in run])


def run_bytes(run: list[Group]) -> int:
    """UTF-8 bytes of a run's lines."""
    return sum([group[4] for group in run])


def run_pairs(run: list[Group]) -> int:
    """Pairs in a run."""
    return sum([len(group[3]) for group in run])


def flatten_run(run: list[Group]) -> list[tuple[Any, Any, str]]:
    """A run as ``(key, value, line)`` triples in run order: the
    per-pair view the tests compare with :func:`sort_kv_run`."""
    return [(key, value, f"{key_text}\t{text}\n")
            for _sort_key, key, key_text, records, _nbytes in run
            for value, text, _value_bytes in records]


def grouped_values(run: list[Group]) -> dict[Any, list[Any]]:
    """A merged run's values per key, keys in run order: the Python
    reducer's input."""
    grouped: dict[Any, list[Any]] = {}
    for _sort_key, key, _key_text, records, _nbytes in run:
        values = grouped.get(key)
        if values is None:
            values = grouped[key] = []
        values.extend([r[0] for r in records])
    return grouped


def merge_sorted_runs(runs: Iterable[list[Group]]) -> list[Group]:
    """K-way merge of sorted runs into one run whose flattening is
    byte-identical to ``sort_kv_run`` of the runs' concatenation.

    The identity holds because every run arrives sorted with one group
    per key and the merge is a *stable* sort on the groups' sort keys
    only: one key's groups from several runs end up adjacent in run
    order, and each keeps its arrival order — exactly the tie-break
    the full re-sort's enumeration index produced. Payloads are never
    compared, and a merge moves groups, not pairs.

    Implementation note: this is timsort over the concatenation rather
    than ``heapq.merge``. CPython's sort detects the presorted runs
    and gallops across them, and measured on the high-key-count apps'
    real shuffle data (TS/II/PR/RJ) it beats the heap merge by 2.5-4x
    and the decorate-and-fully-re-sort baseline by 2.6-9.5x; the heap
    merge only managed ~1.0-1.6x on the wide-key apps (TS, RJ).
    """
    merged: list[Group] = []
    for run in runs:
        merged.extend(run)
    merged.sort(key=_SORT_KEY)  # stable ⇒ ties keep run order
    return merged


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
    job's reduce timings are the same floats at every worker count.
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
