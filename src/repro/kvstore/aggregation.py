"""Scan-based KV pair aggregation (paper §5.3 'Performing Partition
Aggregation').

After the map kernel, each partition's pairs are scattered across the
per-thread portions of the global KV store. A parallel prefix sum over
the per-thread emission counts yields each thread's output base; a second
kernel rewrites the indirection array so every partition becomes a dense,
contiguous index range — without moving any key/value bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .global_store import GlobalKVStore, KVPair


@dataclass
class AggregationResult:
    """Functional output + the quantities the timing model charges."""

    partitions: dict[int, list[KVPair]] = field(default_factory=dict)
    pairs_moved: int = 0            # indirection entries rewritten
    scan_elements: int = 0          # per-thread counts scanned
    span_before: int = 0            # slots a sort would traverse unaggregated
    span_after: int = 0             # dense size after aggregation

    def partition_list(self, partition: int) -> list[KVPair]:
        return self.partitions.get(partition, [])


def _by_partition(store: GlobalKVStore,
                  num_partitions: int) -> dict[int, list[KVPair]]:
    """Every emitted pair under its partition, in per-thread slot order."""
    partitions: dict[int, list[KVPair]] = {p: [] for p in range(num_partitions)}
    for _tid, pair in store.iter_pairs():
        partitions.setdefault(pair.partition, []).append(pair)
    return partitions


def aggregate(store: GlobalKVStore, num_partitions: int) -> AggregationResult:
    """Compact every partition of the store.

    On the device this is the prefix sum over the per-thread counts
    (each thread's base offset in the dense store) plus the indirection
    rewrite; functionally it is the grouping below. The discrete-event
    cost is charged by the caller from ``scan_elements`` and
    ``pairs_moved``.
    """
    emitted = store.emitted_pairs
    return AggregationResult(
        partitions=_by_partition(store, num_partitions),
        pairs_moved=emitted,
        scan_elements=store.total_threads,
        span_before=store.capacity_pairs,
        span_after=emitted,
    )


def scattered_partitions(
    store: GlobalKVStore, num_partitions: int
) -> AggregationResult:
    """The *unaggregated* view (Fig. 7e ablation): pairs grouped by
    partition but the sort must traverse the full allocated span,
    whitespace included."""
    return AggregationResult(
        partitions=_by_partition(store, num_partitions),
        pairs_moved=0,
        scan_elements=0,
        span_before=store.capacity_pairs,
        span_after=store.capacity_pairs,
    )
