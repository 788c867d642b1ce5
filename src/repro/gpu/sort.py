"""GPU merge sort with indirection (paper §5.3 "Intermediate Sort").

HeteroDoop modifies Satish et al.'s GPU merge sort to sort *indices* into
the global KV store rather than the KV bytes themselves — variable-length
keys never move in device memory. The functional result is a stable sort
of each partition's pairs by key; the cost model charges:

* ``N log2 N`` comparisons, each touching both keys through the
  indirection array (random global reads, softened by caching),
* ``N log2 N`` 4-byte index moves (coalesced),

where **N is the span the sort traverses**: the dense pair count when the
aggregation pass ran, or the full allocated per-thread span (whitespace
included) when it did not — which is exactly why Fig. 7e's aggregation
ablation moves the sort kernel by up to 7.6×.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from ..config import GpuSpec
from ..kvstore import KVPair

#: Comparison key reads go through the index array, so locality degrades
#: with key length: short (int) keys ride the cache, long string keys
#: mostly miss. Miss rate = _MISS_BASE + key_length/_MISS_PER_BYTE,
#: capped at _MISS_CAP.
_MISS_BASE = 0.08
_MISS_PER_BYTE = 64.0
_MISS_CAP = 0.6


def _key_miss_rate(key_length: int) -> float:
    return min(_MISS_CAP, _MISS_BASE + key_length / _MISS_PER_BYTE)


def _key_rank(key: Any) -> tuple[int, Any]:
    """Total order across the key types kernels can emit."""
    if isinstance(key, bool):
        return (0, int(key))
    if isinstance(key, (int, float)):
        return (0, float(key))
    return (1, str(key))


@dataclass
class SortResult:
    pairs: list[KVPair]
    span: int                 # elements the device sort traversed
    comparisons: float
    cycles: float
    seconds: float


def sort_partition(
    pairs: list[KVPair],
    span: int,
    key_length: int,
    spec: GpuSpec,
) -> SortResult:
    """Sort one partition by key (stable), charging device cycles for a
    traversal of ``span`` elements (≥ len(pairs) when unaggregated)."""
    ordered = sorted(pairs, key=lambda p: _key_rank(p.key))
    n = max(span, 1)
    comparisons = n * max(1.0, math.log2(n))
    key_txn = max(1.0, key_length / spec.transaction_bytes)
    cmp_cycles = comparisons * (
        2.0 * _key_miss_rate(key_length) * key_txn * spec.global_mem_cycles
        + 4.0 * spec.issue_cycles
    )
    move_cycles = comparisons * (4.0 / spec.transaction_bytes) * spec.global_mem_cycles
    # Merge sort parallelizes poorly in its final (wide, dependent) merge
    # passes; effective parallelism is well below the full SM array × MLP.
    parallel = float(spec.num_sms)
    cycles = (cmp_cycles + move_cycles) / parallel
    return SortResult(
        pairs=ordered,
        span=span,
        comparisons=comparisons,
        cycles=cycles,
        seconds=cycles * spec.cycle_time_s,
    )
