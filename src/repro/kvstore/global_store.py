"""The global KV store (paper §4.1, §4.3).

Every map thread owns a fixed portion of a central device-resident store
(``storesPerThread`` slots); ``emitKV`` appends into the owner's portion.
Threads rarely fill their portions exactly, leaving *whitespaces* — empty
slots interleaved with live pairs — which the aggregation pass removes
via the indirection array before sorting.

The simulator keeps the live pairs densely (a per-thread Python list) and
tracks capacity arithmetically; materializing billions of empty slots
would model nothing the timing model doesn't already capture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from ..errors import GpuError, KVStoreOverflow


@dataclass(frozen=True)
class KVPair:
    key: Any
    value: Any
    partition: int


class GlobalKVStore:
    """Per-thread partitioned KV storage for one map kernel launch.

    Parameters
    ----------
    total_threads:
        Threads in the launch grid (blocks × threads).
    capacity_pairs:
        Total KV slots allocated. Without the ``kvpairs`` clause the host
        allocates *all free GPU memory* (paper §3.2), so this is typically
        a vast over-allocation; with the clause it is
        ``records × kvpairs_per_record``.
    key_length / value_length:
        Slot byte sizes (from the directive / derived types).
    """

    def __init__(
        self,
        total_threads: int,
        capacity_pairs: int,
        key_length: int,
        value_length: int,
    ):
        if total_threads <= 0:
            raise GpuError("KV store needs a positive thread count")
        if capacity_pairs < total_threads:
            raise GpuError(
                f"KV store capacity {capacity_pairs} smaller than one slot "
                f"per thread ({total_threads})"
            )
        self.total_threads = total_threads
        self.capacity_pairs = capacity_pairs
        self.stores_per_thread = capacity_pairs // total_threads
        self.key_length = key_length
        self.value_length = value_length
        self._slots: list[list[KVPair]] = [[] for _ in range(total_threads)]

    # -- emit path (device side) --------------------------------------------

    def emit(self, thread_id: int, key: Any, value: Any, partition: int) -> None:
        if not 0 <= thread_id < self.total_threads:
            raise GpuError(f"bad thread id {thread_id}")
        portion = self._slots[thread_id]
        if len(portion) >= self.stores_per_thread:
            raise KVStoreOverflow(
                f"thread {thread_id} exceeded its {self.stores_per_thread} "
                f"slots in the global KV store"
            )
        portion.append(KVPair(key, value, partition))

    def remaining_capacity(self, thread_id: int) -> int:
        """Slots left in a thread's portion — bounds how many more records
        the thread may steal (paper §4.1: 'The maximum record stealing that
        a thread can perform is limited by the storesPerThread')."""
        return self.stores_per_thread - len(self._slots[thread_id])

    # -- inspection ------------------------------------------------------------

    @property
    def emitted_pairs(self) -> int:
        return sum(len(p) for p in self._slots)

    @property
    def whitespace_slots(self) -> int:
        """Empty slots interleaved within the occupied per-thread span."""
        return self.capacity_pairs - self.emitted_pairs

    @property
    def occupancy(self) -> float:
        return self.emitted_pairs / self.capacity_pairs

    def per_thread_counts(self) -> list[int]:
        """devKvCount: pairs emitted by each thread (input to the scan)."""
        return [len(p) for p in self._slots]

    def iter_pairs(self) -> Iterator[tuple[int, KVPair]]:
        """(thread_id, pair) in per-thread slot order — the physical layout
        an unaggregated sort would traverse."""
        for tid, portion in enumerate(self._slots):
            for pair in portion:
                yield tid, pair

    def allocated_bytes(self) -> int:
        slot = self.key_length + self.value_length + 4  # +4: indexArray entry
        return self.capacity_pairs * slot
