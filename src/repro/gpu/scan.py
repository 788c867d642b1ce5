"""Parallel prefix-sum (scan) cost model (paper §5.3, citing Sengupta et
al.'s GPU scan primitives).

The functional result is numpy's cumsum (in :mod:`repro.kvstore.
aggregation`); here we charge the work-efficient scan's device cost:
``2n`` shared-memory element operations spread over the SM array plus a
log-depth tree of block-level combines.
"""

from __future__ import annotations

import math

from ..config import WARP_SIZE, GpuSpec
from .timing import MAX_MLP


def scan_cycles(n: int, spec: GpuSpec, elems_per_block: int = 1024) -> float:
    """Cycles for an exclusive scan of ``n`` elements."""
    if n <= 0:
        return 0.0
    blocks = max(1, (n + elems_per_block - 1) // elems_per_block)
    # Up-sweep + down-sweep: ~2 shared accesses and 2 ops per element.
    per_block = 2.0 * elems_per_block * (spec.shared_mem_cycles + spec.issue_cycles) \
        / min(float(elems_per_block // WARP_SIZE) or 1.0, MAX_MLP)
    # Block sums combined in a log-depth second pass through global memory.
    tree = math.ceil(math.log2(blocks + 1)) * spec.global_mem_cycles
    rounds = math.ceil(blocks / spec.num_sms)
    return rounds * per_block + tree


def reindex_cycles(pairs: int, spec: GpuSpec) -> float:
    """Cycles for rewriting the indirection array (one coalesced read +
    write of a 4-byte entry per pair, spread over the device)."""
    if pairs <= 0:
        return 0.0
    txns = 2.0 * pairs * 4.0 / spec.transaction_bytes
    parallel = spec.num_sms * MAX_MLP
    return txns * spec.global_mem_cycles / parallel
