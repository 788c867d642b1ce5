"""The GPU cost model's per-lane charges, each written once.

Every cost a simulated thread (lane) incurs besides its mini-C
operation counts is one of six events: an array-element access, a
``getRecord`` read, an ``emitKV`` store, a ``getKV``/``storeKV`` move, a
device math-library call, a device string-library call. This module
holds the calibrated HeteroDoop formula for each (paper §4.1–4.2, the
Fig. 7 mechanisms). Four have launch constants (transaction width, KV
record size, vector width, stealing mode) and are *binders*: called
once per launch, each returns the closure the launch's builtins invoke
per event with the executing lane's charges. An element access and a
math call have none and are plain functions (:func:`access` reads the
charges off the lane it is handed). Nothing here captures per-lane
state. All three lane engines (:mod:`repro.gpu.engine`) charge through
the same functions, so identical ``WarpCost``/``KernelCost`` across
engines is structural; the vector engine, which folds a region's
charges statically instead of calling per event, imports the constants
below.

Tracing adds event tallies, never cost: :func:`counted` wraps a bound
closure only while a recorder is enabled, so the untraced hot path
calls the bare formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

# The issue-slot constants are whole numbers on purpose: the vector
# engine adds a region's slots up as integers before charging them, which
# is only bit-identical to per-event float adds for integral increments.

#: Issue slots per private/local (register-speed) element access.
PRIVATE_ACCESS_INSTR = 1.0
#: Issue slots per element access that goes through a cache (texture or
#: global): address arithmetic plus the load/store itself.
CACHED_ACCESS_INSTR = 2.0
#: Texture accesses charged per element read of a texture array — the
#: miss fraction of the dedicated on-chip texture cache, where small
#: tables stay resident.
TEXTURE_MISS_CHARGE = 0.02
#: Global transactions charged per element access of a global array:
#: random global element reads miss far more often.
GLOBAL_MISS_CHARGE = 0.08
#: Issue slots charged per device math-library call (__expf etc. are
#: multi-instruction SFU sequences).
MATH_CALL_INSTR = 8.0
#: Floating-point operations one math-library call counts for.
MATH_CALL_FP_OPS = 4


@dataclass
class LaneCharges:
    """Per-thread (lane) cost events; folded into WarpCost per warp."""

    instructions: float = 0.0
    global_txn: float = 0.0
    shared_accesses: float = 0.0
    shared_atomics: float = 0.0
    global_atomics: float = 0.0
    texture_accesses: float = 0.0


def access(lane: Any, buffer: Any, is_store: bool) -> None:
    """One array-element load/store by ``lane``, charged by the buffer's
    memory space to ``lane.charges``.

    Per-element accesses are throughput costs, not bare latencies: loops
    over cached arrays pipeline, so most of the cost lands in the issue
    domain (which divergence and load balance modulate) with only the
    cache-miss fraction paying a transaction. This is the hottest charge
    in any kernel — every scalar assign and array element lands here."""
    charges = lane.charges
    if buffer is not None:
        space = getattr(buffer, "space", None)
        if space == "texture":
            charges.instructions += CACHED_ACCESS_INSTR
            charges.texture_accesses += TEXTURE_MISS_CHARGE
            return
        if space == "global":
            charges.instructions += CACHED_ACCESS_INSTR
            charges.global_txn += GLOBAL_MISS_CHARGE
            return
        if space == "shared":
            charges.shared_accesses += 1.0
            return
    # No buffer (a scalar) or a private/local array: register-speed.
    charges.instructions += PRIVATE_ACCESS_INSTR


def bind_record_read(txn_bytes: int,
                     stealing: bool) -> Callable[[Any, Any, int], None]:
    """``getRecord``: one input record pulled into the lane.

    The record is read from the device input buffer. Each lane's record
    is a *sequential* byte stream: hardware prefetching hides much of
    the latency, so part of the cost is issue-side work (byte handling)
    proportional to the record length — which is what record stealing
    balances. Charged: the steal's shared-memory atomic, a latency
    component (amortized over many in-flight requests), and
    DRAM-throughput cycles as issue-side work."""
    txn_denom = 8.0 * txn_bytes

    def charge(charges: LaneCharges, counters: Any, nbytes: int) -> None:
        if stealing:
            charges.shared_atomics += 1.0
        charges.global_txn += max(0.25, nbytes / txn_denom)
        charges.instructions += nbytes / 8.0 + nbytes / 64.0
        counters.bytes_in += nbytes

    return charge


def bind_kv_emit(nbytes: int, vec: int) -> Callable[[Any, Any], None]:
    """``emitKV``: one pair written to the global KV store.

    Vectorized stores cut the issue count by the vector width; the
    per-thread store stream write-combines, so the latency component is
    amortized and shrinks up to 2x with wider accesses."""
    instr = nbytes / vec
    txn = max(0.25, nbytes / (16.0 * min(vec, 2)))

    def charge(charges: LaneCharges, counters: Any) -> None:
        counters.bytes_out += nbytes
        charges.instructions += instr
        charges.global_txn += txn

    return charge


def bind_kv_move(kv_bytes: int, txn_bytes: int, vec: int,
                 cooperative: bool) -> Callable[[Any], None]:
    """``getKV``/``storeKV``: one pair moved through global memory."""
    if cooperative:
        # Lane-per-element cooperative move: coalesced transactions.
        txn = max(1.0, kv_bytes / txn_bytes)
        instr = max(1.0, kv_bytes / (4.0 * vec))
    else:
        # Single active lane, word-at-a-time (uncoalesced).
        txn = max(1.0, kv_bytes / 8.0)
        instr = kv_bytes / 2.0

    def charge(charges: LaneCharges) -> None:
        charges.global_txn += txn
        charges.instructions += instr

    return charge


def math_call(charges: LaneCharges, counters: Any) -> None:
    """One device math-library call."""
    charges.instructions += MATH_CALL_INSTR
    counters.fp_ops += MATH_CALL_FP_OPS


def bind_string_call(vec: int) -> Callable[[Any, int], None]:
    """One device string-library call over ``length`` chars; vectorized
    string ops move char4 at a time (paper §4.1)."""
    denom = max(vec, 1)

    def charge(charges: LaneCharges, length: int) -> None:
        charges.instructions += max(1.0, length / denom)

    return charge


def counted(charge: Callable[..., None], metrics: Any,
            metric: str) -> Callable[..., None]:
    """``charge`` itself when ``metrics`` is None (no recorder enabled);
    else a wrapper that tallies one ``metric`` event into ``metrics``
    (a ``repro.obs.MetricsRegistry``, or anything with ``inc``) per
    call. Costs are untouched, so a traced launch charges bit-identical
    ``WarpCost``/``KernelCost`` to an untraced one."""
    if metrics is None:
        return charge
    inc = metrics.inc

    def counting(*args: Any) -> None:
        inc(metric)
        charge(*args)

    return counting
