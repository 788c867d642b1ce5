"""Functional + timed execution of translated kernels (paper §4.1–4.2).

Map kernels: records are split statically across threadblocks; within a
block, threads either take a static round-robin share or *steal* records
from the block's pool through a shared-memory atomic counter (paper's
record stealing). Every active thread executes the translated region
with GPU-runtime builtins (``getRecord``/``emitKV``), emitting into its
portion of the global KV store, while per-lane charges accumulate into
warp costs for the timing model.

Combine kernels: each warp redundantly executes the combiner over a
contiguous chunk of a sorted partition (``getKV``/``storeKV``), trading
exact CPU-combiner equivalence for parallelism exactly as §4.2 sanctions —
chunk-boundary keys yield partial aggregates that the reducer repairs.

Lane bodies run on the process's engine — the one switch of
:func:`repro.minic.interpreter.current_engine`, three settings
(:mod:`repro.gpu.engine`): the shipped ``"vector"`` engine executes
divergence-free regions as numpy operations over all launch lanes and
falls back per lane to the ``"compiled"`` engine's per-launch generated
body, while ``"tree"`` (its lane runner is defined here) keeps the
original one-interpreter-per-lane harness, kernel helpers tree-walked
too, as the differential reference. A launch
asks its engine for one thing — ``run_map_warp`` over the active lanes,
or ``run_combine_chunk`` per warp — and every engine charges through
the same functions of :mod:`repro.gpu.charging`; the one map-launch
fold and the combine fold below turn those per-lane charges into
warp/block/grid time, so ``WarpCost``/``KernelCost`` are
engine-independent by construction.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

from ..compiler.kernel_ir import KernelIR, VarClass
from ..config import WARP_SIZE
from ..errors import GpuError, KVStoreOverflow
from ..kvstore import GlobalKVStore, KVPair, Partitioner
from ..minic import cast as A
from ..minic.interpreter import ExecCounters, Interpreter, current_engine
from ..minic.values import Buffer, Cell, Ptr, as_ptr
from ..obs import trace as obs
from .charging import LaneCharges
from .device import GpuDevice
from .engine import (
    CompiledLaneRunner,
    Lane,
    LaneRunner,
    clone_buffer as _clone_buffer,
    kernel_cell_factories,
    kernel_program,
    snapshot_value as _snapshot_value,
)
from .timing import KernelCost, TimingModel, WarpCost
from .vector import VectorLaneRunner

#: Extra issue slots charged per runtime-call dispatch (mapSetup etc.).
_SETUP_INSTR = 24.0

#: Smallest per-warp chunk in the combine kernel (see run_combine_kernel).
_MIN_COMBINE_CHUNK = 32


class GpuInterpreter(Interpreter):
    """Interpreter specialization that charges memory accesses by the
    target buffer's memory space (tree lane engine), built over the
    thread's :class:`~repro.gpu.engine.Lane`: it counts into the lane's
    counters, allocates on the lane's heap, calls the lane's builtin
    table and hands builtins the lane — the same context object the
    other engines' generated code passes. A lane only calls
    ``exec_stmt`` and ``call_function``, which always tree-walk: nothing
    a reference lane executes — kernel body or helper function — is
    generated code."""

    def __init__(self, program: A.Program, lane: Lane,
                 env: dict[str, Cell]):
        super().__init__(program, stdin="", builtins=lane.builtins)
        self.lane = lane
        self.counters = lane.counters
        self.heap = lane.heap
        self._scopes.append(env)  # this thread's kernel variables

    @property
    def _ctx(self) -> Lane:
        return self.lane

    def _eval_Index(self, expr: A.Index) -> Any:
        ptr = as_ptr(self.eval(expr.base))
        idx = int(self.eval(expr.index))
        if ptr.stride > 1:  # row of a flattened 2-D array
            return Ptr(ptr.buffer, ptr.offset + idx * ptr.stride, 1)
        self.counters.loads += 1
        lane = self.lane
        lane.charge(lane, ptr.buffer, False)
        return ptr.buffer.read(ptr.offset + idx)  # type: ignore[union-attr]

    def _eval_Assign(self, expr: A.Assign) -> Any:
        ref = self._lvalue(expr.target)
        value = self.eval(expr.value)
        if expr.op != "=":
            current = ref.deref()
            value = self._binop(expr.op[:-1], current, value)
        ref.store(value)
        self.counters.stores += 1
        lane = self.lane
        lane.charge(lane, ref.buffer if isinstance(ref, Ptr) else None, True)
        return ref.deref()


# --------------------------------------------------------------------------
# Environment construction
# --------------------------------------------------------------------------


def prepare_shared_ro(kernel: KernelIR, snapshot: dict[str, Any]) -> dict[str, Buffer]:
    """Device-resident copies of sharedRO/texture arrays (one per launch,
    shared by all threads)."""
    shared: dict[str, Buffer] = {}
    for var in kernel.vars_of(VarClass.GLOBAL_RO_ARRAY, VarClass.TEXTURE_ARRAY):
        host_val = _snapshot_value(snapshot, var)
        buf = host_val.buffer if isinstance(host_val, Ptr) else host_val
        if not isinstance(buf, Buffer):
            raise GpuError(f"sharedRO array {var.name!r} has no backing buffer")
        space = "texture" if var.klass is VarClass.TEXTURE_ARRAY else "global"
        shared[var.name] = _clone_buffer(buf, space)
    return shared


# --------------------------------------------------------------------------
# Lane engines
# --------------------------------------------------------------------------


class _TreeLaneRunner(LaneRunner):
    """Reference lane engine: one ``GpuInterpreter`` per lane tree-walks
    the kernel body, its scope filled from the thread-environment table
    the other engines plan with. Shares the builtin table, the charges
    and the :class:`~repro.gpu.engine.Lane` with the compiled engine
    too, so only the execution mechanism differs."""

    def _run_lane_body(self, lane: Lane) -> None:
        kernel = self.kernel
        factories = kernel_cell_factories(kernel, self.snapshot,
                                          self.shared_ro)
        GpuInterpreter(
            kernel_program(kernel), lane,
            {name: make() for name, make in factories.items()},
        ).exec_stmt(kernel.body)


_LANE_RUNNERS: dict[str, type[LaneRunner]] = {
    "compiled": CompiledLaneRunner,
    "tree": _TreeLaneRunner,
    "vector": VectorLaneRunner,
}


def _make_lane_runner(
    device: GpuDevice,
    kernel: KernelIR,
    snapshot: dict[str, Any],
    shared_ro: dict[str, Buffer],
    store: GlobalKVStore | None = None,
    partitioner: Partitioner | None = None,
) -> LaneRunner:
    """This launch's runner on the process's engine; its charges tally
    per-event counts into the active recorder's metrics only while one
    is enabled (costs are the same closures either way)."""
    rec = obs.active()
    return _LANE_RUNNERS[current_engine()](
        device, kernel, snapshot, shared_ro, store, partitioner,
        metrics=rec.metrics if rec.enabled else None,
    )


def _record_kernel_launch(name: str, device: GpuDevice, cost: KernelCost,
                          block_cycles: list[float],
                          args: dict[str, Any]) -> None:
    """One kernel span (plus its blocks laid out per SM) on the device
    timeline, fed from the launch's accumulated WarpCost totals."""
    rec = obs.active()
    if not rec.enabled:
        return
    spec = device.spec
    pid = f"gpu:{spec.name}"
    start = rec.cursor(pid, "kernels")
    totals = cost.totals
    rec.complete(name, "kernel", pid, "kernels", cost.seconds, ts=start,
                 args={
                     "blocks": cost.blocks, "warps": cost.warps,
                     "cycles": cost.cycles,
                     "warp_instructions": totals.instructions,
                     "global_txn": totals.global_txn,
                     "shared_accesses": totals.shared_accesses,
                     "shared_atomics": totals.shared_atomics,
                     "global_atomics": totals.global_atomics,
                     "texture_accesses": totals.texture_accesses,
                     **args,
                 })
    # Mirror TimingModel.grid_cycles' round-robin block → SM placement,
    # so the per-SM lanes show exactly the load imbalance that set the
    # kernel's duration (the busiest SM reaches the span's end).
    sm_end = [start] * spec.num_sms
    for i, cycles in enumerate(block_cycles):
        sm = i % spec.num_sms
        dur = device.cycles_to_seconds(cycles)
        rec.complete(f"block {i}", "gpu-block", pid, f"sm{sm}", dur,
                     ts=sm_end[sm], args={"cycles": cycles})
        sm_end[sm] += dur
    rec.inc("gpu.kernel_launches")
    rec.inc("gpu.warps", cost.warps)


# --------------------------------------------------------------------------
# Map kernel execution
# --------------------------------------------------------------------------


@dataclass
class MapLaunchResult:
    cost: KernelCost = field(default_factory=KernelCost)
    counters: ExecCounters = field(default_factory=ExecCounters)
    records_processed: int = 0
    steals: int = 0


def _assign_records_static(
    records: list[bytes], nthreads: int
) -> list[list[bytes]]:
    """Static round-robin record distribution within a block."""
    lanes: list[list[bytes]] = [[] for _ in range(nthreads)]
    for i, rec in enumerate(records):
        lanes[i % nthreads].append(rec)
    return lanes


def _assign_records_stealing(
    records: list[bytes], nthreads: int, capacity_per_thread: int,
    kv_bound: int | None,
) -> tuple[list[list[bytes]], int]:
    """Deterministic emulation of intra-block record stealing: each grab
    goes to the thread that will become free soonest (least accumulated
    record bytes — the runtime's proxy for work). Returns (assignment,
    number of atomic grabs)."""
    if nthreads <= 0:
        raise GpuError("no threads in block")
    lanes: list[list[bytes]] = [[] for _ in range(nthreads)]
    # (accumulated_bytes, thread_id, records_taken)
    heap: list[tuple[int, int]] = [(0, t) for t in range(nthreads)]
    heapq.heapify(heap)
    taken = [0] * nthreads
    steals = 0
    bound = capacity_per_thread if kv_bound is None else max(
        1, capacity_per_thread // max(kv_bound, 1)
    )
    for rec in records:
        while heap:
            load, tid = heapq.heappop(heap)
            if taken[tid] < bound:
                lanes[tid].append(rec)
                taken[tid] += 1
                steals += 1
                heapq.heappush(heap, (load + len(rec), tid))
                break
        else:
            raise KVStoreOverflow(
                "all threads in a block exhausted their KV store portions "
                "while records remain; increase kvpairs or store capacity"
            )
    return lanes, steals


def _chunk_blocks(records: list[bytes], blocks: int) -> list[list[bytes]]:
    """Static, equal split of the fileSplit's records across threadblocks."""
    per = (len(records) + blocks - 1) // max(blocks, 1)
    return [records[i * per : (i + 1) * per] for i in range(blocks)]


def _run_map_launch(
    device: GpuDevice,
    kernel: KernelIR,
    records: list[bytes],
    snapshot: dict[str, Any],
    store: GlobalKVStore,
    partitioner: Partitioner,
    global_counter: bool,
) -> MapLaunchResult:
    """Assign records to threads, run the active lanes, fold their
    charges into warp/block/grid time.

    ``global_counter`` selects the record-stealing design: False is the
    paper's (records split statically across threadblocks, then stolen —
    or dealt round-robin — within each block); True is the one it
    rejects (:func:`run_map_kernel_global_stealing`). They differ in the
    assignment, in which atomic a steal is charged as, and in the
    contention term — nothing else."""
    if not kernel.is_mapper:
        raise GpuError("a map launch requires a mapper kernel")
    device.check_launch(kernel)
    spec = device.spec
    timing = TimingModel(spec)
    launch = kernel.launch
    shared_ro = prepare_shared_ro(kernel, snapshot)
    runner = _make_lane_runner(device, kernel, snapshot, shared_ro,
                               store, partitioner)

    # lanes[global tid] = the records that thread processes.
    if global_counter:
        # One queue for the whole grid: records balance across ALL
        # threads (the global queue's steady-state effect).
        lanes, steals = _assign_records_stealing(
            records, launch.total_threads, store.stores_per_thread,
            kernel.kvpairs_per_record,
        )
    else:
        lanes, steals = [], 0
        for block_records in _chunk_blocks(records, launch.blocks):
            if kernel.opt.record_stealing:
                block_lanes, block_steals = _assign_records_stealing(
                    block_records, launch.threads, store.stores_per_thread,
                    kernel.kvpairs_per_record,
                )
                steals += block_steals
            else:
                block_lanes = _assign_records_static(block_records,
                                                     launch.threads)
            lanes.extend(block_lanes)

    # Every active lane of the launch in one runner call, so a vectorized
    # region can span the whole grid; the fold below is engine-blind.
    batch = [(recs, tid, LaneCharges(instructions=_SETUP_INSTR))
             for tid, recs in enumerate(lanes) if recs]
    ran: dict[int, tuple[LaneCharges, ExecCounters]] = {}
    if batch:  # an empty split runs nothing — and counts no fallback
        for (_recs, tid, charges), counters in zip(
                batch, runner.run_map_warp(batch)):
            ran[tid] = (charges, counters)

    result = MapLaunchResult(steals=steals)
    block_cycles: list[float] = []
    for base in range(0, launch.total_threads, launch.threads):
        warp_costs: list[WarpCost] = []
        lane_critical_path = 0.0
        for warp_start in range(0, launch.threads, WARP_SIZE):
            lane_instr: list[float] = []
            wc = WarpCost()
            warp_end = base + min(warp_start + WARP_SIZE, launch.threads)
            for tid in range(base + warp_start, warp_end):
                lane = ran.get(tid)
                if lane is None:  # idle: only the dispatch is issued
                    lane_instr.append(_SETUP_INSTR)
                    continue
                charges, counters = lane
                if global_counter:
                    # Every steal hit the global counter, not a shared one.
                    charges.global_atomics += charges.shared_atomics
                    charges.shared_atomics = 0.0
                result.counters.add(counters)
                result.records_processed += len(lanes[tid])
                issue = (
                    charges.instructions
                    + counters.ops
                    + counters.branches
                    + 2.0 * counters.fp_ops
                )
                lane_instr.append(issue)
                # A thread's own record stream is a serial dependency
                # chain: its memory accesses pipeline (factor ~4) but
                # cannot overlap with each other the way accesses from
                # *different* threads can. This per-lane critical path
                # is exactly what record stealing shortens (Fig. 7d).
                lane_critical_path = max(
                    lane_critical_path,
                    issue * spec.issue_cycles
                    + charges.global_txn * spec.global_mem_cycles / 4.0,
                )
                wc.global_txn += charges.global_txn
                wc.shared_accesses += charges.shared_accesses
                wc.shared_atomics += charges.shared_atomics
                wc.global_atomics += charges.global_atomics
                wc.texture_accesses += charges.texture_accesses
            wc.instructions = timing.divergent_issue(lane_instr)
            warp_costs.append(wc)
            result.cost.totals.add(wc)
            result.cost.warps += 1
        block_cycles.append(
            max(timing.block_cycles(warp_costs), lane_critical_path)
        )
        result.cost.blocks += 1

    result.cost.cycles = timing.grid_cycles(block_cycles)
    if global_counter:
        # All steals hit ONE global counter: atomics on the same address
        # serialize device-wide, an unhideable critical section — the
        # precise overhead the paper's block-local scheme avoids.
        result.cost.cycles += steals * spec.global_atomic_cycles
    result.cost.seconds = device.cycles_to_seconds(result.cost.cycles)
    _record_kernel_launch(
        f"map_kernel{'[global-stealing]' if global_counter else ''} "
        f"{kernel.name}", device, result.cost, block_cycles,
        {"records": result.records_processed, "steals": result.steals},
    )
    return result


def run_map_kernel(
    device: GpuDevice,
    kernel: KernelIR,
    records: list[bytes],
    snapshot: dict[str, Any],
    store: GlobalKVStore,
    partitioner: Partitioner,
) -> MapLaunchResult:
    """Execute the map kernel over one fileSplit's records."""
    return _run_map_launch(device, kernel, records, snapshot, store,
                           partitioner, global_counter=False)


def run_map_kernel_global_stealing(
    device: GpuDevice,
    kernel: KernelIR,
    records: list[bytes],
    snapshot: dict[str, Any],
    store: GlobalKVStore,
    partitioner: Partitioner,
) -> MapLaunchResult:
    """The design the paper REJECTS (§4.1): one *global* record counter
    shared by every threadblock. Distribution is perfectly balanced
    device-wide, but every steal is a global atomic — 'a global
    work-stealing approach would incur high overheads, due to excessive
    atomic accesses by the GPU threads'. Provided for the DESIGN.md §6
    ablation that shows the paper's block-local scheme wins.
    """
    return _run_map_launch(device, kernel, records, snapshot, store,
                           partitioner, global_counter=True)


# --------------------------------------------------------------------------
# Combine kernel execution
# --------------------------------------------------------------------------


@dataclass
class CombineLaunchResult:
    output: list[tuple[Any, Any]] = field(default_factory=list)
    cost: KernelCost = field(default_factory=KernelCost)
    counters: ExecCounters = field(default_factory=ExecCounters)
    chunks: int = 0


def run_combine_kernel(
    device: GpuDevice,
    kernel: KernelIR,
    partition_pairs: list[KVPair],
    snapshot: dict[str, Any],
) -> CombineLaunchResult:
    """Execute the combine kernel over one sorted partition.

    Each warp takes a contiguous chunk; all lanes execute redundantly
    (functionally we run the chunk once and charge redundant issue), with
    warp-cooperative vectorized KV movement when enabled.
    """
    if not kernel.is_combiner:
        raise GpuError("run_combine_kernel requires a combiner kernel")
    device.check_launch(kernel)
    timing = TimingModel(device.spec)
    launch = kernel.launch
    total_warps = launch.blocks * (launch.threads // WARP_SIZE)
    shared_ro = prepare_shared_ro(kernel, snapshot)

    result = CombineLaunchResult()
    n = len(partition_pairs)
    if n == 0:
        return result
    runner = _make_lane_runner(device, kernel, snapshot, shared_ro)
    # kvsPerThread = partition size / warp count, floored so tiny
    # partitions use few warps instead of one-pair chunks (launching a
    # full grid for a handful of pairs would only manufacture partials).
    chunk_size = max(_MIN_COMBINE_CHUNK, (n + total_warps - 1) // total_warps)
    chunks = [
        partition_pairs[i : i + chunk_size] for i in range(0, n, chunk_size)
    ]
    result.chunks = len(chunks)

    warps_per_block = launch.threads // WARP_SIZE
    block_warp_costs: dict[int, list[WarpCost]] = {}
    for chunk_id, chunk in enumerate(chunks):
        block_id = chunk_id // warps_per_block
        charges = LaneCharges(instructions=_SETUP_INSTR)
        counters, out = runner.run_combine_chunk(chunk, charges)
        result.counters.add(counters)
        result.output.extend(out)
        wc = WarpCost(
            instructions=charges.instructions + counters.ops + counters.branches
            + 2.0 * counters.fp_ops,
            global_txn=charges.global_txn,
            shared_accesses=charges.shared_accesses,
            shared_atomics=charges.shared_atomics,
            global_atomics=charges.global_atomics,
            texture_accesses=charges.texture_accesses,
        )
        block_warp_costs.setdefault(block_id, []).append(wc)
        result.cost.totals.add(wc)
        result.cost.warps += 1

    block_cycles = [timing.block_cycles(wcs) for wcs in block_warp_costs.values()]
    result.cost.blocks = len(block_cycles)
    result.cost.cycles = timing.grid_cycles(block_cycles)
    result.cost.seconds = device.cycles_to_seconds(result.cost.cycles)
    _record_kernel_launch(
        f"combine_kernel {kernel.name}", device, result.cost, block_cycles,
        {"pairs_in": n, "pairs_out": len(result.output),
         "chunks": result.chunks},
    )
    return result
