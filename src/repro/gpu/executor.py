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

Lane bodies run on one of three engines (:mod:`repro.gpu.engine`): the
shipped ``"vector"`` engine executes divergence-free regions as numpy
operations over all launch lanes and falls back per lane to the
``"compiled"`` engine's per-launch generated body, while the
``"tree"`` engine keeps the original one-interpreter-per-lane harness as
the differential reference. All charge costs through the same
:class:`~repro.gpu.charging.ChargeHook`; the warp/block/grid timing
folds below are shared, so ``WarpCost``/``KernelCost`` are
engine-independent by construction.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

from ..compiler.kernel_ir import KernelIR, VarClass, VarInfo
from ..errors import GpuError, KVStoreOverflow
from ..kvstore import GlobalKVStore, KVPair, Partitioner
from ..minic import cast as A
from ..minic import ctypes as T
from ..minic.interpreter import ExecCounters, Interpreter
from ..minic.values import Buffer, NULL, Ptr
from ..obs import trace as obs
from .charging import (
    ChargeHook,
    CountingChargeHook,
    DEFAULT_CHARGE_HOOK,
    LaneCharges,
)
from .device import GpuDevice
from .engine import (
    CompiledLaneRunner,
    LaneState,
    check_gpu_engine,
    clone_buffer as _clone_buffer,
    default_gpu_engine,
    kernel_program,
    make_combine_builtins,
    make_map_builtins,
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
    target buffer's memory space (tree lane engine)."""

    def __init__(self, program: A.Program, builtins: dict,
                 charges: LaneCharges,
                 hook: ChargeHook = DEFAULT_CHARGE_HOOK):
        super().__init__(program, stdin="", builtins=builtins)
        self.charges = charges
        # An instance attribute, not a method: the same hook-bound closure
        # shape the compiled engine's facade carries, so the mini-C
        # compiled backend picks up charging uniformly from either.
        self._charge_access = hook.bind_charges(charges)

    def _eval_Index(self, expr: A.Index) -> Any:
        ptr = self._as_ptr(self.eval(expr.base))
        idx = int(self.eval(expr.index))
        if ptr.stride > 1:  # row of a flattened 2-D array
            return Ptr(ptr.buffer, ptr.offset + idx * ptr.stride, 1)
        self.counters.loads += 1
        self._charge_access(ptr.buffer, is_store=False)
        return ptr.buffer.read(ptr.offset + idx)  # type: ignore[union-attr]

    def _eval_Assign(self, expr: A.Assign) -> Any:
        ref = self._lvalue(expr.target)
        value = self.eval(expr.value)
        if expr.op != "=":
            current = ref.deref()
            value = self._binop(expr.op[:-1], current, value)
        ref.store(value)
        self.counters.stores += 1
        buffer = ref.buffer if isinstance(ref, Ptr) else None
        self._charge_access(buffer, is_store=True)
        return ref.deref()


# --------------------------------------------------------------------------
# Environment construction
# --------------------------------------------------------------------------


def build_thread_env(
    interp: Interpreter,
    kernel: KernelIR,
    snapshot: dict[str, Any],
    shared_ro_buffers: dict[str, Buffer],
) -> None:
    """Populate a thread's scope per Algorithm 1 placement decisions."""
    interp.push_scope()
    for var in kernel.variables.values():
        kname = var.kernel_name
        if var.klass is VarClass.CONST_SCALAR:
            value = _snapshot_value(snapshot, var)
            interp.declare(kname, var.ctype, value=value)
        elif var.klass in (VarClass.GLOBAL_RO_ARRAY, VarClass.TEXTURE_ARRAY):
            interp.declare(kname, T.Pointer(T.VOID),
                           value=Ptr(shared_ro_buffers[var.name], 0))
        elif var.klass is VarClass.FIRSTPRIVATE_SCALAR:
            interp.declare(kname, var.ctype, value=_snapshot_value(snapshot, var))
        elif var.klass in (VarClass.FIRSTPRIVATE_ARRAY, VarClass.SHARED_ARRAY):
            host_val = snapshot.get(var.name)
            space = "shared" if var.klass is VarClass.SHARED_ARRAY else "private"
            if isinstance(host_val, Buffer):
                interp.declare(kname, T.Pointer(T.VOID),
                               value=Ptr(_clone_buffer(host_val, space), 0))
            elif isinstance(host_val, Ptr) and host_val.buffer is not None:
                interp.declare(kname, T.Pointer(T.VOID),
                               value=Ptr(_clone_buffer(host_val.buffer, space), 0))
            elif isinstance(var.ctype, T.Array):
                cell = interp.declare(kname, var.ctype)
                cell.value.space = space
                if host_val is not None:
                    raise GpuError(
                        f"cannot initialize firstprivate array {var.name!r} "
                        f"from {type(host_val).__name__}"
                    )
            else:
                interp.declare(kname, var.ctype,
                               value=host_val if host_val is not None else 0)
        else:  # PRIVATE
            if isinstance(var.ctype, T.Array):
                cell = interp.declare(kname, var.ctype)
                cell.value.space = "private"
            elif var.ctype.is_pointer:
                interp.declare(kname, var.ctype, value=NULL)
            else:
                interp.declare(kname, var.ctype)


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


class _TreeLaneRunner:
    """Reference lane engine: one ``GpuInterpreter`` per lane, with the
    thread environment rebuilt through scope dicts. Shares the builtin
    factories (and thus the charge hook) with the compiled engine, so
    only the execution mechanism differs."""

    def __init__(
        self,
        device: GpuDevice,
        kernel: KernelIR,
        snapshot: dict[str, Any],
        shared_ro: dict[str, Buffer],
        store: GlobalKVStore | None = None,
        partitioner: Partitioner | None = None,
        hook: ChargeHook = DEFAULT_CHARGE_HOOK,
    ):
        self.device = device
        self.kernel = kernel
        self.snapshot = snapshot
        self.shared_ro = shared_ro
        self.store = store
        self.partitioner = partitioner
        self.hook = hook
        self.program = kernel_program(kernel)

    def _run_lane(self, state: LaneState,
                  charges: LaneCharges) -> ExecCounters:
        kernel = self.kernel
        if kernel.is_mapper:
            builtins = make_map_builtins(kernel, self.device, self.hook,
                                         state, self.store, self.partitioner)
        else:
            builtins = make_combine_builtins(kernel, self.device, self.hook,
                                             state)
        interp = GpuInterpreter(self.program, builtins, charges,
                                hook=self.hook)
        build_thread_env(interp, kernel, self.snapshot, self.shared_ro)
        try:
            interp.exec_stmt(kernel.body)
        finally:
            interp.pop_scope()
        return interp.counters

    def run_map_lane(self, thread_records: list[bytes], global_tid: int,
                     charges: LaneCharges) -> ExecCounters:
        state = LaneState()
        state.records = thread_records
        state.charges = charges
        state.global_tid = global_tid
        return self._run_lane(state, charges)

    def run_combine_chunk(
        self, chunk: list[KVPair], charges: LaneCharges
    ) -> tuple[ExecCounters, list[tuple[Any, Any]]]:
        state = LaneState()
        state.chunk = chunk
        state.charges = charges
        state.output = out = []
        counters = self._run_lane(state, charges)
        return counters, out


def _make_lane_runner(
    engine: str | None,
    device: GpuDevice,
    kernel: KernelIR,
    snapshot: dict[str, Any],
    shared_ro: dict[str, Buffer],
    store: GlobalKVStore | None = None,
    partitioner: Partitioner | None = None,
):
    name = check_gpu_engine(engine if engine is not None
                            else default_gpu_engine())
    cls = {
        "compiled": CompiledLaneRunner,
        "tree": _TreeLaneRunner,
        "vector": VectorLaneRunner,
    }[name]
    hook: ChargeHook = DEFAULT_CHARGE_HOOK
    rec = obs.active()
    if rec.enabled:
        # Per-launch event tallies; cost formulas (and thus the compiled
        # kernel-body cache key) are untouched.
        hook = CountingChargeHook(DEFAULT_CHARGE_HOOK, rec.metrics)
    return cls(device, kernel, snapshot, shared_ro, store, partitioner,
               hook=hook)


def _record_kernel_launch(name: str, device: GpuDevice, cost: KernelCost,
                          block_cycles: list[float],
                          args: dict[str, Any]) -> None:
    """One kernel span (plus its blocks laid out per SM) on the device
    timeline, fed from the ChargeHook-accumulated WarpCost totals."""
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


def _warp_prerun(
    runner: Any, lanes: list[list[bytes]], base: int
) -> dict[int, tuple[LaneCharges, ExecCounters]] | None:
    """Batch active lanes through the runner's warp path.

    Runners exposing ``run_map_warp`` (the vector engine) execute every
    active lane of the launch in one call — lanes never interact (the KV
    store is per-thread and read-only tables are shared), so batching
    across blocks is unobservable while letting a vectorized region span
    the whole grid. The per-lane cost fold below then consumes the
    precomputed (charges, counters) pairs instead of invoking
    ``run_map_lane``, keeping the timing-model code identical across
    engines. Returns ``None`` for plain per-lane runners."""
    batch_fn = getattr(runner, "run_map_warp", None)
    if batch_fn is None:
        return None
    batch = [(recs, base + i, LaneCharges(instructions=_SETUP_INSTR))
             for i, recs in enumerate(lanes) if recs]
    if not batch:
        return {}
    counters = batch_fn(batch)
    return {tid: (charges, cnt)
            for (_recs, tid, charges), cnt in zip(batch, counters)}


def run_map_kernel_global_stealing(
    device: GpuDevice,
    kernel: KernelIR,
    records: list[bytes],
    snapshot: dict[str, Any],
    store: GlobalKVStore,
    partitioner: Partitioner,
    engine: str | None = None,
) -> MapLaunchResult:
    """The design the paper REJECTS (§4.1): one *global* record counter
    shared by every threadblock. Distribution is perfectly balanced
    device-wide, but every steal is a global atomic — 'a global
    work-stealing approach would incur high overheads, due to excessive
    atomic accesses by the GPU threads'. Provided for the DESIGN.md §6
    ablation that shows the paper's block-local scheme wins.
    """
    if not kernel.is_mapper:
        raise GpuError("run_map_kernel_global_stealing requires a mapper")
    # Balance records across ALL threads of the grid (the global queue's
    # steady-state effect), then execute exactly like the normal kernel —
    # but charge a *global* atomic per steal instead of a shared one.
    timing = TimingModel(device.spec)
    launch = kernel.launch
    lanes_all, steals = _assign_records_stealing(
        records, launch.total_threads, store.stores_per_thread,
        kernel.kvpairs_per_record,
    )
    shared_ro = prepare_shared_ro(kernel, snapshot)
    runner = _make_lane_runner(engine, device, kernel, snapshot, shared_ro,
                               store, partitioner)
    warp = device.spec.warp_size
    result = MapLaunchResult()
    result.steals = steals
    block_cycles: list[float] = []
    prerun = _warp_prerun(runner, lanes_all, 0)
    for block_id in range(launch.blocks):
        base = block_id * launch.threads
        warp_costs: list[WarpCost] = []
        lane_critical = 0.0
        for warp_start in range(0, launch.threads, warp):
            lane_instr: list[float] = []
            wc = WarpCost()
            for lane in range(warp_start, min(warp_start + warp, launch.threads)):
                thread_records = lanes_all[base + lane]
                if thread_records and prerun is not None:
                    charges, counters = prerun[base + lane]
                else:
                    charges = LaneCharges(instructions=_SETUP_INSTR)
                if thread_records:
                    if prerun is None:
                        counters = runner.run_map_lane(
                            thread_records, base + lane, charges
                        )
                    # Swap the shared-atomic steal charges for global ones.
                    charges.global_atomics += charges.shared_atomics
                    charges.shared_atomics = 0.0
                    result.counters = result.counters.merged(counters)
                    result.records_processed += len(thread_records)
                    issue = (charges.instructions + counters.ops
                             + counters.branches + 2.0 * counters.fp_ops)
                    lane_instr.append(issue)
                    lane_critical = max(
                        lane_critical,
                        issue * device.spec.issue_cycles
                        + charges.global_txn * device.spec.global_mem_cycles / 4.0,
                    )
                else:
                    lane_instr.append(_SETUP_INSTR)
                wc.global_txn += charges.global_txn
                wc.shared_accesses += charges.shared_accesses
                wc.shared_atomics += charges.shared_atomics
                wc.global_atomics += charges.global_atomics
                wc.texture_accesses += charges.texture_accesses
            wc.instructions = timing.divergent_issue(lane_instr)
            warp_costs.append(wc)
            result.cost.totals.add(wc)
            result.cost.warps += 1
        block_cycles.append(max(timing.block_cycles(warp_costs), lane_critical))
        result.cost.blocks += 1
    # All steals hit ONE global counter: atomics on the same address
    # serialize device-wide, an unhideable critical section — the precise
    # overhead the paper's block-local scheme avoids.
    contention = steals * device.spec.global_atomic_cycles
    result.cost.cycles = timing.grid_cycles(block_cycles) + contention
    result.cost.seconds = device.cycles_to_seconds(result.cost.cycles)
    _record_kernel_launch(
        f"map_kernel[global-stealing] {kernel.name}", device, result.cost,
        block_cycles,
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
    engine: str | None = None,
) -> MapLaunchResult:
    """Execute the map kernel over one fileSplit's records."""
    if not kernel.is_mapper:
        raise GpuError("run_map_kernel requires a mapper kernel")
    timing = TimingModel(device.spec)
    launch = kernel.launch
    warp = device.spec.warp_size
    shared_ro = prepare_shared_ro(kernel, snapshot)
    runner = _make_lane_runner(engine, device, kernel, snapshot, shared_ro,
                               store, partitioner)

    result = MapLaunchResult()
    block_cycles: list[float] = []
    block_records = _chunk_blocks(records, launch.blocks)

    block_lanes: list[list[list[bytes]]] = []
    for block_id in range(launch.blocks):
        recs = block_records[block_id] if block_id < len(block_records) else []
        if kernel.opt.record_stealing:
            lanes, steals = _assign_records_stealing(
                recs, launch.threads, store.stores_per_thread,
                kernel.kvpairs_per_record,
            )
            result.steals += steals
        else:
            lanes = _assign_records_static(recs, launch.threads)
        block_lanes.append(lanes)
    prerun = _warp_prerun(
        runner, [lane for lanes in block_lanes for lane in lanes], 0
    )

    for block_id in range(launch.blocks):
        lanes = block_lanes[block_id]
        warp_costs: list[WarpCost] = []
        lane_critical_path = 0.0
        for warp_start in range(0, launch.threads, warp):
            lane_instr: list[float] = []
            wc = WarpCost()
            any_active = False
            for lane in range(warp_start, min(warp_start + warp, launch.threads)):
                thread_records = lanes[lane]
                global_tid = block_id * launch.threads + lane
                if thread_records and prerun is not None:
                    charges, counters = prerun[global_tid]
                else:
                    charges = LaneCharges(instructions=_SETUP_INSTR)
                if thread_records:
                    any_active = True
                    if prerun is None:
                        counters = runner.run_map_lane(
                            thread_records, global_tid, charges
                        )
                    result.counters = result.counters.merged(counters)
                    result.records_processed += len(thread_records)
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
                        issue * device.spec.issue_cycles
                        + charges.global_txn * device.spec.global_mem_cycles / 4.0,
                    )
                else:
                    lane_instr.append(_SETUP_INSTR)
                wc.global_txn += charges.global_txn
                wc.shared_accesses += charges.shared_accesses
                wc.shared_atomics += charges.shared_atomics
                wc.global_atomics += charges.global_atomics
                wc.texture_accesses += charges.texture_accesses
            if not any_active and not lane_instr:
                continue
            wc.instructions = timing.divergent_issue(lane_instr)
            warp_costs.append(wc)
            result.cost.totals.add(wc)
            result.cost.warps += 1
        block_cycles.append(
            max(timing.block_cycles(warp_costs), lane_critical_path)
        )
        result.cost.blocks += 1

    result.cost.cycles = timing.grid_cycles(block_cycles)
    result.cost.seconds = device.cycles_to_seconds(result.cost.cycles)
    _record_kernel_launch(
        f"map_kernel {kernel.name}", device, result.cost, block_cycles,
        {"records": result.records_processed, "steals": result.steals},
    )
    return result


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
    engine: str | None = None,
) -> CombineLaunchResult:
    """Execute the combine kernel over one sorted partition.

    Each warp takes a contiguous chunk; all lanes execute redundantly
    (functionally we run the chunk once and charge redundant issue), with
    warp-cooperative vectorized KV movement when enabled.
    """
    if not kernel.is_combiner:
        raise GpuError("run_combine_kernel requires a combiner kernel")
    timing = TimingModel(device.spec)
    launch = kernel.launch
    warp = device.spec.warp_size
    total_warps = launch.blocks * (launch.threads // warp)
    shared_ro = prepare_shared_ro(kernel, snapshot)

    result = CombineLaunchResult()
    n = len(partition_pairs)
    if n == 0:
        return result
    runner = _make_lane_runner(engine, device, kernel, snapshot, shared_ro)
    # kvsPerThread = partition size / warp count, floored so tiny
    # partitions use few warps instead of one-pair chunks (launching a
    # full grid for a handful of pairs would only manufacture partials).
    chunk_size = max(_MIN_COMBINE_CHUNK, (n + total_warps - 1) // total_warps)
    chunks = [
        partition_pairs[i : i + chunk_size] for i in range(0, n, chunk_size)
    ]
    result.chunks = len(chunks)

    warps_per_block = launch.threads // warp
    block_warp_costs: dict[int, list[WarpCost]] = {}
    for chunk_id, chunk in enumerate(chunks):
        block_id = chunk_id // warps_per_block
        charges = LaneCharges(instructions=_SETUP_INSTR)
        counters, out = runner.run_combine_chunk(chunk, charges)
        result.counters = result.counters.merged(counters)
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
