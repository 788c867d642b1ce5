"""Warp-level GPU timing model.

The executor records, per warp, how many instructions it issued and how
many memory transactions of each kind it generated; this module turns
those counts into simulated cycles.

Model (documented in DESIGN.md §5):

* **Issue**: every dynamic instruction costs ``issue_cycles`` per warp.
  Divergence makes a warp re-issue for each taken path; we approximate a
  warp's issue count as ``max_lane + DIVERGENCE_PENALTY * (sum_lane -
  max_lane) / lanes`` when lanes executed different work.
* **Memory**: each global transaction costs ``global_mem_cycles``; texture
  hits are cheap (on-chip cache), misses cost like global; shared memory
  and shared atomics are an order of magnitude cheaper than global
  atomics — which is precisely why record stealing uses a *shared*
  counter per threadblock instead of a global one (paper §4.1).
* **Overlap**: an SM hides memory latency by multithreading warps
  (paper §1). A block's time is ``max(issue, mem / MLP)`` where the
  memory-level parallelism factor grows with resident warps.
* **Grid**: blocks are distributed round-robin over SMs; the kernel ends
  when the most loaded SM drains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import GpuSpec

#: Interpolation between the divergence-free lower bound (max over lanes)
#: and full serialization (sum over lanes) of a warp's issue count. Text
#: kernels with data-dependent loop trip counts sit a few multiples above
#: the lower bound on real hardware.
DIVERGENCE_PENALTY = 0.08

#: Cap on memory-level parallelism per block (resident-warp latency hiding).
MAX_MLP = 8.0


@dataclass
class WarpCost:
    """Raw event counts for one warp's execution."""

    instructions: float = 0.0        # issued warp-instructions
    global_txn: float = 0.0          # global memory transactions
    shared_accesses: float = 0.0
    shared_atomics: float = 0.0
    global_atomics: float = 0.0
    texture_accesses: float = 0.0

    def add(self, other: "WarpCost") -> None:
        self.instructions += other.instructions
        self.global_txn += other.global_txn
        self.shared_accesses += other.shared_accesses
        self.shared_atomics += other.shared_atomics
        self.global_atomics += other.global_atomics
        self.texture_accesses += other.texture_accesses


@dataclass
class KernelCost:
    """Accumulated cost of a kernel launch."""

    cycles: float = 0.0
    seconds: float = 0.0
    warps: int = 0
    blocks: int = 0
    # Aggregate event counts (for tests / ablation reporting).
    totals: WarpCost = field(default_factory=WarpCost)


class TimingModel:
    def __init__(self, spec: GpuSpec):
        self.spec = spec

    def divergent_issue(self, lane_instr_counts: list[float]) -> float:
        """Warp instruction issue count from per-lane dynamic instruction
        counts (SIMD divergence approximation)."""
        if not lane_instr_counts:
            return 0.0
        peak = max(lane_instr_counts)
        total = sum(lane_instr_counts)
        floor = min(lane_instr_counts) * len(lane_instr_counts)
        # Uniform warps run in lockstep at the peak; non-uniform lanes
        # (data-dependent trip counts, idle lanes) re-issue a fraction of
        # the work above the uniform floor.
        return peak + DIVERGENCE_PENALTY * max(total - floor, 0.0)

    def warp_cycles(self, cost: WarpCost) -> tuple[float, float]:
        """(issue cycles, memory cycles) for one warp."""
        s = self.spec
        issue = cost.instructions * s.issue_cycles
        tex_cycles = cost.texture_accesses * (
            s.texture_hit_rate * s.texture_hit_cycles
            + (1.0 - s.texture_hit_rate) * s.texture_miss_cycles
        )
        mem = (
            cost.global_txn * s.global_mem_cycles
            + cost.shared_accesses * s.shared_mem_cycles
            + cost.shared_atomics * s.shared_atomic_cycles
            + cost.global_atomics * s.global_atomic_cycles
            + tex_cycles
        )
        return issue, mem

    def block_cycles(self, warp_costs: list[WarpCost]) -> float:
        """Time for one threadblock: issue serializes on the SM's schedulers,
        memory overlaps up to the MLP factor."""
        total_issue = 0.0
        total_mem = 0.0
        for cost in warp_costs:
            issue, mem = self.warp_cycles(cost)
            total_issue += issue
            total_mem += mem
        mlp = min(float(len(warp_costs)) or 1.0, MAX_MLP)
        return max(total_issue, total_mem / mlp)

    def grid_cycles(self, block_cycle_list: list[float]) -> float:
        """Round-robin block placement over SMs; kernel time = busiest SM."""
        sms = [0.0] * self.spec.num_sms
        for i, cycles in enumerate(block_cycle_list):
            sms[i % self.spec.num_sms] += cycles
        return max(sms) if sms else 0.0
