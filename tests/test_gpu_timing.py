"""Timing model tests: divergence, latency hiding, grid placement."""

import pytest

from repro.config import TESLA_K40
from repro.gpu.device import GpuDevice
from repro.gpu.timing import MAX_MLP, KernelCost, TimingModel, WarpCost


@pytest.fixture
def model():
    return TimingModel(TESLA_K40)


class TestDivergence:
    def test_uniform_lanes_cost_peak(self, model):
        assert model.divergent_issue([100.0] * 32) == 100.0

    def test_divergence_adds_cost(self, model):
        uniform = model.divergent_issue([100.0] * 32)
        skewed = model.divergent_issue([100.0] + [10.0] * 31)
        # Peak equal, but the skewed warp re-issues some extra work…
        assert skewed > 100.0
        # …while staying below full serialization.
        assert skewed < 100.0 + 31 * 10.0

    def test_empty_warp(self, model):
        assert model.divergent_issue([]) == 0.0

    def test_single_lane(self, model):
        assert model.divergent_issue([42.0]) == 42.0


class TestWarpAndBlockCycles:
    def test_issue_and_memory_separated(self, model):
        issue, mem = model.warp_cycles(WarpCost(instructions=100, global_txn=10))
        assert issue == 100 * TESLA_K40.issue_cycles
        assert mem == 10 * TESLA_K40.global_mem_cycles

    def test_texture_hits_cheaper_than_global(self, model):
        _, tex = model.warp_cycles(WarpCost(texture_accesses=100))
        _, glob = model.warp_cycles(WarpCost(global_txn=100))
        assert tex < glob

    def test_shared_atomics_cheaper_than_global_atomics(self, model):
        # The reason record stealing uses a *shared* counter (§4.1).
        _, shared = model.warp_cycles(WarpCost(shared_atomics=100))
        _, glob = model.warp_cycles(WarpCost(global_atomics=100))
        assert shared < glob / 5

    def test_memory_latency_hidden_by_warps(self, model):
        one_warp = model.block_cycles([WarpCost(global_txn=100)])
        many = model.block_cycles([WarpCost(global_txn=100 / 8)] * 8)
        # Same total transactions, but 8 warps overlap them.
        assert many < one_warp

    def test_mlp_capped(self, model):
        costs = [WarpCost(global_txn=10)] * 32
        block = model.block_cycles(costs)
        total_mem = 32 * 10 * TESLA_K40.global_mem_cycles
        assert block >= total_mem / MAX_MLP


class TestGrid:
    def test_blocks_spread_over_sms(self, model):
        # num_sms equal blocks run fully parallel.
        per_block = 1000.0
        cycles = model.grid_cycles([per_block] * TESLA_K40.num_sms)
        assert cycles == per_block

    def test_excess_blocks_serialize(self, model):
        per_block = 1000.0
        two_rounds = model.grid_cycles([per_block] * (2 * TESLA_K40.num_sms))
        assert two_rounds == 2 * per_block

    def test_empty_grid(self, model):
        assert model.grid_cycles([]) == 0.0

    def test_seconds_conversion(self, model):
        cycles = model.grid_cycles([1000.0])
        assert GpuDevice(TESLA_K40).cycles_to_seconds(cycles) == \
            cycles * TESLA_K40.cycle_time_s
