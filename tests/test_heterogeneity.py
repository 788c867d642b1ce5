"""Inter-node heterogeneity (the paper's §9 future work, implemented as
an extension): some nodes' CPUs are slower, their GPUs are not."""

import pytest

from repro.config import CLUSTER1
from repro.hadoop import ClusterSimulator, JobConf
from repro.hadoop.tasks import SlotKind
from repro.scheduling import CpuOnlyPolicy, GpuFirstPolicy, TailPolicy


def job(num_maps=2400, slow_nodes=0, seed=1234):
    """The first ``slow_nodes`` nodes' CPUs are 3x slower."""
    return JobConf(name="het", num_map_tasks=num_maps, num_reduce_tasks=16,
                   cluster=CLUSTER1, cpu_task_seconds=60.0, gpu_task_seconds=4.0,
                   seed=seed, node_speed_factors={
                       n: 3.0 for n in range(slow_nodes)} or None)


class TestDurationModel:
    """The simulator's per-attempt sampling reads the job's speed map."""

    def sampler(self):
        return ClusterSimulator(job(slow_nodes=8, seed=99),
                                GpuFirstPolicy())._sample

    def test_slow_nodes_slow_cpu_tasks(self):
        sample = self.sampler()
        slow, _ = sample(SlotKind.CPU, data_local=True, node=0)
        fast, _ = sample(SlotKind.CPU, data_local=True, node=20)
        assert slow > 2.0 * fast

    def test_gpus_unaffected(self):
        sample = self.sampler()
        on_slow, _ = sample(SlotKind.GPU, data_local=True, node=0)
        on_fast, _ = sample(SlotKind.GPU, data_local=True, node=20)
        assert on_slow == pytest.approx(on_fast, rel=0.15)

    def test_unlisted_node_means_homogeneous(self):
        d, _ = self.sampler()(SlotKind.CPU, data_local=True, node=47)
        assert d == pytest.approx(60.0, rel=0.1)


class TestClusterWithSlowNodes:
    def test_heterogeneity_lengthens_cpu_only_jobs(self):
        # Half the cluster 3x slower: pull-based FIFO absorbs mild skew
        # (slow nodes simply request fewer tasks), so measure throughput
        # at many waves where lost capacity must show.
        homo = ClusterSimulator(job(9600), CpuOnlyPolicy()).run()
        het = ClusterSimulator(job(9600, slow_nodes=24, seed=99),
                               CpuOnlyPolicy()).run()
        assert het.map_phase_seconds > homo.map_phase_seconds * 1.2

    def test_gpus_absorb_heterogeneity(self):
        """With GPUs available, the slow nodes' devices keep pulling
        weight, so the heterogeneity penalty shrinks."""
        cpu_only = ClusterSimulator(job(slow_nodes=8, seed=5),
                                    CpuOnlyPolicy()).run()
        hetero_gpu = ClusterSimulator(job(slow_nodes=8, seed=5),
                                      GpuFirstPolicy()).run()
        assert hetero_gpu.job_seconds < cpu_only.job_seconds

    def test_tail_still_safe_under_heterogeneity(self):
        gf = ClusterSimulator(job(slow_nodes=8, seed=5), GpuFirstPolicy()).run()
        tail = ClusterSimulator(job(slow_nodes=8, seed=5), TailPolicy()).run()
        assert tail.job_seconds <= gf.job_seconds * 1.05

    def test_per_node_speedup_estimates_diverge(self):
        """Slow nodes observe a larger GPU speedup — the signal a future
        inter-node-aware scheduler would exploit."""
        sim = ClusterSimulator(job(slow_nodes=8, seed=5), GpuFirstPolicy())
        sim.run()
        slow = [t.stats.ave_speedup for t in sim.trackers[:8]
                if t.stats.gpu_tasks and t.stats.cpu_tasks]
        fast = [t.stats.ave_speedup for t in sim.trackers[8:]
                if t.stats.gpu_tasks and t.stats.cpu_tasks]
        assert slow and fast
        assert sum(slow) / len(slow) > 1.5 * sum(fast) / len(fast)
