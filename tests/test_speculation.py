"""Speculative execution tests (Hadoop's straggler mitigation; Table 3
lists it — the paper ran with it Off, we implement the mechanism)."""

from dataclasses import replace

from repro.config import CLUSTER1
from repro.hadoop import ClusterSimulator, JobConf
from repro.scheduling import CpuOnlyPolicy, GpuFirstPolicy

#: Table 3's Cluster1 with Speculative Execution On.
SPECULATIVE = replace(CLUSTER1, speculative_execution=True)


def job(num_maps=1200, speculative=False, **kw):
    return JobConf(name="spec", num_map_tasks=num_maps, num_reduce_tasks=4,
                   cluster=SPECULATIVE if speculative else CLUSTER1,
                   cpu_task_seconds=60.0, gpu_task_seconds=10.0, **kw)


def straggler_job(num_maps=1200, speculative=True, seed=5):
    """A handful of 4x-slower nodes create genuine stragglers."""
    return job(num_maps, speculative, seed=seed,
               node_speed_factors={n: 4.0 for n in range(4)})


class TestSpeculation:
    def test_off_by_default_per_table3(self):
        sim = ClusterSimulator(job(200), CpuOnlyPolicy())
        assert not sim.speculative  # Table 3: Speculative Execution Off
        sim.run()
        assert sim.speculative_attempts == 0

    def test_speculation_launches_backups_for_stragglers(self):
        sim = ClusterSimulator(straggler_job(), CpuOnlyPolicy())
        result = sim.run()
        assert sim.speculative_attempts > 0
        assert result.cpu_tasks + result.gpu_tasks == 1200

    def test_speculation_shortens_straggler_jobs(self):
        base = ClusterSimulator(straggler_job(speculative=False),
                                CpuOnlyPolicy()).run()
        spec_sim = ClusterSimulator(straggler_job(), CpuOnlyPolicy())
        spec = spec_sim.run()
        assert spec.map_phase_seconds < base.map_phase_seconds

    def test_wasted_work_accounted(self):
        sim = ClusterSimulator(straggler_job(), CpuOnlyPolicy())
        sim.run()
        if sim.speculative_attempts:
            # Losing attempts (either side) show up as wasted seconds.
            assert sim.wasted_speculation_seconds > 0

    def test_no_stragglers_no_speculation_effect(self):
        """On a homogeneous cluster nothing crosses the threshold."""
        plain = ClusterSimulator(job(400, speculative=True), CpuOnlyPolicy())
        result = plain.run()
        assert result.cpu_tasks == 400
        assert plain.speculative_attempts <= 2  # jitter-only stragglers

    def test_all_tasks_complete_exactly_once(self):
        sim = ClusterSimulator(straggler_job(600, seed=9), GpuFirstPolicy())
        result = sim.run()
        assert result.cpu_tasks + result.gpu_tasks == 600
        assert len(result.timeline) == 600
