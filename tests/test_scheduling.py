"""Scheduling policy tests (paper §6, Fig. 3, Algorithm 2)."""

import pytest

from repro.experiments.figures import fig3
from repro.hadoop import ClusterSimulator
from repro.scheduling import GpuFirstPolicy, TailPolicy, get_policy


class TestFig3ToyScenario:
    def test_tail_beats_gpu_first(self):
        result = fig3()
        assert result.tail_makespan < result.gpu_first_makespan

    def test_paper_magnitudes(self):
        # 19 tasks, 2 CPU slots, 6x GPU: GPU-first ends with a full CPU
        # task straggling; tail saves roughly half a CPU-task time.
        result = fig3()
        assert result.gpu_first_makespan == pytest.approx(3.0, abs=0.01)
        assert result.tail_makespan <= 2.7

    def test_tail_forces_final_tasks_to_gpu(self):
        result = fig3()
        final = [slot for task, slot, _s, _e in result.tail_schedule
                 if task >= 18]
        assert final == ["gpu0", "gpu0"]

    def test_all_tasks_scheduled_exactly_once(self):
        result = fig3()
        for schedule in (result.gpu_first_schedule, result.tail_schedule):
            assert sorted(task for task, *_ in schedule) == list(range(1, 20))

    def test_degenerate_no_gpu_speedup(self):
        result = fig3(gpu_speedup=1.0)
        # With no speedup, forcing can't help (nor hurt by much).
        assert result.tail_makespan <= result.gpu_first_makespan + 1.0

    def test_tail_never_loses_at_small_speedup(self):
        # At 2x nothing is forced: the real TailPolicy ties GPU-first.
        result = fig3(gpu_speedup=2.0)
        assert result.tail_makespan <= result.gpu_first_makespan

    def test_makespans_are_the_simulators(self):
        result = fig3()
        job = result.job
        assert (job.num_map_tasks, job.map_only, job.duration_jitter) \
            == (19, True, 0.0)
        assert (job.cluster.num_slaves, job.cluster.max_map_slots_per_node,
                job.cluster.gpus_per_node) == (1, 2, 1)
        for name, makespan in (("gpu-first", result.gpu_first_makespan),
                               ("tail", result.tail_makespan)):
            direct = ClusterSimulator(job, get_policy(name)).run()
            assert makespan == direct.job_seconds / job.cpu_task_seconds


class TestJobTrackerGrants:
    def test_gpu_first_fills_all_slots(self):
        g = GpuFirstPolicy()
        assert g.tasks_to_grant(free_cpu_slots=3, free_gpu_slots=1,
                                remaining=100, num_gpus_per_node=1,
                                max_speedup=5.0, num_slaves=4) == 4

    def test_grant_bounded_by_remaining(self):
        g = GpuFirstPolicy()
        assert g.tasks_to_grant(5, 1, remaining=2, num_gpus_per_node=1,
                                max_speedup=5.0, num_slaves=4) == 2

    def test_tail_caps_in_job_tail(self):
        t = TailPolicy()
        # jobTail = 1 * 5 * 4 = 20 >= remaining 10: capped regime.
        grant = t.tasks_to_grant(free_cpu_slots=5, free_gpu_slots=1,
                                 remaining=10, num_gpus_per_node=1,
                                 max_speedup=5.0, num_slaves=4)
        full = GpuFirstPolicy().tasks_to_grant(5, 1, 10, 1, 5.0, 4)
        assert grant <= full

    def test_tail_defaults_outside_job_tail(self):
        t = TailPolicy()
        assert t.tasks_to_grant(3, 1, remaining=1000, num_gpus_per_node=1,
                                max_speedup=5.0, num_slaves=4) == 4


class TestPlacementDecisions:
    def test_gpu_first_prefers_free_gpu(self):
        d = GpuFirstPolicy().place(gpu_free=True, num_gpus=1,
                                   ave_speedup=5.0,
                                   maps_remaining_per_node=100)
        assert d.use_gpu and not d.forced

    def test_gpu_first_falls_back_to_cpu(self):
        d = GpuFirstPolicy().place(gpu_free=False, num_gpus=1,
                                   ave_speedup=5.0,
                                   maps_remaining_per_node=100)
        assert not d.use_gpu

    def test_tail_forces_within_task_tail(self):
        d = TailPolicy().place(gpu_free=False, num_gpus=1,
                               ave_speedup=6.0, maps_remaining_per_node=2.0)
        assert d.use_gpu and d.forced

    def test_tail_gpu_first_outside_task_tail(self):
        d = TailPolicy().place(gpu_free=False, num_gpus=1,
                               ave_speedup=6.0, maps_remaining_per_node=50.0)
        assert not d.use_gpu and not d.forced

    def test_force_margin_below_one(self):
        # The margin trades ideal-case gain for never losing (see tail.py).
        assert 0.0 < TailPolicy.FORCE_MARGIN <= 1.0
