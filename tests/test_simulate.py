"""Cluster simulator integration tests (Fig. 4 machinery)."""

from dataclasses import replace

import pytest

from repro.config import CLUSTER1, CLUSTER2
from repro.hadoop import ClusterSimulator, JobConf
from repro.hadoop.shuffle import estimate_reduce_phase
from repro.costmodel.io import IoModel
from repro.errors import ConfigError
from repro.hadoop.tasks import SlotKind
from repro.scenarios import simulated_job
from repro.scheduling import CpuOnlyPolicy, GpuFirstPolicy, TailPolicy


def small_job(**kw):
    defaults = dict(
        name="t", num_map_tasks=400, num_reduce_tasks=4, cluster=CLUSTER1,
        cpu_task_seconds=60.0, gpu_task_seconds=10.0,
    )
    defaults.update(kw)
    return JobConf(**defaults)


class TestBasicRuns:
    def test_all_tasks_complete(self):
        result = ClusterSimulator(small_job(), CpuOnlyPolicy()).run()
        assert result.cpu_tasks == 400 and result.gpu_tasks == 0

    def test_gpu_first_uses_gpus(self):
        result = ClusterSimulator(small_job(), GpuFirstPolicy()).run()
        assert result.gpu_tasks > 0
        assert result.cpu_tasks + result.gpu_tasks == 400

    def test_heterogeneous_beats_cpu_only(self):
        job = small_job(num_map_tasks=4000)
        base = ClusterSimulator(job, CpuOnlyPolicy()).run()
        het = ClusterSimulator(job, GpuFirstPolicy()).run()
        assert het.job_seconds < base.job_seconds

    def test_determinism(self):
        job = small_job()
        a = ClusterSimulator(job, GpuFirstPolicy()).run()
        b = ClusterSimulator(job, GpuFirstPolicy()).run()
        assert a.job_seconds == b.job_seconds

    def test_seed_changes_outcome_slightly(self):
        a = ClusterSimulator(small_job(seed=1), CpuOnlyPolicy()).run()
        b = ClusterSimulator(small_job(seed=2), CpuOnlyPolicy()).run()
        assert a.job_seconds != b.job_seconds
        assert abs(a.job_seconds - b.job_seconds) / a.job_seconds < 0.25

    def test_data_locality_mostly_achieved(self):
        result = ClusterSimulator(small_job(num_map_tasks=2000),
                                  CpuOnlyPolicy()).run()
        assert result.data_local_fraction > 0.5

    def test_map_only_job_has_no_reduce_phase(self):
        result = ClusterSimulator(small_job(num_reduce_tasks=0),
                                  CpuOnlyPolicy()).run()
        assert result.reduce_phase_seconds == 0.0


class TestUsableMapSlots:
    """A policy that can use no map slot is refused at construction,
    not after the event loop drains with every map unfinished."""

    GPU_ONLY = replace(CLUSTER1, num_slaves=4, max_map_slots_per_node=0)

    def test_cpu_only_policy_on_gpu_only_nodes_rejected(self):
        job = small_job(num_map_tasks=40, cluster=self.GPU_ONLY)
        with pytest.raises(ConfigError, match="no usable map slot"):
            ClusterSimulator(job, CpuOnlyPolicy())

    @pytest.mark.parametrize("policy", [GpuFirstPolicy, TailPolicy])
    def test_gpu_policies_run_gpu_only_nodes(self, policy):
        job = small_job(num_map_tasks=40, cluster=self.GPU_ONLY)
        result = ClusterSimulator(job, policy()).run()
        assert (result.cpu_tasks, result.gpu_tasks) == (0, 40)


class TestTailVsGpuFirst:
    def test_tail_wins_at_high_speedup(self):
        # taskTail (1 x 40) exceeds the 20 CPU slots per node: the regime
        # where the final wave matters (BS-like, Fig. 4a).
        job = small_job(num_map_tasks=3600, gpu_task_seconds=1.5)
        gf = ClusterSimulator(job, GpuFirstPolicy()).run()
        tail = ClusterSimulator(job, TailPolicy()).run()
        assert tail.forced_gpu_tasks > 0
        assert tail.job_seconds <= gf.job_seconds * 1.02

    def test_tail_harmless_at_low_speedup(self):
        # LR-on-Cluster1 case: no tail imbalance arises, tail ≈ GPU-first.
        job = small_job(num_map_tasks=2000, gpu_task_seconds=45.0)
        gf = ClusterSimulator(job, GpuFirstPolicy()).run()
        tail = ClusterSimulator(job, TailPolicy()).run()
        assert tail.job_seconds <= gf.job_seconds * 1.05

    def test_multi_gpu_scales(self):
        base = None
        for gpus in (1, 2, 3):
            job = JobConf(name="t", num_map_tasks=3200, num_reduce_tasks=16,
                          cluster=CLUSTER2.with_gpus(gpus),
                          cpu_task_seconds=60.0, gpu_task_seconds=6.0)
            result = ClusterSimulator(job, TailPolicy()).run()
            if base is not None:
                assert result.map_phase_seconds <= base * 1.05
            base = result.map_phase_seconds


class TestFaultTolerance:
    def test_failed_tasks_rescheduled_and_job_completes(self):
        job = small_job(num_map_tasks=300, failure_rate=0.05, seed=3)
        result = ClusterSimulator(job, GpuFirstPolicy()).run()
        assert result.failures > 0
        assert result.cpu_tasks + result.gpu_tasks == 300

    def test_failures_lengthen_job(self):
        job = small_job(num_map_tasks=1000, seed=3)
        clean = ClusterSimulator(job, CpuOnlyPolicy()).run()
        flaky = ClusterSimulator(replace(job, failure_rate=0.10),
                                 CpuOnlyPolicy()).run()
        assert flaky.job_seconds > clean.job_seconds


class TestOneJobConf:
    """A simulated job is one ``JobConf``: the simulator samples from
    the job it is given, every field of it, on every run."""

    def job(self):
        return simulated_job("WC", CLUSTER1, 400, 8, seed=5,
                             node_speed_factors={0: 3.0})

    def test_every_run_of_one_job_is_equal(self):
        job = replace(self.job(), failure_rate=0.05)
        result = ClusterSimulator(job, TailPolicy()).run()
        assert result.failures > 0
        assert ClusterSimulator(job, TailPolicy()).run() == result

    def test_the_job_alone_carries_its_heterogeneity(self):
        job = self.job()
        het = ClusterSimulator(job, TailPolicy()).run()
        homo = ClusterSimulator(replace(job, node_speed_factors=None),
                                TailPolicy()).run()
        assert het.job_seconds > 2.0 * homo.job_seconds

    # Each of these used to hang the event loop, fail deep in it, or
    # return NaN seconds; the job refuses them instead.
    @pytest.mark.parametrize("field, value", [
        ("gpu_task_seconds", float("inf")),
        ("cpu_task_seconds", float("nan")),
        ("cpu_task_seconds", 0.0),
        ("failure_rate", -1.0),
        ("failure_rate", float("nan")),
        ("failure_rate", 1.0),
        ("duration_jitter", -0.5),
        ("duration_jitter", 1.5),
        ("duration_jitter", float("nan")),
        ("nonlocal_read_penalty", -100.0),
        ("nonlocal_read_penalty", float("inf")),
        ("node_speed_factors", {0: 0.0}),
        ("node_speed_factors", {0: float("nan")}),
        ("node_speed_factors", {0: float("inf")}),
    ])
    def test_bad_inputs_rejected(self, field, value):
        job = simulated_job("WC", CLUSTER1, 200, 8, seed=5)
        with pytest.raises(ConfigError):
            replace(job, **{field: value})


class TestReducePhase:
    def test_scaled_by_output_volume(self):
        io = IoModel.for_cluster(CLUSTER1)
        small = estimate_reduce_phase(small_job(map_output_bytes=1e6), io)
        large = estimate_reduce_phase(small_job(map_output_bytes=1e8), io)
        assert large.total > small.total

    def test_map_only_is_free(self):
        io = IoModel.for_cluster(CLUSTER1)
        assert estimate_reduce_phase(small_job(num_reduce_tasks=0), io).total == 0.0

    def test_reduce_waves(self):
        io = IoModel.for_cluster(CLUSTER1)
        one_wave = estimate_reduce_phase(small_job(num_reduce_tasks=48), io)
        two_waves = estimate_reduce_phase(small_job(num_reduce_tasks=100), io)
        assert two_waves.total > one_wave.total


class TestGpuQueue:
    """A forced task that finds every device busy waits in its node's
    GPU queue (``TaskTracker.place`` returns True) and is started by the
    next release of a device on that node, exactly once."""

    class Logged(ClusterSimulator):
        def __init__(self, *args):
            super().__init__(*args)
            self.log = []

        def _launch(self, tracker, task):
            before = tracker.gpu_queue.count(task)
            super()._launch(tracker, task)
            after = tracker.gpu_queue.count(task)
            assert (before, after) in ((0, 0), (0, 1))
            if after:
                self.log.append(("queued", task.task_id, tracker.node))

        def _start(self, tracker, task):
            assert task not in tracker.gpu_queue
            self.log.append(("start", task.task_id, tracker.node,
                             task.slot, self.loop.now))
            super()._start(tracker, task)

        def _slot_released(self, tracker):
            self.log.append(("released", tracker.node, self.loop.now))
            super()._slot_released(tracker)

    @pytest.mark.parametrize("failure_rate", [0.0, 0.05])
    def test_forced_task_queued_once_starts_on_release(self, failure_rate):
        cluster = replace(CLUSTER1, num_slaves=8)
        job = small_job(num_map_tasks=600, gpu_task_seconds=1.5,
                        cluster=cluster, failure_rate=failure_rate, seed=3)
        sim = self.Logged(job, TailPolicy())
        result = sim.run()
        assert result.cpu_tasks + result.gpu_tasks == 600
        assert (result.failures > 0) == (failure_rate > 0)
        log = sim.log
        queued = [i for i, e in enumerate(log) if e[0] == "queued"]
        assert queued
        for i in queued:
            _, task_id, node = log[i]
            # Its next start is on the GPU of its node, right after a
            # device there was released, at the same simulated time.
            j = next(j for j in range(i + 1, len(log))
                     if log[j][:2] == ("start", task_id))
            assert log[j][2:4] == (node, SlotKind.GPU)
            assert log[j - 1] == ("released", node, log[j][4])
