"""Event loop, task state machine, JobTracker/TaskTracker protocol tests."""

import pytest

from repro.errors import HadoopError
from repro.hadoop.events import EventLoop
from repro.hadoop.heartbeat import Heartbeat
from repro.hadoop.jobtracker import JobTracker
from repro.hadoop.tasks import MapTask, NodeStats, SlotKind, TaskState
from repro.hadoop.tasktracker import TaskTracker
from repro.scheduling import CpuOnlyPolicy, GpuFirstPolicy, TailPolicy


class TestEventLoop:
    def test_events_fire_in_time_order(self):
        loop, seen = EventLoop(), []
        loop.schedule(2.0, lambda: seen.append("b"))
        loop.schedule(1.0, lambda: seen.append("a"))
        loop.schedule(3.0, lambda: seen.append("c"))
        loop.run()
        assert seen == ["a", "b", "c"]

    def test_ties_break_by_insertion(self):
        loop, seen = EventLoop(), []
        loop.schedule(1.0, lambda: seen.append(1))
        loop.schedule(1.0, lambda: seen.append(2))
        loop.run()
        assert seen == [1, 2]

    def test_nested_scheduling(self):
        loop, seen = EventLoop(), []
        loop.schedule(1.0, lambda: loop.schedule(1.0, lambda: seen.append("x")))
        loop.run()
        assert seen == ["x"] and loop.now == 2.0

    def test_negative_delay_rejected(self):
        with pytest.raises(HadoopError):
            EventLoop().schedule(-1, lambda: None)

    def test_event_budget_guards_livelock(self):
        loop = EventLoop()

        def rearm():
            loop.schedule(0.1, rearm)

        loop.schedule(0.0, rearm)
        with pytest.raises(HadoopError, match="budget"):
            loop.run(max_events=100)


class TestMapTaskLifecycle:
    def test_assign_complete(self):
        t = MapTask(task_id=0, preferred_nodes=(1, 2))
        t.assign(node=1, now=5.0)
        assert t.state is TaskState.RUNNING and t.data_local
        t.complete(now=8.0)
        assert t.state is TaskState.COMPLETED and t.duration == 3.0

    def test_non_local_assignment(self):
        t = MapTask(task_id=0, preferred_nodes=(1,))
        t.assign(node=5, now=0.0)
        assert not t.data_local

    def test_fail_and_retry(self):
        t = MapTask(task_id=0)
        t.assign(0, 0.0)
        t.fail(1.0)
        t.reset_for_retry()
        assert t.state is TaskState.PENDING and t.attempts == 1
        t.assign(1, 2.0)
        assert t.attempts == 2

    def test_double_assign_rejected(self):
        t = MapTask(task_id=0)
        t.assign(0, 0.0)
        with pytest.raises(HadoopError):
            t.assign(1, 0.0)

    def test_ave_speedup_requires_both_kinds(self):
        stats = NodeStats()
        assert stats.ave_speedup == 1.0
        stats.record(SlotKind.CPU, 60.0)
        assert stats.ave_speedup == 1.0  # still no GPU sample
        stats.record(SlotKind.GPU, 10.0)
        assert stats.ave_speedup == pytest.approx(6.0)


def make_jt(n_tasks=20, policy=None, slaves=4, gpus=1):
    tasks = [MapTask(task_id=i, preferred_nodes=(i % slaves,))
             for i in range(n_tasks)]
    return JobTracker(tasks=tasks, policy=policy or GpuFirstPolicy(),
                      num_slaves=slaves, gpus_per_node=gpus)


class TestJobTracker:
    def hb(self, node=0, cpu=2, gpu=1, speedup=1.0):
        return Heartbeat(node=node, free_cpu_slots=cpu, free_gpu_slots=gpu,
                         ave_gpu_speedup=speedup)

    def test_grants_up_to_free_slots(self):
        jt = make_jt()
        resp = jt.handle_heartbeat(self.hb(cpu=3, gpu=1))
        assert len(resp.task_ids) == 4

    def test_data_local_tasks_preferred(self):
        jt = make_jt(slaves=4)
        resp = jt.handle_heartbeat(self.hb(node=2, cpu=2, gpu=0))
        granted = [jt.get_task(t) for t in resp.task_ids]
        assert all(2 in t.preferred_nodes for t in granted)

    def test_no_duplicate_grants(self):
        jt = make_jt(n_tasks=6)
        seen = set()
        for node in range(4):
            resp = jt.handle_heartbeat(self.hb(node=node, cpu=2, gpu=0))
            assert seen.isdisjoint(resp.task_ids)
            seen.update(resp.task_ids)
        assert len(seen) == 6
        assert jt.pending_maps == 0

    def test_remaining_counts_running(self):
        jt = make_jt(n_tasks=10)
        jt.handle_heartbeat(self.hb(cpu=5, gpu=0))
        assert jt.pending_maps == 5
        assert jt.remaining_maps == 10  # granted ones still incomplete

    def test_max_speedup_remembered(self):
        jt = make_jt()
        jt.handle_heartbeat(self.hb(speedup=3.0))
        jt.handle_heartbeat(self.hb(speedup=7.5))
        jt.handle_heartbeat(self.hb(speedup=2.0))
        assert jt.max_speedup == 7.5

    def test_failed_task_rescheduled(self):
        jt = make_jt(n_tasks=2)
        resp = jt.handle_heartbeat(self.hb(cpu=2, gpu=0))
        task = jt.get_task(resp.task_ids[0])
        task.assign(0, 0.0)
        task.fail(1.0)
        jt.task_failed(task)
        assert jt.pending_maps >= 1
        resp2 = jt.handle_heartbeat(self.hb(node=1, cpu=2, gpu=0))
        assert task.task_id in resp2.task_ids

    def test_too_many_failures_aborts(self):
        jt = make_jt(n_tasks=1)
        task = jt.get_task(0)
        task.attempts = 4
        task.state = TaskState.FAILED
        with pytest.raises(HadoopError, match="aborted"):
            jt.task_failed(task)


class TestTaskTracker:
    def make_tt(self, policy=None, cpu_slots=2, gpus=1):
        return TaskTracker(node=0, cpu_slots=cpu_slots, num_gpus=gpus,
                           policy=policy or GpuFirstPolicy())

    def test_gpu_first_placement(self):
        tt = self.make_tt()
        t0 = MapTask(task_id=0)
        assert tt.place(t0) is False  # not queued: its slot is reserved
        assert t0.slot is SlotKind.GPU
        t1 = MapTask(task_id=1)
        assert tt.place(t1) is False
        assert t1.slot is SlotKind.CPU  # GPU busy now

    def test_cpu_only_policy_hides_gpus(self):
        tt = self.make_tt(policy=CpuOnlyPolicy())
        assert tt.num_gpus == 0
        t = MapTask(task_id=0)
        assert tt.place(t) is False
        assert t.slot is SlotKind.CPU

    def test_slot_freed_on_completion(self):
        tt = self.make_tt()
        t = MapTask(task_id=0)
        tt.place(t)
        assert tt.busy_gpus == 1
        tt.release_slot(t.slot, 5.0)
        assert tt.busy_gpus == 0
        assert tt.stats.gpu_tasks == 1

    def test_forced_task_queues_when_gpu_busy(self):
        tt = self.make_tt(policy=TailPolicy())
        tt.stats.record(SlotKind.CPU, 60.0)
        tt.stats.record(SlotKind.GPU, 10.0)  # speedup 6
        tt.maps_remaining_per_node = 2.0      # within the tail
        first = MapTask(task_id=0)
        assert tt.place(first) is False
        second = MapTask(task_id=1)
        assert tt.place(second) is True  # queued behind the busy device
        assert (first.slot, second.slot) == (SlotKind.GPU, SlotKind.GPU)
        assert tt.gpu_queue == [second]
        drained = tt.queued_gpu_task()
        assert drained is None  # device still busy
        tt.release_slot(first.slot, 10.0)
        assert tt.queued_gpu_task() is second

    @pytest.mark.parametrize("maps_remaining_per_node", [float("inf"), 0.0])
    def test_no_free_slot_raises_instead_of_queueing(
            self, maps_remaining_per_node):
        """A policy never grants past the advertised free slots, so a
        task placed on a node whose CPU slots and device are all busy is
        an error, in and out of the task tail."""
        tt = self.make_tt(policy=TailPolicy(), cpu_slots=1)
        tt.place(MapTask(task_id=0))
        tt.place(MapTask(task_id=1))
        assert (tt.busy_gpus, tt.running_cpu) == (1, 1)
        assert not tt.has_free_slot
        tt.maps_remaining_per_node = maps_remaining_per_node
        with pytest.raises(HadoopError, match="no free slot"):
            tt.place(MapTask(task_id=2))
        assert tt.gpu_queue == []

    def test_heartbeat_reports_net_gpu_capacity(self):
        tt = self.make_tt(policy=TailPolicy())
        tt.stats.record(SlotKind.CPU, 60.0)
        tt.stats.record(SlotKind.GPU, 10.0)
        tt.maps_remaining_per_node = 1.0
        tt.place(MapTask(task_id=0))
        tt.place(MapTask(task_id=1))  # queued
        hb = tt.make_heartbeat()
        assert hb.free_gpu_slots == 0
