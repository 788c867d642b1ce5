"""The job's map-side folds read one task list, in task-index order.

A job runs on one device today, so "GPU seconds, then CPU seconds" and
"task-index order" used to coincide. These tests build the result a
mixed job would produce — results only; the runner has no mixed mode —
and pin every fold to the index order: the critical path is a list
schedule, so grouping by device changes it.
"""

from __future__ import annotations

from repro.apps import get_app
from repro.hadoop.local import LocalJobResult, LocalJobRunner
from repro.hadoop.tasks import SlotKind
from repro.parallel.pool import list_schedule_makespan


def _per_split_results(use_gpu: bool):
    app = get_app("WC")
    text = app.generate(400, seed=7)
    result = LocalJobRunner(app, use_gpu=use_gpu, split_bytes=2048,
                            workers=1).run(text)
    return result.map_task_results


def test_map_folds_are_index_ordered_not_device_grouped():
    cpu, gpu = _per_split_results(False), _per_split_results(True)
    assert len(cpu) == len(gpu) >= 6  # same splits on both paths
    # Alternate devices: GPU on even task indices, CPU on odd ones.
    tasks = [(gpu if i % 2 == 0 else cpu)[i] for i in range(len(cpu))]
    mixed = LocalJobResult(map_tasks=len(tasks), map_task_results=tasks)

    expected = [task.breakdown.total for task in tasks]
    assert [task.device for task in tasks[:4]] == [
        SlotKind.GPU, SlotKind.CPU, SlotKind.GPU, SlotKind.CPU]
    assert mixed.task_seconds() == expected
    # Not the device-grouped order (every GPU second, then every CPU one).
    grouped = expected[0::2] + expected[1::2]
    assert mixed.task_seconds() != grouped

    assert mixed.total_map_seconds == sum(expected)
    for workers in range(1, 5):
        assert mixed.critical_path_seconds(workers) == \
            list_schedule_makespan(expected, workers)
    assert mixed.critical_path_seconds(2) != \
        list_schedule_makespan(grouped, 2)
    assert mixed.device_tasks(SlotKind.GPU) == (len(tasks) + 1) // 2
    assert mixed.device_tasks(SlotKind.CPU) == len(tasks) // 2


def test_task_result_has_one_shape_on_both_devices():
    cpu, gpu = _per_split_results(False)[0], _per_split_results(True)[0]
    assert (cpu.device, gpu.device) == (SlotKind.CPU, SlotKind.GPU)
    assert cpu.gpu_task is None and gpu.gpu_task is not None
    assert gpu.breakdown is gpu.gpu_task.breakdown
    for task in (cpu, gpu):
        assert task.seconds == task.breakdown.total > 0
        assert task.map_pairs > 0 and task.output_bytes > 0
        # The job fold moved the runs into the shuffle: the kept
        # results do not pin the map output.
        assert task.parts == {}
        assert list(task.breakdown.as_dict()) == [
            "input_read", "record_count", "map", "aggregate", "sort",
            "combine", "output_write"]
    # The two stages a Streaming task does not run cost it nothing.
    assert (cpu.breakdown.record_count, cpu.breakdown.aggregate) == (0.0, 0.0)
    assert gpu.breakdown.record_count > 0
