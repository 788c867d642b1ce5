"""Golden regression for the GPU launch layer's charges.

``tests/golden/gpu_launch_counters.json`` pins, for every registry app
on the GPU path at the registry's small size, what the cost model
charged: how many times each charge event fired over the whole job (the
six traced ``gpu.*`` event counters, map and combine launches together)
and every task's map-launch :class:`~repro.gpu.timing.KernelCost` as
``repr`` — warp totals, cycles and seconds, so the last float bit
counts. It moves only in a PR that says it changes the cost model; a
refactor of how charges are bound, counted or folded reproduces it.

Regenerate with ``PYTHONPATH=src python -m tests.test_gpu_launch_golden``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.apps import all_apps, get_app
from repro.hadoop.local import LocalJobRunner
from repro.obs import trace as obs
from repro.scenarios import generate_input

GOLDEN = Path(__file__).resolve().parent / "golden" / "gpu_launch_counters.json"
APP_TAGS = [app.short for app in all_apps()]
EVENT_COUNTERS = ("gpu.accesses", "gpu.record_reads", "gpu.kv_emits",
                  "gpu.kv_moves", "gpu.math_calls", "gpu.string_calls")


def snapshot(short: str) -> dict:
    """One traced GPU-path job of ``short``, inline in this process."""
    app = get_app(short)
    text = generate_input(short, "small")
    # ~3 splits whatever the app's record size: more than one launch.
    split_bytes = max(256, len(text.encode()) // 3)
    with obs.use_recorder(obs.TraceRecorder()) as rec:
        result = LocalJobRunner(app, use_gpu=True, split_bytes=split_bytes,
                                workers=1).run(text)
    return {
        "events": {name: rec.metrics.count(name) for name in EVENT_COUNTERS},
        "map_launch_cost": [repr(task.gpu_task.map_launch.cost)
                            for task in result.map_task_results],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("short", APP_TAGS)
def test_launch_charges_match_golden(golden, short):
    assert snapshot(short) == golden[short]


def test_golden_covers_the_registry(golden):
    assert sorted(golden) == sorted(APP_TAGS)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({short: snapshot(short) for short in APP_TAGS},
                                 indent=1, sort_keys=True) + "\n")
