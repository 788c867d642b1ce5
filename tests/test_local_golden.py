"""Golden regression for the functional job runner.

``tests/golden/local_jobs.json`` pins, for every registry app on both
execution paths at the registry's small size, what a
:class:`~repro.hadoop.local.LocalJobRunner` job must reproduce bit for
bit: the output, the pair and byte counts that cross the shuffle, every
map and reduce task's simulated seconds (as ``repr``, so the last float
bit counts) and the summed :class:`~repro.minic.interpreter.ExecCounters`
of the Streaming filters. A host-side optimisation of the map task, the
shuffle or the pool leaves this file alone; it changes only in a PR
that says it changes the cost model or an application.

Regenerate with ``PYTHONPATH=src python -m tests.test_local_golden``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.apps import all_apps, get_app
from repro.apps.base import Application
from repro.hadoop.local import LocalJobRunner
from repro.minic.interpreter import ExecCounters
from repro.scenarios import generate_input

GOLDEN = Path(__file__).resolve().parent / "golden" / "local_jobs.json"
APP_TAGS = [app.short for app in all_apps()]
FILTERS = ("cpu_map", "cpu_combine", "cpu_reduce")


def snapshot(short: str, use_gpu: bool, workers: int) -> dict:
    """Everything the golden pins for one job. The filters' counters are
    summed by wrapping ``Application.cpu_*`` in this process, so they
    are only observable (and only included) at ``workers == 1``; at any
    worker count the simulated seconds are functions of them."""
    app = get_app(short)
    text = generate_input(short, "small")
    # ~6 splits whatever the app's record size, so every job fans out.
    split_bytes = max(256, len(text.encode()) // 6)
    sums = {name: ExecCounters() for name in FILTERS}
    originals = {name: getattr(Application, name) for name in FILTERS}

    def counting(name):
        def run(self, stdin):
            out, counters = originals[name](self, stdin)
            sums[name] = sums[name].merged(counters)
            return out, counters
        return run

    for name in FILTERS:
        setattr(Application, name, counting(name))
    try:
        result = LocalJobRunner(app, use_gpu=use_gpu, split_bytes=split_bytes,
                                workers=workers).run(text)
    finally:
        for name, original in originals.items():
            setattr(Application, name, original)
    snap = {
        "output_sha256": hashlib.sha256(
            repr(list(result.output.items())).encode()).hexdigest(),
        "output_keys": len(result.output),
        "map_tasks": result.map_tasks,
        "map_output_pairs": result.map_output_pairs,
        "shuffle_bytes": result.shuffle_bytes,
        "map_task_s": [repr(s) for s in result.task_seconds()],
        "reduce_task_s": [repr(s) for s in result.reduce_seconds()],
    }
    if workers == 1:
        snap["exec_counters"] = {name: asdict(sums[name]) for name in FILTERS}
    return snap


def _job_id(short: str, use_gpu: bool) -> str:
    return f"{short}/{'gpu' if use_gpu else 'cpu'}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("use_gpu", [False, True], ids=["cpu", "gpu"])
@pytest.mark.parametrize("short", APP_TAGS)
def test_job_matches_golden(golden, short, use_gpu, workers):
    expected = golden[_job_id(short, use_gpu)]
    if workers > 1:
        expected = {k: v for k, v in expected.items() if k != "exec_counters"}
    assert snapshot(short, use_gpu, workers) == expected


def test_golden_covers_the_registry(golden):
    assert sorted(golden) == sorted(
        _job_id(short, use_gpu)
        for short in APP_TAGS for use_gpu in (False, True))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {_job_id(short, use_gpu): snapshot(short, use_gpu, 1)
         for short in APP_TAGS for use_gpu in (False, True)},
        indent=1, sort_keys=True) + "\n")
