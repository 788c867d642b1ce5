"""Cold-start tripwire: what a fresh process loads for the path it runs.

A CPU-path job runs the mini-C filters and nothing of the GPU stack, the
cluster simulator or numpy; a GPU job loads numpy only when a map
kernel has a vector region to run (WC has none, KM has); a simulation
loads neither the apps nor mini-C. The pytest process has imported
everything already, so every case runs in a fresh interpreter and
reports its ``sys.modules``.

The last case runs a vectorizing GPU job with numpy made unimportable:
the vector engine takes its whole-kernel fallback and the job must
equal the numpy run in everything it computes.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules whose presence the cases check.
WATCHED = (
    "numpy", "multiprocessing", "repro.apps", "repro.minic",
    "repro.gpu.vector", "repro.hadoop.simulate", "repro.runtime.gpu_task",
)

#: A functional job in the child: ``TAG``, ``RECORDS`` and ``USE_GPU``
#: are set by the caller. Serial on purpose (``workers=1`` whatever
#: ``REPRO_WORKERS`` says): a pooled task loads its modules in a worker.
JOB = """
from dataclasses import asdict

from repro.apps import get_app
from repro.hadoop.local import LocalJobRunner
from repro.minic.interpreter import ExecCounters
from repro.obs import trace as obs

app = get_app(TAG)
text = app.generate(RECORDS, seed=7)
runner = LocalJobRunner(app, use_gpu=USE_GPU, workers=1)
report["numpy_before_run"] = sys.modules.get("numpy") is not None
with obs.use_recorder(obs.TraceRecorder()) as rec:
    result = runner.run(text)
counters = ExecCounters()
for task in result.map_task_results:
    if task.gpu_task is not None:
        counters = counters.merged(task.gpu_task.map_launch.counters)
report.update(
    output=repr(list(result.output.items())),
    task_s=[repr(s) for s in result.task_seconds()],
    counters=asdict(counters),
    regions=rec.metrics.count("gpu.vector.regions"),
    fallbacks=rec.metrics.count("gpu.vector.fallbacks"),
)
"""

SIMULATION = """
from repro.scenarios import build_simulator, get_scenario

result = build_simulator(get_scenario("ts-mega1k-tail"), "tail").run()
report.update(tasks=result.cpu_tasks + result.gpu_tasks)
"""

needs_numpy = pytest.mark.skipif(importlib.util.find_spec("numpy") is None,
                                 reason="numpy is not installed")


def fresh_process(body: str, block_numpy: bool = False, **names) -> dict:
    """Run ``body`` in a new interpreter with ``names`` bound as globals;
    return its ``report`` dict plus ``loaded``, the :data:`WATCHED`
    modules in its ``sys.modules`` at the end."""
    script = "\n".join([
        "import json, sys",
        "sys.modules['numpy'] = None" if block_numpy else "",
        *(f"{name} = {value!r}" for name, value in names.items()),
        "report = {}",
        textwrap.dedent(body),
        f"report['loaded'] = [m for m in {WATCHED!r} "
        "if sys.modules.get(m) is not None]",
        "print(json.dumps(report))",
    ])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def km_gpu_job() -> dict:
    return fresh_process(JOB, TAG="KM", RECORDS=60, USE_GPU=True)


def test_cpu_job_loads_no_gpu_stack_simulator_numpy_or_pool():
    report = fresh_process(JOB, TAG="WC", RECORDS=200, USE_GPU=False)
    assert report["output"] != "[]"
    assert report["loaded"] == ["repro.apps", "repro.minic"]


def test_gpu_job_without_vector_regions_loads_no_numpy():
    report = fresh_process(JOB, TAG="WC", RECORDS=200, USE_GPU=True)
    assert report["regions"] == 0 and report["fallbacks"] > 0
    assert "repro.gpu.vector" in report["loaded"]
    assert "numpy" not in report["loaded"]


@needs_numpy
def test_gpu_job_with_vector_regions_loads_numpy_at_its_launch(km_gpu_job):
    assert km_gpu_job["regions"] > 0
    assert not km_gpu_job["numpy_before_run"]
    assert "numpy" in km_gpu_job["loaded"]


def test_simulation_loads_no_apps_minic_or_numpy():
    report = fresh_process(SIMULATION)
    assert report["tasks"] > 0
    assert report["loaded"] == ["repro.hadoop.simulate"]


@needs_numpy
def test_vectorizing_job_without_numpy_equals_the_numpy_run(km_gpu_job):
    report = fresh_process(JOB, block_numpy=True, TAG="KM", RECORDS=60,
                           USE_GPU=True)
    assert "numpy" not in report["loaded"]
    assert report["regions"] == 0 and report["fallbacks"] > 0
    for key in ("output", "task_s", "counters"):
        assert report[key] == km_gpu_job[key], key
