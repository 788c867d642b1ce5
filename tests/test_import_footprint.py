"""Cold-start tripwire: what a fresh process loads for the path it runs.

A CPU-path job runs the mini-C filters and nothing of the GPU stack, the
cluster simulator or numpy; a GPU job loads numpy only when a map
kernel has a vector region to run (WC has none, KM has); a simulation,
``repro simulate`` included, loads neither the apps nor mini-C. No serial
job or simulation loads ``hashlib`` (OpenSSL's ``libcrypto`` behind
``_hashlib``), ``pickle`` or the daemon pool, nor does a single-split
job at any worker count (its one map task and its reduce tasks run in
the driver); a job with a pooled map phase does. The
pytest process has imported everything already, so every case runs in a
fresh interpreter and reports its ``sys.modules``.

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
    "hashlib", "_hashlib", "pickle", "repro.parallel.daemon", "mmap",
)

#: A functional job in the child: ``TAG``, ``RECORDS``, ``USE_GPU`` and
#: ``WORKERS`` are set by the caller. Serial unless ``WORKERS`` says
#: otherwise (whatever ``REPRO_WORKERS`` says): a pooled task loads its
#: modules in a worker.
JOB = """
from dataclasses import asdict

from repro.apps import get_app
from repro.hadoop.local import LocalJobRunner
from repro.minic.interpreter import ExecCounters
from repro.obs import trace as obs

app = get_app(TAG)
text = app.generate(RECORDS, seed=7)
runner = LocalJobRunner(app, use_gpu=USE_GPU, workers=WORKERS)
report["numpy_before_run"] = sys.modules.get("numpy") is not None
with obs.use_recorder(obs.TraceRecorder()) as rec:
    result = runner.run(text)
counters = ExecCounters()
for task in result.map_task_results:
    if task.gpu_task is not None:
        counters = counters.merged(task.gpu_task.map_launch.counters)
report.update(
    map_tasks=result.map_tasks,
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

#: The ``repro simulate`` command, parser included: its durations come
#: from the task-time table, so it runs no calibration job.
SIMULATE_COMMAND = """
from repro import cli

report.update(rc=cli.main(["simulate", "WC", "--task-scale", "0.02",
                           "--policy", "tail"]))
"""

#: Every name ``repro.parallel`` exports resolves; the daemon's load on
#: first use.
PARALLEL_NAMES = """
import repro.parallel

report["daemon_on_import"] = "repro.parallel.daemon" in sys.modules
report["all"] = list(repro.parallel.__all__)
report["resolved"] = [name for name in repro.parallel.__all__
                      if getattr(repro.parallel, name, None) is not None]
report["get_pool_is_daemons"] = (
    repro.parallel.get_pool is sys.modules["repro.parallel.daemon"].get_pool)
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
    return fresh_process(JOB, TAG="KM", RECORDS=60, USE_GPU=True, WORKERS=1)


def test_cpu_job_loads_no_gpu_stack_simulator_numpy_or_pool():
    report = fresh_process(JOB, TAG="WC", RECORDS=200, USE_GPU=False,
                           WORKERS=1)
    assert report["output"] != "[]"
    assert report["loaded"] == ["repro.apps", "repro.minic"]


def test_gpu_job_without_vector_regions_loads_no_numpy():
    report = fresh_process(JOB, TAG="WC", RECORDS=200, USE_GPU=True,
                           WORKERS=1)
    assert report["regions"] == 0 and report["fallbacks"] > 0
    assert report["loaded"] == ["repro.apps", "repro.minic",
                                "repro.gpu.vector", "repro.runtime.gpu_task"]


def test_single_split_job_on_two_workers_loads_no_pool():
    # One split is one map task, run inline; reduce tasks always run
    # in the driver. So the job loads exactly what the serial job does.
    report = fresh_process(JOB, TAG="WC", RECORDS=40, USE_GPU=False,
                           WORKERS=2)
    assert report["map_tasks"] == 1
    assert report["output"] != "[]"
    assert report["loaded"] == ["repro.apps", "repro.minic"]


def test_pooled_job_loads_the_daemon():
    # The serial cases' absence of the pool is not vacuous: a job whose
    # map phase fans out over two workers does load it. Its tasks carry
    # their splits, so nothing maps a shared input file.
    report = fresh_process(JOB, TAG="WC", RECORDS=3000, USE_GPU=False,
                           WORKERS=2)
    assert report["map_tasks"] >= 2
    assert report["output"] != "[]"
    assert {"repro.parallel.daemon", "pickle",
            "multiprocessing"} <= set(report["loaded"])
    assert "mmap" not in report["loaded"]


def test_parallel_names_resolve_without_loading_the_daemon_first():
    report = fresh_process(PARALLEL_NAMES)
    assert not report["daemon_on_import"]
    assert report["resolved"] == report["all"]
    assert report["get_pool_is_daemons"]


@needs_numpy
def test_gpu_job_with_vector_regions_loads_numpy_at_its_launch(km_gpu_job):
    assert km_gpu_job["regions"] > 0
    assert not km_gpu_job["numpy_before_run"]
    assert "numpy" in km_gpu_job["loaded"]


def test_simulation_loads_no_apps_minic_or_numpy():
    report = fresh_process(SIMULATION)
    assert report["tasks"] > 0
    assert report["loaded"] == ["repro.hadoop.simulate"]


def test_simulate_command_loads_no_apps_minic_or_numpy():
    report = fresh_process(SIMULATE_COMMAND)
    assert report["rc"] == 0
    assert report["loaded"] == ["repro.hadoop.simulate"]


@needs_numpy
def test_vectorizing_job_without_numpy_equals_the_numpy_run(km_gpu_job):
    report = fresh_process(JOB, block_numpy=True, TAG="KM", RECORDS=60,
                           USE_GPU=True, WORKERS=1)
    assert "numpy" not in report["loaded"]
    assert report["regions"] == 0 and report["fallbacks"] > 0
    for key in ("output", "task_s", "counters"):
        assert report[key] == km_gpu_job[key], key
