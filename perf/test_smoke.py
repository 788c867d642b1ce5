"""Smoke test of the benchmark harness itself.

Run with ``python -m pytest perf -q``. Tier-1 does not collect it
(``testpaths = ["tests"]``): it starts fresh interpreters and a worker
pool, and takes about half a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

import layers
import run
import workloads as wl

METRICS = layers.END_TO_END + layers.PER_LAYER


def test_manifest_is_generated_from_the_rows():
    run.check_manifest()
    names = [w.name for w in wl.WORKLOADS] + [m.name for m in METRICS]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert max(m.bound for m in layers.END_TO_END) == \
        {m.name: m.bound for m in layers.END_TO_END}["setup_s"]


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Two ``--smoke`` runs of the whole set: (stdout, report) each."""
    runs = []
    for i in range(2):
        out = tmp_path_factory.mktemp("perf") / f"report{i}.json"
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--smoke",
             "--out", str(out)],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, json.loads(out.read_text())["sets"][0]))
    return runs


def test_every_declared_metric_is_printed_with_its_unit(smoke_runs):
    stdout, report = smoke_runs[0]
    lines = {tuple(line.split()[:2]): line for line in stdout.splitlines()}
    skipped = wl.BY_NAME["wc_pool2"].workers > report["wc_pool2"][
        "metrics"]["host_cpus"]
    for w in wl.WORKLOADS:
        assert list(report[w.name]["metrics"]) == [m.name for m in METRICS]
        assert report[w.name]["failures"] == []
        for m in METRICS:
            line = lines[(w.name, m.name)]
            if report[w.name]["metrics"][m.name] is None:
                assert skipped and line.endswith("skipped: 1-cpu host")
            else:
                assert line.split()[3] == m.unit, line
    last = json.loads(stdout.splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1


def test_layer_self_times_sum_to_the_traced_wall(smoke_runs):
    _, report = smoke_runs[0]
    stems = {w.metric for w in layers.WRAPS} | {"local.run_self",
                                                "simulate.run"}
    for w in wl.WORKLOADS:
        metrics = report[w.name]["metrics"]
        if metrics["bench.traced_wall_s"] is None:
            continue  # pool timings on a 1-CPU host
        layered = sum(metrics[f"{stem}_s"] for stem in stems)
        assert layered == pytest.approx(metrics["bench.traced_wall_s"],
                                        rel=0.02), w.name


def test_simulated_seconds_repeat_exactly(smoke_runs):
    (_, first), (_, second) = smoke_runs
    for w in wl.WORKLOADS:
        for name in ("costmodel.sim_map_s", "costmodel.sim_reduce_s",
                     "costmodel.sim_job_s"):
            assert first[w.name]["metrics"][name] == \
                second[w.name]["metrics"][name], (w.name, name)
        assert first[w.name]["metrics"]["costmodel.sim_job_s"] > 0


def test_traced_pass_restores_every_wrapped_attribute():
    workload = wl.scaled(wl.BY_NAME["wc_gpu"], smoke=True)
    wl.load_program(workload)
    op = wl.operation(workload, run.DEFAULT_SEED)
    op.build()
    # A dry install/restore lists every (owner, attribute, original).
    wrapped = layers.install(layers.Tracer())
    assert all(owner.__dict__[attr] is not original
               for owner, attr, original in wrapped)
    layers.restore(wrapped)
    assert len(wrapped) > len(layers.WRAPS)  # importers were rebound too

    tracer, *_, result = run.traced_pass(op, run.Clock())
    assert op.check(result) is None
    assert tracer.calls["gpu.map_kernel"] == result.map_tasks
    for owner, attr, original in wrapped:
        assert owner.__dict__[attr] is original, (owner, attr)
