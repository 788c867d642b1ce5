"""Registry sweeps: run scenario slices through the cluster simulator
and emit canonical (byte-deterministic) JSON reports.

A sweep is scenarios × policies × one scale. Every case builds its
simulator purely from registry declarations — cluster shape (including
the heterogeneity speed map), map-pool size, seed — and the app's row of
the generated task-time table, so the same slice always yields the same
report bytes: floats are rounded before serialization, rows are sorted,
keys are sorted, and no wall-clock value enters the canonical payload.

``verify=True`` adds a functional conformance leg per scenario: the
app's canonical input at the sweep scale runs through both execution
paths (CPU Streaming and the simulated-GPU pipeline) and is checked
against the pure-Python reference, with the datagen and output digests
recorded in the report.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, Sequence

from ..errors import ConfigError
from ..hadoop.job import JobResult
from ..hadoop.simulate import ClusterSimulator
from ..scheduling import get_policy
from .registry import (
    SCALES,
    Scenario,
    all_scenarios,
    datagen_digest,
    generate_input,
    get_shape,
    get_workload,
    simulated_job,
)

#: Default policy slate: every scenario also runs under these, so each
#: sweep row set carries its own CPU-only baseline and the two paper
#: schedulers for comparison.
DEFAULT_POLICIES = ("cpu-only", "gpu-first", "tail")


def build_simulator(scenario: Scenario, policy_name: str,
                    scale: str = "small") -> ClusterSimulator:
    """One simulator wired from registry declarations, its job from
    :func:`~repro.scenarios.registry.simulated_job`."""
    shape = get_shape(scenario.shape)
    job = simulated_job(
        scenario.app, shape.cluster(), scenario.map_tasks(scale),
        scenario.reduce_tasks, scenario.seed, shape.speed_factors())
    return ClusterSimulator(job, get_policy(policy_name))


def _result_row(scenario: Scenario, policy_name: str, scale: str,
                result: JobResult) -> dict[str, Any]:
    return {
        "scenario": scenario.id,
        "app": scenario.app,
        "shape": scenario.shape,
        "policy": policy_name,
        "scale": scale,
        "map_tasks": scenario.map_tasks(scale),
        "reduce_tasks": scenario.reduce_tasks,
        "job_seconds": result.job_seconds,
        "map_phase_seconds": result.map_phase_seconds,
        "reduce_phase_seconds": result.reduce_phase_seconds,
        "cpu_tasks": result.cpu_tasks,
        "gpu_tasks": result.gpu_tasks,
        "forced_gpu_tasks": result.forced_gpu_tasks,
        "data_local_fraction": result.data_local_fraction,
        "failures": result.failures,
    }


def _verify_scenario(scenario: Scenario, scale: str) -> dict[str, Any]:
    """Functional conformance: CPU path vs GPU path vs reference."""
    from ..apps import get_app
    from ..hadoop.local import LocalJobRunner

    app = get_app(scenario.app)
    text = generate_input(scenario.app, scale, seed=scenario.seed)
    reference = app.reference(text) if app.reference else None
    cpu = LocalJobRunner(app, use_gpu=False, split_bytes=16 * 1024).run(text)
    gpu = LocalJobRunner(app, use_gpu=True, split_bytes=16 * 1024).run(text)

    def mismatch(got: dict, want: dict, what: str) -> None:
        raise ConfigError(
            f"scenario {scenario.id}: {what} diverged at scale {scale} "
            f"({len(got)} vs {len(want)} keys)"
        )

    for label, got, want in (
        ("cpu-vs-gpu", gpu.output, cpu.output),
        ("cpu-vs-reference", cpu.output, reference),
    ):
        if want is None:
            continue
        if set(got) != set(want):
            mismatch(got, want, label)
        for key, value in want.items():
            other = got[key]
            if isinstance(value, float) or isinstance(other, float):
                if not math.isclose(float(other), float(value),
                                    rel_tol=1e-4, abs_tol=1e-3):
                    mismatch(got, want, label)
            elif other != value:
                mismatch(got, want, label)

    output_blob = json.dumps(
        {str(k): cpu.output[k] for k in cpu.output},
        sort_keys=True, separators=(",", ":"),
    )
    import hashlib

    return {
        "records": get_workload(scenario.app).records(scale),
        "datagen_sha256": datagen_digest(scenario.app, scale,
                                         seed=scenario.seed),
        "output_sha256": hashlib.sha256(output_blob.encode()).hexdigest(),
        "output_keys": len(cpu.output),
        "paths_agree": True,
    }


def run_sweep(scenarios: Sequence[Scenario] | None = None,
              policies: Iterable[str] | None = None,
              scale: str = "small",
              verify: bool = False) -> dict[str, Any]:
    """Run a registry slice; returns the report dict (canonicalized)."""
    if scale not in SCALES:
        raise ConfigError(f"unknown scale {scale!r}; known: {SCALES}")
    chosen = tuple(scenarios) if scenarios is not None else all_scenarios()
    if not chosen:
        raise ConfigError("sweep selected no scenarios")
    slate = tuple(policies) if policies is not None else DEFAULT_POLICIES

    results: list[dict[str, Any]] = []
    verifications: dict[str, dict[str, Any]] = {}
    for scenario in chosen:
        names: list[str] = list(slate)
        if scenario.policy not in names:
            names.append(scenario.policy)
        rows: dict[str, dict[str, Any]] = {}
        for name in names:
            result = build_simulator(scenario, name, scale).run()
            rows[name] = _result_row(scenario, name, scale, result)
        baseline = rows.get("cpu-only")
        for row in rows.values():
            if baseline is not None and row["job_seconds"] > 0:
                row["speedup_vs_cpu_only"] = (
                    baseline["job_seconds"] / row["job_seconds"]
                )
        results.extend(rows.values())
        if verify:
            verifications[scenario.id] = _verify_scenario(scenario, scale)

    results.sort(key=lambda row: (row["scenario"], row["policy"]))
    report: dict[str, Any] = {
        "sweep": "scenario-registry cluster sweep",
        "scale": scale,
        "policies": sorted(slate),
        "scenarios": [s.id for s in chosen],
        "results": results,
    }
    if verify:
        report["verification"] = verifications
    return _canonical(report)


def _canonical(value: Any) -> Any:
    """Round floats (6 places) recursively so reports are byte-stable."""
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_canonical(v) for v in value]
    return value


def report_bytes(report: dict[str, Any]) -> bytes:
    """The canonical serialization: sorted keys, fixed separators."""
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode("utf-8")
