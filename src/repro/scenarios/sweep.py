"""Registry sweeps: run scenario slices through the cluster simulator
and emit canonical (byte-deterministic) JSON reports.

A sweep is scenarios × policies × one scale. Every case builds its
simulator purely from registry declarations — cluster shape (including
the heterogeneity speed map), map-pool size, seed — and the app's row of
the generated task-time table, so the same slice always yields the same
report bytes: floats are rounded before serialization, rows are sorted,
keys are sorted, and no wall-clock value enters the canonical payload.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

from ..errors import ConfigError
from ..hadoop.job import JobResult
from ..hadoop.simulate import ClusterSimulator
from ..scheduling import get_policy, policy_names
from .registry import SCALES, Scenario, all_scenarios, get_shape, simulated_job


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


def run_sweep(scenarios: Sequence[Scenario] | None = None,
              policies: Iterable[str] | None = None,
              scale: str = "small") -> dict[str, Any]:
    """Run a registry slice; returns the report dict (canonicalized)."""
    if scale not in SCALES:
        raise ConfigError(f"unknown scale {scale!r}; known: {SCALES}")
    chosen = tuple(scenarios) if scenarios is not None else all_scenarios()
    if not chosen:
        raise ConfigError("sweep selected no scenarios")
    # Every policy by default, so each scenario's rows carry their own
    # CPU-only baseline and the two paper schedulers for comparison.
    slate = tuple(policies) if policies is not None else policy_names()

    results: list[dict[str, Any]] = []
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

    results.sort(key=lambda row: (row["scenario"], row["policy"]))
    return _canonical({
        "sweep": "scenario-registry cluster sweep",
        "scale": scale,
        "policies": sorted(slate),
        "scenarios": [s.id for s in chosen],
        "results": results,
    })


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
