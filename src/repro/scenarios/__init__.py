"""Declarative scenario registry + sweep runner.

See :mod:`repro.scenarios.registry` for the tables and the one
simulated-job builder, :mod:`repro.scenarios.sweep` for the runner (it
loads at first use: the CLI reads the registry's tags on every start);
``docs/scenarios.md`` documents the schema and the ``repro sweep`` CLI.
"""

from .registry import (
    APP_ORDER,
    EXTENDED_APP_ORDER,
    PAPER_APP_ORDER,
    SCALES,
    SCENARIOS,
    SHAPES,
    WORKLOADS,
    ClusterShape,
    Scenario,
    Workload,
    all_scenarios,
    datagen_digest,
    generate_input,
    get_scenario,
    get_shape,
    get_workload,
    records_for,
    scenario_apps,
    simulated_job,
    table2_tasks,
    validate_registry,
)

validate_registry()

_SWEEP = ("build_simulator", "report_bytes", "run_sweep")

__all__ = [
    "APP_ORDER", "EXTENDED_APP_ORDER", "PAPER_APP_ORDER", "SCALES",
    "SCENARIOS", "SHAPES", "WORKLOADS",
    "ClusterShape", "Scenario", "Workload",
    "all_scenarios", "datagen_digest", "generate_input", "get_scenario",
    "get_shape", "get_workload", "records_for", "scenario_apps",
    "simulated_job", "table2_tasks", "validate_registry", *_SWEEP,
]


def __getattr__(name: str):
    if name in _SWEEP:
        from . import sweep

        return getattr(sweep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
