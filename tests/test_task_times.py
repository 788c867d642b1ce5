"""The one duration source of every simulated job.

``src/repro/scenarios/task_times.py`` is generated: for every (app,
paper cluster) pair Table 2 runs, the four ``JobConf`` fields a
simulated job takes from the single-task calibration
(:func:`repro.experiments.calibrate.simulated_task_times`), plus Table
2's map and reduce task counts. This file recomputes every row and
fails on any drift, so a cost-model change that moves a task's seconds
regenerates the table in a PR that says so:

    PYTHONPATH=src python -m tests.test_task_times

It also checks the one builder that reads the table
(:func:`repro.scenarios.registry.simulated_job`), and that the registry
sweep and the Fig. 4 experiment simulate the same job from it.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro.apps import get_app
from repro.config import CLUSTER1, CLUSTER2
from repro.errors import ConfigError
from repro.experiments import figures
from repro.experiments.calibrate import simulated_task_times
from repro.scenarios import (
    APP_ORDER,
    all_scenarios,
    build_simulator,
    simulated_job,
    table2_tasks,
    task_times,
)
from repro.scheduling import CpuOnlyPolicy, GpuFirstPolicy, TailPolicy

MODULE = Path(task_times.__file__)

HEADER = '''"""Per-task durations of every simulated job. GENERATED, do not edit.

One row per (app, paper cluster) that Table 2 runs (KM has no Cluster2
row: the paper marks it NA, its data exceeding an M2090's memory). A row
holds the four :class:`~repro.hadoop.job.JobConf` fields
:func:`repro.experiments.calibrate.simulated_task_times` measures: one
map task's CPU and GPU seconds and its output bytes, rescaled so the CPU
task lasts 60 s, and each reducer's compute seconds. :data:`TABLE2_TASKS`
holds Table 2's (map tasks, reduce tasks) for the same keys, so a
simulation needs neither the apps nor mini-C.
:func:`repro.scenarios.registry.simulated_job` is the one reader.

Regenerate with ``PYTHONPATH=src python -m tests.test_task_times``;
``tests/test_task_times.py`` recomputes every row and fails on drift.
"""
'''


def paper_figures(tag: str, cluster) -> object | None:
    """Table 2's figures for ``tag`` on ``cluster``; None where the
    paper marks it NA (KM on Cluster2)."""
    app = get_app(tag)
    figures = app.cluster1 if cluster.name == "Cluster1" else app.cluster2
    if figures is None or figures.map_tasks is None:
        return None
    return figures


def table2_points() -> list[tuple[str, object]]:
    """(app tag, paper cluster) for every figure Table 2 gives."""
    return [(tag, cluster) for tag in APP_ORDER
            for cluster in (CLUSTER1, CLUSTER2)
            if paper_figures(tag, cluster) is not None]


def render() -> str:
    """The table module's text, recomputed from the calibration."""
    rows, counts = [], []
    for tag, cluster in table2_points():
        key = f'("{tag}", "{cluster.name}")'
        fields = simulated_task_times(tag, cluster)
        rows.append(f"    {key}: {{\n" + "".join(
            f'        "{name}": {value!r},\n'
            for name, value in fields.items()) + "    },\n")
        paper = paper_figures(tag, cluster)
        counts.append(f"    {key}: ({paper.map_tasks}, "
                      f"{paper.reduce_tasks}),\n")
    return (HEADER
            + "\nTASK_TIMES: dict[tuple[str, str], dict[str, float]] = {\n"
            + "".join(rows) + "}\n"
            + "\nTABLE2_TASKS: dict[tuple[str, str], tuple[int, int]] = {\n"
            + "".join(counts) + "}\n")


POINTS = table2_points()
POINT_IDS = [f"{tag}-{cluster.name}" for tag, cluster in POINTS]


class TestTableDrift:
    @pytest.mark.parametrize("tag, cluster", POINTS, ids=POINT_IDS)
    def test_row_matches_calibration(self, tag, cluster):
        key = (tag, cluster.name)
        assert task_times.TASK_TIMES[key] == \
            simulated_task_times(tag, cluster)
        paper = paper_figures(tag, cluster)
        assert task_times.TABLE2_TASKS[key] == \
            (paper.map_tasks, paper.reduce_tasks)

    def test_rows_are_exactly_table2(self):
        keys = [(tag, cluster.name) for tag, cluster in POINTS]
        assert list(task_times.TASK_TIMES) == keys
        assert list(task_times.TABLE2_TASKS) == keys
        assert ("KM", "Cluster2") not in task_times.TASK_TIMES

    def test_module_is_the_generated_text(self):
        assert MODULE.read_text(encoding="utf-8") == render()


class TestBuilder:
    def test_job_fields_come_from_the_row(self):
        job = simulated_job("WC", CLUSTER1, 100, 7, seed=3)
        row = task_times.TASK_TIMES[("WC", "Cluster1")]
        assert (job.name, job.num_map_tasks, job.num_reduce_tasks,
                job.cluster, job.seed, job.failure_rate,
                job.node_speed_factors) == ("WC", 100, 7, CLUSTER1, 3, 0.0,
                                            None)
        for name, value in row.items():
            assert getattr(job, name) == value

    def test_lower_case_tag_and_speed_factors(self):
        job = simulated_job("wc", CLUSTER1, 10, 1, seed=1,
                            node_speed_factors={0: 2.0})
        assert job.name == "WC"
        assert job.node_speed_factors == {0: 2.0}

    def test_table2_tasks_scale_maps_only(self):
        assert table2_tasks("WC", "Cluster1") == (5760, 48)
        assert table2_tasks("WC", "Cluster1", 0.02) == (115, 48)
        assert table2_tasks("GR", "Cluster2", 1e-9) == (1, 16)

    @pytest.mark.parametrize("lookup", [
        lambda: simulated_job("KM", CLUSTER2, 10, 1, seed=1),
        lambda: table2_tasks("KM", "Cluster2"),
    ])
    def test_table2_na_is_a_config_error(self, lookup):
        with pytest.raises(ConfigError, match="KM has no Table 2 entry for "
                                              "Cluster2 .the paper marks it NA"):
            lookup()

    def test_registry_refuses_a_scenario_without_a_row(self, monkeypatch):
        from repro.scenarios import registry

        na = replace(registry.SCENARIOS[0], id="km-c2-na", app="KM",
                     shape="c2")
        monkeypatch.setattr(registry, "SCENARIOS",
                            registry.SCENARIOS + (na,))
        with pytest.raises(ConfigError, match="KM has no Table 2 entry"):
            registry.validate_registry()

    def test_unknown_app_lists_the_known_tags(self):
        with pytest.raises(ConfigError, match=r"unknown app 'ZZ'; known: "):
            simulated_job("ZZ", CLUSTER1, 10, 1, seed=1)


#: The Cluster1 scenarios of Fig. 4a's apps (GR, WC, HS, HR, LR, KM).
FIG4A_C1 = [s for s in all_scenarios()
            if s.shape == "c1" and s.app in figures.APP_ORDER]


@pytest.mark.parametrize("scenario", FIG4A_C1, ids=lambda s: s.id)
def test_sweep_and_fig4_simulate_the_same_job(scenario, monkeypatch):
    """At a scenario's task counts and seed, the sweep's simulator runs
    the job Fig. 4a builds for each policy. Fig. 4 runs its CPU-only
    baseline on the GPU-less copy of the cluster, which that policy
    never reads; the jobs are otherwise equal."""
    tasks = (scenario.map_tasks("small"), scenario.reduce_tasks)
    monkeypatch.setattr(figures, "RUN_SEEDS", (scenario.seed,))
    for policy, cluster in ((CpuOnlyPolicy, CLUSTER1.cpu_only()),
                            (GpuFirstPolicy, CLUSTER1.with_gpus(1)),
                            (TailPolicy, CLUSTER1.with_gpus(1))):
        sweep = build_simulator(scenario, policy.name, "small")
        job = simulated_job(scenario.app, cluster, *tasks,
                            seed=scenario.seed)
        assert replace(job, cluster=CLUSTER1) == sweep.job
        if policy is not CpuOnlyPolicy:
            assert job == sweep.job
        fig4 = figures._best_of_seeds(scenario.app, cluster, tasks, policy)
        assert sweep.run().job_seconds == fig4.job_seconds, policy.name


def test_agreement_covers_six_fig4a_apps():
    assert sorted(s.app for s in FIG4A_C1) == \
        ["GR", "HR", "HS", "KM", "LR", "WC"]


if __name__ == "__main__":
    MODULE.write_text(render(), encoding="utf-8")
