"""Sweep-runner tests: canonical reports, determinism, and performance.

Tier-1 covers the mini-shape smoke slice — byte-identical reports
across runs, canonical JSON round-trips, the CLI leg — the golden
full-registry report, and two performance guards (one wall-clock, one a
deterministic event budget with a traced-memory bound per map task).
The 1000-node × 3-policy budget test runs in the nightly ``-m slow``
tier with the acceptance wall-clock bound, beside the scale-large
memory bound.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path

import pytest

from repro import cli
from repro.scenarios import (
    all_scenarios,
    build_simulator,
    get_scenario,
    report_bytes,
    run_sweep,
)
from repro.scheduling import policy_names

#: The canonical report of every registry scenario at scale small
#: (``python -m repro sweep --scale small -o tests/golden/sweep_small.json``),
#: first generated by the polling simulator, regenerated when the
#: durations moved to the task-time table and when the registry's
#: extension scenarios moved to the tail policy. It pins the simulator's
#: answers: regenerate only for a deliberate change of simulated
#: behaviour, never to make a performance change pass.
GOLDEN_SWEEP = Path(__file__).resolve().parent / "golden" / "sweep_small.json"

MINI = [s for s in all_scenarios() if s.shape == "mini"]
MEGA = [s for s in all_scenarios() if s.shape.startswith("mega1k")]

#: ``ts-mega1k-tail`` under its tail policy at scale large: the job's
#: simulated seconds and the events its loop dispatched.
LARGE_JOB_SECONDS = 19883.059552316063
LARGE_DISPATCHED = 239_394


def traced_mega1k_run(scale: str):
    """Build and run ``ts-mega1k-tail`` (tail policy) under
    ``tracemalloc``: the simulator, its result and the peak traced bytes
    per map task."""
    scenario = get_scenario("ts-mega1k-tail")
    tracemalloc.start()
    try:
        sim = build_simulator(scenario, "tail", scale)
        result = sim.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sim, result, peak / len(sim.tasks)


class TestReportShape:
    def test_rows_cover_slate_plus_scenario_policy(self):
        report = run_sweep(MINI, scale="small")
        by_scenario: dict[str, set[str]] = {}
        for row in report["results"]:
            by_scenario.setdefault(row["scenario"], set()).add(row["policy"])
        for scenario in MINI:
            assert by_scenario[scenario.id] >= \
                set(policy_names()) | {scenario.policy}

    def test_rows_sorted_and_speedups_present(self):
        report = run_sweep(MINI, scale="small")
        keys = [(r["scenario"], r["policy"]) for r in report["results"]]
        assert keys == sorted(keys)
        for row in report["results"]:
            assert row["job_seconds"] > 0
            assert "speedup_vs_cpu_only" in row
            if row["policy"] == "cpu-only":
                assert row["speedup_vs_cpu_only"] == pytest.approx(1.0)
                assert row["gpu_tasks"] == 0

    def test_unknown_scale_and_empty_selection_raise(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            run_sweep(MINI, scale="huge")
        with pytest.raises(ConfigError):
            run_sweep([], scale="small")


class TestDeterminism:
    def test_report_bytes_identical_across_runs(self):
        first = report_bytes(run_sweep(MINI, scale="small"))
        second = report_bytes(run_sweep(MINI, scale="small"))
        assert first == second

    def test_full_registry_report_matches_golden_bytes(self):
        got = report_bytes(run_sweep(scale="small"))
        want = GOLDEN_SWEEP.read_bytes()
        if got != want:  # a real diff: name the first divergent row
            rows = zip(json.loads(got)["results"],
                       json.loads(want)["results"])
            for g, w in rows:
                assert g == w, f"{w['scenario']} / {w['policy']} diverged"
            pytest.fail("reports differ outside the result rows")

    def test_canonical_json_round_trips(self):
        report = run_sweep(MINI, scale="small")
        blob = report_bytes(report)
        assert blob.endswith(b"\n")
        assert json.loads(blob) == report
        # Canonicalization already rounded floats: re-serializing the
        # parsed payload reproduces the exact bytes.
        assert (json.dumps(json.loads(blob), indent=2, sort_keys=True)
                + "\n").encode() == blob


class TestCli:
    def test_sweep_list(self, capsys):
        assert cli.main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        for scenario in all_scenarios():
            assert scenario.id in out

    def test_sweep_json_is_canonical(self, capsys):
        assert cli.main(["sweep", "--scenarios", "wc-mini-tail",
                         "--json"]) == 0
        out = capsys.readouterr().out
        parsed = json.loads(out)
        assert parsed["results"]

    def test_sweep_writes_report_file(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.json"
        assert cli.main(["sweep", "--shapes", "mini",
                         "-o", str(out_path)]) == 0
        capsys.readouterr()
        report = json.loads(out_path.read_bytes())
        assert {row["shape"] for row in report["results"]} == {"mini"}

    def test_empty_filter_errors(self, capsys):
        # main() catches ReproError and reports it as a nonzero exit.
        assert cli.main(["sweep", "--apps", "WC", "--shapes", "c2"]) != 0
        assert "selected no scenarios" in capsys.readouterr().err


class TestPerformance:
    def test_mini_smoke_sweep_is_fast(self):
        # Small-N guard for the event-loop fast paths: the tier-1 smoke
        # slice must stay interactive (~0.2s on a dev laptop; the bound
        # leaves ~25x headroom for CI jitter).
        start = time.perf_counter()
        run_sweep(MINI, scale="small")
        assert time.perf_counter() - start < 5.0

    def test_simulator_bytes_per_map_task(self):
        # One 1000-node simulation at small scale (16k map tasks) — the
        # per-policy unit of the nightly budget test, ~0.3 s untraced. What keeps
        # it there is that heartbeats are event-driven, and that is
        # checked by counting, not timing: 1.82 events per attempt
        # (one launch-side heartbeat share plus one completion), where
        # dispatching every heartbeat of every tracker costs 14.2.
        # Every map task is in flight after the first heartbeat wave, so
        # the traced peak is mostly per-task state: ~512 B per task with
        # a slotted task and a slotted attempt that is its own event,
        # ~840 B with dict-backed ones and a closure per attempt
        # (CPython 3.11).
        sim, _, per_task = traced_mega1k_run("small")
        assert per_task <= 650, f"{per_task:.0f} traced bytes per map task"
        assert sim.loop.dispatched <= 2.5 * len(sim.tasks)

    @pytest.mark.slow
    def test_large_scale_simulation_memory_and_answer(self):
        # ts-mega1k-tail at scale large (128k map tasks): ~324 B per
        # task now, ~470 B with dict-backed tasks and attempts. The job
        # length and event count are the values the simulator gave
        # before the per-attempt objects were slotted (commit 687cde2);
        # a memory change must not move them.
        sim, result, per_task = traced_mega1k_run("large")
        assert per_task <= 400, f"{per_task:.0f} traced bytes per map task"
        assert result.job_seconds == LARGE_JOB_SECONDS
        assert sim.loop.dispatched == LARGE_DISPATCHED

    @pytest.mark.slow
    def test_thousand_node_three_policy_sweep_within_budget(self):
        # Acceptance bound: every mega1k scenario × the default slate
        # (plus each scenario's own policy) at small scale in <60s.
        start = time.perf_counter()
        report = run_sweep(MEGA, scale="small")
        elapsed = time.perf_counter() - start
        assert len({r["policy"] for r in report["results"]}) >= 3
        assert elapsed < 60.0, f"mega sweep took {elapsed:.1f}s"
