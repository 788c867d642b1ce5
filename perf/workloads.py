"""The benchmark's workloads: one frozen row each, plus the operation
every row stands for.

A row says *what* is measured and *why it was chosen*; an
:class:`Operation` built from a row and a seed knows how to generate
the input, run one operation with the program's defaults, and check
its output against an independent reference. The seed reaches datagen
(and, for the simulator, the job's placement/jitter seed) only — the
program sees generated inputs. No engine, backend or ``REPRO_*`` knob
is passed: a later PR that flips a default shows up as a gain or loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable


@dataclass(frozen=True, slots=True)
class Workload:
    name: str
    app: str         # registry app tag, or scenario id when path == "sim"
    records: int     # input records; simulated map tasks when path == "sim"
    path: str        # "cpu" | "gpu" | "sim"
    workers: int     # 1 = serial driver, >1 = warm daemon pool
    work_unit: str   # what ``records`` counts, the numerator of work_per_s
    why: str         # one line; copied into BENCHMARK.json


WORKLOADS: tuple[Workload, ...] = (
    Workload("wc_cpu", "WC", 10_000, "cpu", 1, "records",
             "mini-C map and combine filters do ~70% of the work: the "
             "target for codegen and hash combine"),
    Workload("ii_cpu", "II", 10_000, "cpu", 1, "records",
             "no combiner, every pair crosses the shuffle: shows "
             "framework/KV cost and must not move under hash combine"),
    Workload("wc_gpu", "WC", 8_000, "gpu", 1, "records",
             "GPU path where the vector engine rejects every region: "
             "map+combine kernels ~90%, where vector-as-default could cost"),
    # 900 records: ~110 KiB of text, so the default 64 KiB split gives two
    # GPU tasks at every seed (1 000 records straddles the third).
    Workload("km_gpu", "KM", 900, "gpu", 1, "records",
             "GPU path that vectorizes fully: ~97% in run_map_kernel, "
             "where a lane-engine change or default flip shows"),
    Workload("wc_pool2", "WC", 10_000, "cpu", 2, "records",
             "wc_cpu through the warm 2-worker daemon pool: pool, "
             "dispatch and driver-fold overhead"),
    Workload("sim_mega1k", "ts-mega1k-tail", 16_000, "sim", 1, "map_tasks",
             "1000-node cluster simulation, zero mini-C: interpreter PRs "
             "must leave it flat, simulator PRs show only here"),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: ``--smoke`` divides every row's size by this.
SMOKE_DIVISOR = 20


def scaled(workload: Workload, smoke: bool) -> Workload:
    if not smoke:
        return workload
    return replace(workload,
                   records=max(1, workload.records // SMOKE_DIVISOR))


def first_divergence(got: dict, want: dict) -> str | None:
    """The repo's own output rule (``scenarios.sweep._verify_scenario``):
    keys compare as strings, floats with ``isclose(rel_tol=1e-4,
    abs_tol=1e-3)``, everything else exactly. Returns a description of
    the first diverging key, or None."""
    got_s = {str(k): v for k, v in got.items()}
    want_s = {str(k): v for k, v in want.items()}
    if got_s.keys() != want_s.keys():
        odd = sorted(got_s.keys() ^ want_s.keys())[0]
        return (f"key {odd!r} on one side only "
                f"({len(got_s)} vs {len(want_s)} keys)")
    for key, value in want_s.items():
        other = got_s[key]
        if isinstance(value, float) or isinstance(other, float):
            if not math.isclose(float(other), float(value),
                                rel_tol=1e-4, abs_tol=1e-3):
                return f"key {key!r}: {other!r} != {value!r}"
        elif other != value:
            return f"key {key!r}: {other!r} != {value!r}"
    return None


def load_program(workload: Workload) -> None:
    """Import what a fresh process needs before it can run ``workload``
    (timed as ``setup.import_s``)."""
    if workload.path == "sim":
        import repro.scenarios.sweep  # noqa: F401
    else:
        import repro.apps  # noqa: F401
        import repro.hadoop.local  # noqa: F401


class JobOperation:
    """``LocalJobRunner(app, ...).run(text)`` on generated input."""

    def __init__(self, workload: Workload, seed: int):
        from repro.apps import get_app

        self.workload = workload
        self.seed = seed
        self.app = get_app(workload.app)
        self.text = self.app.generate(workload.records, seed)
        self.runner: Any = None
        self.kernels = 0
        self._reference: dict | None = None

    def cold_stages(self) -> list[tuple[str, Callable[[], Any]]]:
        """The cold path a first job pays inside the program, split by
        layer and in the order the job would reach it: ``(per-layer
        metric, stage)``. Run once in a fresh process, each stage
        timed; afterwards the caches the job uses are warm."""
        app = self.app
        programs = [app.map_program, app.combine_program, app.reduce_program]

        def parse() -> None:
            for program in programs:
                program()

        def compile_() -> None:
            from repro.minic.cache import warm_program

            for program in programs:
                if program() is not None:
                    warm_program(program())

        def translate() -> None:
            # The CPU path needs only the map translation (key length).
            results = [app.translate_map()]
            if self.workload.path == "gpu":
                results.append(app.translate_combine())
            self.kernels = sum(
                (r.map_kernel is not None) + (r.combine_kernel is not None)
                for r in results if r is not None
            )

        def spawn_pool() -> None:
            from repro.parallel import get_pool

            get_pool().ensure(self.workload.workers)

        stages = [("minic.parse_s", parse), ("minic.compile_s", compile_),
                  ("compiler.translate_s", translate)]
        if self.workload.workers > 1:
            stages.append(("parallel.pool_spawn_s", spawn_pool))
        return stages

    def build(self) -> None:
        """Construct the runner (and warm pool) — set-up, not job."""
        from repro.hadoop.local import LocalJobRunner

        w = self.workload
        kwargs = {"workers": w.workers} if w.workers > 1 else {}
        self.runner = LocalJobRunner(self.app, use_gpu=w.path == "gpu",
                                     **kwargs)

    def prepare(self) -> None:
        """Per-repeat work that is off the clock (nothing for a job)."""

    def run(self) -> Any:
        return self.runner.run(self.text)

    def check(self, result: Any) -> str | None:
        if self._reference is None:
            self._reference = self.app.reference(self.text)
        return first_divergence(result.output, self._reference)

    def simulated(self, result: Any) -> tuple[float, float, float]:
        """Simulated (map, reduce, job) seconds: critical paths of the
        ``LocalJobResult`` at this run's worker counts."""
        map_s = result.map_critical_path_seconds
        reduce_s = result.reduce_critical_path_seconds
        return map_s, reduce_s, map_s + reduce_s


class SimOperation:
    """``build_simulator(scenario, policy, "small").run()``; a fresh
    simulator per repeat, only ``run()`` on the clock."""

    def __init__(self, workload: Workload, seed: int):
        from repro.scenarios.registry import get_scenario, get_shape

        base = get_scenario(workload.app)
        slots = get_shape(base.shape).total_cpu_slots
        # ``waves`` sizes the map pool: at 16 000 tasks this is the
        # registry scenario at scale "small" unchanged.
        self.scenario = replace(base, seed=seed,
                                waves=workload.records / slots)
        self.workload = workload
        self.sim: Any = None
        self.kernels = 0
        self._job_seconds: float | None = None

    def cold_stages(self) -> list[tuple[str, Callable[[], Any]]]:
        return []  # no mini-C, no translation, no pool

    def build(self) -> None:
        self.prepare()

    def prepare(self) -> None:
        from repro.scenarios.sweep import build_simulator

        self.sim = build_simulator(self.scenario, self.scenario.policy,
                                   "small")

    def run(self) -> Any:
        return self.sim.run()

    def check(self, result: Any) -> str | None:
        tasks = self.workload.records
        if result.cpu_tasks + result.gpu_tasks != tasks:
            return (f"{result.cpu_tasks}+{result.gpu_tasks} tasks "
                    f"completed, {tasks} submitted")
        if result.failures != 0:
            return f"{result.failures} task failures"
        if self._job_seconds is None:
            self._job_seconds = result.job_seconds
        elif result.job_seconds != self._job_seconds:
            return (f"job_seconds {result.job_seconds!r} != "
                    f"{self._job_seconds!r} of an earlier repeat")
        return None

    def simulated(self, result: Any) -> tuple[float, float, float]:
        return (result.map_phase_seconds, result.reduce_phase_seconds,
                result.job_seconds)


def operation(workload: Workload, seed: int) -> JobOperation | SimOperation:
    cls = SimOperation if workload.path == "sim" else JobOperation
    return cls(workload, seed)
