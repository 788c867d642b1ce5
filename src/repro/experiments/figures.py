"""Regeneration of every figure in the paper's evaluation (§7).

Each ``fig*`` function returns plain data structures (dicts keyed by the
paper's benchmark tags) that the benchmark harness prints next to the
paper's reported shapes; EXPERIMENTS.md records the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Iterable

from ..config import CLUSTER1, CLUSTER2, ClusterConfig, OptimizationFlags
from ..errors import ConfigError
from ..hadoop import ClusterSimulator, JobConf, JobResult
from ..obs import trace as obs
from ..scenarios.registry import PAPER_APP_ORDER, simulated_job, table2_tasks
from ..scenarios.task_times import TASK_TIMES
from ..scheduling import CpuOnlyPolicy, GpuFirstPolicy, TailPolicy
from .calibrate import single_task_times

#: Benchmarks in the paper's Fig. 4/5 ordering (by increasing speedup).
APP_ORDER = list(PAPER_APP_ORDER)

#: Seeds for the paper's run-three-times-report-best protocol (§7.3).
RUN_SEEDS = (11, 23, 47)


# --------------------------------------------------------------------------
# Fig. 3 — tail scheduling key idea (one node, the real policies)
# --------------------------------------------------------------------------

#: A slot is granted on a 0.6-s heartbeat, so every schedule carries a
#: few heartbeats of slop; 600-s tasks keep it near 0.1% of a task.
_FIG3_TASK_SECONDS = 600.0

Schedule = list[tuple[int, str, float, float]]  # task, slot lane, start, end


@dataclass
class Fig3Result:
    """Makespans (in CPU-task units) of the §6.1 example: 19 tasks, 2 CPU
    slots, 1 GPU that is 6× faster than a CPU slot."""

    gpu_first_makespan: float
    tail_makespan: float
    gpu_first_schedule: Schedule
    tail_schedule: Schedule
    job: JobConf


def _traced_schedule(job: JobConf, policy) -> tuple[float, Schedule]:
    """Run ``job`` under ``policy``; its makespan and per-task schedule
    (tasks numbered from 1 as in the figure) from the ``attempt`` spans."""
    with obs.use_recorder(obs.TraceRecorder()) as rec:
        result = ClusterSimulator(job, policy).run()
    unit = job.cpu_task_seconds
    schedule = sorted((span.args["task"] + 1, span.tid, span.ts / unit,
                       span.end / unit) for span in rec.spans("attempt"))
    return result.job_seconds / unit, schedule


def fig3(num_tasks: int = 19, cpu_slots: int = 2,
         gpu_speedup: float = 6.0) -> Fig3Result:
    """The paper's Fig. 3 example on a one-node :class:`ClusterSimulator`,
    under the same policies as Fig. 4. Expected: tail scheduling finishes
    the job sooner because the final tasks run on the GPU instead of
    straggling on CPU slots."""
    cluster = dc_replace(CLUSTER1, num_slaves=1, gpus_per_node=1,
                         max_map_slots_per_node=cpu_slots)
    job = JobConf(name="fig3", num_map_tasks=num_tasks, num_reduce_tasks=0,
                  cluster=cluster, cpu_task_seconds=_FIG3_TASK_SECONDS,
                  gpu_task_seconds=_FIG3_TASK_SECONDS / gpu_speedup,
                  duration_jitter=0.0)
    gf_makespan, gf = _traced_schedule(job, GpuFirstPolicy())
    tl_makespan, tl = _traced_schedule(job, TailPolicy())
    return Fig3Result(gpu_first_makespan=gf_makespan,
                      tail_makespan=tl_makespan,
                      gpu_first_schedule=gf, tail_schedule=tl, job=job)


# --------------------------------------------------------------------------
# Fig. 4 — end-to-end speedup over CPU-only Hadoop
# --------------------------------------------------------------------------


@dataclass
class JobPoint:
    """One bar of Fig. 4: a (app, policy, gpus) job vs the CPU-only base."""

    app: str
    policy: str
    gpus_per_node: int
    speedup: float
    job_seconds: float
    baseline_seconds: float
    gpu_task_fraction: float
    forced_tasks: int


def _best_of_seeds(app: str, cluster: ClusterConfig, tasks: tuple[int, int],
                   policy_factory) -> JobResult:
    """Paper §7.3: 'We ran each experiment three times, and report the
    best run.'"""
    best = None
    for seed in RUN_SEEDS:
        result = ClusterSimulator(simulated_job(app, cluster, *tasks, seed),
                                  policy_factory()).run()
        if best is None or result.job_seconds < best.job_seconds:
            best = result
    assert best is not None
    return best


def fig4(cluster: ClusterConfig, gpus_options: Iterable[int],
         apps: Iterable[str] | None = None,
         task_scale: float = 1.0) -> list[JobPoint]:
    """Generic Fig. 4 engine: every app × policy × GPU count vs CPU-only."""
    points: list[JobPoint] = []
    selected = list(apps) if apps is not None else APP_ORDER
    for short in selected:
        if (short, cluster.name) not in TASK_TIMES:
            continue  # Table 2 'NA' (KM on Cluster2)
        tasks = table2_tasks(short, cluster.name, task_scale)
        baseline = _best_of_seeds(short, cluster.cpu_only(), tasks,
                                  CpuOnlyPolicy).job_seconds
        for gpus in gpus_options:
            for policy_factory in (GpuFirstPolicy, TailPolicy):
                best = _best_of_seeds(short, cluster.with_gpus(gpus), tasks,
                                      policy_factory)
                total_tasks = best.cpu_tasks + best.gpu_tasks
                points.append(
                    JobPoint(
                        app=short,
                        policy=policy_factory.name,
                        gpus_per_node=gpus,
                        speedup=baseline / best.job_seconds,
                        job_seconds=best.job_seconds,
                        baseline_seconds=baseline,
                        gpu_task_fraction=best.gpu_tasks / max(total_tasks, 1),
                        forced_tasks=best.forced_gpu_tasks,
                    )
                )
    return points


def fig4a(task_scale: float = 1.0,
          apps: Iterable[str] | None = None) -> list[JobPoint]:
    """Fig. 4a: Cluster1, one K40 per node, GPU-first vs tail scheduling.

    Paper shape: speedups rise from ~1.05 (GR) to 2.78 (BS), geometric
    mean 1.6; tail ≥ GPU-first everywhere, with no benefit for LR."""
    return fig4(CLUSTER1, gpus_options=[1], apps=apps, task_scale=task_scale)


def fig4b(task_scale: float = 1.0,
          apps: Iterable[str] | None = None) -> list[JobPoint]:
    """Fig. 4b: Cluster2, 1–3 M2090s per node (KM excluded: exceeds GPU
    memory). Paper shape: speedups scale with GPU count; larger than
    Cluster1's because Cluster2 has fewer CPU cores and no disks."""
    return fig4(CLUSTER2, gpus_options=[1, 2, 3], apps=apps, task_scale=task_scale)


def geometric_mean(values: Iterable[float]) -> float:
    vals = list(values)
    if not vals:
        raise ConfigError("geometric mean of nothing")
    product = 1.0
    for v in vals:
        product *= v
    return product ** (1.0 / len(vals))


# --------------------------------------------------------------------------
# Fig. 5 — single GPU-task speedup over a CPU core (baseline + optimized)
# --------------------------------------------------------------------------


@dataclass
class Fig5Point:
    app: str
    baseline_speedup: float     # translated code, optimizations off
    optimized_speedup: float    # full HeteroDoop optimizer

    @property
    def optimization_gain(self) -> float:
        return self.optimized_speedup / self.baseline_speedup


def fig5(cluster: ClusterConfig = CLUSTER1,
         apps: Iterable[str] | None = None) -> list[Fig5Point]:
    """Fig. 5: per-benchmark single-task speedups, baseline vs optimized.

    Paper shape: ordered GR < HS < WC < HR < LR < KM < CL < BS, up to 47×
    for BS; optimizations matter most for GR, KM, CL, LR."""
    points = []
    for short in (apps if apps is not None else APP_ORDER):
        optimized = single_task_times(short, cluster)
        baseline = single_task_times(
            short, cluster, opt=OptimizationFlags.baseline()
        )
        points.append(
            Fig5Point(
                app=short,
                baseline_speedup=baseline.gpu_speedup,
                optimized_speedup=optimized.gpu_speedup,
            )
        )
    return points


# --------------------------------------------------------------------------
# Fig. 6 — execution-time breakdown of a GPU task
# --------------------------------------------------------------------------


def fig6(cluster: ClusterConfig = CLUSTER1,
         apps: Iterable[str] | None = None) -> dict[str, dict[str, float]]:
    """Fig. 6: per-stage fractions of one GPU task.

    Paper shape: BS dominated by output write (~62%); WC by sort (long
    keys); KM/CL map-heavy; HR/LR substantial combine; aggregation
    negligible everywhere.

    The per-stage seconds are the GPU task's one
    :class:`~repro.costmodel.breakdown.TaskBreakdown` — the same values
    a traced task tiles into its ``phase`` spans
    (``tests/test_span_invariants.py`` holds the two equal)."""
    out: dict[str, dict[str, float]] = {}
    for short in (apps if apps is not None else APP_ORDER):
        phases = single_task_times(short, cluster).gpu_breakdown.as_dict()
        total = sum(phases.values()) or 1.0
        out[short] = {k: v / total for k, v in phases.items()}
    return out


# --------------------------------------------------------------------------
# Fig. 7 — effects of individual optimizations
# --------------------------------------------------------------------------


@dataclass
class AblationPoint:
    app: str
    optimization: str
    affected_stage: str
    time_without: float
    time_with: float

    @property
    def speedup(self) -> float:
        if self.time_with <= 0:
            raise ConfigError("zero stage time")
        return self.time_without / self.time_with


_ABLATIONS = [
    # (figure, flag, stage accessor, paper's affected apps, paper max gain)
    ("7a", "use_texture", "map", ["KM", "CL"], 2.0),
    ("7b", "vectorize_combine", "combine", ["GR", "WC", "HS", "HR", "LR"], 2.7),
    ("7c", "vectorize_map", "map", ["GR", "WC", "KM"], 1.7),
    ("7e", "kv_aggregation", "sort", ["WC", "HR", "LR", "KM", "CL"], 7.6),
]


#: Compute-per-record map used by the Fig. 7d mechanism benchmark: a
#: kmeans-shaped kernel (numeric parse + per-token distance-style math)
#: whose per-record work is proportional to the record length.
_FIG7D_SOURCE = """
int main()
{
    char tok[30], *line;
    size_t nbytes = 10000;
    double acc;
    int read, lp, offset, i, k;
    line = (char*) malloc(nbytes*sizeof(char));
    #pragma mapreduce mapper key(k) value(acc) \\
        kvpairs(2) blocks(2) threads(128)
    while( (read = getline(&line, &nbytes, stdin)) != -1) {
        offset = 0;
        acc = 0.0;
        k = 0;
        while( (lp = getWord(line, offset, tok, read, 30)) != -1) {
            offset += lp;
            for(i = 0; i < 60; i++) {
                acc += sqrt(atof(tok) + i);
            }
            k++;
        }
        printf("%d\\t%f\\n", k, acc);
    }
    free(line);
    return 0;
}
"""


def _fig7d_record_stealing(cluster: ClusterConfig) -> list[AblationPoint]:
    """Fig. 7d mechanism benchmark.

    Record stealing pays off when threads each process *many* records of
    skewed length — the regime of a real 256 MB fileSplit (millions of
    records over ~7680 threads). Laptop-scale splits under the default
    grid give every thread at most one record, where stealing is a no-op
    by construction. This benchmark therefore recreates the real
    multiplicity regime directly: a kmeans-shaped kernel on a small grid
    over Pareto-skewed records, stealing on vs off, at three skew levels.
    """
    import random

    from ..compiler import translate as _translate
    from ..gpu.device import GpuDevice
    from ..gpu.executor import run_map_kernel
    from ..kvstore import GlobalKVStore, Partitioner
    from ..minic import parse as _parse
    from ..minic.interpreter import Interpreter

    points: list[AblationPoint] = []
    for label, pareto_shape in (("mild-skew", 2.5), ("medium-skew", 1.5),
                                ("heavy-skew", 1.1)):
        rng = random.Random(31)
        records = [
            b"7.5 " * max(1, min(18, int(rng.paretovariate(pareto_shape))))
            for _ in range(1600)
        ]
        times: dict[bool, float] = {}
        for stealing in (True, False):
            opt = OptimizationFlags.all_on().but(record_stealing=stealing)
            tr = _translate(_parse(_FIG7D_SOURCE), opt=opt)
            kernel = tr.map_kernel
            device = GpuDevice(cluster.gpu)
            store = GlobalKVStore(kernel.launch.total_threads,
                                  kernel.launch.total_threads * 40)
            snapshot = Interpreter(tr.program, stdin="").run_until_region(
                kernel.original_region
            )
            launch = run_map_kernel(device, kernel, records, snapshot,
                                    store, Partitioner(4))
            times[stealing] = launch.cost.seconds
        points.append(
            AblationPoint(
                app=label,
                optimization="record_stealing",
                affected_stage="map",
                time_without=times[False],
                time_with=times[True],
            )
        )
    return points


def fig7(cluster: ClusterConfig = CLUSTER1,
         subfigure: str | None = None) -> list[AblationPoint]:
    """Fig. 7a–e: turn one optimization off, measure the affected kernel.

    Only benchmarks the paper shows (those affected) are measured."""
    points: list[AblationPoint] = []
    for fig_id, flag, stage, apps, _paper_max in _ABLATIONS:
        if subfigure is not None and fig_id != subfigure:
            continue
        for short in apps:
            with_opt = single_task_times(short, cluster)
            without = single_task_times(
                short, cluster, opt=OptimizationFlags.all_on().but(**{flag: False})
            )
            points.append(
                AblationPoint(
                    app=short,
                    optimization=flag,
                    affected_stage=stage,
                    time_without=getattr(without.gpu_breakdown, stage),
                    time_with=getattr(with_opt.gpu_breakdown, stage),
                )
            )
    if subfigure is None or subfigure == "7d":
        points.extend(_fig7d_record_stealing(cluster))
    return points
