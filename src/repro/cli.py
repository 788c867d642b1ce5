"""Command-line interface.

::

    python -m repro translate mymap.c          # show the generated kernel
    python -m repro run WC --records 800       # run a job on both paths
    python -m repro simulate BS --policy tail  # cluster-scale simulation
    python -m repro trace WC -o wc.json        # Chrome trace of a job
    python -m repro stats WC --mode simulate   # span/counter totals
    python -m repro experiment fig5            # regenerate a paper figure
    python -m repro apps                       # list the Table 2 benchmarks
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from .apps import all_apps, get_app
from .compiler import translate
from .config import CLUSTER1, CLUSTER2, OptimizationFlags
from .errors import ReproError
from .minic import parse
from .scheduling import get_policy, policy_names


def _cmd_apps(_args: argparse.Namespace) -> int:
    print(f"{'tag':4s} {'name':20s} {'nature':8s} {'combiner':9s} {'map-only'}")
    for app in all_apps():
        print(f"{app.short:4s} {app.name:20s} {app.nature:8s} "
              f"{'yes' if app.has_combiner else 'no':9s} "
              f"{'yes' if app.map_only else 'no'}")
    return 0


def _print_lane_plan(kernel) -> None:
    """What the vector lane engine does with a map kernel: how many
    ``for`` loops run as warp-wide regions, and why each other one (or
    the whole kernel) runs lane by lane."""
    from .gpu.vector import lane_plan

    suite, kernel_reason = lane_plan(kernel, CLUSTER1.gpu)
    print(f"vector regions: {suite.regions if suite else 0}")
    if kernel_reason == "no-for-loop":
        print("  no for loop in kernel body")
    elif kernel_reason is not None:
        print(f"  whole kernel per lane: {kernel_reason}")
    else:
        for line, reason in suite.rejected:
            print(f"  line {line}: {reason}")


def _write_out(path: str, payload: bytes) -> None:
    """Write a ``-o PATH`` report; an unwritable path is the user's
    error, answered like an unreadable ``translate --file``."""
    try:
        with open(path, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ReproError(f"cannot write {path}: {exc.strerror}") from None


def _cmd_translate(args: argparse.Namespace) -> int:
    if args.app:
        source = get_app(args.app).map_source
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            raise ReproError(
                f"cannot read {args.file}: {exc.strerror}") from None
    opt = OptimizationFlags.all_on() if args.optimize \
        else OptimizationFlags.baseline()
    result = translate(parse(source), opt=opt)
    for kernel in result.kernels:
        print(kernel.source_text)
        print()
        print("variable classification (Algorithm 1):")
        for name, var in kernel.variables.items():
            print(f"  {name:12s} {str(var.ctype):10s} -> {var.klass.value}")
        print(f"vector width: {kernel.vector_width}, "
              f"launch {kernel.launch.blocks}x{kernel.launch.threads}")
        if kernel.is_mapper:
            _print_lane_plan(kernel)
        print()
    if result.host_plan:
        print(result.host_plan.describe())
    return 0


def _cluster(args: argparse.Namespace):
    """The paper cluster ``--cluster`` names."""
    return {1: CLUSTER1, 2: CLUSTER2}[args.cluster]


def _local_job(args: argparse.Namespace):
    """(runner, input text) of the local job the ``run``/``trace``/
    ``stats`` options describe."""
    from .hadoop.local import LocalJobRunner

    app = get_app(args.app)
    runner = LocalJobRunner(
        app, cluster=_cluster(args), use_gpu=not args.cpu_only,
        split_bytes=args.split_kb * 1024, workers=args.workers,
    )
    return runner, app.generate(args.records, seed=args.seed)


def _cmd_run(args: argparse.Namespace) -> int:
    from .hadoop.tasks import SlotKind

    runner, text = _local_job(args)
    app = runner.app
    result = runner.run(text)
    path = "CPU (Hadoop Streaming)" if args.cpu_only else "GPU (translated kernels)"
    print(f"{app.name}: {result.map_tasks} map tasks on the {path} path"
          + (f" across {result.workers} workers" if result.workers > 1 else ""))
    print(f"map output pairs : {result.map_output_pairs}")
    print(f"final keys       : {len(result.output)}")
    print(f"simulated map time    : {result.total_map_seconds * 1e3:.3f} ms "
          f"({result.device_tasks(SlotKind.GPU)} GPU tasks, "
          f"{result.device_tasks(SlotKind.CPU)} CPU tasks)")
    if result.workers > 1:
        print(f"map critical path     : "
              f"{result.map_critical_path_seconds * 1e3:.3f} ms")
    sample = list(result.output.items())[: args.show]
    print(f"first {len(sample)} outputs: {sample}")
    return 0


def _sim_job(args: argparse.Namespace):
    """(JobConf, TaskTimes) of the simulated job the ``simulate``/
    ``trace``/``stats`` options describe.

    Built *before* any recorder is installed, so the calibration run
    feeding the task durations never leaks into a recorded trace."""
    from .experiments.calibrate import single_task_times
    from .hadoop import JobConf

    app = get_app(args.app)
    cluster = _cluster(args).with_gpus(args.gpus)
    times = single_task_times(app, cluster)
    cpu_s, gpu_s = times.scaled(60.0)
    figures = app.figures_for(cluster.name)
    job = JobConf(
        name=app.short,
        num_map_tasks=max(1, int(figures.map_tasks * args.task_scale)),
        num_reduce_tasks=figures.reduce_tasks,
        cluster=cluster,
        cpu_task_seconds=cpu_s,
        gpu_task_seconds=gpu_s,
    )
    return job, times


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .hadoop import ClusterSimulator

    job, times = _sim_job(args)
    base = ClusterSimulator(job, get_policy("cpu-only")).run()
    print(f"{job.name} on {job.cluster.name} ({args.gpus} GPU/node), "
          f"{job.num_map_tasks} maps, single-task speedup "
          f"{times.gpu_speedup:.1f}x")
    for name in (args.policy,) if args.policy else policy_names():
        result = ClusterSimulator(job, get_policy(name)).run()
        print(f"  {name:10s}: {result.job_seconds:8.1f} s "
              f"({base.job_seconds / result.job_seconds:.2f}x), "
              f"gpu tasks {result.gpu_tasks}, forced {result.forced_gpu_tasks}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import time

    from .scenarios import (
        all_scenarios, get_scenario, report_bytes, run_sweep,
    )

    scenarios = list(all_scenarios())
    if args.scenarios:
        scenarios = [get_scenario(sid) for sid in args.scenarios]
    if args.apps:
        wanted = {tag.upper() for tag in args.apps}
        scenarios = [s for s in scenarios if s.app in wanted]
    if args.shapes:
        scenarios = [s for s in scenarios if s.shape in set(args.shapes)]
    if args.list:
        print(f"{'id':24s} {'app':4s} {'shape':14s} {'policy':11s} description")
        for s in scenarios:
            print(f"{s.id:24s} {s.app:4s} {s.shape:14s} {s.policy:11s} "
                  f"{s.description}")
        return 0
    if not scenarios:
        raise ReproError("sweep filters selected no scenarios")

    start = time.perf_counter()
    report = run_sweep(scenarios, policies=args.policies, scale=args.scale,
                       verify=args.verify)
    wall = time.perf_counter() - start
    payload = report_bytes(report)
    if args.out:
        _write_out(args.out, payload)
    if args.json and not args.out:
        sys.stdout.write(payload.decode("utf-8"))
    else:
        rows = report["results"]
        print(f"{len(scenarios)} scenarios x policies -> {len(rows)} runs, "
              f"scale={args.scale}, {wall:.1f}s wall")
        for row in rows:
            speedup = row.get("speedup_vs_cpu_only")
            vs = f" ({speedup:.2f}x vs cpu-only)" if speedup else ""
            print(f"  {row['scenario']:24s} {row['policy']:11s} "
                  f"{row['job_seconds']:9.1f} s  gpu {row['gpu_tasks']:6d} "
                  f"local {row['data_local_fraction']:.3f}{vs}")
        if args.verify:
            print(f"verified {len(report['verification'])} scenarios: "
                  "cpu/gpu paths and reference agree")
        if args.out:
            print(f"report -> {args.out}")
    return 0


def _traced_run(args: argparse.Namespace):
    """Run one job with tracing on; returns the filled TraceRecorder
    plus the :class:`LocalJobResult` (``None`` in simulate mode).

    Everything nondeterministic-or-cached (input generation, kernel
    translation, calibration) happens before the recorder is installed,
    so identical invocations record identical traces.
    """
    from . import obs

    recorder = obs.TraceRecorder()
    result = None
    if args.mode == "simulate":
        from .hadoop import ClusterSimulator

        job, _times = _sim_job(args)
        policy = get_policy(args.policy)
        with obs.use_recorder(recorder):
            ClusterSimulator(job, policy).run()
    else:
        runner, text = _local_job(args)
        with obs.use_recorder(recorder):
            result = runner.run(text)
    return recorder, result


def _cmd_trace(args: argparse.Namespace) -> int:
    from . import obs

    recorder, _result = _traced_run(args)
    trace = obs.export_chrome(recorder)
    obs.check_trace(trace)
    payload = obs.dumps(trace)
    if args.out:
        _write_out(args.out, payload.encode("utf-8"))
        events = len(recorder.events)
        print(f"wrote {args.out} ({events} events); "
              "load it at chrome://tracing or https://ui.perfetto.dev",
              file=sys.stderr)
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    recorder, result = _traced_run(args)
    snapshot = recorder.metrics.snapshot()
    by_cat: dict[str, tuple[int, float]] = {}
    for span in recorder.spans():
        count, seconds = by_cat.get(span.cat, (0, 0.0))
        by_cat[span.cat] = (count + 1, seconds + (span.dur or 0.0))
    print(f"{args.app} ({args.mode} mode)")
    print("spans by category:")
    for cat in sorted(by_cat):
        count, seconds = by_cat[cat]
        print(f"  {cat:14s} {count:6d} spans  {seconds:12.6f} simulated s")
    if result is not None and result.reduce_task_timings:
        timings = result.reduce_task_timings
        print("reduce phase:")
        print(f"  tasks        {len(timings):6d}  "
              f"merge runs {sum(t.merge_runs for t in timings):6d}  "
              f"input pairs {sum(t.input_pairs for t in timings):8d}")
        for phase in ("merge", "reduce", "output_write"):
            seconds = sum(getattr(t, phase) for t in timings)
            print(f"  {phase:12s} {seconds:22.6f} simulated s")
        print(f"  total        {result.total_reduce_seconds:22.6f} "
              f"simulated s")
        print(f"  critical path {result.reduce_critical_path_seconds:21.6f} "
              f"simulated s (reduce workers {result.reduce_workers})")
    print("counters:")
    for name, value in snapshot["counters"].items():
        print(f"  {name:28s} {value:14.1f}")
    if snapshot["gauges"]:
        print("gauges:")
        for name, value in snapshot["gauges"].items():
            print(f"  {name:28s} {value:14.4f}")
    return 0


def _cmd_pool(args: argparse.Namespace) -> int:
    """Inspect or drive this process's persistent daemon pool.

    The pool is per-process: ``status`` after ``warm`` in the same
    invocation shows live workers, while a fresh invocation starts
    empty — the command exists for long-lived sessions (and as the
    smoke test for the pool lifecycle itself)."""
    from .parallel.daemon import get_pool, pool_metrics, shutdown_pool
    from .parallel.pool import resolve_workers

    if args.action == "shutdown":
        stopped = shutdown_pool()
        print(f"stopped {stopped} worker(s)")
        return 0
    pool = get_pool()
    if args.action == "warm":
        from .parallel.maptask import warm_worker_caches

        tags = tuple(t.upper() for t in (args.apps or ["WC"]))
        for tag in tags:
            get_app(tag)  # validate before forking anything
        nworkers = resolve_workers(args.workers)
        pids = pool.broadcast(warm_worker_caches, (tags,), workers=nworkers)
        print(f"warmed {len(pids)} worker(s) for {' '.join(tags)}: "
              f"pids {' '.join(str(p) for p in sorted(pids))}")
    status = pool.status()
    print(f"start method : {status.start_method}")
    print(f"idle timeout : {status.idle_timeout:.0f}s"
          + (" (reaping disabled)" if status.idle_timeout == 0 else ""))
    print(f"workers      : {resolve_workers(args.workers)} per phase")
    print(f"worker slots : {status.slots}")
    print(f"alive        : {' '.join(str(p) for p in status.alive) or '-'}")
    counters = pool_metrics().snapshot()["counters"]
    if counters:
        print("lifecycle counters:")
        for name in sorted(counters):
            print(f"  {name:16s} {counters[name]:10.0f}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import run_campaign
    from .fuzz.gen import KIND_SCHEDULE

    if args.registry:
        from .fuzz.runner import registry_conformance

        divergences = registry_conformance(
            scale=args.scale, log=None if args.quiet else print)
        status = "OK" if not divergences else \
            f"{len(divergences)} DIVERGENT"
        print(f"registry conformance @ {args.scale}: {status}")
        for divergence in divergences:
            print()
            print(divergence.report())
        return 0 if not divergences else 1
    kinds = KIND_SCHEDULE
    if args.kinds:
        kinds = tuple(args.kinds.split(","))
        from .fuzz.gen import KINDS

        unknown = set(kinds) - set(KINDS)
        if unknown:
            raise ReproError(f"unknown fuzz kinds: {', '.join(sorted(unknown))}")
    result = run_campaign(
        seed=args.seed,
        count=args.count,
        time_budget=args.time_budget,
        kinds=kinds,
        shrink=not args.no_shrink,
        corpus_dir=args.corpus_dir,
        log=None if args.quiet else print,
        workers=args.workers,
    )
    print(result.summary())
    for _case, divergence, minimized in result.divergences:
        print()
        print(divergence.report())
        print("--- minimized ---")
        print(minimized.source.rstrip())
    return 0 if result.ok else 1


def _experiments(task_scale: float) -> dict:
    """Experiment name → (producer, renderer): each of the paper's
    tables and figures is regenerated by ``renderer(producer())``."""
    from functools import partial

    from .experiments import figures, report, tables

    def table(n: int):
        return (getattr(tables, f"table{n}"),
                partial(report.render_table, title=f"Table {n}"))

    def fig4(which: str):
        return (partial(getattr(figures, f"fig4{which}"),
                        task_scale=task_scale),
                partial(report.render_fig4, title=f"Fig. 4{which}"))

    def fig7(subfigure: str | None):
        return (partial(figures.fig7, subfigure=subfigure),
                report.render_fig7)

    return {
        "table1": table(1), "table2": table(2), "table3": table(3),
        "fig3": (figures.fig3, report.render_fig3),
        "fig4a": fig4("a"), "fig4b": fig4("b"),
        "fig5": (figures.fig5, report.render_fig5),
        "fig6": (figures.fig6, report.render_fig6),
        "fig7": fig7(None),
        **{f"fig7{sub}": fig7(f"7{sub}") for sub in "abcde"},
    }


def _cmd_experiment(args: argparse.Namespace) -> int:
    try:
        produce, render = _experiments(args.task_scale)[args.name]
    except KeyError:
        raise ReproError(f"unknown experiment {args.name!r}") from None
    print(render(produce()))
    return 0


def _add_workers_option(parser: argparse.ArgumentParser,
                        detail: str) -> None:
    """The one ``--workers`` flag every parallel-capable command shares.

    A single definition keeps the default chain (explicit flag →
    ``$REPRO_WORKERS`` → serial; 0 = one per core) identical across
    ``run``/``trace``/``stats``/``fuzz``/``pool`` instead of
    five drifting copies.
    """
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: $REPRO_WORKERS or 1; "
             f"0 = one per CPU core); {detail}")


def _int_at_least(minimum: int):
    """argparse type: an integer >= ``minimum``, else a usage error
    (exit 2) instead of a job that quietly does something else."""

    def parse(text: str) -> int:
        value = int(text)  # a ValueError is argparse's usage error too
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse: "invalid int value: 'abc'"
    return parse


#: Counts and sizes: an empty job is not a job.
_positive_int = _int_at_least(1)
#: Counts where none is a valid answer (outputs to show, cases to
#: generate, GPUs per node).
_nonnegative_int = _int_at_least(0)


def _positive_float(text: str) -> float:
    """argparse type for scale factors: a finite number > 0 (0 and
    negatives used to simulate one task silently)."""
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _add_job_target(parser: argparse.ArgumentParser) -> None:
    """``app`` and ``--cluster``: what every job command runs, and on
    which of the paper's clusters."""
    # The app registry, not a literal or the scenario registry's
    # APP_ORDER: importing repro.scenarios here would load the cluster
    # simulator on every invocation's start-up path, jobs included.
    parser.add_argument(
        "app",
        help=f"benchmark tag ({' '.join(a.short for a in all_apps())})")
    parser.add_argument("--cluster", type=int, choices=(1, 2), default=1)


def _add_local_job_options(parser: argparse.ArgumentParser,
                           workers_detail: str) -> None:
    """The functional-job options ``run``/``trace``/``stats`` share;
    :func:`_local_job` builds the runner they describe."""
    _add_job_target(parser)
    parser.add_argument("--records", type=_positive_int, default=400,
                        help="input records")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--cpu-only", action="store_true",
                        help="use the Hadoop Streaming CPU path")
    parser.add_argument("--split-kb", type=_positive_int, default=32)
    _add_workers_option(parser, workers_detail)


def _add_task_scale(parser: argparse.ArgumentParser,
                    default: float) -> None:
    parser.add_argument("--task-scale", type=_positive_float,
                        default=default,
                        help="fraction of the paper's map-task count")


def _add_simulator_options(parser: argparse.ArgumentParser,
                           policy: str | None, task_scale: float) -> None:
    """The cluster-simulation options ``simulate``/``trace``/``stats``
    share; the defaults are each command's own."""
    parser.add_argument("--gpus", type=_nonnegative_int, default=1,
                        help="GPUs per node")
    parser.add_argument("--policy", choices=policy_names(), default=policy,
                        help="scheduling policy"
                             + ("" if policy else " (default: all of them)"))
    _add_task_scale(parser, task_scale)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HeteroDoop reproduction (HPDC 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list the Table 2 benchmarks") \
        .set_defaults(func=_cmd_apps)

    p = sub.add_parser("translate", help="translate a directive-annotated "
                                         "mini-C source (or a benchmark's)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--file", help="path to a mini-C source file")
    group.add_argument("--app", help="benchmark tag (e.g. WC)")
    p.add_argument("--no-optimize", dest="optimize", action="store_false",
                   help="show the baseline-translated kernel")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("run", help="run a benchmark job locally")
    _add_local_job_options(p, "fans the map phase across the daemon pool")
    p.add_argument("--show", type=_nonnegative_int, default=8)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("simulate", help="cluster-scale job simulation")
    _add_job_target(p)
    _add_simulator_options(p, policy=None, task_scale=1.0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run a scenario-registry slice through "
                                     "the cluster simulator")
    p.add_argument("--scale", choices=("small", "medium", "large"),
                   default="small",
                   help="workload scale (map-pool size and --verify input)")
    p.add_argument("--scenarios", nargs="*", metavar="ID",
                   help="scenario ids (default: the whole registry)")
    p.add_argument("--apps", nargs="*", metavar="TAG",
                   help="keep only scenarios for these app tags")
    p.add_argument("--shapes", nargs="*", metavar="SHAPE",
                   help="keep only scenarios on these cluster shapes")
    p.add_argument("--policies", nargs="*", metavar="NAME",
                   choices=policy_names(),
                   help="policy slate per scenario (default: cpu-only, "
                        "gpu-first, tail; each scenario's own policy is "
                        "always added)")
    p.add_argument("--verify", action="store_true",
                   help="also run each scenario's app functionally on both "
                        "execution paths and check against the reference")
    p.add_argument("--list", action="store_true",
                   help="list the selected scenarios and exit")
    p.add_argument("--json", action="store_true",
                   help="print the canonical JSON report to stdout")
    p.add_argument("-o", "--out", default=None,
                   help="write the canonical JSON report here")
    p.set_defaults(func=_cmd_sweep)

    trace_help = {
        "trace": ("run a job with tracing on and emit a Chrome trace-event "
                  "JSON (view at chrome://tracing or ui.perfetto.dev)"),
        "stats": "run a job with tracing on and print span/metric totals",
    }
    for cmd, func in (("trace", _cmd_trace), ("stats", _cmd_stats)):
        p = sub.add_parser(cmd, help=trace_help[cmd])
        p.add_argument("--mode", choices=("local", "simulate"),
                       default="local",
                       help="local: functional job on this process "
                            "(--records --seed --cpu-only --split-kb "
                            "--workers); simulate: cluster-scale "
                            "discrete-event run (--gpus --policy "
                            "--task-scale)")
        _add_local_job_options(p, "worker spans land on per-worker pid "
                                  "tracks")
        _add_simulator_options(p, policy="tail", task_scale=0.02)
        if cmd == "trace":
            p.add_argument("-o", "--out", default=None,
                           help="write the trace here (default: stdout)")
        p.set_defaults(func=func)

    p = sub.add_parser("fuzz", help="differential conformance fuzzing "
                                    "across the mini-C backends")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (case i derives from 'seed/i')")
    p.add_argument("--count", type=_nonnegative_int, default=300,
                   help="number of generated cases")
    p.add_argument("--time-budget", type=float, default=None, metavar="SEC",
                   help="stop generating new cases after SEC seconds")
    p.add_argument("--kinds", default=None,
                   help="comma-separated case kinds (expr,mapper,combiner); "
                        "default mixes all three")
    p.add_argument("--no-shrink", action="store_true",
                   help="report divergences without minimizing them")
    p.add_argument("--corpus-dir", default=None,
                   help="where to persist minimized divergences "
                        "(default: tests/fuzz_corpus/)")
    p.add_argument("--quiet", action="store_true",
                   help="only print the final summary line")
    p.add_argument("--registry", action="store_true",
                   help="instead of generated cases, run every scenario-"
                        "registry app's canonical workload through the "
                        "oracle (scenario conformance)")
    p.add_argument("--scale", choices=("small", "medium", "large"),
                   default="small",
                   help="--registry: datagen scale (default small)")
    _add_workers_option(p, "fans cases across the daemon pool (digest "
                           "is identical at any worker count)")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("pool", help="inspect or drive this process's "
                                    "persistent daemon worker pool")
    p.add_argument("action", choices=("status", "warm", "shutdown"),
                   help="status: print workers and lifecycle counters; "
                        "warm: fork workers and prime their caches; "
                        "shutdown: stop all workers")
    p.add_argument("--apps", nargs="*", metavar="TAG",
                   help="apps to warm caches for (default: WC)")
    _add_workers_option(p, "pool size for warm")
    p.set_defaults(func=_cmd_pool)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("name", help="table1|table2|table3|fig3|fig4a|fig4b|"
                                "fig5|fig6|fig7[a-e]")
    _add_task_scale(p, 1.0)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
