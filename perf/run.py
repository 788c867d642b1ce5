#!/usr/bin/env python3
"""The repo's one benchmark: end-to-end metrics per workload, plus a
traced pass that says which layer the wall time went to.

    python3 perf/run.py                       # every workload, both passes
    python3 perf/run.py --workload wc_cpu     # repeatable
    python3 perf/run.py --list                # the workload table
    python3 perf/run.py --aa                  # two sets, compared to bounds
    python3 perf/run.py --smoke               # 1/20 size, 1 repeat

The driver's form is ``--workload NAME --seed N --seconds S --trace
0|1``: one workload, a timed window of S seconds, end-to-end metrics
(``--trace 0``) or per-layer metrics (``--trace 1``) as one JSON object
on the last line of stdout. See perf/README.md for every definition.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from time import perf_counter, process_time
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The program under test runs from source, as the repo's own tests do.
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads as wl  # noqa: E402

COMMAND = ["python3", "perf/run.py"]
PATHS = ["perf"]
RUN_SECONDS = 8
DEFAULT_SEED = 7
DEFAULT_REPEATS = 7
#: A timed window never closes on fewer rounds than this.
MIN_ROUNDS = 3
#: Fresh-process set-up samples behind setup_s / peak_rss_mb.
SETUP_SAMPLES = 3
#: Traced operations per workload; the one with the median wall is kept
#: whole, so its layers still sum to its wall.
TRACED_PASSES = 3
OUT_DIR = HERE / "out"


# -- manifest ------------------------------------------------------------------

def manifest() -> dict[str, Any]:
    """``BENCHMARK.json``, generated from the workload and metric rows."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in wl.WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in layers.END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in layers.PER_LAYER
        ],
    }


def check_manifest() -> None:
    """Refuse to measure when ``BENCHMARK.json`` and the rows drift."""
    path = ROOT / "BENCHMARK.json"
    committed = json.loads(path.read_text())
    if committed != manifest():
        raise SystemExit(
            f"{path} differs from the rows in perf/workloads.py and "
            "perf/layers.py; regenerate it with "
            "`python3 perf/run.py --manifest > BENCHMARK.json`"
        )


# -- environment ---------------------------------------------------------------

def clean_env() -> dict[str, str]:
    """The environment every measured process runs in: no ``REPRO_*``
    knob (the program's defaults are what is measured) and a fixed
    string-hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def spin() -> float:
    """A fixed pure-Python loop: how fast the host is right now."""
    start = perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc += i * i % 7
    return perf_counter() - start


#: What :func:`spin` takes on the host this benchmark was sized on, in
#: its usual state. Only the scale of the reported seconds hangs on it.
SPIN_REFERENCE_S = 0.17


class Clock:
    """Wall time in reference-host seconds.

    The hosts this runs on change speed by up to 2x within seconds and
    drift for minutes (perf/README.md, "Why the clock is calibrated"),
    which no number of repeats inside one run averages out. So every
    timed call is bracketed by the calibration loop and its wall is
    scaled by ``SPIN_REFERENCE_S / mean(loop before, loop after)``: a
    slowed host slows both and the ratio holds. The loop lives in this
    file, so the program under test cannot move it.
    """

    #: A calibration older than this is taken again before the call
    #: (an output check or a simulator build in between is not).
    STALE_S = 0.2

    def __init__(self) -> None:
        self.spins: list[float] = []
        self._spin()

    def _spin(self) -> float:
        self.spins.append(spin())
        self._at = perf_counter()
        return self.spins[-1]

    def time(self, fn: Any) -> tuple[float, float, Any]:
        """``(reference-host seconds, raw seconds, fn())``."""
        fresh = perf_counter() - self._at < self.STALE_S
        before = self.spins[-1] if fresh else self._spin()
        start = perf_counter()
        result = fn()
        raw = perf_counter() - start
        scale = SPIN_REFERENCE_S * 2.0 / (before + self._spin())
        return raw * scale, raw, result


# -- the supervisor -----------------------------------------------------------

#: How long processes the measurement leaves behind get to end by
#: themselves before they are killed, and how long a killed one gets.
LINGER_S = 10.0
PR_SET_CHILD_SUBREAPER = 36


def supervise(argv: list[str]) -> int:
    """Run the measurement as a child in a process group of its own, in
    :func:`clean_env`, and return its exit code only once every process
    of that group has ended and been waited for.

    The program under test starts processes that outlive the one that
    started them: pool workers, and ``multiprocessing``'s resource
    tracker, which only exits when it sees its parent's pipe close —
    that is, after the parent is gone. This process makes itself the
    subreaper, so such orphans become its children and it can wait for
    them; whatever is still there after ``LINGER_S`` is killed. A
    signal to stop is passed on to the whole group."""
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # orphans go to init; the group is still emptied below

    sys.stdout.flush()
    child = subprocess.Popen(
        [sys.executable, __file__, "--inner", *argv], env=clean_env(),
        start_new_session=True)

    def stop(signum: int, _frame: Any) -> None:
        try:
            os.killpg(child.pid, signum)
        except ProcessLookupError:
            pass

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, stop)
    try:
        code = child.wait()
    finally:
        empty_group(child)
    return code if code >= 0 else 128 - code


def empty_group(child: subprocess.Popen) -> None:
    """Wait until no process is left in ``child``'s group, reaping the
    ones this process has adopted; kill what outstays ``LINGER_S``."""
    deadline = time.monotonic() + LINGER_S
    killed = False
    while True:
        child.poll()
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            if killed:  # unreapable zombies under another parent
                return
            os.killpg(child.pid, signal.SIGKILL)
            killed, deadline = True, time.monotonic() + LINGER_S
        time.sleep(0.005)


# -- the cold child ------------------------------------------------------------

def peak_rss_kb() -> int:
    """This process's peak resident set, in KiB. ``VmHWM`` rather than
    ``ru_maxrss``: after fork+exec the latter still carries the peak of
    the process that forked, so a big parent would set a child's floor."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def cold_child(workload: wl.Workload, seed: int, spawned_at: float) -> int:
    """A fresh interpreter's path to its first result; prints one JSON
    object. ``setup_s`` is what a one-shot user waits: interpreter
    start (raw, since ``spawned_at``), then everything up to a
    constructed runner, then the first cold operation — the last two
    on this process's own calibrated clock. Stage timings are raw."""
    startup_s = time.time() - spawned_at
    clock = Clock()

    def prepare() -> tuple[Any, dict[str, float]]:
        t = perf_counter()
        wl.load_program(workload)
        stages = {"setup.import_s": perf_counter() - t}
        t = perf_counter()
        op = wl.operation(workload, seed)
        stages["apps.datagen_s"] = perf_counter() - t
        for metric, stage in op.cold_stages():
            t = perf_counter()
            stage()
            stages[metric] = perf_counter() - t
        op.build()
        return op, stages

    prepare_s, _, (op, stages) = clock.time(prepare)
    cold_s, stages["setup.cold_job_s"], result = clock.time(op.run)
    divergence = op.check(result)
    workers_kb = 0
    if workload.workers > 1:
        from repro.parallel import shutdown_pool

        shutdown_pool()  # joins the workers, so RUSAGE_CHILDREN has them
        workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({
        "setup_s": startup_s + prepare_s + cold_s, "stages": stages,
        "kernels": op.kernels, "divergence": divergence,
        "maxrss_kb": peak_rss_kb(), "workers_maxrss_kb": workers_kb,
    }))
    return 0


def setup_sample(workload: wl.Workload, seed: int) -> dict[str, Any]:
    """Run one cold child and return its report."""
    cmd = [sys.executable, str(HERE / "run.py"), "--cold", workload.name,
           "--records", str(workload.records), "--seed", str(seed),
           "--spawned-at", repr(time.time())]
    proc = subprocess.run(cmd, env=clean_env(), cwd=ROOT, text=True,
                          capture_output=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(
            f"cold run of {workload.name} exited {proc.returncode}:\n"
            f"{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


# -- measuring one set ---------------------------------------------------------

class Tally:
    """Operations attempted and failed for one workload."""

    def __init__(self, name: str):
        self.name = name
        self.attempted = 0
        self.failures: list[str] = []

    def note(self, divergence: str | None) -> None:
        self.attempted += 1
        if divergence is not None:
            self.failures.append(divergence)
            print(f"FAILED {self.name}: {divergence}", file=sys.stderr)


def timed_rounds(ops: dict[str, Any], tallies: dict[str, Tally], clock: Clock,
                 repeats: int, seconds: float | None) -> dict[str, list]:
    """Interleaved rounds: round k runs operation k of every workload
    in fixed order, so what host drift the clock's calibration leaves
    lands on all of them alike. Returns ``(reference seconds, raw
    seconds)`` per operation. With ``seconds`` the window stays open
    until the raw seconds timed so far add up to that long per
    workload."""
    samples: dict[str, list] = {name: [] for name in ops}
    rounds = 0
    while True:
        for name, op in ops.items():
            op.prepare()
            wall, raw, result = clock.time(op.run)
            samples[name].append((wall, raw))
            tallies[name].note(op.check(result))  # off the clock
        rounds += 1
        timed_s = sum(raw for runs in samples.values() for _, raw in runs)
        if seconds is None:
            if rounds >= repeats:
                return samples
        elif rounds >= MIN_ROUNDS and timed_s >= seconds * len(ops):
            return samples


def end_to_end(workload: wl.Workload, wall: float,
               setups: list[dict]) -> dict[str, float]:
    rss_kb = statistics.median(
        s["maxrss_kb"] + s["workers_maxrss_kb"] for s in setups
    )
    return {
        "job_wall_s": wall,
        "work_per_s": workload.records / wall,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def traced_pass(op: Any, clock: Clock) \
        -> tuple[layers.Tracer, float, float, float, Any]:
    """One operation with the layer wrappers installed; returns the
    tracer, the off-clock prepare seconds, the operation's wall from
    outside (reference seconds, then raw), and its result."""
    start = perf_counter()
    op.prepare()
    prepare_s = perf_counter() - start
    tracer = layers.Tracer()
    root = "simulate.run" if op.workload.path == "sim" else "local.run_self"
    undo = layers.install(tracer)
    try:
        wall, raw, result = clock.time(tracer.wrap(root, op.run))
    finally:
        layers.restore(undo)
    return tracer, prepare_s, wall, raw, result


def recorder_pass(op: Any, clock: Clock) -> tuple[Any, float, Any]:
    """One operation under the program's own ``TraceRecorder``."""
    from repro.obs import trace as obs

    op.prepare()
    recorder = obs.TraceRecorder()
    with obs.use_recorder(recorder):
        wall, _, result = clock.time(op.run)
    return recorder, wall, result


def pool_counters() -> dict[str, float]:
    from repro.parallel import pool_metrics

    return dict(pool_metrics().counters)


def per_layer(op: Any, tally: Tally, clock: Clock, wall_median: float,
              setup: dict[str, Any], passes: int) -> dict[str, float]:
    """Every per-layer metric of one workload (0 where the layer is not
    on this workload's path): cold stages from a fresh process, layer
    self times from the traced pass, counts from the program's own
    recorder and result objects."""
    w = op.workload
    out = {m.name: 0.0 for m in layers.PER_LAYER}

    pool_before = pool_counters() if w.workers > 1 else {}
    traced = [traced_pass(op, clock) for _ in range(passes)]
    for *_, result in traced:
        tally.note(op.check(result))
    tracer, prepare_s, traced_wall, traced_raw, result = \
        sorted(traced, key=lambda t: t[2])[passes // 2]
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{w.name}.spans.json").write_text(
        json.dumps(tracer.as_json()))
    for name, seconds in tracer.self_s.items():
        out[f"{name}_s"] = seconds
    for wrap in layers.WRAPS:
        if wrap.calls:
            out[wrap.calls] = tracer.calls.get(wrap.metric, 0)
    out.update(tracer.ops)
    out["bench.traced_wall_s"] = traced_raw
    out["bench.wrap_overhead_pct"] = (traced_wall / wall_median - 1.0) * 100.0
    if w.workers > 1:
        after = pool_counters()
        for metric, counter in (("parallel.batches", "pool.batches"),
                                ("parallel.tasks", "pool.tasks")):
            out[metric] = (after.get(counter, 0.0)
                           - pool_before.get(counter, 0.0)) / passes
        out["parallel.respawned"] = after.get("pool.respawned", 0.0)

    recorder, recorded_wall, recorded = recorder_pass(op, clock)
    drift = None if op.simulated(recorded) == op.simulated(result) \
        else "simulated seconds differ between two operations"
    tally.note(op.check(recorded) or drift)
    counts = recorder.metrics.count
    out["obs.recorder_overhead_pct"] = \
        (recorded_wall / wall_median - 1.0) * 100.0
    out["obs.events"] = len(recorder.events)

    sim_map, sim_reduce, sim_job = op.simulated(result)
    out["costmodel.sim_map_s"] = sim_map
    out["costmodel.sim_reduce_s"] = sim_reduce
    out["costmodel.sim_job_s"] = sim_job

    if w.path == "sim":
        out["simulate.build_s"] = prepare_s
        out["simulate.attempts"] = counts("sim.attempts")
        out["simulate.heartbeats"] = counts("sim.heartbeats")
        out["simulate.grants"] = counts("sim.grants")
        out["simulate.attempts_per_s"] = counts("sim.attempts") / wall_median
        out["scheduling.forced_gpu_tasks"] = result.forced_gpu_tasks
        out["hdfs.data_local_fraction"] = result.data_local_fraction
    else:
        out["apps.input_bytes"] = len(op.text.encode("utf-8"))
        out["apps.input_records"] = w.records
        out["local.map_tasks"] = result.map_tasks
        out["local.reduce_tasks"] = len(result.reduce_task_timings)
        out["local.map_output_pairs"] = result.map_output_pairs
        out["local.shuffle_bytes"] = result.shuffle_bytes
        out["shuffle.merged_pairs"] = sum(
            t.input_pairs for t in result.reduce_task_timings)
        out["gpu.warps"] = counts("gpu.warps")
        regions = counts("gpu.vector.regions")
        fallbacks = counts("gpu.vector.fallbacks")
        out["gpu.vector_regions"] = regions
        out["gpu.vector_fallbacks"] = fallbacks
        if regions + fallbacks:
            out["gpu.vector_hit_ratio"] = regions / (regions + fallbacks)
    if w.workers > 1:
        # One serial and one pooled job back to back; the driver's CPU
        # time during the pooled one is the part no worker can take.
        serial = wl.operation(replace(w, workers=1), op.seed)
        serial.build()
        serial_wall, _, serial_result = clock.time(serial.run)
        tally.note(serial.check(serial_result))
        cpu = process_time()
        pooled_wall, _, pooled = clock.time(op.run)
        out["parallel.driver_cpu_s"] = process_time() - cpu
        tally.note(op.check(pooled))
        out["parallel.wall_speedup"] = serial_wall / pooled_wall

    out["compiler.kernels"] = setup["kernels"]
    out.update(setup["stages"])
    out["host_cpus"] = os.cpu_count() or 1
    return out


def run_set(selected: list[wl.Workload], seed: int, repeats: int,
            seconds: float | None, trace: int | None,
            quick: bool = False) -> dict[str, Any]:
    """Measure one set. ``trace`` 0 = end-to-end only, 1 = per-layer
    only, None = both. Returns ``{workload: {attempted, failures,
    samples, metrics}}``; a metric is None when it was not measurable
    here (pool timings on a 1-CPU host)."""
    clock = Clock()
    tallies = {w.name: Tally(w.name) for w in selected}
    ops: dict[str, Any] = {}
    for w in selected:
        wl.load_program(w)
        op = ops[w.name] = wl.operation(w, seed)
        op.build()
        tallies[w.name].note(op.check(op.run()))  # warms every cache
    samples = timed_rounds(ops, tallies, clock, repeats, seconds)

    report: dict[str, Any] = {}
    for w in selected:
        tally = tallies[w.name]
        walls = [wall for wall, _ in samples[w.name]]
        metrics: dict[str, Any] = {}
        # Per-layer numbers need one cold child, for its stage timings.
        setups = [setup_sample(w, seed)
                  for _ in range(1 if quick or trace == 1 else SETUP_SAMPLES)]
        for sample in setups:
            tally.note(sample["divergence"])
        if trace != 1:
            metrics.update(end_to_end(w, statistics.median(walls), setups))
        if trace != 0:
            metrics.update(per_layer(ops[w.name], tally, clock,
                                     statistics.median(walls), setups[0],
                                     1 if quick else TRACED_PASSES))
            metrics["host.job_wall_raw_s"] = statistics.median(
                raw for _, raw in samples[w.name])
        report[w.name] = {
            "attempted": tally.attempted, "failures": tally.failures,
            "samples": walls, "metrics": metrics,
        }
    q1, spin_s, q3 = statistics.quantiles(clock.spins, n=4)
    cpus = os.cpu_count() or 1
    for w in selected:
        metrics = report[w.name]["metrics"]
        if trace != 0:
            metrics["host.spin_s"] = spin_s
            metrics["host.spin_spread_pct"] = (q3 - q1) / spin_s * 100.0
        if w.workers > cpus:
            # Checked, but a pool on one CPU has no timing worth a number.
            for m in layers.END_TO_END + layers.PER_LAYER:
                if m.name in metrics and m.unit in ("s", "1/s", "%", "ratio"):
                    metrics[m.name] = None
    return report


# -- reporting -----------------------------------------------------------------

UNITS = {m.name: m.unit for m in layers.END_TO_END + layers.PER_LAYER}


def print_report(report: dict[str, Any]) -> None:
    for name, entry in report.items():
        print(f"== {name}: {entry['attempted']} operations, "
              f"{len(entry['failures'])} failed "
              f"(error_rate {len(entry['failures']) / entry['attempted']:g})")
        for metric, value in entry["metrics"].items():
            if value is None:
                print(f"{name:<11} {metric:<30} skipped: 1-cpu host")
                continue
            note = ""
            if metric == "job_wall_s" and len(entry["samples"]) > 1:
                q1, _, q3 = statistics.quantiles(entry["samples"], n=4)
                note = (f"  (q1 {q1:.4f}, q3 {q3:.4f}, "
                        f"n={len(entry['samples'])})")
            print(f"{name:<11} {metric:<30} {value:>14.6g} "
                  f"{UNITS[metric]}{note}")


def compare_sets(first: dict[str, Any], second: dict[str, Any]) -> bool:
    """The A/A table: both values, their relative difference, the bound."""
    ok = True
    print(f"{'workload':<11} {'metric':<12} {'first':>12} {'second':>12} "
          f"{'diff':>7} {'bound':>6}")
    for name in first:
        for m in layers.END_TO_END:
            a = first[name]["metrics"].get(m.name)
            b = second[name]["metrics"].get(m.name)
            if a is None or b is None:
                print(f"{name:<11} {m.name:<12} skipped: 1-cpu host")
                continue
            diff = abs(b - a) / a
            verdict = "" if diff <= m.bound else "  EXCEEDS"
            ok = ok and diff <= m.bound
            print(f"{name:<11} {m.name:<12} {a:>12.5g} {b:>12.5g} "
                  f"{diff:>6.1%} {m.bound:>6.0%}{verdict}")
    return ok


def result_line(report: dict[str, Any]) -> dict[str, Any]:
    """The last line of stdout. One workload: the driver's object, with
    ``metrics`` flat by name; several: the same keys with ``metrics``
    keyed by workload first."""
    attempted = sum(e["attempted"] for e in report.values())
    failed = sum(len(e["failures"]) for e in report.values())
    per_workload = {
        name: {metric: {"value": value, "unit": UNITS[metric]}
               for metric, value in entry["metrics"].items()
               if value is not None}
        for name, entry in report.items()
    }
    metrics = next(iter(per_workload.values())) if len(report) == 1 \
        else per_workload
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


# -- CLI -----------------------------------------------------------------------

def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(wl.BY_NAME),
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="datagen seed (default %(default)s)")
    p.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                   help="timed rounds (default %(default)s)")
    p.add_argument("--seconds", type=float,
                   help="timed window per workload, instead of --repeats")
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="0: end-to-end metrics only; 1: per-layer only "
                        "(default: both)")
    p.add_argument("--list", action="store_true",
                   help="print the workload table and exit")
    p.add_argument("--manifest", action="store_true",
                   help="print BENCHMARK.json as the rows define it")
    p.add_argument("--aa", action="store_true",
                   help="run the set twice and compare against the bounds")
    p.add_argument("--smoke", action="store_true",
                   help=f"1/{wl.SMOKE_DIVISOR} size, 1 repeat")
    p.add_argument("--out", type=Path, default=OUT_DIR / "report.json",
                   help="where the JSON report goes (default %(default)s)")
    # Internal: the fresh-process leg of setup_sample().
    # Internal: the measuring leg of supervise().
    p.add_argument("--inner", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--cold", choices=sorted(wl.BY_NAME), help=argparse.SUPPRESS)
    p.add_argument("--records", type=int, help=argparse.SUPPRESS)
    p.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.list:
        for w in wl.WORKLOADS:
            print(f"{w.name:<11} app={w.app:<15} {w.work_unit}={w.records:<6} "
                  f"path={w.path:<4} workers={w.workers}  {w.why}")
        return 0
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.cold:
        return cold_child(replace(wl.BY_NAME[args.cold],
                                  records=args.records), args.seed,
                          args.spawned_at)
    check_manifest()
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"the program under test, {ROOT / 'src' / 'repro'}, "
                         "is not there")
    if not args.inner:
        # A fresh interpreter: the hash seed only takes effect at start.
        return supervise(argv)

    names = args.workload or [w.name for w in wl.WORKLOADS]
    selected = [wl.scaled(wl.BY_NAME[n], args.smoke) for n in names]
    repeats = 1 if args.smoke else args.repeats
    try:
        sets = [run_set(selected, args.seed, repeats, args.seconds,
                        args.trace, quick=args.smoke)
                for _ in range(2 if args.aa else 1)]
    finally:
        from repro.parallel import shutdown_pool

        shutdown_pool()
    for report in sets:
        print_report(report)
    agree = compare_sets(*sets) if args.aa else True
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {"seed": args.seed, "smoke": args.smoke, "sets": sets}, indent=1))
    line = result_line(sets[-1])
    print(json.dumps(line))
    return 0 if line["correct"] and agree else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
