"""Differential oracle: run one case through every applicable engine.

Four legs execute each eligible case — the tree and compiled CPU
backends, the tree-walking GPU lane engine over tree-interpreted kernel
bodies (the GPU reference), and the shipped vector GPU lane engine —
plus the compiled lane engine pinned by ``use_gpu_engine("compiled")``,
the forced form of vector's per-lane fallback. Comparison boundaries,
strictest first:

* tree vs. compiled CPU backends — stdout must be byte-identical,
  :class:`ExecCounters` bit-identical, and any ``CRuntimeError`` must
  carry the same message from both engines.
* mapper cases — a full ``LocalJobRunner`` job (map → combine →
  shuffle → reduce) with ``use_gpu=False`` vs. ``use_gpu=True`` must
  produce the same final output dict; and the GPU job itself must be
  invariant across lane engines and across the CPU backend used to
  execute kernel regions: same outputs, bit-identical simulated
  seconds, and bit-identical map-launch ``ExecCounters`` and
  ``KernelCost`` (the full per-warp charge fold).
* combiner cases with integer values — the standalone GPU combine
  kernel may emit chunk-boundary partial aggregates (paper §4.2), so
  only per-key sums are compared against the serial combiner; but the
  lane engines must agree on the kernel's exact output pairs,
  counters, and cost first.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Any

from ..apps.base import Application
from ..config import CLUSTER1
from ..errors import ReproError
from ..gpu.device import GpuDevice
from ..gpu.engine import use_gpu_engine
from ..gpu.executor import run_combine_kernel
from ..hadoop.local import LocalJobRunner
from ..kvstore.coerce import parse_kv_line
from ..kvstore.global_store import KVPair
from ..minic import parse
from ..minic.interpreter import ExecCounters, Interpreter, run_filter, use_backend
from ..parallel import in_worker
from .gen import FuzzCase

#: Small split so multi-line inputs exercise >1 map task occasionally.
_SPLIT_BYTES = 512

#: Step budget for direct filter runs. Generated programs finish in ~1k
#: tree steps; the ceiling exists for shrinker mutants that delete a
#: loop-advance statement and would otherwise spin for minutes against
#: the 200M default. Both backends report the limit with the same
#: message, so tripping it is agreeing error behavior, not divergence.
_MAX_STEPS = 200_000


@dataclass
class Divergence:
    """One observed disagreement between backends."""

    case: FuzzCase
    check: str          # which comparison failed, e.g. "stdout:tree-vs-compiled"
    detail: str         # human-readable evidence

    def report(self) -> str:
        lines = [
            f"divergence {self.case.name} [{self.check}]",
            self.detail.rstrip(),
            "--- program ---",
            self.case.source.rstrip(),
        ]
        if self.case.combine_source:
            lines += ["--- combiner ---", self.case.combine_source.rstrip()]
        lines += ["--- input ---", self.case.input_text.rstrip() or "(empty)"]
        return "\n".join(lines)


@dataclass(frozen=True)
class _Outcome:
    status: str                     # "ok" | "error"
    stdout: str = ""
    counters: ExecCounters | None = None
    error: str = ""


def _filter_outcome(source: str, input_text: str, backend: str) -> _Outcome:
    try:
        program = parse(source)
        out, counters = run_filter(program, input_text, backend=backend,
                                   max_steps=_MAX_STEPS)
        return _Outcome("ok", stdout=out, counters=counters)
    except Exception as exc:
        # Mostly CRuntimeError; anything else (e.g. a Python-level error
        # leaking out of an evaluator) still counts as this backend's
        # observable behavior and must match the other backend exactly.
        return _Outcome("error", error=f"{type(exc).__name__}: {exc}")


def _first_diff(a: str, b: str) -> str:
    a_lines, b_lines = a.splitlines(), b.splitlines()
    for i, (la, lb) in enumerate(zip(a_lines, b_lines)):
        if la != lb:
            return f"line {i + 1}: tree={la!r} compiled={lb!r}"
    return (f"line counts differ: tree={len(a_lines)} "
            f"compiled={len(b_lines)}")


def _compare_cpu(case: FuzzCase, source: str,
                 input_text: str) -> Divergence | None:
    """Tree vs. compiled differential on one streaming filter."""
    tree = _filter_outcome(source, input_text, "tree")
    comp = _filter_outcome(source, input_text, "compiled")
    if tree.status != comp.status:
        return Divergence(case, "error:tree-vs-compiled",
                          f"tree={tree.status}({tree.error}) "
                          f"compiled={comp.status}({comp.error})")
    if tree.status == "error":
        if tree.error != comp.error:
            return Divergence(case, "error-message:tree-vs-compiled",
                              f"tree={tree.error!r}\ncompiled={comp.error!r}")
        return None
    if tree.stdout != comp.stdout:
        return Divergence(case, "stdout:tree-vs-compiled",
                          _first_diff(tree.stdout, comp.stdout))
    if tree.counters != comp.counters:
        return Divergence(case, "counters:tree-vs-compiled",
                          f"tree={tree.counters}\ncompiled={comp.counters}")
    return None


# -- mapper cases: full job, CPU streaming vs GPU-simulated ----------------


def _sum_reduce(key: Any, values: list[Any]) -> list[tuple[Any, Any]]:
    return [(key, sum(values))]


def _fuzz_app(case: FuzzCase) -> Application:
    return Application(
        name=f"fuzz-{case.name}",
        short="FZ",
        nature="IO",
        map_source=case.source,
        combine_source=case.combine_source,
        reduce_py=_sum_reduce,
    )


def _run_job(app: Application, input_text: str, use_gpu: bool,
             workers: int = 1):
    runner = LocalJobRunner(app, use_gpu=use_gpu, num_reducers=2,
                            split_bytes=_SPLIT_BYTES, workers=workers)
    return runner.run(input_text)


def _fmt_output_diff(cpu: dict[Any, Any], gpu: dict[Any, Any]) -> str:
    keys = sorted({*cpu, *gpu}, key=repr)
    rows = [f"  {k!r}: cpu={cpu.get(k, '<absent>')!r} "
            f"gpu={gpu.get(k, '<absent>')!r}"
            for k in keys if cpu.get(k, object()) != gpu.get(k, object())]
    return "output dict mismatch:\n" + "\n".join(rows[:20])


def _outputs_diverge(got: dict[Any, Any], want: dict[Any, Any],
                     value_close: bool = False) -> bool:
    """Exact dict inequality, or float-tolerant when ``value_close``."""
    if not value_close:
        return got != want
    if set(got) != set(want):
        return True
    for key, value in want.items():
        other = got[key]
        if isinstance(value, float) or isinstance(other, float):
            if not math.isclose(float(other), float(value),
                                rel_tol=1e-4, abs_tol=1e-3):
                return True
        elif other != value:
            return True
    return False


def _compare_mapper_job(case: FuzzCase) -> Divergence | None:
    return _compare_job_matrix(case, _fuzz_app(case))


def _compare_job_matrix(case: FuzzCase, app: Application,
                        value_close: bool = False,
                        compare_cpu_backends: bool = False) -> Divergence | None:
    try:
        cpu = _run_job(app, case.input_text, use_gpu=False)
    except ReproError as exc:
        return Divergence(case, "cpu-job-error",
                          f"{type(exc).__name__}: {exc}")
    # Scenario cases additionally pin the CPU job across both mini-C
    # backends: the streaming map/combine interpreters must agree byte
    # for byte before the GPU matrix is worth consulting.
    if compare_cpu_backends:
        try:
            with use_backend("tree"):
                cpu_tree = _run_job(app, case.input_text, use_gpu=False)
            with use_backend("compiled"):
                cpu_comp = _run_job(app, case.input_text, use_gpu=False)
        except ReproError as exc:
            return Divergence(case, "cpu-backend-job-error",
                              f"{type(exc).__name__}: {exc}")
        if cpu_tree.output != cpu_comp.output:
            return Divergence(case, "cpu-backend-output:tree-vs-compiled",
                              _fmt_output_diff(cpu_tree.output,
                                               cpu_comp.output))
        if cpu_tree.map_output_pairs != cpu_comp.map_output_pairs:
            return Divergence(
                case, "cpu-backend-pairs:tree-vs-compiled",
                f"tree emitted {cpu_tree.map_output_pairs} map pairs, "
                f"compiled emitted {cpu_comp.map_output_pairs}")
    # Parallel configuration: the same CPU job fanned across a worker
    # pool must match the serial run byte for byte. Skipped inside a
    # fuzz pool worker (workers are leaves — the job would silently run
    # serially, comparing a run against itself) and for single-split
    # inputs (ditto: the runner caps workers at the task count).
    if not in_worker() and len(case.input_text.encode()) > _SPLIT_BYTES:
        try:
            par = _run_job(app, case.input_text, use_gpu=False, workers=2)
        except ReproError as exc:
            return Divergence(case, "parallel-job-error",
                              f"{type(exc).__name__}: {exc}")
        if par.output != cpu.output:
            return Divergence(case, "parallel-vs-serial-output",
                              _fmt_output_diff(cpu.output, par.output))
        if par.map_output_pairs != cpu.map_output_pairs or \
                par.task_seconds() != cpu.task_seconds():
            return Divergence(
                case, "parallel-vs-serial-timing",
                f"serial pairs={cpu.map_output_pairs} "
                f"seconds={cpu.task_seconds()}\n"
                f"parallel pairs={par.map_output_pairs} "
                f"seconds={par.task_seconds()}")
    try:
        # Three GPU configurations: the reference (tree lane engine over
        # tree-interpreted kernel bodies), the shipped engine (vector),
        # and vector's per-lane fallback forced on every region
        # ("compiled"). All must agree exactly. Every leg pins its
        # engine, so the verdict never depends on ambient defaults.
        with use_gpu_engine("tree"), use_backend("tree"):
            gpu_tt = _run_job(app, case.input_text, use_gpu=True)
        with use_gpu_engine("vector"):
            gpu_v = _run_job(app, case.input_text, use_gpu=True)
        with use_gpu_engine("compiled"):
            gpu_c = _run_job(app, case.input_text, use_gpu=True)
    except ReproError as exc:
        return Divergence(case, "gpu-job-error",
                          f"{type(exc).__name__}: {exc}")
    runs = [("tree/tree", gpu_tt), ("vector", gpu_v), ("compiled", gpu_c)]
    for name, gpu in runs[1:]:
        if gpu.output != gpu_tt.output:
            return Divergence(case, f"gpu-engine-output:{name}",
                              _fmt_output_diff(gpu_tt.output, gpu.output))
        sec, sec_tt = gpu.task_seconds(), gpu_tt.task_seconds()
        if sec != sec_tt:
            return Divergence(case, f"gpu-engine-seconds:{name}",
                              f"tree/tree={sec_tt}\n{name}={sec}")
        for i, (ref, other) in enumerate(zip(gpu_tt.map_task_results,
                                             gpu.map_task_results)):
            a, b = ref.gpu_task, other.gpu_task
            if a.map_launch.counters != b.map_launch.counters:
                return Divergence(
                    case, f"gpu-engine-counters:{name}",
                    f"task {i}: tree/tree={a.map_launch.counters}\n"
                    f"{name}={b.map_launch.counters}")
            if a.map_launch.cost != b.map_launch.cost:
                return Divergence(
                    case, f"gpu-engine-cost:{name}",
                    f"task {i}: tree/tree={a.map_launch.cost}\n"
                    f"{name}={b.map_launch.cost}")
    if _outputs_diverge(gpu_v.output, cpu.output, value_close):
        return Divergence(case, "cpu-vs-gpu-job",
                          _fmt_output_diff(cpu.output, gpu_v.output))
    if cpu.map_output_pairs != gpu_v.map_output_pairs:
        return Divergence(
            case, "map-output-pairs",
            f"cpu emitted {cpu.map_output_pairs} map pairs, "
            f"gpu emitted {gpu_v.map_output_pairs}")
    return None


# -- registry scenarios: the real apps through the same engine matrix ------


def scenario_case(short: str, scale: str = "small",
                  seed: int | None = None) -> FuzzCase:
    """One registry app plus its canonical datagen input as a case."""
    from ..apps import get_app
    from ..scenarios.registry import generate_input, get_workload

    app = get_app(short)
    if seed is None:
        seed = get_workload(short).seed
    return FuzzCase(kind="scenario", seed=seed, index=0,
                    source=app.map_source, gpu=True,
                    combine_source=app.combine_source,
                    input_text=generate_input(short, scale, seed=seed),
                    label=f"registry:{short}:{scale}")


def run_scenario(short: str, scale: str = "small",
                 seed: int | None = None) -> Divergence | None:
    """Four-leg oracle over one registry app's canonical workload.

    The comparison matrix is the generated-mapper one plus a CPU
    tree-vs-compiled backend leg, with two app-appropriate adjustments:
    final CPU-vs-GPU values compare with float tolerance (compute apps
    reduce to floats, and the two paths order float additions
    differently), and the app's pure-Python reference output is checked
    as one more independent opinion when the app defines one.
    """
    from ..apps import get_app

    case = scenario_case(short, scale, seed=seed)
    app = get_app(short)
    div = _compare_job_matrix(case, app, value_close=True,
                              compare_cpu_backends=True)
    if div is not None:
        return div
    if app.reference is not None:
        cpu = _run_job(app, case.input_text, use_gpu=False)
        want = app.reference(case.input_text)
        if _outputs_diverge(cpu.output, want, value_close=True):
            return Divergence(case, "cpu-vs-reference",
                              _fmt_output_diff(want, cpu.output))
    return None


# -- combiner cases: serial combiner vs GPU combine kernel -----------------


def _key_sums(pairs: list[tuple[Any, Any]]) -> dict[Any, Any]:
    sums: dict[Any, Any] = defaultdict(int)
    for k, v in pairs:
        sums[k] += v
    return dict(sums)


def _compare_combine_kernel(case: FuzzCase) -> Divergence | None:
    try:
        from ..compiler.translator import translate

        program = parse(case.source)
        tr = translate(program)
        kernel = tr.combine_kernel
        snapshot = Interpreter(tr.program, stdin="").run_until_region(
            kernel.original_region)
        pairs = [KVPair(*parse_kv_line(ln), 0)
                 for ln in case.input_text.splitlines() if ln]
        device = GpuDevice(CLUSTER1.gpu)
        with use_gpu_engine("compiled"):
            launch = run_combine_kernel(device, kernel, pairs, snapshot)
        with use_gpu_engine("tree"), use_backend("tree"):
            launch_t = run_combine_kernel(device, kernel, pairs, snapshot)
        with use_gpu_engine("vector"):
            launch_v = run_combine_kernel(device, kernel, pairs, snapshot)
    except ReproError as exc:
        return Divergence(case, "gpu-combine-error",
                          f"{type(exc).__name__}: {exc}")
    # Lane engines must agree exactly — output pair-for-pair (including
    # any §4.2 chunk-boundary partials), counters, and cost. The vector
    # engine inherits the compiled combine path, so this leg pins the
    # inheritance rather than a separate implementation.
    for name, other in (("compiled", launch), ("vector", launch_v)):
        if other.output != launch_t.output:
            return Divergence(
                case, f"gpu-combine-engine-output:{name}",
                f"tree={launch_t.output[:10]}\n{name}={other.output[:10]}")
        if other.counters != launch_t.counters:
            return Divergence(
                case, f"gpu-combine-engine-counters:{name}",
                f"tree={launch_t.counters}\n{name}={other.counters}")
        if other.cost != launch_t.cost:
            return Divergence(
                case, f"gpu-combine-engine-cost:{name}",
                f"tree={launch_t.cost}\n{name}={other.cost}")
    serial_out, _ = run_filter(parse(case.source), case.input_text,
                               max_steps=_MAX_STEPS)
    serial = [parse_kv_line(ln) for ln in serial_out.splitlines() if ln]
    gpu_pairs = [parse_kv_line(f"{k}\t{v}") for k, v in launch.output]
    serial_sums = _key_sums(serial)
    gpu_sums = _key_sums(gpu_pairs)
    if serial_sums != gpu_sums:
        return Divergence(case, "gpu-combine-sums",
                          _fmt_output_diff(serial_sums, gpu_sums))
    return None


# -- entry point -----------------------------------------------------------


def run_case(case: FuzzCase) -> Divergence | None:
    """Run every applicable comparison; first failure wins."""
    div = _compare_cpu(case, case.source, case.input_text)
    if div is not None:
        return div
    # If the program errors (identically on both CPU backends — just
    # verified), there is nothing meaningful to feed the job/GPU paths.
    primary = _filter_outcome(case.source, case.input_text, "compiled")
    if primary.status != "ok":
        return None
    if case.kind == "mapper" and case.combine_source:
        # The paired combiner is also a tree-vs-compiled subject in its
        # own right: feed it the sorted map output.
        kv = sorted(ln for ln in primary.stdout.splitlines() if ln)
        div = _compare_cpu(case, case.combine_source,
                           "\n".join(kv) + "\n" if kv else "")
        if div is not None:
            div.check = f"pair-combine/{div.check}"
            return div
    if case.kind == "mapper" and case.gpu:
        return _compare_mapper_job(case)
    if case.kind == "combiner" and case.gpu:
        return _compare_combine_kernel(case)
    return None
