"""Differential tests: compiled GPU lane engine vs the tree-walker.

The compiled lane engine — the vector engine's base and per-lane
fallback, pinned here with ``use_engine("compiled")`` — replays kernel
bodies as closure calls but must stay *indistinguishable* from the
tree-walking reference at every observable boundary: final job output,
simulated per-task seconds, map-launch ``ExecCounters``, and the full
per-warp ``KernelCost`` fold. The ``"tree"`` setting of the one engine
switch really tree-walks — kernel lanes, helpers, CPU filters and the
mini-C reducer alike, pinned by ``TestTreeIsTree`` — so every
comparison here is generated code against the reference semantics.
Both engines charge through the same bound closures of
:mod:`repro.gpu.charging` — one formula source, so agreement here
proves the wiring, not formula duplication.
"""

from __future__ import annotations

import pytest

from repro.apps import all_apps, get_app
from repro.apps.base import Application
from repro.apps.combiners import STRING_KEY_INT_SUM
from repro.apps.wordcount import MAP_SOURCE
from repro.config import CLUSTER1
from repro.errors import ConfigError
from repro.fuzz import load_corpus, run_case
from repro.gpu.device import GpuDevice
from repro.gpu.executor import (
    run_combine_kernel,
    run_map_kernel,
    run_map_kernel_global_stealing,
)
from repro.hadoop.local import LocalJobRunner
from repro.kvstore.coerce import parse_kv_line
from repro.kvstore import GlobalKVStore, KVPair, Partitioner
from repro.minic.interpreter import (
    ENGINES,
    Interpreter,
    current_engine,
    set_engine,
    use_engine,
)

APP_TAGS = [app.short for app in all_apps()]
COMBINER_TAGS = [app.short for app in all_apps() if app.has_combiner]


# -- engine selection API ---------------------------------------------------


class TestEngineSelection:
    def test_vector_is_the_default(self):
        assert current_engine() == "vector"
        assert ENGINES == ("vector", "compiled", "tree")

    def test_set_default_returns_previous(self):
        prev = set_engine("tree")
        try:
            assert prev == "vector"
            assert current_engine() == "tree"
        finally:
            set_engine(prev)
        assert current_engine() == "vector"

    def test_context_manager_restores(self):
        with use_engine("tree"):
            assert current_engine() == "tree"
            with use_engine("compiled"):
                assert current_engine() == "compiled"
            assert current_engine() == "tree"
        assert current_engine() == "vector"

    @pytest.mark.parametrize("bad", ["interp", "TREE", ""])
    def test_unknown_engine_rejected(self, bad):
        with pytest.raises(ConfigError, match="unknown engine") as exc:
            set_engine(bad)
        for name in ENGINES:
            assert repr(name) in str(exc.value)
        with pytest.raises(ConfigError, match="unknown engine"):
            with use_engine(bad):
                pass  # pragma: no cover
        assert current_engine() == "vector"


# -- all eight apps, full GPU jobs ------------------------------------------


def _gpu_job(app, text, engine):
    runner = LocalJobRunner(app, use_gpu=True, split_bytes=16 * 1024)
    with use_engine(engine):
        return runner.run(text)


def _assert_launches_identical(tag, ref, other):
    assert other.output == ref.output
    assert other.task_seconds() == ref.task_seconds(), tag
    for i, (ref_task, other_task) in enumerate(zip(ref.map_task_results,
                                                   other.map_task_results)):
        a, b = ref_task.gpu_task, other_task.gpu_task
        assert b.map_launch.counters == a.map_launch.counters, (tag, i)
        assert b.map_launch.cost == a.map_launch.cost, (tag, i)
        assert b.partition_output == a.partition_output, (tag, i)
        assert b.output_bytes == a.output_bytes, (tag, i)


class TestAllAppsEngineParity:
    """Every app under the three engine settings: the all-tree reference
    (tree lanes, tree-walked reducer) vs ``"compiled"`` and
    ``"vector"``."""

    @pytest.mark.parametrize("tag", APP_TAGS)
    def test_three_configurations_agree(self, tag):
        app = get_app(tag)
        text = app.generate(90, seed=11)
        reference = _gpu_job(app, text, "tree")
        for engine in ("compiled", "vector"):
            _assert_launches_identical(
                tag, reference, _gpu_job(app, text, engine))


# -- standalone combine kernels ---------------------------------------------


def _combine_inputs(app, n=70, seed=9):
    out, _ = app.cpu_map(app.generate(n, seed=seed))
    pairs = [KVPair(*parse_kv_line(ln), 0)
             for ln in sorted(out.splitlines()) if ln]
    tr = app.translate_combine()
    kernel = tr.combine_kernel
    snapshot = Interpreter(tr.program, stdin="").run_until_region(
        kernel.original_region)
    return kernel, pairs, snapshot


class TestCombineKernelEngines:
    @pytest.mark.parametrize("tag", COMBINER_TAGS)
    def test_combine_launch_identical(self, tag):
        kernel, pairs, snapshot = _combine_inputs(get_app(tag))
        assert pairs, f"{tag}: map produced no pairs"
        device = GpuDevice(CLUSTER1.gpu)
        with use_engine("tree"):
            tree = run_combine_kernel(device, kernel, pairs, snapshot)
        with use_engine("compiled"):
            comp = run_combine_kernel(device, kernel, pairs, snapshot)
        assert comp.output == tree.output
        assert comp.counters == tree.counters
        assert comp.cost == tree.cost

    def test_empty_partition_identical(self):
        kernel, _pairs, snapshot = _combine_inputs(get_app("WC"))
        device = GpuDevice(CLUSTER1.gpu)
        with use_engine("tree"):
            tree = run_combine_kernel(device, kernel, [], snapshot)
        with use_engine("compiled"):
            comp = run_combine_kernel(device, kernel, [], snapshot)
        assert comp.output == tree.output == []
        assert comp.cost == tree.cost


# -- map kernels, both record-distribution variants -------------------------


def _map_inputs(app, n=90, seed=11):
    tr = app.translate_map()
    kernel = tr.map_kernel
    snapshot = Interpreter(tr.program, stdin="").run_until_region(
        kernel.original_region)
    records = [ln.encode("utf-8") + b"\n"
               for ln in app.generate(n, seed=seed).splitlines()]
    return kernel, records, snapshot


def _fresh_store(kernel):
    return GlobalKVStore(kernel.launch.total_threads,
                         kernel.launch.total_threads * 64)


def _store_pairs(store):
    return sorted((t, p.key, p.value, p.partition)
                  for t, p in store.iter_pairs())


class TestMapKernelEngines:
    @pytest.mark.parametrize("variant", ["stealing", "global"])
    def test_map_launch_identical(self, variant):
        kernel, records, snapshot = _map_inputs(get_app("WC"))
        device = GpuDevice(CLUSTER1.gpu)
        run = (run_map_kernel if variant == "stealing"
               else run_map_kernel_global_stealing)
        stores = {e: _fresh_store(kernel) for e in ENGINES}
        launches = {}
        for e in ENGINES:
            with use_engine(e):
                launches[e] = run(device, kernel, records, snapshot,
                                  stores[e], Partitioner(4))
        tree = launches["tree"]
        for e in ENGINES:
            if e == "tree":
                continue
            other = launches[e]
            assert other.records_processed == tree.records_processed \
                == len(records), e
            assert other.counters == tree.counters, e
            assert other.cost == tree.cost, e
            assert _store_pairs(stores[e]) == _store_pairs(stores["tree"]), e


# -- the reference is a reference -------------------------------------------


#: WC's mapper with a helper function (``__device__`` in the kernel).
HELPER_MAP_SOURCE = "int one_more(int n) { return n + 1; }\n" + \
    MAP_SOURCE.replace("one = 1;", "one = one_more(0);")


def _helper_app():
    """WC whose kernel calls a helper; its reducer is mini-C."""
    return Application(
        name="wordcount-helper", short="WH", nature="IO",
        map_source=HELPER_MAP_SOURCE,
        combine_source=STRING_KEY_INT_SUM,
        reduce_source=STRING_KEY_INT_SUM,
    )


class TestTreeIsTree:
    """``"tree"`` means nothing runs generated code, on either path: CPU
    filters, the mini-C reducer, kernel lanes and kernel helpers all
    tree-walk. Every way into generated code — ``Interpreter.run``, a
    kernel body, a warp suite — first asks
    :func:`repro.minic.cache.compiled_program` for the program's units,
    so those requests are what is counted."""

    @pytest.fixture
    def runtimes(self, monkeypatch):
        from repro.minic import cache, interpreter

        asked = []

        def counting(program):
            asked.append(program)
            return compiled_program(program)

        compiled_program = cache.compiled_program
        monkeypatch.setattr(cache, "compiled_program", counting)
        monkeypatch.setattr(interpreter, "compiled_program", counting)
        return asked

    def test_tree_launches_run_no_generated_code(self, runtimes):
        app = get_app("WC")
        device = GpuDevice(CLUSTER1.gpu)
        kernel, records, snapshot = _map_inputs(app, n=40)
        ckernel, pairs, csnapshot = _combine_inputs(app, n=40)
        runtimes.clear()  # _combine_inputs ran the CPU map filter
        with use_engine("tree"):
            launch = run_map_kernel(device, kernel, records, snapshot,
                                    _fresh_store(kernel), Partitioner(4))
            combined = run_combine_kernel(device, ckernel, pairs, csnapshot)
        assert launch.records_processed == len(records)
        assert combined.output
        assert runtimes == []

    def test_kernel_helpers_tree_walk_too(self, runtimes):
        # A user function called from the kernel body (a __device__
        # helper) runs on the lane's interpreter, not as generated code.
        from repro.compiler import translate
        from repro.minic import parse

        tr = translate(parse(HELPER_MAP_SOURCE))
        kernel = tr.map_kernel
        assert [f.name for f in kernel.helpers] == ["one_more"]
        snapshot = Interpreter(tr.program, stdin="").run_until_region(
            kernel.original_region)
        store = _fresh_store(kernel)
        with use_engine("tree"):
            run_map_kernel(GpuDevice(CLUSTER1.gpu), kernel,
                           [b"a b a\n", b"c\n"], snapshot, store,
                           Partitioner(4))
        assert sorted((p.key, p.value) for _t, p in store.iter_pairs()) \
            == [("a", 1), ("a", 1), ("b", 1), ("c", 1)]
        assert runtimes == []

    def test_tree_jobs_run_no_generated_code(self, runtimes):
        # Whole inline jobs: the CPU path's map, combine and reduce
        # filters, and the GPU path's kernels, helper and mini-C reducer.
        app = _helper_app()
        text = get_app("WC").generate(40, seed=3)
        with use_engine("tree"):
            cpu = LocalJobRunner(app, use_gpu=False, workers=1).run(text)
            gpu = LocalJobRunner(app, use_gpu=True, workers=1).run(text)
        assert cpu.output and gpu.output == cpu.output
        assert runtimes == []

    @pytest.mark.parametrize("engine", ["compiled", "vector"])
    def test_other_settings_run_cpu_filters_as_generated_code(
            self, runtimes, engine):
        # The counter is live on the CPU path too.
        text = get_app("WC").generate(40, seed=3)
        with use_engine(engine):
            LocalJobRunner(_helper_app(), use_gpu=False, workers=1).run(text)
        assert len(runtimes) > 0

    def test_compiled_launch_enters_generated_code(self, runtimes):
        # The counter is live: the compiled engine asks for the units.
        kernel, records, snapshot = _map_inputs(get_app("WC"), n=40)
        with use_engine("compiled"):
            run_map_kernel(GpuDevice(CLUSTER1.gpu), kernel, records,
                           snapshot, _fresh_store(kernel), Partitioner(4))
        assert len(runtimes) > 0


# -- fuzz corpus through the engine oracle ---------------------------------


CORPUS = load_corpus()


class TestCorpusUnderBothDefaults:
    """run_case pins each engine explicitly, so corpus conformance must
    not depend on the ambient default engine."""

    @pytest.mark.parametrize("case", CORPUS, ids=[c.name for c in CORPUS])
    def test_corpus_conforms_with_tree_default(self, case):
        with use_engine("tree"):
            divergence = run_case(case)
        assert divergence is None, divergence.report()
