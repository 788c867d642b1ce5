"""Differential tests: vectorized warp engine vs the per-lane engines.

The vector engine batches every active lane of a launch through numpy
ops, one region at a time, but must stay *indistinguishable* from the
compiled per-lane engine (and the tree reference) at every observable
boundary: job output, simulated per-task seconds, launch counters, and
the full per-warp cost fold. These tests pin

* full-job parity for every registry app across tree/compiled/vector,
* which apps (and which synthetic loop shapes) actually vectorize,
* the predicated-branch property: an If inside a region, masked by an
  arbitrary data-dependent lane pattern, equals per-lane execution,
* the engine-selection seam (vector is what an unpinned launch runs;
  an unknown engine name fails loudly, listing the valid ones), and
* the ``gpu.vector.*`` observability counters.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import all_apps, get_app
from repro.compiler.translator import translate
from repro.config import CLUSTER1
from repro.errors import ConfigError
from repro.gpu import default_gpu_engine, use_gpu_engine
from repro.gpu.device import GpuDevice
from repro.gpu.executor import prepare_shared_ro, run_map_kernel
from repro.gpu.vector import VectorLaneRunner, region_eligible
from repro.hadoop.local import LocalJobRunner
from repro.kvstore import GlobalKVStore, Partitioner
from repro.minic import parse
from repro.minic.interpreter import Interpreter, use_backend
from repro.obs import trace as obs

APP_TAGS = [app.short for app in all_apps()]

#: Apps whose kernels contain at least one vectorizable region. The
#: rest either have no loops at all (whole-kernel fallback) or only
#: ineligible ones (LR: non-literal init + printf inside; PR: variable
#: bound).
VECTOR_APPS = {"BS", "KM", "CL"}


# -- helpers ----------------------------------------------------------------


def _gpu_job(app, text, engine, backend="compiled"):
    runner = LocalJobRunner(app, use_gpu=True, split_bytes=16 * 1024)
    with use_gpu_engine(engine), use_backend(backend):
        return runner.run(text)


def _assert_launches_identical(tag, ref, other):
    assert other.output == ref.output, tag
    assert other.task_seconds() == ref.task_seconds(), tag
    for i, (ref_task, other_task) in enumerate(zip(ref.map_task_results,
                                                   other.map_task_results)):
        a, b = ref_task.gpu_task, other_task.gpu_task
        assert b.map_launch.counters == a.map_launch.counters, (tag, i)
        assert b.map_launch.cost == a.map_launch.cost, (tag, i)
        assert b.partition_output == a.partition_output, (tag, i)
        assert b.output_bytes == a.output_bytes, (tag, i)


def _map_setup(source_or_app):
    """(kernel, snapshot) for a mapper app or raw mapper source."""
    if isinstance(source_or_app, str):
        tr = translate(parse(source_or_app))
    else:
        tr = source_or_app.translate_map()
    kernel = tr.map_kernel
    snapshot = Interpreter(tr.program, stdin="").run_until_region(
        kernel.original_region)
    return kernel, snapshot


def _launch_map(app, n=40):
    """One traced map launch of ``app`` on the ambient engine; its
    metrics."""
    kernel, snapshot = _map_setup(app)
    records = [ln.encode("utf-8") + b"\n"
               for ln in app.generate(n, seed=5).splitlines()]
    store = GlobalKVStore(kernel.launch.total_threads,
                          kernel.launch.total_threads * 64,
                          kernel.key_length, kernel.value_length)
    with obs.use_recorder(obs.TraceRecorder()) as rec:
        run_map_kernel(GpuDevice(CLUSTER1.gpu), kernel, records,
                       snapshot, store, Partitioner(4))
    return rec.metrics


def _vector_runner(source_or_app):
    kernel, snapshot = _map_setup(source_or_app)
    return VectorLaneRunner(GpuDevice(CLUSTER1.gpu), kernel, snapshot,
                            prepare_shared_ro(kernel, snapshot))


def _first_for(body_src):
    """Parse a main() wrapping ``body_src`` and return its first For."""
    program = parse("int main()\n{\n" + body_src + "\n    return 0;\n}\n")
    fors = []

    def walk(node):
        if node.__class__.__name__ == "For":
            fors.append(node)
        for value in getattr(node, "__dict__", {}).values():
            if isinstance(value, list):
                for item in value:
                    if hasattr(item, "__dict__"):
                        walk(item)
            elif hasattr(value, "__dict__"):
                walk(value)

    walk(program.main)
    assert fors, "body_src contains no for loop"
    return fors[0]


# -- full-job parity across the three lane engines --------------------------


class TestAllAppsVectorParity:
    """Every registry app, full GPU job: tree vs compiled vs vector must
    be byte-identical in output, counters, cost, and simulated seconds
    — whether the vector engine vectorizes or falls back per-lane."""

    @pytest.mark.parametrize("tag", APP_TAGS)
    def test_three_engines_agree(self, tag):
        app = get_app(tag)
        text = app.generate(90, seed=11)
        tree = _gpu_job(app, text, "tree")
        compiled = _gpu_job(app, text, "compiled")
        vector = _gpu_job(app, text, "vector")
        _assert_launches_identical(tag, tree, compiled)
        _assert_launches_identical(tag, tree, vector)

    def test_runner_kwarg_selects_vector(self):
        # No runner keyword names an engine any more: an unpinned runner
        # is the vector engine, indistinguishable from the pinned
        # per-lane one.
        app = get_app("BS")
        text = app.generate(60, seed=3)
        unpinned = LocalJobRunner(app, use_gpu=True,
                                  split_bytes=16 * 1024).run(text)
        pinned = _gpu_job(app, text, "compiled")
        _assert_launches_identical("BS", pinned, unpinned)


# -- region detection -------------------------------------------------------


class TestRegionDetection:
    @pytest.mark.parametrize("tag", APP_TAGS)
    def test_registry_apps_vectorize_as_expected(self, tag):
        runner = _vector_runner(get_app(tag))
        if tag in VECTOR_APPS:
            assert runner._warp is not None, f"{tag} should vectorize"
            assert runner._warp.regions > 0
        else:
            assert runner._warp is None, \
                f"{tag} should take the whole-kernel fallback"

    ACCEPT = {
        "plain": "for (int i = 0; i < 8; i++) { int t; t = i; }",
        "float_acc": "for (int i = 0; i < 8; i++) "
                     "{ double x; x = (i * 0.5); }",
        "nested": "for (int i = 0; i < 4; i++) "
                  "{ for (int j = 0; j < 4; j++) { int t; t = (i + j); } }",
        "step2": "for (int i = 0; i < 8; i += 2) { int t; t = i; }",
        "le_bound": "for (int i = 0; i <= 7; i++) { int t; t = i; }",
        "predicated_if": "for (int i = 0; i < 8; i++) { double x; x = 0.0; "
                         "if (i > 3) { x = 1.5; } else { x = (x - 0.25); } }",
        # Modulo by a literal on the (uniform) counter is fine; only
        # varying-lane modulo is rejected.
        "counter_mod": "for (int i = 0; i < 8; i++) { int t; t = (i % 3); }",
    }
    REJECT = {
        "var_bound": "int n;\n    n = 8;\n"
                     "    for (int i = 0; i < n; i++) { int t; t = i; }",
        "counter_mutation": "for (int i = 0; i < 8; i++) { i = (i + 2); }",
        "break_inside": "for (int i = 0; i < 8; i++) "
                        "{ int t; t = i; if (t > 2) break; }",
        "printf_inside": "for (int i = 0; i < 8; i++) "
                         "{ printf(\"%d\\n\", i); }",
        "while_inside": "for (int i = 0; i < 8; i++) "
                        "{ int t; t = i; while (t > 0) { t = (t - 1); } }",
        "trips_over_cap": "for (int i = 0; i < 100000; i++) "
                          "{ int t; t = i; }",
        "downward": "for (int i = 8; i > 0; i--) { int t; t = i; }",
    }

    @pytest.mark.parametrize("shape", sorted(ACCEPT))
    def test_eligible_shapes(self, shape):
        assert region_eligible(None, {}, _first_for(self.ACCEPT[shape]))

    @pytest.mark.parametrize("shape", sorted(REJECT))
    def test_ineligible_shapes(self, shape):
        assert not region_eligible(None, {}, _first_for(self.REJECT[shape]))


# -- predicated branches == per-lane execution (property) -------------------


#: A mapper whose region contains an If predicated on the lane's data:
#: each input integer flips the mask differently on every trip.
PREDICATED_SOURCE = """\
int main()
{
    char word[16];
    char *line;
    size_t nbytes = 10000;
    int read;
    int linePtr;
    int offset;
    int val;
    double acc;
    int rr;
    line = (char*) malloc(nbytes*sizeof(char));
    #pragma mapreduce mapper key(word) value(val) keylength(16) kvpairs(20)
    while ((read = getline(&line, &nbytes, stdin)) != -1) {
        offset = 0;
        while ((linePtr = getWord(line, offset, word, read, 16)) != -1) {
            val = atoi(word);
            acc = 0.0;
            for (rr = 0; rr < 6; rr++) {
                if ((0.5 * val) > (1.0 * rr)) {
                    acc = (acc + 1.5);
                }
                else {
                    acc = (acc - 0.25);
                }
            }
            val = (val + (((int) acc) % 7));
            printf("%s\\t%d\\n", word, val);
            offset += linePtr;
        }
    }
    free(line);
    return 0;
}
"""


def _store_pairs(store):
    return sorted((t, p.key, p.value, p.partition)
                  for t, p in store.iter_pairs())


class TestPredicatedBranchProperty:
    KERNEL, SNAPSHOT = _map_setup(PREDICATED_SOURCE)

    def _launch(self, records, engine):
        kernel = self.KERNEL
        store = GlobalKVStore(kernel.launch.total_threads,
                              kernel.launch.total_threads * 64,
                              kernel.key_length, kernel.value_length)
        with use_gpu_engine(engine):
            launch = run_map_kernel(GpuDevice(CLUSTER1.gpu), kernel, records,
                                    self.SNAPSHOT, store, Partitioner(4))
        return launch, store

    def test_kernel_actually_vectorizes(self):
        runner = _vector_runner(PREDICATED_SOURCE)
        assert runner._warp is not None
        assert runner._warp.regions == 1

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=24))
    def test_arbitrary_lane_masks_match_per_lane(self, values):
        records = [f"{v}".encode("utf-8") + b"\n" for v in values]
        compiled, store_c = self._launch(records, "compiled")
        vector, store_v = self._launch(records, "vector")
        assert vector.counters == compiled.counters
        assert vector.cost == compiled.cost
        assert _store_pairs(store_v) == _store_pairs(store_c)


# -- engine-selection seam --------------------------------------------------


class TestEngineValidation:
    """There is no environment selector: an unpinned launch runs the
    vector engine, and pinning an unknown engine fails with the full
    list of valid names, never by silently running another engine."""

    def test_unknown_engine_raises_listing_valid(self):
        with pytest.raises(ConfigError) as exc_info:
            with use_gpu_engine("warp9"):
                _launch_map(get_app("BS"))
        message = str(exc_info.value)
        assert "warp9" in message
        for name in ("compiled", "tree", "vector"):
            assert name in message
        assert default_gpu_engine() == "vector"

    def test_unpinned_launch_runs_vector(self):
        metrics = _launch_map(get_app("BS"))
        assert metrics.count("gpu.vector.regions") > 0


# -- observability counters -------------------------------------------------


class TestVectorMetrics:
    def test_vectorized_app_counts_regions(self):
        with use_gpu_engine("vector"):
            metrics = _launch_map(get_app("BS"))
        assert metrics.count("gpu.vector.regions") > 0

    def test_fallback_app_counts_fallbacks(self):
        with use_gpu_engine("vector"):
            metrics = _launch_map(get_app("WC"))
        assert metrics.count("gpu.vector.regions") == 0
        assert metrics.count("gpu.vector.fallbacks") > 0
